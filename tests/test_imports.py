"""Every top-level import of the package's modules, the tests and the tools is read."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/regtang", "tests", "tools")


def _unread_imports(source: str):
    """The names a module's top-level imports bind and the module never
    reads, each with its line; ``from __future__`` binds none."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_checker_finds_an_unread_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert _unread_imports(source) == [(1, "os"), (3, "pi")]


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for d in DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(ROOT, d, name)
                with open(path) as fh:
                    unread += [f"{d}/{name}:{line}: {what}"
                               for line, what in _unread_imports(fh.read())]
    assert unread == []
