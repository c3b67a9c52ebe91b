"""The repository's measurement tools."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree(path):
    return sorted((d, tuple(sorted(files))) for d, _, files in os.walk(path))


def test_opcount_gives_the_same_counts_on_every_run():
    # two smoke passes of departure count the same bytecodes, generated and
    # other, and the same generated functions run, and leave no file under
    # perfbench/
    before = _tree(os.path.join(ROOT, "perfbench"))
    runs = [json.loads(subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "opcount.py"), "departure", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300).stdout)
        for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["failed"] == 0 and runs[0]["kernel"] > runs[0]["other"] > 0
    assert runs[0]["kernels"] > 0
    assert _tree(os.path.join(ROOT, "perfbench")) == before
