"""Each demo script runs to completion and prints its headline results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (script and its arguments, a line the run must print)
DEMOS = [
    (["approximate_large_n.py"],
     "  eps=  1e-2: exact algorithm for n <= 30, refused for n = 31..64, "
     "split windows for n >= 65"),
    (["count_tables.py", "8"], "  n= 8: 25864897"),
    (["sample_gallery.py"], "  replay identical: True"),
]


@pytest.mark.parametrize("argv,headline", DEMOS, ids=[d[0][0] for d in DEMOS])
def test_demo_runs(argv, headline):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert headline in done.stdout.splitlines()
