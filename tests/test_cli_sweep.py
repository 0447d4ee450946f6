"""The byte-identity sweep of the command-line interface, pinned.

`tools/cli_sweep.py` runs `check`, `homology` and `verify` in every mode
over the corpus, its triples, tampered triples, damaged action files, a
shuffled torus and two lens covers, and prints one sha256 over every
run's argv, exit code, stdout and stderr.  A change that alters output on
purpose updates the pin and says why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = "5633 runs sha256 92f89078cc3bc694f62431fa5cf5f65205049d48db2bfa76d6b5d5ffc709adba"


def test_cli_sweep_prints_the_pinned_line():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_sweep.py"), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout == PINNED + "\n"
