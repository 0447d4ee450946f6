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

PINNED = "3777 runs sha256 c47b23357d5af1fb489f7a0f1886913122cb49f5d14496a3469817dc32eb3d4e"


def test_cli_sweep_prints_the_pinned_line():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_sweep.py"), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout == PINNED + "\n"
