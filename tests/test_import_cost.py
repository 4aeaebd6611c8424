"""Import cost: importing the package must not load scipy.

scipy.stats is by far the slowest and largest import the package has,
and only the Q1–Q3 statistics call it, so those functions import it
where they use it.  Every CLI call, server boot and library user that never runs a
test statistic skips that cost.  The check runs in a fresh interpreter
so modules imported by other tests cannot mask a top-level import.
"""

import subprocess
import sys

from tests.test_examples import example_env

MODULES = ("repro", "repro.cli", "repro.serve", "repro.continuum", "repro.stats")


def test_import_leaves_scipy_unloaded():
    code = (
        f"import sys, {', '.join(MODULES)}\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=example_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
