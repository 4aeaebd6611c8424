"""Integration smoke tests: every example script must run end to end.

Each example runs as a subprocess in a temporary working directory (so
``output/`` artifacts land in the sandbox) and its stdout is checked for
the findings it is supposed to print.

The subprocess environment pins ``PYTHONPATH`` to the repo's *absolute*
``src`` directory: the examples must import :mod:`repro` regardless of
the inherited environment or the current working directory (a relative
``PYTHONPATH=src`` would silently stop resolving under ``cwd=tmp_path``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

CASES = {
    "quickstart.py": ["Orchestration", "Figure 4", "artifacts"],
    "custom_mapping_study.py": ["after dedup", "kappa", "Shannon evenness"],
    "continuum_scheduling.py": ["makespan", "slowdown", "Gantt"],
    "tool_recommendation.py": ["Validation against the published Table 2",
                               "recommended tools"],
    "bibliometrics.py": ["Linear trend", "Top venues", "Figures written"],
    "pipeline_caching.py": ["cold run", "warm run", "stages executed",
                            "resumed run"],
    "pipeline_profiling.py": ["span tree", "stage duration percentiles",
                              "Chrome trace written"],
    "run_ledger.py": ["Recording two study runs", "ledger:",
                      "clean compare", "result drift -> exit code 3",
                      "perf regression -> exit code 4",
                      "Structured NDJSON log"],
}


def example_env() -> dict[str, str]:
    """Subprocess env whose ``PYTHONPATH`` works from any working directory."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not inherited else os.pathsep.join([src, inherited])
    )
    return env


@pytest.mark.parametrize("script", sorted(CASES))
def test_example_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=example_env(),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for fragment in CASES[script]:
        assert fragment in result.stdout, (
            f"{script}: {fragment!r} missing from output"
        )


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(CASES), (
        "examples/ and the smoke-test table diverged"
    )
