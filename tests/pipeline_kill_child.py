"""A three-stage pipeline on an on-disk cache, for the SIGKILL resume tests.

``tests/test_pipeline.py::TestKillResume`` runs this module as a child
process and kills it; then it re-runs :func:`build` in the test process
on the same cache directory.  Stage bodies may differ between the two
runs, but names, parameters and versions do not, so the cache keys are
the same.  The module imports nothing but :mod:`repro.pipeline`, which
keeps a child's start-up short.

Run as ``python -m tests.pipeline_kill_child CACHE_DIR MARKER WHERE``
(the repository root and its ``src`` on ``PYTHONPATH``).  The child
touches *MARKER* at the kill point and then stalls:

* ``WHERE=between`` — inside ``second``, after ``first`` is stored;
* ``WHERE=store`` — as ``second`` returns its few-MB artifact, so the
  store runs right after the marker; ``third`` stalls.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.pipeline import ArtifactCache, Pipeline, Stage


def first(inputs):
    return list(range(200_000))


def second(inputs):
    """About 4.8 MB pickled: long enough to kill a store midway."""
    return [(x, x * 0.5, str(x)) for x in inputs["first"]]


def third(inputs):
    return sum(x for x, _, _ in inputs["second"])


def build(second=second, third=third) -> Pipeline:
    return Pipeline(
        [
            Stage("first", first),
            Stage("second", second, deps=("first",)),
            Stage("third", third, deps=("second",)),
        ],
        name="kill-resume",
    )


def main(cache_dir: str, marker: str, where: str) -> None:
    def stall(inputs):
        Path(marker).touch()
        time.sleep(60)

    def second_then_mark(inputs):
        value = second(inputs)
        Path(marker).touch()
        return value

    pipeline = (
        build(second=stall) if where == "between"
        else build(second=second_then_mark, third=stall)
    )
    pipeline.run(cache=ArtifactCache(cache_dir))


if __name__ == "__main__":
    main(*sys.argv[1:])
