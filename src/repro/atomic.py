"""Atomic file replacement, the one temp-file writer behind every ledger.

The artifact cache and the run ledger's ``gc`` each write a temp file
beside the target and move it into place with one ``os.replace``, so a
crash leaves the old file or the new one, never a torn one.  The cache
is also the pipeline's resume record: a stage counts as finished once
its artifact is in place.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: Path, mode: str = "w") -> Iterator[IO[Any]]:
    """Yield a handle on a ``.tmp`` file beside *path* (text is UTF-8).

    A clean exit replaces *path* with it; an exception removes it and
    leaves *path* as it was.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
