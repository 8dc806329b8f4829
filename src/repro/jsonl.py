"""Append-only JSON-lines files: the one format behind every run log.

The checkpoint journal, the event log and the run-ledger index are each
a schema on top of this module, which owns the format and its crash
safety: one sorted-key JSON object per line, flushed and fsynced, so a
file cut at any byte offset loses at most its torn final line.  Every
:func:`append` first seals such a fragment with a newline (one seek, so
it is checked on every append, not only at open), and :func:`read`
skips and counts it.  Only the standard library is imported, so
:mod:`repro.core` and :mod:`repro.obs` can both build on it.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


def _line(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def append(path: str | Path, doc: dict) -> None:
    """Append one document as a line; raises :class:`OSError`."""
    line = _line(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")  # seal a killed writer's fragment
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def read(path: str | Path) -> tuple[list[dict], int]:
    """``(docs, bad)``: every JSON-object line and the count of lines
    that do not parse or are not objects.  Blank lines are ignored; a
    missing or unreadable file reads as ``([], 0)``."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], 0
    docs: list[dict] = []
    bad = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            doc = None
        if isinstance(doc, dict):
            docs.append(doc)
        else:
            bad += 1
    return docs, bad


def rewrite(path: str | Path, docs) -> None:
    """Atomically replace ``path`` with one line per document (fsynced
    temporary file, then rename); raises :class:`OSError` and leaves no
    temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(_line(doc) for doc in docs))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


__all__ = ["append", "read", "rewrite"]
