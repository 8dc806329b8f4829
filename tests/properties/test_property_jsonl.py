"""Property-based tests for the append-only JSON-lines format.

Every run log (checkpoint journal, event log, ledger index) inherits
its crash safety from :mod:`repro.jsonl`: a file cut at any byte offset
reads back as exactly the complete lines before the cut plus at most
one bad line, and the next append seals the fragment instead of
merging with it.  A line counts as complete once all of its JSON bytes
are present, with or without its newline.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import jsonl

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_docs = st.dictionaries(
    st.text(max_size=6),
    st.one_of(_scalars, st.lists(_scalars, max_size=3)),
    max_size=4,
)


def _write(path: Path, docs) -> bytes:
    for doc in docs:
        jsonl.append(path, doc)
    return path.read_bytes()


@given(docs=st.lists(_docs, min_size=1, max_size=6), cut=st.floats(0, 1),
       extra=_docs)
@settings(max_examples=80, deadline=None)
def test_truncation_loses_at_most_the_torn_line(docs, cut, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        raw = _write(path, docs)
        offset = int(cut * len(raw))
        path.write_bytes(raw[:offset])
        spans, start = [], 0
        for line in raw.split(b"\n")[:-1]:
            spans.append((start, start + len(line)))
            start += len(line) + 1
        complete = sum(1 for _begin, end in spans if end <= offset)
        torn = any(begin < offset < end for begin, end in spans)

        read, bad = jsonl.read(path)
        assert read == docs[:complete]
        assert bad == int(torn)

        jsonl.append(path, extra)
        after, bad_after = jsonl.read(path)
        assert after == docs[:complete] + [extra]
        assert bad_after == bad


@given(docs=st.lists(_docs, max_size=6))
@settings(max_examples=40, deadline=None)
def test_rewrite_roundtrips_without_leftovers(docs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        _write(path, [{"old": True}])
        jsonl.rewrite(path, docs)
        assert jsonl.read(path) == (docs, 0)
        assert [p.name for p in Path(tmp).iterdir()] == ["log.jsonl"]


def test_missing_file_reads_empty(tmp_path):
    assert jsonl.read(tmp_path / "absent.jsonl") == ([], 0)


def test_blank_lines_are_ignored_and_non_objects_are_bad(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n\n   \n[1, 2]\n"text"\n{"b": 2}\n')
    assert jsonl.read(path) == ([{"a": 1}, {"b": 2}], 2)
