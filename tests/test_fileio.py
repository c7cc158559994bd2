"""The operator-table and frame writers against ``json.dumps(indent=2)`` of
the dict form, on shuffled bases whose names need every kind of JSON escape,
and the bounded chunks they write."""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlat import (
    BaseSet,
    ClosureTable,
    Cover,
    InputError,
    InteriorTable,
    Relation,
    ValidatedMorphism,
    initial_interior_paper,
    reflection,
    verify_interior_axioms,
)
from covlat.cli import main
from covlat import fileio
from covlat.fileio import (
    dump_json,
    load_instance,
    operator_to_json,
    parse_instance,
    table_chunks,
    write_dot,
    write_fields,
    write_frame,
    write_operator,
)
from covlat.oracle import random_interior_table
from conftest import data_path

# Every control character, the quote and the backslash, the line separator
# that JSON leaves raw under ensure_ascii=False, names that are prefixes of
# one another, and non-ASCII letters that sort after the ASCII ones.
NAMES = [chr(c) for c in range(0x20)] + [
    '"', "\\", "\u2028", " ", "a", "b", "B", "ab", 'a"b', "x\ny", "é", "ß", "Ω", "日", "Ä",
]


def shuffled_base(rng, size):
    return BaseSet(rng.sample(NAMES, size))


def random_table(rng, cover):
    size = 1 << len(cover.base)
    return ClosureTable(cover, [rng.randrange(size) for _ in range(size)])


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, ensure_ascii=False)


def frame_report(path, frame, edges):
    """The dict form of the ``frame`` report, which ``dump_json`` printed."""

    def names(mask):
        return frame.cover.base.subset_from_mask(mask).sorted_members()

    return {
        "file": path,
        "saturated": [s.sorted_members() for s in frame.sets],
        "hasse": [[names(lo), names(hi)] for lo, hi in edges],
        "convergent": frame.convergent.to_json() if frame.convergent is not None else None,
    }


def written(writer, *args):
    """What ``writer(stream, *args)`` writes to a fresh StringIO."""
    out = io.StringIO()
    writer(out, *args)
    return out.getvalue()


def assert_frame_text_matches(path, cover):
    frame = cover.saturated_sets()
    edges = frame.hasse_edges()
    assert written(write_frame, path, frame, edges) == dump_json(frame_report(path, frame, edges)) + "\n"


@given(st.integers(0, 10_000), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_frame_text_matches_dump_json(seed, size):
    rng = random.Random(seed)
    base = shuffled_base(rng, size)
    names = base.elements
    axioms = [
        (rng.choice(names), rng.sample(names, rng.randint(0, size)))
        for _ in range(rng.randint(0, 2 * size) if size else 0)
    ]
    path = "".join(rng.sample(NAMES, 3))
    assert_frame_text_matches(path, Cover.from_axiom_names(base, axioms))


# unsorted4: base order is not sorted order; m3: convergence fails with a witness
@pytest.mark.parametrize("name", ["unsorted4.json", "m3.json", "chain.json", "one.json"])
def test_frame_text_on_data_files(name):
    assert_frame_text_matches(name, load_instance(data_path(name)))


def test_frame_text_over_the_double_cap():
    """Nine elements: no convergence verdict, so ``convergent`` is null."""
    rng = random.Random(9)
    base = shuffled_base(rng, 9)
    names = base.elements
    cover = Cover.from_axiom_names(base, [(names[0], [names[1]]), (names[2], names[3:5])])
    assert cover.saturated_sets().convergent is None
    assert_frame_text_matches("over.json", cover)


def test_frame_text_of_the_empty_base():
    # one saturated set, the empty one, and no edges
    assert_frame_text_matches("empty.json", Cover(BaseSet([])))


@given(st.integers(0, 10_000), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_table_text_matches_dump_of_rows(seed, size):
    rng = random.Random(seed)
    t = random_table(rng, Cover(shuffled_base(rng, size)))
    rows = operator_to_json(t, "x")["table"]
    text = written(write_fields, [("table", table_chunks(t))])
    assert text == json.dumps({"table": rows}, indent=2, ensure_ascii=False) + "\n"


@given(st.integers(0, 10_000), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_operator_text_matches_dump_json(seed, size):
    rng = random.Random(seed)
    t = random_table(rng, Cover(shuffled_base(rng, size)))
    ref = "".join(rng.sample(NAMES, 3))
    assert written(write_operator, t, ref) == dump_json(operator_to_json(t, ref)) + "\n"


@given(st.integers(0, 10_000), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_cli_reports_match_dump_json(seed, size):
    """`operator reflect` and `initial --initial-mode paper` (along the
    identity) print what `dump_json` prints for their dict forms; paper
    mode prints nothing for a target that fails its axioms (exit 2)."""
    rng = random.Random(seed)
    base = shuffled_base(rng, size)
    cover = Cover(base)
    closure = random_table(rng, cover)
    # a valid interior table (the paper verdict passes) or an arbitrary one
    if rng.randrange(2):
        interior = random_interior_table(rng, cover)
    else:
        interior = InteriorTable(cover, random_table(rng, cover).table)
    identity = [[e, e] for e in base.elements]
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: os.path.join(tmp, name) for name in ("c.json", "i.json", "id.json")}
        write(os.path.join(tmp, "base.json"), {"base": list(base.elements), "axioms": []})
        for name, t in (("c.json", closure), ("i.json", interior)):
            write(path[name], operator_to_json(t, "base.json"))
        write(path["id.json"], {"source": "base.json", "target": "base.json", "pairs": identity})
        reflect_out = run_main("operator", "reflect", path["c.json"])
        paper_out = run_main("operator", "initial", path["id.json"], path["i.json"],
                             "--initial-mode", "paper")

    assert reflect_out == (0, dump_json(operator_to_json(reflection(closure), "<derived>")) + "\n")
    if not verify_interior_axioms(interior).passed:
        assert paper_out == (2, "")
        return
    m = ValidatedMorphism.build(Relation(base, base, identity), cover, cover)
    candidate, verdict = initial_interior_paper(m, interior)
    report = {
        "mode": "paper",
        "verdict": verdict.to_json(),
        "table": operator_to_json(candidate, "<initial>")["table"],
        "pass": verdict.passed,
    }
    assert paper_out == (0 if verdict.passed else 1, dump_json(report) + "\n")


class RecordingStream(io.StringIO):
    """A text stream that keeps each ``write`` it is given."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def items_begun(text):
    """The list items at the depth of a report field's list items that
    ``text`` begins: each begins on a new line, four spaces in, with ``[``.
    Deeper items are indented further, and an encoded name holds no raw
    newline."""
    return text.count("\n    [")


def test_chunked_operator_writes():
    """A 12-element table (4,096 rows) goes out in pieces of at most
    ``CHUNK_ROWS`` rows that join to ``dump_json`` of the dict form."""
    rng = random.Random(12)
    t = random_table(rng, Cover(BaseSet([f"e{i}" for i in range(12)])))
    out = RecordingStream()
    write_operator(out, t, "t.json")
    assert "".join(out.writes) == dump_json(operator_to_json(t, "t.json")) + "\n"
    assert max(map(items_begun, out.writes)) == fileio.CHUNK_ROWS < 4096
    assert sum(map(items_begun, out.writes)) == 4096


def test_chunked_frame_writes():
    """A frame of 4,096 sets (the free 12-element cover, 24,576 edges)."""
    cover = Cover(BaseSet([f"e{i}" for i in range(12)]))
    frame = cover.saturated_sets()
    edges = frame.hasse_edges()
    assert len(frame) == 4096
    out = RecordingStream()
    write_frame(out, "free12.json", frame, edges)
    assert "".join(out.writes) == dump_json(frame_report("free12.json", frame, edges)) + "\n"
    assert max(map(items_begun, out.writes)) == fileio.CHUNK_ROWS
    assert sum(map(items_begun, out.writes)) == len(frame) + len(edges)
    out = RecordingStream()
    write_dot(out, frame, edges)
    lines = [text.count("\n") for text in out.writes]
    assert max(lines) == fileio.CHUNK_ROWS
    assert sum(lines) == 3 + len(frame) + len(edges)  # the two opening lines and "}"


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 3])
def test_small_chunks_keep_the_bytes(monkeypatch, chunk, size):
    """Chunks that split every list, including one of a single item and
    the empty ``hasse`` list of the one-set frame."""
    monkeypatch.setattr(fileio, "CHUNK_ROWS", chunk)
    rng = random.Random(size)
    base = shuffled_base(rng, size)
    t = random_table(rng, Cover(base))
    out = RecordingStream()
    write_operator(out, t, "t.json")
    assert "".join(out.writes) == dump_json(operator_to_json(t, "t.json")) + "\n"
    assert max(map(items_begun, out.writes)) <= chunk
    cover = Cover.from_axiom_names(base, [(base.elements[0], [])] if size else [])
    frame = cover.saturated_sets()
    edges = frame.hasse_edges()
    out = RecordingStream()
    write_frame(out, "f.json", frame, edges)
    assert "".join(out.writes) == dump_json(frame_report("f.json", frame, edges)) + "\n"
    assert max(map(items_begun, out.writes)) <= chunk


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_small_chunks_keep_the_dot_bytes(monkeypatch, chunk):
    """The DOT lines go out in batches of at most ``CHUNK_ROWS`` lines
    that join to the text written in one batch."""
    cover = Cover.from_axiom_names(BaseSet(["b", "a", "c"]), [("a", ["b"])])
    frame = cover.saturated_sets()
    edges = frame.hasse_edges()
    whole = io.StringIO()
    write_dot(whole, frame, edges)
    monkeypatch.setattr(fileio, "CHUNK_ROWS", chunk)
    out = RecordingStream()
    write_dot(out, frame, edges)
    assert "".join(out.writes) == whole.getvalue()
    assert max(text.count("\n") for text in out.writes) <= chunk


@pytest.mark.parametrize("axioms", [[], [["a", ["b"]]]], ids=["empty", "one"])
def test_instance_with_axioms_and_table_is_an_input_error(axioms):
    # the table alone would give a cover; its axioms must not be dropped
    table = [[[], []], [["a"], ["a"]], [["b"], ["b"]], [["a", "b"], ["a", "b"]]]
    assert len(parse_instance({"base": ["a", "b"], "table": table}).base) == 2
    with pytest.raises(InputError) as info:
        parse_instance({"base": ["a", "b"], "axioms": axioms, "table": table}, "in.json")
    assert str(info.value) == "in.json: a cover is given by axioms or by a table, not both"
