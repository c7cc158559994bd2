"""The operator-table and frame writers against ``json.dumps(indent=2)`` of
the dict form, on shuffled bases whose names need every kind of JSON escape."""

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
    InteriorTable,
    Relation,
    ValidatedMorphism,
    initial_interior_paper,
    reflection,
    verify_interior_axioms,
)
from covlat.cli import main
from covlat.fileio import (
    dump_json,
    frame_text,
    load_instance,
    operator_text,
    operator_to_json,
    table_text,
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


def assert_frame_text_matches(path, cover):
    frame = cover.saturated_sets()
    edges = frame.hasse_edges()
    assert frame_text(path, frame, edges) == dump_json(frame_report(path, frame, edges))


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
    assert table_text(t) == json.dumps(rows, indent=2, ensure_ascii=False)


@given(st.integers(0, 10_000), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_operator_text_matches_dump_json(seed, size):
    rng = random.Random(seed)
    t = random_table(rng, Cover(shuffled_base(rng, size)))
    ref = "".join(rng.sample(NAMES, 3))
    assert operator_text(t, ref) == dump_json(operator_to_json(t, ref))


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
