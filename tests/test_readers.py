"""The ``covlat.fileio`` readers decode and convert a file with the cyclic
garbage collector paused: they leave the collector as they found it, on
success and on every input error, and a table read skips the collections
its decoded rows would start."""

import gc
import json
import os
import random

import pytest

from covlat import BaseSet, ClosureTable, Cover, InputError
from covlat import fileio
from covlat.fileio import Workspace, dump_json, instance_to_json, load_instance, operator_to_json

FREE2 = {"base": ["a", "b"], "axioms": []}
TRIVIAL = [[[], []], [["a"], ["a", "b"]], [["b"], ["a", "b"]], [["a", "b"], ["a", "b"]]]

FILES = {
    "cover.json": FREE2,
    "bad_row_cover.json": {"base": ["a", "b"], "table": [["a", []]]},
    "morphism.json": {"source": "cover.json", "target": "cover.json", "pairs": [["a", "a"], ["b", "b"]]},
    "bad_row_morphism.json": {"source": "cover.json", "target": "cover.json", "pairs": [["a"]]},
    "bad_source_row.json": {"source": "bad_row_cover.json", "target": "cover.json", "pairs": []},
    "nul_source.json": {"source": "a\u0000b.json", "target": "cover.json", "pairs": []},
    "surrogate_target.json": {"source": "cover.json", "target": "\ud800.json", "pairs": []},
    "operator.json": {"cover": "cover.json", "kind": "closure", "table": TRIVIAL},
    "bad_row_operator.json": {"cover": "cover.json", "kind": "closure", "table": [[["a"]]]},
    "bad_cover_row.json": {"cover": "bad_row_cover.json", "kind": "closure", "table": TRIVIAL},
    "unknown_kind.json": {"cover": "cover.json", "kind": "nucleus", "table": TRIVIAL},
    "nul_cover.json": {"cover": "a\u0000b.json", "kind": "closure", "table": TRIVIAL},
    "surrogate_cover.json": {"cover": "\ud800.json", "kind": "closure", "table": TRIVIAL},
}

READERS = {
    "load_instance": lambda ws, path: load_instance(path),
    "relation_file": Workspace.relation_file,
    "operator_file": Workspace.operator_file,
}

# (reader, file, whether the read succeeds); a file name not in FILES is
# missing, "invalid.json" is not JSON, and a NUL is no file name at all
CASES = [
    ("load_instance", "cover.json", True),
    ("load_instance", "missing.json", False),
    ("load_instance", "invalid.json", False),
    ("load_instance", "bad_row_cover.json", False),
    ("load_instance", "a\u0000b.json", False),
    ("relation_file", "morphism.json", True),
    ("relation_file", "missing.json", False),
    ("relation_file", "invalid.json", False),
    ("relation_file", "bad_row_morphism.json", False),
    ("relation_file", "bad_source_row.json", False),
    ("relation_file", "nul_source.json", False),
    ("relation_file", "surrogate_target.json", False),
    ("operator_file", "operator.json", True),
    ("operator_file", "missing.json", False),
    ("operator_file", "invalid.json", False),
    ("operator_file", "bad_row_operator.json", False),
    ("operator_file", "bad_cover_row.json", False),
    ("operator_file", "unknown_kind.json", False),
    ("operator_file", "nul_cover.json", False),
    ("operator_file", "surrogate_cover.json", False),
]


@pytest.fixture
def files(tmp_path):
    for name, data in FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "invalid.json").write_text('{"base": ')
    return tmp_path


@pytest.fixture
def collector():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def read(reader, directory, name):
    return READERS[reader](Workspace(), os.path.join(directory, name))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("reader, name, ok", CASES)
def test_collector_is_left_as_found(files, collector, reader, name, ok, enabled):
    (gc.enable if enabled else gc.disable)()
    if ok:
        read(reader, files, name)
    else:
        with pytest.raises(InputError):
            read(reader, files, name)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("reader, name", [(reader, name) for reader, name, ok in CASES if ok])
def test_readers_decode_with_the_collector_paused(files, collector, monkeypatch, reader, name):
    gc.enable()
    load = fileio._load_json
    entered = []

    def spy(path):
        entered.append((os.path.basename(path), gc.isenabled()))
        return load(path)

    monkeypatch.setattr(fileio, "_load_json", spy)
    read(reader, files, name)
    # the morphism and operator files resolve cover.json through a nested read
    expected = [name] if reader == "load_instance" else [name, "cover.json"]
    assert entered == [(file, False) for file in expected]
    assert gc.isenabled()


def test_a_table_read_starts_at_most_one_collection(tmp_path, collector):
    rng = random.Random(12)
    names = [f"e{i}" for i in range(12)]
    rng.shuffle(names)
    cover = Cover.from_axiom_names(BaseSet(names), [])
    table = ClosureTable(cover, [rng.randrange(1 << 12) for _ in range(1 << 12)])
    report = operator_to_json(table, "cover.json")
    rng.shuffle(report["table"])
    (tmp_path / "cover.json").write_text(dump_json(instance_to_json(cover)))
    (tmp_path / "op.json").write_text(dump_json(report))

    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        read_back = Workspace().operator_file(str(tmp_path / "op.json"))
    finally:
        gc.callbacks.remove(record)
    assert read_back == table
    # With the collector running, the same read starts 23 collections on
    # CPython 3.11, each walking decoded rows that die before it returns.
    # Paused, at most the one due on the first allocation after the collector
    # resumes can start inside the read.
    assert len(starts) <= 1, starts
