"""JSON on-disk formats and the workspace that resolves file references.

Formats (all UTF-8 JSON, deterministic field order):

* instance: ``{"base": ["a", ...], "axioms": [["a", ["b", "c"]], ...]}``;
  alternatively a full relation table ``{"base": [...], "table":
  [[["c"], ["a", "b", "c"]], ...]}`` which is accepted only if it already
  satisfies the two cover conditions, and never beside ``axioms``.
* morphism: ``{"source": "<instance path>", "target": "<instance path>",
  "pairs": [["a", "x"], ...]}``; paths resolve relative to the morphism
  file.
* operator: ``{"cover": "<instance path>", "kind": "closure" |
  "interior", "table": [[["a"], ["a", "b"]], ...]}`` mapping sorted
  carrier lists to sorted carrier lists.

A table, in an instance or an operator file, lists each subset on exactly
one row.

Subsets always serialize as sorted element lists.

Readers (``load_instance``, ``Workspace.relation_file`` and
``Workspace.operator_file``) decode a file and convert it to covlat objects
with the cyclic garbage collector paused (``_read``).  The decoded document
is lists, dicts, strings and ints, acyclic and freed by reference counting
before the reader returns, so the collections its rows would start only
walk and promote rows about to die: the pause skips that work rather than
moving it.  A cycle other code makes during the pause is collected at the
first collection after it.

Reports that hold a whole table or frame are written, not built: the
writers (``write_operator``, ``write_frame`` and ``write_fields`` under
them) send ``dump_json(report) + "\n"`` to a text stream in chunks of at
most ``CHUNK_ROWS`` list items, each made from fragments already at their
final indent, so no copy of the whole report is ever held; ``write_dot``
writes a frame's Graphviz diagram in batches of as many lines.
"""

from __future__ import annotations

import gc
import json
import os
from itertools import chain, islice
from operator import methodcaller
from json.encoder import encode_basestring
from typing import Iterable, Iterator

from .cover import Cover, cover_from_table
from .errors import InputError
from .sets import BaseSet


def _load_json(path: str):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a NUL, or a character the file system cannot encode
        raise InputError(f"cannot read {path!r}: not a file name: {exc}") from exc
    try:
        with fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except ValueError as exc:  # CPython 3.11+: an integer literal of more than 4,300 digits
        raise InputError(f"{path}: cannot decode JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def _expect(data, key, kind, where):
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise InputError(f"{where}: field {key!r} has the wrong type")
    return value


def _mask_table(data, base: BaseSet, where: str, shape: str) -> tuple[list[int], list[int | None]]:
    """The ``table`` field as its carriers' masks in row order, and the
    image's mask by carrier mask, None for a carrier no row lists.

    A table of 2^n rows, all pairs of sides spelled as ``table_chunks``
    writes them, sorted member lists, with no carrier twice, is read in
    one bulk pass of dict lookups.  Any other table is read row by row
    through ``BaseSet.mask_of``, which gives the same masks, and the first
    bad row in row order is the error.  A side must be a list: a string
    or an object, which ``mask_of`` would read as its characters or keys,
    makes a bad row.
    """
    rows = _expect(data, "table", list, where)
    size = 1 << len(base)
    if len(rows) == size:
        keys = base.by_sorted_members((), lambda name: (name,))
        by_members = dict(zip(keys, range(size)))
        order, images = [], [None] * size
        try:
            # one type pass over the sides: a row that is not a list of two
            # lists adds a side that is not a list, or fails to chain or unpack
            if set(map(type, chain.from_iterable(rows))) == {list}:
                for k, v in rows:
                    key = by_members[tuple(k)]
                    order.append(key)
                    images[key] = by_members[tuple(v)]
                if None not in images:  # 2^n rows fill 2^n carriers only with no carrier twice
                    return order, images
        except (KeyError, TypeError, ValueError):  # a side spelled otherwise, a row not a pair
            pass
    order, images = [], [None] * size
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2) or any(
            isinstance(side, (str, dict)) for side in row
        ):
            raise InputError(f"{where}: table rows must be {shape} pairs")
        try:
            key = base.mask_of(row[0])
            value = base.mask_of(row[1])
        except Exception as exc:
            raise InputError(f"{where}: {exc}") from exc
        if images[key] is not None:
            members = base.subset_from_mask(key).sorted_members()
            raise InputError(f"{where}: carrier {members} listed twice")
        order.append(key)
        images[key] = value
    return order, images


def parse_instance(data, where="instance") -> Cover:
    base_names = _expect(data, "base", list, where)
    try:
        base = BaseSet(base_names)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    if "table" in data:
        if "axioms" in data:
            raise InputError(f"{where}: a cover is given by axioms or by a table, not both")
        order, images = _mask_table(data, base, where, "[subset, cover-set]")
        try:
            return cover_from_table(base, {key: images[key] for key in order})
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from exc
    axioms = data.get("axioms", [])
    if not isinstance(axioms, list):
        raise InputError(f"{where}: field 'axioms' has the wrong type")
    pairs = []
    for row in axioms:
        if not (isinstance(row, list) and len(row) == 2 and isinstance(row[1], list)):
            raise InputError(f"{where}: axioms must be [element, [elements...]] pairs")
        pairs.append((row[0], row[1]))
    try:
        return Cover.from_axiom_names(base, pairs)
    except Exception as exc:
        raise InputError(f"{where}: {exc}") from exc


def instance_to_json(cover: Cover) -> dict:
    return {
        "base": list(cover.base.elements),
        "axioms": [[head, body] for head, body in cover.axioms.named_pairs()],
    }


def _read(path: str, convert, *args):
    """``convert(document, *args)`` of the JSON document at ``path``, with
    the cyclic garbage collector paused for the decode and the conversion.

    The collector's earlier state is restored, so a nested read, or a
    caller that had already paused it, finds it as it was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return convert(_load_json(path), *args)
    finally:
        if enabled:
            gc.enable()


def load_instance(path: str) -> Cover:
    return _read(path, parse_instance, path)


class Workspace:
    """Loads and caches instances so that morphism and operator files can
    reference them by path with referential integrity."""

    def __init__(self):
        self._covers: dict[str, Cover] = {}

    def _resolve(self, ref: str, relative_to: str | None) -> str:
        if os.path.isabs(ref):
            return ref
        root = os.path.dirname(relative_to) if relative_to else "."
        return os.path.normpath(os.path.join(root, ref))

    def cover(self, ref: str, relative_to: str | None = None) -> Cover:
        path = self._resolve(ref, relative_to)
        if path not in self._covers:
            self._covers[path] = load_instance(path)
        return self._covers[path]

    def relation_file(self, path: str):
        """Returns (relation pairs, source cover, target cover)."""
        return _read(path, self._relation, path)

    def _relation(self, data, path: str):
        src = self.cover(_expect(data, "source", str, path), relative_to=path)
        tgt = self.cover(_expect(data, "target", str, path), relative_to=path)
        rows = _expect(data, "pairs", list, path)
        pairs = []
        for row in rows:
            if not (isinstance(row, list) and len(row) == 2):
                raise InputError(f"{path}: pairs must be [source, target] pairs")
            pairs.append((row[0], row[1]))
        return pairs, src, tgt

    def operator_file(self, path: str, kind: str | None = None):
        """Returns a ClosureTable or InteriorTable per the file's kind."""
        return _read(path, self._operator, path, kind)

    def _operator(self, data, path: str, kind: str | None):
        from .table import ClosureTable, InteriorTable  # only operator files need tables

        cover = self.cover(_expect(data, "cover", str, path), relative_to=path)
        file_kind = data.get("kind", kind or "closure")
        if kind is not None and file_kind != kind:
            raise InputError(f"{path}: operator kind {file_kind!r} does not match requested {kind!r}")
        _, images = _mask_table(data, cover.base, path, "[carrier, image]")
        if file_kind not in ("closure", "interior"):
            raise InputError(f"{path}: unknown operator kind {file_kind!r}")
        cls = ClosureTable if file_kind == "closure" else InteriorTable
        try:
            return cls.from_mapping(cover, images)
        except Exception as exc:
            raise InputError(f"{path}: {exc}") from exc


def operator_to_json(table, cover_ref: str) -> dict:
    names = table.parent.base.sorted_member_table()
    rows = [[names[m], names[out]] for m, out in enumerate(table.table)]
    return {"cover": cover_ref, "kind": table.kind, "table": rows}


# Items of a list per write: a table-sized report reaches its stream in
# pieces of at most this many rows and is never held as one string.
CHUNK_ROWS = 1024


def write_fields(out, fields) -> None:
    """Writes ``dump_json`` of an object, then a newline, to the text stream
    ``out``.

    The object is given as ``(key, chunks)`` pairs: ``chunks`` is the value's
    JSON text, already at the indent of a field value, in pieces that are
    written as they come.
    """
    opening = "{\n  "
    for key, chunks in fields:
        out.write(opening + encode_basestring(key) + ": ")
        for chunk in chunks:
            out.write(chunk)
        opening = ",\n  "
    out.write("\n}\n")


def nested(data) -> tuple[str]:
    """``dump_json(data)`` as the one chunk of a field value.

    Its lines are indented by a prefix, which is exact because an encoded
    JSON string never holds a raw newline; meant for values a few lines long.
    """
    return (dump_json(data).replace("\n", "\n  "),)


def _batches(items: Iterable[str]) -> Iterator[list[str]]:
    """``items`` in the lists of at most ``CHUNK_ROWS`` every writer sends."""
    items = iter(items)
    while batch := list(islice(items, CHUNK_ROWS)):
        yield batch


def _list_chunks(items: Iterable[str]) -> Iterator[str]:
    """A JSON list as the chunks of a field value, from its items' text at
    the indent of that list's items, one chunk per batch of items."""
    opening = "[\n    "
    for batch in _batches(items):
        yield opening + ",\n    ".join(batch)
        opening = ",\n    "
    yield "[]" if opening == "[\n    " else "\n  ]"


def table_chunks(table) -> Iterator[str]:
    """The ``table`` field of ``operator_to_json(table, ...)`` as the chunks
    of a field value, written from one fragment per subset.

    A fragment is a subset's sorted member list as it stands on a row side,
    already at its final indent; each name is encoded once, by the function
    ``json.dumps`` itself calls, so a row is one concatenation.
    """
    base = table.parent.base
    items = {name: ",\n        " + encode_basestring(name) for name in base.elements}
    bodies = base.by_sorted_members("", items.__getitem__)
    sides = ["[" + body[1:] + "\n      ]" if body else "[]" for body in bodies]
    return _list_chunks(
        "[\n      " + sides[m] + ",\n      " + sides[out] + "\n    ]"
        for m, out in enumerate(table.table)
    )


def write_operator(out, table, cover_ref: str) -> None:
    """Writes ``dump_json(operator_to_json(table, cover_ref))`` and a newline
    to ``out``, without walking the rows."""
    write_fields(
        out,
        [
            ("cover", (encode_basestring(cover_ref),)),
            ("kind", (encode_basestring(table.kind),)),
            ("table", table_chunks(table)),
        ],
    )


def _set_names(frame, escape) -> Iterator[list[str]]:
    """Each saturated set of ``frame``, in mask order, as the sorted list
    of its members' names, each name escaped once per call by ``escape``."""
    elements = frame.cover.base.elements
    items = [(1 << i, escape(name)) for name, i in sorted((name, i) for i, name in enumerate(elements))]
    for mask in frame.masks:
        yield [text for bit, text in items if mask & bit]


def write_frame(out, path: str, frame, edges) -> None:
    """Writes ``dump_json`` of the ``frame`` report of ``path``, and a
    newline, to ``out``: the frame's saturated sets, the Hasse ``edges``
    (mask pairs) between them and the convergence verdict.

    Each saturated set's member list is built once, before the first
    write, at the indent of a ``saturated`` entry and one level deeper as a
    ``hasse`` side, so an edge is one concatenation.
    """
    entries = [
        "[\n      " + ",\n      ".join(names) + "\n    ]" if names else "[]"
        for names in _set_names(frame, encode_basestring)
    ]
    sides = {mask: entry.replace("\n", "\n  ") for mask, entry in zip(frame.masks, entries)}
    hasse = ("[\n      " + sides[lo] + ",\n      " + sides[hi] + "\n    ]" for lo, hi in edges)
    convergent = frame.convergent.to_json() if frame.convergent is not None else None
    write_fields(
        out,
        [
            ("file", (encode_basestring(path),)),
            ("saturated", _list_chunks(entries)),
            ("hasse", _list_chunks(hasse)),
            ("convergent", nested(convergent)),
        ],
    )


def write_dot(out, frame, edges) -> None:
    """Writes the Graphviz digraph of a frame to ``out``, a line per
    saturated set and per Hasse pair of masks in ``edges`` (smaller to
    larger), ``CHUNK_ROWS`` lines per write.

    A node's id is the set's sorted member names joined by commas, each
    name with its backslashes, quotes and commas escaped by a backslash,
    so distinct sets get distinct ids; its label is the set as ``{a,b}``.
    """
    quoted = {c: "\\" + c for c in '\\"'}
    names = _set_names(frame, methodcaller("translate", str.maketrans({**quoted, ",": "\\,"})))
    ids = dict(zip(frame.masks, ('"' + ",".join(members) + '"' for members in names)))
    names = _set_names(frame, methodcaller("translate", str.maketrans(quoted)))
    labels = ('"{' + ",".join(members) + '}"' for members in names)
    lines = chain(
        ["digraph {", "  rankdir=BT;"],
        (f"  {node} [label={label}];" for node, label in zip(ids.values(), labels)),
        (f"  {ids[lo]} -> {ids[hi]};" for lo, hi in edges),
        ["}"],
    )
    for batch in _batches(lines):
        out.write("\n".join(batch) + "\n")


def dump_json(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False)
