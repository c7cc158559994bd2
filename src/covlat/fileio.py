"""JSON on-disk formats and the workspace that resolves file references.

Formats (all UTF-8 JSON, deterministic field order):

* instance: ``{"base": ["a", ...], "axioms": [["a", ["b", "c"]], ...]}``;
  alternatively a full relation table ``{"base": [...], "table":
  [[["c"], ["a", "b", "c"]], ...]}`` which is accepted only if it already
  satisfies the two cover conditions.
* concrete space: ``{"points": [...], "base": [...],
  "forcing": [["x", "a"], ...]}``.
* morphism: ``{"source": "<instance path>", "target": "<instance path>",
  "pairs": [["a", "x"], ...]}``; paths resolve relative to the morphism
  file.
* operator: ``{"cover": "<instance path>", "kind": "closure" |
  "interior", "table": [[["a"], ["a", "b"]], ...]}`` mapping sorted
  carrier lists to sorted carrier lists.

A table, in an instance or an operator file, lists each subset on exactly
one row.

Subsets always serialize as sorted element lists.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import encode_basestring

from .cover import ConcreteSpace, Cover, cover_from_table
from .errors import BaseMismatchError, InputError
from .sets import BaseSet


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def _expect(data, key, kind, where):
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise InputError(f"{where}: field {key!r} has the wrong type")
    return value


def _mask_table(data, base: BaseSet, where: str, shape: str) -> dict[int, int]:
    """The ``table`` field as a map from subset masks to subset masks.

    A table of 2^n rows, all pairs of sides spelled as ``table_text``
    prints them, sorted member lists, with no carrier twice, is read in
    one bulk pass of dict lookups.  Any other table is read row by row
    through ``BaseSet.mask_of``, which gives the same masks, and the first
    bad row in row order is the error.  A side must be a list: a string
    or an object, which ``mask_of`` would read as its characters or keys,
    makes a bad row.
    """
    rows = _expect(data, "table", list, where)
    if len(rows) == 1 << len(base):
        keys = base.by_sorted_members((), lambda name: (name,))
        by_members = dict(zip(keys, range(len(keys))))
        try:
            # one type pass over the sides: a row that is not a list of two
            # lists adds a side that is not a list, or fails to chain or unpack
            if set(map(type, chain.from_iterable(rows))) == {list}:
                table = {by_members[tuple(k)]: by_members[tuple(v)] for k, v in rows}
                if len(table) == len(rows):
                    return table
        except (KeyError, TypeError, ValueError):  # a side spelled otherwise, a row not a pair
            pass
    table = {}
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
        if key in table:
            members = base.subset_from_mask(key).sorted_members()
            raise InputError(f"{where}: carrier {members} listed twice")
        table[key] = value
    return table


def parse_instance(data, where="instance") -> Cover:
    base_names = _expect(data, "base", list, where)
    try:
        base = BaseSet(base_names)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    if "table" in data:
        table = _mask_table(data, base, where, "[subset, cover-set]")
        try:
            return cover_from_table(base, table)
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


def load_instance(path: str) -> Cover:
    return parse_instance(_load_json(path), where=path)


def parse_space(data, where="space") -> ConcreteSpace:
    points = _expect(data, "points", list, where)
    try:
        base = BaseSet(_expect(data, "base", list, where))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    forcing = _expect(data, "forcing", list, where)
    pairs = []
    for row in forcing:
        if not (isinstance(row, list) and len(row) == 2):
            raise InputError(f"{where}: forcing rows must be [point, element] pairs")
        pairs.append((row[0], row[1]))
    try:
        return ConcreteSpace(points, base, pairs)
    except (ValueError, BaseMismatchError, InputError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def space_to_json(space: ConcreteSpace) -> dict:
    return {
        "points": list(space.points),
        "base": list(space.base.elements),
        "forcing": sorted([p, a] for p, a in space.forcing),
    }


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
        data = _load_json(path)
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
        from .table import ClosureTable, InteriorTable  # only operator files need tables

        data = _load_json(path)
        cover = self.cover(_expect(data, "cover", str, path), relative_to=path)
        file_kind = data.get("kind", kind or "closure")
        if kind is not None and file_kind != kind:
            raise InputError(f"{path}: operator kind {file_kind!r} does not match requested {kind!r}")
        mapping = _mask_table(data, cover.base, path, "[carrier, image]")
        if file_kind not in ("closure", "interior"):
            raise InputError(f"{path}: unknown operator kind {file_kind!r}")
        cls = ClosureTable if file_kind == "closure" else InteriorTable
        try:
            return cls.from_mapping(cover, mapping)
        except Exception as exc:
            raise InputError(f"{path}: {exc}") from exc


def operator_to_json(table, cover_ref: str) -> dict:
    names = table.parent.base.sorted_member_table()
    rows = [[names[m], names[out]] for m, out in enumerate(table.table)]
    return {"cover": cover_ref, "kind": table.kind, "table": rows}


def table_text(table) -> str:
    """``json.dumps(operator_to_json(table, ...)["table"], indent=2,
    ensure_ascii=False)``, written from one fragment per subset.

    A fragment is a subset's sorted member list as it stands on a row side,
    already indented; each name is encoded once, by the function
    ``json.dumps`` itself calls, so a row is one concatenation.
    """
    base = table.parent.base
    items = {name: ",\n      " + encode_basestring(name) for name in base.elements}
    bodies = base.by_sorted_members("", items.__getitem__)
    sides = ["[" + body[1:] + "\n    ]" if body else "[]" for body in bodies]
    rows = [
        "[\n    " + sides[m] + ",\n    " + sides[out] + "\n  ]"
        for m, out in enumerate(table.table)
    ]
    return _list_text(rows)


def frame_text(path: str, frame, edges) -> str:
    """``dump_json`` of the ``frame`` report of ``path``: the frame's
    saturated sets, the Hasse ``edges`` between them and the convergence
    verdict, written from one fragment per saturated set.

    A fragment is a set's sorted member list, each name encoded once and
    indented as a ``saturated`` entry; one more level of indent makes it a
    ``hasse`` side.  Fragments are built for the frame's own sets only, so
    an edge is one concatenation.
    """
    elements = frame.cover.base.elements
    items = [
        (1 << i, ",\n    " + encode_basestring(name))
        for name, i in sorted((name, i) for i, name in enumerate(elements))
    ]
    entries = {}
    for s in frame.sets:
        body = "".join(text for bit, text in items if s.mask & bit)
        entries[s.mask] = "[" + body[1:] + "\n  ]" if body else "[]"
    sides = {mask: entry.replace("\n", "\n  ") for mask, entry in entries.items()}
    hasse = ["[\n    " + sides[lo.mask] + ",\n    " + sides[hi.mask] + "\n  ]" for lo, hi in edges]
    convergent = frame.convergent.to_json() if frame.convergent is not None else None
    return dump_fields(
        [
            ("file", encode_basestring(path)),
            ("saturated", _list_text(list(entries.values()))),
            ("hasse", _list_text(hasse)),
            ("convergent", dump_json(convergent)),
        ]
    )


def _list_text(items: list[str]) -> str:
    """A JSON list as text at depth 0, from its items' text at depth 1."""
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def dump_fields(fields) -> str:
    """``dump_json`` of an object given as ``(key, value text)`` pairs, each
    value already JSON text at depth 0.

    A value is indented one level by prefixing each of its lines, which is
    exact because an encoded JSON string never holds a raw newline.
    """
    return "{\n" + ",\n".join(
        "  " + encode_basestring(key) + ": " + text.replace("\n", "\n  ") for key, text in fields
    ) + "\n}"


def operator_text(table, cover_ref: str) -> str:
    """``dump_json(operator_to_json(table, cover_ref))``, without walking the rows."""
    return dump_fields(
        [
            ("cover", encode_basestring(cover_ref)),
            ("kind", encode_basestring(table.kind)),
            ("table", table_text(table)),
        ]
    )


def dump_json(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False)
