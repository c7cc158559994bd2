"""In-memory span tracer for covlat, installed from outside the library.

The tracer wraps covlat's public functions and methods.  A module-level
function is replaced in every loaded ``covlat`` module that binds it, so a
name brought in with ``from ... import`` (``covlat.cli.respects_covers``,
``covlat.oracle.verify_closure_axioms``) is traced like the definition.

Each wrapped call updates per-name aggregates: calls, self time (duration
minus the time covered by wrapped calls it made) and, where the result
carries one, a work count.  Layer entry points also append a span
``(id, name, start, end, parent id)`` to an in-memory list that the caller
writes out when the run ends.  Hot inner functions (``saturate_mask``,
``down_mask``, ``subset_from_mask``) only update aggregates, so that a
traced run does not hold millions of spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

perf = time.perf_counter


def _path_bytes(stat, args, result):
    path = next((a for a in args if isinstance(a, str)), None)
    if path is not None and os.path.exists(path):
        stat["bytes"] += os.path.getsize(path)


def _text_bytes(stat, args, result):
    stat["bytes"] += len(result.encode("utf-8"))


def _checked(stat, args, result):
    stat["checked"] += result.checked


def _length(stat, args, result):
    stat["size"] += len(result)


def _instances(stat, args, result):
    stat["instances"] += result.instances


# span name -> (targets "module:qualname", note taken from the call)
SPANS = {
    "cli.main": (["covlat.cli:main"], None),
    "fileio.load": (
        [
            "covlat.fileio:load_instance",
            "covlat.fileio:Workspace.relation_file",
            "covlat.fileio:Workspace.operator_file",
        ],
        _path_bytes,
    ),
    "fileio.dump": (["covlat.fileio:dump_json"], _text_bytes),
    "cover.is_convergent": (["covlat.cover:Cover.is_convergent"], _checked),
    "cover.saturated_sets": (["covlat.cover:Cover.saturated_sets"], _length),
    "cover.hasse_edges": (["covlat.cover:FrameOfSaturated.hasse_edges"], _length),
    "morphism.respects_covers": (["covlat.morphism:respects_covers"], _checked),
    "morphism.build": (["covlat.morphism:ValidatedMorphism.build"], None),
    "morphism.compose": (["covlat.morphism:compose"], None),
    "subobject.verify": (["covlat.subobject:SublocaleFamily.verify"], _checked),
    "subobject.induced_cover": (["covlat.subobject:induced_cover"], None),
    "closure.verify": (["covlat.closure:verify_closure_axioms"], _checked),
    "closure.reflection": (["covlat.closure:reflection"], None),
    "closure.lattice": (["covlat.closure:join_closures", "covlat.closure:meet_closures"], None),
    "closure.continuity": (["covlat.closure:is_c_continuous"], None),
    "closure.initial": (["covlat.closure:initial_closure"], None),
    "interior.verify": (["covlat.interior:verify_interior_axioms"], _checked),
    "interior.coreflection": (["covlat.interior:coreflection"], None),
    "interior.lattice": (["covlat.interior:join_interiors", "covlat.interior:meet_interiors"], None),
    "interior.continuity": (["covlat.interior:is_i_continuous"], None),
    "interior.initial": (
        ["covlat.interior:initial_interior_paper", "covlat.interior:initial_interior_corrected"],
        None,
    ),
    "oracle.certify": (
        [
            "covlat.oracle:certify_saturation",
            "covlat.oracle:certify_morphism_shortcuts",
            "covlat.oracle:certify_initial_lift",
            "covlat.oracle:certify_suplattice_roundtrip",
        ],
        _instances,
    ),
}

# hot inner functions: name -> (target, timed)
HOT = {
    "cover.saturate_mask": ("covlat.cover:Cover.saturate_mask", True),
    "cover.down_mask": ("covlat.cover:Cover.down_mask", False),
    "sets.subset_from_mask": ("covlat.sets:BaseSet.subset_from_mask", False),
}

FIELDS = ("calls", "self_s", "checked", "bytes", "size", "instances", "misses")


def _e2e(workloads, metric="round_s.p50"):
    return {"workloads": workloads, "moves": metric}


_DENSE, _SPARSE, _OPS, _CLI = "cover-dense", "cover-sparse", "operator-tables", "cli-small"

# Per-layer metric -> (unit, span name, field, the workloads where it must be
# non-zero and the end-to-end metric a change to it should move there).
METRICS = {
    "cli.startup_s": ("s", None, None, _e2e([_CLI])),
    "cli.import_s": ("s", None, None, _e2e([_CLI])),
    "cli.main.self_s": ("s", "cli.main", "self_s", _e2e([_OPS])),
    "fileio.load.self_s": ("s", "fileio.load", "self_s", _e2e([_OPS, _CLI])),
    "fileio.load.bytes": ("B", "fileio.load", "bytes", _e2e([_OPS, _CLI])),
    "fileio.dump.self_s": ("s", "fileio.dump", "self_s", _e2e([_OPS, _CLI])),
    "fileio.dump.bytes": ("B", "fileio.dump", "bytes", _e2e([_OPS, _CLI])),
    "sets.subset_from_mask.calls": (
        "count", "sets.subset_from_mask", "calls", _e2e([_DENSE], "round_s.p50, peak_rss_mb")
    ),
    "cover.saturate_mask.calls": ("count", "cover.saturate_mask", "calls", _e2e([_SPARSE])),
    "cover.saturate_mask.misses": ("count", "cover.saturate_mask", "misses", _e2e([_SPARSE])),
    "cover.saturate_mask.hit_ratio": ("ratio", "cover.saturate_mask", None, _e2e([_SPARSE])),
    "cover.saturate_mask.self_s": ("s", "cover.saturate_mask", "self_s", _e2e([_SPARSE])),
    "cover.is_convergent.self_s": ("s", "cover.is_convergent", "self_s", _e2e([_DENSE, _SPARSE])),
    "cover.is_convergent.checked": ("count", "cover.is_convergent", "checked", _e2e([_DENSE, _SPARSE])),
    "cover.down_mask.calls": ("count", "cover.down_mask", "calls", _e2e([_DENSE, _SPARSE])),
    "cover.saturated_sets.self_s": ("s", "cover.saturated_sets", "self_s", _e2e([_SPARSE, _DENSE])),
    "cover.saturated_sets.size": ("count", "cover.saturated_sets", "size", _e2e([_SPARSE, _DENSE])),
    "cover.hasse_edges.self_s": ("s", "cover.hasse_edges", "self_s", _e2e([_DENSE])),
    "cover.hasse_edges.count": ("count", "cover.hasse_edges", "size", _e2e([_DENSE])),
    "morphism.respects_covers.self_s": ("s", "morphism.respects_covers", "self_s", _e2e([_SPARSE])),
    "morphism.respects_covers.checked": ("count", "morphism.respects_covers", "checked", _e2e([_SPARSE])),
    "morphism.build.self_s": ("s", "morphism.build", "self_s", _e2e([_SPARSE])),
    "morphism.compose.self_s": ("s", "morphism.compose", "self_s", _e2e([_SPARSE])),
    "subobject.verify.self_s": ("s", "subobject.verify", "self_s", _e2e([_SPARSE])),
    "subobject.verify.checked": ("count", "subobject.verify", "checked", _e2e([_SPARSE])),
    "subobject.induced_cover.self_s": ("s", "subobject.induced_cover", "self_s", _e2e([_SPARSE])),
    "closure.verify.self_s": ("s", "closure.verify", "self_s", _e2e([_OPS])),
    "closure.verify.checked": ("count", "closure.verify", "checked", _e2e([_OPS])),
    "closure.reflection.self_s": ("s", "closure.reflection", "self_s", _e2e([_OPS])),
    "closure.lattice.self_s": ("s", "closure.lattice", "self_s", _e2e([_OPS])),
    "closure.continuity.self_s": ("s", "closure.continuity", "self_s", _e2e([_OPS])),
    "closure.initial.self_s": ("s", "closure.initial", "self_s", _e2e([_OPS])),
    "interior.verify.self_s": ("s", "interior.verify", "self_s", _e2e([_OPS])),
    "interior.verify.checked": ("count", "interior.verify", "checked", _e2e([_OPS])),
    "interior.coreflection.self_s": ("s", "interior.coreflection", "self_s", _e2e([_OPS])),
    "interior.lattice.self_s": ("s", "interior.lattice", "self_s", _e2e([_OPS])),
    "interior.continuity.self_s": ("s", "interior.continuity", "self_s", _e2e([_OPS])),
    "interior.initial.self_s": ("s", "interior.initial", "self_s", _e2e([_OPS])),
    "oracle.certify.self_s": ("s", "oracle.certify", "self_s", _e2e([_CLI])),
    "oracle.certify.instances": ("count", "oracle.certify", "instances", _e2e([_CLI])),
    "trace.overhead_frac": ("frac", None, None, _e2e([_DENSE, _SPARSE, _OPS, _CLI])),
}


class Tracer:
    """Span and aggregate recorder; ``install`` patches covlat in place."""

    def __init__(self):
        self.spans: list[tuple] = []
        # frames of the active wrapped calls: [span id, time covered by children]
        self.stack: list[list] = [[0, 0.0]]
        self.stats: dict[str, dict] = {}
        self.missing: list[str] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- aggregates ----------------------------------------------------------

    def stat(self, name: str) -> dict:
        if name not in self.stats:
            self.stats[name] = dict.fromkeys(FIELDS, 0)
        return self.stats[name]

    def snapshot_and_reset(self) -> dict:
        snap = {name: dict(stat) for name, stat in self.stats.items()}
        for stat in self.stats.values():
            for key in stat:
                stat[key] = 0
        return snap

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, note=None):
        stat = self.stat(name)
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                parent[1] += end - start
                spans.append((sid, name, start, end, parent[0]))
                stat["calls"] += 1
                stat["self_s"] += end - start - frame[1]
            if note is not None:
                note(stat, args, result)
            return result

        return wrapper

    def _timed(self, name, fn):
        stat = self.stat(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(obj, *args):
            cache = getattr(obj, "_cache", None)
            if cache is not None and args[0] not in cache:
                stat["misses"] += 1
            frame = [0, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(obj, *args)
            finally:
                dur = perf() - start
                stack.pop()
                stack[-1][1] += dur
                stat["calls"] += 1
                stat["self_s"] += dur - frame[1]

        return wrapper

    def _counted(self, name, fn):
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span; the benchmark's job boundary."""
        return self._span(name, fn)(*args)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("covlat.cli")  # load every module that may bind a target
        for name, (targets, note) in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, n=name, nt=note: self._span(n, fn, nt))
        for name, (target, timed) in HOT.items():
            make = self._timed if timed else self._counted
            self._patch(target, lambda fn, n=name, mk=make: mk(n, fn))

    def _patch(self, target: str, make) -> None:
        modname, qualname = target.split(":")
        try:
            module = importlib.import_module(modname)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else None
            original = owner.__dict__[attr] if owner is not None else getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            # a later refactor may move a name; the self-test reports the layer as silent
            self.missing.append(target)
            return
        if owner is not None:
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(make(original.__func__))
            else:
                replacement = make(original)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            return
        replacement = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "covlat" and not mod_name.startswith("covlat."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def merge(snapshots: list[dict]) -> dict:
    """Sum aggregate snapshots, e.g. of the children started in one round."""
    out: dict[str, dict] = {}
    for snap in snapshots:
        for name, stat in snap.items():
            acc = out.setdefault(name, dict.fromkeys(FIELDS, 0))
            for key, value in stat.items():
                acc[key] = acc.get(key, 0) + value
    return out


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-round medians of every span-derived metric in ``METRICS``."""
    out = {}
    for metric, (_unit, span, field, _moves) in METRICS.items():
        if span is None:
            continue
        values = []
        for snap in rounds:
            stat = snap.get(span, dict.fromkeys(FIELDS, 0))
            if field is None:  # hit ratio: hits over calls
                calls = stat["calls"]
                values.append((calls - stat["misses"]) / calls if calls else 0.0)
            else:
                values.append(stat[field])
        out[metric] = statistics.median(values) if values else 0
    return out
