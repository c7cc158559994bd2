"""Command-line entry point.

Exit codes (stable contract): 0 all requested checks pass, 1 a check
failed, 2 input error, 3 cap or budget exceeded.

JSON reports go to stdout; human-readable summaries go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import closure as cl
from . import interior as it
from .errors import (
    CapExceededError,
    CovlatError,
    ExtensionFailureError,
    InitialContinuityDefectError,
    InputError,
    MorphismValidationError,
    UpperBoundFailureError,
)
from .fileio import Workspace, dump_fields, dump_json, load_instance, operator_text, table_text
from .morphism import (  # noqa: F401 - perfbench/selftest.py reads cli.respects_covers
    Relation,
    ValidatedMorphism,
    canonical_form,
    compose,
    respects_covers,
)
from .verdict import _jsonify


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(report) -> None:
    """Print a report that is already JSON-native (witnesses converted by ``to_json``)."""
    print(dump_json(report))


def dot_diagram(nodes, edges) -> str:
    """Graphviz digraph: one node per set, edges from smaller to larger."""

    def node_id(s):
        return '"' + ",".join(s.sorted_members()) + '"'

    lines = ["digraph {", "  rankdir=BT;"]
    for s in nodes:
        label = "{" + ",".join(s.sorted_members()) + "}"
        lines.append(f"  {node_id(s)} [label=\"{label}\"];")
    for lo, hi in edges:
        lines.append(f"  {node_id(lo)} -> {node_id(hi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    cover = load_instance(args.instance)
    convergent = cover.is_convergent()
    overt = cover.is_overt()
    report = {
        "file": args.instance,
        "base": list(cover.base.elements),
        "axioms": len(cover.axioms),
        "convergent": convergent.to_json(),
        "pos": cover.pos().sorted_members(),
        "overt": overt.to_json(),
    }
    ok = convergent.passed and overt.passed
    report["pass"] = ok
    _say(f"convergent: {convergent.passed}" + ("" if convergent.passed else f", witness {_jsonify(convergent.witness)}"))
    _say(f"overt: {overt.passed}")
    _emit(report)
    return 0 if ok else 1


def cmd_frame(args) -> int:
    cover = load_instance(args.instance)
    frame = cover.saturated_sets()
    edges = frame.hasse_edges()
    report = {
        "file": args.instance,
        "saturated": [s.sorted_members() for s in frame.sets],
        "hasse": [[lo.sorted_members(), hi.sorted_members()] for lo, hi in edges],
        "convergent": frame.convergent.to_json() if frame.convergent is not None else None,
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_diagram(frame.sets, edges))
        _say(f"wrote {args.dot}")
    _say(f"{len(frame.sets)} saturated sets")
    _emit(report)
    return 0


def _load_morphism(ws: Workspace, path: str):
    pairs, src, tgt = ws.relation_file(path)
    relation = Relation(src.base, tgt.base, pairs)
    return relation, src, tgt


def cmd_morphism(args) -> int:
    ws = Workspace()
    if args.action == "verify":
        relation, src, tgt = _load_morphism(ws, args.files[0])
        try:
            m = ValidatedMorphism.build(relation, src, tgt)
        except MorphismValidationError as exc:
            m, respects = None, exc.verdict
        else:
            respects = m.respects
        report = {"file": args.files[0], "respects": respects.to_json()}
        if m is not None:
            report["convergent"] = m.convergent.to_json()
            ok = m.convergent.passed
        else:
            ok = False
        report["pass"] = ok
        _say(f"respects covers: {respects.passed}")
        _emit(report)
        return 0 if ok else 1
    if args.action == "canon":
        relation, src, tgt = _load_morphism(ws, args.files[0])
        m = ValidatedMorphism.build(relation, src, tgt)
        _emit({"file": args.files[0], "canonical": canonical_form(m).to_json(), "pass": True})
        return 0
    if args.action == "compose":
        r1, src1, tgt1 = _load_morphism(ws, args.files[0])
        r2, src2, tgt2 = _load_morphism(ws, args.files[1])
        first = ValidatedMorphism.build(r1, src1, tgt1)
        second = ValidatedMorphism.build(r2, src2, tgt2)
        result = compose(second, first)
        _emit(
            {
                "pairs": sorted([s, t] for s, t in result.relation.pairs),
                "canonical": canonical_form(result).to_json(),
                "pass": True,
            }
        )
        return 0
    raise InputError(f"unknown morphism action {args.action!r}")


def cmd_operator(args) -> int:
    ws = Workspace()

    def load_op(path):
        return ws.operator_file(path, args.kind)

    if args.action == "verify":
        table = load_op(args.files[0])
        if table.kind == "interior":
            verdict = it.verify_interior_axioms(table)
        else:
            verdict = cl.verify_closure_axioms(table)
        _say(f"axioms: {verdict.passed}")
        _emit({"file": args.files[0], "verdict": verdict.to_json(), "pass": verdict.passed})
        return 0 if verdict.passed else 1

    if args.action in ("join", "meet"):
        t1, t2 = load_op(args.files[0]), load_op(args.files[1])
        if t1.kind != t2.kind:
            raise InputError("cannot combine closure and interior tables")
        if t1.kind == "interior":
            out = (it.join_interiors if args.action == "join" else it.meet_interiors)([t1, t2])
        else:
            out = (cl.join_closures if args.action == "join" else cl.meet_closures)([t1, t2])
        print(operator_text(out, "<combined>"))
        return 0

    if args.action == "initial":
        relation, src, tgt = _load_morphism(ws, args.files[0])
        m = ValidatedMorphism.build(relation, src, tgt)
        table = load_op(args.files[1])
        if table.kind == "interior":
            if args.initial_mode == "paper":
                candidate, verdict = it.initial_interior_paper(m, table)
                report = [
                    ("mode", dump_json("paper")),
                    ("verdict", dump_json(verdict.to_json())),
                    ("table", table_text(candidate)),
                    ("pass", dump_json(verdict.passed)),
                ]
                if not verdict.passed:
                    w = verdict.witness
                    _say(f"{w['axiom']} violated, witness {_jsonify(w.get('carrier', w.get('smaller')))}")
                print(dump_fields(report))
                return 0 if verdict.passed else 1
            result = it.initial_interior_corrected(m, table)
        else:
            result = cl.initial_closure(m, table)
        print(operator_text(result, "<initial>"))
        return 0

    if args.action in ("reflect", "coreflect"):
        table = load_op(args.files[0])
        if args.action == "reflect":
            if table.kind != "closure":
                raise InputError("reflect expects a closure table")
            out = cl.reflection(table)
        else:
            if table.kind != "interior":
                raise InputError("coreflect expects an interior table")
            out = it.coreflection(table)
        print(operator_text(out, "<derived>"))
        return 0

    if args.action == "continuity":
        relation, src, tgt = _load_morphism(ws, args.files[0])
        m = ValidatedMorphism.build(relation, src, tgt)
        t_src = load_op(args.files[1])
        t_tgt = load_op(args.files[2])
        if t_src.kind == "interior":
            verdict = it.is_i_continuous(m, t_src, t_tgt)
        else:
            verdict = cl.is_c_continuous(m, t_src, t_tgt)
        _say(f"continuous: {verdict.passed}")
        _emit({"verdict": verdict.to_json(), "pass": verdict.passed})
        return 0 if verdict.passed else 1

    raise InputError(f"unknown operator action {args.action!r}")


def cmd_certify(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.max_cover_size < 0:
        raise InputError(f"--max-cover-size must be at least 0, got {args.max_cover_size}")
    from .oracle import EnumerationBudget, default_certificates  # only certify needs the oracle

    budget = EnumerationBudget(
        max_cover_size=args.max_cover_size,
        samples=args.samples,
        seed=args.seed,
    )
    certs = default_certificates(budget)
    _emit([c.to_json() for c in certs])
    for c in certs:
        _say(f"{'PASS' if c.passed else 'FAIL'} {c.claim_id} ({c.instances} instances)")
    return 0 if all(c.passed for c in certs) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlat",
        description="Finite convergent covers: checks, frames, morphisms, operator tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance: axioms, convergence, positivity, overtness")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("frame", help="saturated sets and their Hasse diagram")
    p.add_argument("instance")
    p.add_argument("--dot", help="write a Graphviz DOT file")
    p.set_defaults(fn=cmd_frame)

    p = sub.add_parser("morphism", help="verify, canonicalize or compose morphism files")
    p.add_argument("action", choices=["verify", "canon", "compose"])
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_morphism)

    p = sub.add_parser("operator", help="operator-table operations")
    p.add_argument(
        "action",
        choices=["verify", "join", "meet", "initial", "reflect", "coreflect", "continuity"],
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--kind", choices=["closure", "interior"], default=None)
    p.add_argument("--initial-mode", choices=["paper", "corrected"], default="corrected")
    p.set_defaults(fn=cmd_operator)

    p = sub.add_parser("certify", help="run the brute-force certification suites")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cover-size", type=int, default=3)
    p.set_defaults(fn=cmd_certify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        _say(f"error: {exc}")
        return 3
    except (InputError, MorphismValidationError) as exc:
        _say(f"error: {exc}")
        return 2
    except (ExtensionFailureError, InitialContinuityDefectError, UpperBoundFailureError) as exc:
        _say(f"error: {exc}")
        return 1
    except CovlatError as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
