"""Command-line entry point.

Exit codes (stable contract); a library error carries its own code as
``exit_code``:

- 0: all requested checks pass;
- 1: a check failed, or an initial lift it asked for does not exist:
  ``LiftFailureError``, whose subclasses are ``ExtensionFailureError``,
  ``InitialContinuityDefectError`` and ``UpperBoundFailureError``;
- 2: input error: any other ``CovlatError``;
- 3: cap or budget exceeded: ``CapExceededError``.

Each morphism and operator action takes a fixed number of file operands
(``MORPHISM_OPERANDS``, ``OPERATOR_OPERANDS``); a wrong count is an input
error.  JSON reports go to stdout; human-readable summaries go to stderr,
and an error exit prints one ``error:`` line there, its line breaks escaped.
A report that holds a table or a frame is written in chunks of rows by the
``fileio`` writers, after every check that can fail, so an error exit
writes nothing to stdout; ``frame --dot`` writes its file with
``fileio.write_dot`` before the report's first byte.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import BaseMismatchError, CovlatError, InputError, MorphismValidationError
from .fileio import (
    Workspace,
    dump_json,
    load_instance,
    nested,
    table_chunks,
    write_dot,
    write_fields,
    write_frame,
    write_operator,
)
from .morphism import (  # noqa: F401 - perfbench/selftest.py reads cli.respects_covers
    Relation,
    ValidatedMorphism,
    canonical_form,
    compose,
    respects_covers,
)
from .verdict import _jsonify


# every character str.splitlines breaks at, as its escape: an error message
# naming a file reference with a line break in it still prints as one line
_ONE_LINE = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(report) -> None:
    """Print a report that is already JSON-native (witnesses converted by ``to_json``)."""
    print(dump_json(report))


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
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                write_dot(fh, frame, edges)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from exc
        _say(f"wrote {args.dot}")
    _say(f"{len(frame)} saturated sets")
    write_frame(sys.stdout, args.instance, frame, edges)
    return 0


# File operands per action; the parser's choices come from these tables.
MORPHISM_OPERANDS = {"verify": 1, "canon": 1, "compose": 2}
OPERATOR_OPERANDS = {
    "verify": 1,
    "join": 2,
    "meet": 2,
    "initial": 2,
    "reflect": 1,
    "coreflect": 1,
    "continuity": 3,
}


def _operands(args, counts) -> list[str]:
    want = counts[args.action]
    if len(args.files) != want:
        raise InputError(f"{args.command} {args.action} takes {want} file{'s' * (want > 1)}, got {len(args.files)}")
    return args.files


def _morphism(ws: Workspace, path: str) -> ValidatedMorphism:
    pairs, src, tgt = ws.relation_file(path)
    try:
        relation = Relation(src.base, tgt.base, pairs)
    except BaseMismatchError as exc:  # a pair names an element outside its base
        raise InputError(f"{path}: {exc}") from exc
    return ValidatedMorphism.build(relation, src, tgt)


def cmd_morphism(args) -> int:
    paths = _operands(args, MORPHISM_OPERANDS)
    ws = Workspace()
    if args.action == "compose":
        first = _morphism(ws, paths[0])
        # one file as both operands is validated once; compose re-verifies the composite
        second = first if paths[1] == paths[0] else _morphism(ws, paths[1])
        result = compose(second, first)
        _emit(
            {
                "pairs": sorted([s, t] for s, t in result.relation.pairs),
                "canonical": canonical_form(result).to_json(),
                "pass": True,
            }
        )
        return 0
    (path,) = paths
    if args.action == "canon":
        _emit({"file": path, "canonical": canonical_form(_morphism(ws, path)).to_json(), "pass": True})
        return 0
    try:
        m = _morphism(ws, path)
    except MorphismValidationError as exc:
        m, respects = None, exc.verdict
    else:
        respects = m.respects
    report = {"file": path, "respects": respects.to_json()}
    if m is not None:
        report["convergent"] = m.convergent.to_json()
    report["pass"] = ok = m is not None and m.convergent.passed
    _say(f"respects covers: {respects.passed}")
    _emit(report)
    return 0 if ok else 1


def cmd_operator(args) -> int:
    from . import closure as cl, interior as it  # only operator needs the operator modules

    action = args.action
    if args.initial_mode and action != "initial":
        raise InputError(f"{action} takes no --initial-mode")
    paths = _operands(args, OPERATOR_OPERANDS)
    ws = Workspace()
    if action in ("initial", "continuity"):
        m = _morphism(ws, paths[0])
        paths = paths[1:]
    tables = [ws.operator_file(path, args.kind) for path in paths]
    table = tables[0]
    closure = table.kind == "closure"

    if action == "verify":
        verdict = (cl.verify_closure_axioms if closure else it.verify_interior_axioms)(table)
        _say(f"axioms: {verdict.passed}")
        _emit({"file": paths[0], "verdict": verdict.to_json(), "pass": verdict.passed})
        return 0 if verdict.passed else 1

    if action == "continuity":
        verdict = (cl.is_c_continuous if closure else it.is_i_continuous)(m, *tables)
        _say(f"continuous: {verdict.passed}")
        _emit({"verdict": verdict.to_json(), "pass": verdict.passed})
        return 0 if verdict.passed else 1

    if action == "initial" and args.initial_mode == "paper":
        if closure:
            raise InputError("initial --initial-mode paper expects an interior table")
        candidate, verdict = it.initial_interior_paper(m, table)
        if not verdict.passed:
            w = verdict.witness
            _say(f"{w['axiom']} violated, witness {_jsonify(w.get('carrier', w.get('smaller')))}")
        write_fields(
            sys.stdout,
            [
                ("mode", nested("paper")),
                ("verdict", nested(verdict.to_json())),
                ("table", table_chunks(candidate)),
                ("pass", nested(verdict.passed)),
            ],
        )
        return 0 if verdict.passed else 1

    if action == "join":
        out = (cl.join_closures if closure else it.join_interiors)(tables)
    elif action == "meet":
        out = (cl.meet_closures if closure else it.meet_interiors)(tables)
    elif action == "initial":
        out = (cl.initial_closure if closure else it.initial_interior_corrected)(m, table)
    elif closure == (action == "reflect"):
        out = (cl.reflection if closure else it.coreflection)(table)
    else:
        raise InputError(f"{action} expects {'a closure' if action == 'reflect' else 'an interior'} table")
    label = {"join": "<combined>", "meet": "<combined>", "initial": "<initial>"}.get(action, "<derived>")
    write_operator(sys.stdout, out, label)
    return 0


def cmd_certify(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.max_cover_size < 0:
        raise InputError(f"--max-cover-size must be at least 0, got {args.max_cover_size}")
    if args.max_cover_size > 3:
        raise InputError(f"--max-cover-size must be at most 3, got {args.max_cover_size}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, so every ``main`` call can share it."""
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
    p.add_argument("action", choices=MORPHISM_OPERANDS)
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_morphism)

    p = sub.add_parser("operator", help="operator-table operations")
    p.add_argument("action", choices=OPERATOR_OPERANDS)
    p.add_argument("files", nargs="+")
    p.add_argument("--kind", choices=["closure", "interior"], default=None)
    p.add_argument("--initial-mode", choices=["paper", "corrected"], default=None)
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
    except CovlatError as exc:
        _say("error: " + str(exc).translate(_ONE_LINE))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
