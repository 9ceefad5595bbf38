"""Command line surface.

Subcommands generate lattice fragments, enumerate orientations, search
homomorphisms, build and verify witnesses, certify distance gadgets,
assemble products, and run the full verification grid.  Exit codes keep
three failure families apart: 2 means a verification produced a negative
verdict, 3 means a search budget ran out, 4 means the invocation itself
was unusable.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .bq import DEFAULT_BRANCH_LIMIT, bq_certify, gadget
from .errors import BudgetExhausted, NoWitnessExists, RigidlabError, UsageError
from .export import (
    SCHEMA_REPORT,
    dumps_canonical,
    load_json,
    orientation_to_dot,
    orientation_to_json,
    pointset_from_json,
    pointset_to_json,
    pointset_to_svg,
    product_to_dot,
    product_to_json,
    relstruct_from_json,
    unitgraph_to_dot,
    write_text_atomic,
)
from .numeric import Point, parse_scalar, point_to_float
from .phi import (
    OrientationFamily,
    all_orientations,
    count_orientations,
    orientation_from_bits,
    sample_orientations,
)
from .plane import PointSet, lattice_ball
from .product import (
    build_product,
    find_conflict_edge,
    verify_product_witness,
    witness_case1,
    witness_case2,
)
from .relations import enumerate_homs, find_min_witness, is_rigid

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4


# flags a report's "config" echoes when its subcommand reads them
_REPORTED = ("seed", "branch_limit", "hom_limit", "format")

_FORMATS = ("json", "dot", "svg")

# the flags each witness kind reads, with their defaults; a flag of
# another kind is a usage error
_WITNESS_FLAGS = {
    "case1": {"x": None, "y": None, "epsilon": None,
              "branch_limit": DEFAULT_BRANCH_LIMIT},
    "case2": {"x": None, "radius": 1, "s_bits": None, "z_bits": None},
    "min": {"x": None, "y": None, "input": None, "budget": 4096},
}
_WITNESS_MODAL = {name for own in _WITNESS_FLAGS.values() for name in own}

# orient reads --seed and --count only when sampling
_SAMPLE_FLAGS = {"seed": 0, "count": 1}

# orient holds every orientation it lists in one document, so --mode all
# refuses a base with more than this many, and --mode sample a larger --count
_ALL_LIMIT = 1 << 16

# certify reads --chain-n only for the chain gadget; a chain of two or
# more hops folds, so only the default of one hop certifies
_CHAIN_FLAGS = {"chain_n": 1}


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route that into the
    # usage-error exit family instead
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rigidlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("lattice", help="triangular lattice ball point set")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--include-triangle", action="store_true")
    p.add_argument("--format", choices=_FORMATS, default="json")

    p = add_parser("orient", help="enumerate, count, or sample orientations")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--input", default=None, help="point-set JSON file")
    p.add_argument("--mode", choices=("all", "count", "sample"), default="count")
    p.add_argument("--count", type=int, default=argparse.SUPPRESS,
                   help="sample size (--mode sample)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="sampling seed (--mode sample)")
    p.add_argument("--format", choices=_FORMATS, default="json")

    p = add_parser("hom", help="enumerate homomorphisms between structures")
    p.add_argument("--src", required=True, help="relstruct JSON file")
    p.add_argument("--dst", required=True, help="relstruct JSON file")
    p.add_argument("--pin", action="append", default=[],
                   help="i:j forces element i to map to j (repeatable)")
    p.add_argument("--hom-limit", type=int, default=None)

    p = add_parser("rigid", help="decide whether a structure is rigid")
    p.add_argument("--input", required=True, help="relstruct JSON file")

    # a kind's flags stay unset until _own_flags checks and fills them
    p = add_parser("witness", help="build or search witness sets",
                   argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", choices=tuple(_WITNESS_FLAGS), required=True)
    p.add_argument("--x", help="point 'x,y' or element index")
    p.add_argument("--y", help="case1: point 'x,y'; min: element index")
    p.add_argument("--epsilon", help="case1")
    p.add_argument("--branch-limit", type=int, help="case1")
    p.add_argument("--radius", type=int, help="case2 base ball radius")
    p.add_argument("--s-bits", type=int, help="case2 member S")
    p.add_argument("--z-bits", type=int, help="case2 member Z")
    p.add_argument("--input", help="min: relstruct JSON file")
    p.add_argument("--budget", type=int, help="min")

    p = add_parser("certify", help="distance-preservation certificate")
    p.add_argument("--gadget", default=None,
                   help="triangle-extension | rhombus | chain | moser-spindle")
    p.add_argument("--chain-n", type=int, default=argparse.SUPPRESS,
                   help="chain length in unit hops, default 1 (--gadget chain); "
                        "longer chains fold and exit 4")
    p.add_argument("--input", default=None, help="point-set JSON file")
    p.add_argument("--x", required=True, help="gadget label or point 'x,y'")
    p.add_argument("--y", required=True, help="gadget label or point 'x,y'")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--branch-limit", type=int, default=DEFAULT_BRANCH_LIMIT)

    p = add_parser("product", help="assemble a product structure")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--input", default=None, help="point-set JSON file")
    p.add_argument("--member-bits", type=int, action="append", required=True,
                   help="orientation bitmask over free edges (repeatable)")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = add_parser("verify-all", help="run the full verification grid")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"point must be 'x,y', got {text!r}")
    return Point(parse_scalar(parts[0]), parse_scalar(parts[1]))


def _emit(text: str, args) -> None:
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _report(command: str, args, body: dict) -> dict:
    config = {k: v for k, v in vars(args).items() if k in _REPORTED}
    doc = {"schema": SCHEMA_REPORT, "command": command, "config": config}
    doc.update(body)
    return doc


def _own_flags(args, modal, own: dict, context: str) -> None:
    """Refuse the flags of `modal` that `context` does not read, and set
    the defaults of those it does (`own`).  The parser leaves a flag of
    `modal` out of args unless the command line gives it."""
    stray = sorted(name for name in modal if hasattr(args, name) and name not in own)
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in stray)
        raise UsageError(f"{context} does not read {flags}")
    for name, default in own.items():
        if not hasattr(args, name):
            setattr(args, name, default)


def _load_pointset_arg(args) -> PointSet:
    if (args.input is None) == (args.radius is None):
        raise UsageError(f"{args.command} needs one of --input and --radius")
    if args.input is not None:
        return pointset_from_json(load_json(args.input))
    return lattice_ball(args.radius, include_triangle=True)


def _cmd_lattice(args) -> int:
    ps = lattice_ball(args.radius, include_triangle=args.include_triangle)
    if args.format == "json":
        _emit(dumps_canonical(pointset_to_json(ps)), args)
    elif args.format == "dot":
        _emit(unitgraph_to_dot(ps), args)
    else:
        _emit(pointset_to_svg(ps), args)
    return EXIT_OK


def _cmd_orient(args) -> int:
    _own_flags(args, _SAMPLE_FLAGS, _SAMPLE_FLAGS if args.mode == "sample" else {},
               f"orient --mode {args.mode}")
    ps = _load_pointset_arg(args)
    if args.format != "json" and args.mode != "sample":
        raise UsageError("dot/svg output needs --mode sample")
    if args.mode == "count":
        body = {"orientations": count_orientations(ps)}
        _emit(dumps_canonical(_report("orient", args, body)), args)
        return EXIT_OK
    if args.mode == "all":
        total = count_orientations(ps)
        if total > _ALL_LIMIT:
            raise UsageError(f"orient --mode all would list {total} orientations, more "
                             f"than {_ALL_LIMIT}; use --mode count or --mode sample")
        members = [list(map(list, o.pairs)) for o in all_orientations(ps)]
        body = {"orientations": len(members), "pairs": members}
        _emit(dumps_canonical(_report("orient", args, body)), args)
        return EXIT_OK
    if args.count > _ALL_LIMIT:
        raise UsageError(f"orient --mode sample --count {args.count} asks for more than "
                         f"{_ALL_LIMIT} orientations")
    sampled = sample_orientations(ps, args.seed, args.count)
    if args.format == "dot":
        _emit("".join(orientation_to_dot(o, f"S{k}")
                      for k, o in enumerate(sampled)), args)
    elif args.format == "svg":
        _emit(pointset_to_svg(ps, orientation=sampled[0]), args)
    else:
        docs = [orientation_to_json(o) for o in sampled]
        body = {"sampled": len(docs), "members": docs}
        _emit(dumps_canonical(_report("orient", args, body)), args)
    return EXIT_OK


def _parse_pins(texts) -> dict:
    pin = {}
    for t in texts:
        try:
            i, j = t.split(":")
            pin[int(i)] = int(j)
        except ValueError:
            raise UsageError(f"--pin expects i:j, got {t!r}")
    return pin


def _cmd_hom(args) -> int:
    src = relstruct_from_json(load_json(args.src))
    dst = relstruct_from_json(load_json(args.dst))
    pin = _parse_pins(args.pin)
    result = enumerate_homs(src, dst, pin=pin or None, limit=args.hom_limit)
    body = {
        "maps": [list(m) for m in result.maps],
        "count": len(result.maps),
        "truncated": result.truncated,
        "nodes": result.nodes,
    }
    _emit(dumps_canonical(_report("hom", args, body)), args)
    return EXIT_OK


def _cmd_rigid(args) -> int:
    s = relstruct_from_json(load_json(args.input))
    report = is_rigid(s)
    body = {"rigid": report.rigid, "endomorphisms": report.endo_count}
    _emit(dumps_canonical(_report("rigid", args, body)), args)
    if not report.rigid:
        print(f"{report.endo_count} endomorphisms", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_witness(args) -> int:
    _own_flags(args, _WITNESS_MODAL, _WITNESS_FLAGS[args.kind],
               f"witness --kind {args.kind}")
    if args.kind == "min":
        if not (args.input and args.x is not None and args.y is not None):
            raise UsageError("witness --kind min needs --input, --x, --y")
        s = relstruct_from_json(load_json(args.input))
        try:
            x, y = int(args.x), int(args.y)
        except ValueError:
            raise UsageError("--kind min expects integer element indices")
        try:
            result = find_min_witness(s, x, y, budget=args.budget)
        except NoWitnessExists as exc:
            _emit(dumps_canonical(_report("witness", args, {
                "kind": "min", "exists": False, "reason": str(exc)})), args)
            return EXIT_VERIFY
        body = {
            "kind": "min",
            "exists": True,
            "subset": list(result.witness.subset),
            "minimal": result.minimal,
            "checks_used": result.checks_used,
        }
        _emit(dumps_canonical(_report("witness", args, body)), args)
        return EXIT_OK

    if args.kind == "case1":
        if not (args.x and args.y):
            raise UsageError("witness --kind case1 needs --x and --y")
        x = _parse_point(args.x)
        y = _parse_point(args.y)
        eps = parse_scalar(args.epsilon) if args.epsilon else None
        built = witness_case1(x, y, epsilon=eps, budget=args.branch_limit)
        verdict = verify_product_witness(built.product, built.witness)
        body = {
            "kind": "case1",
            "valid": verdict.valid,
            "witness_size": len(built.witness.subset),
            "universe_size": len(built.product.base),
            "anchor_index": built.anchor_index,
            "strategy": built.grow.strategy,
            "strict_exclusion": built.strict_exclusion,
        }
        _emit(dumps_canonical(_report("witness", args, body)), args)
        return EXIT_OK if verdict.valid else EXIT_VERIFY

    if args.s_bits is None or args.z_bits is None or args.x is None:
        raise UsageError("witness --kind case2 needs --s-bits, --z-bits, --x")
    ps = lattice_ball(args.radius, include_triangle=True)
    S = orientation_from_bits(ps, args.s_bits)
    Z = orientation_from_bits(ps, args.z_bits)
    x = _parse_point(args.x)
    built = witness_case2(x, S, Z)
    verdict = verify_product_witness(built.product, built.witness)
    body = {
        "kind": "case2",
        "valid": verdict.valid,
        "witness_size": len(built.witness.subset),
        "whole_fiber": built.whole_fiber,
        "conflict": [built.conflict.ui, built.conflict.vi],
    }
    _emit(dumps_canonical(_report("witness", args, body)), args)
    return EXIT_OK if verdict.valid else EXIT_VERIFY


def _cmd_certify(args) -> int:
    if (args.gadget is None) == (args.input is None):
        raise UsageError("certify needs one of --gadget and --input")
    chain = args.gadget == "chain"
    _own_flags(args, _CHAIN_FLAGS, _CHAIN_FLAGS if chain else {},
               f"certify --gadget {args.gadget}" if args.gadget else "certify --input")
    if args.gadget:
        g = gadget(args.gadget, **({"n": args.chain_n} if chain else {}))
        ps = g.points

        def locate(text):
            if text in g.labels:
                return ps[g.labeled_index(text)]
            return _parse_point(text)

        x, y = locate(args.x), locate(args.y)
    else:
        ps = pointset_from_json(load_json(args.input))
        x = _parse_point(args.x)
        y = _parse_point(args.y)
    eps = parse_scalar(args.epsilon)
    report = bq_certify(ps, x, y, eps, branch_limit=args.branch_limit)
    body = {
        "certified": report.certified,
        "max_deviation": str(report.max_deviation),
        "map_count": report.map_count,
        "branch_count": report.branch_count,
        "backend": report.backend,
        "counterexample": (
            None if report.counterexample is None
            else [list(point_to_float(p)) for p in report.counterexample]
        ),
    }
    _emit(dumps_canonical(_report("certify", args, body)), args)
    return EXIT_OK if report.certified else EXIT_VERIFY


def _cmd_product(args) -> int:
    ps = _load_pointset_arg(args)
    members = tuple(orientation_from_bits(ps, bits) for bits in args.member_bits)
    family = OrientationFamily(ps, members)
    P = build_product(ps, family)
    if args.format == "dot":
        _emit(product_to_dot(P), args)
        return EXIT_OK
    doc = product_to_json(P)
    if len(members) >= 2:
        conflict = find_conflict_edge(members[0], members[1])
        doc["first_conflict"] = (
            None if conflict is None else [conflict.ui, conflict.vi]
        )
    _emit(dumps_canonical(doc), args)
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    out_dir = args.out or "out"
    results = acceptance.run_all(seed=args.seed, out_dir=out_dir)
    all_ok = all(r.passed for r in results)
    for r in results:
        print(r.line())
    return EXIT_OK if all_ok else EXIT_VERIFY


_COMMANDS = {
    "lattice": _cmd_lattice,
    "orient": _cmd_orient,
    "hom": _cmd_hom,
    "rigid": _cmd_rigid,
    "witness": _cmd_witness,
    "certify": _cmd_certify,
    "product": _cmd_product,
    "verify-all": _cmd_verify_all,
}


def dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # a library argument check refused the input: no verdict was reached
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RigidlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
