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
from dataclasses import dataclass

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
    product_to_json,
    relstruct_from_json,
    relstruct_to_dot,
    unitgraph_to_dot,
    write_text_atomic,
)
from .numeric import Point, parse_scalar
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


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every subcommand, all sourced from flags."""

    seed: int = 0
    branch_limit: int = DEFAULT_BRANCH_LIMIT
    hom_limit: int = None
    out: str = None
    format: str = "json"

    def as_json(self) -> dict:
        return {
            "seed": self.seed,
            "branch_limit": self.branch_limit,
            "hom_limit": self.hom_limit,
            "format": self.format,
        }


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route that into the
    # usage-error exit family instead
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rigidlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--branch-limit", type=int, default=DEFAULT_BRANCH_LIMIT)
    common.add_argument("--hom-limit", type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "dot", "svg"), default="json")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("lattice", help="triangular lattice ball point set")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--include-triangle", action="store_true")

    p = add_parser("orient", help="enumerate, count, or sample orientations")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--input", default=None, help="point-set JSON file")
    p.add_argument("--mode", choices=("all", "count", "sample"), default="count")
    p.add_argument("--count", type=int, default=1, help="sample size")

    p = add_parser("hom", help="enumerate homomorphisms between structures")
    p.add_argument("--src", required=True, help="relstruct JSON file")
    p.add_argument("--dst", required=True, help="relstruct JSON file")
    p.add_argument("--pin", action="append", default=[],
                   help="i:j forces element i to map to j (repeatable)")

    p = add_parser("rigid", help="decide whether a structure is rigid")
    p.add_argument("--input", required=True, help="relstruct JSON file")

    p = add_parser("witness", help="build or search witness sets")
    p.add_argument("--kind", choices=("case1", "case2", "min"), required=True)
    p.add_argument("--x", default=None, help="point 'x,y' or element index")
    p.add_argument("--y", default=None, help="point 'x,y' or element index")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--radius", type=int, default=1, help="case2 base ball radius")
    p.add_argument("--s-bits", type=int, default=None, help="case2 member S")
    p.add_argument("--z-bits", type=int, default=None, help="case2 member Z")
    p.add_argument("--input", default=None, help="min: relstruct JSON file")
    p.add_argument("--budget", type=int, default=4096)

    p = add_parser("certify", help="distance-preservation certificate")
    p.add_argument("--gadget", default=None,
                   help="triangle-extension | rhombus | chain | moser-spindle")
    p.add_argument("--chain-n", type=int, default=3)
    p.add_argument("--input", default=None, help="point-set JSON file")
    p.add_argument("--x", required=True, help="gadget label or point 'x,y'")
    p.add_argument("--y", required=True, help="gadget label or point 'x,y'")
    p.add_argument("--epsilon", required=True)

    p = add_parser("product", help="assemble a product structure")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--input", default=None, help="point-set JSON file")
    p.add_argument("--member-bits", type=int, action="append", required=True,
                   help="orientation bitmask over free edges (repeatable)")

    p = add_parser("verify-all", help="run the full verification grid")
    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        branch_limit=args.branch_limit,
        hom_limit=args.hom_limit,
        out=args.out,
        format=args.format,
    )


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"point must be 'x,y', got {text!r}")
    return Point(parse_scalar(parts[0]), parse_scalar(parts[1]))


def _emit(text: str, config: RunConfig) -> None:
    if config.out:
        write_text_atomic(config.out, text)
    else:
        sys.stdout.write(text)


def _report(command: str, config: RunConfig, body: dict) -> dict:
    doc = {"schema": SCHEMA_REPORT, "command": command, "config": config.as_json()}
    doc.update(body)
    return doc


def _load_pointset_arg(args) -> PointSet:
    if getattr(args, "input", None):
        return pointset_from_json(load_json(args.input))
    if getattr(args, "radius", None) is not None:
        return lattice_ball(args.radius, include_triangle=True)
    raise UsageError("need --input or --radius")


def _cmd_lattice(args, config: RunConfig) -> int:
    ps = lattice_ball(args.radius, include_triangle=args.include_triangle)
    if config.format == "json":
        _emit(dumps_canonical(pointset_to_json(ps)), config)
    elif config.format == "dot":
        _emit(unitgraph_to_dot(ps), config)
    else:
        _emit(pointset_to_svg(ps), config)
    return EXIT_OK


def _cmd_orient(args, config: RunConfig) -> int:
    ps = _load_pointset_arg(args)
    if config.format != "json" and args.mode != "sample":
        raise UsageError("dot/svg output needs --mode sample")
    if args.mode == "count":
        body = {"orientations": count_orientations(ps)}
        _emit(dumps_canonical(_report("orient", config, body)), config)
        return EXIT_OK
    if args.mode == "all":
        members = [list(map(list, o.pairs)) for o in all_orientations(ps)]
        body = {"orientations": len(members), "pairs": members}
        _emit(dumps_canonical(_report("orient", config, body)), config)
        return EXIT_OK
    sampled = sample_orientations(ps, config.seed, args.count)
    if config.format == "dot":
        _emit("".join(orientation_to_dot(o, f"S{k}")
                      for k, o in enumerate(sampled)), config)
    elif config.format == "svg":
        _emit(pointset_to_svg(ps, orientation=sampled[0]), config)
    else:
        docs = [orientation_to_json(o) for o in sampled]
        body = {"sampled": len(docs), "members": docs}
        _emit(dumps_canonical(_report("orient", config, body)), config)
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


def _cmd_hom(args, config: RunConfig) -> int:
    src = relstruct_from_json(load_json(args.src))
    dst = relstruct_from_json(load_json(args.dst))
    pin = _parse_pins(args.pin)
    result = enumerate_homs(src, dst, pin=pin or None, limit=config.hom_limit)
    body = {
        "maps": [list(m) for m in result.maps],
        "count": len(result.maps),
        "truncated": result.truncated,
        "nodes": result.nodes,
    }
    _emit(dumps_canonical(_report("hom", config, body)), config)
    return EXIT_OK


def _cmd_rigid(args, config: RunConfig) -> int:
    s = relstruct_from_json(load_json(args.input))
    report = is_rigid(s)
    body = {"rigid": report.rigid, "endomorphisms": report.endo_count}
    _emit(dumps_canonical(_report("rigid", config, body)), config)
    if not report.rigid:
        print(f"{report.endo_count} endomorphisms", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_witness(args, config: RunConfig) -> int:
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
            _emit(dumps_canonical(_report("witness", config, {
                "kind": "min", "exists": False, "reason": str(exc)})), config)
            return EXIT_VERIFY
        body = {
            "kind": "min",
            "exists": True,
            "subset": list(result.witness.subset),
            "minimal": result.minimal,
            "checks_used": result.checks_used,
        }
        _emit(dumps_canonical(_report("witness", config, body)), config)
        return EXIT_OK

    if args.kind == "case1":
        if not (args.x and args.y):
            raise UsageError("witness --kind case1 needs --x and --y")
        x = _parse_point(args.x)
        y = _parse_point(args.y)
        eps = parse_scalar(args.epsilon) if args.epsilon else None
        built = witness_case1(x, y, epsilon=eps, budget=config.branch_limit)
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
        _emit(dumps_canonical(_report("witness", config, body)), config)
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
    _emit(dumps_canonical(_report("witness", config, body)), config)
    return EXIT_OK if verdict.valid else EXIT_VERIFY


def _cmd_certify(args, config: RunConfig) -> int:
    if args.gadget:
        kwargs = {}
        if args.gadget == "chain":
            kwargs["n"] = args.chain_n
        if args.gadget == "moser-spindle":
            kwargs["backend"] = "exact"
        g = gadget(args.gadget, **kwargs)
        ps = g.points

        def locate(text):
            if text in g.labels:
                return ps[g.labeled_index(text)]
            return _parse_point(text)

        x, y = locate(args.x), locate(args.y)
    else:
        if not args.input:
            raise UsageError("certify needs --gadget or --input")
        ps = pointset_from_json(load_json(args.input))
        x = _parse_point(args.x)
        y = _parse_point(args.y)
    eps = parse_scalar(args.epsilon)
    report = bq_certify(ps, x, y, eps, branch_limit=config.branch_limit)
    body = {
        "certified": report.certified,
        "max_deviation": str(report.max_deviation),
        "map_count": report.map_count,
        "branch_count": report.branch_count,
        "backend": report.backend,
        "counterexample": (
            None if report.counterexample is None
            else [list(p.to_float_pair()) for p in report.counterexample]
        ),
    }
    _emit(dumps_canonical(_report("certify", config, body)), config)
    return EXIT_OK if report.certified else EXIT_VERIFY


def _cmd_product(args, config: RunConfig) -> int:
    ps = _load_pointset_arg(args)
    members = tuple(orientation_from_bits(ps, bits) for bits in args.member_bits)
    family = OrientationFamily(ps, members)
    P = build_product(ps, family)
    doc = product_to_json(P)
    if len(members) >= 2:
        conflict = find_conflict_edge(members[0], members[1])
        doc["first_conflict"] = (
            None if conflict is None else [conflict.ui, conflict.vi]
        )
    if config.format == "dot":
        _emit(relstruct_to_dot(P.structure, "P"), config)
    else:
        _emit(dumps_canonical(doc), config)
    return EXIT_OK


def _cmd_verify_all(args, config: RunConfig) -> int:
    out_dir = config.out or "out"
    results = acceptance.run_all(seed=config.seed, out_dir=out_dir)
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
    config = _config_from(args)
    return _COMMANDS[args.command](args, config)


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
