"""Per-layer metrics: which functions the traced run wraps, how each metric is
derived, and which end-to-end metric on which workload it should move.

Metric names are `<module>.<function>.<stat>`.  The stat is `calls`,
`self_s`, or a count taken from the function's arguments, return value or
raised exception.  Counts are machine-independent: two traced runs with the
same seed give identical counts.  `trace.*` reports what tracing cost.
"""

from __future__ import annotations

from rigidlab import acceptance, bq, export, numeric, phi, plane, product, relations
from rigidlab.numeric import QScalar


def _homs(counts, parent, args, kwargs, result, exc):
    if result is not None:
        counts["relations.enumerate_homs.nodes"] += result.nodes
        counts["relations.enumerate_homs.maps"] += len(result.maps)


def _check(counts, parent, args, kwargs, result, exc):
    if result is not None and result.valid:
        counts["relations.check_witness.valid"] += 1


def _min_witness(counts, parent, args, kwargs, result, exc):
    if result is not None:
        counts["relations.find_min_witness.checks"] += result.checks_used
        counts["relations.find_min_witness.minimal"] += int(result.minimal)


def _unit_graph(counts, parent, args, kwargs, result, exc):
    n = len(args[0])
    counts["plane.unit_graph.pairs"] += n * (n - 1) // 2


def _unit_maps(counts, parent, args, kwargs, result, exc):
    if result is not None:
        counts["bq.enumerate_unit_maps.nodes"] += result.nodes
        counts["bq.enumerate_unit_maps.pruned"] += result.pruned
        counts["bq.enumerate_unit_maps.maps"] += len(result.maps)


def _certify(counts, parent, args, kwargs, result, exc):
    # an exact input whose report came back on the float backend
    if result is not None and args[0].backend == "exact" and result.backend == "float":
        counts["bq.bq_certify.float_fallbacks"] += 1


def _to_float(counts, parent, args, kwargs, result, exc):
    # witness_case1 converting its exact inputs is its switch to floats;
    # count it once per witness_case1 call, whether or not that call returns
    if (parent is not None and parent[2] == "product.witness_case1"
            and parent[3] is None and args[0].backend == "exact"):
        parent[3] = True
        counts["product.witness_case1.float_switch"] += 1


def _case2(counts, parent, args, kwargs, result, exc):
    if result is not None and result.whole_fiber:
        counts["product.witness_case2.whole_fiber"] += 1


def _dumps(counts, parent, args, kwargs, result, exc):
    if result is not None:
        counts["export.dumps_canonical.bytes"] += len(result.encode())


def _write(counts, parent, args, kwargs, result, exc):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["export.write_text_atomic.bytes"] += len(text.encode())


SPANS = (
    ("relations.enumerate_homs", relations, "enumerate_homs", _homs),
    ("relations.check_witness", relations, "check_witness", _check),
    ("relations.find_min_witness", relations, "find_min_witness", _min_witness),
    ("plane.unit_graph", plane, "unit_graph", _unit_graph),
    ("phi.check_phi", phi, "check_phi", None),
    ("phi.orientation_from_bits", phi, "orientation_from_bits", None),
    ("numeric.dist2", numeric, "dist2", None),
    ("numeric.is_unit", numeric, "is_unit", None),
    ("numeric.circle_intersect", numeric, "circle_intersect", None),
    ("numeric.sqrt_exact", numeric, "sqrt_exact", None),
    ("numeric.point_to_float", numeric, "point_to_float", _to_float),
    ("bq.enumerate_unit_maps", bq, "enumerate_unit_maps", _unit_maps),
    ("bq.placement_order", bq, "placement_order", None),
    ("bq.bq_certify", bq, "bq_certify", _certify),
    ("product.witness_case1", product, "witness_case1", None),
    ("product.witness_case2", product, "witness_case2", _case2),
    ("product.verify_product_witness", product, "verify_product_witness", None),
    ("export.dumps_canonical", export, "dumps_canonical", _dumps),
    ("export.write_text_atomic", export, "write_text_atomic", _write),
) + tuple(
    (f"acceptance.run_criterion_{k}", acceptance, f"run_criterion_{k}", None)
    for k in range(1, 10)
)

COUNTERS = (
    ("numeric.QScalar.mul.calls", QScalar, "__mul__"),
    ("numeric.QScalar.sign.calls", QScalar, "sign"),
)

# exception counts exposed under their own names
RAISED = {
    "numeric.sqrt_exact.not_representable": "numeric.sqrt_exact.raised.NotRepresentable",
}


def layer_value(tracer, name: str):
    """Value of one per-layer metric from a finished traced pass."""
    if name.endswith(".self_s"):
        return tracer.self_s.get(name[: -len(".self_s")], 0.0)
    return tracer.counts.get(RAISED.get(name, name), 0)


def known_metric(name: str) -> bool:
    """Whether layer_value can produce `name` (guards against typos)."""
    spans = {s[0] for s in SPANS}
    if name in RAISED or name in {c[0] for c in COUNTERS}:
        return True
    func, _, stat = name.rpartition(".")
    if func not in spans:
        return False
    if stat in ("calls", "self_s"):
        return True
    return name in _DERIVED


_DERIVED = {
    "relations.enumerate_homs.nodes", "relations.enumerate_homs.maps",
    "relations.check_witness.valid",
    "relations.find_min_witness.checks", "relations.find_min_witness.minimal",
    "plane.unit_graph.pairs",
    "bq.enumerate_unit_maps.nodes", "bq.enumerate_unit_maps.pruned",
    "bq.enumerate_unit_maps.maps",
    "bq.bq_certify.float_fallbacks",
    "product.witness_case1.float_switch",
    "product.witness_case2.whole_fiber",
    "export.dumps_canonical.bytes", "export.write_text_atomic.bytes",
}
