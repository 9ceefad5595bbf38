"""Finite, checkable constructions around rigid binary relations on plane
point sets: exact arithmetic in the field generated by sqrt(3), unit
distance graphs on the triangular lattice, admissible edge orientations,
homomorphism search with witness sets, distance-preservation certificates,
and product structures that separate points or orientations locally.
"""

from .errors import (
    BudgetExhausted,
    ConcentricCircles,
    DuplicateMember,
    EmptyFamily,
    InconsistentDistances,
    MissingTriangle,
    MixedBackend,
    NegativeRadicand,
    NotAnchored,
    NotRepresentable,
    NoWitnessExists,
    RigidlabError,
    UsageError,
)
from .numeric import (
    SQRT3,
    Point,
    QScalar,
    circle_intersect,
    dist2,
    is_unit,
    parse_scalar,
    sqrt_exact,
)
from .plane import (
    P0,
    P1,
    P2,
    TRIANGLE,
    PointSet,
    base_triangle,
    lattice_ball,
    lattice_point,
    unit_graph,
    unit_path,
)
from .relations import (
    RelStruct,
    WitnessSet,
    brute_force_homs,
    check_witness,
    enumerate_homs,
    find_min_witness,
    is_rigid,
    remark1_check,
)
from .phi import (
    Orientation,
    OrientationFamily,
    all_orientations,
    check_phi,
    count_orientations,
    observation_verify,
    orientation_from_bits,
    sample_orientations,
)
from .bq import (
    CertReport,
    Gadget,
    PlacementOrder,
    bq_certify,
    enumerate_unit_maps,
    gadget,
    grow_witness,
    naive_unit_maps,
    placement_order,
)
from .product import (
    ConflictEdge,
    ProductStruct,
    build_product,
    find_conflict_edge,
    trilaterate,
    verify_product_witness,
    witness_case1,
    witness_case2,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted", "ConcentricCircles", "DuplicateMember", "EmptyFamily",
    "InconsistentDistances", "MissingTriangle", "MixedBackend",
    "NegativeRadicand", "NotAnchored", "NotRepresentable", "NoWitnessExists",
    "RigidlabError", "UsageError",
    "SQRT3", "Point", "QScalar",
    "circle_intersect", "dist2", "is_unit", "parse_scalar",
    "sqrt_exact",
    "P0", "P1", "P2", "TRIANGLE", "PointSet", "base_triangle", "lattice_ball",
    "lattice_point", "unit_graph", "unit_path",
    "RelStruct", "WitnessSet", "brute_force_homs", "check_witness",
    "enumerate_homs", "find_min_witness", "is_rigid", "remark1_check",
    "Orientation", "OrientationFamily", "all_orientations", "check_phi",
    "count_orientations", "observation_verify", "orientation_from_bits",
    "sample_orientations",
    "CertReport", "Gadget", "PlacementOrder", "bq_certify",
    "enumerate_unit_maps", "gadget", "grow_witness", "naive_unit_maps",
    "placement_order",
    "ConflictEdge", "ProductStruct", "build_product", "find_conflict_edge",
    "trilaterate", "verify_product_witness", "witness_case1", "witness_case2",
    "__version__",
]
