"""strandkit: order-preserving 1-string representations of outer-planar and
series-parallel graphs, with an exact geometric verifier and a break-vector
realizability oracle."""

__version__ = "0.1.0"

from .circle import ChordDiagram, CircleBuild, build_circle, chord_to_geometry
from .geom import (
    BOTH_ENDS,
    ONE_END,
    CircleWitness,
    CrossingProfile,
    Curve,
    PolylineWitness,
    Report,
    StringRep,
    crossing_profile,
    segment_intersection,
    verify_1string,
    verify_order_preserving,
    verify_outer_string,
)
from .graphs import (
    EarDecomposition,
    EliminationOrder,
    Graph,
    PlaneGraph,
    RotationScheme,
    biconnect_outerplanar,
    ear_decomposition,
    euler_check,
    faces,
    is_outerplanar,
    is_planar,
    two_tree_completion,
)
from .oracle import Verdict, decide_fixed, enumerate_breaks
from .sp import SpBuild, TouchingBuild, build_sp, build_touching_L, derive_embedding, extend_to_1string
from .svg import emit_svg
from .vpg import VpgBuild, build_vpg, compact_grid, grid_size, rotate45

__all__ = [name for name in dir() if not name.startswith("_")]
