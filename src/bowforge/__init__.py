"""Exact bow-diagram combinatorics for affine type A, with an independent oracle."""

from .weights import (
    AffineWeight,
    RootVector,
    coroot_pairing,
    delta_weight,
    dominance_leq,
    fundamental_weight,
    generic_cocharacter,
    lower_weight,
    reflect,
    root_difference,
    simple_root,
    to_dominant,
    weight_from_json,
    weight_from_marks,
    weight_pair_from_dims,
    weight_to_json,
)
from .young import GYDiagram, gyd_rotate, gyd_transpose
from .bow import (
    BowDiagram,
    InvariantRecord,
    SeparatedForm,
    balanced_form,
    bow_from_json,
    bow_to_json,
    hw_reachable_balanced,
    hw_transition,
    invariants,
    o_node,
    rotate_base,
    separated_form,
    weights_of,
    x_node,
)
from .fock import (
    FockState,
    FockVector,
    char_factorization_check,
    chevalley_apply,
    crystal_component,
    crystal_op,
    epsilon,
    fock_weight_count,
    freudenthal_mult,
    partition_count,
    partitions,
    phi,
    serre_and_commutator_check,
    string_top,
)
from .maya import (
    FixedPointQuery,
    MayaDiagram,
    deformed_fixed_points,
    enumerate_fixed_points,
    maya_stats,
    t_fixed_point_exists,
    unwind_to_a_infinity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
