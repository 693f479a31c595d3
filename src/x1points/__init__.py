"""Finite matrix-group computations in GL2(Z/nZ) for the modular curves X_1(n):
orbit/degree spectra above a fixed j-invariant, Galois-image level detection
and composition, and exact sporadic-point certificates.
"""

from .classify import (
    ClassificationVerdict,
    GaloisProfile,
    NonsurjectivePrime,
    classify_profile,
    m1_table,
    prime_level_screen,
    profile_from_dict,
    sporadic_screen,
    sz_table,
    target_level,
    two_power_screen,
)
from .curveinv import (
    CurveInvariants,
    MapDegree,
    curve_invariants,
    frey_gonality_cert,
    genus_x1,
    known_gonality,
    map_degree,
    psl2_index,
)
from .errors import (
    CapExceeded,
    HypothesisFailed,
    InconsistentProfile,
    ModulusMismatch,
    NonCoprimeModuli,
    NotInvertible,
    OrderMismatch,
    PreconditionFailed,
    StageTooLow,
    X1PointsError,
)
from .levels import (
    BoundInput,
    LevelCertificate,
    classification_table,
    compose_level,
    detect_ladic_level,
    level_bound,
    minimize_level,
)
from .matgroup import (
    GoursatData,
    MatGroup,
    borel_group,
    closure,
    contains_sl2,
    crt_product,
    full_preimage,
    gl2_group,
    goursat,
    goursat_product,
    group_from_dict,
    group_to_dict,
    is_full_preimage,
    kernel_of_projection,
    load_group,
    project,
    save_group,
    sl2_group,
)
from .modarith import (
    Mat2ModN,
    Modulus,
    Vec2ModN,
    crt_join,
    crt_split,
    gl2_order,
    identity,
    mat2,
    mat_det,
    mat_inv,
    mat_mul,
    modulus,
    reduce_mat,
    sl2_order,
    vec2,
    vec_order,
)
from .orbits import (
    DegreeSpectrum,
    OrbitRecord,
    closed_point_degrees,
    degree_spectrum,
    exact_order_vectors,
    fiber_count,
    max_growth_check,
)
from .sporadic import (
    CmOrder,
    SporadicCertificate,
    class_number,
    cm_order,
    cm_point_degree,
    cm_threshold,
    lift_chain_holds,
    lifting_certificate,
    pushforward_degree_check,
)

__version__ = "0.1.0"
