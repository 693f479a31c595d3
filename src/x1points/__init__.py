"""Finite matrix-group computations in GL2(Z/nZ) for the modular curves X_1(n):
orbit/degree spectra above a fixed j-invariant, Galois-image level detection
and composition, and exact sporadic-point certificates.

Each layer module loads on first use: `import x1points` puts every layer in
`sys.modules` (and binds it here as `x1points.<layer>`), but a layer's code
runs only when one of its attributes is first read, so a one-shot CLI
process runs only the layers its subcommand needs.  The names re-exported
here resolve through `_EXPORTS` on first access.  `python -X importtime`
therefore no longer lists the layers under `import x1points`.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# The public names of each layer, re-exported by the package.
_EXPORTS = {
    "classify": (
        "ClassificationVerdict",
        "GaloisProfile",
        "NonsurjectivePrime",
        "classify_profile",
        "m1_table",
        "prime_level_screen",
        "profile_from_dict",
        "sporadic_screen",
        "sz_table",
        "target_level",
        "two_power_screen",
    ),
    "curveinv": (
        "CurveInvariants",
        "MapDegree",
        "curve_invariants",
        "frey_gonality_cert",
        "genus_x1",
        "known_gonality",
        "map_degree",
        "psl2_index",
    ),
    "errors": (
        "CapExceeded",
        "HypothesisFailed",
        "InconsistentProfile",
        "ModulusMismatch",
        "NonCoprimeModuli",
        "NotInvertible",
        "OrderMismatch",
        "PreconditionFailed",
        "StageTooLow",
        "X1PointsError",
    ),
    "levels": (
        "BoundInput",
        "LevelCertificate",
        "classification_table",
        "compose_level",
        "detect_ladic_level",
        "level_bound",
        "minimize_level",
    ),
    "matgroup": (
        "GoursatData",
        "MatGroup",
        "borel_group",
        "closure",
        "contains_sl2",
        "crt_product",
        "full_preimage",
        "gl2_group",
        "goursat",
        "goursat_product",
        "group_from_dict",
        "group_to_dict",
        "is_full_preimage",
        "kernel_of_projection",
        "load_group",
        "project",
        "save_group",
        "sl2_group",
    ),
    "modarith": (
        "Mat2ModN",
        "Modulus",
        "Vec2ModN",
        "gl2_order",
        "identity",
        "mat2",
        "modulus",
        "sl2_order",
        "vec2",
        "vec_order",
    ),
    "orbits": (
        "DegreeSpectrum",
        "OrbitRecord",
        "closed_point_degrees",
        "degree_spectrum",
        "exact_order_vectors",
        "fiber_count",
        "max_growth_check",
    ),
    "sporadic": (
        "CmOrder",
        "SporadicCertificate",
        "class_number",
        "cm_order",
        "cm_point_degree",
        "cm_threshold",
        "lift_chain_holds",
        "lifting_certificate",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


def _lazy_layer(layer: str):
    """Register x1points.<layer> in sys.modules; its code runs on first
    attribute access (the importlib.util.LazyLoader recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("modarith", "curveinv", "matgroup", "orbits", "levels", "sporadic", "classify"):
    globals()[_layer] = _lazy_layer(_layer)
del _layer


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
