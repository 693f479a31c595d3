"""The package surface: lazily loaded layers and the re-exported names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import x1points
import x1points.cli

SRC = Path(__file__).resolve().parent.parent / "src"
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
LAYERS = ("modarith", "curveinv", "matgroup", "orbits", "levels", "sporadic", "classify")

# Every name the package re-exports, by the layer that defines it.
EXPORTS = {
    "classify": [
        "ClassificationVerdict", "GaloisProfile", "NonsurjectivePrime", "classify_profile",
        "m1_table", "prime_level_screen", "profile_from_dict", "sporadic_screen", "sz_table",
        "target_level", "two_power_screen",
    ],
    "curveinv": [
        "CurveInvariants", "MapDegree", "curve_invariants", "frey_gonality_cert", "genus_x1",
        "known_gonality", "map_degree", "psl2_index",
    ],
    "errors": [
        "CapExceeded", "HypothesisFailed", "InconsistentProfile", "ModulusMismatch",
        "NonCoprimeModuli", "NotInvertible", "OrderMismatch", "PreconditionFailed",
        "StageTooLow", "X1PointsError",
    ],
    "levels": [
        "BoundInput", "LevelCertificate", "classification_table", "compose_level",
        "detect_ladic_level", "level_bound", "minimize_level",
    ],
    "matgroup": [
        "GoursatData", "MatGroup", "borel_group", "closure", "contains_sl2", "crt_product",
        "full_preimage", "gl2_group", "goursat", "goursat_product", "group_from_dict",
        "group_to_dict", "is_full_preimage", "kernel_of_projection", "load_group", "project",
        "save_group", "sl2_group",
    ],
    "modarith": [
        "Modulus", "Vec2ModN", "gl2_order", "modulus", "sl2_order", "vec2", "vec_order",
    ],
    "orbits": [
        "DegreeSpectrum", "OrbitRecord", "closed_point_degrees", "degree_spectrum",
        "exact_order_vectors", "fiber_count", "max_growth_check",
    ],
    "sporadic": [
        "CmOrder", "SporadicCertificate", "class_number", "cm_order", "cm_point_degree",
        "cm_threshold", "lift_chain_holds", "lifting_certificate",
    ],
}


def test_every_layer_registered_after_cli_import():
    for layer in (*LAYERS, "errors"):
        assert sys.modules[f"x1points.{layer}"] is getattr(x1points, layer)


def test_reexports_resolve_to_the_layer_objects():
    assert x1points.__all__ == [name for names in EXPORTS.values() for name in names]
    for layer, names in EXPORTS.items():
        module = sys.modules[f"x1points.{layer}"]
        for name in names:
            assert getattr(x1points, name) is getattr(module, name), name
    assert set(x1points.__all__) <= set(dir(x1points))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        x1points.no_such_name


def test_default_cap_defined_once():
    from x1points import errors, matgroup, orbits

    assert errors.DEFAULT_CAP == 2**24
    assert matgroup.DEFAULT_CAP is errors.DEFAULT_CAP
    assert orbits.DEFAULT_CAP is errors.DEFAULT_CAP


LAYERS_RUN = """
import sys, types
from x1points import cli
code = cli.main(sys.argv[1:])
run = sorted(n for n, m in sys.modules.items() if n.startswith("x1points.") and type(m) is types.ModuleType)
print(" ".join(run), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["curve", "11"], ["cli", "curveinv", "errors", "modarith"]),
        (["cm", "--disc", "-7"], ["cli", "curveinv", "errors", "modarith", "sporadic"]),
        (
            ["sporadic-check", "--level", "229", "--degree", "114"],
            ["cli", "curveinv", "errors", "modarith", "sporadic"],
        ),
    ],
)
def test_subcommand_runs_only_its_layers(argv, layers):
    # a layer counts as run once LazyLoader has swapped in the plain module type
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAYERS_RUN, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == [f"x1points.{layer}" for layer in layers]
    assert proc.stdout.startswith("{")



@pytest.mark.parametrize(
    "argv",
    [["tables", "--which", "m1"], ["level-bound", "--primes", "2,3,17", "--ell", "2"]],
)
def test_subcommands_without_a_group_leave_matgroup_unrun(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAYERS_RUN, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == [f"x1points.{layer}" for layer in ("cli", "errors", "levels", "modarith")]


# the standard-library modules a run adds: taken before `cli` is imported,
# so that modules a site hook loads at startup count as already there
MODULES_ADDED = """
import sys
before = set(sys.modules)
from x1points import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "11"],
        ["cm", "--disc", "-7"],
        ["tables", "--which", "classification"],
        ["level", "--in", str(INPUTS / "borel_3_to_9.json")],
        ["degrees", "--in", str(INPUTS / "borel_7.json")],
        ["classify", "--profile", str(INPUTS / "borel_37.json"), "--n", "37"],
    ],
)
def test_subcommands_load_neither_dataclasses_nor_inspect(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_ADDED, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stderr.split())
    assert "x1points.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--which", "m1"],
        ["level", "--in", str(INPUTS / "borel_3_to_9.json")],
        ["classify", "--profile", str(INPUTS / "borel_37.json"), "--n", "37"],
    ],
)
def test_subcommands_running_levels_import_no_typing(argv):
    # `python -S`: a site hook may import `typing` before `cli` does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-S", "-c", MODULES_ADDED, *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stderr.split())
    assert "x1points.levels" in added
    assert "typing" not in added
