import ast
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from x1points import cli
from x1points.cli import SUBCOMMANDS, build_parser, command_parser, main
from x1points.matgroup import gl2_group, save_group


@pytest.fixture
def gl2_5_file(tmp_path):
    path = tmp_path / "gl2_5.json"
    save_group(gl2_group(5), str(path))
    return str(path)


@pytest.fixture
def profile_37_file(tmp_path):
    path = tmp_path / "prof37.json"
    path.write_text(
        json.dumps(
            {
                "field_degree": 1,
                "nonsurjective": [{"prime": 37, "type": "borel", "level": 37}],
                "flags": {"assume_sz": True},
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(argv):
    """Exit code and stdout of `argv` in a new interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "x1points.cli", *argv], env=env, capture_output=True, text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def test_group_command(capsys, gl2_5_file):
    code, out, _ = run(capsys, ["group", "--in", gl2_5_file])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 480 and data["index"] == 1 and data["contains_sl2"]


def test_orbits_command(capsys, gl2_5_file):
    code, out, _ = run(capsys, ["orbits", "--in", gl2_5_file])
    data = json.loads(out)
    assert code == 0
    assert data["exact_order_vectors"] == 24
    assert data["orbits"] == [{"representative": [0, 1], "size": 24}]


def test_degrees_command(capsys, gl2_5_file):
    code, out, _ = run(capsys, ["degrees", "--in", gl2_5_file])
    data = json.loads(out)
    assert code == 0
    assert len(data["records"]) == 1
    assert data["records"][0]["degree"] == 12
    assert data["closed_point_degrees"] == [12]


def test_degrees_field_degree_below_one_exit_2(capsys, gl2_5_file):
    for bad in ("0", "-3"):
        code, out, err = run(capsys, ["degrees", "--in", gl2_5_file, "--field-degree", bad])
        assert code == 2 and out == ""
        assert f"field degree must be >= 1, got {bad}" in err


def test_level_command(capsys, tmp_path):
    from x1points.matgroup import closure, borel_group, full_preimage

    path = tmp_path / "pre9.json"
    save_group(full_preimage(closure(borel_group(3).raw_generators, 3), 9), str(path))
    code, out, _ = run(capsys, ["level", "--in", str(path)])
    data = json.loads(out)
    assert code == 0
    assert data["minimal_level"] == 3
    assert data["detections"][0]["certified"]


def test_level_command_at_3_to_the_4(capsys, tmp_path):
    from x1points.matgroup import borel_group, full_preimage

    path = tmp_path / "pre81.json"
    save_group(full_preimage(borel_group(3), 81), str(path))
    code, out, _ = run(capsys, ["level", "--in", str(path)])
    data = json.loads(out)
    assert code == 0
    assert data["minimal_level"] == 3
    assert data["order"] == 12 * 27**4


@pytest.mark.parametrize("n", [18, 36, 200])
def test_level_command_builds_each_chain_once(capsys, tmp_path, monkeypatch, n):
    # detection projects G mod ell^e down to ell^s, and minimize_level asks G
    # mod ell^s again: both must reach one chain
    import x1points.matgroup
    from x1points.matgroup import borel_group, full_preimage

    path = tmp_path / f"pre{n}.json"
    save_group(full_preimage(borel_group(6 if n % 3 == 0 else 10), n), str(path))
    built = []
    real = x1points.matgroup._stabilizer_chain

    def spy(m, gens, cap):
        built.append(m)
        return real(m, gens, cap)

    monkeypatch.setattr(x1points.matgroup, "_stabilizer_chain", spy)
    code, out, _ = run(capsys, ["level", "--in", str(path)])
    assert code == 0 and json.loads(out)["detections"]
    assert sorted(built) == sorted(set(built))


@pytest.mark.parametrize("base, n, chains", [(3, 81, [81]), (6, 18, [9, 18])])
def test_certified_detection_builds_no_chain_below_it(capsys, tmp_path, monkeypatch, base, n, chains):
    # a detection certified by membership reports the full kernel l^4, so
    # only an uncertified one builds the chain of G mod l^s
    import x1points.matgroup
    from x1points.matgroup import borel_group, full_preimage

    path = tmp_path / f"pre{n}.json"
    save_group(full_preimage(borel_group(base), n), str(path))
    built = []
    real = x1points.matgroup._stabilizer_chain

    def spy(m, gens, cap):
        built.append(m)
        return real(m, gens, cap)

    monkeypatch.setattr(x1points.matgroup, "_stabilizer_chain", spy)
    code, out, _ = run(capsys, ["level", "--in", str(path)])
    assert code == 0
    assert [d["certified"] for d in json.loads(out)["detections"]] == [True]
    assert sorted(built) == chains


def test_level_bound_command(capsys):
    code, out, _ = run(
        capsys,
        ["level-bound", "--primes", "2,3,17", "--ell", "2", "--image-order", "17=1088"],
    )
    data = json.loads(out)
    assert code == 0
    assert data["bound"] == 15


def test_level_bound_without_a_single_prime_level_exit_2(capsys):
    code, out, err = run(capsys, ["level-bound", "--primes", "2,3,19", "--ell", "19"])
    assert (code, out, err) == (2, "", "error: input contract violated: no single-prime level known for 19\n")


def test_level_bound_rejects_composite_prime(capsys):
    code, out, err = run(capsys, ["level-bound", "--primes", "2,3,4", "--ell", "2"])
    assert code == 2 and out == ""
    assert "prime" in err


@pytest.mark.parametrize(
    "option, text",
    [
        ("--image-order", "17"),
        ("--image-order", "x=1"),
        ("--tau", "5="),
        ("--primes", "2,3,x"),
    ],
)
def test_level_bound_malformed_option_names_it(capsys, option, text):
    argv = ["level-bound", "--primes", "2,3,17", "--ell", "2", option, text]
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr()
    assert info.value.code == 2 and out.out == ""
    assert f"argument {option}: expected" in out.err and repr(text) in out.err
    assert "invalid literal" not in out.err
    if option != "--primes":
        assert "ell=value" in out.err


# the bound is 5 + tau, and 2^14284 < 10^4300 < 2^14285: the largest
# printable power has 4300 digits, and a larger one is refused unbuilt
@pytest.mark.parametrize("tau", ["2=14280", "2=20000", "2=1000000000"])
def test_level_bound_power_past_the_digit_limit_exit_2(capsys, tau):
    code, out, err = run(capsys, ["level-bound", "--primes", "2,3", "--ell", "2", "--tau", tau])
    assert code == 2 and out == ""
    assert "has more than 4300 digits, the int-to-str limit" in err


def test_level_bound_power_at_the_digit_limit(capsys):
    code, out, _ = run(capsys, ["level-bound", "--primes", "2,3", "--ell", "2", "--tau", "2=14279"])
    assert code == 0 and json.loads(out)["bound_prime_power"] == 2**14284


def test_cm_class_number_contradicting_table_exit_2(capsys):
    code, out, err = run(capsys, ["cm", "--disc", "-4", "--h", "5"])
    assert code == 2 and out == ""
    assert "class number 5" in err and "h(-4) = 1" in err


@pytest.mark.parametrize(
    "override, words",
    [
        (["--tau", "3=-5"], ["tau override 3=-5", "negative"]),
        (["--image-order", "3=0"], ["image order override 3=0", "divisor"]),
        (["--image-order", "3=7"], ["image order override 3=7", "#GL2(Z/3Z) = 48"]),
        (["--image-order", "7=48"], ["image order override 7=48", "prime set"]),
        (["--tau", "7=1"], ["tau override 7=1", "prime set"]),
    ],
)
def test_level_bound_override_contract_exit_2(capsys, override, words):
    code, out, err = run(capsys, ["level-bound", "--primes", "2,3,5", "--ell", "3", *override])
    assert code == 2 and out == ""
    for word in words:
        assert word in err


def test_cm_counts_class_number_outside_small_discriminants(capsys):
    code, out, _ = run(capsys, ["cm", "--disc", "-104"])
    data = json.loads(out)
    assert code == 0
    assert data["class_number"] == 6 and data["ell"] == 2749
    assert data["certificate"]["verdict"] == "SporadicAllLiftsSporadic"


def test_cm_class_number_contradicting_count_exit_2(capsys):
    code, out, err = run(capsys, ["cm", "--disc", "-104", "--h", "7"])
    assert code == 2 and out == ""
    assert "class number 7 contradicts h(-104) = 6" in err


@pytest.mark.parametrize(
    "disc, words",
    [
        ("-5", "not a valid imaginary quadratic discriminant: -5"),
        ("0", "not a valid imaginary quadratic discriminant: 0"),
        ("-10000004", "beyond the limit |D| <= 10000000"),
        ("-1000000000000", "beyond the limit |D| <= 10000000"),
    ],
)
def test_cm_discriminant_contract_exit_2(capsys, disc, words):
    code, out, err = run(capsys, ["cm", "--disc", disc])
    assert code == 2 and out == ""
    assert words in err


def test_curve_command(capsys):
    code, out, _ = run(capsys, ["curve", "37"])
    data = json.loads(out)
    assert code == 0
    assert data["psl2_index"] == 684
    assert data["known_gonality"] == 18
    assert data["genus"] == 40


def test_curve_markdown(capsys):
    code, out, _ = run(capsys, ["curve", "25", "--format", "markdown"])
    assert code == 0
    assert out.startswith("| invariant | value |")
    assert "| known_gonality | 5 |" in out


def test_sporadic_check_command(capsys):
    code, out, _ = run(capsys, ["sporadic-check", "--level", "229", "--degree", "114"])
    data = json.loads(out)
    assert code == 0
    assert data["certified_sporadic"]
    assert data["lifting"]["threshold"] == {"num": 9177, "den": 80}


def test_sporadic_check_frey_route(capsys):
    code, out, _ = run(capsys, ["sporadic-check", "--level", "37", "--degree", "6"])
    data = json.loads(out)
    assert code == 0
    assert data["lifting"]["verdict"] == "Inconclusive"
    assert data["frey"]["issued"] and data["certified_sporadic"]


def test_sporadic_check_require_exit_code(capsys):
    code, out, _ = run(
        capsys, ["sporadic-check", "--level", "25", "--degree", "3", "--require"]
    )
    assert code == 1
    assert not json.loads(out)["certified_sporadic"]


def test_sporadic_check_rejects_gonality_below_one(capsys):
    for gon in ("0", "-5"):
        code, out, err = run(
            capsys, ["sporadic-check", "--level", "37", "--degree", "6", "--gonality", gon]
        )
        assert code == 2 and out == ""
        assert f"gonality must be >= 1, got {gon}" in err


def test_cm_command(capsys):
    code, out, _ = run(capsys, ["cm", "--disc", "-4"])
    data = json.loads(out)
    assert code == 0
    assert data["smallest_admissible_prime"] == 229
    assert data["degree"] == 114
    assert data["certificate"]["verdict"] == "SporadicAllLiftsSporadic"


def test_cm_bad_prime_is_input_error(capsys):
    code, _, err = run(capsys, ["cm", "--disc", "-4", "--ell", "13"])
    assert code == 2
    assert "threshold" in err


def test_cm_composite_ell_exit_2(capsys):
    # 341 = 11 * 31 is an Euler pseudoprime for -4: no certificate may issue
    code, out, err = run(capsys, ["cm", "--disc", "-4", "--ell", "341", "--require"])
    assert code == 2 and out == ""
    assert "prime" in err


def test_classify_command(capsys, profile_37_file):
    code, out, _ = run(capsys, ["classify", "--profile", profile_37_file, "--n", "37"])
    data = json.loads(out)
    assert code == 0
    assert data["case"] == 4
    assert data["candidates"] == [1, 37]
    assert data["screen"]["candidate_j"] == "-7*11^3"


def test_classify_factors_n_once(capsys, tmp_path, monkeypatch):
    # n = 2147483629 * 2147483647 needs one Pollard rho split; the command,
    # the verdict, the screen and the case-4 divisors all read modulus(n)
    from x1points import modarith

    splits = []
    rho = modarith._rho_factor
    monkeypatch.setattr(modarith, "_rho_factor", lambda m: splits.append(m) or rho(m))
    modarith.modulus.cache_clear()
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"flags": {"assume_sz": True}}))
    n = 2147483629 * 2147483647
    code, out, _ = run(capsys, ["classify", "--profile", str(path), "--n", str(n)])
    assert splits == [n]
    data = json.loads(out)
    assert (code, data["case"], data["evidence"]["support"]) == (0, 4, [2147483629, 2147483647])
    assert data["screen"]["no_sporadic"] and data["screen"]["conditional_on"] == ["assume_sz"]


def test_classify_profile_contracts_exit_2(capsys, tmp_path):
    path = tmp_path / "bad_profile.json"
    path.write_text(json.dumps({"nonsurjective": [{"prime": 15, "type": "borel"}]}))
    code, out, err = run(capsys, ["classify", "--profile", str(path), "--n", "15"])
    assert code == 2 and out == ""
    assert "profile file contract violated" in err and "not a prime: 15" in err
    path.write_text(json.dumps({"nonsurjectiv": [{"prime": 37, "type": "borel"}]}))
    code, out, err = run(capsys, ["classify", "--profile", str(path), "--n", "37"])
    assert code == 2 and out == ""
    assert "unknown profile key 'nonsurjectiv'" in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"nonsurjective": [{"prime": 17, "type": "cartan"}]}, "unknown image type 'cartan'"),
        ([], "profile must be an object, got list"),
        ({"nonsurjective": [5]}, "nonsurjective entry must be an object, got int"),
        ({"flags": []}, "flags must be an object, got list"),
    ],
    ids=["image-type", "list", "entry", "flags"],
)
def test_classify_profile_shape_exit_2(capsys, tmp_path, data, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["classify", "--profile", str(path), "--n", "37"])
    assert (code, out, err) == (2, "", f"error: profile file contract violated by {path}: {message}\n")


@pytest.mark.parametrize(
    "entries, n, reason",
    [
        (
            [{"prime": 17, "type": "other"}, {"prime": 37, "type": "borel"}],
            629,
            "two nonsurjective primes dividing n",
        ),
        (
            [{"prime": 17, "type": "borel", "level": 289}],
            17,
            "levels above the prime-power table are conjectured not to occur",
        ),
    ],
    ids=["case-2", "case-3"],
)
def test_classify_screen_of_cases_2_and_3(capsys, tmp_path, entries, n, reason):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"nonsurjective": entries, "flags": {"assume_sz": True}}))
    code, out, _ = run(capsys, ["classify", "--profile", str(path), "--n", str(n)])
    data = json.loads(out)
    assert (code, data["screen"]["reason"], data["screen"]["scope"]) == (0, reason, f"X_1({n})")


def test_classify_profile_prime_past_the_primality_bound_exit_2(tmp_path):
    # 2^89 - 1 is prime and past the deterministic Miller-Rabin range, where
    # no primality test finishes in time: the profile is refused, not tested
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"nonsurjective": [{"prime": 2**89 - 1, "type": "borel"}]}))
    assert run_fresh(["classify", "--profile", str(path), "--n", "37"]) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", str(2**128 + 1)],
        ["sporadic-check", "--level", str(2**128 + 51), "--degree", "3"],
        ["level-bound", "--primes", f"2,3,{10**30 + 57}", "--ell", "2"],
        ["cm", "--disc", "-4", "--ell", str(10**30 + 57)],
        ["classify", "--profile", "unread.json", "--n", str(10**180 + 7)],
    ],
    ids=lambda argv: argv[0],
)
def test_integer_past_2_to_the_63_exit_2(capsys, argv):
    # factoring such an integer may not finish, so it is refused unread
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr()
    assert info.value.code == 2 and out.out == ""
    assert "out of range: |value| must be <= 2^63 - 1" in out.err


def test_curve_at_the_largest_modulus(capsys):
    code, out, _ = run(capsys, ["curve", str(2**63 - 25)])
    assert code == 0 and json.loads(out)["N"] == 2**63 - 25


def test_curve_mersenne_61(capsys):
    code, out, _ = run(capsys, ["curve", str(2**61 - 1)])
    assert code == 0
    assert json.loads(out)["cusps"] == 2**61 - 2


def test_tables_classification(capsys):
    code, out, _ = run(capsys, ["tables", "--which", "classification"])
    data = json.loads(out)
    assert code == 0
    assert data["rows"] == [
        [1, 9, 5, 1],
        [5, 14, 6, 125],
        [7, 14, 7, 49],
        [11, 13, 6, 121],
        [13, 14, 7, 169],
        [17, 15, 5, 17],
        [37, 13, 8, 37],
    ]


def test_tables_deterministic_output(capsys):
    _, out1, _ = run(capsys, ["tables", "--which", "classification"])
    _, out2, _ = run(capsys, ["tables", "--which", "classification"])
    assert out1 == out2
    _, g1, _ = run(capsys, ["tables", "--which", "gl2", "--format", "csv"])
    _, g2, _ = run(capsys, ["tables", "--which", "gl2", "--format", "csv"])
    assert g1 == g2


def test_malformed_group_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["group", "--in", str(bad)])
    assert code == 2
    assert "contract" in err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"modulus": 5, "generators": [[1.7, 1, 0, 1]]}, "generators[0][0]"),
        ({"modulus": 5, "generators": [[1, 1, 0, 1], [1, 0, True, 1]]}, "generators[1][2]"),
        ({"modulus": 5.9, "generators": [[1, 1, 0, 1]]}, "modulus"),
        ({"modulus": True, "generators": [[1, 1, 0, 1]]}, "modulus"),
    ],
)
def test_group_file_non_integer_exit_2(capsys, tmp_path, data, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, ["group", "--in", str(bad)])
    assert code == 2 and out == ""
    assert f"{key} must be a JSON integer" in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"flags": {"assume_sz": "false"}}, 'flags.assume_sz must be a JSON boolean, got "false"'),
        ({"field_degree": 1.5}, "field_degree must be a JSON integer, got 1.5"),
        ({"nonsurjective": [{"prime": 37.0, "type": "borel"}]}, "nonsurjective[0].prime"),
        ({"nonsurjective": [{"prime": 37, "level": 1.5}]}, "nonsurjective[0].level"),
        ({"nonsurjective": 5}, "nonsurjective must be a JSON array, got 5"),
        ({"nonsurjective": None}, "nonsurjective must be a JSON array, got null"),
        (
            {"nonsurjective": [{"prime": 37, "type": ["borel"]}]},
            'nonsurjective[0].type must be a JSON string, got ["borel"]',
        ),
        ({"nonsurjective": [{"prime": 37, "level": 0}]}, "level must be 37^k with k >= 1, got 0"),
        ({"nonsurjective": [{"prime": 5, "level": 6}]}, "level must be 5^k with k >= 1, got 6"),
        ({"nonsurjective": [{"prime": 7, "level": -49}]}, "level must be 7^k with k >= 1, got -49"),
        ({"field_degree": -3}, "field_degree must be >= 1, got -3"),
        ({"field_degree": 0}, "field_degree must be >= 1, got 0"),
    ],
)
def test_profile_json_types_exit_2(capsys, tmp_path, data, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["classify", "--profile", str(path), "--n", "37"])
    assert code == 2 and out == ""
    assert "profile file contract violated" in err and message in err
    assert "Traceback" not in err


def test_missing_generator_entries_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"modulus": 5, "generators": [[1, 0, 0]]}))
    code, out, err = run(capsys, ["group", "--in", str(bad)])
    assert code == 2 and out == ""
    assert err == f"error: group file contract violated by {bad}: matrix (1, 0, 0) needs 4 entries, got 3\n"


GROUP_TEXT = json.dumps({"modulus": 5, "generators": [[1, 1, 0, 1]]})


@pytest.mark.parametrize(
    "content, message",
    [
        # json.loads would read the bytes of both as JSON: the decode is strict UTF-8
        (b"\xef\xbb\xbf" + GROUP_TEXT.encode(), "Unexpected UTF-8 BOM"),
        (GROUP_TEXT.encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0"),
        (GROUP_TEXT[:-1].encode() + b', "note": "\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
        (
            json.dumps({"modulus": 5, "generators": [{"a": 1, "b": 2, "c": 3, "d": 4}]}).encode(),
            'generators[0] must be a JSON array, got {"a": 1, "b": 2, "c": 3, "d": 4}',
        ),
        (
            json.dumps({"modulus": 5, "generators": [[1, 1, 0, 1], "1101"]}).encode(),
            'generators[1] must be a JSON array, got "1101"',
        ),
        (json.dumps({"modulus": 5, "generators": [[1, 1, 0, 1], [2, 1, 4, 2]]}).encode(), "det 0 is not a unit mod 5"),
        (json.dumps({"modulus": 5, "generators": [[1, 1, 0]]}).encode(), "matrix (1, 1, 0) needs 4 entries, got 3"),
    ],
    ids=["utf8-bom", "utf16", "invalid-utf8", "object-generator", "string-generator", "not-invertible", "three-entries"],
)
def test_group_file_contract_names_the_file_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in ("group", "orbits", "degrees", "level"):
        code, out, err = run(capsys, [command, "--in", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: group file contract violated by {path}: ") and message in err


def test_cap_flag_exceeded_exit_2(capsys, tmp_path):
    path = tmp_path / "gl2_8.json"
    save_group(gl2_group(8), str(path))
    # the exact-order vectors are bounded by the cap like the group: the 12
    # mod 4, the level GL2(Z/8)'s generators prove, whose orbits are lifted
    code, out, err = run(capsys, ["orbits", "--in", str(path), "--cap", "10"])
    assert code == 2 and out == ""
    assert "vector enumeration exceeded cap of 10 vectors (12 found)" in err
    code, _, err = run(capsys, ["group", "--in", str(path), "--cap", "10"])
    assert code == 2
    assert "cap" in err


def test_cap_zero_rejected(capsys, gl2_5_file):
    code, out, err = run(capsys, ["group", "--in", gl2_5_file, "--cap", "0"])
    assert code == 2 and out == ""
    assert "cap must be >= 1, got 0" in err


def test_cached_parser_keeps_no_state_between_calls(capsys):
    corpus = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text())
    golden = {c["name"]: (c["exit"], c["stdout"]) for c in corpus}
    tau = ["level-bound", "--primes", "2,3,5", "--ell", "3", "--tau", "5=2"]
    image_order = ["level-bound", "--primes", "2,3,17", "--ell", "2", "--image-order", "17=1088"]
    plain = ["level-bound", "--primes", "2,3,17", "--ell", "2"]
    bad = ["level-bound", "--primes", "2,3,5", "--ell", "3", "--tau", "5="]
    fresh_plain = run_fresh(plain)
    assert fresh_plain[0] == 0

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    for _ in range(2):
        assert in_process(tau) == golden["level-bound-tau"]
        assert in_process(image_order) == golden["level-bound-17-image-order"]
        assert in_process(plain) == fresh_plain
        assert in_process(bad) == (2, "")
    assert command_parser("level-bound") is command_parser("level-bound")
    assert command_parser.cache_info().maxsize >= len(SUBCOMMANDS)
    args = command_parser("level-bound").parse_args(plain[1:])
    assert args.tau == [] and args.image_order == [] and not hasattr(args, "cap")


PARSER_PATHS = json.loads((Path(__file__).parent / "golden" / "parser_paths.json").read_text())


@pytest.mark.parametrize("case", PARSER_PATHS, ids=[c["name"] for c in PARSER_PATHS])
def test_parser_paths_print_the_full_parsers_texts(case, capsys, monkeypatch):
    # recorded from the full parser alone, at 80 columns (Python 3.11): help,
    # usage errors and leftover arguments print the same text, exit code
    # included, whichever parser reads them
    monkeypatch.chdir(Path(__file__).parent / "golden")
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cap=5", "curve", "5"], "option --cap must follow the subcommand"),
        (["--field-degree", "2", "degrees", "--in", "g.json"], "option --field-degree must follow the subcommand"),
        (["-x"], "option -x must follow the subcommand"),
        (["-5", "curve"], "argument subcommand: invalid choice: '-5'"),
    ],
    ids=["cap-with-equals", "field-degree", "unknown-option", "negative-number"],
)
def test_option_before_subcommand_is_named(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2 and f"x1points: error: {message}" in err


@pytest.mark.parametrize("flag", ["--h", "--he", "--hel"])
def test_help_abbreviations_print_the_help(capsys, monkeypatch, flag):
    monkeypatch.setenv("COLUMNS", "80")
    help_text = next(c["stdout"] for c in PARSER_PATHS if c["name"] == "help")
    with pytest.raises(SystemExit) as info:
        main([flag])
    assert (info.value.code, capsys.readouterr().out) == (0, help_text)


def test_parser_paths_cover_every_subcommand_help():
    helps = {c["argv"][0] for c in PARSER_PATHS if c["argv"][1:] == ["-h"]}
    assert helps == set(SUBCOMMANDS)


def test_top_level_parser_holds_only_the_subcommand_names():
    # the options of a subcommand are read by its own parser alone
    sub = build_parser()._subparsers._group_actions[0]
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, parser in sub.choices.items():
        assert [a.option_strings for a in parser._actions] == [["-h", "--help"]], name
    assert not hasattr(build_parser, "cache_info")
    callers = {
        node.name
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_add_options" for c in ast.walk(node))
    }
    assert callers == {"command_parser"}


def test_a_leading_double_dash_is_dropped(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    result = run(capsys, ["--", "curve", "5"])
    assert result == run(capsys, ["curve", "5"]) and result[0] == 0
    # `--` alone is no subcommand, and an unknown one is named
    paths = {c["name"]: c for c in PARSER_PATHS}
    for argv, path in ((["--"], "no-arguments"), (["--", "frobnicate"], "unknown-subcommand")):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out = capsys.readouterr()
        assert (info.value.code, out.out, out.err) == (2, "", paths[path]["stderr"]), argv


def test_fresh_curve_process_builds_one_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *a, **k):\n"
        "    built.append(k.get('prog'))\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "from x1points.cli import main\n"
        "code = main(['curve', '11'])\n"
        "print(code, built, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout)["N"] == 11
    assert proc.stderr == "0 ['x1points curve']\n"


def test_small_cap_refuses_the_vectors_of_a_trivial_group(capsys, tmp_path):
    # 2,880,000 exact-order vectors mod 2000 in one-vector orbits: a cap below
    # that count refuses them before any is looked up
    path = tmp_path / "trivial_2000.json"
    path.write_text(json.dumps({"modulus": 2000, "generators": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["degrees", "--in", str(path), "--cap", "100000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: vector enumeration exceeded cap of 100000 vectors (2880000 found)\n"


@pytest.mark.parametrize("command", ["orbits", "degrees"])
def test_cap_bounds_vectors_before_enumerating(capsys, tmp_path, command):
    # 1,000,003^2 - 1 exact-order vectors: the count is checked first, so
    # the run exits at once instead of enumerating them
    path = tmp_path / "sl2_big.json"
    path.write_text(json.dumps({"modulus": 1_000_003, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]}))
    code, out, err = run(capsys, [command, "--in", str(path), "--cap", "100000"])
    assert code == 2
    assert out == ""
    assert "vectors (1000006000008 found)" in err
