import json

import pytest

from nilcarnot.catalog import direct_product, engel4, ladder5, save_algebra
from nilcarnot.cli import main

# stands for the path of a saved ladder5 x engel4 (5-dimensional quotient)
MULTID = "<ladder5_x_engel4>"


@pytest.fixture(scope="module")
def multid_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("algebras") / "ladder5_x_engel4.json"
    save_algebra(direct_product(ladder5(), engel4(), 2), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_classify_engel_heis7(capsys):
    code, report = run_cli(capsys, "classify", "--fixture", "engel_heis7")
    assert code == 0
    assert report["schema"] == "1"
    assert report["classification"] == "carnot-by-carnot"
    dec = report["decomposition"]
    assert dec["alpha"] == [2, 1]
    assert dec["w_dim"] == 4
    assert dec["z_layer_dims"] == {"3": 1}


def test_classify_carnot_type(capsys):
    code, report = run_cli(capsys, "classify", "--fixture", "heisenberg3")
    assert code == 0
    assert report["classification"] == "carnot"


def test_classify_missing_file_exits_2(capsys):
    code = main(["classify", "--algebra", "/no/such/file.json"])
    assert code == 2


def test_classify_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code = main(["classify", "--algebra", str(path)])
    assert code == 2


def test_classify_invalid_algebra_reports_failure(tmp_path, capsys):
    path = tmp_path / "ungraded.json"
    path.write_text(
        json.dumps(
            {
                "dim": 3,
                "labels": ["x", "y", "z"],
                "weights": [[1, 1], [1, 1], [2, 1]],
                "brackets": [[0, 2, 2, 1, 1]],
            }
        )
    )
    code, report = run_cli(capsys, "classify", "--algebra", str(path))
    assert code == 1
    assert report["classification"] == "invalid"


def test_shear_report_matches_lift_values(capsys):
    code, report = run_cli(
        capsys,
        "shear",
        "--fixture",
        "ladder5",
        "--component",
        "1=sign(q1)*sqrt(abs(q1))",
    )
    assert code == 0
    assert report["component_layers"] == [1, 3]
    for sample in report["component_samples"]["3"]:
        p = sample["point"][0]
        assert sample["value"][5] == pytest.approx(-(2.0 / 3.0) * abs(p) ** 1.5, abs=1e-8)


def test_shear_zero_components_is_identity(capsys):
    code, report = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--verify", "--samples", "200", "--seed", "7"
    )
    assert code == 0
    bilip = next(c for c in report["checks"] if c["name"] == "bilip_estimate")
    assert bilip["value"]["sup_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert bilip["value"]["inf_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_shear_component_on_zero_layer_exits_2(capsys):
    code = main(["shear", "--fixture", "ladder5", "--component", "2=q1"])
    assert code == 2


def test_shear_verify_passes(capsys):
    code, report = run_cli(
        capsys,
        "shear",
        "--fixture",
        "ladder5",
        "--component",
        "1=sign(q1)*sqrt(abs(q1))",
        "--verify",
        "--samples",
        "300",
        "--seed",
        "42",
    )
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["k_identity"]["status"] == "pass"
    assert names["lift_coherence"]["status"] == "pass"
    assert "metric_note" in report


def test_maps_dalpha_heisprod(capsys):
    code, report = run_cli(
        capsys,
        "maps",
        "dalpha",
        "--fixture",
        "heisprod4",
        "--map",
        "shear:2=0.5*q1",
    )
    assert code == 0
    assert report["matrix"] == [[1.0, 0.5], [0.0, 1.0]]
    assert report["checks"][-1]["status"] == "pass"


def test_maps_chain_two_shears(capsys):
    code, report = run_cli(
        capsys,
        "maps",
        "chain",
        "--fixture",
        "heisprod4",
        "--map",
        "shear:2=0.2*q1",
        "--map2",
        "shear:2=0.3*q1",
        "--point",
        "0.4,-0.1,0.8,0.6",
    )
    assert code == 0
    assert report["composite_matrix"][0][1] == pytest.approx(0.5, abs=1e-9)
    check = next(c for c in report["checks"] if c["name"] == "chain_rule")
    assert check["status"] == "pass" and check["value"] <= 1e-9


def test_maps_cocycle_identity_maps(capsys):
    code, report = run_cli(
        capsys,
        "maps",
        "cocycle",
        "--fixture",
        "ladder5",
        "--map",
        "dilate:2",
        "--map2",
        "dilate:1/2",
    )
    assert code == 0
    check = report["checks"][-1]
    assert check["status"] == "pass"


def test_maps_compatible_dilation(capsys):
    code, report = run_cli(
        capsys, "maps", "compatible", "--fixture", "ladder5", "--map", "dilate:2"
    )
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"] if c["name"] != "s_central")


def test_maps_compatible_bare_shear_with_nonzero_value_at_the_origin(capsys):
    # F(0) = s(0) lies in Z(w), which does not commute with h, so the
    # shear's own components are not the residual s of the normal form
    code, report = run_cli(
        capsys, "maps", "compatible", "--fixture", "ladder5", "--map", "shear:1=1+q1"
    )
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["reconstruction"]["value"] <= 1e-15
    assert all(c["status"] == "pass" for c in checks.values())
    assert code == 0


def test_maps_automorphism_shear(capsys):
    code, report = run_cli(
        capsys, "maps", "automorphism", "--fixture", "heisprod4", "--map", "shear:2=0.5*q1"
    )
    assert code == 0


def test_maps_pansu_identity(capsys):
    code, report = run_cli(
        capsys,
        "maps",
        "pansu",
        "--fixture",
        "heisenberg3",
        "--map",
        "dilate:1",
        "--linear",
        "1,0,0;0,1,0;0,0,1",
        "--point",
        "0,0,0",
    )
    assert code == 0
    assert all(v <= 1e-12 for _, v in report["defects"])


def test_maps_pansu_exact_translation(capsys):
    # rational coordinates keep the translation exact, so the numerator of
    # every defect is exactly zero; a decimal makes the translation float
    argv = ["maps", "pansu", "--fixture", "heisenberg3", "--linear", "1,0,0;0,1,0;0,0,1", "--point", "0,0,0"]
    code, report = run_cli(capsys, *argv, "--map", "translate:1,-1/2,0")
    assert code == 0
    assert [v for _, v in report["defects"]] == [0.0] * 4
    _, report = run_cli(capsys, *argv, "--map", "translate:1.0,-0.5,0")
    assert all(v > 0.0 for _, v in report["defects"])


def test_shear_k_identity_reports_the_bound_it_applies(capsys):
    code, report = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=0.3*q1",
        "--verify", "--samples", "60", "--radius", "2",
    )
    check = next(c for c in report["checks"] if c["name"] == "k_identity")
    assert check["tolerance"] == 1e-12 * 2.0**3
    assert check["status"] == "pass" and check["value"] <= check["tolerance"]
    assert code == 0


def test_reports_are_deterministic(capsys):
    _, first = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=0.3*q1",
        "--verify", "--samples", "100", "--seed", "11",
    )
    _, second = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=0.3*q1",
        "--verify", "--samples", "100", "--seed", "11",
    )
    first.pop("wall_clock_s")
    second.pop("wall_clock_s")
    assert first == second


def test_usage_error_exit_codes(capsys):
    assert main(["shear", "--fixture", "nope"]) == 2
    assert main(["maps", "chain", "--fixture", "heisprod4", "--map", "dilate:2"]) == 2
    assert main(["maps", "dalpha", "--fixture", "heisprod4", "--map", "bogus"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["shear", "--fixture", "ladder5", "--component", "1=1/q1", "--verify"],
        ["shear", "--fixture", "ladder5", "--component", "1=q1**0.5", "--verify"],
        [
            "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:2",
            "--map", "shear:1=q1", "--solve-layer", "1",
        ],
        ["maps", "dalpha", "--fixture", "heisprod4", "--map", "shear:2=sign(q1)"],
        ["shear", "--fixture", "ladder5", "--component", "1=q1**400", "--verify"],
        ["shear", "--fixture", "ladder5", "--component", "1=2**(q1*q1*100)", "--verify"],
        ["maps", "compatible", "--fixture", "ladder5"],
        ["maps", "dalpha", "--fixture", "ladder5"],
        ["maps", "chain", "--fixture", "ladder5", "--map2", "dilate:2"],
        ["maps", "cocycle", "--fixture", "ladder5", "--map2", "dilate:2"],
        [
            "maps", "pansu", "--fixture", "heisenberg3", "--map", "translate:1,0,0",
            "--linear", "1,0;0,1", "--point", "0,0,0",
        ],
        ["shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--samples", "0"],
        ["shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--radius", "nan"],
        ["shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--radius", "inf"],
        ["shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--radius", "1e300"],
        ["maps", "chain", "--fixture", "heisprod4", "--map", "dilate:1/0"],
        ["maps", "chain", "--fixture", "heisprod4", "--map", "dilate:2", "--map2", "dilate:2", "--point", "1"],
        [
            "maps", "dalpha", "--fixture", "heisprod4", "--map", "shear:2=0.5*q1",
            "--point", "0.3,-1,0.7,0.2,9,9",
        ],
        [
            "maps", "pansu", "--fixture", "heisenberg3", "--map", "dilate:2",
            "--linear", "1,0,0;0,1,0;0,0,1", "--point", "1,2,3,4",
        ],
        [
            "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/2",
            "--map", "shear:1=q1", "--solve-layer", "0",
        ],
        [
            "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/2",
            "--map", "shear:1=q1", "--solve-layer", "-1",
        ],
        ["maps", "compatible", "--fixture", "ladder5", "--map", "translate:1e400,0,0,0,0,0"],
        ["maps", "automorphism", "--fixture", "ladder5", "--map", "translate:1e400,0,0,0,0,0"],
        ["shear", "--fixture", "ladder5", "--component", "1=1e400*q1"],
        ["shear", "--fixture", "ladder5", "--component", "1=1e300*1e300*q1"],
        ["maps", "compatible", "--fixture", "ladder5", "--map", "translate:1e300,0,0,0,0,0"],
        ["maps", "automorphism", "--fixture", "ladder5", "--map", "translate:1e300,0,0,0,0,0"],
        [
            "shear", "--algebra", MULTID, "--component", "1=0.001*q1", "--verify",
            "--samples", "3", "--radius", "1e7",
        ],
    ],
    ids=[
        "division_by_zero", "complex_power", "non_contraction", "extrapolation", "overflow",
        "quadrature_budget", "compatible_without_map", "dalpha_without_map", "chain_without_map",
        "cocycle_without_map", "linear_wrong_shape", "zero_samples", "nan_radius", "inf_radius",
        "radius_overflow", "zero_denominator", "short_point", "long_point", "pansu_long_point",
        "solve_layer_zero", "solve_layer_negative", "infinite_translate", "infinite_translate_automorphism",
        "infinite_literal", "infinite_report_value", "overflowing_translate",
        "overflowing_translate_automorphism", "zigzag_out_of_reach",
    ],
)
def test_failing_input_exits_2_with_one_line_message(capsys, multid_path, argv):
    assert main([multid_path if a == MULTID else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_non_finite_defect_names_its_check(capsys):
    argv = ["maps", "compatible", "--fixture", "ladder5", "--map", "translate:1e300,0,0,0,0,0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: check reconstruction has the non-finite value inf\n"


def test_nan_component_exits_2_naming_the_point(capsys, multid_path):
    """The loop test's membership check stops a nan component before it
    reaches the report."""
    argv = ["shear", "--algebra", multid_path, "--component", "1=q2*(1e308*1e308 - 1e308*1e308)"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: component value is not finite at (-0.3093")
    assert len(captured.err.splitlines()) == 1


def test_shear_verify_far_radius_on_a_multid_quotient(capsys, multid_path):
    # the zigzag holds a residual coordinate of layer m to 1e-9 * max(1, rho)**m
    code, report = run_cli(
        capsys, "shear", "--algebra", multid_path, "--component", "1=0.001*q1",
        "--verify", "--samples", "3", "--radius", "300",
    )
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["k_identity"]["status"] == names["lift_coherence"]["status"] == "pass"
    assert report["component_layers"] == [1, 3]


@pytest.mark.parametrize("coefficient, sup_new", [("0.4", 0.0), ("0.8", 0.799)])
def test_maps_conjugate_with_given_component(capsys, coefficient, sup_new):
    # c = 0.4*q1 is the fixed point of the action of this gamma, so it removes s_1
    code, report = run_cli(
        capsys, "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/2",
        "--map", "shear:1=0.4*q1", "--component", f"1={coefficient}*q1",
    )
    assert code == 0
    assert report["sup_new_component"] == pytest.approx(sup_new, abs=1e-3)
    names = {c["name"]: c for c in report["checks"]}
    assert names["conjugation_identity"]["status"] == "pass"
    assert "component_eliminated" not in names


def test_maps_conjugate_with_solved_fixed_point(capsys):
    code, report = run_cli(
        capsys,
        "maps",
        "conjugate",
        "--fixture",
        "ladder5",
        "--map",
        "dilate:1/2",
        "--map",
        "shear:1=0.4*q1",
        "--solve-layer",
        "1",
    )
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["component_eliminated"]["status"] == "pass"
    assert report["fixed_point"]["iterations"] > 10


def test_classify_validates_the_algebra_once(monkeypatch, capsys):
    import nilcarnot.algebra

    calls = []
    original = nilcarnot.algebra._jacobi_defects
    monkeypatch.setattr(
        nilcarnot.algebra, "_jacobi_defects", lambda alg: calls.append(alg) or original(alg)
    )
    code, report = run_cli(capsys, "classify", "--fixture", "ladder5")
    assert code == 0 and report["classification"] == "carnot-by-carnot"
    assert len(calls) == 1
