import json
import math

import pytest
from test_golden_cli import CASES

from nilcarnot.catalog import direct_product, engel4, ladder5, save_algebra
from nilcarnot.cli import main
from nilcarnot.linalg import points

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


@pytest.mark.parametrize("factor, code, status", [(1.0, 0, "pass"), (1 + 1e-6, 1, "fail")])
def test_lift_coherence_fails_on_a_lift_off_by_a_factor(capsys, monkeypatch, factor, code, status):
    # every lift of the tower scaled by factor: its probe values leave the second path
    import nilcarnot.shear

    tested = nilcarnot.shear.lift
    monkeypatch.setattr(nilcarnot.shear, "lift", lambda dec, c: tested(dec, c).scaled(factor))
    got, report = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=sign(q1)*sqrt(abs(q1))", "--verify",
        "--samples", "30", "--seed", "42",
    )
    coherence = next(c for c in report["checks"] if c["name"] == "lift_coherence")
    assert got == code and coherence["status"] == status


# float.hex of (sup_ratio, inf_ratio) of the benchmark's ladder5 estimate
# (shear_verify_ladder5: radius 10, 1000 samples), per seed
BENCHMARK_SIZE_BILIP = {
    42: ("0x1.d4096c14186cdp+0", "0x1.4ae4f52e4b45ap-1"),
    7: ("0x1.d600626bb6eeap+0", "0x1.3c2aa2007048ap-1"),
}


@pytest.mark.parametrize("seed", sorted(BENCHMARK_SIZE_BILIP))
def test_benchmark_size_shear_verify_keeps_its_bits(capsys, seed):
    code, report = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=sign(q1)*sqrt(abs(q1))", "--verify",
        "--radius", "10", "--samples", "1000", "--seed", str(seed),
    )
    bilip = next(c for c in report["checks"] if c["name"] == "bilip_estimate")["value"]
    assert code == 0 and (bilip["sup_ratio"].hex(), bilip["inf_ratio"].hex()) == BENCHMARK_SIZE_BILIP[seed]


def test_shear_verify_integrates_the_lifts_once_per_column_call(capsys, monkeypatch):
    # the probes, the K-identity and the estimators evaluate the lifts on coordinate columns
    import nilcarnot.shear

    # the lifts send segment columns, the coherence check its second paths
    calls = []
    for name in ("integrate_bracket_segments", "integrate_bracket_forms"):
        many = getattr(nilcarnot.shear, name)
        monkeypatch.setattr(nilcarnot.shear, name, lambda *a, many=many: calls.append(a) or many(*a))
    code, _ = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=sign(q1)*sqrt(abs(q1))", "--verify",
        "--samples", "100", "--seed", "42",
    )
    # one batch per column call, whatever its number of points: the probes, one
    # block of bilip_estimate per PAIR_BLOCK of its 100 pairs, 1 block per radius
    # of necessity_check, the two s-values of the K-identity and the coherence
    # probes (ladder5's quotient is one-dimensional, so the loop test integrates nothing)
    assert code == 0 and len(calls) == 1 + math.ceil(100 / nilcarnot.shear.PAIR_BLOCK) + 3 + 2 + 1


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


PANSU_TRANSLATE = [
    "maps", "pansu", "--fixture", "heisenberg3", "--map", "translate:0.5,0,0", "--point", "0,0,0", "--seed", "42",
]


def test_maps_pansu_passes_the_true_differential_at_its_rounding_floor(capsys):
    """The float translation's defects rise from 1.1e-8 to 5.5e-7 as the
    scale falls: rounding, each below the floor reported for its scale."""
    code, report = run_cli(capsys, *PANSU_TRANSLATE, "--linear", "1,0,0;0,1,0;0,0,1")
    assert code == 0
    values = [v for _, v in report["defects"]]
    assert values == sorted(values) and values[-1] > 5e-7
    assert [t for t, _ in report["floors"]] == [t for t, _ in report["defects"]]
    assert all(v <= f for v, (_, f) in zip(values, report["floors"]))


def test_maps_pansu_fails_a_wrong_differential_with_flat_defects(capsys):
    """The defects stay at 1.675, far above every floor, and do not fall."""
    code, report = run_cli(capsys, *PANSU_TRANSLATE, "--linear", "2,0,0;0,2,0;0,0,4")
    assert code == 1
    assert all(abs(v - 1.6754445090717) < 1e-12 for _, v in report["defects"])
    assert all(f < 1e-3 for _, f in report["floors"])
    assert report["checks"] == [{"name": "defect_sequence_decreasing", "status": "fail"}]


@pytest.mark.parametrize("shift, floor", [("1e200", "6.77e+193"), ("1e8", "67.7")])
@pytest.mark.parametrize("linear", ["1,0,0;0,1,0;0,0,1", "2,0,0;0,2,0;0,0,4"])
def test_maps_pansu_exits_2_where_no_scale_decides(capsys, shift, floor, linear):
    """A translation this far out leaves every floor at 1 or more: rounding
    alone can be as large as rho(x, y), so neither the true differential
    nor a wrong one is told apart, and the probe says so."""
    argv = list(PANSU_TRANSLATE)
    argv[argv.index("translate:0.5,0,0")] = f"translate:{shift},0,0"
    assert main([*argv, "--linear", linear]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the Pansu probe decides nothing: its smallest rounding floor, {floor}, is at least 1"
    ]


def test_shear_k_identity_reports_the_bound_it_applies(capsys):
    code, report = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=0.3*q1",
        "--verify", "--samples", "60", "--radius", "2",
    )
    check = next(c for c in report["checks"] if c["name"] == "k_identity")
    assert check["tolerance"] == 1e-12 * 2.0**3
    assert check["status"] == "pass" and check["value"] <= check["tolerance"]
    assert code == 0


def test_shear_k_identity_draws_no_pair_the_estimate_measured(capsys, monkeypatch):
    # the golden shear run (seed 42, 200 samples): the K-identity draws its
    # 400 points from counters the estimators never reach
    import nilcarnot.cli

    estimated, drawn = [], []
    apply, sample = nilcarnot.cli.apply_shear, nilcarnot.cli.sample_ball_point
    monkeypatch.setattr(nilcarnot.cli, "apply_shear", lambda smap, g: estimated.extend(points(g)) or apply(smap, g))
    monkeypatch.setattr(nilcarnot.cli, "sample_ball_point", lambda *a: drawn.append(sample(*a)) or drawn[-1])
    code, _ = run_cli(
        capsys, "shear", "--fixture", "ladder5", "--component", "1=sign(q1)*sqrt(abs(q1))",
        "--verify", "--samples", "200", "--seed", "42",
    )
    (k_points,) = drawn
    assert code == 0 and len(estimated) == len(points(k_points)) == 400
    assert not set(points(k_points)) & set(estimated)


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
        ["shear", "--fixture", "heisprod4", "--component", "2=1e300*1e300*q1", "--verify", "--samples", "20"],
        [
            "shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--radius", "1e100",
            "--samples", "5", "--seed", "1",
        ],
    ],
    ids=[
        "division_by_zero", "complex_power", "non_contraction", "extrapolation", "overflow",
        "quadrature_budget", "compatible_without_map", "dalpha_without_map", "chain_without_map",
        "cocycle_without_map", "linear_wrong_shape", "zero_samples", "nan_radius", "inf_radius",
        "radius_overflow", "zero_denominator", "short_point", "long_point", "pansu_long_point",
        "solve_layer_zero", "solve_layer_negative", "infinite_translate", "infinite_translate_automorphism",
        "infinite_literal", "infinite_report_value", "overflowing_translate",
        "overflowing_translate_automorphism", "zigzag_out_of_reach", "infinite_column_component",
        "overflowing_column_estimate",
    ],
)
def test_failing_input_exits_2_with_one_line_message(capsys, multid_path, argv):
    assert main([multid_path if a == MULTID else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_radius_past_the_float_range_names_the_dilation(capsys):
    """At radius 1e160 the quasi-norm of a sample is finite, but a layer-3
    coordinate would be about 1e480: the dilation that samples it says so."""
    argv = ["shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--radius", "1e160",
            "--samples", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: OverflowError: the dilation by ")


def test_radius_below_the_skip_distance_says_no_ratio_was_measured(capsys):
    """At radius 1e-12 every sampled pair is closer than 1e-9, so the
    biLipschitz estimate has no ratio to report."""
    argv = ["shear", "--fixture", "ladder5", "--component", "1=q1", "--verify", "--samples", "5", "--radius",
            "1e-12"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: bilip_estimate skipped all 5 sampled pairs: each was closer than 1e-9, so no ratio was measured\n"
    )


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


def test_necessity_ratios_survive_an_overflowing_square(capsys):
    # the layer-2 values reach 2e200, whose square overflows a float
    code, report = run_cli(
        capsys, "shear", "--fixture", "heisprod4", "--component", "2=1e200*q1",
        "--verify", "--samples", "5", "--radius", "2",
    )
    assert code == 0
    ratios = next(c for c in report["checks"] if c["name"] == "necessity_ratios")["value"]
    assert all(math.isfinite(v) and v > 0.0 for layers in ratios.values() for v in layers.values())


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


@pytest.mark.parametrize("factor, code, status", [(1.0, 0, "pass"), (1.01, 1, "fail")])
def test_component_eliminated_fails_on_a_scaled_solution(capsys, monkeypatch, factor, code, status):
    # the solved component scaled by factor no longer removes s_1
    import nilcarnot.cli

    solve = nilcarnot.cli.solve_single_generator_fixed_point

    def scaled(gamma, layer):
        c, report = solve(gamma, layer)
        return c.scaled(factor), report

    monkeypatch.setattr(nilcarnot.cli, "solve_single_generator_fixed_point", scaled)
    got, report = run_cli(
        capsys, "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/2",
        "--map", "shear:1=0.4*q1", "--solve-layer", "1",
    )
    names = {c["name"]: c for c in report["checks"]}
    assert got == code and names["component_eliminated"]["status"] == status
    assert names["conjugation_identity"]["status"] == "pass"


def test_k_identity_fails_on_a_k_off_by_1e_6(capsys, monkeypatch):
    # every entry of the directly formed K moved by 1e-6, on the golden command
    import nilcarnot.cli

    k_from_s = nilcarnot.cli._k_from_s
    monkeypatch.setattr(nilcarnot.cli, "_k_from_s", lambda *a: tuple(x + 1e-6 for x in k_from_s(*a)))
    got, report = run_cli(capsys, *CASES["shear_ladder5_verify"], "--seed", "42")
    names = {c["name"]: c for c in report["checks"]}
    assert got == 1 and names["k_identity"]["status"] == "fail"
    assert names["k_identity"]["value"] == pytest.approx(1e-6, rel=1e-3)
    assert names["lift_coherence"]["status"] == "pass"


@pytest.mark.parametrize(
    "golden, name, defect",
    [("maps_cocycle_ladder5", "cocycle_identity", 0.0184), ("maps_conjugate_ladder5", "conjugation_identity", 0.0074)],
)
def test_the_cocycle_checks_fail_on_an_action_off_by_1_percent(capsys, monkeypatch, golden, name, defect):
    # pi_Psi c scaled by 1.01 on the golden command: the transported side of the identity moves
    import nilcarnot.maps

    action = nilcarnot.maps.cocycle_action
    monkeypatch.setattr(nilcarnot.maps, "cocycle_action", lambda *a: action(*a).scaled(1.01))
    got, report = run_cli(capsys, *CASES[golden], "--seed", "42")
    check = next(c for c in report["checks"] if c["name"] == name)
    assert got == 1 and check["status"] == "fail" and check["value"] == pytest.approx(defect, rel=0.01)


def test_maps_conjugate_solves_where_a_power_past_the_stop_overflows(capsys):
    """A^-k grows as 10^(10 k) per layer, so a power of the later steps of
    the first block overflows a float; the loop stops at step 2 and never
    reaches it."""
    code, report = run_cli(
        capsys, "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/10000000000",
        "--map", "shear:1=37/100*q1", "--solve-layer", "1",
    )
    assert code == 0
    assert report["fixed_point"] == {"iterations": 2, "final_change": 1.4440348754696477e-20, "factor": 1e-10}
    assert report["sup_new_component"] == 2.2769869262065962e-26


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


# an ideal automorphism that is no similarity: Psi(gamma) would raise
NON_SIMILAR_AUTO = "auto:1,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2"


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "the conjugating shear must have a base layer below the exponent"),
        (["--solve-layer", "1"], "layer 1 is not a center layer below the exponent"),
    ],
)
def test_maps_conjugate_checks_the_layer_before_the_similarity(capsys, extra, message):
    argv = ["maps", "conjugate", "--fixture", "heisprod4", "--map", NON_SIMILAR_AUTO, "--component", "2=q1"]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--component", "2=q1"], "the conjugating shear must have a base layer below the exponent"),
        (["--solve-layer", "2"], "layer 2 is not a center layer below the exponent"),
    ],
)
def test_maps_conjugate_checks_the_layer_before_normal_ordering_the_chain(capsys, extra, message):
    """F(0) of this chain divides by zero, so normal-ordering it raises."""
    argv = ["maps", "conjugate", "--fixture", "heisprod4", "--map", "shear:2=1/q1"]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
