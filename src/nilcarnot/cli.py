"""Command-line front end: classification, shear construction, map checks.

Each command prints a single JSON report to stdout.  Exit codes:
0 when no check failed, 1 when a check failed, 2 on usage or input
errors.  All sampling flows from one 64-bit seed (``--seed`` or the
NILCARNOT_SEED environment variable), so reports are byte-identical
across runs up to the wall-clock field.

Factor grammar for map chains (applied in the order given):

    translate:COORDS      comma-separated numbers (rationals like 3/2 allowed);
                          integers and rationals keep the translation exact,
                          a decimal anywhere makes all of its coordinates float
    dilate:R              positive ratio
    auto:MATRIX           rows separated by ';', entries by ','
    shear:SPEC            components 'j=EXPR' separated by ';'
                          (multi-dimensional layers: expressions joined by '|')
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from .algebra import GradedAlgebra, LinearMap, validate_algebra
from .carnot import CbCDecomposition, DecompositionError, decompose
from .catalog import fixture, fixture_names, load_algebra
from .group import bch
from .linalg import as_float, vneg
from .maps import (
    Auto,
    Dilation,
    ExtrapolationError,
    FiberMap,
    NonContractionError,
    Shear,
    Translate,
    automorphism_check,
    chain_rule_check,
    cocycle_identity_check,
    conjugate_by_shear,
    d_alpha_matrix,
    extract_compatible,
    pansu_check,
    solve_single_generator_fixed_point,
    verify_compatible,
)
from .quadrature import QuadratureError
from .rng import SamplerConfig
from .shear import (
    apply_shear,
    bilip_estimate,
    build_shear,
    component_from_exprs,
    k_function,
    lift,
    necessity_check,
)

SCHEMA = "1"


class UsageError(Exception):
    pass


def _parse_number(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if any(ch in text for ch in ".eE"):
        value = float(text)
        if not math.isfinite(value):
            raise UsageError(f"{text!r} is not a finite number")
        return value
    return Fraction(int(text))


def _parse_point(alg, payload: str, what: str):
    coords = tuple(_parse_number(t) for t in payload.split(","))
    if any(ch in payload for ch in ".eE"):
        coords = as_float(coords)
    if len(coords) != alg.dim:
        raise UsageError(f"{what} needs {alg.dim} coordinates")
    return coords


def _parse_matrix(alg, payload: str, what: str) -> LinearMap:
    rows = tuple(tuple(_parse_number(t) for t in row.split(",")) for row in payload.split(";"))
    if len(rows) != alg.dim or any(len(r) != alg.dim for r in rows):
        raise UsageError(f"{what} needs a {alg.dim}x{alg.dim} matrix")
    return LinearMap(rows)


def _parse_factor(alg, dec, spec: str):
    if ":" not in spec:
        raise UsageError(f"factor {spec!r} needs kind:payload")
    kind, payload = spec.split(":", 1)
    if kind == "translate":
        return Translate(_parse_point(alg, payload, "translate"))
    if kind == "dilate":
        return Dilation(alg, _parse_number(payload))
    if kind == "auto":
        return Auto(_parse_matrix(alg, payload, "auto"))
    if kind == "shear":
        if dec is None:
            raise UsageError("shear factors need a Carnot-by-Carnot fixture")
        return Shear(build_shear(dec, _parse_components(dec, payload.split(";"))))
    raise UsageError(f"unknown factor kind {kind!r}")


def _parse_components(dec: CbCDecomposition, specs):
    components = {}
    for spec in specs:
        if "=" not in spec:
            raise UsageError(f"component {spec!r} needs j=EXPR")
        j_text, expr = spec.split("=", 1)
        j = int(j_text)
        if dec.z_layer(j) is None:
            raise UsageError(f"center layer {j} is zero in this algebra")
        components[j] = component_from_exprs(dec, j, expr.split("|"))
    return components


def _parse_chain(alg, dec, specs) -> FiberMap:
    if not specs:
        raise UsageError("at least one --map factor is required")
    return FiberMap(alg, tuple(_parse_factor(alg, dec, s) for s in specs))


class Report:
    def __init__(self, command: str, seed: int):
        self.t0 = time.time()
        self.data = {
            "schema": SCHEMA,
            "command": command,
            "seed": seed,
            "checks": [],
        }

    def algebra_digest(self, alg: GradedAlgebra, step: int):
        self.data["algebra"] = {
            "dim": alg.dim,
            "step": step,
            "weights": [[w.numerator, w.denominator] for w in alg.weights],
        }

    def add(self, name, status, value=None, tolerance=None, samples=None, seed=None):
        entry = {"name": name, "status": status}
        if value is not None:
            entry["value"] = value
        if tolerance is not None:
            entry["tolerance"] = tolerance
        if samples is not None:
            entry["samples"] = samples
        if seed is not None:
            entry["seed"] = seed
        self.data["checks"].append(entry)

    def check(self, name, ok, value=None, tolerance=None):
        self.add(name, "pass" if ok else "fail", value, tolerance)

    def extra(self, key, value):
        self.data[key] = value

    def finish(self) -> int:
        """Write the report; a non-finite value raises ``ValueError`` before any output."""
        self.data["wall_clock_s"] = round(time.time() - self.t0, 6)
        text = json.dumps(self.data, sort_keys=True, allow_nan=False)
        sys.stdout.write(text + "\n")
        return 1 if any(c["status"] == "fail" for c in self.data["checks"]) else 0


def _load(args) -> GradedAlgebra:
    if getattr(args, "fixture", None):
        try:
            return fixture(args.fixture)
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
    if getattr(args, "algebra", None):
        try:
            return load_algebra(args.algebra)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load algebra: {exc}") from exc
    raise UsageError("one of --fixture or --algebra is required")


def cmd_classify(args) -> int:
    alg = _load(args)
    report = Report("classify", args.seed)
    validation = validate_algebra(alg)
    report.algebra_digest(alg, validation.step)
    for name, ok, detail in validation.checks:
        report.check(f"validate.{name}", ok, value=detail or None)
    if validation.warnings:
        report.extra("warnings", list(validation.warnings))
    if not validation.ok:
        report.extra("classification", "invalid")
        return report.finish()
    try:
        dec = decompose(alg)
    except DecompositionError as exc:
        if exc.kind == "carnot_type":
            report.extra("classification", "carnot")
            report.add("decompose", "pass", value="Carnot type")
        else:
            report.extra("classification", "not-carnot-by-carnot")
            report.check("decompose", False, value=str(exc))
        return report.finish()
    report.extra("classification", "carnot-by-carnot")
    report.extra(
        "decomposition",
        {
            "w_basis_indices": list(dec.w.pivots),
            "w_dim": dec.w.rank,
            "alpha": [dec.alpha.numerator, dec.alpha.denominator],
            "alpha_is_integer": dec.alpha_is_integer,
            "z_layer_dims": {str(j): s.rank for j, s in sorted(dec.z_layers.items())},
            "quotient_dim": dec.quotient.dim,
            "central_product": dec.central_product,
        },
    )
    report.add("decompose", "pass")
    return report.finish()


def cmd_shear(args) -> int:
    if args.verify and (args.samples < 1 or not 0.0 < args.radius < math.inf):
        raise UsageError("--verify needs --samples at least 1 and a finite positive --radius")
    alg = _load(args)
    report = Report("shear", args.seed)
    validation = validate_algebra(alg)
    report.algebra_digest(alg, validation.step)
    try:
        dec = decompose(alg)
    except DecompositionError as exc:
        raise UsageError(f"not Carnot-by-Carnot: {exc}") from exc
    components = _parse_components(dec, args.component or [])
    smap = build_shear(dec, components)
    report.extra("component_layers", sorted(smap.components))

    qdim = dec.quotient.dim
    probe_points = [tuple(0.5 * (k + 1) if t == 0 else 0.0 for t in range(qdim)) for k in range(4)]
    samples = {}
    for j, comp in sorted(smap.components.items()):
        samples[str(j)] = [
            {"point": list(p), "value": [float(a) for a in comp.eval(p)]}
            for p in probe_points
        ]
    report.extra("component_samples", samples)

    if args.verify:
        sampler = SamplerConfig(seed=args.seed, count=args.samples, radius=args.radius)
        sup_r, inf_r = bilip_estimate(alg, lambda g: apply_shear(smap, g), sampler)
        report.add(
            "bilip_estimate",
            "estimate",
            value={"sup_ratio": sup_r, "inf_ratio": inf_r, "product": sup_r / inf_r if inf_r > 0 else math.inf},
            samples=args.samples,
            seed=args.seed,
        )
        necessity = necessity_check(dec, smap, seed=args.seed, count=max(50, args.samples // 30))
        report.add(
            "necessity_ratios",
            "estimate",
            value={str(r): {str(i): v for i, v in layers.items()} for r, layers in necessity.per_radius.items()},
            seed=args.seed,
        )
        report.extra("metric_note", necessity.cc_surrogate)

        # K-identity on sampled pairs
        from .rng import CounterRng, sample_ball_point

        rng = CounterRng(args.seed)
        worst = 0.0
        for _ in range(min(200, args.samples)):
            g1 = sample_ball_point(rng, alg, args.radius)
            g2 = sample_ball_point(rng, alg, args.radius)
            k_direct = k_function(dec, smap, g1, g2)
            u = bch(alg, vneg(as_float(g1)), as_float(g2))
            k_indirect = bch(
                alg,
                vneg(u),
                bch(alg, vneg(apply_shear(smap, g1)), apply_shear(smap, g2)),
            )
            worst = max(worst, max(abs(a - b) for a, b in zip(k_direct, k_indirect)))
        k_tol = 1e-12 * max(1.0, args.radius**3)
        report.check("k_identity", worst <= k_tol, value=worst, tolerance=k_tol)

        # lift coherence for derived layers
        if dec.alpha_is_integer:
            step = int(dec.alpha)
            coherence = 0.0
            for j in sorted(components):
                expected = components[j]
                layer = j
                while layer + step in smap.components:
                    expected = lift(dec, expected, waive_membership=True)
                    layer += step
                    for p in probe_points:
                        got = smap.components[layer].eval(p)
                        ref = expected.eval(p)
                        coherence = max(coherence, max(abs(a - b) for a, b in zip(got, ref)))
            report.check("lift_coherence", coherence <= 1e-9, value=coherence, tolerance=1e-9)
    return report.finish()


def cmd_maps(args) -> int:
    alg = _load(args)
    report = Report(f"maps.{args.subcommand}", args.seed)
    validation = validate_algebra(alg)
    report.algebra_digest(alg, validation.step)
    dec = None
    try:
        dec = decompose(alg)
    except DecompositionError:
        pass
    chain = _parse_chain(alg, dec, args.map)
    chain2 = _parse_chain(alg, dec, args.map2) if args.map2 else None
    point = as_float(_parse_point(alg, args.point, "--point")) if args.point else (0.0,) * alg.dim

    sub = args.subcommand
    if sub in ("compatible", "dalpha", "chain", "cocycle", "conjugate") and dec is None:
        raise UsageError("this subcommand needs a Carnot-by-Carnot algebra")

    if sub == "compatible":
        expr = extract_compatible(dec, chain)
        rep = verify_compatible(dec, chain, expr, SamplerConfig(seed=args.seed, count=40, radius=3.0))
        report.check("b_graded", rep.b_graded)
        report.check("b_projects_to_quotient", rep.b_projects)
        report.check("bracket_intertwines", rep.intertwines)
        report.check("s_central", rep.s_central_defect <= 1e-8, value=rep.s_central_defect, tolerance=1e-8)
        report.check(
            "reconstruction",
            rep.reconstruction_defect <= 1e-10,
            value=rep.reconstruction_defect,
            tolerance=1e-10,
        )
        report.check("same_b_at_p", rep.same_b)
    elif sub == "dalpha":
        closed = d_alpha_matrix(dec, chain, point, mode="closed")
        fd = d_alpha_matrix(dec, chain, point, mode="fd")
        gap = float(np.max(np.abs(closed - fd)))
        report.extra("matrix", [[float(x) for x in row] for row in closed])
        report.check("closed_vs_fd", gap <= 1e-6, value=gap, tolerance=1e-6)
    elif sub == "chain":
        if chain2 is None:
            raise UsageError("chain needs --map2 for the inner map")
        defect = chain_rule_check(dec, chain, chain2, point)
        from .maps import compose

        composite = compose(chain2, chain)
        report.extra(
            "composite_matrix",
            [[float(x) for x in row] for row in d_alpha_matrix(dec, composite, point)],
        )
        report.check("chain_rule", defect <= 1e-6, value=defect, tolerance=1e-6)
    elif sub == "cocycle":
        if chain2 is None:
            raise UsageError("cocycle needs --map2")
        defect = cocycle_identity_check(dec, chain, chain2)
        report.check("cocycle_identity", defect <= 1e-9, value=defect, tolerance=1e-9)
    elif sub == "conjugate":
        if args.solve_layer is not None:
            c, fp = solve_single_generator_fixed_point(dec, chain, args.solve_layer)
            report.extra(
                "fixed_point",
                {"iterations": fp.iterations, "final_change": fp.final_change, "factor": fp.contraction_factor},
            )
            f0 = build_shear(dec, {args.solve_layer: c}, waive_membership=True)
        elif args.component:
            f0 = build_shear(dec, _parse_components(dec, args.component))
        else:
            raise UsageError("conjugate needs --component or --solve-layer")
        _, crep = conjugate_by_shear(dec, f0, chain)
        report.extra("sup_new_component", crep.sup_new_component)
        report.check(
            "conjugation_identity", crep.identity_defect <= 1e-9, value=crep.identity_defect, tolerance=1e-9
        )
        if args.solve_layer is not None:
            report.check(
                "component_eliminated", crep.sup_new_component <= 1e-9, value=crep.sup_new_component, tolerance=1e-9
            )
    elif sub == "pansu":
        if not args.linear:
            raise UsageError("pansu needs --linear MATRIX for the candidate differential")
        l_map = _parse_matrix(alg, args.linear, "--linear")
        defects = pansu_check(alg, chain, point, l_map, seed=args.seed)
        report.extra("defects", [[t, v] for t, v in defects])
        values = [v for _, v in defects]
        decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))
        report.check("defect_sequence_decreasing", decreasing or max(values) <= 1e-12)
    elif sub == "automorphism":
        rep = automorphism_check(alg, chain, SamplerConfig(seed=args.seed, count=60, radius=3.0))
        report.check("automorphism", rep.passed, value=rep.defect, tolerance=rep.tolerance)
    else:
        raise UsageError(f"unknown maps subcommand {sub!r}")
    return report.finish()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcarnot",
        description="Exact and numeric computation in graded nilpotent Lie groups",
    )
    default_seed = int(os.environ.get("NILCARNOT_SEED", "42"))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--fixture", help=f"one of {', '.join(fixture_names())}")
        p.add_argument("--algebra", help="path to an algebra JSON file")
        p.add_argument("--seed", type=int, default=default_seed)

    p_classify = sub.add_parser("classify", help="validate and decompose an algebra")
    common(p_classify)

    p_shear = sub.add_parser("shear", help="build and verify a shear map")
    common(p_shear)
    p_shear.add_argument("--component", action="append", metavar="j=EXPR")
    p_shear.add_argument("--verify", action="store_true")
    p_shear.add_argument("--samples", type=int, default=2000)
    p_shear.add_argument("--radius", type=float, default=10.0)

    p_maps = sub.add_parser("maps", help="compatible-expression and differential checks")
    p_maps.add_argument(
        "subcommand",
        choices=["compatible", "dalpha", "chain", "cocycle", "conjugate", "pansu", "automorphism"],
    )
    common(p_maps)
    p_maps.add_argument("--map", action="append", metavar="FACTOR")
    p_maps.add_argument("--map2", action="append", metavar="FACTOR")
    p_maps.add_argument("--component", action="append", metavar="j=EXPR")
    p_maps.add_argument("--point", metavar="COORDS")
    p_maps.add_argument("--linear", metavar="MATRIX")
    p_maps.add_argument("--solve-layer", type=int, dest="solve_layer")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "shear":
            return cmd_shear(args)
        if args.command == "maps":
            return cmd_maps(args)
        parser.error(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, NonContractionError, ExtrapolationError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
