"""The four benchmark workloads: per-op inputs, the op itself, its checks.

Every op builds its algebra and maps fresh, from the catalog or from the
generated JSON file, exactly as the CLI does; nothing built by one op is
handed to the next.  Op ``i`` of a run draws its seeds and parameters
from ``CounterRng`` at counter ``i`` of the workload seed, so the library
receives only generated inputs and a run is reproducible from its seed.

An op returns ``(values, problems)``: ``values`` is everything the op
reported (compared between traced and untraced runs, and against the
stored references on the default seed), ``problems`` lists every check
that failed.  The library is reached only through module attributes, so
that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

import nilcarnot.catalog
import nilcarnot.carnot
import nilcarnot.cli
import nilcarnot.group
import nilcarnot.linalg
import nilcarnot.rng
import nilcarnot.shear

SIGMA = "sign(q1)*sqrt(abs(q1))"


def op_rng(seed: int, index: int):
    """The generator for op ``index``: seeded from the workload stream."""
    stream = nilcarnot.rng.CounterRng(seed, counter=index)
    return nilcarnot.rng.CounterRng(stream.next_u64())


def run_cli(argv):
    """cli.main in-process; returns (exit code, parsed report or None, problems)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nilcarnot.cli.main(argv)
    problems = []
    if code != 0:
        problems.append(f"{' '.join(argv[:2])}: exit {code} {err.getvalue().strip()[:200]}")
    try:
        report = json.loads(out.getvalue().splitlines()[-1])
    except (IndexError, ValueError):
        return code, None, problems + [f"{' '.join(argv[:2])}: no JSON report"]
    report.pop("wall_clock_s", None)
    for check in report.get("checks", []):
        if check["status"] == "fail":
            problems.append(f"{' '.join(argv[:2])}: check {check['name']} failed ({check.get('value')})")
    return code, report, problems


def _check(name, value):
    return [] if isinstance(value, float) and math.isfinite(value) and value >= 1.0 else [
        f"{name} is {value!r}, expected a finite number >= 1"
    ]


class Workload:
    def setup(self, workdir):
        """Generate the inputs every op of the process reads."""


class ShearVerifyLadder5(Workload):
    """``shear --verify`` on ladder5 through the CLI: the headline check."""

    name = "shear_verify_ladder5"
    samples = 1000

    def op(self, seed, index):
        s = op_rng(seed, index).next_u64() >> 33
        argv = [
            "shear", "--fixture", "ladder5", "--component", f"1={SIGMA}", "--verify",
            "--radius", "10", "--seed", str(s), "--samples", str(self.samples),
        ]
        _, report, problems = run_cli(argv)
        if report is None:
            return {}, problems
        bilip = next((c for c in report["checks"] if c["name"] == "bilip_estimate"), None)
        if bilip is None:
            return report, problems + ["bilip_estimate missing from the report"]
        problems += _check("bilip product", bilip["value"]["product"])
        return report, problems

    def headline(self, values):
        bilip = next(c for c in values["checks"] if c["name"] == "bilip_estimate")
        return {"bilip_product": bilip["value"]["product"]}


class ShearVerifyMultid(Workload):
    """build_shear + bilip_estimate on ladder5 x engel4 (5-dim quotient)."""

    name = "shear_verify_multid"
    pairs = 10
    radius = 4.0

    def setup(self, workdir):
        alg = nilcarnot.catalog.direct_product(
            nilcarnot.catalog.ladder5(), nilcarnot.catalog.engel4(), 2
        )
        self.path = str(workdir / "ladder5_x_engel4.json")
        nilcarnot.catalog.save_algebra(alg, self.path)

    def op(self, seed, index):
        s = op_rng(seed, index).next_u64() >> 33
        alg = nilcarnot.catalog.load_algebra(self.path)
        dec = nilcarnot.carnot.decompose(alg)
        component = nilcarnot.shear.component_from_exprs(dec, 1, SIGMA)
        smap = nilcarnot.shear.build_shear(dec, {1: component})
        sampler = nilcarnot.rng.SamplerConfig(seed=s, count=self.pairs, radius=self.radius)
        sup, inf = nilcarnot.shear.bilip_estimate(
            alg, lambda g: nilcarnot.shear.apply_shear(smap, g), sampler
        )
        values = {
            "seed": s,
            "quotient_dim": dec.quotient.dim,
            "component_layers": sorted(smap.components),
            "sup_ratio": sup,
            "inf_ratio": inf,
            "product": sup / inf if inf > 0 else math.inf,
        }
        problems = _check("bilip product", values["product"])
        if values["component_layers"] != [1, 3]:
            problems.append(f"expected the layer-1 component and its lift, got {values['component_layers']}")
        return values, problems

    def headline(self, values):
        return {"bilip_product": values["product"]}


class ConjugateLadder5(Workload):
    """``maps conjugate --solve-layer 1`` on ladder5 through the CLI."""

    name = "conjugate_ladder5"

    def op(self, seed, index):
        # C is a rational in [0.1, 0.9], written k/100
        k = 10 + int(81 * op_rng(seed, index).uniform())
        argv = [
            "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/2",
            "--map", f"shear:1={k}/100*q1", "--solve-layer", "1",
        ]
        _, report, problems = run_cli(argv)
        if report is None:
            return {}, problems
        names = {c["name"] for c in report["checks"]}
        for needed in ("conjugation_identity", "component_eliminated"):
            if needed not in names:
                problems.append(f"check {needed} missing from the report")
        for key in ("fixed_point", "sup_new_component"):
            if key not in report:
                problems.append(f"{key} missing from the report")
        report["C"] = f"{k}/100"
        return report, problems

    def headline(self, values):
        return {
            "iterations": values["fixed_point"]["iterations"],
            "sup_new_component": values["sup_new_component"],
        }


class ExactOracle(Workload):
    """classify on every fixture plus exact BCH identities on rational triples."""

    name = "exact_oracle"
    triples = 8

    def setup(self, workdir):
        self.fixtures = tuple(nilcarnot.catalog.fixture_names()) + ("free2_4", "free2_5")

    def op(self, seed, index):
        rng = op_rng(seed, index)
        values, problems = {}, []
        bch = nilcarnot.group.bch
        for name in self.fixtures:
            _, report, found = run_cli(["classify", "--fixture", name])
            problems += found
            alg = nilcarnot.catalog.fixture(name)
            zero = nilcarnot.linalg.zero_vector(alg.dim)

            def rnd():
                return tuple(
                    Fraction(int(12 * rng.symmetric()), 1 + int(3 * rng.uniform()))
                    for _ in range(alg.dim)
                )

            defects = {"associativity": 0, "identity": 0, "inverse": 0, "conjugation": 0}
            for _ in range(self.triples):
                x, y, z = rnd(), rnd(), rnd()
                neg_x, neg_y = tuple(-a for a in x), tuple(-a for a in y)
                defects["associativity"] += bch(alg, bch(alg, x, y), z) != bch(alg, x, bch(alg, y, z))
                defects["identity"] += bch(alg, x, zero) != x
                defects["inverse"] += bch(alg, x, neg_x) != zero
                defects["conjugation"] += nilcarnot.group.conjugate_adjoint(alg, y, x) != bch(
                    alg, bch(alg, y, x), neg_y
                )
            for identity, count in defects.items():
                if count:
                    problems.append(f"{name}: exact {identity} failed on {count} of {self.triples} triples")
            values[name] = {
                "classification": report and report.get("classification"),
                "defects": defects,
            }
        return values, problems

    def headline(self, values):
        return {name: v["classification"] for name, v in values.items()}


WORKLOADS = {w.name: w for w in (ShearVerifyLadder5, ShearVerifyMultid, ConjugateLadder5, ExactOracle)}
