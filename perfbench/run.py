"""nilcarnot benchmark: four workloads, cold/warm op latency, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.

Process model: every measuring process is a fresh, single-threaded
``worker.py`` (BLAS/OpenMP threads pinned to 1, hash seed fixed), started
one after another.  Each builds its own inputs, times its first op on its
own (cold), and never reuses an algebra or map across ops.  An untraced
run starts ``cold_runs - 1`` processes that run only the cold op, then
one that runs the cold op and warm ops until ``--seconds`` have passed
since the run began (at least ``min_warm`` of them).  End-to-end metrics:

    setup_s      median over the processes of import + input generation
    cold_op_s    median over the processes of the first op
    op_p50_s     median time of the warm ops
    ops_per_s    warm ops completed per second of warm-op time (mean-based)
    peak_rss_mb  ru_maxrss of the warm process

Times are wall times scaled by the machine's speed, sampled all through
each timed section (``Speedometer`` in ``worker.py``): the speed of a
shared machine drifts by +-30% within seconds, which would otherwise
swamp run-to-run comparisons.  Every op's raw wall time is printed next
to its scaled one, and the medians of the raw times are printed as
``wall_*`` lines (and are per-layer metrics of the traced run).

A traced run (``--trace 1``) runs the same ops (the cold op and
``traced_warm`` warm ops) twice in fresh processes, untraced and then
traced; it checks that both report the same values, reports the
per-layer metrics per warm op, the tracing overhead, and asserts the
bypass predictions.  Spans are written to ``.perfbench/``.

Every op is checked (``workloads.py``); a failed check fails the op, and
failed ops are counted, never retried.  On seed 42 the headline values
of the first ops must match ``reference.json`` (floats to a relative
1e-9, or 1e-11 absolute for residues at rounding level); the ``headline``
lines a run prints are the material for that file.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170.0

# cold_runs: processes per run, each giving one set-up and one cold-op sample
# min_warm: warm ops even when the time is up; traced_warm: warm ops traced
CONFIG = {
    "shear_verify_ladder5": {"cold_runs": 6, "min_warm": 3, "traced_warm": 2},
    "shear_verify_multid": {"cold_runs": 5, "min_warm": 3, "traced_warm": 1},
    "conjugate_ladder5": {"cold_runs": 3, "min_warm": 2, "traced_warm": 1},
    "exact_oracle": {"cold_runs": 7, "min_warm": 3, "traced_warm": 2},
}

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_op_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Layers:
    """Per-warm-op means of the traced counters and self times."""

    def __init__(self, ops):
        self.ops = [op["layers"] for op in ops if not op["cold"]]
        self.cold = next(op["layers"] for op in ops if op["cold"])

    def _mean(self, section, key):
        return statistics.fmean(op[section].get(key, 0) for op in self.ops)

    def calls(self, name):
        return self._mean("calls", name)

    def self_s(self, name):
        return self._mean("self_s", name)

    def errors(self, layer):
        return self._mean("errors", layer)

    def counter(self, name):
        return self._mean("counters", name)

    def samples(self, name):
        return [v for op in self.ops for v in op["samples"].get(name, [])]


def _ratio(num, den):
    return num / den if den else 0.0


def _timed(name):
    return [
        (f"{name}.calls", "count", lambda L: L.calls(name)),
        (f"{name}.self_s", "s", lambda L: L.self_s(name)),
    ]


def _self(name):
    return [(f"{name}.self_s", "s", lambda L: L.self_s(name))]


PER_LAYER = (
    _timed("group.bch_float")
    + _timed("algebra.bracket_float")
    + _timed("group.bch_exact")
    + _timed("algebra.bracket")
    + _timed("linalg.rref")
    + _self("linalg.solve_exact")
    + _self("algebra.validate_algebra")
    + _self("carnot.decompose")
    + _timed("algebra.key_eq")
    + [("algebra.key_eq.cold_calls", "count", lambda L: L.cold["calls"].get("algebra.key_eq", 0))]
    + _timed("group.quasi_norm")
    + _self("group.dilate")
    + _timed("rng.sample_ball_point")
    + _timed("quadrature.integrate_vector")
    + [
        ("quadrature.evals", "count", lambda L: L.counter("quadrature.evals")),
        ("quadrature.evals_per_call.p50", "count",
         lambda L: statistics.median(L.samples("quadrature.evals_per_call") or [0])),
        ("quadrature.evals_per_call.max", "count",
         lambda L: max(L.samples("quadrature.evals_per_call") or [0])),
    ]
    + _timed("carnot.integrate_bracket_form")
    + [
        ("shear.lift.evals", "count", lambda L: L.calls("shear.lift.eval")),
        ("shear.lift.hit_ratio", "ratio",
         lambda L: _ratio(L.counter("shear.lift.hits"), L.calls("shear.lift.eval"))),
    ]
    + _timed("carnot.horizontal_connect")
    + [
        ("carnot.zigzag.segments_per_path", "count",
         lambda L: _ratio(L.counter("carnot.zigzag.segments"), L.counter("carnot.zigzag.paths"))),
    ]
    + _self("shear.loop_test_membership")
    + _self("shear.build_shear")
    + _timed("shear.apply_shear")
    + _self("shear.bilip_estimate")
    + _self("shear.necessity_check")
    + [
        ("exprlang.component_evals", "count", lambda L: L.calls("exprlang.component_evals")),
        ("exprlang.component_evals.self_s", "s", lambda L: L.self_s("exprlang.component_evals")),
    ]
    + _timed("linalg.mat_mul")
    + _self("maps.solve_single_generator_fixed_point")
    + _self("maps.conjugate_by_shear")
    + _timed("maps.extract_compatible")
    + [("maps.fixed_point.iterations", "count", lambda L: L.counter("maps.fixed_point.iterations"))]
    + _self("cli.main")
    + [(f"{layer}.errors", "count", lambda L, layer=layer: L.errors(layer)) for layer in LAYERS]
)


def _totals(ops, section, key):
    return sum(op["layers"][section].get(key, 0) for op in ops)


# checked on every op of the traced process, cold and warm
BYPASS_PREDICTIONS = {
    "shear_verify_ladder5": [
        ("every zigzag has one segment",
         lambda ops: 0 < _totals(ops, "counters", "carnot.zigzag.paths")
         == _totals(ops, "counters", "carnot.zigzag.segments")),
    ],
    "shear_verify_multid": [],
    "conjugate_ladder5": [
        ("quadrature.evals == 0", lambda ops: _totals(ops, "counters", "quadrature.evals") == 0),
        # the conjugation never connects points, so there is no path to count
        ("no zigzag is built", lambda ops: _totals(ops, "counters", "carnot.zigzag.paths") == 0),
    ],
    "exact_oracle": [
        ("quadrature.evals == 0", lambda ops: _totals(ops, "counters", "quadrature.evals") == 0),
        ("group.bch_float.calls == 0", lambda ops: _totals(ops, "calls", "group.bch_float") == 0),
    ],
}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_reference(workload):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def same(got, want):
    """Reference match: floats to 1e-9 relative (1e-11 absolute), the rest exactly."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[k], want[k]) for k in want
        )
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-11)
    return got == want


class Run:
    """One benchmark run: starts the workers and collects what they report."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.workers = []
        self.reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else {}

    def worker(self, label, first_op, min_warm=0, until=None, trace_out=""):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--first-op", str(first_op), "--min-warm", str(min_warm),
        ]
        if until is not None:
            # the worker's warm phase starts after its own set-up and cold op
            cmd += ["--warm-until", f"{until:.6f}"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
        remaining = RUN_TIMEOUT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, remaining)
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: {label} worker still running after {RUN_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: {label} worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["label"] = label
        self.workers.append(result)
        self.check_reference(result)
        self.print_worker(result)
        return result

    def check_reference(self, result):
        for op in result["ops"]:
            want = self.reference.get(str(op["index"]))
            if want is not None and not op["problems"] and not same(op["headline"], want):
                op["problems"].append(f"headline {op['headline']} differs from reference {want}")

    def print_worker(self, result):
        before, after = result["calibration_s"]
        print(f"worker {result['label']}: setup {result['setup_wall_s']:.4f} s wall, "
              f"{result['setup_s']:.4f} s scaled; peak rss {result['peak_rss_mb']:.1f} MB; "
              f"calibration loop {before * 1e3:.2f} ms before, {after * 1e3:.2f} ms after "
              f"(drift ratio {after / before:.3f})")
        for op in result["ops"]:
            extra = ""
            if "layers" in op:
                extra = f" key_eq.calls {op['layers']['calls'].get('algebra.key_eq', 0)}"
            status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
            print(f"  op {op['index']} {'cold' if op['cold'] else 'warm'} {op['wall_s']:.4f} s wall "
                  f"{op['scaled_s']:.4f} s scaled{extra} {status}")
            if not op["problems"]:
                print(f"  headline {op['index']} {json.dumps(op['headline'], sort_keys=True)}")

    def ops(self):
        return [op for w in self.workers for op in w["ops"]]


def wall_figures(workers):
    """Medians of the raw (unscaled) wall times, and the largest calibration drift."""
    ops = [op for w in workers for op in w["ops"]]
    drifts = [w["calibration_s"][1] / w["calibration_s"][0] for w in workers]
    return {
        "wall.setup_s": statistics.median(w["setup_wall_s"] for w in workers),
        "wall.cold_op_s": statistics.median(op["wall_s"] for op in ops if op["cold"]),
        "wall.op_p50_s": statistics.median(op["wall_s"] for op in ops if not op["cold"]),
        "calibration.drift_ratio": max(drifts, key=lambda r: abs(math.log(r))),
    }


def measure(run, cfg):
    """Untraced run: the end-to-end metrics."""
    for i in range(cfg["cold_runs"] - 1):
        run.worker(f"cold{i}", first_op=i)
    warm = run.worker(
        "warm", first_op=cfg["cold_runs"] - 1, min_warm=cfg["min_warm"],
        until=run.started + run.args.seconds,
    )
    warm_times = [op["scaled_s"] for op in warm["ops"] if not op["cold"]]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in run.workers),
        "cold_op_s": statistics.median(op["scaled_s"] for op in run.ops() if op["cold"]),
        "op_p50_s": statistics.median(warm_times),
        "ops_per_s": len(warm_times) / sum(warm_times),
        "peak_rss_mb": warm["peak_rss_mb"],
    }, [f"warm ops {len(warm_times)}, cold ops {cfg['cold_runs']}"] + [
        f"{name} {value:.6g}" for name, value in wall_figures(run.workers).items()
    ]


def trace(run, cfg):
    """Traced run: per-layer metrics, overhead, traced == untraced, bypass predictions."""
    w = cfg["traced_warm"]
    plain = run.worker("untraced", first_op=0, min_warm=w)
    out = ROOT / ".perfbench" / f"spans-{run.args.workload}-{run.args.seed}.jsonl"
    traced = run.worker("traced", first_op=0, min_warm=w, trace_out=str(out))
    notes = [f"spans written to {out.relative_to(ROOT)}: {traced['spans']}"]
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["values"] != b["values"]:
            b["problems"].append(f"traced op {b['index']} reports other values than the untraced op")
    layers = Layers(traced["ops"])
    metrics = {name: value(layers) for name, _, value in PER_LAYER}
    warm = lambda r: statistics.median(op["scaled_s"] for op in r["ops"] if not op["cold"])
    overhead = warm(traced) - warm(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / warm(plain)
    metrics.update(wall_figures([plain]))
    failed_predictions = []
    for text, holds in BYPASS_PREDICTIONS[run.args.workload]:
        ok = holds(traced["ops"])
        notes.append(f"bypass prediction {text}: {'holds' if ok else 'FAILED'}")
        if not ok:
            failed_predictions.append(text)
    return metrics, notes, failed_predictions


PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
PER_LAYER_UNITS.update({
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "wall.setup_s": "s",
    "wall.cold_op_s": "s",
    "wall.op_p50_s": "s",
    "calibration.drift_ratio": "ratio",
})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nilcarnot" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'nilcarnot'} not found; run from a nilcarnot checkout",
              file=sys.stderr)
        return 2

    run = Run(args)
    print("env " + json.dumps({
        "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "thread_pins": THREAD_PINS,
    }, sort_keys=True))
    cfg = CONFIG[args.workload]
    failed_predictions = []
    if args.trace:
        metrics, notes, failed_predictions = trace(run, cfg)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = measure(run, cfg)
        units = END_TO_END_UNITS
    print("env " + json.dumps(run.workers[-1]["env"], sort_keys=True))
    for note in notes:
        print(note)

    ops = run.ops()
    failed = sum(1 for op in ops if op["problems"])
    print(f"failed_frac {failed / len(ops):.4f} ratio ({failed} of {len(ops)} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not failed_predictions,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
