"""One fresh benchmark process: set up, run the cold op, then warm ops.

Run by ``run.py``, never imported.  Prints one JSON line with the set-up
time, every op's wall and scaled time, values and problems, the peak
RSS, the calibration loop times and (with ``--trace-out``) per-op layer
counters and self times.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# Times are scaled to a machine on which one speed sample takes this long.
SAMPLE_NOMINAL_S = 0.0007
SAMPLE_INTERVAL_S = 0.05


def spin(n: int) -> None:
    """A fixed pure-Python loop that touches no library code."""
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003


def calibrate() -> float:
    """Least wall time of five runs of the calibration loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        spin(80_000)
        times.append(time.perf_counter() - t0)
    return min(times)


class Speedometer:
    """Times a section of code and how fast the machine ran meanwhile.

    A shared machine's speed drifts by +-30% within seconds, so a wall
    time alone does not compare between runs.  While a section runs, a
    SIGALRM handler times a short fixed loop every ``SAMPLE_INTERVAL_S``
    (and once before and after it).  The section's wall time, less the
    time the samples took, is its ``wall_s``; scaled by the median
    sample against ``SAMPLE_NOMINAL_S`` it is its ``scaled_s``.  The
    samples follow the machine through the section, so scaled times
    stay comparable between runs where raw ones drift.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        spin(8_000)
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def time(self, section):
        """Run ``section()``; return its result, wall_s and scaled_s."""
        self.samples, self.spent = [], 0.0
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = section()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        spent_inside = self.spent - self.samples[0]
        self._sample()
        wall_s = wall - spent_inside
        return result, wall_s, wall_s * SAMPLE_NOMINAL_S / statistics.median(self.samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--warm-until", type=float, default=0.0, help="time.monotonic() deadline")
    parser.add_argument("--min-warm", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    calibration = [calibrate()]
    speedometer = Speedometer()

    def setup():
        import workloads  # imports nilcarnot

        workdir = ROOT / ".perfbench"
        workdir.mkdir(exist_ok=True)
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(workdir)
        return workload

    workload, setup_wall_s, setup_s = speedometer.time(setup)
    import nilcarnot
    import numpy

    src = ROOT / "src"
    if Path(nilcarnot.__file__).resolve().parent.parent != src:
        print(f"error: nilcarnot imported from {nilcarnot.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install()

    ops = []

    def run_op(index, cold):
        if tracer is not None:
            tracer.reset()

        def op():
            try:
                return workload.op(args.seed, index)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                return {}, [f"{type(exc).__name__}: {exc}"]

        (values, problems), wall_s, scaled_s = speedometer.time(op)
        record = {
            "index": index,
            "cold": cold,
            "wall_s": wall_s,
            "scaled_s": scaled_s,
            "values": values,
            "problems": problems,
        }
        if not problems:
            record["headline"] = workload.headline(values)
        if tracer is not None:
            record["layers"] = {
                "calls": tracer.calls,
                "self_s": tracer.self_s,
                "errors": tracer.errors,
                "counters": tracer.counters,
                "samples": tracer.samples,
            }
        ops.append(record)

    run_op(args.first_op, cold=True)
    warm = 0
    while warm < args.min_warm or time.monotonic() < args.warm_until:
        warm += 1
        run_op(args.first_op + warm, cold=False)

    calibration.append(calibrate())

    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out, STARTED)
    result = {
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": calibration,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "thread_pins": {k: os.environ.get(k) for k in THREAD_VARS},
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
        },
    }
    if tracer is not None:
        result["spans"] = {"stored": len(tracer.span_id), "dropped": tracer.dropped}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
