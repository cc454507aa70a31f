"""turanlab benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 16 --trace 0

Runs whole rounds of the workload's fixed operation list (at least 40
operations, at least two rounds) for about ``--seconds``, times each
operation at its best round, checks every output against the references
in ``oracles.py`` after timing, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics per round plus the tracing
overhead.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: the load is one client on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_OPS = 40        # the tail percentile needs ten samples beyond it
MIN_ROUNDS = 2      # each operation's latency is its best of at least two rounds
SETUP_PROBES = 5    # set-up is timed in this many fresh processes

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "supnorm.sup_norm.cp.calls": "count",
    "supnorm.sup_norm.cp.self_s": "s",
    "poly.derivative.calls": "count",
    "poly.derivative.self_s": "s",
    "poly.derivative.coeff_backed": "count",
    "supnorm.sup_norm.grid.calls": "count",
    "supnorm.sup_norm.grid.self_s": "s",
    "supnorm.sup_norm.grid.points": "count",
    "supnorm.sup_norm_derivative.calls": "count",
    "supnorm.sup_norm_derivative.self_s": "s",
    "supnorm.sup_norm_derivative.points": "count",
    "levelsets.small_logderiv_measure.calls": "count",
    "levelsets.small_logderiv_measure.self_s": "s",
    "levelsets.large_logderiv_measure.calls": "count",
    "levelsets.large_logderiv_measure.self_s": "s",
    "supnorm.real_roots.calls": "count",
    "supnorm.real_roots.self_s": "s",
    "poly.modulus_square_on_reals.self_s": "s",
    "search.minimize_ratio.self_s": "s",
    "search.evals": "count",
    "search.us_per_eval": "us",
    "search.evals_per_s": "1/s",
    "classes.embed.calls": "count",
    "classes.embed.self_s": "s",
    "search.restart_descents.self_s": "s",
    "constructions.thm24_construct.calls": "count",
    "constructions.thm24_construct.self_s": "s",
    "bounds.turan_ratio.calls": "count",
    "bounds.turan_ratio.self_s": "s",
    "poly.evaluate_many.calls": "count",
    "poly.evaluate_many.points": "count",
    "poly.evaluate_many.self_s": "s",
    "poly.derivative_values.calls": "count",
    "poly.derivative_values.points": "count",
    "poly.derivative_values.self_s": "s",
    "classes.sample.self_s": "s",
    "classes.is_member.calls": "count",
    "classes.is_member.self_s": "s",
    "bounds.evaluate_verdict.self_s": "s",
    "supnorm.argmax_abs.self_s": "s",
    "supnorm.argmax_abs_derivative.self_s": "s",
    "trace.overhead_pct": "%",
}


def import_turanlab():
    """turanlab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    tl = importlib.import_module("turanlab")
    if SRC.resolve() not in Path(tl.__file__).resolve().parents:
        raise ImportError(f"turanlab was found at {tl.__file__}, not under {SRC}")
    return tl


def build(tl, workload: str, seed: int) -> list:
    """Inputs and operations, then one untimed warm-up call."""
    import workloads

    ops = workloads.WORKLOADS[workload](tl, seed)
    if len(ops) < MIN_OPS:
        raise ValueError(f"{workload} has {len(ops)} operations, needs {MIN_OPS}")
    ops[0].call()
    return ops


def time_setup(args) -> float:
    """Seconds from process start to ready-for-the-first-timed-operation in
    a fresh interpreter: imports, inputs and the warm-up call.  Unscaled:
    imports are file reads and unmarshalling, which the calibration kernel
    does not mirror, and the kernel timed in a fresh process varies 2x."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return t1 - t0


class Record:
    """Latencies and outputs of whole rounds of one operation list."""

    def __init__(self, ops):
        self.ops = ops
        self.results = [[] for _ in ops]
        self.latencies = [[] for _ in ops]
        self.scales = [[] for _ in ops]
        self.rounds = 0
        self.elapsed = 0.0

    def round(self):
        t_start = time.perf_counter()
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            try:
                out, error = op.call(), None
            except Exception as exc:  # a failed operation, counted by check()
                out, error = None, f"{type(exc).__name__}: {exc}"
            self.latencies[i].append(time.perf_counter() - t0)
            self.scales[i].append(calib.REFERENCE_S / calib.timed_kernel())
            self.results[i].append((out, error))
        self.rounds += 1
        self.elapsed += time.perf_counter() - t_start

    def best(self, scaled: bool = True) -> list:
        """Each operation's fastest round, its latency scaled by the
        calibration kernel timed right after it (see calib.py): the best of
        several rounds filters what scaling leaves of other tenants' load."""
        if not scaled:
            return [min(lat) for lat in self.latencies]
        return [min(t * s for t, s in zip(lat, sc))
                for lat, sc in zip(self.latencies, self.scales)]


def rounds_fit(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether another round of the same length still ends within ``seconds``."""
    return elapsed * (rounds + 1) / rounds <= seconds


def check(ops, results) -> tuple:
    """(attempted, failed, problems): the first output of each operation is
    checked against its reference, later ones must repeat it exactly."""
    attempted = failed = 0
    problems = []
    for op, runs in zip(ops, results):
        out0, error0 = runs[0]
        if error0 is None:
            try:
                reason0 = op.check(out0)
                fp0 = op.fingerprint(out0)
            except Exception as exc:  # malformed output
                reason0, fp0 = f"check raised {type(exc).__name__}: {exc}", None
        else:
            reason0, fp0 = error0, None
        for out, error in runs:
            attempted += 1
            reason = reason0
            if error is not None:
                reason = error
            elif fp0 is not None and op.fingerprint(out) != fp0:
                reason = "output changed between rounds"
            if reason:
                failed += 1
                problems.append((op, reason))
    return attempted, failed, problems


def tail(latencies) -> tuple:
    """(value, percentile): the latency with exactly ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer, rounds: int, overhead_pct: float) -> dict:
    out = {}
    for name in PER_LAYER:
        label, field = name.rsplit(".", 1)
        if field in ("calls", "self_s", "points"):
            value = tracer.stats[label][field] if label in tracer.stats else 0
        else:
            value = tracer.counts.get(name, 0)
        out[name] = value / rounds
    evals = tracer.counts.get("search.evals", 0)
    search_s = tracer.stats["search.minimize_ratio"]["total_s"] if evals else 0.0
    out["search.us_per_eval"] = (1e6 * out["search.minimize_ratio.self_s"] * rounds / evals
                                 if evals else 0.0)
    out["search.evals_per_s"] = evals / search_s if evals else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in out.items()}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        tl = import_turanlab()
    except ImportError as exc:
        print(f"perfbench: cannot import turanlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        build(tl, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup = [time_setup(args) for _ in range(SETUP_PROBES)]
    ops = build(tl, args.workload, args.seed)

    if args.trace:
        from spans import Tracer

        # alternate untraced and traced rounds so both see the same machine
        base, rec, tracer = Record(ops), Record(ops), Tracer()
        while True:
            base.round()
            tracer.install()
            try:
                rec.round()
            finally:
                tracer.uninstall()
            if not rounds_fit(base.elapsed + rec.elapsed, rec.rounds, args.seconds):
                break
        overhead = 100.0 * (sum(rec.best()) / sum(base.best()) - 1.0)
        results = [a + b for a, b in zip(base.results, rec.results)]
        metrics = layer_metrics(tracer, rec.rounds, overhead)
        summary = (f"{rec.rounds} traced and {base.rounds} untraced rounds, "
                   f"tracing overhead {overhead:.1f}%")
    else:
        rec = Record(ops)
        while rec.rounds < MIN_ROUNDS or rounds_fit(rec.elapsed, rec.rounds, args.seconds):
            rec.round()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = rec.results
        best = rec.best()
        tail_s, pct = tail(best)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        raw = rec.best(scaled=False)
        summary = (f"{rec.rounds} rounds of {len(ops)} ops in {rec.elapsed:.2f} s, "
                   f"op_tail_ms is p{pct:.1f} of the {len(best)} best-of-round "
                   f"latencies (10 beyond it); unscaled: {len(raw) / sum(raw):.4g} ops/s, "
                   f"p50 {1e3 * statistics.median(raw):.4g} ms, tail "
                   f"{1e3 * tail(raw)[0]:.4g} ms; setup probes "
                   f"{', '.join(f'{t:.3f}' for t in setup)} s")

    attempted, failed, problems = check(ops, results)
    unexpected = [(op, r) for op, r in problems if op.known_fault is None]
    seen = set()
    for op, reason in problems:
        if op.label not in seen:
            seen.add(op.label)
            tag = op.known_fault or "UNEXPECTED"
            print(f"  failed [{tag}] {op.label}: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary}; "
          f"{failed} of {attempted} operations failed ({len(unexpected)} unexpected)")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
