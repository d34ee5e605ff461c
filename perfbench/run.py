"""narxlm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program under test is imported
from ``src/narxlm`` next to this directory.  The runner writes the
workload's inputs under ``.perfbench/``, starts the workload in fresh
interpreters (``worker.py``), and prints one line per metric followed by a
final JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  The full result, with the
environment block, goes to ``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SWEEP_JOBS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0
P90_MIN_OPS = 100

# Set-ups per run for the setup_s median: the measuring interpreter plus
# set-up-only ones, which warm up on inputs 1, 2, ... so that on ``train``
# the median spans several training seeds.  The sweep's warm-up op alone
# takes ~12 s.
SETUP_RUNS = {"train": 5, "sweep": 1, "forecast": 5, "cli_score": 5}

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p90", "s"),
    ("cpu_s.p90", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("quality.mse", "norm2"),
    ("quality.r_value", "R"),
    ("quality.max_div_pct", "%"),
)

PER_LAYER_UNITS = {
    "training.lm_step.calls": "count",
    "training.lm_step.self_s": "s",
    "training.factor_solve.s": "s",
    "training.lm_step.failures": "count",
    "training.lm_step.gflop": "GFLOP_computed",
    "training.epochs": "count",
    "training.steps_per_epoch": "count",
    "training.step_accept_ratio": "ratio",
    "training.train.calls": "count",
    "training.restart_s.p50": "s",
    "training.objective_evals": "count",
    "network.jacobian.calls": "count",
    "network.jacobian.s": "s",
    "network.jacobian.mb": "MB_computed",
    "network.forward_open.calls": "count",
    "network.forward_open.s": "s",
    "network.from_flat.calls": "count",
    "network.from_flat.s": "s",
    "network.simulate.steps": "count",
    "network.simulate.s": "s",
    "network.simulate.us_per_step": "us",
    "diagnostics.diagnose.calls": "count",
    "diagnostics.diagnose.s": "s",
    "data.load_ohlcv.s": "s",
    "data.prepare_delayed.s": "s",
    "pipeline.prepare.s": "s",
    "cli.main.self_s": "s",
    "sweep.points": "count",
    "sweep.point_s.p50": "s",
    "sweep.worker_busy_ratio": "ratio",
    "layer.cli.self_s": "s",
    "layer.data.self_s": "s",
    "layer.pipeline.self_s": "s",
    "layer.training.self_s": "s",
    "layer.network.self_s": "s",
    "layer.diagnostics.self_s": "s",
    "layer.sweep.self_s": "s",
    "layer.linalg.self_s": "s",
    "layer.bench.self_s": "s",
    "trace.op_s.mean": "s",
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans_per_op": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(values, q):
    """Linearly interpolated percentile of ``values`` (0 <= q <= 100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def recorded_quality(workload, seed):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_worker(spec, mode, env, deadline, *extra):
    """Run worker.py in a fresh interpreter and return its result dict."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec["spec_path"], mode,
         *map(str, extra)],
        env=env, cwd=ROOT, stdout=sys.stderr.fileno(), start_new_session=True)
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker ({mode}) did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise BenchError(f"worker ({mode}) exited {code}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def tail(values):
    """The 90th percentile when at least ten values lie beyond it, else the
    mean: of a dozen 2 s ops, the steadier figure across runs."""
    if len(values) >= P90_MIN_OPS:
        return percentile(values, 90)
    return statistics.fmean(values)


def ungated(res):
    """Summaries printed for people but not gated, because across runs they
    move with the machine's speed more than the bounds allow."""
    walls = res["walls"]
    return {"op_s.p50": statistics.median(walls),
            "ops_per_s": len(walls) / sum(walls),
            "cpu_s.p50": statistics.median(res["cpus"])}


def end_to_end_metrics(res, setups):
    walls = res["walls"]
    q = res["quality"]
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p90": tail(walls),
        "cpu_s.p90": tail(res["cpus"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "success_ratio": 1.0 - res["failed"] / res["attempted"],
        "quality.mse": q["mse"],
        "quality.r_value": q["r_value"],
        "quality.max_div_pct": q["max_div_pct"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(res):
    values = dict(res["layers"])
    traced, untraced = res["traced_walls"], res["walls"]
    values["trace.op_s.p50"] = statistics.median(traced) if traced else 0.0
    values["trace.untraced_op_s.p50"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = (
        values["trace.op_s.p50"] / values["trace.untraced_op_s.p50"] - 1.0
        if traced else 0.0)
    points = [p for extra in res["extras"] for p in extra.get("point_s", ())]
    values["sweep.points"] = len(points) / len(untraced) if points else 0.0
    values["sweep.point_s.p50"] = statistics.median(points) if points else 0.0
    values["sweep.worker_busy_ratio"] = (
        sum(points) / (SWEEP_JOBS * sum(untraced)) if points else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def bench(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "narxlm", "__init__.py")):
        raise BenchError(f"no narxlm sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(STATE, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ)
    if args.blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            fixture = WORKLOADS[args.workload].make_fixture(workdir, args.seed)
        spec = {
            "root": ROOT, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "fixture": fixture,
            "workdir": workdir, "result": os.path.join(workdir, "result.json"),
            "spec_path": os.path.join(workdir, "spec.json"),
            "recorded_quality": recorded_quality(args.workload, args.seed),
        }
        with open(spec["spec_path"], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setups = [run_worker(spec, "setup", env, deadline, k)["setup_s"]
                  for k in range(1, SETUP_RUNS[args.workload])]
        res = run_worker(spec, "run", env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, blas_threads=args.blas_threads)
    metrics = per_layer_metrics(res) if args.trace else end_to_end_metrics(res, setups)
    res["metrics"] = metrics
    res["ungated"] = ungated(res)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    out = os.path.join(STATE, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    env_block = res["env"]
    print(f"# workload={args.workload} seed={args.seed} ops={len(res['walls'])} "
          f"traced_ops={len(res['traced_walls'])} setups={len(setups)} "
          f"python={env_block['python']} numpy={env_block['numpy']} "
          f"scipy={env_block['scipy']} threads_env={env_block['threads_env']} "
          f"cpus={env_block['cpu_count']} affinity={env_block['affinity']}")
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    for mismatch in res.get("reference_mismatch", ()):
        print(f"# REFERENCE MISMATCH {mismatch}")
    print("# ungated " + " ".join(f"{k}={v:.6g}" for k, v in res["ungated"].items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"# full result: {os.path.relpath(out, ROOT)}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="set OPENBLAS_NUM_THREADS for the workload "
                             "(contrast runs only; gated runs leave it unset)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so run_worker's cleanup stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.blas_threads is not None and not 1 <= args.blas_threads <= 64:
        parser.error("--blas-threads must lie in 1..64")
    try:
        line = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
