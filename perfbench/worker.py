"""One workload in a fresh interpreter: set-up, warm-up, timed ops, checks.

Usage: python3 worker.py SPEC.json run
       python3 worker.py SPEC.json setup INPUT

SPEC names the checkout root, workload, fixture, run length, trace flag and
the file to write the result to.  ``setup`` warms up on input INPUT, stops
and reports only the set-up time; ``run`` warms up on input 0 and goes on to
time ops back to back (a closed loop with one client) for the requested
seconds.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Recorded quality must match to this relative tolerance.  A mismatch is
# reported, not counted as failed ops: a change that only reorders floating
# point sums can move an LM fit further than this.
REL_TOL = 1e-9


def import_narxlm(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import narxlm
    if not os.path.abspath(narxlm.__file__).startswith(src + os.sep):
        raise RuntimeError(f"narxlm imported from {narxlm.__file__}, not from {src}")
    return narxlm


def environment(root) -> dict:
    import platform

    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        return {kind: {"name": deps.get(kind, {}).get("name"),
                       "version": deps.get(kind, {}).get("version"),
                       "configuration": deps.get(kind, {}).get("openblas configuration")}
                for kind in ("blas", "lapack")}

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or f"unknown: {proc.stderr.strip()}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def _cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_quality(measured: dict, recorded: dict) -> list:
    return [f"quality.{k} = {measured.get(k)!r}, recorded reference {v!r}"
            for k, v in recorded.items()
            if k not in measured or not _close(measured[k], v)]


class Measurement:
    """The timed loop over ``workload``; per-op outputs are checked as they come.

    The first result for each distinct input (for input 0, the warm-up) is
    the reference that later ops on that input must reproduce exactly.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.references = {}
        self.first_pass = {}
        self.walls, self.cpus, self.traced = [], [], []
        self.extras = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _run_one(self, i, traced):
        w = self.workload
        w.before(i)
        if traced:
            self.tracer.op = i
            self.tracer.install()
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = w.op(i)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        t1 = time.perf_counter()
        c1 = _cpu_seconds()
        if traced:
            self.tracer.restore()
            self.tracer.collect_children()
        return result, t1 - t0, c1 - c0

    def check(self, i, result):
        """(problems, outputs) of op ``i``; no problems when it is correct."""
        w = self.workload
        if isinstance(result, Exception):
            return [f"op raised {type(result).__name__}: {result}"], None
        try:
            out = w.outputs(i, result)
        except (OSError, ValueError, KeyError) as exc:
            return [f"outputs unreadable: {type(exc).__name__}: {exc}"], None
        problems = w.allowed(out["digest"])
        key = i % w.cycle
        ref = self.references.setdefault(key, out)
        if out["digest"] != ref["digest"]:
            problems.append(f"outputs differ from the reference for input {key}")
        if not problems:
            self.first_pass.setdefault(key, out)
        return problems, out

    def warm_up(self, i=0):
        result, wall, _ = self._run_one(i, False)
        problems, _ = self.check(i, result)
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems}")
        return wall

    def run(self, seconds, trace=False, expected_wall=0.0):
        """Time ops back to back; start one only while it should end within
        ``seconds``, and run at least ``min_ops``.  With ``trace``, passes
        over the inputs alternate untraced and traced, untraced first."""
        w = self.workload
        min_ops = max(w.min_ops, 2 * w.cycle) if trace else w.min_ops
        start = time.perf_counter()
        i = 1
        while (time.perf_counter() - start + expected_wall <= seconds
               or self.attempted < min_ops):
            traced = trace and ((i - 1) // w.cycle) % 2 == 1
            result, wall, cpu = self._run_one(i, traced)
            problems, out = self.check(i, result)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"op {i}: {p}" for p in problems)
            if traced:
                self.traced.append(wall)
            else:
                self.walls.append(wall)
                self.cpus.append(cpu)
                if out is not None:
                    self.extras.append(out["extra"])
            done = self.walls + self.traced
            expected_wall = sum(done) / len(done)
            i += 1

    def quality(self):
        return self.workload.pool([self.first_pass[k]["quality"]
                                   for k in sorted(self.first_pass)])


def main(spec_path, mode, warm_input=0):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    root = spec["root"]
    import_narxlm(root)
    import_s = time.perf_counter() - T0

    workload = WORKLOADS[spec["workload"]](spec["fixture"], spec["workdir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["workdir"])
    m = Measurement(workload, tracer)
    warm_wall = m.warm_up(warm_input)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "import_s": import_s}
    if mode == "run":
        m.run(spec["seconds"], trace=bool(spec["trace"]), expected_wall=warm_wall)
        self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        quality = workload.finish(m.quality())
        recorded = spec.get("recorded_quality")
        if recorded:
            result["reference_mismatch"] = compare_quality(quality, recorded)
        result.update({
            "walls": m.walls, "cpus": m.cpus, "traced_walls": m.traced,
            "attempted": m.attempted, "failed": m.failed,
            "problems": m.problems[:20], "quality": quality,
            "extras": m.extras,
            "peak_rss_mb": (self_ru + child_ru) / 1024.0,
            "env": environment(root),
        })
        if tracer is not None:
            from tracer import summarize
            result["layers"] = summarize(tracer.spans, os.getpid(), m.traced)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], *map(int, sys.argv[3:]))
