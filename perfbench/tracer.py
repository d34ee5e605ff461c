"""Span tracer that wraps narxlm's public functions from outside the package.

``Tracer.install()`` replaces every binding of a traced function (the home
module and every ``from .x import f`` copy in other narxlm modules) with a
wrapper that records a span; ``Tracer.restore()`` puts every original back.
Nothing in ``src/narxlm`` is changed, and an untraced run never constructs a
tracer.

A span is ``(op, pid, span_id, parent_id, name, start, end, error, info)``.
Spans stay in memory.  Forked worker processes (the sweep's process pool)
inherit the wrappers; each child appends its finished top-level spans to a
JSON-lines spool file that the parent reads back after the op.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

# narxlm modules whose public functions get a span, named "<module>.<function>".
TRACED_MODULES = ("data", "pipeline", "training", "network", "diagnostics",
                  "sweep", "cli")
# cli contributes only its entry point: argument parsing, output formatting,
# atomic writes and the manifest are cli.main's self time.
ONLY = {"cli": ("main",)}
# Per-row and per-lag helpers: a wrapper there costs as much as the call.
SKIP = {"data.parse_date", "diagnostics.confidence_bound"}
# Methods that carry a layer's work: (module, class, method, span name).
METHODS = (
    ("network", "NarxNetwork", "from_flat", "network.from_flat"),
    ("network", "ClosedLoopNarx", "simulate", "network.simulate"),
)
# The factor and solve of the LM step, today scipy's Cholesky; the numpy
# routines that could replace it are wrapped too.  Span names "linalg.<fn>".
LINALG = (
    ("scipy.linalg", ("cho_factor", "cho_solve", "cholesky", "solve",
                      "solve_triangular")),
    ("numpy.linalg", ("cholesky", "solve")),
)
LAYERS = TRACED_MODULES + ("linalg",)


def _shape_of(value):
    return tuple(getattr(value, "shape", ()) or ())


def _lm_step_info(args, kwargs, result):
    S, P = _shape_of(args[0] if args else kwargs["J"])
    return {"S": S, "P": P}


def _jacobian_info(args, kwargs, result):
    S, P = _shape_of(result[0])
    return {"S": S, "P": P}


def _train_info(args, kwargs, result):
    return {"epochs": len(result.records), "stop": result.stop_reason}


def _simulate_info(args, kwargs, result):
    return {"steps": len(result)}


OBSERVERS = {
    "training.lm_step": _lm_step_info,
    "network.jacobian": _jacobian_info,
    "training.train": _train_info,
    "network.simulate": _simulate_info,
}


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = str(spool_dir)
        self.spans = []
        self.op = None
        self._pid = os.getpid()
        self._owner = self._pid
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- patching -----------------------------------------------------------

    def _targets(self):
        """{id(original): (original, span name)} for every traced callable."""
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"narxlm.{short}")
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr in ONLY.get(short, (attr,))
                        and name not in SKIP):
                    targets[id(value)] = (value, name)
        for modname, attrs in LINALG:
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    targets[id(fn)] = (fn, f"linalg.{attr}")
        return targets

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "narxlm" or n.startswith("narxlm."))]
        namespaces += [importlib.import_module(m) for m, _ in LINALG]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"narxlm.{modname}"), clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(cls, meth, new)
            self._patched.append((cls, meth, raw))

    def restore(self):
        for obj, attr, value in reversed(self._patched):
            setattr(obj, attr, value)
        self._patched.clear()

    def patched_attributes(self):
        """[(owner, attribute, original)] currently replaced by wrappers."""
        return list(self._patched)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, observe, fn, args, kwargs)

        return traced

    def _call(self, name, observe, fn, args, kwargs):
        if os.getpid() != self._pid:
            # first span in a forked child: the inherited stack and spans
            # belong to the parent
            self._pid = os.getpid()
            self._stack = []
            self.spans = []
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        error = None
        info = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                info = observe(args, kwargs, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, self._pid, span_id, parent, name,
                               start, end, error, info))
            if not self._stack and self._pid != self._owner:
                self._flush_child()

    def _flush_child(self):
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_children(self):
        """Move spans spooled by forked children into ``self.spans``."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            os.unlink(path)


# -- per-layer summary --------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(spans, owner_pid, op_walls):
    """Per-op layer metrics from the spans of ``len(op_walls)`` traced ops.

    Times and counts are per-op means over the traced ops, so the layer self
    times add up to the mean traced op wall time.  Self time is a span's
    duration minus the durations of its direct children in the same process.
    Spans from forked children (the sweep workers) count towards the named
    layer metrics but not towards the ``layer.*`` table, which covers the
    benchmark process's wall time only.
    """
    n = max(len(op_walls), 1)
    by_key = {(s[1], s[2]): s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_time[(s[1], s[3])] += s[6] - s[5]

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    durations = defaultdict(list)
    failures = defaultdict(int)
    root_total = 0.0
    epochs = accepted = objective_evals = sim_steps = 0
    flops = jac_bytes = 0.0
    for s in spans:
        op, pid, sid, parent, name, start, end, error, info = s
        dur = end - start
        own = dur - child_time[(pid, sid)]
        calls[name] += 1
        total[name] += dur
        self_s[name] += own
        durations[name].append(dur)
        if error is not None:
            failures[name] += 1
        if pid == owner_pid:
            layer_self[name.split(".", 1)[0]] += own
            if parent is None:
                root_total += dur
        if name == "training.lm_step" and info:
            S, P = info["S"], info["P"]
            flops += 2 * S * P * P + 2 * S * P + P ** 3 / 3 + 2 * P * P
        elif name == "network.jacobian" and info:
            jac_bytes += info["S"] * info["P"] * 8
        elif name == "training.train" and info:
            epochs += info["epochs"]
            accepted += info["epochs"] - (1 if info["stop"] == "mu-max" else 0)
        elif name == "network.simulate" and info:
            sim_steps += info["steps"]
        elif name == "training.msereg" and parent is not None:
            up = by_key.get((pid, parent))
            if up is not None and up[4] == "training.train":
                objective_evals += 1

    lm_calls = calls["training.lm_step"]
    factor = sum(v for k, v in total.items() if k.startswith("linalg."))
    mean_wall = sum(op_walls) / n
    metrics = {
        "training.lm_step.calls": lm_calls / n,
        "training.lm_step.self_s": self_s["training.lm_step"] / n,
        "training.factor_solve.s": factor / n,
        "training.lm_step.failures": failures["training.lm_step"] / n,
        "training.lm_step.gflop": flops / 1e9 / n,
        "training.epochs": epochs / n,
        "training.steps_per_epoch": lm_calls / epochs if epochs else 0.0,
        "training.step_accept_ratio": accepted / lm_calls if lm_calls else 0.0,
        "training.train.calls": calls["training.train"] / n,
        "training.restart_s.p50": _median(durations["training.train"]),
        "training.objective_evals": objective_evals / n,
        "network.jacobian.calls": calls["network.jacobian"] / n,
        "network.jacobian.s": total["network.jacobian"] / n,
        "network.jacobian.mb": jac_bytes / 1e6 / n,
        "network.forward_open.calls": calls["network.forward_open"] / n,
        "network.forward_open.s": total["network.forward_open"] / n,
        "network.from_flat.calls": calls["network.from_flat"] / n,
        "network.from_flat.s": total["network.from_flat"] / n,
        "network.simulate.steps": sim_steps / n,
        "network.simulate.s": total["network.simulate"] / n,
        "network.simulate.us_per_step":
            total["network.simulate"] / sim_steps * 1e6 if sim_steps else 0.0,
        "diagnostics.diagnose.calls": calls["diagnostics.diagnose"] / n,
        "diagnostics.diagnose.s": total["diagnostics.diagnose"] / n,
        "data.load_ohlcv.s": total["data.load_ohlcv"] / n,
        "data.prepare_delayed.s": total["data.prepare_delayed"] / n,
        "pipeline.prepare.s": total["pipeline.prepare"] / n,
        "cli.main.self_s": self_s["cli.main"] / n,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_self[layer] / n
    metrics["layer.bench.self_s"] = (sum(op_walls) - root_total) / n
    metrics["trace.op_s.mean"] = mean_wall
    metrics["trace.spans_per_op"] = len(spans) / n
    return metrics
