"""Tests of the benchmark itself: tracing hygiene, failure counting, seeds.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LINALG, TRACED_MODULES, Tracer  # noqa: E402

NARXLM_MODULES = ["narxlm"] + [f"narxlm.{m}" for m in TRACED_MODULES]


def namespace_snapshot():
    """{(owner name, attribute): value} over everything the tracer may patch."""
    from narxlm.network import ClosedLoopNarx, NarxNetwork
    snap = {}
    owners = [importlib.import_module(m) for m in NARXLM_MODULES]
    owners += [importlib.import_module(m) for m, _ in LINALG]
    for mod in owners:
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
    for cls in (NarxNetwork, ClosedLoopNarx):
        for attr, value in vars(cls).items():
            snap[(cls.__name__, attr)] = value
    return snap


@pytest.fixture(scope="module")
def small_train(tmp_path_factory):
    """A Train workload on a 200-row series with one short fit per input."""
    workdir = str(tmp_path_factory.mktemp("train"))
    fixture = {"csv": workloads.write_csv(os.path.join(workdir, "t.csv"), 200),
               "narxlm_seeds": workloads.narxlm_seeds(5, 2)}

    class SmallTrain(workloads.Train):
        cycle = 2
        min_ops = 2

        def commands(self, i):
            (name, argv, out), = super().commands(i)
            return [(name, argv + ["--neurons", "4", "--restarts", "1",
                                   "--epochs", "15"], out)]

    return SmallTrain(fixture, workdir)


def test_untraced_run_installs_no_wrapper(small_train):
    before = namespace_snapshot()
    seen = []
    original_op = small_train.op

    def op(i):
        assert namespace_snapshot() == before
        seen.append(i)
        return original_op(i)

    small_train.op = op
    try:
        m = worker.Measurement(small_train, tracer=None)
        m.warm_up()
        m.run(0.0)
    finally:
        del small_train.op
    assert seen == [0, 1, 2]
    assert m.failed == 0 and m.attempted == 2
    assert namespace_snapshot() == before


def test_traced_run_restores_every_patched_attribute(small_train, tmp_path):
    before = namespace_snapshot()
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        patched = {(getattr(o, "__name__", o), a) for o, a, _ in tracer.patched_attributes()}
        assert ("narxlm.cli", "main") in patched
        assert ("narxlm.training", "lm_step") in patched
        assert ("narxlm.pipeline", "load_ohlcv") not in patched  # not bound there
        assert ("narxlm.cli", "load_ohlcv") in patched           # re-bound copy
        assert ("scipy.linalg", "cho_factor") in patched
        assert ("NarxNetwork", "from_flat") in patched
        from narxlm import cli
        assert hasattr(cli.main, "__wrapped__")
    finally:
        tracer.restore()
    assert not tracer.patched_attributes()
    assert namespace_snapshot() == before

    m = worker.Measurement(small_train, tracer=Tracer(str(tmp_path)))
    m.warm_up()
    m.run(0.0, trace=True)
    assert m.failed == 0 and len(m.traced) == 2 and len(m.walls) == 2
    assert namespace_snapshot() == before
    names = {span[4] for span in m.tracer.spans}
    assert {"cli.main", "training.lm_step", "network.jacobian",
            "linalg.cho_factor"} <= names


def test_layer_self_times_add_up_to_op_time(small_train, tmp_path):
    from tracer import summarize
    m = worker.Measurement(small_train, tracer=Tracer(str(tmp_path)))
    m.warm_up()
    m.run(0.0, trace=True)
    layers = summarize(m.tracer.spans, os.getpid(), m.traced)
    total = sum(v for k, v in layers.items() if k.startswith("layer."))
    assert total == pytest.approx(layers["trace.op_s.mean"], rel=1e-9)
    assert layers["layer.bench.self_s"] < 0.05 * layers["trace.op_s.mean"]
    assert layers["training.train.calls"] == 1
    assert layers["training.lm_step.calls"] >= layers["training.epochs"] > 0


def _perturbed_run(workload, perturb_at, perturb):
    original_op = workload.op

    def op(i):
        result = original_op(i)
        return perturb(i, result) if i == perturb_at else result

    workload.op = op
    try:
        m = worker.Measurement(workload)
        m.warm_up()
        m.run(0.0)
    finally:
        del workload.op
    return m


def test_changed_model_weight_counts_as_failure(small_train):
    def change_weight(i, codes):
        path = os.path.join(small_train.workdir, "out", "model.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["weights"][0] = repr(float(doc["weights"][0]) + 1e-9)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return codes

    m = _perturbed_run(small_train, 2, change_weight)
    assert (m.attempted, m.failed) == (2, 1)
    assert "differ from the reference" in m.problems[0]


def test_wrong_exit_code_counts_as_failure(small_train):
    m = _perturbed_run(small_train, 2, lambda i, codes: [5])
    assert (m.attempted, m.failed) == (2, 1)
    assert "exited 5" in m.problems[0]


def test_raising_op_counts_as_failure(small_train):
    def boom(i, codes):
        raise OSError("disk full")

    m = _perturbed_run(small_train, 1, boom)
    assert (m.attempted, m.failed) == (2, 1)


def test_recorded_quality_mismatch_is_reported():
    assert worker.compare_quality({"mse": 1.0}, {"mse": 1.0}) == []
    assert worker.compare_quality({"mse": 1.0}, {"mse": 1.1})


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_unrecorded_seed_runs_clean():
    with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    seed = 987
    assert str(seed) not in recorded.get("cli_score", {})
    proc = _bench(["--workload", "cli_score", "--seed", str(seed),
                   "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {name for name, _ in run.END_TO_END}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(["--workload", "train", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
