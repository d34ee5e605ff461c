"""The benchmark's workloads: inputs, one operation, its outputs and quality.

Every input comes from ``narxlm.synth.synthetic_ohlcv_frame`` with frame seed
``FRAME_SEED``; the workload seed picks narxlm training seeds.  The series is
fixed because the work of a fit depends on it far more than on anything a run
can average: across series a 10-restart fit needs from ~120 to ~1800 LM
epochs, across training seeds on this series 117 to 149.  See README.md for
what the seed changes in each workload.

A workload object lives in the worker interpreter.  ``op(i)`` is the timed
call on input ``i % cycle``; ``outputs(i, result)`` reads what the op
produced (untimed) and returns ``{"digest", "quality", "extra"}``.  Two ops
on the same input must give equal digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics

FRAME_SEED = 16
NOISE_STD = 0.01
TRAIN_ROWS = 1065       # INTC-sized: 2010-01-01 .. 2014-03-31 daily rows
SCORE_ROWS = 5000
FORECAST_HORIZON = 60
SCORE_HORIZON = 250
SWEEP_JOBS = 2
TRAIN_INPUTS = 6        # training seeds per train run, so a run's median op
                        # spans several epoch counts; 11 timed ops visit each
                        # input twice
SWEEP_SEED = 42         # narxlm's default --seed

# keys whose values change from run to run by design
VOLATILE_KEYS = ("timestamp", "wall_time")


def narxlm_seeds(seed: int, count: int = 1) -> list:
    """Training seeds for a workload seed.  Restart i of a fit uses seed + i,
    so seeds 10 apart, and 1000 per workload seed, never share a restart."""
    return [1000 * seed + 10 * k for k in range(count)]


def write_csv(path, rows: int, shuffle_seed=None):
    """Write the synthetic series as a CSV, rows in date order or shuffled
    (``load_ohlcv`` sorts by date, so the loaded frame is the same)."""
    import numpy as np
    from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame
    frame, _ = synthetic_ohlcv_frame(rows, seed=FRAME_SEED, noise_std=NOISE_STD)
    frame_to_csv(frame, path)
    if shuffle_seed is not None:
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        order = np.random.default_rng(shuffle_seed).permutation(len(lines))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header] + [lines[k] for k in order]) + "\n")
    return str(path)


def pool_quality(qualities: list, worst_div: bool) -> dict:
    """Quality over several inputs: mean MSE (for equal-length forecasts the
    pooled MSE), median R, and the worst or the median divergence."""
    divs = [q["max_div_pct"] for q in qualities]
    return {"mse": statistics.fmean(q["mse"] for q in qualities),
            "r_value": statistics.median(q["r_value"] for q in qualities),
            "max_div_pct": max(divs) if worst_div else statistics.median(divs)}


def _drop_volatile(doc):
    if isinstance(doc, dict):
        return {k: _drop_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [_drop_volatile(v) for v in doc]
    return doc


def _read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",", len(header) - 1) for line in lines[1:]]


def snapshot(out_dir) -> dict:
    """{file name: sha256} of an output directory, volatile fields removed."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".json"):
            text = json.dumps(_drop_volatile(json.loads(text)), sort_keys=True)
        elif name == "sweep.csv":
            header, rows = _read_csv_rows(path)
            keep = [i for i, h in enumerate(header) if h not in VOLATILE_KEYS]
            text = "\n".join(",".join(r[i] for i in keep) for r in [header] + rows)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _load_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _diag_quality(diag: dict) -> dict:
    return {"mse": diag["mse"], "r_value": diag["r_value"],
            "max_div_pct": diag["max_divergence_pct"]}


class CliWorkload:
    """Ops that call ``narxlm.cli.main`` and write into ``workdir/out``."""

    # allowed exit codes per command; the warm-up's code becomes the reference
    exits = {"train": (0,), "sweep": (0,), "eval": (0, 7), "simulate": (0,)}
    cycle = 1
    min_ops = 1

    def __init__(self, fixture: dict, workdir: str):
        from narxlm import cli
        self.cli = cli
        self.fixture = fixture
        self.workdir = workdir

    def commands(self, i):
        """[(command name, argv, output dir)] run in order by op ``i``."""
        raise NotImplementedError

    def before(self, i):
        for _, _, out in self.commands(i):
            shutil.rmtree(out, ignore_errors=True)

    def op(self, i):
        return [self.cli.main(argv) for _, argv, _ in self.commands(i)]

    def outputs(self, i, codes) -> dict:
        digest = {}
        for (name, _, out), code in zip(self.commands(i), codes):
            digest[name] = {"exit": code,
                            "files": snapshot(out) if os.path.isdir(out) else {}}
        out = self.commands(i)[0][2]
        return {"digest": digest, "quality": self.quality(out), "extra": self.extra(out)}

    def pool(self, qualities: list) -> dict:
        """The run's quality from the quality of each input."""
        return qualities[0]

    def finish(self, quality: dict) -> dict:
        """Quality after the timed loop; a hook for untimed follow-up work."""
        return quality

    def allowed(self, digest) -> list:
        return [f"{name} exited {d['exit']}, expected one of {self.exits[name]}"
                for name, d in digest.items() if d["exit"] not in self.exits[name]]

    def extra(self, out) -> dict:
        return {}


class Train(CliWorkload):
    """``narxlm train`` with the paper's configuration (P = 243 weights).

    Input k of the run is training seed ``narxlm_seeds(seed)[k]``.
    """

    name = "train"
    cycle = TRAIN_INPUTS
    min_ops = TRAIN_INPUTS

    def commands(self, i):
        out = os.path.join(self.workdir, "out")
        seed = self.fixture["narxlm_seeds"][i % self.cycle]
        return [("train", ["train", "--csv", self.fixture["csv"], "--out", out,
                           "--input-delays", "0:1", "--feedback-delays", "1",
                           "--neurons", "22", "--restarts", "10",
                           "--seed", str(seed)], out)]

    def pool(self, qualities):
        return pool_quality(qualities, worst_div=False)

    def quality(self, out):
        report = _load_json(out, "train_report.json")
        diag = _load_json(out, "diagnostics.json")
        return {"mse": report["best_test_mse"], "r_value": diag["r_value"],
                "max_div_pct": diag["max_divergence_pct"]}

    @staticmethod
    def make_fixture(workdir, seed):
        return {"csv": write_csv(os.path.join(workdir, "train.csv"), TRAIN_ROWS),
                "narxlm_seeds": narxlm_seeds(seed, TRAIN_INPUTS)}


class Sweep(CliWorkload):
    """``narxlm sweep`` over P = 111, 231, 243 and 507 in two processes.

    The training seed is fixed: with 3 restarts per point the op time moves
    from 5 s to 14 s between training seeds.  The workload seed only shuffles
    the CSV rows.  The chosen row carries no divergence, so after the timed
    loop the chosen configuration is trained once more with ``narxlm train``
    (same seed and restarts, about 8 s) and that run's divergence is
    reported.
    """

    name = "sweep"

    def commands(self, i):
        out = os.path.join(self.workdir, "out")
        return [("sweep", ["sweep", "--csv", self.fixture["csv"], "--out", out,
                           "--input-delays", "0:1,0:4", "--feedback-delays", "1",
                           "--neurons", "10,22", "--restarts", "3",
                           "--jobs", str(SWEEP_JOBS), "--seed", str(SWEEP_SEED)], out)]

    def _chosen_row(self, out):
        chosen = _load_json(out, "chosen_config.json")
        for row in _load_json(out, "sweep.json"):
            if (row["d_u"], row["d_y"], row["n_hidden"]) == (
                    chosen["input_delays"], chosen["feedback_delays"], chosen["neurons"]):
                return row
        raise ValueError("chosen configuration is not a row of sweep.json")

    def quality(self, out):
        row = self._chosen_row(out)
        return {"mse": row["mse"], "r_value": row["r_value"]}

    def extra(self, out):
        return {"point_s": [row["wall_time"] for row in _load_json(out, "sweep.json")]}

    def finish(self, quality):
        row = self._chosen_row(self.commands(0)[0][2])
        check = os.path.join(self.workdir, "chosen")
        code = self.cli.main([
            "train", "--csv", self.fixture["csv"], "--out", check,
            # the grid's lag sets are contiguous ranges
            "--input-delays", f"{min(row['d_u'])}:{max(row['d_u'])}",
            "--feedback-delays", f"{min(row['d_y'])}:{max(row['d_y'])}",
            "--neurons", str(row["n_hidden"]), "--restarts", "3",
            "--seed", str(SWEEP_SEED)])
        if code != 0:
            raise RuntimeError(f"training the chosen configuration exited {code}")
        diag = _load_json(check, "diagnostics.json")
        return dict(quality, max_div_pct=diag["max_divergence_pct"])

    @staticmethod
    def make_fixture(workdir, seed):
        return {"csv": write_csv(os.path.join(workdir, "train.csv"), TRAIN_ROWS,
                                 shuffle_seed=seed)}


class CliScore(CliWorkload):
    name = "cli_score"

    def commands(self, i):
        csv, model = self.fixture["csv"], self.fixture["model"]
        out_eval = os.path.join(self.workdir, "out_eval")
        out_sim = os.path.join(self.workdir, "out_sim")
        return [("eval", ["eval", "--csv", csv, "--model", model, "--out", out_eval],
                 out_eval),
                ("simulate", ["simulate", "--csv", csv, "--model", model,
                              "--horizon", str(SCORE_HORIZON), "--out", out_sim],
                 out_sim)]

    def quality(self, out):
        return _diag_quality(_load_json(out, "diagnostics.json"))

    @staticmethod
    def make_fixture(workdir, seed):
        from narxlm import cli
        csv = write_csv(os.path.join(workdir, "score.csv"), SCORE_ROWS)
        model_dir = os.path.join(workdir, "model")
        code = cli.main(["train", "--csv", csv, "--out", model_dir,
                         "--seed", str(narxlm_seeds(seed)[0])])
        if code != 0:
            raise RuntimeError(f"fixture training exited {code}")
        return {"csv": csv, "model": os.path.join(model_dir, "model.json")}


class Forecast:
    """Rolling-origin closed-loop evaluation through the pipeline API.

    Op i is origin ``origins[i % len(origins)]``: every frame row of the
    validation and test blocks from which a full horizon fits.
    """

    name = "forecast"

    def __init__(self, fixture: dict, workdir: str):
        from narxlm import data, pipeline
        from narxlm.network import NarxNetwork
        self.pipeline = pipeline
        with open(fixture["model"], encoding="utf-8") as fh:
            self.net = NarxNetwork.from_dict(json.load(fh))
        frame = data.load_ohlcv(fixture["csv"])
        c = self.net.config
        self.prep = pipeline.prepare(frame, c.d_u, c.d_y)
        first = self.prep.dataset.first_usable_index
        samples = list(self.prep.splits[1]) + list(self.prep.splits[2])
        self.origins = [first + int(k) for k in samples
                        if first + k + FORECAST_HORIZON <= len(frame)]
        self.cycle = len(self.origins)
        self.min_ops = self.cycle

    def before(self, i):
        pass

    def op(self, i):
        origin = self.origins[i % self.cycle]
        _, preds, targs = self.pipeline.simulate(self.net, self.prep, origin,
                                                 FORECAST_HORIZON)
        diag = self.pipeline.simulate_diagnostics(preds, targs, self.prep, origin)
        return preds, targs, diag

    def outputs(self, i, result) -> dict:
        preds, _, diag = result
        quality = _diag_quality(diag.to_dict())
        digest = {"origin": self.origins[i % self.cycle],
                  "preds": hashlib.sha256(preds.tobytes()).hexdigest(),
                  "diagnostics": quality, "accepted": diag.accepted}
        return {"digest": digest, "quality": quality, "extra": {}}

    def allowed(self, digest) -> list:
        return []

    def pool(self, qualities):
        return pool_quality(qualities, worst_div=True)

    def finish(self, quality: dict) -> dict:
        return quality

    @staticmethod
    def make_fixture(workdir, seed):
        from narxlm import data, pipeline
        from narxlm.training import TrainParams
        csv = write_csv(os.path.join(workdir, "train.csv"), TRAIN_ROWS)
        prep = pipeline.prepare(data.load_ohlcv(csv), (0, 1), (1,))
        report = pipeline.fit(prep, 22, TrainParams(), narxlm_seeds(seed)[0])
        model = os.path.join(workdir, "forecast_model.json")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(report.network.to_json())
        return {"csv": csv, "model": model}


WORKLOADS = {w.name: w for w in (Train, Sweep, Forecast, CliScore)}
