import argparse
import contextlib
import csv
import dataclasses
import datetime
import hashlib
import io
import json
import os
import platform
import re
import stat
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narxlm
from narxlm import cli, pipeline, sweep
from narxlm.errors import DivergedError
from narxlm.network import forward_open
from narxlm.sweep import SweepRow
from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame
from narxlm.training import EpochRecord, msereg

from conftest import outputs

FAST_FLAGS = ["--epochs", "40", "--restarts", "2", "--xi", "1.0",
              "--goal", "1e-9", "--min-grad", "1e-10"]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    frame, _ = synthetic_ohlcv_frame(220, seed=99, noise_std=0.02)
    frame_to_csv(frame, path)
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_csv):
    out = str(tmp_path_factory.mktemp("trained"))
    rc = cli.main(["train", "--csv", data_csv, "--out", out,
                   "--neurons", "5", "--seed", "7", *FAST_FLAGS])
    assert rc == 0
    return out


class TestTrain:
    def test_outputs_written(self, trained_dir):
        for name in (cli.MODEL_FILE, cli.TRAIN_REPORT_FILE, cli.EPOCHS_FILE,
                     cli.DIAGNOSTICS_FILE, cli.MANIFEST_FILE):
            assert os.path.exists(os.path.join(trained_dir, name))

    def test_outputs_leave_the_umask_alone(self, data_csv, tmp_path, monkeypatch):
        # reading the umask means setting it, and a file another thread made
        # in between would take the one set; the writer neither reads nor sets it
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        out = tmp_path / "run"
        assert cli.main(["train", "--csv", data_csv, "--out", str(out),
                         "--neurons", "3", "--seed", "1", *FAST_FLAGS]) == cli.EXIT_OK
        assert sorted(os.listdir(out)) == sorted([
            cli.MODEL_FILE, cli.TRAIN_REPORT_FILE, cli.EPOCHS_FILE, cli.DIAGNOSTICS_FILE,
            cli.MANIFEST_FILE])

    def test_manifest_contents(self, trained_dir, data_csv):
        with open(os.path.join(trained_dir, cli.MANIFEST_FILE)) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "train"
        assert manifest["input_file"] == data_csv
        assert len(manifest["input_sha256"]) == 64
        assert cli.MODEL_FILE in manifest["outputs"]
        assert manifest["parameters"]["seed"] == 7
        # the resolved channels, as --exo-channels and --target-channel take them
        assert manifest["parameters"]["exo_channels"] == "open,high,low,volume"
        assert manifest["parameters"]["target_channel"] == "close"

    def test_stop_reason_recorded(self, trained_dir):
        with open(os.path.join(trained_dir, cli.TRAIN_REPORT_FILE)) as fh:
            report = json.load(fh)
        assert report["stop_reason"] in {"goal-met", "min-grad", "max-fail",
                                         "epochs-exhausted", "mu-max"}
        assert report["best_epoch"] <= report["n_epochs"] - 1

    def test_splits_are_the_datasets_blocks(self, trained_dir, data_csv):
        with open(os.path.join(trained_dir, cli.TRAIN_REPORT_FILE)) as fh:
            report = json.load(fh)
        _, prep = pipeline.load_model(os.path.join(trained_dir, cli.MODEL_FILE),
                                      narxlm.load_ohlcv(data_csv))
        a, b, _ = map(len, prep.dataset.splits)
        n = prep.dataset.n_samples
        assert list(report)[-1] == "splits"
        assert report["splits"] == {"train": [0, a], "val": [a, a + b], "test": [a + b, n]}

    def test_epochs_csv_shape(self, trained_dir):
        lines = open(os.path.join(trained_dir, cli.EPOCHS_FILE)).read().splitlines()
        assert lines[0].startswith("epoch,train_objective")
        assert len(lines) >= 2

    def test_epochs_csv_header_is_the_record_fields(self, trained_dir):
        lines = open(os.path.join(trained_dir, cli.EPOCHS_FILE)).read().splitlines()
        names = [f.name for f in dataclasses.fields(EpochRecord)]
        assert lines[0] == "epoch,train_objective,train_mse,val_mse,test_mse,grad_norm,mu"
        assert lines[0].split(",") == names
        assert all(len(line.split(",")) == len(names) for line in lines[1:])

    def test_malformed_csv_no_partial_model(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Open,High,Low,Close,Volume\n1,zzz,2,0.5,1.5,100\n")
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", str(bad), "--out", str(out),
                       *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert not (out / cli.MODEL_FILE).exists()

    def test_missing_file_io_code(self, tmp_path):
        rc = cli.main(["train", "--csv", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_IO

    def test_determinism_byte_identical(self, data_csv, tmp_path):
        # one seed gives the same files twice, and so do the copy of the CSV
        # with ISO dates and the copy with quoted cells and two blank rows,
        # which load_ohlcv reads as the same frame
        header, *rows = open(data_csv).read().splitlines()
        cells = [row.split(",") for row in rows]
        iso = [",".join([datetime.date.fromordinal(int(day)).isoformat(), *values])
               for day, *values in cells]
        quoted = [",".join([day] + [f'"{v}"' for v in values]) for day, *values in cells]
        quoted[100:100] = [",,,"]
        quoted[10:10] = [""]
        csvs = {"a": data_csv, "b": data_csv}
        for form, lines in (("iso", iso), ("quoted", quoted)):
            csvs[form] = tmp_path / f"{form}.csv"
            csvs[form].write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        for name, csv_path in csvs.items():
            out = tmp_path / name
            csv_path, model = str(csv_path), str(out / "train" / cli.MODEL_FILE)
            assert cli.main(["train", "--csv", csv_path, "--out", str(out / "train"),
                             "--neurons", "3", "--seed", "3",
                             "--epochs", "15", "--restarts", "1", "--xi", "1.0"]) == cli.EXIT_OK
            assert cli.main(["simulate", "--csv", csv_path, "--model", model,
                             "--horizon", "50", "--out", str(out / "sim")]) == cli.EXIT_OK
            assert cli.main(["eval", "--csv", csv_path, "--model", model,
                             "--out", str(out / "eval")]) in (cli.EXIT_OK, cli.EXIT_REJECTED)
        first = outputs(tmp_path / "a")
        assert len(first) == 7
        for name in ("b", "iso", "quoted"):
            assert outputs(tmp_path / name) == first, name
        # the saved model reads back to the text train wrote
        model = tmp_path / "a" / "train" / cli.MODEL_FILE
        assert pipeline.model_json(*pipeline.load_model(model, cli.load_ohlcv(data_csv))) == (
            model.read_text())


class TestDateRange:
    # the CI series' rows run from day 734506 (2012-01-04) to 734725
    FLAGS = ["--neurons", "3", "--seed", "3", "--epochs", "15", "--restarts", "1",
             "--xi", "1.0"]

    @pytest.fixture(scope="class")
    def cut_dir(self, data_csv, tmp_path_factory):
        """A train run on the CSV cut to days 734535 .. 734704."""
        header, *rows = open(data_csv).read().splitlines()
        tmp = tmp_path_factory.mktemp("cut")
        cut = tmp / "cut.csv"
        cut.write_text("\n".join([header] + [r for r in rows
                                             if 734535 <= int(r.split(",")[0]) <= 734704]) + "\n")
        assert cli.main(["train", "--csv", str(cut), "--out", str(tmp / "out"),
                         *self.FLAGS]) == cli.EXIT_OK
        return tmp / "out"

    @pytest.mark.parametrize("ends", [
        ["--from", "734535", "--to", "734704"], ["--from", "2012-02-02", "--to", "734704"],
    ], ids=["day-numbers", "iso-start"])
    def test_range_trains_as_the_cut_file(self, data_csv, cut_dir, tmp_path, ends):
        out = tmp_path / "out"
        assert cli.main(["train", "--csv", data_csv, "--out", str(out), *ends,
                         *self.FLAGS]) == cli.EXIT_OK
        got = outputs(out)
        assert sorted(got) == [cli.DIAGNOSTICS_FILE, cli.EPOCHS_FILE, cli.MODEL_FILE,
                               cli.TRAIN_REPORT_FILE]
        assert got == outputs(cut_dir)

    def test_reversed_ends_exit_4(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", data_csv, "--out", str(out),
                       "--from", "734704", "--to", "734535", *self.FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: date range selects no rows\n"
        assert not out.exists()


class TestAtomicWrite:
    @staticmethod
    def _replace_fails(monkeypatch):
        def replace(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "replace", replace)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        self._replace_fails(monkeypatch)
        with pytest.raises(OSError, match="No space left on device"):
            cli._atomic_write(str(tmp_path / "a.json"), "{}")
        assert os.listdir(tmp_path) == []

    def test_failed_write_exits_3(self, trained_dir, data_csv, tmp_path, monkeypatch, capsys):
        self._replace_fails(monkeypatch)
        out = tmp_path / "out"
        rc = cli.main(["eval", "--csv", data_csv, "--out", str(out),
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE)])
        assert rc == cli.EXIT_IO
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert os.listdir(out) == []


class TestSimulate:
    def test_horizon_rows(self, trained_dir, data_csv, tmp_path):
        out = str(tmp_path / "sim")
        rc = cli.main(["simulate", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--horizon", "100", "--out", out])
        assert rc == 0
        lines = open(os.path.join(out, cli.PREDICTIONS_FILE)).read().splitlines()
        assert lines[0] == "timestep,target,prediction,error"
        assert len(lines) == 101
        with open(os.path.join(out, cli.DIAGNOSTICS_FILE)) as fh:
            diag = json.load(fh)
        assert "mse" in diag and "r_value" in diag

    def test_prediction_cells_round_trip(self, trained_dir, data_csv, tmp_path):
        # every cell is a plain decimal; numpy 2 would write np.float64(...) for a scalar
        model = os.path.join(trained_dir, cli.MODEL_FILE)
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--csv", data_csv, "--model", model,
                       "--horizon", "60", "--out", str(out)])
        assert rc == 0
        header, *rows = (out / cli.PREDICTIONS_FILE).read_text().splitlines()
        cells = np.array([[float(cell) for cell in row.split(",")] for row in rows])

        frame = cli.load_ohlcv(data_csv)
        net, prep = pipeline.load_model(model, frame)
        ts, preds, targs = pipeline.simulate(net, prep, len(frame) - 60, 60)
        # the rollout is normalized; the file holds prices
        preds, targs = (prep.norm_spec.invert_values(v, prep.target_channel)
                        for v in (preds, targs))
        assert np.array_equal(cells[:, 0], ts)
        for col, want in ((1, targs), (2, preds), (3, preds - targs)):
            assert cells[:, col].tobytes() == want.tobytes()

    def test_empty_horizon(self, trained_dir, data_csv, tmp_path, capsys):
        # a forecast of no step has no verdict to write
        out = tmp_path / "sim0"
        rc = cli.main(["simulate", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--horizon", "0", "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --horizon: must be >= 1, got 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_channel_mismatch(self, trained_dir, data_csv, tmp_path):
        with open(os.path.join(trained_dir, cli.MODEL_FILE)) as fh:
            doc = json.load(fh)
        doc["exo_channels"] = doc["exo_channels"][:3]  # 4-channel net, 3 listed
        broken = tmp_path / "broken_model.json"
        broken.write_text(json.dumps(doc))
        rc = cli.main(["simulate", "--csv", data_csv, "--model", str(broken),
                       "--horizon", "5", "--out", str(tmp_path / "simx")])
        assert rc == cli.EXIT_MISMATCH

    @pytest.mark.parametrize("horizon", ["500", "220"])
    def test_horizon_beyond_rows(self, trained_dir, data_csv, tmp_path, capsys,
                                 horizon):
        out = tmp_path / "sim_long"
        rc = cli.main(["simulate", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--horizon", horizon, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"horizon {horizon} exceeds the 219 rows after 1 priming row\n" in err
        assert not out.exists()

    def test_undefined_statistic_leaves_no_directory(self, trained_dir, data_csv,
                                                     tmp_path, capsys):
        # one step has zero variance, so R is undefined
        out = tmp_path / "sim1"
        rc = cli.main(["simulate", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--horizon", "1", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: zero variance: R undefined\n"
        assert not out.exists()

    def test_horizon_of_every_row_after_priming(self, trained_dir, data_csv, tmp_path):
        out = tmp_path / "sim_all"
        rc = cli.main(["simulate", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--horizon", "219", "--out", str(out)])
        assert rc == 0
        assert len((out / cli.PREDICTIONS_FILE).read_text().splitlines()) == 220

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_outputs_honour_the_umask(self, trained_dir, data_csv, tmp_path, umask, mode):
        # the mode open(path, "w") gives a new file, not mkstemp's 0600
        out = tmp_path / "sim"
        saved = os.umask(umask)
        try:
            rc = cli.main(["simulate", "--csv", data_csv, "--horizon", "10", "--out", str(out),
                           "--model", os.path.join(trained_dir, cli.MODEL_FILE)])
        finally:
            os.umask(saved)
        assert rc == 0
        assert {name: stat.S_IMODE((out / name).stat().st_mode) for name in os.listdir(out)} == {
            cli.PREDICTIONS_FILE: mode, cli.DIAGNOSTICS_FILE: mode, cli.MANIFEST_FILE: mode}


class TestEval:
    def test_accepted_model_exit_zero(self, trained_dir, data_csv, tmp_path):
        out = str(tmp_path / "eval")
        rc = cli.main(["eval", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--out", out])
        with open(os.path.join(out, cli.DIAGNOSTICS_FILE)) as fh:
            diag = json.load(fh)
        assert rc == (0 if diag["accepted"] else cli.EXIT_REJECTED)

    def test_reject_code_with_strict_threshold(self, trained_dir, data_csv,
                                               tmp_path):
        out = str(tmp_path / "eval_strict")
        rc = cli.main(["eval", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--r-min", "1.0", "--mse-max", "0",
                       "--out", out])
        assert rc == cli.EXIT_REJECTED
        with open(os.path.join(out, cli.DIAGNOSTICS_FILE)) as fh:
            diag = json.load(fh)
        assert diag["reasons"]


# a model.json as the previous release wrote it: N = 1 on the open channel,
# trained on the data_csv series with --epochs 5 --restarts 1 --seed 1
PRIOR_MODEL = {
    "format_version": 1,
    "config": {"d_u": [0, 1], "d_y": [1], "n_hidden": 1, "n_exo": 1,
               "hidden_transfer": "tanh", "output_transfer": "linear"},
    "weights": ["-0.044790015431015816", "0.15080743517354778",
                "-0.15616838885902068", "0.37076143455594024",
                "-0.23358707927183936", "-0.38577063056218219"],
    "normalization": {"lo": -1.0, "hi": 1.0,
                      "ranges": {"close": [20.0, 22.0],
                                 "open": [20.25612869107284, 21.886334339048442]}},
    "exo_channels": ["open"],
    "target_channel": "close",
}


class TestFixedModelSettings:
    def test_prior_model_loads_and_round_trips(self, data_csv, tmp_path):
        text = json.dumps(PRIOR_MODEL, indent=2)
        model = tmp_path / "model.json"
        model.write_text(text)
        assert pipeline.model_json(*pipeline.load_model(model, cli.load_ohlcv(data_csv))) == text
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_REJECTED
        diag = json.loads((out / cli.DIAGNOSTICS_FILE).read_text())
        # this model's values on this series, exact: the series moved in its
        # last bits when the teacher began to run through ClosedLoopNarx.simulate
        assert (diag["r_value"], diag["mse"]) == (0.2327189186184132, 0.04777211593686506)

    @pytest.mark.parametrize("block,key,value", [
        ("config", "hidden_transfer", "sigmoid"),
        ("config", "output_transfer", "tanh"),
        ("normalization", "lo", 0.0),
        ("normalization", "hi", 2.0),
        ("normalization", "lo", float("nan")),
    ])
    def test_other_fixed_value_exits_4(self, data_csv, tmp_path, capsys, block, key, value):
        doc = json.loads(json.dumps(PRIOR_MODEL))
        doc[block][key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(["eval", "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert f"model {key} {value!r} is not supported" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("path, value, literal", [
        (("format_version",), True, True),
        (("config", "d_u"), [False, True], False),
        (("config", "d_y"), [True], True),
        (("config", "n_hidden"), True, True),
        (("config", "n_exo"), True, True),
        (("normalization", "lo"), False, False),
        (("normalization", "hi"), True, True),
        (("normalization", "ranges", "open", 0), True, True),
        (("weights", 0), True, True),
    ], ids=["format_version", "d_u", "d_y", "n_hidden", "n_exo", "lo", "hi", "range-bound",
            "weight"])
    def test_boolean_is_not_a_number(self, data_csv, tmp_path, capsys, command, path, value,
                                     literal):
        # Python reads a JSON true as 1, which every one of these keys would accept
        doc = json.loads(json.dumps(PRIOR_MODEL))
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: malformed model document: ValueError {literal!r} is not a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("path, value", [
        (("weights",), "123456"),
        (("normalization", "ranges", "open"), "12"),
        (("normalization", "ranges", "open"), {"1": 0, "2": 0}),
    ], ids=["weights-string", "range-string", "range-object"])
    def test_string_or_object_is_not_a_list(self, data_csv, tmp_path, capsys, command, path,
                                            value):
        # read one character or one key at a time, each would pass for a
        # number: six weights for this network, or the range (1, 2)
        doc = json.loads(json.dumps(PRIOR_MODEL))
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: malformed model document: TypeError {value!r} is not a list\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("key,lags,message", [
        ("d_u", [0, 0], "input lags repeat a lag: 0,0"),
        ("d_y", [1, 1], "feedback lags repeat a lag: 1,1"),
    ])
    def test_repeated_lag_exits_4(self, data_csv, tmp_path, capsys, command, key, lags,
                                  message):
        doc = json.loads(json.dumps(PRIOR_MODEL))
        doc["config"][key] = lags
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_msereg_is_the_training_objective_or_null(data_csv, tmp_path):
    # at the default xi the objective is not the MSE; eval and simulate have none
    run = tmp_path / "run"
    assert cli.main(["train", "--csv", data_csv, "--out", str(run), "--neurons", "4",
                     "--epochs", "20", "--restarts", "1", "--seed", "3"]) == cli.EXIT_OK
    model = str(run / cli.MODEL_FILE)
    net, prep = pipeline.load_model(model, cli.load_ohlcv(data_csv))
    err = forward_open(net, prep.dataset) - prep.dataset.T
    diag = json.loads((run / cli.DIAGNOSTICS_FILE).read_text())
    assert diag["msereg"] == msereg(err, net.theta, narxlm.TrainParams().xi,
                                    penalized=net.config.penalized)
    assert diag["msereg"] != diag["mse"]
    for command, flags in (("eval", []), ("simulate", ["--horizon", "60"])):
        out = tmp_path / command
        rc = cli.main([command, "--csv", data_csv, "--model", model, "--out", str(out), *flags])
        assert rc in (cli.EXIT_OK, cli.EXIT_REJECTED)
        assert json.loads((out / cli.DIAGNOSTICS_FILE).read_text())["msereg"] is None


MANIFEST_KEYS = {"command", "parameters", "input_file", "input_sha256",
                 "tool_version", "timestamp", "outputs", "environment"}


class TestManifestDigest:
    @pytest.mark.parametrize("command, step, flags", [
        ("train", "fit", ["--neurons", "2", "--epochs", "3", "--restarts", "1"]),
        ("sweep", "run_sweep", ["--neurons", "2", "--epochs", "3", "--restarts", "1"]),
        ("eval", "evaluate_open", ["--model"]),
        ("simulate", "simulate", ["--horizon", "5", "--model"]),
    ])
    def test_digest_of_the_parsed_bytes(self, trained_dir, data_csv, tmp_path,
                                        monkeypatch, command, step, flags):
        # the CSV is rewritten while the command computes its results
        csv = tmp_path / "input.csv"
        with open(data_csv, "rb") as fh:
            original = fh.read()
        csv.write_bytes(original)
        real = getattr(cli, step)

        def rewrite_then_run(*args, **kwargs):
            csv.write_bytes(original.replace(b"\n", b"\r\n"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, step, rewrite_then_run)
        if flags[-1] == "--model":
            flags = flags + [os.path.join(trained_dir, cli.MODEL_FILE)]
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", str(csv), "--out", str(out), *flags])
        assert rc in (cli.EXIT_OK, cli.EXIT_REJECTED)
        assert csv.read_bytes() != original
        manifest = json.loads((out / cli.MANIFEST_FILE).read_text())
        assert manifest["input_sha256"] == hashlib.sha256(original).hexdigest()
        assert ("seed" in manifest["parameters"]) == (command in ("train", "sweep"))


class TestVerdictThresholds:
    @pytest.mark.parametrize("flags", [
        ["--r-min", "nan"], ["--divergence-max", "nan"], ["--mse-max", "NaN"],
        ["--divergence-max", "-1"], ["--mse-max", "-0.5"],
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nan_or_negative_bound_rejected(self, trained_dir, data_csv, tmp_path,
                                            capsys, command, flags):
        # a NaN bound used to pass every comparison, so R = 0.94 read "accept"
        model = ["--model", os.path.join(trained_dir, cli.MODEL_FILE)] \
            if command == "eval" else FAST_FLAGS
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--out", str(out), *model, *flags])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "need a number r_min and bounds >= 0" in err
        assert not out.exists()


class TestManifestEnvironment:
    @pytest.fixture(scope="class")
    def eval_dir(self, trained_dir, data_csv, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("eval_env"))
        rc = cli.main(["eval", "--csv", data_csv,
                       "--model", os.path.join(trained_dir, cli.MODEL_FILE),
                       "--out", out])
        assert rc in (cli.EXIT_OK, cli.EXIT_REJECTED)
        return out

    @pytest.mark.parametrize("run", ["trained_dir", "eval_dir"])
    def test_block(self, run, request):
        with open(os.path.join(request.getfixturevalue(run),
                               cli.MANIFEST_FILE)) as fh:
            manifest = json.load(fh)
        assert set(manifest) == MANIFEST_KEYS
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        if np.lib.NumpyVersion(np.__version__) >= "1.26.0":
            assert set(env["blas"]) == {"name", "version"}
            assert isinstance(env["blas"]["name"], str)
        else:
            assert "blas" not in env
        assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert env["blas_threads_set_by_narxlm"] is narxlm.BLAS_THREADS_DEFAULTED


class TestSweep:
    def test_singleton_grid(self, data_csv, tmp_path):
        out = str(tmp_path / "sweep1")
        rc = cli.main(["sweep", "--csv", data_csv, "--out", out,
                       "--input-delays", "0:1", "--feedback-delays", "1",
                       "--neurons", "3", "--seed", "2",
                       "--epochs", "20", "--restarts", "1", "--xi", "1.0"])
        assert rc == 0
        lines = open(os.path.join(out, cli.SWEEP_CSV_FILE)).read().splitlines()
        assert len(lines) == 2
        with open(os.path.join(out, cli.CHOSEN_CONFIG_FILE)) as fh:
            chosen = json.load(fh)
        assert chosen["input_delays"] == [0, 1]
        assert chosen["neurons"] == 3

    def test_sweep_csv_follows_sweep_row(self, data_csv, tmp_path, monkeypatch):
        # sweep.csv's header is SweepRow's fields and each row reads back as
        # its sweep.json row.  The diverged point's warning holds a comma, and
        # the live point fails the bounds filter, so the fallback is chosen:
        # its warning is in chosen_config.json and in neither table
        real_fit, real_point = sweep.fit, sweep._sweep_point

        def fit(prep, n_hidden, params, seed):
            if n_hidden == 2:
                raise DivergedError("all 1 restarts diverged, the last at epoch 3")
            return real_fit(prep, n_hidden, params, seed)

        def point(packed):
            row = real_point(packed)
            row.xcorr_within_bounds = False
            return row
        monkeypatch.setattr(sweep, "fit", fit)
        monkeypatch.setattr(sweep, "_sweep_point", point)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--csv", data_csv, "--out", str(out), "--neurons", "2,3",
                         "--epochs", "10", "--restarts", "1"]) == cli.EXIT_OK
        with open(out / cli.SWEEP_CSV_FILE, newline="") as fh:
            header, *table = csv.reader(fh)
        assert header == [f.name for f in dataclasses.fields(SweepRow)]
        rows = json.loads((out / cli.SWEEP_JSON_FILE).read_text())
        assert len(table) == len(rows) == 2
        for cells, row in zip(table, rows):
            assert len(cells) == len(row)
            for cell, (key, value) in zip(cells, row.items()):
                if isinstance(value, list):
                    assert cell == "|".join(map(str, value)), key
                elif value is None:
                    assert cell == "nan", key
                elif isinstance(value, (bool, str)):
                    assert cell == str(value), key
                else:
                    assert float(cell) == value, key
        assert [cells[0] for cells in table] == ["0|1", "0|1"]
        assert [row["warning"] for row in rows] == [
            "all 1 restarts diverged, the last at epoch 3", ""]
        chosen = json.loads((out / cli.CHOSEN_CONFIG_FILE).read_text())
        assert chosen["neurons"] == 3
        assert chosen["warning"] == "no configuration passed the cross-correlation bounds filter"

    def test_grid_syntax(self, data_csv, tmp_path):
        out = str(tmp_path / "sweep2")
        rc = cli.main(["sweep", "--csv", data_csv, "--out", out,
                       "--input-delays", "0:1,2:3", "--feedback-delays", "1",
                       "--neurons", "2", "--seed", "2",
                       "--epochs", "10", "--restarts", "1", "--xi", "1.0"])
        assert rc == 0
        with open(os.path.join(out, cli.SWEEP_JSON_FILE)) as fh:
            rows = json.load(fh)
        assert [r["d_u"] for r in rows] == [[0, 1], [2, 3]]

    def test_row_equals_train(self, tmp_path):
        # a sweep point is normalized, fitted and scored as `train` does it
        csv = tmp_path / "series.csv"
        frame_to_csv(synthetic_ohlcv_frame(160, seed=1234, noise_std=0.02)[0], csv)
        flags = ["--csv", str(csv), "--input-delays", "0:4", "--feedback-delays", "1",
                 "--neurons", "3", "--epochs", "30", "--restarts", "2", "--seed", "7"]
        assert cli.main(["sweep", "--out", str(tmp_path / "sweep"), *flags]) == 0
        assert cli.main(["train", "--out", str(tmp_path / "train"), *flags]) == 0
        (row,) = json.loads((tmp_path / "sweep" / cli.SWEEP_JSON_FILE).read_text())
        diag = json.loads((tmp_path / "train" / cli.DIAGNOSTICS_FILE).read_text())
        assert (row["mse"], row["r_value"]) == (diag["mse"], diag["r_value"])

    @pytest.mark.parametrize("axis", [["--neurons", ""], ["--input-delays", ","]])
    def test_empty_axis_usage_error(self, data_csv, tmp_path, axis):
        out = tmp_path / "sweep3"
        rc, err = _run_quietly(["sweep", "--csv", data_csv, "--out", str(out), *axis])
        assert rc == cli.EXIT_VALIDATION
        assert err == "error: every grid axis must be non-empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("axes, message", [
        (["--neurons", "2,0"], "n_hidden must be >= 1"),
        (["--input-delays", "0:1,-1:0"], "input lags must be >= 0"),
        (["--feedback-delays", "1,0"], "feedback lags must be >= 1"),
    ])
    def test_bad_last_candidate_fails_before_any_fit(self, data_csv, tmp_path, monkeypatch,
                                                      axes, message):
        fits = []
        monkeypatch.setattr(sweep, "fit", lambda *a: fits.append(a))
        out = tmp_path / "sweep4"
        rc, err = _run_quietly(["sweep", "--csv", data_csv, "--out", str(out), *axes,
                                "--epochs", "5", "--restarts", "1"])
        assert rc == cli.EXIT_VALIDATION and err.startswith(f"error: {message}")
        assert fits == [] and not out.exists()

    def test_lag_pair_without_samples_fails_before_any_fit(self, data_csv, tmp_path,
                                                           monkeypatch):
        # 218 < 220 rows passes the axis parse, yet leaves only 2 samples
        fits = []
        monkeypatch.setattr(sweep, "fit", lambda *a: fits.append(a))
        out = tmp_path / "sweep5"
        rc, err = _run_quietly(["sweep", "--csv", data_csv, "--out", str(out),
                                "--input-delays", "0:1,218:218",
                                "--epochs", "5", "--restarts", "1"])
        assert rc == cli.EXIT_VALIDATION
        assert err == "error: need at least 3 samples to split, got 2\n"
        assert fits == [] and not out.exists()


class TestOptionDefaults:
    @pytest.mark.parametrize("command,model", [
        ("train", []), ("sweep", []),
        ("simulate", ["--model", "m.json"]), ("eval", ["--model", "m.json"]),
    ])
    def test_defaults_are_the_dataclasses(self, command, model):
        argv = [command, "--csv", "p.csv", "--out", "o", *model]
        args = cli._build_parser(argv).parse_args(argv)
        if command in ("train", "sweep"):
            assert cli._from_fields(args, narxlm.TrainParams) == narxlm.TrainParams()
            assert args.seed == 42
        if command != "sweep":
            assert cli._from_fields(args, narxlm.VerdictThresholds) == narxlm.VerdictThresholds()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_channel_defaults_are_datas(self, command, capsys):
        argv = [command, "--csv", "p.csv", "--out", "o"]
        args = cli._build_parser(argv).parse_args(argv)
        assert args.exo_channels.split(",") == list(narxlm.data.DEFAULT_EXO_CHANNELS)
        assert args.target_channel == narxlm.data.DEFAULT_TARGET_CHANNEL
        assert cli.main([command, "--help"]) == cli.EXIT_OK
        # argparse wraps the help at spaces, and the list has none
        assert "(default open,high,low,volume)" in " ".join(capsys.readouterr().out.split())

    def test_every_field_has_its_flag(self):
        # each field's flag is its name with "-" for "_" and its dest is its
        # name; this argv sets every field to a value other than its default
        params = narxlm.TrainParams(mu=0.01, mu_dec=0.5, mu_inc=3.0, mu_max=1e8, epochs=7,
                                    goal=1e-3, min_grad=1e-4, max_fail=2, xi=0.99,
                                    restarts=3)
        thresholds = narxlm.VerdictThresholds(r_min=0.5, divergence_max=1.0, mse_max=2.0)
        argv = ["train", "--csv", "p.csv", "--out", "o",
                "--mu", "0.01", "--mu-dec", "0.5", "--mu-inc", "3", "--mu-max", "1e8",
                "--epochs", "7", "--goal", "1e-3", "--min-grad", "1e-4", "--max-fail", "2",
                "--xi", "0.99", "--restarts", "3",
                "--r-min", "0.5", "--divergence-max", "1", "--mse-max", "2"]
        parser = cli._build_parser(argv)
        args = parser.parse_args(argv)
        assert cli._from_fields(args, narxlm.TrainParams) == params
        assert cli._from_fields(args, narxlm.VerdictThresholds) == thresholds
        flags = {a.dest: a.option_strings for a in _subparser(parser, "train")._actions}
        for cls, obj in ((narxlm.TrainParams, params), (narxlm.VerdictThresholds, thresholds)):
            for f in dataclasses.fields(cls):
                assert getattr(obj, f.name) != f.default, f.name
                assert flags[f.name] == ["--" + f.name.replace("_", "-")]


class TestUsage:
    def test_no_command(self):
        assert cli.main([]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_jobs_below_one(self, data_csv, tmp_path, jobs, capsys):
        out = tmp_path / "sweep_jobs"
        rc = cli.main(["sweep", "--csv", data_csv, "--out", str(out),
                       "--jobs", jobs])
        assert rc == cli.EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_is_validation_error(self, data_csv, tmp_path, capsys):
        out = tmp_path / "train_epochs0"
        rc = cli.main(["train", "--csv", data_csv, "--out", str(out),
                       "--epochs", "0"])
        assert rc == cli.EXIT_VALIDATION
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,code,message", [
        ("train", ["--input-delays", "a"], cli.EXIT_VALIDATION, "bad lag range 'a'"),
        ("train", ["--feedback-delays", "x"], cli.EXIT_VALIDATION, "bad lag range 'x'"),
        ("sweep", ["--input-delays", "0:1,1:"], cli.EXIT_VALIDATION,
         "bad lag range '1:'"),
        ("sweep", ["--neurons", "x"], cli.EXIT_VALIDATION, "bad neuron axis 'x'"),
        ("train", ["--seed", "-1"], cli.EXIT_USAGE, "--seed: must be >= 0, got -1"),
        ("sweep", ["--seed=-3"], cli.EXIT_USAGE, "--seed: must be >= 0, got -3"),
        # neither scoring command draws weights, so neither takes a seed
        ("eval", ["--model", "m.json", "--seed", "1"], cli.EXIT_USAGE,
         "unrecognized arguments: --seed 1"),
        ("simulate", ["--model", "m.json", "--seed", "1"], cli.EXIT_USAGE,
         "unrecognized arguments: --seed 1"),
        ("simulate", ["--model", "m.json", "--horizon", "-1"], cli.EXIT_USAGE,
         "--horizon: must be >= 1, got -1"),
        ("train", ["--input-delays", "0:100000000"], cli.EXIT_VALIDATION,
         "lag 100000000 in '0:100000000' needs more than the 220 rows"),
        ("sweep", ["--feedback-delays", "1,1:220"], cli.EXIT_VALIDATION,
         "lag 220 in '1:220' needs more than the 220 rows"),
        # an infinite cap would let the damping loop run forever at mu=inf
        ("train", ["--mu-max", "inf"], cli.EXIT_VALIDATION,
         "need 0 < mu < mu_max < inf"),
        # a repeated candidate would train one configuration twice
        ("sweep", ["--neurons", "2,2", "--input-delays", "0:1,0:1"], cli.EXIT_VALIDATION,
         "input-delay axis repeats the candidate (0, 1)"),
        # a message names the field, which is the flag with "_" for "-"
        ("train", ["--mu", "0"], cli.EXIT_VALIDATION, "need 0 < mu < mu_max < inf"),
        ("train", ["--divergence-max", "-1"], cli.EXIT_VALIDATION, "divergence_max=-1.0"),
    ])
    def test_malformed_argument_message(self, data_csv, tmp_path, capsys,
                                        command, flags, code, message):
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--out", str(out), *flags])
        assert rc == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_flag(self, data_csv, tmp_path):
        assert cli.main(["train", "--csv", data_csv, "--out", str(tmp_path),
                         "--bogus"]) == cli.EXIT_USAGE


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


class TestParser:
    ARGV = {
        "train": ["--neurons", "5", "--exo-channels", "open,high", "--mu", "0.5",
                  "--seed", "3"],
        "simulate": ["--model", "m.json", "--horizon", "7", "--r-min", "0.9"],
        "sweep": ["--neurons", "4,8", "--jobs", "2", "--restarts", "3", "--seed", "3"],
        "eval": ["--model", "m.json", "--mse-max", "2"],
    }

    @pytest.mark.parametrize("name", ["train", "simulate", "sweep", "eval"])
    def test_command_parser_matches_full_parser(self, name):
        argv = [name, "--csv", "p.csv", "--out", "o", *self.ARGV[name]]
        full, only = cli._build_parser(), cli._build_parser(argv)
        assert only.format_help() == full.format_help()
        assert _subparser(only, name).format_help() == _subparser(full, name).format_help()
        assert only.parse_args(argv) == full.parse_args(argv)

    @pytest.mark.parametrize("argv,code", [
        (["--help"], 0), (["--version"], 0), (["bogus"], 2),
        (["eval", "--csv", "p.csv", "--out", "o", "--model", "m", "--version"], 2),
    ], ids=["help", "version", "bogus", "eval-version"])
    def test_usage_output_matches_full_parser(self, capsys, argv, code):
        assert cli.main(argv) == code
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as stop:
            cli._build_parser().parse_args(argv)
        assert stop.value.code == code
        assert got == capsys.readouterr()
        if argv == ["--version"]:
            assert got.out == f"{narxlm.__version__}\n"
        elif code:
            # the usage of a per-command parser still lists every command
            assert got.err.startswith(
                "usage: narxlm [-h] [--version] {train,simulate,sweep,eval} ...\n")
        else:
            rows = [line.split() for line in got.out.splitlines()]
            for name, summary, _, _ in cli.COMMANDS:
                assert [name, *summary.split()] in rows


class TestInputValidation:
    def test_header_only_csv(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("Date,Open,High,Low,Close,Volume\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--csv", str(bad), "--out", str(tmp_path / "out")])
        assert not caught
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}: no data rows\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_channel_named_twice_exits_4(self, trained_dir, tmp_path, capsys, command):
        bad = tmp_path / "twice.csv"
        bad.write_text("Date,Open,High,Low,Close,Volume,Close\n1,1,2,0.5,1.5,100,1.6\n")
        out = tmp_path / "out"
        model = ["--model", os.path.join(trained_dir, cli.MODEL_FILE)] if command == "eval" else []
        rc = cli.main([command, "--csv", str(bad), "--out", str(out), *model])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}: columns 5 and 7 both name 'close'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--exo-channels", "open,foo"]),
        ("train", ["--target-channel", "price"]),
        ("sweep", ["--exo-channels", "open,,high"]),
        ("sweep", ["--target-channel", "Close"]),
        ("train", ["--exo-channels", ""]),
    ])
    def test_unknown_channel(self, data_csv, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--out", str(out),
                       *flags, *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unknown channel" in err
        assert "open, high, low, volume, close, adj_close" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        ("train", ["--exo-channels", "open,close"], "target channel 'close'"),
        ("sweep", ["--exo-channels", "high", "--target-channel", "high"],
         "target channel 'high'"),
        ("train", ["--exo-channels", "open,open"], "repeat a name: open,open"),
        ("sweep", ["--exo-channels", "low,high,low"], "repeat a name: low,high,low"),
    ])
    def test_target_or_repeated_exo_channel(self, data_csv, tmp_path, capsys,
                                            command, flags, message):
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--out", str(out),
                       *flags, *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("key", pipeline.MODEL_KEYS)
    def test_model_missing_key(self, trained_dir, data_csv, tmp_path, capsys,
                               command, key):
        with open(os.path.join(trained_dir, cli.MODEL_FILE)) as fh:
            doc = json.load(fh)
        del doc[key]
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(broken),
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_csv_cell(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Open,High,Low,Close,Volume\n"
                       "1,1,2,0.5,1.5,100\n"
                       f"2,1,2,0.5,{cell},100\n")
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", str(bad), "--out", str(out), *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert "non-finite close" in capsys.readouterr().err
        assert not out.exists()

    def test_value_too_far_outside_its_range(self, tmp_path, capsys):
        frame, _ = synthetic_ohlcv_frame(220, seed=99, noise_std=0.02)
        open_ = 1e308 + (frame.open - frame.open.min()) / np.ptp(frame.open) * 0.5e308
        open_[-1] = -1.7e308  # past the fitted rows, too far below their range to map
        bad = tmp_path / "far.csv"
        frame_to_csv(dataclasses.replace(frame, open=open_), bad)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--csv", str(bad), "--out", str(out), "--neurons", "3",
                           "--epochs", "5", "--restarts", "1"])
        assert not caught
        assert rc == cli.EXIT_VALIDATION
        assert re.fullmatch(r"error: channel 'open' has a value too far outside its range"
                            r" \[1\.\d+e\+308, 1\.5e\+308\] to normalize\n",
                            capsys.readouterr().err)
        assert not out.exists()

    def test_byte_order_mark(self, trained_dir, data_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        with open(data_csv, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        docs = []
        for csv_path, out in ((data_csv, tmp_path / "plain"), (bom, tmp_path / "bom")):
            rc = cli.main(["eval", "--csv", str(csv_path), "--out", str(out),
                           "--model", os.path.join(trained_dir, cli.MODEL_FILE)])
            assert rc in (cli.EXIT_OK, cli.EXIT_REJECTED)
            docs.append((out / cli.DIAGNOSTICS_FILE).read_text())
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("body,message", [
        (b"1,1,2,0.5,1.5,100\n2,1,2,0.5,1.5,1\xff0\n", "row 3 is not UTF-8"),
        (b"1,1,2,0.5,1.5,100\nJan 2,1,2,0.5,1.5,100\n",
         "bad cell on row 3: unparseable date 'Jan 2'"),
        (b"1,1,2,0.5,1.5,100\n1_0,1,2,0.5,1.5,100\n",
         "bad cell on row 3: unparseable date '1_0'"),
        ("1,1,2,0.5,1.5,100\n\u0661\u0662,1,2,0.5,1.5,100\n".encode(),
         "bad cell on row 3: unparseable date '\u0661\u0662'"),
        # numpy < 2 reads both as an int64 via a float, with a DeprecationWarning
        (b"1,1,2,0.5,1.5,100\n7.0,1,2,0.5,1.5,100\n",
         "bad cell on row 3: unparseable date '7.0'"),
        (b"1,1,2,0.5,1.5,100\n2,1,2,0.5,1.5,100\n1e3,1,2,0.5,1.5,100\n",
         "bad cell on row 4: unparseable date '1e3'"),
        # ISO week dates, which date.fromisoformat takes from Python 3.11 on
        (b"2010-01-04,1,2,0.5,1.5,100\n2010-W01-1,1,2,0.5,1.5,100\n",
         "bad cell on row 3: unparseable date '2010-W01-1'"),
        (b"2010-01-04,1,2,0.5,1.5,100\n2010W011,1,2,0.5,1.5,100\n",
         "bad cell on row 3: unparseable date '2010W011'"),
        (b"1,1,2,0.5,1.5,100\n2\x00,1,2,0.5,1.5,100\n", "row 3 holds a NUL byte"),
        # the first of two faults: a bad cell before a quoted cell that spans lines
        (b'1,1,2,0.5,1.5,100\n2,1,2,0.5,oops,100\n3,1,2,0.5,1.5,"a\nb"\n',
         "bad cell on row 3: could not convert string to float: 'oops'"),
        # a non-finite cell, which np.loadtxt reads, before a cell it rejects
        (b"1,1,2,0.5,1.5,100\n2,nan,2,0.5,1.5,100\n3,1,2,0.5,1.5,100\n"
         b"4,1,2,0.5,oops,100\n", "non-finite open nan on row 3"),
        (b"2010-01-04,1,2,0.5,1.5,100\n2010-01-05,inf,2,0.5,1.5,100\n"
         b"2010-01-06,1,2,0.5,1.5,100\n2010-01-07,1,2,0.5,1.5,100\n"
         b"2010-01-08,1,2,0.5,1.5,100\n2010-13-45,1,2,0.5,1.5,100\n",
         "non-finite open inf on row 3"),
    ])
    def test_undecodable_or_bad_date_names_path_and_row(self, tmp_path, capsys,
                                                         body, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"Date,Open,High,Low,Close,Volume\n" + body)
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", str(bad), "--out", str(out), *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("option", ["--from", "--to"])
    @pytest.mark.parametrize("date", ["2010-W01-1", "2010W011"])
    def test_week_date_option_is_unparseable(self, data_csv, tmp_path, capsys,
                                             option, date):
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", data_csv, "--out", str(out), option, date,
                       *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: unparseable date '{date}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--from", "--to"])
    @pytest.mark.parametrize("date", ["", " "], ids=["empty", "blank"])
    def test_empty_date_option_is_unparseable(self, data_csv, tmp_path, capsys,
                                              option, date):
        # an empty value is a date that does not parse, not an open end
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", data_csv, "--out", str(out), option, date,
                       *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: unparseable date ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("key, value", [
        ("n_hidden", float("inf")), ("n_exo", -float("inf")), ("d_u", [0, 1e400]),
        ("n_hidden", 5.5),
    ])
    def test_model_non_integer_config_field(self, trained_dir, data_csv, tmp_path,
                                            capsys, command, key, value):
        with open(os.path.join(trained_dir, cli.MODEL_FILE)) as fh:
            doc = json.load(fh)
        doc["config"][key] = value
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(broken),
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "malformed model document" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("key, value, message", [
        ("exo_channels", "open", "'exo_channels' must be a list of strings"),
        ("exo_channels", ["open", 1], "'exo_channels' must be a list of strings"),
        ("target_channel", ["close"], "'target_channel' must be a string"),
    ])
    def test_model_mistyped_channel_key(self, trained_dir, data_csv, tmp_path, capsys,
                                        command, key, value, message):
        with open(os.path.join(trained_dir, cli.MODEL_FILE)) as fh:
            doc = json.load(fh)
        doc[key] = value
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(broken),
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: malformed model document: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("exo, code, message", [
        (["open", "high", "low", "close"], cli.EXIT_VALIDATION,
         "target channel 'close' cannot be an exogenous channel"),
        (["open", "high", "open", "volume"], cli.EXIT_VALIDATION,
         "exogenous channels repeat a name: open,high,open,volume"),
        # load_model rejects an unknown name before prepare sees it
        (["open", "high", "low", "price"], cli.EXIT_MISMATCH,
         "model channel 'price' not present in OHLCV data"),
    ])
    def test_model_channel_rule(self, trained_dir, data_csv, tmp_path, capsys,
                                command, exo, code, message):
        with open(os.path.join(trained_dir, cli.MODEL_FILE)) as fh:
            doc = json.load(fh)
        doc["exo_channels"] = exo
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(broken),
                       "--out", str(out)])
        assert rc == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("name", ["missing.json", "a_directory"])
    def test_unreadable_model_exits_3(self, data_csv, tmp_path, capsys, command, name):
        (tmp_path / "a_directory").mkdir()
        model = tmp_path / name
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(model) in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_csv_is_read_before_model(self, tmp_path, capsys, command):
        # with both inputs bad, the CSV's error is the one reported
        bad = tmp_path / "empty.csv"
        bad.write_text("Date,Open,High,Low,Close,Volume\n")
        model = tmp_path / "model.json"
        model.write_text("[]")
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", str(bad), "--model", str(model), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}: no data rows\n"

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("data, code, message", [
        (b'{"config": ', cli.EXIT_VALIDATION,
         "model is not valid JSON: Expecting value: line 1 column 12 (char 11)"),
        (b"\xff{}", cli.EXIT_VALIDATION, "model is not valid JSON: 'utf-8' codec can't decode "
         "byte 0xff in position 0: invalid start byte"),
        # the parser's recursion limit, whose message varies with the Python
        (b"[" * 200000, cli.EXIT_VALIDATION, "model is not valid JSON: "),
        (b"[]", cli.EXIT_VALIDATION, "model document is not a JSON object"),
        (json.dumps({**PRIOR_MODEL, "normalization": {
            "lo": -1.0, "hi": 1.0, "ranges": {"close": [20.0, 22.0], "open": [21.0, 21.0]}}
         }).encode(), cli.EXIT_VALIDATION, "channel 'open' has no usable range [21.0, 21.0]"),
        (json.dumps({**PRIOR_MODEL, "normalization": {
            "lo": -1.0, "hi": 1.0, "ranges": {"close": [20.0, 22.0]}}
         }).encode(), cli.EXIT_VALIDATION, "normalization spec has no range for channel 'open'"),
        (json.dumps({**PRIOR_MODEL, "exo_channels": ["open", "high"], "normalization": {
            "lo": -1.0, "hi": 1.0,
            "ranges": {"close": [20.0, 22.0], "open": [20.0, 22.0], "high": [20.0, 22.0]}}
         }).encode(), cli.EXIT_MISMATCH, "model expects 1 exogenous channels, model lists 2"),
    ], ids=["bad-json", "non-utf8", "deep", "not-object", "flat-range", "no-range",
            "channel-count"])
    def test_model_loader_message(self, data_csv, tmp_path, capsys, command, data, code,
                                  message):
        model = tmp_path / "model.json"
        model.write_bytes(data)
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", data_csv, "--model", str(model), "--out", str(out)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("column, cells, code, message", [
        # the fitted range of open is wider than a float holds
        ("Open", ("1.7e308", "-1.7e308"), cli.EXIT_VALIDATION,
         "error: channel 'open' has no usable range [-1.7e+308, 1.7e+308]\n"),
        # a finite range: dividing before scaling keeps every value finite
        ("Volume", ("1.7e308", "1e308"), cli.EXIT_OK, ""),
    ], ids=["open-overflowing-range", "volume-extreme-range"])
    def test_extreme_finite_values(self, data_csv, tmp_path, capsys, column, cells, code,
                                   message):
        header, *rows = open(data_csv).read().splitlines()
        j = header.split(",").index(column)
        for i, cell in zip((10, 20), cells):
            row = rows[i].split(",")
            row[j] = cell
            rows[i] = ",".join(row)
        extreme = tmp_path / "extreme.csv"
        extreme.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--csv", str(extreme), "--out", str(out),
                           "--neurons", "3", "--epochs", "5", "--restarts", "1"])
        assert not caught
        assert rc == code
        assert capsys.readouterr().err == message
        if code == cli.EXIT_OK:
            for name in (cli.MODEL_FILE, cli.TRAIN_REPORT_FILE, cli.DIAGNOSTICS_FILE):
                _strict_json((out / name).read_text())
        else:
            assert not out.exists()

    # numpy warns as the squares overflow; the command then stops on the statistic
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, flags, n_errors", [
        ("train", ["--neurons", "3", "--epochs", "5", "--restarts", "1"], 219),
        ("eval", ["--model"], 219),
        ("simulate", ["--horizon", "50", "--model"], 50),
    ])
    def test_overflowing_statistic_exits_4(self, trained_dir, data_csv, tmp_path, capsys,
                                           command, flags, n_errors):
        # a last close far outside the fitted range: its normalized error is
        # finite, its square is not
        header, *rows = open(data_csv).read().splitlines()
        row = rows[-1].split(",")
        row[header.split(",").index("Close")] = "1e200"
        rows[-1] = ",".join(row)
        csv = tmp_path / "overflow.csv"
        csv.write_text("\n".join([header, *rows]) + "\n")
        if flags[-1] == "--model":
            flags = flags + [os.path.join(trained_dir, cli.MODEL_FILE)]
        out = tmp_path / "out"
        rc = cli.main([command, "--csv", str(csv), "--out", str(out), *flags])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: MSE overflows: inf over {n_errors} normalized errors\n"
        assert not out.exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 1.00 TiB"), "error: Unable to allocate 1.00 TiB\n"),
    ], ids=["bare", "numpy-message"])
    def test_network_too_large_for_memory(self, data_csv, tmp_path, capsys, monkeypatch,
                                          error, message):
        def fit(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "fit", fit)
        out = tmp_path / "out"
        rc = cli.main(["train", "--csv", data_csv, "--out", str(out), *FAST_FLAGS])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == message
        assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN, Infinity and -Infinity raise."""
    return json.loads(text, parse_constant=_reject_constant)


class TestStrictJson:
    def test_every_output_is_strict_json(self, trained_dir, data_csv, tmp_path):
        model = os.path.join(trained_dir, cli.MODEL_FILE)
        runs = [trained_dir]
        for command, flags in (("simulate", ["--model", model, "--horizon", "40"]),
                               ("eval", ["--model", model]),
                               ("sweep", ["--neurons", "2,3", "--epochs", "10",
                                          "--restarts", "1"])):
            out = str(tmp_path / command)
            assert cli.main([command, "--csv", data_csv, "--out", out, *flags]) in (
                cli.EXIT_OK, cli.EXIT_REJECTED)
            runs.append(out)
        parsed = 0
        for out in runs:
            for name in os.listdir(out):
                if name.endswith(".json"):
                    _strict_json(open(os.path.join(out, name)).read())
                    parsed += 1
        # train writes four JSON files, simulate and eval two each, sweep three
        assert parsed == 11
        manifest = _strict_json(open(os.path.join(trained_dir, cli.MANIFEST_FILE)).read())
        assert manifest["parameters"]["mse_max"] == "inf"
        assert float(manifest["parameters"]["mse_max"]) == float("inf")

    def test_diverged_sweep_row_is_null(self, data_csv, tmp_path, monkeypatch):
        real_fit = sweep.fit

        def fit(prep, n_hidden, params, seed):
            if n_hidden == 2:
                raise DivergedError("all 1 restarts diverged")
            return real_fit(prep, n_hidden, params, seed)
        monkeypatch.setattr(sweep, "fit", fit)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--csv", data_csv, "--out", str(out), "--neurons", "2,3",
                       "--epochs", "10", "--restarts", "1"])
        assert rc == cli.EXIT_OK
        for name in os.listdir(out):
            if name.endswith(".json"):
                _strict_json((out / name).read_text())
        dead, live = _strict_json((out / cli.SWEEP_JSON_FILE).read_text())
        assert dead["diverged"] and (dead["performance"], dead["mse"], dead["r_value"]) == (
            None, None, None)
        assert not live["diverged"] and None not in (live["performance"], live["mse"],
                                                     live["r_value"])
        # the CSV keeps nan for a missing number
        assert (out / cli.SWEEP_CSV_FILE).read_text().splitlines()[1].split(",")[3:6] == [
            "nan", "nan", "nan"]

    def test_sweep_whose_every_point_diverged_exits_5(self, data_csv, tmp_path, monkeypatch,
                                                       capsys):
        def fit(prep, n_hidden, params, seed):
            raise DivergedError(f"all 1 restarts diverged at N={n_hidden}")
        monkeypatch.setattr(sweep, "fit", fit)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--csv", data_csv, "--out", str(out), "--neurons", "2,3",
                       "--epochs", "10", "--restarts", "1"])
        assert rc == cli.EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "error: all 2 sweep points diverged:"
            " d_u=(0, 1) d_y=(1,) N=2: all 1 restarts diverged at N=2;"
            " d_u=(0, 1) d_y=(1,) N=3: all 1 restarts diverged at N=3\n")
        assert not out.exists()


def _run_quietly(argv):
    """(exit code, stderr) of cli.main; an uncaught exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


GOOD_CSV_ROWS = [f"{day},20.5,21,20,20.{day % 10},{1000 + day}" for day in range(1, 41)]
BAD_CELLS = ["", "nan", "inf", "-inf", "1e999", "abc", "--", "0x1"]
BAD_DATES = ["Jan 2", "2010-02-30", "2010/01/04", "1.5", " ",
             "99999999999999999999", "-9223372036854775809"]
MALFORMED_EXITS = {cli.EXIT_IO, cli.EXIT_VALIDATION, cli.EXIT_MISMATCH}


@st.composite
def malformed_csv(draw):
    header = ["Date", "Open", "High", "Low", "Close", "Volume"]
    rows = [r.split(",") for r in GOOD_CSV_ROWS]
    kind = draw(st.sampled_from(["cell", "short-row", "drop-column",
                                 "duplicate-date", "bad-date", "non-utf8", "empty"]))
    if kind == "empty":
        return b""
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "cell":
        rows[i][draw(st.integers(0, 5))] = draw(st.sampled_from(BAD_CELLS))
    elif kind == "short-row":
        rows[i] = rows[i][:draw(st.integers(1, 5))]
    elif kind == "drop-column":
        j = draw(st.integers(0, 5))
        header.pop(j)
        for row in rows:
            row.pop(j)
    elif kind == "duplicate-date":
        rows[i][0] = rows[(i + 1) % len(rows)][0]
    elif kind == "bad-date":
        rows[i][0] = draw(st.sampled_from(BAD_DATES))
    text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    data = text.encode("utf-8")
    if kind == "non-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


# Option values that no parser may accept: an integer or lag option given a
# letter, a negative seed, a NaN or negative verdict bound, a NaN LM setting,
# an infinite damping cap.
LETTERED = st.builds(lambda a, c, b: a + c + b, st.text("0123456789:,-", max_size=3),
                     st.sampled_from("aeEx"), st.text("0123456789:,-", max_size=3))
NEGATIVE_INT = st.integers(max_value=-1).map(str)
NAN = st.sampled_from(["nan", "NaN", "-nan"])
NAN_OR_NEGATIVE = st.one_of(NAN, st.floats(max_value=-1e-9).map(repr))
THRESHOLD_ARGUMENTS = [("--r-min", NAN),
                       ("--divergence-max", NAN_OR_NEGATIVE),
                       ("--mse-max", NAN_OR_NEGATIVE)]
FIT_ARGUMENTS = [("--seed", NEGATIVE_INT), ("--input-delays", LETTERED),
                 ("--feedback-delays", LETTERED), ("--neurons", LETTERED),
                 ("--epochs", LETTERED), ("--restarts", LETTERED),
                 ("--mu", NAN), ("--xi", NAN), ("--goal", NAN),
                 ("--mu-max", st.sampled_from(["inf", "Infinity"]))]
MALFORMED_ARGUMENTS = {
    "train": FIT_ARGUMENTS + THRESHOLD_ARGUMENTS,
    "sweep": FIT_ARGUMENTS + [("--jobs", LETTERED)],
    "eval": THRESHOLD_ARGUMENTS,
    "simulate": THRESHOLD_ARGUMENTS + [("--horizon", LETTERED), ("--horizon", NEGATIVE_INT)],
}


JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(alphabet="xyz!", max_size=4), st.floats(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(alphabet="abc", max_size=3), st.integers(), max_size=2))


class TestMalformedInputProperty:
    @given(data=malformed_csv())
    @settings(max_examples=60, deadline=None)
    def test_malformed_csv(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = os.path.join(tmp, "bad.csv")
            with open(csv_path, "wb") as fh:
                fh.write(data)
            out = os.path.join(tmp, "out")
            rc, err = _run_quietly(["train", "--csv", csv_path, "--out", out,
                                    *FAST_FLAGS])
            assert rc == cli.EXIT_VALIDATION
            assert err.startswith("error: ") and "Traceback" not in err
            assert not os.path.exists(out)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_malformed_model(self, trained_dir, data_csv, data):
        with open(os.path.join(trained_dir, cli.MODEL_FILE), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        kind = data.draw(st.sampled_from(["drop", "replace", "replace-config", "truncate",
                                          "non-utf8", "deep"]))
        key = data.draw(st.sampled_from(sorted(doc)))
        if kind == "drop":
            del doc[key]
            text = json.dumps(doc)
        elif kind == "replace":
            # true == 1, yet a boolean is never a model value
            doc[key] = data.draw(JSON_JUNK.filter(
                lambda v: isinstance(v, bool) or v != doc[key]))
            text = json.dumps(doc)
        elif kind == "replace-config":
            config = doc["config"]
            key = data.draw(st.sampled_from(sorted(config)))
            # a list of small integers can be another valid lag set
            config[key] = data.draw(JSON_JUNK.filter(
                lambda v: not isinstance(v, list) and v != config[key]))
            text = json.dumps(doc)
        elif kind == "deep":
            # a value nested deeper than the JSON parser recurses
            depth = data.draw(st.integers(100_000, 200_000))
            doc[key] = "NEST"
            text = json.dumps(doc).replace('"NEST"', "[" * depth + "]" * depth)
        elif kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        raw = text.encode("utf-8")
        if kind == "non-utf8":
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + raw[at:]
        command = data.draw(st.sampled_from(["simulate", "eval"]))
        with tempfile.TemporaryDirectory() as tmp:
            model = os.path.join(tmp, "model.json")
            with open(model, "wb") as fh:
                fh.write(raw)
            out = os.path.join(tmp, "out")
            rc, err = _run_quietly([command, "--csv", data_csv, "--model", model,
                                    "--out", out])
            assert rc in MALFORMED_EXITS
            assert err.startswith("error: ") and "Traceback" not in err
            assert not os.path.exists(out)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_malformed_argument(self, trained_dir, data_csv, data):
        command = data.draw(st.sampled_from(sorted(MALFORMED_ARGUMENTS)))
        option, values = data.draw(st.sampled_from(MALFORMED_ARGUMENTS[command]))
        value = data.draw(values, label=option)
        # the drawn option comes last, so it overrides a fast flag
        extra = FAST_FLAGS if command in ("train", "sweep") else \
            ["--model", os.path.join(trained_dir, cli.MODEL_FILE)]
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            rc, err = _run_quietly([command, "--csv", data_csv, "--out", out,
                                    *extra, f"{option}={value}"])
            assert rc in {cli.EXIT_USAGE, cli.EXIT_VALIDATION}
            assert "error: " in err and "Traceback" not in err
            assert not os.path.exists(out)
