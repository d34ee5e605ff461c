import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from narxlm import cli
from narxlm.data import fit_normalization, apply_normalization, prepare_delayed, split_indices
from narxlm.diagnostics import diagnose
from narxlm.errors import DivergedError, InsufficientDataError, ValidationError
from narxlm.network import NarxConfig, forward_open
from narxlm.sweep import SweepGrid, SweepRow, parse_lag_range, run_sweep, select_best
from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame
from narxlm.training import TrainParams, msereg, train_with_restarts

EXO = ("open", "high", "low", "volume")
FAST = TrainParams(xi=1.0, epochs=30, restarts=2, goal=1e-10, min_grad=1e-10)


@pytest.fixture(scope="module")
def frame():
    return synthetic_ohlcv_frame(160, seed=1234, noise_std=0.02)[0]


class TestParseLagRange:
    def test_range(self):
        assert parse_lag_range("0:1", 10) == (0, 1)
        assert parse_lag_range("2:5", 10) == (2, 3, 4, 5)

    def test_singleton(self):
        assert parse_lag_range("1", 10) == (1,)

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            parse_lag_range("5:2", 10)

    @pytest.mark.parametrize("token", ["a", "", "3:", ":2", "1:2:3", "1.5", "0:x"])
    def test_not_integers(self, token):
        with pytest.raises(ValidationError, match="want an integer or a:b"):
            parse_lag_range(token, 10)

    def test_upper_lag_bounded_by_rows(self):
        assert parse_lag_range("0:9", 10)[-1] == 9
        with pytest.raises(InsufficientDataError, match="10 rows"):
            parse_lag_range("10", 10)

    def test_huge_range_rejected_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientDataError, match="220 rows"):
                parse_lag_range("0:100000000", 220)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRunSweep:
    def test_singleton_grid_matches_direct_run(self, frame):
        grid = SweepGrid(((0, 1),), ((1,),), (3,), FAST, seed=5)
        rows = run_sweep(grid, frame, EXO, "close")
        assert len(rows) == 1
        row = rows[0]

        # normalization fitted on the rows up to the last training target
        max_lag = 1
        splits = split_indices(len(frame) - max_lag)
        spec = fit_normalization(frame, sorted(set(EXO) | {"close"}),
                                 fit_rows=max_lag + len(splits[0]))
        norm = apply_normalization(frame, spec)
        ds = prepare_delayed(norm, (0, 1), (1,), EXO, "close")
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=4)
        report = train_with_restarts(config, ds, FAST, 5)
        pred = forward_open(report.network, ds)
        exo = {ch: norm.channel(ch)[ds.first_usable_index:] for ch in EXO}
        diag = diagnose(spec.invert_values(pred, "close"),
                        spec.invert_values(ds.T, "close"),
                        pred - ds.T, exo,
                        msereg=msereg(pred - ds.T, report.network.theta, FAST.xi,
                                      penalized=report.network.config.penalized))
        assert row.performance == report.records[report.best_epoch].train_objective
        assert row.mse == diag.mse
        assert row.r_value == diag.r_value
        assert row.xcorr_within_bounds == diag.xcorr_within_bounds
        assert not row.diverged

    @pytest.mark.parametrize("n_points,jobs,pools", [(2, 8, [2]), (1, 8, []), (3, 2, [2])])
    def test_workers_capped_at_points(self, frame, monkeypatch, n_points, jobs, pools):
        # a forked pool starts max_workers processes at once; this one starts none
        import concurrent.futures
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        params = TrainParams(xi=1.0, epochs=2, restarts=1)
        grid = SweepGrid(((0, 1),), ((1,),), tuple(range(2, 2 + n_points)), params)
        rows = run_sweep(grid, frame, EXO, "close", jobs=jobs)
        assert [r.n_hidden for r in rows] == list(grid.neuron_candidates)
        assert started == pools

    def test_deterministic_and_complete(self, frame):
        grid = SweepGrid(((0, 1), (1,)), ((1,),), (2, 3), FAST, seed=6)
        a = run_sweep(grid, frame, EXO, "close")
        b = run_sweep(grid, frame, EXO, "close")
        assert len(a) == len(grid.points()) == 4
        for ra, rb in zip(a, b):
            assert (ra.d_u, ra.d_y, ra.n_hidden) == (rb.d_u, rb.d_y, rb.n_hidden)
            assert ra.performance == rb.performance
            assert ra.r_value == rb.r_value

    def test_parallel_jobs_match_serial(self, frame, tmp_path):
        # inline and from a process pool, sweep writes the same files but
        # for each row's wall_time
        frame_to_csv(frame, tmp_path / "series.csv")
        files = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs_{jobs}"
            assert cli.main(["sweep", "--csv", str(tmp_path / "series.csv"), "--out", str(out),
                             "--neurons", "2,3", "--xi", "1.0", "--epochs", "30",
                             "--restarts", "2", "--goal", "1e-10", "--min-grad", "1e-10",
                             "--seed", "7", "--jobs", jobs]) == cli.EXIT_OK
            rows = json.loads((out / cli.SWEEP_JSON_FILE).read_text())
            table = [line.split(",")
                     for line in (out / cli.SWEEP_CSV_FILE).read_text().splitlines()]
            col = table[0].index("wall_time")
            files.append((sorted(os.listdir(out)), [row | {"wall_time": 0} for row in rows],
                          [line[:col] + line[col + 1:] for line in table],
                          (out / cli.CHOSEN_CONFIG_FILE).read_text()))
        assert files[0] == files[1]

    @pytest.mark.parametrize("axes", [
        ((), ((1,),), (3,)), (((0, 1),), (), (3,)), (((0, 1),), ((1,),), ()),
    ], ids=["input-delay", "feedback-delay", "neuron"])
    def test_empty_axis_rejected(self, axes):
        with pytest.raises(ValidationError, match="every grid axis must be non-empty"):
            SweepGrid(*axes, FAST)

    @pytest.mark.parametrize("axes, message", [
        ((((0, 1),), ((1,),), (3, 0)), "n_hidden must be >= 1"),
        ((((0, 1), (-1, 0)), ((1,),), (3,)), "input lags must be >= 0"),
        ((((0, 1),), ((1,), (0, 1)), (3,)), "feedback lags must be >= 1"),
        ((((0, 1),), ((1,), ()), (3,)), "lag sets must be non-empty"),
    ], ids=["neurons", "input-delay", "feedback-delay", "empty-lag-set"])
    def test_bad_candidate_rejected(self, axes, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SweepGrid(*axes, FAST)

    @pytest.mark.parametrize("axes, message", [
        ((((0, 1), (1, 0)), ((1,),), (3,)), "input-delay axis repeats the candidate (0, 1)"),
        ((((0, 1),), ((1,), (2,), (1,)), (3,)), "feedback-delay axis repeats the candidate (1,)"),
        ((((0, 1),), ((1,),), (2, 3, 2.0)), "neuron axis repeats the candidate 2"),
    ], ids=["input-delay", "feedback-delay", "neuron"])
    def test_repeated_candidate_rejected(self, axes, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SweepGrid(*axes, FAST)


class TestSweepRow:
    def test_to_dict_follows_the_fields(self):
        # a diverged row keeps its NaN numbers and an infinite one is no
        # number either: sweep.json writes each as null
        row = SweepRow(d_u=(0, 1), d_y=(1,), n_hidden=3, performance=np.inf, wall_time=0.5,
                       diverged=True, warning="all 1 restarts diverged")
        doc = row.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(SweepRow)]
        assert doc == {"d_u": [0, 1], "d_y": [1], "n_hidden": 3, "performance": None,
                       "mse": None, "r_value": None, "xcorr_within_bounds": False,
                       "wall_time": 0.5, "diverged": True,
                       "warning": "all 1 restarts diverged"}
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc


class TestSelectBest:
    def _row(self, r, perf=0.01, n=10, du=(0, 1), dy=(1,), bounds=True,
             diverged=False):
        return SweepRow(d_u=du, d_y=dy, n_hidden=n, performance=perf,
                        mse=perf, r_value=r, xcorr_within_bounds=bounds,
                        diverged=diverged)

    def test_single_passing_row(self):
        row = self._row(0.99)
        assert select_best([row]) is row

    def test_bounds_filter_first(self):
        bad = self._row(0.999, bounds=False)
        good = self._row(0.95, bounds=True)
        assert select_best([bad, good]) is good

    def test_neuron_tiebreak(self):
        a = self._row(0.99, n=22)
        b = self._row(0.99, n=30)
        assert select_best([b, a]) is a

    def test_fallback_with_warning(self):
        a = self._row(0.98, bounds=False)
        b = self._row(0.99, bounds=False)
        best = select_best([a, b])
        assert dataclasses.replace(best, warning="") == b
        assert "bounds" in best.warning

    def test_fallback_leaves_the_rows_unchanged(self):
        # the fallback warning is a fact about the selection, so it goes on
        # the returned copy, and a second call on the same rows reads the same
        rows = [self._row(0.98, bounds=False), self._row(0.99, bounds=False)]
        before = [dataclasses.replace(r) for r in rows]
        first = select_best(rows)
        assert select_best(rows) == first
        assert first.warning == "no configuration passed the cross-correlation bounds filter"
        assert rows == before

    def test_diverged_rows_excluded(self):
        dead = self._row(1.0, diverged=True)
        live = self._row(0.9)
        assert select_best([dead, live]) is live
        dead.warning = "all 2 restarts diverged"
        with pytest.raises(DivergedError, match=re.escape(
                "all 1 sweep points diverged: d_u=(0, 1) d_y=(1,) N=10:"
                " all 2 restarts diverged") + "$"):
            select_best([dead])
        with pytest.raises(ValidationError, match="no rows to select from"):
            select_best([])

    def test_pure_function_of_table(self):
        rows = [self._row(0.95), self._row(0.97), self._row(0.96)]
        assert select_best(rows) is select_best(rows)
