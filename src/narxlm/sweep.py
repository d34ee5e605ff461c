"""Grid search over input delays, feedback delays, and hidden-layer sizes.

Every grid point is trained with restarts and diagnosed; rows record the
training objective, regression R, and whether all input-error
cross-correlation lags stay inside the 95% confidence band.  Selection
filters on that band first, then maximizes R.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from .errors import DivergedError, InsufficientDataError, ValidationError
from .network import NarxConfig
from .pipeline import evaluate_open, fit, prepare
from .training import TrainParams


@dataclass(frozen=True)
class SweepGrid:
    """The candidates of a sweep, checked before any point trains.

    Each lag set is sorted.  An empty axis, an axis that repeats a
    candidate, or a point that is no network (``NarxConfig``'s lag and size
    rules: a negative input lag, a feedback lag below 1, fewer than one
    hidden unit) raises ``ValidationError``.
    """

    d_u_candidates: tuple       # tuple of lag tuples
    d_y_candidates: tuple       # tuple of lag tuples
    neuron_candidates: tuple    # tuple of ints
    params: TrainParams
    seed: int

    def __post_init__(self):
        if not (self.d_u_candidates and self.d_y_candidates and self.neuron_candidates):
            raise ValidationError("every grid axis must be non-empty")
        object.__setattr__(self, "d_u_candidates",
                           tuple(tuple(sorted(d)) for d in self.d_u_candidates))
        object.__setattr__(self, "d_y_candidates",
                           tuple(tuple(sorted(d)) for d in self.d_y_candidates))
        object.__setattr__(self, "neuron_candidates",
                           tuple(int(n) for n in self.neuron_candidates))
        for name, axis in (("input-delay", self.d_u_candidates),
                           ("feedback-delay", self.d_y_candidates),
                           ("neuron", self.neuron_candidates)):
            for k, value in enumerate(axis):
                if value in axis[:k]:
                    raise ValidationError(f"{name} axis repeats the candidate {value}")
        for d_u, d_y, n in self.points():
            NarxConfig(d_u, d_y, n, n_exo=1)  # n_exo plays no part in these rules

    def points(self):
        return list(product(self.d_u_candidates, self.d_y_candidates,
                            self.neuron_candidates))


@dataclass
class SweepRow:
    d_u: tuple
    d_y: tuple
    n_hidden: int
    performance: float = np.nan      # training MSEREG objective at the best epoch
    mse: float = np.nan
    r_value: float = np.nan
    xcorr_within_bounds: bool = False
    wall_time: float = 0.0
    diverged: bool = False
    warning: str = ""

    def to_dict(self) -> dict:
        """The row for ``sweep.json``: one key per field, in field order, a
        tuple as a list.  It is strict JSON: a missing (NaN) or non-finite
        number is None, which ``json`` writes as null."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(value) if isinstance(value, tuple)
                else None if isinstance(value, float) and not math.isfinite(value)
                else value for key, value in row.items()}


def parse_lag_range(token: str, n_rows: int) -> tuple:
    """"a:b" -> (a, ..., b) inclusive; a bare integer is a singleton set.

    A lag of ``n_rows`` or more leaves no sample, so it is rejected before
    the tuple is built.
    """
    a, sep, b = token.strip().partition(":")
    try:
        lo, hi = int(a), int(b if sep else a)
    except ValueError:
        raise ValidationError(f"bad lag range {token!r}: want an integer or a:b") from None
    if hi < lo:
        raise ValidationError(f"bad lag range {token!r}")
    if hi >= n_rows:
        raise InsufficientDataError(
            f"lag {hi} in {token!r} needs more than the {n_rows} rows of data")
    return tuple(range(lo, hi + 1))


def run_sweep(grid: SweepGrid, frame, exo_channels, target_channel, jobs=1) -> list:
    """Train and diagnose every grid point; rows come back in grid order.

    ``frame`` holds raw prices.  Each point is prepared, fitted and scored
    as ``pipeline.prepare``, ``fit`` and ``evaluate_open`` do for ``train``,
    so its mse and R are the ones ``train`` reports.  Diverged runs are kept
    as flagged rows so the table stays rectangular.  ``jobs`` caps the
    worker processes, which never outnumber the points; one runs inline.
    Each lag pair is prepared once, before any point starts, so bad
    channels or a pair the data cannot serve fail before a fit.
    """
    preps = {lags: prepare(frame, *lags, exo_channels, target_channel)
             for lags in product(grid.d_u_candidates, grid.d_y_candidates)}
    args = [(point, grid.params, grid.seed, preps[point[:2]]) for point in grid.points()]
    # a forked pool starts all its workers at once, so never more than points
    workers = min(jobs, len(args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, args))
    return [_sweep_point(a) for a in args]


def _sweep_point(packed) -> SweepRow:
    (d_u, d_y, n), params, seed, prep = packed
    t0 = time.perf_counter()
    row = SweepRow(d_u=d_u, d_y=d_y, n_hidden=n)
    try:
        report = fit(prep, n, params, seed)
        diag = evaluate_open(report.network, prep, xi=params.xi)
        row.performance = report.records[report.best_epoch].train_objective
        row.mse = diag.mse
        row.r_value = diag.r_value
        row.xcorr_within_bounds = diag.xcorr_within_bounds
    except DivergedError as exc:
        row.diverged = True
        row.warning = str(exc)
    row.wall_time = time.perf_counter() - t0
    return row


def select_best(rows: list):
    """Pick the winner: bounds filter, then max R, then tie-breaks.

    Ties break by lower performance, fewer neurons, smaller max delay.  If no
    row passes the bounds filter, a copy of the best unfiltered row is
    returned with the fallback added to its warning; ``rows`` are never
    changed.  If every row diverged, ``DivergedError`` names each
    point's lags, neurons and warning; an empty row list is a
    ``ValidationError``.
    """
    if not rows:
        raise ValidationError("no rows to select from")
    live = [r for r in rows if not r.diverged]
    if not live:
        raise DivergedError(f"all {len(rows)} sweep points diverged: " + "; ".join(
            f"d_u={r.d_u} d_y={r.d_y} N={r.n_hidden}: {r.warning}" for r in rows))
    passing = [r for r in live if r.xcorr_within_bounds]
    pool = passing if passing else live

    def key(r):
        return (-r.r_value, r.performance, r.n_hidden,
                max(max(r.d_u), max(r.d_y)))

    best = min(pool, key=key)
    if not passing:
        best = replace(best, warning=(best.warning + "; " if best.warning else "")
                       + "no configuration passed the cross-correlation bounds filter")
    return best
