"""Command-line front end: train, simulate, sweep, eval.

``main`` owns every run.  It reads ``--csv``; the command computes its
files, summary line and exit code from that frame, and writes and prints
nothing; ``main`` commits the files and a manifest (resolved parameters,
input digest, output files and environment: Python, numpy, BLAS and its
thread setting) to ``--out``, and only then prints the line.  The commit
writes every file before it renames any into place.  An output name that is
a directory exits 3 before any write.  A failed write replaces no output and
leaves no temporary file, though a ``--out`` the run created may remain,
empty.

Exit codes: 0 success, 2 usage, 3 I/O, 4 validation/format (and a network
too large for memory), 5 divergence, 6 model/data mismatch, 7 verdict
rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import errno
import hashlib
import json
import math
import os
import platform
import secrets
import sys

import numpy as np

from . import BLAS_THREADS_DEFAULTED, __version__
from .data import DEFAULT_EXO_CHANNELS, DEFAULT_TARGET_CHANNEL, _csv_text, load_ohlcv, parse_date
from .diagnostics import VerdictThresholds
from .errors import (
    ConfigMismatchError,
    DivergedError,
    InsufficientDataError,
    NarxError,
    ValidationError,
)
from .pipeline import (
    evaluate_open,
    fit,
    load_model,
    model_json,
    prepare,
    simulate,
    simulate_diagnostics,
)
from .sweep import SweepGrid, SweepRow, parse_lag_range, run_sweep, select_best
from .training import EpochRecord, TrainParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_DIVERGED = 5
EXIT_MISMATCH = 6
EXIT_REJECTED = 7
# exit code of each error a command may raise; the first matching type wins
ERROR_EXITS = (
    (OSError, EXIT_IO),
    (DivergedError, EXIT_DIVERGED),
    (ConfigMismatchError, EXIT_MISMATCH),
    (NarxError, EXIT_VALIDATION),
    (MemoryError, EXIT_VALIDATION),
)

MODEL_FILE = "model.json"
TRAIN_REPORT_FILE = "train_report.json"
EPOCHS_FILE = "epochs.csv"
DIAGNOSTICS_FILE = "diagnostics.json"
PREDICTIONS_FILE = "predictions.csv"
SWEEP_CSV_FILE = "sweep.csv"
SWEEP_JSON_FILE = "sweep.json"
CHOSEN_CONFIG_FILE = "chosen_config.json"
MANIFEST_FILE = "manifest.json"


def _environment() -> dict:
    """The Python, numpy and BLAS of this run, and its BLAS thread setting."""
    env = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    else:
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    env["openblas_num_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    env["blas_threads_set_by_narxlm"] = BLAS_THREADS_DEFAULTED
    return env


def _write_outputs(args, input_sha256: str, files: dict):
    """Commit each {name: text} file and then the manifest of them to ``--out``.

    ``main`` calls this once, after the command has computed every result,
    so a command that fails leaves no directory behind.  An output name
    that is a directory in ``--out`` raises ``IsADirectoryError`` before
    anything is written.  Every file is written under a ``.tmp-<hex>`` name
    first, with mode 0666 so that the umask gives it the mode
    ``open(path, "w")`` would, and renamed into place only once all are
    written; if any step fails, the temporary files are removed.
    ``input_sha256`` is ``_load_frame``'s digest of the bytes the run
    parsed.  The manifest is strict JSON: a non-finite parameter
    (``--mse-max`` defaults to inf) is the string ``float()`` reads back,
    such as ``"inf"``.
    """
    manifest = {
        "command": args.command,
        "parameters": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in sorted(vars(args).items())
                       if k not in ("func", "command")},
        "input_file": str(args.csv),
        "input_sha256": input_sha256,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(files),
        "environment": _environment(),
    }
    paths = {os.path.join(args.out, name): text
             for name, text in {**files, MANIFEST_FILE: json.dumps(manifest, indent=2)}.items()}
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    os.makedirs(args.out, exist_ok=True)
    tmps = []
    try:
        for text in paths.values():
            tmps.append(os.path.join(args.out, f".tmp-{secrets.token_hex(8)}"))
            fd = os.open(tmps[-1], os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in filter(os.path.exists, tmps):
            os.unlink(tmp)
        raise


def _add_common(p):
    p.add_argument("--csv", required=True, help="OHLCV CSV input file")
    p.add_argument("--from", dest="date_from", default=None,
                   help="first date (ISO or integer day index), inclusive")
    p.add_argument("--to", dest="date_to", default=None,
                   help="last date, inclusive")
    p.add_argument("--out", required=True, help="output directory")


def _add_fit_options(p):
    """What ``train`` and ``sweep`` fit with: --exo-channels and
    --target-channel, whose defaults are ``data``'s (``prepare`` checks the
    names), --seed and the ``TrainParams`` fields."""
    p.add_argument("--exo-channels", default=",".join(DEFAULT_EXO_CHANNELS),
                   help="comma-separated channel names (default %(default)s)")
    p.add_argument("--target-channel", default=DEFAULT_TARGET_CHANNEL)
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    _add_fields(p, TrainParams)


def _add_fields(p, cls):
    """Add one option per field of the dataclass ``cls``, in field order.

    Its flag is the field's name with "-" for "_" (``mu_dec`` ->
    ``--mu-dec``), so its dest is the field's name, and its type and default
    are the field's.
    """
    for f in dataclasses.fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _from_fields(args, cls):
    """``cls`` built from the options ``_add_fields`` added for it."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse says "invalid int value" on a non-integer
    return parse


def _load_frame(args):
    """(frame, SHA-256): ``--csv`` read once, the frame parsed from those
    bytes and cut to ``--from``/``--to``, and the hex digest of the bytes."""
    with open(args.csv, "rb") as fh:
        raw = fh.read()
    frame = load_ohlcv(args.csv, raw)
    t_from = None if args.date_from is None else parse_date(args.date_from)
    t_to = None if args.date_to is None else parse_date(args.date_to)
    if t_from is not None or t_to is not None:
        frame = frame.restrict(t_from, t_to)
    return frame, hashlib.sha256(raw).hexdigest()


def _add_train_options(p):
    _add_common(p)
    p.add_argument("--input-delays", default="0:1", help='lag set, e.g. "0:1"')
    p.add_argument("--feedback-delays", default="1", help='lag set, e.g. "1" or "1:2"')
    p.add_argument("--neurons", type=int, default=22)
    _add_fit_options(p)
    _add_fields(p, VerdictThresholds)


def _add_eval_options(p):
    _add_common(p)
    p.add_argument("--model", required=True, help="model.json from a train run")
    _add_fields(p, VerdictThresholds)


def _add_simulate_options(p):
    _add_eval_options(p)
    p.add_argument("--horizon", type=_int_at_least(1), default=100, help="steps (>= 1)")


def _add_sweep_options(p):
    _add_common(p)
    p.add_argument("--input-delays", default="0:1",
                   help='comma-separated lag ranges, e.g. "0:1,2:5"')
    p.add_argument("--feedback-delays", default="1")
    p.add_argument("--neurons", default="10,22",
                   help="comma-separated neuron counts")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes (>= 1)")
    _add_fit_options(p)


def cmd_train(args, frame):
    params = _from_fields(args, TrainParams)
    thresholds = _from_fields(args, VerdictThresholds)
    d_u = parse_lag_range(args.input_delays, len(frame))
    d_y = parse_lag_range(args.feedback_delays, len(frame))
    prep = prepare(frame, d_u, d_y, args.exo_channels.split(","), args.target_channel)
    report = fit(prep, args.neurons, params, args.seed)
    diag = evaluate_open(report.network, prep, xi=params.xi, thresholds=thresholds)

    splits = {name: [int(idx[0]), int(idx[-1]) + 1]
              for name, idx in zip(("train", "val", "test"), prep.dataset.splits)}
    return {
        MODEL_FILE: model_json(report.network, prep),
        TRAIN_REPORT_FILE: json.dumps({**report.to_dict(), "splits": splits}, indent=2),
        EPOCHS_FILE: _csv_text([f.name for f in dataclasses.fields(EpochRecord)],
                               map(dataclasses.astuple, report.records)),
        DIAGNOSTICS_FILE: json.dumps(diag.to_dict(), indent=2),
    }, (f"trained: stop={report.stop_reason} best_epoch={report.best_epoch} "
        f"val_mse={report.best_val_mse:.3e} R={diag.r_value:.5f} "
        f"divergence={diag.max_divergence_pct:.3f}% "
        f"verdict={'accept' if diag.accepted else 'reject'}"), EXIT_OK


def cmd_simulate(args, frame):
    thresholds = _from_fields(args, VerdictThresholds)
    net, prep = load_model(args.model, frame)
    H = args.horizon
    priming = prep.dataset.first_usable_index
    if H > len(frame) - priming:
        raise InsufficientDataError(
            f"horizon {H} exceeds the {len(frame) - priming} rows after "
            f"{priming} priming row{'s' if priming > 1 else ''}")
    start_row = len(frame) - H
    ts, preds, targs = simulate(net, prep, start_row, H)
    preds_price, targs_price = (prep.norm_spec.invert_values(v, prep.target_channel)
                                for v in (preds, targs))
    rows = [(t, y, p, p - y) for t, p, y in
            zip(ts.tolist(), preds_price.tolist(), targs_price.tolist())]
    diag = simulate_diagnostics(preds, targs, prep, start_row, thresholds=thresholds)
    return {
        PREDICTIONS_FILE: _csv_text(["timestep", "target", "prediction", "error"], rows),
        DIAGNOSTICS_FILE: json.dumps(diag.to_dict(), indent=2),
    }, f"simulated {H} steps -> {os.path.join(args.out, PREDICTIONS_FILE)}", EXIT_OK


def cmd_sweep(args, frame):
    def parse_axis(text):
        return tuple(parse_lag_range(t, len(frame)) for t in text.split(",") if t.strip())

    d_u_axis = parse_axis(args.input_delays)
    d_y_axis = parse_axis(args.feedback_delays)
    try:
        neurons = tuple(int(t) for t in args.neurons.split(",") if t.strip())
    except ValueError:
        raise ValidationError(f"bad neuron axis {args.neurons!r}: want integers") from None

    grid = SweepGrid(d_u_axis, d_y_axis, neurons,
                     _from_fields(args, TrainParams), args.seed)
    rows = run_sweep(grid, frame, args.exo_channels.split(","), args.target_channel,
                     jobs=args.jobs)
    best = select_best(rows)

    chosen = {
        "input_delays": list(best.d_u),
        "feedback_delays": list(best.d_y),
        "neurons": best.n_hidden,
        "r_value": best.r_value,
        "performance": best.performance,
        "xcorr_within_bounds": best.xcorr_within_bounds,
        "warning": best.warning,
    }
    return {
        SWEEP_CSV_FILE: _csv_text([f.name for f in dataclasses.fields(SweepRow)],
                                  map(dataclasses.astuple, rows)),
        SWEEP_JSON_FILE: json.dumps([r.to_dict() for r in rows], indent=2),
        CHOSEN_CONFIG_FILE: json.dumps(chosen, indent=2),
    }, (f"swept {len(rows)} configurations; best: d_u={best.d_u} "
        f"d_y={best.d_y} N={best.n_hidden} R={best.r_value:.5f}"), EXIT_OK


def cmd_eval(args, frame):
    net, prep = load_model(args.model, frame)
    diag = evaluate_open(net, prep, thresholds=_from_fields(args, VerdictThresholds))
    verdict = "accept" if diag.accepted else "reject"
    return ({DIAGNOSTICS_FILE: json.dumps(diag.to_dict(), indent=2)},
            f"eval: R={diag.r_value:.5f} divergence={diag.max_divergence_pct:.3f}% "
            f"mse={diag.mse:.3e} verdict={verdict}",
            EXIT_OK if diag.accepted else EXIT_REJECTED)


# (name, help, add-options function, handler) of every subcommand; a handler
# takes (args, frame) and returns ({name: text} files, summary line, exit code)
COMMANDS = (
    ("train", "train a model on an OHLCV CSV", _add_train_options, cmd_train),
    ("simulate", "closed-loop multi-step simulation", _add_simulate_options, cmd_simulate),
    ("sweep", "grid search over delays and neuron counts", _add_sweep_options, cmd_sweep),
    ("eval", "open-loop diagnostics for a trained model", _add_eval_options, cmd_eval),
)


def _build_parser(argv=()):
    """The parser for ``argv``, with options only for the command that runs.

    The other commands keep an empty subparser, so usage still lists all
    four; ``--help``, ``--version`` or an unknown name get the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="narxlm",
        description="NARX forecaster: Levenberg-Marquardt training, "
                    "closed-loop simulation, diagnostics, and delay/neuron sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    running = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    for name, summary, add_options, handler in COMMANDS:
        p = sub.add_parser(name, help=summary)
        if running in (None, name):
            add_options(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        frame, digest = _load_frame(args)
        files, summary, code = args.func(args, frame)
        _write_outputs(args, digest, files)
        print(summary)
        return code
    except tuple(kind for kind, _ in ERROR_EXITS) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
