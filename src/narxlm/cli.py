"""Command-line front end: train, simulate, sweep, eval.

Every run writes a manifest recording the resolved parameters, input digest,
output files and environment (Python, numpy, BLAS and its thread setting);
all output files are written atomically (temp + rename) so a failed run
leaves no partial artifacts.

Exit codes: 0 success, 2 usage, 3 I/O, 4 validation/format, 5 divergence,
6 model/data mismatch, 7 verdict rejected.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from . import BLAS_THREADS_DEFAULTED, __version__
from .data import (
    CHANNELS,
    DEFAULT_EXO_CHANNELS,
    NormalizationSpec,
    load_ohlcv,
    parse_date,
)
from .diagnostics import VerdictThresholds
from .errors import (
    ConfigMismatchError,
    DataFormatError,
    DivergedError,
    InsufficientDataError,
    NarxError,
    UndefinedStatisticError,
    ValidationError,
)
from .network import NarxNetwork
from .pipeline import evaluate_open, fit, prepare, simulate, simulate_diagnostics
from .sweep import SweepGrid, parse_lag_range, run_sweep, select_best
from .training import TrainParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_DIVERGED = 5
EXIT_MISMATCH = 6
EXIT_REJECTED = 7

MODEL_FILE = "model.json"
TRAIN_REPORT_FILE = "train_report.json"
EPOCHS_FILE = "epochs.csv"
DIAGNOSTICS_FILE = "diagnostics.json"
PREDICTIONS_FILE = "predictions.csv"
SWEEP_CSV_FILE = "sweep.csv"
SWEEP_JSON_FILE = "sweep.json"
CHOSEN_CONFIG_FILE = "chosen_config.json"
MANIFEST_FILE = "manifest.json"


def _atomic_write(path, text: str):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


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


def _write_manifest(out_dir, command, params: dict, input_path, outputs):
    manifest = {
        "command": command,
        "parameters": params,
        "input_file": str(input_path),
        "input_sha256": _sha256(input_path),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(outputs),
        "environment": _environment(),
    }
    _atomic_write(os.path.join(out_dir, MANIFEST_FILE), json.dumps(manifest, indent=2))


def _add_common(p):
    p.add_argument("--csv", required=True, help="OHLCV CSV input file")
    p.add_argument("--from", dest="date_from", default=None,
                   help="first date (ISO or integer day index), inclusive")
    p.add_argument("--to", dest="date_to", default=None,
                   help="last date, inclusive")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_int_at_least(0), default=42)


def _add_train_params(p):
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--mu-dec", type=float, default=0.8)
    p.add_argument("--mu-inc", type=float, default=1.5)
    p.add_argument("--mu-max", type=float, default=1e10)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--goal", type=float, default=1e-5)
    p.add_argument("--min-grad", type=float, default=1e-7)
    p.add_argument("--max-fail", type=int, default=6)
    p.add_argument("--xi", type=float, default=0.9)
    p.add_argument("--restarts", type=int, default=10)


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse says "invalid int value" on a non-integer
    return parse


def _add_thresholds(p):
    p.add_argument("--r-min", type=float, default=0.99)
    p.add_argument("--divergence-max", type=float, default=10.0)
    p.add_argument("--mse-max", type=float, default=float("inf"))


def _train_params_from(args) -> TrainParams:
    return TrainParams(
        mu0=args.mu, mu_dec=args.mu_dec, mu_inc=args.mu_inc, mu_max=args.mu_max,
        epochs=args.epochs, goal=args.goal, min_grad=args.min_grad,
        max_fail=args.max_fail, xi=args.xi, restarts=args.restarts,
    )


def _thresholds_from(args) -> VerdictThresholds:
    return VerdictThresholds(args.r_min, args.divergence_max, args.mse_max)


def _load_frame(args):
    frame = load_ohlcv(args.csv)
    t_from = parse_date(args.date_from) if args.date_from else None
    t_to = parse_date(args.date_to) if args.date_to else None
    if t_from is not None or t_to is not None:
        frame = frame.restrict(t_from, t_to)
    return frame


def _exo_channels(args):
    """The exogenous channel names, after checking them and the target's."""
    exo = tuple(args.exo_channels.split(",")) if args.exo_channels else DEFAULT_EXO_CHANNELS
    for ch in exo + (args.target_channel,):
        if ch not in CHANNELS:
            raise ValidationError(
                f"unknown channel {ch!r}; valid channels: {', '.join(CHANNELS)}")
    if args.target_channel in exo:
        # with input lag 0 the target y(k) would be a regressor of itself
        raise ValidationError(
            f"target channel {args.target_channel!r} cannot be an exogenous channel")
    if len(set(exo)) != len(exo):
        raise ValidationError(f"exogenous channels repeat a name: {','.join(exo)}")
    return exo


def _add_train_options(p):
    _add_common(p)
    p.add_argument("--input-delays", default="0:1", help='lag set, e.g. "0:1"')
    p.add_argument("--feedback-delays", default="1", help='lag set, e.g. "1" or "1:2"')
    p.add_argument("--neurons", type=int, default=22)
    p.add_argument("--exo-channels", default=None,
                   help="comma-separated channel names (default open,high,low,volume)")
    p.add_argument("--target-channel", default="close")
    _add_train_params(p)
    _add_thresholds(p)


def _add_simulate_options(p):
    _add_common(p)
    p.add_argument("--model", required=True, help="model.json from a train run")
    p.add_argument("--horizon", type=int, default=100)
    _add_thresholds(p)


def _add_sweep_options(p):
    _add_common(p)
    p.add_argument("--input-delays", default="0:1",
                   help='comma-separated lag ranges, e.g. "0:1,2:5"')
    p.add_argument("--feedback-delays", default="1")
    p.add_argument("--neurons", default="10,22",
                   help="comma-separated neuron counts")
    p.add_argument("--exo-channels", default=None)
    p.add_argument("--target-channel", default="close")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes (>= 1)")
    _add_train_params(p)


def _add_eval_options(p):
    _add_common(p)
    p.add_argument("--model", required=True)
    _add_thresholds(p)


MODEL_KEYS = ("config", "weights", "normalization", "exo_channels", "target_channel")


def _load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read model: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"model is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("model document is not a JSON object")
    for key in MODEL_KEYS:
        if key not in doc:
            raise DataFormatError(f"model document has no {key!r}")
    try:
        net = NarxNetwork.from_dict(doc)
        norm_spec = NormalizationSpec.from_dict(doc["normalization"])
        exo_channels = tuple(doc["exo_channels"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFormatError(
            f"malformed model document: {type(exc).__name__} {exc}") from exc
    target_channel = doc["target_channel"]
    if not 0.0 < norm_spec.hi - norm_spec.lo < np.inf:
        raise DataFormatError("model normalization has no usable [lo, hi]")
    for ch in exo_channels + (target_channel,):
        if ch not in CHANNELS:
            raise ConfigMismatchError(f"model channel {ch!r} not present in OHLCV data")
        mn, mx = norm_spec.ranges.get(ch, (np.nan, np.nan))
        if not 0.0 < mx - mn < np.inf:
            raise DataFormatError(f"model normalization has no usable range for {ch!r}")
    if net.config.n_exo != len(exo_channels):
        raise ConfigMismatchError(
            f"model expects {net.config.n_exo} exogenous channels, "
            f"manifest lists {len(exo_channels)}")
    return net, norm_spec, exo_channels, target_channel


def cmd_train(args) -> int:
    params = _train_params_from(args)
    thresholds = _thresholds_from(args)
    exo = _exo_channels(args)
    frame = _load_frame(args)
    d_u = parse_lag_range(args.input_delays, len(frame))
    d_y = parse_lag_range(args.feedback_delays, len(frame))
    prep = prepare(frame, d_u, d_y, exo, args.target_channel)
    report = fit(prep, args.neurons, params, args.seed)
    diag = evaluate_open(report.network, prep, xi=params.xi, thresholds=thresholds)

    out = args.out
    os.makedirs(out, exist_ok=True)
    _atomic_write(os.path.join(out, MODEL_FILE),
                  report.network.to_json({
                      "normalization": prep.norm_spec.to_dict(),
                      "exo_channels": list(exo),
                      "target_channel": args.target_channel}))
    _atomic_write(os.path.join(out, TRAIN_REPORT_FILE),
                  json.dumps(report.to_dict(), indent=2))
    lines = ["epoch,train_objective,train_mse,val_mse,test_mse,grad_norm,lambda"]
    for r in report.records:
        lines.append(f"{r.epoch},{r.train_objective!r},{r.train_mse!r},"
                     f"{r.val_mse!r},{r.test_mse!r},{r.grad_norm!r},{r.lam!r}")
    _atomic_write(os.path.join(out, EPOCHS_FILE), "\n".join(lines) + "\n")
    _atomic_write(os.path.join(out, DIAGNOSTICS_FILE),
                  json.dumps(diag.to_dict(), indent=2))
    _write_manifest(out, "train", _manifest_params(args), args.csv,
                    [MODEL_FILE, TRAIN_REPORT_FILE, EPOCHS_FILE, DIAGNOSTICS_FILE])
    print(f"trained: stop={report.stop_reason} best_epoch={report.best_epoch} "
          f"val_mse={report.best_val_mse:.3e} R={diag.r_value:.5f} "
          f"divergence={diag.max_divergence_pct:.3f}% "
          f"verdict={'accept' if diag.accepted else 'reject'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    thresholds = _thresholds_from(args)
    net, norm_spec, exo_channels, target_channel = _load_model(args.model)
    frame = _load_frame(args)
    prep = prepare(frame, net.config.d_u, net.config.d_y, exo_channels, target_channel,
                   norm_spec=norm_spec)
    H = args.horizon
    if H < 0:
        raise ValidationError("horizon must be >= 0")
    priming = prep.dataset.first_usable_index
    if H > len(frame) - priming:
        raise InsufficientDataError(
            f"horizon {H} exceeds the {len(frame) - priming} rows after "
            f"{priming} priming row{'s' if priming > 1 else ''}")
    start_row = len(frame) - H
    out = args.out
    os.makedirs(out, exist_ok=True)
    lines = ["timestep,target,prediction,error"]
    if H > 0:
        ts, preds, targs = simulate(net, prep, start_row, H)
        # Python floats: numpy 2 writes np.float64(...) for a numpy scalar's repr
        for t, p, y in zip(ts.tolist(), preds.tolist(), targs.tolist()):
            lines.append(f"{t},{y!r},{p!r},{p - y!r}")
        diag = simulate_diagnostics(preds, targs, prep, start_row,
                                    thresholds=thresholds)
        diag_doc = diag.to_dict()
    else:
        diag_doc = {"note": "empty horizon", "accepted": True}
    _atomic_write(os.path.join(out, PREDICTIONS_FILE), "\n".join(lines) + "\n")
    _atomic_write(os.path.join(out, DIAGNOSTICS_FILE), json.dumps(diag_doc, indent=2))
    _write_manifest(out, "simulate", _manifest_params(args), args.csv,
                    [PREDICTIONS_FILE, DIAGNOSTICS_FILE])
    print(f"simulated {H} steps -> {os.path.join(out, PREDICTIONS_FILE)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    exo = _exo_channels(args)
    frame = _load_frame(args)
    target = args.target_channel

    def parse_axis(text):
        tokens = [t for t in text.split(",") if t.strip()]
        if not tokens:
            raise ValidationError("empty grid axis")
        return tuple(parse_lag_range(t, len(frame)) for t in tokens)

    d_u_axis = parse_axis(args.input_delays)
    d_y_axis = parse_axis(args.feedback_delays)
    try:
        neurons = tuple(int(t) for t in args.neurons.split(",") if t.strip())
    except ValueError:
        raise ValidationError(f"bad neuron axis {args.neurons!r}: want integers") from None
    if not neurons:
        raise ValidationError("empty neuron axis")

    grid = SweepGrid(d_u_axis, d_y_axis, neurons,
                     _train_params_from(args), args.seed)
    rows = run_sweep(grid, frame, exo, target, jobs=args.jobs)
    best = select_best(rows)

    out = args.out
    os.makedirs(out, exist_ok=True)
    header = ("input_delays,feedback_delays,neurons,performance,mse,r_value,"
              "xcorr_within_bounds,wall_time,diverged,warning")
    lines = [header]
    for r in rows:
        lines.append(",".join([
            "|".join(map(str, r.d_u)), "|".join(map(str, r.d_y)),
            str(r.n_hidden), repr(r.performance), repr(r.mse), repr(r.r_value),
            str(r.xcorr_within_bounds), f"{r.wall_time:.3f}",
            str(r.diverged), json.dumps(r.warning),
        ]))
    _atomic_write(os.path.join(out, SWEEP_CSV_FILE), "\n".join(lines) + "\n")
    _atomic_write(os.path.join(out, SWEEP_JSON_FILE),
                  json.dumps([r.to_dict() for r in rows], indent=2))
    chosen = {
        "input_delays": list(best.d_u),
        "feedback_delays": list(best.d_y),
        "neurons": best.n_hidden,
        "r_value": best.r_value,
        "performance": best.performance,
        "xcorr_within_bounds": best.xcorr_within_bounds,
        "warning": best.warning,
    }
    _atomic_write(os.path.join(out, CHOSEN_CONFIG_FILE), json.dumps(chosen, indent=2))
    _write_manifest(out, "sweep", _manifest_params(args), args.csv,
                    [SWEEP_CSV_FILE, SWEEP_JSON_FILE, CHOSEN_CONFIG_FILE])
    print(f"swept {len(rows)} configurations; best: d_u={best.d_u} "
          f"d_y={best.d_y} N={best.n_hidden} R={best.r_value:.5f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    net, norm_spec, exo_channels, target_channel = _load_model(args.model)
    frame = _load_frame(args)
    prep = prepare(frame, net.config.d_u, net.config.d_y, exo_channels, target_channel,
                   norm_spec=norm_spec)
    diag = evaluate_open(net, prep, thresholds=_thresholds_from(args))
    out = args.out
    os.makedirs(out, exist_ok=True)
    _atomic_write(os.path.join(out, DIAGNOSTICS_FILE),
                  json.dumps(diag.to_dict(), indent=2))
    _write_manifest(out, "eval", _manifest_params(args), args.csv,
                    [DIAGNOSTICS_FILE])
    verdict = "accept" if diag.accepted else "reject"
    print(f"eval: R={diag.r_value:.5f} divergence={diag.max_divergence_pct:.3f}% "
          f"mse={diag.mse:.3e} verdict={verdict}")
    return EXIT_OK if diag.accepted else EXIT_REJECTED


def _manifest_params(args) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# (name, help, add-options function, handler) of every subcommand
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
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DataFormatError, ValidationError, InsufficientDataError,
            UndefinedStatisticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConfigMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NarxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
