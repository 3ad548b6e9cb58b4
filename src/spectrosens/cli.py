"""Command-line interface: single-point evaluation, parameter sweeps with CSV
output, and preset figure packs with gnuplot scripts.

Determinism contract: identical configuration produces byte-identical CSV
output — grid points are pure functions of the configuration, a sweep row
equals ``run_point`` on its configuration, and rows are written in grid
order.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from .errors import POINT_ERRORS
from .params import default_config, from_config
from .pipeline import ROUTES, evaluate_point, evaluate_points

CSV_COLUMNS = [
    "detuning_mhz", "rate_a_mhz", "rate_b_mhz", "density_per_m3",
    "s_plus_m2", "s_minus_m2", "sigma_plus_ratio", "sigma_minus_ratio",
    "sens_full", "sens_intensity", "sens_phase", "sens_psn",
    "regime", "status",
]

# sweep parameter -> the configuration keys it sets
SWEEP_PARAMS = {
    "detuning": ("detuning_a_mhz",),
    "rate": ("rate_a_mhz", "rate_b_mhz"),
    "rate_A": ("rate_a_mhz",),
    "rate_B": ("rate_b_mhz",),
    "density": ("density_per_m3",),
}

EXIT_OK, EXIT_COMPUTE, EXIT_USAGE = 0, 1, 2

# Grid rows evaluated in one stacked pass, which bounds a pass's memory:
# without chunks a 201 x 201 grid would hold ~1.8 GB of tilted 16x16
# stacks.  A 400-row full-route grid (20 detunings x 20 rates) on a 2-core
# Xeon VM, by chunk size (1, 10, 25, 50, 100, 200, 400 rows): CPU time per
# row 1.66, 0.68, 0.63, 0.62, 0.62, 0.60, 0.58 ms (fastest of 18 runs);
# traced peak memory 0.4, 1.4, 3.0, 5.6, 10.9, 21.5, 42.6 MiB.  Past ~25
# rows the eigensolves, whose cost per matrix stacking does not change,
# set the time.
SWEEP_CHUNK = 100

# Most rows (the product of the axis counts) a sweep accepts.  All of a
# grid's rows are held at once, about 0.9 kB per row, and a row of a
# 1 000-row full-route grid on a 2-core Xeon VM takes ~0.5 ms of wall time
# for ~0.7 ms of CPU time, its pass's eigensolve running on both cores:
# 10^6 rows are ~0.9 GB and under ten minutes.
# A larger grid is a bad axis spec, found before any axis is allocated,
# not numpy's allocation failure.
_MAX_GRID_ROWS = 10**6


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return "%.12g" % value


def _json_value(value):
    """A point record value as strict JSON takes it: a non-finite number
    in the spelling of a CSV cell."""
    if isinstance(value, str) or np.isfinite(value):
        return value
    return _fmt(value)


def _error_json(exc: Exception, **extra) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc),
                       **extra})


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    config = default_config()
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        config.update(loaded)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config[key] = value
    return config


def _axis(spec: str):
    """Parse an axis spec 'param,scale,min,max,count' into (keys, spacing,
    (min, max, count)), where ``spacing(min, max, count)`` makes the axis
    values; nothing is allocated yet."""
    parts = spec.split(",")
    if len(parts) != 5:
        raise ValueError(
            "axis spec must be param,scale,min,max,count "
            "(e.g. detuning,linear,-100,100,201)")
    param, scale = parts[0], parts[1]
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; "
                         f"choose from {sorted(SWEEP_PARAMS)}")
    low, high, count = float(parts[2]), float(parts[3]), int(parts[4])
    if count < 2:
        raise ValueError("axis count must be at least 2")
    if not low < high:
        raise ValueError("axis min must be below max")
    if not np.isfinite(high - low):
        raise ValueError("axis span must be finite")
    if scale == "linear":
        spacing = np.linspace
    elif scale == "log":
        if low <= 0:
            raise ValueError("log axis requires min > 0")
        spacing = np.geomspace
    else:
        raise ValueError(f"axis scale must be linear or log, got {scale!r}")
    return SWEEP_PARAMS[param], spacing, (low, high, count)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _record(result) -> dict:
    """The flat record of one evaluated point."""
    report = result.report
    record = {
        "s_plus_m2": result.s_plus,
        "s_minus_m2": result.s_minus,
        "sigma_plus_ratio": report.diagnostics["sigma_plus_ratio"],
        "sigma_minus_ratio": report.diagnostics["sigma_minus_ratio"],
        "sens_full": report.rel_full,
        "sens_intensity": report.rel_intensity,
        "sens_phase": report.rel_phase,
        "sens_psn": report.rel_psn,
        "regime": report.regime,
        "spectral_gap": result.spectral_gap,
        "fit_residual": result.expansion.fit_residual,
        "route": result.route,
    }
    if result.route_deviation is not None:
        record["route_deviation"] = result.route_deviation
    return record


def run_point(config: dict, route: str) -> dict:
    """Evaluate one configuration into a flat record."""
    return _record(evaluate_point(from_config(config), route=route))


def _evaluate_rows(configs, route):
    """CSV rows (dicts) of grid points, evaluated in one stacked pass; a
    failed point ends in its error row, and cannot abort the sweep."""
    outcomes = []
    for config in configs:
        try:
            outcomes.append(from_config(config))
        except POINT_ERRORS as exc:
            outcomes.append(exc)
    results = iter(evaluate_points([point for point in outcomes
                                    if not isinstance(point, Exception)],
                                   route))
    rows = []
    for config, outcome in zip(configs, outcomes):
        if not isinstance(outcome, Exception):
            outcome = next(results)
        row = {
            "detuning_mhz": config["detuning_a_mhz"],
            "rate_a_mhz": config["rate_a_mhz"],
            "rate_b_mhz": config["rate_b_mhz"],
            "density_per_m3": config["density_per_m3"],
        }
        if isinstance(outcome, Exception):
            row.update(dict.fromkeys(CSV_COLUMNS[4:12], float("nan")),
                       regime="Unclassified",
                       status=f"error:{type(outcome).__name__}")
        else:
            row.update(_record(outcome), status="ok")
        rows.append(row)
    return rows


def run_sweep(config: dict, axes, route: str, workers: int | None = None):
    """Evaluate a 1D or 2D grid over ``config`` and its defaults; returns
    its rows in grid order, ``SWEEP_CHUNK`` rows to a stacked pass.
    ``workers`` has no effect; it is accepted for compatibility."""
    config = dict(default_config(), **config)
    keys, spacings, bounds = zip(*(_axis(axis) for axis in axes))
    size = math.prod(count for *_, count in bounds)
    if size > _MAX_GRID_ROWS:
        raise ValueError(f"grid of {size} rows exceeds {_MAX_GRID_ROWS}")
    values = [spacing(*args) for spacing, args in zip(spacings, bounds)]
    # a configuration error that no grid value overrides fails the sweep
    # once, here; failures of grid values stay in their rows
    swept = set(itertools.chain(*keys))
    from_config({k: v for k, v in config.items() if k not in swept})
    # the last axis varies fastest and a later axis overrides; a chunk's
    # configurations are made when the chunk runs
    configs = (dict(config, **{name: float(value)
                               for names, value in zip(keys, combo)
                               for name in names})
               for combo in itertools.product(*values))
    rows = []
    while chunk := list(itertools.islice(configs, SWEEP_CHUNK)):
        rows += _evaluate_rows(chunk, route)
    return rows


def _write_table(rows, stream, columns):
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def write_csv(rows, stream):
    _write_table(rows, stream, CSV_COLUMNS)


# ---------------------------------------------------------------------------
# figure packs
# ---------------------------------------------------------------------------

FIGURE_IDS = ("fig1c", "fig2", "fig3")

_RATE_AXIS = "rate,log,1e-6,1e2,25"

_GNUPLOT_HEADER = "set datafile separator ','\nset key autotitle columnhead\n"

_RATE_LABELS = ("set logscale xy\n"
                "set xlabel 'reaction rate (MHz)'\n"
                "set ylabel 'relative sensitivity'\n")

# fig2 file name -> the CSV column it plots against detuning
_FIG2_COLUMNS = (("cross_section_plus", "s_plus_m2"),
                 ("cross_section_minus", "s_minus_m2"),
                 ("variance_ratio_plus", "sigma_plus_ratio"),
                 ("variance_ratio_minus", "sigma_minus_ratio"),
                 ("sensitivity", "sens_full"))


def emit_figure_pack(figure_id: str, config: dict, out_dir: str, route: str):
    """Write preset sweep CSVs plus a gnuplot script for one figure; returns
    the rows of every sweep run, failed ones included."""
    os.makedirs(out_dir, exist_ok=True)
    swept = []

    def sweep(point_config, axis):
        rows = run_sweep(point_config, [axis], route)
        swept.extend(rows)
        return rows

    def save(name, rows, columns):
        path = os.path.join(out_dir, name)
        with open(path, "w") as handle:
            _write_table(rows, handle, columns)
        return path

    if figure_id == "fig1c":
        rows = sweep(config, _RATE_AXIS)
        path = save("fig1c_sensitivity_vs_rate.csv", rows, CSV_COLUMNS)
        script = (_RATE_LABELS
                  + f"plot '{path}' using 2:9 with lines, "
                  f"'' using 2:10 with lines, '' using 2:11 with lines, "
                  f"'' using 2:12 with points\n")
    elif figure_id == "fig2":
        rows = sweep(config, "detuning,linear,-100,100,101")
        script = "set xlabel 'detuning (MHz)'\n"
        for name, column in _FIG2_COLUMNS:
            path = save(f"fig2_{name}.csv", rows, ["detuning_mhz", column])
            script += f"plot '{path}' using 1:2 with lines\npause -1\n"
    elif figure_id == "fig3":
        plots = []
        for detuning in (20.0, 40.0, 100.0):
            rows = sweep(dict(config, detuning_a_mhz=detuning), _RATE_AXIS)
            path = save(f"fig3_detuning_{int(detuning)}mhz.csv", rows,
                        CSV_COLUMNS)
            plots.append(f"'{path}' using 2:9 with lines")
        script = _RATE_LABELS + "plot " + ", ".join(plots) + "\n"
    else:
        raise ValueError(f"unknown figure id {figure_id!r}")

    path = os.path.join(out_dir, f"{figure_id}.gp")
    with open(path, "w") as handle:
        handle.write(_GNUPLOT_HEADER + script)
    return swept


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spectrosens",
        description="Sensitivity bounds for spectrophotometric concentration "
                    "measurements of reacting molecules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key")
        p.add_argument("--route", choices=ROUTES, default="full")
        p.add_argument("--out", help="output path (default: stdout)")

    point = sub.add_parser("point", help="evaluate a single configuration")
    common(point)

    sweep = sub.add_parser("sweep", help="evaluate a 1D/2D parameter grid")
    common(sweep)
    sweep.add_argument("--axis1", required=True,
                       metavar="PARAM,SCALE,MIN,MAX,COUNT")
    sweep.add_argument("--axis2", metavar="PARAM,SCALE,MIN,MAX,COUNT")

    figures = sub.add_parser("figures", help="emit preset figure data packs")
    common(figures)
    figures.add_argument("figure_id", choices=FIGURE_IDS)
    for p in (sweep, figures):
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility and without "
                            "effect: grid rows are evaluated in-process, "
                            f"{SWEEP_CHUNK} to a stacked pass, and a pass of "
                            "eight or more rows eigensolves on a second "
                            "thread regardless")
    return parser


def _messages(caught) -> list:
    return [str(warning.message) for warning in caught]


def _output(path):
    """Context manager for the ``--out`` file, or for stdout without one."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "point":
            # the one JSON document written carries the evaluation's warnings
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    record = run_point(config, args.route)
                except POINT_ERRORS as exc:
                    print(_error_json(exc, warnings=_messages(caught)),
                          file=sys.stderr)
                    return EXIT_COMPUTE
            record = {key: _json_value(value) for key, value in record.items()}
            record["warnings"] = _messages(caught)
            with _output(args.out) as stream:
                stream.write(json.dumps(record, indent=2, default=float,
                                        allow_nan=False) + "\n")
            return EXIT_OK

        if args.command == "sweep":
            axes = [args.axis1] + ([args.axis2] if args.axis2 else [])
            try:
                rows = run_sweep(config, axes, args.route, args.workers)
            except ValueError as exc:  # a bad axis spec; see _evaluate_rows
                print(_error_json(exc), file=sys.stderr)
                return EXIT_USAGE
            with _output(args.out) as stream:
                write_csv(rows, stream)
        else:
            rows = emit_figure_pack(args.figure_id, config, args.out or ".",
                                    args.route)
        failed = any(row["status"] != "ok" for row in rows)
        return EXIT_COMPUTE if failed else EXIT_OK
    except POINT_ERRORS + (OSError,) as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
