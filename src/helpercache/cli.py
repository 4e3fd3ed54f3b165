"""Command-line experiment runner: it parses, calls the library and writes.

Every subcommand resolves its parameters in three layers: built-in defaults,
then a JSON config file (`--config`), then explicit flags, with flags winning.
Each parameter is declared once, in the tables below; the macro experiment's
defaults, and `fit`'s synthetic trace, are read from `MacroConfig`.  Each
command calls one library function and formats what it returns, and `run`
writes that text: to stdout, or with `--out` to that file, a plot-ready
variant (not for `fit` or `place`) to `<out minus .csv>.plot.csv`, and a
manifest of the resolved parameters, seed, version, outputs and wall time to
`<out>.manifest.json`.  The same resolved parameters and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .d2d import D2DScenario, scaling_check, sweep_gamma1, sweep_r
from .errors import (
    ConfigError,
    DegenerateInstanceError,
    InfeasiblePlacementError,
    InsufficientDataError,
    InstanceTooLargeError,
    InvalidParameterError,
    IterationLimitError,
    UnboundedProblemError,
)
from .macro_sim import (
    PLACEMENT_POLICIES,
    MAX_HELPERS,
    MacroConfig,
    fit_synthetic_trace,
    place_points,
    sweep_capacity,
    sweep_helper_count,
)
from .placement_uncoded import Placement
from .popularity import check_samples, fit_zipf, read_trace_csv


def _parse_int(value) -> int:
    return int(str(value))


def _int_at_least(bound: int, most: int | None = None):
    def parse(value):
        out = _parse_int(value)
        if out < bound:
            raise ValueError(f"must be an integer >= {bound}")
        if most is not None and out > most:
            raise ValueError(f"must be at most {most}")
        return out

    return parse


_helper_count = _int_at_least(0, MAX_HELPERS)


def _parse_float(value) -> float:
    out = float(str(value))
    if not math.isfinite(out):
        raise ValueError("must be finite")
    return out


def _positive_float(value) -> float:
    out = _parse_float(value)
    if out <= 0:
        raise ValueError("must be > 0")
    return out


def _nonneg_float(value) -> float:
    out = _parse_float(value)
    if out < 0:
        raise ValueError("must be >= 0")
    return out


def _fraction(value) -> float:
    text = str(value).strip()
    if "/" in text:
        num, den = text.split("/", 1)
        out = float(num) / float(den)
    else:
        out = float(text)
    if not math.isfinite(out) or not (0.0 < out <= 1.0):
        raise ValueError("must be a fraction in (0, 1], e.g. 0.1 or 1/10")
    return out


def _choice(*options: str):
    def parse(value):
        text = str(value)
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text

    return parse


def _list_of(item_parser):
    def parse(value):
        if isinstance(value, (list, tuple)):
            items = list(value)
        else:
            items = [tok for tok in str(value).split(",") if tok.strip()]
        if not items:
            raise ValueError("needs at least 1 value(s)")
        return [item_parser(tok) for tok in items]

    return parse


class Param:
    def __init__(self, name: str, parse, default, help: str):
        self.name = name
        self.parse = parse
        self.default = default
        self.help = help


_COMMON = [
    Param("seed", _int_at_least(0), 0, "root seed for all random streams"),
    Param("out", str, None, "output file; stdout when omitted"),
]

# Every `_MACRO` entry but `reps` sets the `MacroConfig` field of its name,
# or of the name `_FIELD` gives it, and takes that field's default.
_FIELD = {"n": "n_users", "m": "catalog_size", "qos": "qos_s",
          "cell_radius": "cell_radius_m", "helper_radius": "helper_radius_m"}

_MACRO = [
    Param("n", _int_at_least(1), MacroConfig.n_users, "users in the cell"),
    Param("m", _int_at_least(1), MacroConfig.catalog_size, "catalog size"),
    Param("capacity", _int_at_least(0), MacroConfig.capacity, "files per helper cache"),
    Param("gamma", _nonneg_float, MacroConfig.gamma, "request Zipf exponent; fitted from a synthetic trace when omitted"),
    Param("trace_gamma", _nonneg_float, MacroConfig.trace_gamma, "exponent of the synthetic fitting trace"),
    Param("trace_samples", _int_at_least(2), MacroConfig.trace_samples, "synthetic fitting trace length"),
    Param("file_bits", _positive_float, MacroConfig.file_bits, "request size in bits"),
    Param("qos", _positive_float, MacroConfig.qos_s, "delivery deadline in seconds"),
    Param("cell_radius", _positive_float, MacroConfig.cell_radius_m, "cell radius in meters"),
    Param("helper_radius", _positive_float, MacroConfig.helper_radius_m, "helper service radius in meters"),
    Param("helper_mode", _choice("grid", "uniform"), MacroConfig.helper_mode, "helper layout"),
    Param("coded_groups", _int_at_least(1), MacroConfig.coded_groups, "popularity buckets for the coded LP"),
    Param("reps", _int_at_least(1), 100, "Monte Carlo replications"),
]

# The cell's entries that `place` shares with the macro commands.
_CELL = ("n", "file_bits", "cell_radius", "helper_radius", "helper_mode", "coded_groups")

_D2D = [
    Param("n", _int_at_least(1), 500, "users in the unit-square cell"),
    Param("m", _int_at_least(1), 1000, "catalog size"),
    Param("M", _int_at_least(0), 1, "files cached per device"),
    Param("gamma", _nonneg_float, 0.6, "request Zipf exponent"),
    Param("strategy", _choice("deterministic", "random-zipf"), "deterministic", "caching rule"),
    Param("gamma1", _nonneg_float, None, "caching Zipf exponent (random-zipf only)"),
    Param("reps", _int_at_least(1), 1000, "Monte Carlo replications"),
    Param("mode", _choice("auto", "analytic", "mc"), "auto", "evaluation mode"),
]

COMMANDS: dict[str, list[Param]] = {
    # `fit`'s synthetic trace is the one the macro commands fit without `--gamma`.
    "fit": [
        Param("trace", str, None, "request trace CSV (file_id,count); synthetic when omitted"),
        Param("synthetic_gamma", _nonneg_float, MacroConfig.trace_gamma, "exponent of the synthetic trace"),
        Param("samples", _int_at_least(2), MacroConfig.trace_samples, "synthetic trace length"),
        Param("m", _int_at_least(1), MacroConfig.catalog_size, "synthetic catalog size"),
    ],
    "place": [
        Param("policy", _choice(*PLACEMENT_POLICIES), "greedy", "placement policy"),
        Param("helpers", _helper_count, 4, "number of helpers"),
        Param("capacity", _int_at_least(0), 3, "files per helper cache"),
        Param("m", _int_at_least(1), 100, "catalog size"),
        Param("gamma", _nonneg_float, 0.8, "request Zipf exponent"),
        *[p for p in _MACRO if p.name in _CELL],
    ],
    "simulate-macro": [
        Param("policy", _choice("greedy", "most-popular", "coded"), "greedy", "placement policy"),
        Param("helpers", _helper_count, 32, "number of helpers"),
        *_MACRO,
    ],
    "sweep-helpers": [
        Param("counts", _list_of(_helper_count), [0, 2, 4, 8, 10, 16, 24, 32], "helper counts"),
        Param("policy", _choice("greedy", "most-popular", "coded"), "greedy", "placement policy"),
        *_MACRO,
    ],
    "sweep-capacity": [
        Param("capacities", _list_of(_int_at_least(0)), [0, 250, 500, 1000, 2000, 4000], "cache sizes"),
        Param("helpers", _helper_count, 32, "number of helpers"),
        Param("policy", _choice("greedy", "most-popular", "coded"), "greedy", "placement policy"),
        *[p for p in _MACRO if p.name != "capacity"],
    ],
    "simulate-d2d": [
        Param("r", _fraction, 0.1, "collaboration distance (cluster side)"),
        *_D2D,
    ],
    "sweep-r": [
        Param(
            "r_values",
            _list_of(_fraction),
            [1.0, 1 / 2, 1 / 4, 1 / 5, 1 / 10, 1 / 20, 1 / 25, 1 / 50],
            "collaboration distances (accepts 1/10 style fractions)",
        ),
        *_D2D,
    ],
    "sweep-gamma1": [
        Param(
            "gamma1_values",
            _list_of(_nonneg_float),
            [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
            "caching exponents",
        ),
        Param("r_values", _list_of(_fraction), [1 / 5, 1 / 10], "collaboration distances"),
        *[p for p in _D2D if p.name not in ("strategy", "gamma1", "mode")],
    ],
    "scaling-check": [
        Param("gamma", _nonneg_float, 1.5, "request Zipf exponent"),
        Param("n_values", _list_of(_int_at_least(1)), [250, 500, 1000, 2000], "cell populations"),
        Param("M", _int_at_least(0), 1, "files cached per device"),
        Param("scale", _positive_float, 50.0, "catalog files per log-unit of n"),
        Param("mode", _choice("analytic", "mc"), "analytic", "evaluation mode"),
        Param("reps", _int_at_least(1), 2000, "Monte Carlo replications (mc mode)"),
    ],
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  With `only`, just that subcommand is registered, which
    is all that parsing a call of it reads, under the full parser's usage line."""
    top = argparse.ArgumentParser(
        prog="helpercache",
        description="Cache placement and delivery experiments for helper and D2D networks.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # argparse names the choices from the registered subcommands; with `only`
    # the metavar keeps every command in the usage line.
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for command in COMMANDS if only is None else [only]:
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None, help="JSON file of parameter overrides")
        for param in _COMMON + COMMANDS[command]:
            sp.add_argument(
                f"--{param.name.replace('_', '-')}",
                dest=param.name,
                default=None,
                help=f"{param.help} (default: {param.default})",
            )
    return top


def resolve_params(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags (flags win)."""
    params = _COMMON + COMMANDS[args.command]
    known = {p.name for p in params}
    from_file: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"{args.config} is not UTF-8 text: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config", "the config file must hold a JSON object")
        for key, value in loaded.items():
            name = str(key).replace("-", "_")
            if name not in known:
                raise ConfigError(name, f"unknown field for command {args.command!r}")
            from_file[name] = value
    resolved = {}
    for param in params:
        raw = getattr(args, param.name)
        if raw is None and param.name in from_file:
            raw = from_file[param.name]
        if raw is None:
            resolved[param.name] = param.default
            continue
        try:
            resolved[param.name] = param.parse(raw)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(param.name, str(exc))
    return resolved


def _format(value) -> str:
    if value is None:
        return ""
    return str(value)


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _plot_text(x_label: str, y_label: str, rows: list[tuple]) -> str:
    head = f"# x: {x_label}\n# y: {y_label}\n"
    return head + _csv_text(["x", "y", "yerr", "series"], rows)


def _placement_json(placement: Placement) -> str:
    """Helper id (0-based, as a string key) to its sorted cached ranks."""
    doc = {
        str(h): (np.flatnonzero(column) + 1).tolist()
        for h, column in enumerate(placement.rho.T)
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _coded_rows(placement: Placement) -> list[tuple]:
    """Nonzero (file_rank, helper_id, rho) triples, rank-major order."""
    files, helpers = np.nonzero(placement.rho)
    values = placement.rho[files, helpers].astype(float).tolist()
    return list(zip((files + 1).tolist(), helpers.tolist(), values))


def _macro_config(p: dict) -> MacroConfig:
    """The command's `_MACRO` names set their fields; the fields it has no
    flag for keep their defaults."""
    names = {param.name for param in _MACRO if param.name != "reps"}
    return MacroConfig(**{_FIELD.get(k, k): v for k, v in p.items() if k in names})


def _run_fit(p: dict):
    if p["trace"] is not None:
        gamma_hat, m_hat = fit_zipf(read_trace_csv(p["trace"]))
    else:
        check_samples("samples", p["samples"])
        gamma_hat, m_hat = fit_synthetic_trace(
            p["synthetic_gamma"], p["m"], p["samples"], p["seed"]
        )
    lines = f"gamma_hat={_format(float(gamma_hat))}\nm_hat={m_hat}\n"
    if p["out"] is None:
        return lines, None
    sys.stdout.write(lines)  # `fit` prints its two lines with `--out` too.
    doc = {"gamma_hat": float(gamma_hat), "m_hat": int(m_hat)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", None


def _run_place(p: dict):
    point = (0, p["helpers"], p["capacity"])
    _, _, (placement,) = place_points([point], _macro_config(p), p["policy"], p["seed"])
    if p["policy"] == "coded":
        header = ["file_rank", "helper_id", "rho"]
        return _csv_text(header, _coded_rows(placement)), None
    return _placement_json(placement) + "\n", None


def _macro_text(p: dict, points, x_label: str):
    rows = [
        (int(pt.x), pt.mean_satisfied, pt.stderr, p["policy"], p["seed"]) for pt in points
    ]
    plot = [(row[0], row[1], row[2], p["policy"]) for row in rows]
    return (
        _csv_text(["x", "mean_satisfied", "stderr", "policy", "seed"], rows),
        _plot_text(x_label, "mean satisfied users", plot),
    )


def _run_helpers(p: dict, counts):
    config = _macro_config(p)
    points = sweep_helper_count(counts, config, p["policy"], p["reps"], p["seed"])
    return _macro_text(p, points, "number of helpers")


def _run_capacity(p: dict):
    points = sweep_capacity(
        p["capacities"], _macro_config(p), p["policy"], p["reps"], p["seed"],
        helper_count=p["helpers"],
    )
    return _macro_text(p, points, "cache capacity (files)")


def _d2d_scenario(p: dict, r: float, strategy: str, gamma1) -> D2DScenario:
    return D2DScenario(
        n=p["n"], m=p["m"], M=p["M"], r=r, gamma=p["gamma"],
        strategy=strategy, gamma1=gamma1,
    )


def _d2d_text(rows, x_label: str, plot_rows):
    table = [
        (row.r, row.gamma, row.gamma1, row.mean_active, row.stderr, row.K, row.mode)
        for row in rows
    ]
    header = ["r", "gamma", "gamma1", "mean_active", "stderr", "K", "mode"]
    plot = _plot_text(x_label, "mean active clusters", plot_rows)
    return _csv_text(header, table), plot


def _run_r(p: dict, r_values):
    scenario = _d2d_scenario(p, r_values[0], p["strategy"], p["gamma1"])
    pop = scenario.popularity()
    rows = sweep_r(scenario, r_values, pop, p["reps"], p["seed"], mode=p["mode"])
    plot = [(row.r, row.mean_active, row.stderr, f"gamma={row.gamma}") for row in rows]
    return _d2d_text(rows, "collaboration distance r", plot)


def _run_gamma1(p: dict):
    scenario = _d2d_scenario(p, p["r_values"][0], "random-zipf", p["gamma1_values"][0])
    pop = scenario.popularity()
    rows = sweep_gamma1(
        scenario, p["gamma1_values"], p["r_values"], pop, p["reps"], p["seed"]
    )
    plot = [(row.gamma1, row.mean_active, row.stderr, f"r={row.r}") for row in rows]
    return _d2d_text(rows, "caching exponent", plot)


def _run_scaling(p: dict):
    rows = scaling_check(
        gamma=p["gamma"],
        n_values=p["n_values"],
        M=p["M"],
        scale=p["scale"],
        reps=p["reps"],
        root_seed=p["seed"],
        mode=p["mode"],
    )
    table = [
        (row.n, row.m, row.r, row.K, row.mean_active, row.ratio, row.stderr, row.mode)
        for row in rows
    ]
    plot = _plot_text(
        "users in the cell",
        "active clusters per user",
        [(row.n, row.ratio, row.stderr / row.n, f"gamma={p['gamma']}") for row in rows],
    )
    header = ["n", "m", "r", "K", "mean_active", "ratio", "stderr", "mode"]
    return _csv_text(header, table), plot


# Each runner returns the command's primary text and its plot text, or None.
_RUNNERS = {
    "fit": _run_fit,
    "place": _run_place,
    "simulate-macro": lambda p: _run_helpers(p, [p["helpers"]]),
    "sweep-helpers": lambda p: _run_helpers(p, p["counts"]),
    "sweep-capacity": _run_capacity,
    "simulate-d2d": lambda p: _run_r(p, [p["r"]]),
    "sweep-r": lambda p: _run_r(p, p["r_values"]),
    "sweep-gamma1": _run_gamma1,
    "scaling-check": _run_scaling,
}


def _check_out(path: str) -> None:
    """Refuse an output path that is a directory, or whose directory does
    not exist or cannot be written."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError("out", f"{path} is a directory")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise ConfigError("out", f"cannot write to directory {folder}")


def run(args: argparse.Namespace) -> int:
    """Run the command and write its text: to stdout, or with `--out` to that
    file, its plot beside it, and then the manifest.

    The one exception is `fit` with `--out`, whose runner prints its two
    lines to stdout before returning its JSON.  An `--out` that cannot be
    written is refused before the run (`ConfigError`, exit 2)."""
    params = resolve_params(args)
    out = params["out"]
    if out is not None:
        _check_out(out)
    started = time.perf_counter()
    text, plot = _RUNNERS[args.command](params)
    if out is None:
        sys.stdout.write(text)
        return 0
    outputs = [out]
    if plot is not None:
        outputs.append((out[:-4] if out.endswith(".csv") else out) + ".plot.csv")
    for path, body in zip(outputs, (text, plot)):
        with open(path, "w", newline="") as fh:
            fh.write(body)
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": params["seed"],
        "parameters": params,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    with open(out + ".manifest.json", "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return run(args)
    except (ConfigError, InvalidParameterError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        InstanceTooLargeError,
        InfeasiblePlacementError,
        DegenerateInstanceError,
        IterationLimitError,
        UnboundedProblemError,
        OSError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
