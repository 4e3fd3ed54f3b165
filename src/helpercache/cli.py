"""Command-line experiment runner.

Every subcommand resolves its parameters in three layers: built-in defaults,
then a JSON config file (`--config`), then explicit flags, with flags winning.
Each parameter is declared once, in the tables below; the macro experiment's
defaults, and `fit`'s synthetic trace, are read from `MacroConfig`.
Runs are reproducible: the same resolved parameters and seed produce
byte-identical CSV output.  When `--out` is given, results go to that file,
a plot-ready variant goes to `<out minus .csv>.plot.csv`, and a manifest with
the resolved parameters, seed, package version, and wall time goes to
`<out>.manifest.json`; without `--out` the primary output prints to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
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
    check_placement_bytes,
    check_user_helper_pairs,
    experiment_popularity,
    make_placement,
    plan_deployment,
    sweep_capacity,
    sweep_helper_count,
)
from .placement_uncoded import HelperSpecs, Placement
from .popularity import (
    check_samples,
    fit_zipf,
    read_trace_csv,
    request_counts,
    zipf_model,
)
from .rng import stream


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


def _plot_text(x_label: str, y_label: str, rows: list[tuple]) -> str:
    head = [f"# x: {x_label}", f"# y: {y_label}", "x,y,yerr,series"]
    body = [",".join(_format(v) for v in row) for row in rows]
    return "\n".join(head + body) + "\n"


class _Emitter:
    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        self.started = time.perf_counter()
        self.written: list[str] = []

    def write(self, path: str, text: str):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        self.written.append(path)

    def primary(self, text: str, plot: str | None = None):
        out = self.params["out"]
        if out is None:
            sys.stdout.write(text)
            return
        self.write(out, text)
        if plot is not None:
            base = out[:-4] if out.endswith(".csv") else out
            self.write(base + ".plot.csv", plot)

    def finish(self) -> int:
        out = self.params["out"]
        if out is not None:
            manifest = {
                "command": self.command,
                "version": __version__,
                "seed": self.params["seed"],
                "parameters": self.params,
                "outputs": list(self.written),
                "wall_time_s": round(time.perf_counter() - self.started, 6),
            }
            with open(out + ".manifest.json", "w", newline="") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0


def _macro_config(p: dict) -> MacroConfig:
    """The command's `_MACRO` names set their fields; the fields it has no
    flag for keep their defaults."""
    names = {param.name for param in _MACRO if param.name != "reps"}
    return MacroConfig(**{_FIELD.get(k, k): v for k, v in p.items() if k in names})


def _macro_rows(points, policy: str, seed: int):
    return [
        (int(pt.x), pt.mean_satisfied, pt.stderr, policy, seed) for pt in points
    ]


_MACRO_HEADER = ["x", "mean_satisfied", "stderr", "policy", "seed"]
_D2D_HEADER = ["r", "gamma", "gamma1", "mean_active", "stderr", "K", "mode"]


def _d2d_rows(rows):
    return [
        (row.r, row.gamma, row.gamma1, row.mean_active, row.stderr, row.K, row.mode)
        for row in rows
    ]


def _run_fit(p: dict, emitter: _Emitter) -> int:
    if p["trace"] is not None:
        counts = read_trace_csv(p["trace"])
    else:
        check_samples("samples", p["samples"])
        model = zipf_model(p["synthetic_gamma"], p["m"])
        counts = request_counts(model, stream(p["seed"], "fit-trace"), p["samples"])
    gamma_hat, m_hat = fit_zipf(counts)
    sys.stdout.write(f"gamma_hat={_format(float(gamma_hat))}\n")
    sys.stdout.write(f"m_hat={m_hat}\n")
    if p["out"] is not None:
        payload = json.dumps(
            {"gamma_hat": float(gamma_hat), "m_hat": int(m_hat)}, indent=2, sort_keys=True
        )
        emitter.write(p["out"], payload + "\n")
    return emitter.finish()


def _run_place(p: dict, emitter: _Emitter) -> int:
    config = _macro_config(p)
    check_placement_bytes(p["policy"], p["m"], p["helpers"])
    check_user_helper_pairs(p["n"], p["helpers"])
    pop = experiment_popularity(config, p["seed"])
    _, graph = plan_deployment(p["helpers"], config, p["seed"])
    specs = HelperSpecs.uniform(p["helpers"], p["capacity"])
    placement = make_placement(p["policy"], graph, pop, specs, config)
    if p["policy"] == "coded":
        rows = _coded_rows(placement)
        emitter.primary(_csv_text(["file_rank", "helper_id", "rho"], rows))
    else:
        emitter.primary(_placement_json(placement) + "\n")
    return emitter.finish()


def _run_macro(p: dict, emitter: _Emitter, command: str) -> int:
    config = _macro_config(p)
    if command == "sweep-capacity":
        points = sweep_capacity(
            p["capacities"], config, p["policy"], p["reps"], p["seed"],
            helper_count=p["helpers"],
        )
        x_label = "cache capacity (files)"
    else:
        counts = p["counts"] if command == "sweep-helpers" else [p["helpers"]]
        points = sweep_helper_count(counts, config, p["policy"], p["reps"], p["seed"])
        x_label = "number of helpers"
    rows = _macro_rows(points, p["policy"], p["seed"])
    plot = _plot_text(
        x_label,
        "mean satisfied users",
        [(row[0], row[1], row[2], p["policy"]) for row in rows],
    )
    emitter.primary(_csv_text(_MACRO_HEADER, rows), plot)
    return emitter.finish()


def _d2d_scenario(p: dict, r: float, strategy: str, gamma1) -> D2DScenario:
    return D2DScenario(
        n=p["n"], m=p["m"], M=p["M"], r=r, gamma=p["gamma"],
        strategy=strategy, gamma1=gamma1,
    )


def _run_d2d(p: dict, emitter: _Emitter, command: str) -> int:
    if command == "sweep-gamma1":
        scenario = _d2d_scenario(p, p["r_values"][0], "random-zipf", p["gamma1_values"][0])
        pop = scenario.popularity()
        rows = sweep_gamma1(
            scenario, p["gamma1_values"], p["r_values"], pop, p["reps"], p["seed"]
        )
        plot_rows = [
            (row.gamma1, row.mean_active, row.stderr, f"r={row.r}") for row in rows
        ]
        x_label = "caching exponent"
    else:
        r_values = p["r_values"] if command == "sweep-r" else [p["r"]]
        scenario = _d2d_scenario(p, r_values[0], p["strategy"], p["gamma1"])
        pop = scenario.popularity()
        rows = sweep_r(scenario, r_values, pop, p["reps"], p["seed"], mode=p["mode"])
        plot_rows = [
            (row.r, row.mean_active, row.stderr, f"gamma={row.gamma}") for row in rows
        ]
        x_label = "collaboration distance r"
    plot = _plot_text(x_label, "mean active clusters", plot_rows)
    emitter.primary(_csv_text(_D2D_HEADER, _d2d_rows(rows)), plot)
    return emitter.finish()


def _run_scaling(p: dict, emitter: _Emitter) -> int:
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
    emitter.primary(_csv_text(header, table), plot)
    return emitter.finish()


def run(args: argparse.Namespace) -> int:
    params = resolve_params(args)
    emitter = _Emitter(args.command, params)
    if args.command == "fit":
        return _run_fit(params, emitter)
    if args.command == "place":
        return _run_place(params, emitter)
    if args.command in ("simulate-macro", "sweep-helpers", "sweep-capacity"):
        return _run_macro(params, emitter, args.command)
    if args.command in ("simulate-d2d", "sweep-r", "sweep-gamma1"):
        return _run_d2d(params, emitter, args.command)
    return _run_scaling(params, emitter)


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
