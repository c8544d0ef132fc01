"""Command-line interface: single-pair analysis, sweeps, and campaigns.

SINRs cross this boundary in dB and are converted to linear ratios
immediately; every file the tool writes carries dB only in the dedicated
gamma columns.  All randomness flows from --seed; no wall clock or other
ambient entropy enters any code path, so identical invocations produce
byte-identical artifacts and --threads never changes output content.

Exit codes: 0 success, 2 usage or config error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .allocator import gate, served_rates, split
from .fairness import FairnessConfig, _require_alpha, alpha_throughput, utility
from .netsim import NetworkConfig, _campaign_table, _require_threads
from .rates import Strategy, _require_beta, _require_ordered, _require_positive_finite, db_to_linear, oma_rate
from .report import BETA_STAR_TOKEN, _require_distinct, _row_count, _sweep_table, emit_artifacts, format_value

__all__ = ["main", "build_parser", "parse_config_file", "ConfigError", "SETTINGS"]


class ConfigError(ValueError):
    """Malformed or unknown content in a config file."""


def _comma_list(item):
    """Parser of a comma list; ``item`` parses each nonblank entry.

    A list without entries is rejected, and so is an entry that repeats or
    prints like an earlier one (``1,1.0``), named as written: its rows would repeat.
    """

    def parse(text):
        parts = [part.strip() for part in text.split(",") if part.strip()]
        entries = [item(part) for part in parts]
        if not entries:
            raise ValueError(f"expected at least one value, got {text!r}")
        _require_distinct("entry", parts, entries)
        return entries

    return parse


def _strategy(text: str) -> Strategy:
    try:
        return Strategy(text)
    except ValueError:
        valid = ", ".join(s.value for s in Strategy)
        raise ValueError(f"unknown strategy {text!r}; valid: {valid}") from None


def _checked(convert, check):
    """Parser that converts its text and passes the value to the library's ``check``."""

    def parse(text):
        value = convert(text)
        check(value)
        return value

    return parse


_alpha = _checked(float, _require_alpha)
_beta = _checked(float, _require_beta)
_threads = _checked(int, _require_threads)
# A dB SINR whose linear ratio is positive and finite.
_sinr_db = _checked(float, lambda db: _require_positive_finite(f"the linear ratio of {db!r} dB", db_to_linear(db)))


_sinr_db_list = _comma_list(_sinr_db)
_alpha_list = _comma_list(_alpha)
_beta_list = _comma_list(_beta)
_sweep_beta_list = _comma_list(lambda text: text if text == BETA_STAR_TOKEN else _beta(text))


# The simulate settings, config key -> (parser, default); a network or solver
# setting is the config field of that name, parsed as its default's type.
# Config files, flag overrides, the campaign and the manifest all read this
# table; the README config table lists it.  Files are flat `key = value` lines
# with `#` comments; `version` is also accepted so that a manifest parses back.
SETTINGS = {
    **{
        f.name: (type(f.default), f.default)
        for f in fields(NetworkConfig) + fields(FairnessConfig)
        if f.name != "alpha"
    },
    "alphas": (_alpha_list, (1.0,)),
    "betas": (_beta_list, (0.01, 0.06)),
    "strategies": (_comma_list(_strategy), tuple(Strategy)),
    "threads": (_threads, None),  # the most workers; None: the CPUs this process may run on
}

# Settings that `simulate` also takes as flags, with their help texts.
_SIMULATE_FLAGS = {
    "seed": None,
    "trials": None,
    "strategies": "comma list of strategies",
    "alphas": "comma list of alpha sweep values",
    "betas": "comma list of beta sweep values",
    "threads": "most workers, the parent included; a worker is forked only for a share of at least "
    "one chunk budget of work (default: the CPUs this process may run on)",
}


def _parse(key: str, parse, text: str):
    """``parse(text)``; a ValueError is re-raised naming ``key``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Parse a flat key-value config file against :data:`SETTINGS`.

    Raises :class:`ConfigError` naming the offending key and line for any
    unknown or repeated key, malformed line, or unconvertible value.
    """
    parsed, first_line = {}, {}
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if (first := first_line.setdefault(key, lineno)) < lineno:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}, first set on line {first}")
        if key == "version":
            continue
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            parsed[key] = _parse(key, SETTINGS[key][0], value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return parsed


def _resolve_threads(flag_value: Optional[int]) -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus if flag_value is None else flag_value


def _format_config_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_format_config_value(v) for v in value)
    if isinstance(value, Strategy):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_run(table, paths: tuple[Path, Path, Path], settings: dict, command: str) -> int:
    """Write a run's CSV and JSON artifacts and its key-value manifest, and
    say so.  Re-running the manifest's recorded command reproduces the
    artifacts byte-exactly."""
    csv_path, json_path, manifest_path = paths
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    emit_artifacts(table, csv_path, json_path)
    umath = np._core._multiarray_umath  # NumPy's runtime CPU data
    found = " ".join(target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target))
    lines = [
        "# noma-fair run manifest",
        f"# reproduce: {command}",
        f"# artifacts: {csv_path.name} {json_path.name}",
        f"# numpy {np.__version__}; SIMD baseline: {' '.join(umath.__cpu_baseline__)}; dispatch on this CPU: {found}",
        f"version = {__version__}",
        *(f"{key} = {_format_config_value(settings[key])}" for key in sorted(settings)),
    ]
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for path in paths:
        print(f"wrote {path}")
    return 0


# The flag (argparse dest) that fixes each sweep axis, and its default.  On the swept
# axis a flag may hold only its default; off it, a flag without a default is required.
_SWEEP_FIXED = {"alpha": ("alphas", "1"), "beta": ("betas", "0"),
                "gamma-s": ("gamma_s_db", None), "gamma-w": ("gamma_w_db", None)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-fair",
        description=(
            "Alpha-fair power allocation for 2-user downlink NOMA pairs under "
            "imperfect SIC, with a Monte Carlo cellular campaign runner."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="analyze a single strong/weak pair")
    pair.add_argument("--gamma-s-db", type=float, required=True, help="strong user SINR in dB")
    pair.add_argument("--gamma-w-db", type=float, required=True, help="weak user SINR in dB")
    pair.add_argument("--beta", type=float, required=True, help="SIC imperfection in [0, 1]")
    pair.add_argument("--alpha", type=float, required=True, help="fairness exponent >= 0")
    pair.add_argument("--json", type=Path, default=None, help="also write the report as JSON")

    sweep = sub.add_parser("sweep", help="sweep one axis and emit power-split rows")
    sweep.add_argument("--axis", choices=["alpha", "beta", "gamma-s", "gamma-w"], required=True)
    sweep.add_argument(
        "--values",
        required=True,
        help="comma list of axis values; beta axis accepts the literal beta_star",
    )
    sweep.add_argument("--alphas", default=_SWEEP_FIXED["alpha"][1], help="fixed alpha grid when axis != alpha")
    sweep.add_argument(
        "--betas",
        default=_SWEEP_FIXED["beta"][1],
        help="fixed beta grid when axis != beta (beta_star accepted)",
    )
    sweep.add_argument("--gamma-s-db", type=float, default=None)
    sweep.add_argument("--gamma-w-db", type=float, default=None)
    sweep.add_argument("--out", type=Path, required=True, help="output base path (writes .csv/.json)")

    solvers = [Strategy.OPTIMAL.value, Strategy.SUBOPTIMAL.value]
    for cmd in (pair, sweep):
        cmd.add_argument("--tau", type=float, default=FairnessConfig.tau, help="sub-optimal ratio threshold")
        cmd.add_argument("--solver", choices=solvers, default=solvers[0])

    sim = sub.add_parser("simulate", help="run a Monte Carlo network campaign")
    sim.add_argument("--config", type=Path, default=None, help="key-value config file")
    for key, help_text in _SIMULATE_FLAGS.items():
        sim.add_argument(f"--{key}", default=None, help=help_text)
    sim.add_argument("--out-dir", type=Path, required=True)
    for cmd in (pair, sweep, sim):  # a value or comma list may start with a negative number
        cmd._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _pair_report(args) -> dict:
    """The link's facts and its decision, from the rules the campaign uses on arrays of size 1."""
    _require_ordered(args.gamma_s_db, args.gamma_w_db, " dB")
    gamma_s = db_to_linear(args.gamma_s_db)
    gamma_w = db_to_linear(args.gamma_w_db)
    g = gate([gamma_s], [gamma_w], args.beta)
    cfg = FairnessConfig(alpha=args.alpha, tau=args.tau)
    delta = split(g, Strategy(args.solver), cfg)
    crit = g.criterion
    paired = not math.isnan(delta[0])
    r_s_oma, r_w_oma = oma_rate(gamma_s), oma_rate(gamma_w)
    (r_s,), (r_w,) = served_rates(g, delta, r_s_oma, r_w_oma)
    report = {
        "gamma_s_db": args.gamma_s_db,
        "gamma_w_db": args.gamma_w_db,
        "beta": args.beta,
        "alpha": args.alpha,
        "tau": args.tau,
        "solver": args.solver,
        "delta_lb": float(g.delta_lb[0]),
        "delta_ub": float(g.delta_ub[0]),
        "msd_threshold": float(crit.msd_threshold[0]),
        "msd_satisfied": bool(crit.satisfied[0]),
        "beta_star": float(crit.beta_star[0]),
        "mode": "noma_paired" if paired else "oma_fallback",
        "rate_strong_oma": r_s_oma,
        "rate_weak_oma": r_w_oma,
    }
    if paired:
        report.update(delta_s=float(delta[0]), rate_strong_noma=float(r_s), rate_weak_noma=float(r_w))
    utility_sum = utility(r_s, args.alpha) + utility(r_w, args.alpha)
    report.update(utility_sum=float(utility_sum), t_alpha=alpha_throughput(r_s, r_w, args.alpha))
    return report


def _cmd_pair(args) -> int:
    report = _pair_report(args)
    for key, value in report.items():
        print(f"{key:>18}: {format_value(value) if isinstance(value, float) else value}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_sweep(args) -> int:
    axis_parse = {"alpha": _alpha_list, "beta": _sweep_beta_list}.get(args.axis, _sinr_db_list)
    axis_values = _parse("values", axis_parse, args.values)
    # The four axes; the swept one holds the parsed values, each other one its fixed value.
    grid = {
        "alpha": _parse("alphas", _alpha_list, args.alphas),
        "beta": _parse("betas", _sweep_beta_list, args.betas),
        "gamma-s": [args.gamma_s_db],
        "gamma-w": [args.gamma_w_db],
    }
    for key, (dest, default) in _SWEEP_FIXED.items():
        flag, given = "--" + dest.replace("_", "-"), getattr(args, dest) != default
        if key == args.axis and given:
            raise ValueError(f"{flag} conflicts with --axis {key}, which takes its values from --values")
        if key != args.axis and not given and default is None:
            raise ValueError(f"{flag} is required for axis {args.axis}")
    grid[args.axis] = axis_values

    links = list(product(grid["gamma-s"], grid["gamma-w"]))
    table = _sweep_table(links, grid["beta"], grid["alpha"], tau=args.tau, solver=Strategy(args.solver))
    if not _row_count(table):
        raise ValueError("sweep produced no rows (all links infeasible at beta_star)")
    # Artifacts are <out>.csv, <out>.json and <out>.manifest.txt; a dot in <out> is kept.
    name = args.out.stem if args.out.suffix == ".csv" else args.out.name
    keys = ("axis", "values", "alphas", "betas", "gamma_s_db", "gamma_w_db", "tau", "solver")
    settings = {key: getattr(args, key) for key in keys}
    settings.update(alphas=grid["alpha"], betas=grid["beta"])
    command = "noma-fair sweep " + " ".join(
        f"--{key.replace('_', '-')} {shlex.quote(str(getattr(args, key)))}"
        for key in (*keys, "out")
        if getattr(args, key) is not None
    )
    paths = tuple(args.out.with_name(name + ext) for ext in (".csv", ".json", ".manifest.txt"))
    return _write_run(table, paths, settings, command)


def _cmd_simulate(args) -> int:
    settings = {}
    if args.config is not None:
        settings = parse_config_file(args.config)
    for key in _SIMULATE_FLAGS:
        if getattr(args, key) is not None:
            settings[key] = _parse(key, SETTINGS[key][0], getattr(args, key))
    values = {key: settings.get(key, default) for key, (_, default) in SETTINGS.items()}
    values["threads"] = _resolve_threads(values["threads"])

    cfg = NetworkConfig(**{f.name: values[f.name] for f in fields(NetworkConfig)})
    sweep = [(a, b) for a in values["alphas"] for b in values["betas"]]
    table = _campaign_table(cfg, sweep, values["strategies"], tau=values["tau"], threads=values["threads"])

    out_dir = args.out_dir
    paths = (out_dir / "campaign.csv", out_dir / "campaign.json", out_dir / "manifest.txt")
    command = shlex.join(["noma-fair", "simulate", "--config", str(paths[2]), "--out-dir", str(out_dir)])
    return _write_run(table, paths, values, command)


_COMMANDS = {"pair": _cmd_pair, "sweep": _cmd_sweep, "simulate": _cmd_simulate}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key in ("gamma_s_db", "gamma_w_db"):  # the SINR flags of pair and sweep
            if getattr(args, key, None) is not None:
                _parse(key, _sinr_db, getattr(args, key))
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
