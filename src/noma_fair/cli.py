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
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .allocator import DECISIONS
from .fairness import FairnessConfig, alpha_throughput, utility
from .netsim import NetworkConfig, PathlossModel, run_campaign
from .rates import PairLink, Strategy, _require_positive_finite, db_to_linear, noma_rates, oma_rate
from .report import BETA_STAR_TOKEN, emit_artifacts, emit_delta_sweep

__all__ = ["main", "build_parser", "parse_config_file", "ConfigError", "SETTINGS"]


class ConfigError(ValueError):
    """Malformed or unknown content in a config file."""


def _comma_list(item):
    """Parser of a comma list; ``item`` parses each nonblank entry.

    A repeated entry (``1,1.0`` counts) is rejected: it would repeat every
    row it produces.
    """

    def parse(text):
        entries = [item(part.strip()) for part in text.split(",") if part.strip()]
        repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
        if repeated:
            raise ValueError(f"repeated entry {repeated[0]!r}")
        return entries

    return parse


def _strategy(text: str) -> Strategy:
    try:
        return Strategy(text)
    except ValueError:
        valid = ", ".join(s.value for s in Strategy)
        raise ValueError(f"unknown strategy {text!r}; valid: {valid}") from None


def _alpha(text: str) -> float:
    alpha = float(text)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    return alpha


def _beta(text: str) -> float:
    beta = float(text)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    return beta


def _sinr_db(text) -> float:
    """A dB SINR whose linear ratio is positive and finite."""
    value = float(text)
    _require_positive_finite(f"the linear ratio of {value!r} dB", db_to_linear(value))
    return value


_sinr_db_list = _comma_list(_sinr_db)
_alpha_list = _comma_list(_alpha)
_beta_list = _comma_list(_beta)
_sweep_beta_list = _comma_list(lambda text: text if text == BETA_STAR_TOKEN else _beta(text))


# Config key -> dataclass field, for the settings a campaign is built from.
_NETWORK_KEYS = {f.name: f for f in fields(NetworkConfig) if f.name != "pathloss"}
_PATHLOSS_KEYS = {
    "pathloss_" + ("model" if f.name == "name" else f.name): f for f in fields(PathlossModel)
}
_FAIRNESS_KEYS = {f.name: f for f in fields(FairnessConfig) if f.name != "alpha"}
_TYPES = {"float": float, "int": int, "str": str}

# The simulate settings, config key -> (parser, default).  Config files, the
# flag overrides, the campaign and the manifest all read this one table; the
# README config table lists it.  Files are flat `key = value` lines with `#`
# comments; `version` is also accepted so that a manifest parses back.
SETTINGS = {
    **{
        key: (_TYPES[f.type], f.default)
        for key, f in {**_NETWORK_KEYS, **_PATHLOSS_KEYS, **_FAIRNESS_KEYS}.items()
    },
    "alphas": (_alpha_list, (1.0,)),
    "betas": (_beta_list, (0.01, 0.06)),
    "strategies": (_comma_list(_strategy), tuple(Strategy)),
    "threads": (int, None),  # None: machine parallelism
}

# Settings that `simulate` also takes as flags, with their help texts.
_SIMULATE_FLAGS = {
    "seed": None,
    "trials": None,
    "strategies": "comma list of strategies",
    "alphas": "comma list of alpha sweep values",
    "betas": "comma list of beta sweep values",
    "threads": "default: machine parallelism",
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
    unknown key, malformed line, or unconvertible value.
    """
    parsed = {}
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
    return (os.cpu_count() or 1) if flag_value is None else max(1, flag_value)


def _format_config_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_format_config_value(v) for v in value)
    if isinstance(value, Strategy):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_run(rows, paths: tuple[Path, Path, Path], settings: dict, command: str) -> int:
    """Write a run's CSV and JSON artifacts and its key-value manifest, and
    say so.  Re-running the manifest's recorded command reproduces the
    artifacts byte-exactly."""
    csv_path, json_path, manifest_path = paths
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    emit_artifacts(rows, csv_path, json_path)
    lines = [
        "# noma-fair run manifest",
        f"# reproduce: {command}",
        f"# artifacts: {csv_path.name} {json_path.name}",
        f"version = {__version__}",
        *(f"{key} = {_format_config_value(settings[key])}" for key in sorted(settings)),
    ]
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for path in paths:
        print(f"wrote {path}")
    return 0


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
    sweep.add_argument("--alphas", default="1", help="fixed alpha grid when axis != alpha")
    sweep.add_argument(
        "--betas",
        default="0",
        help="fixed beta grid when axis != beta (beta_star accepted)",
    )
    sweep.add_argument("--gamma-s-db", type=float, default=None)
    sweep.add_argument("--gamma-w-db", type=float, default=None)
    sweep.add_argument("--out", type=Path, required=True, help="output base path (writes .csv/.json)")

    solvers = [Strategy.OPTIMAL.value, Strategy.SUBOPTIMAL.value]
    for cmd in (pair, sweep):
        cmd.add_argument("--tau", type=float, default=FairnessConfig.tau, help="sub-optimal ratio threshold")
        cmd.add_argument("--solver", choices=solvers, default=solvers[0])
        cmd.add_argument("--solver-tol", type=float, default=FairnessConfig.solver_tol)

    sim = sub.add_parser("simulate", help="run a Monte Carlo network campaign")
    sim.add_argument("--config", type=Path, default=None, help="key-value config file")
    for key, help_text in _SIMULATE_FLAGS.items():
        sim.add_argument(f"--{key}", default=None, help=help_text)
    sim.add_argument("--out-dir", type=Path, required=True)
    for cmd in (sweep, sim):  # a comma list may start with a negative number
        cmd._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _pair_report(args) -> dict:
    gamma_s = db_to_linear(args.gamma_s_db)
    gamma_w = db_to_linear(args.gamma_w_db)
    if gamma_s < gamma_w:
        raise ValueError("--gamma-s-db must be at least --gamma-w-db")
    link = PairLink(gamma_s=gamma_s, gamma_w=gamma_w, beta=args.beta)
    cfg = FairnessConfig(alpha=args.alpha, tau=args.tau, solver_tol=args.solver_tol)
    decision = DECISIONS[Strategy(args.solver)](link, cfg)
    crit = decision.diagnostics.criterion
    bounds = decision.diagnostics.bounds
    r_s_oma, r_w_oma = oma_rate(gamma_s), oma_rate(gamma_w)
    report = {
        "gamma_s_db": args.gamma_s_db,
        "gamma_w_db": args.gamma_w_db,
        "beta": args.beta,
        "alpha": args.alpha,
        "tau": args.tau,
        "solver": args.solver,
        "delta_lb": bounds.delta_lb,
        "delta_ub": bounds.delta_ub,
        "msd_threshold": crit.msd_threshold,
        "msd_satisfied": crit.satisfied,
        "beta_star": crit.beta_star,
        "mode": decision.mode.value,
        "rate_strong_oma": r_s_oma,
        "rate_weak_oma": r_w_oma,
    }
    if decision.allocation is not None:
        r_s, r_w = noma_rates(link, decision.allocation)
        report.update(
            delta_s=decision.allocation.delta_s,
            rate_strong_noma=r_s,
            rate_weak_noma=r_w,
            utility_sum=decision.objective,
            t_alpha=alpha_throughput(r_s, r_w, args.alpha),
        )
    else:
        # Both users are served OMA; report the fairness metric they achieve.
        report.update(
            utility_sum=float(utility(r_s_oma, args.alpha) + utility(r_w_oma, args.alpha)),
            t_alpha=alpha_throughput(r_s_oma, r_w_oma, args.alpha),
        )
    return report


def _cmd_pair(args) -> int:
    report = _pair_report(args)
    for key, value in report.items():
        if isinstance(value, float):
            print(f"{key:>18}: {value:.9g}")
        else:
            print(f"{key:>18}: {value}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_sweep(args) -> int:
    axis_parse = {"alpha": _alpha_list, "beta": _sweep_beta_list}.get(args.axis, _sinr_db_list)
    axis_values = _parse("values", axis_parse, args.values)
    if not axis_values:
        raise ValueError("--values produced an empty sweep")

    alphas = _parse("alphas", _alpha_list, args.alphas)
    betas = _parse("betas", _sweep_beta_list, args.betas)
    if args.axis == "alpha":
        alphas = axis_values
    elif args.axis == "beta":
        betas = axis_values

    def _require(name, value):
        if value is None:
            raise ValueError(f"--{name} is required for axis {args.axis}")
        return value

    if args.axis == "gamma-s":
        links = [(v, _require("gamma-w-db", args.gamma_w_db)) for v in axis_values]
    elif args.axis == "gamma-w":
        links = [(_require("gamma-s-db", args.gamma_s_db), v) for v in axis_values]
    else:
        links = [(_require("gamma-s-db", args.gamma_s_db), _require("gamma-w-db", args.gamma_w_db))]

    rows = emit_delta_sweep(
        links, betas, alphas, tau=args.tau, solver_tol=args.solver_tol, solver=Strategy(args.solver)
    )
    if not rows:
        raise ValueError("sweep produced no rows (all links infeasible at beta_star)")
    base = args.out
    if base.suffix == ".csv":
        base = base.with_suffix("")
    keys = ("axis", "values", "alphas", "betas", "gamma_s_db", "gamma_w_db", "tau", "solver",
            "solver_tol")
    settings = {key: getattr(args, key) for key in keys}
    settings.update(alphas=alphas, betas=betas)
    command = "noma-fair sweep " + " ".join(
        f"--{key.replace('_', '-')} {getattr(args, key)}"
        for key in (*keys, "out")
        if getattr(args, key) is not None
    )
    paths = (base.with_suffix(".csv"), base.with_suffix(".json"),
             base.with_name(base.name + ".manifest.txt"))
    return _write_run(rows, paths, settings, command)


def _cmd_simulate(args) -> int:
    settings = {}
    if args.config is not None:
        settings = parse_config_file(args.config)
    for key in _SIMULATE_FLAGS:
        if getattr(args, key) is not None:
            settings[key] = _parse(key, SETTINGS[key][0], getattr(args, key))
    values = {key: settings.get(key, default) for key, (_, default) in SETTINGS.items()}
    values["threads"] = _resolve_threads(values["threads"])

    pathloss = PathlossModel(**{f.name: values[key] for key, f in _PATHLOSS_KEYS.items()})
    cfg = NetworkConfig(
        pathloss=pathloss, **{f.name: values[key] for key, f in _NETWORK_KEYS.items()}
    )
    sweep = [(a, b) for a in values["alphas"] for b in values["betas"]]
    rows = run_campaign(
        cfg,
        sweep,
        values["strategies"],
        tau=values["tau"],
        solver_tol=values["solver_tol"],
        threads=values["threads"],
    )

    out_dir = args.out_dir
    paths = (out_dir / "campaign.csv", out_dir / "campaign.json", out_dir / "manifest.txt")
    command = f"noma-fair simulate --config {paths[2]} --out-dir {out_dir}"
    return _write_run(rows, paths, values, command)


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
