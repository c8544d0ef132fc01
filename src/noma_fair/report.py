"""Result aggregation and CSV/JSON artifact emission.

The CSV contract is the deliverable; plotting is left to external tools.
Every CSV has the exact header

    alpha,beta,gamma_s_db,gamma_w_db,strategy,metric,value,trials,stderr

rows sorted by (alpha, beta, strategy, metric) with the link SINRs as final
tie-breakers, and all floats printed with 9 significant digits, which makes
output byte-stable and round-trippable.  A JSON mirror (array of objects,
same rows and precision) accompanies every CSV for programmatic consumers.

A row set is sorted once and each distinct value of a column formatted
once; both artifacts are written from that one rendering.  The JSON mirror
is written as text directly, with the bytes ``json.dump(indent=2)`` gives
for the CSV cells parsed back.  The row-by-row writers it replaces are kept
as the reference in ``tests/_oracles.py``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .allocator import gate, split
from .bounds import beta_star
from .fairness import FairnessConfig
from .rates import Strategy, db_to_linear

__all__ = [
    "METRIC_NAMES",
    "CSV_HEADER",
    "BETA_STAR_TOKEN",
    "ResultRow",
    "format_value",
    "sort_rows",
    "emit_delta_sweep",
    "emit_campaign_csv",
    "emit_campaign_json",
    "emit_artifacts",
    "parse_campaign_csv",
]

# The full metric vocabulary appearing in artifacts.
METRIC_NAMES = (
    "t_alpha",
    "mur_strong",
    "mur_weak",
    "mur_oma",
    "mean_asr",
    "delta_s",
    "delta_lb",
    "delta_ub",
    "msd_satisfied",
)

CSV_HEADER = ("alpha", "beta", "gamma_s_db", "gamma_w_db", "strategy", "metric", "value", "trials", "stderr")

# Sweep beta entries may use this token; it resolves per link to a value
# just inside the admissible imperfection range, beta_star * (1 - 1e-9),
# since the feasible interval is empty at beta_star exactly.
BETA_STAR_TOKEN = "beta_star"
_BETA_STAR_MARGIN = 1e-9


@dataclass(frozen=True)
class ResultRow:
    """One (sweep point, strategy, metric) aggregate."""

    alpha: float
    beta: float
    gamma_s_db: Optional[float]
    gamma_w_db: Optional[float]
    strategy: str
    metric: str
    value: float
    trials: int
    stderr: float


def format_value(value: float) -> str:
    """Canonical 9-significant-digit float rendering."""
    return format(float(value), ".9g")


def _sort_key(row: ResultRow):
    return (
        row.alpha,
        row.beta,
        row.strategy,
        row.metric,
        row.gamma_s_db if row.gamma_s_db is not None else -math.inf,
        row.gamma_w_db if row.gamma_w_db is not None else -math.inf,
    )


def sort_rows(rows: Sequence[ResultRow]) -> list[ResultRow]:
    return sorted(rows, key=_sort_key)


def emit_delta_sweep(
    links_db: Sequence[tuple[float, float]],
    betas: Sequence[Union[float, str]],
    alphas: Sequence[float],
    tau: float = FairnessConfig.tau,
    solver: Strategy = Strategy.OPTIMAL,
) -> list[ResultRow]:
    """Per-(alpha, beta, link) power-split rows.

    ``links_db`` holds (gamma_s_db, gamma_w_db) pairs.  Each point gets
    delta_lb, delta_ub and msd_satisfied rows, plus a delta_s row whenever
    the solver admits the pair.  ``betas`` entries may be numeric or the
    :data:`BETA_STAR_TOKEN` string.  ``solver`` is Strategy.OPTIMAL or
    SUBOPTIMAL.  A repeated alpha, beta entry or link is rejected.
    """
    links_db, betas, alphas = [tuple(link) for link in links_db], list(betas), list(alphas)
    if not links_db or not betas or not alphas:
        raise ValueError("links, betas and alphas must all be non-empty")
    for name, axis in (("alpha", alphas), ("beta entry", betas), ("link", links_db)):
        if len(set(axis)) < len(axis):  # a repeated entry would repeat every row it produces
            raise ValueError(f"repeated {name} {next(x for k, x in enumerate(axis) if x in axis[:k])!r}")
    if solver not in (Strategy.OPTIMAL, Strategy.SUBOPTIMAL):
        raise ValueError(f"solver must be optimal or suboptimal, got {solver!r}")
    linear = np.array([(db_to_linear(gs_db), db_to_linear(gw_db)) for gs_db, gw_db in links_db])
    gs, gw = linear[:, 0], linear[:, 1]
    star = beta_star(gs, gw)
    fair = [FairnessConfig(alpha=alpha, tau=tau) for alpha in alphas]
    misordered = np.flatnonzero(gs < gw).tolist()
    # Every link is gated at every beta entry at once; a token entry gives
    # each link its own beta and skips links with beta_star <= 0.
    skip, beta = [], []
    for entry in betas:
        token = isinstance(entry, str)
        if token and entry != BETA_STAR_TOKEN:
            raise ValueError(f"unknown beta token {entry!r}")
        if misordered and not token:  # a numeric beta applies to every link, so each must be ordered
            gs_db, gw_db = links_db[misordered[0]]
            raise ValueError("strong/weak ordering violated: "
                             f"gamma_s {gs_db!r} dB < gamma_w {gw_db!r} dB")
        skip.append((star <= 0) & token)
        beta.append(np.where(skip[-1], 0.0, star * (1.0 - _BETA_STAR_MARGIN) if token else float(entry)))
    g = gate(gs, gw, np.array(beta))
    skip, beta, delta_lb = np.array(skip).tolist(), g.beta.tolist(), g.delta_lb.tolist()
    delta_ub, msd_satisfied = g.delta_ub.tolist(), g.criterion.satisfied.astype(float).tolist()
    deltas = np.stack([split(g, solver, cfg)[0] for cfg in fair], axis=1).tolist()  # entries x alphas x links
    # One decision per (beta entry, alpha), turned into per-link lists once.
    decisions = [
        (float(alpha), skip[e], beta[e], list(zip(delta_lb[e], delta_ub, msd_satisfied, delta_s)))
        for e in range(len(betas))
        for alpha, delta_s in zip(alphas, deltas[e])
    ]

    metrics = ("delta_lb", "delta_ub", "msd_satisfied", "delta_s")
    rows: list[ResultRow] = []
    for i, (gs_db, gw_db) in enumerate(links_db):
        link = (float(gs_db), float(gw_db), solver.value)
        for alpha, skip, beta, values in decisions:
            if not skip[i]:
                rows += [
                    ResultRow(alpha, beta[i], *link, metric, value, 1, 0.0)
                    for metric, value in zip(metrics, values[i])
                    if not math.isnan(value)  # no delta_s for a rejected pair
                ]
    return rows


# The JSON mirror's object for one row, written as json.dump(indent=2) would.
_JSON_OBJECT = "  {\n" + ",\n".join(f'    "{key}": %s' for key in CSV_HEADER) + "\n  }"
_TEXT_KEYS = ("strategy", "metric")


def _cell_texts(key: str, value) -> tuple[str, str]:
    """A cell's CSV text and the JSON text of what that CSV text parses back to."""
    if key in _TEXT_KEYS:
        return value, json.dumps(value)
    if key == "trials":
        text = str(int(value))
        return text, text
    if value is None:  # a campaign row's link SINRs
        return "", "null"
    text = format_value(value)
    return text, json.dumps(float(text))


def _render(rows: Sequence[ResultRow]) -> tuple[Iterator[tuple[str, ...]], Iterator[tuple[str, ...]]]:
    """The sorted rows' CSV cell texts and JSON value texts, row by row.

    Each distinct value of a column is formatted once.  A float zero (and
    None) is keyed by its repr: -0.0 and 0.0 hash alike but print "-0"
    and "0".  Refuses empty input, so no emitter touches disk for it.
    """
    if not rows:
        raise ValueError("no rows to emit")
    ordered = sort_rows(rows)
    csv_columns, json_columns = [], []
    for key in CSV_HEADER:
        values = list(map(attrgetter(key), ordered))
        memo_keys = values if key in _TEXT_KEYS else [v or repr(v) for v in values]
        texts = {k: _cell_texts(key, v) for k, v in dict(zip(memo_keys, values)).items()}
        csv_columns.append([texts[k][0] for k in memo_keys])
        json_columns.append([texts[k][1] for k in memo_keys])
    # Rows are zipped as they are written, so no row tuple outlives its write.
    return zip(*csv_columns), zip(*json_columns)


def _write_csv(cells: Iterator[tuple[str, ...]], path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(cells)
    return path


def _write_json(cells: Iterator[tuple[str, ...]], path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + _JSON_OBJECT % next(cells))
        fh.writelines(map((",\n" + _JSON_OBJECT).__mod__, cells))
        fh.write("\n]\n")
    return path


def emit_campaign_csv(rows: Sequence[ResultRow], path) -> Path:
    """Write sorted rows as UTF-8 CSV.  Refuses empty input before touching disk."""
    return _write_csv(_render(rows)[0], Path(path))


def emit_campaign_json(rows: Sequence[ResultRow], path) -> Path:
    """JSON mirror of the CSV: each object is a CSV row's cells, parsed back."""
    return _write_json(_render(rows)[1], Path(path))


def emit_artifacts(rows: Sequence[ResultRow], csv_path, json_path) -> tuple[Path, Path]:
    """Both artifacts of one row set from a single rendering."""
    csv_cells, json_cells = _render(rows)
    return _write_csv(csv_cells, Path(csv_path)), _write_json(json_cells, Path(json_path))


def _parse_cell(key: str, text: str):
    """A CSV cell's value: str, int for trials, float, or None if empty."""
    if key in _TEXT_KEYS:
        return text
    if key == "trials":
        return int(text)
    return float(text) if text else None


def parse_campaign_csv(path) -> list[ResultRow]:
    """Read back an emitted CSV; inverse of :func:`emit_campaign_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        return [
            ResultRow(**{key: _parse_cell(key, text) for key, text in zip(CSV_HEADER, rec)})
            for rec in reader
        ]
