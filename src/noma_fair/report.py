"""Result aggregation and CSV/JSON artifact emission.

The CSV contract is the deliverable; plotting is left to external tools.
Every CSV has the exact header

    alpha,beta,gamma_s_db,gamma_w_db,strategy,metric,value,trials,stderr

rows sorted by (alpha, beta, strategy, metric) with the link SINRs as final
tie-breakers, and all floats printed with 9 significant digits, which makes
output byte-stable and round-trippable.  A JSON mirror (array of objects,
same rows and precision) accompanies every CSV for programmatic consumers.

Rows travel from the ``sweep`` and ``simulate`` producers to the artifacts
as one row table, a list per CSV_HEADER column, with :class:`ResultRow` as
its object view.  A table is sorted once and each distinct value of a
column formatted once; both artifacts are written from that one rendering.
The JSON mirror is written as text directly, with the bytes
``json.dump(indent=2)`` gives for the CSV cells parsed back.  The row-by-row
writers it replaces are kept as the reference in ``tests/_oracles.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
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
    "emit_delta_sweep",
    "emit_campaign_csv",
    "emit_campaign_json",
    "emit_artifacts",
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


def _table(rows: Sequence[ResultRow]) -> list[list]:
    """The row table of ``rows``: one list per :data:`CSV_HEADER` column."""
    return [list(map(attrgetter(key), rows)) for key in CSV_HEADER]


def _order(table: Sequence[list]) -> list[int]:
    """A row table's row indices sorted by (alpha, beta, strategy, metric), then the
    link SINRs, None before any number, -inf and NaN too; equal keys keep their order."""
    alpha, beta, gamma_s, gamma_w, strategy, metric = table[:6]
    sinr_keys = ([(v is not None, v) for v in column] if None in column else column for column in (gamma_s, gamma_w))
    keys = list(zip(alpha, beta, strategy, metric, *sinr_keys))
    return sorted(range(len(keys)), key=keys.__getitem__)


def _printed(value):
    """``value`` as the artifacts print it: a number (-0.0 as 0.0, which equals it) or a tuple's items."""
    if isinstance(value, tuple):
        return tuple(map(_printed, value))
    return format_value(value or 0.0) if isinstance(value, (int, float)) else value


def _require_distinct(name: str, given: Sequence, values: Sequence) -> None:
    """Reject a value that repeats or prints like an earlier one, whose rows
    would repeat key cells; both are named as ``given``."""
    first: dict = {}
    for i, key in enumerate(map(_printed, values)):
        if (k := first.setdefault(key, i)) < i:
            alike = "" if values[k] == values[i] else f", which prints like {given[k]!r} at 9 significant digits"
            raise ValueError(f"repeated {name} {given[i]!r}{alike}")


def _sweep_table(links_db, betas, alphas, tau: float, solver: Strategy) -> list[list]:
    """The row table of :func:`emit_delta_sweep`."""
    links_db, betas, alphas = [tuple(link) for link in links_db], list(betas), list(alphas)
    if not links_db or not betas or not alphas:
        raise ValueError("links, betas and alphas must all be non-empty")
    for name, axis in (("alpha", alphas), ("beta entry", betas), ("link", links_db)):
        _require_distinct(name, axis, axis)
    if solver not in (Strategy.OPTIMAL, Strategy.SUBOPTIMAL):
        raise ValueError(f"solver must be optimal or suboptimal, got {solver!r}")
    gs, gw = np.array([(db_to_linear(gs_db), db_to_linear(gw_db)) for gs_db, gw_db in links_db]).T
    links = np.array(links_db, dtype=float)
    star = beta_star(gs, gw)
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
    # A (links x beta entries x alphas x metrics) grid of values; a skipped
    # point and a rejected pair's delta_s (NaN) give no row.
    values = np.empty((len(links_db), len(betas), len(alphas), 4))
    values[..., 0] = g.delta_lb.T[..., None]
    values[..., 1] = g.delta_ub[:, None, None]
    values[..., 2] = g.criterion.satisfied[:, None, None]
    values[..., 3] = np.stack([split(g, solver, FairnessConfig(alpha=a, tau=tau)) for a in alphas]).T
    keep = ~np.isnan(values) & ~np.array(skip).T[..., None, None]
    link, entry, alpha, metric = np.nonzero(keep)
    n = len(link)
    return [np.array(alphas, dtype=float)[alpha].tolist(), g.beta[entry, link].tolist(), *links[link].T.tolist(),
            [solver.value] * n, np.array(("delta_lb", "delta_ub", "msd_satisfied", "delta_s"))[metric].tolist(),
            values[keep].tolist(), [1] * n, [0.0] * n]


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
    SUBOPTIMAL.  An alpha, beta entry or link that repeats or prints like
    an earlier one is rejected.  The object view of the sweep's row table.
    """
    return list(map(ResultRow, *_sweep_table(links_db, betas, alphas, tau, solver)))


# One row of each artifact, written as csv.writer and json.dump(indent=2)
# would; a JSON object after the first follows a ",\n".
_CSV_LINE = ",".join(["%s"] * len(CSV_HEADER)) + "\r\n"
_JSON_OBJECT = ",\n  {\n" + ",\n".join(f'    "{key}": %s' for key in CSV_HEADER) + "\n  }"
_TEXT_KEYS = ("strategy", "metric")


def _cell_formats(line: str) -> list[str]:
    """``line`` as one ``%s`` format per column, with the text before the cell (and
    after the last one), so that a row is its formatted cells joined with ""."""
    *before, after = line.split("%s")
    return [text + "%s" for text in before[:-1]] + [before[-1] + "%s" + after]


def _cell_texts(key: str, value) -> tuple[str, str]:
    """A cell's CSV text and the JSON text of what that CSV text parses back to."""
    if key in _TEXT_KEYS:  # quoted as csv.writer quotes a cell of a row
        csv.writer(line := io.StringIO()).writerow((value, ""))
        return line.getvalue()[: -len(",\r\n")], json.dumps(value)
    if key == "trials":
        text = str(int(value))
        return text, text
    if value is None:  # a campaign row's link SINRs
        return "", "null"
    text = format_value(value)
    parsed = float(text)  # json.dumps writes a finite float as its repr
    return text, repr(parsed) if math.isfinite(parsed) else json.dumps(parsed)


def _render(table: Sequence[list]) -> tuple[Iterator[str], Iterator[str]]:
    """The rows' CSV lines and JSON objects, sorted once (:func:`_order`).
    Each distinct value of a column is formatted once, with its line's text
    around it; a float zero (and None) is keyed by its repr, as -0.0 and 0.0
    hash alike but print "-0" and "0".  Refuses empty input, so no emitter
    touches disk for it."""
    if not table[0]:
        raise ValueError("no rows to emit")
    order = _order(table)
    permute = itemgetter(*order) if len(order) > 1 else tuple  # itemgetter(i) gives an item, not a tuple
    csv_columns, json_columns = [], []
    for key, values, csv_format, json_format in zip(CSV_HEADER, table, *map(_cell_formats, (_CSV_LINE, _JSON_OBJECT))):
        memo_keys = values if key in _TEXT_KEYS else [v or repr(v) for v in values]
        csv_texts, json_texts = {}, {}
        for k, v in dict(zip(memo_keys, values)).items():
            csv_text, json_text = _cell_texts(key, v)
            csv_texts[k], json_texts[k] = csv_format % csv_text, json_format % json_text
        memo_keys = permute(memo_keys)
        csv_columns.append(map(csv_texts.__getitem__, memo_keys))
        json_columns.append(map(json_texts.__getitem__, memo_keys))
    # Rows are joined as they are written, so no row outlives its write.
    return map("".join, zip(*csv_columns)), map("".join, zip(*json_columns))


def _write_csv(lines: Iterator[str], path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_LINE % CSV_HEADER)
        fh.writelines(lines)
    return path


def _write_json(objects: Iterator[str], path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[" + next(objects)[1:])  # the first object's "\n" without its ","
        fh.writelines(objects)
        fh.write("\n]\n")
    return path


def emit_campaign_csv(rows: Sequence[ResultRow], path) -> Path:
    """Write sorted rows as UTF-8 CSV.  Refuses empty input before touching disk."""
    return _write_csv(_render(_table(rows))[0], Path(path))


def emit_campaign_json(rows: Sequence[ResultRow], path) -> Path:
    """JSON mirror of the CSV: each object is a CSV row's cells, parsed back."""
    return _write_json(_render(_table(rows))[1], Path(path))


def emit_artifacts(table: Sequence[list], csv_path, json_path) -> tuple[Path, Path]:
    """Both artifacts of a row table (a list per :data:`CSV_HEADER` column) from a single rendering."""
    csv_lines, json_objects = _render(table)
    return _write_csv(csv_lines, Path(csv_path)), _write_json(json_objects, Path(json_path))
