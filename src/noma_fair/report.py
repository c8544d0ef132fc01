"""Result aggregation and CSV/JSON artifact emission.

The CSV contract is the deliverable; plotting is left to external tools.
Every CSV has the exact header

    alpha,beta,gamma_s_db,gamma_w_db,strategy,metric,value,trials,stderr

rows sorted by (alpha, beta, strategy, metric) with the link SINRs as final
tie-breakers (an empty SINR before any number, -inf first, NaN last), and
all floats printed with 9 significant digits, which makes output byte-stable
and round-trippable.  A JSON mirror (array of objects, same rows and
precision) accompanies every CSV for programmatic consumers.

Rows travel from the ``sweep`` and ``simulate`` producers to the artifacts
as one row table, a list or NumPy array per CSV_HEADER column (``sweep``
gives arrays, ``simulate`` lists), with :class:`ResultRow` as its object
view.  Each column is factorized once into a code per row and its distinct
values (an array of 8-byte numbers on its bits, any other column by a dict),
and each distinct value formatted once and ranked once, by the one ordering
rule above.  The table is sorted once, by one stable ``np.lexsort`` over the
key columns' ranks taken by code.  The cells are then taken by code, in
sorted order, into a rows x columns array of texts per artifact, and both
artifacts are written from that one rendering, a block of rows per write.
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
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .allocator import gate, split
from .bounds import beta_star
from .fairness import FairnessConfig
from .rates import Strategy, _require_beta, _require_ordered, db_to_linear

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


def _sweep_table(links_db, betas, alphas, tau: float, solver: Strategy) -> list[np.ndarray]:
    """The row table of :func:`emit_delta_sweep`, an array per column."""
    links_db, betas, alphas = [tuple(link) for link in links_db], list(betas), list(alphas)
    if not links_db or not betas or not alphas:
        raise ValueError("links, betas and alphas must all be non-empty")
    for name, axis in (("alpha", alphas), ("beta entry", betas), ("link", links_db)):
        _require_distinct(name, axis, axis)
    if solver not in (Strategy.OPTIMAL, Strategy.SUBOPTIMAL):
        raise ValueError(f"solver must be optimal or suboptimal, got {solver!r}")
    _require_beta([entry for entry in betas if not isinstance(entry, str)], "betas")
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
            _require_ordered(*links_db[misordered[0]], " dB")
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
    return [np.array(alphas, dtype=float)[alpha], g.beta[entry, link], *links[link].T,
            np.full(n, solver.value, dtype=object),
            np.array(("delta_lb", "delta_ub", "msd_satisfied", "delta_s"), dtype=object)[metric],
            values[keep], np.ones(n, dtype=np.int64), np.zeros(n)]


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
    return list(map(ResultRow, *(column.tolist() for column in _sweep_table(links_db, betas, alphas, tau, solver))))


# One row of each artifact, written as csv.writer and json.dump(indent=2)
# would; a JSON object after the first follows a ",\n".
_CSV_LINE = ",".join(["%s"] * len(CSV_HEADER)) + "\r\n"
_JSON_OBJECT = ",\n  {\n" + ",\n".join(f'    "{key}": %s' for key in CSV_HEADER) + "\n  }"
_TEXT_KEYS = ("strategy", "metric")
_SORT_COLUMNS = ("alpha", "beta", "strategy", "metric", "gamma_s_db", "gamma_w_db")  # the first most significant
# Rows an artifact is written in per call: a block, not the whole file, is
# joined into one string.
_BLOCK_ROWS = 4096


def _cell_formats(line: str) -> list[str]:
    """``line`` as one ``%s`` format per column, with the text before the cell (and
    after the last one), so that a row is its formatted cells joined with ""."""
    *before, after = line.split("%s")
    return [text + "%s" for text in before[:-1]] + [before[-1] + "%s" + after]


def _column_texts(key: str, distinct: list) -> tuple[list[str], list[str]]:
    """The CSV texts of a column's distinct values, and the JSON texts of
    what those CSV texts parse back to."""
    if key in _TEXT_KEYS:  # quoted as csv.writer quotes a cell of a row
        csv_texts = []
        for value in distinct:
            csv.writer(line := io.StringIO()).writerow((value, ""))
            csv_texts.append(line.getvalue()[: -len(",\r\n")])
        return csv_texts, list(map(json.dumps, distinct))
    if key == "trials":
        texts = [str(int(value)) for value in distinct]
        return texts, texts
    # A campaign row's link SINRs may be None; json.dumps writes a finite float as its repr.
    csv_texts = ["" if value is None else format_value(value) for value in distinct]
    return csv_texts, ["null" if not text else repr(parsed) if math.isfinite(parsed := float(text)) else json.dumps(parsed)
                       for text in csv_texts]


def _factorize(key: str, values) -> tuple[np.ndarray, list]:
    """A column's code per row and its distinct values.  An array of 8-byte
    numbers is factorized on its bits, so -0.0 and 0.0 (and NaN payloads)
    stay apart; any other column by a dict, with a number zero (and None)
    keyed by its repr, as -0.0 and 0.0 hash alike but print "-0" and "0"."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu" and values.dtype.itemsize == 8:
        _, first, codes = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
        return codes, values[first].tolist()
    values = values.tolist() if isinstance(values, np.ndarray) else values
    keys = values if key in _TEXT_KEYS else [v or repr(v) for v in values]
    distinct = dict(zip(keys, values))
    code = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(code.__getitem__, keys), np.intp, len(keys)), list(distinct.values())


def _sort_key(distinct: list, codes: np.ndarray) -> np.ndarray:
    """A key column's rank per row among its distinct values, each keyed once as
    (present, NaN, value): None first, -inf to inf, NaN last, texts by code
    point; -0.0 ties with 0.0, NaN with NaN, and True with 1 and 1.0."""
    keys = [(v is not None, v != v, 0 if v != v else v) for v in distinct]
    rank = dict(zip(sorted(set(keys)), range(len(keys))))
    return np.fromiter(map(rank.__getitem__, keys), np.intp, len(keys))[codes]


def _render(table: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The rows' CSV and JSON cells, sorted once by one stable ``np.lexsort``
    over the key columns' :func:`_sort_key`: a rows x columns array of texts
    per artifact, each cell with its line's text around it, so that an artifact
    is its rows' cells joined.  Each column is factorized once and each
    distinct value formatted once; the cells are taken by code from one array
    of all the columns' texts.  Refuses empty input, so no emitter touches disk."""
    if not len(table[0]):
        raise ValueError("no rows to emit")
    codes, distincts = zip(*map(_factorize, CSV_HEADER, table))
    order = np.lexsort([_sort_key(distincts[i], codes[i]) for i in map(CSV_HEADER.index, _SORT_COLUMNS[::-1])])
    offsets, csv_texts, json_texts = [], [], []
    for key, distinct, csv_format, json_format in zip(CSV_HEADER, distincts, *map(_cell_formats, (_CSV_LINE, _JSON_OBJECT))):
        offsets.append(len(csv_texts))
        csv_column, json_column = _column_texts(key, distinct)
        csv_texts += map(csv_format.__mod__, csv_column)
        json_texts += map(json_format.__mod__, json_column)
    texts = np.array(csv_texts + json_texts, dtype=object).reshape(2, -1)
    cells = texts[:, (np.array(codes).T + offsets)[order]]
    return cells[0], cells[1]


def _write_blocks(fh, cells: np.ndarray) -> None:
    """Write a rows x columns array of cell texts, :data:`_BLOCK_ROWS` joined rows per write."""
    for start in range(0, len(cells), _BLOCK_ROWS):
        fh.write("".join(cells[start : start + _BLOCK_ROWS].ravel().tolist()))


def _write_csv(cells: np.ndarray, path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_LINE % CSV_HEADER)
        _write_blocks(fh, cells)
    return path


def _write_json(cells: np.ndarray, path: Path) -> Path:
    cells[0, 0] = "[" + cells[0, 0][1:]  # the first object's "\n" without its ","
    with open(path, "w", encoding="utf-8") as fh:
        _write_blocks(fh, cells)
        fh.write("\n]\n")
    return path


def emit_campaign_csv(rows: Sequence[ResultRow], path) -> Path:
    """Write sorted rows as UTF-8 CSV.  Refuses empty input before touching disk."""
    return _write_csv(_render(_table(rows))[0], Path(path))


def emit_campaign_json(rows: Sequence[ResultRow], path) -> Path:
    """JSON mirror of the CSV: each object is a CSV row's cells, parsed back."""
    return _write_json(_render(_table(rows))[1], Path(path))


def emit_artifacts(table: Sequence, csv_path, json_path) -> tuple[Path, Path]:
    """Both artifacts of a row table (a list or NumPy array per :data:`CSV_HEADER` column) from a single rendering."""
    csv_cells, json_cells = _render(table)
    return _write_csv(csv_cells, Path(csv_path)), _write_json(json_cells, Path(json_path))
