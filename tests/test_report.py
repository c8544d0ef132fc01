import itertools
import math
import random
import time

import numpy as np
import pytest

from noma_fair.bounds import beta_star
from noma_fair.fairness import FairnessConfig
from noma_fair.rates import Strategy, db_to_linear
from noma_fair.report import (
    BETA_STAR_TOKEN,
    CSV_HEADER,
    METRIC_NAMES,
    ResultRow,
    _sweep_table,
    _table,
    emit_artifacts,
    emit_campaign_csv,
    emit_campaign_json,
    emit_delta_sweep,
    format_value,
)

from _oracles import _sorted_ref, parse_campaign_csv_ref


def make_row(**overrides):
    base = dict(
        alpha=1.0,
        beta=0.01,
        gamma_s_db=None,
        gamma_w_db=None,
        strategy="oma",
        metric="t_alpha",
        value=0.123456789123,
        trials=10,
        stderr=0.001,
    )
    base.update(overrides)
    return ResultRow(**base)


class TestDeltaSweep:
    @pytest.fixture
    def rows(self):
        return emit_delta_sweep(
            links_db=[(9.0, 2.0)],
            betas=[0.0, 0.03, 0.08, BETA_STAR_TOKEN],
            alphas=[0.3, 3.0],
        )

    def value_of(self, rows, metric, alpha, beta=None):
        for r in rows:
            if r.metric == metric and r.alpha == alpha and (beta is None or r.beta == beta):
                return r.value
        raise KeyError((metric, alpha, beta))

    def test_perfect_sic_high_alpha_split_equals_lower_bound(self, rows):
        delta_s = self.value_of(rows, "delta_s", alpha=3.0, beta=0.0)
        delta_lb = self.value_of(rows, "delta_lb", alpha=3.0, beta=0.0)
        assert abs(delta_s - delta_lb) < 1e-3

    def test_beta_star_column_split_equals_upper_bound(self, rows):
        resolved = sorted({r.beta for r in rows})[-1]  # the resolved token value
        bstar = beta_star(db_to_linear(9.0), db_to_linear(2.0))
        assert resolved == pytest.approx(bstar, rel=1e-8)
        for alpha in (0.3, 3.0):
            delta_s = self.value_of(rows, "delta_s", alpha=alpha, beta=resolved)
            delta_ub = self.value_of(rows, "delta_ub", alpha=alpha, beta=resolved)
            assert abs(delta_s - delta_ub) < 1e-3

    def test_msd_flag_set_for_reference_link(self, rows):
        assert self.value_of(rows, "msd_satisfied", alpha=0.3, beta=0.0) == 1.0

    def test_metric_vocabulary(self, rows):
        assert {r.metric for r in rows} <= set(METRIC_NAMES)

    def test_infeasible_link_skips_beta_star_token(self):
        rows = emit_delta_sweep([(3.0, 3.0)], [BETA_STAR_TOKEN], [1.0])
        assert rows == []

    def test_misordered_link_only_with_the_token(self):
        # A numeric beta applies to every link; the token skips a link with beta_star < 0.
        with pytest.raises(ValueError, match="gamma_s 0.0 dB < gamma_w 2.0 dB"):
            emit_delta_sweep([(0.0, 2.0)], [0.0], [1.0])
        assert emit_delta_sweep([(0.0, 2.0)], [BETA_STAR_TOKEN], [1.0]) == []

    @pytest.mark.parametrize("solver", [Strategy.OPTIMAL, Strategy.SUBOPTIMAL])
    def test_rows_are_the_row_table_with_its_coded_columns_expanded(self, solver):
        # The sweep hands the render its codes: each column but beta and value
        # comes as (codes, distinct values), an intp code per row.  Its rows are
        # those columns expanded code by code, with the same values and types.
        args = [(9.0, 2.0), (2.0, 2.0), (12.5, 2.0), (40.0, -3.0)], [0.0, 0.05, BETA_STAR_TOKEN], [0.0, 1, 35.0]
        table = _sweep_table(*args, tau=FairnessConfig.tau, solver=solver)
        coded = {key: column for key, column in zip(CSV_HEADER, table) if isinstance(column, tuple)}
        assert list(coded) == ["alpha", "gamma_s_db", "gamma_w_db", "strategy", "metric", "trials", "stderr"]
        assert all(codes.dtype == np.intp for codes, _ in coded.values())
        assert [distinct for _, distinct in coded.values()][3:] == [[solver.value], ["delta_lb", "delta_ub",
                                                                    "msd_satisfied", "delta_s"], [1], [0.0]]
        columns = [[column[1][c] for c in column[0]] if isinstance(column, tuple) else column.tolist()
                   for column in table]
        rows = emit_delta_sweep(*args, solver=solver)
        assert len({row.beta for row in rows}) > 3 and {row.alpha for row in rows} == {0.0, 1.0, 35.0}
        assert list(map(repr, rows)) == list(map(repr, map(ResultRow, *columns)))

    def test_rejected_pair_has_no_split_row(self):
        rows = emit_delta_sweep([(3.0, 3.0)], [0.0], [1.0])
        metrics = {r.metric for r in rows}
        assert "delta_s" not in metrics
        assert metrics == {"delta_lb", "delta_ub", "msd_satisfied"}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            emit_delta_sweep([], [0.0], [1.0])

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            emit_delta_sweep([(9.0, 2.0)], ["half_star"], [1.0])

    def test_bad_numeric_beta_is_named_as_the_campaign_names_it(self):
        # The numeric entries, as a list, before any link is gated; a token entry is not a number.
        with pytest.raises(ValueError, match=r"^betas must lie in \[0, 1\], got \[1\.5\]$"):
            emit_delta_sweep([(9.0, 2.0)], [1.5], [1.0])
        with pytest.raises(ValueError, match=r"^betas must lie in \[0, 1\], got \[0\.0, -0\.1\]$"):
            emit_delta_sweep([(9.0, 2.0)], [BETA_STAR_TOKEN, 0.0, -0.1], [1.0])

    def test_solver_must_split_the_power(self):
        with pytest.raises(ValueError, match=r"^solver must be optimal or suboptimal, got <Strategy\.OMA: 'oma'>$"):
            emit_delta_sweep([(9.0, 2.0)], [0.0], [1.0], solver=Strategy.OMA)

    @pytest.mark.parametrize(
        "links, betas, alphas, message",
        [
            ([(9.0, 2.0)], [0.0], [1.0, 3.0, 1], "repeated alpha 1"),
            ([(9.0, 2.0)], [0.0, BETA_STAR_TOKEN, 0.05, BETA_STAR_TOKEN], [1.0], "repeated beta entry 'beta_star'"),
            ([(9.0, 2.0)], [0.01, 0.0, 0.01], [1.0], "repeated beta entry 0.01"),
            ([(9.0, 2.0), (4.0, 1.0), [9, 2]], [0.0], [1.0], r"repeated link \(9, 2\)"),
        ],
        ids=["alpha", "token", "beta", "link"],
    )
    def test_repeated_entry_rejected(self, links, betas, alphas, message):
        # A repeated entry would repeat every row it produces; the first
        # repeat is named as given.
        with pytest.raises(ValueError, match=f"^{message}$"):
            emit_delta_sweep(links, betas, alphas)

    @pytest.mark.parametrize(
        "links, betas, alphas, message",
        [
            ([(9.0, 2.0)], [0.0], [2.0, 1, 1.0000000001], "repeated alpha 1.0000000001, which prints like 1"),
            ([(9.0, 2.0)], [0.01, 0.0100000000001], [1.0], "repeated beta entry 0.0100000000001, which prints like 0.01"),
            ([(12.3456789001, 2.0), (12.3456789002, 2.0)], [0.0], [1.0],
             r"repeated link \(12.3456789002, 2.0\), which prints like \(12.3456789001, 2.0\)"),
        ],
        ids=["alpha", "beta", "link"],
    )
    def test_entries_that_print_alike_rejected(self, links, betas, alphas, message):
        # The artifacts print 9 significant digits: such entries would repeat
        # the key cells of every row they produce.
        with pytest.raises(ValueError, match=f"^{message} at 9 significant digits$"):
            emit_delta_sweep(links, betas, alphas)

    def test_signed_zeros_are_one_entry(self):
        with pytest.raises(ValueError, match="^repeated beta entry -0.0$"):
            emit_delta_sweep([(9.0, 2.0)], [0.0, -0.0], [1.0])

    def test_a_repeat_at_the_end_of_a_long_axis_is_named_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^repeated alpha 7$"):
            emit_delta_sweep([(9.0, 2.0)], [0.0], [*map(float, range(50_000)), 7])
        assert time.perf_counter() - start < 5.0


class TestCsvContract:
    def test_zero_rows_creates_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            emit_campaign_csv([], path)
        assert not path.exists()

    def test_header_exact(self, tmp_path):
        path = emit_campaign_csv([make_row()], tmp_path / "out.csv")
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == ",".join(CSV_HEADER)
        assert first_line == "alpha,beta,gamma_s_db,gamma_w_db,strategy,metric,value,trials,stderr"

    def test_round_trip_exact(self, tmp_path):
        rows = [
            make_row(value=1.0 / 3.0, stderr=2.0 / 7.0),
            make_row(gamma_s_db=9.0, gamma_w_db=2.0, metric="delta_s", value=0.250593147),
        ]
        p1 = emit_campaign_csv(rows, tmp_path / "a.csv")
        parsed = parse_campaign_csv_ref(p1)
        p2 = emit_campaign_csv(parsed, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert parse_campaign_csv_ref(p2) == parsed

    def test_sort_order(self, tmp_path):
        rows = [
            make_row(alpha=2.0, beta=0.0, strategy="oma", metric="t_alpha"),
            make_row(alpha=1.0, beta=0.1, strategy="near_far", metric="mur_weak"),
            make_row(alpha=1.0, beta=0.1, strategy="near_far", metric="mur_strong"),
            make_row(alpha=1.0, beta=0.0, strategy="optimal", metric="t_alpha"),
        ]
        random.Random(5).shuffle(rows)
        ordered = _sorted_ref(rows)
        keys = [(r.alpha, r.beta, r.strategy, r.metric) for r in ordered]
        assert keys == sorted(keys)
        path = emit_campaign_csv(rows, tmp_path / "c.csv")
        parsed_keys = [(r.alpha, r.beta, r.strategy, r.metric) for r in parse_campaign_csv_ref(path)]
        assert parsed_keys == keys

    @pytest.mark.parametrize("number", [-math.inf, math.nan])
    def test_none_sinr_sorts_before_every_number(self, tmp_path, number):
        # At equal (alpha, beta, strategy, metric) a row without an SINR comes
        # first, also before an SINR of -inf or NaN, as in _oracles._sorted_ref.
        rows = [make_row(gamma_s_db=number, value=1.0), make_row(gamma_s_db=None, value=2.0)]
        assert _sorted_ref(rows) == rows[::-1]
        parsed = parse_campaign_csv_ref(emit_campaign_csv(rows, tmp_path / "out.csv"))
        assert [r.value for r in parsed] == [2.0, 1.0]

    def test_nan_and_inf_keys_write_the_same_bytes_in_any_input_order(self, tmp_path):
        # Python's < does not order NaN; the artifacts put it last and -inf
        # first in every key column, so rows with distinct full keys, NaN and
        # -inf among them, are written alike whatever order they come in.
        numbers = (math.nan, -math.inf, 0.5)
        keys = itertools.product(numbers, numbers, ("oma", "optimal"), (None, *numbers), numbers)
        rows = [make_row(alpha=a, beta=b, strategy=s, gamma_s_db=gs, gamma_w_db=gw, value=float(i))
                for i, (a, b, s, gs, gw) in enumerate(keys)]
        written = set()
        for seed in range(20):
            random.Random(seed).shuffle(rows)
            paths = emit_artifacts(_table(rows), tmp_path / "a.csv", tmp_path / "a.json")
            written.add(tuple(path.read_bytes() for path in paths))
        assert len(written) == 1
        parsed = parse_campaign_csv_ref(tmp_path / "a.csv")
        assert [r.value for r in parsed] == [r.value for r in _sorted_ref(rows)]
        assert [format_value(r.alpha) for r in parsed[:: len(rows) // 3]] == ["-inf", "0.5", "nan"]

    def test_nine_significant_digits(self):
        assert format_value(0.123456789123) == "0.123456789"
        assert format_value(1.0) == "1"
        # formatting is idempotent through a parse cycle
        s = format_value(2.0 / 3.0)
        assert format_value(float(s)) == s


class TestJsonMirror:
    def test_mirror_matches_csv_rows(self, tmp_path):
        import json

        rows = [make_row(), make_row(strategy="near_far", value=0.5)]
        emit_campaign_json(rows, tmp_path / "out.json")
        payload = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert len(payload) == 2
        ordered = _sorted_ref(rows)
        for obj, row in zip(payload, ordered):
            assert obj["strategy"] == row.strategy
            assert obj["value"] == float(format_value(row.value))
            assert obj["gamma_s_db"] is None

    def test_zero_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_campaign_json([], tmp_path / "out.json")


class TestEmitArtifacts:
    def test_same_bytes_as_the_single_emitters(self, tmp_path):
        rows = emit_delta_sweep([(9.0, 2.0), (4.0, 1.0)], [0.0, BETA_STAR_TOKEN], [0.5, 3.0])
        rows += [make_row(), make_row(gamma_s_db=-0.0, value=-0.0, strategy="\u00e9", trials=1)]
        random.Random(3).shuffle(rows)
        both = emit_artifacts(_table(rows), tmp_path / "a.csv", tmp_path / "a.json")
        assert both == (tmp_path / "a.csv", tmp_path / "a.json")
        emit_campaign_csv(rows, tmp_path / "b.csv")
        emit_campaign_json(rows, tmp_path / "b.json")
        for suffix in ("csv", "json"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()

    def test_zero_rows_creates_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            emit_artifacts(_table([]), tmp_path / "a.csv", tmp_path / "a.json")
        assert not any(tmp_path.iterdir())

    def test_coded_table_without_rows_creates_no_file(self, tmp_path):
        # A table's row count is its first column's codes when that column is coded.
        none = np.zeros(0, dtype=np.intp)
        table = [(none, [1.0]), *_table([])[1:4], (none, ["oma"]), *_table([])[5:]]
        with pytest.raises(ValueError, match="^no rows to emit$"):
            emit_artifacts(table, tmp_path / "a.csv", tmp_path / "a.json")
        assert not any(tmp_path.iterdir())
