import random

import pytest

from noma_fair.bounds import beta_star
from noma_fair.rates import db_to_linear
from noma_fair.report import (
    BETA_STAR_TOKEN,
    CSV_HEADER,
    METRIC_NAMES,
    ResultRow,
    emit_artifacts,
    emit_campaign_csv,
    emit_campaign_json,
    emit_delta_sweep,
    format_value,
    parse_campaign_csv,
    sort_rows,
)


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
        parsed = parse_campaign_csv(p1)
        p2 = emit_campaign_csv(parsed, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert parse_campaign_csv(p2) == parsed

    def test_sort_order(self, tmp_path):
        rows = [
            make_row(alpha=2.0, beta=0.0, strategy="oma", metric="t_alpha"),
            make_row(alpha=1.0, beta=0.1, strategy="near_far", metric="mur_weak"),
            make_row(alpha=1.0, beta=0.1, strategy="near_far", metric="mur_strong"),
            make_row(alpha=1.0, beta=0.0, strategy="optimal", metric="t_alpha"),
        ]
        random.Random(5).shuffle(rows)
        ordered = sort_rows(rows)
        keys = [(r.alpha, r.beta, r.strategy, r.metric) for r in ordered]
        assert keys == sorted(keys)
        path = emit_campaign_csv(rows, tmp_path / "c.csv")
        parsed_keys = [(r.alpha, r.beta, r.strategy, r.metric) for r in parse_campaign_csv(path)]
        assert parsed_keys == keys

    def test_nine_significant_digits(self):
        assert format_value(0.123456789123) == "0.123456789"
        assert format_value(1.0) == "1"
        # formatting is idempotent through a parse cycle
        s = format_value(2.0 / 3.0)
        assert format_value(float(s)) == s

    def test_header_mismatch_detected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_campaign_csv(bad)


class TestJsonMirror:
    def test_mirror_matches_csv_rows(self, tmp_path):
        import json

        rows = [make_row(), make_row(strategy="near_far", value=0.5)]
        emit_campaign_json(rows, tmp_path / "out.json")
        payload = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert len(payload) == 2
        ordered = sort_rows(rows)
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
        both = emit_artifacts(rows, tmp_path / "a.csv", tmp_path / "a.json")
        assert both == (tmp_path / "a.csv", tmp_path / "a.json")
        emit_campaign_csv(rows, tmp_path / "b.csv")
        emit_campaign_json(rows, tmp_path / "b.json")
        for suffix in ("csv", "json"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()

    def test_zero_rows_creates_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            emit_artifacts([], tmp_path / "a.csv", tmp_path / "a.json")
        assert not any(tmp_path.iterdir())
