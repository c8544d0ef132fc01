import csv
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest

from noma_fair import netsim
from noma_fair.bounds import beta_star, delta_lower_bound, msd_threshold
from noma_fair.cli import SETTINGS, build_parser, main, parse_config_file
from noma_fair.fairness import FairnessConfig, alpha_throughput, utility
from noma_fair.netsim import NetworkConfig, compute_sinrs, drop_network, run_campaign
from noma_fair.rates import PairLink, Strategy, db_to_linear
from noma_fair.report import BETA_STAR_TOKEN, emit_delta_sweep, format_value

from _oracles import (
    alpha_fair_objective_ref,
    bisect_delta_strong,
    bisect_delta_weak,
    noma_rate_strong_ref,
    noma_rate_weak_ref,
    oma_rate_ref,
    parse_campaign_csv_ref,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return main(argv)


def assert_reproduced(csv_path: Path, json_path: Path, manifest: Path) -> None:
    """Delete a run's CSV and JSON, run its manifest's ``# reproduce:`` line
    as a shell splits it, and check that all three files come back unchanged."""
    first = [path.read_bytes() for path in (csv_path, json_path, manifest)]
    csv_path.unlink()
    json_path.unlink()
    prefix = "# reproduce: "
    [line] = [line for line in manifest.read_text(encoding="utf-8").splitlines() if line.startswith(prefix)]
    prog, *argv = shlex.split(line[len(prefix):])
    assert prog == "noma-fair" and run(argv) == 0
    assert [path.read_bytes() for path in (csv_path, json_path, manifest)] == first


def readme_config_table() -> list[tuple[str, str]]:
    """(key, default cell) rows of the README config table."""
    section = README.read_text(encoding="utf-8").split("### Config file", 1)[1]
    table = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            table.append((cells[0].strip("`"), cells[-1]))
        elif table:
            break
    return table


class TestPairCommand:
    def test_high_alpha_perfect_sic_reports_lower_bound_split(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code = run(
            [
                "pair",
                "--gamma-s-db", "9", "--gamma-w-db", "2",
                "--beta", "0", "--alpha", "3",
                "--solver", "optimal", "--json", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "delta_s" in printed
        report = json.loads(out.read_text())
        assert report["mode"] == "noma_paired"
        assert abs(report["delta_s"] - report["delta_lb"]) < 1e-3

    def test_equal_sinrs_fall_back_to_oma(self, capsys):
        code = run(
            ["pair", "--gamma-s-db", "3", "--gamma-w-db", "3", "--beta", "0", "--alpha", "1"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "oma_fallback" in printed
        assert "delta_s" not in printed

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["pair", "--gamma-s-db", "9"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["optimal", "suboptimal"])
    @pytest.mark.parametrize("margin", [1e-12, 1e-13, 1e-15, 1e-16])
    def test_beta_just_below_beta_star(self, tmp_path, solver, margin):
        # The gate and the solvers read the same interval, so a link next to
        # beta_star is either paired inside it or served OMA, never an error.
        beta = beta_star(db_to_linear(9.0), db_to_linear(2.0)) * (1 - margin)
        out = tmp_path / "pair.json"
        code = run(
            ["pair", "--gamma-s-db", "9", "--gamma-w-db", "2", "--beta", repr(beta),
             "--alpha", "3", "--solver", solver, "--json", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        paired = report["delta_lb"] < report["delta_ub"]
        assert report["mode"] == ("noma_paired" if paired else "oma_fallback")
        if paired:
            assert report["delta_lb"] <= report["delta_s"] <= report["delta_ub"]

    def test_invalid_beta_exits_2(self, capsys):
        code = run(
            ["pair", "--gamma-s-db", "9", "--gamma-w-db", "2", "--beta", "1.5", "--alpha", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_db_value_may_have_a_negative_exponent(self, tmp_path):
        out = tmp_path / "pair.json"
        code = run(
            ["pair", "--gamma-s-db", "9", "--gamma-w-db", "-1e-3", "--beta", "0", "--alpha", "1",
             "--json", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["gamma_w_db"] == -1e-3

    BASE_KEYS = ["gamma_s_db", "gamma_w_db", "beta", "alpha", "tau", "solver", "delta_lb", "delta_ub",
                 "msd_threshold", "msd_satisfied", "beta_star", "mode", "rate_strong_oma", "rate_weak_oma"]

    @pytest.mark.parametrize("solver", ["optimal", "suboptimal"])
    @pytest.mark.parametrize(
        "gs_db, gw_db, beta, alpha, admitted",
        [
            ("9", "2", "0.01", "1", True),
            ("9", "2", "0.2", "3", False),  # beta above beta_star = 0.108
            ("3", "3", "0", "0.5", False),  # equal SINRs fail the criterion
            # The optimal split lies about 4e-10 below delta_ub, whose utility
            # is higher than that of the split's own rates in the last bits.
            ("34.8", "15.3", "0.0007", "0.27", True),
        ],
    )
    def test_report_pins_every_field(self, tmp_path, capsys, solver, gs_db, gw_db, beta, alpha, admitted):
        out = tmp_path / "pair.json"
        code = run(
            ["pair", "--gamma-s-db", gs_db, "--gamma-w-db", gw_db, "--beta", beta, "--alpha", alpha,
             "--solver", solver, "--json", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        gs, gw, b, a = db_to_linear(float(gs_db)), db_to_linear(float(gw_db)), float(beta), float(alpha)

        # Every stdout line is its JSON value as .9g text, in the JSON key order.
        lines = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()]
        assert [key.strip() for key, _ in lines] == list(report)
        for (_, text), value in zip(lines, report.values()):
            assert text == (format(value, ".9g") if isinstance(value, float) else str(value))

        noma = ["delta_s", "rate_strong_noma", "rate_weak_noma"] if admitted else []
        assert list(report) == self.BASE_KEYS + noma + ["utility_sum", "t_alpha"]
        assert (report["gamma_s_db"], report["gamma_w_db"], report["beta"], report["alpha"]) == (
            float(gs_db), float(gw_db), b, a
        )
        assert (report["tau"], report["solver"]) == (0.5, solver)
        assert report["delta_lb"] == pytest.approx(bisect_delta_strong(gs, b), abs=1e-10)
        assert report["delta_ub"] == pytest.approx(bisect_delta_weak(gw), abs=1e-10)
        assert report["msd_threshold"] == msd_threshold(gs, gw)
        assert report["msd_satisfied"] is (gs - gw > report["msd_threshold"])
        star = report["beta_star"]
        assert star == beta_star(gs, gw)
        if star > 0:  # the delta_lb of beta_star closes the interval
            assert bisect_delta_strong(gs, star) == pytest.approx(report["delta_ub"], abs=1e-10)
        assert report["mode"] == ("noma_paired" if admitted else "oma_fallback")
        assert report["rate_strong_oma"] == pytest.approx(oma_rate_ref(gs), rel=1e-15)
        assert report["rate_weak_oma"] == pytest.approx(oma_rate_ref(gw), rel=1e-15)

        with mpmath.workdps(40):
            if admitted:
                d = report["delta_s"]
                assert report["delta_lb"] <= d <= report["delta_ub"]
                r_s, r_w = report["rate_strong_noma"], report["rate_weak_noma"]
                assert r_s == pytest.approx(noma_rate_strong_ref(gs, b, d), rel=1e-15)
                assert r_w == pytest.approx(noma_rate_weak_ref(gw, d), rel=1e-15)
                want = alpha_fair_objective_ref(gs, gw, b, d, a)
                grid = np.linspace(report["delta_lb"], report["delta_ub"], 100_001)
                u = [np.log(r) if a == 1 else r ** (1 - a) / (1 - a)
                     for r in (noma_rate_strong_ref(gs, b, grid), noma_rate_weak_ref(gw, grid))]
                grid_best = np.max(u[0] + u[1])
                if solver == "optimal":
                    assert report["utility_sum"] >= grid_best - 1e-9
                else:  # alpha <= 1 takes delta_ub below tau
                    assert d == report["delta_ub"]
            else:
                r_s, r_w = report["rate_strong_oma"], report["rate_weak_oma"]
                u = [mpmath.log(r) if a == 1 else mpmath.mpf(r) ** (1 - a) / (1 - a) for r in (r_s, r_w)]
                want = u[0] + u[1]
            assert report["utility_sum"] == pytest.approx(float(want), rel=1e-13)
            # The utility of the served rates the report shows, by the one rule.
            assert report["utility_sum"] == utility(r_s, a) + utility(r_w, a)
            p = 1 - mpmath.mpf(a)
            if a == 1:
                mean = mpmath.sqrt(mpmath.mpf(r_s) * r_w)
            else:
                mean = ((mpmath.mpf(r_s) ** p + mpmath.mpf(r_w) ** p) / 2) ** (1 / p)
        assert report["t_alpha"] == pytest.approx(float(mean), rel=1e-13)


class TestSweepCommand:
    def test_alpha_axis_with_beta_star_grid(self, tmp_path):
        base = tmp_path / "fig"
        code = run(
            [
                "sweep", "--axis", "alpha",
                "--values", "0.3,0.6,1,25,35",
                "--betas", "0,0.03,0.08,beta_star",
                "--gamma-s-db", "9", "--gamma-w-db", "2",
                "--out", str(base),
            ]
        )
        assert code == 0
        rows = parse_campaign_csv_ref(base.with_suffix(".csv"))
        assert {r.alpha for r in rows} == {0.3, 0.6, 1.0, 25.0, 35.0}
        assert len({r.beta for r in rows}) == 4
        assert base.with_suffix(".json").exists()
        assert (tmp_path / "fig.manifest.txt").exists()

    def test_gamma_s_axis(self, tmp_path):
        base = tmp_path / "vs"
        code = run(
            [
                "sweep", "--axis", "gamma-s",
                "--values", "4,6,8,10,12",
                "--gamma-w-db", "1",
                "--alphas", "3",
                "--out", str(base),
            ]
        )
        assert code == 0
        rows = parse_campaign_csv_ref(base.with_suffix(".csv"))
        assert {r.gamma_s_db for r in rows} == {4.0, 6.0, 8.0, 10.0, 12.0}
        assert {r.gamma_w_db for r in rows} == {1.0}

    def test_single_point_sweep(self, tmp_path):
        base = tmp_path / "one"
        code = run(
            [
                "sweep", "--axis", "beta", "--values", "0.05",
                "--gamma-s-db", "9", "--gamma-w-db", "2", "--alphas", "1",
                "--out", str(base),
            ]
        )
        assert code == 0
        rows = parse_campaign_csv_ref(base.with_suffix(".csv"))
        assert {r.beta for r in rows} == {0.05}

    def test_empty_values_exit_2(self, tmp_path, capsys):
        code = run(
            ["sweep", "--axis", "alpha", "--values", ",", "--gamma-s-db", "9",
             "--gamma-w-db", "2", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error: bad value for 'values': " in capsys.readouterr().err

    def test_out_with_a_dot_keeps_its_name(self, tmp_path):
        # A dot in --out is part of the name: two bases that differ after
        # their dots write two sets of artifacts, and a trailing .csv is dropped.
        flags = ["--axis", "alpha", "--gamma-s-db", "9", "--gamma-w-db", "2"]
        assert run(["sweep", *flags, "--values", "1", "--out", str(tmp_path / "run.v1")]) == 0
        assert run(["sweep", *flags, "--values", "2", "--out", str(tmp_path / "run.v2.csv")]) == 0
        for name, alpha in (("run.v1", 1.0), ("run.v2", 2.0)):
            assert {r.alpha for r in parse_campaign_csv_ref(tmp_path / f"{name}.csv")} == {alpha}
            assert [r["alpha"] for r in json.loads((tmp_path / f"{name}.json").read_text())] == [alpha] * 4
            manifest = (tmp_path / f"{name}.manifest.txt").read_text(encoding="utf-8")
            assert f"# artifacts: {name}.csv {name}.json\n" in manifest
        assert len(list(tmp_path.iterdir())) == 6

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--axis", "alpha", "--values", "1,2,1.0"], "values"),
            (["--axis", "beta", "--values", "0.1,beta_star,beta_star"], "values"),
            (["--axis", "gamma-s", "--values", "4,6,4"], "values"),
            (["--axis", "beta", "--values", "0.1", "--alphas", "1,3,3"], "alphas"),
            (["--axis", "alpha", "--values", "1", "--betas", "0,0.0"], "betas"),
        ],
    )
    def test_repeated_entry_names_its_key(self, tmp_path, capsys, flags, key):
        base = tmp_path / "x"
        code = run(["sweep", *flags, "--gamma-s-db", "9", "--gamma-w-db", "2", "--out", str(base)])
        assert code == 2
        entry = flags[-1].split(",")[-1]  # each list repeats at its last entry, named as written
        assert capsys.readouterr().err == f"error: bad value for {key!r}: repeated entry {entry!r}\n"
        assert not base.with_suffix(".csv").exists()

    @pytest.mark.parametrize(
        "flags, key, earlier, entry",
        [
            (["--axis", "gamma-s", "--values", "12.3456789001,12.3456789002", "--gamma-w-db", "2"],
             "values", "12.3456789001", "12.3456789002"),
            (["--axis", "gamma-w", "--values", "1,1.0000000001", "--gamma-s-db", "9"], "values", "1", "1.0000000001"),
            (["--axis", "beta", "--values", "0.1", "--alphas", "2,1,1.0000000001", "--gamma-s-db", "9",
              "--gamma-w-db", "2"], "alphas", "1", "1.0000000001"),
            (["--axis", "alpha", "--values", "1", "--betas", "beta_star,0.01,0.0100000000001", "--gamma-s-db", "9",
              "--gamma-w-db", "2"], "betas", "0.01", "0.0100000000001"),
        ],
    )
    def test_entries_that_print_alike_are_rejected(self, tmp_path, capsys, flags, key, earlier, entry):
        # The artifacts print 9 significant digits, so two such entries would
        # write every row's key cells twice.
        base = tmp_path / "x"
        assert run(["sweep", *flags, "--out", str(base)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad value for {key!r}: repeated entry {entry!r}, which prints like {earlier!r} at 9 significant digits\n"
        )
        assert not any(tmp_path.iterdir())

    def test_a_repeat_at_the_end_of_a_long_list_is_named_quickly(self, tmp_path, capsys):
        values = ",".join(map(str, range(50_000))) + ",7.0"
        start = time.perf_counter()
        code = run(["sweep", "--axis", "alpha", "--values", values, "--gamma-s-db", "9", "--gamma-w-db", "2",
                    "--out", str(tmp_path / "x")])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert capsys.readouterr().err == "error: bad value for 'values': repeated entry '7.0'\n"

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--axis", "beta", "--values", "0.1", "--alphas", "-1"], "alphas"),
            (["--axis", "beta", "--values", "0.1", "--alphas", "nan"], "alphas"),
            (["--axis", "alpha", "--values", "1", "--betas", "1.5"], "betas"),
            (["--axis", "alpha", "--values", "1", "--betas", "beta_star,-0.1"], "betas"),
            (["--axis", "alpha", "--values=-1,2"], "values"),
            (["--axis", "beta", "--values", "0.1,1.5"], "values"),
            (["--axis", "beta", "--values", "0.1", "--alphas", ","], "alphas"),
            (["--axis", "alpha", "--values", "1", "--betas", " , "], "betas"),
        ],
    )
    def test_bad_alpha_or_beta_names_its_key(self, tmp_path, capsys, flags, key):
        base = tmp_path / "x"
        code = run(["sweep", *flags, "--gamma-s-db", "9", "--gamma-w-db", "2", "--out", str(base)])
        assert code == 2
        assert f"error: bad value for {key!r}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_values_may_start_with_a_negative_number(self, tmp_path):
        # argparse alone reads "-5,-2,0" as an unknown flag.
        a, b = tmp_path / "a" / "x", tmp_path / "b" / "x"
        flags = ["--axis", "gamma-w", "--gamma-s-db", "9"]
        assert run(["sweep", *flags, "--values", "-5,-2,0", "--out", str(a)]) == 0
        assert run(["sweep", *flags, "--values=-5,-2,0", "--out", str(b)]) == 0
        for suffix in (".csv", ".json"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()
        manifest = (a.parent / "x.manifest.txt").read_text(encoding="utf-8")
        assert manifest.replace(str(a), str(b)) == (b.parent / "x.manifest.txt").read_text(encoding="utf-8")
        rows = parse_campaign_csv_ref(a.with_suffix(".csv"))
        assert sorted({r.gamma_w_db for r in rows}) == [-5.0, -2.0, 0.0]

    def test_reproduce_line_quotes_a_path_with_a_space(self, tmp_path):
        base = tmp_path / "a b" / "x"
        flags = ["--axis", "gamma-w", "--values", "-5,0", "--gamma-s-db", "9", "--solver", "suboptimal"]
        assert run(["sweep", *flags, "--out", str(base)]) == 0
        assert_reproduced(base.with_suffix(".csv"), base.with_suffix(".json"), base.with_name("x.manifest.txt"))

    def test_misordered_link_is_named_in_db(self, tmp_path, capsys):
        base = tmp_path / "x"
        argv = ["sweep", "--axis", "gamma-s", "--values=0,5", "--gamma-w-db", "2", "--out", str(base)]
        assert run([*argv, "--betas", "0"]) == 2
        assert "strong/weak ordering violated: gamma_s 0.0 dB < gamma_w 2.0 dB" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        # The token alone skips the misordered link (beta_star < 0).
        assert run([*argv, "--betas", "beta_star"]) == 0
        rows = parse_campaign_csv_ref(base.with_suffix(".csv"))
        assert rows and {(r.gamma_s_db, r.gamma_w_db) for r in rows} == {(5.0, 2.0)}

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--axis", "gamma-s", "--values", "12,15", "--gamma-s-db", "99", "--gamma-w-db", "2"], "gamma-s"),
            (["--axis", "gamma-w", "--values=-1,2", "--gamma-w-db", "99", "--gamma-s-db", "9"], "gamma-w"),
        ],
        ids=["gamma-s", "gamma-w"],
    )
    def test_fixed_sinr_of_the_swept_axis_is_rejected(self, tmp_path, capsys, flags, key):
        # --values sets the swept SINR, so a fixed one would be ignored, yet
        # recorded in the manifest and its reproduce line.
        assert run(["sweep", *flags, "--out", str(tmp_path / "x")]) == 2
        message = f"error: --{key}-db conflicts with --axis {key}, which takes its values from --values\n"
        assert capsys.readouterr().err == message
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "axis, values, flag, ignored, default",
        [("alpha", "1,3", "--alphas", "7", "1"), ("beta", "0,0.1", "--betas", "0.05", "0")],
    )
    def test_fixed_grid_of_the_swept_axis_is_rejected(self, tmp_path, capsys, axis, values, flag, ignored, default):
        # The same for --alphas and --betas, except that the flag's default is
        # accepted: every reproduce line records it, also for the swept axis.
        argv = ["sweep", "--axis", axis, "--values", values, "--gamma-s-db", "9", "--gamma-w-db", "2"]
        assert run([*argv, flag, ignored, "--out", str(tmp_path / "x")]) == 2
        message = f"error: {flag} conflicts with --axis {axis}, which takes its values from --values\n"
        assert capsys.readouterr().err == message
        assert not any(tmp_path.iterdir())
        base = tmp_path / "default" / "x"
        assert run([*argv, "--out", str(base)]) == 0
        manifest = base.with_name("x.manifest.txt")
        assert f" {flag} {default} " in manifest.read_text(encoding="utf-8")
        assert_reproduced(base.with_suffix(".csv"), base.with_suffix(".json"), manifest)

    def test_missing_fixed_gamma_exit_2(self, tmp_path):
        code = run(
            ["sweep", "--axis", "alpha", "--values", "1", "--gamma-w-db", "2",
             "--out", str(tmp_path / "x")]
        )
        assert code == 2


_PAIR_FLAGS = ["--beta", "0", "--alpha", "1"]
_ALPHA_SWEEP_FLAGS = ["--axis", "alpha", "--values", "1"]


@pytest.mark.parametrize("value", ["4000", "-4000", "nan", "inf"])
@pytest.mark.parametrize(
    "argv, key",
    [
        (["pair", *_PAIR_FLAGS, "--gamma-s-db={}", "--gamma-w-db", "2"], "gamma_s_db"),
        (["pair", *_PAIR_FLAGS, "--gamma-s-db", "9", "--gamma-w-db={}"], "gamma_w_db"),
        (["sweep", *_ALPHA_SWEEP_FLAGS, "--gamma-s-db={}", "--gamma-w-db", "2"], "gamma_s_db"),
        (["sweep", *_ALPHA_SWEEP_FLAGS, "--gamma-s-db", "9", "--gamma-w-db={}"], "gamma_w_db"),
        (["sweep", "--axis", "gamma-s", "--values={}", "--gamma-w-db", "2"], "values"),
        (["sweep", "--axis", "gamma-w", "--values={}", "--gamma-s-db", "9"], "values"),
    ],
)
def test_sinr_db_must_give_a_positive_finite_ratio(tmp_path, capsys, argv, key, value):
    # 4000 dB overflows the linear ratio and -4000 dB underflows it to zero.
    out = ["--json", str(tmp_path / "pair.json")] if argv[0] == "pair" else ["--out", str(tmp_path / "x")]
    assert run([arg.format(value) for arg in argv] + out) == 2
    assert f"error: bad value for {key!r}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-inf", "-nan", "-INF", "-NaN", "-infinity"])
@pytest.mark.parametrize(
    "argv, key",
    [
        (["pair", "--gamma-s-db", "{}", "--gamma-w-db", "2", "--beta", "0", "--alpha", "1"], "gamma_s_db"),
        (["sweep", "--axis", "gamma-s", "--values", "{}", "--gamma-w-db", "2", "--out", "{out}"], "values"),
    ],
)
def test_minus_inf_or_nan_is_a_value_not_an_option(tmp_path, capsys, argv, key, value):
    # argparse alone reads "-inf" as an unknown flag and says "expected one argument".
    assert run([arg.format(value, out=tmp_path / "x") for arg in argv]) == 2
    assert f"error: bad value for {key!r}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize(
    "rule, bad",
    [("alpha", bad) for bad in (-0.5, math.nan, math.inf, -math.inf)]
    + [("beta", bad) for bad in (-0.1, 1.5, math.nan)]
    + [("threads", bad) for bad in (0, -3)],
)
def test_an_input_rule_reads_the_same_at_every_site(tmp_path, capsys, rule, bad):
    # One library check states each input rule, so every library call that takes
    # the value and the CLI option that parses it reject a bad value with the same
    # text, exit code 2 on the CLI, before anything runs or is written.
    net, out = NetworkConfig(trials=1), tmp_path / "o"
    rule_text = {"alpha": "must be >= 0", "beta": "must lie in [0, 1]", "threads": "must be >= 1"}[rule]
    expected = f"{rule} {rule_text}, got {bad!r}"
    if rule == "alpha":
        calls = [lambda: FairnessConfig(alpha=bad), lambda: utility(2.0, bad), lambda: alpha_throughput(2.0, 3.0, bad)]
        argv, err = ["simulate", f"--alphas={bad!r}", "--out-dir", str(out)], f"bad value for 'alphas': {expected}"
    elif rule == "beta":
        calls = [lambda: delta_lower_bound(2.0, bad), lambda: PairLink(2.0, 1.0, bad)]
        # The campaign names its betas and shows them as a sorted list.
        assert _raised(lambda: run_campaign(net, [(1.0, bad)], [Strategy.OMA])) == f"betas {rule_text}, got {[bad]!r}"
        argv, err = ["pair", "--gamma-s-db", "9", "--gamma-w-db", "2", "--alpha", "1", f"--beta={bad!r}"], expected
    else:
        calls = [lambda: run_campaign(net, [(1.0, 0.01)], [Strategy.OMA], threads=bad)]
        argv, err = ["simulate", f"--threads={bad!r}", "--out-dir", str(out)], f"bad value for 'threads': {expected}"
    assert [_raised(call) for call in calls] == [expected] * len(calls)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "gs_db, gw_db",
    # The last pair's linear ratios round to the same value, yet its dB values are misordered.
    [("2", "9"), ("0", "2"), ("15.92", "15.920000000000002")],
)
def test_the_order_rule_reads_the_same_at_every_site(tmp_path, capsys, gs_db, gw_db):
    # One library check states the strong/weak order. The sweep and pair check
    # the dB values they were given, the link its linear ones; the CLI exits 2
    # before anything is written.  At the beta_star token the sweep skips such
    # a link (its beta_star is not positive) instead.
    text = "strong/weak ordering violated: gamma_s {} < gamma_w {}"
    assert _raised(lambda: PairLink(1.0, 2.0)) == text.format(1.0, 2.0)
    link = float(gs_db), float(gw_db)
    expected = text.format(f"{link[0]!r} dB", f"{link[1]!r} dB")
    assert _raised(lambda: emit_delta_sweep([link], [0.0], [1.0])) == expected
    assert emit_delta_sweep([link], [BETA_STAR_TOKEN], [1.0]) == []
    for values in (gs_db, f"{gs_db},99"):
        sweep = ["sweep", "--axis", "gamma-s", f"--values={values}", "--gamma-w-db", gw_db]
        assert run([*sweep, "--out", str(tmp_path / "o" / "x")]) == 2
        assert capsys.readouterr() == ("", f"error: {expected}\n")
    pair = ["pair", "--gamma-s-db", gs_db, "--gamma-w-db", gw_db, "--beta", "0", "--alpha", "1"]
    assert run([*pair, "--json", str(tmp_path / "o" / "pair.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {expected}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "link, beta, alpha, expected",
    [
        (("2", "9"), "1.5", "-1", "strong/weak ordering violated: gamma_s 2.0 dB < gamma_w 9.0 dB"),
        (("9", "2"), "1.5", "-1", "beta must lie in [0, 1], got 1.5"),
        (("9", "2"), "0", "-1", "alpha must be >= 0, got -1.0"),
    ],
)
def test_pair_names_the_order_then_beta_then_alpha(capsys, link, beta, alpha, expected):
    argv = ["pair", "--gamma-s-db", link[0], "--gamma-w-db", link[1], "--beta", beta, f"--alpha={alpha}", "--tau", "1"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {expected}\n")


class TestSimulateCommand:
    def _simulate(self, out_dir, extra=()):
        return run(
            [
                "simulate",
                "--seed", "1", "--trials", "6",
                "--alphas", "1", "--betas", "0.01,0.1",
                "--threads", "1",
                "--out-dir", str(out_dir),
                *extra,
            ]
        )

    def test_writes_three_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert self._simulate(out) == 0
        assert (out / "campaign.csv").exists()
        assert (out / "campaign.json").exists()
        assert (out / "manifest.txt").exists()

    def test_manifests_record_the_numpy_build(self, tmp_path):
        # The artifacts' last bits rest on NumPy's version and the SIMD loops it dispatches to.
        umath = np._core._multiarray_umath
        assert self._simulate(tmp_path / "run") == 0
        flags = ["--axis", "alpha", "--values", "1", "--gamma-s-db", "9", "--gamma-w-db", "2"]
        assert run(["sweep", *flags, "--out", str(tmp_path / "sweep")]) == 0
        for manifest in (tmp_path / "run" / "manifest.txt", tmp_path / "sweep.manifest.txt"):
            [line] = [line for line in manifest.read_text(encoding="utf-8").splitlines() if line.startswith("# numpy")]
            pattern = r"# numpy (\S+); SIMD baseline: (.*); dispatch on this CPU: (.*)"
            version, baseline, found = re.fullmatch(pattern, line).groups()
            assert version == np.__version__
            assert baseline.split() == list(umath.__cpu_baseline__)
            assert found.split() == [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._simulate(a)
        self._simulate(b)
        assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()
        assert (a / "campaign.json").read_bytes() == (b / "campaign.json").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path, forks):
        # Acceptance check 11's campaign (default strategies, alphas 1, betas
        # 0.01,0.06) runs in one process at its 8 trials; at 33, the fewest
        # whose two shares each hold a chunk budget of work, --threads 2 forks.
        def simulate(out, threads):
            argv = ["simulate", "--seed", "7", "--trials", "33", "--alphas", "1", "--betas", "0.01,0.06",
                    "--threads", threads, "--out-dir", str(out)]
            assert run(argv) == 0
            return (out / "campaign.csv").read_bytes(), (out / "campaign.json").read_bytes()

        # manifests record the thread count; the data artifacts must not move
        assert simulate(tmp_path / "a", "1") == simulate(tmp_path / "b", "2")
        assert len(forks) == (sys.platform == "linux")

    def test_near_far_drops_below_oma_at_high_imperfection(self, tmp_path):
        out = tmp_path / "nf"
        code = run(
            [
                "simulate", "--seed", "1", "--trials", "60",
                "--alphas", "1", "--betas", "0.1",
                "--strategies", "near_far,oma",
                "--threads", "1", "--out-dir", str(out),
            ]
        )
        assert code == 0
        rows = parse_campaign_csv_ref(out / "campaign.csv")
        t = {r.strategy: r.value for r in rows if r.metric == "t_alpha"}
        assert t["near_far"] < t["oma"]

    def test_rerun_from_manifest_reproduces_output(self, tmp_path):
        a = tmp_path / "a"
        self._simulate(a)
        b = tmp_path / "b"
        code = run(["simulate", "--config", str(a / "manifest.txt"), "--out-dir", str(b)])
        assert code == 0
        assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()

    def test_reproduce_line_quotes_a_path_with_a_space(self, tmp_path):
        out = tmp_path / "a b" / "run"
        assert self._simulate(out, extra=("--threads", "2", "--strategies", "suboptimal,oma")) == 0
        assert_reproduced(out / "campaign.csv", out / "campaign.json", out / "manifest.txt")

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = 3\nbogus_key = 1\n", encoding="utf-8")
        code = run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and ":2" in err

    def test_unreadable_config_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run(["simulate", "--config", str(missing), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {missing}: ")
        assert not (tmp_path / "o").exists()

    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        # The last value would win silently; the error names the key and both lines.
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("trials = 2\n# again\ntrials = 3\n", encoding="utf-8")
        code = run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "twice.cfg:3: repeated key 'trials', first set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# fine\ntrials 3\n", encoding="utf-8")
        code = run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bs_density", "nan"),
            ("user_density", "inf"),
            ("area_km2", "0"),
            ("tx_power_dbm", "nan"),
            ("noise_power_dbm", "inf"),
            ("pathloss_intercept_db", "-inf"),
            ("pathloss_slope_db", "nan"),
            ("pathloss_min_distance_km", "-1"),
            ("pathloss_min_distance_km", "0"),
            ("seed", "-1"),
            ("bs_density", "1e-9"),  # a drop would redraw about 1e9 times
            # Deleted settings are unknown keys.
            ("fading_scale", "nan"),
            ("pathloss_model", "urban_macro"),
            ("solver_tol", "1e-9"),
            ("tx_power_dbm", "4000"),
            ("tx_power_dbm", "-4000"),
            ("noise_power_dbm", "4000"),
            ("noise_power_dbm", "-4000"),
            ("betas", "0.1,1.5"),
            ("strategies", "oma,oma"),
            ("strategies", "near_far,suboptimal,near_far"),
            ("alphas", "1,1.0"),
            ("betas", "0.1,0.05,0.10"),
            ("alphas", "-1"),
            ("alphas", "1,nan"),
            ("alphas", "inf"),
            ("betas", "-0.5"),
            ("alphas", ""),
            ("betas", ","),
            ("strategies", ", ,"),
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"trials = 1\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run(["simulate", "--config", str(cfg), "--threads", "1", "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"(^error: |bad value for '|unknown key '){re.escape(key)}\b", err), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, entry",
        [("strategies", "oma,oma", "oma"), ("strategies", "near_far, oma ,near_far", "near_far"),
         ("alphas", "1,1.0", "1.0"), ("betas", "0.1,0.05,0.10", "0.10")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_entry_is_named_as_written(self, tmp_path, capsys, key, value, entry, source):
        if source == "flag":
            argv, where = [f"--{key}", value], ""
        else:
            cfg = tmp_path / "repeat.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            argv, where = ["--config", str(cfg)], f"{cfg}:1: "
        out = tmp_path / "o"
        assert run(["simulate", "--trials", "1", "--threads", "1", *argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {where}bad value for {key!r}: repeated entry {entry!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_alphas_that_print_alike_are_rejected(self, tmp_path, capsys, source):
        if source == "flag":
            argv, where = ["--alphas", "1,1.0000000001"], ""
        else:
            cfg = tmp_path / "alike.cfg"
            cfg.write_text("alphas = 1,1.0000000001\n", encoding="utf-8")
            argv, where = ["--config", str(cfg)], f"{cfg}:1: "
        out = tmp_path / "o"
        assert run(["simulate", "--trials", "1", "--threads", "1", *argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {where}bad value for 'alphas': repeated entry '1.0000000001', which prints like '1' at 9 significant digits\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("alphas", "-1,2"), ("alphas", "nan"), ("betas", "0.1,1.5"), ("threads", "0"),
            ("alphas", ","), ("betas", ","), ("strategies", ","),
        ],
    )
    def test_bad_alpha_or_beta_flag_names_its_key(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = run(["simulate", "--trials", "1", "--threads", "1", f"--{flag}", value, "--out-dir", str(out)])
        assert code == 2
        assert f"error: bad value for {flag!r}: " in capsys.readouterr().err
        assert not out.exists()

    def test_all_trials_empty_says_why(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("area_km2 = 0.01\nuser_density = 1\ntrials = 5\n", encoding="utf-8")
        net = NetworkConfig(area_km2=0.01, user_density=1.0, trials=5)
        assert all(len(drop_network(net, t).user_xy) == 0 for t in range(5))
        code = run(["simulate", "--config", str(cfg), "--threads", "1", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "all 5 trials dropped zero users" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_trial_failure_names_trial_and_point(self, tmp_path, capsys, monkeypatch, threads, forks):
        # Trial 3 runs in the second worker at --threads 2, forked on Linux
        # under a budget of one entry.
        if threads != "1":
            monkeypatch.setattr(netsim, "_CHUNK_ENTRIES", 1)
        net = NetworkConfig(seed=5)
        bad = set(compute_sinrs(drop_network(net, 3), net).gamma.tolist())
        split = netsim.split

        def failing(gate, strategy, fairness):
            if bad.intersection(gate.gamma_s.tolist()) and fairness.alpha == 2.0:
                raise ArithmeticError("boom")
            return split(gate, strategy, fairness)

        monkeypatch.setattr(netsim, "split", failing)
        code = run(
            ["simulate", "--seed", "5", "--trials", "4", "--alphas", "1,2", "--betas", "0.05",
             "--strategies", "suboptimal,oma", "--threads", threads,
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "runtime error: trial 3, alpha=2.0, beta=0.05: boom" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

        # A trial's betas are split in one pass; a failure at its second
        # beta alone must still name that beta.
        def failing_at_beta(gate, strategy, fairness):
            if bad.intersection(gate.gamma_s.tolist()) and 0.05 in gate.beta.ravel().tolist():
                raise ArithmeticError("boom at 0.05")
            return split(gate, strategy, fairness)

        monkeypatch.setattr(netsim, "split", failing_at_beta)
        code = run(
            ["simulate", "--seed", "5", "--trials", "4", "--alphas", "1,2", "--betas", "0.01,0.05",
             "--strategies", "suboptimal,oma", "--threads", threads,
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "runtime error: trial 3, alpha=1.0, beta=0.05: boom at 0.05" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

        # All of a trial's points are one table; a failure at its last point
        # alone must name both its alpha and its beta.
        def failing_at_point(gate, strategy, fairness):
            if (bad.intersection(gate.gamma_s.tolist()) and fairness.alpha == 2.0
                    and 0.05 in gate.beta.ravel().tolist()):
                raise ArithmeticError("boom at the point")
            return split(gate, strategy, fairness)

        monkeypatch.setattr(netsim, "split", failing_at_point)
        code = run(
            ["simulate", "--seed", "5", "--trials", "4", "--alphas", "1,2", "--betas", "0.01,0.05",
             "--strategies", "suboptimal,oma", "--threads", threads,
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "runtime error: trial 3, alpha=2.0, beta=0.05: boom at the point" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert len(forks) == (3 * (int(threads) - 1) if sys.platform == "linux" else 0)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_failures_in_two_shares_name_the_lower_trial(self, tmp_path, capsys, monkeypatch, threads, forks):
        # At --threads 2 and 3, trial 1 runs in the parent's share and trial 4
        # in a forked child's share, under a budget of one entry.  Both fail,
        # trial 4 at an earlier point; the lower trial and its first failing
        # point are named, as at one worker.
        if threads != "1":
            monkeypatch.setattr(netsim, "_CHUNK_ENTRIES", 1)
        net = NetworkConfig(seed=5)
        gammas = {t: set(compute_sinrs(drop_network(net, t), net).gamma.tolist()) for t in (1, 4)}
        split = netsim.split

        def failing(gate, strategy, fairness):
            here, betas = set(gate.gamma_s.tolist()), gate.beta.ravel().tolist()
            if here & gammas[1] and fairness.alpha == 2.0 and 0.05 in betas:
                raise ArithmeticError("boom in trial 1")
            if here & gammas[4]:
                raise ArithmeticError("boom in trial 4")
            return split(gate, strategy, fairness)

        monkeypatch.setattr(netsim, "split", failing)
        code = run(
            ["simulate", "--seed", "5", "--trials", "6", "--alphas", "1,2", "--betas", "0.01,0.05",
             "--strategies", "suboptimal,oma", "--threads", threads,
             "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "runtime error: trial 1, alpha=2.0, beta=0.05: boom in trial 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert len(forks) == (int(threads) - 1 if sys.platform == "linux" else 0)

    def test_no_process_pool_module_is_imported(self, tmp_path):
        # Importing the CLI, a one-worker run and a two-worker run leave
        # multiprocessing and concurrent.futures unimported: a campaign's
        # extra workers are forked with os.fork, once at 33 default trials, the
        # fewest whose two shares each hold a chunk budget of work.
        script = (
            "import os, sys\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "import noma_fair.cli as cli\n"
            "pools = ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process')\n"
            "assert not any(name in sys.modules for name in pools)\n"
            f"argv = ['simulate', '--trials', '1', '--threads', '1', '--out-dir', {str(tmp_path / 'o')!r}]\n"
            "assert cli.main(argv) == 0\n"
            "assert not any(name in sys.modules for name in pools)\n"
            f"argv = ['simulate', '--trials', '33', '--threads', '2', '--out-dir', {str(tmp_path / 'o2')!r}]\n"
            "assert cli.main(argv) == 0\n"
            "assert not any(name in sys.modules for name in pools)\n"
            "assert len(forks) == (sys.platform == 'linux')\n"
        )
        src = str(Path(netsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-c", script], check=True, env=env, cwd=tmp_path)
        assert (tmp_path / "o" / "campaign.csv").exists()
        assert (tmp_path / "o2" / "campaign.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sinr_failure_names_its_trial(self, tmp_path, capsys, threads, forks):
        # A 4000 dB/decade slope overflows the received powers of users
        # within 1 km of a station; the drop and SINRs precede every sweep point.
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(
            "pathloss_slope_db = 4000\narea_km2 = 100\nbs_density = 0.02\ntrials = 2\n",
            encoding="utf-8",
        )
        code = run(
            ["simulate", "--config", str(cfg), "--threads", threads, "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error: trial 0: user 891: gamma must be positive and finite, got 0.0" in err
        assert not (tmp_path / "o").exists()
        assert len(forks) == (int(threads) - 1 if sys.platform == "linux" else 0)

    def test_hopeless_link_budget_names_its_keys(self, tmp_path, capsys):
        # At 300 dBm of noise even a user at the minimum distance would get
        # an OMA rate of 0: the config is rejected before any trial runs.
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text("noise_power_dbm = 300\ntrials = 2\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tx_power_dbm - noise_power_dbm - "), err
        for key in ("pathloss_intercept_db", "pathloss_slope_db", "pathloss_min_distance_km"):
            assert key in err, (key, err)
        assert not out.exists()

    def test_rates_that_round_to_zero_name_the_first_one_briefly(self, tmp_path, capsys):
        # At 150 dBm of noise a user at the minimum distance would keep a
        # positive rate, but every drawn SINR is positive and its rate rounds
        # to 0; the error names the first failing rate, not the whole array
        # of them.
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text("noise_power_dbm = 150\ntrials = 2\n", encoding="utf-8")
        assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("runtime error: trial 0, alpha=1.0, beta=0.01: r_s must be positive and finite, got 0.0 at")
        assert "array" not in err and len(err) < 300, err

    def test_unknown_strategy_exit_2(self, tmp_path):
        code = run(
            ["simulate", "--strategies", "psychic", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2


class TestPairSweepAgreement:
    @pytest.mark.parametrize("solver", ["optimal", "suboptimal"])
    def test_pair_report_matches_sweep_rows(self, tmp_path, solver):
        # Admitted at low beta, rejected by the beta gate, rejected by the
        # pairing criterion (close SINRs), and admitted just inside beta_star
        # through the token.  Equal SINRs have beta_star = 0, so their token
        # rows are skipped.
        alphas, betas = ("0.5", "3"), ("0", "0.04", "0.3", "beta_star")
        links = (("9", "2"), ("12", "0"), ("4", "3.5"), ("5", "5"))
        for gs_db, gw_db in links:
            base = tmp_path / f"sweep_{gs_db}_{gw_db}"
            code = run(
                ["sweep", "--axis", "beta", "--values", ",".join(betas),
                 "--alphas", ",".join(alphas), "--gamma-s-db", gs_db, "--gamma-w-db", gw_db,
                 "--solver", solver, "--out", str(base)]
            )
            assert code == 0
            rows = parse_campaign_csv_ref(base.with_name(base.name + ".csv"))  # "sweep_4_3.5.csv"
            swept = {(r.alpha, r.beta, r.metric): r.value for r in rows}
            star = beta_star(db_to_linear(float(gs_db)), db_to_linear(float(gw_db)))
            assert {r.beta for r in rows} - {0.0, 0.04, 0.3} == (
                {float(format_value(star * (1 - 1e-9)))} if star > 0 else set()
            )
            for alpha in alphas:
                for beta in betas:
                    if beta == "beta_star":
                        if star <= 0:
                            continue
                        beta = repr(star * (1 - 1e-9))
                    report_path = tmp_path / "pair.json"
                    code = run(
                        ["pair", "--gamma-s-db", gs_db, "--gamma-w-db", gw_db, "--beta", beta,
                         "--alpha", alpha, "--solver", solver, "--json", str(report_path)]
                    )
                    assert code == 0
                    report = json.loads(report_path.read_text())
                    for metric in ("delta_lb", "delta_ub", "msd_satisfied", "delta_s"):
                        want = report.get(metric)
                        got = swept.get((float(alpha), float(format_value(float(beta))), metric))
                        assert got == (None if want is None else float(format_value(want)))
            assert {r.metric for r in rows} >= {"delta_lb", "delta_ub", "msd_satisfied"}
        # One sweep over every link gives each link's rows, in link order.
        links = [(float(gs_db), float(gw_db)) for gs_db, gw_db in links]
        args = ([0.0, 0.04, 0.3, "beta_star"], [0.5, 3.0])
        assert emit_delta_sweep(links, *args, solver=Strategy(solver)) == [
            row for link in links for row in emit_delta_sweep([link], *args, solver=Strategy(solver))
        ]


class TestSettingsTable:
    # README defaults that are descriptions rather than values.
    DESCRIBED = {"strategies": "all six", "threads": "the CPUs this process may run on"}

    def test_readme_lists_exactly_the_settings(self):
        assert sorted(key for key, _ in readme_config_table()) == sorted(SETTINGS)

    def test_readme_defaults_match_the_table(self):
        def plain(value):
            return list(value) if isinstance(value, (list, tuple)) else value

        for key, text in readme_config_table():
            parser, default = SETTINGS[key]
            if key in self.DESCRIBED:
                assert text == self.DESCRIBED[key]
            else:
                assert plain(parser(text)) == plain(default), key
        assert len(SETTINGS["strategies"][1]) == 6
        assert SETTINGS["threads"][1] is None

    def test_pair_and_sweep_defaults_are_the_fairness_defaults(self):
        want = {f.name: f.default for f in fields(FairnessConfig) if f.name != "alpha"}
        parser = build_parser()
        pair = parser.parse_args(
            ["pair", "--gamma-s-db", "9", "--gamma-w-db", "2", "--beta", "0", "--alpha", "1"]
        )
        sweep = parser.parse_args(["sweep", "--axis", "alpha", "--values", "1", "--out", "s"])
        for args in (pair, sweep):
            assert {key: getattr(args, key) for key in want} == want
        for fn in (run_campaign, emit_delta_sweep):
            params = inspect.signature(fn).parameters
            assert {key: params[key].default for key in want} == want, fn.__name__


class TestConfigFile:
    def test_parses_all_schema_keys(self, tmp_path):
        cfg = tmp_path / "full.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# campaign configuration",
                    "bs_density = 25.0",
                    "user_density = 120.0",
                    "area_km2 = 1.0",
                    "tx_power_dbm = 46.0",
                    "noise_power_dbm = -95.0",
                    "pathloss_intercept_db = 128.1",
                    "pathloss_slope_db = 37.6",
                    "pathloss_min_distance_km = 0.001",
                    "trials = 10",
                    "seed = 42",
                    "alphas = 0.5,1,2",
                    "betas = 0.01,0.06",
                    "strategies = optimal,oma",
                    "tau = 0.5",
                    "threads = 2",
                ]
            ),
            encoding="utf-8",
        )
        parsed = parse_config_file(cfg)
        assert parsed["trials"] == 10
        assert parsed["alphas"] == [0.5, 1.0, 2.0]
        assert [s.value for s in parsed["strategies"]] == ["optimal", "oma"]

    def test_inline_comments_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3  # master seed\n", encoding="utf-8")
        assert parse_config_file(cfg)["seed"] == 3

    def test_threads_fallback(self):
        from noma_fair.cli import _resolve_threads

        assert _resolve_threads(2) == 2
        assert _resolve_threads(None) >= 1

    def test_threads_default_to_the_cpus_this_process_may_run_on(self, monkeypatch):
        # As under `taskset -c 0`: one allowed CPU is one worker, whatever the machine has.
        from noma_fair.cli import _resolve_threads

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _resolve_threads(None) == 1
        assert _resolve_threads(3) == 3


def _dispatched_avx512() -> list[str]:
    umath = np._core._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t] and (t == "X86_V4" or t.startswith("AVX512"))]


@pytest.mark.skipif(not _dispatched_avx512(), reason="NumPy dispatches no AVX-512 target on this CPU")
@pytest.mark.parametrize(
    "argv, rel_tol",
    [
        # Measured: campaign values and stderrs moved by at most 3.2e-9 relative
        # and the `optimal` sweep splits by at most 2.2e-7 (README, Determinism).
        (["simulate", "--seed", "2", "--trials", "30", "--alphas", "1,3", "--betas", "0.01,0.06,0.1",
          "--threads", "1", "--out-dir", "run"], 1e-8),
        (["sweep", "--axis", "gamma-s", "--values=" + ",".join(f"{11.05 + 0.9 * i:.2f}" for i in range(40)),
          "--gamma-w-db=11", "--alphas", "0.3,0.7,1", "--betas", "0,0.02,beta_star", "--solver", "optimal",
          "--out", "run/sweep"], 1e-6),
    ],
    ids=["campaign", "sweep"],
)
def test_artifacts_agree_across_simd_dispatch_targets(tmp_path, argv, rel_tol):
    # Switching NumPy's AVX-512 targets off moves its transcendental loops to
    # another code path, which may round differently in the last bit: keys,
    # trial counts and row order stay, and the values agree within rel_tol.
    targets = _dispatched_avx512()
    src = str(Path(netsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}):
        cwd = tmp_path / str(len(runs))
        cwd.mkdir()
        subprocess.run([sys.executable, "-m", "noma_fair.cli", *argv], check=True, env={**env, **extra}, cwd=cwd)
        [csv_path] = (cwd / "run").glob("*.csv")
        [manifest] = (cwd / "run").glob("*manifest.txt")
        [found] = re.findall(r"dispatch on this CPU: (.*)", manifest.read_text(encoding="utf-8"))
        with open(csv_path, encoding="utf-8", newline="") as fh:
            runs.append((found.split(), list(csv.DictReader(fh))))
    (default, rows), (switched, other) = runs
    assert set(targets) <= set(default) and not set(targets) & set(switched)

    def keys(table):
        return [{k: v for k, v in row.items() if k not in ("value", "stderr")} for row in table]

    def agree(a, b):
        return a == b or math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=0.0)

    assert keys(rows) == keys(other)
    assert all(agree(x[k], y[k]) for x, y in zip(rows, other) for k in ("value", "stderr"))
