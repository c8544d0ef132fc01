import inspect
import json
from dataclasses import fields
from pathlib import Path

import pytest

from noma_fair import netsim
from noma_fair.bounds import beta_star
from noma_fair.cli import SETTINGS, build_parser, main, parse_config_file
from noma_fair.fairness import FairnessConfig
from noma_fair.netsim import NetworkConfig, compute_sinrs, drop_network, run_campaign
from noma_fair.rates import Strategy, db_to_linear
from noma_fair.report import emit_delta_sweep, format_value, parse_campaign_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return main(argv)


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
        rows = parse_campaign_csv(base.with_suffix(".csv"))
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
        rows = parse_campaign_csv(base.with_suffix(".csv"))
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
        rows = parse_campaign_csv(base.with_suffix(".csv"))
        assert {r.beta for r in rows} == {0.05}

    def test_empty_values_exit_2(self, tmp_path, capsys):
        code = run(
            ["sweep", "--axis", "alpha", "--values", ",", "--gamma-s-db", "9",
             "--gamma-w-db", "2", "--out", str(tmp_path / "x")]
        )
        assert code == 2

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
        assert f"bad value for {key!r}: repeated entry" in capsys.readouterr().err
        assert not base.with_suffix(".csv").exists()

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--axis", "beta", "--values", "0.1", "--alphas", "-1"], "alphas"),
            (["--axis", "beta", "--values", "0.1", "--alphas", "nan"], "alphas"),
            (["--axis", "alpha", "--values", "1", "--betas", "1.5"], "betas"),
            (["--axis", "alpha", "--values", "1", "--betas", "beta_star,-0.1"], "betas"),
            (["--axis", "alpha", "--values=-1,2"], "values"),
            (["--axis", "beta", "--values", "0.1,1.5"], "values"),
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
        rows = parse_campaign_csv(a.with_suffix(".csv"))
        assert sorted({r.gamma_w_db for r in rows}) == [-5.0, -2.0, 0.0]

    def test_misordered_link_is_named_in_db(self, tmp_path, capsys):
        base = tmp_path / "x"
        argv = ["sweep", "--axis", "gamma-s", "--values=0,5", "--gamma-w-db", "2", "--out", str(base)]
        assert run([*argv, "--betas", "0"]) == 2
        assert "strong/weak ordering violated: gamma_s 0.0 dB < gamma_w 2.0 dB" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        # The token alone skips the misordered link (beta_star < 0).
        assert run([*argv, "--betas", "beta_star"]) == 0
        rows = parse_campaign_csv(base.with_suffix(".csv"))
        assert rows and {(r.gamma_s_db, r.gamma_w_db) for r in rows} == {(5.0, 2.0)}

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

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._simulate(a)
        self._simulate(b)
        assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()
        assert (a / "campaign.json").read_bytes() == (b / "campaign.json").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._simulate(a)
        self._simulate(b, extra=("--threads", "2"))
        # manifests record the thread count; the data artifacts must not move
        assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()

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
        rows = parse_campaign_csv(out / "campaign.csv")
        t = {r.strategy: r.value for r in rows if r.metric == "t_alpha"}
        assert t["near_far"] < t["oma"]

    def test_rerun_from_manifest_reproduces_output(self, tmp_path):
        a = tmp_path / "a"
        self._simulate(a)
        b = tmp_path / "b"
        code = run(["simulate", "--config", str(a / "manifest.txt"), "--out-dir", str(b)])
        assert code == 0
        assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = 3\nbogus_key = 1\n", encoding="utf-8")
        code = run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and ":2" in err

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
            ("fading_scale", "nan"),
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
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"trials = 1\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run(["simulate", "--config", str(cfg), "--threads", "1", "--out-dir", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("alphas", "-1,2"), ("alphas", "nan"), ("betas", "0.1,1.5")]
    )
    def test_bad_alpha_or_beta_flag_names_its_key(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = run(["simulate", "--trials", "1", f"--{flag}", value, "--threads", "1", "--out-dir", str(out)])
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
    def test_trial_failure_names_trial_and_point(self, tmp_path, capsys, monkeypatch, threads):
        # Trial 3 runs in the second worker at --threads 2.
        net = NetworkConfig(seed=5)
        bad = {u.gamma for u in compute_sinrs(drop_network(net, 3), net)}
        split = netsim.split

        def failing(gate, strategy, fairness):
            if bad.intersection(gate.links.gamma_s.tolist()) and fairness.alpha == 2.0:
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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sinr_failure_names_its_trial(self, tmp_path, capsys, threads):
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
            rows = parse_campaign_csv(base.with_suffix(".csv"))
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
    DESCRIBED = {"strategies": "all six", "threads": "machine parallelism"}

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
                    "pathloss_model = urban_macro",
                    "pathloss_intercept_db = 128.1",
                    "pathloss_slope_db = 37.6",
                    "pathloss_min_distance_km = 0.001",
                    "fading_scale = 1.0",
                    "trials = 10",
                    "seed = 42",
                    "alphas = 0.5,1,2",
                    "betas = 0.01,0.06",
                    "strategies = optimal,oma",
                    "tau = 0.5",
                    "solver_tol = 1e-9",
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
