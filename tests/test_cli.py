"""Command-line behavior: artifacts, determinism, config grammar, exit codes."""

from dataclasses import replace

import numpy as np
import pytest

from hybeam import cli, experiments
from hybeam.channel import SparseChannelConfig, SystemDims, load_channel_dump
from hybeam.experiments import (
    DEFAULT_DIMS,
    DEFAULT_SNR_GRID,
    PRESETS,
    VALIDATED_SWEEP,
    ResultRow,
    RunResult,
    draw_realization,
    realization_seed,
    rms_study,
    run_scenario,
    validate_closed_forms,
)

RUN_FAST = ["--realizations", "3", "--snr", "0,10"]


def run_cli(*argv):
    return cli.main(list(argv))


class TestParseSnrSpec:
    def test_range_grammar_inclusive(self):
        assert cli.parse_snr_spec("-10:20:5") == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
        assert cli.parse_snr_spec("0:1:0.5") == (0.0, 0.5, 1.0)

    def test_range_is_exact_in_decimal(self):
        assert cli.parse_snr_spec("0:1:0.1") == tuple(i / 10 for i in range(11))
        assert cli.parse_snr_spec("-10:20:5") == DEFAULT_SNR_GRID

    def test_comma_list(self):
        assert cli.parse_snr_spec("-10, 0, 10") == (-10.0, 0.0, 10.0)
        assert cli.parse_snr_spec("5") == (5.0,)

    def test_bad_specs(self):
        for text in ("1:2", "10:0:5", "0:10:-1", "", "a,b", "0:10:0", "0:inf:1", "0:1:nan"):
            with pytest.raises(ValueError):
                cli.parse_snr_spec(text)


class TestCsvRoundTrip:
    def test_rows_survive_exactly(self, tmp_path):
        rows = [
            ResultRow("s", "mf", -10.0, "rate", 1.0 / 3.0, 0.123456789012345678, 7, 42),
            ResultRow("s", "zf", 2.5, "rate", np.pi, 0.0, 7, 42),
        ]
        path = tmp_path / "out.csv"
        cli.write_csv(path, rows)
        assert cli.read_csv(path) == rows

    def test_trailer_comments_skipped(self, tmp_path):
        rows = [ResultRow("s", "mf", 0.0, "rate", 1.0, 0.0, 1, 1)]
        path = tmp_path / "out.csv"
        cli.write_csv(path, rows, trailer="PASS something\nFAIL other")
        text = path.read_text()
        assert "# PASS something" in text
        assert cli.read_csv(path) == rows

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,results,file\n1,2,3,4\n")
        with pytest.raises(ValueError):
            cli.read_csv(path)


class TestListCommand:
    def test_lists_all_presets(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 7
        assert out[0].startswith("fig2:")
        assert all("M=" in line and "K=" in line for line in out)


class TestRunCommand:
    def test_preset_run_writes_csv(self, tmp_path, capsys):
        outdir = tmp_path / "res"
        code = run_cli("run", "fig2", *RUN_FAST, "--outdir", str(outdir))
        assert code == 0
        rows = cli.read_csv(outdir / "fig2.csv")
        assert {r.scheme for r in rows} == {"capacity", "mf", "zf"}
        assert all(r.realizations == 3 for r in rows)

    def test_deterministic_output_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli("run", "fig3", *RUN_FAST, "--outdir", str(a)) == 0
        assert run_cli("run", "fig3", *RUN_FAST, "--outdir", str(b)) == 0
        assert (a / "fig3.csv").read_bytes() == (b / "fig3.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli("run", "fig3", *RUN_FAST, "--outdir", str(a))
        run_cli("run", "fig3", *RUN_FAST, "--seed", "5", "--outdir", str(b))
        assert (a / "fig3.csv").read_bytes() != (b / "fig3.csv").read_bytes()

    def test_dimension_overrides(self, tmp_path):
        outdir = tmp_path / "res"
        code = run_cli(
            "run", "fig2", *RUN_FAST, "--M", "12", "--U", "2", "--L", "2", "--K", "16",
            "--outdir", str(outdir),
        )
        assert code == 0

    def test_invalid_override_is_config_error(self, tmp_path, capsys):
        code = run_cli("run", "fig2", "--M", "2", "--U", "4", "--outdir", str(tmp_path))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_snr_is_config_error(self, tmp_path, capsys):
        for spec in ("inf", "0,nan", "-inf"):
            assert run_cli("run", "fig2", f"--snr={spec}", "--outdir", str(tmp_path)) == 2
            assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "fig2.csv").exists()

    def test_snr_without_a_linear_snr_rejected_before_any_draw(
        self, tmp_path, monkeypatch, capsys
    ):
        def never_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        for spec, named in (
            ("4000", "4000 dB"),
            ("-4000", "-4000 dB"),
            ("0,-4000,4000", "-4000 dB, 4000 dB"),
        ):
            code = run_cli("run", "fig2", *RUN_FAST, f"--snr={spec}", "--outdir", str(tmp_path))
            assert code == 2
            assert f"non-finite or zero linear SNRs: {named}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_seed_outside_64_bits_rejected_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def never_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        for seed in ("-1", str(2**64), str(2**64 + 5)):
            code = run_cli("run", "fig2", *RUN_FAST, "--seed", seed, "--outdir", str(tmp_path))
            assert code == 2
            error = capsys.readouterr().err
            assert f"master seed must be an integer in [0, {2**64}), got {seed}" in error
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_snr_points_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        for spec in ("0,0", "0,5,0", "-0,0"):
            assert run_cli("run", "fig2", f"--snr={spec}", "--outdir", str(tmp_path)) == 2
        assert "repeats" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "nosuch", "--outdir", str(tmp_path)) == 2

    def test_sweep_preset_emits_rms_rows(self, tmp_path):
        outdir = tmp_path / "res"
        code = run_cli("run", "fig5", "--realizations", "2", "--outdir", str(outdir))
        assert code == 0
        rows = cli.read_csv(outdir / "fig5.csv")
        assert {r.metric for r in rows} >= {"rms_mean", "rms_cdf_q50"}
        assert {r.snr_db for r in rows} == {20.0, 25.0, 100.0, 400.0, 500.0}

    def test_dump_channels(self, tmp_path, monkeypatch):
        # serial, so the counting patch sees every draw
        monkeypatch.delenv("HYBEAM_THREADS", raising=False)
        draws = []
        original_draw = experiments.draw_realization

        def draw(scenario, index, antennas=None):
            draws.append(index)
            return original_draw(scenario, index, antennas)

        monkeypatch.setattr(experiments, "draw_realization", draw)
        outdir = tmp_path / "res"
        code = run_cli(
            "run", "fig2", "--realizations", "2", "--snr", "0", "--M", "8",
            "--dump-channels", "--outdir", str(outdir),
        )
        assert code == 0
        # the dumped channel is the evaluated one: each is drawn once
        assert draws == [0, 1]
        dumps = sorted((outdir / "fig2_channels").iterdir())
        assert [p.name for p in dumps] == ["fig2_r0000.txt", "fig2_r0001.txt"]
        scenario = replace(
            PRESETS["fig2"].scenario, dims=replace(DEFAULT_DIMS, antennas=8), realizations=2
        )
        for index, path in enumerate(dumps):
            meta, taps = load_channel_dump(path)
            assert meta["seed"] == realization_seed(scenario, index)
            np.testing.assert_array_equal(taps.taps, draw_realization(scenario, index).taps.taps)

    def test_validate_appends_report(self, tmp_path, capsys):
        outdir = tmp_path / "res"
        code = run_cli(
            "run", "fig3", "--realizations", "2", "--snr", "0", "--outdir", str(outdir)
            , "--validate",
        )
        assert code == 0
        text = (outdir / "fig3.csv").read_text()
        assert "checks passed" in text
        # the appended report must not break reading
        rows = cli.read_csv(outdir / "fig3.csv")
        assert rows
        assert "checks passed" in capsys.readouterr().out

    def test_validate_runs_once_and_matches_a_separate_validation_run(
        self, tmp_path, monkeypatch
    ):
        # serial, so the counting patches see every call
        monkeypatch.delenv("HYBEAM_THREADS", raising=False)
        runs, draws = [], []
        original_run = cli.run_scenario
        original_draw = experiments.draw_realization

        def run(scenario, *args, antenna_sweep=(), **kwargs):
            runs.append((scenario.schemes, tuple(antenna_sweep)))
            return original_run(scenario, *args, antenna_sweep=antenna_sweep, **kwargs)

        def draw(scenario, index, antennas=None):
            draws.append((index, scenario.dims.antennas if antennas is None else antennas))
            return original_draw(scenario, index, antennas)

        for module in (cli, experiments):
            monkeypatch.setattr(module, "run_scenario", run)
        monkeypatch.setattr(experiments, "draw_realization", draw)
        small = ["--U", "2", "--L", "2", "--K", "16", "--realizations", "3"]
        # fig3 sweeps only the validated sizes; fig5's own sweep holds all of
        # them.  At M=25 the run's own size is one of the swept sizes
        cases = (
            ("fig3", 16, ("mf", "rf_1tap", "rf_ltap"), VALIDATED_SWEEP),
            ("fig5", 16, ("rf_1tap", "rf_ltap"), PRESETS["fig5"].antenna_sweep),
            ("fig3", 25, ("mf", "rf_1tap", "rf_ltap"), VALIDATED_SWEEP),
        )
        for target, antennas, schemes, grid in cases:
            runs.clear()
            draws.clear()
            code = run_cli(
                "run", target, *small, "--M", str(antennas), "--snr", "0,10", "--validate",
                "--outdir", str(tmp_path / f"{target}_{antennas}"),
            )
            assert code == 0
            # one call runs the schemes and the delay-spread sweep together
            assert runs == [(schemes, grid)]
            # and draws every (realization, size) once
            assert sorted(draws) == sorted(
                (index, m) for index in range(3) for m in {antennas, *grid}
            )

        monkeypatch.undo()
        for target, antennas, _, _ in cases:
            preset = PRESETS[target]
            scenario = replace(
                preset.scenario,
                dims=SystemDims(antennas=antennas, users=2, taps=2, subcarriers=16),
                realizations=3,
                snr_db=(0.0, 10.0),
            )
            separate = run_scenario(replace(scenario, schemes=("rf_1tap", "rf_ltap")))
            own = list(run_scenario(scenario).rows) if scenario.schemes else []
            if preset.antenna_sweep:
                own += rms_study(preset.antenna_sweep, scenario)
            validated = list(separate.rows) + rms_study(VALIDATED_SWEEP, scenario)
            expected = tmp_path / f"expected_{target}_{antennas}.csv"
            cli.write_csv(expected, own, validate_closed_forms(scenario, validated).render())
            written = tmp_path / f"{target}_{antennas}" / f"{target}.csv"
            assert written.read_bytes() == expected.read_bytes()

    def test_section_sweeping_its_own_size_is_worker_independent(self, tmp_path, monkeypatch):
        # the sweep's M=16 rows read the chunks the schemes are evaluated on;
        # 19 realizations make two whole chunks and a partial one
        config = tmp_path / "own.ini"
        config.write_text(
            "[own]\n"
            "M = 16\n"
            "U = 2\n"
            "L = 3\n"
            "K = 16\n"
            "realizations = 19\n"
            "snr = 0, 10\n"
            "schemes = capacity, rf_ltap, rf_1tap+zf, bank_2L\n"
            "antenna_sweep = 8, 16, 24\n"
        )
        written = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("HYBEAM_THREADS", threads)
            outdir = tmp_path / f"res{threads}"
            assert run_cli("run", str(config), "--outdir", str(outdir)) == 0
            written.append((outdir / "own.csv").read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]
        (preset,) = cli.load_config(config)
        expected = tmp_path / "expected.csv"
        rows = list(run_scenario(preset.scenario, workers=1).rows)
        cli.write_csv(expected, rows + rms_study(preset.antenna_sweep, preset.scenario, workers=1))
        assert written[0] == expected.read_bytes()

    def test_validate_writes_only_the_sections_schemes(self, tmp_path):
        config = tmp_path / "val.ini"
        config.write_text(
            "[hybrid]\n"
            "M = 16\n"
            "users = 2\n"
            "L = 2\n"
            "K = 16\n"
            "realizations = 3\n"
            "snr = 0, 10\n"
            "schemes = capacity, rf_ltap+zf\n"
        )
        outdir = tmp_path / "res"
        assert run_cli("run", str(config), "--validate", "--outdir", str(outdir)) == 0
        scenario = cli.load_config(config)[0].scenario
        assert cli.read_csv(outdir / "hybrid.csv") == list(run_scenario(scenario).rows)
        text = (outdir / "hybrid.csv").read_text()
        assert "checks passed" in text.splitlines()[-1]

    def test_sparse_validate_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        outdir = tmp_path / "res"
        assert run_cli("run", "fig8", "--validate", "--outdir", str(outdir)) == 2
        assert "rich" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def fake_run(scenario, workers=None, dump_dir=None, antenna_sweep=()):
            return RunResult(rows=(), realizations=100, failures=5)

        monkeypatch.setattr(cli, "run_scenario", fake_run)
        code = run_cli("run", "fig2", "--outdir", str(tmp_path))
        assert code == 3


class TestConfigFiles:
    def test_config_sections_run(self, tmp_path):
        config = tmp_path / "sweep.ini"
        config.write_text(
            "[quick]\n"
            "M = 12\n"
            "users = 2\n"
            "L = 2\n"
            "K = 16\n"
            "realizations = 2\n"
            "snr = 0:10:10\n"
            "schemes = capacity, rf_1tap\n"
            "seed = 3\n"
            "\n"
            "[sweep_only]\n"
            "M = 12\n"
            "users = 2\n"
            "L = 2\n"
            "K = 16\n"
            "realizations = 2\n"
            "snr = 10\n"
            "antenna_sweep = 8, 16\n"
        )
        outdir = tmp_path / "res"
        assert run_cli("run", str(config), "--outdir", str(outdir)) == 0
        quick = cli.read_csv(outdir / "quick.csv")
        assert {r.snr_db for r in quick} == {0.0, 10.0}
        assert all(r.seed == 3 for r in quick)
        sweep = cli.read_csv(outdir / "sweep_only.csv")
        assert {r.snr_db for r in sweep} == {8.0, 16.0}

    def test_sparse_model_config(self, tmp_path):
        config = tmp_path / "sparse.ini"
        config.write_text(
            "[sp]\n"
            "M = 16\n"
            "users = 2\n"
            "L = 2\n"
            "K = 16\n"
            "realizations = 2\n"
            "snr = 10\n"
            "model = sparse\n"
            "paths_per_cluster = 3\n"
            "schemes = rf_ltap+zf\n"
        )
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 0
        # the sparse keys it leaves out keep their defaults
        sparse = cli.load_config(config)[0].scenario.sparse
        assert sparse == SparseChannelConfig(paths_per_cluster=3)

    def test_left_out_keys_take_the_presets_values(self, tmp_path):
        config = tmp_path / "bare.ini"
        config.write_text("[bare]\nschemes = capacity\n")
        (preset,) = cli.load_config(config)
        assert preset.scenario == replace(
            PRESETS["fig2"].scenario, name="bare", schemes=("capacity",)
        )
        assert preset.antenna_sweep == ()

    def test_validate_checks_every_section_first(self, tmp_path, monkeypatch):
        # the rich section comes first and would run if sections were checked lazily
        def never_run(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = tmp_path / "mixed.ini"
        config.write_text(
            "[rich_first]\n"
            "M = 16\n"
            "users = 2\n"
            "L = 2\n"
            "K = 16\n"
            "realizations = 2\n"
            "snr = 10\n"
            "schemes = rf_1tap\n"
            "\n"
            "[sparse_second]\n"
            "M = 16\n"
            "users = 2\n"
            "L = 2\n"
            "K = 16\n"
            "realizations = 2\n"
            "snr = 10\n"
            "model = sparse\n"
            "schemes = rf_1tap\n"
        )
        outdir = tmp_path / "res"
        assert run_cli("run", str(config), "--validate", "--outdir", str(outdir)) == 2
        assert not list(tmp_path.rglob("*.csv"))

    def test_seed_outside_64_bits_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        for seed in ("-1", str(2**64)):
            config = tmp_path / "seed.ini"
            config.write_text(f"[x]\nM = 16\nschemes = capacity\nseed = {seed}\n")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            error = capsys.readouterr().err
            assert f"master seed must be an integer in [0, {2**64}), got {seed}" in error
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_schemes_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = tmp_path / "dup.ini"
        config.write_text("[x]\nM = 16\nschemes = capacity,capacity\n")
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
        assert "scheme list repeats capacity" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_antenna_sweep_it_cannot_honour_rejected_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        monkeypatch.setattr(experiments, "draw_realization", never_run)
        for sweep, message in (
            ("8, 8", "antenna_sweep of x repeats 8"),
            ("8, 1", "antenna_sweep of x has sizes below its 2 users: [1]"),
        ):
            config = tmp_path / "sweep.ini"
            config.write_text(f"[x]\nM = 16\nU = 2\nschemes = capacity\nantenna_sweep = {sweep}\n")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            assert message in capsys.readouterr().err
        # a user-count override that pushes fig5's sweep, or the sizes that
        # validation adds to fig3's, below the users
        for argv, message in (
            (("fig5",), "antenna_sweep of fig5 has sizes below its 30 users: [20, 25]"),
            (("fig3", "--validate"), "antenna_sweep of fig3 has sizes below its 30 users: [25]"),
        ):
            assert run_cli("run", *argv, "--U", "30", "--outdir", str(tmp_path / "res")) == 2
            assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_sparse_values_a_draw_cannot_honour_rejected_before_any_draw(
        self, tmp_path, monkeypatch, capsys
    ):
        def never_run(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        monkeypatch.setattr(experiments, "draw_realization", never_run)
        for key, value in (
            ("angular_spread_deg", "inf"),
            ("spacing_ratio", "1e308"),
            ("paths_per_cluster", "0"),
        ):
            config = tmp_path / "sparse.ini"
            config.write_text(f"[x]\nM = 16\nmodel = sparse\nschemes = capacity\n{key} = {value}\n")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            assert key in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[x]\nschemes = capacity\nbogus = 1\n")
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
        assert "bogus" in capsys.readouterr().err

    def test_sparse_keys_need_sparse_model(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[x]\nschemes = capacity\npaths_per_cluster = 2\n")
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2

    def test_section_without_work_rejected(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[x]\nM = 16\n")
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2


class TestPlotCommand:
    @pytest.fixture()
    def results_csv(self, tmp_path):
        outdir = tmp_path / "res"
        run_cli("run", "fig2", "--realizations", "2", "--snr=-10,0,10",
                "--M", "16", "--outdir", str(outdir))
        return outdir / "fig2.csv"

    def test_renders_svg(self, results_csv):
        assert run_cli("plot", str(results_csv), "--metric", "rate") == 0
        svg = results_csv.with_name("fig2_rate.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2  # mf and zf carry the rate metric
        assert "mf" in svg and "zf" in svg

    def test_plot_deterministic(self, results_csv, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        run_cli("plot", str(results_csv), "--metric", "capacity", "--out", str(a))
        run_cli("plot", str(results_csv), "--metric", "capacity", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_scheme_filter(self, results_csv, tmp_path):
        out = tmp_path / "one.svg"
        assert run_cli(
            "plot", str(results_csv), "--metric", "rate", "--schemes", "zf", "--out", str(out)
        ) == 0
        assert out.read_text().count("<polyline") == 1

    def test_unknown_metric_lists_available(self, results_csv, capsys):
        assert run_cli("plot", str(results_csv), "--metric", "sinr") == 2
        err = capsys.readouterr().err
        assert "available" in err and "rate" in err

    def test_unknown_scheme_listed(self, results_csv, capsys):
        assert run_cli("plot", str(results_csv), "--metric", "rate", "--schemes", "mmse") == 2
        assert "available" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("plot", str(tmp_path / "none.csv"), "--metric", "rate") == 2

    def test_single_point_series(self, tmp_path):
        path = tmp_path / "one.csv"
        cli.write_csv(path, [ResultRow("s", "mf", 0.0, "rate", 1.5, 0.0, 1, 1)])
        out = tmp_path / "one.svg"
        assert run_cli("plot", str(path), "--metric", "rate", "--out", str(out)) == 0
        svg = out.read_text()
        assert "<circle" in svg
        assert "<polyline" not in svg


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()
