"""Command-line behavior: artifacts, determinism, config grammar, exit codes."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_range_is_counted_against_memory_before_it_is_expanded(self, monkeypatch):
        # 32 bytes a point: 11 points fit in 352 bytes, 12 do not
        monkeypatch.setattr(cli, "_MEMORY_BYTES", 11 * cli._SNR_POINT_BYTES)
        assert cli.parse_snr_spec("0:10:1") == tuple(float(i) for i in range(11))
        assert len(cli.parse_snr_spec("0:1:0.1")) == 11
        for text in ("0:11:1", "0:1:0.09", "-0.5:11:1"):
            with pytest.raises(ValueError, match="has more points than 352 bytes can hold"):
                cli.parse_snr_spec(text)
        monkeypatch.undo()
        # quotients beyond the decimal precision, and spans beyond the largest decimal
        for text in ("0:1e12:1", "0:1e30:1", "0:1e400:1e-400", "-9e999999:9e999999:1"):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="has more points than [0-9]+ bytes can hold"):
                cli.parse_snr_spec(text)
            assert time.perf_counter() - start < 0.1


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

    def test_snr_range_beyond_memory_rejected_at_its_key(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        start = time.perf_counter()
        assert run_cli("run", "fig2", "--snr", "0:1e12:1", "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: --snr: SNR range '0:1e12:1' has more")
        config = tmp_path / "snr.ini"
        config.write_text("[x]\nschemes = capacity\nsnr = 0:1e12:1\n")
        assert run_cli("run", str(config), "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: [x] snr: SNR range '0:1e12:1' has")
        assert time.perf_counter() - start < 1.0

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

        def draw(scenario, index):
            draws.append(index)
            return original_draw(scenario, index)

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

    def test_dump_channels_of_a_sweep_only_section(self, tmp_path, monkeypatch):
        # fig5 has no schemes, and its own size, M = 100, is one of its swept
        # sizes: its own draws are dumped, and no other size's, whose files
        # would take the same names
        monkeypatch.delenv("HYBEAM_THREADS", raising=False)
        dumped = []
        original_dump = experiments.dump_channel

        def dump(channel, path, seed, model):
            dumped.append(channel.dims.antennas)
            original_dump(channel, path, seed, model)

        monkeypatch.setattr(experiments, "dump_channel", dump)
        outdir = tmp_path / "res"
        code = run_cli("run", "fig5", "--realizations", "8", "--dump-channels", "--outdir", str(outdir))
        assert code == 0
        assert dumped == [100] * 8
        dumps = sorted((outdir / "fig5_channels").iterdir())
        assert [p.name for p in dumps] == [f"fig5_r{index:04d}.txt" for index in range(8)]
        scenario = replace(PRESETS["fig5"].scenario, realizations=8)
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

        def run(scenario, *args, **kwargs):
            runs.append((scenario.schemes, scenario.antenna_sweep))
            return original_run(scenario, *args, **kwargs)

        def draw(scenario, index):
            draws.append((index, scenario.dims.antennas))
            return original_draw(scenario, index)

        for module in (cli, experiments):
            monkeypatch.setattr(module, "run_scenario", run)
        monkeypatch.setattr(experiments, "draw_realization", draw)
        small = ["--U", "2", "--L", "2", "--K", "16", "--realizations", "3"]
        # fig3 sweeps only the validated sizes; fig5's own sweep holds all of
        # them.  At M=25 the run's own size is one of the swept sizes
        cases = (
            ("fig3", 16, ("mf", "rf_1tap", "rf_ltap"), VALIDATED_SWEEP),
            ("fig5", 16, experiments.VALIDATED_SCHEMES, PRESETS["fig5"].scenario.antenna_sweep),
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
            scenario = replace(
                PRESETS[target].scenario,
                dims=SystemDims(antennas=antennas, users=2, taps=2, subcarriers=16),
                realizations=3,
                snr_db=(0.0, 10.0),
            )
            separate = run_scenario(replace(scenario, schemes=("rf_1tap", "rf_ltap")))
            own = list(run_scenario(scenario).rows) if scenario.schemes else []
            if scenario.antenna_sweep:
                own += rms_study(scenario.antenna_sweep, scenario)
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
        (scenario,) = cli.load_config(config)
        expected = tmp_path / "expected.csv"
        rows = list(run_scenario(scenario, workers=1).rows)
        cli.write_csv(expected, rows + rms_study(scenario.antenna_sweep, scenario, workers=1))
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
        scenario = cli.load_config(config)[0]
        assert cli.read_csv(outdir / "hybrid.csv") == list(run_scenario(scenario).rows)
        text = (outdir / "hybrid.csv").read_text()
        assert "checks passed" in text.splitlines()[-1]

    def test_sparse_validate_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        outdir = tmp_path / "res"
        assert run_cli("run", "fig8", "--validate", "--outdir", str(outdir)) == 2
        assert capsys.readouterr().err.startswith(
            "error: --validate: closed-form validation assumes the rich channel model: fig8 is sparse"
        )
        assert not list(tmp_path.rglob("*.csv"))

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def fake_run(scenario, workers=None, dump_dir=None):
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
        sparse = cli.load_config(config)[0].sparse
        assert sparse == SparseChannelConfig(paths_per_cluster=3)

    def test_left_out_keys_take_the_presets_values(self, tmp_path):
        config = tmp_path / "bare.ini"
        config.write_text("[bare]\nschemes = capacity\n")
        (scenario,) = cli.load_config(config)
        assert scenario == replace(PRESETS["fig2"].scenario, name="bare", schemes=("capacity",))
        assert scenario.antenna_sweep == ()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("M = 16\n[x]\nschemes = capacity\n", "File contains no section headers"),
            ("[x]\nschemes = capacity\nschemes = zf\n", "option 'schemes' in section 'x' already exists"),
            ("[x]\nschemes = capacity\n[x]\nschemes = zf\n", "section 'x' already exists"),
        ],
        ids=["no_section_header", "duplicate_option", "duplicate_section"],
    )
    def test_malformed_file_is_config_error(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

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
            ("8, 8", "[x] antenna_sweep: antenna_sweep of x repeats 8"),
            ("8, 1", "[x] antenna_sweep: antenna_sweep of x has sizes below its 2 users: [1]"),
            (
                "8, 100000000000000000000",
                "[x] antenna_sweep: a draw's 128 subcarriers x "
                "100000000000000000000 antennas x 2 users complex spectrum needs more than",
            ),
        ):
            config = tmp_path / "sweep.ini"
            config.write_text(f"[x]\nM = 16\nU = 2\nschemes = capacity\nantenna_sweep = {sweep}\n")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            assert message in capsys.readouterr().err
        # a user count that pushes fig5's sweep, or the sizes that validation
        # adds to fig3's or to a section's, below the users
        config = tmp_path / "users.ini"
        config.write_text("[x]\nM = 64\nU = 30\nschemes = capacity\n")
        for argv, message in (
            (
                ("fig5", "--U", "30"),
                "error: --U/--users: antenna_sweep of fig5 has sizes below its 30 users: [20, 25]",
            ),
            (
                ("fig3", "--validate", "--U", "30"),
                "error: --validate: antenna_sweep of fig3 has sizes below its 30 users: [25]",
            ),
            (
                (str(config), "--validate"),
                "error: --validate: antenna_sweep of x has sizes below its 30 users: [25]",
            ),
        ):
            assert run_cli("run", *argv, "--outdir", str(tmp_path / "res")) == 2
            assert capsys.readouterr().err.startswith(message)
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

    def test_spacing_ratio_overflowing_the_array_rejected_before_any_draw(
        self, tmp_path, monkeypatch, capsys
    ):
        # 2*pi*1e307 is finite, but not the ramp over 16 elements
        def never_draw(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        config = tmp_path / "sparse.ini"
        config.write_text("[x]\nM = 16\nmodel = sparse\nschemes = capacity\nspacing_ratio = 1e307\n")
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: [x] spacing_ratio: phase ramp 2*pi*spacing_ratio")
        assert "m < 16" in error
        assert not list(tmp_path.rglob("*.csv"))

    def test_value_that_does_not_parse_names_section_and_key(self, tmp_path, monkeypatch, capsys):
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        for body, message in (
            ("M = 16.5\n", "[x] antennas: invalid literal for int() with base 10: '16.5'"),
            ("model = sparse\npaths_per_cluster = 2.5\n", "[x] paths_per_cluster: invalid literal"),
            ("antenna_sweep = 8, 16.5\n", "[x] antenna_sweep: invalid literal"),
            ("realizations = ten\n", "[x] realizations: invalid literal"),
            ("spacing_ratio = wide\n", "[x] spacing_ratio: could not convert"),
            ("snr = 0:10\n", "[x] snr: SNR range must be start:stop:step"),
        ):
            config = tmp_path / "bad.ini"
            config.write_text(f"[x]\nschemes = capacity\n{body}")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_geometry_beyond_memory_rejected_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def never_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(experiments, "draw_realization", never_draw)
        for antennas in ("4000000000", "100000000000000000000"):
            config = tmp_path / "huge.ini"
            config.write_text(f"[x]\nM = {antennas}\nschemes = capacity\n")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            spectrum = f"a draw's 128 subcarriers x {antennas} antennas x 4 users complex spectrum"
            assert capsys.readouterr().err.startswith(f"error: [x] antennas: {spectrum}")
            code = run_cli("run", "fig2", "--M", antennas, "--outdir", str(tmp_path / "res"))
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: --M/--antennas: {spectrum}")
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("U = 200\n", "[x] users: need antennas >= users >= 1, got 100 antennas for 200 users"),
            ("L = 9\nK = 16\n", "[x] taps: 16 subcarriers are fewer than the tap span"),
            ("realizations = 0\n", "[x] realizations: realizations must be an integer in [1, inf)"),
            ("seed = -1\n", "[x] seed: master seed must be an integer in [0, "),
            ("snr = 0, 10, 0\n", "[x] snr: SNR grid repeats 0"),
            ("model = sparse\nangular_spread_deg = -2\n", "[x] angular_spread_deg: angular_spread"),
            ("paths_per_cluster = 2\n", "[x] paths_per_cluster: sparse config given for a non-sparse"),
            ("antenna_sweep = 8, 16, 8\n", "[x] antenna_sweep: antenna_sweep of x repeats 8"),
            ("M = 8\nantennas = 8\n", "[x] antennas given twice"),
            (
                "snr = 0, 10\nrealizations = 1000000000000\n",
                "[x] realizations: 1000000000000 realizations x 17 bytes of kept samples need more than",
            ),
        ],
    )
    def test_value_rejected_where_it_lands_names_section_and_key(
        self, tmp_path, monkeypatch, capsys, body, message
    ):
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = tmp_path / "bad.ini"
        config.write_text(f"[x]\nschemes = capacity\n{body}")
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "lines, key",
        [
            (("U = 2", "antenna_sweep = 8, 1"), "antenna_sweep"),
            (("M = 2", "U = 3"), "antennas"),
            (("L = 70",), "taps"),
        ],
    )
    def test_blamed_key_does_not_depend_on_key_order(
        self, tmp_path, monkeypatch, capsys, lines, key
    ):
        # the first key without which the others pass on the section's own
        # base is named, in either order; the base with one user and one tap
        # is tried only when no key passes there
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = tmp_path / "order.ini"
        for ordered in (lines, lines[::-1]):
            body = "".join(f"{line}\n" for line in ordered)
            config.write_text(f"[x]\nschemes = capacity\n{body}")
            assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
            assert capsys.readouterr().err.startswith(f"error: [x] {key}: "), ordered

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ("schemes = capacity", "M = 2", "antenna_sweep = 3"),
                "antennas: need antennas >= users >= 1, got 2 antennas for 4 users",
            ),
            (
                ("antenna_sweep = 3", "schemes = capacity", "M = 2"),
                "antenna_sweep: antenna_sweep of x has sizes below its 4 users: [3]",
            ),
            (
                ("M = 2", "antenna_sweep = 3", "schemes = capacity"),
                "antennas: need antennas >= users >= 1, got 2 antennas for 4 users",
            ),
        ],
    )
    def test_keys_that_fail_only_together_name_one_that_fails_alone(
        self, tmp_path, monkeypatch, capsys, lines, message
    ):
        # neither M = 2 nor antenna_sweep = 3 passes without the other on the
        # default four users, and the whole section passes on one user: the
        # first key the section's base rejects on its own is named, with its
        # own reason, and never schemes
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = tmp_path / "together.ini"
        config.write_text("[x]\n" + "".join(f"{line}\n" for line in lines))
        assert run_cli("run", str(config), "--outdir", str(tmp_path / "res")) == 2
        assert capsys.readouterr().err == f"error: [x] {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--U", "200"), "--U/--users: need antennas >= users >= 1, got 100 antennas"),
            (("--L", "2.5"), "--L/--taps: invalid literal for int() with base 10: '2.5'"),
            (("--seed", "-1"), "--seed: master seed must be an integer in [0, "),
            (("--snr", "0:10"), "--snr: SNR range must be start:stop:step"),
            (
                ("--realizations", "1000000000000"),
                "--realizations: 1000000000000 realizations x 227 bytes of kept samples need more than",
            ),
        ],
    )
    def test_override_rejected_names_its_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        def never_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never_run)
        assert run_cli("run", "fig2", *argv, "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

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


# Config keys as a section writes them -> the key an error names
_CANONICAL = {"M": "antennas", "U": "users", "L": "taps", "K": "subcarriers"}
_HUGE = "100000000000000000000"


def _bad_texts(key: str, good: str) -> list[tuple[str, bool]]:
    """Bad values of a key, each with whether a run must reject it."""
    if key == "schemes":
        return [(f"{good}, {good.split(',')[0]}", True), ("true", True)]
    texts = [("true", True), ("inf", True), ("nan", True)]
    if key in ("angular_spread_deg", "spacing_ratio"):
        return texts + [(f"{good}5", False), (f"-{good}", True)]
    if key == "snr":
        texts += [("0.5, 10", False), ("-5, 10", False), ("0, 10, 0", True)]
        return texts + [("0:1e12:1", True)]
    texts += [(f"{good}.5", True), (f"-{int(good) + 1}", True)]
    if key == "antenna_sweep":
        # a size of 1 is below a section of two users
        texts += [(f"{good}, {good}", True), (f"{good}, {_HUGE}", True)]
        return texts + [(f"{good}, 1", False)]
    if key in ("M", "U", "L", "K", "realizations", "seed"):
        texts.append((_HUGE, True))
    return texts


@st.composite
def _sections(draw):
    """A section of small valid values, its geometry, seed and model drawn."""
    m = draw(st.integers(1, 8))
    taps = draw(st.integers(1, 2))
    values = {
        "M": str(m),
        "U": str(draw(st.integers(1, min(m, 2)))),
        "L": str(taps),
        "K": str(draw(st.integers(2 * taps - 1, 8))),
        "realizations": str(draw(st.integers(1, 2))),
        "snr": "0, 10",
        "seed": str(draw(st.integers(0, 2**64 - 1))),
        "schemes": draw(st.sampled_from(["capacity", "mf, rf_ltap+zf", "rf_1tap, zf"])),
        "antenna_sweep": str(m),
    }
    if draw(st.booleans()):
        values.update(
            model="sparse", paths_per_cluster="2", angular_spread_deg="10.5", spacing_ratio="0.5"
        )
    return values


def _run_section(section: str, values: dict):
    """Exit code, standard error, draws made and CSVs written of a one-section config run."""
    draws = []
    original_draw = experiments.draw_realization

    def draw(*args, **kwargs):
        draws.append(args)
        return original_draw(*args, **kwargs)

    err = io.StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        mock.patch.dict(os.environ, {"HYBEAM_THREADS": "1"}),
        mock.patch.object(experiments, "draw_realization", draw),
    ):
        config = Path(tmp) / "prop.ini"
        config.write_text(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        code = run_cli("run", str(config), "--outdir", str(Path(tmp) / "res"))
        return code, err.getvalue(), draws, list(Path(tmp).rglob("*.csv"))


class TestConfigProperty:
    @settings(max_examples=6, deadline=None, database=None, derandomize=True)
    @given(values=_sections(), section=st.sampled_from(["x", "sweep 2"]))
    def test_each_section_runs_or_names_its_key_before_any_draw(self, values, section):
        # the valid section with each of its keys' bad values in turn
        for key in [key for key in values if key != "model"]:
            for text, rejected in _bad_texts(key, values[key]):
                code, err, draws, written = _run_section(section, {**values, key: text})
                if code == 2:
                    assert not draws and not written, (key, text)
                    assert err.startswith(f"error: [{section}] {_CANONICAL.get(key, key)}: "), err
                else:
                    assert not rejected, (key, text, err)
                    assert code in (0, 3) and draws and written, (key, text)


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

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("s,mf,0,rate,abc,0,1,1", "could not convert string to float: 'abc'"),
            ("s,mf,0,rate,1.5,0,2.5,1", "invalid literal for int() with base 10: '2.5'"),
            ("s,mf,0,rate,1.5,0,1", None),
        ],
    )
    def test_malformed_row_names_its_file_and_line(self, tmp_path, capsys, bad, reason):
        # the row's line in the file, counting the comment and blank lines skipped
        path = tmp_path / "bad.csv"
        good = "s,mf,-10,rate,1.0,0,1,1"
        path.write_text("# a comment\n" + ",".join(cli.CSV_FIELDS) + f"\n{good}\n\n{bad}\n{good}\n")
        assert run_cli("plot", str(path), "--metric", "rate") == 2
        err = capsys.readouterr().err.strip()
        expected = f"error: {path}:5: malformed row {bad.split(',')}"
        assert err == (expected if reason is None else f"{expected}: {reason}")

    def test_single_point_series(self, tmp_path):
        path = tmp_path / "one.csv"
        cli.write_csv(path, [ResultRow("s", "mf", 0.0, "rate", 1.5, 0.0, 1, 1)])
        out = tmp_path / "one.svg"
        assert run_cli("plot", str(path), "--metric", "rate", "--out", str(out)) == 0
        svg = out.read_text()
        assert "<circle" in svg
        assert "<polyline" not in svg


class TestImportHeap:
    def test_in_process_call_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli("run", "fig2", *RUN_FAST, "--outdir", str(tmp_path)) == 0
        assert gc.get_freeze_count() == before

    def test_run_as_the_program_freezes_before_any_work(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(len(capsys.readouterr().out)))
        monkeypatch.setattr("sys.argv", ["hybeam", "list"])
        assert cli.main() == 0
        assert calls == [0]
        assert "fig2" in capsys.readouterr().out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()


# Modules that only some paths load: the process pool's, the config reader,
# the SNR range's decimal arithmetic and the chart renderer
_POOL_MODULES = ("concurrent.futures", "multiprocessing")
_LAZY_MODULES = _POOL_MODULES + ("configparser", "decimal", "hybeam.plotting")


def _fresh(code: str, threads: int = 1):
    """The last stdout line of ``code``, read as JSON, run in a fresh
    interpreter after ``from hybeam import cli``; its ``loaded()`` lists the
    lazy modules imported so far."""
    prelude = (
        "import json, sys\n"
        "from hybeam import cli\n"
        f"loaded = lambda: [name for name in {_LAZY_MODULES!r} if name in sys.modules]\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["HYBEAM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", prelude + code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestLazyImports:
    def test_import_loads_no_module_of_one_path(self):
        assert _fresh("print(json.dumps(loaded()))") == []

    def test_serial_run_loads_no_pool(self, tmp_path):
        argv = ["run", "fig2", *RUN_FAST, "--outdir", str(tmp_path)]
        loaded = _fresh(f"assert cli.main({argv!r}) == 0\nprint(json.dumps(loaded()))")
        assert not set(loaded) & set(_POOL_MODULES)
        assert (tmp_path / "fig2.csv").exists()

    def test_snr_range_parses_to_the_same_grid(self):
        grid, loaded = _fresh("print(json.dumps([cli.parse_snr_spec('0:20:5'), loaded()]))")
        assert tuple(grid) == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert loaded == ["decimal"]

    def test_plot_writes_its_svg(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        cli.write_csv(csv_path, [ResultRow("s", "mf", 0.0, "rate", 1.5, 0.0, 1, 1)])
        argv = ["plot", str(csv_path), "--metric", "rate"]
        assert _fresh(f"print(json.dumps(cli.main({argv!r})))") == 0
        assert (tmp_path / "one_rate.svg").read_text().startswith("<svg")

    def test_two_worker_run_gives_the_serial_bytes(self, tmp_path):
        # two chunks of realizations, so the two-worker run starts a pool
        outputs = {}
        for threads in (1, 2):
            outdir = tmp_path / str(threads)
            argv = ["run", "fig2", "--realizations", str(2 * experiments.CHUNK), "--snr", "0,10",
                    "--outdir", str(outdir)]
            code = f"assert cli.main({argv!r}) == 0\nprint(json.dumps(loaded()))"
            pooled = set(_fresh(code, threads)) >= set(_POOL_MODULES)
            assert pooled == (threads == 2)
            outputs[threads] = (outdir / "fig2.csv").read_bytes()
        assert outputs[1] == outputs[2]
