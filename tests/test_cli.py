import csv
import io
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nbmimo.channel import CorrelationSpec, ergodic_capacity, sample_iid
from nbmimo.cli import build_parser, load_config, main
from nbmimo.config import INI_KEYS, ConfigError, ExperimentConfig
from nbmimo.detect import DETECTORS
from nbmimo.presets import PRESETS, preset_text
from nbmimo.runner import (
    ks_gaussian_test,
    run_command,
    run_flops,
    run_uncoded,
    substream,
    write_csv,
)


class TestConfig:
    def test_defaults_validate(self):
        assert ExperimentConfig().validate() == []

    def test_all_errors_reported_at_once(self):
        text = """
[meta]
command = ber
[system]
n_t = 10
n_r = 10
modulation = 5
[code]
m = 8
n_symbols = 100
d_c = 3
[detector]
kind = mmse, turbo
[channel]
rho_t = 1.5
[stop]
min_frame_errors = 0
"""
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(text)
        messages = "\n".join(err.value.errors)
        assert "modulation" in messages
        assert "turbo" in messages
        assert "correlation" in messages
        assert "min_frame_errors" in messages
        assert "divisible" in messages
        assert len(err.value.errors) >= 5

    def test_malformed_value_reported(self):
        text = """
[meta]
command = flops
[flops]
n_r = ten
"""
        with pytest.raises(ConfigError, match="malformed"):
            ExperimentConfig.from_ini(text)

    def test_threshold_requires_bpsk(self):
        text = """
[meta]
command = threshold
[system]
n_t = 200
n_r = 200
modulation = 4
[de]
ensemble_size = 100000
repeat_factors = 1
gamma0_db = -3
"""
        with pytest.raises(ConfigError, match="BPSK"):
            ExperimentConfig.from_ini(text)

    def test_threshold_enforces_ensemble_floor(self):
        text = """
[meta]
command = threshold
[de]
ensemble_size = 500
repeat_factors = 1
gamma0_db = -3
"""
        with pytest.raises(ConfigError, match="10\\^4"):
            ExperimentConfig.from_ini(text)

    def test_threshold_takes_one_detector_kind(self):
        # Density evolution runs one detector; the extra kinds would be
        # dropped without a word.  [code] repeat_factor is read only by
        # coded sweeps, so the threshold check ignores it.
        text = """
[meta]
command = threshold
[code]
repeat_factor = 0
[detector]
kind = mf-simplified, mmse, mf-exact
[de]
ensemble_size = 10000
repeat_factors = 1
gamma0_db = -3
"""
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(text)
        assert err.value.errors == [
            "threshold runs one detector kind; drop mmse, mf-exact from [detector] kind"
        ]
        cfg = ExperimentConfig.from_ini(text.replace(", mmse, mf-exact", ""))
        assert cfg.detectors == ["mf-simplified"]
        assert "construction_seed" not in cfg.metadata()

    def test_spectral_efficiency_bookkeeping(self):
        cfg = ExperimentConfig(n_t=200, modulation=2, n_symbols=300, d_c=4)
        assert cfg.rate.numerator == 1 and cfg.rate.denominator == 2
        assert cfg.spectral_efficiency == 100.0

    def test_repeat_factor_spectral_efficiency(self):
        cfg = ExperimentConfig(
            n_t=200, modulation=2, n_symbols=300, d_c=3, repeat_factor=2
        )
        assert cfg.spectral_efficiency == pytest.approx(200 / 6)

    def test_unknown_sections_and_keys_reported_together(self):
        text = """
[meta]
command = ksdelta
[system]
fadng = per-frame
[detectr]
kind = mf-exact
[ksdelta]
stream = 7
[flops]
modulation = 4
"""
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(text)
        assert err.value.errors == [
            "unknown key [system] fadng",
            "unknown section [detectr]",
            "unknown key [ksdelta] stream",
            "unknown key [flops] modulation",
        ]

    def test_fading_key_is_unknown(self):
        # Every channel use draws its own H, so no key chooses the fading.
        text = """
[meta]
command = uncoded
[system]
fading = per-use
"""
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(text)
        assert err.value.errors == ["unknown key [system] fading"]

    def test_default_section_checked_once(self):
        text = """
[DEFAULT]
samples = 5000
sample = 5000
[meta]
command = ksdelta
[system]
n_t = 16
[ksdelta]
significance = 0.01
"""
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(text)
        assert err.value.errors == ["unknown key [DEFAULT] sample"]
        cfg = ExperimentConfig.from_ini(text.replace("sample = 5000\n", ""))
        assert cfg.ks_samples == 5000 and cfg.n_t == 16

    def test_every_field_has_one_key(self):
        names = [f.name for f in fields(ExperimentConfig)]
        attrs = [attr for _, _, _, attr in INI_KEYS]
        keys = [(section, key) for section, key, _, _ in INI_KEYS]
        assert sorted(attrs) == sorted(names)
        assert len(set(keys)) == len(keys)

    def test_every_preset_parses(self):
        for name in PRESETS:
            cfg = ExperimentConfig.from_ini(preset_text(name))
            assert cfg.validate() == []

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_text("fig999")

    @pytest.mark.parametrize(
        "text",
        [
            "[meta]\ncommand = capacity\n[system]\nn_t = 4\nn_r = 4\n"
            "[capacity]\ntrials = 10\n",
            "[meta]\ncommand = ksdelta\n[system]\nn_t = 12\nn_r = 12\n"
            "[ksdelta]\nsamples = 1000\n",
            "[meta]\ncommand = uncoded\n[system]\nn_t = 4\nn_r = 4\n"
            "[code]\nm = 6\n[stop]\nmax_frames = 3\n",
        ],
        ids=["capacity-4x4", "ksdelta-12x12", "uncoded-unused-m"],
    )
    def test_commands_without_a_code_skip_code_constraints(self, text):
        # With m = 8 and BPSK a code symbol spans 8 antennas; these
        # commands map no code symbols, so n_t need not be a multiple.
        rows, _ = run_command(ExperimentConfig.from_ini(text))
        assert rows

    @pytest.mark.parametrize(
        "command,extra,error",
        [
            ("threshold", "[detector]\nkind =", "[detector] kind names no detector"),
            ("ber", "[detector]\nkind =", "[detector] kind names no detector"),
            ("uncoded", "[detector]\nkind =", "[detector] kind names no detector"),
            ("ksdelta", "[sweep]\ngamma_db =",
             "ksdelta runs at one SNR; [sweep] gamma_db lists 0"),
            ("ksdelta", "[sweep]\ngamma_db = -2, 0",
             "ksdelta runs at one SNR; [sweep] gamma_db lists 2"),
            ("threshold", "[de]\nrepeat_factors = 0", "de repeat_factors must be >= 1"),
            ("threshold", "[de]\nmax_iterations = 0", "de max_iterations must be >= 1"),
            ("threshold", "[de]\nrepeat_factors =\ngamma0_db =",
             "de repeat_factors lists no factor"),
            ("flops", "[flops]\nn_r =", "flops n_r lists no antenna count"),
            ("capacity", "[capacity]\nrho =", "[capacity] rho lists no correlation"),
            ("capacity", "[sweep]\ngamma_db =", "sweep has no SNR points"),
            ("ber", "[channel]\nest_error_var =",
             "[channel] est_error_var lists no variance"),
            ("uncoded", "[channel]\nest_error_var =",
             "[channel] est_error_var lists no variance"),
        ],
        ids=[
            "threshold-no-detector", "ber-no-detector", "uncoded-no-detector",
            "ksdelta-no-snr", "ksdelta-two-snrs", "threshold-repeat-factor-0",
            "threshold-no-iterations", "threshold-no-repeat-factors",
            "flops-no-n-r", "capacity-no-rho", "capacity-no-snr",
            "ber-no-est-error-var", "uncoded-no-est-error-var",
        ],
    )
    def test_inputs_that_would_crash_or_be_dropped_rejected(
        self, command, extra, error
    ):
        text = f"[meta]\ncommand = {command}\n{extra}\n"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_ini(text)
        assert err.value.errors == [error]


class TestKsUtility:
    def test_gaussian_passes(self):
        rng = np.random.default_rng(0)
        res = ks_gaussian_test(rng.normal(3.0, 2.0, size=100_000))
        assert res.passed
        assert res.p_value > 0.001

    def test_uniform_fails(self):
        rng = np.random.default_rng(1)
        res = ks_gaussian_test(rng.uniform(size=100_000))
        assert not res.passed
        assert res.p_value < 1e-6

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="10\\^3"):
            ks_gaussian_test(np.random.default_rng(2).normal(size=500))

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            ks_gaussian_test(np.ones(2000))


class TestRngStreams:
    def test_substreams_are_deterministic(self):
        a = substream(42, 0, 7).integers(0, 1 << 30, size=5)
        b = substream(42, 0, 7).integers(0, 1 << 30, size=5)
        assert np.array_equal(a, b)

    def test_substreams_are_distinct(self):
        a = substream(42, 0, 7).integers(0, 1 << 30, size=5)
        b = substream(42, 0, 8).integers(0, 1 << 30, size=5)
        c = substream(43, 0, 7).integers(0, 1 << 30, size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCsv:
    def test_metadata_comments_then_header(self):
        rows = run_flops(ExperimentConfig(command="flops", flops_n_r=[1, 8]))
        buf = io.StringIO()
        write_csv(rows, {"command": "flops", "master_seed": 1}, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# command = flops"
        assert lines[1] == "# master_seed = 1"
        assert lines[2].startswith("n_r,modulation,proposed_detect")
        assert len(lines) == 5

    def test_bit_identical_repeat(self):
        cfg = ExperimentConfig.from_ini(preset_text("ci-small-uncoded"))
        out1, out2 = io.StringIO(), io.StringIO()
        for buf in (out1, out2):
            rows, meta = run_command(cfg)
            write_csv(rows, meta, buf)
        assert out1.getvalue() == out2.getvalue()

    def test_seed_changes_output(self):
        cfg = ExperimentConfig.from_ini(preset_text("ci-small-uncoded"))
        rows1, _ = run_command(cfg)
        cfg.master_seed += 1
        rows2, _ = run_command(cfg)
        assert any(
            a.bit_errors != b.bit_errors for a, b in zip(rows1, rows2)
        )


class TestRunners:
    def test_uncoded_stop_rule_recorded(self):
        cfg = ExperimentConfig(
            command="uncoded",
            n_t=8,
            n_r=8,
            detectors=["mmse"],
            gamma_db=[-4.0, 40.0],
            min_frame_errors=5,
            max_frames=50,
        )
        rows = run_uncoded(cfg)
        by_gamma = {r.gamma_db: r for r in rows}
        assert by_gamma[-4.0].stop_reason == "frame_errors"
        assert by_gamma[-4.0].frame_errors >= 5
        assert by_gamma[40.0].stop_reason == "max_frames"
        assert by_gamma[40.0].frames == 50

    def test_uncoded_high_snr_mmse_error_free(self):
        cfg = ExperimentConfig(
            command="uncoded",
            n_t=8,
            n_r=8,
            detectors=["mmse"],
            gamma_db=[60.0],
            min_frame_errors=5,
            max_frames=40,
        )
        rows = run_uncoded(cfg)
        assert rows[0].ber == 0.0
        assert rows[0].fer == 0.0

    def test_noiseless_coded_sanity(self):
        cfg = ExperimentConfig.from_ini(preset_text("ci-small-ber"))
        cfg.gamma_db = [60.0]
        cfg.max_frames = 5
        cfg.min_frame_errors = 1
        rows, _ = run_command(cfg)
        assert rows[0].ber == 0.0
        assert rows[0].fer == 0.0
        assert rows[0].mean_iterations <= 1.0

    def test_error_accounting_mean_bits_per_frame_error(self):
        # 100 frame errors carrying 1752 bit errors: 17.52 bits per frame
        # error on average, reported as about 18.
        from nbmimo.runner import _stats_from_counts

        counts = np.zeros(300, dtype=int)
        counts[:99] = 17
        counts[99] = 69
        assert counts.sum() == 1752
        ber, _, fe, fer, _, per_fe = _stats_from_counts(counts, 800)
        assert fe == 100
        assert per_fe == pytest.approx(17.52)
        assert round(per_fe) == 18
        assert ber == pytest.approx(1752 / (800 * 300))

    def test_coded_simplified_mf_draws_no_channel_matrix(self, monkeypatch):
        # Coded simplified-MF frames come from mf_simplified_samples, with
        # correlation and estimation error.
        import nbmimo.channel as channel

        def no_channel(*args, **kwargs):
            raise AssertionError("drew a channel matrix")

        cfg = ExperimentConfig.from_ini(preset_text("ci-small-ber"))
        cfg.detectors = ["mf-simplified"]
        cfg.rho_t = cfg.rho_r = 0.3
        cfg.est_error_vars = [0.1]
        cfg.gamma_db = [10.0]
        cfg.max_frames = 3
        monkeypatch.setattr(channel, "sample_iid", no_channel)
        rows, _ = run_command(cfg)
        assert rows[0].frames == 3

    @pytest.mark.parametrize("command", ["ber", "uncoded"])
    def test_iid_mmse_draws_no_channel_matrix(self, monkeypatch, command):
        # I.i.d. uses of every detector draw no H, with or without
        # estimation error: the Bartlett factor, or for coded simplified-MF
        # frames the sampler.  Correlated uses draw H, except coded
        # simplified-MF frames.
        import nbmimo.channel as channel

        drawn = []
        monkeypatch.setattr(
            channel, "sample_iid", lambda *a: drawn.append(a) or sample_iid(*a)
        )
        cfg = ExperimentConfig.from_ini(preset_text("ci-small-ber"))
        cfg.command = command
        cfg.detectors = list(DETECTORS)
        cfg.est_error_vars = [0.0, 0.1]
        cfg.max_frames = 2
        rows, _ = run_command(cfg)
        assert [r.frames for r in rows] == [2] * 6 and drawn == []
        cfg.rho_t = 0.3
        for kind in DETECTORS:
            drawn.clear()
            run_command(replace(cfg, detectors=[kind]))
            sampler = command == "ber" and kind == "mf-simplified"
            assert bool(drawn) != sampler, kind

    def test_correlated_coded_sweep_needs_no_eigendecomposition(self, monkeypatch):
        # Correlated detection uses the closed-form Cholesky factors; only
        # capacity reads the eigenvalues.
        def no_eigh(*args, **kwargs):
            raise AssertionError("called eigh")

        cfg = ExperimentConfig.from_ini(preset_text("ci-small-correlated"))
        cfg.max_frames = 2
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        rows, _ = run_command(cfg)
        assert [(r.detector, r.frames) for r in rows] == [
            ("mmse", 2), ("mmse", 2), ("mf-simplified", 2), ("mf-simplified", 2)
        ]

    def test_capacity_rows_equal_one_call_per_rho(self):
        # Rows stay rho-major, and each equals its own ergodic_capacity call
        # on the point's substream, correlated rows sharing W or not.
        import nbmimo.runner as runner

        cfg = ExperimentConfig(
            command="capacity", n_t=6, n_r=6, capacity_rho=[0.5, 0.0, 0.3],
            gamma_db=[-3.0, 4.0], capacity_trials=20, master_seed=5,
        )
        rows, _ = run_command(cfg)
        assert [(r["rho"], r["gamma_db"]) for r in rows] == [
            (rho, g) for rho in (0.5, 0.0, 0.3) for g in (-3.0, 4.0)
        ]
        for row in rows:
            rho, gamma_db = row["rho"], row["gamma_db"]
            rng = substream(5, runner._CAPACITY, cfg.gamma_db.index(gamma_db))
            if rho:
                [want] = ergodic_capacity(
                    6, 6, gamma_db, 20, rng, corrs=[CorrelationSpec(rho, rho, 6, 6)]
                )
            else:
                want = ergodic_capacity(6, 6, gamma_db, 20, rng)
            assert (row["capacity_bps_hz"], row["std_error"]) == want

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_uncoded_bpsk_matched_filters_share_each_use(self, rho):
        # The uncoded link draws each use alike for both matched filters (a
        # Bartlett factor on i.i.d. fading, H under correlation), so for
        # BPSK the exact and simplified MF estimates differ by a positive
        # per-stream scale and slice alike: their rows agree field for field.
        cfg = ExperimentConfig(
            command="uncoded", n_t=8, n_r=8, modulation=2,
            detectors=["mf-exact", "mf-simplified"], rho_t=rho, rho_r=rho,
            est_error_vars=[0.0, 0.1], gamma_db=[-4.0, 6.0],
            min_frame_errors=20, max_frames=300,
        )
        rows = run_uncoded(cfg)
        exact = [r for r in rows if r.detector == "mf-exact"]
        simplified = [r for r in rows if r.detector == "mf-simplified"]
        assert len(exact) == len(simplified) == 4
        names = [f.name for f in fields(exact[0]) if f.name != "detector"]
        for a, b in zip(exact, simplified):
            assert [getattr(a, n) for n in names] == [getattr(b, n) for n in names]

    @pytest.mark.parametrize("command", ["ber", "uncoded"])
    def test_each_point_is_its_own_run(self, command):
        # A point's row depends on the config and the point alone, so a
        # sweep equals its points run one config each.
        cfg = ExperimentConfig.from_ini(preset_text("ci-small-correlated"))
        cfg.command = command
        cfg.gamma_db = [-8.5, -4.0]
        cfg.max_frames = 3
        rows, _ = run_command(cfg)
        assert len(rows) == 8
        for row in rows:
            one = replace(
                cfg, detectors=[row.detector], est_error_vars=[row.est_error_var],
                gamma_db=[row.gamma_db],
            )
            assert run_command(one)[0] == [row]

    def test_point_function_pickles_by_reference(self):
        # A worker process can receive the point function itself.
        import nbmimo.runner as runner

        assert pickle.loads(pickle.dumps(runner._run_point)) is runner._run_point


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    """The fast `ci-small-*`, `fig8` and `fig11` presets reproduce their
    committed CSVs byte for byte; a change that moves any of them
    regenerates the file and says why."""

    @pytest.mark.parametrize(
        "preset",
        sorted(path.stem for path in GOLDEN.glob("*.csv")),
        ids=lambda preset: preset.removeprefix("ci-small-"),
    )
    def test_preset_csv_unchanged(self, preset, tmp_path):
        command = ExperimentConfig.from_ini(preset_text(preset)).command
        out = tmp_path / "out.csv"
        assert main([command, "--preset", preset, "--quiet", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()

    def test_every_small_preset_has_a_golden(self):
        # The threshold descent takes minutes, too long for the suite.
        small = {name for name in PRESETS if name.startswith("ci-small-")}
        pinned = {path.stem for path in GOLDEN.glob("*.csv")}
        assert small - pinned == {"ci-small-threshold"}


THRESHOLD_INI = """
[meta]
command = threshold
[system]
n_t = 16
n_r = 16
modulation = 2
[code]
m = 8
n_symbols = 48
d_c = 3
[detector]
kind = mf-simplified
[de]
ensemble_size = 10000
max_iterations = 4
step_db = 12.0
h_stop = 1e-6
repeat_factors = 2, 3
gamma0_db = 4.0, 2.0
[run]
master_seed = 5
"""


class TestCliSurface:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        for cmd in ("ber", "uncoded", "capacity", "threshold", "flops", "ksdelta"):
            args = parser.parse_args([cmd, "--preset", "x"])
            assert args.command == cmd

    def test_command_preset_mismatch_rejected(self):
        parser = build_parser()
        args = parser.parse_args(["ber", "--preset", "fig2"])
        with pytest.raises(ConfigError, match="declares command"):
            load_config(args)

    def test_seed_override(self):
        parser = build_parser()
        args = parser.parse_args(
            ["flops", "--preset", "ci-small-flops", "--seed", "777"]
        )
        cfg = load_config(args)
        assert cfg.master_seed == 777

    def test_main_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        code = main(["flops", "--preset", "ci-small-flops", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# command = flops" in text
        assert "221800" in text

    def test_threshold_prints_one_line_per_descent_point(self, tmp_path, capsys):
        # Progress goes to stderr, one line per point as it finishes;
        # --quiet prints none, and the CSV bytes are the same either way.
        config = tmp_path / "threshold.ini"
        config.write_text(THRESHOLD_INI)
        loud, quiet = tmp_path / "loud.csv", tmp_path / "quiet.csv"
        assert main(["threshold", "--config", str(config), "--out", str(loud)]) == 0
        lines = capsys.readouterr().err.splitlines()
        args = ["threshold", "--config", str(config), "--quiet", "--out", str(quiet)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        assert loud.read_bytes() == quiet.read_bytes()
        body = (line for line in loud.read_text().splitlines() if not line.startswith("#"))
        points = [row for row in csv.DictReader(body) if row["record"] == "trajectory"]
        assert {row["repeat_factor"] for row in points} == {"2", "3"}
        assert len(lines) == len(points)
        for line, row in zip(lines, points):
            gamma = float(row["gamma_db"])
            assert line.startswith(f"[threshold t={row['repeat_factor']} g={gamma:+.2f} dB] ")
            assert f" renewals={row['iterations']} " in line
            assert f" entropy={float(row['entropy']):.3e} " in line
            assert line.endswith(f" decoded={row['decoded']}")

    def test_main_reports_bad_preset(self, capsys):
        code = main(["ber", "--preset", "nope"])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err
