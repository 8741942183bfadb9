"""The benchmark's workloads and the checks on their outputs.

A workload runs in whole rounds.  A round is a fixed list of points, each
one call into nbmimo's public entry points with a fixed amount of work: the
runner's stop rule is set out of reach, so every point runs all its frames,
draws or trials.  Round r under workload seed s draws its inputs from seeds
derived from (s, workload, r), so the seed fixes every input and no two
rounds share one.

Checks compare outputs with `reference` (closed forms and GF(2^8)
arithmetic computed apart from nbmimo) or with properties the method must
have.  Statistical checks pool every round of the run.  In the traced run,
observers on the wrapped functions also check intermediate values:
codeword and decision syndromes, bit-error recounts and MMSE estimates.
"""

from __future__ import annotations

import inspect
import io
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from scipy import special, stats

import bootstrap
import reference as ref

bootstrap.import_nbmimo()

from nbmimo import channel, code, config, de, detect, galois, presets, runner  # noqa: E402

# Statistical checks accept an estimate within Z_LIMIT standard errors.
Z_LIMIT = 4.0
# Mean capacity minus its large-system value, measured with numpy alone at
# -11 dB: -0.002 +- 0.002 bits at 50x50, 0.002 +- 0.002 at 100x100 and
# 0.004 +- 0.006 at 600x600; the check allows 0.02 bits.
CAPACITY_ALLOWANCE = 0.02
KS_SIGNIFICANCE = 0.001
# The coded points lie above their codes' thresholds, so decoding must at
# least halve the uncoded MMSE BER.  Without BP iterations fig4 and fig5
# keep 0.125 and 0.188 (uncoded 0.123 and 0.174); after one, 0.106 and 0.163.
CODING_GAIN = 0.5
MMSE_RTOL = 1e-8
PROB_ATOL = 1e-9
CHUNK_ROWS = 8192

# Class attributes traced besides module-level functions: (owner, attribute,
# span name).
TRACED_METHODS = (
    (code.CodeSpec, "encode", "code.encode"),
    (code.CodeSpec, "expand", "code.expand"),
    (code.CodeSpec, "fold_priors", "code.fold_priors"),
    (channel.CorrelationSpec, "__init__", "channel.CorrelationSpec"),
    (config.ExperimentConfig, "from_ini", "config.from_ini"),
)


class Checks:
    """Problems found, and the time spent looking (kept out of timings)."""

    def __init__(self):
        self.problems: list[str] = []
        self.seconds = 0.0

    @contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def timing(self, observe):
        """`observe` with its time counted as check time."""

        def timed_observe(*args):
            with self.timed():
                observe(*args)

        return timed_observe


def derived_seed(seed: int, tag: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, tag, r]).generate_state(1)[0])


def make_config(preset: str, **overrides) -> config.ExperimentConfig:
    cfg = config.ExperimentConfig.from_ini(presets.preset_text(preset))
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise AttributeError(f"ExperimentConfig has no field {key!r}")
        setattr(cfg, key, value)
    errors = cfg.validate()
    if errors:
        raise config.ConfigError(errors)
    return cfg


def build_system(cfg: config.ExperimentConfig) -> None:
    """Field, code and correlation roots a config needs, via public builders."""
    if cfg.command == "ber":
        field = galois.build_field(cfg.m)
        spec = code.build_code_spec(
            cfg.n_symbols, cfg.d_c, field, cfg.construction_seed
        )
        if cfg.repeat_factor > 1:
            code.lower_rate(spec, spec.rate / cfg.repeat_factor)
    rhos = [(cfg.rho_t, cfg.rho_r)]
    if cfg.command == "capacity":
        rhos += [(rho, rho) for rho in cfg.capacity_rho]
    for rho_t, rho_r in rhos:
        if rho_t > 0 or rho_r > 0:
            channel.CorrelationSpec(rho_t, rho_r, cfg.n_t, cfg.n_r)


def run_csv(cfg: config.ExperimentConfig):
    """What `nbmimo <command>` does: run the config and write its CSV."""
    rows, meta = runner.run_command(cfg)
    buf = io.StringIO()
    runner.write_csv(rows, meta, buf)
    return rows, buf.getvalue()


def arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Workload:
    """Rounds of points, the operations they attempt, and their checks."""

    name = ""
    tag = 0

    def __init__(self, seed: int, checks: Checks):
        self.seed = seed
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.work = defaultdict(int)  # operation kind -> count done
        self.work_s = defaultdict(float)  # operation kind -> seconds
        self.round_index = 0

    # -- to be provided by each workload ---------------------------------
    def points(self, r: int) -> list:
        """[(label, config, operations, operation kind)] for round r."""
        raise NotImplementedError

    def start_point(self) -> None:
        """Called before each point runs."""

    def check_point(self, r: int, label, cfg, rows) -> None:
        """Checks on the rows of one point that ran."""

    def check_round(self, r: int, results: dict) -> None:
        """Checks across one round's points: label -> (config, rows)."""

    def final_checks(self) -> None:
        """Checks pooled over every round run."""

    def observers(self, tracer) -> dict:
        """Span name -> observe(args, kwargs, result) for the traced run."""
        return {"detect.mmse_soft": self._mmse_observer(tracer)}

    # -- shared machinery ------------------------------------------------
    def setup(self) -> None:
        for _, cfg, _, _ in self.points(0):
            build_system(cfg)

    def attempt(self, ops: int, kind: str, fn):
        """Run one point; an exception fails all its operations."""
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            return None
        self.work[kind] += ops
        self.work_s[kind] += time.perf_counter() - t0
        return result

    def run_round(self, r: int) -> None:
        self.round_index = r
        results = {}
        for label, cfg, ops, kind in self.points(r):
            self.start_point()
            out = self.attempt(ops, kind, lambda: run_csv(cfg))
            if out is None:
                continue
            rows, text = out
            with self.checks.timed():
                body = [ln for ln in text.split("\r\n") if ln and not ln.startswith("#")]
                self.checks.expect(
                    len(body) == len(rows) + 1,
                    f"{label}: CSV has {len(body)} lines for {len(rows)} rows",
                )
                self.check_point(r, label, cfg, rows)
            results[label] = (cfg, rows)
        with self.checks.timed():
            self.check_round(r, results)

    def rates(self) -> dict:
        return {
            f"{kind}_per_s": self.work[kind] / self.work_s[kind]
            for kind in self.work
            if self.work_s[kind] > 0
        }

    def _mmse_observer(self, tracer):
        mmse_soft = detect.mmse_soft

        def observe(args, kwargs, result):
            a = arguments(mmse_soft, args, kwargs)
            est, _ = result
            tracer.count("detect.mmse_soft.var_clamped", int(est.var_clamped))
            h, y = a["h"], a["y"]
            reg = a["n0"] * a["n_t"] / a["es"]
            w = np.linalg.solve(h @ h.conj().T + reg * np.eye(h.shape[0]), h)
            s_ref = w.conj().T @ y
            err = np.max(np.abs(est.s_hat - s_ref)) / np.max(np.abs(s_ref))
            self.checks.expect(
                err <= MMSE_RTOL,
                f"mmse_soft estimate differs from a direct solve by {err:.3g}",
            )

        return observe


def _syndrome_is_zero(x, matrix) -> bool:
    return not ref.gf256_syndrome(
        x, matrix.edge_row, matrix.edge_col, matrix.edge_coef, matrix.n_checks
    ).any()


class CodedWorkload(Workload):
    # (label, preset, SNR in dB, frames per round)
    POINTS: tuple = ()

    def __init__(self, seed: int, checks: Checks):
        super().__init__(seed, checks)
        self.errors_bits: dict = defaultdict(dict)  # label -> round -> (errors, bits)
        self.encoded: list = []  # (info columns, info symbols) per encode call
        self.decoded: list = []  # hard decisions per decode call

    def points(self, r):
        s = derived_seed(self.seed, self.tag, r)
        return [
            (
                label,
                make_config(
                    preset, gamma_db=[gamma_db], max_frames=frames,
                    min_frame_errors=frames + 1, master_seed=s,
                ),
                frames,
                "coded_frames",
            )
            for label, preset, gamma_db, frames in self.POINTS
        ]

    def start_point(self):
        # Captures (traced run only) pair with the rows of their own point.
        self.encoded.clear()
        self.decoded.clear()

    def check_point(self, r, label, cfg, rows):
        self.checks.expect(len(rows) == 1, f"{label}: {len(rows)} rows")
        row = rows[0]
        frames = cfg.max_frames
        self.checks.expect(
            row.frames == frames and row.stop_reason == "max_frames",
            f"{label}: ran {row.frames} of {frames} frames ({row.stop_reason})",
        )
        k_bits = (cfg.n_symbols - 2 * cfg.n_symbols // cfg.d_c) * cfg.m
        self.errors_bits[label][r] = (row.bit_errors, k_bits * frames)
        if not (self.encoded or self.decoded):
            return
        self.checks.expect(
            len(self.encoded) == frames and len(self.decoded) == frames,
            f"{label}: captured {len(self.encoded)} encodes, "
            f"{len(self.decoded)} decodes for {frames} frames",
        )
        errors = sum(
            ref.popcount(info ^ hard[cols])
            for (cols, info), hard in zip(self.encoded, self.decoded)
        )
        self.checks.expect(
            errors == row.bit_errors,
            f"{label}: recounted {errors} bit errors, reported {row.bit_errors}",
        )

    def final_checks(self):
        for label, preset, gamma_db, _ in self.POINTS:
            cfg = make_config(preset)
            if cfg.detectors != ["mmse"] or cfg.rho_t or cfg.rho_r:
                continue
            pooled = self.errors_bits[label].values()
            if not pooled:
                continue
            ber = sum(e for e, _ in pooled) / sum(b for _, b in pooled)
            uncoded = float(ref.bpsk_ber(ref.mmse_sinr_large_system(
                ref.db_to_linear(gamma_db), cfg.n_t, cfg.n_r)))
            self.checks.expect(
                ber < CODING_GAIN * uncoded,
                f"{label}: coded BER {ber:.4g} not below {CODING_GAIN} x uncoded "
                f"MMSE {uncoded:.4g}",
            )

    def observers(self, tracer):
        encode = code.CodeSpec.encode
        decode = runner.decode

        def on_encode(args, kwargs, x):
            a = arguments(encode, args, kwargs)
            spec, info = a["self"], np.asarray(a["info"])
            self.checks.expect(spec.field.m == 8, "reference arithmetic needs GF(2^8)")
            self.checks.expect(
                _syndrome_is_zero(x, spec.matrix), "encoded codeword has a nonzero syndrome"
            )
            self.checks.expect(
                np.array_equal(x[spec.info_cols], info),
                "codeword does not carry its information symbols",
            )
            self.encoded.append((spec.info_cols, info))

        def on_decode(args, kwargs, res):
            matrix = arguments(decode, args, kwargs)["matrix"]
            tracer.count("decoder.iterations", res.iterations_used)
            tracer.count("decoder.unconverged", int(not res.converged))
            if res.converged:
                self.checks.expect(
                    _syndrome_is_zero(res.hard, matrix),
                    "decode marked converged with a nonzero syndrome",
                )
            self.decoded.append(res.hard)

        obs = super().observers(tracer)
        obs["code.encode"] = on_encode
        obs["decoder.decode"] = on_decode
        return obs


class CodedWaterfall(CodedWorkload):
    name = "coded-waterfall"
    tag = 1
    POINTS = (("fig4", "fig4", 0.5, 12),)


class CodedLargeArray(CodedWorkload):
    name = "coded-large-array"
    tag = 2
    POINTS = (("fig5", "fig5", -2.0, 2), ("fig15", "fig15", -8.0, 1))


class DensityEvolution(Workload):
    name = "de-renewal"
    tag = 3
    RENEWALS = 1

    def de_config(self) -> de.DeConfig:
        cfg = make_config("fig9")
        return de.DeConfig(
            n_t=cfg.n_t, n_r=cfg.n_r, modulation=cfg.modulation,
            detector=cfg.detectors[0], d_c=cfg.d_c, m=cfg.m,
            repeat_factor=cfg.de_repeat_factors[0],
            ensemble_size=cfg.de_ensemble_size,
            max_iterations=cfg.de_max_iterations,
            gamma0_db=cfg.de_gamma0_db[0], step_db=cfg.de_step_db,
            h_stop=cfg.de_h_stop,
        )

    def setup(self):
        self.de_config()

    def run_round(self, r):
        cfg = self.de_config()
        n = cfg.ensemble_size
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.tag, r]))

        def step(previous):
            if previous is None:
                ensemble = de.de_initial_ensemble(cfg, rng)
            else:
                ensemble = de.de_iterate(previous, cfg, rng)
            return ensemble, de.ensemble_entropy(ensemble, cfg.field)

        ensemble, entropies = None, []
        for k in range(1 + self.RENEWALS):
            out = self.attempt(n, "de_samples", lambda: step(ensemble))
            if out is None:  # later renewals have nothing to renew
                rest = n * (self.RENEWALS - k)
                self.attempted += rest
                self.failed += rest
                return
            ensemble, entropy = out
            with self.checks.timed():
                self._check_ensemble(ensemble, entropy, cfg, f"round {r} step {k}")
                if entropies:
                    self.checks.expect(
                        entropy < entropies[-1],
                        f"round {r} step {k}: entropy {entropy:.6g} did not fall "
                        f"from {entropies[-1]:.6g}",
                    )
            entropies.append(entropy)

    def _check_ensemble(self, ensemble, entropy, cfg, where):
        self.checks.expect(
            ensemble.shape == (cfg.ensemble_size, 2**cfg.m),
            f"{where}: ensemble shape {ensemble.shape}",
        )
        bits = 0.0
        for lo in range(0, len(ensemble), CHUNK_ROWS):
            p = ensemble[lo : lo + CHUNK_ROWS]
            self.checks.expect(
                np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - 1) <= PROB_ATOL),
                f"{where}: rows {lo}.. are not probability vectors",
            )
            bits += special.entr(p).sum() / np.log(2)
        expected = bits / (len(ensemble) * cfg.m)
        self.checks.expect(
            abs(entropy - expected) <= 1e-9 * expected,
            f"{where}: ensemble_entropy {entropy!r}, recomputed {expected!r}",
        )


class UncodedUses(Workload):
    name = "uncoded-uses"
    tag = 4
    KINDS = ("mmse", "mf-exact", "mf-simplified")
    SNRS_DB = (-6.0, -2.0)
    FRAMES = 40
    KS_DRAWS = 1000
    CAPACITY_DB = -11.0
    CAPACITY_RHOS = (0.0, 0.5)
    CAPACITY_TRIALS = 6

    def __init__(self, seed, checks):
        super().__init__(seed, checks)
        self.rows: dict = defaultdict(dict)  # label -> round -> rows
        self.terms: dict = {}  # round -> captured term draws (traced run)

    def points(self, r):
        s = derived_seed(self.seed, self.tag, r)
        pts = [
            (
                (kind, gamma_db),
                make_config(
                    "fig2", detectors=[kind], gamma_db=[gamma_db],
                    max_frames=self.FRAMES, min_frame_errors=self.FRAMES + 1,
                    master_seed=s,
                ),
                self.FRAMES,
                "uncoded_frames",
            )
            for kind in self.KINDS
            for gamma_db in self.SNRS_DB
        ]
        pts.append((
            "ksdelta",
            make_config("fig8", ks_samples=self.KS_DRAWS, master_seed=s),
            self.KS_DRAWS,
            "ks_draws",
        ))
        pts.append((
            "capacity",
            make_config(
                "fig13", gamma_db=[self.CAPACITY_DB],
                capacity_rho=list(self.CAPACITY_RHOS),
                capacity_trials=self.CAPACITY_TRIALS, master_seed=s,
            ),
            self.CAPACITY_TRIALS * len(self.CAPACITY_RHOS),
            "capacity_trials",
        ))
        return pts

    def check_point(self, r, label, cfg, rows):
        self.rows[label][r] = (cfg, rows)
        if isinstance(label, tuple):
            self.checks.expect(
                len(rows) == 1 and rows[0].frames == self.FRAMES
                and rows[0].stop_reason == "max_frames",
                f"round {r} {label}: did not run {self.FRAMES} frames",
            )

    def check_round(self, r, results):
        for gamma_db in self.SNRS_DB:
            exact = results.get(("mf-exact", gamma_db))
            simple = results.get(("mf-simplified", gamma_db))
            if exact and simple:
                keys = ("frames", "bit_errors", "frame_errors", "ber", "ber_se", "fer", "fer_se")
                a, b = exact[1][0], simple[1][0]
                self.checks.expect(
                    all(getattr(a, k) == getattr(b, k) for k in keys),
                    f"round {r} {gamma_db} dB: mf-exact and mf-simplified rows differ",
                )
        if "ksdelta" in results:
            row = results["ksdelta"][1][0]
            self.checks.expect(
                row["samples"] == self.KS_DRAWS and row["passed"] == 1
                and row["p_value"] > KS_SIGNIFICANCE,
                f"round {r}: KS test failed (p = {row['p_value']:.3g})",
            )
            if r in self.terms:
                self._recheck_ks(r, row)
        if "capacity" in results:
            rows = results["capacity"][1]
            by_rho = {row["rho"]: row["capacity_bps_hz"] for row in rows}
            self.checks.expect(
                by_rho.get(0.5, np.inf) < by_rho.get(0.0, -np.inf),
                f"round {r}: capacity at rho 0.5 not below rho 0: {by_rho}",
            )

    def _recheck_ks(self, r, row):
        x = self.terms[r].real
        mean, std = x.mean(), x.std(ddof=1)
        d = stats.kstest(x, "norm", args=(mean, std)).statistic
        self.checks.expect(
            np.isclose(d, row["ks_statistic"], rtol=1e-9)
            and np.isclose(mean, row["mean"], rtol=1e-9, atol=1e-15)
            and np.isclose(std, row["std"], rtol=1e-9),
            f"round {r}: KS row {row} does not match the captured draws",
        )

    def final_checks(self):
        self._check_ber()
        self._check_term()
        self._check_capacity()

    def _check_ber(self):
        for kind in self.KINDS:
            for gamma_db in self.SNRS_DB:
                pooled = list(self.rows[(kind, gamma_db)].values())
                if not pooled:
                    continue
                cfg = pooled[0][0]
                gamma = ref.db_to_linear(gamma_db)
                if kind == "mmse":
                    sinr = ref.mmse_sinr_large_system(gamma, cfg.n_t, cfg.n_r)
                else:
                    sinr = ref.mf_sinr_large_system(gamma, cfg.n_t, cfg.n_r)
                p = float(ref.bpsk_ber(sinr))
                bits = sum(rows[0].frames * cfg.n_t for _, rows in pooled)
                ber = sum(rows[0].bit_errors for _, rows in pooled) / bits
                se_rows = np.sqrt(sum(rows[0].ber_se**2 for _, rows in pooled)) / len(pooled)
                se = max(se_rows, np.sqrt(p * (1 - p) / bits))
                self.checks.expect(
                    abs(ber - p) <= Z_LIMIT * se,
                    f"{kind} {gamma_db} dB: BER {ber:.5f} vs large-system {p:.5f} "
                    f"(SE {se:.2g})",
                )

    def _check_term(self):
        pooled = list(self.rows["ksdelta"].values())
        if not pooled:
            return
        cfg = pooled[0][0]
        gamma_db = cfg.gamma_db[0]
        power = ref.mf_term_power(cfg.n_t, cfg.n_r, gamma_db)
        ks_rows = [rows[0] for _, rows in pooled]
        n = sum(row["samples"] for row in ks_rows)
        mean = sum(row["samples"] * row["mean"] for row in ks_rows) / n
        second = sum(
            (row["samples"] - 1) * row["std"] ** 2 + row["samples"] * row["mean"] ** 2
            for row in ks_rows
        ) / n
        se_mean = np.sqrt((second - mean**2) / n)
        self.checks.expect(
            abs(mean) <= Z_LIMIT * se_mean,
            f"MF term in-phase mean {mean:.3g} not within {Z_LIMIT} SE ({se_mean:.2g}) of 0",
        )
        se_power = second * np.sqrt(2.0 / n)
        self.checks.expect(
            abs(second - power / 2) <= Z_LIMIT * se_power,
            f"MF term in-phase power {second:.5g} vs exact {power / 2:.5g} "
            f"(SE {se_power:.2g})",
        )
        if self.terms:
            draws = np.concatenate(list(self.terms.values()))
            mag2 = np.abs(draws) ** 2
            se = mag2.std(ddof=1) / np.sqrt(len(mag2))
            self.checks.expect(
                abs(mag2.mean() - power) <= Z_LIMIT * se,
                f"MF term power {mag2.mean():.5g} vs exact {power:.5g} (SE {se:.2g})",
            )
            x = draws.real
            p = stats.kstest(x, "norm", args=(x.mean(), x.std(ddof=1))).pvalue
            self.checks.expect(
                p > KS_SIGNIFICANCE, f"pooled MF term draws fail KS (p = {p:.3g})"
            )

    def _check_capacity(self):
        pooled = list(self.rows["capacity"].values())
        if not pooled:
            return
        cfg = pooled[0][0]
        iid = [
            next(row for row in rows if row["rho"] == 0.0) for _, rows in pooled
        ]
        mean = np.mean([row["capacity_bps_hz"] for row in iid])
        se = np.sqrt(sum(row["std_error"] ** 2 for row in iid)) / len(iid)
        limit = ref.verdu_shamai_capacity(self.CAPACITY_DB, cfg.n_t, cfg.n_r)
        self.checks.expect(
            abs(mean - limit) <= Z_LIMIT * se + CAPACITY_ALLOWANCE,
            f"capacity {mean:.4f} vs Verdu-Shamai {limit:.4f} (SE {se:.2g})",
        )

    def observers(self, tracer):
        def on_terms(args, kwargs, draws):
            self.terms[self.round_index] = np.array(draws)

        obs = super().observers(tracer)
        obs["detect.mf_interference_samples"] = on_terms
        return obs


WORKLOADS = {
    cls.name: cls for cls in (CodedWaterfall, CodedLargeArray, DensityEvolution, UncodedUses)
}
