"""Experiment orchestration: seeded trials, stop rules, and CSV records.

Every frame draws its randomness from an independent stream keyed by
(master seed, purpose, frame index), so results are bit-identical however
trials are scheduled.  Each swept point accumulates frames until the
configured number of frame errors is reached or the frame cap fires; the
record says which rule stopped it.  Monte Carlo standard errors ride along
with every estimate (frame-level variance for BER, binomial for FER).
Every frame but a coded simplified-MF one draws and detects one channel
use at a time through `detect.detect_each_use`, the path that density
evolution's MMSE and exact-MF priors take too.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np
from scipy import stats

from nbmimo import __version__
from nbmimo.channel import (
    CorrelationSpec,
    ergodic_capacity,
    gray_constellation,
    map_codeword,
    snr_to_noise,
    spectral_efficiency,
)
from nbmimo.code import build_code_spec, lower_rate
from nbmimo.complexity import flop_ratio, flops_mmse, flops_proposed
from nbmimo.config import ExperimentConfig
from nbmimo.de import DeConfig, find_threshold
from nbmimo.decoder import decode
from nbmimo.detect import (
    detect_each_use,
    mf_interference_samples,
    mf_simplified_samples,
    symbol_priors,
)
from nbmimo.galois import build_field

# Purpose tags keep per-frame streams disjoint across run types.
_FRAME, _UNCODED, _CAPACITY, _KSDELTA = 0, 1, 2, 3


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator keyed by (master seed, *key)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    )


@dataclass
class SweepSummary:
    detector: str
    gamma_db: float
    est_error_var: float
    rho_t: float
    rho_r: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    ber_se: float
    fer: float
    fer_se: float
    mean_iterations: float
    mean_bit_errors_per_frame_error: float
    flops_detect: int
    flops_soft: int
    stop_reason: str


def _stats_from_counts(counts: np.ndarray, bits_per_frame: int):
    frames = len(counts)
    ber = counts.sum() / (bits_per_frame * frames)
    if frames > 1:
        ber_se = counts.std(ddof=1) / (bits_per_frame * np.sqrt(frames))
    else:
        ber_se = 0.0
    frame_errors = int(np.count_nonzero(counts))
    fer = frame_errors / frames
    fer_se = np.sqrt(max(fer * (1 - fer), 0.0) / frames)
    nonzero = counts[counts > 0]
    mean_per_fe = float(nonzero.mean()) if len(nonzero) else 0.0
    return ber, ber_se, frame_errors, fer, fer_se, mean_per_fe


def _run_point(cfg: ExperimentConfig, spec, kind: str, sigma2_e: float,
               gamma_db: float) -> SweepSummary:
    """Frames at one (detector, estimation error, SNR) point until the stop
    rule fires; a coded point under `spec`, an uncoded one when it is None.

    Frame f draws from `substream(seed, purpose, f)` alone, so a point's
    row does not depend on the other points of its sweep.  Coded
    simplified-MF frames draw their estimates through
    `mf_simplified_samples`, without H; every other frame draws and
    detects one use at a time (`detect.detect_each_use`): the Bartlett
    factor of H^H H on i.i.d. fading with N_r >= N_t, uncoded simplified
    MF included, and H otherwise.  An uncoded frame is one channel use,
    hard-sliced per stream.
    """
    const = gray_constellation(cfg.modulation, symbol_energy=1.0 / cfg.n_t)
    corr = None
    if cfg.rho_t > 0 or cfg.rho_r > 0:
        corr = CorrelationSpec(cfg.rho_t, cfg.rho_r, cfg.n_t, cfg.n_r)
    sigma2_n = snr_to_noise(gamma_db)
    purpose = _UNCODED if spec is None else _FRAME
    counts = []
    iterations = []
    frame = 0
    frame_errors = 0
    while True:
        rng = substream(cfg.master_seed, purpose, frame)
        if spec is None:
            labels = rng.integers(0, cfg.modulation, size=cfg.n_t)
            vectors = const.points[labels][None]
        else:
            field = spec.field
            info = rng.integers(0, field.size, size=spec.k_symbols)
            x = spec.encode(info)
            vectors = map_codeword(spec.expand(x), const, field, cfg.n_t)
        if spec is not None and kind == "mf-simplified":
            rows = mf_simplified_samples(
                vectors, cfg.n_r, sigma2_n, rng, sigma2_e, corr, const
            ).reshape(-1, const.size)
        else:
            rows = detect_each_use(
                kind, vectors, cfg.n_r, corr, sigma2_e, sigma2_n, const, rng
            )
        if spec is None:
            hard = rows.argmax(axis=1)
            diff = const.labels_to_bits(hard) ^ const.labels_to_bits(labels)
            errors, iters = int(diff.sum()), 0
        else:
            priors = symbol_priors(rows, field)
            folded = spec.fold_priors(priors[: spec.n_transmit_symbols])
            res = decode(folded, spec.matrix, field, cfg.decoder_iterations)
            got = field.to_bits(res.hard[spec.info_cols])
            errors = int(np.count_nonzero(got != field.to_bits(info)))
            iters = res.iterations_used
        counts.append(errors)
        iterations.append(iters)
        frame += 1
        frame_errors += errors > 0
        if frame_errors >= cfg.min_frame_errors:
            stop = "frame_errors"
            break
        if frame >= cfg.max_frames:
            stop = "max_frames"
            break
    counts = np.array(counts)
    bits_per_frame = cfg.bits_per_point * cfg.n_t if spec is None else spec.k_bits
    ber, ber_se, fe, fer, fer_se, per_fe = _stats_from_counts(counts, bits_per_frame)
    flops = flops_mmse if kind == "mmse" else flops_proposed
    return SweepSummary(
        kind, gamma_db, sigma2_e, cfg.rho_t, cfg.rho_r, int(frame),
        int(counts.sum()), fe, ber, ber_se, fer, fer_se,
        float(np.mean(iterations)), per_fe, *flops(cfg.n_r, cfg.modulation), stop,
    )


def _sweep(cfg: ExperimentConfig, spec, progress=None) -> list[SweepSummary]:
    """Every (detector, estimation error, SNR) point of a sweep, in order."""
    out = []
    for kind in cfg.detectors:
        for sigma2_e in cfg.est_error_vars:
            for gamma_db in cfg.gamma_db:
                out.append(_run_point(cfg, spec, kind, sigma2_e, gamma_db))
                if progress:
                    progress(out[-1])
    return out


def run_ber(cfg: ExperimentConfig, progress=None) -> list[SweepSummary]:
    """Coded sweep over (detector, estimation error, SNR)."""
    field = build_field(cfg.m)
    spec = build_code_spec(cfg.n_symbols, cfg.d_c, field, cfg.construction_seed)
    if cfg.repeat_factor > 1:
        spec = lower_rate(spec, spec.rate / cfg.repeat_factor)
    return _sweep(cfg, spec, progress)


def run_uncoded(cfg: ExperimentConfig, progress=None) -> list[SweepSummary]:
    """Uncoded sweep: one frame is one channel use, hard-sliced per stream.

    Both matched filters draw each use in the same order, H or its
    Bartlett factor, so for BPSK the exact and simplified MF slice the same
    estimates up to a positive per-stream scale.
    """
    return _sweep(cfg, None, progress)


def run_capacity(cfg: ExperimentConfig) -> list[dict]:
    specs = {
        rho: CorrelationSpec(rho, rho, cfg.n_t, cfg.n_r)
        for rho in cfg.capacity_rho
        if rho > 0
    }
    caps = {}
    for j, gamma_db in enumerate(cfg.gamma_db):
        # Every row at one SNR starts from the same seed.  The correlated
        # rows share one W per trial, scaled per rho, which makes their
        # differences directly comparable.  The rho = 0 row draws its
        # trials from the bidiagonal model instead (`ergodic_capacity`),
        # so it shares no draws with them.
        if 0.0 in cfg.capacity_rho:
            caps[0.0, j] = ergodic_capacity(
                cfg.n_t, cfg.n_r, gamma_db, cfg.capacity_trials,
                substream(cfg.master_seed, _CAPACITY, j),
            )
        if specs:
            correlated = ergodic_capacity(
                cfg.n_t, cfg.n_r, gamma_db, cfg.capacity_trials,
                substream(cfg.master_seed, _CAPACITY, j), corrs=list(specs.values()),
            )
            caps.update(((rho, j), cap) for rho, cap in zip(specs, correlated))
    out = []
    for rho in cfg.capacity_rho:
        for j, gamma_db in enumerate(cfg.gamma_db):
            cap, se = caps[rho, j]
            out.append(
                {
                    "rho": rho,
                    "gamma_db": gamma_db,
                    "trials": cfg.capacity_trials,
                    "capacity_bps_hz": cap,
                    "std_error": se,
                }
            )
    return out


def run_threshold(cfg: ExperimentConfig, progress=None) -> list[dict]:
    """Each repeat factor's threshold descent; `progress`, when given, gets
    every descent point's trajectory row with its repeat factor."""
    out = []
    for t, gamma0 in zip(cfg.de_repeat_factors, cfg.de_gamma0_db):
        de_cfg = DeConfig(
            n_t=cfg.n_t,
            n_r=cfg.n_r,
            modulation=cfg.modulation,
            detector=cfg.detectors[0],
            d_c=cfg.d_c,
            m=cfg.m,
            repeat_factor=t,
            ensemble_size=cfg.de_ensemble_size,
            max_iterations=cfg.de_max_iterations,
            gamma0_db=gamma0,
            step_db=cfg.de_step_db,
            h_stop=cfg.de_h_stop,
        )
        point_done = None if progress is None else (
            lambda row, t=t: progress({"repeat_factor": t, **row})
        )
        result = find_threshold(de_cfg, seed=cfg.master_seed + t, progress=point_done)
        rate = cfg.base_rate / t
        se = spectral_efficiency(cfg.bits_per_point, rate, cfg.n_t)
        # The CSV columns in order; a row leaves the ones it does not fill empty.
        base = {
            "record": "trajectory",
            "repeat_factor": t,
            "rate": str(rate),
            "spectral_efficiency": se,
            "gamma_db": "",
            "iterations": "",
            "entropy": "",
            "decoded": "",
            "threshold_db": "",
        }
        for row in result.trajectory:
            out.append({**base, **row, "decoded": int(row["decoded"])})
        out.append({**base, "record": "threshold", "threshold_db": result.threshold_db})
    return out


def run_flops(cfg: ExperimentConfig) -> list[dict]:
    out = []
    m = cfg.modulation
    for n_r in cfg.flops_n_r:
        pd, ps = flops_proposed(n_r, m)
        md, ms = flops_mmse(n_r, m)
        out.append(
            {
                "n_r": n_r,
                "modulation": m,
                "proposed_detect": pd,
                "proposed_soft": ps,
                "proposed_total": pd + ps,
                "mmse_detect": md,
                "mmse_soft": ms,
                "mmse_total": md + ms,
                "ratio": flop_ratio(n_r, m),
            }
        )
    return out


@dataclass
class KsResult:
    statistic: float
    p_value: float
    passed: bool
    significance: float
    n_samples: int
    mean: float
    std: float


def ks_gaussian_test(samples, significance: float = 0.001) -> KsResult:
    """Two-sided KS test against a Gaussian with the sample's mean/variance."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < 1000:
        raise ValueError(f"need at least 10^3 samples, got {len(samples)}")
    mean = samples.mean()
    std = samples.std(ddof=1)
    if std == 0:
        raise ValueError("degenerate sample: zero variance")
    stat, p = stats.kstest(samples, "norm", args=(mean, std))
    return KsResult(
        float(stat), float(p), bool(p > significance), significance,
        len(samples), float(mean), float(std),
    )


def run_ksdelta(cfg: ExperimentConfig) -> list[dict]:
    """KS test of the in-phase part of the exact-MF interference-plus-noise term."""
    rng = substream(cfg.master_seed, _KSDELTA)
    gamma_db = cfg.gamma_db[0]
    samples = mf_interference_samples(
        cfg.n_t, cfg.n_r, gamma_db, cfg.ks_samples, rng,
        modulation=cfg.modulation,
    )
    res = ks_gaussian_test(samples.real, cfg.ks_significance)
    return [
        {
            "n_t": cfg.n_t,
            "n_r": cfg.n_r,
            "gamma_db": gamma_db,
            "samples": res.n_samples,
            "mean": res.mean,
            "std": res.std,
            "ks_statistic": res.statistic,
            "p_value": res.p_value,
            "significance": res.significance,
            "passed": int(res.passed),
        }
    ]


def write_csv(rows, metadata: dict, stream: io.TextIOBase) -> None:
    """RFC-4180 records preceded by '#'-prefixed provenance comments."""
    for key, value in metadata.items():
        stream.write(f"# {key} = {value}\r\n")
    if not rows:
        return
    first = rows[0]
    if isinstance(first, SweepSummary):
        names = [f.name for f in fields(SweepSummary)]
        dict_rows = [
            {name: getattr(r, name) for name in names} for r in rows
        ]
    else:
        names = list(first.keys())
        dict_rows = rows
    writer = csv.DictWriter(stream, fieldnames=names, lineterminator="\r\n")
    writer.writeheader()
    for row in dict_rows:
        writer.writerow(row)


def run_command(cfg: ExperimentConfig, progress=None) -> tuple[list, dict]:
    """Dispatch a validated config; returns (rows, metadata).

    `progress`, when given, is called with each finished point: a
    SweepSummary for `ber` and `uncoded`, a trajectory row with its repeat
    factor for `threshold`.
    """
    meta = {"nbmimo": __version__}
    meta.update(cfg.metadata())
    if cfg.command == "ber":
        rows = run_ber(cfg, progress=progress)
    elif cfg.command == "uncoded":
        rows = run_uncoded(cfg, progress=progress)
    elif cfg.command == "capacity":
        rows = run_capacity(cfg)
    elif cfg.command == "threshold":
        rows = run_threshold(cfg, progress=progress)
    elif cfg.command == "flops":
        rows = run_flops(cfg)
    elif cfg.command == "ksdelta":
        rows = run_ksdelta(cfg)
    else:
        raise ValueError(f"unknown command {cfg.command!r}")
    return rows, meta
