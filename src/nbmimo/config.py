"""Experiment configuration: flat INI sections mirroring the module layout.

A config file (or preset) holds one experiment.  Sections and keys:

    [meta]     command = ber | uncoded | capacity | threshold | flops | ksdelta
    [system]   n_t, n_r, modulation
    [code]     m, n_symbols, d_c, repeat_factor, construction_seed
    [detector] kind (comma list of mmse | mf-exact | mf-simplified)
    [channel]  rho_t, rho_r, est_error_var (comma list)
    [decoder]  max_iterations
    [stop]     min_frame_errors, max_frames
    [sweep]    gamma_db (comma list)
    [run]      master_seed
    [capacity] trials, rho (comma list)
    [de]       ensemble_size, max_iterations, step_db, h_stop,
               repeat_factors (comma list), gamma0_db (comma list, one per factor)
    [flops]    n_r (comma list)
    [ksdelta]  samples, significance

The flop table uses [system] modulation.  Validation is exhaustive: every
detectable problem, an unknown section or key among them, is reported in a
single ConfigError rather than failing on the first.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction

from nbmimo.channel import spectral_efficiency
from nbmimo.detect import DETECTORS

COMMANDS = ("ber", "uncoded", "capacity", "threshold", "flops", "ksdelta")


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors)
        )


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _names(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


# (section, key, converter, ExperimentConfig field): the whole INI surface.
INI_KEYS = (
    ("meta", "command", str.strip, "command"),
    ("system", "n_t", int, "n_t"),
    ("system", "n_r", int, "n_r"),
    ("system", "modulation", int, "modulation"),
    ("code", "m", int, "m"),
    ("code", "n_symbols", int, "n_symbols"),
    ("code", "d_c", int, "d_c"),
    ("code", "repeat_factor", int, "repeat_factor"),
    ("code", "construction_seed", int, "construction_seed"),
    ("detector", "kind", _names, "detectors"),
    ("channel", "rho_t", float, "rho_t"),
    ("channel", "rho_r", float, "rho_r"),
    ("channel", "est_error_var", _floats, "est_error_vars"),
    ("decoder", "max_iterations", int, "decoder_iterations"),
    ("stop", "min_frame_errors", int, "min_frame_errors"),
    ("stop", "max_frames", int, "max_frames"),
    ("sweep", "gamma_db", _floats, "gamma_db"),
    ("run", "master_seed", int, "master_seed"),
    ("capacity", "trials", int, "capacity_trials"),
    ("capacity", "rho", _floats, "capacity_rho"),
    ("de", "ensemble_size", int, "de_ensemble_size"),
    ("de", "max_iterations", int, "de_max_iterations"),
    ("de", "step_db", float, "de_step_db"),
    ("de", "h_stop", float, "de_h_stop"),
    ("de", "repeat_factors", _ints, "de_repeat_factors"),
    ("de", "gamma0_db", _floats, "de_gamma0_db"),
    ("flops", "n_r", _ints, "flops_n_r"),
    ("ksdelta", "samples", int, "ks_samples"),
    ("ksdelta", "significance", float, "ks_significance"),
)


@dataclass
class ExperimentConfig:
    command: str = "ber"
    # system
    n_t: int = 200
    n_r: int = 200
    modulation: int = 2
    # code
    m: int = 8
    n_symbols: int = 300
    d_c: int = 3
    repeat_factor: int = 1
    construction_seed: int = 101
    # detector / channel
    detectors: list[str] = field(default_factory=lambda: ["mmse"])
    rho_t: float = 0.0
    rho_r: float = 0.0
    est_error_vars: list[float] = field(default_factory=lambda: [0.0])
    # decoder / stop / sweep / run
    decoder_iterations: int = 200
    min_frame_errors: int = 100
    max_frames: int = 100_000
    gamma_db: list[float] = field(default_factory=lambda: [0.0])
    master_seed: int = 1
    # capacity
    capacity_trials: int = 1000
    capacity_rho: list[float] = field(default_factory=lambda: [0.0])
    # density evolution
    de_ensemble_size: int = 100_000
    de_max_iterations: int = 2000
    de_step_db: float = 0.05
    de_h_stop: float = 1e-6
    de_repeat_factors: list[int] = field(default_factory=lambda: [1])
    de_gamma0_db: list[float] = field(default_factory=lambda: [-3.0])
    # flops
    flops_n_r: list[int] = field(default_factory=lambda: [200])
    # ksdelta
    ks_samples: int = 100_000
    ks_significance: float = 0.001

    @property
    def bits_per_point(self) -> int:
        return {2: 1, 4: 2, 16: 4}.get(self.modulation, 0)

    @property
    def base_rate(self) -> Fraction:
        p = 2 * self.n_symbols // self.d_c if self.d_c else 0
        return Fraction(self.n_symbols - p, self.n_symbols)

    @property
    def rate(self) -> Fraction:
        return self.base_rate / self.repeat_factor

    @property
    def spectral_efficiency(self) -> float:
        return spectral_efficiency(self.bits_per_point, self.rate, self.n_t)

    def validate(self) -> list[str]:
        errors = []
        if self.command not in COMMANDS:
            errors.append(f"unknown command {self.command!r}")
        if self.modulation not in (2, 4, 16):
            errors.append(f"modulation must be 2, 4, or 16, got {self.modulation}")
        if self.n_t < 1 or self.n_r < 1:
            errors.append("antenna counts must be positive")
        for name in ("master_seed", "construction_seed"):
            if getattr(self, name) < 0:
                errors.append(f"{name} must be >= 0, got {getattr(self, name)}")
        for kind in self.detectors:
            if kind not in DETECTORS:
                errors.append(f"unknown detector {kind!r}")
        if not 0 <= self.rho_t < 1 or not 0 <= self.rho_r < 1:
            errors.append("correlation parameters must lie in [0, 1)")
        for v in self.est_error_vars:
            if v < 0:
                errors.append(f"estimation error variance {v} is negative")
        if self.command in ("ber", "uncoded", "threshold") and not self.detectors:
            errors.append("[detector] kind names no detector")

        if self.command in ("ber", "threshold"):
            # Only these commands map code symbols onto the antennas.
            if self.modulation in (2, 4, 16):
                p = self.bits_per_point
                if self.m % p != 0:
                    errors.append(
                        f"bits per modulated symbol {p} must divide m = {self.m}"
                    )
                elif self.n_t % (self.m // p) != 0:
                    errors.append(
                        f"n_t = {self.n_t} not divisible by q = {self.m // p}"
                    )
            if not 2 <= self.m <= 8:
                errors.append(f"field degree m = {self.m} out of range [2, 8]")
            if self.d_c < 2:
                errors.append("d_c must be at least 2")
            elif (2 * self.n_symbols) % self.d_c != 0:
                errors.append(
                    f"2N = {2 * self.n_symbols} not divisible by d_c = {self.d_c}"
                )
        if self.command == "ber":
            if self.repeat_factor < 1:
                errors.append("repeat_factor must be >= 1")
            if self.decoder_iterations < 1:
                errors.append("decoder iterations must be >= 1")
        if self.command in ("ber", "uncoded"):
            if self.min_frame_errors < 1:
                errors.append("stop rule needs min_frame_errors >= 1")
            if self.max_frames < 1:
                errors.append("stop rule needs max_frames >= 1")
            if not self.gamma_db:
                errors.append("sweep has no SNR points")
            if not self.est_error_vars:
                errors.append("[channel] est_error_var lists no variance")
        if self.command == "capacity":
            if self.capacity_trials < 1:
                errors.append("capacity needs at least one trial")
            if not self.gamma_db:
                errors.append("sweep has no SNR points")
            if not self.capacity_rho:
                errors.append("[capacity] rho lists no correlation")
            for r in self.capacity_rho:
                if not 0 <= r < 1:
                    errors.append(f"capacity rho {r} outside [0, 1)")
        if self.command == "threshold":
            if len(self.detectors) > 1:
                extra = ", ".join(self.detectors[1:])
                errors.append(
                    f"threshold runs one detector kind; drop {extra} from [detector] kind"
                )
            if self.modulation != 2:
                errors.append("density evolution supports BPSK only")
            if self.de_ensemble_size < 10_000:
                errors.append("density evolution ensemble must hold >= 10^4 nodes")
            if self.de_max_iterations < 1:
                errors.append("de max_iterations must be >= 1")
            if not self.de_repeat_factors:
                errors.append("de repeat_factors lists no factor")
            if any(t < 1 for t in self.de_repeat_factors):
                errors.append("de repeat_factors must be >= 1")
            if self.de_step_db <= 0:
                errors.append("de step_db must be positive")
            if not 0 < self.de_h_stop < 1:
                errors.append("de h_stop must lie in (0, 1)")
            if len(self.de_gamma0_db) != len(self.de_repeat_factors):
                errors.append(
                    "de gamma0_db must list one starting SNR per repeat factor"
                )
        if self.command == "flops":
            if not self.flops_n_r:
                errors.append("flops n_r lists no antenna count")
            if any(n < 1 for n in self.flops_n_r):
                errors.append("flops n_r values must be positive")
        if self.command == "ksdelta":
            if len(self.gamma_db) != 1:
                errors.append(
                    f"ksdelta runs at one SNR; [sweep] gamma_db lists {len(self.gamma_db)}"
                )
            if self.ks_samples < 1000:
                errors.append("ksdelta needs at least 10^3 samples")
            if not 0 < self.ks_significance < 1:
                errors.append("ks significance must lie in (0, 1)")
        return errors

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        cfg = cls()
        errors = []

        known = {(section, key) for section, key, _, _ in INI_KEYS}
        # Keys under [DEFAULT] reach every section; check them once.
        defaults = parser.defaults()
        for key in defaults:
            if key not in {k for _, k in known}:
                errors.append(f"unknown key [DEFAULT] {key}")
        sections = {section for section, _ in known}
        for section in parser.sections():
            if section not in sections:
                errors.append(f"unknown section [{section}]")
                continue
            for key in parser.options(section):
                if key not in defaults and (section, key) not in known:
                    errors.append(f"unknown key [{section}] {key}")

        for section, key, convert, attr in INI_KEYS:
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    setattr(cfg, attr, convert(raw))
                except (ValueError, TypeError):
                    errors.append(f"[{section}] {key} = {raw!r} is malformed")

        errors.extend(cfg.validate())
        if errors:
            raise ConfigError(errors)
        return cfg

    def metadata(self) -> dict:
        """Deterministic provenance lines emitted at the top of every CSV."""
        from nbmimo.galois import DEFAULT_PRIMITIVE_POLY

        meta = {"command": self.command}
        # The flop table reads neither the seed nor the antenna counts (it
        # sweeps [flops] n_r), and capacity draws no symbols.
        if self.command != "flops":
            meta.update(master_seed=self.master_seed, n_t=self.n_t, n_r=self.n_r)
        if self.command != "capacity":
            meta["modulation"] = self.modulation
        if self.command in ("ber", "threshold"):
            meta.update(
                {
                    "field_m": self.m,
                    "field_poly": hex(DEFAULT_PRIMITIVE_POLY[self.m]),
                    "n_symbols": self.n_symbols,
                    "d_c": self.d_c,
                }
            )
        if self.command == "ber":
            meta.update(
                {
                    # Density evolution builds no code.
                    "construction_seed": self.construction_seed,
                    "repeat_factor": self.repeat_factor,
                    "rate": str(self.rate),
                    "spectral_efficiency": f"{self.spectral_efficiency:.6g}",
                    "rho_t": self.rho_t,
                    "rho_r": self.rho_r,
                    "decoder_max_iterations": self.decoder_iterations,
                    "min_frame_errors": self.min_frame_errors,
                    "max_frames": self.max_frames,
                }
            )
        if self.command == "uncoded":
            meta.update(
                {
                    "rho_t": self.rho_t,
                    "rho_r": self.rho_r,
                    "min_frame_errors": self.min_frame_errors,
                    "max_frames": self.max_frames,
                }
            )
        return meta
