"""Monte Carlo density evolution for the (2, d_c) ensemble on large MIMO.

The decoding threshold of the infinite-length ensemble is located by
simulating belief propagation on a cycle-free graph: an ensemble of L
variable-node probability vectors is initialized from the equivalent
channel (zero codeword through fading, detection, and prior aggregation)
and repeatedly renewed, each new sample combining one check-node output
(a convolution of d_c - 1 uniformly drawn ensemble members under random
nonzero edge coefficients) with a fresh channel sample.  Convolutions
are products of Walsh-Hadamard spectra (Barnault & Declercq, ITW 2003),
and an edge coefficient only permutes a spectrum, so a renewal
transforms each member and each check output once.  A renewal draws
every check input first, then renews a chunk at a time: the chunk's
fresh channel priors go into a chunk-sized staging buffer, the check
outputs are gathered, multiplied and transformed through a few
cache-sized row-block buffers and multiplied into it, and the chunk's
rows are written back into ensemble rows that no later chunk reads
(`_slot_plan`).  Rows that find none free wait in an overflow buffer,
sized from the plan: about 0.15 L rows at d_c = 3 and 0.30 L at d_c = 4
(the peak of x - exp(-(d_c - 1)(1 - x))).  Besides the ensemble a
renewal holds only that overflow, the staging buffer, the prior
sampler's work and the draws.  The ensemble's
average Shannon entropy, in base 2^m, tracks the remaining ambiguity; an
SNR decodes once the entropy falls below the stopping level.  Descending
in fixed dB steps, the threshold is the last SNR that decoded.

Under the simplified matched filter the channel priors come from
`detect.mf_simplified_samples`, the sampler behind the coded sweep's
simplified-MF frames: it draws the estimates from a sufficient statistic
and never forms H.
Density evolution calls it for the channel it models, i.i.d. Rayleigh
fading with perfect CSI; the sampler also covers Kronecker correlation
and estimation error, which no DeConfig setting selects.  Under BPSK a
symbol prior is the product of its bits' two-point likelihoods, so it is
exp of a linear form in one LLR per stream (the binary-image prior of
Declercq & Fossorier, IEEE Trans. Commun. 55(4), 2007).  The priors are
built that way from the same draws, equal to `mf_soft` followed by
`symbol_priors` to rounding.  The MMSE and exact-MF kinds draw and
detect one use at a time through `detect.detect_each_use`, the sweeps'
path.

Only BPSK supports the zero-codeword trick: rotational symmetry fails for
larger QAM alphabets, so those configurations are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from nbmimo.channel import gray_constellation, snr_to_noise
from nbmimo.decoder import MSG_FLOOR, fwht
from nbmimo.detect import (
    DETECTORS,
    VAR_FLOOR,
    detect_each_use,
    mf_simplified_samples,
    symbol_priors,
)
from nbmimo.galois import FieldTable, build_field


class UnsupportedConfiguration(ValueError):
    pass


class ThresholdSearchError(RuntimeError):
    pass


# SNR points `find_threshold` tries before it gives up.
MAX_POINTS = 500
# Ensemble rows `ensemble_entropy` and `de_iterate`'s block loops take at
# once: at q = 256 a block and its buffers (512 KB each) stay in a 2 MB L2
# cache between passes.
_BLOCK_ROWS = 256
# Smallest normal float64: the entropy takes log(max(p, _TINY)).
_TINY = np.finfo(np.float64).tiny
# New samples `de_iterate` renews at once.
CHUNK = 8192


@dataclass
class DeConfig:
    """Ensemble, iteration, and SNR-descent parameters plus the system.

    `field` is always GF(2^m) with its default polynomial.
    """

    n_t: int = 200
    n_r: int = 200
    modulation: int = 2
    detector: str = "mf-simplified"
    d_c: int = 3
    m: int = 8
    repeat_factor: int = 1
    ensemble_size: int = 100_000
    max_iterations: int = 2000
    gamma0_db: float = -3.0
    step_db: float = 0.05
    h_stop: float = 1e-6
    field: FieldTable = dc_field(init=False, repr=False)

    def __post_init__(self):
        if self.modulation != 2:
            raise UnsupportedConfiguration(
                "density evolution relies on the zero codeword, which only "
                "binary modulation's rotational symmetry permits"
            )
        if self.step_db <= 0:
            raise ValueError("step_db must be positive")
        if not 0 < self.h_stop < 1:
            raise ValueError("h_stop must lie in (0, 1)")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        self.field = build_field(self.m)
        if self.n_t % self.m != 0:
            raise ValueError("n_t must be divisible by q = m for BPSK")


@dataclass
class DeResult:
    threshold_db: float
    trajectory: list


def ensemble_entropy(ensemble: np.ndarray, field: FieldTable) -> float:
    """Average Shannon entropy in base 2^m; 0 log 0 reads as 0.

    Row entropies -sum_x p log p are summed chunk by chunk into one
    vector, with one chunk-sized buffer and no ensemble-sized temporary.
    Each entry's log is taken of max(p, tiny), so an exact zero adds
    0 * log(tiny) = 0.
    """
    p = np.asarray(ensemble, dtype=np.float64)
    rows = np.empty(len(p))
    buf = np.empty((min(_BLOCK_ROWS, len(p)),) + p.shape[1:])
    for lo in range(0, len(p), _BLOCK_ROWS):
        chunk = p[lo : lo + _BLOCK_ROWS]
        plogp = buf[: len(chunk)]
        np.maximum(chunk, _TINY, out=plogp)
        np.log(plogp, out=plogp)
        plogp *= chunk
        plogp.sum(axis=1, out=rows[lo : lo + _BLOCK_ROWS])
    # 0.0 - x, unlike -x, gives 0.0 for a row mean of 0.0.
    return float((0.0 - rows.mean()) / (np.log(2) * field.m))


def _channel_prior_samples(
    cfg: DeConfig, n: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """n independent raw symbol priors from the equivalent channel, into
    `out` when it is given (a C-contiguous (n, 2^m) float64 array).

    Transmits the zero codeword: every antenna carries the label-0 point
    p0, so y = p0 g + n with g = sum_j h_j.  Each channel use yields n_t/q
    coded-symbol priors.  MMSE and exact MF draw and detect a batch of
    uses one at a time (`detect.detect_each_use`, the sweeps' path: the
    Bartlett factor of H^H H when N_r >= N_t, H otherwise), then fold the
    rows with `symbol_priors`.

    Simplified MF draws through `mf_simplified_samples` with s = p0 1, no
    correlation and no estimation error (A = B = I, sigma_e = 0).  Then
    W u = p0 g, the common term u (W u)^H y / ||u||^2 is (g/N_t)^H y, and
    P z removes the mean of z over the streams: O(N_t + N_r)
    double-precision normals per use, drawn in the order (g, n, z),
    instead of O(N_t N_r).  The priors come from the per-stream LLRs
    lambda_k = 2 a Re(s_hat_k) / sigma^2 of the BPSK points +-a, with
    sigma^2 = sigma_n^2 / N_r the constant of `mf_soft`: stream j of a
    symbol carries bit j, so
    log p(x) = -sum_j softplus(-lambda_j) - sum_j b_j(x) lambda_j.  That
    is one (rows, m + 1) @ (m + 1, 2^m) product, the last column carrying
    the softplus sum, written into the rows of the result; then an exp in
    place and a renormalization of each row against rounding.  The draws
    are those of `mf_simplified_samples` with a constellation, and the
    priors equal `symbol_priors` of its `mf_soft` rows to rounding.
    """
    field = cfg.field
    q = field.m  # BPSK: one bit per modulated symbol
    per_use = cfg.n_t // q
    const = gray_constellation(2, symbol_energy=1.0 / cfg.n_t)
    sigma2_n = snr_to_noise(cfg.gamma0_db)
    point0 = const.points[0]
    uses_left = -(-n // per_use)
    # A batch holds 2^21 / 2^m symbol prior entries' worth of uses (40 at
    # 200 x 200 and m = 8), whose priors go straight into `out`.  The
    # batch size fixes the order of the simplified-MF draws.
    max_batch = max(1, (1 << 21) // (cfg.n_t * field.size))
    llr_scale = 2 * point0.real / max(sigma2_n / cfg.n_r, VAR_FLOOR)
    # Rows j < m of `signs` hold -b_j(x) and row m holds -1: [lambda, sum
    # of softplus(-lambda)] @ signs is the log prior.
    signs = -np.vstack([field.to_bits(np.arange(field.size)).T, np.ones(field.size)])
    out = np.empty((n, field.size)) if out is None else out
    done = 0
    while done < n:
        b = min(max_batch, uses_left)
        uses_left -= b
        take = min(b * per_use, n - done)
        s = np.full((b, cfg.n_t), point0)
        if cfg.detector == "mf-simplified":
            s_hat = mf_simplified_samples(s, cfg.n_r, sigma2_n, rng)
            llr = np.empty((take, q + 1))
            np.multiply(s_hat.real.reshape(-1, q)[:take], llr_scale, out=llr[:, :q])
            np.logaddexp(0.0, -llr[:, :q]).sum(axis=1, out=llr[:, q])
            rows = np.matmul(llr, signs, out=out[done : done + take])
            np.exp(rows, out=rows)
            rows *= 1.0 / rows.sum(axis=1, keepdims=True)
        else:
            rows = detect_each_use(cfg.detector, s, cfg.n_r, None, 0.0, sigma2_n, const, rng)
            out[done : done + take] = symbol_priors(rows, field)[:take]
        done += take
    return out


def _fresh_samples(cfg: DeConfig, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """n = len(out) folded variable-node channel samples (repetition
    copies combined), written into `out`, a C-contiguous (n, 2^m) float64
    array.

    With t > 1 copies, the t n raw priors come first, then the coefficients
    c_1 .. c_{t-1} of every sample's later copies.  Copy j's prior is read
    at x c_j, and the copies are multiplied into `out` one at a time, from
    the first, before the floor and normalization.
    """
    t, n = cfg.repeat_factor, len(out)
    if t == 1:
        return _channel_prior_samples(cfg, n, rng, out=out)
    field = cfg.field
    raw = _channel_prior_samples(cfg, n * t, rng).reshape(n, t, field.size)
    coefs = rng.integers(1, field.size, size=(n, t - 1))
    out[:] = raw[:, 0]
    for j in range(1, t):
        out *= np.take_along_axis(raw[:, j], field.mul_table[coefs[:, j - 1]], axis=1)
    np.maximum(out, MSG_FLOOR, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def de_initial_ensemble(cfg: DeConfig, rng: np.random.Generator) -> np.ndarray:
    """L variable-node priors from the equivalent channel, drawn CHUNK
    rows at a time as a renewal draws its fresh priors."""
    L = cfg.ensemble_size
    out = np.empty((L, cfg.field.size))
    for lo in range(0, L, CHUNK):
        _fresh_samples(cfg, rng, out[lo : lo + CHUNK])
    return out


def _spectrum_permutations(field: FieldTable) -> np.ndarray:
    """(q, q) table P: the row x -> p[c^{-1} x] has spectrum fwht(p)[P[c]].

    P[c] u = M_c^T u, where column j of the GF(2) matrix M_c holds the
    bits of c 2^j; so P[a][P[b]] == P[a b] and P[1] is the identity.
    """
    columns = field.to_bits(field.mul_table[:, 1 << np.arange(field.m)])
    u_bits = field.to_bits(np.arange(field.size))
    return field.from_bits((u_bits @ np.swapaxes(columns, 1, 2)) & 1)


def _slot_plan(idx: np.ndarray, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Where an in-place renewal writes its new samples: (slots, direct).

    New sample i, renewed in chunk i // chunk, reads the input rows
    idx[i].  An input row is free once the last chunk that reads it has
    gathered; rows no sample reads are free from the start.  Once chunk c
    has gathered, its first direct[c] samples go into free rows, in the
    order the rows became free (by chunk, then by row), and the rest of
    the chunk into an overflow buffer, whose rows take the remaining free
    rows, in order, after the last chunk.  New sample i ends in row
    slots[i], a permutation of range(L).  The overflow holds
    L - direct.sum() rows: the largest excess, after any chunk, of the
    samples renewed over the rows freed.
    """
    L = len(idx)
    chunk_of = np.arange(L) // chunk
    last = np.full(L, -1)
    np.maximum.at(last, idx, chunk_of[:, None])
    order = np.argsort(last, kind="stable")
    renewed = np.cumsum(np.bincount(chunk_of))
    freed = np.searchsorted(last[order], np.arange(len(renewed)), side="right")
    spilled = np.maximum.accumulate(np.maximum(renewed - freed, 0))
    direct = np.diff(renewed - spilled, prepend=0)
    placed = np.arange(L) % chunk < direct[chunk_of]
    slots = np.empty(L, dtype=np.intp)
    slots[placed] = order[: L - spilled[-1]]
    slots[~placed] = order[L - spilled[-1] :]
    return slots, direct


def de_iterate(
    ensemble: np.ndarray, cfg: DeConfig, rng: np.random.Generator
) -> np.ndarray:
    """One renewal of the ensemble: check-node combine plus fresh channel.

    Inputs to each check are drawn uniformly with replacement.  Variable
    nodes have degree 2, so a new sample multiplies exactly one check
    output with a fresh channel prior.  The renewal first draws every
    new sample's check inputs, then their input edge coefficients, then
    their output edge coefficients; then each chunk of CHUNK new samples
    draws its fresh channel priors into a chunk-sized staging buffer.
    The check node multiplies Walsh-Hadamard spectra, where input
    coefficient a and output coefficient c permute an input's spectrum by
    P[a c^{-1}] (`_spectrum_permutations`).

    The transforms and the combine run over blocks of _BLOCK_ROWS rows,
    through three block-sized buffers: the check output, the transform's
    work array (which also receives the gathered spectra of every input
    after the first) and one flat gather index.  Entry u of input j reads
    spectra[idx[j], P[k[j]][u]], and the inputs are multiplied in order.

    The ensemble is renewed in place: it is transformed to its spectra,
    and each chunk's rows are written into rows no later chunk reads, or
    held in an overflow buffer until the last chunk (`_slot_plan`).  A
    C-contiguous float64 `ensemble` is itself returned, holding new
    sample i in row slots[i]; the rows are exchangeable, so nothing reads
    their order.  Any other input is copied first and left as it was.
    """
    spectra = np.ascontiguousarray(ensemble, dtype=np.float64)
    L = len(spectra)
    field = cfg.field
    qsize = field.size
    d_in = cfg.d_c - 1

    perm = _spectrum_permutations(field)
    rows = min(_BLOCK_ROWS, L)
    work, c2v = np.empty((rows, qsize)), np.empty((rows, qsize))
    flat_idx = np.empty((rows, qsize), dtype=np.intp)
    for lo in range(0, L, rows):
        block = spectra[lo : lo + rows]
        fwht(block, out=block, work=work[: len(block)])

    idx = rng.integers(0, L, size=(L, d_in))
    coefs_in = rng.integers(1, qsize, size=(L, d_in))
    coef_out = rng.integers(1, qsize, size=L)
    slots, direct = _slot_plan(idx, CHUNK)
    spill = np.empty((L - direct.sum(), qsize))
    spill_slots = np.empty(len(spill), dtype=np.intp)
    spilled = 0
    renewed = np.empty((min(CHUNK, L), qsize))
    flat_spectra = spectra.reshape(-1)
    for c, lo in enumerate(range(0, L, CHUNK)):
        hi = min(lo + CHUNK, L)
        b = hi - lo
        _fresh_samples(cfg, rng, renewed[:b])
        k = field.mul_table[coefs_in[lo:hi], field.inv_table[coef_out[lo:hi]][:, None]]
        offsets = idx[lo:hi] * qsize
        for blo in range(0, b, rows):
            bhi = min(blo + rows, b)
            n = bhi - blo
            conv, flat, gathered = c2v[:n], flat_idx[:n], work[:n]
            for j in range(d_in):
                np.take(perm, k[blo:bhi, j], axis=0, out=flat, mode="clip")
                flat += offsets[blo:bhi, j, None]
                np.take(flat_spectra, flat, out=gathered if j else conv, mode="clip")
                if j:
                    conv *= gathered
            fwht(conv, out=conv, work=gathered)
            conv /= qsize
            np.maximum(conv, MSG_FLOOR, out=conv)
            fresh = renewed[blo:bhi]
            fresh *= conv  # the renewed rows, before the floor and normalization
            np.maximum(fresh, MSG_FLOOR, out=fresh)
            fresh /= fresh.sum(axis=1, keepdims=True)
        now = direct[c]
        spectra[slots[lo : lo + now]] = renewed[:now]
        spill[spilled : spilled + b - now] = renewed[now:b]
        spill_slots[spilled : spilled + b - now] = slots[lo + now : hi]
        spilled += b - now
    spectra[spill_slots] = spill
    return spectra


def run_point(cfg: DeConfig, rng: np.random.Generator):
    """(decoded, iterations_used, final_entropy) at cfg.gamma0_db."""
    ensemble = de_initial_ensemble(cfg, rng)
    entropy = ensemble_entropy(ensemble, cfg.field)
    if entropy <= cfg.h_stop:
        return True, 0, entropy
    for it in range(1, cfg.max_iterations + 1):
        ensemble = de_iterate(ensemble, cfg, rng)
        entropy = ensemble_entropy(ensemble, cfg.field)
        if entropy <= cfg.h_stop:
            return True, it, entropy
    return False, cfg.max_iterations, entropy


def find_threshold(cfg: DeConfig, seed: int = 0, progress=None) -> DeResult:
    """Descend from gamma0 in step_db decrements until decoding fails.

    The declared threshold is the last SNR whose ensemble entropy fell
    below h_stop within the iteration budget.  Fails loudly if the very
    first point does not decode.  `progress`, when given, is called with
    each point's trajectory row as soon as the point is done.
    """
    trajectory = []
    previous = None
    for point in range(MAX_POINTS):
        gamma = cfg.gamma0_db - point * cfg.step_db
        point_cfg = replace(cfg, gamma0_db=gamma)
        point_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(point,))
        )
        ok, iters, entropy = run_point(point_cfg, point_rng)
        trajectory.append(
            {"gamma_db": gamma, "iterations": iters, "entropy": entropy, "decoded": ok}
        )
        if progress:
            progress(trajectory[-1])
        if ok:
            previous = gamma
            continue
        if previous is None:
            raise ThresholdSearchError(
                f"starting SNR {cfg.gamma0_db} dB does not decode "
                f"(entropy {entropy:.3g} after {iters} iterations); start higher"
            )
        return DeResult(previous, trajectory)
    raise ThresholdSearchError(
        f"no failure within {MAX_POINTS} descent steps; lower gamma0_db "
        "or raise step_db"
    )
