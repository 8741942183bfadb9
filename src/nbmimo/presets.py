"""Bundled experiment presets.

Full-scale presets reproduce the headline experiments; every `ci-small-*`
variant shrinks antennas, frames, and ensembles so the whole pipeline runs
in seconds for smoke testing.  Load with `nbmimo <command> --preset <name>`.
"""

PRESETS: dict[str, str] = {
    # Uncoded detector comparison, 200x200 BPSK, low-SNR sweep.
    "fig2": """
[meta]
command = uncoded
[system]
n_t = 200
n_r = 200
modulation = 2
[detector]
kind = mmse, mf-exact, mf-simplified
[stop]
min_frame_errors = 100
max_frames = 2000
[sweep]
gamma_db = -10, -9, -8, -7, -6, -5, -4, -3, -2
[run]
master_seed = 2201
""",
    # Coded BER, 200x200 BPSK, rate 1/2, 2400-bit frames, MMSE detection.
    "fig4": """
[meta]
command = ber
[system]
n_t = 200
n_r = 200
modulation = 2
[code]
m = 8
n_symbols = 300
d_c = 4
repeat_factor = 1
construction_seed = 101
[detector]
kind = mmse
[decoder]
max_iterations = 200
[stop]
min_frame_errors = 100
max_frames = 60000
[sweep]
gamma_db = -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0
[run]
master_seed = 2401
""",
    # Coded BER, 600x600 BPSK, rate 1/3, MMSE detection.
    "fig5": """
[meta]
command = ber
[system]
n_t = 600
n_r = 600
modulation = 2
[code]
m = 8
n_symbols = 300
d_c = 3
repeat_factor = 1
construction_seed = 102
[detector]
kind = mmse
[decoder]
max_iterations = 200
[stop]
min_frame_errors = 100
max_frames = 60000
[sweep]
gamma_db = -4.0, -3.5, -3.0, -2.5, -2.0
[run]
master_seed = 2501
""",
    # Coded BER, 600x600 16-QAM, rate 1/3, MMSE detection.
    "fig6qam": """
[meta]
command = ber
[system]
n_t = 600
n_r = 600
modulation = 16
[code]
m = 8
n_symbols = 300
d_c = 3
repeat_factor = 1
construction_seed = 103
[detector]
kind = mmse
[decoder]
max_iterations = 200
[stop]
min_frame_errors = 100
max_frames = 60000
[sweep]
gamma_db = 8.0, 9.0, 10.0, 11.0, 12.0
[run]
master_seed = 2601
""",
    # Gaussianity of the exact-MF interference-plus-noise term at -2 dB.
    "fig8": """
[meta]
command = ksdelta
[system]
n_t = 200
n_r = 200
modulation = 2
[sweep]
gamma_db = -2.0
[ksdelta]
samples = 100000
significance = 0.001
[run]
master_seed = 2801
""",
    # Decoding thresholds, 200x200 BPSK, simplified MF, rates 1/3 .. 1/12.
    "fig9": """
[meta]
command = threshold
[system]
n_t = 200
n_r = 200
modulation = 2
[code]
m = 8
n_symbols = 300
d_c = 3
[detector]
kind = mf-simplified
[de]
ensemble_size = 100000
max_iterations = 2000
step_db = 0.05
h_stop = 1e-6
repeat_factors = 1, 2, 3, 4
gamma0_db = -2.5, -6.0, -8.0, -9.3
[run]
master_seed = 2901
""",
    # Detection flop counts versus number of receive antennas, BPSK.
    "fig11": """
[meta]
command = flops
[system]
modulation = 2
[flops]
n_r = 10, 20, 50, 100, 200, 400, 600, 800, 1000
""",
    # Sensitivity to channel estimation error, 200x200 BPSK, rate 1/3.
    "fig12": """
[meta]
command = ber
[system]
n_t = 200
n_r = 200
modulation = 2
[code]
m = 8
n_symbols = 300
d_c = 3
repeat_factor = 1
construction_seed = 105
[detector]
kind = mmse, mf-simplified
[channel]
est_error_var = 0.0, 0.1, 0.2
[decoder]
max_iterations = 200
[stop]
min_frame_errors = 100
max_frames = 60000
[sweep]
gamma_db = -4.0, -3.5, -3.0, -2.5, -2.0, -1.5
[run]
master_seed = 3201
""",
    # Ergodic capacity under exponential spatial correlation, 600x600.
    "fig13": """
[meta]
command = capacity
[system]
n_t = 600
n_r = 600
[capacity]
trials = 1000
rho = 0.0, 0.3, 0.4, 0.5
[sweep]
gamma_db = -15, -13, -11, -9, -7, -5, -3, -1
[run]
master_seed = 3301
""",
    # Correlated coded run, 600x600 BPSK, rate 1/9, simplified MF.
    "fig15": """
[meta]
command = ber
[system]
n_t = 600
n_r = 600
modulation = 2
[code]
m = 8
n_symbols = 300
d_c = 3
repeat_factor = 3
construction_seed = 106
[detector]
kind = mf-simplified
[channel]
rho_t = 0.3
rho_r = 0.3
[decoder]
max_iterations = 200
[stop]
min_frame_errors = 100
max_frames = 60000
[sweep]
gamma_db = -10.0, -9.5, -9.0, -8.5, -8.0
[run]
master_seed = 3501
""",
}

_CI_SMALL = {
    "ci-small-uncoded": """
[meta]
command = uncoded
[system]
n_t = 16
n_r = 16
modulation = 2
[detector]
kind = mmse, mf-simplified
[stop]
min_frame_errors = 20
max_frames = 200
[sweep]
gamma_db = -6, -2
[run]
master_seed = 11
""",
    "ci-small-ber": """
[meta]
command = ber
[system]
n_t = 16
n_r = 16
modulation = 2
[code]
m = 8
n_symbols = 48
d_c = 3
repeat_factor = 1
construction_seed = 11
[detector]
kind = mmse
[decoder]
max_iterations = 50
[stop]
min_frame_errors = 10
max_frames = 60
[sweep]
gamma_db = 6.0
[run]
master_seed = 12
""",
    # Correlated full-H MMSE, the simplified-MF sampler with correlation
    # and estimation error, and the repetition fold.
    "ci-small-correlated": """
[meta]
command = ber
[system]
n_t = 16
n_r = 16
modulation = 2
[code]
m = 8
n_symbols = 48
d_c = 3
repeat_factor = 3
construction_seed = 11
[detector]
kind = mmse, mf-simplified
[channel]
rho_t = 0.3
rho_r = 0.3
est_error_var = 0.0, 0.1
[decoder]
max_iterations = 50
[stop]
min_frame_errors = 5
max_frames = 6
[sweep]
gamma_db = -8.5
[run]
master_seed = 16
""",
    # 16-QAM mapping and priors (p = 4), coded MMSE and exact MF.
    "ci-small-qam": """
[meta]
command = ber
[system]
n_t = 16
n_r = 16
modulation = 16
[code]
m = 8
n_symbols = 48
d_c = 3
repeat_factor = 1
construction_seed = 11
[detector]
kind = mmse, mf-exact
[decoder]
max_iterations = 50
[stop]
min_frame_errors = 5
max_frames = 20
[sweep]
gamma_db = 8.0
[run]
master_seed = 17
""",
    "ci-small-capacity": """
[meta]
command = capacity
[system]
n_t = 32
n_r = 32
[capacity]
trials = 200
rho = 0.0, 0.5
[sweep]
gamma_db = -11, -5
[run]
master_seed = 13
""",
    "ci-small-threshold": """
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
max_iterations = 300
step_db = 0.25
h_stop = 1e-6
repeat_factors = 1
gamma0_db = 4.0
[run]
master_seed = 14
""",
    "ci-small-flops": """
[meta]
command = flops
[system]
modulation = 2
[flops]
n_r = 1, 8, 200
""",
    "ci-small-ksdelta": """
[meta]
command = ksdelta
[system]
n_t = 32
n_r = 32
modulation = 2
[sweep]
gamma_db = -2.0
[ksdelta]
samples = 2000
significance = 0.001
[run]
master_seed = 15
""",
}

PRESETS.update(_CI_SMALL)


def preset_text(name: str) -> str:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; available: {known}") from None
