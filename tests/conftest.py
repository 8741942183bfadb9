"""Suite-wide plumbing: BLAS threads, slow-test gating and the acceptance scoreboard."""

import os

# One BLAS thread unless the caller chose otherwise.  The suite runs many
# small per-use products, which multithreaded BLAS slows down, badly so on
# a loaded machine.  Set before any test module imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

_acceptance_results = {}


def pytest_collection_modifyitems(config, items):
    # Long-running reproductions only run when asked for explicitly.
    if config.getoption("-m"):
        return
    if os.environ.get("NBMIMO_RUN_SLOW"):
        return
    skip = pytest.mark.skip(
        reason="long-running reproduction; enable with -m slow or NBMIMO_RUN_SLOW=1"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results[name] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome, duration = _acceptance_results[name]
        mark = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{mark:8s} {duration:8.2f}s  {name}")
