import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from nbmimo import heap

GLIBC = hasattr(os, "confstr") and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith(
    "glibc"
)

# Frees an 8 MB array, then counts the page faults of allocating and
# filling another one of the same size.
REUSE_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    import nbmimo

    a = np.ones(1 << 20)
    del a
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(1 << 20)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


def faults_on_reuse(env_extra=None) -> int:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in heap._ENV_SETTINGS and k != "GLIBC_TUNABLES"
    }
    src = str(Path(heap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    out = subprocess.run(
        [sys.executable, "-c", REUSE_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(not GLIBC, reason="malloc thresholds are a glibc setting")
class TestPinnedThresholds:
    # Fresh memory faults at least once per page, and 8 MB spans at least
    # 4 pages even when the kernel maps it in 2 MB huge pages.
    FRESH_FAULTS = 4

    def test_freed_array_is_reused_without_page_faults(self):
        assert faults_on_reuse() < self.FRESH_FAULTS

    def test_freed_array_faults_again_when_environment_trims(self):
        # An explicit setting wins: with no trim threshold the heap gives
        # the array back to the system and the next one faults it in anew.
        assert faults_on_reuse({"MALLOC_TRIM_THRESHOLD_": "0"}) >= self.FRESH_FAULTS

    def test_returns_true_when_set(self, monkeypatch):
        for name in heap._ENV_SETTINGS + ("GLIBC_TUNABLES",):
            monkeypatch.delenv(name, raising=False)
        assert heap.pin_malloc_thresholds() is True


class TestLeftAlone:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("MALLOC_MMAP_THRESHOLD_", "131072"),
            ("MALLOC_TRIM_THRESHOLD_", "0"),
            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0"),
        ],
    )
    def test_environment_setting_wins(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert heap.pin_malloc_thresholds() is False

    def test_not_glibc(self, monkeypatch):
        for name in heap._ENV_SETTINGS + ("GLIBC_TUNABLES",):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(heap.os, "confstr", lambda name: None)
        assert heap.pin_malloc_thresholds() is False
