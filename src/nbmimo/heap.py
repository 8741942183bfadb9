"""Fixed glibc malloc thresholds for a simulation process.

glibc serves a request above its mmap threshold with a fresh mapping, and
hands the free top of its heap back to the system once that passes the
trim threshold.  By default both thresholds move: freeing a mapped block
raises the mmap threshold to the block's size and the trim threshold to
twice that.  So whether a frame's MB-sized numpy arrays are reused from
the heap or page-faulted in anew depends on the largest array some earlier
code happened to free.  The 600x600 coded frames of fig5 and fig15, for
one, page-fault about 10 MB each when no larger array was freed before
them, and nothing when one was.

`pin_malloc_thresholds` fixes both thresholds where glibc's own rule
settles at its largest on 64-bit systems (mmap 32 MiB, trim 64 MiB), so
freed arrays below 32 MiB are reused and a frame's cost does not depend on
allocator history.  The package calls it once at import.  It does nothing
outside glibc, and nothing when the environment already sets a malloc
threshold (MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or a
glibc.malloc tunable in GLIBC_TUNABLES), so an explicit setting wins.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_ENV_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; True if both were set."""
    if any(name in os.environ for name in _ENV_SETTINGS):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if not libc.startswith("glibc"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 on error.
    return bool(
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
