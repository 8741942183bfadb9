"""Process set-up shared by the benchmark and its set-up probe.

Import this before numpy: it pins every BLAS library of this process (and
of the processes it starts) to one thread through the environment, and puts
the checkout's own `src/` first on the import path.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


class MissingProgram(RuntimeError):
    """The checkout holds no nbmimo sources to benchmark."""


def import_nbmimo():
    """Import nbmimo from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "nbmimo" / "__init__.py").is_file():
        raise MissingProgram(f"no nbmimo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nbmimo

    if SRC not in Path(nbmimo.__file__).resolve().parents:
        raise MissingProgram(f"nbmimo was imported from {nbmimo.__file__}, not {SRC}")
    return nbmimo
