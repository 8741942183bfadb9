"""Non-binary LDPC coded large-scale MIMO link-level simulator."""

from nbmimo.galois import FieldTable, build_field
from nbmimo.heap import pin_malloc_thresholds

pin_malloc_thresholds()

__all__ = ["FieldTable", "build_field"]
__version__ = "0.1.0"
