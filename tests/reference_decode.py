"""The disjunct decoder as it was before it walked only the label's own
columns, kept as the reference the current decoder is tested against.

build_query_vector visits every column and tests the label's bit there,
and decode_disjunct re-encodes the decoded support against every column
before it checks the weight.  Its errors carry the current decoder's
labels and messages.
"""

from __future__ import annotations

from sparsemobius.core import BitVector, Label, TestMatrix
from sparsemobius.errors import DimensionError, ReconstructionError


def build_query_vector(H: TestMatrix, label: Label) -> BitVector:
    """NOT(union of the columns the label records a 0 at), one column at a time."""
    if label.n != H.b:
        raise DimensionError(f"label length {label.n} != column count {H.b}")
    union = 0
    for t, col in enumerate(H.columns):
        if not (label.mask >> t) & 1:
            union |= col.mask
    return BitVector(H.n, ((1 << H.n) - 1) ^ union)


def syndrome(H: TestMatrix, k: BitVector) -> Label:
    """Bit t is set exactly when column t intersects k."""
    mask = 0
    for t, col in enumerate(H.columns):
        if col.mask & k.mask:
            mask |= 1 << t
    return BitVector(H.b, mask)


def decode_disjunct(H: TestMatrix, label: Label, d: int) -> BitVector:
    """Cover-decode the label, re-encode the support, then check its weight."""
    support = build_query_vector(H, label)
    if syndrome(H, support) != label:
        raise ReconstructionError(
            f"decoded support is inconsistent with syndrome {label.to01()!r}", label=label
        )
    if support.weight() > d:
        raise ReconstructionError(
            f"degree overflow at bucket {label.to01()!r}: "
            f"outcomes imply more than d={d} defectives",
            label=label,
        )
    return support
