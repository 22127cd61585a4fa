"""Bitmasks of index sets, the indexing of the exterior algebra on dlog
generators.

A wedge monomial is a subset of generator indices stored as an int bitmask,
and the same masks encode every vertex and row subset of the package:
``bits`` lists a mask's members in increasing order and ``mask_of`` builds
the mask of an iterable of indices.
"""

from __future__ import annotations


def bits(mask: int) -> list[int]:
    """The members of a mask in increasing order; a negative mask, which has
    no finite list of members, is refused with ValueError."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    """The bitmask with exactly the given indices set."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask
