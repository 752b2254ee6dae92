"""Finite ground sets {0..n-1} and subsets coded as bit masks.

A subset is a plain `int` everywhere in the library: bit i is set when
element i belongs to it.  Text forms such as {0,2,5} exist only at the
edges (CLI arguments, instance files, reports).  Enumeration order is
always ascending numeric mask order, and every "least witness"
guarantee downstream refers to that order applied componentwise to
tuples.  The scans of closure tables and dimension laws, and the EX and
AREF axiom scans, build a boolean violation array whose indices follow
that order and take their witness from `first_true`.  The other axiom
scans pack the violation array into bits and read the least witness
from the packed words (`axioms._least_members`, `_least_right` and
`_least_left`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

MAX_GROUND_SIZE = 16


@dataclass(frozen=True)
class GroundSet:
    """The finite universe {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if not 0 <= self.size <= MAX_GROUND_SIZE:
            raise ValueError(
                f"ground size must be in 0..{MAX_GROUND_SIZE}, got {self.size}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def subset_count(self) -> int:
        return 1 << self.size

    def masks(self) -> range:
        """All subset masks in ascending numeric order."""
        return range(1 << self.size)


def mask_of(elems: Iterable[int], size: int) -> int:
    mask = 0
    for e in elems:
        if not 0 <= e < size:
            raise ValueError(f"element {e} outside ground set of size {size}")
        mask |= 1 << e
    return mask


def elements_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def format_mask(mask: int) -> str:
    """Render a mask as {0,2,5}; the empty set is {}."""
    return "{%s}" % ",".join(str(e) for e in elements_of(mask))


def format_witness(masks: Iterable[int]) -> str:
    """Render a witness tuple as its masks joined by ';', e.g. {0};{};{1}."""
    return ";".join(format_mask(m) for m in masks)


def parse_mask(text: str, size: int) -> int:
    """Parse {0,2,5} (or bare 0,2,5); inverse of format_mask."""
    body = text.strip()
    if body.startswith("{"):
        if not body.endswith("}"):
            raise ValueError(f"malformed subset literal: {text!r}")
        body = body[1:-1]
    body = body.strip()
    if not body:
        return 0
    try:
        elems = [int(p) for p in body.split(",")]
    except ValueError:
        raise ValueError(f"malformed subset literal: {text!r}") from None
    return mask_of(elems, size)


def first_true(violations: np.ndarray) -> Optional[tuple[int, ...]]:
    """The index of the first true cell in row-major order, or None."""
    if not violations.any():
        return None
    flat = int(np.argmax(violations))
    return tuple(int(v) for v in np.unravel_index(flat, violations.shape))
