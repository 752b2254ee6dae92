"""Finite ground sets {0..n-1} and subsets coded as bit masks.

All set algebra in the library happens on plain integer masks; SubsetCode
is the typed wrapper used at API boundaries (CLI parsing, reports).
Enumeration order is always ascending numeric mask order, and every
"least witness" guarantee downstream refers to that order applied
componentwise to tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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

    def code(self, mask: int) -> "SubsetCode":
        return SubsetCode(mask, self)

    def subset(self, elems: Iterable[int] = ()) -> "SubsetCode":
        return SubsetCode(mask_of(elems, self.size), self)

    def parse(self, text: str) -> "SubsetCode":
        return SubsetCode(parse_mask(text, self.size), self)


@dataclass(frozen=True)
class SubsetCode:
    """A subset of a ground set, coded as a bit mask."""

    bits: int
    ground: GroundSet

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.ground.full_mask:
            raise ValueError(f"mask {self.bits:#x} out of range for {self.ground}")

    def _check(self, other: "SubsetCode") -> None:
        if other.ground != self.ground:
            raise ValueError("subset codes from different ground sets")

    def __or__(self, other: "SubsetCode") -> "SubsetCode":
        self._check(other)
        return SubsetCode(self.bits | other.bits, self.ground)

    def __and__(self, other: "SubsetCode") -> "SubsetCode":
        self._check(other)
        return SubsetCode(self.bits & other.bits, self.ground)

    def __sub__(self, other: "SubsetCode") -> "SubsetCode":
        self._check(other)
        return SubsetCode(self.bits & ~other.bits, self.ground)

    def complement(self) -> "SubsetCode":
        return SubsetCode(self.ground.full_mask & ~self.bits, self.ground)

    def __le__(self, other: "SubsetCode") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __contains__(self, element: int) -> bool:
        return bool(self.bits >> element & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> list[int]:
        return elements_of(self.bits)

    def __str__(self) -> str:
        return format_mask(self.bits)


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


def enumerate_subsets(ground: GroundSet) -> Iterator[SubsetCode]:
    """Yield all 2^size subsets exactly once, ascending by mask."""
    for mask in ground.masks():
        yield SubsetCode(mask, ground)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, in descending order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
