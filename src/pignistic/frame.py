"""Frames of discernment, focal sets, and validated mass functions.

A frame is an ordered collection of mutually exclusive singleton hypothesis
labels. Subsets of the frame are encoded as bitmasks over the label
positions, so subset, superset, and intersection tests are single word
operations. Frames are capped at 64 labels for that reason.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateFocalSetError,
    DuplicateLabelError,
    EmptyFrameError,
    EmptySetMassError,
    FrameMismatchError,
    FrameTooLargeError,
    MassOutOfRangeError,
    MassSumMismatchError,
    UnknownLabelError,
)

MAX_FRAME_SIZE = 64

#: Masses must sum to 1 within this tolerance; inputs outside it are
#: rejected rather than renormalized.
MASS_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment."""

    labels: tuple[str, ...]
    _bits: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise EmptyFrameError("a frame needs at least one label")
        bits: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not label:
                raise EmptyFrameError("frame labels must be non-empty strings")
            if label in bits:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            bits[label] = 1 << i
        if len(labels) > MAX_FRAME_SIZE:
            raise FrameTooLargeError(
                f"frame has {len(labels)} labels; at most {MAX_FRAME_SIZE} supported"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_bits", bits)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._mask((label,)).bit_length() - 1

    def _mask(self, members: Iterable[str]) -> int:
        """Bitmask of ``members``; a label listed twice counts once."""
        try:
            return reduce(or_, map(self._bits.__getitem__, members), 0)
        except KeyError as exc:
            raise UnknownLabelError(
                f"label {exc.args[0]!r} not in frame {self.labels}"
            ) from None

    def subset(self, members: Iterable[str]) -> FocalSet:
        """Build a focal set from labels of this frame."""
        return FocalSet(self, self._mask(members))

    def singleton(self, label: str) -> FocalSet:
        return FocalSet(self, 1 << self.index(label))

    @property
    def full_set(self) -> FocalSet:
        """The focal set containing every label (Omega)."""
        return FocalSet(self, (1 << self.size) - 1)


@dataclass(frozen=True)
class FocalSet:
    """A nonempty subset of a frame, stored as a bitmask over label positions."""

    frame: Frame
    bits: int

    def __post_init__(self):
        if self.bits == 0:
            raise EmptySetMassError("the empty set is not a valid focal set")
        if self.bits >> self.frame.size:
            raise UnknownLabelError("bitmask references positions outside the frame")

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for i, label in enumerate(self.frame.labels) if self.bits >> i & 1
        )

    def __contains__(self, label: str) -> bool:
        return self.bits >> self.frame.index(label) & 1 == 1

    def issubset(self, other: FocalSet) -> bool:
        _check_same_frame(self.frame, other.frame)
        return self.bits & ~other.bits == 0

    def intersects(self, other: FocalSet) -> bool:
        _check_same_frame(self.frame, other.frame)
        return self.bits & other.bits != 0


def _check_same_frame(a: Frame, b: Frame) -> None:
    if a is not b and a != b:
        raise FrameMismatchError(f"frames differ: {a.labels} vs {b.labels}")


@dataclass(frozen=True)
class SingletonVector:
    """One non-negative value per singleton of a frame, in frame order.

    Holds singleton Belief or Plausibility tabulations.
    """

    frame: Frame
    values: np.ndarray = field(compare=False)

    def __init__(self, frame: Frame, values: Sequence[float] | np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (frame.size,):
            raise ValueError(
                f"expected {frame.size} values, got shape {arr.shape}"
            )
        if not (arr >= 0.0).all():
            raise ValueError("singleton values must be non-negative numbers")
        arr.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, label: str) -> float:
        return float(self.values[self.frame.index(label)])

    def sum_over(self, subset: FocalSet) -> float:
        """Sum of the values over the singletons of ``subset``."""
        _check_same_frame(self.frame, subset.frame)
        return float(sum(v for i, v in enumerate(self.values) if subset.bits >> i & 1))

    @property
    def total(self) -> float:
        return float(self.values.sum())


class MassFunction:
    """A validated basic belief assignment over a frame.

    Masses are attached to nonempty subsets only (closed world), each lies
    in [0, 1], and they sum to one within ``MASS_SUM_TOLERANCE``. Inputs
    violating any of this, NaN and infinities included, are rejected;
    nothing is silently renormalized. Zero-mass entries are accepted and
    dropped.

    The focal sets with positive mass are kept once, in insertion order, as
    two aligned read-only arrays: ``bits`` (uint64 bitmasks) and ``masses``.
    The k x n ``incidence`` matrix and the singleton Belief and
    Plausibility vectors are built on first use and kept, so the object
    stays immutable and safe to share between threads.
    """

    def __init__(self, frame: Frame, assignments: Mapping[FocalSet, float]):
        for subset in assignments:
            _check_same_frame(frame, subset.frame)
        self._store(frame, [s.bits for s in assignments], list(assignments.values()))

    @classmethod
    def from_labels(
        cls,
        frame: Frame,
        assignments: Iterable[tuple[Iterable[str], float]],
    ) -> MassFunction:
        """Build from (subset labels, mass) pairs; unlisted subsets get mass 0."""
        bits, masses = [], []
        for members, mass in assignments:
            bits.append(frame._mask(members))
            masses.append(mass)
        m = cls.__new__(cls)
        m._store(frame, bits, masses)
        return m

    def _store(self, frame: Frame, bits: list[int], masses: list[float]) -> None:
        if 0 in bits:
            raise EmptySetMassError("the empty set is not a valid focal set")
        values = np.array(masses, dtype=float)
        # written so that NaN fails the test as well
        outside = ~((values >= 0.0) & (values <= 1.0))
        if outside.any():
            i = int(outside.argmax())
            raise MassOutOfRangeError(
                f"mass {masses[i]} on {FocalSet(frame, bits[i]).labels} is outside [0, 1]"
            )
        if len(set(bits)) != len(bits):
            twice = next(b for i, b in enumerate(bits) if b in bits[:i])
            raise DuplicateFocalSetError(
                f"focal set {FocalSet(frame, twice).labels} assigned more than once"
            )
        total = math.fsum(values.tolist())
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise MassSumMismatchError(
                f"masses sum to {total!r}, off by {total - 1.0:+.3g}"
            )
        positive = values > 0.0
        self.frame = frame
        self.bits = _read_only(np.array(bits, dtype=np.uint64)[positive])
        self.masses = _read_only(values[positive])

    @cached_property
    def incidence(self) -> np.ndarray:
        """k x n boolean matrix: row r marks the members of focal set r."""
        octets = self.bits.astype("<u8").view(np.uint8).reshape(-1, 8)
        rows = np.unpackbits(octets, axis=1, count=self.frame.size, bitorder="little")
        return _read_only(rows.view(bool))

    @cached_property
    def cardinality(self) -> np.ndarray:
        """Number of members of each focal set, as floats."""
        return _read_only(self.incidence.sum(axis=1, dtype=float))

    @cached_property
    def _singletons(self) -> SingletonVector:
        single = self.cardinality == 1.0
        return SingletonVector(self.frame, self.masses[single] @ self.incidence[single])

    @cached_property
    def _plausibilities(self) -> SingletonVector:
        return SingletonVector(self.frame, self.masses @ self.incidence)

    def focal_sets(self) -> Iterator[tuple[FocalSet, float]]:
        """Focal sets with strictly positive mass, with their masses."""
        for bits, mass in zip(self.bits.tolist(), self.masses.tolist()):
            yield FocalSet(self.frame, bits), mass

    def __len__(self) -> int:
        return len(self.masses)

    def mass(self, subset: FocalSet) -> float:
        _check_same_frame(self.frame, subset.frame)
        hit = self.masses[self.bits == np.uint64(subset.bits)]
        return float(hit[0]) if hit.size else 0.0

    def belief(self, subset: FocalSet) -> float:
        """Total mass on focal sets contained in ``subset``."""
        _check_same_frame(self.frame, subset.frame)
        inside = (self.bits & ~np.uint64(subset.bits)) == 0
        return math.fsum(self.masses[inside].tolist())

    def plausibility(self, subset: FocalSet) -> float:
        """Total mass on focal sets intersecting ``subset``."""
        _check_same_frame(self.frame, subset.frame)
        meets = (self.bits & np.uint64(subset.bits)) != 0
        return math.fsum(self.masses[meets].tolist())

    def singleton_beliefs(self) -> SingletonVector:
        """Bel({x}) is the mass of {x} itself: the singleton masses."""
        return self._singletons

    singleton_masses = singleton_beliefs

    def singleton_plausibilities(self) -> SingletonVector:
        """Pl({x}) = sum of the masses of the focal sets containing x."""
        return self._plausibilities

    def sum_bel(self) -> float:
        """Sum of singleton Beliefs; at most 1, with equality iff Bayesian."""
        return self.singleton_beliefs().total

    def sum_pl(self) -> float:
        """Sum of singleton Plausibilities; at least 1, with equality iff Bayesian."""
        return self.singleton_plausibilities().total

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(FocalSet(self.frame, bits).labels)}}}: {mass:g}"
            for bits, mass in sorted(zip(self.bits.tolist(), self.masses.tolist()))
        )
        return f"MassFunction({parts})"


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def make_frame(labels: Iterable[str]) -> Frame:
    return Frame(labels)


def make_mass_function(
    frame: Frame, assignments: Iterable[tuple[Iterable[str], float]]
) -> MassFunction:
    return MassFunction.from_labels(frame, assignments)
