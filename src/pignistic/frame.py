"""Frames of discernment, focal sets, and validated mass functions.

A frame is an ordered collection of mutually exclusive singleton hypothesis
labels. Subsets of the frame are encoded as bitmasks over the label
positions, so subset, superset, and intersection tests are single word
operations. Frames are capped at 64 labels for that reason.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

__all__ = [
    "FocalSet",
    "Frame",
    "MassFunction",
    "SingletonVector",
    "make_frame",
    "make_mass_function",
]

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    ValidationError,
)

MAX_FRAME_SIZE = 64

#: Masses must sum to 1 within this tolerance; inputs outside it are
#: rejected rather than renormalized.
MASS_SUM_TOLERANCE = 1e-9


def _is_real(x) -> bool:
    """A real number but not a bool; floats skip the slow abstract ``numbers.Real`` check."""
    return type(x) is float or isinstance(x, (int, numbers.Real)) and not isinstance(x, bool)


#: Never taken as a collection: each iterates as its characters, byte values or keys.
_NOT_COLLECTIONS = (str, bytes, bytearray, memoryview, dict)


def _shown(given) -> str:
    """``repr(given)``, but a memoryview by its bytes: its own repr holds its address."""
    try:
        return repr(given.tobytes() if isinstance(given, memoryview) else given)
    except ValueError:  # a released memoryview has no bytes
        return repr(given)


def _not_labels(given) -> ValidationError:
    """The error for one of ``_NOT_COLLECTIONS`` given as labels."""
    kind = "mapping" if isinstance(given, dict) else "string" if isinstance(given, str) else "bytes"
    return ValidationError(f"expected a collection of labels, not the {kind} {_shown(given)}")


@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment."""

    labels: tuple[str, ...]
    _bits: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, labels: Iterable[str]):
        if isinstance(labels, dict):  # a bare string still iterates as its characters
            raise _not_labels(labels)
        try:
            labels = tuple(labels)
        except TypeError:
            raise ValidationError(f"expected a collection of labels, got {labels!r}") from None
        if not labels:
            raise EmptyFrameError("a frame needs at least one label")
        bits: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str) or not label:
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
        try:
            return self._bits[label].bit_length() - 1
        except TypeError:  # named as given, not as the collection (label,)
            raise ValidationError(f"expected a label, got {label!r}") from None
        except KeyError:
            return self._mask((label,))  # raises UnknownLabelError

    def _mask(self, members: Iterable[str]) -> int:
        """Bitmask of ``members``, an iterable of hashable labels but not a string, bytes, a
        buffer or a dict; a label listed twice counts once."""
        if isinstance(members, _NOT_COLLECTIONS):
            raise _not_labels(members)
        bit_of, b = self._bits, 0
        try:
            for label in members:
                b |= bit_of[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} not in frame {self.labels}") from None
        except TypeError:  # not iterable, or a label that cannot be hashed
            raise ValidationError(f"expected a collection of labels, got {members!r}") from None
        return b

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
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise ValidationError(f"bits must be an int, got {type(self.bits).__name__}")
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
    """One non-negative value per singleton of a frame, in frame order, with a finite sum.

    Holds singleton Belief or Plausibility tabulations: ``values`` as a read-only
    float64 array, ``_tuple`` as Python floats and ``total`` as their ``math.fsum``.
    """

    frame: Frame
    values: np.ndarray = field(compare=False)
    _tuple: tuple[float, ...] = field(init=False, repr=False, hash=False)
    total: float = field(init=False, repr=False, compare=False)
    _noun = "values"  # what the error messages call the values

    def __init__(self, frame: Frame, values: Sequence[float] | np.ndarray):
        try:
            # numpy turns "1", b"1", True and a buffer's bytes into floats; float64 is numbers only
            floats = type(values) is np.ndarray and values.dtype == float
            if isinstance(values, _NOT_COLLECTIONS) or not (floats or all(map(_is_real, values))):
                raise TypeError
            arr = np.array(values, dtype=float)  # a copy: the caller's array stays theirs
        except (OverflowError, TypeError, ValueError):  # a non-number, or an int too large
            raise ValidationError(f"{self._noun} must be finite non-negative numbers") from None
        self._keep(frame, arr)

    @classmethod
    def _owned(cls, frame: Frame, arr: np.ndarray):
        """Adopt ``arr``, a transform's fresh float64 array: the public
        constructor's checks without its type check and its copy."""
        vector = cls.__new__(cls)
        vector._keep(frame, arr)
        return vector

    def _keep(self, frame: Frame, arr: np.ndarray) -> None:
        """Check the float64 ``arr`` and the exact sum of its floats; freeze and keep all three."""
        if arr.shape != (frame.size,):
            raise ValidationError(f"expected {frame.size} {self._noun}, got shape {arr.shape}")
        floats = tuple(arr.tolist())
        try:  # min first, as fsum raises ValueError on inf + -inf; it carries NaN and +inf through
            total = math.fsum(floats) if 0.0 <= min(floats) else math.nan
        except OverflowError:  # finite values whose sum is not
            raise ValidationError(f"{self._noun} must have a finite sum") from None
        if not total < math.inf:
            raise ValidationError(f"{self._noun} must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_tuple", floats)
        object.__setattr__(self, "total", total)

    def __getitem__(self, label: str) -> float:
        return self._tuple[self.frame.index(label)]

    def sum_over(self, subset: FocalSet) -> float:
        """Sum of the values over the singletons of ``subset``, rounded once (``math.fsum``)."""
        _check_same_frame(self.frame, subset.frame)
        return math.fsum(v for i, v in enumerate(self._tuple) if subset.bits >> i & 1)


class MassFunction:
    """A validated basic belief assignment over a frame.

    Masses sit on nonempty subsets only (closed world), each in [0, 1], and
    sum to one within ``MASS_SUM_TOLERANCE``; nothing is renormalized, and
    zero masses are dropped. Both constructors walk the pairs once and raise
    for the first bad pair in input order, NaN and infinities included (its
    focal set is checked before its mass), then for the sum. ``io`` puts a
    document's malformed records, unknown labels and empty sets ahead of that.

    The focal sets with positive mass are kept once, in insertion order, as
    two aligned read-only arrays, the walk's only state: ``bits`` (uint64
    bitmasks) and ``masses``. The other tables are read off the k x n
    ``incidence`` matrix F: ``cardinality`` (its row sums), ``compound_masses``
    (the masses where the cardinality exceeds 1, else 0), singleton Bel
    ``(masses - compound_masses) @ F`` (exact under any BLAS kernel: one
    nonzero term per label), Pl ``masses @ F`` and the ``fsum`` of each. All
    are read-only, so the object is immutable and safe to share between
    threads. The singleton accessors wrap a copy of an array in a new
    ``SingletonVector`` per call. The first product casts ``incidence`` to
    floats again and keeps that copy (8 bytes a cell); two threads may both
    cast, but each stores an equal read-only array.
    """

    def __init__(self, frame: Frame, assignments: Mapping[FocalSet, float]):
        def mask(subset: FocalSet) -> int:
            if not isinstance(subset, FocalSet):
                raise ValidationError(f"expected a FocalSet key, got {type(subset).__name__}")
            _check_same_frame(frame, subset.frame)
            return subset.bits
        if not isinstance(assignments, Mapping):
            raise ValidationError(f"expected a mapping, got {assignments!r}")
        self._store(frame, assignments.items(), mask)

    @classmethod
    def from_labels(
        cls,
        frame: Frame,
        assignments: Iterable[tuple[Iterable[str], float]],
    ) -> MassFunction:
        """Build from (subset labels, mass) pairs; unlisted subsets get mass 0."""
        m = cls.__new__(cls)
        m._store(frame, assignments, frame._mask)
        return m

    def _store(self, frame: Frame, assignments: Iterable, mask: Callable[..., int]) -> None:
        """Walk the pairs once, masking and checking each in full, then build every table."""
        try:
            pairs = iter(assignments)
        except TypeError:
            raise ValidationError(f"expected (labels, mass) pairs, got {assignments!r}") from None
        seen, kept, values = set(), [], []
        for pair in pairs:
            try:
                members, mass = pair
            except (TypeError, ValueError):
                raise ValidationError(f"expected a (labels, mass) pair, got {pair!r}") from None
            b = mask(members)
            if not b:
                raise EmptySetMassError("the empty set is not a valid focal set")
            if b in seen:
                raise DuplicateFocalSetError(
                    f"focal set {FocalSet(frame, b).labels} assigned more than once"
                )
            seen.add(b)
            if not (_is_real(mass) and 0.0 <= mass <= 1.0):  # NaN fails this as well
                raise MassOutOfRangeError(
                    f"mass {mass!r} on {FocalSet(frame, b).labels} is not a number in [0, 1]"
                )
            if mass > 0.0:
                kept.append(b)
                values.append(float(mass))
        total = math.fsum(values)
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise MassSumMismatchError(
                f"masses sum to {total!r}, off by {total - 1.0:+.3g}"
            )
        self.frame = frame
        # little-endian whatever the host, so the byte view below lists bit 0 first
        self.bits = _read_only(np.array(kept, dtype="<u8"))
        self.masses = masses = _read_only(np.array(values))
        octets = self.bits.view(np.uint8).reshape(-1, 8)
        rows = np.unpackbits(octets, axis=1, count=frame.size, bitorder="little")
        #: k x n boolean matrix: row r marks the members of focal set r.
        self.incidence = _read_only(rows.view(bool))
        self._float_incidence = None  # see _floats
        F = rows.astype(float)  # construction's own float copy
        self.cardinality = _read_only(F.sum(1))
        self.compound_masses = _read_only(masses * (self.cardinality > 1.0))
        self._bel = _read_only((masses - self.compound_masses) @ F)
        self._pl = _read_only(masses @ F)
        self._sum_bel, self._sum_pl = math.fsum(self._bel.tolist()), math.fsum(self._pl.tolist())

    def _floats(self) -> np.ndarray:
        """``incidence`` as read-only floats, cast on the first call and kept."""
        M = self._float_incidence
        if M is None:
            M = self._float_incidence = _read_only(self.incidence.astype(float))
        return M

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
        return SingletonVector(self.frame, self._bel)

    singleton_masses = singleton_beliefs

    def singleton_plausibilities(self) -> SingletonVector:
        """Pl({x}) = sum of the masses of the focal sets containing x."""
        return SingletonVector(self.frame, self._pl)

    def sum_bel(self) -> float:
        """Sum of singleton Beliefs; at most 1, with equality iff Bayesian."""
        return self._sum_bel

    def sum_pl(self) -> float:
        """Sum of singleton Plausibilities; at least 1, with equality iff Bayesian."""
        return self._sum_pl

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(FocalSet(self.frame, bits).labels)}}}: {mass:g}"
            for bits, mass in sorted(zip(self.bits.tolist(), self.masses.tolist()))
        )
        return f"MassFunction({parts})"


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


make_frame = Frame
make_mass_function = MassFunction.from_labels
