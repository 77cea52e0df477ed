import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pignistic import (
    DuplicateFocalSetError,
    DuplicateLabelError,
    EmptyFrameError,
    EmptySetMassError,
    FocalSet,
    Frame,
    FrameMismatchError,
    FrameTooLargeError,
    MassFunction,
    MassOutOfRangeError,
    MassSumMismatchError,
    ProbabilityDistribution,
    SingletonVector,
    ThresholdSet,
    TransformKind,
    UnknownLabelError,
    ValidationError,
    apply_transform,
    make_frame,
    make_mass_function,
)
from pignistic.frame import _is_real

from .oracles import bel_oracle, pl_oracle, powerset


class TestFrame:
    def test_combat_frame(self):
        frame = make_frame(["F", "N", "U", "H"])
        assert frame.size == 4
        assert frame.labels == ("F", "N", "U", "H")

    def test_minimal_frame(self):
        assert make_frame(["a"]).size == 1

    def test_len_is_the_label_count(self):
        assert len(make_frame(["a"])) == 1
        assert len(make_frame([f"h{i}" for i in range(64)])) == 64

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            make_frame(["a", "a"])

    def test_empty_frame(self):
        with pytest.raises(EmptyFrameError):
            make_frame([])

    def test_empty_label(self):
        with pytest.raises(EmptyFrameError):
            make_frame(["a", ""])

    @pytest.mark.parametrize("labels", [[1, 2], [b"a"], [("a",)]], ids=["int", "bytes", "tuple"])
    def test_non_string_label(self, labels):
        with pytest.raises(EmptyFrameError, match="non-empty strings"):
            make_frame(labels)

    def test_too_large(self):
        make_frame([f"h{i}" for i in range(64)])  # at capacity is fine
        with pytest.raises(FrameTooLargeError):
            make_frame([f"h{i}" for i in range(65)])

    def test_mapping_is_not_a_collection_of_labels(self):
        with pytest.raises(ValidationError) as err:
            Frame({"a": 1, "b": 2})
        assert type(err.value) is ValidationError
        assert str(err.value) == "expected a collection of labels, not the mapping {'a': 1, 'b': 2}"

    @pytest.mark.parametrize("labels", [None, 5], ids=repr)
    def test_labels_that_are_not_a_collection(self, labels):
        with pytest.raises(ValidationError) as err:
            Frame(labels)
        assert type(err.value) is ValidationError
        assert str(err.value) == f"expected a collection of labels, got {labels!r}"


class TestFocalSet:
    def test_subset_and_cardinality(self):
        frame = Frame(["a", "b", "c"])
        s = frame.subset(["a", "c"])
        assert s.cardinality == 2
        assert s.labels == ("a", "c")
        assert "a" in s and "b" not in s

    def test_empty_rejected(self):
        frame = Frame(["a", "b"])
        with pytest.raises(EmptySetMassError):
            frame.subset([])

    def test_unknown_label(self):
        frame = Frame(["a", "b"])
        with pytest.raises(UnknownLabelError):
            frame.subset(["z"])
        with pytest.raises(UnknownLabelError):
            FocalSet(frame, 0b100)

    def test_set_relations(self):
        frame = Frame(["a", "b", "c"])
        ab = frame.subset(["a", "b"])
        bc = frame.subset(["b", "c"])
        assert frame.singleton("a").issubset(ab)
        assert not ab.issubset(bc)
        assert ab.intersects(bc)
        assert not frame.singleton("a").intersects(frame.singleton("c"))

    def test_full_set(self):
        frame = Frame(["a", "b", "c"])
        assert frame.full_set.labels == ("a", "b", "c")

    @pytest.mark.parametrize("bits", [1.5, True, "1", None])
    def test_bits_must_be_an_int(self, bits):
        with pytest.raises(ValidationError, match=f"^bits must be an int, got {type(bits).__name__}$"):
            FocalSet(Frame(["a", "b"]), bits)


class TestMassFunctionValidation:
    def test_combat_bba_valid(self, combat_bba):
        assert len(combat_bba) == 15

    def test_vacuous(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a", "b"], 1.0)])
        assert m.mass(frame.full_set) == 1.0

    def test_sum_mismatch(self):
        frame = Frame(["a", "b"])
        with pytest.raises(MassSumMismatchError):
            make_mass_function(frame, [(["a"], 0.6), (["b"], 0.6)])

    def test_sum_off_by_5e_9_is_refused(self):
        # between the 1e-9 tolerance and 1e-8
        frame = Frame(["a", "b"])
        with pytest.raises(MassSumMismatchError):
            make_mass_function(frame, [(["a"], 0.5), (["b"], 0.5 + 5e-9)])

    def test_mass_out_of_range(self):
        frame = Frame(["a", "b"])
        with pytest.raises(MassOutOfRangeError):
            make_mass_function(frame, [(["a"], 1.5), (["b"], -0.5)])

    def test_duplicate_focal_set(self):
        frame = Frame(["a", "b"])
        with pytest.raises(DuplicateFocalSetError):
            make_mass_function(frame, [(["a"], 0.5), (["a"], 0.5)])

    def test_zero_masses_dropped(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a"], 1.0), (["b"], 0.0)])
        assert len(m) == 1

    def test_within_tolerance_accepted(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a"], 0.5), (["b"], 0.5 + 5e-10)])
        assert len(m) == 2

    def test_frame_mismatch(self):
        m = make_mass_function(Frame(["a", "b"]), [(["a"], 1.0)])
        other = Frame(["x", "y"])
        with pytest.raises(FrameMismatchError):
            m.belief(other.singleton("x"))

    def test_bare_string_is_not_a_collection_of_labels(self):
        # iterated, "ab" would be the labels "a" and "b", not the label "ab"
        frame = Frame(["a", "b", "ab"])
        with pytest.raises(ValidationError, match="not the string 'ab'"):
            MassFunction.from_labels(frame, [("ab", 1.0)])
        with pytest.raises(ValidationError, match="not the string 'ab'"):
            make_mass_function(frame, [("ab", 1.0)])
        with pytest.raises(ValidationError, match="not the string 'ab'"):
            frame.subset("ab")
        assert make_mass_function(frame, [(["ab"], 1.0)]).mass(frame.subset(["ab"])) == 1.0

    # One walk checks each pair in turn, so the first bad pair in input order
    # raises, whatever its kind.
    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([(["a"], 2.0), (["zz"], 0.5)], MassOutOfRangeError),
            ([(["zz"], 0.5), (["a"], 2.0)], UnknownLabelError),
            ([(["a"], 2.0), ([], 0.5)], MassOutOfRangeError),
            ([([], 0.5), (["zz"], 0.5)], EmptySetMassError),
        ],
    )
    def test_from_labels_reports_the_first_bad_pair(self, pairs, error):
        with pytest.raises(error) as err:
            MassFunction.from_labels(Frame(["a", "b"]), pairs)
        assert type(err.value) is error

    @pytest.mark.parametrize("first, second", [(2.0, -1.0), (-1.0, 2.0)])
    def test_constructor_reports_the_first_bad_pair(self, first, second):
        frame = Frame(["a", "b"])
        with pytest.raises(MassOutOfRangeError, match=f"^mass {first!r} on \\('a',\\)"):
            MassFunction(frame, {frame.subset(["a"]): first, frame.subset(["b"]): second})


    def test_duplicate_before_a_later_bad_mass(self):
        with pytest.raises(DuplicateFocalSetError) as err:
            MassFunction.from_labels(Frame(["a", "b"]), [(["a"], 0.5), (["a"], 0.5), (["b"], 2.0)])
        assert type(err.value) is DuplicateFocalSetError
        assert str(err.value) == "focal set ('a',) assigned more than once"

    def test_bad_mass_before_a_later_frame_mismatch(self):
        f, g = Frame(["a", "b"]), Frame(["c", "d"])
        with pytest.raises(MassOutOfRangeError) as err:
            MassFunction(f, {f.subset(["a"]): 2.0, g.subset(["c"]): 0.5})
        assert type(err.value) is MassOutOfRangeError
        assert str(err.value) == "mass 2.0 on ('a',) is not a number in [0, 1]"

    # a dict would iterate as its keys, as a string would as its characters
    def test_mapping_is_not_a_collection_of_labels(self):
        frame = Frame(["a", "b"])
        with pytest.raises(ValidationError, match=r"not the mapping \{'a': 1\}"):
            frame.subset({"a": 1})
        with pytest.raises(ValidationError, match=r"not the mapping \{'a': 1\}"):
            MassFunction.from_labels(frame, [({"a": 1}, 1.0)])

    # bytes would iterate as their byte values: b"a" as the label 97
    def test_bytes_are_not_a_collection_of_labels(self):
        frame = Frame(["a", "b"])
        with pytest.raises(ValidationError) as err:
            MassFunction.from_labels(frame, [(b"a", 1.0)])
        assert type(err.value) is ValidationError
        assert str(err.value) == "expected a collection of labels, not the bytes b'a'"
        with pytest.raises(ValidationError, match=r"^expected a collection of labels, not the bytes b'ab'$"):
            frame.subset(b"ab")

    # a bytearray or a memoryview would iterate as its byte values too
    @pytest.mark.parametrize("buffer", [bytearray(b"a"), memoryview(b"a")], ids=lambda b: type(b).__name__)
    def test_buffers_are_not_a_collection_of_labels(self, buffer):
        frame = Frame(["a"])
        shown = buffer.tobytes() if isinstance(buffer, memoryview) else buffer  # not its address
        message = f"^expected a collection of labels, not the bytes {re.escape(repr(shown))}$"
        with pytest.raises(ValidationError, match=message) as err:
            frame.subset(buffer)
        assert type(err.value) is ValidationError
        with pytest.raises(ValidationError, match=message) as err:
            MassFunction.from_labels(frame, [(buffer, 1.0)])
        assert type(err.value) is ValidationError

    # a memoryview's own repr holds its address, which changes from one call to the next
    @pytest.mark.parametrize(
        "refuse",
        [lambda frame, view: frame.subset(view),
         lambda frame, view: MassFunction.from_labels(frame, [(view, 1.0)]),
         lambda frame, view: ThresholdSet(view, (4, 5, 6))],
        ids=["subset", "from_labels", "ThresholdSet"],
    )
    def test_a_refused_memoryview_gives_the_same_message_each_time(self, refuse):
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as err:
                refuse(Frame(["a"]), memoryview(b"\x01\x02\x03"))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "0x" not in messages[0] and messages[0].endswith(repr(b"\x01\x02\x03"))

    def test_a_released_memoryview_is_still_refused_with_a_validation_error(self):
        view = memoryview(b"a")
        view.release()
        with pytest.raises(ValidationError, match="^expected a collection of labels"):
            Frame(["a"]).subset(view)

    @pytest.mark.parametrize("members", [None, 5, [["a"]], [{"a": 1}]], ids=repr)
    def test_members_that_are_not_a_collection_of_hashable_labels(self, members):
        frame = Frame(["a", "b"])
        message = f"^expected a collection of labels, got {re.escape(repr(members))}$"
        with pytest.raises(ValidationError, match=message):
            frame.subset(members)
        with pytest.raises(ValidationError, match=message):
            MassFunction.from_labels(frame, [(members, 1.0)])

    @pytest.mark.parametrize("key", [("a",), "a", 1])
    def test_mapping_key_that_is_not_a_focal_set(self, key):
        with pytest.raises(ValidationError, match=f"^expected a FocalSet key, got {type(key).__name__}$"):
            MassFunction(Frame(["a", "b"]), {key: 1.0})

    @pytest.mark.parametrize(
        "assignments, message",
        [
            ([(["a"],)], "expected a (labels, mass) pair, got (['a'],)"),
            ([(["a"], 1.0, 2)], "expected a (labels, mass) pair, got (['a'], 1.0, 2)"),
            ([5], "expected a (labels, mass) pair, got 5"),
            (5, "expected (labels, mass) pairs, got 5"),
            (None, "expected (labels, mass) pairs, got None"),
        ],
    )
    def test_assignments_that_are_not_labels_and_mass_pairs(self, assignments, message):
        with pytest.raises(ValidationError) as err:
            MassFunction.from_labels(Frame(["a", "b"]), assignments)
        assert type(err.value) is ValidationError
        assert str(err.value) == message

    def test_malformed_pair_raises_at_its_place_in_the_walk(self):
        frame = Frame(["a", "b"])
        with pytest.raises(MassOutOfRangeError):
            MassFunction.from_labels(frame, [(["a"], 2.0), (["b"],)])
        with pytest.raises(ValidationError, match=r"^expected a \(labels, mass\) pair, got \(\['b'\],\)$"):
            MassFunction.from_labels(frame, [(["b"],), (["a"], 2.0)])

    def test_assignments_that_are_not_a_mapping(self):
        frame = Frame(["a", "b"])
        pairs = [(frame.subset(["a"]), 1.0)]
        with pytest.raises(ValidationError) as err:
            MassFunction(frame, pairs)
        assert type(err.value) is ValidationError
        assert str(err.value) == f"expected a mapping, got {pairs!r}"


class TestSingleLabelLookups:
    """A label that cannot be hashed is named as given; an unknown one keeps its message."""

    LOOKUPS = {
        "index": lambda frame, label: frame.index(label),
        "singleton": lambda frame, label: frame.singleton(label),
        "in": lambda frame, label: label in frame.full_set,
        "distribution": lambda frame, label: ProbabilityDistribution(frame, [0.5, 0.5])[label],
    }

    @pytest.mark.parametrize("lookup", LOOKUPS)
    @pytest.mark.parametrize("label", [["a"], {"a": 1}, {"a"}], ids=repr)
    def test_unhashable_label(self, lookup, label):
        with pytest.raises(ValidationError) as err:
            self.LOOKUPS[lookup](Frame(["a", "b"]), label)
        assert type(err.value) is ValidationError
        assert str(err.value) == f"expected a label, got {label!r}"

    @pytest.mark.parametrize("lookup", LOOKUPS)
    @pytest.mark.parametrize("label", ["x", 5, ("a",)], ids=repr)
    def test_unknown_label(self, lookup, label):
        with pytest.raises(UnknownLabelError) as err:
            self.LOOKUPS[lookup](Frame(["a", "b"]), label)
        assert str(err.value) == f"label {label!r} not in frame ('a', 'b')"


class TestBeliefPlausibility:
    def test_combat_singletons(self, combat_frame, combat_bba):
        assert combat_bba.belief(combat_frame.singleton("F")) == pytest.approx(
            0.16, abs=1e-12
        )
        assert combat_bba.plausibility(combat_frame.singleton("F")) == pytest.approx(
            0.73, abs=1e-12
        )

    def test_belief_of_full_frame_is_one(self, combat_frame, combat_bba):
        assert combat_bba.belief(combat_frame.full_set) == pytest.approx(1.0, abs=1e-12)

    def test_hand_enumerated(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a"], 0.5), (["a", "b"], 0.5)])
        assert m.belief(frame.singleton("a")) == 0.5
        assert m.plausibility(frame.singleton("b")) == 0.5

    def test_vacuous_plausibility(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a", "b"], 1.0)])
        assert m.plausibility(frame.singleton("a")) == 1.0

    def test_brute_force_oracle(self, combat_frame, combat_bba):
        masses = {
            frozenset(s.labels): mass for s, mass in combat_bba.focal_sets()
        }
        for subset in powerset(combat_frame.labels):
            fs = combat_frame.subset(subset)
            assert combat_bba.belief(fs) == pytest.approx(
                bel_oracle(masses, subset), abs=1e-15
            )
            assert combat_bba.plausibility(fs) == pytest.approx(
                pl_oracle(masses, subset), abs=1e-15
            )

    def test_singleton_duality(self, combat_frame, combat_bba):
        # Pl({x}) = 1 - Bel(complement of {x})
        for label in combat_frame.labels:
            complement = combat_frame.subset(
                [l for l in combat_frame.labels if l != label]
            )
            assert combat_bba.plausibility(
                combat_frame.singleton(label)
            ) == pytest.approx(1.0 - combat_bba.belief(complement), abs=1e-12)


class TestSingletonVectors:
    def test_combat_tabulation(self, combat_bba):
        bel = combat_bba.singleton_beliefs()
        pl = combat_bba.singleton_plausibilities()
        assert list(bel.values) == pytest.approx([0.16, 0.14, 0.01, 0.02], abs=1e-12)
        assert list(pl.values) == pytest.approx([0.73, 0.64, 0.39, 0.26], abs=1e-12)

    def test_bayesian_bel_equals_pl(self):
        frame = Frame(["a", "b"])
        m = make_mass_function(frame, [(["a"], 0.75), (["b"], 0.25)])
        assert list(m.singleton_beliefs().values) == [0.75, 0.25]
        assert list(m.singleton_plausibilities().values) == [0.75, 0.25]

    def test_sum_over(self, combat_frame, combat_bba):
        pl = combat_bba.singleton_plausibilities()
        assert pl.sum_over(combat_frame.subset(["F", "N"])) == pytest.approx(
            1.37, abs=1e-12
        )
        assert pl.sum_over(combat_frame.singleton("U")) == pytest.approx(
            0.39, abs=1e-12
        )

    def test_sum_over_frame_mismatch(self, combat_bba):
        pl = combat_bba.singleton_plausibilities()
        with pytest.raises(FrameMismatchError):
            pl.sum_over(Frame(["x"]).singleton("x"))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            SingletonVector(Frame(["a", "b"]), [0.5, -0.1])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SingletonVector(Frame(["a", "b"]), [bad, 0.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SingletonVector(Frame(["a", "b"]), [1.0])

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            SingletonVector(Frame(["a", "b"]), [10**400, 0])

    # each value is finite, but math.fsum raises OverflowError on their sum
    @pytest.mark.parametrize("cls", [SingletonVector, ProbabilityDistribution])
    def test_values_whose_sum_overflows_rejected(self, cls):
        frame = Frame(["a", "b"])
        for construct in (cls, lambda f, v: cls._owned(f, np.array(v))):
            with pytest.raises(ValidationError, match=f"^{cls._noun} must have a finite sum$"):
                construct(frame, [1e308, 1e308])

    def test_a_sum_that_rounds_to_the_largest_float_is_kept(self):
        # a quarter of the last place of the largest float rounds away; a half ties to infinity
        frame, big = Frame(["a", "b"]), sys.float_info.max
        vector = SingletonVector(frame, [big, math.ulp(big) / 4])
        assert vector.total == vector.sum_over(frame.full_set) == big
        assert vector.sum_over(frame.singleton("b")) == math.ulp(big) / 4
        with pytest.raises(ValidationError, match="finite sum"):
            SingletonVector(frame, [big, math.ulp(big) / 2])

    # min is taken first: math.fsum itself raises ValueError on inf + -inf
    @pytest.mark.parametrize(
        "values", [[math.inf, -math.inf], [math.nan, -math.inf], [-math.inf, math.nan]], ids=repr
    )
    def test_infinities_of_both_signs_rejected(self, values):
        with pytest.raises(ValidationError, match="^values must be finite and non-negative$"):
            SingletonVector(Frame(["a", "b"]), values)

    def test_total_is_kept_once(self):
        vector = SingletonVector(Frame(["a", "b"]), [0.25, 0.5])
        assert vector.total == 0.75 and "total" in vars(vector)
        with pytest.raises(AttributeError):
            vector.total = 1.0

    # a buffer iterates as its byte values, which numpy would take as the numbers 0 and 1
    @pytest.mark.parametrize("buffer", [bytearray, memoryview])
    @pytest.mark.parametrize(
        "cls,noun", [(SingletonVector, "values"), (ProbabilityDistribution, "probabilities")]
    )
    def test_buffers_rejected(self, cls, noun, buffer):
        with pytest.raises(ValidationError, match=f"^{noun} must be finite non-negative numbers$"):
            cls(Frame(["a", "b"]), buffer(b"\x00\x01"))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    @pytest.mark.parametrize("cls", [SingletonVector, ProbabilityDistribution])
    def test_numpy_arrays_accepted(self, cls, dtype):
        vector = cls(Frame(["a", "b"]), np.array([0, 1], dtype=dtype))
        assert vector.values.dtype == np.float64
        assert vector.values.tolist() == [0.0, 1.0]

    def test_input_array_is_copied(self):
        values = np.array([0.25, 0.5])
        vector = SingletonVector(Frame(["a", "b"]), values)
        values[0] = 1.0
        assert vector.values.tolist() == [0.25, 0.5]

    def test_equality_compares_values(self):
        frame = Frame(["a", "b"])
        assert SingletonVector(frame, [1, 2]) != SingletonVector(frame, [3, 4])
        assert SingletonVector(frame, [1, 2]) == SingletonVector(frame, [1.0, 2.0])
        assert hash(SingletonVector(frame, [1, 2])) == hash(SingletonVector(frame, [3, 4]))

    def test_equality_ignores_the_sign_of_zero_and_needs_the_same_class_and_frame(self):
        frame = Frame(["a", "b"])
        vector = SingletonVector(frame, [-0.0, 1.0])
        assert vector == SingletonVector(frame, [0.0, 1.0])
        assert vector != ProbabilityDistribution(frame, [0.0, 1.0])
        assert vector != SingletonVector(Frame(["a", "c"]), [0.0, 1.0])
        assert vector.__eq__((0.0, 1.0)) is NotImplemented


def assert_tuple_is_values(vector):
    """``_tuple`` is a tuple of exactly ``values.tolist()``, bit for bit (-0.0 included)."""
    assert type(vector._tuple) is tuple
    want = vector.values.tolist()
    assert len(vector._tuple) == len(want)
    for got, value in zip(vector._tuple, want):
        assert type(got) is float and got.hex() == value.hex()


EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.0, 1.0]


def tiny_singleton_mass(mass):
    return make_mass_function(
        Frame(["a", "b", "c"]), [(["a"], mass), (["b"], 0.5), (["a", "c"], 0.5)]
    )


class TestFloatTuple:
    def test_public_constructors(self):
        frame = Frame("abcde")
        assert_tuple_is_values(SingletonVector(frame, EDGE_VALUES))
        assert_tuple_is_values(SingletonVector(frame, np.array(EDGE_VALUES)))
        assert_tuple_is_values(ProbabilityDistribution(frame, EDGE_VALUES))
        assert_tuple_is_values(ProbabilityDistribution(frame, [0, 0, 0, 0, 1]))

    def test_item_access_keeps_the_sign_and_subnormals(self):
        vector = SingletonVector(Frame("abcde"), EDGE_VALUES)
        assert math.copysign(1.0, vector["a"]) == -1.0
        assert vector["b"] == 5e-324 and type(vector["b"]) is float

    @pytest.mark.parametrize("cls", [SingletonVector, ProbabilityDistribution])
    def test_owned(self, cls):
        vector = cls._owned(Frame("abcde"), np.array(EDGE_VALUES))
        assert_tuple_is_values(vector)

    def test_singleton_accessors(self, combat_bba):
        tiny = tiny_singleton_mass(5e-324)
        for m in (combat_bba, tiny):
            assert_tuple_is_values(m.singleton_beliefs())
            assert_tuple_is_values(m.singleton_plausibilities())
        assert tiny.singleton_beliefs()._tuple[0] == 5e-324

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_transform_outputs(self, kind, combat_bba):
        for m in (combat_bba, tiny_singleton_mass(1e-300)):
            assert_tuple_is_values(apply_transform(kind.value, m).distribution)


class TestIsReal:
    @pytest.mark.parametrize(
        "x", [0.5, -0.0, math.inf, 3, np.float64(0.5), np.int64(3), Fraction(1, 3)]
    )
    def test_real_numbers(self, x):
        assert _is_real(x) is True

    @pytest.mark.parametrize(
        "x", [True, False, np.bool_(True), Decimal("0.5"), "0.5", 1j, None]
    )
    def test_not_real_numbers(self, x):
        assert _is_real(x) is False


class TestSums:
    def test_combat_sums(self, combat_bba):
        assert combat_bba.sum_bel() == pytest.approx(0.33, abs=1e-9)
        assert combat_bba.sum_pl() == pytest.approx(2.02, abs=1e-9)

    def test_bayesian_sums(self):
        frame = Frame(["a", "b", "c"])
        m = make_mass_function(frame, [(["a"], 0.5), (["b"], 0.25), (["c"], 0.25)])
        assert m.sum_bel() == pytest.approx(1.0, abs=1e-12)
        assert m.sum_pl() == pytest.approx(1.0, abs=1e-12)

    def test_sums_are_fsum(self):
        # numpy's sums read 0.9100000000000001 and 1.36 on these vectors
        labels = [f"h{i}" for i in range(8)]
        singles = [0.17, 0.07, 0.17, 0.03, 0.01, 0.2, 0.19, 0.07]
        m = make_mass_function(
            Frame(labels),
            [([l], x) for l, x in zip(labels, singles)] + [(labels[:5], 1 - math.fsum(singles))],
        )
        assert m.sum_bel() == math.fsum(m.singleton_beliefs().values.tolist()) == 0.91
        assert m.sum_pl() == math.fsum(m.singleton_plausibilities().values.tolist()) == 1.3599999999999999

    def test_accessors_wrap_the_stored_tables(self, combat_bba):
        for vector, table in [
            (combat_bba.singleton_beliefs(), combat_bba._bel),
            (combat_bba.singleton_masses(), combat_bba._bel),
            (combat_bba.singleton_plausibilities(), combat_bba._pl),
        ]:
            assert type(vector) is SingletonVector
            assert vector.frame == combat_bba.frame
            assert vector.values.tolist() == table.tolist()
            assert not np.shares_memory(vector.values, table)

    @pytest.mark.parametrize(
        "table", ["masses", "cardinality", "compound_masses", "_bel", "_pl"]
    )
    def test_tables_are_read_only(self, combat_bba, table):
        with pytest.raises(ValueError, match="read-only"):
            getattr(combat_bba, table)[0] = 0.5

    def test_bel_bounds_pl(self, combat_frame, combat_bba):
        for subset in powerset(combat_frame.labels):
            fs = combat_frame.subset(subset)
            b = combat_bba.belief(fs)
            p = combat_bba.plausibility(fs)
            assert 0.0 <= b <= p + 1e-15
            assert p <= 1.0 + 1e-15


def seeded_pairs(seed, n, k):
    """k distinct focal sets of an n-label frame as (labels, mass) pairs; some masses are 0."""
    rng = random.Random(f"{seed}/parity")
    labels = [f"h{i}" for i in range(n)]
    chosen = list(dict.fromkeys(rng.randrange(1, 1 << n) for _ in range(k)))
    weights = [rng.choice([0.0, rng.random()]) for _ in chosen[1:]] + [1.0]
    total = math.fsum(weights)
    return labels, [
        ([l for i, l in enumerate(labels) if b >> i & 1], w / total)
        for b, w in zip(chosen, weights)
    ]


class TestConstructorParity:
    """The mapping constructor and ``from_labels`` build the same object."""

    TABLES = ["bits", "masses", "cardinality", "compound_masses", "incidence", "_bel", "_pl"]

    @pytest.mark.parametrize(
        "seed, n, k", [(0, 1, 1), (1, 2, 3), (2, 5, 20), (3, 16, 200), (4, 32, 500), (5, 64, 1000)]
    )
    def test_same_tables_byte_for_byte(self, seed, n, k):
        labels, pairs = seeded_pairs(seed, n, k)
        frame = Frame(labels)
        by_labels = MassFunction.from_labels(frame, pairs)
        by_sets = MassFunction(frame, {frame.subset(s): w for s, w in pairs})
        for table in self.TABLES:
            a, b = getattr(by_labels, table), getattr(by_sets, table)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), table
        assert by_labels.sum_bel().hex() == by_sets.sum_bel().hex()
        assert by_labels.sum_pl().hex() == by_sets.sum_pl().hex()

    @pytest.mark.parametrize(
        "pairs",
        [
            [(["a"], 0.5), (["b"], 1.5)],
            [(["a"], -0.25), (["b"], 1.25)],
            [(["a"], math.nan), (["a", "b"], 1.0)],
            [(["a"], 0.5), (["a", "b"], 0.25)],
            [(["a"], 0.75), (["b"], 0.5)],
        ],
    )
    def test_same_error_type_and_message(self, pairs):
        frame = Frame(["a", "b"])
        with pytest.raises((MassOutOfRangeError, MassSumMismatchError)) as by_labels:
            MassFunction.from_labels(frame, pairs)
        with pytest.raises(type(by_labels.value)) as by_sets:
            MassFunction(frame, {frame.subset(s): w for s, w in pairs})
        assert type(by_sets.value) is type(by_labels.value)
        assert str(by_sets.value) == str(by_labels.value)

    def test_singleton_and_membership_by_label_position(self):
        frame = Frame([f"h{i}" for i in range(64)])
        rng = random.Random(64)
        focal_sets = [frame.full_set] + [
            FocalSet(frame, rng.randrange(1, 1 << 64)) for _ in range(20)
        ]
        for i, label in enumerate(frame.labels):
            assert frame.singleton(label).bits == 1 << i
            for fs in focal_sets:
                assert (label in fs) is bool(fs.bits >> i & 1)
        with pytest.raises(UnknownLabelError, match="label 'h64' not in frame"):
            frame.singleton("h64")
        with pytest.raises(UnknownLabelError, match="label 'h64' not in frame"):
            "h64" in frame.full_set


class TestSumOver:
    """``sum_over`` rounds once (``math.fsum``), as ``total`` does."""

    def test_ten_tenths(self):
        frame = Frame([f"h{i}" for i in range(10)])
        vector = SingletonVector(frame, [0.1] * 10)
        assert vector.sum_over(frame.full_set) == vector.total == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_vectors_match_fsum(self, seed):
        rng = random.Random(f"{seed}/sum_over")
        n = rng.randint(1, 64)
        frame = Frame([f"h{i}" for i in range(n)])
        values = [rng.random() * 10.0 ** -rng.randint(0, 20) for _ in range(n)]
        vector = SingletonVector(frame, values)
        assert vector.sum_over(frame.full_set).hex() == vector.total.hex()
        for _ in range(50):
            bits = rng.randrange(1, 1 << n)
            want = math.fsum(v for i, v in enumerate(values) if bits >> i & 1)
            assert vector.sum_over(FocalSet(frame, bits)).hex() == want.hex()
