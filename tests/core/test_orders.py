"""Unit tests for readback-order strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orders import (
    ExplicitOrder,
    OffsetOrder,
    PermutationOrder,
    RandomOffsetOrder,
    RepeatedFramesOrder,
    SequentialOrder,
    check_coverage,
    default_order,
)
from repro.errors import ProtocolError
from repro.utils.rng import DeterministicRng

N = 100


class TestOffsetOrder:
    def test_paper_formula(self):
        """(i+j) % 28,488 — Figure 9's sequence, scaled down."""
        order = OffsetOrder(7)
        sequence = order.frame_sequence(10)
        assert sequence == [7, 8, 9, 0, 1, 2, 3, 4, 5, 6]

    def test_covers_all(self):
        assert sorted(OffsetOrder(42).validate(N)) == list(range(N))

    def test_offset_zero_is_sequential(self):
        assert SequentialOrder().frame_sequence(5) == [0, 1, 2, 3, 4]

    def test_negative_offset_rejected(self):
        with pytest.raises(ProtocolError):
            OffsetOrder(-1)

    def test_offset_larger_than_count_wraps(self):
        assert OffsetOrder(12).frame_sequence(10)[0] == 2


class TestRandomOrders:
    def test_random_offset_covers_all(self):
        order = RandomOffsetOrder(DeterministicRng(3))
        assert sorted(order.validate(N)) == list(range(N))

    def test_random_offset_changes_between_runs(self):
        order = RandomOffsetOrder(DeterministicRng(3))
        first = order.frame_sequence(N)
        second = order.frame_sequence(N)
        assert first != second  # fresh offset per run (freshness)

    def test_permutation_covers_all(self):
        order = PermutationOrder(DeterministicRng(4))
        sequence = order.validate(N)
        assert sorted(sequence) == list(range(N))
        assert sequence != list(range(N))

    def test_repeated_covers_all_with_extras(self):
        order = RepeatedFramesOrder(DeterministicRng(5), repeat_fraction=0.2)
        sequence = order.validate(N)
        assert len(sequence) == N + int(N * 0.2)
        assert set(sequence) == set(range(N))

    def test_repeat_fraction_validation(self):
        with pytest.raises(ProtocolError):
            RepeatedFramesOrder(DeterministicRng(1), repeat_fraction=1.5)


def reference_check_coverage(sequence, total_frames):
    """The per-index loop ``check_coverage`` replaced."""
    seen = set()
    for index in sequence:
        if not 0 <= index < total_frames:
            raise ProtocolError(f"readback index {index} out of range")
        seen.add(index)
    if len(seen) != total_frames:
        missing = total_frames - len(seen)
        raise ProtocolError(
            f"readback order misses {missing} of {total_frames} frames; "
            "partial coverage would leave unattested configuration"
        )


class TestCoverage:
    def test_missing_frame_rejected(self):
        with pytest.raises(ProtocolError, match="misses"):
            check_coverage(list(range(N - 1)), N)

    def test_out_of_range_rejected(self):
        with pytest.raises(ProtocolError, match="out of range"):
            check_coverage([0, 1, N], N)

    def test_first_out_of_range_index_is_reported(self):
        """Sequence order decides, not the smallest or largest index."""
        with pytest.raises(ProtocolError, match=r"^readback index 150 out of range$"):
            check_coverage([3, 150, -2, N, 0], N)

    def test_missing_count_is_reported(self):
        with pytest.raises(ProtocolError, match=r"misses 7 of 10 frames"):
            check_coverage([0, 0, 1, 5, 1], 10)

    def test_repeats_allowed(self):
        check_coverage(list(range(N)) + [0, 0, 5], N)

    @given(
        sequence=st.lists(st.integers(-3, 23), max_size=40),
        total=st.integers(1, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_index_reference(self, sequence, total):
        try:
            reference_check_coverage(sequence, total)
        except ProtocolError as error:
            with pytest.raises(ProtocolError) as raised:
                check_coverage(sequence, total)
            assert str(raised.value) == str(error)
        else:
            check_coverage(sequence, total)

    @given(offset=st.integers(0, 10**6), total=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_offset_order_is_the_paper_formula(self, offset, total):
        assert OffsetOrder(offset).frame_sequence(total) == [
            (offset + step) % total for step in range(total)
        ]


class TestExplicitOrder:
    def test_validates_by_default(self):
        with pytest.raises(ProtocolError):
            ExplicitOrder([0, 1]).validate(5)

    def test_skip_validation_for_attacks(self):
        order = ExplicitOrder([0, 1], skip_validation=True)
        assert order.validate(5) == [0, 1]


class TestDefaultOrder:
    def test_with_rng_is_random_offset(self):
        assert isinstance(default_order(DeterministicRng(1)), RandomOffsetOrder)

    def test_without_rng_is_sequential(self):
        assert isinstance(default_order(None), SequentialOrder)
