"""Tests for tie-breaking kernels: scalar/vector agreement, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    TieBreak,
    decide_row_scalar,
    decide_rows,
    strategy_needs_measures,
)


class TestTieBreakEnum:
    def test_coerce_string(self):
        assert TieBreak.coerce("random") is TieBreak.RANDOM
        assert TieBreak.coerce("SMALLER") is TieBreak.SMALLER

    def test_coerce_member(self):
        assert TieBreak.coerce(TieBreak.FIRST) is TieBreak.FIRST

    def test_coerce_invalid(self):
        with pytest.raises(ValueError, match="unknown tie-break"):
            TieBreak.coerce("leftish")

    def test_needs_measures(self):
        assert strategy_needs_measures(TieBreak.SMALLER)
        assert strategy_needs_measures(TieBreak.LARGER)
        assert not strategy_needs_measures(TieBreak.RANDOM)
        assert not strategy_needs_measures(TieBreak.FIRST)


class TestDecideRows:
    def test_picks_min_load(self):
        loads = np.array([[3, 1, 2]])
        j = decide_rows(loads, None, np.array([0.5]), TieBreak.RANDOM)
        assert j.tolist() == [1]

    def test_first_takes_lowest_index(self):
        loads = np.array([[2, 1, 1]])
        j = decide_rows(loads, None, np.array([0.99]), TieBreak.FIRST)
        assert j.tolist() == [1]

    def test_random_uses_uniform(self):
        loads = np.array([[1, 1], [1, 1]])
        j = decide_rows(loads, None, np.array([0.1, 0.9]), TieBreak.RANDOM)
        assert j.tolist() == [0, 1]

    def test_smaller_picks_smaller_measure(self):
        loads = np.array([[1, 1]])
        meas = np.array([[0.9, 0.1]])
        j = decide_rows(loads, meas, np.array([0.0]), TieBreak.SMALLER)
        assert j.tolist() == [1]

    def test_larger_picks_larger_measure(self):
        loads = np.array([[1, 1]])
        meas = np.array([[0.9, 0.1]])
        j = decide_rows(loads, meas, np.array([0.0]), TieBreak.LARGER)
        assert j.tolist() == [0]

    def test_measure_only_matters_among_tied(self):
        """A huge arc with higher load must not be chosen."""
        loads = np.array([[0, 1]])
        meas = np.array([[0.01, 0.99]])
        j = decide_rows(loads, meas, np.array([0.0]), TieBreak.LARGER)
        assert j.tolist() == [0]

    def test_measure_ties_go_left(self):
        loads = np.array([[1, 1]])
        meas = np.array([[0.5, 0.5]])
        assert decide_rows(loads, meas, np.array([0.0]), TieBreak.SMALLER) == [0]
        assert decide_rows(loads, meas, np.array([0.0]), TieBreak.LARGER) == [0]

    def test_missing_measures_raise(self):
        with pytest.raises(ValueError, match="requires candidate measures"):
            decide_rows(np.array([[1, 1]]), None, np.array([0.0]), TieBreak.SMALLER)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            decide_rows(
                np.array([[1, 1]]),
                np.array([[0.5]]),
                np.array([0.0]),
                TieBreak.SMALLER,
            )

    def test_rejects_1d_loads(self):
        with pytest.raises(ValueError, match="2-D"):
            decide_rows(np.array([1, 2]), None, np.array([0.0]), TieBreak.RANDOM)


@st.composite
def _row_case(draw):
    d = draw(st.integers(2, 5))
    loads = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))
    measures = draw(
        st.lists(
            st.floats(0.001, 1.0, allow_nan=False), min_size=d, max_size=d
        )
    )
    u = draw(st.floats(0.0, 0.999999))
    strategy = draw(st.sampled_from(list(TieBreak)))
    return loads, measures, u, strategy


class TestScalarVectorAgreement:
    @given(_row_case())
    @settings(max_examples=300, deadline=None)
    def test_kernels_agree(self, case):
        """The scalar and vectorized kernels must be the same function."""
        loads, measures, u, strategy = case
        vec = decide_rows(
            np.array([loads]),
            np.array([measures]),
            np.array([u]),
            strategy,
        )
        scalar = decide_row_scalar(loads, measures, u, strategy)
        assert int(vec[0]) == scalar

    @given(_row_case())
    @settings(max_examples=100, deadline=None)
    def test_scalar_accepts_array_rows(self, case):
        """Any length-d sequence works: numpy rows decide like lists."""
        loads, measures, u, strategy = case
        as_arrays = decide_row_scalar(
            np.array(loads), np.array(measures), u, strategy
        )
        assert as_arrays == decide_row_scalar(loads, measures, u, strategy)

    @given(_row_case())
    @settings(max_examples=200, deadline=None)
    def test_choice_is_always_minimum_load(self, case):
        """Whatever the strategy, the chosen bin has minimal load."""
        loads, measures, u, strategy = case
        j = decide_row_scalar(loads, measures, u, strategy)
        assert loads[j] == min(loads)
