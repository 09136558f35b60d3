"""Tests for event traces, delete policies and generators."""

import numpy as np
import pytest
from helpers import scalar_steady_state_trace, scalar_validate_replay
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.events import (
    DeletePolicy,
    EventKind,
    EventTrace,
    TraceBuilder,
    adversarial_burst_trace,
    churn_storm_trace,
    poisson_trace,
    steady_state_trace,
)
from repro.utils.rng import resolve_rng


class TestTraceBuilder:
    def test_insert_ids_sequential(self):
        b = TraceBuilder()
        assert [b.insert() for _ in range(4)] == [0, 1, 2, 3]

    def test_fifo_deletes_oldest(self):
        b = TraceBuilder()
        for _ in range(3):
            b.insert()
        assert b.delete("fifo", resolve_rng(0)) == 0
        assert b.delete("fifo", resolve_rng(0)) == 1

    def test_lifo_deletes_newest(self):
        b = TraceBuilder()
        for _ in range(3):
            b.insert()
        assert b.delete("lifo", resolve_rng(0)) == 2
        b.insert()  # ball 3
        assert b.delete("lifo", resolve_rng(0)) == 3

    def test_random_delete_is_live_and_deterministic(self):
        def run():
            rng = resolve_rng(42)
            b = TraceBuilder()
            for _ in range(10):
                b.insert()
            return [b.delete("random", rng) for _ in range(5)]

        a, c = run(), run()
        assert a == c
        assert len(set(a)) == 5

    def test_delete_empty_raises(self):
        with pytest.raises(ValueError, match="no live balls"):
            TraceBuilder().delete("random", resolve_rng(0))

    def test_unknown_policy_raises(self):
        b = TraceBuilder()
        b.insert()
        with pytest.raises(ValueError, match="unknown delete policy"):
            b.delete("newest", resolve_rng(0))

    def test_churn_requires_slots(self):
        with pytest.raises(ValueError, match="n_slots"):
            TraceBuilder().bin_leave(0)

    def test_cannot_drop_last_bin(self):
        b = TraceBuilder(n_slots=2)
        b.insert()
        b.bin_leave(0)
        with pytest.raises(ValueError, match="last active"):
            b.bin_leave(1)

    def test_double_leave_and_join_rejected(self):
        b = TraceBuilder(n_slots=3)
        b.bin_leave(1)
        with pytest.raises(ValueError, match="already inactive"):
            b.bin_leave(1)
        b.bin_join(1)
        with pytest.raises(ValueError, match="already active"):
            b.bin_join(1)

    def test_mark_epoch_idempotent(self):
        b = TraceBuilder()
        b.mark_epoch()  # before any event: ignored
        b.insert()
        b.mark_epoch()
        b.mark_epoch()
        t = b.build()
        assert t.epoch_ends.tolist() == [1]


class TestEventTraceValidation:
    def test_rejects_dangling_delete(self):
        with pytest.raises(ValueError, match="not live"):
            EventTrace(
                kinds=np.array([EventKind.INSERT, EventKind.DELETE], dtype=np.int8),
                args=np.array([0, 5]),
                epoch_ends=np.array([2]),
            )

    def test_rejects_double_delete(self):
        kinds = np.array(
            [EventKind.INSERT, EventKind.DELETE, EventKind.DELETE], dtype=np.int8
        )
        with pytest.raises(ValueError, match="not live"):
            EventTrace(kinds=kinds, args=np.array([0, 0, 0]), epoch_ends=np.array([3]))

    def test_rejects_non_sequential_insert_ids(self):
        with pytest.raises(ValueError, match="consecutive"):
            EventTrace(
                kinds=np.array([EventKind.INSERT], dtype=np.int8),
                args=np.array([7]),
                epoch_ends=np.array([1]),
            )

    def test_rejects_unclosed_epochs(self):
        with pytest.raises(ValueError, match="epoch_ends"):
            EventTrace(
                kinds=np.array([EventKind.INSERT], dtype=np.int8),
                args=np.array([0]),
                epoch_ends=np.array([], dtype=np.int64),
            )

    def test_rejects_churn_without_slots(self):
        with pytest.raises(ValueError, match="n_slots"):
            EventTrace(
                kinds=np.array([EventKind.BIN_LEAVE], dtype=np.int8),
                args=np.array([0]),
                epoch_ends=np.array([1]),
            )

    def test_arrays_read_only(self):
        t = steady_state_trace(4, pairs=0, seed=0)
        with pytest.raises(ValueError):
            t.kinds[0] = 3

    def test_caller_arrays_not_frozen_in_place(self):
        kinds = np.array([EventKind.INSERT, EventKind.INSERT], dtype=np.int8)
        args = np.array([0, 1], dtype=np.int64)
        ends = np.array([2], dtype=np.int64)
        t = EventTrace(kinds=kinds, args=args, epoch_ends=ends)
        kinds[0] = EventKind.DELETE  # caller keeps ownership...
        assert t.kinds[0] == EventKind.INSERT  # ...trace is unaffected

    def test_empty_trace_allowed(self):
        t = EventTrace(
            kinds=np.array([], dtype=np.int8),
            args=np.array([], dtype=np.int64),
            epoch_ends=np.array([], dtype=np.int64),
        )
        assert t.num_events == 0 and t.final_occupancy == 0


class TestGenerators:
    def test_steady_state_shape(self):
        t = steady_state_trace(100, pairs=50, epochs=5, seed=1)
        assert t.num_events == 100 + 2 * 50
        assert t.num_inserts == 150 and t.num_deletes == 50
        assert t.final_occupancy == 100
        assert not t.has_churn
        # warm-up epoch plus the churn-phase epochs
        assert t.epoch_ends[0] == 100 and int(t.epoch_ends[-1]) == t.num_events

    def test_steady_state_policies_differ(self):
        fifo = steady_state_trace(20, pairs=10, policy="fifo", seed=3)
        lifo = steady_state_trace(20, pairs=10, policy="lifo", seed=3)
        assert not np.array_equal(fifo.args, lifo.args)
        first_delete = np.nonzero(fifo.kinds == EventKind.DELETE)[0][0]
        assert fifo.args[first_delete] == 0  # oldest
        assert lifo.args[first_delete] == 19  # newest

    def test_poisson_counts_and_determinism(self):
        a = poisson_trace(500, 100, seed=9)
        b = poisson_trace(500, 100, seed=9)
        assert np.array_equal(a.kinds, b.kinds) and np.array_equal(a.args, b.args)
        assert a.num_events == 500
        assert a.num_inserts + a.num_deletes == 500
        # occupancy hovers near the target: grossly more inserts early on
        assert 0 < a.final_occupancy <= 250

    def test_adversarial_burst_structure(self):
        t = adversarial_burst_trace(40, 10, rounds=3, policy="lifo", seed=0)
        assert t.num_events == 40 + 2 * 10 * 3
        assert t.final_occupancy == 40
        # LIFO drains exactly the burst it just inserted
        deletes = t.args[t.kinds == EventKind.DELETE]
        assert deletes.max() == t.num_inserts - 1

    def test_churn_storm_balanced_leave_join(self):
        t = churn_storm_trace(32, 64, waves=2, leave_fraction=0.25, seed=5)
        assert t.has_churn and t.n_slots == 32
        leaves = int(np.count_nonzero(t.kinds == EventKind.BIN_LEAVE))
        joins = int(np.count_nonzero(t.kinds == EventKind.BIN_JOIN))
        assert leaves == joins == 2 * 8

    def test_churn_storm_no_rejoin(self):
        t = churn_storm_trace(16, 16, waves=2, leave_fraction=0.25, rejoin=False, seed=5)
        leaves = int(np.count_nonzero(t.kinds == EventKind.BIN_LEAVE))
        # wave 1 removes 4 of 16; wave 2 removes int(0.25 * 12) = 3
        assert leaves == 7
        assert int(np.count_nonzero(t.kinds == EventKind.BIN_JOIN)) == 0

    def test_churn_storm_with_pairs(self):
        t = churn_storm_trace(16, 32, waves=1, pairs_per_wave=5, seed=2)
        assert t.num_deletes == 5
        assert t.final_occupancy == 32

    def test_leave_fraction_bounds(self):
        with pytest.raises(ValueError, match="leave_fraction"):
            churn_storm_trace(16, 8, leave_fraction=1.5, seed=0)

    def test_policy_coerce_accepts_enum(self):
        t = steady_state_trace(8, pairs=2, policy=DeletePolicy.FIFO, seed=0)
        assert t.num_deletes == 2


TRACE_FIELDS = ("kinds", "args", "epoch_ends")


class TestColumnarSteadyState:
    """The columnar generator equals the event-at-a-time builder."""

    @pytest.mark.parametrize("policy", ["random", "fifo", "lifo"])
    @pytest.mark.parametrize(
        "m_target, pairs, epochs",
        [(1, 0, 1), (1, 9, 3), (6, 0, 4), (5, 3, 10), (40, 300, 7), (64, 64, 1)],
    )
    def test_array_identity(self, policy, m_target, pairs, epochs):
        for seed in range(3):
            got = steady_state_trace(m_target, pairs, policy=policy,
                                     epochs=epochs, seed=seed)
            want = scalar_steady_state_trace(m_target, pairs, policy=policy,
                                             epochs=epochs, seed=seed)
            for name in TRACE_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.meta == want.meta
            assert (got.num_inserts, got.num_deletes) == (
                want.num_inserts, want.num_deletes)

    def test_consumes_the_generator_like_scalar_draws(self):
        a, b = resolve_rng(11), resolve_rng(11)
        steady_state_trace(10, 25, seed=a)
        scalar_steady_state_trace(10, 25, seed=b)
        assert a.random() == b.random()


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _compare_validation(kinds, args, n_slots):
    kinds = np.asarray(kinds, dtype=np.int8)
    args = np.asarray(args, dtype=np.int64)
    ends = np.array([kinds.size] if kinds.size else [], dtype=np.int64)

    def vectorized():
        t = EventTrace(kinds=kinds, args=args, epoch_ends=ends, n_slots=n_slots)
        return t.num_inserts, t.num_deletes

    got = _outcome(vectorized)
    assert got == _outcome(lambda: scalar_validate_replay(kinds, args, n_slots))
    return got


def _storm():
    t = churn_storm_trace(8, 12, waves=2, leave_fraction=0.4, pairs_per_wave=6,
                          seed=3)
    return t.kinds.copy(), t.args.copy()


def _nth(kinds, kind, k=0):
    return int(np.flatnonzero(kinds == kind)[k])


class TestVectorizedValidation:
    """``EventTrace`` rejects the first bad event with the scalar replay's text."""

    def test_valid_storm_counts(self):
        kinds, args = _storm()
        assert _compare_validation(kinds, args, 8) == (24, 12)

    def test_out_of_order_insert(self):
        kinds, args = _storm()
        args[_nth(kinds, EventKind.INSERT, 5)] += 1
        assert "consecutive: expected 5, got 6" in _compare_validation(kinds, args, 8)

    def test_dangling_delete(self):
        kinds, args = _storm()
        args[_nth(kinds, EventKind.DELETE)] = 999
        assert "ball 999 that is not live" in _compare_validation(kinds, args, 8)

    def test_double_delete(self):
        kinds, args = _storm()
        first, second = (_nth(kinds, EventKind.DELETE, k) for k in (0, 3))
        args[second] = args[first]
        assert "not live" in _compare_validation(kinds, args, 8)

    def test_double_leave(self):
        kinds, args = _storm()
        first, second = (_nth(kinds, EventKind.BIN_LEAVE, k) for k in (0, 1))
        args[second] = args[first]
        assert "already inactive" in _compare_validation(kinds, args, 8)

    def test_join_while_active(self):
        kinds, args = _storm()
        join = _nth(kinds, EventKind.BIN_JOIN)
        args[join] = next(s for s in range(8) if s not in args[:join][
            kinds[:join] == EventKind.BIN_LEAVE])
        assert "already active" in _compare_validation(kinds, args, 8)

    def test_last_bin_leaving(self):
        kinds = [EventKind.INSERT, EventKind.BIN_LEAVE, EventKind.BIN_LEAVE,
                 EventKind.BIN_JOIN, EventKind.BIN_LEAVE, EventKind.BIN_LEAVE]
        args = [0, 2, 0, 0, 0, 1]
        assert _compare_validation(kinds, args, 3) == \
            "the last active bin cannot leave"

    @pytest.mark.parametrize("slot", [-1, 8])
    def test_slot_out_of_range(self, slot):
        kinds, args = _storm()
        args[_nth(kinds, EventKind.BIN_JOIN, 2)] = slot
        assert "outside [0, 8)" in _compare_validation(kinds, args, 8)

    def test_first_of_several_errors_wins(self):
        kinds, args = _storm()
        args[_nth(kinds, EventKind.BIN_JOIN, 4)] = 8  # later: bad slot
        args[_nth(kinds, EventKind.DELETE, 0)] = -3  # earlier: dangling
        assert "ball -3" in _compare_validation(kinds, args, 8)

    @given(
        kinds=st.lists(st.integers(0, 3), max_size=30),
        args=st.lists(st.integers(-1, 6), min_size=30, max_size=30),
        n_slots=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_replay_on_arbitrary_traces(self, kinds, args, n_slots):
        _compare_validation(kinds, args[: len(kinds)], n_slots)

    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(-2, 30)),
            min_size=1, max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_replay_on_mutated_storms(self, edits):
        kinds, args = _storm()
        for at, value in edits:
            args[at % args.size] = value
        _compare_validation(kinds, args, 8)
