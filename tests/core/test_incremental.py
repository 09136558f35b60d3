"""IncrementalState: O(d) single-op updates, churn, growth, snapshots."""

import copy

import numpy as np
import pytest
from helpers import build_space
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.incremental import KIND_DELETE, KIND_INSERT, IncrementalState
from repro.core.ring import RingSpace
from repro.kernels import (
    SMALL_WINDOW_CUTOFF,
    KernelBackend,
    available_backends,
    get_backend,
)


def _state(n=16, d=2, seed=0, **kwargs):
    space = RingSpace.random(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return space, rng, IncrementalState(
        space, d, "random", aux_rng=rng.spawn(1)[0], **kwargs
    )


def _draw(space, rng, count, d=2):
    cands = space.sample_choice_bins(rng, count, d)
    us = rng.random(count)
    return cands, us


class TestSingleOps:
    def test_insert_tracks_loads(self):
        space, rng, st = _state()
        cands, us = _draw(space, rng, 10)
        bins = [st.insert(i, cands[i], float(us[i])) for i in range(10)]
        assert st.occupancy == 10
        assert st.loads.sum() == 10
        for i, b in enumerate(bins):
            assert st.lookup(i) == b
            assert b in cands[i]

    def test_delete_vacates(self):
        space, rng, st = _state()
        cands, us = _draw(space, rng, 3)
        placed = st.insert(0, cands[0], float(us[0]))
        assert st.delete(0) == placed
        assert st.occupancy == 0
        assert st.lookup(0) == -1

    def test_delete_unplaced_raises(self):
        _, _, st = _state()
        with pytest.raises(RuntimeError):
            st.delete(5)

    def test_lookup_out_of_range(self):
        _, _, st = _state()
        assert st.lookup(999) == -1

    def test_ball_index_grows(self):
        space, rng, st = _state()  # expect_balls defaults to 0
        cands, us = _draw(space, rng, 100)
        for i in range(100):
            st.insert(i, cands[i], float(us[i]))
        assert st.occupancy == 100

    def test_churn_needs_aux_rng(self):
        space = RingSpace.random(16, seed=0)
        st = IncrementalState(space, 2, "random")
        rng = np.random.default_rng(1)
        cands, us = _draw(space, rng, 5)
        for i in range(5):
            st.insert(i, cands[i], float(us[i]))
        victim = int(np.flatnonzero(st.loads > 0)[0])
        with pytest.raises(RuntimeError, match="aux_rng"):
            st.bin_leave(victim)


class TestApplyWindow:
    @pytest.mark.parametrize("rows", [1, 8, 16, 17, 200])
    def test_window_matches_scalar(self, rows):
        # below/above SMALL_WINDOW_CUTOFF both equal the scalar loop
        space, rng, st1 = _state(seed=3)
        cands, us = _draw(space, rng, rows)
        kinds = np.full(rows, KIND_INSERT, dtype=np.int8)
        kinds[1::4] = KIND_DELETE
        kinds[0] = KIND_INSERT
        args = np.empty(rows, dtype=np.int64)
        nxt = 0
        live = []
        for i in range(rows):
            if kinds[i] == KIND_INSERT or not live:
                kinds[i] = KIND_INSERT
                args[i] = nxt
                live.append(nxt)
                nxt += 1
            else:
                args[i] = live.pop(0)
        # scalar reference
        for i in range(rows):
            if kinds[i] == KIND_INSERT:
                st1.insert(args[i], cands[args[i]], float(us[args[i]]))
            else:
                st1.delete(args[i])
        space2, rng2, st2 = _state(seed=3)
        st2.apply_window(kinds, args, 0, rows, cands, us, batch_size=64)
        assert np.array_equal(st1.loads, st2.loads)
        assert np.array_equal(st1.live_loads(), st2.live_loads())

    def test_partition_invariance(self):
        space, rng, ref = _state(seed=4)
        cands, us = _draw(space, rng, 50)
        kinds = np.full(50, KIND_INSERT, dtype=np.int8)
        args = np.arange(50, dtype=np.int64)
        ref.apply_window(kinds, args, 0, 50, cands, us, batch_size=64)
        for cut in (1, 13, 49):
            _, _, st = _state(seed=4)
            st.apply_window(kinds, args, 0, cut, cands, us, batch_size=64)
            st.apply_window(kinds, args, cut, 50, cands, us, batch_size=64)
            assert np.array_equal(ref.loads, st.loads)


# ----------------------------------------------------------------------
# apply_window(out=): every dispatch tier against sequential insert/delete
# ----------------------------------------------------------------------
def _numba_body_backend():
    """The numba kernel's loop run as plain Python (no JIT needed)."""
    from repro.kernels.numba_backend import _dynamic_window_impl

    empty_i8 = np.empty(0, dtype=np.int64)
    empty_f8 = np.empty(0, dtype=np.float64)

    def dynamic_window(kinds, args, start, stop, cands, us, d, remap, loads,
                       measures, strategy_code, ball_bin, out=None):
        return _dynamic_window_impl(
            kinds, args, start, stop, cands, us, d,
            empty_i8 if remap is None else remap, remap is not None,
            loads, empty_f8 if measures is None else measures,
            measures is not None, strategy_code, ball_bin,
            empty_i8 if out is None else out, out is not None,
        )

    return KernelBackend("numba-body", dynamic_window=dynamic_window)


def _tier_backend(tier):
    """The backend that sends a window above SMALL_WINDOW_CUTOFF to ``tier``."""
    if tier == "numpy-prefix":
        return None
    if tier == "numba-body":
        return _numba_body_backend()
    if not available_backends().get(tier):
        pytest.skip(f"kernel backend {tier!r} unavailable on this machine")
    return get_backend(tier)


def _window_case(seed, strategy, rows, *, pre=12, leaves=(), del_p=0.4):
    """A churned state plus a legal window: deletes hit live balls,
    including balls inserted earlier in the same window."""
    space = RingSpace.random(24, seed=seed)
    rng = np.random.default_rng(seed + 1)
    state = IncrementalState(space, 2, strategy, aux_rng=rng.spawn(1)[0])
    cands, us = _draw(space, rng, pre + rows)
    for i in range(pre):
        state.insert(i, cands[i], float(us[i]))
    for slot in leaves:
        state.bin_leave(slot)
    live, nxt = list(range(pre)), pre
    kinds = np.empty(rows, dtype=np.int8)
    args = np.empty(rows, dtype=np.int64)
    for i in range(rows):
        if live and rng.random() < del_p:
            kinds[i] = KIND_DELETE
            args[i] = live.pop(int(rng.integers(len(live))))
        else:
            kinds[i], args[i] = KIND_INSERT, nxt
            live.append(nxt)
            nxt += 1
    return state, kinds, args, cands, us


def _assert_same_index(a, b):
    """Equal ball→bin maps (capacities may differ; the excess is -1)."""
    m = min(a.ball_bin.size, b.ball_bin.size)
    assert np.array_equal(a.ball_bin[:m], b.ball_bin[:m])
    assert (a.ball_bin[m:] == -1).all() and (b.ball_bin[m:] == -1).all()




class TestApplyWindowOut:
    """``out`` equals what sequential insert/delete return, on every tier."""

    @staticmethod
    def _check(tier, seed, strategy, rows, leaves=(), batch_size=64, **case):
        state, kinds, args, cands, us = _window_case(
            seed, strategy, rows, leaves=leaves, **case
        )
        ref = copy.deepcopy(state)
        expected = np.array(
            [
                ref.insert(int(a), cands[a], float(us[a])) if k == KIND_INSERT
                else ref.delete(int(a))
                for k, a in zip(kinds, args)
            ],
            dtype=np.int64,
        )
        # the window sits inside longer arrays: out outside it is untouched
        pad = 3
        kinds_p = np.concatenate((np.full(pad, KIND_INSERT, np.int8), kinds))
        args_p = np.concatenate((np.zeros(pad, np.int64), args))
        out = np.full(pad + rows + 2, -7, dtype=np.int64)
        state.apply_window(
            kinds_p, args_p, pad, pad + rows, cands, us,
            batch_size=batch_size, backend=_tier_backend(tier), out=out,
        )
        assert out[pad : pad + rows].tolist() == expected.tolist()
        assert (out[:pad] == -7).all() and (out[pad + rows :] == -7).all()
        assert np.array_equal(state.loads, ref.loads)
        _assert_same_index(state, ref)
        assert (state.inserts_done, state.deletes_done) == (
            ref.inserts_done, ref.deletes_done
        )
        state.check()

    @pytest.mark.parametrize("tier", ["numpy-prefix", "cext", "numba", "numba-body"])
    @pytest.mark.parametrize("rows", [1, 5, 16])
    def test_scalar_tier(self, tier, rows):
        # at or below SMALL_WINDOW_CUTOFF every backend steps scalar
        assert rows <= SMALL_WINDOW_CUTOFF
        self._check(tier, 7, "random", rows)

    @pytest.mark.parametrize("tier", ["numpy-prefix", "cext", "numba", "numba-body"])
    @pytest.mark.parametrize("strategy", ["random", "first", "smaller", "larger"])
    @pytest.mark.parametrize("leaves", [(), (3, 4, 11, 23)], ids=["identity", "remap"])
    def test_large_window_tiers(self, tier, strategy, leaves):
        self._check(tier, 11, strategy, 120, leaves=leaves)

    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 90),
        strategy=st.sampled_from(["random", "first", "smaller", "larger"]),
        leaves=st.lists(st.integers(0, 23), max_size=6, unique=True),
        batch_size=st.sampled_from([4, 16, 64]),
        tier=st.sampled_from(
            ["numpy-prefix", "numba-body"]
            + (["cext"] if available_backends().get("cext") else [])
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_windows(self, seed, rows, strategy, leaves, batch_size, tier):
        self._check(tier, seed, strategy, rows, leaves=leaves, batch_size=batch_size)

    @pytest.mark.parametrize("tier", ["numpy-prefix", "cext", "numba-body"])
    @pytest.mark.parametrize("rows", [10, 60])
    def test_insert_then_delete_same_ball(self, tier, rows):
        # from an empty state with del_p=1 every insert is deleted by the
        # next event: each ball's insert and delete share one window
        self._check(tier, 5, "random", rows, pre=0, del_p=1.0)

    def test_without_out_unchanged(self):
        state, kinds, args, cands, us = _window_case(3, "random", 60)
        twin = copy.deepcopy(state)
        state.apply_window(kinds, args, 0, 60, cands, us, batch_size=64)
        twin.apply_window(kinds, args, 0, 60, cands, us, batch_size=64,
                          out=np.empty(60, dtype=np.int64))
        assert np.array_equal(state.loads, twin.loads)
        _assert_same_index(state, twin)


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        space, rng, st = _state(seed=5)
        cands, us = _draw(space, rng, 20)
        for i in range(20):
            st.insert(i, cands[i], float(us[i]))
        st.delete(3)
        path = tmp_path / "core.npz"
        st.save(path)
        restored, extra = IncrementalState.load(path)
        assert np.array_equal(restored.loads, st.loads)
        assert np.array_equal(restored.ball_bin[:20], st.ball_bin[:20])
        assert restored.inserts_done == 20 and restored.deletes_done == 1
        assert restored.strategy == st.strategy
        assert extra["meta"] == {}

    def test_restored_churn_rng_continues_identically(self, tmp_path):
        space, rng, st = _state(seed=6)
        cands, us = _draw(space, rng, 30)
        for i in range(30):
            st.insert(i, cands[i], float(us[i]))
        path = tmp_path / "core.npz"
        st.save(path)
        restored, _ = IncrementalState.load(path)
        victim = int(np.flatnonzero(st.loads > 0)[0])
        st.bin_leave(victim)
        restored.bin_leave(victim)
        assert np.array_equal(st.loads, restored.loads)
        assert np.array_equal(st.ball_bin[:30], restored.ball_bin[:30])

    def test_core_prefix_reserved(self, tmp_path):
        _, _, st = _state()
        with pytest.raises(ValueError, match="core_"):
            st.save(tmp_path / "x.npz",
                    extra_arrays={"core_evil": np.zeros(1)})

    def test_space_mismatch_rejected(self, tmp_path):
        space, rng, st = _state(n=16)
        st.save(tmp_path / "x.npz")
        with pytest.raises(ValueError):
            IncrementalState.load(tmp_path / "x.npz",
                                  space=RingSpace.random(8, seed=0))


# ----------------------------------------------------------------------
# churn: the O(gap) update against the O(n) full rebuild
# ----------------------------------------------------------------------
def _churn_state(n, strategy, seed=0, balls=24, kind="ring"):
    # torus cell areas, unlike ring arcs, rarely sum to the same double
    # in two orders, so they catch a summation-order change
    space = build_space(kind, n, seed)
    rng = np.random.default_rng(seed + 1)
    state = IncrementalState(space, 2, strategy, aux_rng=rng.spawn(1)[0])
    cands, us = _draw(space, rng, balls)
    for i in range(balls):
        state.insert(i, cands[i], float(us[i]))
    return state


def _assert_matches_rebuild(state):
    remap, measures = state._recompute_topology()
    if remap is None:
        assert state.remap is None
    else:
        assert state.remap.tobytes() == remap.tobytes()
    if measures is None:
        assert state.measures is None
    else:
        assert state.measures.tobytes() == measures.tobytes()
    state.check()


def _run_churn(n, strategy, ops, seed=0, kind="ring"):
    """Apply ``(leave?, slot)`` ops, skipping invalid ones; compare each step."""
    state = _churn_state(n, strategy, seed, kind=kind)
    for leave, slot in ops:
        slot %= n
        if leave and state.active[slot] and state.active.sum() > 1:
            state.bin_leave(slot)
        elif not leave and not state.active[slot]:
            state.bin_join(slot)
        else:
            continue
        _assert_matches_rebuild(state)
    return state


STRATEGIES = ["random", "smaller", "larger"]


class TestChurnMatchesRebuild:
    @given(
        n=st.integers(1, 40),
        strategy=st.sampled_from(STRATEGIES),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 39)), max_size=60),
        seed=st.integers(0, 3),
        kind=st.sampled_from(["ring", "torus"]),
    )
    @settings(max_examples=150, deadline=None)
    @example(n=2, strategy="smaller", ops=[(True, 0), (False, 0), (True, 1)],
             seed=0, kind="ring")
    @example(n=5, strategy="larger", ops=[(True, 0), (True, 4), (False, 4)],
             seed=1, kind="ring")
    def test_arbitrary_sequences(self, n, strategy, ops, seed, kind):
        _run_churn(n, strategy, ops, seed, kind)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind, n", [("ring", 2), ("ring", 7), ("ring", 300),
                                         ("torus", 1000)])
    def test_all_but_one_leave_then_all_rejoin(self, kind, n, strategy):
        order = np.random.default_rng(n).permutation(n)
        survivor = int(order[-1])
        ops = [(True, int(s)) for s in order[:-1]]
        ops += [(False, int(s)) for s in order[:-1][::-1]]
        state = _run_churn(n, strategy, ops, kind=kind)
        assert state.remap is None and state.measures is state.base_measures
        assert state.active.all() and state._inactive == 0
        # the survivor held every ball at the bottom of the storm
        assert state.loads[survivor] == state.occupancy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_wrapping_gaps(self, strategy):
        n = 9
        ops = [(True, 0), (True, n - 1), (True, n - 2), (True, 1),
               (False, n - 1), (False, 0), (True, 0), (False, 1), (False, 0),
               (False, n - 2)]
        state = _run_churn(n, strategy, ops)
        assert state.remap is None

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_leave_rejoin_leave_same_slot(self, strategy):
        state = _run_churn(6, strategy, [(True, 3), (False, 3), (True, 3)])
        assert state.remap[3] == 4 and not state.active[3]
        assert state.loads[3] == 0

    def test_single_bin_cannot_leave(self):
        state = _churn_state(1, "smaller")
        with pytest.raises(ValueError, match="last active bin"):
            state.bin_leave(0)
        state.bin_join(0)  # already active: no-op
        assert state.remap is None and state.loads[0] == state.occupancy
        state.check()

    def test_repeat_churn_is_a_noop(self):
        state = _churn_state(8, "larger")
        state.bin_leave(2)
        before = (state.remap.copy(), state.measures.copy(), state.loads.copy())
        state.bin_leave(2)
        state.bin_join(5)
        assert np.array_equal(before[0], state.remap)
        assert np.array_equal(before[1], state.measures)
        assert np.array_equal(before[2], state.loads)

    def test_slot_out_of_range(self):
        state = _churn_state(4, "random")
        with pytest.raises(ValueError, match="outside"):
            state.bin_leave(4)
        with pytest.raises(ValueError, match="outside"):
            state.bin_join(-1)


class TestCheck:
    def test_clean_state_passes(self):
        _churn_state(16, "smaller").check()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda s: s.loads.__setitem__(0, s.loads[0] + 1), "bincount"),
            (lambda s: setattr(s, "inserts_done", s.inserts_done + 1),
             "inserts_done"),
            (lambda s: s.active.__setitem__(int(s.ball_bin[0]), False),
             "inactive bin holds balls"),
            (lambda s: setattr(s, "remap", np.arange(s.n)), "remap"),
            (lambda s: s.measures.__setitem__(0, 9.0), "measures"),
            (lambda s: setattr(s, "_inactive", 2), "counter"),
        ],
        ids=["loads", "counters", "inactive-load", "remap", "measures",
             "inactive-count"],
    )
    def test_names_the_broken_invariant(self, corrupt, message):
        state = _churn_state(16, "smaller")
        state.bin_leave(5)
        corrupt(state)
        with pytest.raises(ValueError, match=message):
            state.check()

    def test_repro_check_runs_after_churn(self, monkeypatch):
        state = _churn_state(16, "random")
        state.loads[0] += 1  # corrupted before the churn event
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        state.bin_leave(3)  # unchecked
        monkeypatch.setenv("REPRO_CHECK", "1")
        with pytest.raises(ValueError, match="bincount"):
            state.bin_join(3)

    def test_load_rejects_corrupt_snapshot(self, tmp_path):
        state = _churn_state(16, "random")
        state.loads[1] += 2
        state.save(tmp_path / "bad.npz")
        with pytest.raises(ValueError, match="bincount"):
            IncrementalState.load(tmp_path / "bad.npz")

    def test_load_restores_churned_topology(self, tmp_path):
        state = _churn_state(16, "larger")
        for slot in (0, 15, 7):
            state.bin_leave(slot)
        state.save(tmp_path / "ck.npz")
        restored, _ = IncrementalState.load(tmp_path / "ck.npz")
        assert restored.remap.tobytes() == state.remap.tobytes()
        assert restored.measures.tobytes() == state.measures.tobytes()
        assert restored._inactive == 3


class TestCrashSafeSave:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        state = _churn_state(16, "random")
        path = tmp_path / "ck.npz"
        state.save(path)
        good = path.read_bytes()
        state.bin_leave(4)

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            state.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
        restored, _ = IncrementalState.load(path)
        restored.check()
        assert restored.active.all()

    def test_npz_suffix_appended_to_str_path(self, tmp_path):
        state = _churn_state(8, "random")
        state.save(str(tmp_path / "ck"))
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
        restored, _ = IncrementalState.load(tmp_path / "ck.npz")
        assert np.array_equal(restored.loads, state.loads)
