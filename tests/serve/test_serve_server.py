"""PlacementServer semantics: batching, queueing, keys, snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import RingSpace
from repro.serve import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    CandidateStream,
    PlacementServer,
)
from repro.kernels import available_backends


def _server(seed=7, **kwargs):
    kwargs.setdefault("max_batch", 8)
    return PlacementServer(RingSpace.random(16, seed=9), d=2, seed=seed, **kwargs)


def _scalar_run(server):
    for i in range(40):
        server.insert(f"k{i}")
    outs = [server.lookup(f"k{i}") for i in range(40)]
    for i in range(0, 40, 3):
        server.delete(f"k{i}")
    return outs


class TestBatchingEquivalence:
    def test_scalar_vs_submit(self):
        s1 = _server()
        outs1 = _scalar_run(s1)
        s2 = _server()
        kinds = np.array([OP_INSERT] * 40 + [OP_LOOKUP] * 40
                         + [OP_DELETE] * 14, dtype=np.int8)
        keys = ([f"k{i}" for i in range(40)] * 2
                + [f"k{i}" for i in range(0, 40, 3)])
        res = s2.submit(kinds, keys)
        assert list(res[40:80]) == outs1
        assert np.array_equal(s1.loads, s2.loads)

    @pytest.mark.parametrize("max_batch", [1, 2, 7, 4096])
    def test_any_batch_size_identical(self, max_batch):
        ref = _server(max_batch=4096)
        _scalar_run(ref)
        s = _server(max_batch=max_batch)
        kinds = np.array([OP_INSERT] * 40 + [OP_LOOKUP] * 40
                         + [OP_DELETE] * 14, dtype=np.int8)
        keys = ([f"k{i}" for i in range(40)] * 2
                + [f"k{i}" for i in range(0, 40, 3)])
        s.submit(kinds, keys)
        assert np.array_equal(ref.loads, s.loads)

    def test_enqueue_flush_matches_submit(self):
        s1 = _server()
        outs1 = _scalar_run(s1)
        s2 = _server(max_pending=16)
        for i in range(40):
            s2.enqueue(OP_INSERT, f"k{i}")
        for i in range(40):
            s2.enqueue(OP_LOOKUP, f"k{i}")
        for i in range(0, 40, 3):
            s2.enqueue(OP_DELETE, f"k{i}")
        res = s2.flush()
        assert list(res[40:80]) == outs1
        assert np.array_equal(s1.loads, s2.loads)

    def test_backpressure_drains_at_capacity(self):
        s = _server(max_pending=8)
        for i in range(8):
            s.enqueue(OP_INSERT, f"k{i}")
        assert s.pending == 0  # the queue drained itself
        assert s.occupancy == 8
        assert s.flush().size == 8

    def test_scalar_ops_flush_queue_first(self):
        s = _server()
        s.enqueue(OP_INSERT, "a")
        assert s.pending == 1
        assert s.lookup("a") >= 0  # visible: the queue flushed
        assert s.flush().size == 1


def _legal_ops(picks, pool):
    """Turn ``(choice, key index)`` picks into a legal keyed op stream.

    A key that is not live is inserted; a live key is deleted when
    ``choice == 0`` and looked up otherwise.  A small pool makes keys
    come and go within one block.
    """
    live, kinds, keys = set(), [], []
    for choice, k in picks:
        key = f"k{k % pool}"
        if key not in live:
            kinds.append(OP_INSERT)
            live.add(key)
        elif choice == 0:
            kinds.append(OP_DELETE)
            live.discard(key)
        else:
            kinds.append(OP_LOOKUP)
        keys.append(key)
    return np.array(kinds, dtype=np.int8), keys


def _one_at_a_time(server, kinds, keys):
    """Reference results: insert/lookup return the bin, delete -1."""
    calls = {OP_INSERT: server.insert, OP_DELETE: server.delete,
             OP_LOOKUP: server.lookup}
    out = [calls[k](key) for k, key in zip(kinds.tolist(), keys)]
    return np.where(kinds == OP_DELETE, -1, np.array(out, dtype=np.int64))


#: numpy plus the C kernels when they build on this machine.
BACKENDS = [name for name in ("numpy", "cext") if available_backends().get(name)]


class TestBatchedEqualsOpAtATime:
    """submit / submit_ids / enqueue+flush at any max_batch == one op at a time."""

    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 1000)), max_size=160
        ),
        pool=st.integers(1, 40),
        max_batch=st.integers(1, 70),
        backend=st.sampled_from(BACKENDS),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_submission_shapes(self, picks, pool, max_batch, backend, seed):
        kinds, keys = _legal_ops(picks, pool)

        def make():
            return _server(seed=seed, max_batch=max_batch,
                           max_pending=max_batch + 5, backend=backend)

        ref = make()
        expected = _one_at_a_time(ref, kinds, keys)

        batched = make()
        assert batched.submit(kinds, keys).tolist() == expected.tolist()
        assert np.array_equal(batched.loads, ref.loads)

        queued = make()
        for kind, key in zip(kinds.tolist(), keys):
            queued.enqueue(kind, key)
        assert queued.flush().tolist() == expected.tolist()
        assert np.array_equal(queued.loads, ref.loads)

        # the same stream by ball id: the i-th insert is ball i
        ids, ball_of, inserted = [], {}, 0
        for kind, key in zip(kinds.tolist(), keys):
            if kind == OP_INSERT:
                ball_of[key] = inserted
                inserted += 1
            ids.append(ball_of[key])
        by_id = make()
        got = by_id.submit_ids(kinds, np.array(ids, dtype=np.int64))
        assert got.tolist() == expected.tolist()
        assert np.array_equal(by_id.loads, ref.loads)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_then_delete_in_one_block(self, backend):
        space = RingSpace.random(64, seed=1)
        placed = PlacementServer(space, seed=5, backend=backend).insert("k")
        s = PlacementServer(space, seed=5, backend=backend)
        res = s.submit([OP_INSERT, OP_DELETE], ["k", "k"])
        assert res.tolist() == [placed, -1]
        q = PlacementServer(space, seed=5, backend=backend)
        q.enqueue(OP_INSERT, "k")
        q.enqueue(OP_DELETE, "k")
        assert q.flush().tolist() == [placed, -1]
        assert s.occupancy == q.occupancy == 0

    @pytest.mark.parametrize("max_batch", [1, 3, 64])
    def test_submit_ids_lookup_after_delete(self, max_batch):
        # a lookup after its ball's delete reads -1 (as
        # IncrementalState.lookup does), in the delete's block or later
        kinds = np.array([OP_INSERT, OP_INSERT, OP_LOOKUP, OP_DELETE,
                          OP_LOOKUP, OP_LOOKUP, OP_DELETE, OP_LOOKUP,
                          OP_LOOKUP], dtype=np.int8)
        args = np.array([0, 1, 0, 0, 0, 1, 1, 1, 0], dtype=np.int64)
        res = _server(max_batch=max_batch).submit_ids(kinds, args)
        ref = _server()
        bins = [ref.insert("a"), ref.insert("b")]
        assert res.tolist() == [*bins, bins[0], -1, -1, bins[1], -1, -1, -1]

class TestKeySemantics:
    def test_duplicate_insert_raises(self):
        s = _server()
        s.insert("a")
        with pytest.raises(KeyError):
            s.insert("a")

    def test_unknown_delete_and_lookup_raise(self):
        s = _server()
        with pytest.raises(KeyError):
            s.delete("ghost")
        with pytest.raises(KeyError):
            s.lookup("ghost")

    def test_delete_returns_freed_bin(self):
        s = _server()
        placed = s.insert("a")
        assert s.delete("a") == placed
        assert s.occupancy == 0
        s.insert("a")  # the key can come back
        assert s.occupancy == 1

    def test_batch_results_shape(self):
        s = _server()
        res = s.submit(
            np.array([OP_INSERT, OP_LOOKUP, OP_DELETE], dtype=np.int8),
            ["a", "a", "a"],
        )
        assert res[0] == res[1]  # insert and lookup agree on the bin
        assert res[2] == -1  # deletes report -1 in batch results

    def test_submit_ids_requires_consecutive_inserts(self):
        s = _server()
        with pytest.raises(ValueError, match="consecutive"):
            s.submit_ids(
                np.array([OP_INSERT], dtype=np.int8),
                np.array([5], dtype=np.int64),
            )

    @pytest.mark.parametrize("max_batch", [1, 8])
    @pytest.mark.parametrize("kind", [OP_DELETE, OP_LOOKUP])
    def test_submit_ids_rejects_unassigned_ids(self, kind, max_batch):
        # ball 1 is assigned by the insert that follows the op: too late,
        # whatever the block split
        for bad in (1, -1):
            s = _server(max_batch=max_batch)
            with pytest.raises(ValueError, match="assigned"):
                s.submit_ids(
                    np.array([OP_INSERT, kind, OP_INSERT], dtype=np.int8),
                    np.array([0, bad, 1], dtype=np.int64),
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("max_batch", [1, 8, 64])
    def test_submit_ids_rejects_deleting_an_unplaced_ball(self, backend, max_batch):
        # ball 5 deleted in an earlier call, or a ball deleted twice
        # within one call: the failing block is rejected before it is
        # applied (blocks before it in the call are applied) and the
        # state stays consistent
        for kinds, args in (
            ([OP_DELETE], [5]),
            ([OP_LOOKUP, OP_DELETE], [7, 5]),
            ([OP_DELETE, OP_DELETE], [9, 9]),
            ([OP_INSERT, OP_DELETE, OP_DELETE], [80, 80, 80]),
        ):
            s = _server(max_batch=max_batch, backend=backend)
            s.submit_ids(np.zeros(80, dtype=np.int8),
                         np.arange(80, dtype=np.int64))
            s.submit_ids(np.array([OP_DELETE], dtype=np.int8),
                         np.array([5], dtype=np.int64))
            before = s.state.loads.copy()
            with pytest.raises(ValueError, match="still placed"):
                s.submit_ids(np.array(kinds, dtype=np.int8),
                             np.array(args, dtype=np.int64))
            s.state.check()
            if len(kinds) <= max_batch or kinds[0] == OP_LOOKUP:
                assert np.array_equal(s.state.loads, before)
                assert s.occupancy == 79
            # a lookup of the deleted ball is still legal and reads -1
            assert s.submit_ids(np.array([OP_LOOKUP], dtype=np.int8),
                                np.array([5], dtype=np.int64)).tolist() == [-1]

    def test_invalid_kinds_and_lengths(self):
        s = _server()
        with pytest.raises(ValueError, match="op kinds"):
            s.submit([3], ["a"])
        with pytest.raises(ValueError, match="op kinds"):
            s.enqueue(7, "a")
        with pytest.raises(ValueError, match="keys"):
            s.submit([OP_INSERT, OP_INSERT], ["a"])
        with pytest.raises(ValueError, match="same shape"):
            s.submit_ids([OP_INSERT], [0, 1])
        assert s.occupancy == 0 and s.pending == 0

    def test_failed_submit_restores_key_map(self):
        space = RingSpace.random(64, seed=1)
        s = PlacementServer(space, seed=5)
        with pytest.raises(KeyError):
            s.submit([OP_INSERT, OP_LOOKUP], ["a", "zzz"])
        with pytest.raises(KeyError):
            s.lookup("a")  # the failed block left no trace
        ref = PlacementServer(space, seed=5)
        assert s.insert("b") == ref.insert("b")
        assert s.delete("b") == ref.lookup("b")
        assert s.occupancy == 0

    def test_failed_block_restores_deleted_and_reinserted_keys(self):
        s = _server()
        bins = [s.insert("x"), s.insert("y")]
        with pytest.raises(KeyError):
            s.submit([OP_DELETE, OP_DELETE, OP_INSERT, OP_LOOKUP],
                     ["x", "y", "y", "ghost"])
        assert [s.lookup("x"), s.lookup("y")] == bins
        assert s.delete("y") == bins[1] and s.occupancy == 1

    def test_failed_block_keeps_earlier_blocks(self):
        s = _server(max_batch=3)
        with pytest.raises(KeyError):
            # block 1 = [ins a, ins b, del a] applies; block 2 =
            # [ins a, del ghost] fails and its insert of a is undone
            s.submit([OP_INSERT, OP_INSERT, OP_DELETE, OP_INSERT, OP_DELETE],
                     ["a", "b", "a", "a", "ghost"])
        assert s.occupancy == 1
        with pytest.raises(KeyError):
            s.lookup("a")
        ref = _server()
        ref.insert("a")
        assert s.lookup("b") == ref.insert("b")
        ref.delete("a")
        assert s.insert("c") == ref.insert("c")


class TestChurn:
    def test_bin_leave_relocates(self):
        s = _server()
        for i in range(30):
            s.insert(f"k{i}")
        victim = int(np.flatnonzero(s.loads > 0)[0])
        before = s.occupancy
        s.bin_leave(victim)
        assert s.occupancy == before  # balls moved, none lost
        assert s.loads[victim] == 0
        s.bin_join(victim)
        assert s.state.active[victim]

    def test_decisions_independent_of_arrival_pattern(self):
        # the online stream draws whole RNG blocks, so interleaving
        # reads between inserts cannot shift later decisions
        s1 = _server(seed=21)
        bins1 = [s1.insert(f"k{i}") for i in range(20)]
        s2 = _server(seed=21)
        bins2 = []
        for i in range(20):
            bins2.append(s2.insert(f"k{i}"))
            for j in range(i + 1):
                s2.lookup(f"k{j}")
        assert bins1 == bins2


class TestSnapshot:
    def test_save_load_roundtrip_continues_identically(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5)
        for i in range(20):
            a.insert(f"k{i}")
        a.save(path)
        b, _ = PlacementServer.load(path)
        for i in range(20, 45):
            assert a.insert(f"k{i}") == b.insert(f"k{i}")
        assert np.array_equal(a.loads, b.loads)
        assert a.lookup("k3") == b.lookup("k3")

    def test_load_restores_key_map_and_knobs(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5, max_batch=4, max_pending=32)
        a.insert("hello")
        a.save(path)
        b, _ = PlacementServer.load(path)
        assert b.max_batch == 4 and b.max_pending == 32
        assert b.lookup("hello") == a.lookup("hello")
        with pytest.raises(KeyError):
            b.insert("hello")

    def test_save_flushes_queue(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5)
        a.enqueue(OP_INSERT, "queued")
        a.save(path)
        b, _ = PlacementServer.load(path)
        assert b.lookup("queued") >= 0

    def test_extra_payload_roundtrip(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5)
        a.insert("x")
        a.save(path, extra_arrays={"series": np.arange(3)},
               extra_meta={"tag": "t1"})
        _, extra = PlacementServer.load(path)
        assert extra["meta"]["tag"] == "t1"
        assert np.array_equal(extra["arrays"]["series"], np.arange(3))


class TestLatencyStats:
    def test_counts_and_ordering(self):
        s = _server()
        for i in range(10):
            s.insert(f"k{i}")
        st = s.latency_stats()
        assert st.count == 10
        assert 0 < st.p50_s <= st.p95_s <= st.p99_s <= st.max_s
        assert st.ops_per_s > 0
        assert "ops/s" in st.format()

    def test_blocks_and_scalar_ops_fold_together(self):
        from repro.serve.server import _LatencyRecorder

        rec = _LatencyRecorder()
        rec.record(0.008, 4)  # four ops at 2 ms each
        rec.scalar.extend([0.001, 0.003, 0.005])
        st = rec.stats()
        assert st.count == 7
        assert st.total_s == pytest.approx(0.017)
        assert st.p50_s == pytest.approx(0.002)  # 4 of 7 ops took 2 ms
        assert st.max_s == pytest.approx(0.005)
        s = _server()
        s.submit([OP_INSERT] * 3, ["a", "b", "c"])
        s.lookup("a")
        assert s.latency_stats().count == 4

    def test_empty_stats(self):
        st = _server().latency_stats()
        assert st.count == 0 and st.ops_per_s == 0.0

    def test_reset(self):
        s = _server()
        s.insert("a")
        s.reset_latency()
        assert s.latency_stats().count == 0


class TestValidation:
    def test_pending_must_cover_batch(self):
        with pytest.raises(ValueError, match="max_pending"):
            _server(max_batch=64, max_pending=8)

    def test_prebuilt_state_needs_stream(self):
        from repro.core.incremental import IncrementalState

        space = RingSpace.random(16, seed=9)
        state = IncrementalState(space, 2, "random")
        with pytest.raises(ValueError, match="stream"):
            PlacementServer(space, 2, state=state)

    def test_predrawn_hook_gates_scalar_inserts(self):
        from repro.core.incremental import IncrementalState

        space = RingSpace.random(16, seed=9)
        rng = np.random.default_rng(3)
        cands, us = space.sample_choice_bins(rng, 8, 2), rng.random(8)
        asked = []
        stream = CandidateStream.predrawn(cands, us, ensure=asked.append)
        s = PlacementServer(space, 2, state=IncrementalState(space, 2, "random"),
                            stream=stream)
        s.insert("a")
        s.insert("b")
        assert asked == [1, 2]  # each row is confirmed before it is read
        assert stream.drawn == 2

    def test_predrawn_stream_exhaustion(self):
        space = RingSpace.random(16, seed=9)
        stream = CandidateStream.predrawn(
            np.zeros((2, 2), dtype=np.int64), np.zeros(2)
        )
        with pytest.raises(RuntimeError, match="exhausted"):
            stream.ensure(3)
