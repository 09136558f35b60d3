"""Routing fast paths of the overlay simulator against their references.

* the wrapped-offset ring-interval tests against plain Python integers;
* the ``chord_route`` kernel against the numpy ``NetSim._route``;
* the round-based ``_scrub`` against one-scrub-at-a-time application;
* a keyed churn run whose event-log digest is the same whichever
  routing path ran.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from netutil import run_bounded_schedule

from repro.kernels import available_backends, get_backend
from repro.net import NetConfig, NetSim
from repro.net.simulator import _in_open, _in_ropen

TOP = (1 << 64) - 1
SPECIAL = [0, 1, 2, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, TOP - 1, TOP]
ring_ids = st.one_of(st.sampled_from(SPECIAL), st.integers(0, TOP))

HAS_CEXT = available_backends()["cext"]
needs_cext = pytest.mark.skipif(not HAS_CEXT, reason="cext backend unavailable")


def ref_open(x: int, a: int, b: int) -> bool:
    if a < b:
        return a < x < b
    if a > b:
        return x > a or x < b
    return x != a


def ref_ropen(x: int, a: int, b: int) -> bool:
    if a < b:
        return a < x <= b
    if a > b:
        return x > a or x <= b
    return True


def _u64(values):
    return np.array(values, dtype=np.uint64)


class TestIntervals:
    @given(st.lists(st.tuples(ring_ids, ring_ids, ring_ids), min_size=1,
                    max_size=40))
    def test_arrays_match_python_ints(self, triples):
        xs, as_, bs = (list(c) for c in zip(*triples))
        got_open = _in_open(_u64(xs), _u64(as_), _u64(bs))
        got_ropen = _in_ropen(_u64(xs), _u64(as_), _u64(bs))
        assert got_open.tolist() == [ref_open(*t) for t in triples]
        assert got_ropen.tolist() == [ref_ropen(*t) for t in triples]

    @given(ring_ids, ring_ids)
    def test_equal_endpoints(self, x, a):
        """``(a, a)`` is the ring minus ``a``; ``(a, a]`` is the whole ring."""
        x_arr, a_arr = _u64([x, a]), _u64([a, a])
        assert _in_open(x_arr, a_arr, a_arr).tolist() == [x != a, False]
        assert _in_ropen(x_arr, a_arr, a_arr).tolist() == [True, True]

    @given(ring_ids, ring_ids, ring_ids)
    def test_numpy_scalars(self, x, a, b):
        with np.errstate(over="ignore"):
            assert bool(_in_open(np.uint64(x), np.uint64(a), np.uint64(b))) \
                == ref_open(x, a, b)
            assert bool(_in_ropen(np.uint64(x), np.uint64(a), np.uint64(b))) \
                == ref_ropen(x, a, b)


def _random_table(seed: int, s: int, f: int):
    """A simulator over ``s`` random ids with a messy ``(s, f)`` finger table.

    Entries mix empty (-1), self and arbitrary (stale) slots; targets mix
    the querying peer's own id, its id + 1, other peers' ids, special
    ring values and uniform draws.
    """
    rng = np.random.default_rng(seed)
    pool = np.concatenate([
        _u64(SPECIAL),
        rng.integers(0, TOP, size=4 * s, dtype=np.uint64, endpoint=True),
    ])
    ids = np.unique(rng.choice(pool, size=s, replace=True))
    if ids.size < 2:
        ids = _u64([0, TOP])
    s = ids.size
    sim = NetSim(ids.tolist(), cfg=NetConfig(n_fingers=f), seed=0)
    kind = rng.integers(0, 3, size=(s, f))
    stale = rng.integers(0, s, size=(s, f))
    own = np.broadcast_to(np.arange(s)[:, None], (s, f))
    sim.fingers[:] = np.where(kind == 0, -1, np.where(kind == 1, own, stale))
    q = 3 * s
    cur = rng.integers(0, s, size=q).astype(np.int64)
    cid = ids[cur]
    pick = rng.integers(0, 5, size=q)
    other = ids[rng.integers(0, s, size=q)]
    special = _u64(SPECIAL)[rng.integers(0, len(SPECIAL), size=q)]
    uniform = rng.integers(0, TOP, size=q, dtype=np.uint64, endpoint=True)
    target = np.select(
        [pick == 0, pick == 1, pick == 2, pick == 3],
        [cid, cid + np.uint64(1), other, special], uniform,
    ).astype(np.uint64)
    return sim, cur, target


@needs_cext
class TestChordRoute:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 48),
           st.sampled_from([32, 64]))
    def test_matches_numpy_route(self, seed, s, f):
        sim, cur, target = _random_table(seed, s, f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_KERNEL_BACKEND", "numpy")
            ref = sim._route(cur, target)
            mp.setenv("REPRO_KERNEL_BACKEND", "cext")
            dispatched = sim._route(cur, target)
        kernel = get_backend("cext").chord_route
        np.testing.assert_array_equal(
            kernel(cur, target, sim.fingers, sim.ids), ref)
        np.testing.assert_array_equal(dispatched, ref)

    def test_target_equal_to_self_takes_the_highest_other_finger(self):
        """``(cid, cid)`` is the ring minus ``cid``: any non-self finger fits."""
        sim = NetSim([10, 20, 30, 40], cfg=NetConfig(n_fingers=32), seed=0)
        sim.fingers[:] = -1
        sim.fingers[1, [0, 5, 31]] = [3, 0, 1]  # column 31 is self
        got = get_backend("cext").chord_route(
            np.array([1, 2]), _u64([20, 30]), sim.fingers, sim.ids)
        assert got.tolist() == [0, -1]

    def test_rejects_out_of_range_indices(self):
        sim = NetSim([10, 20, 30, 40], cfg=NetConfig(n_fingers=32), seed=0)
        kernel = get_backend("cext").chord_route
        target = _u64([25])
        for cur in (4, -1, 1 << 40):
            with pytest.raises(ValueError, match="outside"):
                kernel(np.array([cur]), target, sim.fingers, sim.ids)
        sim.fingers[2, 31] = 4  # the first column the scan reads
        with pytest.raises(ValueError, match="outside"):
            kernel(np.array([0, 2]), _u64([25, 5]), sim.fingers, sim.ids)

    def test_rejects_mismatched_shapes(self):
        sim = NetSim([10, 20, 30, 40], cfg=NetConfig(n_fingers=32), seed=0)
        kernel = get_backend("cext").chord_route
        for args in (
            (np.array([0, 1]), _u64([5]), sim.fingers, sim.ids),
            (np.array([0]), _u64([5]), sim.fingers[0], sim.ids),
            (np.array([0]), _u64([5]), sim.fingers, sim.ids[:3]),
        ):
            with pytest.raises(ValueError, match="chord_route needs"):
                kernel(*args)


class TestScrub:
    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_survivors_equal_one_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        cfg = NetConfig(n_fingers=16)
        sim, batched, serial = (NetSim.stable(32, cfg=cfg, seed=seed)
                                for _ in range(3))
        survivors = rng.choice(32, size=5, replace=False)
        u, v = [], []
        for _ in range(24):
            s = int(rng.choice(survivors))
            state = np.concatenate([sim.fingers[s], sim.succ[s], [sim.pred[s]]])
            u.append(s)
            # mostly a peer the survivor actually references
            v.append(int(rng.choice(state)) if rng.random() < 0.8
                     else int(rng.integers(0, 32)))
        u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        batched._scrub(u, v)
        for i in range(u.size):
            serial._scrub(u[i:i + 1], v[i:i + 1])
        for name in ("fingers", "succ", "pred"):
            np.testing.assert_array_equal(getattr(batched, name),
                                          getattr(serial, name), err_msg=name)
        assert not np.array_equal(batched.succ, sim.succ)


@needs_cext
def test_keyed_churn_digest_independent_of_route_path(monkeypatch):
    """64 peers, full protocol with keys: same event stream on both paths."""
    runs = {}
    for name in ("numpy", "cext"):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
        sim, _, report = run_bounded_schedule(7, n=64, waves=2, n_keys=64)
        assert report.ok, report.violations[:3]
        runs[name] = (sim.log.digest(), sim.log.total, sim.metrics.summary())
    assert runs["numpy"] == runs["cext"]
