"""Bit-identity of every accelerated backend against the numpy reference.

The backend contract (:mod:`repro.kernels`) is that results never
depend on the backend.  These tests enforce it at every level the
kernels plug in: fused placements (loads and per-ball heights), dynamic
trajectories (per-epoch snapshots included), the raw ring lookup, the
raw torus lookup (against a brute-force oracle and cKDTree), and the
``backend=`` kwarg surface of :func:`repro.stats.trials.run_cell`.

Backends that cannot build on this machine (numba not installed, no C
compiler) are skipped, not failed — the numpy reference path is covered
by the rest of the suite either way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import torus_nearest_oracle as _torus_oracle
from scipy.spatial import cKDTree

from repro.core.multitrial import run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace, grid_index
from repro.dynamics import simulate_dynamics
from repro.dynamics.events import churn_storm_trace, steady_state_trace
from repro.kernels import available_backends, get_backend
from repro.stats.trials import CellSpec, run_cell

#: Accelerated backends usable on this machine (parametrization set).
ACCELERATED = [
    name for name, ok in available_backends().items()
    if ok and name != "numpy"
]

pytestmark = pytest.mark.skipif(
    not ACCELERATED, reason="no accelerated kernel backend on this machine"
)

STRATEGIES = list(TieBreak)


def _fused_pair(backend_name, space_cls, strategy, monkeypatch, *, t=4,
                n=192, m=260, d=3, partitioned=False, seed0=50):
    """A fused cell on the numpy reference and on ``backend_name``.

    Each side pins ``REPRO_KERNEL_BACKEND``, not just ``backend=``:
    the spaces' ``assign`` lookups (``ring_assign``, ``torus_assign``)
    follow the environment alone, so the kwarg would leave both sides
    on the same lookup path.
    """
    spaces = [space_cls.random(n, seed=seed0 + i) for i in range(t)]

    def run(name):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
        rngs = [np.random.default_rng(1000 + i) for i in range(t)]
        return run_fused(
            spaces, m, d, strategy, rngs,
            partitioned=partitioned, record_heights=True,
            backend=get_backend(name),
        )

    return run("numpy"), run(backend_name)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("space_cls", [RingSpace, TorusSpace])
def test_fused_placement_parity(backend_name, strategy, space_cls,
                                monkeypatch):
    (loads_np, heights_np), (loads_k, heights_k) = _fused_pair(
        backend_name, space_cls, strategy, monkeypatch
    )
    np.testing.assert_array_equal(loads_np, loads_k)
    np.testing.assert_array_equal(heights_np, heights_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("d", [1, 2, 4])
def test_fused_placement_parity_over_d(backend_name, d, monkeypatch):
    (loads_np, heights_np), (loads_k, heights_k) = _fused_pair(
        backend_name, RingSpace, TieBreak.RANDOM, monkeypatch, d=d
    )
    np.testing.assert_array_equal(loads_np, loads_k)
    np.testing.assert_array_equal(heights_np, heights_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_fused_placement_parity_partitioned(backend_name, monkeypatch):
    (loads_np, _), (loads_k, _) = _fused_pair(
        backend_name, RingSpace, TieBreak.FIRST, monkeypatch,
        partitioned=True, d=2
    )
    np.testing.assert_array_equal(loads_np, loads_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_fused_placement_parity_over_seeds(backend_name, seed, monkeypatch):
    (loads_np, _), (loads_k, _) = _fused_pair(
        backend_name, RingSpace, TieBreak.RANDOM, monkeypatch,
        seed0=seed, t=3, n=640, m=900
    )
    np.testing.assert_array_equal(loads_np, loads_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_dynamic_trajectory_parity(backend_name, strategy):
    """Sequential reference vs batched engine on an accelerated backend,
    compared epoch by epoch (churn storms create remaps mid-trace)."""
    trace = churn_storm_trace(
        280, 800, waves=3, leave_fraction=0.25, pairs_per_wave=4, seed=8
    )
    space = RingSpace.random(280, seed=2)

    ref = simulate_dynamics(
        space, trace, 2, strategy=strategy, seed=17,
        engine="sequential", record_loads=True,
    )
    got = simulate_dynamics(
        space, trace, 2, strategy=strategy, seed=17,
        engine="batched", record_loads=True, backend=backend_name,
    )
    np.testing.assert_array_equal(ref.loads, got.loads)
    assert ref.epochs == got.epochs
    assert len(ref.load_snapshots) == len(got.load_snapshots)
    for a, b in zip(ref.load_snapshots, got.load_snapshots):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_dynamic_steady_state_parity(backend_name):
    trace = steady_state_trace(200, pairs=300, epochs=4, seed=3)
    space = TorusSpace.random(200, seed=4)
    ref = simulate_dynamics(
        space, trace, 3, seed=5, engine="sequential"
    )
    got = simulate_dynamics(
        space, trace, 3, seed=5, engine="batched", backend=backend_name
    )
    np.testing.assert_array_equal(ref.loads, got.loads)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("n", [1 << 10, 1 << 12])
def test_ring_assign_parity(backend_name, n):
    """Raw bucket-table lookup vs searchsorted, including the wrap."""
    backend = get_backend(backend_name)
    if backend.ring_assign is None:
        pytest.skip(f"{backend_name} provides no ring_assign kernel")
    space = RingSpace.random(n, seed=21)
    nbuckets, table, pos_ext = space._bucket_table()
    rng = np.random.default_rng(31)
    pts = rng.random(5000)
    # force the wrap-around case: points beyond the last server position
    pts = np.concatenate([pts, [float(space.positions[-1]) + 1e-9, 0.0]])
    expected = np.searchsorted(space.positions, pts, side="left") % n
    got = backend.ring_assign(pts, table, pos_ext, nbuckets, n)
    np.testing.assert_array_equal(expected, got)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("q", [0, 1, 7, 16, 33])
def test_ring_assign_parity_small_batches(backend_name, q):
    """Sizes at and below the kernel's prefetch lookahead."""
    backend = get_backend(backend_name)
    if backend.ring_assign is None:
        pytest.skip(f"{backend_name} provides no ring_assign kernel")
    space = RingSpace.random(512, seed=6)
    nbuckets, table, pos_ext = space._bucket_table()
    pts = np.random.default_rng(q).random(q)
    expected = np.searchsorted(space.positions, pts, side="left") % space.n
    got = backend.ring_assign(pts, table, pos_ext, nbuckets, space.n)
    np.testing.assert_array_equal(expected, got)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_run_cell_backend_kwarg_parity(backend_name):
    spec = CellSpec("ring", 256, 2)
    ref = run_cell(spec, trials=6, seed=44, backend="numpy")
    got = run_cell(spec, trials=6, seed=44, backend=backend_name)
    assert ref.to_json_counts() == got.to_json_counts()


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_run_cell_env_var_parity(backend_name, monkeypatch):
    spec = CellSpec("torus", 128, 2, strategy="smaller")
    ref = run_cell(spec, trials=5, seed=13)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend_name)
    got = run_cell(spec, trials=5, seed=13)
    assert ref.to_json_counts() == got.to_json_counts()


def _torus_kernel(backend_name):
    backend = get_backend(backend_name)
    if backend.torus_assign is None:
        pytest.skip(f"{backend_name} provides no torus_assign kernel")
    return backend.torus_assign


#: Coordinates on a dyadic lattice: exact distance ties, points on cell
#: edges, 0.0 itself.
_LATTICE = st.integers(0, 15).map(lambda k: k / 16)
_COORD = st.one_of(_LATTICE, st.floats(0.0, 1.0, exclude_max=True))


@pytest.mark.parametrize("backend_name", ACCELERATED)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    log_g=st.integers(0, 5),
)
@settings(max_examples=150, deadline=None)
def test_torus_assign_matches_brute_force(backend_name, data, n, log_g):
    """Any power-of-two grid, lattice ties included: lowest index wins."""
    kernel = _torus_kernel(backend_name)
    rows = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=n, unique=True)
    points = np.array(data.draw(rows), dtype=np.float64).reshape(-1, 2)
    queries = np.array(data.draw(st.lists(st.tuples(_COORD, _COORD), max_size=30)),
                       dtype=np.float64).reshape(-1, 2)
    g, start, spts, sidx = grid_index(points, 1 << log_g)
    got = kernel(queries, start, spts, sidx, g)
    np.testing.assert_array_equal(got, _torus_oracle(points, queries))


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_torus_assign_tie_exactly_at_the_pruning_bound(backend_name):
    """A server outside the scanned rings at exactly the stopping bound
    still wins its tie: the search must not stop on ``best == bound``."""
    kernel = _torus_kernel(backend_name)
    # g = 8, query (3/16, 3/16) in cell (1, 1), half a cell from its
    # right edge: after ring 0 the bound is 1/16.  Server 1 (ring 0) and
    # server 0 (cell (2, 1), ring 1) both lie exactly 1/16 away.
    points = np.array([[4 / 16, 3 / 16], [3 / 16, 2 / 16]])
    g, start, spts, sidx = grid_index(points, 8)
    query = np.array([[3 / 16, 3 / 16]])
    assert kernel(query, start, spts, sidx, g).tolist() == [0]
    assert _torus_oracle(points, query).tolist() == [0]


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 1 << 12, 1 << 16])
def test_torus_assign_matches_ckdtree(backend_name, n):
    """Random inputs (no exact ties): the kernel equals the periodic tree."""
    kernel = _torus_kernel(backend_name)
    space = TorusSpace.random(n, seed=n)
    rng = np.random.default_rng(n + 1)
    queries = rng.random((50_000 if n <= 1 << 12 else 20_000, 2))
    # the seam, cell edges and 0.0
    queries[:4] = [[0.0, 0.0], [0.0, 0.5], [0.999999, 0.0], [0.5, 0.999999]]
    g, start, spts, sidx = space._grid_index()
    _, expected = cKDTree(space.points, boxsize=1.0).query(queries)
    np.testing.assert_array_equal(kernel(queries, start, spts, sidx, g), expected)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_torus_assign_wraps_a_coordinate_of_one(backend_name):
    """The partitioned slab formula can round up to 1.0, which wraps to 0.0."""
    kernel = _torus_kernel(backend_name)
    space = TorusSpace.random(300, seed=3)
    g, start, spts, sidx = space._grid_index()
    y = np.random.default_rng(4).random(100)
    at_one = np.column_stack([np.ones_like(y), y])
    at_zero = np.column_stack([np.zeros_like(y), y])
    got = kernel(at_one, start, spts, sidx, g)
    np.testing.assert_array_equal(got, kernel(at_zero, start, spts, sidx, g))
    _, expected = cKDTree(space.points, boxsize=1.0).query(at_one)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_torus_assign_rejects_a_mismatched_index(backend_name):
    kernel = _torus_kernel(backend_name)
    g, start, spts, sidx = grid_index(np.random.default_rng(5).random((40, 2)), 4)
    q = np.full((1, 2), 0.5)
    for args in (
        (start, spts, sidx, 3),  # not a power of two
        (start, spts, sidx, 8),  # offsets of a 4 x 4 grid
        (start, spts[:-1], sidx, g),  # rows and indices disagree
    ):
        with pytest.raises(ValueError, match="power-of-two grid"):
            kernel(q, *args)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("partitioned", [False, True])
def test_torus_fused_cell_parity(backend_name, d, partitioned, monkeypatch):
    """A fused torus cell on the numpy reference (cKDTree) and on the
    accelerated backend (its torus_assign): same loads and heights."""
    spaces = [TorusSpace.random(300, seed=70 + i) for i in range(3)]

    def run(name):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
        rngs = [np.random.default_rng(900 + i) for i in range(3)]
        return run_fused(spaces, 400, d, TieBreak.RANDOM, rngs,
                         partitioned=partitioned, record_heights=True)

    (loads_np, heights_np), (loads_k, heights_k) = run("numpy"), run(backend_name)
    np.testing.assert_array_equal(loads_np, loads_k)
    np.testing.assert_array_equal(heights_np, heights_k)
