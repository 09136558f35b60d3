"""Shared builders and assertions for the repro test suites.

The dynamics, serve, and net suites all drive seeded
:class:`~repro.dynamics.events.EventTrace` churn through different
engines and compare full result objects.  The builders and equality
helpers here used to be copy-pasted per suite; they are collected once
so a new trace family or result field is added in one place.

Importable as a plain module (``import helpers``) because pytest puts
the ``tests/`` conftest directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.uniform import UniformSpace
from repro.core.ring import RingSpace
from repro.core.torus import TorusSpace
from repro.dynamics.events import (
    EventKind,
    TraceBuilder,
    adversarial_burst_trace,
    churn_storm_trace,
    poisson_trace,
    steady_state_trace,
)
from repro.utils.rng import resolve_rng

__all__ = [
    "build_space",
    "build_trace",
    "named_scenarios",
    "assert_dynamics_equal",
    "scalar_steady_state_trace",
    "scalar_validate_replay",
    "torus_nearest_oracle",
]


def torus_nearest_oracle(points, queries) -> np.ndarray:
    """Brute-force nearest server on the unit torus for each query row.

    The squared distances are bit-identical to cKDTree's periodic ones
    (``1 - d`` past 0.5 has the magnitude of cKDTree's ``d - 1``), and
    ``argmin`` gives exact ties to the lowest server index.
    """
    d = np.abs(queries[:, None, :] - points[None, :, :])
    d = np.minimum(d, 1 - d)
    return np.argmin((d**2).sum(axis=2), axis=1)


def build_space(kind: str, n: int, seed: int, *, dim: int = 2):
    """A placement space by family name (``ring`` / ``torus`` / ``uniform``)."""
    if kind == "ring":
        return RingSpace.random(n, seed=seed)
    if kind == "torus":
        return TorusSpace.random(n, dim=dim, seed=seed)
    return UniformSpace(n)


def build_trace(gen: str, n: int, m: int, policy: str, trace_seed):
    """A churn trace by family name, sized relative to ``n`` / ``m``.

    ``steady``: fixed occupancy with delete/insert turnover;
    ``poisson``: thinned M/M/∞ arrivals; ``bursts``: adversarial LIFO
    storms; anything else: the bin churn storm (mass leave + rejoin).
    """
    if gen == "steady":
        return steady_state_trace(m, pairs=m, policy=policy, epochs=3,
                                  seed=trace_seed)
    if gen == "poisson":
        return poisson_trace(3 * m, m, policy=policy, epochs=4,
                             seed=trace_seed)
    if gen == "bursts":
        return adversarial_burst_trace(
            m, max(1, m // 3), rounds=3, policy=policy, seed=trace_seed
        )
    return churn_storm_trace(
        n,
        m,
        waves=2,
        leave_fraction=0.3,
        pairs_per_wave=max(1, m // 4),
        policy=policy,
        seed=trace_seed,
    )


def named_scenarios():
    """The three (name, space, trace) parity scenarios shared by suites.

    One representative of each trace family over a ring, with fixed
    seeds so every suite pins the same trajectories.
    """
    return [
        ("steady", RingSpace.random(64, seed=0),
         steady_state_trace(200, 150, policy="lifo", epochs=5, seed=1)),
        ("burst", RingSpace.random(32, seed=2),
         adversarial_burst_trace(100, 60, 4, seed=3)),
        ("storm", RingSpace.random(32, seed=4),
         churn_storm_trace(32, 120, waves=3, leave_fraction=0.25,
                           pairs_per_wave=30, policy="fifo", seed=5)),
    ]


def assert_dynamics_equal(a, b) -> None:
    """Exact equality of two dynamics/replay results, field by field.

    Compares final loads, the active mask, insert/delete counts, every
    per-epoch series, and ν-profiles.  Per-epoch load snapshots are
    compared when both results carry them (the serve replay result
    does not).
    """
    assert np.array_equal(a.loads, b.loads)
    assert np.array_equal(a.active, b.active)
    assert a.inserts == b.inserts and a.deletes == b.deletes
    assert np.array_equal(a.max_load_over_time, b.max_load_over_time)
    assert np.array_equal(a.total_load_over_time, b.total_load_over_time)
    assert np.array_equal(a.live_bins_over_time, b.live_bins_over_time)
    assert len(a.nu_profiles) == len(b.nu_profiles)
    for x, y in zip(a.nu_profiles, b.nu_profiles):
        assert np.array_equal(x, y)
    snaps_a = getattr(a, "load_snapshots", None)
    snaps_b = getattr(b, "load_snapshots", None)
    if snaps_a is not None and snaps_b is not None:
        for x, y in zip(snaps_a, snaps_b):
            assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# scalar oracles for the columnar trace code
# ----------------------------------------------------------------------
def scalar_steady_state_trace(m_target, pairs, *, policy="random", epochs=10,
                              seed=None):
    """The event-at-a-time :class:`TraceBuilder` steady-state generator.

    The reference ``steady_state_trace`` must match array for array.
    """
    rng = resolve_rng(seed)
    b = TraceBuilder()
    for _ in range(m_target):
        b.insert()
    b.mark_epoch()
    for chunk in np.array_split(np.arange(pairs), epochs):
        for _ in range(len(chunk)):
            b.delete(policy, rng)
            b.insert()
        b.mark_epoch()
    return b.build(
        generator="steady_state", m_target=m_target, pairs=pairs, policy=str(policy)
    )


def scalar_validate_replay(kinds, args, n_slots=None):
    """Replay a trace's events one at a time; return (inserts, deletes).

    Raises the ``ValueError`` of the first event a sequential replay
    rejects — the oracle for ``EventTrace``'s vectorized validation
    (epoch and kind checks, which run first, are not replayed here).
    """
    next_ball = 0
    live: set[int] = set()
    inactive: set[int] = set()
    active_count = n_slots if n_slots is not None else 1
    for kind, arg in zip(np.asarray(kinds).tolist(), np.asarray(args).tolist()):
        if kind == EventKind.INSERT:
            if arg != next_ball:
                raise ValueError(
                    f"insert ids must be consecutive: expected {next_ball}, "
                    f"got {arg}"
                )
            live.add(arg)
            next_ball += 1
        elif kind == EventKind.DELETE:
            if arg not in live:
                raise ValueError(f"delete of ball {arg} that is not live")
            live.discard(arg)
        elif kind == EventKind.BIN_LEAVE:
            if not 0 <= arg < n_slots:
                raise ValueError(f"bin slot {arg} outside [0, {n_slots})")
            if arg in inactive:
                raise ValueError(f"bin {arg} leaves but is already inactive")
            if active_count <= 1:
                raise ValueError("the last active bin cannot leave")
            inactive.add(arg)
            active_count -= 1
        else:  # BIN_JOIN
            if not 0 <= arg < n_slots:
                raise ValueError(f"bin slot {arg} outside [0, {n_slots})")
            if arg not in inactive:
                raise ValueError(f"bin {arg} joins but is already active")
            inactive.discard(arg)
            active_count += 1
    return next_ball, next_ball - len(live)
