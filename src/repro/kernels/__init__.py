"""Pluggable raw-speed backends for the hot placement kernels.

`BENCH_engine.json` showed the fused engine plateauing around 4M
balls/s with the fused-over-batched edge decaying as ``n`` grows: at
paper scale the process is bound by numpy dispatch overhead, not by
the algorithm.  This package factors the three hot paths into *scalar
kernels* that a compiled tier can run at memory speed:

``place_block``
    Sequential greedy placement of one RNG block of balls — the inner
    loop of :func:`repro.core.multitrial.run_fused` (and, per trial,
    of every engine).  One compiled pass replaces the whole
    optimistic-chunk + scalar-repair dance.
``dynamic_window``
    A churn-free window of mixed insert/delete events — the inner loop
    of :func:`repro.dynamics.engine.run_batched_dynamic`.
``ring_assign``
    The bucket-table ring ownership lookup behind
    :meth:`repro.core.ring.RingSpace.assign`.
``torus_assign``
    The grid-bucket nearest-server lookup behind
    :meth:`repro.core.torus.TorusSpace.assign` and its candidate
    sampling on the 2-torus.  It returns exactly the server minimizing
    the periodic squared distance as ``scipy.spatial.cKDTree`` computes
    it, exact ties to the lowest server index (cext only).
``chord_route``
    Chord's closest-preceding-finger step behind
    :meth:`repro.net.simulator.NetSim._route`: per query, the
    highest finger column whose peer lies strictly between the current
    peer and the target on the uint64 identifier ring (cext only).

Three backends provide them:

``numpy``
    The reference.  It carries **no** kernels (every kernel attribute
    is ``None``): callers keep their existing vectorized numpy and
    cKDTree code paths, which remain the semantics every other backend
    must reproduce bit-for-bit.
``numba``
    ``@njit``-compiled scalar loops (optional dependency, installed via
    ``pip install repro-geometric-two-choices[fast]``).  Import is lazy:
    ``import repro`` never touches numba, and an absent numba never
    raises on the auto path.
``cext``
    The same scalar loops as a tiny C library compiled on first use
    with the host C compiler (``cc -O3``) and loaded through
    ``ctypes``; the build artifact is cached on disk keyed by a source
    hash.  Available wherever a C toolchain is, with zero Python
    dependencies.

Selection order (strongest first): the ``REPRO_KERNEL_BACKEND``
environment variable, then the ``backend=`` kwarg threaded through
:func:`repro.stats.trials.run_cell` /
:func:`repro.dynamics.engine.simulate_dynamics` /
:func:`repro.core.multitrial.run_fused`, then auto-detection
(``numba`` if importable, else ``cext`` if a C compiler is found, else
``numpy``).  The env var lets CI force a backend through every code
path; auto-detection degrades gracefully — when every accelerated
backend is unavailable it falls back to ``numpy`` with a **one-time**
``logging`` warning naming what failed (plus a
``kernels.auto_fallback`` obs counter), so a machine silently running
5x slower than it could is visible without being spammy.

Observability: every :func:`resolve_backend` call bumps the
``kernels.backend_selected{name=...}`` counter (a no-op unless
``REPRO_OBS`` is on — see :mod:`repro.obs`), which is how trace
reports attribute throughput to the backend that actually ran.

All backends are interchangeable **bit-for-bit**: the parity suite
(``tests/kernels``) checks identical placements, per-epoch dynamic
trajectories, ring assignments and (on inputs without exact distance
ties) torus assignments against the numpy reference for every backend
that is available.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable

from repro.kernels.threads import (
    cpu_topology,
    logical_cores,
    physical_cores,
    resolve_threads,
    thread_chunks,
)
from repro.obs.metrics import counter_add

_log = logging.getLogger(__name__)

__all__ = [
    "KernelBackend",
    "BACKEND_NAMES",
    "SMALL_WINDOW_CUTOFF",
    "STRATEGY_CODES",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "default_backend",
    "cpu_topology",
    "logical_cores",
    "physical_cores",
    "resolve_threads",
    "thread_chunks",
]

#: Names accepted by :func:`get_backend` (besides ``"auto"``).
BACKEND_NAMES = ("numpy", "numba", "cext")

#: Small-batch dispatch cutoff for mixed-event windows: at or below
#: this many events, per-event scalar application beats both a kernel
#: call (ctypes/numba argument marshalling) and the numpy
#: conflict-free-prefix machinery (``np.unique`` setup), so
#: :meth:`repro.core.incremental.IncrementalState.apply_window` — and
#: through it the batched dynamic engine and the serving tier's
#: single-request path — steps these windows scalar.  Dispatch-only:
#: every tier is bit-identical, so the cutoff moves wall-clock time,
#: never results.
SMALL_WINDOW_CUTOFF = 16

#: Integer codes the compiled kernels use for the tie-break strategy,
#: keyed by :class:`repro.core.strategies.TieBreak` *values* (plain
#: strings, so this package never imports ``repro.core``).
STRATEGY_CODES = {"random": 0, "first": 1, "smaller": 2, "larger": 3}

#: Auto-detection preference among accelerated backends.
_AUTO_ORDER = ("numba", "cext")


@dataclass(frozen=True)
class KernelBackend:
    """One entry of the kernel registry.

    Each kernel attribute is either a callable with the uniform
    signature below or ``None``, meaning "use the caller's built-in
    numpy path" (the numpy reference backend has all of them ``None``).

    ``place_block(bins, us, loads, measures, strategy_code, heights)``
        Place ``bins.shape[0]`` balls sequentially: for each row pick
        the least-loaded of its ``d`` candidate bins (ties by
        ``strategy_code``, consuming ``us``), increment ``loads`` in
        place, and record 1-based heights into ``heights`` when it is
        not ``None``.  ``measures`` is the full per-bin measure array
        (or ``None`` for strategies that ignore it).
    ``dynamic_window(kinds, args, start, stop, cands, us, d, remap,
    loads, measures, strategy_code, ball_bin, out=None)``
        Apply trace events ``start <= i < stop`` (inserts and deletes
        only — churn is a barrier handled by the caller), mutating
        ``loads`` and ``ball_bin`` in place; ``remap`` is the cyclic-
        successor bin remap or ``None`` for the identity.  When ``out``
        (a C-contiguous int64 array indexed like ``kinds``) is given,
        ``out[i]`` receives event ``i``'s bin: the chosen bin of an
        insert, the freed bin of a delete.  Returns the
        ``(inserts, deletes)`` counts applied.
    ``ring_assign(pts, table, pos_ext, nbuckets, n, threads=1)``
        Bucket-table ring ownership lookup: for each point start at
        the cached lower bound of its bucket and probe forward, exactly
        like :meth:`repro.core.ring.RingSpace._assign_bucketed`.
        Returns an int64 index array.  ``threads > 1`` partitions the
        points into static contiguous row groups
        (:func:`repro.kernels.threads.thread_chunks`) processed
        GIL-free in parallel — each output row is an independent
        lookup, so the partition is bit-identical by construction.
    ``place_block_multi(bins3, us2, loads2, measures2, strategy_code,
    heights2, pos, threads)``
        Thread-parallel twin of ``place_block`` over ``T`` fused
        trials: ``bins3`` is ``(T, b, d)``, ``us2`` ``(T, b)``,
        ``loads2`` the full ``(T, n)`` fused load array, ``measures2``
        ``(T, n)`` or ``None``, ``heights2`` the full ``(T, m)``
        heights array or ``None`` (rows written at column offset
        ``pos``).  Trials are partitioned into static contiguous
        row groups, one ``place_block`` loop per trial — trials never
        share bins, so any static partition is bit-identical to the
        serial per-trial loop.
    ``torus_assign(pts, start, spts, sidx, grid)``
        Nearest server on the unit 2-torus for each row of the
        ``(q, 2)`` query array, through the grid-bucket index of
        :func:`repro.core.torus.grid_index`: ``grid`` is the
        power-of-two side ``G``, ``start`` (int32, ``G*G + 1``) the CSR
        offsets of cell ``ix*G + iy``, ``spts``/``sidx`` the server rows
        and int32 server indices in cell order.  Returns an int64
        index array.  Exactness contract: the answer minimizes the
        periodic squared distance computed as ``cKDTree(boxsize=1.0)``
        computes it (per axis ``x - y``, shifted by 1.0 beyond ±0.5,
        squared and summed in axis order from 0.0), exact ties go to
        the lowest server index, and a coordinate of exactly 1.0 wraps
        to 0.0.  On inputs without exact ties (random points) the
        result therefore equals cKDTree's; cKDTree's own choice among
        exact ties is unspecified.  ``None`` (numpy, numba) means the
        caller queries its cKDTree.
    ``chord_route(cur, target, fingers, ids)``
        Closest preceding finger of each query: ``cur`` (int64) and
        ``target`` (uint64) are equal-length vectors, ``fingers`` the
        ``(S, F)`` int64 finger table (``-1`` for an empty entry) and
        ``ids`` the ``S`` uint64 peer identifiers.  For row ``i`` the
        fingers of ``cur[i]`` are scanned from column ``F - 1`` down and
        the first ``f >= 0`` with ``ids[f] - ids[cur[i]] - 1 <
        target[i] - ids[cur[i]] - 1`` (wrapping) is returned, else
        ``-1``: exactly the column the numpy ``NetSim._route`` picks.
        A ``cur`` or a scanned finger outside ``[0, S)`` raises
        :class:`ValueError`; nothing is read out of bounds.  ``None``
        (numpy, numba) means the caller runs its numpy reference.
    """

    name: str
    place_block: Callable | None = None
    dynamic_window: Callable | None = None
    ring_assign: Callable | None = None
    place_block_multi: Callable | None = None
    torus_assign: Callable | None = None
    chord_route: Callable | None = None

    @property
    def is_accelerated(self) -> bool:
        """Whether this backend supplies compiled kernels."""
        return self.place_block is not None


#: Built backends by name (including the resolved ``"auto"`` choice).
_CACHE: dict[str, KernelBackend] = {}
#: First failure message per backend name, so an unavailable backend is
#: probed (and its import/compile cost paid) at most once per process.
_FAILED: dict[str, str] = {}
#: Whether the one-time auto-fallback warning fired in this process.
_WARNED_FALLBACK = False


def _build(name: str) -> KernelBackend:
    """Construct a backend, raising when it is unavailable."""
    if name == "numpy":
        return KernelBackend("numpy")
    if name == "numba":
        try:
            from repro.kernels.numba_backend import build_backend
        except ImportError as exc:  # pragma: no cover - package damage
            raise RuntimeError(f"kernel backend 'numba' unavailable: {exc}") from exc
        return build_backend()
    if name == "cext":
        from repro.kernels.cext_backend import build_backend

        return build_backend()
    raise AssertionError(name)  # pragma: no cover - guarded by get_backend


def get_backend(name: str) -> KernelBackend:
    """Return the named backend, building (and caching) it on first use.

    ``"auto"`` tries the accelerated backends in preference order
    (``numba`` then ``cext``) and falls back to ``numpy`` when none is
    available, logging a one-time warning (and bumping the
    ``kernels.auto_fallback`` obs counter) so the degradation is never
    silent.  An explicit name raises: :class:`ValueError` for an
    unknown name, :class:`RuntimeError` when the backend exists but
    cannot be loaded (numba not installed, no C compiler, ...).
    """
    global _WARNED_FALLBACK
    if name in _CACHE:
        return _CACHE[name]
    if name == "auto":
        for candidate in _AUTO_ORDER:
            try:
                backend = get_backend(candidate)
            except RuntimeError:
                continue
            _CACHE["auto"] = backend
            return backend
        backend = get_backend("numpy")
        _CACHE["auto"] = backend
        counter_add("kernels.auto_fallback")
        if not _WARNED_FALLBACK:
            _WARNED_FALLBACK = True
            reasons = "; ".join(
                f"{cand}: {_FAILED.get(cand, 'unavailable')}" for cand in _AUTO_ORDER
            )
            _log.warning(
                "kernel backend auto-detection fell back to the numpy "
                "reference — accelerated backends unavailable (%s); install "
                "the [fast] extra or a C toolchain for 5x+ placement "
                "throughput",
                reasons,
            )
        return backend
    if name not in BACKEND_NAMES:
        valid = ", ".join(BACKEND_NAMES + ("auto",))
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {valid} "
            "(set via backend= or the REPRO_KERNEL_BACKEND env var)"
        )
    if name in _FAILED:
        raise RuntimeError(_FAILED[name])
    try:
        backend = _build(name)
    except RuntimeError as exc:
        _FAILED[name] = str(exc)
        raise
    _CACHE[name] = backend
    return backend


def resolve_backend(backend: "KernelBackend | str | None" = None) -> KernelBackend:
    """Resolve the effective backend for one engine call.

    Selection order is **env → kwarg → auto**: a non-empty
    ``REPRO_KERNEL_BACKEND`` environment variable overrides everything
    (so one shell export steers every layer, including code that never
    grew a kwarg), an explicit ``backend`` argument (name or
    :class:`KernelBackend` instance) comes next, and ``None`` means
    auto-detection.
    """
    env = os.environ.get("REPRO_KERNEL_BACKEND", "").strip()
    if env:
        resolved = get_backend(env)
    elif isinstance(backend, KernelBackend):
        resolved = backend
    else:
        resolved = get_backend(backend if backend is not None else "auto")
    counter_add("kernels.backend_selected", backend=resolved.name)
    return resolved


def default_backend() -> KernelBackend:
    """The backend implied by the environment alone (no kwarg).

    Used by call sites without a ``backend=`` kwarg of their own —
    notably :meth:`repro.core.ring.RingSpace.assign`, which sits below
    the engines.  Equivalent to ``resolve_backend(None)``.
    """
    return resolve_backend(None)


def available_backends() -> dict[str, bool]:
    """Availability of every registered backend name, without raising.

    Probing an accelerated backend may import numba or compile the C
    library on first call; failures are cached, so this is cheap to
    call repeatedly.
    """
    out = {}
    for name in BACKEND_NAMES:
        try:
            get_backend(name)
        except RuntimeError:
            out[name] = False
        else:
            out[name] = True
    return out


def _reset() -> None:
    """Drop all cached backends, failures and warnings (test hook)."""
    global _WARNED_FALLBACK
    _CACHE.clear()
    _FAILED.clear()
    _WARNED_FALLBACK = False
