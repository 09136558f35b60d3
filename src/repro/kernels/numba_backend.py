"""Numba kernel backend: ``@njit``-compiled scalar loops.

The kernel bodies live here as plain module-level Python functions and
are JIT-compiled only inside :func:`build_backend`, so importing this
module (or ``repro`` itself) never pays numba's import cost and works
with numba absent; the registry calls :func:`build_backend` lazily and
converts its :class:`RuntimeError` into auto-fallback.

The loops are line-for-line transcriptions of
:func:`repro.core.strategies.decide_row_scalar` and the sequential
engines (``int(u * k)`` truncates toward zero, which equals ``floor``
for the non-negative operand, exactly like the reference's
``math.floor``), so placements are bit-identical to the numpy
reference — the parity suite enforces this whenever numba is
installed, and the CI numba leg runs the whole tier-1 suite under
``REPRO_KERNEL_BACKEND=numba``.

Numba cannot type optional arguments, so the jitted signatures take
dummy empty arrays plus ``use_*``/``record_*`` flags; the thin Python
shims below translate from the registry's uniform ``None``-based
kernel interface (:class:`repro.kernels.KernelBackend`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_backend"]

_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_I8 = np.empty(0, dtype=np.int64)


def _place_block_impl(bins, us, loads, measures, use_measures, strategy,
                      heights, record_heights):
    """Sequential greedy placement of one block (jitted scalar loop)."""
    b, d = bins.shape
    for t in range(b):
        min_load = loads[bins[t, 0]]
        for j in range(1, d):
            l = loads[bins[t, j]]
            if l < min_load:
                min_load = l
        if strategy == 1:  # first
            chosen = bins[t, 0]
            for j in range(d):
                if loads[bins[t, j]] == min_load:
                    chosen = bins[t, j]
                    break
        elif strategy == 0:  # random: floor(u*k)+1'th tied candidate
            k = 0
            for j in range(d):
                if loads[bins[t, j]] == min_load:
                    k += 1
            target = np.int64(us[t] * k) + 1  # trunc == floor: u*k >= 0
            seen = 0
            chosen = bins[t, 0]
            for j in range(d):
                if loads[bins[t, j]] == min_load:
                    seen += 1
                    if seen == target:
                        chosen = bins[t, j]
                        break
        elif strategy == 2:  # smaller: strictly smallest measure
            best_key = np.inf
            chosen = bins[t, 0]
            for j in range(d):
                c = bins[t, j]
                if loads[c] == min_load and measures[c] < best_key:
                    chosen = c
                    best_key = measures[c]
        else:  # larger: strictly largest measure
            best_key = -np.inf
            chosen = bins[t, 0]
            for j in range(d):
                c = bins[t, j]
                if loads[c] == min_load and measures[c] > best_key:
                    chosen = c
                    best_key = measures[c]
        if record_heights:
            heights[t] = loads[chosen] + 1
        loads[chosen] += 1


def _dynamic_window_impl(kinds, args, start, stop, cands, us, d, remap,
                         use_remap, loads, measures, use_measures, strategy,
                         ball_bin, out, use_out):
    """Churn-free insert/delete window (jitted scalar loop)."""
    ins = np.int64(0)
    dels = np.int64(0)
    for i in range(start, stop):
        ball = args[i]
        if kinds[i] == 0:  # EventKind.INSERT
            min_load = np.int64(0)
            for j in range(d):
                c = cands[ball, j]
                if use_remap:
                    c = remap[c]
                l = loads[c]
                if j == 0 or l < min_load:
                    min_load = l
            if strategy == 1:  # first
                chosen = np.int64(-1)
                for j in range(d):
                    c = cands[ball, j]
                    if use_remap:
                        c = remap[c]
                    if loads[c] == min_load:
                        chosen = c
                        break
            elif strategy == 0:  # random
                k = 0
                for j in range(d):
                    c = cands[ball, j]
                    if use_remap:
                        c = remap[c]
                    if loads[c] == min_load:
                        k += 1
                target = np.int64(us[ball] * k) + 1
                seen = 0
                chosen = np.int64(-1)
                for j in range(d):
                    c = cands[ball, j]
                    if use_remap:
                        c = remap[c]
                    if loads[c] == min_load:
                        seen += 1
                        if seen == target:
                            chosen = c
                            break
            elif strategy == 2:  # smaller
                best_key = np.inf
                chosen = np.int64(-1)
                for j in range(d):
                    c = cands[ball, j]
                    if use_remap:
                        c = remap[c]
                    if loads[c] == min_load and measures[c] < best_key:
                        chosen = c
                        best_key = measures[c]
            else:  # larger
                best_key = -np.inf
                chosen = np.int64(-1)
                for j in range(d):
                    c = cands[ball, j]
                    if use_remap:
                        c = remap[c]
                    if loads[c] == min_load and measures[c] > best_key:
                        chosen = c
                        best_key = measures[c]
            loads[chosen] += 1
            ball_bin[ball] = chosen
            if use_out:
                out[i] = chosen
            ins += 1
        else:  # delete
            freed = ball_bin[ball]
            loads[freed] -= 1
            ball_bin[ball] = -1
            if use_out:
                out[i] = freed
            dels += 1
    return ins, dels


def _ring_assign_impl(pts, table, pos_ext, nbuckets, n, out):
    """Bucket-table ring ownership lookup (jitted scalar loop)."""
    for i in range(pts.size):
        x = pts[i]
        j = np.int64(table[np.int64(x * nbuckets)])
        while pos_ext[j] < x:
            j += 1
        out[i] = 0 if j == n else j


def _make_parallel_kernels(jit, numba, place_block_jit):
    """Build the ``prange`` thread-parallel kernel twins.

    ``place_block_multi`` pranges over fused trials (each trial's loop
    is the serial ``place_block`` body — trials never share bins, so
    any prange schedule is bit-identical); the parallel ``ring_assign``
    pranges over points (each output row is an independent lookup).
    Raises whatever ``numba.njit(parallel=True)`` raises when the
    threading layer is unavailable; the caller degrades gracefully.
    """
    prange = numba.prange
    pjit = numba.njit(cache=True, fastmath=False, parallel=True)

    def _place_block_multi_impl(bins3, us2, loads2, measures2, use_measures,
                                strategy, heights2, record_heights, pos):
        t = bins3.shape[0]
        b = bins3.shape[1]
        for k in prange(t):
            km = k if use_measures else 0
            kh = k if record_heights else 0
            place_block_jit(
                bins3[k],
                us2[k],
                loads2[k],
                measures2[km],
                use_measures,
                strategy,
                heights2[kh, pos : pos + b],
                record_heights,
            )

    def _ring_assign_par_impl(pts, table, pos_ext, nbuckets, n, out):
        for i in prange(pts.size):
            x = pts[i]
            j = np.int64(table[np.int64(x * nbuckets)])
            while pos_ext[j] < x:
                j += 1
            out[i] = 0 if j == n else j

    return pjit(_place_block_multi_impl), pjit(_ring_assign_par_impl)


def build_backend():
    """JIT-compile the kernels and wrap them as a :class:`KernelBackend`.

    Raises :class:`RuntimeError` when numba is not importable, which
    the registry's auto path treats as "unavailable".
    """
    try:
        import numba
    except ImportError as exc:
        raise RuntimeError(
            "kernel backend 'numba' unavailable: numba is not installed "
            "(pip install 'repro-geometric-two-choices[fast]')"
        ) from exc

    jit = numba.njit(cache=True, fastmath=False)
    place_block_jit = jit(_place_block_impl)
    dynamic_window_jit = jit(_dynamic_window_impl)
    ring_assign_jit = jit(_ring_assign_impl)
    try:
        place_block_multi_jit, ring_assign_par_jit = _make_parallel_kernels(
            jit, numba, place_block_jit
        )
    except Exception:  # pragma: no cover - threading layer unavailable
        place_block_multi_jit = ring_assign_par_jit = None

    def _clamped_threads(threads: int) -> int:
        limit = getattr(numba.config, "NUMBA_NUM_THREADS", threads)
        return max(1, min(int(threads), int(limit)))

    def place_block(bins, us, loads, measures, strategy_code, heights):
        """Numba kernel for one block of sequential greedy placements."""
        place_block_jit(
            np.ascontiguousarray(bins, dtype=np.int64),
            np.ascontiguousarray(us, dtype=np.float64),
            loads,
            _EMPTY_F8 if measures is None else measures,
            measures is not None,
            strategy_code,
            _EMPTY_I8 if heights is None else heights,
            heights is not None,
        )

    def dynamic_window(kinds, args, start, stop, cands, us, d, remap, loads,
                       measures, strategy_code, ball_bin, out=None):
        """Numba kernel for a churn-free insert/delete event window."""
        ins, dels = dynamic_window_jit(
            kinds,
            args,
            start,
            stop,
            cands,
            us,
            d,
            _EMPTY_I8 if remap is None else remap,
            remap is not None,
            loads,
            _EMPTY_F8 if measures is None else measures,
            measures is not None,
            strategy_code,
            ball_bin,
            _EMPTY_I8 if out is None else out,
            out is not None,
        )
        return int(ins), int(dels)

    def ring_assign(pts, table, pos_ext, nbuckets, n, threads=1):
        """Numba kernel for the bucket-table ring ownership lookup.

        ``threads > 1`` runs the prange-parallel twin under that many
        numba threads (bit-identical: each output row is independent).
        """
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        out = np.empty(pts.size, dtype=np.int64)
        if threads > 1 and ring_assign_par_jit is not None and pts.size > 1:
            prev = numba.get_num_threads()
            numba.set_num_threads(_clamped_threads(threads))
            try:
                ring_assign_par_jit(pts, table, pos_ext, nbuckets, n, out)
            finally:
                numba.set_num_threads(prev)
        else:
            ring_assign_jit(pts, table, pos_ext, nbuckets, n, out)
        return out

    def place_block_multi(
        bins3, us2, loads2, measures2, strategy_code, heights2, pos, threads
    ):
        """Numba kernel placing one RNG block of every fused trial.

        Trials are prange-partitioned across numba threads; each
        trial's loop is the serial ``place_block`` body, so results
        are bit-identical for every thread count.
        """
        bins3 = np.ascontiguousarray(bins3, dtype=np.int64)
        us2 = np.ascontiguousarray(us2, dtype=np.float64)
        dummy_f8 = np.zeros((1, 1), dtype=np.float64)
        dummy_i8 = np.zeros((1, bins3.shape[1]), dtype=np.int64)
        prev = numba.get_num_threads()
        numba.set_num_threads(_clamped_threads(threads))
        try:
            place_block_multi_jit(
                bins3,
                us2,
                loads2,
                dummy_f8 if measures2 is None else measures2,
                measures2 is not None,
                strategy_code,
                dummy_i8 if heights2 is None else heights2,
                heights2 is not None,
                pos if heights2 is not None else 0,
            )
        finally:
            numba.set_num_threads(prev)

    from repro.kernels import KernelBackend

    return KernelBackend(
        name="numba",
        place_block=place_block,
        dynamic_window=dynamic_window,
        ring_assign=ring_assign,
        place_block_multi=(
            None if place_block_multi_jit is None else place_block_multi
        ),
    )
