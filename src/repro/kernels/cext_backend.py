"""C kernel backend: scalar loops compiled on first use via ``ctypes``.

The hot-path kernels (see :mod:`repro.kernels`) are a few dozen
lines of portable C99 each.  Rather than shipping a binary wheel, the
source is embedded here and compiled once per machine with the host C
compiler (``$CC``, else the first of ``cc``/``gcc``/``clang`` on
``PATH``) into a shared library cached under
``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro-kernels``), keyed by
a hash of the source and compiler flags — editing either invalidates
the cache, re-running does not rebuild.  Everything degrades
gracefully: no compiler, an unwritable cache dir, or a failed compile
raise :class:`RuntimeError`, which the registry's auto-detection
treats as "backend unavailable".

The C code mirrors :func:`repro.core.strategies.decide_row_scalar`
operation for operation (same minimum scan, same ``floor(u·k)+1``
tie-break rule — a C cast truncates toward zero, which is ``floor``
for the non-negative operand — same strict-inequality measure
preference), so its placements are bit-identical to the numpy
reference; the parity suite enforces this.  ``torus_assign`` computes
each distance as ``scipy.spatial.cKDTree`` does, and the library is
compiled with ``-ffp-contract=off`` so that no fused multiply-add
changes a rounding.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["build_backend", "C_SOURCE"]

#: The kernel library source.  ``kind == 0`` is an insert event
#: (matches ``repro.dynamics.events.EventKind.INSERT``); anything else
#: in a churn-free window is a delete.
C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <pthread.h>

/* Remap-aware candidate lookup: remap == NULL means identity. */
static inline int64_t bin_of(const int64_t *cand, const int64_t *remap,
                             int64_t j)
{
    int64_t c = cand[j];
    return remap ? remap[c] : c;
}

/* Twin of repro.core.strategies.decide_row_scalar: index of the chosen
 * candidate among cand[0..d).  Strategy codes: 0 random, 1 first,
 * 2 smaller, 3 larger (repro.kernels.STRATEGY_CODES). */
static int64_t decide(const int64_t *loads, const int64_t *cand,
                      const int64_t *remap, int64_t d,
                      const double *measures, double u, int64_t strategy)
{
    int64_t j, min_load = loads[bin_of(cand, remap, 0)];
    for (j = 1; j < d; j++) {
        int64_t l = loads[bin_of(cand, remap, j)];
        if (l < min_load)
            min_load = l;
    }
    if (strategy == 1) { /* first: lowest tied index */
        for (j = 0; j < d; j++)
            if (loads[bin_of(cand, remap, j)] == min_load)
                return j;
    } else if (strategy == 0) { /* random: floor(u*k)+1'th tied index */
        int64_t k = 0, target, seen = 0;
        for (j = 0; j < d; j++)
            if (loads[bin_of(cand, remap, j)] == min_load)
                k++;
        target = (int64_t)(u * (double)k) + 1; /* trunc == floor: u*k >= 0 */
        for (j = 0; j < d; j++) {
            if (loads[bin_of(cand, remap, j)] == min_load) {
                seen++;
                if (seen == target)
                    return j;
            }
        }
    } else if (strategy == 2) { /* smaller: strictly smallest measure */
        int64_t best_j = -1;
        double best_key = HUGE_VAL;
        for (j = 0; j < d; j++) {
            int64_t b = bin_of(cand, remap, j);
            if (loads[b] == min_load && measures[b] < best_key) {
                best_j = j;
                best_key = measures[b];
            }
        }
        return best_j;
    } else { /* larger: strictly largest measure */
        int64_t best_j = -1;
        double best_key = -HUGE_VAL;
        for (j = 0; j < d; j++) {
            int64_t b = bin_of(cand, remap, j);
            if (loads[b] == min_load && measures[b] > best_key) {
                best_j = j;
                best_key = measures[b];
            }
        }
        return best_j;
    }
    return 0; /* unreachable: random/first always return in-loop */
}

/* Best-effort cache-line warming; a no-op where unsupported. */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH_RW(p) __builtin_prefetch((p), 1, 1)
#define PREFETCH_RO(p) __builtin_prefetch((p), 0, 1)
#else
#define PREFETCH_RW(p)
#define PREFETCH_RO(p)
#endif

/* Balls to look ahead in the placement loop.  The loop's serial
 * dependency is only the loads update of the *current* ball; the
 * candidate bins of future balls are already materialized in `bins`,
 * so their load entries can be warmed early.  At paper scale
 * (n = 2^20, loads = 8 MB) the loop is bound by cache-miss latency,
 * and ~16 balls of lookahead keeps that many independent misses in
 * flight (sweet spot measured on x86; harmless elsewhere).  Prefetch
 * never changes results — it only moves cache lines. */
#define PLACE_LOOKAHEAD 16

/* Kernel 1: sequential greedy placement of one block of balls. */
void repro_place_block(const int64_t *bins, const double *us, int64_t b,
                       int64_t d, int64_t *loads, const double *measures,
                       int64_t strategy, int64_t *heights)
{
    int64_t t, j;
    for (t = 0; t < b; t++) {
        if (t + PLACE_LOOKAHEAD < b) {
            const int64_t *f = bins + (t + PLACE_LOOKAHEAD) * d;
            for (j = 0; j < d; j++)
                PREFETCH_RW(&loads[f[j]]);
        }
        const int64_t *cand = bins + t * d;
        int64_t chosen = cand[decide(loads, cand, 0, d, measures, us[t],
                                     strategy)];
        if (heights)
            heights[t] = loads[chosen] + 1;
        loads[chosen] += 1;
    }
}

/* Kernel 2: churn-free window of mixed insert (kind 0) / delete events.
 * counts[0] += inserts applied, counts[1] += deletes applied.  When out
 * is not NULL, out[i] receives event i's bin: the chosen bin of an
 * insert, the freed bin of a delete. */
void repro_dynamic_window(const int8_t *kinds, const int64_t *args,
                          int64_t start, int64_t stop, const int64_t *cands,
                          const double *us, int64_t d, const int64_t *remap,
                          int64_t *loads, const double *measures,
                          int64_t strategy, int64_t *ball_bin,
                          int64_t *counts, int64_t *out)
{
    int64_t i, ins = 0, dels = 0;
    for (i = start; i < stop; i++) {
        if (i + PLACE_LOOKAHEAD < stop) {
            int64_t fb = args[i + PLACE_LOOKAHEAD];
            PREFETCH_RW(&cands[fb * d]);
            PREFETCH_RW(&ball_bin[fb]);
        }
        int64_t ball = args[i];
        if (kinds[i] == 0) {
            const int64_t *cand = cands + ball * d;
            int64_t chosen = bin_of(
                cand, remap,
                decide(loads, cand, remap, d, measures, us[ball], strategy));
            loads[chosen] += 1;
            ball_bin[ball] = chosen;
            if (out)
                out[i] = chosen;
            ins++;
        } else {
            int64_t freed = ball_bin[ball];
            loads[freed] -= 1;
            ball_bin[ball] = -1;
            if (out)
                out[i] = freed;
            dels++;
        }
    }
    counts[0] += ins;
    counts[1] += dels;
}

/* Kernel 3: bucket-table ring ownership lookup.  table caches
 * searchsorted(pos, bucket/nbuckets); pos_ext carries a +inf sentinel
 * at index n, so the probe loop needs no bound check and the only
 * possible overshoot (j == n) wraps to server 0.
 *
 * The loop is software-pipelined two stages deep: each point's table
 * entry is prefetched 2·LOOKAHEAD points ahead, read LOOKAHEAD points
 * ahead into a small ring buffer (which prefetches the pos_ext probe
 * start), and probed when its turn comes — both dependent random
 * accesses are then cache-warm.  The slot for point i+LOOKAHEAD is
 * i's own (same residue mod LOOKAHEAD), so i's entry is read out
 * before the refill overwrites it. */
void repro_ring_assign(const double *pts, int64_t q, const int32_t *table,
                       const double *pos_ext, int64_t nbuckets, int64_t n,
                       int64_t *out)
{
    int64_t j0buf[PLACE_LOOKAHEAD];
    int64_t i, head = q < PLACE_LOOKAHEAD ? q : PLACE_LOOKAHEAD;
    for (i = 0; i < head; i++) {
        int64_t j0 = (int64_t)table[(int64_t)(pts[i] * (double)nbuckets)];
        j0buf[i % PLACE_LOOKAHEAD] = j0;
        PREFETCH_RO(&pos_ext[j0]);
    }
    for (i = 0; i < q; i++) {
        double x = pts[i];
        int64_t j = j0buf[i % PLACE_LOOKAHEAD];
        if (i + PLACE_LOOKAHEAD < q) {
            int64_t j0;
            if (i + 2 * PLACE_LOOKAHEAD < q)
                PREFETCH_RO(&table[(int64_t)(
                    pts[i + 2 * PLACE_LOOKAHEAD] * (double)nbuckets)]);
            j0 = (int64_t)table[(int64_t)(
                pts[i + PLACE_LOOKAHEAD] * (double)nbuckets)];
            j0buf[(i + PLACE_LOOKAHEAD) % PLACE_LOOKAHEAD] = j0;
            PREFETCH_RO(&pos_ext[j0]);
        }
        while (pos_ext[j] < x)
            j++;
        out[i] = (j == n) ? 0 : j;
    }
}

/* Squared periodic distance on the unit 2-torus, computed exactly as
 * scipy's cKDTree(boxsize=1.0) computes it: per axis x - y, shifted by
 * 1.0 when beyond +-0.5, squared and summed in axis order from 0.0
 * (the abs cKDTree takes first cannot change a square).  The library
 * is compiled with -ffp-contract=off, so no FMA changes the rounding. */
static inline double torus_d2(double x, double y, const double *p)
{
    double dx = x - p[0], dy = y - p[1];
    if (dx < -0.5)
        dx += 1.0;
    else if (dx > 0.5)
        dx -= 1.0;
    if (dy < -0.5)
        dy += 1.0;
    else if (dy > 0.5)
        dy -= 1.0;
    return dx * dx + dy * dy;
}

/* Fold sorted servers a <= k < b into the running (best, arg) minimum;
 * an exact tie goes to the lower server index. */
static inline void torus_scan(const double *spts, const int32_t *sidx,
                              int64_t a, int64_t b, double x, double y,
                              double *best, int64_t *arg)
{
    int64_t k;
    for (k = a; k < b; k++) {
        double d = torus_d2(x, y, spts + 2 * k);
        int64_t j = sidx[k];
        if (d < *best || (d == *best && j < *arg)) {
            *best = d;
            *arg = j;
        }
    }
}

/* Kernel 4: nearest server on the unit 2-torus through a g x g grid
 * (g a power of two, so x*g is exact).  Servers are stored by cell,
 * cell = ix*g + iy: spts holds their (x, y) rows, sidx their server
 * indices, start[c]..start[c+1] the rows of cell c.
 *
 * Rings of cells at Chebyshev distance r = 0, 1, ... from the query's
 * cell are scanned until every unscanned server is provably farther
 * than the best one found.  Every server outside rings 0..r lies at
 * least (r + m)/g away on the torus, m being the query's distance to
 * the nearest side of its own cell in cell units.  Both that bound
 * and each computed distance are within 2^-50 of their exact values
 * per axis, so the bound is lowered by 2^-44 per axis and then by a
 * relative 2^-40 before the strict comparison: rounding can never
 * prune a server whose computed distance would win or tie.  Once a
 * ring would wrap onto itself (2r + 1 > g) every server is scanned.
 *
 * A query coordinate of exactly 1.0 (the partitioned slab formula can
 * round up to it) wraps to 0.0, as cKDTree wraps its queries. */
void repro_torus_assign(const double *pts, int64_t q, const int32_t *start,
                        const double *spts, const int32_t *sidx, int64_t g,
                        int64_t *out)
{
    const double gd = (double)g, slack = 0x1p-44, keep = 1.0 - 0x1p-40;
    const int64_t mask = g - 1, n = start[g * g];
    int64_t i;
    for (i = 0; i < q; i++) {
        double x = pts[2 * i], y = pts[2 * i + 1];
        if (x >= 1.0)
            x -= 1.0;
        if (y >= 1.0)
            y -= 1.0;
        double fx = x * gd, fy = y * gd;
        int64_t cx = (int64_t)fx, cy = (int64_t)fy, r, t;
        double mx = fx - (double)cx, my = fy - (double)cy;
        cx &= mask; /* a no-op on [0, 1); keeps any input in bounds */
        cy &= mask;
        double m = mx < 1.0 - mx ? mx : 1.0 - mx;
        if (my < m)
            m = my;
        if (1.0 - my < m)
            m = 1.0 - my;
        double best = HUGE_VAL;
        int64_t arg = INT64_MAX;
        for (r = 0;; r++) {
            if (2 * r + 1 > g) {
                torus_scan(spts, sidx, 0, n, x, y, &best, &arg);
                break;
            }
            if (r == 0) {
                int64_t c = cx * g + cy;
                torus_scan(spts, sidx, start[c], start[c + 1], x, y, &best,
                           &arg);
            } else {
                /* rows ix = cx - r and cx + r: iy spans 2r + 1 cells,
                 * contiguous in storage unless they wrap past g - 1 */
                int64_t lo = (cy - r) & mask, hi = lo + 2 * r, side;
                for (side = -1; side <= 1; side += 2) {
                    int64_t row = ((cx + side * r) & mask) * g;
                    if (hi < g) {
                        torus_scan(spts, sidx, start[row + lo],
                                   start[row + hi + 1], x, y, &best, &arg);
                    } else {
                        torus_scan(spts, sidx, start[row + lo],
                                   start[row + g], x, y, &best, &arg);
                        torus_scan(spts, sidx, start[row],
                                   start[row + hi - g + 1], x, y, &best,
                                   &arg);
                    }
                }
                /* rows strictly between: the two end cells iy = cy -+ r */
                for (t = 1 - r; t < r; t++) {
                    int64_t row = ((cx + t) & mask) * g;
                    int64_t c0 = row + ((cy - r) & mask);
                    int64_t c1 = row + ((cy + r) & mask);
                    torus_scan(spts, sidx, start[c0], start[c0 + 1], x, y,
                               &best, &arg);
                    torus_scan(spts, sidx, start[c1], start[c1 + 1], x, y,
                               &best, &arg);
                }
            }
            if (2 * r + 1 == g)
                break; /* rings 0..r cover the whole grid */
            double e = ((double)r + m) / gd - slack;
            if (e > 0.0 && best < e * e * keep)
                break;
        }
        out[i] = arg;
    }
}

/* Kernel 5: Chord closest-preceding-finger routing.  For each query i,
 * scan the finger row of peer cur[i] (fingers is s x f, slot-indexed)
 * from column f - 1 down and pick the first finger x >= 0 whose id lies
 * in (ids[cur], target): with wrapping uint64 arithmetic that is
 * ids[x] - cid - 1 < target - cid - 1, so a finger equal to cur (offset
 * 2^64 - 1) never qualifies.  out[i] = the finger, or -1 if none does.
 * Every cur and every finger read is checked against s first; returns
 * 0, or i + 1 for the first query whose cur or a read finger is out of
 * range (nothing is read out of bounds). */
int64_t repro_chord_route(const int64_t *cur, const uint64_t *target,
                          int64_t q, const int64_t *fingers, int64_t f,
                          const uint64_t *ids, int64_t s, int64_t *out)
{
    int64_t i, j;
    for (i = 0; i < q; i++) {
        int64_t c = cur[i], pick = -1;
        if (c < 0 || c >= s)
            return i + 1;
        const int64_t *row = fingers + c * f;
        uint64_t cid1 = ids[c] + 1, lim = target[i] - cid1;
        for (j = f - 1; j >= 0; j--) {
            int64_t x = row[j];
            if (x < 0)
                continue;
            if (x >= s)
                return i + 1;
            if (ids[x] - cid1 < lim) {
                pick = x;
                break;
            }
        }
        out[i] = pick;
    }
    return 0;
}

/* ---------------- thread-parallel variants (pthreads) ----------------
 *
 * Work is partitioned STATICALLY into contiguous row groups (earlier
 * groups at most one row longer), so the schedule — and therefore the
 * result — is a pure function of (count, nthreads).  Each group's rows
 * are fully independent (trials never share fused bins; ring lookups
 * never share output rows), so every partition is bit-identical to
 * the serial loop.  These entry points are called through ctypes,
 * which drops the GIL for the duration of the call: the threads below
 * run on bare cores while Python-side producers keep generating RNG
 * candidate blocks. */

#define MAX_KERNEL_THREADS 64

/* One trial range of a fused place_block_multi call. */
typedef struct {
    const int64_t *bins;    /* (t, b, d) fused candidate rows */
    const double *us;       /* (t, b) tie-break uniforms */
    int64_t k0, k1, b, d;
    int64_t *loads;         /* (t, n) fused load matrix */
    int64_t n;
    const double *measures; /* (t, n) or NULL */
    int64_t strategy;
    int64_t *heights;       /* (t, m) or NULL, written at column pos */
    int64_t m, pos;
} place_multi_job;

static void *place_multi_worker(void *arg)
{
    place_multi_job *job = (place_multi_job *)arg;
    int64_t k;
    for (k = job->k0; k < job->k1; k++)
        repro_place_block(job->bins + k * job->b * job->d,
                          job->us + k * job->b, job->b, job->d,
                          job->loads + k * job->n,
                          job->measures ? job->measures + k * job->n : 0,
                          job->strategy,
                          job->heights ? job->heights + k * job->m + job->pos
                                       : 0);
    return 0;
}

/* Kernel 1b: place one RNG block of every fused trial, trials
 * partitioned across nthreads OS threads. */
void repro_place_block_multi(const int64_t *bins, const double *us,
                             int64_t t, int64_t b, int64_t d,
                             int64_t *loads, int64_t n,
                             const double *measures, int64_t strategy,
                             int64_t *heights, int64_t m, int64_t pos,
                             int64_t nthreads)
{
    pthread_t tids[MAX_KERNEL_THREADS];
    place_multi_job jobs[MAX_KERNEL_THREADS];
    int64_t w, base, extra, start, i, spawned = 0;
    if (nthreads > t)
        nthreads = t;
    if (nthreads > MAX_KERNEL_THREADS)
        nthreads = MAX_KERNEL_THREADS;
    if (nthreads < 1)
        nthreads = 1;
    base = t / nthreads;
    extra = t % nthreads;
    start = 0;
    for (w = 0; w < nthreads; w++) {
        int64_t stop = start + base + (w < extra ? 1 : 0);
        jobs[w] = (place_multi_job){bins, us, start, stop, b, d, loads, n,
                                    measures, strategy, heights, m, pos};
        start = stop;
    }
    for (w = 1; w < nthreads; w++) {
        if (pthread_create(&tids[w], 0, place_multi_worker, &jobs[w]) != 0)
            place_multi_worker(&jobs[w]); /* degrade: run inline */
        else
            spawned |= ((int64_t)1 << w);
    }
    place_multi_worker(&jobs[0]); /* the calling thread takes group 0 */
    for (i = 1; i < nthreads; i++)
        if (spawned & ((int64_t)1 << i))
            pthread_join(tids[i], 0);
}

/* One point range of a parallel ring_assign call. */
typedef struct {
    const double *pts;
    int64_t q;
    const int32_t *table;
    const double *pos_ext;
    int64_t nbuckets, n;
    int64_t *out;
} ring_job;

static void *ring_worker(void *arg)
{
    ring_job *job = (ring_job *)arg;
    repro_ring_assign(job->pts, job->q, job->table, job->pos_ext,
                      job->nbuckets, job->n, job->out);
    return 0;
}

/* Kernel 3b: ring ownership lookup, points partitioned across
 * nthreads OS threads (each runs the pipelined serial loop on its
 * contiguous slice). */
void repro_ring_assign_par(const double *pts, int64_t q,
                           const int32_t *table, const double *pos_ext,
                           int64_t nbuckets, int64_t n, int64_t *out,
                           int64_t nthreads)
{
    pthread_t tids[MAX_KERNEL_THREADS];
    ring_job jobs[MAX_KERNEL_THREADS];
    int64_t w, base, extra, start, i, spawned = 0;
    if (nthreads > q)
        nthreads = q;
    if (nthreads > MAX_KERNEL_THREADS)
        nthreads = MAX_KERNEL_THREADS;
    if (nthreads <= 1) {
        repro_ring_assign(pts, q, table, pos_ext, nbuckets, n, out);
        return;
    }
    base = q / nthreads;
    extra = q % nthreads;
    start = 0;
    for (w = 0; w < nthreads; w++) {
        int64_t stop = start + base + (w < extra ? 1 : 0);
        jobs[w] = (ring_job){pts + start, stop - start, table, pos_ext,
                             nbuckets, n, out + start};
        start = stop;
    }
    for (w = 1; w < nthreads; w++) {
        if (pthread_create(&tids[w], 0, ring_worker, &jobs[w]) != 0)
            ring_worker(&jobs[w]);
        else
            spawned |= ((int64_t)1 << w);
    }
    ring_worker(&jobs[0]);
    for (i = 1; i < nthreads; i++)
        if (spawned & ((int64_t)1 << i))
            pthread_join(tids[i], 0);
}
"""

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> str:
    cc = os.environ.get("CC", "").strip()
    candidates = [cc] if cc else []
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        found = shutil.which(cand)
        if found:
            return found
    raise RuntimeError(
        "kernel backend 'cext' unavailable: no C compiler found "
        "(set $CC or install cc/gcc/clang)"
    )


#: Compiler flags.  ``-ffp-contract=off`` keeps every multiply-add a
#: rounded multiply then a rounded add, as the numpy and scipy reference
#: paths compute them (an FMA would change ``torus_assign`` distances).
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")


def _compile_library() -> Path:
    """Compile the kernel library (cached by source and flags) and return it."""
    digest = hashlib.blake2b(
        (C_SOURCE + " ".join(_CFLAGS)).encode(), digest_size=16
    ).hexdigest()
    libname = f"repro_kernels_{digest}.so"
    for base in (_cache_dir(), Path(tempfile.gettempdir()) / "repro-kernels"):
        libpath = base / libname
        if libpath.exists():
            return libpath
        cc = _find_compiler()
        try:
            base.mkdir(parents=True, exist_ok=True)
            src = base / f"repro_kernels_{digest}.c"
            src.write_text(C_SOURCE, encoding="utf-8")
            tmp = base / f".{libname}.{os.getpid()}.tmp"
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), str(src)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    "kernel backend 'cext' unavailable: compile failed: "
                    + proc.stderr.strip()[:500]
                )
            os.replace(tmp, libpath)  # atomic: concurrent builds converge
            return libpath
        except OSError:
            continue  # unwritable dir: try the tempdir fallback
    raise RuntimeError(
        "kernel backend 'cext' unavailable: no writable cache directory "
        "(set $REPRO_KERNEL_CACHE)"
    )


def _as_c(arr: np.ndarray, dtype) -> np.ndarray:
    """Read-only input: coerce to a C-contiguous array of ``dtype``."""
    return np.ascontiguousarray(arr, dtype=dtype)


def _check_inplace(arr: np.ndarray, dtype, name: str) -> np.ndarray:
    """In-place operand: must already be C-contiguous of ``dtype``."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(
            f"{name} must be C-contiguous {np.dtype(dtype).name}, got "
            f"{arr.dtype.name} (contiguous={arr.flags.c_contiguous})"
        )
    return arr


def _p(arr: np.ndarray | None) -> int:
    """ctypes pointer value of an array (NULL for ``None``)."""
    return 0 if arr is None else arr.ctypes.data


def build_backend():
    """Compile (or load the cached) C library and wrap its kernels.

    Raises :class:`RuntimeError` when no compiler or writable cache
    directory is available — the registry's auto path treats that as
    "unavailable" and falls back.
    """
    lib = ctypes.CDLL(str(_compile_library()))
    lib.repro_place_block.argtypes = [_PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR]
    lib.repro_place_block.restype = None
    lib.repro_dynamic_window.argtypes = [
        _PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _I64,
        _PTR, _PTR, _PTR,
    ]
    lib.repro_dynamic_window.restype = None
    lib.repro_ring_assign.argtypes = [_PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR]
    lib.repro_ring_assign.restype = None
    lib.repro_place_block_multi.argtypes = [
        _PTR, _PTR, _I64, _I64, _I64, _PTR, _I64, _PTR, _I64, _PTR, _I64,
        _I64, _I64,
    ]
    lib.repro_place_block_multi.restype = None
    lib.repro_ring_assign_par.argtypes = [
        _PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR, _I64,
    ]
    lib.repro_ring_assign_par.restype = None
    lib.repro_torus_assign.argtypes = [_PTR, _I64, _PTR, _PTR, _PTR, _I64, _PTR]
    lib.repro_torus_assign.restype = None
    lib.repro_chord_route.argtypes = [_PTR, _PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR]
    lib.repro_chord_route.restype = _I64

    def place_block(bins, us, loads, measures, strategy_code, heights):
        """C kernel for one block of sequential greedy placements."""
        bins = _as_c(bins, np.int64)
        us = _as_c(us, np.float64)
        _check_inplace(loads, np.int64, "loads")
        measures = None if measures is None else _as_c(measures, np.float64)
        if heights is not None:
            _check_inplace(heights, np.int64, "heights")
        b, d = bins.shape
        lib.repro_place_block(
            _p(bins), _p(us), b, d, _p(loads), _p(measures),
            int(strategy_code), _p(heights),
        )

    def dynamic_window(
        kinds, args, start, stop, cands, us, d, remap, loads, measures,
        strategy_code, ball_bin, out=None,
    ):
        """C kernel for a churn-free insert/delete event window."""
        kinds = _as_c(kinds, np.int8)
        args = _as_c(args, np.int64)
        cands = _as_c(cands, np.int64)
        us = _as_c(us, np.float64)
        remap = None if remap is None else _as_c(remap, np.int64)
        measures = None if measures is None else _as_c(measures, np.float64)
        _check_inplace(loads, np.int64, "loads")
        _check_inplace(ball_bin, np.int64, "ball_bin")
        if out is not None:
            _check_inplace(out, np.int64, "out")
        counts = np.zeros(2, dtype=np.int64)
        lib.repro_dynamic_window(
            _p(kinds), _p(args), int(start), int(stop), _p(cands), _p(us),
            int(d), _p(remap), _p(loads), _p(measures), int(strategy_code),
            _p(ball_bin), _p(counts), _p(out),
        )
        return int(counts[0]), int(counts[1])

    def ring_assign(pts, table, pos_ext, nbuckets, n, threads=1):
        """C kernel for the bucket-table ring ownership lookup.

        ``threads > 1`` partitions the points into contiguous row
        groups looked up on that many OS threads (bit-identical: each
        output row is independent).
        """
        pts = _as_c(pts, np.float64)
        table = _as_c(table, np.int32)
        pos_ext = _as_c(pos_ext, np.float64)
        out = np.empty(pts.size, dtype=np.int64)
        if threads > 1:
            lib.repro_ring_assign_par(
                _p(pts), pts.size, _p(table), _p(pos_ext), int(nbuckets),
                int(n), _p(out), int(threads),
            )
        else:
            lib.repro_ring_assign(
                _p(pts), pts.size, _p(table), _p(pos_ext), int(nbuckets),
                int(n), _p(out),
            )
        return out

    def torus_assign(pts, start, spts, sidx, grid):
        """C kernel for the grid-bucket nearest server on the 2-torus."""
        pts = _as_c(pts, np.float64).reshape(-1, 2)
        start = _as_c(start, np.int32)
        spts = _as_c(spts, np.float64)
        sidx = _as_c(sidx, np.int32)
        grid = int(grid)
        if (
            grid < 1
            or grid & (grid - 1)
            or start.shape != (grid * grid + 1,)
            or spts.shape != (sidx.size, 2)
            or start[-1] != sidx.size
        ):
            raise ValueError(
                "torus_assign needs a power-of-two grid with grid*grid + 1 "
                "offsets ending at the number of (x, y) server rows"
            )
        q = pts.shape[0]
        out = np.empty(q, dtype=np.int64)
        lib.repro_torus_assign(
            _p(pts), q, _p(start), _p(spts), _p(sidx), grid, _p(out),
        )
        return out

    def chord_route(cur, target, fingers, ids):
        """C kernel for Chord's closest preceding finger of each query."""
        cur = _as_c(cur, np.int64)
        target = _as_c(target, np.uint64)
        fingers = _as_c(fingers, np.int64)
        ids = _as_c(ids, np.uint64)
        if (
            cur.ndim != 1
            or target.shape != cur.shape
            or fingers.ndim != 2
            or ids.shape != (fingers.shape[0],)
        ):
            raise ValueError(
                "chord_route needs equal-length cur and target vectors, an "
                "(S, F) finger table and S identifiers"
            )
        out = np.empty(cur.size, dtype=np.int64)
        bad = lib.repro_chord_route(
            _p(cur), _p(target), cur.size, _p(fingers), fingers.shape[1],
            _p(ids), ids.size, _p(out),
        )
        if bad:
            raise ValueError(
                f"chord_route query {bad - 1}: peer {int(cur[bad - 1])} or one "
                f"of its fingers is outside [0, {ids.size})"
            )
        return out

    def place_block_multi(
        bins3, us2, loads2, measures2, strategy_code, heights2, pos, threads
    ):
        """C kernel placing one RNG block of every fused trial at once.

        Trials are partitioned into static contiguous row groups
        processed on ``threads`` OS threads; each group runs the same
        scalar ``place_block`` loop as the serial path, so results are
        bit-identical for every thread count.
        """
        bins3 = _as_c(bins3, np.int64)
        us2 = _as_c(us2, np.float64)
        _check_inplace(loads2, np.int64, "loads2")
        measures2 = None if measures2 is None else _as_c(measures2, np.float64)
        if heights2 is not None:
            _check_inplace(heights2, np.int64, "heights2")
        t, b, d = bins3.shape
        n = loads2.shape[1]
        m = 0 if heights2 is None else heights2.shape[1]
        lib.repro_place_block_multi(
            _p(bins3), _p(us2), t, b, d, _p(loads2), n, _p(measures2),
            int(strategy_code), _p(heights2), m, int(pos), int(threads),
        )

    from repro.kernels import KernelBackend

    return KernelBackend(
        name="cext",
        place_block=place_block,
        dynamic_window=dynamic_window,
        ring_assign=ring_assign,
        place_block_multi=place_block_multi,
        torus_assign=torus_assign,
        chord_route=chord_route,
    )
