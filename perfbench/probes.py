"""Layer probes: wrappers around the program's public entry points.

Nothing in ``src/`` is edited.  While :func:`installed` is active, each
entry point named in :data:`PROBES` (and each callable of the resolved
kernel backend) is replaced by a wrapper that records one span per
call on a :class:`~spans.SpanRecorder`; leaving the context restores
the originals.  The benchmark's workload code reaches these functions
through their modules at call time (``table1.run``, not a name bound
at import), so the wrappers see every call.

:func:`capture_cells` is separate and always on: it keeps the seed and
the per-trial maxima of each computed Table cell, which the output
check replays through the sequential reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib

__all__ = ["PROBES", "KERNEL_WORK", "installed", "capture_cells", "patched"]


def _n_events(result) -> float:
    return float(result.num_events)


def _rows(args, kwargs) -> float:
    # sample_choice_bins(self, rng, m, d, ...)
    return float(args[2] if len(args) > 2 else kwargs["m"])


def _window(args, kwargs) -> float:
    # apply_window(self, kinds, args, start, stop, ...)
    return float(args[4] - args[3])


#: (module, attribute path, span name, work from (args, kwargs), work from result)
PROBES = (
    ("repro.core.ring", "RingSpace.random", "core.ring.build", None, None),
    ("repro.core.ring", "RingSpace.sample_choice_bins", "core.ring.sample", _rows, None),
    ("repro.core.torus", "TorusSpace.random", "core.torus.build", None, None),
    ("repro.core.torus", "TorusSpace.sample_choice_bins", "core.torus.sample", _rows, None),
    ("repro.stats.trials", "run_fused", "core.multitrial.run_fused", None, None),
    ("repro.sweeps.runner", "run_cell", "stats.run_cell", None, None),
    ("repro.sweeps.cache", "ResultCache.get", "sweeps.cache.get", None,
     lambda r: float(r is not None)),
    ("repro.sweeps.cache", "ResultCache.put", "sweeps.cache.put", None, None),
    ("repro.experiments.table1", "run", "experiments.table1", None, None),
    ("repro.experiments.table2", "run", "experiments.table2", None, None),
    ("repro.experiments.table3", "run", "experiments.table3", None, None),
    ("repro.dynamics.events", "steady_state_trace", "dynamics.events.gen", None, _n_events),
    ("repro.dynamics.events", "churn_storm_trace", "dynamics.events.gen", None, _n_events),
    ("repro.dynamics.engine", "simulate_dynamics", "dynamics.engine.replay", None, None),
    ("repro.core.incremental", "IncrementalState.bin_leave", "core.incremental.bin_leave", None, None),
    ("repro.core.incremental", "IncrementalState.bin_join", "core.incremental.bin_join", None, None),
    ("repro.core.incremental", "IncrementalState.apply_window", "core.incremental.apply_window", _window, None),
    ("repro.core.incremental", "IncrementalState.insert", "core.incremental.insert", None, None),
    ("repro.core.incremental", "IncrementalState.delete", "core.incremental.delete", None, None),
    ("repro.core.incremental", "IncrementalState.lookup", "core.incremental.lookup", None, None),
    ("repro.serve.replay", "replay_trace", "serve.replay", None, None),
    ("repro.serve.server", "PlacementServer.insert", "serve.op", None, None),
    ("repro.serve.server", "PlacementServer.delete", "serve.op", None, None),
    ("repro.serve.server", "PlacementServer.lookup", "serve.op", None, None),
    ("repro.serve.server", "PlacementServer.submit", "serve.submit", None, None),
    ("repro.net.driver", "run_trace", "net.run_trace", None, None),
    ("repro.net.driver", "check_invariants", "net.check_invariants", None, None),
    ("repro.net.invariants", "check_invariants", "net.check_invariants", None, None),
    ("repro.net.simulator", "NetSim.step", "net.step", None, None),
    ("repro.net.simulator", "NetSim.run_until_quiescent", "net.quiesce", None, None),
)


def _place_block_work(args, kwargs):
    bins = args[0]
    return float(bins.shape[0]), bins.shape[-1]


def _place_block_multi_work(args, kwargs):
    bins3 = args[0]
    return float(bins3.shape[0] * bins3.shape[1]), bins3.shape[-1]


#: backend attribute -> (span name, work function returning (count, d or None))
KERNEL_WORK = {
    "place_block": ("kernels.place_block", _place_block_work),
    "place_block_multi": ("kernels.place_block", _place_block_multi_work),
    "ring_assign": ("kernels.ring_assign", lambda a, k: (float(a[0].size), None)),
    "dynamic_window": ("kernels.dynamic_window",
                       lambda a, k: (float(a[3] - a[2]), None)),
}


def place_block_bytes(balls: float, d: int) -> float:
    """Computed bytes one ``place_block`` ball touches.

    Per ball: ``d`` candidate bin ids and one tie-break uniform read
    (8 B each), ``d`` load reads and one load write (8 B each).  This is
    arithmetic from array shapes, not a measured memory traffic.
    """
    return balls * (16.0 * d + 16.0)


def _wrap(fn, rec, nid, work_args, work_result):
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = begin(nid)
        work = 0.0
        try:
            result = fn(*args, **kwargs)
            if work_result is not None:
                work = work_result(result)
            return result
        finally:
            if work_args is not None:
                work = work_args(args, kwargs)
            end(handle, work)

    return wrapper


def _raw(owner, attr: str):
    """The attribute as stored: a class's own ``classmethod`` object, not
    the bound method ``getattr`` would return."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _resolve(module: str, path: str):
    """``(owner, attribute, raw value)`` for a dotted attribute path."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, _raw(owner, attr)


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, _raw(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _wrapped_raw(raw, rec, nid, work_args, work_result):
    if isinstance(raw, classmethod):
        return classmethod(_wrap(raw.__func__, rec, nid, work_args, work_result))
    if isinstance(raw, staticmethod):
        return staticmethod(_wrap(raw.__func__, rec, nid, work_args, work_result))
    return _wrap(raw, rec, nid, work_args, work_result)


def _kernel_wrapper(fn, rec, nid, work_fn, byte_totals):
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            count, d = work_fn(args, kwargs)
            end(handle, count)
            if d is not None:
                byte_totals.append(place_block_bytes(count, d))

    return wrapper


@contextlib.contextmanager
def installed(rec, byte_totals: list):
    """Install every probe on ``rec``; kernel byte counts go to ``byte_totals``."""
    import repro.kernels as kernels

    replacements = []
    for module, path, name, work_args, work_result in PROBES:
        owner, attr, raw = _resolve(module, path)
        nid = rec.name_id(name)
        replacements.append(
            (owner, attr, _wrapped_raw(raw, rec, nid, work_args, work_result))
        )

    original_get = kernels.get_backend
    # resolve "auto" before patching: resolving it calls get_backend for
    # each candidate, and a wrapped candidate must not be cached as "auto"
    original_get("auto")
    wrapped_backends = {}

    def get_backend(name):
        backend = original_get(name)
        if id(backend) not in wrapped_backends:
            changes = {}
            for attr, (span, work_fn) in KERNEL_WORK.items():
                fn = getattr(backend, attr)
                if fn is not None:
                    changes[attr] = _kernel_wrapper(
                        fn, rec, rec.name_id(span), work_fn, byte_totals
                    )
            wrapped_backends[id(backend)] = (
                backend, dataclasses.replace(backend, **changes)
            )
        return wrapped_backends[id(backend)][1]

    replacements.append((kernels, "get_backend", get_backend))
    with patched(replacements):
        yield


@contextlib.contextmanager
def capture_cells(cells: list):
    """Record ``(spec, trials, seed, maxima, dist)`` for every computed cell.

    Wraps the sweep layer's call into ``run_cell`` (the miss path of
    ``submit_cell``) and, nested inside it, the per-trial maxima handed
    to ``MaxLoadDistribution.from_samples``.
    """
    import repro.sweeps.runner as runner
    from repro.stats.distributions import MaxLoadDistribution

    original_run_cell = runner.run_cell
    original_from_samples = _raw(MaxLoadDistribution, "from_samples")
    current: list = []

    def run_cell(spec, trials, seed=None, **kwargs):
        current.append(None)
        try:
            dist = original_run_cell(spec, trials, seed, **kwargs)
        finally:
            maxima = current.pop()
        cells.append((spec, trials, seed, maxima, dist))
        return dist

    def from_samples(cls, maxima, spec=None):
        maxima = [int(x) for x in maxima]
        if current:
            current[-1] = maxima
        return original_from_samples.__func__(cls, maxima, spec=spec)

    with patched([
        (runner, "run_cell", run_cell),
        (MaxLoadDistribution, "from_samples", classmethod(from_samples)),
    ]):
        yield
