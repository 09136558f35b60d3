"""Metric helpers: names, percentile rule, and the per-layer ledger.

``spec.json`` beside this file is the single source of every metric's
unit and direction; :func:`load_spec` validates it, and both the result
line and the traced run's layer split are checked against it before
they are printed.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

__all__ = [
    "NAME_RE",
    "layer_metrics",
    "load_spec",
    "tail_percentile",
    "validate_metrics",
    "validate_name",
]

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"

#: A metric name: starts with a letter or digit; letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: Percentile ladder the tail rule climbs.
_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999)


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ``ValueError``."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError(f"illegal metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    """Return ``unit`` if it is a legal unit string, else raise ``ValueError``."""
    if not isinstance(unit, str) or UNIT_RE.fullmatch(unit) is None:
        raise ValueError(f"illegal unit {unit!r}")
    return unit


def tail_percentile(samples: int, beyond: int = 10) -> float:
    """The highest ladder percentile with at least ``beyond`` samples above it.

    With ``samples`` values, percentile ``p`` has ``samples * (1 - p/100)``
    values beyond it; the rule picks the highest ladder rung where that
    is at least ``beyond``, so the tail figure rests on real samples.
    Raises ``ValueError`` when even the median lacks that support.
    """
    best = None
    for p in _LADDER:
        if samples * (100.0 - p) / 100.0 >= beyond - 1e-9:
            best = p
    if best is None:
        raise ValueError(
            f"{samples} samples cannot support a percentile with "
            f"{beyond} samples beyond it"
        )
    return best


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Read ``spec.json`` and validate every metric name and unit in it."""
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    for group in ("end_to_end", "reported", "per_layer"):
        seen = set()
        for m in spec[group]:
            validate_name(m["name"])
            validate_unit(m["unit"])
            if m["name"] in seen:
                raise ValueError(f"metric {m['name']!r} listed twice in {group}")
            seen.add(m["name"])
    return spec


def validate_metrics(values: dict, declared: list[dict]) -> dict:
    """Pair each declared metric with its value; refuse missing or bad ones.

    Returns the ``{"name": {"value": v, "unit": u}}`` mapping of the
    result line.  Every declared metric must be present and finite, and
    no undeclared metric may appear.
    """
    names = [m["name"] for m in declared]
    extra = sorted(set(values) - set(names))
    missing = [n for n in names if n not in values]
    if extra or missing:
        raise ValueError(f"metrics missing {missing} / undeclared {extra}")
    out = {}
    for m in declared:
        v = float(values[m["name"]])
        if not math.isfinite(v):
            raise ValueError(f"metric {m['name']!r} is not finite: {v}")
        out[validate_name(m["name"])] = {"value": v, "unit": m["unit"]}
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table, *, traced_wall: float, untraced_wall: float,
                  extras: dict) -> dict:
    """Every per-layer metric of ``spec.json`` from one traced run.

    ``table`` is the :class:`~spans.SpanTable`; ``extras`` carries the
    figures that do not come from spans (kernel bytes computed, parallel
    efficiency, net protocol counters, the warm pass wall).  Times named
    ``*_s`` are main-thread inclusive seconds, ``*.self_s`` main-thread
    self time, ``*_offthread_s`` wall seconds during which a span of the
    layer was open on some other thread; kernel times are the same union
    taken over every thread, because kernels run on the main thread and
    on producer threads alike.
    """
    t = table
    hits = t.work_sum("sweeps.cache.get")
    lookups = t.calls("sweeps.cache.get")
    windows = t.calls("core.incremental.apply_window")
    blocks = t.durations("serve.submit", requests_only=True)
    gen_s = t.inclusive("dynamics.events.gen", thread="all")
    gen_events = t.work_sum("dynamics.events.gen")
    issued = extras.get("net.lookups_issued", 0)
    resolved = extras.get("net.lookups_resolved", 0)
    out = {
        "core.ring.build_s": t.inclusive("core.ring.build"),
        "core.ring.sample.calls": t.calls("core.ring.sample"),
        "core.ring.sample_s": t.inclusive("core.ring.sample"),
        "core.ring.sample_offthread_s": t.inclusive("core.ring.sample", thread="off"),
        "core.torus.build_s": t.inclusive("core.torus.build"),
        "core.torus.sample_s": t.inclusive("core.torus.sample"),
        "core.torus.sample_offthread_s": t.inclusive("core.torus.sample", thread="off"),
        "core.multitrial.calls": t.calls("core.multitrial.run_fused"),
        "core.multitrial.self_s": t.self_seconds("core.multitrial.run_fused"),
        "core.multitrial.rng_wait_s": t.wait_seconds(
            "core.multitrial.run_fused", ("core.ring.sample", "core.torus.sample")),
        "kernels.place_block.calls": t.calls("kernels.place_block"),
        "kernels.place_block_s": t.inclusive("kernels.place_block", thread="all"),
        "kernels.place_block.balls": t.work_sum("kernels.place_block"),
        "kernels.place_block.bytes_computed": extras.get("kernels.place_block.bytes", 0.0),
        "kernels.ring_assign_s": t.inclusive("kernels.ring_assign", thread="all"),
        "kernels.ring_assign.points": t.work_sum("kernels.ring_assign"),
        "kernels.dynamic_window_s": t.inclusive("kernels.dynamic_window", thread="all"),
        "kernels.dynamic_window.events": t.work_sum("kernels.dynamic_window"),
        "kernels.threads.parallel_efficiency": extras.get("parallel_efficiency", 0.0),
        "stats.run_cell.calls": t.calls("stats.run_cell"),
        "stats.run_cell_s": t.inclusive("stats.run_cell"),
        "experiments.table1_s": t.inclusive("experiments.table1"),
        "experiments.table2_s": t.inclusive("experiments.table2"),
        "experiments.table3_s": t.inclusive("experiments.table3"),
        "sweeps.cache.get_s": t.inclusive("sweeps.cache.get"),
        "sweeps.cache.put_s": t.inclusive("sweeps.cache.put"),
        "sweeps.cache.hits": hits,
        "sweeps.cache.misses": lookups - hits,
        "sweeps.cache.hit_ratio": extras.get("warm_hit_ratio", 0.0),
        "sweeps.warm_s": t.inclusive("bench.warm"),
        "dynamics.events.gen_s": gen_s,
        "dynamics.events.events": gen_events,
        "dynamics.events.events_per_s": _ratio(gen_events, gen_s),
        "dynamics.engine.replay_s": t.inclusive("dynamics.engine.replay"),
        "dynamics.engine.self_s": t.self_seconds("dynamics.engine.replay"),
        "core.incremental.bin_leave.calls": t.calls("core.incremental.bin_leave"),
        "core.incremental.bin_leave_s": t.inclusive("core.incremental.bin_leave"),
        "core.incremental.bin_join_s": t.inclusive("core.incremental.bin_join"),
        "core.incremental.apply_window.calls": windows,
        "core.incremental.apply_window_s": t.inclusive("core.incremental.apply_window"),
        "core.incremental.window_events_mean": _ratio(
            t.work_sum("core.incremental.apply_window"), windows),
        "core.incremental.insert_s": t.inclusive("core.incremental.insert"),
        "core.incremental.delete_s": t.inclusive("core.incremental.delete"),
        "core.incremental.lookup_s": t.inclusive("core.incremental.lookup"),
        "serve.replay_s": t.inclusive("serve.replay"),
        "serve.op.self_s": t.self_seconds("serve.op"),
        "serve.op.errors": extras.get("serve.op.errors", 0),
        "serve.submit.blocks": len(blocks),
        "serve.submit.self_s": t.self_seconds("serve.submit", requests_only=True),
        "serve.submit.block_p50_ms": (
            1e3 * statistics.median(blocks.tolist()) if len(blocks) else 0.0),
        "net.run_trace_s": t.inclusive("net.run_trace"),
        "net.step.calls": t.calls("net.step"),
        "net.step_s": t.inclusive("net.step"),
        "net.quiesce_s": t.inclusive("net.quiesce"),
        "net.check_invariants_s": t.inclusive("net.check_invariants"),
        "net.lookups_issued": issued,
        "net.lookups_resolved": resolved,
        "net.lookup_success_ratio": _ratio(resolved, issued),
        "net.nacks": extras.get("net.nacks", 0),
        "net.timeouts": extras.get("net.timeouts", 0),
        "obs.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "obs.traced_wall_s": traced_wall,
        "obs.self_time_sum_frac": _ratio(t.main_self_total(), t.root_wall()),
        "obs.spans": len(t),
    }
    return out
