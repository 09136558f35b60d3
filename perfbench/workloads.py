"""The four benchmark workloads, driven through the program's public API.

Each workload has the same shape:

``setup(seed)``
    builds the inputs (spaces, traces, op streams, a warmed server);
    the ledger times it as ``setup_s``.
``run(inputs, k, rec)``
    one measured pass; returns an :class:`Outcome` whose ``wall_s``
    counts only the timed phases and whose ``items`` counts the work
    they did (balls, trace events, ops, protocol messages).  ``rec`` is the span recorder of a
    traced run (``None`` otherwise); a workload only uses it to set
    request ids and to open spans around untimed preparation.
``check(inputs, outcome)``
    the output checks against reference paths, untimed.
``same(a, b)``
    whether two passes of one seed produced identical outputs.
``report(outcome)``
    the workload's own end-to-end figures, by name and unit.

Layer functions are always reached through their module at call time
(``table1.run``, ``events.steady_state_trace``...), so the probes that
a traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.ring import RingSpace
from repro.dynamics import engine as dyn
from repro.dynamics import events
from repro.dynamics.events import EventKind
from repro.experiments import table1, table2, table3
from repro.kernels import resolve_threads
from repro.net import driver, invariants
from repro.net import simulator as netsim
from repro.serve import replay
from repro.serve import server as srv
from repro.serve import workload
from repro.stats.trials import CellSpec, simulate_max_load
from repro.sweeps import runner
from repro.sweeps.cache import ResultCache
from repro.utils.rng import spawn_seed_sequences

from ledger import tail_percentile
from probes import capture_cells

clock = time.perf_counter

__all__ = ["WORKLOADS", "Check", "Outcome", "derive_seed"]


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit input seed for ``label`` derived from the run's ``--seed``."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Check:
    """One output check: ``failed`` of ``ops`` operations broke it."""

    label: str
    ops: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class Outcome:
    """One pass: timed wall, per-phase seconds, outputs for the checks."""

    wall_s: float
    items: float
    phases: dict
    outputs: dict
    attempted: int
    raised: int = 0
    extra: dict = field(default_factory=dict)


def _span(rec, name):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# paper_tables
# ----------------------------------------------------------------------


class PaperTables:
    """Tables 1-3 slices plus one 2^20 cell, cold then warm."""

    name = "paper_tables"
    T1_N = (2**12, 2**16)
    T3_N = (2**16,)
    T2_N = (2**12,)
    TRIALS = 100
    BIG_N, BIG_D, BIG_TRIALS = 2**20, 2, 16
    #: sequential reference above this n is too slow for every run
    #: (16 s per 2^20 trial); the 2^20 cell is checked against the
    #: single-trial placement path instead.
    SEQUENTIAL_MAX_N = 2**16

    def setup(self, seed):
        root = Path(tempfile.mkdtemp(prefix="paper-tables-"))
        return {
            "root": root,
            "seeds": {
                key: derive_seed(seed, key)
                for key in ("table1", "table2", "table3", "ring_2p20")
            },
        }

    def _submit_all(self, inputs, cache, timings, rec):
        s = inputs["seeds"]
        out = {}
        t0 = clock()
        if rec is not None:
            rec.request_id = 1
        out["table1"] = table1.run(
            trials=self.TRIALS, n_values=self.T1_N, seed=s["table1"], cache=cache
        )
        t1 = clock()
        if rec is not None:
            rec.request_id = 3
        out["table3"] = table3.run(
            trials=self.TRIALS, n_values=self.T3_N, seed=s["table3"], cache=cache
        )
        t2 = clock()
        if rec is not None:
            rec.request_id = 2
        out["table2"] = table2.run(
            trials=self.TRIALS, n_values=self.T2_N, seed=s["table2"], cache=cache
        )
        t3 = clock()
        if rec is not None:
            rec.request_id = 20
        out["ring_2p20"] = runner.submit_cell(
            CellSpec("ring", self.BIG_N, self.BIG_D),
            self.BIG_TRIALS,
            seed=s["ring_2p20"],
            cache=cache,
        )
        t4 = clock()
        timings.update(
            table1=t1 - t0, table3=t2 - t1, table2=t3 - t2, ring_2p20=t4 - t3
        )
        return out

    def run(self, inputs, k, rec=None):
        cache = ResultCache(inputs["root"] / f"sweep-cache-{k}")
        cold_t, warm_t = {}, {}
        cells: list = []
        with capture_cells(cells):
            t0 = clock()
            cold = self._submit_all(inputs, cache, cold_t, rec)
            t1 = clock()
            computed_cold = len(cells)
            with _span(rec, "bench.warm"):
                warm = self._submit_all(inputs, cache, warm_t, rec)
            t2 = clock()
        return Outcome(
            wall_s=t1 - t0,
            items=sum(spec.balls * trials for spec, trials, *_ in cells[:computed_cold]),
            phases={"cold": t1 - t0, "warm": t2 - t1, **cold_t},
            outputs={
                "cold": _counts(cold),
                "warm": _counts(warm),
                "cells": cells[:computed_cold],
                "computed_warm": len(cells) - computed_cold,
            },
            attempted=2 * _n_cells(cold),
        )

    def check(self, inputs, outcome):
        out = outcome.outputs
        checks = []
        expected_cells = _n_cells_expected(self)
        checks.append(Check(
            "cold pass computed every cell once", expected_cells,
            abs(len(out["cells"]) - expected_cells),
        ))
        bad = 0
        for spec, trials, seed, maxima, dist in out["cells"]:
            pick = derive_seed(seed, "sample") % trials
            engine = "sequential" if spec.n <= self.SEQUENTIAL_MAX_N else "auto"
            ref = simulate_max_load(
                spec, spawn_seed_sequences(seed, trials)[pick], engine=engine
            )
            counts = {str(k): v for k, v in Counter(maxima or ()).items()}
            if (
                maxima is None
                or len(maxima) != trials
                or maxima[pick] != ref
                or counts != dist.to_json_counts()
            ):
                bad += 1
        checks.append(Check(
            "sampled trial per cell equals the reference engine",
            len(out["cells"]), bad,
        ))
        mismatched = sum(
            1 for key in out["cold"] if out["warm"].get(key) != out["cold"][key]
        )
        checks.append(Check(
            "warm cells byte-identical to cold", len(out["cold"]),
            mismatched + out["computed_warm"],
        ))
        return checks

    def same(self, a, b):
        return a.outputs["cold"] == b.outputs["cold"]

    def report(self, outcome):
        ph = outcome.phases
        ring_balls = self.TRIALS * (
            4 * sum(self.T1_N) + 4 * sum(self.T3_N)
        )
        return {
            "ring_balls_per_s": (ring_balls / (ph["table1"] + ph["table3"]), "1/s"),
            "ring_2p20_balls_per_s": (
                self.BIG_TRIALS * self.BIG_N / ph["ring_2p20"], "1/s"),
            "torus_balls_per_s": (
                self.TRIALS * 4 * sum(self.T2_N) / ph["table2"], "1/s"),
            "warm_s": (ph["warm"], "s"),
        }

    def parallel_efficiency(self, inputs):
        """The 2^20 cell at auto threads against threads=1 (cache off).

        The benchmark pins the program to one thread through
        ``REPRO_NUM_THREADS``, which overrides the ``threads`` argument,
        so the pin is lifted for this measurement only.
        """
        spec = CellSpec("ring", self.BIG_N, self.BIG_D)
        seed = inputs["seeds"]["ring_2p20"]
        pinned = os.environ.pop("REPRO_NUM_THREADS", None)
        try:
            times = {}
            for threads in (None, 1):
                t0 = clock()
                runner.submit_cell(spec, self.BIG_TRIALS, seed=seed, cache="off",
                                   threads=threads)
                times[threads] = clock() - t0
            auto = resolve_threads(None)
        finally:
            if pinned is not None:
                os.environ["REPRO_NUM_THREADS"] = pinned
        return times[1] / (times[None] * auto)

    def teardown(self, inputs):
        shutil.rmtree(inputs["root"], ignore_errors=True)


def _counts(reports):
    """Canonical JSON bytes of every cell, keyed by table and cell."""
    out = {}
    for table, rep in reports.items():
        if table == "ring_2p20":
            out[table] = json.dumps(rep.to_json_counts(), sort_keys=True)
            continue
        for key, dist in rep.cells.items():
            out[f"{table}:{key}"] = json.dumps(dist.to_json_counts(), sort_keys=True)
    return out


def _n_cells(reports):
    return sum(len(r.cells) for t, r in reports.items() if t != "ring_2p20") + 1


def _n_cells_expected(w: PaperTables) -> int:
    return 4 * len(w.T1_N) + 4 * len(w.T3_N) + 4 * len(w.T2_N) + 1


# ----------------------------------------------------------------------
# churn_dynamics
# ----------------------------------------------------------------------


class ChurnDynamics:
    """Steady-state churn replayed twice, and a bin-departure storm."""

    name = "churn_dynamics"
    N, M, PAIRS = 2**16, 2**16, 2**18
    SLOTS, STORM_M, WAVES, LEAVE, WAVE_PAIRS = 2**14, 2**14, 3, 0.25, 2**12

    def setup(self, seed):
        return {
            "ring": RingSpace.random(self.N, seed=derive_seed(seed, "ring")),
            "storm_ring": RingSpace.random(
                self.SLOTS, seed=derive_seed(seed, "storm-ring")),
            "seeds": {k: derive_seed(seed, k)
                      for k in ("steady", "storm", "place", "storm-place")},
        }

    def run(self, inputs, k, rec=None):
        s = inputs["seeds"]
        if rec is not None:
            rec.request_id = 1
        t0 = clock()
        steady = events.steady_state_trace(self.M, self.PAIRS, seed=s["steady"])
        t1 = clock()
        sim = dyn.simulate_dynamics(inputs["ring"], steady, 2, seed=s["place"])
        t2 = clock()
        rep = replay.replay_trace(inputs["ring"], steady, 2, seed=s["place"])
        t3 = clock()
        if rec is not None:
            rec.request_id = 2
        storm = events.churn_storm_trace(
            self.SLOTS, self.STORM_M, waves=self.WAVES, leave_fraction=self.LEAVE,
            pairs_per_wave=self.WAVE_PAIRS, seed=s["storm"],
        )
        t4 = clock()
        storm_res = dyn.simulate_dynamics(
            inputs["storm_ring"], storm, 2, seed=s["storm-place"])
        t5 = clock()
        return Outcome(
            wall_s=t5 - t0,
            items=steady.num_events + storm.num_events,
            phases={"steady_gen": t1 - t0, "steady_sim": t2 - t1,
                    "steady_replay": t3 - t2, "storm_gen": t4 - t3,
                    "storm_sim": t5 - t4},
            outputs={"steady": steady, "sim": sim, "replay": rep,
                     "storm": storm, "storm_res": storm_res},
            attempted=3,
        )

    FIELDS = ("loads", "active", "inserts", "deletes", "epoch_ends",
              "max_load_over_time", "total_load_over_time", "live_bins_over_time")

    def check(self, inputs, outcome):
        o = outcome.outputs
        sim, rep = o["sim"], o["replay"]
        same = all(np.array_equal(getattr(sim, f), getattr(rep, f))
                   for f in self.FIELDS)
        same = same and len(sim.nu_profiles) == len(rep.nu_profiles) and all(
            np.array_equal(a, b) for a, b in zip(sim.nu_profiles, rep.nu_profiles))
        checks = [Check("steady: simulate_dynamics == replay_trace bit for bit",
                        2, 0 if same else 2)]
        trace, res = o["storm"], o["storm_res"]
        kinds, args = trace.kinds, trace.args
        last_insert = int(np.flatnonzero(kinds == EventKind.INSERT).max())
        leave_at = np.flatnonzero(kinds == EventKind.BIN_LEAVE)
        final_wave = np.unique(args[leave_at[leave_at > last_insert]])
        loads = np.asarray(res.loads)
        ok = (
            res.occupancy == trace.final_occupancy
            and int(loads.sum()) == res.occupancy
            and not loads[~np.asarray(res.active)].any()
            and not loads[final_wave].any()
        )
        checks.append(Check(
            "storm: occupancy, departed bins empty, loads sum", 1, 0 if ok else 1))
        return checks

    def same(self, a, b):
        return all(
            np.array_equal(getattr(a.outputs[r], f), getattr(b.outputs[r], f))
            for r in ("sim", "replay", "storm_res") for f in ("loads", "active")
        )

    def report(self, outcome):
        ph, o = outcome.phases, outcome.outputs
        steady_s = ph["steady_gen"] + ph["steady_sim"] + ph["steady_replay"]
        storm_s = ph["storm_gen"] + ph["storm_sim"]
        return {
            "steady_events_per_s": (o["steady"].num_events / steady_s, "1/s"),
            "storm_events_per_s": (o["storm"].num_events / storm_s, "1/s"),
        }

    def teardown(self, inputs):
        return None


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------


class ServeZipf:
    """2^20 standing keys, Zipf lookups beside FIFO churn, one client."""

    name = "serve_zipf"
    N, KEYS, OPS, BLOCK = 2**16, 2**20, 2**20, 4096

    def setup(self, seed):
        kinds, args = workload.zipf_replay_ops(
            self.KEYS, self.OPS, lookup_fraction=0.8, exponent=1.1,
            seed=derive_seed(seed, "zipf"))
        inputs = {
            "ring": RingSpace.random(self.N, seed=derive_seed(seed, "ring")),
            "server_seed": derive_seed(seed, "server"),
            "kinds": kinds,
            "args": args.tolist(),
        }
        inputs["server"], inputs["warm_bins"] = self._warm(inputs)
        return inputs

    def _warm(self, inputs):
        server = srv.PlacementServer(
            inputs["ring"], 2, seed=inputs["server_seed"], max_batch=self.BLOCK)
        bins = server.submit(np.full(self.KEYS, srv.OP_INSERT, dtype=np.int8),
                             range(self.KEYS))
        return server, bins

    def run(self, inputs, k, rec=None):
        kinds, keys = inputs["kinds"], inputs["args"]
        total = len(keys)
        if rec is not None:
            rec.request_id = -1  # warm-up is preparation, not a request
        with _span(rec, "bench.warmup"):
            server = inputs.pop("server", None)
            if server is None:
                server = self._warm(inputs)[0]
        calls = {srv.OP_INSERT: server.insert, srv.OP_DELETE: server.delete,
                 srv.OP_LOOKUP: server.lookup}
        ops = [calls[c] for c in kinds.tolist()]
        results = np.empty(total, dtype=np.int64)
        lat = np.empty(total, dtype=np.float64)
        raised = 0
        t0 = clock()
        for i in range(total):
            if rec is not None:
                rec.request_id = i
            a = clock()
            try:
                results[i] = ops[i](keys[i])
            except KeyError:
                raised += 1
                results[i] = -2
            lat[i] = clock() - a
        op_wall = clock() - t0
        op_loads = server.loads.copy()
        del server, ops, calls
        if rec is not None:
            rec.request_id = -1
        with _span(rec, "bench.warmup"):
            server = self._warm(inputs)[0]
        blocks = []
        batch_results = []
        t0 = clock()
        for a in range(0, total, self.BLOCK):
            if rec is not None:
                rec.request_id = a
            b0 = clock()
            try:
                batch_results.append(server.submit(kinds[a:a + self.BLOCK],
                                                   keys[a:a + self.BLOCK]))
            except KeyError:
                raised += min(self.BLOCK, total - a)
                batch_results.append(np.full(min(self.BLOCK, total - a), -2))
            blocks.append(clock() - b0)
        batch_wall = clock() - t0
        batch_loads = server.loads.copy()
        del server
        return Outcome(
            wall_s=op_wall + batch_wall,
            items=2 * total,
            phases={"op": op_wall, "batch": batch_wall},
            outputs={"op_results": results, "batch_results": np.concatenate(batch_results),
                     "op_loads": op_loads, "batch_loads": batch_loads},
            attempted=2 * total,
            raised=raised,
            extra={"op_latency_s": lat, "block_s": np.asarray(blocks)},
        )

    def check(self, inputs, outcome):
        o = outcome.outputs
        kinds = inputs["kinds"]
        keys = np.asarray(inputs["args"], dtype=np.int64)
        ins, dele, look = (kinds == srv.OP_INSERT, kinds == srv.OP_DELETE,
                           kinds == srv.OP_LOOKUP)
        key_bin = np.full(int(keys.max()) + 1, -1, dtype=np.int64)
        key_bin[: self.KEYS] = inputs["warm_bins"]
        op, batch = o["op_results"], o["batch_results"]
        key_bin[keys[ins]] = op[ins]
        # lookups and deletes must see the bin the key was placed in;
        # placement never moves a ball, so that bin is current
        op_bad = (look | dele) & (op != key_bin[keys])
        batch_bad = ~dele & (batch != op)
        loads_same = np.array_equal(o["op_loads"], o["batch_loads"])
        return [
            Check("op phase: lookups/deletes return the key's current bin",
                  kinds.size, int(op_bad.sum())),
            Check("batch phase: per-op results equal the op phase",
                  kinds.size, int(batch_bad.sum())),
            Check("op and batch phases end with identical loads", 1,
                  0 if loads_same else 1),
        ]

    def same(self, a, b):
        return np.array_equal(a.outputs["op_loads"], b.outputs["op_loads"])

    def report(self, outcome):
        lat = outcome.extra["op_latency_s"]
        n = lat.size
        tail = tail_percentile(n)
        p50, p999, pt = np.percentile(lat, [50.0, 99.9, tail])
        return {
            "op_ops_per_s": (n / outcome.phases["op"], "1/s"),
            "op_p50_us": (p50 * 1e6, "us"),
            "op_p999_us": (p999 * 1e6, "us"),
            "op_tail_us": (pt * 1e6, "us"),
            "op_tail_percentile": (tail, "pct"),
            "op_latency_samples": (n, "count"),
            "batch_ops_per_s": (n / outcome.phases["batch"], "1/s"),
            "batch_block_p50_ms": (np.median(outcome.extra["block_s"]) * 1e3, "ms"),
        }

    def teardown(self, inputs):
        inputs.pop("server", None)


# ----------------------------------------------------------------------
# net_storm
# ----------------------------------------------------------------------


@dataclass
class ChurnResult:
    """Outputs of one keyed bounded-churn run, shaped like a ``NetResult``."""

    digest: str
    metrics: dict
    invariants: object
    messages: int


class NetStorm:
    """Message-level overlay: keyed bounded churn, and a fast-mode storm.

    The keyed part runs the full protocol (key storage, handoff and
    message-driven finger repair) under *bounded* churn, the regime in
    which docs/networking.md makes ring exactness and zero key loss hard
    guarantees: each wave departs at most ``replication - 1`` peers,
    issues lookups against the unrepaired ring and routed puts, and
    quiesces before half of the departed peers rejoin.  The storm part
    is the 10^4-peer ``fast_config()`` churn storm through ``run_trace``.
    """

    name = "net_storm"
    PEERS, KEYS, WAVES, LOOKUPS, PUTS = 512, 256, 6, 32, 16

    def setup(self, seed):
        fast = events.churn_storm_trace(
            10**4, 0, waves=3, leave_fraction=0.1,
            seed=derive_seed(seed, "fast-trace"))
        return {"schedule": self._schedule(derive_seed(seed, "keyed-schedule")),
                "fast": fast,
                "seeds": {k: derive_seed(seed, k) for k in ("keyed", "fast")}}

    def _schedule(self, seed):
        """The keyed churn waves as plain data: who departs, how, and what
        is routed; aliveness is tracked here so every pick is a live peer."""
        rng = np.random.default_rng(seed)
        replication = netsim.NetConfig().replication
        alive = np.ones(self.PEERS, dtype=bool)
        keys = [driver.ball_key(b) for b in range(self.KEYS)]
        waves, dead = [], []
        for w in range(self.WAVES):
            victims = rng.choice(np.flatnonzero(alive), replace=False,
                                 size=int(rng.integers(1, replication)))
            graceful = rng.random(victims.size) < 0.5
            alive[victims] = False
            dead += victims.tolist()
            live = np.flatnonzero(alive)
            first = self.KEYS + w * self.PUTS
            wave = {
                "leaves": victims[graceful].tolist(),
                "kills": victims[~graceful].tolist(),
                "lookup_starts": rng.choice(live, self.LOOKUPS),
                "lookup_keys": np.array(keys, dtype=np.uint64)[
                    rng.integers(0, len(keys), self.LOOKUPS)],
                "put_origins": rng.choice(live, self.PUTS),
                "put_keys": [driver.ball_key(b) for b in range(first, first + self.PUTS)],
            }
            keys += wave["put_keys"]
            wave["rejoins"] = []
            for slot in [s for s in dead if rng.random() < 0.5]:
                live = np.flatnonzero(alive)
                wave["rejoins"].append((slot, int(live[rng.integers(0, live.size)])))
                alive[slot] = True
                dead.remove(slot)
            waves.append(wave)
        return {"initial_keys": keys[:self.KEYS], "waves": waves,
                "final_keys": sorted(keys)}

    def _keyed_churn(self, schedule, seed):
        cfg = netsim.NetConfig()
        # quiet window covering a whole fix-finger cycle, as run_trace uses
        settle = cfg.period * (-(-cfg.n_fingers // cfg.fix_fingers_per_round) + 2)
        sim = netsim.NetSim.stable(self.PEERS, cfg=cfg, seed=seed)
        sim.bootstrap_keys(schedule["initial_keys"])
        for wave in schedule["waves"]:
            for slot in wave["leaves"]:
                sim.leave(slot)
            if wave["kills"]:
                sim.kill_many(wave["kills"])
            sim.lookup_batch(wave["lookup_starts"], wave["lookup_keys"])
            sim.put_many(wave["put_origins"], wave["put_keys"])
            sim.run_until_quiescent(settle=settle)
            for slot, bootstrap in wave["rejoins"]:
                sim.join(slot, bootstrap)
            sim.run_until_quiescent(settle=settle)
        report = invariants.check_invariants(
            sim, keys=schedule["final_keys"], fingers="exact")
        return ChurnResult(digest=sim.log.digest(), metrics=sim.metrics.summary(),
                           invariants=report, messages=int(sim.log.total))

    def run(self, inputs, k, rec=None):
        if rec is not None:
            rec.request_id = 1
        t0 = clock()
        keyed = self._keyed_churn(inputs["schedule"], inputs["seeds"]["keyed"])
        t1 = clock()
        if rec is not None:
            rec.request_id = 2
        fast = driver.run_trace(inputs["fast"], cfg=driver.fast_config(),
                                seed=inputs["seeds"]["fast"], check="ring")
        t2 = clock()
        return Outcome(
            wall_s=t2 - t0,
            items=keyed.messages + fast.meta["messages"],
            phases={"keyed": t1 - t0, "fast": t2 - t1},
            outputs={"keyed": keyed, "fast": fast},
            attempted=2,
        )

    def check(self, inputs, outcome):
        o = outcome.outputs
        labels = {"keyed": "keyed churn: ring, fingers and every key exact",
                  "fast": "fast storm: ring and fingers exact"}
        return [
            Check(labels[name], 1,
                  0 if o[name].invariants is not None and o[name].invariants.ok
                  else 1,
                  "" if o[name].invariants is None
                  else "; ".join(o[name].invariants.violations[:3]))
            for name in ("keyed", "fast")
        ]

    def same(self, a, b):
        return all(a.outputs[n].digest == b.outputs[n].digest
                   for n in ("keyed", "fast"))

    def report(self, outcome):
        return {
            "keyed_churn_s": (outcome.phases["keyed"], "s"),
            "fast_storm_s": (outcome.phases["fast"], "s"),
        }

    def teardown(self, inputs):
        return None


WORKLOADS = {
    w.name: w
    for w in (PaperTables, ChurnDynamics, ServeZipf, NetStorm)
}
