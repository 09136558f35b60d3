"""Discrete-event, message-level Chord overlay simulator.

Peers exchange *real protocol messages* — join handshakes, stabilize /
notify rounds, successor-list repair, ping/timeout failure detection,
routed lookups — over a ticked event loop.  Unlike :mod:`repro.dht`
(which computes routing analytically on a frozen ring), this simulator
measures the overlay *while it is unstable*: lookup hop counts, ring
repair latency, and key-load skew during joins, graceful departures,
and abrupt (non-graceful) deaths.

Design notes
------------

* **Structure-of-arrays state.**  Node state lives in flat numpy
  arrays indexed by *slot* (``ids``, ``alive``, ``succ``, ``pred``,
  ``fingers``), and slots are assigned in ascending identifier order,
  so slot order *is* ring order — ground-truth neighbors are a
  ``searchsorted`` away, never a graph walk.
* **Batched message delivery.**  The event loop keeps a per-tick
  bucket of :class:`~repro.net.messages.MsgBatch` columns.  Each tick
  concatenates the bucket per kind and runs one vectorized handler per
  kind, so 10\\ :sup:`5` peers exchanging millions of messages stay in
  numpy instead of Python loops.
* **Failure detection by NACK.**  A message addressed to a dead peer
  bounces back to its sender after ``timeout`` ticks (the
  retransmission-timer surrogate).  The sender scrubs the dead peer
  from its successor list / fingers / predecessor and — for routing
  messages — retries around the failure.
* **Determinism.**  One seeded generator, deterministic per-tick
  processing order (kind order, then append order), and an
  :class:`~repro.net.messages.EventLog` digest chained over every
  delivered batch.  Same seed + same trace ⇒ byte-identical digest and
  metrics, independent of thread/worker environment settings.

The routing rule (closest preceding finger, successor fallback, hop
accounting) mirrors :meth:`repro.dht.chord.ChordRing.lookup` exactly,
which is what the ``tests/net`` parity suite pins: on a stable ring the
simulated hop counts equal the analytic ones lookup for lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.hashing import RING_BITS
from repro.kernels import default_backend
from repro.net.messages import EventLog, FindMode, MsgBatch, MsgKind
from repro.net.stats import NetMetrics
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = ["NetConfig", "NetSim"]


_ONE = np.uint64(1)


def _in_open(x, a, b):
    """Elementwise ``x ∈ (a, b)`` on the uint64 identifier ring.

    With wrapping arithmetic, ``x ∈ (a, b)`` iff the clockwise offset
    ``x - a - 1`` is below ``b - a - 1``.  At ``a == b`` the bound is
    ``2**64 - 1``, so the interval is the whole ring minus ``a``.  All
    operands must be uint64; a caller passing numpy scalars wraps the
    call in ``np.errstate(over="ignore")``.
    """
    a1 = a + _ONE
    return (x - a1) < (b - a1)


def _in_ropen(x, a, b):
    """Elementwise ``x ∈ (a, b]`` on the uint64 identifier ring.

    The offset test of :func:`_in_open` with ``<=``: at ``a == b`` the
    interval is the whole ring.
    """
    a1 = a + _ONE
    return (x - a1) <= (b - a1)


@dataclass(frozen=True)
class NetConfig:
    """Protocol and event-loop knobs of one :class:`NetSim`.

    Attributes
    ----------
    succ_list_len:
        Successor-list length ``L`` (Chord's ``r``); the ring survives
        up to ``L - 1`` *simultaneous* failures between stabilization
        quiescence points.
    replication:
        Key replication degree ``R``: a stored key lives on its owner
        plus the owner's next ``R - 1`` successors, so any ``R - 1``
        simultaneous deaths leave at least one live holder.
    period:
        Ticks between two maintenance rounds of one node (stabilize +
        predecessor ping + finger fixing), staggered across slots.
    fix_fingers_per_round:
        Finger columns refreshed per maintenance round (0 disables the
        message-driven finger repair — use
        :meth:`NetSim.rebuild_fingers` instead for bulk runs).
    latency:
        Message delivery delay in ticks (constant, deterministic).
    timeout:
        Extra ticks before a message to a dead peer bounces back as a
        ``NACK`` (the retransmission-timeout surrogate).
    n_fingers:
        Finger-table width ``F``; column ``j`` holds the successor of
        ``id + 2^(RING_BITS - F + j)``.  The default covers the full
        identifier space (analytic parity); smaller values save memory
        at mega-peer scale where low fingers all equal the successor.
    max_hops:
        Routing-hop budget per lookup before it is dropped as failed.
    self_check_every:
        Every this-many maintenance rounds a node re-resolves its own
        successor through the ring (a routed ``FIND_SUCC`` for
        ``id + 1`` via its current successor) and adopts any strictly
        closer owner.  Plain stabilization provably cannot untangle a
        *laced* ring — crossed successor arcs whose predecessor links
        mutually confirm each other, which concurrent rejoins under
        churn do produce — but the self-check resolves each arc from
        behind and restores the true ring.  0 disables.
    with_keys:
        Track per-node key storage (replicated puts, transfers on
        join/leave, erase).  Disable for pure-routing mega-peer runs.
    """

    succ_list_len: int = 4
    replication: int = 3
    period: int = 8
    fix_fingers_per_round: int = 4
    latency: int = 1
    timeout: int = 3
    n_fingers: int = RING_BITS
    max_hops: int = 4 * RING_BITS + 64
    self_check_every: int = 1
    with_keys: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.succ_list_len, "succ_list_len")
        check_positive_int(self.period, "period")
        check_positive_int(self.latency, "latency")
        check_positive_int(self.timeout, "timeout")
        if not 1 <= self.replication <= self.succ_list_len + 1:
            raise ValueError(
                "replication must be in [1, succ_list_len + 1], got "
                f"{self.replication}"
            )
        if not 1 <= self.n_fingers <= RING_BITS:
            raise ValueError(f"n_fingers must be in [1, {RING_BITS}]")
        if self.fix_fingers_per_round < 0:
            raise ValueError("fix_fingers_per_round must be >= 0")
        if self.self_check_every < 0:
            raise ValueError("self_check_every must be >= 0")


# delivery to a dead peer bounces these kinds back to the sender
_NACKABLE = (MsgKind.GET_PRED, MsgKind.PING, MsgKind.FIND_SUCC)

#: chunk rows for the (M, F) finger gather so mega-batches stay in cache
_ROUTE_CHUNK = 1 << 15


class NetSim:
    """A simulated Chord overlay driven by protocol messages.

    Construct with :meth:`stable` (a quiesced ring, the usual starting
    point) or :meth:`from_ids`, then mutate with :meth:`join`,
    :meth:`leave`, :meth:`kill`, issue traffic with :meth:`lookup` /
    :meth:`put_key` / :meth:`erase_key`, and advance time with
    :meth:`run` or :meth:`run_until_quiescent`.

    Examples
    --------
    >>> sim = NetSim.stable(16, seed=0)
    >>> sim.kill(3)
    >>> _ = sim.run_until_quiescent()
    >>> bool(sim.alive[3])
    False
    """

    def __init__(self, ids, cfg: NetConfig | None = None, seed=0) -> None:
        self.cfg = cfg or NetConfig()
        as_ints = [int(i) for i in ids]
        if sorted(as_ints) != as_ints:
            raise ValueError("slot identifiers must be given in ascending order")
        if len(set(as_ints)) != len(as_ints):
            raise ValueError("slot identifiers must be distinct")
        if len(as_ints) < 2:
            raise ValueError("NetSim needs at least 2 slots")
        self.ids = np.array(as_ints, dtype=np.uint64)
        self.S = int(self.ids.size)
        L = self.cfg.succ_list_len
        self.alive = np.ones(self.S, dtype=bool)
        self.succ = np.full((self.S, L), -1, dtype=np.int64)
        self.pred = np.full(self.S, -1, dtype=np.int64)
        self.fingers = np.full((self.S, self.cfg.n_fingers), -1, dtype=np.int64)
        self.fix_next = np.zeros(self.S, dtype=np.int64)
        self._boot = np.full(self.S, -1, dtype=np.int64)
        self.store: list[set[int]] | None = (
            [set() for _ in range(self.S)] if self.cfg.with_keys else None
        )
        self.tick = 0
        self._n_alive = self.S
        self.rng = resolve_rng(seed)
        self.log = EventLog()
        self.metrics = NetMetrics()
        self.outstanding_lookups = 0
        self.outstanding_ops = 0
        self._pending: dict[int, list[MsgBatch]] = {}
        self._side: dict[int, list[tuple]] = {}
        self._repairs: list[list[int]] = []
        self._last_mutation = 0
        # powers of two for the finger columns (column j -> 2^(RB-F+j))
        ks = np.arange(RING_BITS - self.cfg.n_fingers, RING_BITS, dtype=np.uint64)
        self._powers = np.uint64(1) << ks

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def stable(cls, n: int, *, cfg: NetConfig | None = None, seed=0) -> "NetSim":
        """A fully stabilized ``n``-peer ring with random identifiers.

        Successor lists, predecessors, and finger tables are installed
        directly in their converged state — the state message-driven
        stabilization would reach — so churn experiments start from
        equilibrium.  The identifier draw consumes the seeded stream
        deterministically.
        """
        n = check_positive_int(n, "n")
        rng = resolve_rng(seed)
        # even identifiers only, so odd test keys never collide with a node
        ids: list[int] = []
        seen: set[int] = set()
        while len(ids) < n:
            batch = rng.integers(0, 1 << 63, size=n - len(ids), dtype=np.int64)
            for b in batch.tolist():
                v = int(b) << 1
                if v not in seen:
                    seen.add(v)
                    ids.append(v)
        sim = cls(sorted(ids), cfg=cfg, seed=rng)
        sim.install_stable_state()
        return sim

    @classmethod
    def from_ids(cls, ids, *, cfg: NetConfig | None = None, seed=0) -> "NetSim":
        """A stabilized ring over explicit identifiers (ascending order).

        Slot ``i`` is the ``i``-th smallest identifier, matching
        :class:`repro.dht.chord.ChordRing` indexing — the parity tests
        build both structures from the same id set and compare lookups
        index for index.
        """
        sim = cls(ids, cfg=cfg, seed=seed)
        sim.install_stable_state()
        return sim

    def install_stable_state(self) -> None:
        """(Re)install converged successor/pred/finger state for alive slots."""
        av = np.flatnonzero(self.alive)
        a = av.size
        if a < 2:
            raise ValueError("need at least 2 alive slots")
        order = np.arange(a)
        for j in range(self.cfg.succ_list_len):
            self.succ[av, j] = av[(order + 1 + j) % a]
        self.pred[av] = av[(order - 1) % a]
        self.rebuild_fingers()
        self._mutated()

    def rebuild_fingers(self) -> None:
        """Vectorized analytic finger refresh for every alive slot.

        This is the offline equivalent of letting ``fix_fingers``
        cycle to convergence — used to bootstrap :meth:`stable` rings
        and as the documented shortcut for mega-peer smokes where
        message-driven finger repair would dominate the budget.
        """
        av = np.flatnonzero(self.alive)
        aids = self.ids[av]
        with np.errstate(over="ignore"):
            targets = aids[:, None] + self._powers[None, :]
        idx = np.searchsorted(aids, targets, side="left") % av.size
        self.fingers[av] = av[idx]
        self._mutated()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def alive_count(self) -> int:
        """Number of currently alive peers."""
        return self._n_alive

    def _mutated(self) -> None:
        self._last_mutation = self.tick

    def _send(self, batch: MsgBatch, delay: int | None = None) -> None:
        if len(batch) == 0:
            return
        at = self.tick + (self.cfg.latency if delay is None else delay)
        self._pending.setdefault(at, []).append(batch)

    def _send_side(self, record: tuple, delay: int | None = None) -> None:
        at = self.tick + (self.cfg.latency if delay is None else delay)
        self._side.setdefault(at, []).append(record)

    def _live_neighbors(self, slot: int) -> tuple[int, int]:
        """Ground-truth (predecessor, successor) alive slots of ``slot``."""
        av = np.flatnonzero(self.alive)
        pos = int(np.searchsorted(av, slot))
        succ = int(av[pos % av.size])
        pred = int(av[(pos - 1) % av.size])
        return pred, succ

    def _owned_keys(self, slot: int) -> list[int]:
        """Keys in ``slot``'s store that fall in its owned arc, sorted."""
        held = self.store[slot]
        if not held:
            return []
        p = int(self.pred[slot])
        if p < 0:
            return sorted(held)
        a, b = self.ids[p], self.ids[slot]
        keys = np.fromiter(held, dtype=np.uint64, count=len(held))
        with np.errstate(over="ignore"):
            mask = _in_ropen(keys, a, b)
        return sorted(int(k) for k in keys[mask])

    def _replica_targets(self, slot: int) -> list[int]:
        """First ``R - 1`` distinct valid successor-list entries of ``slot``."""
        return self._targets_of_row(self.succ[slot], slot)

    def _targets_of_row(self, row: np.ndarray, slot: int) -> list[int]:
        out: list[int] = []
        for w in row.tolist():
            if w >= 0 and w != slot and w not in out:
                out.append(w)
                if len(out) >= self.cfg.replication - 1:
                    break
        return out

    def _replicate_owned(self, slot: int) -> None:
        """Push ``slot``'s owned keys to its replica set (side channel)."""
        if self.store is None:
            return
        keys = self._owned_keys(slot)
        if not keys:
            return
        for w in self._replica_targets(slot):
            self._send_side(("copy", w, tuple(keys)))

    # ------------------------------------------------------------------
    # membership API (driven by traces or tests)
    # ------------------------------------------------------------------
    def join(self, slot: int, bootstrap: int) -> None:
        """(Re)activate ``slot`` and start its join handshake.

        The joiner routes a ``FIND_SUCC`` for its own identifier via
        ``bootstrap``; the ``FOUND`` reply seeds its successor, and the
        normal stabilize/notify rounds link predecessors, pull the
        successor list, and trigger key handoff.
        """
        if self.alive[slot]:
            raise ValueError(f"slot {slot} is already alive")
        if not self.alive[bootstrap]:
            raise ValueError(f"bootstrap {bootstrap} is dead")
        self.alive[slot] = True
        self.pred[slot] = -1
        self.succ[slot] = -1
        self.fingers[slot] = -1
        self.fix_next[slot] = 0
        if self.store is not None:
            self.store[slot] = set()
        self._boot[slot] = bootstrap
        self._n_alive += 1
        self.metrics.joins += 1
        self._mutated()
        self._send_join(np.array([slot], dtype=np.int64))

    def _send_join(self, slots: np.ndarray) -> None:
        # resolve successor(id + 1): never the joiner itself, so a
        # retried join cannot self-adopt once partially linked.  A peer
        # whose bootstrap died (or that never had one — an established
        # node whose whole successor list was wiped) first self-routes
        # through its surviving fingers; if it has none either, it
        # re-bootstraps through the rendezvous surrogate (the lowest-id
        # alive peer — every real deployment has bootstrap servers).
        boot = self._boot[slots]
        bad_boot = (boot < 0) | ~self.alive[np.maximum(boot, 0)]
        dst = np.where(bad_boot, slots, boot)
        if bad_boot.any():
            # no live bootstrap: the joiner cannot resolve succ(id+1)
            # itself — the open interval (id, id+1) admits no finger —
            # so route via the rendezvous peers (lowest two alive)
            av = np.flatnonzero(self.alive)
            first, second = int(av[0]), int(av[1])
            rend = np.where(slots == first, second, first)
            dst = np.where(bad_boot, rend, dst)
            self._boot[slots[bad_boot]] = rend[bad_boot]
        with np.errstate(over="ignore"):
            targets = self.ids[slots] + np.uint64(1)
        self._send(MsgBatch(
            kind=MsgKind.FIND_SUCC,
            src=slots, dst=dst, target=targets, node=slots,
            mode=np.full(slots.size, FindMode.JOIN, dtype=np.int64),
        ))

    def leave(self, slot: int) -> None:
        """Graceful departure: announce, hand keys to the successor, die."""
        self._check_departure(slot)
        p, s = int(self.pred[slot]), int(self.succ[slot, 0])
        one = np.array([slot], dtype=np.int64)
        if p >= 0 and s >= 0:
            self._send(MsgBatch(
                kind=MsgKind.LEAVE_PRED, src=one,
                dst=np.array([p], dtype=np.int64),
                node=np.array([s], dtype=np.int64),
            ))
        if s >= 0:
            self._send(MsgBatch(
                kind=MsgKind.LEAVE_SUCC, src=one,
                dst=np.array([s], dtype=np.int64),
                node=np.array([p], dtype=np.int64),
            ))
            if self.store is not None and self.store[slot]:
                self._send_side(("copy", s, tuple(sorted(self.store[slot]))))
        self._deactivate(slot)
        self.metrics.leaves += 1

    def kill(self, slot: int) -> None:
        """Abrupt, non-graceful death: no messages, data lost.

        Survivors only learn of it through ping/forwarding timeouts;
        the tick at which the ring is spliced back together around the
        corpse is recorded as a repair-latency sample.
        """
        self._check_departure(slot)
        self._deactivate(slot)
        self.metrics.deaths += 1
        p, s = self._live_neighbors(slot)
        self._repairs.append([slot, self.tick, p, s])

    def kill_many(self, slots) -> None:
        """Abrupt simultaneous death of many peers (one failure wave).

        Equivalent to :meth:`kill` for each slot but with the live
        neighbors of every corpse computed once, vectorized, *after*
        the whole wave lands — which is also the semantically right
        splice target when adjacent peers die together.
        """
        slots = np.unique(np.asarray(slots, dtype=np.int64))
        if slots.size == 0:
            return
        if not self.alive[slots].all():
            raise ValueError("kill_many: some slots are already dead")
        if self.alive_count - slots.size < 2:
            raise ValueError("cannot drop below 2 alive peers")
        self.alive[slots] = False
        self._n_alive -= int(slots.size)
        self.pred[slots] = -1
        self.succ[slots] = -1
        self.fingers[slots] = -1
        if self.store is not None:
            for s in slots.tolist():
                self.store[s] = set()
        self.metrics.deaths += int(slots.size)
        self._mutated()
        av = np.flatnonzero(self.alive)
        pos = np.searchsorted(av, slots)
        preds = av[(pos - 1) % av.size]
        succs = av[pos % av.size]
        for s, p, q in zip(slots.tolist(), preds.tolist(), succs.tolist()):
            self._repairs.append([s, self.tick, p, q])

    def _check_departure(self, slot: int) -> None:
        if not self.alive[slot]:
            raise ValueError(f"slot {slot} is already dead")
        if self.alive_count <= 2:
            raise ValueError("cannot drop below 2 alive peers")

    def _deactivate(self, slot: int) -> None:
        self.alive[slot] = False
        self._n_alive -= 1
        self.pred[slot] = -1
        self.succ[slot] = -1
        self.fingers[slot] = -1
        if self.store is not None:
            self.store[slot] = set()
        self._mutated()

    # ------------------------------------------------------------------
    # traffic API
    # ------------------------------------------------------------------
    def lookup(self, start: int, key: int, tag: int = -1) -> None:
        """Issue one routed lookup for ``key`` starting at ``start``."""
        self.lookup_batch(np.array([start], dtype=np.int64),
                          np.array([key], dtype=np.uint64),
                          np.array([tag], dtype=np.int64))

    def lookup_batch(self, starts, keys, tags=None) -> None:
        """Issue many routed lookups at once (one message each)."""
        starts = np.asarray(starts, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        if tags is None:
            tags = np.full(starts.size, -1, dtype=np.int64)
        if not self.alive[starts].all():
            raise ValueError("lookup start nodes must be alive")
        self.outstanding_lookups += int(starts.size)
        self.metrics.lookups_issued += int(starts.size)
        self._send(MsgBatch(
            kind=MsgKind.FIND_SUCC, src=starts, dst=starts,
            target=keys, node=starts,
            mode=np.full(starts.size, FindMode.LOOKUP, dtype=np.int64),
            tag=np.asarray(tags, dtype=np.int64),
        ))

    def put_key(self, origin: int, key: int) -> None:
        """Route a replicated store of ``key`` from ``origin``."""
        self.put_many([origin], [key])

    def put_many(self, origins, keys) -> None:
        """Route many replicated stores at once (one message each)."""
        if self.store is None:
            raise ValueError("key storage disabled (with_keys=False)")
        origins = np.asarray(origins, dtype=np.int64)
        self.outstanding_ops += int(origins.size)
        self._send(MsgBatch(
            kind=MsgKind.FIND_SUCC, src=origins, dst=origins,
            target=np.asarray(keys, dtype=np.uint64), node=origins,
            mode=np.full(origins.size, FindMode.STORE, dtype=np.int64),
        ))

    def erase_key(self, origin: int, key: int) -> None:
        """Route an erase of ``key`` (owner plus replica set) from ``origin``."""
        self.erase_many([origin], [key])

    def erase_many(self, origins, keys) -> None:
        """Route many erases at once (one message each)."""
        if self.store is None:
            raise ValueError("key storage disabled (with_keys=False)")
        origins = np.asarray(origins, dtype=np.int64)
        self.outstanding_ops += int(origins.size)
        self._send(MsgBatch(
            kind=MsgKind.FIND_SUCC, src=origins, dst=origins,
            target=np.asarray(keys, dtype=np.uint64), node=origins,
            mode=np.full(origins.size, FindMode.ERASE, dtype=np.int64),
        ))

    def bootstrap_keys(self, keys) -> None:
        """Install keys at their owners + replicas directly (no messages).

        The bulk-load counterpart of :meth:`put_key` for mega-peer
        runs: ownership is resolved analytically over the current
        alive ring, exactly where routed stores would land on a
        quiesced ring.
        """
        if self.store is None:
            raise ValueError("key storage disabled (with_keys=False)")
        keys = np.asarray(keys, dtype=np.uint64)
        av = np.flatnonzero(self.alive)
        owners = av[np.searchsorted(self.ids[av], keys, side="left") % av.size]
        for key, owner in zip(keys.tolist(), owners.tolist()):
            self.store[owner].add(int(key))
            for w in self._replica_targets(owner):
                self.store[w].add(int(key))
        self._mutated()

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, ticks: int) -> None:
        """Advance the simulation by ``ticks`` ticks."""
        for _ in range(int(ticks)):
            self.step()

    def run_until_quiescent(self, *, max_ticks: int = 20000,
                            settle: int | None = None) -> int:
        """Run until stabilization quiesces; returns ticks consumed.

        Quiescence = no state mutation (successor/pred/finger/key
        writes), no side-channel transfers, and no outstanding routed
        operations (lookups, puts, erases) for ``settle`` consecutive
        ticks (default ``3 * period`` — a full maintenance round of
        every node plus slack).  Steady-state maintenance traffic that
        changes nothing does not count.
        """
        settle = 3 * self.cfg.period if settle is None else int(settle)
        start = self.tick
        while self.tick - start < max_ticks:
            self.step()
            if (self.tick - self._last_mutation >= settle
                    and not self._side
                    and self.outstanding_lookups == 0
                    and self.outstanding_ops == 0):
                return self.tick - start
        raise RuntimeError(
            f"no quiescence within {max_ticks} ticks "
            f"(last mutation at tick {self._last_mutation})"
        )

    def step(self) -> None:
        """Process one tick: maintenance round, deliveries, key transfers."""
        self._emit_periodic()
        bucket = self._pending.pop(self.tick, None)
        if bucket:
            grouped: dict[int, list[MsgBatch]] = {}
            for batch in bucket:
                grouped.setdefault(int(batch.kind), []).append(batch)
            for kind in sorted(grouped):
                batch = MsgBatch.concat(grouped[kind])
                self.log.record(self.tick, batch)
                self._deliver(batch)
        side = self._side.pop(self.tick, None)
        if side:
            for record in side:
                self._apply_side(record)
        if self._repairs:
            self._scan_repairs()
        self.tick += 1

    def _emit_periodic(self) -> None:
        cfg = self.cfg
        due = self.alive & (((self.tick + np.arange(self.S)) % cfg.period) == 0)
        u = np.flatnonzero(due).astype(np.int64)
        if u.size == 0:
            return
        s0 = self.succ[u, 0]
        m = (s0 >= 0) & (s0 != u)
        if m.any():
            # a finger strictly inside (u, succ0) is a closer successor
            # candidate — adopt it before stabilizing.  Stabilization's
            # pred walk moves one node per round, so a far overshoot
            # (a join seeded from a distant bootstrap under churn)
            # would otherwise take O(n) rounds to walk back; fingers
            # jump it exponentially close in one adoption.
            mu = u[m]
            fng = self.fingers[mu]
            fid = self.ids[np.maximum(fng, 0)]
            # a finger equal to mu is never inside (mu, succ0)
            inside = (fng >= 0) & _in_open(fid, self.ids[mu][:, None],
                                           self.ids[s0[m]][:, None])
            has = inside.any(axis=1)
            if has.any():
                first = np.argmax(inside, axis=1)
                hu = mu[has]
                self.succ[hu, 0] = fng[np.flatnonzero(has), first[has]]
                self._mutated()
                s0 = self.succ[u, 0]
            self._send(MsgBatch(kind=MsgKind.GET_PRED, src=u[m], dst=s0[m]))
        if cfg.self_check_every > 0 and m.any():
            # ring self-check: re-resolve succ(id + 1) through the ring
            # and let the JOIN-mode adopt guard pull in a closer owner;
            # this is what untangles laced rings (see NetConfig)
            rounds = (self.tick + u) // cfg.period
            chk = m & (rounds % cfg.self_check_every == 0)
            if chk.any():
                cu = u[chk]
                with np.errstate(over="ignore"):
                    tgt = self.ids[cu] + np.uint64(1)
                self._send(MsgBatch(
                    kind=MsgKind.FIND_SUCC, src=cu, dst=s0[chk],
                    target=tgt, node=cu,
                    mode=np.full(cu.size, FindMode.JOIN, dtype=np.int64),
                ))
        # successor-less peers self-heal: adopt the closest surviving
        # finger as a tentative successor (stabilization's
        # adopt-predecessor rule then walks it back to the true one);
        # with no fingers either — a joiner whose handshake got lost —
        # retry the join handshake every round until linked
        stuck = s0 < 0
        if stuck.any():
            su = u[stuck]
            fng = self.fingers[su]
            valid = (fng >= 0) & (fng != su[:, None])
            has = valid.any(axis=1)
            if has.any():
                first = np.argmax(valid, axis=1)
                hu = su[has]
                self.succ[hu, 0] = fng[np.flatnonzero(has), first[has]]
                self._mutated()
            if (~has).any():
                self._send_join(su[~has])
        p = self.pred[u]
        mp = p >= 0
        if mp.any():
            self._send(MsgBatch(kind=MsgKind.PING, src=u[mp], dst=p[mp]))
        fpr = cfg.fix_fingers_per_round
        if fpr > 0:
            cols_list = []
            for j in range(fpr):
                cols_list.append((self.fix_next[u] + j) % cfg.n_fingers)
            self.fix_next[u] = (self.fix_next[u] + fpr) % cfg.n_fingers
            cols = np.concatenate(cols_list)
            uu = np.tile(u, fpr)
            with np.errstate(over="ignore"):
                targets = self.ids[uu] + self._powers[cols]
            self._send(MsgBatch(
                kind=MsgKind.FIND_SUCC, src=uu, dst=uu,
                target=targets, node=uu,
                mode=np.full(uu.size, FindMode.FIX_FINGER, dtype=np.int64),
                fk=cols,
            ))

    # ------------------------------------------------------------------
    # delivery + handlers
    # ------------------------------------------------------------------
    def _deliver(self, batch: MsgBatch) -> None:
        alive_dst = self.alive[batch.dst]
        if not alive_dst.all():
            dead = batch.take(np.flatnonzero(~alive_dst))
            self._bounce(dead)
            batch = batch.take(np.flatnonzero(alive_dst))
            if len(batch) == 0:
                return
        kind = batch.kind
        if kind == MsgKind.GET_PRED:
            self._on_get_pred(batch)
        elif kind == MsgKind.PRED_REPLY:
            self._on_pred_reply(batch)
        elif kind == MsgKind.NOTIFY:
            self._on_notify(batch)
        elif kind == MsgKind.PING:
            pass  # liveness is signalled by the absence of a NACK
        elif kind == MsgKind.FIND_SUCC:
            self._on_find_succ(batch)
        elif kind == MsgKind.FOUND:
            self._on_found(batch)
        elif kind == MsgKind.NACK:
            self._on_nack(batch)
        elif kind == MsgKind.LEAVE_PRED:
            self._on_leave_pred(batch)
        elif kind == MsgKind.LEAVE_SUCC:
            self._on_leave_succ(batch)
        elif kind == MsgKind.JOIN_SEED:
            self._on_join_seed(batch)

    def _bounce(self, dead: MsgBatch) -> None:
        """Messages to dead peers: NACK the sender, account lost traffic."""
        if len(dead) == 0:
            return
        if dead.kind == MsgKind.FOUND:
            # requester died before its answer arrived
            lost_lookups = int(np.count_nonzero(dead.mode == FindMode.LOOKUP))
            self.outstanding_lookups -= lost_lookups
            self.outstanding_ops -= int(np.count_nonzero(
                (dead.mode == FindMode.STORE) | (dead.mode == FindMode.ERASE)))
            self.metrics.failed_lookups += lost_lookups
            self.metrics.failed_ops += len(dead) - lost_lookups
            return
        if dead.kind == MsgKind.NACK:
            # the peer that would have retried died too: any enclosed
            # query dies with it, so account it now instead of leaking
            # an outstanding-operation count
            enclosed = np.flatnonzero(dead.ok == MsgKind.FIND_SUCC)
            if enclosed.size:
                self._fail_finds(dead.take(enclosed))
            return
        if dead.kind not in _NACKABLE:
            return
        if dead.kind == MsgKind.FIND_SUCC:
            # a query whose origin or forwarding sender died can never be
            # retried: fail it now instead of bouncing a NACK into the void
            orphan = ~self.alive[dead.node] | ~self.alive[dead.src]
            if orphan.any():
                self._fail_finds(dead.take(np.flatnonzero(orphan)))
                dead = dead.take(np.flatnonzero(~orphan))
                if len(dead) == 0:
                    return
        elif not self.alive[dead.src].all():
            dead = dead.take(np.flatnonzero(self.alive[dead.src]))
            if len(dead) == 0:
                return
        self.metrics.timeouts += len(dead)
        self._send(MsgBatch(
            kind=MsgKind.NACK,
            src=dead.dst, dst=dead.src,
            target=dead.target, node=dead.node, hops=dead.hops,
            tag=dead.tag, mode=dead.mode, fk=dead.fk,
            ok=np.full(len(dead), int(dead.kind), dtype=np.int64),
        ), delay=self.cfg.timeout)

    def _on_get_pred(self, b: MsgBatch) -> None:
        s = b.dst
        self._send(MsgBatch(
            kind=MsgKind.PRED_REPLY, src=s, dst=b.src,
            node=self.pred[s], slist=self.succ[s].copy(),
        ))

    def _on_pred_reply(self, b: MsgBatch) -> None:
        L = self.cfg.succ_list_len
        u, s, p = b.dst, b.src, b.node
        fresh = self.succ[u, 0] == s  # drop stale replies
        if not fresh.all():
            b = b.take(np.flatnonzero(fresh))
            if len(b) == 0:
                return
            u, s, p = b.dst, b.src, b.node
        adopt = (p >= 0) & (p != u) & _in_open(
            self.ids[np.maximum(p, 0)], self.ids[u], self.ids[s])
        newlist = np.empty((len(b), L), dtype=np.int64)
        newlist[:, 0] = np.where(adopt, p, s)
        if L > 1:
            newlist[:, 1] = np.where(adopt, s, b.slist[:, 0])
        for j in range(2, L):
            newlist[:, j] = np.where(adopt, b.slist[:, j - 2], b.slist[:, j - 1])
        old = self.succ[u]
        changed = (newlist != old).any(axis=1)
        if changed.any():
            if self.store is not None:
                for i in np.flatnonzero(changed).tolist():
                    # diff the replica *range* (first R-1 valid entries),
                    # not raw membership: an entry promoted from deeper in
                    # the list also needs the keys
                    old_t = self._targets_of_row(old[i], int(u[i]))
                    new_t = self._targets_of_row(newlist[i], int(u[i]))
                    promoted = [w for w in new_t if w not in old_t]
                    if promoted:
                        keys = self._owned_keys(int(u[i]))
                        for w in promoted:
                            if keys:
                                self._send_side(("copy", w, tuple(keys)))
            self.succ[u] = newlist
            self._mutated()
        self._send(MsgBatch(kind=MsgKind.NOTIFY, src=u, dst=newlist[:, 0]))

    def _on_notify(self, b: MsgBatch) -> None:
        live_src = self.alive[b.src]
        if not live_src.all():
            b = b.take(np.flatnonzero(live_src))
            if len(b) == 0:
                return
        u, s = b.src, b.dst
        ok = u != s
        pre = self.pred[s]
        cond = ok & ((pre < 0) | _in_open(
            self.ids[u], self.ids[np.maximum(pre, 0)], self.ids[s]))
        if not cond.any():
            return
        idx = np.flatnonzero(cond)
        u, s, pre = u[idx], s[idx], pre[idx]
        # per-destination winner: the closest preceding candidate,
        # applied last so duplicate scatters resolve deterministically
        dist = self.ids[s] - self.ids[u]  # clockwise distance, wraps
        order = np.lexsort((~dist, s))
        u, s, pre = u[order], s[order], pre[order]
        old = self.pred[s].copy()
        self.pred[s] = u
        if not np.array_equal(self.pred[s], old):
            self._mutated()
        if self.store is not None:
            last = {}
            for i in range(len(s)):
                last[int(s[i])] = (int(u[i]), int(pre[i]))
            for si, (ui, pi) in sorted(last.items()):
                self._transfer_on_adoption(si, ui, pi)

    def _transfer_on_adoption(self, s: int, u: int, old_pred: int) -> None:
        """Key handoff when ``s`` adopts predecessor ``u``.

        Keys outside ``(u, s]`` now belong to (or are better replicated
        at) ``u``, and any adoption means ``s``'s owned arc changed —
        re-replicating it restores the replication degree before the
        next failure (redundant copies are set-union no-ops).
        """
        held = self.store[s]
        if held:
            keys = np.fromiter(held, dtype=np.uint64, count=len(held))
            with np.errstate(over="ignore"):
                outside = ~_in_ropen(keys, self.ids[u], self.ids[s])
            moved = sorted(int(k) for k in keys[outside])
            if moved:
                self._send_side(("copy", u, tuple(moved)))
        self._replicate_owned(s)

    def _route(self, cur: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Closest preceding valid finger of each (cur, target); -1 if none.

        Runs the ``chord_route`` kernel when the default backend has
        one; the numpy body below is the reference it reproduces.
        """
        kernel = default_backend().chord_route
        if kernel is not None:
            return kernel(cur, target, self.fingers, self.ids)
        out = np.full(cur.size, -1, dtype=np.int64)
        F = self.cfg.n_fingers
        for lo in range(0, cur.size, _ROUTE_CHUNK):
            sl = slice(lo, min(lo + _ROUTE_CHUNK, cur.size))
            c = cur[sl]
            f = self.fingers[c]  # (m, F)
            fid = self.ids[np.maximum(f, 0)]
            # a finger equal to c has offset 2**64 - 1: never inside
            okm = (f >= 0) & _in_open(fid, self.ids[c][:, None],
                                      target[sl][:, None])
            has = okm.any(axis=1)
            best = F - 1 - np.argmax(okm[:, ::-1], axis=1)
            picked = f[np.arange(f.shape[0]), best]
            out[sl] = np.where(has, picked, -1)
        return out

    def _on_find_succ(self, b: MsgBatch) -> None:
        # successor-less origins only: a periodic self-check (above) also
        # arrives as a first-hop JOIN query but needs no seeding
        first_join = ((b.mode == FindMode.JOIN) & (b.hops == 0)
                      & (b.dst != b.node) & (self.succ[b.node, 0] < 0))
        if first_join.any():
            # a bootstrap seeds the joiner with itself + its successor
            # list, so the joiner always gains a live contact even if
            # the routed resolution below dies in a degraded ring
            idx = np.flatnonzero(first_join)
            boots = b.dst[idx]
            L = self.cfg.succ_list_len
            seeds = np.concatenate(
                [boots[:, None], self.succ[boots][:, :L - 1]], axis=1)
            self._send(MsgBatch(kind=MsgKind.JOIN_SEED, src=boots,
                                dst=b.node[idx], slist=seeds))
        cur = b.dst
        cid = self.ids[cur]
        s0 = self.succ[cur, 0]
        has_s0 = (s0 >= 0) & (s0 != cur)
        self_owner = b.target == cid
        in_succ = has_s0 & _in_ropen(b.target, cid, self.ids[np.maximum(s0, 0)])
        found = self_owner | in_succ
        if found.any():
            idx = np.flatnonzero(found)
            owner = np.where(self_owner[idx], cur[idx], s0[idx])
            hops = b.hops[idx] + (in_succ[idx] & (owner != cur[idx]))
            self._send(MsgBatch(
                kind=MsgKind.FOUND, src=cur[idx], dst=b.node[idx],
                target=b.target[idx], node=owner, hops=hops,
                tag=b.tag[idx], mode=b.mode[idx], fk=b.fk[idx],
            ))
        rest = np.flatnonzero(~found)
        if rest.size == 0:
            return
        fb = b.take(rest)
        over = fb.hops + 1 > self.cfg.max_hops
        if over.any():
            self._fail_finds(fb.take(np.flatnonzero(over)))
            fb = fb.take(np.flatnonzero(~over))
            if len(fb) == 0:
                return
        # closest preceding finger; successor fallback; a successor-less
        # peer may still make progress through its surviving fingers
        nxt = self._route(fb.dst, fb.target)
        nxt = np.where(nxt >= 0, nxt, self.succ[fb.dst, 0])
        dead_end = nxt < 0
        if dead_end.any():
            # a successor-less peer that also has no usable finger
            # cannot make progress; drop the query (the issuer's retry
            # or NACK path covers it) rather than poisoning neighbors
            self._fail_finds(fb.take(np.flatnonzero(dead_end)))
            fb = fb.take(np.flatnonzero(~dead_end))
            nxt = nxt[~dead_end]
            if len(fb) == 0:
                return
        self._send(MsgBatch(
            kind=MsgKind.FIND_SUCC, src=fb.dst, dst=nxt,
            target=fb.target, node=fb.node, hops=fb.hops + 1,
            tag=fb.tag, mode=fb.mode, fk=fb.fk,
        ))

    def _fail_finds(self, b: MsgBatch) -> None:
        """Account FIND_SUCC rows dropped (hop budget / isolation)."""
        lookups = int(np.count_nonzero(b.mode == FindMode.LOOKUP))
        self.outstanding_lookups -= lookups
        self.outstanding_ops -= int(np.count_nonzero(
            (b.mode == FindMode.STORE) | (b.mode == FindMode.ERASE)))
        self.metrics.failed_lookups += lookups
        self.metrics.failed_ops += len(b) - lookups

    def _on_found(self, b: MsgBatch) -> None:
        for mode in (FindMode.LOOKUP, FindMode.JOIN, FindMode.FIX_FINGER,
                     FindMode.STORE, FindMode.ERASE):
            idx = np.flatnonzero(b.mode == mode)
            if idx.size == 0:
                continue
            o, owner, hops = b.dst[idx], b.node[idx], b.hops[idx]
            if mode == FindMode.LOOKUP:
                self.outstanding_lookups -= int(idx.size)
                self.metrics.record_lookups(hops, self.tick,
                                            tags=b.tag[idx], owners=owner)
            elif mode == FindMode.JOIN:
                # a retried join can resolve the joiner's own id back to
                # itself once it is partially linked — never self-adopt,
                # and never replace a strictly closer successor
                s0 = self.succ[o, 0]
                adopt = (owner != o) & ((s0 < 0) | (
                    (owner != s0) & _in_ropen(
                        self.ids[owner], self.ids[o],
                        self.ids[np.maximum(s0, 0)])))
                if adopt.any():
                    k = np.flatnonzero(adopt)
                    self.succ[o[k], 0] = owner[k]
                    self._mutated()
                    self._send(MsgBatch(kind=MsgKind.NOTIFY,
                                        src=o[k], dst=owner[k]))
            elif mode == FindMode.FIX_FINGER:
                fk = b.fk[idx]
                if not np.array_equal(self.fingers[o, fk], owner):
                    self.fingers[o, fk] = owner
                    self._mutated()
            elif mode == FindMode.STORE:
                for i in range(idx.size):
                    self._send_side(("put", int(owner[i]),
                                     (int(b.target[idx][i]),), int(o[i])))
            else:  # ERASE
                for i in range(idx.size):
                    self._send_side(("erase", int(owner[i]),
                                     (int(b.target[idx][i]),), int(o[i])))

    def _on_nack(self, b: MsgBatch) -> None:
        self.metrics.nacks += len(b)
        self._scrub(b.dst, b.src)
        retry = np.flatnonzero(b.ok == MsgKind.FIND_SUCC)
        if retry.size:
            rb = b.take(retry)
            self._send(MsgBatch(
                kind=MsgKind.FIND_SUCC, src=rb.dst, dst=rb.dst,
                target=rb.target, node=rb.node, hops=rb.hops,
                tag=rb.tag, mode=rb.mode, fk=rb.fk,
            ))

    def _scrub(self, u: np.ndarray, v: np.ndarray) -> None:
        """Remove dead peer ``v[i]`` from ``u[i]``'s local state, in order.

        A survivor repeated in one batch would lose scrubs to a
        conflicting scatter, so the batch runs in rounds by occurrence
        rank: round ``r`` applies every survivor's ``r``-th scrub.  The
        survivors of one round are distinct and touch disjoint rows, so
        the rounds equal applying the rows one at a time.
        """
        if u.size == 0:
            return
        order = np.argsort(u, kind="stable")
        su = u[order]
        new = np.concatenate(([True], su[1:] != su[:-1]))
        if new.all():
            self._scrub_distinct(u, v)
            return
        pos = np.arange(u.size)
        rank = np.empty(u.size, dtype=np.int64)
        rank[order] = pos - np.maximum.accumulate(np.where(new, pos, 0))
        for r in range(int(rank.max()) + 1):
            sel = np.flatnonzero(rank == r)
            self._scrub_distinct(u[sel], v[sel])

    def _scrub_distinct(self, u: np.ndarray, v: np.ndarray) -> None:
        """:meth:`_scrub` for a batch whose survivors ``u`` are distinct."""
        fm = self.fingers[u]
        hit = fm == v[:, None]
        if hit.any():
            self.fingers[u] = np.where(hit, -1, fm)
            self._mutated()
        rows = self.succ[u]
        mask = rows == v[:, None]
        if mask.any():
            keep = np.where(mask, -1, rows)
            order = np.argsort(mask, axis=1, kind="stable")
            self.succ[u] = np.take_along_axis(keep, order, axis=1)
            self._mutated()
        pm = self.pred[u] == v
        if pm.any():
            self.pred[u] = np.where(pm, -1, self.pred[u])
            self._mutated()

    def _on_leave_pred(self, b: MsgBatch) -> None:
        p, v, s_new = b.dst, b.src, b.node
        rows = self.succ[p]
        hit = rows == v[:, None]
        if hit.any():
            self.succ[p] = np.where(hit, s_new[:, None], rows)
            self._mutated()
        fm = self.fingers[p]
        fhit = fm == v[:, None]
        if fhit.any():
            # v's successor now owns every target v owned
            self.fingers[p] = np.where(fhit, s_new[:, None], fm)
            self._mutated()

    def _on_leave_succ(self, b: MsgBatch) -> None:
        s, v, p_new = b.dst, b.src, b.node
        m = self.pred[s] == v
        if m.any():
            self.pred[s] = np.where(m & (p_new >= 0), p_new,
                                    np.where(m, -1, self.pred[s]))
            self._mutated()
        fm = self.fingers[s]
        fhit = fm == v[:, None]
        if fhit.any():
            self.fingers[s] = np.where(fhit, s[:, None], fm)
            self._mutated()
        if self.store is not None:
            for si in sorted(set(s[m].tolist())):
                self._replicate_owned(si)

    def _on_join_seed(self, b: MsgBatch) -> None:
        """Adopt the closest-following seed contact as a tentative successor.

        The seed list (the bootstrap plus its successor list) is the
        joiner's guaranteed-progress path: routed join resolution can
        dead-end while the ring is degraded, but any live contact
        clockwise of the joiner lets stabilization's adopt-predecessor
        rule walk the overshoot back to the true successor.  A dead
        seed entry is handled by the normal NACK/scrub path.
        """
        u = b.dst
        cands = b.slist
        m = len(b)
        valid = (cands >= 0) & (cands != u[:, None])
        with np.errstate(over="ignore"):
            dist = self.ids[np.maximum(cands, 0)] - self.ids[u][:, None]
        far = np.uint64(np.iinfo(np.uint64).max)
        dist = np.where(valid, dist, far)
        best = np.argmin(dist, axis=1)
        rows = np.arange(m)
        bdist = dist[rows, best]
        bcand = cands[rows, best]
        s0 = self.succ[u, 0]
        with np.errstate(over="ignore"):
            cur = np.where(s0 >= 0,
                           self.ids[np.maximum(s0, 0)] - self.ids[u], far)
        adopt = valid.any(axis=1) & (bdist < cur)
        if not adopt.any():
            return
        idx = np.flatnonzero(adopt)
        # per-joiner winner: closest candidate applied last, so duplicate
        # scatters (several seed replies in one tick) resolve deterministically
        order = np.lexsort((~bdist[idx], u[idx]))
        uu, cc = u[idx][order], bcand[idx][order]
        self.succ[uu, 0] = cc
        self._mutated()
        self._send(MsgBatch(kind=MsgKind.NOTIFY, src=uu, dst=cc))

    # ------------------------------------------------------------------
    # side channel: key payloads (variable-size, low-volume)
    # ------------------------------------------------------------------
    def _apply_side(self, record: tuple) -> None:
        op, dst, keys = record[0], record[1], record[2]
        if op == "put":
            origin = record[3]
            self.outstanding_ops -= 1  # a re-resolve below re-counts it
            if not self.alive[dst]:
                if self.alive[origin]:
                    self.put_key(origin, keys[0])  # owner died: re-resolve
                else:
                    self.metrics.lost_puts += 1
                return
            added = [k for k in keys if k not in self.store[dst]]
            if added:
                self.store[dst].update(added)
                self._mutated()
                self._backflow(dst, added)
            for w in self._replica_targets(dst):
                self._send_side(("copy", w, keys))
        elif op == "copy":
            if not self.alive[dst]:
                return
            added = [k for k in keys if k not in self.store[dst]]
            if added:
                self.store[dst].update(added)
                self._mutated()
                self._backflow(dst, added)
        elif op == "erase":
            origin = record[3]
            self.outstanding_ops -= 1  # a re-resolve below re-counts it
            if not self.alive[dst]:
                if self.alive[origin]:
                    self.erase_key(origin, keys[0])
                else:
                    self.metrics.failed_ops += 1
                return
            changed = False
            for k in keys:
                if k in self.store[dst]:
                    self.store[dst].discard(k)
                    changed = True
            for w in self._replica_targets(dst):
                self._send_side(("erase_copy", w, keys))
            if changed:
                self._mutated()
        elif op == "erase_copy":
            if self.alive[dst]:
                before = len(self.store[dst])
                self.store[dst].difference_update(keys)
                if len(self.store[dst]) != before:
                    self._mutated()

    def _backflow(self, dst: int, added: list[int]) -> None:
        """Forward newly gained out-of-arc keys toward their owner.

        A key replicated forward along the successor chain can strand
        there when its owner rejoins empty: handoff happens at pred
        *adoption* instants, so copies arriving later would never flow
        back.  Forwarding only what was newly gained terminates — once
        every holder on the backward path has the key, nothing is new
        and nothing is forwarded.
        """
        p = int(self.pred[dst])
        if p < 0 or p == dst:
            return
        arr = np.fromiter(added, dtype=np.uint64, count=len(added))
        with np.errstate(over="ignore"):
            outside = ~_in_ropen(arr, self.ids[p], self.ids[dst])
        if outside.any():
            moved = tuple(sorted(int(k) for k in arr[outside]))
            self._send_side(("copy", p, moved))

    # ------------------------------------------------------------------
    # repair-latency tracking
    # ------------------------------------------------------------------
    def _scan_repairs(self) -> None:
        remaining = []
        for entry in self._repairs:
            slot, t0, p, s = entry
            if not self.alive[p] or not self.alive[s]:
                p, s = self._live_neighbors(slot)
                entry[2], entry[3] = p, s
            if self.succ[p, 0] == s and self.pred[s] == p:
                self.metrics.repair_latencies.append(self.tick - t0)
                if self.store is not None:
                    # every owner that replicated onto the corpse (its
                    # R-1 predecessors) lost a copy; restore the degree
                    w = p
                    for _ in range(self.cfg.replication - 1):
                        if w < 0 or not self.alive[w]:
                            break
                        self._replicate_owned(int(w))
                        w = int(self.pred[w])
            else:
                remaining.append(entry)
        self._repairs = remaining
