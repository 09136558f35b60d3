"""Incremental two-choice placement state: O(d) per-event updates.

The batch engines (:mod:`repro.core.engine`,
:mod:`repro.dynamics.engine`) are trace-shaped: they want every event
up front so randomness can be pre-drawn and decisions vectorized.  The
paper's process, however, is *online* — each ball commits on arrival —
and a serving deployment (the ``repro.serve`` tier) never sees the end
of its trace.  :class:`IncrementalState` is the state object both
shapes share:

* **live bin loads** plus the ball→bin index, updated in ``O(d)`` per
  insert and ``O(1)`` per delete/lookup with no recompute;
* the **cyclic-successor remap** under bin churn (consistent hashing's
  clockwise hand-off on the ring) and the merged region measures the
  ``smaller``/``larger`` tie-breaks read, updated in O(gap) per bin
  leave/join (only the churned bin's arc and its owner change);
* :meth:`apply_window` — the churn-free mixed insert/delete window
  application the batched dynamic engine runs, dispatching between a
  compiled kernel (``dynamic_window``), the mixed-event
  conflict-free-prefix numpy path, and a scalar fast path for windows
  below :data:`repro.kernels.SMALL_WINDOW_CUTOFF`;
* crash-safe NPZ :meth:`save` / :meth:`load` snapshots, so a
  long-lived server can checkpoint and resume mid-stream; every load
  runs :meth:`check` on the restored invariants.

Decision semantics are *identical* to the batch engines by
construction: the scalar path **is** the sequential reference
(:func:`repro.core.strategies.decide_row_scalar`), the vectorized and
kernel paths are the existing batched machinery, and churn
re-placement consumes the auxiliary RNG exactly as before.  Feeding
the same pre-drawn candidate stream through this class therefore
reproduces ``simulate_dynamics`` bit-for-bit — enforced by
``tests/serve/test_incremental_parity.py``.

Randomness is deliberately *external*: inserts take their candidate
row and tie-break uniform as arguments (the caller owns the stream
layout — :func:`repro.core.engine.choice_blocks` for replay parity, a
block-drawing online stream for servers).  Only churn re-placement
draws internally, from ``aux_rng``, mirroring the dynamic engines.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from repro.core.spaces import GeometricSpace
from repro.core.strategies import (
    TieBreak,
    decide_row_scalar,
    decide_rows,
    strategy_needs_measures,
)
from repro.kernels import (
    SMALL_WINDOW_CUTOFF,
    STRATEGY_CODES,
    KernelBackend,
)
from repro.obs import counter_add, histogram_observe
from repro.obs import enabled as obs_enabled
from repro.utils.validation import check_positive_int

__all__ = ["IncrementalState", "mixed_conflict_prefix"]

#: Event codes inside :meth:`IncrementalState.apply_window` windows —
#: numerically identical to :class:`repro.dynamics.events.EventKind`
#: (``INSERT``/``DELETE``) so trace arrays pass through unchanged.
KIND_INSERT = 0
KIND_DELETE = 1

#: Snapshot format version written by :meth:`IncrementalState.save`.
_SNAPSHOT_FORMAT = 1


def _checks_enabled() -> bool:
    """``REPRO_CHECK=1``: run :meth:`IncrementalState.check` after churn."""
    return os.environ.get("REPRO_CHECK", "").strip() == "1"


def mixed_conflict_prefix(touched: np.ndarray, is_insert: np.ndarray) -> int:
    """Longest event prefix decidable from the prefix-start load vector.

    ``touched`` is ``(B, d)``: an insert row holds its candidate bins, a
    delete row its target's bin broadcast ``d`` times (``-1`` when the
    target is inserted within the same batch — its true bin is then the
    chosen bin of that earlier insert, already accounted for by the
    insert's candidates).  An event conflicts when it is an insert and
    any of its bins was touched by an earlier row; deletes never
    conflict.  Returns at least 1 for non-empty input.

    Examples
    --------
    >>> import numpy as np
    >>> t = np.array([[0, 1], [2, 2], [1, 3]])        # rows: ins, del, ins
    >>> mixed_conflict_prefix(t, np.array([True, False, True]))
    2
    >>> mixed_conflict_prefix(t[:2], np.array([True, False]))
    2
    """
    if touched.ndim != 2:
        raise ValueError(f"touched must be 2-D, got shape {touched.shape}")
    b, d = touched.shape
    if b == 0:
        return 0
    flat = touched.ravel()
    _, first_flat, inverse = np.unique(flat, return_index=True, return_inverse=True)
    first_row = first_flat[inverse] // d
    own_row = np.repeat(np.arange(b, dtype=np.int64), d)
    conflicts = (first_row < own_row) & np.repeat(is_insert, d)
    if not conflicts.any():
        return b
    return int(own_row[conflicts].min())


class IncrementalState:
    """Live placement state with O(d) per-event updates and NPZ snapshots.

    Parameters
    ----------
    space:
        The geometric space (bin ownership + region measures).
    d:
        Choices per insert.
    strategy:
        Tie-break rule (:class:`~repro.core.strategies.TieBreak`).
    partitioned:
        Whether candidate draws use the partitioned variant (recorded
        for snapshots; draws themselves are the caller's).
    aux_rng:
        Generator consumed by churn re-placement only.  The dynamic
        engines spawn it off the main seed *before* the insert
        pre-draw; a server may leave it ``None`` until churn is used.
    expect_balls:
        Initial ball-index capacity (grows on demand).
    """

    def __init__(
        self,
        space: GeometricSpace,
        d: int,
        strategy: TieBreak | str,
        *,
        partitioned: bool = False,
        aux_rng: np.random.Generator | None = None,
        expect_balls: int = 0,
    ) -> None:
        self.space = space
        self.n = space.n
        self.d = check_positive_int(d, "d")
        self.strategy = TieBreak.coerce(strategy)
        self.partitioned = bool(partitioned)
        self.aux_rng = aux_rng
        self.loads = np.zeros(self.n, dtype=np.int64)
        self.ball_bin = np.full(max(int(expect_balls), 0), -1, dtype=np.int64)
        self.active = np.ones(self.n, dtype=bool)
        self.needs_measures = strategy_needs_measures(self.strategy)
        self.base_measures = space.region_measures() if self.needs_measures else None
        self.measures = self.base_measures
        self.remap: np.ndarray | None = None  # None == identity (no churn yet)
        self._inactive = 0  # count of inactive bins; remap is None iff 0
        self.inserts_done = 0
        self.deletes_done = 0

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        """Grow the ball→bin index to hold ids ``< capacity`` (amortized)."""
        cur = self.ball_bin.shape[0]
        if capacity <= cur:
            return
        new = max(capacity, 2 * cur, 16)
        grown = np.full(new, -1, dtype=np.int64)
        grown[:cur] = self.ball_bin
        self.ball_bin = grown

    # ------------------------------------------------------------------
    # scalar event application (the sequential reference semantics)
    # ------------------------------------------------------------------
    def insert(self, ball: int, cand_row: np.ndarray, u: float) -> int:
        """Place ``ball`` given its candidate row and tie-break uniform.

        Returns the chosen bin.  ``O(d)``: one load gather, one scalar
        tie-break, one increment.
        """
        if ball >= len(self.ball_bin):
            self.reserve(ball + 1)
        cand = cand_row if self.remap is None else self.remap[cand_row]
        loads = self.loads
        mrow = self.measures[cand].tolist() if self.needs_measures else None
        j = decide_row_scalar(loads[cand].tolist(), mrow, float(u), self.strategy)
        chosen = cand.item(j)
        loads[chosen] += 1
        self.ball_bin[ball] = chosen
        self.inserts_done += 1
        return chosen

    def delete(self, ball: int) -> int:
        """Remove ``ball``; returns the bin it vacated.  ``O(1)``."""
        ball_bin = self.ball_bin
        b = ball_bin.item(ball) if 0 <= ball < len(ball_bin) else -1
        if b < 0:
            raise RuntimeError(f"delete of unplaced ball {ball}")
        self.loads[b] -= 1
        ball_bin[ball] = -1
        self.deletes_done += 1
        return b

    def lookup(self, ball: int) -> int:
        """The bin currently holding ``ball`` (``-1`` if unplaced).  ``O(1)``."""
        ball_bin = self.ball_bin
        return ball_bin.item(ball) if 0 <= ball < len(ball_bin) else -1

    # ------------------------------------------------------------------
    # churn (scalar by nature: rare, topology-changing)
    # ------------------------------------------------------------------
    def bin_leave(self, slot: int) -> None:
        """Deactivate bin ``slot``, re-placing its displaced balls.

        The departed arc passes to the clockwise successor ``t``: only
        the cyclic gap that maps to ``slot`` is pointed at ``t`` and only
        ``t``'s merged measure is re-summed, so the topology update costs
        O(gap), not O(n).  Leaving an inactive bin is a no-op; the last
        active bin cannot leave.
        """
        slot = self._check_slot(slot)
        if not self.active[slot]:
            return
        if self._inactive == self.n - 1:
            raise ValueError("the last active bin cannot leave")
        if self.remap is None:
            self.remap = np.arange(self.n, dtype=np.int64)
            if self.needs_measures:
                # bincount over the identity remap adds each measure to 0.0
                self.measures = np.array(self.base_measures, dtype=np.float64)
        start = self._gap_start(slot)
        succ = int(self.remap[(slot + 1) % self.n])
        self.active[slot] = False
        self._inactive += 1
        self._point_arc(start, slot, succ)
        if self.needs_measures:
            self.measures[slot] = 0.0
            self.measures[succ] = self._arc_measure(start, succ)
        displaced = np.nonzero(self.ball_bin == slot)[0]
        self.loads[slot] = 0
        for ball in displaced:
            self._replace_ball(int(ball))
        if _checks_enabled():
            self.check()

    def bin_join(self, slot: int) -> None:
        """Reactivate bin ``slot`` (empty: no eager rebalancing on joins).

        ``slot`` takes back the part of its owner's gap that ends at
        ``slot``: O(gap).  Joining an active bin is a no-op.
        """
        slot = self._check_slot(slot)
        if self.active[slot]:
            return
        start = self._gap_start(slot)
        owner = int(self.remap[slot])
        self.active[slot] = True
        self._inactive -= 1
        if self._inactive == 0:
            self.remap = None
            self.measures = self.base_measures
        else:
            self._point_arc(start, slot, slot)
            if self.needs_measures:
                self.measures[slot] = self._arc_measure(start, slot)
                self.measures[owner] = self._arc_measure((slot + 1) % self.n, owner)
        if _checks_enabled():
            self.check()

    def _check_slot(self, slot: int) -> int:
        slot = int(slot)
        if not 0 <= slot < self.n:
            raise ValueError(f"bin slot {slot} outside [0, {self.n})")
        return slot

    def _gap_start(self, slot: int) -> int:
        """First index of the cyclic run of inactive bins just before ``slot``.

        Equals ``slot`` when its predecessor is active.  Scans backwards
        in doubling windows, so the cost is O(gap); another active bin
        must exist.
        """
        n = self.n
        if self.active[slot - 1]:
            return slot
        hi, width = slot - 1, 8
        while True:
            lo = max(hi - width, slot - n + 1)
            hits = np.flatnonzero(self.active[np.arange(lo, hi) % n])
            if hits.size:
                return (lo + int(hits[-1]) + 1) % n
            hi, width = lo, 2 * width

    def _point_arc(self, start: int, stop: int, owner: int) -> None:
        """Remap the cyclic index range ``[start, stop]`` to ``owner``."""
        if start <= stop:
            self.remap[start : stop + 1] = owner
        else:
            self.remap[start:] = owner
            self.remap[: stop + 1] = owner

    def _arc_measure(self, start: int, stop: int) -> float:
        """Merged measure of the cyclic range ``[start, stop]``.

        Summed from 0.0 sequentially in ascending index order — the
        order ``np.bincount(weights=)`` adds in, so the result is bit
        for bit the full rebuild's (pairwise ``np.sum`` is not).
        """
        base = self.base_measures
        if start <= stop:
            parts = (base[start : stop + 1],)
        else:
            parts = (base[: stop + 1], base[start:])
        return float(np.cumsum(np.concatenate(((0.0,), *parts)))[-1])

    def _replace_ball(self, ball: int) -> None:
        if self.aux_rng is None:
            raise RuntimeError(
                "churn re-placement needs aux_rng (construct IncrementalState "
                "with aux_rng=... to enable bin churn)"
            )
        raw = self.space.sample_choice_bins(
            self.aux_rng, 1, self.d, partitioned=self.partitioned
        )[0]
        cand = self.remap[raw]
        u = float(self.aux_rng.random())
        row = self.loads[cand]
        mrow = self.measures[cand] if self.needs_measures else None
        j = decide_row_scalar(
            row.tolist(), None if mrow is None else mrow.tolist(), u, self.strategy
        )
        chosen = int(cand[j])
        self.loads[chosen] += 1
        self.ball_bin[ball] = chosen

    def _recompute_topology(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The cyclic-successor remap and merged measures, rebuilt in O(n).

        Pure: returns ``(remap, measures)`` from :attr:`active` without
        touching the state.  :meth:`load` installs it once; :meth:`check`
        compares the incrementally maintained pair against it.
        """
        if self.active.all():
            return None, self.base_measures
        n = self.n
        sentinel = 2 * n
        cand = np.where(self.active, np.arange(n, dtype=np.int64), sentinel)
        # next active index at or after j, wrapping to the first active
        succ = np.minimum.accumulate(cand[::-1])[::-1]
        first = int(np.argmax(self.active))
        remap = np.where(succ >= sentinel, first, succ).astype(np.int64)
        measures = self.base_measures
        if measures is not None:
            measures = np.bincount(remap, weights=measures, minlength=n)
        return remap, measures

    def check(self) -> None:
        """Verify the state's invariants; raise ``ValueError`` naming the broken one.

        Loads equal the bincount of the ball→bin index, inactive bins
        hold no balls, the insert/delete counters match the placed
        total, and the remap/measures equal the full O(n) rebuild.
        Cost O(n + capacity): :meth:`load` always runs it; churn runs it
        after every :meth:`bin_leave` / :meth:`bin_join` under
        ``REPRO_CHECK=1``.
        """
        n = self.n
        if not self._shapes_ok():
            raise ValueError(
                f"loads/active must be ({n},) int64/bool arrays, got "
                f"{self.loads.shape} {self.loads.dtype} / "
                f"{self.active.shape} {self.active.dtype}"
            )
        placed = self.ball_bin[self.ball_bin >= 0]
        if placed.size and int(placed.max()) >= n:
            raise ValueError(f"ball_bin holds a bin outside [0, {n})")
        if not np.array_equal(self.loads, np.bincount(placed, minlength=n)):
            raise ValueError("loads != bincount(ball_bin): the ball index disagrees")
        if self.loads[~self.active].any():
            raise ValueError("an inactive bin holds balls")
        if self.inserts_done - self.deletes_done != int(self.loads.sum()):
            raise ValueError(
                f"inserts_done - deletes_done = "
                f"{self.inserts_done - self.deletes_done} but loads sum to "
                f"{int(self.loads.sum())}"
            )
        if self._inactive != n - int(np.count_nonzero(self.active)):
            raise ValueError("the inactive-bin counter disagrees with the active mask")
        if not self.active.any():
            raise ValueError("no active bin")
        remap, measures = self._recompute_topology()
        if (remap is None) != (self.remap is None) or (
            remap is not None and not np.array_equal(remap, self.remap)
        ):
            raise ValueError("remap != full rebuild of the cyclic-successor map")
        if measures is not None and not np.array_equal(measures, self.measures):
            raise ValueError("merged measures != full rebuild")

    def _shapes_ok(self) -> bool:
        return (
            self.loads.shape == (self.n,) and self.loads.dtype == np.int64
            and self.active.shape == (self.n,) and self.active.dtype == bool
        )

    # ------------------------------------------------------------------
    # batched window application (the batched engines' inner loop)
    # ------------------------------------------------------------------
    def apply_window(
        self,
        kinds: np.ndarray,
        args: np.ndarray,
        start: int,
        stop: int,
        cands: np.ndarray,
        us: np.ndarray,
        *,
        batch_size: int,
        backend: KernelBackend | None = None,
        out: np.ndarray | None = None,
    ) -> None:
        """Apply a churn-free window of insert/delete events in order.

        ``cands``/``us`` are indexed by ball id (the pre-drawn or
        streamed candidate arrays).  When ``out`` (a C-contiguous int64
        array indexed like ``kinds``) is given, ``out[i]`` receives
        event ``i``'s result for ``start <= i < stop``: the chosen bin
        of an insert, the freed bin of a delete — what :meth:`insert`
        and :meth:`delete` return.  Three dispatch tiers, all
        bit-identical:

        * windows below :data:`repro.kernels.SMALL_WINDOW_CUTOFF`
          events run the scalar reference directly — per-event
          application beats both kernel dispatch and numpy batching at
          that size (the serving tier's single-request fast path);
        * an accelerated ``backend`` runs the whole window through its
          compiled ``dynamic_window`` kernel (strictly in-order — the
          sequential semantics itself);
        * otherwise the mixed-event conflict-free-prefix vectorization
          decides provably order-independent prefixes in one shot.
        """
        rows = stop - start
        if rows <= 0:
            return
        amax = int(args[start:stop].max())
        if amax >= self.ball_bin.shape[0]:
            self.reserve(amax + 1)
        _obs = obs_enabled()
        if rows <= SMALL_WINDOW_CUTOFF:
            if _obs:
                counter_add("dynamics.scalar_steps", rows)
            for i in range(start, stop):
                arg = int(args[i])
                if kinds[i] == KIND_INSERT:
                    r = self.insert(arg, cands[arg], float(us[arg]))
                else:
                    r = self.delete(arg)
                if out is not None:
                    out[i] = r
            return
        if backend is not None and backend.dynamic_window is not None:
            if _obs:
                counter_add("dynamics.kernel_windows")
                histogram_observe("dynamics.window_events", rows)
            ins, dels = backend.dynamic_window(
                kinds,
                args,
                start,
                stop,
                cands,
                us,
                self.d,
                self.remap,
                self.loads,
                self.measures if self.needs_measures else None,
                STRATEGY_CODES[self.strategy.value],
                self.ball_bin,
                out,
            )
            self.inserts_done += ins
            self.deletes_done += dels
            return
        d = self.d
        i = start
        while i < stop:
            end = min(i + batch_size, stop)
            kw = kinds[i:end]
            aw = args[i:end]
            is_insert = kw == KIND_INSERT
            b = end - i
            touched = np.empty((b, d), dtype=np.int64)
            if is_insert.any():
                raw = cands[aw[is_insert]]
                touched[is_insert] = raw if self.remap is None else self.remap[raw]
            if not is_insert.all():
                touched[~is_insert] = self.ball_bin[aw[~is_insert], None]
            prefix = mixed_conflict_prefix(touched, is_insert)
            if _obs:
                # the mixed-event vectorization's effectiveness in one number:
                # how many events each conflict-free prefix actually covered
                histogram_observe("dynamics.window_events", prefix)
            # --- apply the conflict-free prefix from the current loads ---
            p_ins = is_insert[:prefix]
            ins_ids = aw[:prefix][p_ins]
            if ins_ids.size:
                sub = touched[:prefix][p_ins]
                cand_loads = self.loads[sub]
                cand_measures = self.measures[sub] if self.needs_measures else None
                j = decide_rows(cand_loads, cand_measures, us[ins_ids], self.strategy)
                chosen = sub[np.arange(ins_ids.size), j]
                # prefix inserts have pairwise-disjoint candidates: no dups
                self.loads[chosen] += 1
                self.ball_bin[ins_ids] = chosen
                self.inserts_done += int(ins_ids.size)
                if out is not None:
                    out[i + np.flatnonzero(p_ins)] = chosen
            del_ids = aw[:prefix][~p_ins]
            if del_ids.size:
                # read after the prefix inserts: a delete's target may be
                # one of them
                bins = self.ball_bin[del_ids]
                np.subtract.at(self.loads, bins, 1)
                self.ball_bin[del_ids] = -1
                self.deletes_done += int(del_ids.size)
                if out is not None:
                    out[i + np.flatnonzero(~p_ins)] = bins
            i += prefix
            if prefix < b:
                # the event at `i` reads a bin the prefix touched: its
                # decision needs the updated loads, so step it scalar
                if _obs:
                    counter_add("dynamics.scalar_steps")
                arg = int(aw[prefix])
                if is_insert[prefix]:
                    r = self.insert(arg, cands[arg], float(us[arg]))
                else:
                    r = self.delete(arg)
                if out is not None:
                    out[i] = r
                i += 1

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def live_loads(self) -> np.ndarray:
        """Loads of the currently active bins."""
        return self.loads[self.active]

    @property
    def occupancy(self) -> int:
        """Balls currently placed (inserts minus deletes)."""
        return self.inserts_done - self.deletes_done

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def save(self, path, *, extra_arrays=None, extra_meta=None) -> None:
        """Checkpoint the live state to an NPZ file.

        Writing to a path is crash-safe: the archive goes to a sibling
        temp file, is fsynced, then ``os.replace``-d onto ``path``
        (``.npz`` is appended to a path lacking it, as
        :func:`numpy.savez` does).  A file object is written in place.
        The live arrays (loads, ball→bin index, active mask, ring
        positions) are written directly — no intermediate serialization
        — together with a JSON metadata record (dimensions, strategy,
        counters, the churn RNG state).  ``extra_arrays`` /
        ``extra_meta`` let callers (the serving tier) piggyback their
        own state into the same file; extra array names must not start
        with ``core_``.
        """
        meta = {
            "format": _SNAPSHOT_FORMAT,
            "n": int(self.n),
            "d": int(self.d),
            "strategy": self.strategy.value,
            "partitioned": self.partitioned,
            "inserts_done": int(self.inserts_done),
            "deletes_done": int(self.deletes_done),
            "space_kind": type(self.space).__name__,
            "aux_rng_state": (
                None if self.aux_rng is None else self.aux_rng.bit_generator.state
            ),
        }
        if extra_meta:
            meta["extra"] = extra_meta
        arrays = {
            "core_loads": self.loads,
            "core_ball_bin": self.ball_bin,
            "core_active": self.active,
            "core_meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        }
        positions = getattr(self.space, "positions", None)
        if positions is not None:
            arrays["core_positions"] = np.asarray(positions)
        if extra_arrays:
            for name, arr in extra_arrays.items():
                if name.startswith("core_"):
                    raise ValueError(f"extra array name {name!r} is reserved")
                arrays[name] = arr
        if hasattr(path, "write"):
            np.savez(path, **arrays)
            return
        # crash-safe: a sibling temp file is synced, then renamed over the
        # target, so a failed write never destroys the last good checkpoint
        target = os.fspath(path)
        if not target.endswith(".npz"):  # numpy's naming rule
            target += ".npz"
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target) or ".",
            prefix=f".{os.path.basename(target)}.",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path, *, space: GeometricSpace | None = None):
        """Restore a :meth:`save` checkpoint.

        Returns ``(state, extra)`` where ``extra`` is
        ``{"meta": extra_meta_dict, "arrays": {name: array}}`` holding
        whatever the caller piggybacked.  ``space`` may be omitted for
        ring snapshots (rebuilt from the stored positions); other
        spaces must be supplied by the caller and are validated against
        the stored dimensions.
        """
        with np.load(path, allow_pickle=False) as payload:
            meta = json.loads(bytes(payload["core_meta"]).decode("utf-8"))
            if meta.get("format") != _SNAPSHOT_FORMAT:
                raise ValueError(
                    f"unsupported snapshot format {meta.get('format')!r} in {path}"
                )
            if space is None:
                if meta["space_kind"] == "RingSpace" and "core_positions" in payload:
                    from repro.core.ring import RingSpace

                    space = RingSpace(payload["core_positions"])
                else:
                    raise ValueError(
                        f"snapshot holds a {meta['space_kind']}; pass space= to load"
                    )
            if space.n != meta["n"]:
                raise ValueError(
                    f"snapshot expects n={meta['n']} bins but space has {space.n}"
                )
            state = cls(
                space,
                meta["d"],
                meta["strategy"],
                partitioned=meta["partitioned"],
            )
            state.loads = payload["core_loads"].copy()
            state.ball_bin = payload["core_ball_bin"].copy()
            state.active = payload["core_active"].copy()
            state._inactive = state.n - int(np.count_nonzero(state.active))
            state.inserts_done = meta["inserts_done"]
            state.deletes_done = meta["deletes_done"]
            if meta["aux_rng_state"] is not None:
                state.aux_rng = np.random.default_rng(0)
                state.aux_rng.bit_generator.state = meta["aux_rng_state"]
            if state._shapes_ok():  # else check() names the bad arrays
                state.remap, state.measures = state._recompute_topology()
            state.check()
            extra_arrays = {
                name: payload[name].copy()
                for name in payload.files
                if not name.startswith("core_")
            }
        return state, {"meta": meta.get("extra", {}), "arrays": extra_arrays}
