"""Elephant detection from the §6.2 usage stream.

Sieve-style sampling prices only the flows that carry enough bytes to
matter.  Endpoints already report cumulative per-flow byte counts
(``report_usage``); the detector folds those reports into a per-flow
*new-bytes* accumulator and promotes a flow to elephant once the
accumulator crosses ``promote_bytes``.  Elephants whose byte count
stops growing for ``idle_epochs`` allocator epochs are demoted back to
mice — demotion resets the accumulator, so re-promotion requires a
fresh ``promote_bytes`` of traffic (a flow cannot flap on the strength
of bytes it sent last week).

Time is counted in *epochs*: the owning scheduler calls
:meth:`ElephantDetector.advance` once per allocator iterate, which is
the only clock the allocator loop has.  The idle scan touches every
elephant, so it runs every ``check_every`` epochs rather than every
epoch — demotion is inherently coarse (idle_epochs is a policy knob,
not a deadline), and the amortized scan keeps ``advance`` off the
priced hot path.

State is bounded by the *live* flow population two ways: counters are
created lazily on the first byte report (a silent mouse costs nothing),
and only for flows the bound membership predicate recognises — a
report that arrives after its flow ended (or before the start was
applied) creates no state.  The owning scheduler still calls
:meth:`forget_many` from every churn path, so counters never outlive
their flows.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

__all__ = ["ElephantDetector"]

# Per-flow state slots (one list per flow: cheaper than an object,
# single dict lookup per observe).
_LAST_TOTAL = 0   # highest cumulative byte count seen
_ACCUM = 1        # new bytes since tracking (or since demotion)
_LAST_GROWTH = 2  # epoch of the last positive byte delta
_IS_ELEPHANT = 3


class ElephantDetector:
    """Byte-count promotion/demotion state for the sampling front-end.

    Parameters
    ----------
    promote_bytes:
        New-byte accumulation at which a mouse becomes an elephant.
        The default (1 MiB) is the usual datacenter elephant cut-off.
    idle_epochs:
        Epochs without byte growth after which an elephant is demoted.
    check_every:
        How often (in epochs) the idle scan over elephants runs;
        defaults to ``max(1, idle_epochs // 4)``.
    """

    def __init__(self, promote_bytes: float = float(1 << 20),
                 idle_epochs: int = 100,
                 check_every: int | None = None) -> None:
        if promote_bytes <= 0:
            raise ValueError("promote_bytes must be positive")
        if idle_epochs < 1:
            raise ValueError("idle_epochs must be at least 1")
        self.promote_bytes = float(promote_bytes)
        self.idle_epochs = int(idle_epochs)
        self.check_every = (int(check_every) if check_every is not None
                            else max(1, self.idle_epochs // 4))
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")
        self.epoch = 0
        self._flows: dict[Hashable, list[float]] = {}
        self._elephants: set[Hashable] = set()
        self._pending_promote: set[Hashable] = set()
        self._membership: Callable[[Hashable], bool] | None = None

    # ------------------------------------------------------------------
    # tracking lifecycle (mirrors flow-table membership)
    # ------------------------------------------------------------------
    def bind_membership(self, membership: Callable[[Hashable], bool],
                        ) -> None:
        """Let :meth:`observe` create state lazily for *live* flows.

        ``membership(flow_id)`` must return whether the flow is
        currently active in the owning scheduler.  Once bound, flows no
        longer need an explicit :meth:`track` — the first byte report
        creates the counter (checked against the predicate, so an
        ended flow's late report cannot resurrect state).  The sampled
        allocator binds its own membership at construction; unbound
        detectors keep the strict track-first contract.
        """
        self._membership = membership

    def track(self, flow_id: Hashable) -> None:
        """Start tracking a flow (as a mouse) eagerly."""
        self._flows[flow_id] = [0.0, 0.0, float(self.epoch), 0.0]

    def forget_many(self, flow_ids: Iterable[Hashable]) -> None:
        """Drop all detector state for these flows (end / client drop).

        Idempotent, and the *only* way state leaves the detector — the
        owning scheduler calls it from every churn path, once per batch
        (the ends path at 100 k flows is latency-sensitive), so the
        byte counters cannot outlive their flows.
        """
        flows = self._flows
        elephants = self._elephants
        ended: list[Hashable] = []
        for flow_id in flow_ids:
            state = flows.pop(flow_id, None)
            if state is not None:
                if state[_IS_ELEPHANT]:
                    elephants.discard(flow_id)
                ended.append(flow_id)
        if self._pending_promote and ended:
            self._pending_promote.difference_update(ended)

    def __len__(self) -> int:
        """Reach: invariant — tests check detector state stays bounded."""
        return len(self._flows)

    # ------------------------------------------------------------------
    # the usage stream
    # ------------------------------------------------------------------
    def observe(self, flow_id: Hashable, nbytes: float) -> None:
        """Fold one cumulative byte-count report into the accumulator.

        Reports for unknown flows are dropped — unless a membership
        predicate is bound (:meth:`bind_membership`) and recognises the
        flow, in which case the counter is created on the spot.  Under
        batched churn a report can legally arrive after its flow ended
        (or before the start was applied), and resurrecting state for
        it would be the unbounded-growth bug this class exists to
        avoid.  Reports are cumulative, so a duplicate or reordered
        report contributes ``max(0, nbytes - last_total)`` — never
        double counts.
        """
        state = self._flows.get(flow_id)
        if state is None:
            membership = self._membership
            if membership is None or not membership(flow_id):
                return
            state = [0.0, 0.0, float(self.epoch), 0.0]
            self._flows[flow_id] = state
        delta = float(nbytes) - state[_LAST_TOTAL]
        if delta <= 0.0:
            return
        state[_LAST_TOTAL] = float(nbytes)
        state[_ACCUM] += delta
        state[_LAST_GROWTH] = float(self.epoch)
        if (not state[_IS_ELEPHANT]
                and state[_ACCUM] >= self.promote_bytes):
            self._pending_promote.add(flow_id)

    # ------------------------------------------------------------------
    # the epoch clock
    # ------------------------------------------------------------------
    def advance(self) -> tuple[list[Hashable], list[Hashable]]:
        """Advance one epoch; return ``(promotions, demotions)``.

        Promotions drain the threshold-crossing set accumulated by
        :meth:`observe`; demotions come from the amortized idle scan.
        The caller (the sampled scheduler) is responsible for moving
        the returned flows between the priced and ECMP tables.
        """
        self.epoch += 1
        promotions: list[Hashable] = []
        if self._pending_promote:
            for flow_id in self._pending_promote:
                self._flows[flow_id][_IS_ELEPHANT] = 1.0
                self._elephants.add(flow_id)
                promotions.append(flow_id)
            self._pending_promote.clear()
        demotions: list[Hashable] = []
        if self._elephants and self.epoch % self.check_every == 0:
            horizon = self.epoch - self.idle_epochs
            for flow_id in self._elephants:
                state = self._flows[flow_id]
                if state[_LAST_GROWTH] <= horizon:
                    state[_IS_ELEPHANT] = 0.0
                    # Only bytes sent *after* demotion may re-promote.
                    state[_ACCUM] = 0.0
                    demotions.append(flow_id)
            self._elephants.difference_update(demotions)
        return promotions, demotions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ElephantDetector(tracked={len(self._flows)}, "
                f"elephants={len(self._elephants)}, epoch={self.epoch})")
