"""Shared memory for the worker-process backend: arrays and the barrier.

:class:`~repro.parallel.process_backend.ProcessBackend` keeps all hot
state — per-FlowBlock flow columns (routes, weights, bottleneck
capacities), the per-processor price/load/Hessian vectors, and the
step barrier's flag array — in ``multiprocessing.shared_memory``
segments, so worker processes operate on the *same* physical pages
the parent's :class:`~repro.core.network.FlowTable` writes during
churn.  No per-iteration serialization crosses the process boundary;
only tiny control messages do.

:class:`SharedArena` owns the segments on the parent side and hands
out named numpy views.  Re-allocating an existing tag (what
``FlowTable`` does when a churn batch overflows capacity or brings a
longer route than the table has held) supersedes the old segment; the
old one is unlinked immediately — the fork-inherited mappings in
workers stay valid until they re-attach via :func:`attach` using the
manifest the backend ships over the control pipe.
:class:`SenseReversingBarrier` closes each schedule step.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory

import numpy as np

from ..net import FabricError

__all__ = ["SharedArena", "SenseReversingBarrier", "attach",
           "measure_barrier_rate"]


class SharedArena:
    """Allocator of tagged numpy arrays backed by shared memory.

    Tags are hierarchical strings (``"cell3/routes"``); the arena
    remembers the live segment per tag so :meth:`manifest` can describe
    a subtree for worker-side :func:`attach`, and :meth:`close` can
    release everything.
    """

    def __init__(self):
        self._live = {}       # tag -> (SharedMemory, shape, dtype)
        self._graveyard = []  # superseded segments, closed at close()

    def allocate(self, tag, shape, dtype):
        """Return an uninitialized shm-backed array registered as ``tag``.

        Allocating an existing tag supersedes (and unlinks) the prior
        segment — existing mappings of it remain valid until unmapped.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        segment = shared_memory.SharedMemory(create=True, size=nbytes)
        previous = self._live.pop(tag, None)
        if previous is not None:
            old_segment = previous[0]
            try:
                old_segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._graveyard.append(old_segment)
        self._live[tag] = (segment, shape, dtype)
        return np.ndarray(shape, dtype=dtype, buffer=segment.buf)

    def zeros(self, tag, shape, dtype=np.float64):
        array = self.allocate(tag, shape, dtype)
        array[:] = 0
        return array

    def full(self, tag, shape, fill, dtype=np.float64):
        array = self.allocate(tag, shape, dtype)
        array[:] = fill
        return array

    def allocator(self, prefix):
        """A ``FlowTable``-compatible allocator scoped under ``prefix``."""
        def alloc(tag, shape, dtype):
            return self.allocate(f"{prefix}/{tag}", shape, dtype)
        return alloc

    def manifest(self, prefix):
        """Describe the live arrays under ``prefix`` for :func:`attach`.

        Returns ``{suffix: (shm_name, shape, dtype_str)}`` — plain
        picklable data small enough for a control-pipe message.
        """
        scope = prefix + "/"
        return {tag[len(scope):]: (segment.name, shape, dtype.str)
                for tag, (segment, shape, dtype) in self._live.items()
                if tag.startswith(scope)}

    def close(self):
        """Unlink every live segment and drop all references.

        Views handed out earlier keep the parent's mappings alive until
        they are garbage collected (``SharedMemory.close`` refuses to
        unmap under exported buffers); unlinking is what matters — it
        removes the names so the memory is freed once the last process
        unmaps.
        """
        for segment, _, _ in self._live.values():
            self._release(segment)
        self._live.clear()
        for segment in self._graveyard:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
        self._graveyard.clear()

    @staticmethod
    def _release(segment):
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            segment.close()
        except BufferError:
            # A numpy view still references the mapping; the segment is
            # unlinked, so the memory goes away when the view does.
            pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


def attach(manifest):
    """Map the arrays a :meth:`SharedArena.manifest` describes.

    Returns ``(arrays, keepalive)``: ``arrays`` maps suffix -> numpy
    view; ``keepalive`` holds the ``SharedMemory`` objects and must
    outlive the views (workers stash it next to them).
    """
    arrays, keepalive = {}, []
    for suffix, (name, shape, dtype_str) in manifest.items():
        segment = shared_memory.SharedMemory(name=name)
        keepalive.append(segment)
        arrays[suffix] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                                    buffer=segment.buf)
    return arrays, keepalive


# ----------------------------------------------------------------------
# the step barrier
# ----------------------------------------------------------------------
class SenseReversingBarrier:
    """Flag-array barrier in shared memory with two completion paths.

    Every worker owns one int64 *phase* slot in a shared array; a
    ``wait()`` bumps the caller's slot (the slot's parity is the
    classic sense bit) and completes when every slot has reached the
    caller's phase.  How completion is *detected* adapts to the host:

    * ``mode="spin"`` (chosen when the host has at least as many CPUs
      as workers — the paper's dedicated-core regime): workers spin on
      the flag array, yielding the GIL after a short budget.  No
      syscalls on the fast path.
    * ``mode="block"`` (oversubscribed hosts, e.g. CI containers):
      spinning would fight the scheduler, so arrival falls through to
      a lean central-semaphore protocol — worker 0 collects ``n - 1``
      arrival tokens and releases each peer's personal gate.  Two
      syscalls per non-root worker per step, no shared lock, and no
      condition-variable dance.  Per-worker gates (rather than one
      counting semaphore) matter: with a shared semaphore a fast worker
      re-entering the next phase can steal a slow sleeper's wake token
      and deadlock the pair.

    The phase slots are maintained in *both* modes, which gives the
    skew invariant the stress tests assert: between two of its own
    waits a worker can never observe a peer more than one phase ahead,
    because passing phase ``p + 1`` requires every slot to have
    reached ``p + 1`` first.

    Visibility note: the spin path relies on cache-coherent shared
    memory and total store order (x86); the blocking path synchronizes
    through semaphores and is portable.  One extra slot holds the
    abort flag — :meth:`abort` (from any process) makes every current
    and future ``wait`` raise :class:`~repro.net.FabricError`.
    """

    def __init__(self, phases, arrive, gates, worker_id, n_workers,
                 mode=None, spin=200, timeout=600.0):
        self._phases = phases
        self._arrive = arrive
        self._gates = gates
        self._id = int(worker_id)
        self._n = int(n_workers)
        if mode is None:
            mode = ("spin" if (os.cpu_count() or 1) >= self._n else "block")
        if mode not in ("spin", "block"):
            raise ValueError(f"unknown barrier mode {mode!r}")
        self.mode = mode
        self._spin = int(spin)
        self._timeout = float(timeout)

    @staticmethod
    def alloc(arena: SharedArena, ctx, n_workers, tag="barrier"):
        """Allocate the shared pieces: returns ``(phases, arrive, gates)``.

        ``phases`` is an ``(n_workers + 1,)`` int64 arena array (last
        slot = abort flag); ``arrive``/``gates`` are context semaphores
        used only by the blocking path.
        """
        phases = arena.zeros(tag, (n_workers + 1,), np.int64)
        arrive = ctx.Semaphore(0)
        gates = [ctx.Semaphore(0) for _ in range(n_workers)]
        return phases, arrive, gates

    def for_worker(self, worker_id):
        """A handle bound to another worker id (same shared state)."""
        return SenseReversingBarrier(
            self._phases, self._arrive, self._gates, worker_id, self._n,
            mode=self.mode, spin=self._spin, timeout=self._timeout)

    # ------------------------------------------------------------------
    @property
    def phase(self):
        """This worker's own phase counter."""
        return int(self._phases[self._id])

    def peer_phases(self):
        """Snapshot of every worker's phase (skew assertions)."""
        return self._phases[: self._n].copy()

    def aborted(self):
        return bool(self._phases[self._n])

    def abort(self):
        """Poison the barrier; wakes blocked waiters, everyone raises."""
        self._phases[self._n] = 1
        # Over-releasing is harmless (the pool is being torn down); it
        # guarantees nobody stays blocked in a semaphore.
        for _ in range(self._n):
            self._arrive.release()
        for gate in self._gates:
            gate.release()

    # ------------------------------------------------------------------
    def wait(self):
        phases = self._phases
        me = self._id
        n = self._n
        target = int(phases[me]) + 1
        phases[me] = target
        if n == 1:
            if phases[n]:
                raise FabricError("barrier aborted")
            return
        if self.mode == "spin":
            self._wait_spin(target)
        else:
            self._wait_block()

    def _wait_spin(self, target):
        phases = self._phases
        n = self._n
        budget = self._spin
        deadline = time.monotonic() + self._timeout
        spins = 0
        while True:
            if phases[n]:
                raise FabricError("barrier aborted")
            if int(phases[:n].min()) >= target:
                return
            spins += 1
            if spins > budget:
                time.sleep(0)  # yield; completion detection stays in shm
                if spins % 1024 == 0 and time.monotonic() > deadline:
                    raise FabricError(
                        f"barrier timed out after {self._timeout:.0f}s")

    def _wait_block(self):
        if self._id == 0:
            acquire = self._arrive.acquire
            for _ in range(self._n - 1):
                if not acquire(True, self._timeout):
                    raise FabricError(
                        f"barrier timed out after {self._timeout:.0f}s")
                if self._phases[self._n]:
                    raise FabricError("barrier aborted")
            for gate in self._gates[1:]:
                gate.release()
        else:
            self._arrive.release()
            if not self._gates[self._id].acquire(True, self._timeout):
                raise FabricError(
                    f"barrier timed out after {self._timeout:.0f}s")
        if self._phases[self._n]:
            raise FabricError("barrier aborted")


def _barrier_probe_worker(barrier, n_steps, start):
    start.wait()
    for _ in range(n_steps):
        barrier.wait()


def measure_barrier_rate(n_workers, n_steps, barrier_mode=None):
    """Steps/sec through ``n_steps`` full :class:`SenseReversingBarrier`
    rounds at ``n_workers`` worker processes (the harness's
    ``barrier_step`` benchmark and its smoke test)."""
    ctx = mp.get_context("fork")
    start = ctx.Event()
    procs = []
    with SharedArena() as arena:
        phases, arrive, gates = SenseReversingBarrier.alloc(
            arena, ctx, n_workers, tag="bench/barrier")
        parent = SenseReversingBarrier(phases, arrive, gates, 0,
                                       n_workers, mode=barrier_mode)
        try:
            for w in range(n_workers):
                procs.append(ctx.Process(
                    target=_barrier_probe_worker,
                    args=(parent.for_worker(w), n_steps, start),
                    daemon=True))
            for p in procs:
                p.start()
            time.sleep(0.2)
            t0 = time.perf_counter()
            start.set()
            for p in procs:
                p.join(timeout=600.0)
                if p.is_alive():  # pragma: no cover - wedged
                    raise FabricError("barrier benchmark wedged")
            return n_steps / (time.perf_counter() - t0)
        finally:
            for p in procs:
                if p.is_alive():  # pragma: no cover - cleanup
                    p.terminate()
