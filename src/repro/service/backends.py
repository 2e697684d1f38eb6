"""Worker backends: where the scheduler's tasks actually execute.

The :class:`~repro.service.scheduler.Scheduler` never runs a simulation
itself — it hands picklable ``(fn, *args)`` calls to a
:class:`WorkerBackend` and consumes the returned futures.  Two backends
ship:

* :class:`InlineBackend` runs each call synchronously in the dispatch
  thread (the ``jobs == 1`` policy — no pool spawn cost, deterministic
  ordering);
* :class:`ProcessPoolBackend` fans calls out to a lazily created
  ``ProcessPoolExecutor`` (the ``jobs > 1`` policy — the pool spawns on
  the first submitted call, so a fully store-satisfied batch never pays
  for worker processes, and respawns after a worker dies).

Anything satisfying the protocol — a remote-worker pool, a cluster client —
slots in without the scheduler changing: the backend is a constructor
argument, not executor code.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Protocol, runtime_checkable


@runtime_checkable
class WorkerBackend(Protocol):
    """What the scheduler needs from an execution substrate.

    ``slots`` caps how many submitted calls may be in flight at once (the
    scheduler's dispatch loop never exceeds it); :meth:`submit` returns a
    ``concurrent.futures.Future`` resolving to the call's result; and
    :meth:`close` releases whatever the backend holds.  ``fn`` and its
    arguments must be picklable — process-based backends ship them to
    workers exactly as the batch executor always has.
    """

    slots: int

    def submit(self, fn, /, *args) -> Future:
        """Run ``fn(*args)`` and return a future for its result."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        ...  # pragma: no cover - protocol


class InlineBackend:
    """Runs every call synchronously in the submitting (dispatch) thread.

    The returned future is already resolved, so the scheduler's completion
    path runs immediately — serial execution with zero thread or process
    overhead, exactly like the old in-process executor path.
    """

    slots = 1

    def submit(self, fn, /, *args) -> Future:
        """Execute ``fn(*args)`` now; the future carries result or error."""

        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - relayed via the future
            future.set_exception(error)
        return future

    def close(self) -> None:
        """Nothing to release."""


class ProcessPoolBackend:
    """Fans calls out to ``jobs`` worker processes (created lazily).

    The pool spawns on the first :meth:`submit`, so schedulers whose every
    spec is satisfied from the store never pay for worker processes —
    matching the old executor's "don't spawn a pool you won't use" rule.

    A worker that dies abruptly (OOM kill, ``os._exit``) breaks its whole
    pool: the calls in flight fail with ``BrokenProcessPool``, and the
    next :meth:`submit` replaces the pool, so a long-running daemon keeps
    serving.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"worker count must be at least 1, got {jobs}")
        self.slots = int(jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def submit(self, fn, /, *args) -> Future:
        """Submit ``fn(*args)`` to the (lazily created) process pool."""

        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.slots)
            try:
                return self._pool.submit(fn, *args)
            except BrokenProcessPool:
                self._pool.shutdown(wait=False)
                self._pool = ProcessPoolExecutor(max_workers=self.slots)
                return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight work to finish."""

        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def backend_for_jobs(jobs: int) -> WorkerBackend:
    """The default backend for a worker count: inline at 1, a pool above."""

    if jobs < 1:
        raise ValueError(f"worker count must be at least 1, got {jobs}")
    return InlineBackend() if jobs == 1 else ProcessPoolBackend(jobs)
