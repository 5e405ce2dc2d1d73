"""Worker-fleet failures: the typed errors a bounded pipe wait raises.

The process backend partitions planes across worker processes and talks
to each over a pipe.  Before these errors existed, a worker that died
mid-request (OOM kill, segfault, operator ``kill -9``) left the gateway
blocked in ``connection.recv()`` forever — the *cascading-dependency*
anti-pattern the paper's reliability catalogue describes, exhibited by
the system built to detect them.  Every wait is now bounded and ends in
one of two errors:

* :class:`WorkerDiedError` — a bounded poll observed a dead worker;
  names the worker, its exit code, and the planes it owned, so the
  operator knows exactly what state is lost;
* :class:`WorkerTimeoutError` — the worker is *alive* but has not
  replied within the configured ``worker_timeout`` (a wedge, not a
  death).

Neither is recovered in place.  The gateway poisons itself on either, so
it refuses further input instead of running on with a plane's state
gone; recovery is restoring the service from its data directory (its
snapshot plus journal tail), the one recovery path there is.
"""

from __future__ import annotations

__all__ = [
    "FleetError",
    "WorkerDiedError",
    "WorkerTimeoutError",
]


class FleetError(RuntimeError):
    """Base class for worker-fleet failures."""


class WorkerDiedError(FleetError):
    """A plane worker process died while a request was (or would be) in flight.

    Raised instead of hanging in ``recv()``: the bounded poll noticed
    ``Process.is_alive()`` go false (or the pipe hit EOF) and joined the
    corpse.  The dead worker's planes are lost with it, so the gateway
    refuses further use; restart the service from its data directory to
    restore the last snapshot and replay the journal.
    """

    def __init__(
        self,
        worker_id: int,
        exitcode: int | None,
        planes: tuple[int, ...] = (),
    ) -> None:
        self.worker_id = int(worker_id)
        self.exitcode = exitcode
        self.planes = tuple(planes)
        owned = (
            f" (planes {', '.join(map(str, self.planes))})" if self.planes else ""
        )
        signal = ""
        if exitcode is not None and exitcode < 0:
            signal = f" (signal {-exitcode})"
        super().__init__(
            f"plane worker {self.worker_id}{owned} died with exit code "
            f"{exitcode}{signal}; its plane state is lost — restore the "
            f"service from its data directory (repro serve --data-dir) to "
            f"recover from the last snapshot and journal"
        )


class WorkerTimeoutError(FleetError):
    """A live plane worker failed to reply within ``worker_timeout``.

    Deliberately distinct from :class:`WorkerDiedError`: the worker still
    holds its planes (and possibly a ring slot mid-consume), so it may
    just be slow rather than gone.
    """

    def __init__(self, worker_id: int, timeout: float) -> None:
        self.worker_id = int(worker_id)
        self.timeout = float(timeout)
        super().__init__(
            f"plane worker {self.worker_id} is alive but sent no reply "
            f"within {timeout:.1f}s; it may be wedged (raise worker_timeout "
            f"for long batches, or restore the service from its data "
            f"directory)"
        )
