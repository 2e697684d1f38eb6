"""A thin Python client for the ``repro serve`` HTTP/JSON API.

Everything the daemon exposes, as one small stdlib-only class::

    from repro.client import ServiceClient

    with ServiceClient("http://127.0.0.1:8642") as client:
        job = client.submit({"kind": "study", "name": "fig10"})
        done = client.wait(job["id"])
        result = client.result(job["id"])      # reduced tables + manifest

The ``repro submit|status|result|cancel`` CLI verbs are built on this
class, so scripts and the command line see identical payloads.  The daemon
URL defaults to the ``REPRO_SERVE_URL`` environment variable, falling back
to the daemon's default bind address.

Errors surface as :class:`ServiceError`, carrying the HTTP status and the
decoded error payload — a 400 is a validation problem in the submitted
request (the server's message says what), a 404 an unknown job, a 409 a
result fetched before completion, and a 429 the per-client quota.

A client keeps one HTTP/1.1 connection per thread that uses it and reuses
it for every call, so a submit → wait → result round trip pays for one TCP
connect, not one per call.  Close it when done: ``client.close()``, or a
``with`` block as above.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from typing import Mapping
from urllib.parse import urlsplit

#: Environment variable naming the daemon to talk to.
SERVE_URL_ENV = "REPRO_SERVE_URL"

#: Where the daemon listens when started with defaults.
DEFAULT_URL = "http://127.0.0.1:8642"

#: Job states after which polling can stop.
TERMINAL_STATES = ("completed", "failed", "cancelled")


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the daemon.

    ``status`` is the HTTP status code (0 when the daemon was unreachable);
    ``payload`` the decoded JSON error body, whose ``error`` key carries
    the server's message.
    """

    def __init__(self, status: int, payload: Mapping) -> None:
        self.status = status
        self.payload = dict(payload)
        message = self.payload.get("error") or f"HTTP {status}"
        super().__init__(message if status == 0 else f"HTTP {status}: {message}")


def service_url(url: str | None = None) -> str:
    """The daemon URL to use: explicit, then ``REPRO_SERVE_URL``, then default."""

    return (url or os.environ.get(SERVE_URL_ENV) or DEFAULT_URL).rstrip("/")


class ServiceClient:
    """Talks to one ``repro serve`` daemon (see module docs for a tour).

    ``client`` names this client for the daemon's per-client quotas and the
    manifests' provenance; it travels as the ``X-Repro-Client`` header.
    """

    def __init__(
        self,
        url: str | None = None,
        client: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.url = service_url(url)
        self.client = client
        self.timeout = timeout
        #: ``{"polls", "elapsed_s"}`` for the most recent :meth:`wait` call.
        self.last_wait: dict | None = None
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(
                f"daemon URL must look like http://host:port, got {self.url!r}"
            )
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread, connection) for every thread that has called the daemon.
        self._connections: list[tuple] = []

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection (a later call reconnects)."""

        with self._lock:
            for _, connection in self._connections:
                connection.close()

    # -- transport -----------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, created (unconnected) on first use."""

        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._netloc, timeout=self.timeout)
            self._local.connection = connection
            with self._lock:
                live = [(threading.current_thread(), connection)]
                for thread, other in self._connections:
                    if thread.is_alive():
                        live.append((thread, other))
                    else:  # an ended thread can no longer use its connection
                        other.close()
                self._connections = live
        return connection

    def _request(self, method: str, path: str, body: Mapping | None = None) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.client:
            headers["X-Repro-Client"] = self.client
        data = json.dumps(body).encode() if body is not None else None
        connection = self._connection()
        # A kept-alive connection the daemon has since closed (idle timeout,
        # restart) fails before any status line arrives; the daemon never
        # saw the request, so sending it once more on a fresh connection is
        # safe even for a POST.
        retry = connection.sock is not None
        while True:
            try:
                connection.request(
                    method, self._prefix + path, body=data, headers=headers
                )
                response = connection.getresponse()
                break
            except (ConnectionResetError, BrokenPipeError) as error:
                # (http.client's RemoteDisconnected is a ConnectionResetError)
                connection.close()
                if not retry:
                    raise self._unreachable(error) from None
                retry = False
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                raise self._unreachable(error) from None
        try:
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise self._unreachable(error) from None
        if response.status >= 400:
            try:
                payload = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                payload = {"error": raw.decode(errors="replace")}
            raise ServiceError(response.status, payload)
        return json.loads(raw or b"{}")

    def _unreachable(self, error: BaseException) -> ServiceError:
        return ServiceError(0, {"error": f"cannot reach {self.url}: {error}"})

    # -- the API -------------------------------------------------------------
    def healthz(self) -> dict:
        """Daemon liveness: status, code version, scheduler + store counters."""

        return self._request("GET", "/healthz")

    def store_stats(self) -> dict:
        """The shared store's statistics (the ``cache show --json`` shape)."""

        return self._request("GET", "/store/stats")

    def submit(self, request: Mapping) -> dict:
        """Submit one job (see :mod:`repro.service.requests` for the kinds).

        Returns the accepted job's snapshot; ``snapshot["id"]`` is what
        every other call takes.
        """

        return self._request("POST", "/jobs", dict(request))

    def jobs(self) -> list[dict]:
        """Snapshots of every job the daemon knows (without event logs)."""

        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str, after: int | None = None) -> dict:
        """One job's snapshot; ``after`` streams only events with greater seq."""

        query = f"?after={after}" if after is not None else ""
        return self._request("GET", f"/jobs/{job_id}{query}")

    def result(self, job_id: str) -> dict:
        """A completed job's reduced result payload plus its run manifest."""

        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """Cooperatively cancel a job; returns ``{cancelled, job}``."""

        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 0.2,
        max_poll: float = 3.0,
    ) -> dict:
        """Poll until the job reaches a terminal state; returns the snapshot.

        Polling uses decorrelated-jitter backoff: each sleep is drawn
        uniformly from ``[poll, previous_sleep * 3]`` and capped at
        ``max_poll``, so short jobs still return promptly while a fleet of
        waiting clients neither hammers the daemon nor synchronises into
        polling waves.  :attr:`last_wait` records ``{"polls", "elapsed_s"}``
        for the most recent call (``repro submit --wait --json`` surfaces
        it).  Raises ``TimeoutError`` if ``timeout`` seconds pass first.
        """

        deadline = None if timeout is None else time.monotonic() + timeout
        started = time.monotonic()
        polls = 0
        sleep = poll
        while True:
            snapshot = self.status(job_id)
            polls += 1
            self.last_wait = {
                "polls": polls,
                "elapsed_s": round(time.monotonic() - started, 6),
            }
            if snapshot["state"] in TERMINAL_STATES:
                return snapshot
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            sleep = min(max_poll, random.uniform(poll, max(sleep * 3, poll)))
            if deadline is not None:
                sleep = min(sleep, max(deadline - time.monotonic(), 0.0))
            time.sleep(sleep)
