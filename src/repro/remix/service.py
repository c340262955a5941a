"""The campaign server: conformance checking as a long-lived service.

``python -m repro serve`` binds a TCP listener and turns each client
connection into one streamed campaign:

1. the client sends a single JSON line -- a bare serialized
   :class:`~repro.remix.request.CampaignRequest`, an envelope
   ``{"request": {...}, "deadline": 30.0}`` (the deadline, in seconds,
   folds into the campaign's wall-clock budget), or ``{"stats": true}``
   (answered with one ``stats`` event, no campaign);
2. the server streams back newline-delimited ``repro.campaign.event/1``
   JSON events while the campaign runs, and closes the connection after
   the terminal event.

The event stream (every event carries ``schema``, the per-connection
``id``, and ``elapsed`` seconds):

========== =============================================================
event      payload
========== =============================================================
accepted   ``request`` -- the normalized request about to run
cell_done  ``index``, ``cell_id``, ``cell`` (stats sans findings;
           ``replayed: true`` when served from a resume journal)
finding    ``finding`` -- first sighting of a fingerprint, full record
shrunk     ``fingerprint``, ``min_trace`` -- one finding minimized
retry      ``kind``, ``task`` -- a supervised transient failure
           (worker death, task timeout, scheduled retry)
degraded   ``task``, ``reason`` -- a poison task was quarantined
heartbeat  (liveness only; cadence is the server's ``heartbeat``)
report     ``report`` -- the full ``repro.campaign/4`` JSON;
           ``spec_cache`` -- this request's cache-stats delta
error      ``message`` -- the request failed (bad JSON, bad axis
           values, a stalled client that never sent its request line
           within ``request_timeout``, or a campaign crash); terminal
           like ``report``
stats      the answer to ``{"stats": true}``, terminal: ``connections``
           (accepted so far, this one included), ``in_flight``
           (campaigns running now), ``spec_cache`` (the process-wide
           counters) and ``bands`` -- per resident worker band its
           ``workers``, listener ``address`` (``[host, port]``),
           connected worker ``pids``, ``state`` (``"lent"`` |
           ``"idle"``) and ``requests`` served; never the auth token
========== =============================================================

What makes this a *service* rather than a loop around the CLI is what
stays resident between requests, on both sides of the worker wire:

- **In the server process**, the process-global spec cache -- compiled
  specs, action mappings, scripted scenario/fault prefixes, plus the
  on-disk layer.  The second request for a grain skips straight past
  composition (its ``spec_cache`` delta shows hits, no misses).
- **In the workers**, for ``backend: "socket"`` requests.  The server
  owns *resident* socket backends and **lends** one to each such
  request (``run_campaign(request, backend=...)``): the request maps
  its cells over workers whose interpreters, imports, composed specs,
  prefixes and kernel memos are already warm, instead of spawning two
  interpreters and reaping them around every request.  Only the first
  request of a ``(workers, auth_token)`` shape pays the spawn.

The lease rule: one band serves **one request at a time** -- the
dispatcher is a single-threaded loop that owns its queue per ``map``,
so sharing a band between requests would need a second scheduler.  A
request whose shape has no idle band (the first one, or a concurrent
neighbour of the same shape) gets a freshly built band; each request
installs its own supervisor for the run, so a report's ``degraded``
section counts only what happened during that request.  Before a band
is lent again it is drained once and workers that died while it sat
idle are replaced, charged to nobody.  A band goes back to the idle
slot only if all three hold, and is closed otherwise:

1. the request produced a report (a ``map`` that raised may have left
   tasks in flight on other workers);
2. the band is at strength (``shortfall() == 0``);
3. the server is not stopping.

At most one idle band is kept per shape and :data:`MAX_IDLE_BANDS`
overall (oldest closed first).  ``fork`` and ``chaos`` requests keep
building a backend per request: a ``fork()`` costs milliseconds and its
whole value is inheriting the server's *current* warm image (a resident
forked worker would also hold a duplicate of every client socket open
at fork time), and the chaos band's fault RNG is seeded per band.

Shutdown guarantee: :meth:`CampaignServer.stop` (also the end of the
accept loop and the CLI's Ctrl-C path) closes every idle band, a band
returned after it is closed rather than kept, and
:meth:`CampaignServer.serve_forever` joins the in-flight requests -- so
no worker process outlives a server that was stopped.  (A server that
is SIGKILLed leaves its workers to their reconnect budget: a few
seconds, then they exit 1 with one ``worker:`` line on stderr.)

Requests run concurrently (one thread each), and a client that
disconnects mid-stream just stops receiving events -- the campaign
finishes, its band goes back warm, and the next request still benefits
from the caches it filled.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker.backends import ExecutionBackend, create_backend
from repro.remix import spec_cache
from repro.remix.campaign import TASK_HANDLER, run_campaign
from repro.remix.request import CampaignRequest, RequestError, from_envelope

#: Version tag of the event stream; bump on breaking schema changes.
EVENT_SCHEMA = "repro.campaign.event/1"

#: Idle resident bands kept across all shapes, oldest closed first.  A
#: constant, not an option: ``workers`` is client input with no upper
#: bound, so unbounded retention would be a resource leak.
MAX_IDLE_BANDS = 4


def serve_request(
    request: CampaignRequest,
    emit: Callable[[Dict[str, Any]], None],
    *,
    request_id: int = 1,
    heartbeat: Optional[float] = None,
    backend: Optional[ExecutionBackend] = None,
) -> Optional[Any]:
    """Run one campaign request, emitting the full event stream.

    The transport-free core of the server: ``emit`` receives every
    ``repro.campaign.event/1`` dict in order -- ``accepted`` first,
    then streaming ``cell_done``/``finding``/``shrunk`` (and
    ``heartbeat`` from a timer thread when ``heartbeat`` is set),
    terminated by exactly one ``report`` or ``error``.  Returns the
    :class:`~repro.remix.campaign.CampaignReport`, or ``None`` when the
    request failed (the ``error`` event has the story).  ``backend`` is
    lent to the campaign (see :func:`~repro.remix.campaign.run_campaign`);
    without one the campaign builds and closes its own.
    """
    started = time.monotonic()

    def event(payload: Dict[str, Any]) -> None:
        emit(
            {
                "schema": EVENT_SCHEMA,
                "id": request_id,
                "elapsed": round(time.monotonic() - started, 3),
                **payload,
            }
        )

    stats_before = dict(spec_cache.stats())
    event({"event": "accepted", "request": request.to_json()})
    done = threading.Event()
    beat_thread = None
    if heartbeat and heartbeat > 0:
        def beat() -> None:
            while not done.wait(heartbeat):
                event({"event": "heartbeat"})

        beat_thread = threading.Thread(target=beat, daemon=True)
        beat_thread.start()
    try:
        report = run_campaign(request, progress=event, backend=backend)
    except Exception as error:
        event({"event": "error", "message": str(error) or repr(error)})
        return None
    finally:
        done.set()
        if beat_thread is not None:
            beat_thread.join()
    stats_after = spec_cache.stats()
    delta = {
        key: stats_after[key] - stats_before.get(key, 0)
        for key in stats_after
    }
    event({"event": "report", "report": report.to_json(), "spec_cache": delta})
    return report


@dataclass
class ResidentBand:
    """One socket backend the server owns, and its lease state."""

    backend: ExecutionBackend
    #: ``(workers, auth_token)``: what a request must name to borrow it.
    shape: Tuple[int, Optional[str]]
    lent: bool = True
    requests: int = 1


class CampaignServer:
    """Accept campaign requests over TCP, one streamed campaign per
    connection (see the module docstring for the wire protocol and the
    resident-band lease)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat: float = 5.0,
        max_requests: Optional[int] = None,
        request_timeout: float = 30.0,
    ):
        # Checked before the listener binds: a bad value would otherwise
        # kill every connection's handler, or silently stop heartbeats.
        if not (math.isfinite(heartbeat) and heartbeat >= 0):
            raise ValueError(
                f"heartbeat must be finite and at least 0, got {heartbeat}"
            )
        if not (math.isfinite(request_timeout) and request_timeout > 0):
            raise ValueError(
                f"request_timeout must be finite and above 0, got {request_timeout}"
            )
        # A quota below one would serve nothing and exit as if healthy.
        if max_requests is not None and max_requests < 1:
            raise ValueError(f"max_requests must be positive, got {max_requests}")
        self.heartbeat = heartbeat
        self.max_requests = max_requests
        #: Seconds a fresh connection gets to send its request line; a
        #: stalled client is answered with an ``error`` event and
        #: closed instead of pinning a handler thread forever.
        self.request_timeout = request_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except (OverflowError, OSError):
            self._listener.close()
            raise
        self._listener.listen(16)
        #: The bound ``(host, port)`` (resolves ephemeral port 0).
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._clients: list = []
        self._served = 0
        #: Guards ``_bands`` (membership and each band's lease state)
        #: and ``_in_flight``; never held across a spawn or a close.
        self._lock = threading.Lock()
        #: Resident bands, lent and idle; idle ones in give-back order.
        self._bands: List[ResidentBand] = []
        #: Held by :meth:`stop` across its closes, so that every caller
        #: returns after them.
        self._closing = threading.Lock()
        self._in_flight = 0

    def start(self) -> Tuple[str, int]:
        """Start the accept loop in a daemon thread; returns the bound
        address."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until the server stops (``max_requests`` served, or
        :meth:`stop` from another thread) and its in-flight requests
        have ended -- by then every resident band is closed.

        The calling thread does the waiting: it joins the accept thread,
        whose last act is :meth:`stop`, then every handler thread, each
        of which closes the band it held.  A thread that called
        :meth:`stop` itself (``repro serve`` on Ctrl-C) calls this
        afterwards to wait."""
        if self._accept_thread is None:
            self.start()
        self._accept_thread.join()
        for thread in list(self._clients):
            thread.join()

    def stop(self) -> None:
        """Stop accepting and close the idle resident bands; in-flight
        requests run to completion and close the band they hold.

        Returns once the idle bands are closed and their workers reaped.
        The calling thread closes them, or, when another thread is
        already inside ``stop`` (the accept loop calls it on its way
        out), waits until that one has."""
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._closing:
            with self._lock:
                idle = [band for band in self._bands if not band.lent]
                self._bands = [band for band in self._bands if band.lent]
            for band in idle:
                band.backend.close()

    def stats(self) -> Dict[str, Any]:
        """Live server state: the payload of the ``stats`` event."""
        with self._lock:
            in_flight = self._in_flight
            bands = [
                {
                    "workers": band.shape[0],
                    "address": list(band.backend.address),
                    "pids": sorted(
                        conn.pid
                        for conn in list(band.backend.band.connections)
                        if conn.pid is not None
                    ),
                    "state": "lent" if band.lent else "idle",
                    "requests": band.requests,
                }
                for band in self._bands
            ]
        return {
            "connections": self._served,
            "in_flight": in_flight,
            "spec_cache": dict(spec_cache.stats()),
            "bands": bands,
        }

    # ------------------------------------------------------ resident bands

    def _lend(self, request: CampaignRequest) -> Optional[ResidentBand]:
        """The resident band ``request`` runs on: the idle one of its
        shape, else a new one; ``None`` for backends that stay
        per-request (see the module docstring)."""
        if request.backend != "socket":
            return None
        shape = (request.workers, request.auth_token)
        with self._lock:
            band = next(
                (b for b in self._bands if not b.lent and b.shape == shape),
                None,
            )
            if band is not None:
                band.lent = True
                band.requests += 1
        if band is None:
            band = ResidentBand(
                create_backend(
                    "socket",
                    TASK_HANDLER,
                    request.workers,
                    auth_token=request.auth_token,
                ),
                shape,
            )
            with self._lock:
                self._bands.append(band)
            return band
        # Nobody polled the band while it sat idle.  See what happened
        # (a dead worker's EOF, an external joiner's hello) and replace
        # the dead here, so the dispatcher neither sends into a dead
        # socket nor charges the borrower's supervisor for the respawn.
        workers = band.backend.band
        workers.poll(0)
        for _ in range(workers.shortfall()):
            workers.spawn()
        return band

    def _give_back(
        self, band: ResidentBand, reported: bool
    ) -> List[ResidentBand]:
        """End a lease: the band goes idle under the three conditions
        of the module docstring.  Returns what the caller must now
        close -- the band itself when it is not kept, else whatever it
        displaced."""
        with self._lock:
            self._bands.remove(band)
            idle = [other for other in self._bands if not other.lent]
            if (
                reported
                and not self._stopping.is_set()
                and band.backend.band.shortfall() == 0
                and all(other.shape != band.shape for other in idle)
            ):
                band.lent = False
                self._bands.append(band)  # most recently used last
                surplus = idle[:1] if len(idle) >= MAX_IDLE_BANDS else []
                for oldest in surplus:
                    self._bands.remove(oldest)
            else:
                surplus = [band]
        return surplus

    # ----------------------------------------------------------- internals

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._stopping.is_set():
            if (
                self.max_requests is not None
                and self._served >= self.max_requests
            ):
                break
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._served += 1
            thread = threading.Thread(
                target=self._handle_client,
                args=(sock, self._served),
                daemon=True,
            )
            # Forget finished handlers as we go: a resident server must
            # not grow by one Thread per connection it ever served.
            self._clients = [t for t in self._clients if t.is_alive()]
            self._clients.append(thread)
            thread.start()
        self.stop()

    def _handle_client(self, sock: socket.socket, request_id: int) -> None:
        write_lock = threading.Lock()
        client_gone = threading.Event()

        def emit(event: Dict[str, Any]) -> None:
            if client_gone.is_set():
                return  # keep the campaign running; just drop events
            line = (json.dumps(event) + "\n").encode("utf-8")
            with write_lock:
                try:
                    sock.sendall(line)
                except OSError:
                    client_gone.set()

        def answer(event: str, **payload: Any) -> None:
            """The one event of a connection that runs no campaign."""
            emit(
                {
                    "schema": EVENT_SCHEMA,
                    "id": request_id,
                    "elapsed": 0.0,
                    "event": event,
                    **payload,
                }
            )

        band: Optional[ResidentBand] = None
        report = None
        try:
            sock.settimeout(self.request_timeout)
            reader = sock.makefile("r", encoding="utf-8")
            try:
                line = reader.readline()
                data = json.loads(line) if line.strip() else None
            except socket.timeout:
                answer(
                    "error",
                    message=(
                        f"no request line within {self.request_timeout:g}s; "
                        f"closing stalled connection"
                    ),
                )
                return
            except (OSError, ValueError) as error:
                answer("error", message=f"bad request line: {error}")
                return
            finally:
                reader.close()
            sock.settimeout(None)
            if isinstance(data, dict) and data.get("stats") is True:
                answer("stats", **self.stats())
                return
            try:
                request = from_envelope(data)
            except (RequestError, TypeError, ValueError) as error:
                answer(
                    "error",
                    message=error.args[0] if error.args else str(error),
                )
                return
            try:
                band = self._lend(request)
            except OSError as error:
                answer("error", message=f"cannot start workers: {error}")
                return
            with self._lock:
                self._in_flight += 1
            try:
                report = serve_request(
                    request,
                    emit,
                    request_id=request_id,
                    heartbeat=self.heartbeat,
                    backend=band.backend if band is not None else None,
                )
            finally:
                with self._lock:
                    self._in_flight -= 1
        finally:
            # The band is idle again *before* the client sees the end of
            # its stream (a closed-loop client's next request must find
            # it), but reaping a surplus band waits until after, so it
            # never delays that end of stream.
            surplus = (
                self._give_back(band, report is not None)
                if band is not None
                else []
            )
            # shutdown() before close(): a FIN does not wait for the
            # other holders of this descriptor (a neighbour request's
            # forked workers inherited it), close() alone would.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client hung up first
            sock.close()
            for gone in surplus:
                gone.backend.close()
