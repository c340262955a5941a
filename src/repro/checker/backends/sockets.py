"""The TCP band and the socket backend that owns one.

The band binds a listener (``127.0.0.1:0`` by default), spawns
``workers`` subprocesses running ``python -m repro worker HOST:PORT``,
and ships them self-describing task frames as newline-delimited JSON:

    {"type": "hello", "protocol": "repro.backend.wire/1", "pid": 4711, "token": "..."}
    {"type": "task", "id": 3, "handler": "repro.remix.campaign:execute_campaign_task", "task": {...}}
    {"type": "result", "id": 3, "ok": true, "result": {...}}

Each frame names its handler by importable ``module:function`` spec and
carries the complete task payload, so a worker needs nothing but the
``repro`` package on its path -- no fork inheritance, no pickling, no
shared filesystem.  That makes this the only band that can leave the
host: external workers (another host, a container) join the same
listener with ``python -m repro worker``, mid-map if they like.  The
price is measured: ~0.67 s to spawn and ~74 us per task round-trip,
against a ``fork()`` and ~39 us for the pipe band.  Who pays the spawn:
every ``run_campaign`` that builds its own socket backend (the CLI), but
under ``repro serve`` only the first request of a ``(workers,
auth_token)`` shape -- the server keeps the band resident and lends it
to the requests that follow (:mod:`repro.remix.service`).

A connection becomes eligible for tasks only after its hello frame is
verified: the protocol tag must match and, when the band was built with
an ``auth_token``, the hello must carry the same shared secret (spawned
workers inherit it through ``REPRO_WORKER_TOKEN``; external ones pass
``--auth-token``).  Unauthorized peers get one ``error`` frame and are
dropped.  The hello's ``pid`` is what lets the watchdog kill a
*specific* wedged spawned worker rather than the whole band.

Scheduling, retries, the watchdog and the duplicate guard are not here:
:class:`TcpBand` only implements the band verbs, and
:func:`~repro.checker.backends.dispatch.dispatch` -- the same loop the
fork band runs under -- decides everything else, which is why a
campaign over sockets merges bit-identically to one over fork.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checker.backends.base import ExecutionBackend, ResultHook, resolve_handler
from repro.checker.backends.dispatch import Event, WorkerBand, dispatch
from repro.checker.backends.supervision import TaskSupervisor

#: Version tag every worker announces in its hello frame.
PROTOCOL = "repro.backend.wire/1"

#: Environment variable spawned workers read their shared secret from
#: (kept out of the command line, which is visible in ``ps``).
TOKEN_ENV = "REPRO_WORKER_TOKEN"

_JSON_SEPARATORS = (",", ":")


def _encode(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, separators=_JSON_SEPARATORS).encode("utf-8") + b"\n"


class JsonLineConnection:
    """One newline-delimited-JSON peer over a connected socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = b""
        #: Worker pid from the hello frame (``None`` until verified).
        self.pid: Optional[int] = None

    def send(self, message: Dict[str, Any]) -> None:
        self.sock.sendall(_encode(message))

    def recv(self) -> Optional[Dict[str, Any]]:
        """Block until one complete frame arrives; ``None`` on EOF."""
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def read_ready(self) -> Optional[List[Dict[str, Any]]]:
        """One non-blocking-ish read (call only when selectable):
        returns every complete frame received so far, or ``None`` on
        EOF/reset (the peer is gone)."""
        try:
            chunk = self.sock.recv(65536)
        except OSError:
            return None
        if not chunk:
            return None
        self._buffer += chunk
        frames: List[Dict[str, Any]] = []
        while b"\n" in self._buffer:
            line, _, self._buffer = self._buffer.partition(b"\n")
            frames.append(json.loads(line))
        return frames

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


def _serve_connection(
    conn: JsonLineConnection, handlers: Dict[str, Any], token: Optional[str]
) -> str:
    """One worker session on an established connection.

    Returns why it ended: ``"shutdown"`` (clean frame), ``"rejected"``
    (the parent refused our hello), or ``"eof"`` (the connection
    dropped mid-session -- the reconnect-worthy case)."""
    try:
        hello: Dict[str, Any] = {
            "type": "hello",
            "protocol": PROTOCOL,
            "pid": os.getpid(),
        }
        if token is not None:
            hello["token"] = token
        conn.send(hello)
        while True:
            message = conn.recv()
            if message is None:
                return "eof"
            if message.get("type") == "shutdown":
                return "shutdown"
            if message.get("type") == "error":
                # The parent refused us (bad token, bad protocol);
                # reconnecting with the same credentials cannot help.
                return "rejected"
            if message.get("type") != "task":
                continue  # unknown frame types are ignored, not fatal
            spec = message["handler"]
            handler = handlers.get(spec)
            if handler is None:
                handler = handlers[spec] = resolve_handler(spec)
            reply: Dict[str, Any] = {"type": "result", "id": message["id"]}
            try:
                reply["ok"] = True
                reply["result"] = handler(message["task"])
            except Exception as error:  # surfaced in the parent
                reply = {
                    "type": "result",
                    "id": message["id"],
                    "ok": False,
                    "error": repr(error),
                }
            conn.send(reply)
    except (BrokenPipeError, ConnectionResetError, OSError):
        return "eof"
    except KeyboardInterrupt:
        return "shutdown"
    finally:
        conn.close()


def worker_main(
    host: str,
    port: int,
    token: Optional[str] = None,
    max_attempts: int = 5,
    backoff: float = 0.25,
) -> str:
    """The worker loop behind ``python -m repro worker HOST:PORT``.

    Connects to the backend's listener, announces itself (protocol,
    pid, and the shared-secret ``token`` when one is set), then
    executes task frames until a shutdown frame.  Handlers are resolved
    from their ``module:function`` spec on first use and memoized
    across reconnects, so a long-lived worker pays the import (and any
    module-level cache warming) once.

    Failed connects and mid-session drops retry with exponential
    backoff, up to ``max_attempts`` consecutive failures -- so a worker
    outlives a parent's brief restart, but a worker whose parent is
    truly gone exits instead of spinning.  Returns why the loop ended:
    ``"shutdown"`` (a clean shutdown frame), ``"rejected"`` (the
    listener refused our hello; the same credentials cannot do better),
    ``"unreachable"`` (no connect ever succeeded) or ``"lost"`` (a
    session was established, then dropped past the retry budget)."""
    handlers: Dict[str, Any] = {}
    attempts = 0
    connected = False
    while True:
        try:
            sock = socket.create_connection((host, port))
        except OSError:
            attempts += 1
            if attempts >= max_attempts:
                return "lost" if connected else "unreachable"
            time.sleep(min(backoff * (2 ** (attempts - 1)), 5.0))
            continue
        attempts = 0
        connected = True
        reason = _serve_connection(JsonLineConnection(sock), handlers, token)
        if reason in ("shutdown", "rejected"):
            return reason
        attempts += 1
        if attempts >= max_attempts:
            return "lost"
        time.sleep(min(backoff * (2 ** (attempts - 1)), 5.0))


def _worker_env(token: Optional[str] = None) -> Dict[str, str]:
    """Environment for spawned workers: make sure the ``repro`` package
    the *parent* runs is importable in the child, even when the parent
    got it from a pytest/pyproject ``pythonpath`` the child would not
    inherit -- and hand over the shared secret out of band."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    if token is not None:
        env[TOKEN_ENV] = token
    else:
        env.pop(TOKEN_ENV, None)
    return env


class TcpBand(WorkerBand):
    """TCP-connected worker processes behind one listener.

    ``spawn=True`` (the default) launches ``workers`` local subprocesses
    via ``python -m repro worker``; ``spawn=False`` binds the listener
    and waits for external workers to join :attr:`address`.
    ``auth_token`` arms the shared-secret handshake; ``connect_timeout``
    bounds the wait for a first worker; ``shutdown_grace``/
    ``term_grace`` are the seconds :meth:`close` waits before escalating
    exit -> SIGTERM -> SIGKILL on spawned workers."""

    def __init__(
        self,
        handler: Any,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: bool = True,
        connect_timeout: float = 30.0,
        auth_token: Optional[str] = None,
        shutdown_grace: float = 2.0,
        term_grace: float = 1.0,
    ):
        if callable(handler):
            raise ValueError(
                "socket backend needs an importable 'module:function' "
                "handler spec (workers run in fresh processes)"
            )
        super().__init__(workers)
        self.handler_spec = str(handler)
        resolve_handler(self.handler_spec)  # fail fast on typos, locally
        self.connect_timeout = connect_timeout
        self.auth_token = auth_token
        self.shutdown_grace = shutdown_grace
        self.term_grace = term_grace
        self._spawn = spawn
        self._ever_connected = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        #: The ``(host, port)`` external workers should join.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        #: Accepted connections awaiting a valid hello.
        self._pending: List[JsonLineConnection] = []
        self._processes: List[subprocess.Popen] = []
        if spawn:
            for _ in range(self.workers):
                self.spawn()

    # ------------------------------------------------------ processes

    def spawn(self) -> None:
        # Forget the dead first: a band may outlive many maps, and every
        # replacement would otherwise leave a reaped Popen behind.
        self._processes = [p for p in self._processes if p.poll() is None]
        self._processes.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    f"{self.address[0]}:{self.address[1]}",
                ],
                env=_worker_env(self.auth_token),
                stdout=subprocess.DEVNULL,  # parent stdout may be a JSON report
            )
        )

    def _live_processes(self) -> int:
        return sum(1 for proc in self._processes if proc.poll() is None)

    def shortfall(self) -> int:
        """Dead *spawned* workers; a dropped link is not a dead worker
        (it reconnects), and external workers are not ours to replace."""
        return self.workers - self._live_processes() if self._spawn else 0

    def kill(self, conn: JsonLineConnection) -> bool:
        """Via the hello pid; external workers are out of reach.

        Reaps before returning: :meth:`shortfall` counts by ``poll()``,
        and a killed-but-unreaped worker would still look alive there --
        when a watchdog tick kills every worker, nothing would be
        respawned and the map would starve."""
        for proc in self._processes:
            if proc.pid == conn.pid and proc.poll() is None:
                proc.kill()
                self._gone(proc, 2.0)
                return True
        return False

    # ------------------------------------------------------ connections

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # pragma: no cover
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = JsonLineConnection(sock)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._pending.append(conn)

    def _verify_hello(self, conn: JsonLineConnection, message: Dict[str, Any]) -> None:
        """Promote a pending connection on a valid hello frame; reject
        (one error frame, then drop) on protocol or token mismatch."""
        ok = message.get("type") == "hello" and message.get("protocol") == PROTOCOL
        if ok and self.auth_token is not None:
            ok = message.get("token") == self.auth_token
        if not ok:
            try:
                conn.send({"type": "error", "error": "unauthorized"})
            except OSError:  # pragma: no cover - peer already gone
                pass
            self.drop(conn)
            return
        pid = message.get("pid")
        conn.pid = int(pid) if isinstance(pid, int) else None
        self._pending.remove(conn)
        self.connections.append(conn)
        self._ever_connected = True

    def _pump_pending(self, conn: JsonLineConnection) -> None:
        """Read from a not-yet-verified connection: the only acceptable
        first frame is a valid hello."""
        frames = conn.read_ready()
        if frames is None:
            self.drop(conn)
            return
        if frames:  # any after the hello (none in practice) are ignored
            self._verify_hello(conn, frames[0])

    def drop(self, conn: JsonLineConnection) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # already dropped
            pass
        if conn in self.connections:
            self.connections.remove(conn)
        if conn in self._pending:
            self._pending.remove(conn)
        conn.close()

    def await_worker(self) -> bool:
        """Block until at least one worker is hello-verified, a connect
        timeout elapses, or no worker can ever join again (in spawn mode:
        every spawned process is dead; external workers might always
        still come, bounded by the connect timeout).

        Raises ``RuntimeError`` only when *no worker ever connected* --
        once real work has been done, total worker loss degrades to
        ``None`` results, mirroring the fork band."""
        deadline = time.monotonic() + self.connect_timeout
        while not self.connections:
            remaining = deadline - time.monotonic()
            if self._spawn and not self._pending and not self._live_processes():
                why = (
                    "all spawned workers exited before connecting (is the "
                    "repro package importable in the worker interpreter?)"
                )
            elif remaining <= 0:
                why = (
                    f"no worker connected to {self.address[0]}:"
                    f"{self.address[1]} within {self.connect_timeout:.0f}s"
                )
            else:
                self.poll(min(remaining, 0.2))
                continue
            if self._ever_connected:
                return False
            raise RuntimeError(f"socket backend: {why}")
        return True

    # ----------------------------------------------------------- frames

    def send(self, conn: JsonLineConnection, index: int, task: Any) -> None:
        conn.send(
            {
                "type": "task",
                "id": index,
                "handler": self.handler_spec,
                "task": task,
            }
        )

    def poll(self, timeout: float) -> List[Event]:
        events: List[Event] = []
        for key, _ in self._selector.select(timeout):
            conn = key.data
            if conn == "listener":
                self._accept()  # late joiner: verified on a later poll
            elif conn in self._pending:
                self._pump_pending(conn)
            else:
                frames = conn.read_ready()
                if frames is None:
                    self.drop(conn)
                    events.append((conn, None))
                    continue
                for message in frames:
                    if message.get("type") == "result":
                        ok = bool(message.get("ok"))
                        payload = message.get("result" if ok else "error")
                        events.append((conn, (message["id"], ok, payload)))
        return events

    # --------------------------------------------------------- shutdown

    def _gone(self, process: subprocess.Popen, timeout: float) -> bool:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        return True

    def _shutdown(self, grace: float) -> None:
        greeted = {conn.pid for conn in self.connections}
        for conn in self.connections + self._pending:
            try:
                conn.send({"type": "shutdown"})
            except OSError:
                pass
            self.drop(conn)
        # A spawned worker that never said hello (still importing, say)
        # cannot be shown to have got the farewell frame, so ``grace``
        # would be spent waiting for nothing: it starts the ladder at
        # SIGTERM.
        for process in self._processes:
            if process.pid not in greeted and process.poll() is None:
                process.terminate()
        self._reap(self._processes, grace)
        self._processes = []
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._selector.close()
        self._listener.close()


class SocketBackend(ExecutionBackend):
    """Own a :class:`TcpBand` (built from ``band_options``); ``map`` is
    :func:`dispatch` over it under ``supervisor``'s failure policy."""

    name = "socket"

    def __init__(
        self,
        handler: Any,
        workers: int = 1,
        supervisor: Optional[TaskSupervisor] = None,
        **band_options: Any,
    ):
        band = TcpBand(handler, workers, **band_options)
        self.band: WorkerBand = band
        self.supervisor = supervisor or TaskSupervisor()
        #: The ``(host, port)`` external workers should join.
        self.address = band.address

    def map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float] = None,
        on_result: Optional[ResultHook] = None,
    ) -> List[Optional[Any]]:
        return dispatch(self.band, tasks, deadline, on_result, self.supervisor)

    def close(self) -> None:
        self.band.close()
