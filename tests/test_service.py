"""The campaign server: event-stream shape, concurrent streamed
requests, resident spec-cache economics, the resident socket band and
its lease (reuse, per-request ``degraded``, failure containment,
shutdown), heartbeats and deadlines."""

import functools
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.checker.backends.sockets import SocketBackend
from repro.remix import registry, spec_cache
from repro.remix.campaign import clean_degraded, run_campaign
from repro.remix.request import CampaignRequest
from repro.remix.service import EVENT_SCHEMA, CampaignServer, serve_request

from conftest import report_bytes

TINY = dict(
    grains=("mSpec-1",),
    scenarios=("election",),
    faults=("none",),
    traces=1,
    max_steps=4,
    seed=7,
)

#: The request the resident-band tests send: 36 cells plus shrink on two
#: socket workers -- long enough for a kill to land mid-request.
SOCKET = dict(
    grains=("mSpec-1",), seeds=1, shrink=True, backend="socket", workers=2
)

TERMINAL = {"report", "error", "stats"}


def check_stream(events, request_id=None):
    """Assert the stream obeys the ``repro.campaign.event/1`` contract;
    returns the terminal event."""
    assert events, "stream must not be empty"
    # a connection that runs no campaign streams a single event: the
    # rejection, or the answer to a stats request
    if events[0]["event"] != "accepted":
        assert len(events) == 1 and events[0]["event"] in ("error", "stats")
    assert events[-1]["event"] in TERMINAL
    for event in events:
        assert event["schema"] == EVENT_SCHEMA
        assert event["elapsed"] >= 0
        if request_id is not None:
            assert event["id"] == request_id
        assert event["event"] not in TERMINAL or event is events[-1]
    return events[-1]


def stream_request(address, payload, on_event=None):
    """Send one request line to a server; return the parsed event list
    (``on_event`` sees each event as it arrives)."""
    events = []
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        for line in sock.makefile("r", encoding="utf-8"):
            if line.strip():
                events.append(json.loads(line))
                if on_event is not None:
                    on_event(events[-1])
    return events


def socket_request(seed):
    return CampaignRequest(**SOCKET, seed=seed)


def served_report(address, seed, on_event=None):
    """Stream ``socket_request(seed)``; return its ``report`` event."""
    terminal = check_stream(
        stream_request(address, socket_request(seed).to_json(), on_event)
    )
    assert terminal["event"] == "report", terminal
    return terminal


@functools.lru_cache(maxsize=None)
def solo_report(seed):
    """What a direct ``run_campaign`` says for ``socket_request(seed)``
    (over fork: reports are byte-identical across backends)."""
    request = socket_request(seed).with_options(backend="fork")
    return report_bytes(run_campaign(request))


def bands(server):
    """The resident bands, as the wire's ``stats`` request shows them."""
    (event,) = stream_request(server.address, {"stats": True})
    check_stream([event])
    assert event["event"] == "stats"
    return event["bands"]


def gone(pid):
    """Is our child ``pid`` dead (reaped, or a zombie waiting for it)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] in "ZX"
    except OSError:
        return True


def kill_worker(pid):
    os.kill(pid, signal.SIGKILL)
    patience = time.monotonic() + 10.0
    while not gone(pid):
        assert time.monotonic() < patience, f"worker {pid} survived SIGKILL"
        time.sleep(0.01)


class TestServeRequest:
    def test_stream_shape_and_report(self):
        events = []
        report = serve_request(
            CampaignRequest(**TINY), events.append, request_id=3
        )
        terminal = check_stream(events, request_id=3)
        assert terminal["event"] == "report"
        assert terminal["report"] == report.to_json()
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_done") == report.totals["cells"] > 0

    def test_events_json_serializable(self):
        events = []
        serve_request(CampaignRequest(**TINY), events.append)
        for event in events:
            json.loads(json.dumps(event))  # wire-safe

    def test_campaign_crash_becomes_error_event(self, monkeypatch):
        def explode(request, progress=None, backend=None):
            raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.remix.service.run_campaign", explode)
        events = []
        report = serve_request(CampaignRequest(**TINY), events.append)
        assert report is None
        terminal = check_stream(events)
        assert terminal["event"] == "error"
        assert "kaboom" in terminal["message"]

    def test_heartbeat_fires_during_long_campaign(self, monkeypatch):
        def slow(request, progress=None, backend=None):
            import time

            time.sleep(0.25)
            from repro.remix.campaign import run_campaign

            return run_campaign(request, progress=progress)

        monkeypatch.setattr("repro.remix.service.run_campaign", slow)
        events = []
        serve_request(
            CampaignRequest(**TINY), events.append, heartbeat=0.05
        )
        assert any(e["event"] == "heartbeat" for e in events)
        check_stream(events)


class TestCampaignServer:
    @pytest.fixture()
    def server(self):
        server = CampaignServer(heartbeat=0.0)
        server.start()
        yield server
        server.stop()

    def test_second_request_hits_resident_cache(self, server):
        spec_cache.clear()
        request = CampaignRequest(**TINY).to_json()
        first = check_stream(stream_request(server.address, request), 1)
        second = check_stream(stream_request(server.address, request), 2)
        assert first["event"] == second["event"] == "report"
        assert first["spec_cache"].get("misses", 0) > 0
        assert second["spec_cache"].get("hits", 0) > 0
        assert second["spec_cache"].get("misses", 0) == 0
        # resident caches change the economics, not the answer
        assert report_bytes(first["report"]) == report_bytes(second["report"])

    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param({}, id="tiny"),
            pytest.param(
                dict(scenarios=("election", "sync"), faults=("none", "crash-follower"),
                     max_steps=6),
                id="four-cells",
            ),
        ],
    )
    def test_two_concurrent_requests_both_stream(self, server, shape):
        request = CampaignRequest(**{**TINY, **shape}).to_json()
        results = [None, None]

        def client(slot):
            results[slot] = stream_request(server.address, request)

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        ids = set()
        for events in results:
            terminal = check_stream(events)
            assert terminal["event"] == "report"
            ids.add(events[0]["id"])
        assert ids == {1, 2}  # one request id per connection

    def test_bad_request_line_is_error_event(self, server):
        events = stream_request(server.address, {"grains": ["bogus"]})
        terminal = check_stream(events)
        assert terminal["event"] == "error"
        assert "grains: unknown value 'bogus'" in terminal["message"]
        # ... and so is a key that is not a request field
        events = stream_request(
            server.address, {**CampaignRequest(**TINY).to_json(), "adaptive": True}
        )
        terminal = check_stream(events)
        assert terminal["event"] == "error"
        assert "unknown field(s) ['adaptive']" in terminal["message"]

    def test_deadline_folds_into_budget(self, server):
        events = stream_request(
            server.address,
            {"request": CampaignRequest(**TINY).to_json(), "deadline": 1e-9},
        )
        terminal = check_stream(events)
        assert terminal["event"] == "report"
        totals = terminal["report"]["totals"]
        assert totals["skipped"] == totals["cells"] > 0
        assert totals["traces"] == 0

    @pytest.mark.parametrize(
        "extra, complaint",
        [
            ({"bogus": 1}, "unknown envelope key(s) ['bogus']"),
            ({"deadline": True}, "deadline: expected seconds"),
            ({"deadline": 0}, "deadline: deadline must be finite and positive"),
        ],
    )
    def test_envelope_it_cannot_honour_is_error_event(self, server, extra, complaint):
        events = stream_request(
            server.address, {"request": CampaignRequest(**TINY).to_json(), **extra}
        )
        terminal = check_stream(events)
        assert terminal["event"] == "error"
        assert complaint in terminal["message"]

    def test_stats_request_describes_the_server(self, server):
        check_stream(
            stream_request(server.address, CampaignRequest(**TINY).to_json())
        )
        (event,) = stream_request(server.address, {"stats": True})
        check_stream([event], request_id=2)
        assert event["event"] == "stats"
        assert event["connections"] == 2  # the campaign, and this one
        assert event["in_flight"] == 0
        assert event["spec_cache"] == spec_cache.stats()
        assert event["bands"] == []  # a fork request builds its own backend

    def test_finished_handlers_are_forgotten(self, server):
        """A resident server must not keep one Thread per connection it
        ever served."""
        for _ in range(6):
            stream_request(server.address, {"stats": True})
        assert len(server._clients) <= 2

    def test_neighbours_fork_workers_do_not_hold_a_clients_stream_open(
        self, server
    ):
        """A forked worker inherits every descriptor open in the server:
        a client that connected before a fork/2 neighbour started must
        still see end-of-stream with its own report, not when the
        neighbour reaps its workers."""
        neighbour_forked = threading.Event()
        neighbour_done = threading.Event()

        def neighbour():
            request = CampaignRequest(
                grains=("mSpec-1",), seeds=4, shrink=True, workers=2,
                backend="fork", seed=7,
            )
            stream_request(
                server.address,
                request.to_json(),
                lambda event: event["event"] == "cell_done"
                and neighbour_forked.set(),
            )
            neighbour_done.set()

        with socket.create_connection(server.address, timeout=30) as sock:
            # Let the server accept us before the neighbour forks.
            while server.stats()["connections"] < 1:
                time.sleep(0.01)
            thread = threading.Thread(target=neighbour)
            thread.start()
            assert neighbour_forked.wait(timeout=30)
            sock.sendall(
                (json.dumps(CampaignRequest(**TINY).to_json()) + "\n").encode()
            )
            reported = None
            for line in sock.makefile("r", encoding="utf-8"):
                if json.loads(line)["event"] == "report":
                    reported = time.monotonic()
            ended = time.monotonic()
            neighbour_still_running = not neighbour_done.is_set()
        thread.join(timeout=60)
        assert reported is not None
        assert neighbour_still_running, "neighbour too short to tell"
        assert ended - reported < 0.25

    # ------------------------------------------- the resident socket band

    def test_sequential_socket_requests_reuse_the_workers(self, server):
        first = served_report(server.address, 7)
        (band,) = bands(server)
        assert band["state"] == "idle" and band["requests"] == 1
        assert band["workers"] == 2 and len(band["pids"]) == 2
        second = served_report(server.address, 8)
        (again,) = bands(server)
        assert again["pids"] == band["pids"]  # same interpreters, warm
        assert again["address"] == band["address"]
        assert again["requests"] == 2
        # the resident band spares the spawn: measured 0.32-0.42 s ->
        # 0.06-0.07 s on an idle 2-core box, 0.81-0.95 s -> 0.14-0.19 s
        # with a test suite busy on both cores (4.4x at worst against 2x)
        assert second["elapsed"] < first["elapsed"] / 2, (first["elapsed"], second["elapsed"])
        assert report_bytes(first["report"]) == solo_report(7)
        assert report_bytes(second["report"]) == solo_report(8)
        assert "auth_token" not in json.dumps(again)

    def test_concurrent_socket_requests_equal_their_solo_runs(self, server):
        served = {}

        def client(seed):
            served[seed] = served_report(server.address, seed)

        threads = [threading.Thread(target=client, args=(s,)) for s in (7, 8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for seed in (7, 8):
            assert report_bytes(served[seed]["report"]) == solo_report(seed)
        # one band per request while both ran; one idle band per shape after
        assert [band["state"] for band in bands(server)] == ["idle"]

    def test_worker_killed_mid_request_shows_in_that_report_only(self, server):
        served_report(server.address, 7)  # the band is resident from here
        (band,) = bands(server)
        victim = band["pids"][0]
        killed = []

        def kill_on_first_cell(event):
            if event["event"] == "cell_done" and not killed:
                killed.append(victim)
                os.kill(victim, signal.SIGKILL)

        hit = served_report(server.address, 8, kill_on_first_cell)
        supervision = hit["report"]["degraded"]["supervision"]
        # Exactly one respawn; the death is charged too unless the kill
        # landed in the microseconds between two of the victim's tasks.
        assert supervision["respawns"] == 1
        assert supervision["worker_deaths"] == supervision["retries"] <= 1
        assert supervision["quarantined"] == []
        hit["report"]["degraded"] = clean_degraded()
        assert report_bytes(hit["report"]) == solo_report(8)
        after = served_report(server.address, 9)
        assert after["report"]["degraded"] == clean_degraded()
        (again,) = bands(server)
        assert again["address"] == band["address"]  # still the same band
        assert again["requests"] == 3
        assert victim not in again["pids"]

    def test_worker_killed_while_idle_is_replaced_uncharged(self, server):
        before = served_report(server.address, 7)
        (band,) = bands(server)
        kill_worker(band["pids"][0])
        after = served_report(server.address, 8)
        for terminal in (before, after):
            assert terminal["report"]["degraded"] == clean_degraded()
        assert report_bytes(after["report"]) == solo_report(8)
        (again,) = bands(server)
        assert again["address"] == band["address"] and again["requests"] == 2
        assert band["pids"][0] not in again["pids"]
        assert band["pids"][1] in again["pids"]

    def test_idle_bands_are_bounded_oldest_closed_first(
        self, server, monkeypatch
    ):
        monkeypatch.setattr("repro.remix.service.MAX_IDLE_BANDS", 1)
        shapes = [dict(workers=1), dict(workers=1, auth_token="s3cret")]
        for shape in shapes:
            request = CampaignRequest(**TINY, backend="socket", **shape)
            terminal = check_stream(
                stream_request(server.address, request.to_json())
            )
            assert terminal["event"] == "report"
            if shape is shapes[0]:
                (oldest,) = bands(server)
        patience = time.monotonic() + 30.0
        while not gone(oldest["pids"][0]):  # reaped after the client's EOF
            assert time.monotonic() < patience
            time.sleep(0.05)
        (kept,) = bands(server)
        assert kept["address"] != oldest["address"]
        assert "s3cret" not in json.dumps(kept)

    def test_band_of_a_failed_request_is_discarded(self, server):
        """A task that raises ends the request in ``error``; its band
        may still have tasks in flight, so nobody gets it next."""

        class ServerOnly(type(registry.system_plugin("zookeeper"))):
            name = "server-only"  # unknown to a worker's fresh interpreter

        registry.register_system(ServerOnly())
        try:
            request = CampaignRequest(
                **{**TINY, "system": "server-only"}, backend="socket", workers=2
            )
            terminal = check_stream(
                stream_request(server.address, request.to_json())
            )
        finally:
            with registry._SYSTEMS_LOCK:
                registry._SYSTEM_PLUGINS.pop("server-only", None)
        assert terminal["event"] == "error"
        assert "unknown system 'server-only'" in terminal["message"]
        patience = time.monotonic() + 30.0
        while bands(server):  # closed right after the client's EOF
            assert time.monotonic() < patience
            time.sleep(0.05)

    def test_every_stop_returns_after_the_idle_bands_are_closed(self, monkeypatch):
        # On Ctrl-C the main thread and the accept loop both call stop(): the
        # one not closing the idle band must wait too, or serve exits mid-reap.
        server = CampaignServer(heartbeat=0.0)
        server.start()
        served_report(server.address, 7)
        (band,) = bands(server)
        close = SocketBackend.close
        monkeypatch.setattr(SocketBackend, "close", lambda b: (time.sleep(0.5), close(b)))
        seen = []

        def stop():
            server.stop()
            seen.append(all(gone(pid) for pid in band["pids"]))

        stoppers = [threading.Thread(target=stop) for _ in range(2)]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join(timeout=30)
        server.serve_forever()
        assert seen == [True, True]

    def test_no_worker_outlives_a_stopped_server(self):
        server = CampaignServer(heartbeat=0.0)
        server.start()
        try:
            served_report(server.address, 7)
            idle_pids = bands(server)[0]["pids"]
            # A second shape, still running when the server stops: its
            # band comes back late and must be closed, not kept.
            late = CampaignRequest(**{**SOCKET, "workers": 1}, seed=8)
            late_pids = []
            stopped = threading.Event()

            def stop_on_first_cell(event):
                if event["event"] == "cell_done" and not stopped.is_set():
                    late_pids.extend(
                        pid
                        for band in server.stats()["bands"]
                        if band["state"] == "lent"
                        for pid in band["pids"]
                    )
                    server.stop()
                    stopped.set()

            terminal = check_stream(
                stream_request(
                    server.address, late.to_json(), stop_on_first_cell
                )
            )
            assert terminal["event"] == "report"
            server.serve_forever()
        finally:
            server.stop()
        assert server.stats()["bands"] == []
        assert len(idle_pids) == 2 and len(late_pids) == 1
        for pid in idle_pids + late_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("request_timeout", -1.0),
            ("request_timeout", 0.0),
            ("request_timeout", float("nan")),
            ("request_timeout", float("inf")),
            ("heartbeat", -1.0),
            ("heartbeat", float("nan")),
            ("heartbeat", float("inf")),
        ],
    )
    def test_timeouts_that_would_kill_requests_are_refused(self, option, value):
        # A negative or NaN request timeout used to kill every handler in
        # sock.settimeout; a negative or NaN heartbeat silently meant off.
        with pytest.raises(ValueError, match=option):
            CampaignServer(**{option: value})

    @pytest.mark.parametrize("value", [0, -3])
    def test_a_quota_that_serves_nothing_is_refused(self, value, monkeypatch):
        # It used to bind, serve no request and stop as if healthy.  The
        # refusal comes before the listener exists.
        monkeypatch.setattr(socket, "socket", None)
        with pytest.raises(ValueError, match="max_requests"):
            CampaignServer(max_requests=value)

    def test_max_requests_stops_server(self):
        server = CampaignServer(heartbeat=0.0, max_requests=1)
        server.start()
        try:
            check_stream(
                stream_request(
                    server.address, CampaignRequest(**TINY).to_json()
                )
            )
            server.serve_forever()  # returns once the quota is served
            with pytest.raises(OSError):
                stream_request(
                    server.address, CampaignRequest(**TINY).to_json()
                )
        finally:
            server.stop()
