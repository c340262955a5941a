"""The serializable campaign request: normalization, single-format axis
validation, JSON round-trips, the request-only ``run_campaign``
entry point, and the CLI's request surface (``--dry-run`` / ``--request``)."""

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.cli import main
from repro.remix.campaign import run_campaign
from repro.remix.request import (
    REQUEST_SCHEMA,
    CampaignRequest,
    RequestError,
    parse_budget,
)

#: A campaign small enough to run in every test that needs a report.
TINY = dict(
    grains=("mSpec-1",),
    scenarios=("election",),
    faults=("none",),
    traces=1,
    max_steps=4,
    seed=7,
)


def report_json(request):
    data = run_campaign(request).to_json()
    data["campaign"].pop("elapsed_seconds", None)
    return data


class TestNormalization:
    def test_defaults_resolve_against_plugin(self):
        request = CampaignRequest()
        assert request.system == "zookeeper"
        assert request.grains and all(
            isinstance(g, str) for g in request.grains
        )
        assert request.scenarios and request.faults
        assert isinstance(request.config, dict)

    def test_sequences_freeze_to_tuples(self):
        request = CampaignRequest(
            grains=["mSpec-1"], scenarios=["election"], faults=["none"],
            directions=["topdown"],
        )
        for value in (
            request.grains, request.scenarios, request.faults,
            request.directions,
        ):
            assert isinstance(value, tuple)

    def test_budget_string_parses_to_seconds(self):
        assert CampaignRequest(budget="5s").budget == 5.0
        assert CampaignRequest(budget="2m").budget == 120.0
        assert CampaignRequest(budget=1.5).budget == 1.5
        assert CampaignRequest(budget=None).budget is None

    def test_counts_clamp_and_coerce(self):
        request = CampaignRequest(seeds=0, workers=0, traces="3")
        assert request.seeds == 1
        assert request.workers == 1
        assert request.traces == 3

    def test_a_cell_checks_a_trace_but_may_take_no_random_steps(self):
        # Zero traces would report every cell ok having checked nothing;
        # zero steps still judges the scripted prefix.
        with pytest.raises(RequestError, match="traces: traces must be at least 1, got 0"):
            CampaignRequest(traces=0)
        assert CampaignRequest(max_steps=0).max_steps == 0

    def test_config_object_round_trips(self):
        request = CampaignRequest(**TINY)
        config = request.config_object()
        again = CampaignRequest(**dict(TINY, config=config))
        assert again.config == request.config
        assert again == request

    def test_equal_requests_compare_equal(self):
        assert CampaignRequest(**TINY) == CampaignRequest(**TINY)
        assert CampaignRequest(**TINY) != CampaignRequest(
            **dict(TINY, seed=8)
        )


class TestValidation:
    def test_unknown_system_preserves_registry_message(self):
        with pytest.raises(RequestError, match="unknown system 'etcd'"):
            CampaignRequest(system="etcd")

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("directions", dict(directions=("sideways",))),
            ("grains", dict(grains=("bogus",))),
            ("scenarios", dict(scenarios=("apocalypse",))),
            ("faults", dict(faults=("meteor-strike",))),
            ("backend", dict(backend="carrier-pigeon")),
        ],
    )
    def test_axis_errors_share_one_format(self, field, kwargs):
        with pytest.raises(RequestError) as err:
            CampaignRequest(**kwargs)
        message = str(err.value)
        assert message.startswith(f"invalid campaign request: {field}: ")
        assert "unknown value" in message and "options: [" in message

    def test_bad_budget_rejected(self):
        with pytest.raises(RequestError, match="budget"):
            CampaignRequest(budget="eleventy")
        with pytest.raises(RequestError, match="positive"):
            CampaignRequest(budget=-1)

    @pytest.mark.parametrize(
        "wire, field",
        [
            ('{"budget": NaN}', "budget"),  # no deadline at all, and invalid JSON out
            ('{"budget": Infinity}', "budget"),
            ('{"budget": "nan"}', "budget"),
            ('{"budget": true}', "budget"),  # not one second
            ('{"task_timeout": NaN}', "task_timeout"),
            ('{"task_timeout": 0}', "task_timeout"),
            ('{"traces": -3}', "traces"),  # an empty run
            ('{"max_steps": -1}', "max_steps"),
            ('{"task_retries": -1}', "task_retries"),
            ('{"seeds": 1.7}', "seeds"),  # not silently 1
            ('{"workers": "two"}', "workers"),
        ],
    )
    def test_numbers_it_cannot_honour_are_refused(self, wire, field):
        with pytest.raises(RequestError, match=f"^invalid campaign request: {field}: "):
            CampaignRequest.from_json(json.loads(wire))

    def test_a_client_deadline_obeys_the_budget_rule(self):
        # serve folds a client's "deadline" into the budget through
        # with_options, so the same rule refuses it.
        request = CampaignRequest(**TINY)
        with pytest.raises(RequestError, match="budget: budget must be finite"):
            request.with_options(budget=float("nan"))
        assert CampaignRequest.from_json({"seeds": 2.0, "traces": "3"}).seeds == 2

    def test_with_options_revalidates(self):
        request = CampaignRequest(**TINY)
        with pytest.raises(RequestError, match="backend"):
            request.with_options(backend="bogus")
        assert request.with_options(workers=2).workers == 2

    def test_parse_budget_units(self):
        assert parse_budget("500ms") == 0.5
        assert parse_budget("1h") == 3600.0
        with pytest.raises(ValueError):
            parse_budget("nope")


class TestWireFormat:
    def test_json_round_trip_is_identity(self):
        request = CampaignRequest(**TINY, budget="5s", shrink=True)
        wire = json.loads(json.dumps(request.to_json()))
        assert wire["schema"] == REQUEST_SCHEMA
        assert CampaignRequest.from_json(wire) == request

    def test_round_tripped_request_reports_identically(self):
        request = CampaignRequest(**TINY)
        clone = CampaignRequest.from_json(request.to_json())
        assert report_json(request) == report_json(clone)

    def test_from_json_tolerates_sparse_input(self):
        request = CampaignRequest.from_json({"grains": ["mSpec-1"]})
        assert request.grains == ("mSpec-1",)
        assert request == CampaignRequest(grains=("mSpec-1",))

    def test_from_json_rejects_unknown_keys(self):
        # A typo, or a field of a removed option, must not silently run
        # a different campaign than the one asked for.
        with pytest.raises(RequestError, match=r"unknown field\(s\) \['seedz'\]"):
            CampaignRequest.from_json({"grains": ["mSpec-1"], "seedz": 5})
        with pytest.raises(RequestError, match="'adaptive'"):
            CampaignRequest.from_json({"adaptive": True})
        with pytest.raises(TypeError, match="adaptive"):
            CampaignRequest(adaptive=True)
        # the shrink loop's round cap is a constant, not a request field
        with pytest.raises(RequestError, match=r"unknown field\(s\) \['shrink_rounds'\]"):
            CampaignRequest.from_json({"shrink_rounds": 10})

    def test_from_json_rejects_wrong_schema(self):
        with pytest.raises(RequestError, match="schema"):
            CampaignRequest.from_json({"schema": "repro.campaign.request/9"})
        with pytest.raises(RequestError, match="JSON object"):
            CampaignRequest.from_json([1, 2, 3])


class TestFromKwargsShim:
    def test_positional_request_required(self):
        # A CampaignRequest is the only way in (no keyword shim), and
        # anything else is refused by type.
        with pytest.raises(TypeError, match="CampaignRequest, not dict"):
            run_campaign({"grains": ("mSpec-1",)})


class TestCliRequestSurface:
    ARGS = [
        "campaign", "--grains", "mSpec-1", "--scenarios", "election",
        "--faults", "none", "--traces", "1", "--steps", "4",
    ]

    def test_dry_run_prints_normalized_request(self, capsys):
        assert main(self.ARGS + ["--dry-run"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["schema"] == REQUEST_SCHEMA
        assert wire["grains"] == ["mSpec-1"]
        assert CampaignRequest.from_json(wire)  # loadable as-is

    def test_request_from_args_matches_flags(self, capsys):
        assert main(self.ARGS + ["--dry-run"]) == 0
        wire = json.loads(capsys.readouterr().out)
        # the CLI defaults --shrink on; everything else matches the flags
        assert CampaignRequest.from_json(wire) == CampaignRequest(
            grains=("mSpec-1",), scenarios=("election",), faults=("none",),
            traces=1, max_steps=4, shrink=True,
        )

    def test_request_file_runs_campaign(self, tmp_path, capsys):
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps(CampaignRequest(**TINY).to_json()))
        assert main(
            ["campaign", "--request", str(request_file), "--json", "-"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"].startswith("repro.campaign/")

    def test_request_file_is_closed(self, tmp_path):
        # -X dev turns on ResourceWarning: reading the file must not leak
        # its handle.
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps(CampaignRequest(**TINY).to_json()))
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "repro", "campaign",
             "--request", str(request_file), "--dry-run"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["grains"] == ["mSpec-1"]
        assert "unclosed file" not in done.stderr

    def test_request_file_with_unknown_key_exits_2(self, tmp_path, capsys):
        request_file = tmp_path / "request.json"
        request_file.write_text(json.dumps({**CampaignRequest(**TINY).to_json(), "seedz": 5}))
        assert main(["campaign", "--request", str(request_file)]) == 2
        assert "campaign: invalid campaign request: unknown field(s) ['seedz']" in (
            capsys.readouterr().err
        )

    def test_bad_axis_exits_2_with_single_format(self, capsys):
        code = main(["campaign", "--grains", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "campaign:" in err
        assert "grains: unknown value 'bogus'" in err
