"""Shrink resumes, it does not restart -- and must not be able to tell.

The ddmin loop passes ``keep`` to its oracle, the replay-then-judge
wrapper resumes the model replay from a checkpoint, and the campaign's
two judges resume the implementation from a ``clone()``d cursor, skip
candidates they already rejected and inherit verdicts the cut cannot
reach.  Every test here holds one of those against the from-scratch
reference: a full replay on a fresh ensemble for every candidate, written
locally so that nothing under test is part of the yardstick."""

import copy
import random

import pytest

from repro.analysis.conformance import clone_defects
from repro.checker import RandomWalker
from repro.checker.shrink import (
    ReplayThenJudge,
    replay_labels,
    shrink_labels_oracle,
)
from repro.remix import minimize
from repro.remix.campaign import CampaignJob, run_cell
from repro.remix.minimize import (
    DIRECTION_TABLE,
    ConformanceOracle,
    ValidationOracle,
    rebuild_witness,
    reducible_min_traces,
    replay_min_trace,
    shrink_finding,
)
from repro.remix.registry import system_plugin
from repro.remix.request import CampaignRequest
from repro.remix.spec_cache import cached_spec

from conftest import counter_spec

SYSTEMS = ("zookeeper", "raft")
DIRECTIONS = ("topdown", "bottomup")
#: 7 is the development seed; 4242 was chosen after the code was written.
SEEDS = (7, 4242)


# ------------------------------------------------------ the loop's contract


def folding_oracles(seed):
    """A seeded random oracle in two forms: the verdict is a property of
    a non-commutative fold over the candidate.  ``resumed`` folds only
    ``candidate[keep:]`` from the checkpoint it kept for the accepted
    sequence; ``scratch`` ignores ``keep``."""
    rng = random.Random(seed)
    modulus = rng.choice((5, 7, 11))
    wanted = set(rng.sample(range(modulus), rng.randint(1, modulus - 2)))

    def fold(value, label):
        return (value * 31 + label) % 1_000_003

    def scratch(candidate, keep):
        value = 0
        for label in candidate:
            value = fold(value, label)
        return value % modulus in wanted

    checkpoints = [0]

    def resumed(candidate, keep):
        folded = checkpoints[: keep + 1]
        for label in candidate[keep:]:
            folded.append(fold(folded[-1], label))
        if folded[-1] % modulus not in wanted:
            return False
        checkpoints[:] = folded
        return True

    return scratch, resumed


def recorded(oracle, calls):
    def recording(candidate, keep):
        verdict = oracle(candidate, keep)
        calls.append((tuple(candidate), keep, verdict))
        return verdict

    return recording


class TestLoopContract:
    def shrinkable_inputs(self):
        for seed in range(200):
            rng = random.Random(1000 + seed)
            labels = [rng.randrange(50) for _ in range(rng.randint(1, 24))]
            scratch, resumed = folding_oracles(seed)
            if scratch(labels, 0):
                yield labels, scratch, resumed

    def test_keep_is_a_shared_prefix_with_the_accepted_sequence(self):
        checked = 0
        for labels, scratch, _ in self.shrinkable_inputs():
            calls = []
            shrink_labels_oracle(labels, recorded(scratch, calls))
            assert calls[0] == (tuple(labels), 0, True)
            accepted = tuple(labels)
            for candidate, keep, verdict in calls[1:]:
                assert 0 <= keep <= len(candidate) < len(accepted)
                assert candidate[:keep] == accepted[:keep]
                if verdict:
                    accepted = candidate
                checked += 1
        assert checked > 500

    def test_an_oracle_that_ignores_keep_yields_the_same_result(self):
        shrunk = 0
        for labels, scratch, resumed in self.shrinkable_inputs():
            ignoring, resuming = [], []
            reference = shrink_labels_oracle(labels, recorded(scratch, ignoring))
            result = shrink_labels_oracle(labels, recorded(resumed, resuming))
            assert result == reference
            assert resuming == ignoring  # candidate by candidate
            shrunk += len(result) < len(labels)
        assert shrunk > 20

    def test_an_input_the_oracle_rejects_is_refused(self):
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_labels_oracle([1, 2, 3], lambda candidate, keep: False)

    def test_replay_then_judge_resumes_to_the_same_trace(self):
        """The model replay from ``states[keep]`` is the replay from the
        initial state, for every candidate of a shrink."""
        spec = counter_spec(max_x=8, y_bound=99)
        initial = spec.initial_states()[0]
        walker = RandomWalker(spec, seed=11)
        judged = 0
        for _ in range(20):
            trace = walker.walk(max_steps=30)
            target = trace.final.y

            def judge(candidate, keep):
                scratch = replay_labels(spec, candidate.labels, [initial])
                assert scratch.states == candidate.states
                nonlocal judged
                judged += 1
                return candidate.final.y == target

            oracle = ReplayThenJudge(spec, initial, judge)
            calls = []
            labels = shrink_labels_oracle(trace.labels, recorded(oracle, calls))
            assert oracle.accepted.labels == labels
            assert oracle.accepted.final.y == target
            for candidate, _, verdict in calls:
                replayed = replay_labels(spec, list(candidate), [initial])
                assert verdict == (
                    replayed is not None and replayed.final.y == target
                )
        assert judged > 50


# -------------------------------- resumed == from scratch, on the campaign


def reference_shrink(finding, config, system):
    """``shrink_finding`` as it was before it resumed anything: every
    candidate replays at the model level from the initial state (top-down)
    and is judged by ``Coordinator.replay(trace)`` /
    ``validate_labels(labels)`` on a fresh ensemble.  Returns the payload
    and the ``(candidate, keep, verdict)`` sequence the loop saw."""
    grain, direction = finding["grain"], DIRECTION_TABLE[finding["direction"]]
    spec = cached_spec(grain, config, system=system)
    judge = direction.judge(grain, None, config, system).judge
    replays = 0

    def reproduces(run):
        nonlocal replays
        replays += 1
        return any(
            judged["fingerprint"] == finding["fingerprint"]
            for judged in judge(run)[2]
        )

    def oracle(labels, keep):
        if finding["direction"] == "bottomup":
            return reproduces(labels)
        trace = replay_labels(spec, labels, spec.initial_states()[:1])
        return trace is not None and reproduces(trace)

    run = rebuild_witness(grain, finding["witness"], config, system)
    assert reproduces(run)
    calls = []
    shrunk = shrink_labels_oracle(direction.judge.labels(run), recorded(oracle, calls))
    payload = {
        "status": "ok",
        "steps": len(shrunk),
        "witness_steps": len(run),
        "oracle_replays": replays,
        "labels": [minimize.label_to_json(label) for label in shrunk],
    }
    return payload, calls


def resumed_shrink(finding, config, system, monkeypatch):
    """The production ``shrink_finding`` with the loop's calls recorded."""
    calls = []

    def recording_loop(labels, oracle):
        return shrink_labels_oracle(labels, recorded(oracle, calls))

    with monkeypatch.context() as patch:
        patch.setattr(minimize, "shrink_labels_oracle", recording_loop)
        payload = shrink_finding(finding, config, system=system)
    return payload, calls


def campaign_findings(campaign_json, system, seed):
    """The distinct findings of the default matrix, both directions,
    unshrunk (each call gets its own copy)."""
    request = CampaignRequest(system=system, seed=seed, directions=DIRECTIONS)
    return campaign_json(request)["findings"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_resumed_shrink_equals_from_scratch(system, seed, monkeypatch, campaign_json):
    config = system_plugin(system).campaign_config()
    findings = campaign_findings(campaign_json, system, seed)
    assert {finding["direction"] for finding in findings} == set(DIRECTIONS)
    candidates = 0
    for finding in findings:
        payload, verdicts = resumed_shrink(finding, config, system, monkeypatch)
        reference, reference_verdicts = reference_shrink(finding, config, system)
        assert verdicts == reference_verdicts, finding["fingerprint"]
        assert payload == reference, finding["fingerprint"]
        candidates += len(verdicts)
    assert candidates > 500


@pytest.mark.parametrize("system", SYSTEMS)
def test_min_traces_are_one_minimal(system, campaign_json):
    """The loop's documented guarantee, judged from scratch: no single
    label of any ``min_trace`` can be deleted."""
    report = campaign_json(
        CampaignRequest(system=system, seed=7, directions=DIRECTIONS, shrink=True)
    )
    deletions = sum(
        len(finding["min_trace"]["labels"]) for finding in report["findings"]
    )
    assert deletions > 100
    assert reducible_min_traces(report) == []


# ----------------------------------------------------------------- the traps


def oracle_for(finding, config, system):
    """A judge, the loop's oracle over it -- which has accepted the
    finding's witness, as after the loop's first call -- and the witness
    labels."""
    direction = DIRECTION_TABLE[finding["direction"]]
    judge = direction.judge(
        finding["grain"], finding["fingerprint"], config, system
    )
    spec = cached_spec(finding["grain"], config, system=system)
    oracle = direction.lift(spec, judge)
    run = rebuild_witness(finding["grain"], finding["witness"], config, system)
    witness = list(direction.judge.labels(run))
    assert oracle(witness, 0)
    return judge, oracle, witness


def from_scratch(finding, config, system):
    def verdict(labels):
        payload = {
            "status": "ok",
            "labels": [minimize.label_to_json(label) for label in labels],
        }
        return replay_min_trace(dict(finding, min_trace=payload), config, system)

    return verdict


def first_finding(campaign_json, system, direction, kind=None):
    for finding in campaign_findings(campaign_json, system, 7):
        if finding["direction"] == direction and kind in (None, finding["kind"]):
            return finding
    raise AssertionError(f"no {direction} finding of kind {kind}")


def test_topdown_stays_two_phase(campaign_json):
    """Trap 1: the whole candidate replays at the model level before the
    implementation judges it.  A lockstep merge would stop at the firing
    step and accept a candidate whose tail the model forbids."""
    system, config = "zookeeper", system_plugin("zookeeper").campaign_config()
    finding = first_finding(campaign_json, system, "topdown", kind="impl_bug")
    payload = shrink_finding(finding, config, system=system)
    spec = cached_spec(finding["grain"], config, system=system)
    fires = [
        inst.label
        for inst in minimize.labels_from_json(spec, payload["labels"])
    ]
    final = replay_labels(spec, fires, spec.initial_states()[:1]).final
    forbidden = next(
        inst.label
        for inst in spec.action_instances()
        if inst.apply(spec.config, final) is None
    )
    judge, oracle, _ = oracle_for(finding, config, system)
    assert oracle(fires, 0)
    before = judge.replays
    # the finding fires on the last label of ``fires``; nothing after it
    # is ever executed by the implementation, yet it must be a model trace
    assert not oracle(fires + [forbidden], len(fires))
    assert not oracle(fires + [forbidden], 0)
    assert judge.replays == before  # rejected unjudged


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_unknown_variable_finding_takes_the_full_replay(
    direction, system, monkeypatch
):
    """Trap 2: a configuration-level finding has no firing step -- it is
    true of every candidate before any step runs -- so nothing is known
    clean and every candidate is replayed in full; the payload is the
    from-scratch one."""
    plugin = system_plugin(system)
    config = plugin.campaign_config()
    monkeypatch.setattr(
        plugin,
        "compared_variables",
        tuple(plugin.compared_variables) + ("historyy",),
    )
    cell = run_cell(
        CampaignJob(
            0, plugin.grains[0], "election", "none", 7, 1, 8,
            direction=direction, system=system,
        ),
        config,
    )
    finding = next(
        f for f in cell["findings"] if f["kind"] == "unknown_variable"
    )
    assert finding["variable"] == "historyy"

    resumes = []
    for lockstep, method in (
        (minimize.Coordinator, "replay"),
        (minimize.TraceValidator, "validate_labels"),
    ):
        original = getattr(lockstep, method)

        def spying(self, *args, original=original, resume=None, **kwargs):
            resumes.append(resume)
            return original(self, *args, resume=resume, **kwargs)

        monkeypatch.setattr(lockstep, method, spying)
    payload, verdicts = resumed_shrink(finding, config, system, monkeypatch)
    assert resumes and all(resume is None for resume in resumes)
    reference, reference_verdicts = reference_shrink(finding, config, system)
    assert verdicts == reference_verdicts
    assert payload == reference
    assert payload["steps"] == 0  # every candidate reproduces it


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_a_memo_hit_moves_neither_the_accepted_run_nor_the_cursor(
    direction, system, monkeypatch, campaign_json
):
    """Trap 3: a rejected candidate seen again is answered from the memo
    -- counted, not replayed -- and the next candidate still resumes
    along the *accepted* run: the witness here, not the rejected
    sequence, whose prefix is a different one."""
    config = system_plugin(system).campaign_config()
    finding = first_finding(campaign_json, system, direction)
    reference = from_scratch(finding, config, system)
    spec = cached_spec(finding["grain"], config, system=system)
    _, _, witness = oracle_for(finding, config, system)

    def without(index):
        return witness[:index] + witness[index + 1 :]

    def reaches_the_judge(labels):
        return direction == "bottomup" or (
            replay_labels(spec, labels, spec.initial_states()[:1]) is not None
        )

    rejected = next(
        index
        for index in range(len(witness) - 1)
        if reaches_the_judge(without(index)) and not reference(without(index))
    )
    method = "replay" if direction == "topdown" else "validate_labels"
    for index in range(rejected + 1, len(witness)):
        judge, oracle, _ = oracle_for(finding, config, system)
        physical = []
        # The engine is shared by every judge of its key: count on it
        # for this judge only, and put it back.
        with monkeypatch.context() as patch:
            lockstep_run = getattr(type(judge.lockstep), method)
            patch.setattr(
                judge.lockstep,
                method,
                lambda *args, **kw: physical.append(1)
                or lockstep_run(judge.lockstep, *args, **kw),
            )
            assert not oracle(without(rejected), rejected)
            assert not oracle(without(rejected), rejected)
        assert (judge.replays, len(physical)) == (3, 1)  # + the witness check
        # keep > rejected: a prefix only the witness has
        assert oracle(without(index), index) == reference(without(index))


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_judged_probe_never_mutates_the_cursor(system, monkeypatch, campaign_json):
    """The cursor is lent to a candidate as a ``clone()``: sharing one
    mutable container with the probe would leak a rejected candidate's
    steps into every later verdict."""
    checked = []
    for oracle_cls in (ConformanceOracle, ValidationOracle):
        original = oracle_cls._findings_from

        def guarded(self, run, resume, original=original):
            if resume is None or self._fired is None:
                # a full replay: from scratch, or past the clean prefix
                return original(self, run, resume)
            cursor = self._cursor[1]
            assert clone_defects(cursor, resume[1]) == []
            before = copy.deepcopy(cursor)
            result = original(self, run, resume)
            assert clone_defects(before, cursor) == []
            checked.append(type(self).__name__)
            return result

        monkeypatch.setattr(oracle_cls, "_findings_from", guarded)
    config = system_plugin(system).campaign_config()
    for finding in campaign_findings(campaign_json, system, 7):
        assert shrink_finding(finding, config, system=system)["status"] == "ok"
    assert checked.count("ConformanceOracle") > 50
    assert checked.count("ValidationOracle") > 50


# ------------------------------------------------- the lockstep resume entry


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_resume_entry_reports_what_the_full_run_reports(direction, system, campaign_json):
    """Entering the lockstep loop at any step before the one a finding
    fires at, on a point driven there uncompared, ends in the same
    findings as the run from step 0."""
    config = system_plugin(system).campaign_config()
    finding = first_finding(campaign_json, system, direction)
    judge, _, witness = oracle_for(finding, config, system)
    run = rebuild_witness(finding["grain"], finding["witness"], config, system)
    full, fired = judge._findings_from(run, None)
    assert fired is not None and fired == judge._fired
    lockstep = judge.lockstep
    for step in range(fired + 1):
        point = lockstep.advance(lockstep.start(), witness[:step])
        assert point[0] == step
        assert judge._findings_from(run, point) == (full, fired)
