"""Counterexample shrinking.

BFS already yields minimal-*depth* traces, but the random walks behind a
conformance campaign's findings carry irrelevant steps.  The shrinker
greedily deletes steps while an *oracle* still accepts the remainder --
the standard delta-debugging loop specialized to action traces.  There
is one loop (:func:`shrink_labels_oracle`), and it resumes rather than
restarts: every candidate is the accepted sequence with one chunk cut
out, so the loop passes the cut position along -- ``oracle(candidate,
keep)`` with ``candidate[:keep] == accepted[:keep]`` -- and an oracle
that executes its candidates may pick up from whatever it kept for the
accepted sequence at step ``keep`` instead of starting over.  The oracle
flavours stack on top of the loop:

- a label-sequence oracle (:data:`LabelsOracle`): the oracle owns
  execution, so candidates need not replay at the model level (the
  campaign's bottom-up :class:`~repro.remix.minimize.ValidationOracle`,
  which keeps an implementation ensemble and a model state at ``keep``);
- a trace oracle under :class:`ReplayThenJudge`: candidates must first
  replay through the specification -- from the accepted sequence's model
  state at ``keep``, a free checkpoint since states are immutable -- then
  the oracle judges the replayed trace as a whole (the top-down
  :class:`~repro.remix.minimize.ConformanceOracle` re-runs it through
  the code-level coordinator, again from ``keep``).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.checker.trace import Trace
from repro.tla.action import ActionLabel
from repro.tla.spec import Specification
from repro.tla.state import State

#: What the loop calls: ``oracle(candidate, keep)`` judges a candidate
#: *label sequence* whose first ``keep`` labels are the first ``keep`` of
#: the last sequence it accepted (see :func:`shrink_labels_oracle`).  It
#: owns execution entirely, so a candidate need not be model-replayable
#: -- for the campaign's bottom-up direction, being model-disabled may be
#: exactly the failure under minimization.
LabelsOracle = Callable[[List[ActionLabel], int], bool]

#: Passes of the loop at most; a pass that deletes nothing ends it
#: sooner.
MAX_ROUNDS = 10


def shrink_labels_oracle(
    labels: List[ActionLabel], oracle: LabelsOracle
) -> List[ActionLabel]:
    """Remove steps from a label sequence while ``oracle`` still accepts
    the remainder (the one delta-debugging loop every shrinker shares).

    Greedy loop: try deleting contiguous chunks (halving the chunk size
    each round), keeping any deletion the oracle accepts.  The result is
    1-minimal with respect to single-step deletion when the loop
    converges.

    The loop tells the oracle what it already knows: every call is
    ``oracle(candidate, keep)`` with ``candidate[:keep] ==
    accepted[:keep]``, *accepted* being the input and then the last
    candidate the oracle accepted (``keep`` is 0 on the first call, which
    judges the input itself).  ``keep`` says where a replay may start,
    never whether to replay: an oracle that ignores it and judges every
    candidate from its first label returns the same verdicts.
    """
    labels = list(labels)
    if not oracle(list(labels), 0):
        raise ValueError("the input does not reproduce the failure")
    for _ in range(MAX_ROUNDS):
        changed = False
        chunk = max(1, len(labels) // 2)
        while chunk >= 1:
            index = 0
            while index < len(labels):
                candidate = labels[:index] + labels[index + chunk :]
                if oracle(list(candidate), index):
                    labels = candidate
                    changed = True
                else:
                    index += chunk
            chunk //= 2
        if not changed:
            break
    return labels


def replay_labels(
    spec: Specification,
    labels: List[ActionLabel],
    states: List[State],
    keep: int = 0,
) -> Optional[Trace]:
    """The model replay, resumable: ``states[: keep + 1]`` are the model
    states along ``labels[:keep]`` (``[initial]`` replays from scratch)
    and only ``labels[keep:]`` are applied, from ``states[keep]``.  None
    when some step is disabled.  States are immutable, so the checkpoints
    a caller keeps are references into an earlier replay's trace."""
    states = states[: keep + 1]
    state = states[-1]
    config, instance_for = spec.config, spec.instance_for
    for label in labels[keep:]:
        state = instance_for(label).apply(config, state)
        if state is None:
            return None
        states.append(state)
    return Trace(states=states, labels=list(labels))


class ReplayThenJudge:
    """The replay-then-judge :data:`LabelsOracle`: a candidate must first
    replay through the specification, then ``judge(trace, keep)`` judges
    the replayed trace as a whole; one that no longer replays is rejected
    without being judged.

    It resumes rather than restarts: the model states along the accepted
    sequence are kept, so a candidate replays only ``candidate[keep:]``
    from ``states[keep]``.

    The two phases stay two.  The *whole* candidate replays at the model
    level before the judge sees any of it, although the judge usually
    stops early (a conformance replay ends at the step its finding fires
    at): merging the phases into one lockstep pass would accept
    candidates whose tail after that step is model-disabled, and the
    minimized traces would no longer be model traces.
    """

    def __init__(
        self,
        spec: Specification,
        initial: State,
        judge: Callable[[Trace, int], bool],
    ):
        self.spec = spec
        self.judge = judge
        #: The accepted sequence's replay (just the initial state until
        #: the first candidate is accepted).
        self.accepted = Trace(states=[initial], labels=[])

    def __call__(self, labels: List[ActionLabel], keep: int) -> bool:
        candidate = replay_labels(self.spec, labels, self.accepted.states, keep)
        if candidate is None or not self.judge(candidate, keep):
            return False
        self.accepted = candidate
        return True
