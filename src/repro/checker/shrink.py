"""Counterexample shrinking.

BFS already yields minimal-*depth* traces, but traces produced by random
walks (conformance checking) or DFS carry irrelevant steps.  The shrinker
greedily deletes steps while an *oracle* still accepts the remainder --
the standard delta-debugging loop specialized to action traces.  There
is one loop (:func:`shrink_labels_oracle`); the oracle flavours stack on
top of it:

- a label-sequence oracle (:data:`LabelsOracle`): the oracle owns
  execution, so candidates need not replay at the model level (the
  campaign's bottom-up :class:`~repro.remix.minimize.ValidationOracle`);
- a trace oracle (:data:`TraceOracle`): candidates must first replay
  through the specification, then the oracle judges the replayed trace
  as a whole (the top-down
  :class:`~repro.remix.minimize.ConformanceOracle` re-runs it through
  the code-level coordinator);
- a state predicate (``still_fails``): the shrunk trace must end in a
  state satisfying it (model-invariant violations).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.checker.trace import Trace
from repro.tla.action import ActionLabel
from repro.tla.spec import Specification
from repro.tla.state import State

Predicate = Callable[[State], bool]

#: An oracle judging a *replayed* candidate trace: return True when the
#: candidate still reproduces the failure being minimized.
TraceOracle = Callable[[Trace], bool]


def _try_replay(
    spec: Specification, labels: List[ActionLabel], initial: State
) -> Optional[Trace]:
    """Replay labels from ``initial``; None when some step is disabled."""
    states = [initial]
    for label in labels:
        nxt = spec.instance_for(label).apply(spec.config, states[-1])
        if nxt is None:
            return None
        states.append(nxt)
    return Trace(states=states, labels=list(labels))


#: An oracle judging a candidate *label sequence*.  It owns execution
#: entirely, so a candidate need not be model-replayable -- for the
#: campaign's bottom-up direction, being model-disabled may be exactly
#: the failure under minimization.
LabelsOracle = Callable[[List[ActionLabel]], bool]


def shrink_labels_oracle(
    labels: List[ActionLabel],
    oracle: LabelsOracle,
    max_rounds: int = 10,
) -> List[ActionLabel]:
    """Remove steps from a label sequence while ``oracle`` still accepts
    the remainder (the one delta-debugging loop every shrinker shares).

    Greedy loop: try deleting contiguous chunks (halving the chunk size
    each round), keeping any deletion the oracle accepts.  The result is
    1-minimal with respect to single-step deletion when the loop
    converges.
    """
    labels = list(labels)
    if not oracle(list(labels)):
        raise ValueError("the input does not reproduce the failure")
    for _ in range(max_rounds):
        changed = False
        chunk = max(1, len(labels) // 2)
        while chunk >= 1:
            index = 0
            while index < len(labels):
                candidate = labels[:index] + labels[index + chunk :]
                if oracle(list(candidate)):
                    labels = candidate
                    changed = True
                else:
                    index += chunk
            chunk //= 2
        if not changed:
            break
    return labels


def shrink_trace_oracle(
    spec: Specification,
    trace: Trace,
    oracle: TraceOracle,
    max_rounds: int = 10,
) -> Trace:
    """Remove steps from ``trace`` while ``oracle`` still accepts the
    replayed remainder: :func:`shrink_labels_oracle` under a
    replay-then-judge oracle (a candidate whose labels no longer replay
    from the trace's initial state is rejected without being judged).
    """
    initial = trace.initial

    def reproduces(labels: List[ActionLabel]) -> bool:
        replayed = _try_replay(spec, labels, initial)
        return replayed is not None and oracle(replayed)

    labels = shrink_labels_oracle(trace.labels, reproduces, max_rounds)
    return _try_replay(spec, labels, initial)


def shrink_trace(
    spec: Specification,
    trace: Trace,
    still_fails: Predicate,
    max_rounds: int = 10,
) -> Trace:
    """Remove steps from ``trace`` while its final state still satisfies
    ``still_fails`` (e.g. "violates I-8").

    The input is first truncated at the *first* state satisfying the
    predicate: engine/DFS traces are not always ``stop_when``-truncated
    the way random-walk ones are, and the violating state can sit
    mid-trace rather than at the end.
    """
    truncated = trace.truncated_at(still_fails)
    return shrink_trace_oracle(
        spec, truncated, lambda candidate: still_fails(candidate.final),
        max_rounds=max_rounds,
    )


def violation_predicate(spec: Specification, ident: str) -> Predicate:
    """A ``still_fails`` predicate: some instance of the invariant family
    ``ident`` is violated in the state."""
    invariants = [inv for inv in spec.invariants if inv.ident == ident]
    if not invariants:
        raise KeyError(f"specification has no invariant {ident!r}")

    def predicate(state: State) -> bool:
        return any(not inv.holds(spec.config, state) for inv in invariants)

    return predicate
