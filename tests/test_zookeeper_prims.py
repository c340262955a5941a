"""Unit and property tests for the model primitives."""

from hypothesis import given, strategies as st

from conftest import txn, zk_state
from repro.tla.values import Rec, Zxid, ZXID_ZERO
from repro.zookeeper import constants as C
from repro.zookeeper import prims as P


class TestNetwork:
    def test_send_appends_fifo(self):
        state = zk_state()
        msgs = P.send(state["msgs"], 0, 1, Rec(mtype="A"), Rec(mtype="B"))
        assert [m.mtype for m in msgs[0][1]] == ["A", "B"]

    def test_peek_and_pop(self):
        state = zk_state()
        msgs = P.send(state["msgs"], 0, 1, Rec(mtype="A"), Rec(mtype="B"))
        state = state.set(msgs=msgs)
        assert P.peek(state, 0, 1).mtype == "A"
        state = state.set(msgs=P.pop(state["msgs"], 0, 1))
        assert P.peek(state, 0, 1).mtype == "B"

    def test_peek_empty(self):
        assert P.peek(zk_state(), 0, 1) is None

    def test_connected_requires_both_up(self):
        state = zk_state(state=(C.DOWN, C.LOOKING, C.LOOKING))
        assert not P.connected(state, 0, 1)
        assert P.connected(state, 1, 2)

    def test_connected_respects_partition(self):
        state = zk_state(disconnected=frozenset({frozenset({0, 1})}))
        assert not P.connected(state, 0, 1)
        assert P.connected(state, 0, 2)

    def test_send_if_connected_drops(self):
        state = zk_state(disconnected=frozenset({frozenset({0, 1})}))
        msgs = P.send_if_connected(state, state["msgs"], 0, 1, Rec(mtype="A"))
        assert msgs[0][1] == ()

    def test_clear_channels(self):
        state = zk_state()
        msgs = P.send(state["msgs"], 0, 1, Rec(mtype="A"))
        msgs = P.send(msgs, 1, 0, Rec(mtype="B"))
        msgs = P.send(msgs, 1, 2, Rec(mtype="C"))
        cleared = P.clear_channels(msgs, 0)
        assert cleared[0][1] == () and cleared[1][0] == ()
        assert cleared[1][2][0].mtype == "C"

    def test_clear_pair(self):
        state = zk_state()
        msgs = P.send(state["msgs"], 0, 1, Rec(mtype="A"))
        msgs = P.send(msgs, 1, 0, Rec(mtype="B"))
        cleared = P.clear_pair(msgs, 0, 1)
        assert cleared[0][1] == () and cleared[1][0] == ()

    def test_rotate_head_moves_the_head_behind_the_rest(self):
        state = zk_state()
        msgs = P.send(state["msgs"], 0, 1, Rec(mtype="A"), Rec(mtype="B"), Rec(mtype="C"))
        msgs = P.send(msgs, 1, 0, Rec(mtype="D"))
        rotated = P.rotate_head(msgs, 0, 1)
        assert [m.mtype for m in rotated[0][1]] == ["B", "C", "A"]
        assert rotated[1] == msgs[1] and rotated[0][2] == msgs[0][2]

    def test_duplicate_head_appends_a_copy(self):
        state = zk_state()
        msgs = P.send(state["msgs"], 2, 0, Rec(mtype="A"), Rec(mtype="B"))
        msgs = P.send(msgs, 0, 2, Rec(mtype="C"))
        duplicated = P.duplicate_head(msgs, 2, 0)
        assert [m.mtype for m in duplicated[2][0]] == ["A", "B", "A"]
        assert duplicated[0] == msgs[0] and duplicated[2][1] == msgs[2][1]


class TestVotes:
    def test_epoch_dominates_zxid(self):
        state = zk_state(
            current_epoch=(2, 1, 1),
            history=((), (txn(1, 1),), ()),
        )
        # server 0 has a higher epoch but an empty history: it wins.
        assert P.vote_of(state, 0) > P.vote_of(state, 1)

    def test_zxid_breaks_epoch_ties(self):
        state = zk_state(history=((), (txn(1, 1),), ()))
        assert P.vote_of(state, 1) > P.vote_of(state, 0)

    def test_sid_breaks_full_ties(self):
        state = zk_state()
        assert P.vote_of(state, 2) > P.vote_of(state, 1) > P.vote_of(state, 0)


class TestCommitGhosts:
    def test_advance_commit_updates_all_ghosts(self):
        t = txn(1, 1)
        state = zk_state(history=((t,), (), ()))
        updates = P.advance_commit(state, 0, 1)
        assert updates["last_committed"][0] == 1
        assert updates["g_delivered"][0] == (t,)
        assert updates["g_committed"] == (t,)

    def test_advance_commit_noop(self):
        state = zk_state()
        assert P.advance_commit(state, 0, 0) == {}

    def test_advance_commit_bounded_by_history(self):
        t = txn(1, 1)
        state = zk_state(history=((t,), (), ()))
        updates = P.advance_commit(state, 0, 99)
        assert updates["last_committed"][0] == 1

    def test_deliver_deduplicates(self):
        t = txn(1, 1)
        delivered = ((t,), (), ())
        assert P.deliver(delivered, 0, (t,)) is delivered

    def test_commit_globally_deduplicates_but_appends_new(self):
        t1, t2 = txn(1, 1), txn(1, 2)
        assert P.commit_globally((t1,), (t1, t2)) == (t1, t2)


class TestErrors:
    def test_raise_error_records_bug_id(self):
        state = zk_state()
        updates = P.raise_error(state, C.ERR_COMMIT_UNMATCHED_IN_SYNC, 1)
        (err,) = updates["errors"]
        assert err.bug == "ZK-4394" and err.server == 1

    def test_has_error(self):
        state = zk_state()
        state = state.set(**P.raise_error(state, C.ERR_PROPOSAL_GAP, 0))
        assert P.has_error(state, C.ERR_PROPOSAL_GAP)
        assert not P.has_error(state, C.ERR_COMMIT_UNKNOWN_TXN)


class TestHistoryUtils:
    def test_index_of_zxid(self):
        history = (txn(1, 1), txn(1, 2))
        assert P.index_of_zxid(history, Zxid(1, 2)) == 1
        assert P.index_of_zxid(history, Zxid(9, 9)) == -1

    def test_next_zxid_fresh_epoch(self):
        state = zk_state(current_epoch=(2, 0, 0), history=((txn(1, 5),), (), ()))
        assert P.next_zxid(state, 0) == Zxid(2, 1)

    def test_next_zxid_continues_counter(self):
        state = zk_state(
            current_epoch=(1, 0, 0), history=((txn(1, 1), txn(1, 2)), (), ())
        )
        assert P.next_zxid(state, 0) == Zxid(1, 3)

    def test_is_learner(self):
        state = zk_state(
            ackepoch_recv=(frozenset({(1, 0, ZXID_ZERO)}), frozenset(), frozenset())
        )
        assert P.is_learner(state, 0, 1)
        assert not P.is_learner(state, 0, 2)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6))
def test_fifo_order_preserved(payloads):
    state = zk_state()
    msgs = state["msgs"]
    for p in payloads:
        msgs = P.send(msgs, 0, 1, Rec(mtype="M", value=p))
    received = []
    state = state.set(msgs=msgs)
    while P.peek(state, 0, 1) is not None:
        received.append(P.peek(state, 0, 1).value)
        state = state.set(msgs=P.pop(state["msgs"], 0, 1))
    assert received == payloads


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 5)).map(
            lambda pair: txn(pair[0], pair[1])
        ),
        max_size=6,
    ),
    st.integers(0, 8),
)
def test_advance_commit_monotone_and_prefix(history, target):
    history = tuple(dict.fromkeys(history))  # unique txns
    state = zk_state(history=(history, (), ()))
    updates = P.advance_commit(state, 0, target)
    if updates:
        count = updates["last_committed"][0]
        assert 0 < count <= len(history)
        assert updates["g_delivered"][0] == history[:count]
        assert updates["g_committed"] == history[:count]
