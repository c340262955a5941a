"""Unit and property tests for repro.tla.state."""

import copy
import hashlib
import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.tla.state import Schema, State


@pytest.fixture
def schema():
    return Schema(("x", "y", "z"))


class TestSchema:
    def test_index(self, schema):
        assert schema.index("y") == 1

    def test_contains(self, schema):
        assert "x" in schema
        assert "w" not in schema

    def test_len(self, schema):
        assert len(schema) == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(("a", "a"))


class TestState:
    def test_make_and_access(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        assert state.x == 1
        assert state["y"] == 2

    def test_make_missing_variable(self, schema):
        with pytest.raises(ValueError, match="missing"):
            State.make(schema, x=1, y=2)

    def test_make_unknown_variable(self, schema):
        with pytest.raises(ValueError, match="unknown"):
            State.make(schema, x=1, y=2, z=3, w=4)

    def test_wrong_value_count(self, schema):
        with pytest.raises(ValueError):
            State(schema, (1, 2))

    def test_immutability(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        with pytest.raises(TypeError):
            state.x = 9

    def test_set_returns_new_state(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        other = state.set(x=9)
        assert other.x == 9 and other.y == 2
        assert state.x == 1

    def test_equality_and_hash(self, schema):
        a = State.make(schema, x=1, y=2, z=3)
        b = State.make(schema, x=1, y=2, z=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a.set(x=2) != a

    def test_mapping_protocol(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        assert list(state) == ["x", "y", "z"]
        assert dict(state) == {"x": 1, "y": 2, "z": 3}

    def test_project_is_canonical(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        assert state.project({"x", "z"}) == (1, 3)
        assert state.project({"z", "x"}) == (1, 3)

    def test_project_ignores_unknown(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        assert state.project({"x", "nope"}) == (1,)

    def test_diff(self, schema):
        a = State.make(schema, x=1, y=2, z=3)
        b = a.set(y=5)
        assert a.diff(b) == {"y": (2, 5)}
        assert a.diff(a) == {}

    def test_attribute_error(self, schema):
        state = State.make(schema, x=1, y=2, z=3)
        with pytest.raises(AttributeError):
            state.nope


values = st.integers(min_value=-5, max_value=5)


@given(values, values, values, values)
def test_set_get_roundtrip(x, y, z, new_x):
    schema = Schema(("x", "y", "z"))
    state = State.make(schema, x=x, y=y, z=z)
    assert state.set(x=new_x).x == new_x
    assert state.set(x=new_x).y == y


@given(values, values, values)
def test_set_noop_preserves_equality(x, y, z):
    schema = Schema(("x", "y", "z"))
    state = State.make(schema, x=x, y=y, z=z)
    assert state.set(x=x) == state
    assert hash(state.set(x=x)) == hash(state)


@given(st.dictionaries(st.sampled_from(["x", "y", "z"]), values, min_size=1))
def test_set_many(updates):
    schema = Schema(("x", "y", "z"))
    state = State.make(schema, x=0, y=0, z=0)
    updated = state.set(**updates)
    for name in schema.names:
        assert updated[name] == updates.get(name, 0)
    assert state.set_many(updates) == updated
    # The name-keyed view and the values tuple never disagree.
    assert dict(updated) == dict(zip(schema.names, updated.values))
    assert dict(state) == {"x": 0, "y": 0, "z": 0}


@given(st.dictionaries(st.sampled_from(["x", "y", "z"]), values, min_size=1))
def test_set_many_fingerprint_delta_matches_full_recompute(updates):
    from repro.checker.fingerprint import Fingerprinter, IncrementalFingerprinter

    schema = Schema(("x", "y", "z"))
    state = State.make(schema, x=0, y=1, z="s")
    inc = IncrementalFingerprinter(schema)
    full = Fingerprinter()
    nxt = state.set_many(updates)
    delta = inc.delta(state.values, updates)
    assert inc.of_values(state.values) ^ delta == full.of_values(nxt.values)
    # A delta is an XOR mask: applying it twice round-trips.
    back = dict(state)
    assert nxt.set_many(back) == state
    assert delta ^ inc.delta(nxt.values, back) == 0


class TestSchemaInterning:
    def test_same_names_same_object(self):
        assert Schema(("p", "q")) is Schema(("p", "q"))

    def test_intern_table_is_weak(self):
        # A schema nothing references anymore must leave the intern
        # table instead of accumulating for the life of the process
        # (long campaign runs compose many throwaway specs).
        import gc

        names = ("only_used_in_this_test_a", "only_used_in_this_test_b")
        Schema(names)
        gc.collect()
        assert names not in Schema._interned
        # ...but stays interned for exactly as long as it is referenced.
        held = Schema(names)
        gc.collect()
        assert Schema._interned[names] is held

    def test_pickled_state_reinterns_schema(self):
        import pickle

        schema = Schema(("r", "s"))
        state = State.make(schema, r=1, s=2)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.schema is schema
        assert clone == state


# --- the value-layer contract ---------------------------------------------


def zookeeper_state():
    """A ZooKeeper state with one Rec message in flight (0 -> 1)."""
    from repro.tla.values import Rec, Txn, Zxid
    from repro.zookeeper.config import ZkConfig
    from repro.zookeeper.schema import initial_state

    msg = Rec(mtype="PROPOSAL", zxid=Zxid(1, 1), txn=Txn(Zxid(1, 1), 1))
    msgs = tuple(
        tuple((msg,) if (i, j) == (0, 1) else () for j in range(3)) for i in range(3)
    )
    return initial_state(ZkConfig()).set(msgs=msgs)


def test_zookeeper_state_bytes_and_fingerprint_are_pinned():
    from repro.checker.fingerprint import Fingerprinter, canonical_bytes

    state = zookeeper_state()
    raw = canonical_bytes((state,))
    assert raw.startswith(b"t1;S;t33;")
    assert len(raw) == 683
    assert hashlib.sha256(raw).hexdigest() == (
        "d1c58407badddcd7ebfa6bd17fd483d200e292642334125846802afb6271bc82"
    )
    assert "%016x" % Fingerprinter().of_values(state.values) == "1be40ef2e61005e3"


def test_state_never_equals_a_plain_dict(schema):
    state = State.make(schema, x=1, y=2, z=3)
    plain = dict(state)
    assert plain == {"x": 1, "y": 2, "z": 3}
    assert not state == plain and not plain == state
    assert state != plain and plain != state


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: setattr(s, "x", 9),
        lambda s: setattr(s, "w", 9),
        lambda s: operator.setitem(s, "x", 9),
        lambda s: operator.delitem(s, "x"),
        lambda s: operator.ior(s, {"x": 9}),
    ],
    ids=["setattr", "setattr-new", "setitem", "delitem", "ior"],
)
def test_state_mutators_raise_type_error(schema, mutate):
    state = State.make(schema, x=1, y=2, z=3)
    with pytest.raises(TypeError):
        mutate(state)
    assert dict(state) == {"x": 1, "y": 2, "z": 3} and state.values == (1, 2, 3)


@pytest.mark.parametrize(
    "name, args",
    [
        ("update", ({"x": 9},)),
        ("pop", ("x",)),
        ("popitem", ()),
        ("clear", ()),
        ("setdefault", ("w", 9)),
    ],
)
def test_state_mutator_methods_raise_type_error(schema, name, args):
    state = State.make(schema, x=1, y=2, z=3)
    method = getattr(state, name, None)
    if method is not None:  # a read-only Mapping simply lacks them
        with pytest.raises(TypeError):
            method(*args)
    assert dict(state) == {"x": 1, "y": 2, "z": 3} and state.values == (1, 2, 3)


def test_state_variable_cannot_be_deleted(schema):
    state = State.make(schema, x=1, y=2, z=3)
    with pytest.raises((TypeError, AttributeError)):
        del state.x
    assert state.x == 1 and state["x"] == 1


def test_state_pickle_and_copy_round_trip(schema):
    state = zookeeper_state()
    for clone in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
        assert clone == state and hash(clone) == hash(state)
        assert type(clone) is State and clone.schema is state.schema
        assert clone.values == state.values and dict(clone) == dict(state)


def test_state_pickle_reduce_is_the_constructor(schema):
    state = State.make(schema, x=1, y=2, z=3)
    assert state.__reduce__() == (State, (schema, (1, 2, 3)))


def test_state_mapping_face(schema):
    state = State.make(schema, z=3, y=2, x=1)
    assert state["y"] == 2 and state.y == 2 and state.values == (1, 2, 3)
    assert list(state) == ["x", "y", "z"] and len(state) == 3
    assert "x" in state and "w" not in state
    assert state.get("w", 0) == 0 and state.get("z") == 3
    assert list(state.items()) == [("x", 1), ("y", 2), ("z", 3)]
    assert repr(state) == "State(x=1, y=2, z=3)"
    with pytest.raises(KeyError):
        state["w"]
