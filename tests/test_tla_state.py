"""Unit and property tests for repro.tla.state."""

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


@given(st.dictionaries(st.sampled_from(["x", "y", "z"]), values, min_size=1))
def test_set_many_fingerprint_delta_matches_full_recompute(updates):
    from repro.checker.fingerprint import Fingerprinter, IncrementalFingerprinter

    schema = Schema(("x", "y", "z"))
    state = State.make(schema, x=0, y=1, z="s")
    inc = IncrementalFingerprinter(schema)
    full = Fingerprinter()
    nxt, delta = state.set_many(updates, fingerprinter=inc)
    assert inc.of_state(state) ^ delta == full.of_state(nxt)
    # A delta is an XOR mask: applying it twice round-trips.
    back, delta_back = nxt.set_many(dict(state), fingerprinter=inc)
    assert back == state
    assert delta ^ delta_back == 0


def test_incremental_fingerprinter_successor():
    from repro.checker.fingerprint import Fingerprinter, IncrementalFingerprinter

    schema = Schema(("x", "y", "z"))
    state = State.make(schema, x=0, y=0, z=0)
    inc = IncrementalFingerprinter(schema)
    fp = inc.of_state(state)
    nxt, nfp = inc.successor(fp, state, {"y": 7})
    assert nxt.y == 7
    assert nfp == Fingerprinter().of_state(nxt)


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
