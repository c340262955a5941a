"""Unit and property tests for repro.tla.values."""

import copy
import operator
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker.fingerprint import Fingerprinter, canonical_bytes
from repro.tla.values import (
    Rec,
    Txn,
    Zxid,
    ZXID_ZERO,
    comparable,
    is_prefix,
    last_zxid,
    seq,
    seq_append,
    seq_concat,
    seq_head,
    seq_tail,
    updated,
)


class TestRec:
    def test_attribute_access(self):
        record = Rec(mtype="ACK", zxid=Zxid(1, 2))
        assert record.mtype == "ACK"
        assert record.zxid == Zxid(1, 2)

    def test_item_access(self):
        record = Rec(a=1)
        assert record["a"] == 1
        with pytest.raises(KeyError):
            record["b"]

    def test_missing_attribute(self):
        with pytest.raises(AttributeError):
            Rec(a=1).b

    def test_immutable(self):
        record = Rec(a=1)
        with pytest.raises(TypeError):
            record.a = 2

    def test_equality_is_field_order_independent(self):
        assert Rec(a=1, b=2) == Rec(b=2, a=1)

    def test_hash_consistent_with_equality(self):
        assert hash(Rec(a=1, b=2)) == hash(Rec(b=2, a=1))

    def test_inequality(self):
        assert Rec(a=1) != Rec(a=2)
        assert Rec(a=1) != Rec(a=1, b=2)

    def test_replace_creates_new_record(self):
        record = Rec(a=1, b=2)
        other = record.replace(a=3)
        assert other.a == 3 and other.b == 2
        assert record.a == 1

    def test_replace_can_add_fields(self):
        assert Rec(a=1).replace(b=2).b == 2

    def test_mapping_protocol(self):
        record = Rec(a=1, b=2)
        assert set(record) == {"a", "b"}
        assert len(record) == 2
        assert dict(record) == {"a": 1, "b": 2}

    def test_fields(self):
        assert Rec(b=1, a=2).fields() == ("a", "b")

    def test_repr_roundtrips_fields(self):
        assert "mtype='ACK'" in repr(Rec(mtype="ACK"))

    def test_usable_in_sets(self):
        assert len({Rec(a=1), Rec(a=1), Rec(a=2)}) == 2


class TestZxid:
    def test_total_order_epoch_first(self):
        assert Zxid(2, 1) > Zxid(1, 99)

    def test_total_order_counter_second(self):
        assert Zxid(1, 2) > Zxid(1, 1)

    def test_zero(self):
        assert ZXID_ZERO == Zxid(0, 0)
        assert ZXID_ZERO < Zxid(0, 1)

    def test_repr(self):
        assert repr(Zxid(1, 2)) == "<1,2>"


class TestSequences:
    def test_seq(self):
        assert seq(1, 2, 3) == (1, 2, 3)

    def test_append(self):
        assert seq_append((1,), 2) == (1, 2)

    def test_concat(self):
        assert seq_concat((1,), [2, 3]) == (1, 2, 3)

    def test_head_tail(self):
        assert seq_head((1, 2)) == 1
        assert seq_tail((1, 2)) == (2,)

    def test_head_of_empty_raises(self):
        with pytest.raises(IndexError):
            seq_head(())

    def test_updated(self):
        assert updated((1, 2, 3), 1, 9) == (1, 9, 3)

    def test_last_zxid_empty(self):
        assert last_zxid(()) == ZXID_ZERO

    def test_last_zxid(self):
        history = (Txn(Zxid(1, 1), 1), Txn(Zxid(1, 2), 2))
        assert last_zxid(history) == Zxid(1, 2)


class TestPrefix:
    def test_empty_is_prefix_of_all(self):
        assert is_prefix((), (1, 2))

    def test_proper_prefix(self):
        assert is_prefix((1,), (1, 2))
        assert not is_prefix((2,), (1, 2))

    def test_equal_sequences(self):
        assert is_prefix((1, 2), (1, 2))

    def test_longer_is_not_prefix(self):
        assert not is_prefix((1, 2, 3), (1, 2))

    def test_comparable(self):
        assert comparable((1,), (1, 2))
        assert comparable((1, 2), (1,))
        assert not comparable((1, 3), (1, 2))


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8))
def test_prefix_iff_slice(left, right):
    left, right = tuple(left), tuple(right)
    assert is_prefix(left, right) == (right[: len(left)] == left)


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=4))
def test_extension_preserves_prefix(base, extra):
    base, extra = tuple(base), tuple(extra)
    assert is_prefix(base, base + extra)


@given(
    st.lists(st.integers(), max_size=6),
    st.lists(st.integers(), max_size=6),
    st.lists(st.integers(), max_size=6),
)
def test_prefix_transitive(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    if is_prefix(a, b) and is_prefix(b, c):
        assert is_prefix(a, c)


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8))
def test_comparable_symmetric(left, right):
    assert comparable(tuple(left), tuple(right)) == comparable(
        tuple(right), tuple(left)
    )


# --- the value-layer contract ---------------------------------------------
#
# Rec's representation is private; what the rest of the program sees is
# pinned here: canonical bytes and fingerprints, equality with neighbouring
# types, immutability, copying and the Mapping face.

#: value -> (canonical bytes of ``(value,)``, 64-bit fingerprint of it).
PINNED = [
    pytest.param(Rec(), b"t1;r0;", "46821ad10ad082ce", id="rec-empty"),
    pytest.param(Rec(a=1), b"t1;r1;s1;ai1;", "910cbfd72ce937be", id="rec"),
    pytest.param(
        Rec(mtype="ACK", zxid=Zxid(1, 2), sid=1),
        b"t1;r3;s5;mtypes3;ACKs3;sidi1;s4;zxidt2;i1;i2;",
        "e93e3cd9455c4e98",
        id="rec-with-zxid",
    ),
    pytest.param(
        Rec(vote=Rec(epoch=1, zxid=ZXID_ZERO, sid=2), round=3),
        b"t1;r2;s5;roundi3;s4;voter3;s5;epochi1;s3;sidi2;s4;zxidt2;i0;i0;",
        "7196d782ce34bcf4",
        id="rec-nested",
    ),
    pytest.param(
        Rec(not_committed=(Txn(Zxid(1, 1), 1),), committed=(Zxid(1, 1),), mode="DIFF"),
        b"t1;r3;s9;committedt1;t2;i1;i1;s4;modes4;DIFFs13;not_committedt1;t2;t2;i1;i1;i1;",
        "e7bbc5851b15c43e",
        id="rec-with-tuples",
    ),
    pytest.param(
        (Rec(a=1), Rec(b=2), Rec(mtype="COMMIT", zxid=Zxid(2, 1))),
        b"t1;t3;r1;s1;ai1;r1;s1;bi2;r2;s5;mtypes6;COMMITs4;zxidt2;i2;i1;",
        "4308a636b0834974",
        id="tuple-of-recs",
    ),
    pytest.param(
        frozenset({Rec(a=1), Rec(a=2), Rec(b=(1, 2))}),
        b"t1;f3;r1;s1;ai1;r1;s1;ai2;r1;s1;bt2;i1;i2;",
        "c6870312bb41ce52",
        id="frozenset-of-recs",
    ),
    pytest.param(Zxid(3, 4), b"t1;t2;i3;i4;", "b104396fd49350cd", id="zxid"),
    pytest.param(
        Txn(Zxid(1, 2), 7), b"t1;t2;t2;i1;i2;i7;", "7be718d91eb6b19b", id="txn"
    ),
]


@pytest.mark.parametrize("value, raw, fp", PINNED)
def test_canonical_bytes_and_fingerprint_are_pinned(value, raw, fp):
    assert canonical_bytes((value,)) == raw
    assert "%016x" % Fingerprinter().of_values((value,)) == fp


SAMPLES = [Rec(), Rec(a=1), Rec(mtype="ACK", zxid=Zxid(1, 2), sid=1)]


@pytest.mark.parametrize("rec", SAMPLES, ids=repr)
def test_rec_never_equals_a_plain_tuple(rec):
    for plain in (tuple(rec), tuple(rec.values()), tuple(rec.items())):
        assert not rec == plain and not plain == rec
        assert rec != plain and plain != rec


@pytest.mark.parametrize(
    "mutate",
    [
        lambda rec: setattr(rec, "a", 2),
        lambda rec: setattr(rec, "z", 2),
        lambda rec: operator.setitem(rec, "a", 2),
        lambda rec: operator.delitem(rec, "a"),
    ],
    ids=["setattr", "setattr-new", "setitem", "delitem"],
)
def test_rec_mutators_raise_type_error(mutate):
    rec = Rec(a=1)
    with pytest.raises(TypeError):
        mutate(rec)
    assert rec == Rec(a=1) and rec.a == 1


def test_rec_field_cannot_be_deleted():
    rec = Rec(a=1)
    with pytest.raises((TypeError, AttributeError)):
        del rec.a
    assert rec.a == 1 and dict(rec) == {"a": 1}


@pytest.mark.parametrize("rec", SAMPLES, ids=repr)
def test_rec_pickle_and_copy_round_trip(rec):
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert clone == rec and hash(clone) == hash(rec)
        assert type(clone) is type(rec) and dict(clone) == dict(rec)
        assert canonical_bytes((clone,)) == canonical_bytes((rec,))


def test_rec_mapping_face():
    rec = Rec(zxid=Zxid(1, 2), mtype="ACK", count=3)
    assert rec["mtype"] == "ACK" and rec.count == 3
    assert list(rec) == ["count", "mtype", "zxid"]
    assert dict(rec) == {"count": 3, "mtype": "ACK", "zxid": Zxid(1, 2)}
    assert len(rec) == 3 and len(Rec()) == 0 and not Rec()
    assert "mtype" in rec and "sid" not in rec and 1 not in rec
    assert rec.get("sid", 0) == 0 and rec.get("mtype") == "ACK"
    assert list(rec.keys()) == ["count", "mtype", "zxid"]
    assert list(rec.values()) == [3, "ACK", Zxid(1, 2)]
    assert repr(rec) == "Rec(count=3, mtype='ACK', zxid=<1,2>)"
    with pytest.raises(KeyError):
        rec["sid"]


@pytest.mark.parametrize(
    "name, legal",
    [
        ("count", True),
        ("index", True),
        ("mtype", True),
        ("_x", False),
        ("_items", False),
        ("__class__", False),
        ("get", False),
        ("items", False),
        ("keys", False),
        ("values", False),
        ("replace", False),
        ("fields", False),
    ],
)
def test_rec_field_names_that_shadow_the_api_are_refused(name, legal):
    if legal:
        rec = Rec(**{name: 7})
        assert getattr(rec, name) == 7 and rec[name] == 7
        assert rec.replace(**{name: 8})[name] == 8
    else:
        with pytest.raises(ValueError, match=repr(name)):
            Rec(**{name: 7})
        with pytest.raises(ValueError, match=repr(name)):
            Rec(a=1).replace(**{name: 7})


fields = st.dictionaries(
    st.sampled_from(["a", "b", "mtype", "zxid", "sid", "count"]),
    st.one_of(st.integers(-3, 3), st.text(max_size=2), st.tuples(st.integers(0, 2))),
    max_size=6,
)


@settings(deadline=None)
@given(fields, st.randoms(use_true_random=False))
def test_rec_keyword_order_is_irrelevant(d, rnd):
    names = list(d)
    rnd.shuffle(names)
    one, two = Rec(**d), Rec(**{name: d[name] for name in names})
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert canonical_bytes((one,)) == canonical_bytes((two,))
    assert list(one) == list(two) == sorted(d)
