"""`Verdict`, the record every check returns: a named tuple of its fields."""

import pickle

import pytest

from covlat import BaseSet, Verdict


def verdicts():
    base = BaseSet(["a", "b"])
    return [
        Verdict.ok(4),
        Verdict.fail({"carrier": base.subset(["b"])}, 2),
        Verdict.fail({"element": "a"}, 1),
    ]


@pytest.mark.parametrize("verdict", verdicts(), ids=["ok", "subset-witness", "name-witness"])
def test_fields_cannot_be_assigned_or_deleted(verdict):
    for field in ("passed", "witness", "checked", "other"):
        with pytest.raises(AttributeError):
            setattr(verdict, field, None)
    with pytest.raises(AttributeError):
        del verdict.passed


@pytest.mark.parametrize("verdict", verdicts(), ids=["ok", "subset-witness", "name-witness"])
def test_pickle_round_trip(verdict):
    again = pickle.loads(pickle.dumps(verdict))
    assert type(again) is Verdict and again == verdict
    assert again.to_json() == verdict.to_json()


def test_repr_names_the_fields():
    assert repr(Verdict.ok(3)) == "Verdict(passed=True, witness=None, checked=3)"
    assert repr(Verdict.fail({"element": "a"}, 1)) == (
        "Verdict(passed=False, witness={'element': 'a'}, checked=1)"
    )


def test_equality_and_hash_follow_the_fields():
    assert Verdict.ok(3) == Verdict(True, None, 3) != Verdict.ok(4)
    assert hash(Verdict.ok(3)) == hash(Verdict(True, None, 3)) == hash((True, None, 3))
    assert len({Verdict.ok(3), Verdict.ok(3), Verdict.ok(4)}) == 2
    # a named tuple: it also equals a plain tuple of its fields
    assert Verdict.ok(3) == (True, None, 3)
    with pytest.raises(TypeError):
        hash(Verdict.fail({"element": "a"}, 1))  # a dict witness is unhashable
