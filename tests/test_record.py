import dataclasses

import pytest
from hypothesis import given, strategies as st

import oracles
from localix import dsl
from localix._record import Record
from localix.budgets import DEFAULT_BUDGETS, Budgets
from localix.errors import LocalixError
from localix.presented import Presentation, SpecModel, var
from localix.pruning import Relation
from localix.sequent import Derivation, ProofResult, Sequent, nvar
from localix.sequent import var as svar

# each record class, its dataclass twin, and a strategy for the arguments
# of a constructor call; small ranges, so that drawn pairs are often equal
# and some draws are refused
_names = st.sampled_from("abc")
_pres_terms = st.one_of(_names.map(var), st.sampled_from([("top",), ("bot",), ("not", var("a"))]))
_seq_terms = st.one_of(_names.map(svar), _names.map(nvar), st.just("a"))
CASES = {
    "Budgets": (
        Budgets,
        oracles.BudgetsTwin,
        st.tuples(*[st.integers(0, 2)] * 6, st.booleans()),
    ),
    "Presentation": (
        Presentation,
        oracles.PresentationTwin,
        st.tuples(
            st.lists(_names, max_size=3).map(tuple),
            st.lists(st.tuples(_pres_terms, _pres_terms), max_size=2).map(tuple),
            st.sampled_from(["distributive", "boolean", "heyting"]),
        ),
    ),
    "Relation": (
        Relation,
        oracles.RelationTwin,
        st.tuples(
            st.lists(st.integers(0, 2), max_size=3, unique=True).map(tuple),
            st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2),
        ),
    ),
    "Sequent": (
        Sequent,
        oracles.SequentTwin,
        st.tuples(*[st.frozensets(_seq_terms, max_size=2)] * 2),
    ),
}


def built(cls, args):
    """The record, or the message of the error that refused it."""
    try:
        return cls(*args)
    except LocalixError as e:
        return f"{type(e).__name__}: {e}"


@given(st.data())
def test_records_agree_with_their_dataclass_twins(data):
    cls, twin, args = CASES[data.draw(st.sampled_from(sorted(CASES)))]
    pairs = []
    for drawn in (data.draw(args), data.draw(args)):
        rec, tw = built(cls, drawn), built(twin, drawn)
        # a construction refused on one side is refused on both, alike
        assert rec == tw if isinstance(tw, str) else isinstance(rec, cls)
        pairs.append((rec, tw))
    (ra, ta), (rb, tb) = pairs
    if isinstance(ta, str) or isinstance(tb, str):
        return
    assert repr(ra) == repr(ta) and repr(rb) == repr(tb)
    assert (ra == rb) == (ta == tb) and (ra != rb) == (ta != tb)
    if ra == rb:
        assert hash(ra) == hash(rb)
    # hashed as the twin is, so by the fields alone: the same in every
    # process, and set orders with it
    assert hash(ra) == hash(ta) and hash(rb) == hash(tb)
    field = data.draw(st.sampled_from(cls._fields))
    for rec in (ra, ta):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        assert getattr(rec, field) is not None


@given(st.dictionaries(st.sampled_from(Budgets._fields), st.integers(0, 2)))
def test_bumped_is_dataclass_replace(kw):
    assert repr(DEFAULT_BUDGETS.bumped(**kw)) == repr(dataclasses.replace(oracles.BudgetsTwin(), **kw))


def test_bumped_refuses_an_unknown_budget():
    with pytest.raises(TypeError, match="stack"):
        DEFAULT_BUDGETS.bumped(stack=3)
    with pytest.raises(TypeError):
        dataclasses.replace(oracles.BudgetsTwin(), stack=3)


def test_records_are_one_mechanism():
    assert issubclass(dsl._Node, Record)
    for cls in (Budgets, Presentation, SpecModel, Relation, Sequent, Derivation, ProofResult):
        assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls)
    with pytest.raises(AttributeError):
        del DEFAULT_BUDGETS.gens
