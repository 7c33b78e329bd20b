"""The immutable value classes: ``Index``, ``LsiMonomial``, ``MonomialBasis``
and ``MzvRelation``, written out on ``indices._Frozen`` in place of frozen
dataclasses.  Equality, hash, ``repr``, immutability and the validation
errors are those the dataclasses had: a value equals another of its class
with the same fields, hashes as the tuple of its fields, and never equals a
plain tuple."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsizeta.algebra import LsiMonomial, MonomialBasis, build_basis
from lsizeta.indices import Index
from lsizeta.relations import MzvRelation

parts = st.lists(st.integers(1, 4), max_size=4).map(tuple)
columns = st.lists(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
                   max_size=3)
monomial_fields = st.tuples(st.integers(0, 3), columns).map(
    lambda pc: (pc[0], tuple(k for k, _ in pc[1]), tuple(l for _, l in pc[1])))


@given(parts, parts)
def test_index_equality_and_hash_follow_the_parts(a, b):
    assert (Index(a) == Index(b)) == (a == b) and (Index(a) != Index(b)) == (a != b)
    assert hash(Index(a)) == hash((a,))


@given(monomial_fields, monomial_fields)
def test_monomial_equality_and_hash_follow_the_fields(a, b):
    assert (LsiMonomial(*a) == LsiMonomial(*b)) == (a == b)
    assert hash(LsiMonomial(*a)) == hash(a)
    assert LsiMonomial(*a).phase == len(a[1]) + a[0] + sum(a[2])


def test_basis_equality_and_hash_follow_the_fields():
    b = build_basis(5, "odd")
    assert b == MonomialBasis(5, "odd", tuple(b.monomials)) and hash(b) == hash(
        (5, "odd", b.monomials))
    assert b != MonomialBasis(5, "even", b.monomials) and b != build_basis(6, "odd")


def test_values_never_equal_a_plain_tuple():
    assert Index((1, 3)) != (1, 3) and Index((1, 3)) != ((1, 3),)
    assert LsiMonomial(1, (2,), (0,)) != (1, (2,), (0,))
    b = build_basis(3, "odd")
    assert b != (3, "odd", b.monomials)
    assert len({Index((1, 3)), (1, 3), ((1, 3),)}) == 3


@pytest.mark.parametrize("value", [Index((2, 1)), LsiMonomial(1, (3,), (1,)),
                                   build_basis(3, "odd"),
                                   MzvRelation(((Index((3,)), Fraction(1)),))],
                         ids=lambda v: type(v).__name__)
def test_values_are_immutable_and_copy_as_values(value):
    field = type(value)._fields[0]
    for name in (field, "phase", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)


def test_repr():
    assert repr(Index()) == "Index(parts=())"
    assert repr(Index((1, 3))) == "Index(parts=(1, 3))"
    assert repr(LsiMonomial(2, (3, 2), (1, 0))) == "LsiMonomial(pi_pow=2, ks=(3, 2), ls=(1, 0))"
    assert repr(build_basis(2, "even")) == (
        "MonomialBasis(weight=2, parity='even', monomials=(LsiMonomial(pi_pow=2, ks=(), ls=()),))")
    assert repr(MzvRelation(((Index((3,)), Fraction(-2)),))) == (
        "MzvRelation(coefficients=((Index(parts=(3,)), Fraction(-2, 1)),))")


@pytest.mark.parametrize("make, message", [
    (lambda: Index((0, 2)), "index parts must be positive integers: (0, 2)"),
    (lambda: Index(("1",)), "index parts must be positive integers: ('1',)"),
    (lambda: LsiMonomial(-1), "pi power must be nonnegative"),
    (lambda: LsiMonomial(0, (2,), ()), "exponent vectors must have equal length"),
    (lambda: LsiMonomial(0, (2,), (2,)), "invalid exponent pair (k=2, l=2)"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
