"""The frozen value records: equality, hashing, repr, immutability, defaults
and validation, pinned independently of how the records are implemented."""

import pickle
from fractions import Fraction

import pytest

from deltasolve.ode import CharacteristicPolynomial, ExpPoly, ExpPolyTerm
from deltasolve.polynomials import ComplexPolynomial
from deltasolve.spectral import SpectralConfig, SpectralSolution
from deltasolve.zeta import ZetaClosedForm, zeta_even_closed_form

P = ComplexPolynomial([1.0, 2j])
TERM = ExpPolyTerm(1j, ComplexPolynomial([1.0]))

# (record, the same value built by keyword, a different value, its fields)
CASES = [
    (SpectralConfig(5), SpectralConfig(truncation_order=5, include_correction=True),
     SpectralConfig(5, False), (5, True)),
    (SpectralSolution(P, SpectralConfig(3, False)),
     SpectralSolution(polynomial_part=P, config=SpectralConfig(3, False)),
     SpectralSolution(P, SpectralConfig(3)), (P, SpectralConfig(3, False))),
    (ZetaClosedForm(1, Fraction(1, 6), 2),
     ZetaClosedForm(j=1, coefficient=Fraction(1, 6), pi_power=2),
     ZetaClosedForm(1, Fraction(1, 7), 2), (1, Fraction(1, 6), 2)),
    (CharacteristicPolynomial((-1, 0, 1)),
     CharacteristicPolynomial(coefficients=(-1 + 0j, 0j, 1 + 0j)),
     CharacteristicPolynomial((1, 0, 1)), ((-1 + 0j, 0j, 1 + 0j),)),
    (TERM, ExpPolyTerm(exponent=1j, polynomial=ComplexPolynomial([1.0])),
     ExpPolyTerm(2j, ComplexPolynomial([1.0])), (1j, ComplexPolynomial([1.0]))),
    (ExpPoly((TERM,)), ExpPoly(terms=(TERM,)), ExpPoly(), ((TERM,),)),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("record, keyword, other, fields", CASES, ids=IDS)
def test_equality_and_hash_are_by_value(record, keyword, other, fields):
    assert record == keyword
    assert hash(record) == hash(keyword)
    assert record != other
    # The hash is that of the field values taken as a tuple.
    assert hash(record) == hash(fields)
    assert len({record, keyword, other}) == 2


@pytest.mark.parametrize("record, keyword, other, fields", CASES, ids=IDS)
def test_assignment_raises(record, keyword, other, fields):
    with pytest.raises(AttributeError):
        setattr(record, "new_attribute", 1)
    first_field = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, first_field, 1)
    assert record == keyword


def test_reprs():
    assert repr(SpectralConfig(5)) == \
        "SpectralConfig(truncation_order=5, include_correction=True)"
    assert repr(SpectralSolution(P, SpectralConfig(3, False))) == (
        "SpectralSolution(polynomial_part=ComplexPolynomial([(1+0j), 2j]), "
        "config=SpectralConfig(truncation_order=3, include_correction=False))")
    assert repr(zeta_even_closed_form(1)) == \
        "ZetaClosedForm(j=1, coefficient=Fraction(1, 6), pi_power=2)"
    assert repr(CharacteristicPolynomial([-1, 0, 1])) == \
        "CharacteristicPolynomial(coefficients=((-1+0j), 0j, (1+0j)))"
    assert repr(TERM) == \
        "ExpPolyTerm(exponent=1j, polynomial=ComplexPolynomial([(1+0j)]))"
    assert repr(ExpPoly()) == "ExpPoly(terms=())"
    assert repr(ExpPoly.from_terms([(0, ComplexPolynomial([1.0, 2.0]))])) == (
        "ExpPoly(terms=(ExpPolyTerm(exponent=0j, "
        "polynomial=ComplexPolynomial([(1+0j), (2+0j)])),))")


def test_defaults():
    assert ExpPoly().terms == ()
    assert ExpPoly() == ExpPoly.from_terms([])
    config = SpectralConfig(5)
    assert (config.truncation_order, config.include_correction) == (5, True)


def test_validation_messages():
    with pytest.raises(ValueError, match=r"^truncation order must be >= 1$"):
        SpectralConfig(0)
    with pytest.raises(ValueError, match=r"^truncation order must be >= 1$"):
        SpectralConfig(truncation_order=-3, include_correction=False)
    with pytest.raises(ValueError,
                       match=r"^characteristic polynomial needs degree >= 1$"):
        CharacteristicPolynomial((1.0,))
    with pytest.raises(ValueError,
                       match=r"^characteristic polynomial needs degree >= 1$"):
        CharacteristicPolynomial(())
    with pytest.raises(ValueError, match=r"^leading coefficient must be nonzero$"):
        CharacteristicPolynomial([1.0, 2.0, 0.0])


def test_characteristic_coefficients_become_a_complex_tuple():
    poly = CharacteristicPolynomial([1, 2.5, Fraction(1, 2)])
    assert type(poly.coefficients) is tuple
    assert all(type(c) is complex for c in poly.coefficients)
    assert poly.coefficients == (1 + 0j, 2.5 + 0j, 0.5 + 0j)
    assert poly == CharacteristicPolynomial((1, 2.5, 0.5))
    assert poly.degree == 2


@pytest.mark.parametrize("record, keyword, other, fields", CASES, ids=IDS)
def test_pickle_round_trip(record, keyword, other, fields):
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is type(record)
    assert copied == record


def test_replace_validates():
    assert SpectralConfig(5)._replace(truncation_order=7) == SpectralConfig(7)
    with pytest.raises(ValueError, match=r"^truncation order must be >= 1$"):
        SpectralConfig(5)._replace(truncation_order=0)
    poly = CharacteristicPolynomial((1, 1))
    assert poly._replace(coefficients=[2, 1]).coefficients == (2 + 0j, 1 + 0j)
    with pytest.raises(ValueError, match=r"^leading coefficient must be nonzero$"):
        poly._replace(coefficients=(1, 0))
