"""Properties shared by the sparse algebra types.

NCF, TensorNCF, QSF, SymF, BetaNCF and SparsePoly share the ``Terms`` core.
All six must sum in one pass exactly as a chain of ``+`` does, hash
consistently with ``==``, refuse mutation, and the four rendered types must
survive a JSON round trip. Results built by the trusted constructor (ring
products, sums, negations, scalar multiples) must be exactly what the
validating constructor would build from the same terms, and every stored
coefficient is in canonical form: an int, or a Fraction that is not an
integer.
"""

import json
import operator
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricnet import render
from toricnet.exactcore import SparsePoly
from toricnet.hopfdiff import BetaNCF
from toricnet.ncsf import NCF, QSF, SymF, TensorNCF, sym_convert

coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
words = st.lists(st.integers(1, 3), max_size=3).map(tuple)
partitions = st.lists(st.integers(1, 3), max_size=2).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)
bases = st.sampled_from(("e", "h", "p", "m", "s"))


def _terms(keys):
    return st.dictionaries(keys, coeffs, max_size=4)


ncfs = _terms(words).map(NCF)
tensors = _terms(st.tuples(words, words)).map(TensorNCF)
qsfs = _terms(words).map(QSF)
syms = st.builds(SymF, bases, _terms(partitions))
betas = _terms(st.tuples(st.integers(0, 2), words)).map(BetaNCF)
polys = _terms(st.tuples(*[st.integers(0, 2)] * 3)).map(
    lambda terms: SparsePoly.sum(
        SparsePoly.monomial(dict(zip("xyz", e)), c) for e, c in terms.items()
    )
)

ALGEBRAS = {
    "NCF": (ncfs, NCF.zero()),
    "TensorNCF": (tensors, TensorNCF.zero()),
    "QSF": (qsfs, QSF.zero()),
    "SymF": (syms, SymF.zero()),
    "BetaNCF": (betas, BetaNCF.zero()),
    "SparsePoly": (polys, SparsePoly.zero()),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_sum_equals_chained_add(name, data):
    elements, zero = ALGEBRAS[name]
    xs = data.draw(st.lists(elements, max_size=5))
    total = type(zero).sum(xs)
    assert total == reduce(operator.add, xs, zero)
    assert type(zero).sum(iter(xs)) == total


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_difference_with_itself_is_zero(name, data):
    elements, zero = ALGEBRAS[name]
    x = data.draw(elements)
    assert x - x == 0
    assert not (x - x)
    assert x - x == zero


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_equal_elements_hash_equal(name, data):
    elements, zero = ALGEBRAS[name]
    x = data.draw(elements)
    y = data.draw(elements)
    rebuilt = (x + y) - y
    assert rebuilt == x
    assert hash(rebuilt) == hash(x)
    if name == "SymF":
        other = sym_convert(x, data.draw(bases))
        assert other == x
        assert hash(other) == hash(x)


# Products checked against a plain-dict bilinear expansion: each pair of
# terms multiplies its coefficients into the combined key.
PRODUCT_KEYS = {
    "NCF": (words, NCF, lambda a, b: a + b),
    "TensorNCF": (st.tuples(words, words), TensorNCF, lambda a, b: (a[0] + b[0], a[1] + b[1])),
    "BetaNCF": (
        st.tuples(st.integers(0, 2), words),
        BetaNCF,
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
    ),
    "SymF": (partitions, None, lambda a, b: tuple(sorted(a + b, reverse=True))),
}


def _bilinear(x_terms: dict, y_terms: dict, key_mul) -> dict:
    out = {}
    for a, ca in x_terms.items():
        for b, cb in y_terms.items():
            key = key_mul(a, b)
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(PRODUCT_KEYS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_product_equals_bilinear_expansion(name, data):
    keys, cls, key_mul = PRODUCT_KEYS[name]
    x_terms = data.draw(_terms(keys))
    y_terms = data.draw(_terms(keys))
    if cls is None:
        basis = data.draw(st.sampled_from(("e", "h", "p")))
        product = SymF(basis, x_terms) * SymF(basis, y_terms)
        assert product.basis == basis
    else:
        product = cls(x_terms) * cls(y_terms)
    assert product.terms == _bilinear(x_terms, y_terms, key_mul)


def _from_terms_json(cls, payload, *basis):
    return cls(*basis, {tuple(t["index"]): Fraction(t["coeff"]) for t in payload["terms"]})


ROUND_TRIPS = {
    "NCF": (ncfs, render.ncf_json, lambda p: _from_terms_json(NCF, p)),
    "QSF": (qsfs, render.qsf_json, lambda p: _from_terms_json(QSF, p)),
    "SymF": (syms, render.sym_json, lambda p: _from_terms_json(SymF, p, p["basis"])),
    "TensorNCF": (
        tensors,
        render.tensor_json,
        lambda p: TensorNCF(
            {(tuple(t["left"]), tuple(t["right"])): Fraction(t["coeff"]) for t in p["terms"]}
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_json_round_trip(name, data):
    elements, to_json, from_json = ROUND_TRIPS[name]
    x = data.draw(elements)
    text = json.dumps(to_json(x), sort_keys=True)
    back = from_json(json.loads(text))
    assert back == x
    assert json.dumps(to_json(back), sort_keys=True) == text


@pytest.mark.parametrize(
    "element",
    [
        NCF.gen(1),
        TensorNCF.one(),
        QSF.monomial((1, 2)),
        SymF.gen("h", 2),
        BetaNCF.one(),
        SparsePoly.variable("x"),
    ],
    ids=lambda x: type(x).__name__,
)
def test_terms_cannot_be_reassigned(element):
    with pytest.raises(AttributeError):
        element.terms = {}


@pytest.mark.parametrize("key", [(-1, (1,)), (0, (0, 2)), ((1,), 0)])
def test_beta_keys_are_checked(key):
    with pytest.raises((ValueError, TypeError)):
        BetaNCF({key: 1})


def _canonical(c) -> bool:
    """An int, or a Fraction that is not an integer: the stored coefficient form."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _revalidated(x):
    """x rebuilt from its terms through the validating public constructor."""
    if isinstance(x, SymF):
        return SymF(x.basis, x.terms)
    return type(x)(x.terms)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_trusted_results_survive_revalidation(name, data):
    elements, zero = ALGEBRAS[name]
    if name == "SymF":
        # keep products of mixed bases under DEGREE_CAP
        elements = st.builds(SymF, bases, _terms(partitions.filter(lambda lam: sum(lam) <= 4)))
    x = data.draw(elements)
    y = data.draw(elements)
    scalar = data.draw(st.one_of(st.integers(-2, 2), coeffs))
    results = [x * y, y * x, x + y, x - y, type(zero).sum([x, y, -x]), -x, x * scalar, scalar * x]
    for result in results:
        assert type(result) is type(x)
        assert all(c != 0 for c in result.terms.values())
        assert all(_canonical(c) for c in result.terms.values())
        assert _revalidated(result).terms == result.terms
    if name == "SymF":
        # a SymF result is in the basis of its left operand
        assert [r.basis for r in results] == [x.basis, y.basis] + [x.basis] * 6


# The canonical-form oracle: keys and their products as plain data, and
# coefficients as plain-dict Fraction arithmetic. A key product is a dict
# key -> multiplicity (the quasi-shuffle has several terms).


def _stuffles(a: tuple, b: tuple) -> dict:
    """M_a * M_b by placement: a's and b's parts go, in order, to index sets
    that cover 1..L; parts placed at one index add."""
    out: dict = {}
    for length in range(max(len(a), len(b)), len(a) + len(b) + 1):
        for sa in combinations(range(length), len(a)):
            rest = [i for i in range(length) if i not in sa]
            for extra in combinations(sa, len(b) - len(rest)):
                sb = sorted(rest + list(extra))
                comp = [0] * length
                for i, part in zip(sa, a):
                    comp[i] += part
                for i, part in zip(sb, b):
                    comp[i] += part
                key = tuple(comp)
                out[key] = out.get(key, 0) + 1
    return out


def _monomial_product(a: tuple, b: tuple) -> dict:
    powers = Counter(dict(a))
    powers.update(dict(b))
    return {tuple(sorted(powers.items())): 1}


monomials = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda e: tuple((name, p) for name, p in zip("xyz", e) if p)
)

CANONICAL = {
    "NCF": (words, NCF, lambda a, b: {a + b: 1}),
    "TensorNCF": (st.tuples(words, words), TensorNCF, lambda a, b: {(a[0] + b[0], a[1] + b[1]): 1}),
    "QSF": (words, QSF, _stuffles),
    "SymF": (partitions, None, lambda a, b: {tuple(sorted(a + b, reverse=True)): 1}),
    "BetaNCF": (
        st.tuples(st.integers(0, 2), words),
        BetaNCF,
        lambda a, b: {(a[0] + b[0], a[1] + b[1]): 1},
    ),
    "SparsePoly": (monomials, SparsePoly, _monomial_product),
}


def _oracle_linear(*scaled_terms) -> dict:
    """sum of c * terms over (c, terms) pairs, in Fractions, zeros dropped."""
    out: dict = {}
    for scale, terms in scaled_terms:
        for k, c in terms.items():
            out[k] = out.get(k, Fraction(0)) + Fraction(scale) * Fraction(c)
    return {k: c for k, c in out.items() if c}


def _oracle_product(x_terms: dict, y_terms: dict, key_mul) -> dict:
    out: dict = {}
    for a, ca in x_terms.items():
        for b, cb in y_terms.items():
            for k, mult in key_mul(a, b).items():
                out[k] = out.get(k, Fraction(0)) + Fraction(ca) * Fraction(cb) * mult
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(CANONICAL))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_coefficients_are_canonical(name, data):
    keys, cls, key_mul = CANONICAL[name]
    if cls is None:
        cls = partial(SymF, data.draw(st.sampled_from(("e", "h", "p"))))
    x_terms = data.draw(_terms(keys))
    y_terms = data.draw(_terms(keys))
    k = data.draw(st.integers(1, 6))
    x, y = cls(x_terms), cls(y_terms)
    x_terms, y_terms = dict(x.terms), dict(y.terms)  # keys in canonical form
    scaled = x * Fraction(1, k)
    checks = [
        (x + y, _oracle_linear((1, x_terms), (1, y_terms))),
        (x - y, _oracle_linear((1, x_terms), (-1, y_terms))),
        (-x, _oracle_linear((-1, x_terms))),
        (x * y, _oracle_product(x_terms, y_terms, key_mul)),
        (scaled, _oracle_linear((Fraction(1, k), x_terms))),
        (scaled * k, _oracle_linear((1, x_terms))),
        (k * scaled, _oracle_linear((1, x_terms))),
        (type(x).sum([x, y, scaled]), _oracle_linear((1 + Fraction(1, k), x_terms), (1, y_terms))),
    ]
    for result, expected in checks:
        assert all(_canonical(c) for c in result.terms.values())
        assert result.terms == expected
    # halving and doubling an integral element gives back ints
    integral = x * 6  # every drawn denominator divides 6
    assert all(type(c) is int for c in integral.terms.values())
    round_trip = integral * Fraction(1, 2) * 2
    assert round_trip == integral
    assert all(type(c) is int for c in round_trip.terms.values())


@pytest.mark.parametrize(
    "cls, items",
    [
        (NCF, [NCF.gen(1), QSF.monomial((1,))]),
        (NCF, [QSF.monomial((1,)), NCF.gen(1)]),
        (QSF, [QSF.monomial((1,)), SparsePoly.variable("x")]),
        (SparsePoly, [SparsePoly.variable("x"), BetaNCF.one()]),
        (SymF, [SymF.gen("h", 1), TensorNCF.one()]),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_mixed_class_sum_is_refused(cls, items):
    with pytest.raises(TypeError):
        cls.sum(items)


@pytest.mark.parametrize(
    "helper",
    [
        partial(NCF.word, (1,)),
        partial(QSF.monomial, (1,)),
        partial(SymF.gen, "e", 1),
        partial(SymF.gen, "h", 0),
        partial(SymF.element, "p", (2, 1)),
    ],
    ids=["NCF.word", "QSF.monomial", "SymF.gen", "SymF.gen-0", "SymF.element"],
)
def test_single_term_helpers_validate_the_coefficient(helper):
    # a float is refused as the validating constructor refuses it, not taken
    # at its binary value
    with pytest.raises(TypeError):
        helper(0.1)
    assert list(helper(3).terms.values()) == [3]
    assert list(helper(Fraction(1, 3)).terms.values()) == [Fraction(1, 3)]
