"""The commutative Hopf algebra of formal diffeomorphisms t(T) = T + t1 T^2 + ...

Elements are polynomials in t_1, t_2, ... over Q (SparsePoly). The coproduct
comes from composing the universal series: (Delta t)(T) = (t (x) 1)((1 (x) t)(T)),
with the right tensor slot written in primed variables t1', t2', ... inside
one commutative polynomial ring. The antipode is compositional inversion.

Weight of t_i (and t_i') is i; every structure map is weight-homogeneous.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import InputError
from ..exactcore import SparsePoly, TruncSeries


def t_series(order: int, prefix: str = "t", primes: int = 0) -> TruncSeries:
    """T + t1 T^2 + ... + t_{order-1} T^order with nameable coefficient slot."""
    mark = "'" * primes
    coeffs = {(1,): SparsePoly.one()}
    for i in range(1, order):
        coeffs[(i + 1,)] = SparsePoly.variable(f"{prefix}{i}{mark}")
    return TruncSeries(SparsePoly, order, 1, coeffs)


def _prime_map(poly: SparsePoly, shift: int) -> SparsePoly:
    """Add ``shift`` primes to every variable of a t-polynomial."""
    return poly.substitute(
        {name: SparsePoly.variable(name + "'" * shift) for name in poly.vars}
    )


@lru_cache(maxsize=None)
def ln_coproduct_gen(i: int) -> SparsePoly:
    """Delta t_i as a polynomial in t_* (left slot) and t_*' (right slot)."""
    if i < 1:
        raise InputError(f"generators are t_1, t_2, ..., got t_{i}")
    outer = t_series(i + 1)
    inner = t_series(i + 1, primes=1)
    return outer.compose(inner).coeff(i + 1)


@lru_cache(maxsize=None)
def ln_antipode_gen(i: int) -> SparsePoly:
    """chi(t_i): the T^(i+1) coefficient of the compositional inverse."""
    if i < 1:
        raise InputError(f"generators are t_1, t_2, ..., got t_{i}")
    return t_series(i + 1).comp_inverse().coeff(i + 1)


def _gen_index(name: str) -> int:
    return int(name.rstrip("'")[1:])


def ln_coproduct(p: SparsePoly) -> SparsePoly:
    """Ring-map extension of the generator coproduct (input in unprimed t_*)."""
    return p.substitute({name: ln_coproduct_gen(_gen_index(name)) for name in p.vars})


def ln_antipode(p: SparsePoly) -> SparsePoly:
    return p.substitute({name: ln_antipode_gen(_gen_index(name)) for name in p.vars})


def ln_counit(p: SparsePoly) -> int | Fraction:
    return p.substitute({name: 0 for name in p.vars}).constant_value()


def ln_convolution(p: SparsePoly, left_antipode: bool) -> SparsePoly:
    """m(chi (x) id)Delta or m(id (x) chi)Delta applied to p (unprimed input)."""
    d = ln_coproduct(p)
    subs = {}
    for name in d.vars:
        primed = name.endswith("'")
        base = name.rstrip("'")
        if primed == left_antipode:
            subs[name] = SparsePoly.variable(base)
        else:
            subs[name] = ln_antipode(SparsePoly.variable(base))
    return d.substitute(subs)


def ln_is_homogeneous(p: SparsePoly, weight: int) -> bool:
    """All monomials of common weight, with t_i and its primes weighing i."""
    for m in p.terms:
        if sum(_gen_index(name) * x for name, x in m) != weight:
            return False
    return True


def ln_coassociativity_gap(i: int) -> SparsePoly:
    """(Delta (x) id)Delta t_i - (id (x) Delta)Delta t_i in t, t', t''."""
    d = ln_coproduct_gen(i)
    left_subs = {}
    right_subs = {}
    for name in d.vars:
        base = name.rstrip("'")
        if name.endswith("'"):
            left_subs[name] = SparsePoly.variable(base + "''")
            right_subs[name] = _prime_map(ln_coproduct_gen(_gen_index(base)), 1)
        else:
            left_subs[name] = ln_coproduct_gen(_gen_index(base))
            right_subs[name] = SparsePoly.variable(base)
    return d.substitute(left_subs) - d.substitute(right_subs)


@lru_cache(maxsize=None)
def ln_generator_checks(i: int) -> tuple:
    """The Hopf axioms at t_i as ((name, ok), ...): coassociativity, the left
    and right antipode convolutions, and the counit."""
    if i < 1:
        raise InputError(f"generators are t_1, t_2, ..., got t_{i}")
    gen = SparsePoly.variable(f"t{i}")
    return (
        (f"coassociativity t{i}", ln_coassociativity_gap(i) == 0),
        (f"antipode left t{i}", ln_convolution(gen, left_antipode=True) == 0),
        (f"antipode right t{i}", ln_convolution(gen, left_antipode=False) == 0),
        (f"counit t{i}", ln_counit(gen) == 0),
    )
