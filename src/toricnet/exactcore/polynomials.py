"""Sparse multivariate polynomials over the rationals.

A ``SparsePoly`` is a ``Terms`` element whose keys are monomials: tuples of
``(variable name, exponent)`` pairs sorted by name, every exponent at least
1, with ``()`` the constant monomial. A monomial names its own variables, so
polynomials built independently (say over ``k1`` and over ``k2``) combine
with no shared state and nothing to align. Coefficients are exact
rationals, stored as ``int`` when integral and as ``fractions.Fraction``
otherwise; arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .terms import Terms

Scalar = Union[int, Fraction]


def _check_monomial(m) -> tuple:
    m = tuple(m)
    prev = None
    for name, exp in m:
        if not isinstance(name, str):
            raise ValueError(f"variable names must be str: {m!r}")
        if not isinstance(exp, int) or exp < 1:
            raise ValueError(f"exponents must be integers >= 1: {m!r}")
        if prev is not None and name <= prev:
            raise ValueError(f"variable names must be sorted and distinct: {m!r}")
        prev = name
    return m


def _monomial_key(powers: Mapping[str, int]) -> tuple:
    return tuple(sorted((n, p) for n, p in powers.items() if p))


def _monomial_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    powers = dict(a)
    for name, exp in b:
        powers[name] = powers[name] + exp if name in powers else exp
    return tuple(sorted(powers.items()))


def monomial_text(m) -> str:
    """A monomial as ``render`` prints it, from its ``(name, exp)`` pairs:
    ``k1*k2^3``, and ``""`` for the constant monomial."""
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in m)


def join_terms(terms) -> str:
    """A sum as ``render`` prints it, from ``(monomial text, coefficient)``
    terms in print order: a unit coefficient is left out, any other joins
    its monomial with ``*``, a leading minus moves into the join, and an
    empty sum is ``"0"``."""
    parts = []
    for body, c in terms:
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


class SparsePoly(Terms):
    """Immutable sparse polynomial with rational (int or Fraction) coefficients.

    Structural equality is mathematical equality: monomials are canonical
    and zero coefficients are dropped.
    """

    __slots__ = ()

    _check_key = staticmethod(_check_monomial)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "SparsePoly":
        return cls({(): c})

    @classmethod
    def variable(cls, name: str) -> "SparsePoly":
        return cls({((name, 1),): 1})

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coeff: Scalar = 1) -> "SparsePoly":
        return cls({_monomial_key(powers): coeff})

    @property
    def vars(self) -> tuple:
        """The sorted names of the variables that occur."""
        return tuple(sorted({name for m in self.terms for name, _ in m}))

    # -- ring operations ------------------------------------------------

    # Own defs, not inherited: perfbench/tracer.py patches SparsePoly.__add__
    # and __mul__ by identity in the class namespace.
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        return super().__sub__(other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return super().__mul__(other)
        return self._product(other, _monomial_mul)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def total_degree(self) -> int:
        return max((sum(exp for _, exp in m) for m in self.terms), default=0)

    def coefficient(self, powers: Mapping[str, int]) -> Scalar:
        return self.terms.get(_monomial_key(powers), 0)

    def substitute(self, values: Mapping[str, "SparsePoly | Scalar"]) -> "SparsePoly":
        """Substitute polynomials or scalars for (a subset of) the variables."""

        def image(m, c):
            term = SparsePoly({tuple(p for p in m if p[0] not in values): c})
            for name, exp in m:
                if name in values:
                    term = term * values[name] ** exp
            return term

        return SparsePoly.sum(image(m, c) for m, c in self.terms.items())

    def sorted_terms(self):
        """Terms by total degree, then by exponent vector over ``vars``."""
        index = {name: i for i, name in enumerate(self.vars)}
        width = len(index)

        def order(item):
            vector = [0] * width
            degree = 0
            for name, exp in item[0]:
                vector[index[name]] = exp
                degree += exp
            return (degree, vector)

        return sorted(self.terms.items(), key=order)

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        return join_terms([(monomial_text(m), c) for m, c in self.sorted_terms()])

    def __repr__(self):
        return f"SparsePoly({self.render()})"
