"""Immutable finite Q-linear combinations of basis keys.

``Terms`` is the module structure shared by the sparse algebras: words
(``NCF``), pairs of words (``TensorNCF``), compositions (``QSF``),
partitions (``SymF``), (beta power, word) pairs (``BetaNCF``) and monomials
(``SparsePoly``). A subclass supplies ``_check_key`` and a product of two
keys, which its ``__mul__`` hands to ``_product``; the multiply-and-accumulate
loop and everything linear live here, and ``algebra_map`` extends a map on
generators multiplicatively.

Coefficients are exact rationals in canonical form: a value with denominator
1 is stored as an ``int`` and any other value as a ``Fraction``, so products
and sums of integral coefficients run on Python ints. Both constructors keep
this form; anything but an int or a ``Fraction`` (a float, say) is refused
with ``TypeError``.

Add many elements with ``X.sum(...)``: it merges every summand into one dict
and builds the result once, while a loop of ``out = out + term`` copies
``out`` at every step.

Construction is validated or trusted. The public constructor (``NCF(...)``,
``SymF(basis, ...)``, ``SparsePoly.monomial``, ...) and ``coeff`` check every
key and coefficient, because that is where outside data (JSON, CLI text,
user code) comes in. Results computed from elements that were already
checked (ring products, sums, negations and scalar multiples) go through
``_trusted``, which only drops zero coefficients and narrows a ``Fraction``
with denominator 1 to its numerator. Trust is per element:
``sum`` refuses a summand of another class with one ``isinstance`` each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul


def key_str(letter: str, key: tuple) -> str:
    """A basis key as repr shows it: Z[1,2], with the empty key shown as 1."""
    return letter + str(list(key)).replace(" ", "") if key else "1"


class Terms:
    """Immutable map key -> nonzero int or non-integral Fraction, with the
    vector-space operations."""

    __slots__ = ("terms",)

    _unit_key: tuple = ()

    def __init__(self, terms=None):
        check = self._check_key
        clean = {}
        for k, c in (terms or {}).items():
            if type(c) is not int:
                if isinstance(c, Fraction):
                    c = c.numerator if c.denominator == 1 else c
                elif isinstance(c, int):
                    c = int(c)
                else:
                    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
            if c:
                clean[check(k)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, terms):
        """An element over keys and int/Fraction coefficients that are already
        checked: no key is validated, zero coefficients are dropped and a
        ``Fraction`` with denominator 1 becomes its numerator."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", {
            k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k, c in terms.items() if c
        })
        return self

    # -- per-class hooks ---------------------------------------------------

    @staticmethod
    def _check_key(key):
        """Validate one basis key and return it in canonical form."""
        raise NotImplementedError

    def _key_str(self, key) -> str:
        raise NotImplementedError

    @staticmethod
    def _order(key):
        """Sort key of ``sorted_terms``: weight, then length, then the key."""
        return (sum(key), len(key), key)

    def _new(self, terms):
        """A trusted element of the same kind as self with the given terms."""
        return self._trusted(terms)

    def _aligned(self, other):
        """``other`` written so that its keys mean what self's keys mean."""
        return other

    def _invariant(self):
        """What ``__hash__`` hashes; elements that compare equal share it."""
        return frozenset(self.terms.items())

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({cls._unit_key: 1})

    @classmethod
    def sum(cls, items):
        """Sum of an iterable of elements in one pass; an empty sum is ``zero()``.

        The first summand fixes the kind of the result (the basis of a SymF).
        A summand that is not of the first one's class raises ``TypeError``.
        """
        items = iter(items)
        first = next(items, None)
        if first is None:
            return cls.zero()
        kind = type(first)
        if not isinstance(first, cls):
            raise TypeError(f"cannot sum {kind.__name__} as {cls.__name__}")
        out = dict(first.terms)
        for x in items:
            if not isinstance(x, kind):
                raise TypeError(f"cannot add {type(x).__name__} to {kind.__name__}")
            for k, c in first._aligned(x).terms.items():
                out[k] = out[k] + c if k in out else c
        return first._new(out)

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sum((self, -other))

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """Multiplication by a scalar; subclasses add their ring product."""
        if isinstance(other, (int, Fraction)):
            return self._new({k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _product(self, other, key_mul):
        """The ring product whose basis keys multiply by ``key_mul``: every
        pair of terms multiplies its coefficients into the combined key."""
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return self._new(out)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.terms == self._aligned(other).terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash(self._invariant())

    def __bool__(self):
        return bool(self.terms)

    # -- reading -----------------------------------------------------------

    def coeff(self, key) -> int | Fraction:
        return self.terms.get(self._check_key(key), 0)

    def sorted_terms(self):
        order = self._order
        return sorted(self.terms.items(), key=lambda kc: order(kc[0]))

    def __repr__(self):
        body = " + ".join(f"{c}*{self._key_str(k)}" for k, c in self.sorted_terms())
        return f"{type(self).__name__}({body or 0})"


def algebra_map(x: Terms, image, one: Terms) -> Terms:
    """The multiplicative extension to ``x`` of ``image`` on generators.

    A key of ``x`` is a sequence of generators; it maps to the product of
    their images, starting from ``one``, and the terms sum in one pass.
    """
    return type(one).sum(
        reduce(mul, map(image, key), one) * c for key, c in x.terms.items()
    )
