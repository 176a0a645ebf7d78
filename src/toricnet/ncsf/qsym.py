"""Quasisymmetric functions in the monomial basis, dual to the free side.

QSF elements are finite Q-linear combinations of M_alpha for compositions
alpha; the product is the quasi-shuffle (overlapping shuffle). The pairing
with NCF words is <Z_alpha, M_beta> = delta_{alpha,beta}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ..errors import InputError
from ..exactcore import SparsePoly
from ..exactcore.terms import Terms, key_str
from .compositions import check_composition
from .nsym import NCF, TensorNCF


class QSF(Terms):
    """Quasisymmetric function, monomial basis: terms composition -> Q."""

    __slots__ = ()

    _check_key = staticmethod(check_composition)

    def _key_str(self, alpha) -> str:
        return key_str("M", alpha)

    @classmethod
    def monomial(cls, alpha, coeff=1) -> "QSF":
        return cls({tuple(alpha): coeff})

    def __mul__(self, other):
        if not isinstance(other, QSF):
            return super().__mul__(other)
        return qsym_product(self, other)


@lru_cache(maxsize=None)
def _quasi_shuffle(a: tuple, b: tuple) -> tuple:
    """Multiset of compositions in M_a * M_b, as ((composition, mult), ...)."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out: dict = {}
    # first part from a, from b, or the two merged
    for head, rest in (
        ((a[0],), _quasi_shuffle(a[1:], b)),
        ((b[0],), _quasi_shuffle(a, b[1:])),
        ((a[0] + b[0],), _quasi_shuffle(a[1:], b[1:])),
    ):
        for comp, mult in rest:
            key = head + comp
            out[key] = out.get(key, 0) + mult
    return tuple(sorted(out.items()))


def qsym_product(x: QSF, y: QSF) -> QSF:
    out: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            c = ca * cb
            for comp, mult in _quasi_shuffle(a, b):
                t = c * mult
                out[comp] = out[comp] + t if comp in out else t
    return QSF._trusted(out)


def qsym_realize(alpha, k: int) -> SparsePoly:
    """M_alpha as a polynomial in x1..xk (0 when k < length of alpha)."""
    alpha = check_composition(alpha)
    if k < 0:
        raise InputError(f"variable count must be >= 0, got {k}")
    return SparsePoly.sum(
        SparsePoly.monomial({f"x{pos + 1}": part for pos, part in zip(idx, alpha)})
        for idx in combinations(range(k), len(alpha))
    )


def qsf_realize(x: QSF, k: int) -> SparsePoly:
    return SparsePoly.sum(qsym_realize(a, k) * c for a, c in x.terms.items())


def pairing(x: NCF, q: QSF) -> int | Fraction:
    """<Z_alpha, M_beta> = delta, extended bilinearly."""
    total = 0
    for w, c in x.terms.items():
        d = q.terms.get(w)
        if d is not None:
            total += c * d
    return total


def tensor_pairing(t: TensorNCF, q1: QSF, q2: QSF) -> int | Fraction:
    """<x (x) y, q (x) q'> = <x,q><y,q'> summed over the tensor terms."""
    total = 0
    for (w1, w2), c in t.terms.items():
        d1 = q1.terms.get(w1)
        if d1 is None:
            continue
        d2 = q2.terms.get(w2)
        if d2 is not None:
            total += c * d1 * d2
    return total
