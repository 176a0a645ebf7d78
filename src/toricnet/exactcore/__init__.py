"""Exact arithmetic kernel: rationals, integer/rational linear algebra,
sparse polynomials on the shared ``Terms`` core, and truncated power series
over pluggable rings.

Exact rationals are Python ints and ``fractions.Fraction`` (re-exported as
``Rational``): arbitrary precision, always normalized with positive
denominator, hashable and usable as dict keys. The sparse algebras store a
coefficient with denominator 1 as an ``int`` and any other as a ``Fraction``
(see ``terms.py``).
"""

from fractions import Fraction as Rational

from .matrices import (
    clear_denominators,
    cramer,
    ff_determinant,
    hermite_normal_form,
    identity,
    inverse_rational,
    lattice_kernel,
    mat_mul,
    rank,
    rational_rref,
    smith_normal_form,
    solve_rational,
    transpose,
)
from .polynomials import SparsePoly
from .series import QRing, TruncSeries

__all__ = [
    "Rational",
    "SparsePoly",
    "TruncSeries",
    "QRing",
    "clear_denominators",
    "cramer",
    "ff_determinant",
    "hermite_normal_form",
    "lattice_kernel",
    "smith_normal_form",
    "rational_rref",
    "solve_rational",
    "rank",
    "mat_mul",
    "transpose",
    "identity",
    "inverse_rational",
]
