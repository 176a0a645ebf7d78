"""Formal group law with free-algebra coefficients and central variables.

F(x, y) = Z(Z^{<-1>}(x) + Z^{<-1>}(y)) for the diffeo-normalized series
Z(T) = T + Z_1 T^2 + ...; x and y are central, the Z_i are not.

Unit and commutativity hold at every truncation order, and the abelianized
law agrees with the classical commutative construction. Associativity under
plain series substitution holds through total degree 4 but fails at degree 5:
F(F(x,y),z) - F(x,F(y,z)) has xyz^3 coefficient 2(Z_{112} - Z_{121}). The
obstruction is a commutator, so it vanishes in any commutative quotient; it
is the same mechanism that makes composition of series with noncommuting
coefficients non-associative. fgl_associativity_defect reports the first
failing coefficient so the breakdown stays pinned, not papered over.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from ..errors import InputError
from ..exactcore import SparsePoly, TruncSeries
from ..ncsf import NCF, z_series
from .ln import t_series

ORDER_CAP = 8  # the largest order of fgl_over_N, beta_deform and nc_cumulant_series


def check_order(order: int, least: int = 1) -> int:
    """``order``, refused with InputError outside least..ORDER_CAP."""
    if not least <= order <= ORDER_CAP:
        raise InputError(f"order must be between {least} and {ORDER_CAP}, got {order}")
    return order


@lru_cache(maxsize=None)
def fgl_over_N(order: int) -> TruncSeries:
    """The two-variable law over the free algebra, total degree <= order."""
    check_order(order)
    z = z_series(order, "diffeo")
    u = z.comp_inverse()
    inner = u.embed(2, [0]) + u.embed(2, [1])
    return z.compose(inner)


def set_axis_zero(f: TruncSeries, axis: int) -> TruncSeries:
    """Substitute 0 for one central variable, keeping the arity."""
    kept = {e: c for e, c in f.coeffs.items() if e[axis] == 0}
    return TruncSeries(f.ring, f.order, f.nvars, kept)


def swap_axes(f: TruncSeries) -> TruncSeries:
    if f.nvars != 2:
        raise ValueError("swap_axes expects a two-variable series")
    return TruncSeries(f.ring, f.order, 2, {(b, a): c for (a, b), c in f.coeffs.items()})


def fgl_unit_ok(order: int) -> bool:
    f = fgl_over_N(order)
    x = TruncSeries.var(NCF, order, index=0, nvars=2)
    y = TruncSeries.var(NCF, order, index=1, nvars=2)
    return set_axis_zero(f, 1) == x and set_axis_zero(f, 0) == y


def fgl_commutative_ok(order: int) -> bool:
    f = fgl_over_N(order)
    return swap_axes(f) == f


@lru_cache(maxsize=None)
def fgl_associativity_defect(order: int):
    """First nonzero coefficient of F(F(x,y),z) - F(x,F(y,z)), or None.

    Returns (exponent_triple, NCF difference) for the lexicographically
    smallest failing exponent. None through order 4; starting at order 5 the
    defect is 2(Z_{112} - Z_{121}) at x*y*z^3. Memoised per order, like
    fgl_over_N, whose order check it inherits.
    """
    f = fgl_over_N(order)
    x = TruncSeries.var(NCF, order, index=0, nvars=3)
    y = TruncSeries.var(NCF, order, index=1, nvars=3)
    z3 = TruncSeries.var(NCF, order, index=2, nvars=3)
    left = f.compose_many([f.compose_many([x, y]), z3])
    right = f.compose_many([x, f.compose_many([y, z3])])
    diff = left - right
    e = min(diff.coeffs, default=None)
    return None if e is None else (e, diff.coeffs[e])


def fgl_abelianized(order: int) -> TruncSeries:
    """Image of the law under Z_i -> b_i, as a polynomial-coefficient series."""
    f = fgl_over_N(order)

    def ab(coeff):
        return SparsePoly.sum(
            SparsePoly.monomial(Counter(f"b{i}" for i in w), c)
            for w, c in coeff.terms.items()
        )

    return f.map_coeffs(ab, ring=SparsePoly)


def commutative_fgl(order: int) -> TruncSeries:
    """b(b^{<-1>}(x) + b^{<-1>}(y)) computed purely commutatively."""
    b = t_series(order, prefix="b")
    u = b.comp_inverse()
    inner = u.embed(2, [0]) + u.embed(2, [1])
    return b.compose(inner)
