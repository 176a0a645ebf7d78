"""Coactions of the diffeomorphism Hopf algebra on series coefficients.

Two comodules over the commutative algebra of ``ln``:

* log-generators: the logarithm-style series sum_n (CP_{n-1}/n) T^n with
  CP_0 = 1; the coaction substitutes the universal series into it,
  psi(log)(T) = sum_k (CP_{k-1}/k (x) 1) t(T)^k, and the generator image
  psi(CP_{n-1}) is read off the T^n coefficient (times n).
* b-series: a diffeo-normalized series b(T) = sum b_i T^(i+1), b_0 = 1, with
  psi(b)(T) = b(t(T)).

Left tensor slot = CP_* or b_* variables, right slot = t_* variables, all
inside one commutative SparsePoly ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import InputError
from ..exactcore import SparsePoly, TruncSeries
from .ln import ln_coproduct_gen, t_series


def log_series(order: int) -> TruncSeries:
    """T + (CP1/2) T^2 + (CP2/3) T^3 + ..."""
    coeffs = {(1,): SparsePoly.one()}
    for n in range(2, order + 1):
        coeffs[(n,)] = SparsePoly.monomial({f"CP{n - 1}": 1}, Fraction(1, n))
    return TruncSeries(SparsePoly, order, 1, coeffs)


def b_series(order: int, prefix: str = "b") -> TruncSeries:
    return t_series(order, prefix=prefix)


@lru_cache(maxsize=None)
def _log_coaction_series(order: int) -> TruncSeries:
    outer = log_series(order)
    return outer.compose(t_series(order))


@lru_cache(maxsize=None)
def mu_log_image(n: int) -> SparsePoly:
    """psi(CP_n) in Q[CP_*] (x) Q[t_*].

    n = 0 gives 1, since CP_0 = 1 is the unit and no generator; the CLI's
    ``hopf coaction`` refuses degree 0.
    """
    if n < 0:
        raise InputError("CP index must be >= 0")
    if n == 0:
        return SparsePoly.one()
    return _log_coaction_series(n + 1).coeff(n + 1) * (n + 1)


@lru_cache(maxsize=None)
def mu_b_image(n: int) -> SparsePoly:
    """psi(b_n): the T^(n+1) coefficient of b(t(T)).

    n = 0 gives 1, since b_0 = 1 is the unit and no generator; the CLI's
    ``hopf coaction`` refuses degree 0.
    """
    if n < 0:
        raise InputError("b index must be >= 0")
    if n == 0:
        return SparsePoly.one()
    outer = b_series(n + 1)
    return outer.compose(t_series(n + 1)).coeff(n + 1)


def mu_coaction(target: str, order: int) -> dict[int, SparsePoly]:
    """Generator images psi(CP_1..CP_{order-1}) or psi(b_1..b_{order-1})."""
    if order < 1:
        raise InputError("order must be >= 1")
    if target == "log-generators":
        return {n: mu_log_image(n) for n in range(1, order)}
    if target == "b-series":
        return {n: mu_b_image(n) for n in range(1, order)}
    raise InputError(f"unknown coaction target {target!r}")


def _split_vars(p: SparsePoly):
    left = [v for v in p.vars if not v.startswith("t")]
    right = [v for v in p.vars if v.startswith("t")]
    return left, right


def coaction_counit_ok(target: str, order: int) -> bool:
    """Killing the t-slot must recover the generator."""
    prefix = "CP" if target == "log-generators" else "b"
    for n, image in mu_coaction(target, order).items():
        _, right = _split_vars(image)
        collapsed = image.substitute({v: 0 for v in right})
        if collapsed != SparsePoly.variable(f"{prefix}{n}"):
            return False
    return True


def coaction_coassoc_ok(target: str, order: int) -> bool:
    """(psi (x) id)psi = (id (x) Delta_S)psi on generators below ``order``.

    Both sides live in A (x) S (x) S, written as polynomials in the module
    variables, middle-slot t_*, and last-slot t_*'.
    """
    images = mu_coaction(target, order)
    image_fn = mu_log_image if target == "log-generators" else mu_b_image
    for image in images.values():
        left, right = _split_vars(image)
        lhs_subs: dict = {v: SparsePoly.variable(v + "'") for v in right}
        for v in left:
            # inner coaction lands in (A, middle), so its t-vars stay unprimed
            lhs_subs[v] = image_fn(int(v.lstrip("CPb")))
        rhs_subs: dict = {v: ln_coproduct_gen(int(v[1:])) for v in right}
        if image.substitute(lhs_subs) != image.substitute(rhs_subs):
            return False
    return True
