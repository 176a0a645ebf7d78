"""Moment/cumulant transforms, all exact over the rationals.

Free side (Voiculescu): gamma(z) = sum m_n z^{n+1}, K(z) = z / gamma^{<-1>}(z),
free cumulants are the coefficients of K - 1. Classical side: cumulants are
the log of the exponential generating function. Hirzebruch K-series: the same
z-over-an-inverse construction applied to a genus logarithm, which is why the
two pipelines agree coefficient for coefficient on shared input.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..errors import InputError
from ..exactcore import QRing, TruncSeries


def _q_series(coeffs: dict, order: int) -> TruncSeries:
    return TruncSeries(QRing, order, 1, {(k,): c for k, c in coeffs.items() if c})


def _check_moments(m) -> list[Fraction]:
    m = [Fraction(x) for x in m]
    if not m or m[0] != 1:
        raise InputError("moment sequence must start with m_0 = 1")
    if len(m) < 2:
        raise InputError("need at least m_1")
    return m


def moments_to_free_cumulants(m) -> list[Fraction]:
    """Free cumulants kappa_1..kappa_N from moments (m_0 = 1, m_1, ..., m_N)."""
    m = _check_moments(m)
    n = len(m) - 1
    gamma = _q_series({k + 1: c for k, c in enumerate(m)}, n + 1)
    k_series = gamma.comp_inverse().shift_down().mult_inverse()
    return [k_series.coeffs.get((i,), 0) for i in range(1, n + 1)]


def free_cumulants_to_moments(kappa) -> list[Fraction]:
    """Moments (m_0 = 1, m_1, ..., m_N) from free cumulants kappa_1..kappa_N."""
    kappa = [Fraction(x) for x in kappa]
    n = len(kappa)
    if n == 0:
        raise InputError("need at least kappa_1")
    k_coeffs = {i + 1: c for i, c in enumerate(kappa)}
    k_coeffs[0] = 1
    # order n+1 with kappa_{n+1} = 0; that slot feeds only coefficients past m_n
    k_series = _q_series(k_coeffs, n + 1)
    gamma_inv = _q_series({1: 1}, n + 1) * k_series.mult_inverse()
    gamma = gamma_inv.comp_inverse()
    return [gamma.coeffs.get((i + 1,), 0) for i in range(n + 1)]


def classical_cumulants(m) -> list[Fraction]:
    """Classical cumulants from moments, via the log of the EGF."""
    m = _check_moments(m)
    n = len(m) - 1
    egf = _q_series({k: Fraction(c, factorial(k)) for k, c in enumerate(m)}, n)
    logf = egf.log()
    return [factorial(i) * logf.coeffs.get((i,), 0) for i in range(1, n + 1)]


def classical_cumulants_to_moments(kappa) -> list[Fraction]:
    """Inverse of classical_cumulants; exp of the cumulant EGF."""
    kappa = [Fraction(x) for x in kappa]
    n = len(kappa)
    if n == 0:
        raise InputError("need at least kappa_1")
    gen = _q_series({i + 1: Fraction(c, factorial(i + 1)) for i, c in enumerate(kappa)}, n)
    egf = gen.exp()
    return [factorial(i) * egf.coeffs.get((i,), 0) for i in range(n + 1)]


def hirzebruch_K(log_coeffs, order: int) -> list[Fraction]:
    """K-series of a genus logarithm: K(z) = z / log^{<-1>}(z), to z^order.

    log_coeffs are l_1, l_2, ... with l_1 = 1; missing tail entries are zero.
    Returns [K_0 = 1, K_1, ..., K_order].
    """
    ell = [Fraction(x) for x in log_coeffs]
    if not ell or ell[0] != 1:
        raise InputError("genus logarithm must have leading coefficient 1")
    if order < 1:
        raise InputError("order must be >= 1")
    log = _q_series({i + 1: c for i, c in enumerate(ell[: order + 1])}, order + 1)
    k_series = log.comp_inverse().shift_down().mult_inverse()
    return [k_series.coeffs.get((i,), 0) for i in range(order + 1)]
