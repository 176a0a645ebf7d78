"""Moment/cumulant transforms, all exact, computed on integers.

Free side (Voiculescu): gamma(z) = sum m_n z^{n+1}, K(z) = z / gamma^{<-1>}(z),
free cumulants are the coefficients of K - 1. Classical side: cumulants are
the log of the exponential generating function. Hirzebruch K-series: the same
z-over-an-inverse construction applied to a genus logarithm, which is why the
two pipelines agree coefficient for coefficient on shared input.

Every transform runs on Python ints over one common denominator d, the lcm
of the input's denominators, and makes one ``Fraction`` per output.

* Scaling identity (free side and K-series). For f = T + sum_{j>=2} f_j T^j,
  F(T) = f(dT)/d = T + sum f_j d^{j-1} T^j has integer coefficients, so its
  compositional inverse G is integral and g = f^{<-1>} has g_k = G_k / d^{k-1}.
  The shift S_k = G_{k+1} = s_k d^k keeps the scale, so the reciprocal of S
  runs on the same ints, V_k = -sum_{j=1}^k S_j V_{k-j}, and [z^k] K = V_k / d^k.
  Moments from free cumulants run the two steps in the other order, starting
  from U_i = kappa_i d^i.
* Binomial recurrence (classical side). With M_k = m_k d^k and K_k = kappa_k d^k,
  M_n = sum_{k=1}^n C(n-1, k-1) K_k M_{n-k}, read either way: O(N^2) integer
  products and no factorials.

One d inflates the integers when the denominators share no factor. With
distinct 6-digit prime denominators the free side and the K-series are
faster than Fraction series algebra (``TruncSeries`` over ``QRing``) up to
about 30 terms and slower beyond: 17 -> 6 ms at 20 terms, 74 -> 65 ms at 30
and 230-260 -> 380-425 ms at 40 (CPU time, best of 5, Python 3.11 on a
shared 2-core VM). With denominators of at most 9 they are 12-18 times faster
at 13-60 terms. The classical side was faster on every input measured: 4-7
times with prime denominators at 20-40 terms, 25-70 times with small ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from ..errors import InputError


def _common_denominator(xs) -> int:
    return lcm(*(x.denominator for x in xs))


def _scaled(xs, d: int, shift: int) -> list[int]:
    """x_i * d^(i + shift) as ints, for i = 0, 1, ...; each needs i + shift >= 1
    unless x_i is an integer."""
    return [x.numerator * (d ** (i + shift) // x.denominator) for i, x in enumerate(xs)]


def _comp_inverse(f: list[int], n: int) -> list[int]:
    """G with F(G(T)) = T through T^n, for F = sum f[j] T^j with f[0] = 0 and
    f[1] = 1 (missing tail entries are zero); returns [G_0 = 0, G_1 = 1, ...].

    One pass over degrees with a table of powers p[j][k] = [T^k] G^j, as
    ``TruncSeries.comp_inverse``: p[j][k] = sum_i p[j-1][i] G_{k-i}, then
    G_k = -sum_{j>=2} f_j p[j][k]. O(n^3) integer products.
    """
    top = max((j for j, c in enumerate(f) if c), default=1)
    g = [0, 1] + [0] * (n - 1)
    powers = [None, g] + [[0] * (n + 1) for _ in range(2, top + 1)]
    for k in range(2, n + 1):
        used = range(2, min(k, top) + 1)
        for j in used:
            powers[j][k] = sum(powers[j - 1][i] * g[k - i] for i in range(j - 1, k))
        g[k] = -sum(f[j] * powers[j][k] for j in used)
    return g


def _reciprocal(s: list[int], n: int) -> list[int]:
    """V with S V = 1 through T^n, for S = sum s[j] T^j with s[0] = 1."""
    v = [1]
    for k in range(1, n + 1):
        v.append(-sum(s[j] * v[k - j] for j in range(1, min(k, len(s) - 1) + 1)))
    return v


def _k_series(f: list[Fraction], order: int) -> list[Fraction]:
    """[z^0..z^order] of z / f^{<-1>}(z), for f = sum f[j-1] z^j with f[0] = 1."""
    f = f[: order + 1]
    d = _common_denominator(f)
    g = _comp_inverse([0] + _scaled(f, d, 0), order + 1)
    v = _reciprocal(g[1:], order)
    return [Fraction(v[k], d**k) for k in range(order + 1)]


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
    return _k_series(m, len(m) - 1)[1:]


def free_cumulants_to_moments(kappa) -> list[Fraction]:
    """Moments (m_0 = 1, m_1, ..., m_N) from free cumulants kappa_1..kappa_N."""
    kappa = [Fraction(x) for x in kappa]
    n = len(kappa)
    if n == 0:
        raise InputError("need at least kappa_1")
    d = _common_denominator(kappa)
    # W = 1/K(dz) has W_k = w_k d^k, and z * W gives F(z) = gamma^{<-1>}(dz)/d
    w = _reciprocal([1] + _scaled(kappa, d, 1), n)
    g = _comp_inverse([0] + w, n + 1)
    return [Fraction(g[i + 1], d**i) for i in range(n + 1)]


def classical_cumulants(m) -> list[Fraction]:
    """Classical cumulants from moments, by the binomial recurrence."""
    m = _check_moments(m)
    n = len(m) - 1
    d = _common_denominator(m)
    big_m = _scaled(m, d, 0)
    k = [0]
    for i in range(1, n + 1):
        k.append(big_m[i] - sum(comb(i - 1, j - 1) * k[j] * big_m[i - j] for j in range(1, i)))
    return [Fraction(k[i], d**i) for i in range(1, n + 1)]


def classical_cumulants_to_moments(kappa) -> list[Fraction]:
    """Inverse of classical_cumulants, by the same recurrence."""
    kappa = [Fraction(x) for x in kappa]
    n = len(kappa)
    if n == 0:
        raise InputError("need at least kappa_1")
    d = _common_denominator(kappa)
    k = [0] + _scaled(kappa, d, 1)
    big_m = [1]
    for i in range(1, n + 1):
        big_m.append(sum(comb(i - 1, j - 1) * k[j] * big_m[i - j] for j in range(1, i + 1)))
    return [Fraction(big_m[i], d**i) for i in range(n + 1)]


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
    return _k_series(ell, order)
