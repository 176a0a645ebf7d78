"""Independent checks of the Kostka-matrix transitions in ``toricnet.ncsf.sym``.

The oracles here share no code with ``sym.py``: semistandard tableaux are
enumerated cell by cell, and h_lambda and m_mu are expanded as polynomials in
n variables (the brute-force expansion ``sym.py`` used before it read every
m and s transition off the Kostka matrix).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import pytest

from toricnet.ncsf import BASES, SymF, partitions, schur_in_h, sym_convert
from toricnet.ncsf.sym import _transitions

MAX_ORACLE_DEGREE = 7


def _ssyt_count(shape, content):
    """Semistandard tableaux of ``shape`` with ``content``, filled cell by cell.

    Cells are visited row by row; each takes a letter that is at least its
    left neighbour, larger than the letter above it, and still available.
    """
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    left = list(content)
    grid = {}

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        low = max(grid.get((r, c - 1), 0), grid.get((r - 1, c), -1) + 1)
        total = 0
        for letter in range(low, len(left)):
            if left[letter]:
                left[letter] -= 1
                grid[r, c] = letter
                total += fill(pos + 1)
                left[letter] += 1
        grid.pop((r, c), None)
        return total

    return fill(0)


def _h_poly(k, nvars):
    """Complete homogeneous h_k in nvars variables, as exponent tuple -> int."""
    out = {}
    for combo in combinations_with_replacement(range(nvars), k):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _nvars(n):
    return max(n, 1)


def _pad(mu, nvars):
    return tuple(mu) + (0,) * (nvars - len(mu))


@lru_cache(maxsize=None)
def _realized_h(n):
    """Every h_lambda of degree n as a polynomial in max(n, 1) variables."""
    out = {}
    for lam in partitions(n):
        acc = {(0,) * _nvars(n): 1}
        for part in lam:
            acc = _poly_mul(acc, _h_poly(part, _nvars(n)))
        out[lam] = acc
    return out


def _realize_m(mu, nvars):
    """Monomial symmetric m_mu: every distinct rearrangement of mu, padded."""
    return {e: 1 for e in set(permutations(_pad(mu, nvars)))}


@pytest.mark.parametrize("n", range(MAX_ORACLE_DEGREE + 1))
def test_kostka_matches_tableau_enumeration(n):
    parts = partitions(n)
    # h -> s is K^T, so entry [mu][lam] is K(lam, mu)
    h_to_s = _transitions(n)["h", "s"]
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            assert h_to_s[j][i] == _ssyt_count(lam, mu), (lam, mu)


@pytest.mark.parametrize("n", range(MAX_ORACLE_DEGREE + 1))
def test_h_to_m_matches_polynomial_expansion(n):
    nv = _nvars(n)
    for lam, poly in _realized_h(n).items():
        expected = {
            mu: Fraction(poly[_pad(mu, nv)]) for mu in partitions(n) if _pad(mu, nv) in poly
        }
        assert sym_convert(SymF.element("h", lam), "m").terms == expected, lam


@pytest.mark.parametrize("n", range(MAX_ORACLE_DEGREE + 1))
def test_m_to_h_matches_polynomial_expansion(n):
    # sum_lam c_lam h_lam, expanded, must give back the polynomial m_mu
    for mu in partitions(n):
        in_h = sym_convert(SymF.element("m", mu), "h")
        total = {}
        for lam, c in in_h.terms.items():
            for e, k in _realized_h(n)[lam].items():
                total[e] = total.get(e, 0) + c * k
        assert {e: c for e, c in total.items() if c} == _realize_m(mu, _nvars(n)), mu


def test_schur_in_h_is_inverse_of_kostka_transpose():
    # s_lam = sum_mu c_mu h_mu and h_mu = sum_nu K(nu, mu) s_nu give back s_lam
    for n in range(MAX_ORACLE_DEGREE + 1):
        parts = partitions(n)
        for lam in parts:
            back = {}
            for mu, c in schur_in_h(lam).terms.items():
                for nu in parts:
                    back[nu] = back.get(nu, 0) + c * _ssyt_count(nu, mu)
            assert {k: v for k, v in back.items() if v} == {lam: 1}, lam


def test_roundtrips_through_every_basis():
    for n in range(0, 7):
        for lam in partitions(n):
            for src in BASES:
                x = SymF.element(src, lam)
                for mid in BASES:
                    assert sym_convert(sym_convert(x, mid), src) == x, (src, mid, lam)
