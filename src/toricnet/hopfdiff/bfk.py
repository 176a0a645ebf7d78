"""Noncommutative Hopf algebra of formal diffeomorphisms on the Z_i.

Coproduct via the formal residue, which for the diffeo-normalized series
Z(T) = T + Z_1 T^2 + ... collapses to

    Delta Z(T) = sum_{n>=1} Z_{n-1} (x) Z(T)^n          (Z_0 = 1),

so Delta Z_k is the T^(k+1) coefficient of the right side; the left tensor
slot carries the Z(U)-coefficients. The antipode is the graded-connected
recursion chi(x) = -x - sum chi(x') x'' over the reduced coproduct, extended
anti-multiplicatively (noncommutative Lagrange inversion in closed form is
not needed for correctness and is left out).

Abelianizing Z_i -> t_i carries every structure map to the commutative
algebra in ``ln``; ``ab_bfk_to_ln`` checks that degree by degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from ..errors import InputError
from ..exactcore.terms import algebra_map
from ..ncsf import NCF, TensorNCF, abelianize_ncf, abelianize_tensor, z_series
from ..ncsf.compositions import compositions
from . import ln


@lru_cache(maxsize=None)
def _z_power_coeff(n: int, k: int) -> NCF:
    """[T^k] Z(T)^n for the diffeo-normalized series."""
    z = z_series(k, "diffeo")
    power = z
    for _ in range(n - 1):
        power = power * z
    return power.coeff(k)


@lru_cache(maxsize=None)
def bfk_coproduct_gen(m: int) -> TensorNCF:
    """Delta Z_m = sum_{n=1}^{m+1} Z_{n-1} (x) [T^(m+1)] Z(T)^n."""
    if m < 1:
        raise InputError(f"generators are Z_1, Z_2, ..., got Z_{m}")
    return TensorNCF.sum(
        TensorNCF.pure(NCF.gen(n - 1), _z_power_coeff(n, m + 1)) for n in range(1, m + 2)
    )


def bfk_coproduct(x: NCF) -> TensorNCF:
    """Multiplicative extension of the generator coproduct."""
    return algebra_map(x, bfk_coproduct_gen, TensorNCF.one())


def bfk_coproduct_word(w: tuple) -> TensorNCF:
    return bfk_coproduct(NCF.word(w))


@lru_cache(maxsize=None)
def bfk_antipode_gen(m: int) -> NCF:
    """chi(Z_m) by graded recursion over the reduced coproduct."""
    if m < 1:
        raise InputError(f"generators are Z_1, Z_2, ..., got Z_{m}")
    # proper part: n = 2..m gives Z_{n-1} (x) (positive-weight right factor)
    return -NCF.sum(
        [NCF.gen(m)]
        + [bfk_antipode_gen(n - 1) * _z_power_coeff(n, m + 1) for n in range(2, m + 1)]
    )


def bfk_antipode(x: NCF) -> NCF:
    """Anti-multiplicative extension: chi(Z_a Z_b) = chi(Z_b) chi(Z_a)."""
    return NCF.sum(
        reduce(mul, map(bfk_antipode_gen, reversed(w)), NCF.one()) * c
        for w, c in x.terms.items()
    )


def bfk_counit(x: NCF) -> int | Fraction:
    return x.coeff(())


def bfk_convolution(x: NCF, left_antipode: bool) -> NCF:
    """m(chi (x) id)Delta(x) or m(id (x) chi)Delta(x)."""

    def term(w1, w2):
        if left_antipode:
            return bfk_antipode(NCF.word(w1)) * NCF.word(w2)
        return NCF.word(w1) * bfk_antipode(NCF.word(w2))

    return NCF.sum(term(w1, w2) * c for (w1, w2), c in bfk_coproduct(x).terms.items())


def bfk_coassociativity_gap(x: NCF) -> dict:
    """(Delta (x) id)Delta - (id (x) Delta)Delta as a triple-keyed dict."""
    d = bfk_coproduct(x)
    out: dict = {}
    for (w1, w2), c in d.terms.items():
        for (u, v), e in bfk_coproduct_word(w1).terms.items():
            key, t = (u, v, w2), c * e
            out[key] = out[key] + t if key in out else t
        for (u, v), e in bfk_coproduct_word(w2).terms.items():
            key, t = (w1, u, v), c * e
            out[key] = out[key] - t if key in out else -t
    return {k: v for k, v in out.items() if v}


def ab_bfk_to_ln(max_weight: int) -> tuple[bool, tuple | None]:
    """Abelianization Z_i -> t_i intertwines both coproducts and antipodes.

    Checks every word of weight <= max_weight; returns (True, None) or
    (False, first offending word).
    """
    for n in range(1, max_weight + 1):
        for w in compositions(n):
            x = NCF.word(w)
            ab_x = abelianize_ncf(x, "diffeo")
            if abelianize_tensor(bfk_coproduct(x)) != ln.ln_coproduct(ab_x):
                return False, w
            if abelianize_ncf(bfk_antipode(x), "diffeo") != ln.ln_antipode(ab_x):
                return False, w
    return True, None


@lru_cache(maxsize=None)
def bfk_generator_checks(m: int) -> tuple:
    """The Hopf axioms at Z_m as ((name, ok), ...): coassociativity, the left
    and right antipode convolutions, and the counit."""
    if m < 1:
        raise InputError(f"generators are Z_1, Z_2, ..., got Z_{m}")
    gen = NCF.gen(m)
    return (
        (f"coassociativity Z[{m}]", not bfk_coassociativity_gap(gen)),
        (f"antipode left Z[{m}]", bfk_convolution(gen, left_antipode=True) == 0),
        (f"antipode right Z[{m}]", bfk_convolution(gen, left_antipode=False) == 0),
        (f"counit Z[{m}]", bfk_counit(gen) == 0),
    )
