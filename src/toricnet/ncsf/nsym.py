"""Noncommutative symmetric functions.

``NCF`` is the free associative Q-algebra on generators Z_1, Z_2, ...; a word
(i_1, ..., i_k) stands for the product Z_{i_1} ... Z_{i_k} and has weight
i_1 + ... + i_k. ``TensorNCF`` is its tensor square. Either class is itself
a ``TruncSeries`` coefficient ring.

The coproduct here is the one dual to the quasi-shuffle product on the
monomial quasisymmetric basis: Delta Z_i = sum_{j+k=i} Z_j (x) Z_k with
Z_0 = 1, extended multiplicatively. The Cartier analogues of the complete
and power-sum families are built from the grouplike-normalized series
Z(T) = 1 + Z_1 T + Z_2 T^2 + ...
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from ..errors import InputError
from ..exactcore import TruncSeries
from ..exactcore.terms import Terms, algebra_map, key_str

Word = tuple  # tuple of positive ints


def _check_word(w) -> Word:
    w = tuple(int(i) for i in w)
    if any(i < 1 for i in w):
        raise InputError(f"generator indices must be positive: {w}")
    return w


class NCF(Terms):
    """Element of the free algebra on Z_1, Z_2, ... over Q."""

    __slots__ = ()

    _check_key = staticmethod(_check_word)

    def _key_str(self, w) -> str:
        return key_str("Z", w)

    @classmethod
    def gen(cls, i: int) -> "NCF":
        """Z_i, with Z_0 = 1."""
        if i == 0:
            return cls.one()
        return cls({(i,): 1})

    @classmethod
    def word(cls, w, coeff=1) -> "NCF":
        return cls({tuple(w): coeff})

    # Its own def, not inherited: perfbench/tracer.py patches NCF.__add__ by
    # identity in the class namespace.
    def __add__(self, other):
        return super().__add__(other)

    def __mul__(self, other):
        if not isinstance(other, NCF):
            return super().__mul__(other)
        return self._product(other, add)

    def graded_piece(self, wt: int) -> "NCF":
        return NCF({w: c for w, c in self.terms.items() if sum(w) == wt})

    def max_weight(self) -> int:
        return max((sum(w) for w in self.terms), default=0)


def _check_pair(key) -> tuple:
    w1, w2 = key
    return (_check_word(w1), _check_word(w2))


def slotwise_add(a: tuple, b: tuple) -> tuple:
    """Product of two-slot keys: each slot adds (words concatenate)."""
    return (a[0] + b[0], a[1] + b[1])


class TensorNCF(Terms):
    """Tensor square of NCF: terms (word, word) -> Q, factorwise product."""

    __slots__ = ()

    _unit_key = ((), ())
    _check_key = staticmethod(_check_pair)

    @staticmethod
    def _order(key):
        return (sum(key[0]) + sum(key[1]), key)

    def _key_str(self, key) -> str:
        return f"{key_str('Z', key[0])}(x){key_str('Z', key[1])}"

    @classmethod
    def pure(cls, x: NCF, y: NCF) -> "TensorNCF":
        out = {}
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                out[(w1, w2)] = c1 * c2
        return cls(out)

    def __mul__(self, other):
        if not isinstance(other, TensorNCF):
            return super().__mul__(other)
        return self._product(other, slotwise_add)

    def flip(self) -> "TensorNCF":
        return TensorNCF({(w2, w1): c for (w1, w2), c in self.terms.items()})


# -- structure maps dual to the quasi-shuffle product ------------------------


@lru_cache(maxsize=None)
def _gen_coproduct(i: int) -> TensorNCF:
    # Delta Z_i = sum_{j+k=i, j,k>=0} Z_j (x) Z_k, Z_0 = 1
    out = {}
    for j in range(i + 1):
        w1 = (j,) if j else ()
        w2 = (i - j,) if i - j else ()
        out[(w1, w2)] = 1
    return TensorNCF(out)


def nsf_product(x: NCF, y: NCF) -> NCF:
    return x * y


def nsf_coproduct(x: NCF) -> TensorNCF:
    """Multiplicative extension of Delta Z_i = sum_{j+k=i} Z_j (x) Z_k."""
    return algebra_map(x, _gen_coproduct, TensorNCF.one())


# -- grouplike-normalized generating series and the Cartier families ---------


def z_series(order: int, normalization: str = "grouplike") -> TruncSeries:
    """The generating series of the Z_i over NCF.

    grouplike: 1 + Z_1 T + Z_2 T^2 + ...   (multiplicative contexts)
    diffeo:    T + Z_1 T^2 + Z_2 T^3 + ... (compositional contexts)
    """
    if normalization == "grouplike":
        coeffs = {(0,): NCF.one()}
        coeffs.update({(k,): NCF.gen(k) for k in range(1, order + 1)})
    elif normalization == "diffeo":
        coeffs = {(k,): NCF.gen(k - 1) for k in range(1, order + 1)}
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    return TruncSeries(NCF, order, 1, coeffs)


def sigma_series(n_max: int) -> TruncSeries:
    """Solution of Sigma(T) * Z(-T) = 1 with the grouplike normalization."""
    z = z_series(n_max)
    z_neg = TruncSeries(
        NCF, n_max, 1, {e: c * (-1) ** e[0] for e, c in z.coeffs.items()}
    )
    return z_neg.mult_inverse()


def psi_series(n_max: int, side: str = "right") -> TruncSeries:
    """T * Z'(T) * Z(T)^(-1) (side="right"), or T * Z(T)^(-1) * Z'(T).

    Grouplike normalization; the result has zero constant term and its T^k
    coefficient is the k-th noncommutative power sum.
    """
    z = z_series(n_max + 1)
    zp = z.derivative()  # order n_max
    zinv = z.truncate(n_max).mult_inverse()
    t = TruncSeries.var(NCF, n_max)
    if side == "right":
        return t * zp * zinv
    if side == "left":
        return t * zinv * zp
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def cartier(n_max: int, side: str = "right") -> tuple[list[NCF], list[NCF]]:
    """The families (Sigma_1..Sigma_n, Psi_1..Psi_n) as NCF elements."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sig = sigma_series(n_max)
    psi = psi_series(n_max, side)
    sigmas = [sig.coeff(k) for k in range(1, n_max + 1)]
    psis = [psi.coeff(k) for k in range(1, n_max + 1)]
    return sigmas, psis
