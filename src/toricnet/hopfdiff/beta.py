"""One-parameter deformation b^H(T) = exp(beta * Psi(T)).

beta may be a rational number (coefficients stay in the free algebra) or the
formal symbol "beta", in which case coefficients live in BetaNCF, the free
algebra with an adjoined central polynomial variable. beta = 0 gives the
constant series 1; beta = 1 gives exp(Psi(T)), the grouplike series whose
logarithm collects the noncommutative power sums.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InputError
from ..exactcore import TruncSeries
from ..exactcore.terms import Terms, key_str
from ..ncsf import NCF, psi_series
from ..ncsf.nsym import _check_word, slotwise_add
from .sizes import check_order


def _check_beta_key(key) -> tuple:
    k, w = key
    k = int(k)
    if k < 0:
        raise ValueError(f"beta exponent must be >= 0: {k}")
    return (k, _check_word(w))


class BetaNCF(Terms):
    """Free-algebra element with polynomial beta coefficients.

    terms: (beta_exponent, word) -> rational. beta is central; exponents add
    and words concatenate, slot by slot as in TensorNCF.
    """

    __slots__ = ()

    _unit_key = (0, ())
    _check_key = staticmethod(_check_beta_key)

    @staticmethod
    def _order(key):
        return key

    def _key_str(self, key) -> str:
        k, w = key
        beta = "" if k == 0 else ("b" if k == 1 else f"b^{k}")
        return beta + key_str("Z", w)

    @classmethod
    def from_ncf(cls, x: NCF, beta_exp: int = 0) -> "BetaNCF":
        return cls({(beta_exp, w): c for w, c in x.terms.items()})

    def eval_beta(self, value) -> NCF:
        """Substitute a rational value for beta."""
        value = Fraction(value)
        out: dict = {}
        for (k, w), c in self.terms.items():
            t = c * value**k
            out[w] = out[w] + t if w in out else t
        return NCF(out)

    def __mul__(self, other):
        if not isinstance(other, BetaNCF):
            return super().__mul__(other)
        return self._product(other, slotwise_add)


def beta_deform(beta, order: int) -> TruncSeries:
    """exp(beta * Psi(T)) to T^order.

    beta: a rational (int/Fraction) for a numeric specialization, or the
    string "beta" for the formal parameter. Returns a grouplike-normalized
    series (constant term 1) over NCF or BetaNCF accordingly.
    """
    check_order(order)
    psi = psi_series(order)
    if isinstance(beta, str):
        if beta != "beta":
            raise InputError(f"formal parameter must be named 'beta', got {beta!r}")
        lifted = psi.map_coeffs(lambda c: BetaNCF.from_ncf(c, beta_exp=1), ring=BetaNCF)
        return lifted.exp()
    scaled = psi.scale(Fraction(beta))
    return scaled.exp()
