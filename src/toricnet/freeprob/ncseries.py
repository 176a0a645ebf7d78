"""Noncommutative cumulant generating series via the free-algebra antipode.

Raw form: S(x) = antipode of Z(-x) applied coefficientwise to the
diffeo-normalized series, so S(x) = -x - Z_1 x^2 + (Z_2 - 2 Z_1^2) x^3 + ...
The normalized reading divides out the leading -x multiplicatively and flips
x -> -x, which is the unique sign convention whose abelianization Z_i -> m_i
reproduces the commutative free cumulants (k_1 = Z_1, k_2 = Z_2 - Z_1^2).
Both forms are returned; neither is privileged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..exactcore import TruncSeries
from ..hopfdiff import bfk_antipode
from ..hopfdiff.fgl import check_order
from ..ncsf import z_series


class NCCumulants(NamedTuple):
    raw: TruncSeries
    normalized: TruncSeries


def _flip_sign(f: TruncSeries) -> TruncSeries:
    """Substitute x -> -x."""
    return TruncSeries(
        f.ring, f.order, 1, {e: c * (-1) ** e[0] for e, c in f.coeffs.items()}
    )


@lru_cache(maxsize=None)
def nc_cumulant_series(order: int) -> NCCumulants:
    """The antipode-of-Z(-x) series and its unit-normalized companion.

    Memoised per order, like ``fgl_over_N``; an out-of-range order raises
    before any entry is stored.
    """
    check_order(order)
    # one extra order so shift_down still leaves x^order intact
    z = z_series(order + 1, "diffeo")
    raw = _flip_sign(z).map_coeffs(bfk_antipode)
    unit_form = (-raw).shift_down().mult_inverse()
    return NCCumulants(raw=raw.truncate(order), normalized=_flip_sign(unit_form))
