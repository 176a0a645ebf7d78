"""The largest sizes of the Hopf computations, one range check per size.

Each cap keeps a cold request under about a second; the costs in the comments
are the cold times of the slower algebra or target at the cap.
"""

from __future__ import annotations

from ..errors import InputError

ORDER_CAP = 8  # the largest order of fgl_over_N, beta_deform and nc_cumulant_series
DEGREE_CAP = 16  # hopf coproduct and antipode --degree: bfk's antipode takes about 1 s
WEIGHT_CAP = 12  # hopf verify --max-weight: bfk takes 0.3 s, and 1.3 s at 14
COACTION_CAP = 24  # hopf coaction --degree: 0.1 s, 3.7 s at 40 and over a minute at 60


def _check_range(word: str, value: int, least: int, cap: int) -> int:
    if not least <= value <= cap:
        raise InputError(f"{word} must be between {least} and {cap}, got {value}")
    return value


def check_order(order: int, least: int = 1) -> int:
    """``order``, refused with InputError outside least..ORDER_CAP."""
    return _check_range("order", order, least, ORDER_CAP)


def check_degree(degree: int) -> int:
    """A generator degree of ``hopf coproduct`` or ``antipode``, 1..DEGREE_CAP."""
    return _check_range("degree", degree, 1, DEGREE_CAP)


def check_max_weight(weight: int) -> int:
    """The largest weight ``hopf verify`` checks, 1..WEIGHT_CAP."""
    return _check_range("max weight", weight, 1, WEIGHT_CAP)


def check_coaction_degree(degree: int) -> int:
    """A generator degree of ``hopf coaction``, 1..COACTION_CAP; degree 0 is
    the unit, whose image is 1, and no generator."""
    return _check_range("degree", degree, 1, COACTION_CAP)
