"""Compositions (ordered partitions) and partitions used as basis indices."""

from __future__ import annotations

from functools import lru_cache

from ..errors import InputError


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of n in lexicographic order.

    There are 2^(n-1) of them for n >= 1; n = 0 gives the empty composition,
    which acts as the unit index everywhere.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n (weakly decreasing), largest first part first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def weight(alpha: tuple[int, ...]) -> int:
    return sum(alpha)


def to_partition(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Underlying partition of a composition (parts sorted decreasingly)."""
    return tuple(sorted(alpha, reverse=True))


def check_composition(alpha) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if any(a < 1 for a in alpha):
        raise InputError(f"composition parts must be positive: {alpha}")
    return alpha


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(int(a) for a in lam)
    if any(a < 1 for a in lam):
        raise InputError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InputError(f"partition parts must be weakly decreasing: {lam}")
    return lam
