"""Brute-force partition oracles for the cumulant transforms.

These enumerate non-crossing respectively arbitrary set partitions and sum
products of cumulants over blocks. Slow but independent of the series-based
transforms in ``toricnet.freeprob``, which is the point: this module imports
nothing from toricnet.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

Partition = tuple[tuple[int, ...], ...]


def _nc_rec(elements: tuple[int, ...]) -> list[Partition]:
    if not elements:
        return [()]
    first, rest = elements[0], elements[1:]
    out: list[Partition] = []
    for k in range(len(rest) + 1):
        for chosen in combinations(rest, k):
            block = (first,) + chosen
            # remaining elements fall into gaps between consecutive block
            # members; non-crossing forces each gap to close independently
            gaps: list[list[int]] = [[] for _ in range(len(block))]
            for e in rest:
                if e in chosen:
                    continue
                gaps[bisect_left(block, e) - 1].append(e)
            pieces = [_nc_rec(tuple(g)) for g in gaps]
            partial: list[Partition] = [(block,)]
            for piece in pieces:
                partial = [p + q for p in partial for q in piece]
            out.extend(partial)
    return out


def nc_partition_oracle(n: int) -> list[Partition]:
    """All non-crossing partitions of {1..n}; |result| = Catalan(n)."""
    if n < 0 or n > 10:
        raise ValueError("non-crossing enumeration capped at n = 10")
    return _nc_rec(tuple(range(1, n + 1)))


def set_partitions(n: int) -> list[Partition]:
    """All set partitions of {1..n}; |result| = Bell(n)."""
    if n < 0 or n > 10:
        raise ValueError("set partition enumeration capped at n = 10")
    parts: list[list[list[int]]] = [[]]
    for e in range(1, n + 1):
        grown: list[list[list[int]]] = []
        for p in parts:
            for i in range(len(p)):
                grown.append([b + [e] if j == i else list(b) for j, b in enumerate(p)])
            grown.append([list(b) for b in p] + [[e]])
        parts = grown
    return [tuple(tuple(b) for b in p) for p in parts]


def _moment_sum(partitions: list[Partition], kappa) -> Fraction:
    total = Fraction(0)
    for p in partitions:
        prod = Fraction(1)
        for block in p:
            prod *= Fraction(kappa[len(block) - 1])
        total += prod
    return total


def moment_from_free_cumulants(kappa, n: int) -> Fraction:
    """m_n = sum over non-crossing partitions of prod kappa_{|block|}."""
    if n == 0:
        return Fraction(1)
    return _moment_sum(nc_partition_oracle(n), list(kappa))


def moment_from_classical_cumulants(kappa, n: int) -> Fraction:
    """m_n = sum over all set partitions of prod kappa_{|block|}."""
    if n == 0:
        return Fraction(1)
    return _moment_sum(set_partitions(n), list(kappa))
