"""Structural analysis: rate matrix, linkage classes, deficiency, Cayley matrix.

Index convention: the rate matrix entry (k, l) holds the total rate of
reactions l -> k, so columns sum to zero and cdot = Y * A * Psi(c) is mass
action. Linkage classes are weakly connected components; weak reversibility
means every class is a single strong component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import InputError, InternalError
from ..exactcore import SparsePoly, rank
from .parser import Network


def resolve_rate(rate, net: Network, bindings: dict | None):
    """Numeric value of one rate; user bindings win over inline ones."""
    if not isinstance(rate, str):
        return Fraction(rate)
    merged = dict(net.bindings)
    merged.update(bindings or {})
    if rate not in merged:
        raise InputError(f"unbound rate symbol {rate!r}")
    value = Fraction(merged[rate])
    if value <= 0:
        raise InputError(f"rate {rate!r} must be positive, got {value}")
    return value


def symbolic_rates(net: Network, bindings: dict | None) -> bool:
    """Whether rate-matrix entries are SparsePoly in the rate names: no
    bindings given, and some rate is a name."""
    return bindings is None and any(isinstance(r.rate, str) for r in net.reactions)


def build_rate_matrix(net: Network, bindings: dict | None = None):
    """n x n rate matrix A with A[k][l] = rate(l -> k), columns summing to zero.

    Entries are SparsePoly in the rate names when ``symbolic_rates``, and
    Fractions otherwise, each rate resolved once. Parallel edges sum.
    """
    n = net.n_complexes
    if not symbolic_rates(net, bindings):
        a = [[Fraction(0)] * n for _ in range(n)]
        for r in net.reactions:
            w = resolve_rate(r.rate, net, bindings)
            a[r.target][r.source] += w
            a[r.source][r.source] -= w
        return a
    # summed as {monomial: coefficient} dicts, each nonzero entry wrapped once
    cells = [[{} for _ in range(n)] for _ in range(n)]
    for r in net.reactions:
        m, c = (((r.rate, 1),), 1) if isinstance(r.rate, str) else ((), Fraction(r.rate))
        for cell, sign in ((cells[r.target][r.source], 1), (cells[r.source][r.source], -1)):
            cell[m] = cell.get(m, 0) + sign * c
    zero = SparsePoly.zero()
    return [[SparsePoly._trusted(cell) if cell else zero for cell in row] for row in cells]


def _mutual_reach(n: int, arcs) -> list[list[int]]:
    """Classes of mutual reachability along ``arcs`` ((source, target) pairs)
    on nodes 0..n-1, each sorted, ordered by smallest member."""
    out = [set() for _ in range(n)]
    for s, t in arcs:
        out[s].add(t)
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    placed = [False] * n
    classes = []
    for v in range(n):
        if not placed[v]:
            comp = [w for w in sorted(reach[v]) if v in reach[w]]
            for w in comp:
                placed[w] = True
            classes.append(comp)
    return classes


def linkage_classes(net: Network) -> list[list[int]]:
    """Weakly connected components: mutual reachability with every reaction
    also read backwards. Each class sorted, ordered by smallest member."""
    arcs = [(r.source, r.target) for r in net.reactions]
    return _mutual_reach(net.n_complexes, arcs + [(t, s) for s, t in arcs])


def strong_components(net: Network) -> list[list[int]]:
    """Strongly connected components: mutual reachability along the
    reactions, sorted like the linkage classes."""
    return _mutual_reach(net.n_complexes, [(r.source, r.target) for r in net.reactions])


def is_weakly_reversible(net: Network) -> bool:
    return linkage_classes(net) == strong_components(net)


def stoichiometric_matrix(net: Network) -> list[list[int]]:
    """s x r integer matrix, one column Y_target - Y_source per reaction."""
    cols = []
    for r in net.reactions:
        src, tgt = net.complexes[r.source], net.complexes[r.target]
        cols.append([t - s for s, t in zip(src, tgt)])
    return [[cols[j][i] for j in range(len(cols))] for i in range(net.n_species)]


def stoichiometric_rank(net: Network) -> int:
    return rank(stoichiometric_matrix(net))


def cayley_matrix(net: Network) -> list[list[int]]:
    """(s + l) x n integer matrix: Y on top, linkage-class indicators below."""
    return _cayley(net, linkage_classes(net))


def _cayley(net: Network, classes) -> list[list[int]]:
    n = net.n_complexes
    top = [[net.complexes[col][row] for col in range(n)] for row in range(net.n_species)]
    return top + [[1 if col in cls else 0 for col in range(n)] for cls in classes]


@dataclass(frozen=True)
class NetworkAnalysis:
    linkage_classes: tuple
    strong_components: tuple
    weakly_reversible: bool
    stoich_rank: int
    deficiency: int
    cayley: tuple


def deficiency(net: Network) -> int:
    """delta = n - l - s', cross-checked against n - rank(Cayley)."""
    return analyze(net).deficiency


def analyze(net: Network) -> NetworkAnalysis:
    """Every structural invariant, each piece computed once; the deficiency
    n - l - s' is cross-checked against n - rank(Cayley)."""
    linkage = linkage_classes(net)
    strong = strong_components(net)
    s_rank = stoichiometric_rank(net)
    cay = _cayley(net, linkage)
    n = net.n_complexes
    delta = n - len(linkage) - s_rank
    delta_rank = n - rank(cay)
    if delta != delta_rank:
        raise InternalError(
            f"deficiency formulas disagree: n-l-s'={delta}, n-rank(Cayley)={delta_rank}"
        )
    return NetworkAnalysis(
        linkage_classes=tuple(map(tuple, linkage)),
        strong_components=tuple(map(tuple, strong)),
        weakly_reversible=linkage == strong,
        stoich_rank=s_rank,
        deficiency=delta,
        cayley=tuple(map(tuple, cay)),
    )
