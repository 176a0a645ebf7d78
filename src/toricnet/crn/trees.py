"""Tree constants K_i of each linkage class.

K_i sums, over spanning trees of i's linkage class with every edge oriented
toward i, the product of edge rates. With numeric rates K_i is a principal
cofactor of the class block of the rate matrix (the matrix-tree theorem),
taken by fraction-free elimination at every class size. With symbolic rates
the arborescences are enumerated by backtracking over parent assignments,
one monomial per tree; that is capped at classes of ENUMERATION_CAP
complexes.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InputError, NotWeaklyReversible
from ..exactcore import SparsePoly, ff_determinant
from .network import _rate_entry, linkage_classes, strong_components
from .parser import Network

ENUMERATION_CAP = 8


def _class_edges(net: Network, cls: list[int], bindings, symbolic: bool) -> dict:
    """(source, target) -> summed weight, restricted to one linkage class."""
    member = set(cls)
    edges: dict = {}
    for r in net.reactions:
        if r.source in member:
            w = _rate_entry(r.rate, net, bindings, symbolic)
            key = (r.source, r.target)
            edges[key] = edges[key] + w if key in edges else w
    return edges


def _in_trees(nodes: list[int], edges: dict, root: int) -> SparsePoly:
    """Sum over the arborescences converging to root of their edge products.

    A weight of several terms (parallel reactions, k1 + k2) is split into
    parallel single-term edges first, which by distributivity gives the same
    sum. The walk then carries exponent counts and a coefficient product, so
    each tree costs one monomial and no polynomial product.
    """
    others = [v for v in nodes if v != root]
    out_choices = {v: [] for v in others}
    for (s, t), w in edges.items():
        if s != root:
            out_choices[s].extend((t, m, c) for m, c in w.terms.items())
    parent: dict = {}
    powers: dict = {}
    out: dict = {}

    def walk_hits(start: int, candidate: int) -> bool:
        # would candidate as start's parent close a cycle?
        v = candidate
        while v in parent:
            v = parent[v]
            if v == start:
                return True
        return False

    def rec(i: int, coeff) -> None:
        if i == len(others):
            m = tuple(sorted(powers.items()))
            out[m] = out[m] + coeff if m in out else coeff
            return
        v = others[i]
        for t, m, c in out_choices[v]:
            if t != root and walk_hits(v, t):
                continue
            parent[v] = t
            for name, exp in m:
                powers[name] = powers.get(name, 0) + exp
            rec(i + 1, coeff * c)
            for name, exp in m:
                if powers[name] == exp:
                    del powers[name]
                else:
                    powers[name] -= exp
            del parent[v]

    rec(0, 1)
    return SparsePoly._trusted(out)


def matrix_tree_cofactor(block, root: int, row: int):
    """(-1)^(nu-1) * (-1)^(root+row) * det(block minus column root, row `row`).

    For a column-sum-zero class block this equals K_root for EVERY choice of
    deleted row; the checkerboard sign is what makes the choice immaterial.
    """
    nu = len(block)
    minor = [
        [block[r][c] for c in range(nu) if c != root]
        for r in range(nu)
        if r != row
    ]
    sign = (-1) ** (nu - 1) * (-1) ** (root + row)
    det = ff_determinant(minor) if minor else (
        SparsePoly.one() if isinstance(block[0][0], SparsePoly) else 1
    )
    return det * sign


def tree_constants(net: Network, bindings: dict | None = None) -> list:
    """K_i for every complex i; SparsePoly when symbolic, a rational otherwise."""
    symbolic = bindings is None and any(isinstance(r.rate, str) for r in net.reactions)
    classes = linkage_classes(net)
    strong = {tuple(c) for c in strong_components(net)}
    out: list = [None] * net.n_complexes
    for cls in classes:
        if tuple(cls) not in strong:
            raise NotWeaklyReversible(
                f"linkage class {{{', '.join(net.complex_label(i) for i in cls)}}} "
                "is not strongly connected"
            )
        if symbolic and len(cls) > ENUMERATION_CAP:
            raise InputError(
                f"class of {len(cls)} complexes: symbolic tree constants "
                f"are capped at {ENUMERATION_CAP}, pass numeric bindings"
            )
        edges = _class_edges(net, cls, bindings, symbolic)
        if symbolic:
            for root in cls:
                out[root] = _in_trees(cls, edges, root)
            continue
        # the class block of the rate matrix: A[t][s] = rate(s -> t), and
        # each column sums to zero
        pos = {v: i for i, v in enumerate(cls)}
        block = [[Fraction(0)] * len(cls) for _ in cls]
        for (s, t), w in edges.items():
            block[pos[t]][pos[s]] = w
            block[pos[s]][pos[s]] -= w
        for i, root in enumerate(cls):
            out[root] = matrix_tree_cofactor(block, i, i)
    return out
