"""Tree constants K_i by direct arborescence enumeration.

K_i sums, over spanning trees of i's linkage class with every edge oriented
toward i, the product of edge rates. Enumeration backtracks over parent
assignments (fine for classes of <= 8 complexes); bigger classes are handled
by exact determinant minors instead, numeric rates only.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InputError, NotWeaklyReversible
from ..exactcore import SparsePoly, ff_determinant
from .network import _rate_entry, build_rate_matrix, linkage_classes, strong_components
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


def _in_trees(nodes: list[int], edges: dict, root: int, one):
    """Edge-weight products of all arborescences converging to root."""
    others = [v for v in nodes if v != root]
    out_choices = {
        v: [(t, w) for (s, t), w in edges.items() if s == v] for v in others
    }
    parent: dict = {}

    def walk_hits(start: int, candidate: int) -> bool:
        # would candidate as start's parent close a cycle?
        v = candidate
        while v in parent:
            v = parent[v]
            if v == start:
                return True
        return False

    def rec(i: int, acc):
        if i == len(others):
            yield acc
            return
        v = others[i]
        for t, w in out_choices[v]:
            if t != root and walk_hits(v, t):
                continue
            parent[v] = t
            yield from rec(i + 1, acc * w)
            del parent[v]

    return rec(0, one)


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
    sign = Fraction((-1) ** (nu - 1) * (-1) ** (root + row))
    det = ff_determinant(minor) if minor else (
        SparsePoly.one() if isinstance(block[0][0], SparsePoly) else Fraction(1)
    )
    return det * sign


def tree_constants(net: Network, bindings: dict | None = None) -> list:
    """K_i for every complex i; SparsePoly when symbolic, Fraction otherwise."""
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
        if len(cls) > ENUMERATION_CAP:
            if symbolic:
                raise InputError(
                    f"class of {len(cls)} complexes: symbolic tree constants "
                    f"are capped at {ENUMERATION_CAP}, pass numeric bindings"
                )
            rates = build_rate_matrix(net, bindings)
            block = [[rates[r][c] for c in cls] for r in cls]
            for i, root in enumerate(cls):
                out[root] = matrix_tree_cofactor(block, i, i)
            continue
        edges = _class_edges(net, cls, bindings, symbolic)
        for root in cls:
            if symbolic:
                out[root] = SparsePoly.sum(_in_trees(cls, edges, root, SparsePoly.one()))
            else:
                out[root] = sum(_in_trees(cls, edges, root, Fraction(1)), Fraction(0))
    return out
