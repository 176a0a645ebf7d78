"""Tree constants K_i of each linkage class.

K_i sums, over spanning trees of i's linkage class with every edge oriented
toward i, the product of edge rates. Structure comes before rates: every
class is checked for strong connectivity (and, with symbolic rates, against
ENUMERATION_CAP complexes) before any rate is resolved. Then one rate matrix
is built, and both paths read its class blocks. With numeric rates K_i is a
principal cofactor of the block (the matrix-tree theorem), taken by
fraction-free elimination at every class size. With symbolic rates the
arborescences over the block's off-diagonal entries are enumerated by
backtracking over parent assignments, one monomial per tree.
"""

from __future__ import annotations

from ..errors import InputError, NotWeaklyReversible
from ..exactcore import SparsePoly, ff_determinant
from .network import build_rate_matrix, linkage_classes, strong_components, symbolic_rates
from .parser import Network

ENUMERATION_CAP = 8


def _in_trees(block, root: int) -> SparsePoly:
    """Sum over the arborescences converging to root of their edge products,
    the edge s -> t weighing block[t][s] in a symbolic class block.

    A weight of several terms (parallel reactions, k1 + k2) is split into
    parallel single-term edges first, which by distributivity gives the same
    sum. The walk then carries exponent counts and a coefficient product, so
    each tree costs one monomial and no polynomial product.
    """
    nu = len(block)
    others = [v for v in range(nu) if v != root]
    out_choices = {
        s: [(t, m, c) for t in range(nu) if t != s for m, c in block[t][s].terms.items()]
        for s in others
    }
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
    symbolic = symbolic_rates(net, bindings)
    classes = linkage_classes(net)
    strong = {tuple(c) for c in strong_components(net)}
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
    return class_trees(build_rate_matrix(net, bindings), classes, symbolic)


def class_trees(a, classes, symbolic: bool) -> list:
    """K_i for every complex i from the rate matrix ``a`` and its strongly
    connected ``classes``: enumerated arborescences when ``symbolic``, the
    principal cofactors of each class block otherwise."""
    out: list = [None] * len(a)
    for cls in classes:
        block = [[a[t][s] for s in cls] for t in cls]
        for i, root in enumerate(cls):
            out[root] = _in_trees(block, i) if symbolic else matrix_tree_cofactor(block, i, i)
    return out
