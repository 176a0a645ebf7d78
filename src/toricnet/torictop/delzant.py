"""Delzant polytopes {x : <a_i, x> >= lambda_i} and their quasitoric data.

Vertices come from exact linear solves over all n-subsets of facets; the
polytope must be bounded and simple, and each vertex's normal set must be
unimodular. The dual boundary complex plus the normals-as-columns matrix is
the quasitoric data; the normalized symplectic class is sum(-lambda_i) v_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from ..errors import InputError, NonSmooth
from ..exactcore import rank, rational_rref, right_kernel_rational, smith_normal_form
from .complexes import SimplicialComplex
from .quasitoric import QuasitoricData

MAX_FACETS = 12


@dataclass(frozen=True)
class DelzantPolytope:
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        normals = tuple(tuple(int(x) for x in a) for a in self.normals)
        offsets = tuple(Fraction(x) for x in self.offsets)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        if not normals:
            raise InputError("need at least one facet")
        n = len(normals[0])
        if any(len(a) != n for a in normals):
            raise InputError("normals must share one dimension")
        if len(offsets) != len(normals):
            raise InputError("need one offset per normal")
        for a in normals:
            if all(x == 0 for x in a):
                raise InputError("zero normal vector")
            if gcd(*(abs(x) for x in a)) != 1:
                raise InputError(f"normal {a} is not primitive")

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    @property
    def m(self) -> int:
        return len(self.normals)


def _is_unbounded(p: DelzantPolytope) -> bool:
    """True when the recession cone {y : <a_i, y> >= 0} is nontrivial."""
    a = [[Fraction(x) for x in row] for row in p.normals]
    n = p.dim
    if rank(a) < n:
        return True  # lineality space
    # a pointed cone != {0} has an extreme ray tight on n-1 independent rows
    for subset in combinations(range(p.m), n - 1):
        rows = [a[i] for i in subset]
        kernel = right_kernel_rational(rows) if rows else [[Fraction(1)]]
        if len(kernel) != 1:
            continue
        y = kernel[0]
        for cand in (y, [-v for v in y]):
            if all(sum(ai * yi for ai, yi in zip(row, cand)) >= 0 for row in a):
                return True
    return False


def polytope_vertices(p: DelzantPolytope) -> list[tuple]:
    """(vertex, active facet index set) pairs, exact."""
    if p.m > MAX_FACETS:
        raise InputError(f"facet count {p.m} exceeds the enumeration cap {MAX_FACETS}")
    n = p.dim
    found: dict = {}
    for subset in combinations(range(p.m), n):
        # independent normals meet in one point, read off the last column
        R, pivots = rational_rref([[*p.normals[i], p.offsets[i]] for i in subset])
        if pivots != list(range(n)):
            continue
        x = [row[n] for row in R]
        values = [sum(ai * xi for ai, xi in zip(row, x)) for row in p.normals]
        if any(v < lam for v, lam in zip(values, p.offsets)):
            continue
        found[tuple(x)] = tuple(i for i, (v, lam) in enumerate(zip(values, p.offsets)) if v == lam)
    return sorted(found.items())


def delzant_to_quasitoric(p: DelzantPolytope) -> tuple[QuasitoricData, list[Fraction]]:
    """Quasitoric data of a Delzant polytope plus the class sum(-lambda_i) v_i."""
    if _is_unbounded(p):
        raise InputError("polytope is unbounded")
    verts = polytope_vertices(p)
    if not verts:
        raise InputError("polytope has no vertices")
    n = p.dim
    for x, active in verts:
        if len(active) != n:
            raise InputError(
                f"vertex {tuple(str(c) for c in x)} lies on {len(active)} facets, "
                f"polytope is not simple"
            )
    covered = {i for _, active in verts for i in active}
    missing = [i + 1 for i in range(p.m) if i not in covered]
    if missing:
        raise InputError(f"redundant facet(s) {missing}: never active at a vertex")
    bad: list[int] = []
    for x, active in verts:
        divisors = smith_normal_form([[p.normals[i][j] for i in active] for j in range(n)])
        bad.extend(d for d in divisors if d != 1)
    if bad:
        raise NonSmooth(sorted(bad))
    facets = tuple(tuple(i + 1 for i in active) for _, active in verts)
    k = SimplicialComplex(p.m, facets)
    lam = tuple(tuple(p.normals[i][j] for i in range(p.m)) for j in range(n))
    q = QuasitoricData(k, lam)
    rep = q.validate()
    if not rep.valid:
        raise InputError("polytope data fails validation: " + "; ".join(rep.issues))
    u = [-lam_i for lam_i in p.offsets]
    return q, u
