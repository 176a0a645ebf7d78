"""Delzant polytopes {x : <a_i, x> >= lambda_i} and their quasitoric data.

Boundedness is a lattice question: a recession ray is the one-line integer
kernel of n-1 normals with every normal on one side of it. A vertex solves n
facet equations: of the rows (a_i, -lambda_i) cleared to integers, n rows
(A | -lambda') with A nonsingular meet in x = X / w, where (X, w) =
(adj(A) * lambda', det A) from one fraction-free elimination spans their
kernel, and x is a vertex when every row lies on its inner side. The
polytope must be bounded and simple. The dual boundary complex plus the
normals-as-columns matrix is the quasitoric data; it is smooth when each
facet minor (a vertex's normals) has |det| = 1 in the data's validation
pass, and the Smith form of a failing minor names the refusal's divisors.
The normalized symplectic class is sum(-lambda_i) v_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from ..errors import InputError, NonSmooth
from ..exactcore import clear_denominators, cramer, lattice_kernel, smith_normal_form
from .complexes import SimplicialComplex, integer_rows
from .quasitoric import QuasitoricData

MAX_FACETS = 12


@dataclass(frozen=True)
class DelzantPolytope:
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        normals = integer_rows(self.normals, "normal")
        for x in self.offsets:
            if isinstance(x, bool):  # equals 0 or 1, refused as integer_rows refuses it
                raise InputError(f"offsets must be int or Fraction, got {x!r}")
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"offsets must be int or Fraction, got {x!r}")
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
    if lattice_kernel(p.normals):
        return True  # lineality space
    # a pointed cone != {0} has an extreme ray tight on n-1 independent rows
    for subset in combinations(p.normals, p.dim - 1):
        kernel = lattice_kernel(subset) if subset else [[1]]
        if len(kernel) != 1:
            continue
        values = [sum(ai * yi for ai, yi in zip(a, kernel[0])) for a in p.normals]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            return True
    return False


def polytope_vertices(p: DelzantPolytope) -> list[tuple]:
    """(vertex, active facet index set) pairs, exact."""
    if p.m > MAX_FACETS:
        raise InputError(f"facet count {p.m} exceeds the enumeration cap {MAX_FACETS}")
    n = p.dim
    rows, _ = clear_denominators([(*a, -lam) for a, lam in zip(p.normals, p.offsets)])
    found: dict = {}
    for subset in combinations(rows, n):
        # n facets with independent normals A meet in x = X / w, where
        # (X, w) = (adj(A) * lambda', det A) spans the kernel of the subset
        w, adj = cramer([row[:n] for row in subset], [[-row[n]] for row in subset])
        if w == 0:
            continue
        v = [c for c, in adj] + [w] if w > 0 else [-c for c, in adj] + [-w]  # w > 0
        # row_i . (X, w) = s_i * w * (<a_i, x> - lambda_i), s_i > 0, so >= 0 on the inner side
        values = [sum(r * c for r, c in zip(row, v)) for row in rows]
        if any(value < 0 for value in values):
            continue
        x = tuple(Fraction(c, v[n]) for c in v[:n])
        found[x] = tuple(i for i, value in enumerate(values) if value == 0)
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
    facets = tuple(tuple(i + 1 for i in active) for _, active in verts)
    lam = tuple(tuple(p.normals[i][j] for i in range(p.m)) for j in range(n))
    q = QuasitoricData(SimplicialComplex(p.m, facets), lam)
    rep = q.validate()
    bad: list[int] = []
    for f, det in zip(q.complex.facets, rep.dets):
        if det * det != 1:  # not smooth: the Smith form names the divisors
            divisors = smith_normal_form([[row[v - 1] for v in f] for row in lam])
            bad.extend(d for d in divisors if d != 1)
    if bad:
        raise NonSmooth(sorted(bad))
    if not rep.valid:
        raise InputError("polytope data fails validation: " + "; ".join(rep.issues))
    u = [-lam_i for lam_i in p.offsets]
    return q, u
