"""Simplicial complexes given by facet lists, with a sphere test battery.

Full PL-sphere recognition is out of reach; the battery checks what is
checkable: pure dimension, the ridge (pseudomanifold) condition, facet-graph
connectivity, the Euler characteristic of a sphere, and orientability via
sign propagation. Every check that ran is named in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from ..errors import InputError


def _integer(x, name: str) -> int:
    # a bool equals 0 or 1 but is no integer entry
    try:
        i = None if isinstance(x, bool) else int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise InputError(f"{name} entries must be integers, got {x!r}")
    return i


def integer_rows(rows, name: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples of ints; an entry that is not a whole number (a
    fractional part, text, None, a bool) is refused with InputError, not
    truncated or read as 0 or 1."""
    out = []
    for row in rows:
        try:
            row = tuple(row)
        except TypeError:
            raise InputError(f"each {name} must be a row of integers, got {row!r}") from None
        out.append(tuple(_integer(x, name) for x in row))
    return tuple(out)


@dataclass(frozen=True)
class SimplicialComplex:
    m: int  # vertices are 1..m
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        facets = integer_rows(self.facets, "facet")
        cleaned = tuple(sorted(tuple(sorted(set(f))) for f in facets))
        object.__setattr__(self, "facets", cleaned)
        if not cleaned:
            raise InputError("a simplicial complex needs at least one facet")
        for f in cleaned:
            if not f:
                raise InputError("empty facet")
            if f[0] < 1 or f[-1] > self.m:
                raise InputError(f"facet {f} out of vertex range 1..{self.m}")
        if len(set(cleaned)) != len(cleaned):
            raise InputError("duplicate facet")

    @property
    def n(self) -> int:
        """Facet size (dimension + 1); meaningful for pure complexes."""
        return len(self.facets[0])

    def faces(self) -> set[tuple[int, ...]]:
        """Every face, including the empty one."""
        out: set = set()
        for f in self.facets:
            for k in range(len(f) + 1):
                out.update(combinations(f, k))
        return out

    def is_face(self, vertices) -> bool:
        want = set(vertices)
        return any(want.issubset(f) for f in self.facets)


@dataclass
class ValidityReport:
    valid: bool = True
    issues: list = field(default_factory=list)
    checks_run: list = field(default_factory=list)
    orientation: dict | None = None  # orientation_signs, once the complex passes "orientable"
    dets: tuple = ()  # per facet of quasitoric data: det Lambda_sigma
    inverses: tuple = ()  # and the rows of Lambda_sigma^{-1} (where det = +-1)

    def fail(self, message: str) -> None:
        self.valid = False
        self.issues.append(message)


def _ridge_incidence(k: SimplicialComplex) -> dict:
    ridges: dict = {}
    for idx, f in enumerate(k.facets):
        for r in combinations(f, len(f) - 1):
            ridges.setdefault(r, []).append(idx)
    return ridges


def sphere_battery(k: SimplicialComplex, report: ValidityReport | None = None) -> ValidityReport:
    """Pseudomanifold-plus-Euler checks for 'boundary of a sphere' input."""
    rep = report if report is not None else ValidityReport()
    n = len(k.facets[0])

    rep.checks_run.append("pure")
    if any(len(f) != n for f in k.facets):
        rep.fail(f"not pure: facet sizes {sorted({len(f) for f in k.facets})}")
        return rep  # later checks assume purity

    rep.checks_run.append("ridges-in-two-facets")
    ridges = _ridge_incidence(k)
    for r, owners in sorted(ridges.items()):
        if len(owners) != 2:
            rep.fail(
                f"ridge {r} lies in {len(owners)} facet(s), expected 2 "
                f"(facets {[k.facets[i] for i in owners]})"
            )

    rep.checks_run.append("facet-graph-connected")
    if len(k.facets) > 1:
        adj = [set() for _ in k.facets]
        for owners in ridges.values():
            if len(owners) == 2:
                a, b = owners
                adj[a].add(b)
                adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(k.facets):
            rep.fail("facet adjacency graph is disconnected")

    rep.checks_run.append("euler-characteristic")
    counts: dict = {}
    for face in k.faces():
        if face:
            counts[len(face)] = counts.get(len(face), 0) + 1
    chi = sum((-1) ** (size - 1) * cnt for size, cnt in counts.items())
    expected = 1 + (-1) ** (n - 1)
    if chi != expected:
        rep.fail(f"Euler characteristic {chi}, sphere needs {expected}")

    rep.checks_run.append("orientable")
    if rep.valid:
        try:
            rep.orientation = orientation_signs(k)
        except InputError as e:
            rep.fail(str(e))
    return rep


def orientation_signs(k: SimplicialComplex) -> dict:
    """Consistent facet orientations, +1 on the lexicographically least facet.

    Adjacent facets sigma = rho + {a}, tau = rho + {b} get opposite induced
    ridge orientations: o(tau) = -o(sigma) * (-1)^(i+j) with i, j the sorted
    positions of a in sigma and b in tau.
    """
    ridges = _ridge_incidence(k)
    signs = {0: 1}
    stack = [0]
    while stack:
        cur = stack.pop()
        f = k.facets[cur]
        for pos, a in enumerate(f):
            r = f[:pos] + f[pos + 1:]
            owners = ridges[r]
            if len(owners) != 2:
                raise InputError(f"ridge {r} not in exactly two facets")
            other = owners[0] if owners[1] == cur else owners[1]
            g = k.facets[other]
            b = next(v for v in g if v not in r)
            sign = -signs[cur] * (-1) ** (pos + g.index(b))
            if other in signs:
                if signs[other] != sign:
                    raise InputError("orientation propagation is inconsistent")
            else:
                signs[other] = sign
                stack.append(other)
    if len(signs) != len(k.facets):
        raise InputError("orientation did not reach every facet")
    return signs


def join_complexes(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertices of b are shifted past those of a."""
    facets = []
    for fa in a.facets:
        for fb in b.facets:
            facets.append(fa + tuple(v + a.m for v in fb))
    return SimplicialComplex(a.m + b.m, tuple(facets))


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: d+1 vertices, facets all d-subsets (S^(d-1))."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    verts = range(1, d + 2)
    return SimplicialComplex(d + 1, tuple(combinations(verts, d)))
