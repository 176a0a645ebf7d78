"""Characteristic matrices and top-degree evaluation against [M].

The degree-n part of Z[K]/(non-face monomials + the linear forms from the
rows of Lambda) pairs with the fundamental class through a functional phi on
face-supported degree-n monomials. phi is computed as the one-dimensional
nullspace of the linear-form relations and pinned by phi(v_sigma0) =
sign(det Lambda_sigma0) on the lexicographically least facet; on every other
facet phi(v_sigma) = o(sigma) * sign(det Lambda_sigma) must then come out,
which is re-checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ..errors import InputError, InternalError
from ..exactcore import ff_determinant, right_kernel_rational
from .complexes import SimplicialComplex, ValidityReport, orientation_signs, sphere_battery

Monomial = tuple[int, ...]  # exponents, length m


def facet_determinant(lam, facet: tuple[int, ...]) -> Fraction:
    cols = [[Fraction(lam[row][v - 1]) for v in facet] for row in range(len(lam))]
    return ff_determinant(cols)


def validate_quasitoric(k: SimplicialComplex, lam) -> ValidityReport:
    """Sphere battery plus unimodularity of every facet minor."""
    rep = ValidityReport()
    n = len(lam)
    rep.checks_run.append("lambda-shape")
    if any(len(row) != k.m for row in lam):
        rep.fail(f"Lambda must have m = {k.m} columns")
        return rep
    if any(len(f) != n for f in k.facets):
        rep.fail(f"facet size differs from Lambda row count {n}")
        return rep
    sphere_battery(k, rep)
    rep.checks_run.append("facet-minors-unimodular")
    for f in k.facets:
        det = facet_determinant(lam, f)
        if det * det != 1:
            rep.fail(f"facet {f}: |det| = {abs(det)}, need 1")
    return rep


@dataclass(frozen=True)
class QuasitoricData:
    complex: SimplicialComplex
    lam: tuple[tuple[int, ...], ...]  # n x m
    orientation_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(tuple(int(x) for x in row) for row in self.lam))

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def m(self) -> int:
        return self.complex.m

    @property
    def base_facet(self) -> tuple[int, ...]:
        return self.complex.facets[0]  # facets are stored sorted

    def validate(self) -> ValidityReport:
        return validate_quasitoric(self.complex, self.lam)


def _face_monomials(k: SimplicialComplex, degree: int) -> list[Monomial]:
    """Degree-`degree` monomials whose support is a face, sorted."""
    out: set = set()
    faces = sorted(f for f in k.faces() if 0 < len(f) <= degree)

    def split(total: int, parts: int):
        # positive compositions of total into exactly `parts` parts
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in split(total - first, parts - 1):
                yield (first,) + rest

    for face in faces:
        for comp in split(degree, len(face)):
            e = [0] * k.m
            for v, c in zip(face, comp):
                e[v - 1] = c
            out.add(tuple(e))
    return sorted(out)


class EvalContext:
    """Cached evaluation functional for one QuasitoricData."""

    def __init__(self, q: QuasitoricData):
        rep = q.validate()
        if not rep.valid:
            raise InputError("invalid quasitoric data: " + "; ".join(rep.issues))
        self.q = q
        k, lam, n = q.complex, q.lam, q.n
        basis = _face_monomials(k, n)
        index = {e: i for i, e in enumerate(basis)}

        rows = []
        for mu in _face_monomials(k, n - 1) if n > 1 else [tuple([0] * k.m)]:
            for j in range(n):
                row = [Fraction(0)] * len(basis)
                touched = False
                for i in range(k.m):
                    if lam[j][i] == 0:
                        continue
                    e = list(mu)
                    e[i] += 1
                    e = tuple(e)
                    if e in index:  # non-face products are zero in the ring
                        row[index[e]] += Fraction(lam[j][i])
                        touched = True
                if touched:
                    rows.append(row)
        kernel = right_kernel_rational(rows) if rows else []
        if len(kernel) != 1:
            raise InternalError(
                f"degree-{n} evaluation space has dimension {len(kernel)}, expected 1"
            )
        phi = kernel[0]

        signs = orientation_signs(k)
        flip = -1 if q.orientation_flip else 1

        def facet_monomial(f: tuple[int, ...]) -> Monomial:
            e = [0] * k.m
            for v in f:
                e[v - 1] = 1
            return tuple(e)

        base = q.base_facet
        want0 = facet_determinant(lam, base)  # o(base) = +1, det is +-1
        got0 = phi[index[facet_monomial(base)]]
        if got0 == 0:
            raise InternalError("evaluation functional vanishes on the base facet")
        scale = Fraction(flip) * want0 / got0
        phi = [x * scale for x in phi]

        for fi, f in enumerate(k.facets):
            expect = Fraction(flip * signs[fi]) * facet_determinant(lam, f)
            if phi[index[facet_monomial(f)]] != expect:
                raise InternalError(
                    f"facet {f}: evaluation {phi[index[facet_monomial(f)]]} "
                    f"!= o*det = {expect}"
                )
        self.basis = basis
        self.index = index
        self.phi = phi

    def evaluate_monomial(self, e: Monomial) -> Fraction:
        if sum(e) != self.q.n:
            raise InputError(f"monomial degree {sum(e)} != {self.q.n}")
        if e not in self.index:
            return Fraction(0)  # support is a non-face
        return self.phi[self.index[e]]

    def evaluate_class(self, cls: dict) -> Fraction:
        """cls: exponent tuple -> coefficient, all of top degree."""
        total = Fraction(0)
        for e, c in cls.items():
            if c:
                total += Fraction(c) * self.evaluate_monomial(e)
        return total


_CONTEXTS: dict = {}


def eval_context(q: QuasitoricData) -> EvalContext:
    key = (q.complex, q.lam, q.orientation_flip)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = EvalContext(q)
    return _CONTEXTS[key]


def top_evaluate(q: QuasitoricData, monomial) -> Fraction:
    """Evaluate a degree-n monomial in v_1..v_m against the fundamental class.

    `monomial` is either an exponent tuple of length m or a mapping
    {vertex index (1-based) -> exponent}.
    """
    if isinstance(monomial, dict):
        e = [0] * q.m
        for v, c in monomial.items():
            if not 1 <= v <= q.m:
                raise InputError(f"vertex {v} out of range 1..{q.m}")
            e[v - 1] = int(c)
        monomial = tuple(e)
    else:
        monomial = tuple(int(x) for x in monomial)
        if len(monomial) != q.m:
            raise InputError(f"exponent tuple must have length {q.m}")
    return eval_context(q).evaluate_monomial(monomial)


def cpn_data(d: int) -> QuasitoricData:
    """Standard complex projective d-space data: boundary simplex + [I | -1]."""
    from .complexes import boundary_simplex

    k = boundary_simplex(d)
    lam = [[0] * (d + 1) for _ in range(d)]
    for j in range(d):
        lam[j][j] = 1
        lam[j][d] = -1
    return QuasitoricData(k, tuple(tuple(r) for r in lam))


def product_data(a: QuasitoricData, b: QuasitoricData) -> QuasitoricData:
    """Join of complexes with block-diagonal Lambda."""
    from .complexes import join_complexes

    k = join_complexes(a.complex, b.complex)
    top = [tuple(row) + (0,) * b.m for row in a.lam]
    bottom = [(0,) * a.m + tuple(row) for row in b.lam]
    return QuasitoricData(k, tuple(top + bottom))
