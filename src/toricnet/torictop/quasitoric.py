"""Characteristic matrices and top-degree evaluation against [M].

The degree-n part of Z[K]/(non-face monomials + the linear forms from the
rows of Lambda) pairs with the fundamental class through a functional phi on
face-supported degree-n monomials (Davis-Januszkiewicz; Buchstaber-Panov,
*Toric Topology*, ch. 7 and 9).

phi is found by straightening. On a facet F the minor Lambda_F is unimodular,
so each v_i with i in F is the integer combination sum_{k not in F}
A_F[i, k] v_k, A_F = -Lambda_F^{-1} Lambda_{F^c}. A degree-n monomial on a
face sigma that is not a facet has some exponent e_i >= 2; rewriting one
factor v_i through a facet F containing sigma enlarges the support, and terms
on non-faces drop out, so the recursion ends on squarefree facet monomials.
Each step is a multiple of a relation row, so phi is fixed by its values on
the facets, and those values lie in the kernel of the system with one column
per facet whose rows are the relation rows mu * (sum_i lam[j][i] v_i),
straightened. That kernel is isomorphic to the kernel of the relations on
all face monomials; it is checked to be one-dimensional and pinned by
phi(v_sigma0) = sign(det Lambda_sigma0) on the lexicographically least
facet. On every other facet phi(v_sigma) = o(sigma) * sign(det Lambda_sigma)
must then come out, which is re-checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import gcd

from ..errors import InputError, InternalError
from ..exactcore import ff_determinant, right_kernel_rational
from .complexes import SimplicialComplex, ValidityReport, orientation_signs, sphere_battery

Monomial = tuple[int, ...]  # exponents, length m


def facet_determinant(lam, facet: tuple[int, ...]) -> int:
    return ff_determinant([[lam[row][v - 1] for v in facet] for row in range(len(lam))])


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


def _straightening(lam, facet: tuple[int, ...], m: int) -> tuple[int, dict]:
    """det Lambda_F and the rows of A_F = -Lambda_F^{-1} Lambda_{F^c}.

    Returns (det, {i: [(k, A_F[i, k]) for k outside F with A_F[i, k] != 0]})
    with 0-based vertex indices. det = +-1 on a validated facet, so
    Lambda_F^{-1} = det * adj(Lambda_F) and everything stays in Z.
    """
    n = len(lam)
    cols = [v - 1 for v in facet]
    square = [[lam[r][c] for c in cols] for r in range(n)]
    cof = [
        [
            (-1) ** (r + c) * ff_determinant(
                [row[:c] + row[c + 1:] for ri, row in enumerate(square) if ri != r]
            )
            for c in range(n)
        ]
        for r in range(n)
    ]
    det = sum(square[0][c] * cof[0][c] for c in range(n))
    outside = [k for k in range(m) if k not in cols]
    rows = {}
    for i, v in enumerate(cols):
        coeffs = []
        for k in outside:
            a = -det * sum(cof[r][i] * lam[r][k] for r in range(n))
            if a:
                coeffs.append((k, a))
        rows[v] = coeffs
    return det, rows


def _primitive(row: list[int]) -> tuple[int, ...]:
    """row divided by the gcd of its entries, first nonzero entry positive."""
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


class EvalContext:
    """Cached evaluation functional for one QuasitoricData."""

    def __init__(self, q: QuasitoricData):
        rep = q.validate()
        if not rep.valid:
            raise InputError("invalid quasitoric data: " + "; ".join(rep.issues))
        self.q = q
        k, lam, n, m = q.complex, q.lam, q.n, q.m
        nf = len(k.facets)

        # every face support (0-based) -> the first facet containing it
        owner: dict = {}
        for fi, f in enumerate(k.facets):
            for size in range(len(f) + 1):
                for sub in combinations(f, size):
                    owner.setdefault(tuple(v - 1 for v in sub), fi)
        self.supports = frozenset(owner)

        dets, a_rows = zip(*(_straightening(lam, f, m) for f in k.facets))
        memo: dict = {}
        for fi, f in enumerate(k.facets):
            e = [0] * m
            for v in f:
                e[v - 1] = 1
            memo[tuple(e)] = {fi: 1}

        def straighten(e: Monomial) -> dict:
            """v^e as {facet index: integer coefficient} modulo the relations."""
            vec = memo.get(e)
            if vec is not None:
                return vec
            support = tuple(compress(range(m), e))
            # a face of size < n in degree n: some exponent is at least 2
            i = next(i for i in support if e[i] >= 2)
            rest = list(e)
            rest[i] -= 1
            acc: dict = {}
            for kk, a in a_rows[owner[support]][i]:
                if tuple(sorted(support + (kk,))) not in owner:
                    continue  # a non-face product is zero in the ring
                f = rest.copy()
                f[kk] += 1
                for g, c in straighten(tuple(f)).items():
                    acc[g] = acc.get(g, 0) + a * c
            vec = {g: c for g, c in acc.items() if c}
            memo[e] = vec
            return vec

        # the relation rows mu * (sum_i lam[j][i] v_i), straightened onto the facets
        rows: set = set()
        for mu in _face_monomials(k, n - 1) if n > 1 else [tuple([0] * m)]:
            images = []
            for i in range(m):
                e = list(mu)
                e[i] += 1
                e = tuple(e)
                if tuple(compress(range(m), e)) in owner:
                    images.append((i, straighten(e)))
            for lam_row in lam:
                row = [0] * nf
                for i, vec in images:
                    if lam_row[i]:
                        for g, c in vec.items():
                            row[g] += lam_row[i] * c
                if any(row):
                    rows.add(_primitive(row))
        kernel = right_kernel_rational(sorted(rows) or [[0] * nf])
        if len(kernel) != 1:
            raise InternalError(
                f"degree-{n} evaluation space has dimension {len(kernel)}, expected 1"
            )
        values = kernel[0]

        signs = orientation_signs(k)
        flip = -1 if q.orientation_flip else 1
        expect = [flip * signs[fi] * dets[fi] for fi in range(nf)]
        # facets are sorted, so the base facet has index 0; o(base) = +1
        if values[0] == 0:
            raise InternalError("evaluation functional vanishes on the base facet")
        scale = expect[0] / values[0]
        for fi, f in enumerate(k.facets):
            if values[fi] * scale != expect[fi]:
                raise InternalError(
                    f"facet {f}: evaluation {values[fi] * scale} != o*det = {expect[fi]}"
                )

        # the facet values are now known to be the integers in expect
        self.basis = _face_monomials(k, n)
        self.index = {e: i for i, e in enumerate(self.basis)}
        self.phi = [
            Fraction(sum(c * expect[g] for g, c in straighten(e).items())) for e in self.basis
        ]

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
                total += c * self.evaluate_monomial(e)
        return total


# Contexts kept across calls, least recently used first. A bound keeps memory
# flat on long runs over many distinct inputs while repeated inputs still hit.
_CONTEXT_LIMIT = 64
_CONTEXTS: dict = {}


def eval_context(q: QuasitoricData) -> EvalContext:
    key = (q.complex, q.lam, q.orientation_flip)
    ctx = _CONTEXTS.pop(key, None)
    if ctx is None:
        ctx = EvalContext(q)
        if len(_CONTEXTS) >= _CONTEXT_LIMIT:
            del _CONTEXTS[next(iter(_CONTEXTS))]
    _CONTEXTS[key] = ctx
    return ctx


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
