"""Characteristic matrices and top-degree evaluation against [M].

Classes of the face ring Z[K]/(non-face monomials + the linear forms from the
rows of Lambda) are handled through their restrictions to the fixed points of
the torus action (Davis-Januszkiewicz; Buchstaber-Panov, *Toric Topology*,
ch. 7 and 9). Each facet sigma of K is a fixed point; its tangent weights
w_{sigma,i}, i in sigma, are the rows of Lambda_sigma^{-1} (det * adj from one
fraction-free elimination), read as linear forms in t, and v_i restricts
there to w_{sigma,i} for i in sigma and to 0 otherwise. A class f is the
list of its restrictions f(w_sigma), one per facet in the order of
``EvalContext.basis``, and the fixed-point (localization) formula pairs a
top-degree class with [M]:

    <f, [M]> = sum over facets sigma of
               eps(sigma) * f(w_sigma) / prod_{j in sigma} w_{sigma,j},

with eps(sigma) = flip * o(sigma) * det Lambda_sigma: o the facet orientation
(+1 on the lexicographically least facet), det = +-1, and flip = -1 for a
reversed orientation; o, det and the inverses come from the one validation
pass of the data. The sum is a rational function of degree 0 in t that is
in fact a constant, so it is evaluated at one integer point t with no
weight zero, as integers over one common denominator. Two checks guard it:
the integral of 1, sum eps(sigma) / prod_j w_{sigma,j}, must be 0 when the
context is built, and every evaluated value must be an integer. Either
failing raises InternalError with the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm, prod
from operator import mul

from ..errors import InputError, InternalError
from ..exactcore import cramer, ff_determinant, identity
from .complexes import SimplicialComplex, ValidityReport, integer_rows, sphere_battery

Monomial = tuple[int, ...]  # exponents, length m


def facet_determinant(lam, facet: tuple[int, ...]) -> int:
    return ff_determinant([[lam[row][v - 1] for v in facet] for row in range(len(lam))])


def validate_quasitoric(k: SimplicialComplex, lam) -> ValidityReport:
    """Sphere battery plus unimodularity of every facet minor, kept per facet."""
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
    rep.dets, rep.inverses = zip(*(_inverse_rows(lam, f) for f in k.facets))
    for f, det in zip(k.facets, rep.dets):
        if det * det != 1:
            rep.fail(f"facet {f}: |det| = {abs(det)}, need 1")
    return rep


@dataclass(frozen=True)
class QuasitoricData:
    complex: SimplicialComplex
    lam: tuple[tuple[int, ...], ...]  # n x m
    orientation_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lam", integer_rows(self.lam, "lambda"))

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
        return self._report

    def flipped(self) -> QuasitoricData:
        """The same data with the reversed orientation, sharing the validation
        report, which does not depend on the orientation."""
        out = replace(self, orientation_flip=not self.orientation_flip)
        vars(out)["_report"] = self._report
        return out

    @cached_property
    def _report(self) -> ValidityReport:  # one pass per instance, shared by every caller
        return validate_quasitoric(self.complex, self.lam)


def _inverse_rows(lam, facet: tuple[int, ...]) -> tuple[int, list[list[int]] | None]:
    """det Lambda_F and the rows of det * adj(Lambda_F), one per vertex of F in
    order, from one ``cramer`` elimination: det = +-1 on a validated facet, so
    the rows are Lambda_F^{-1}. A singular facet gives (0, None)."""
    det, adj = cramer([[lam[r][v - 1] for v in facet] for r in range(len(lam))], identity(len(lam)))
    return det, adj and [[det * x for x in row] for row in adj]


def _generic_point(rows: list[list[int]]) -> list[int]:
    """The first t_j = s^j + j (s = 2, 3, ...) on which no row vanishes.

    Each row is a nonzero integer vector, so row . t is a nonzero polynomial in
    s with at most n roots and the search ends.
    """
    n = len(rows[0])
    for s in count(2):
        t = [s**j + j for j in range(1, n + 1)]
        if all(sum(map(mul, row, t)) for row in rows):
            return t


class EvalContext:
    """Fixed-point data of one QuasitoricData: the facets that index a
    restriction list (``basis``), the tangent weights at the generic point
    ``t``, and eps(sigma) / prod_j w_{sigma,j} as integers over ``den``."""

    def __init__(self, q: QuasitoricData):
        rep = q.validate()
        if not rep.valid:
            raise InputError("invalid quasitoric data: " + "; ".join(rep.issues))
        self.q = q
        self.basis = q.complex.facets
        self.t = _generic_point([row for rows in rep.inverses for row in rows])
        # weights[fi][i]: the tangent weight w_{sigma,i}(t) at the i-th vertex of facet fi
        self.weights = [[sum(map(mul, row, self.t)) for row in rows] for rows in rep.inverses]
        euler = [prod(w) for w in self.weights]
        self.den = lcm(*euler)
        flip = -1 if q.orientation_flip else 1
        eps = [flip * rep.orientation[fi] * det for fi, det in enumerate(rep.dets)]
        self.scaled = [sign * (self.den // e) for sign, e in zip(eps, euler)]
        if sum(self.scaled):
            raise InternalError(
                f"integral of 1 at t = {self.t} is {Fraction(sum(self.scaled), self.den)}, expected 0"
            )

    def evaluate_class(self, values, what="class") -> int:
        """<f, [M]> for a top-degree class f given by its restrictions, one per
        facet of ``basis``; ``what`` names f in the integrality error."""
        num = sum(map(mul, self.scaled, values))
        if num % self.den:
            raise InternalError(
                f"evaluation of {what} at t = {self.t} is {Fraction(num, self.den)}, not an integer"
            )
        return num // self.den

    def evaluate_monomial(self, e: Monomial) -> int:
        if len(e) != self.q.m:
            raise InputError(f"exponent tuple must have length {self.q.m}")
        if sum(e) != self.q.n:
            raise InputError(f"monomial degree {sum(e)} != {self.q.n}")
        if min(e) < 0:
            return 0  # no monomial of the face ring
        # v^e restricts to prod_i w_{sigma,i}^{e_i} where sigma contains supp e, else to 0
        support = {i + 1 for i, x in enumerate(e) if x}
        values = [
            prod(w ** e[v - 1] for v, w in zip(f, ws)) if support.issubset(f) else 0
            for f, ws in zip(self.basis, self.weights)
        ]
        return self.evaluate_class(values, e)


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


def top_evaluate(q: QuasitoricData, monomial) -> int:
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
