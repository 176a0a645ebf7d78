"""Lattice-ideal binomials from the Cayley matrix, and the Birch point.

The kernel of the Cayley matrix cuts out binomials prod K^{u+} - prod K^{u-}
in the tree constants; rates admit a complex-balancing steady state exactly
when all of them vanish. The tree constants are exact rationals, so that
test is exact. The Birch point then solves the log-linear system pairing
complexes within each linkage class, with minimum-norm tie-breaking; all of
its linear algebra is over the integers, and floats enter only through the
logarithms of the tree constants.

``birch_point`` decides the structure once, before any rate is resolved:
one pass each for the linkage classes and the strong components. The
classes then feed the Cayley matrix, the tree constants and the log-linear
rows, and one numeric rate matrix feeds both the tree constants and the
final |A * Psi(c)| check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InputError, InternalError, NotComplexBalanced, NotWeaklyReversible
from ..exactcore import cramer, hermite_normal_form, lattice_kernel, mat_mul, transpose
from ..exactcore.polynomials import monomial_text
from .network import _cayley, build_rate_matrix, linkage_classes, strong_components
from .parser import Network
from .trees import class_trees


@dataclass(frozen=True)
class ToricBinomial:
    u_plus: tuple[int, ...]
    u_minus: tuple[int, ...]
    text: str


def _monomial_text(u: tuple[int, ...]) -> str:
    return monomial_text((f"K{i + 1}", e) for i, e in enumerate(u) if e) or "1"


def toric_binomials(net: Network) -> list[ToricBinomial]:
    """One binomial per lattice-kernel basis vector of the Cayley matrix."""
    return _binomials(net, linkage_classes(net))


def _binomials(net: Network, classes) -> list[ToricBinomial]:
    out = []
    for u in lattice_kernel(_cayley(net, classes)):
        u_plus = tuple(max(x, 0) for x in u)
        u_minus = tuple(max(-x, 0) for x in u)
        text = f"{_monomial_text(u_plus)} - {_monomial_text(u_minus)}"
        out.append(ToricBinomial(u_plus, u_minus, text))
    return out


@dataclass(frozen=True)
class SteadyState:
    concentrations: tuple[float, ...]
    residual: float
    normalization: str


def psi_vector(net: Network, c) -> list[float]:
    """Mass-action monomials Psi_l(c) = prod_j c_j^{Y_jl}."""
    out = []
    for vec in net.complexes:
        prod = 1.0
        for cj, e in zip(c, vec):
            prod *= float(cj) ** e
        out.append(prod)
    return out


def _log(q: Fraction) -> float:
    """log of a positive rational, through its numerator and denominator so
    that no float conversion overflows."""
    return math.log(q.numerator) - math.log(q.denominator)


def _log_ratio(r: Fraction) -> float:
    """log r, accurate also when r is within rounding of 1."""
    return math.log1p(float(r - 1)) if Fraction(1, 2) < r < 2 else _log(r)


def birch_point(net: Network, bindings: dict | None = None, tol: float = 1e-9) -> SteadyState:
    """Complex-balancing steady state, or a structured refusal.

    Balancing is decided exactly: the tree constants K are rationals, and
    the rates are complex balancing iff prod K^{u+} == prod K^{u-} for every
    binomial of ``toric_binomials`` (Craciun-Dickenstein-Shiu-Sturmfels
    2009, Thm 9). A violated binomial raises NotComplexBalanced, whose
    residual is |log prod K^{u+} - log prod K^{u-}|.

    The point then solves <Y_k - Y_base, x> = log K_k - log K_base in
    log-coordinates, base the first complex of each linkage class, with
    minimum-norm x. The pivot columns of the Hermite normal form of the
    transposed integer matrix M of these differences pick a row basis B of
    M, and x = B^T (B B^T)^{-1} b_B, the Gram inverse taken exactly as its
    adjugate times B (``cramer``), so floats enter only through the logs.
    ``tol`` bounds the relative residual |M x - b| of the solved system and
    |A * Psi(c)| is verified; either failing is an InternalError, not a
    refusal. A ``tol`` that is not finite and positive is refused with
    InputError.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol!r}")
    classes = linkage_classes(net)
    if classes != strong_components(net):
        raise NotWeaklyReversible("network is not weakly reversible")
    a = build_rate_matrix(net, bindings if bindings is not None else {})
    constants = class_trees(a, classes, symbolic=False)
    for binomial in _binomials(net, classes):
        # prod K^{u+} == prod K^{u-}, denominators cleared to one integer equation
        plus = math.prod(k.numerator ** p * k.denominator ** m
                         for k, p, m in zip(constants, binomial.u_plus, binomial.u_minus))
        minus = math.prod(k.numerator ** m * k.denominator ** p
                          for k, p, m in zip(constants, binomial.u_plus, binomial.u_minus))
        if plus != minus:
            residual = abs(_log_ratio(Fraction(plus, minus)))
            raise NotComplexBalanced(
                f"rates violate the balancing binomial {binomial.text} "
                f"(residual {residual:.3e})",
                residual=residual,
            )

    logs = [_log(k) for k in constants]
    rows: list[list[int]] = []
    rhs: list[float] = []
    for cls in classes:
        base = cls[0]
        for k in cls[1:]:
            rows.append([a - b for a, b in zip(net.complexes[k], net.complexes[base])])
            rhs.append(logs[k] - logs[base])
    h, _ = hermite_normal_form(transpose(rows))
    pivots = [next(j for j, v in enumerate(row) if v) for row in h if any(row)]
    basis = [rows[j] for j in pivots]
    det, adj_b = cramer(mat_mul(basis, transpose(basis)), basis)
    # x = B^T adj(G) b_B / det(G): an exact integer matrix times floats; G is
    # symmetric, so row i of B^T adj(G) is column i of adj(G) B
    x = [sum(p * rhs[j] for p, j in zip(pcol, pivots)) / det for pcol in zip(*adj_b)]
    residual = max(abs(sum(a * v for a, v in zip(row, x)) - b) for row, b in zip(rows, rhs))
    scale = max(1.0, *map(abs, rhs))
    if residual > tol * scale:
        raise InternalError(
            f"log-linear solve failed: residual {residual:.3e} exceeds tol {tol:g}"
        )
    c = tuple(math.exp(v) for v in x)

    psi = psi_vector(net, c)
    worst = 0.0
    for row in a:
        worst = max(worst, abs(sum(float(e) * p for e, p in zip(row, psi))))
    kappa_max = max(abs(float(e)) for row in a for e in row)
    # relative to the size of the terms that cancel: Psi(c) can be large
    if worst > 1e-9 * max(1.0, kappa_max) * max(1.0, max(psi)):
        raise InternalError(
            f"balancing verification failed: |A*Psi(c)| = {worst:.3e}"
        )
    return SteadyState(concentrations=c, residual=residual, normalization="min-norm-log")
