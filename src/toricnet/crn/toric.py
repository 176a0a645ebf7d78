"""Lattice-ideal binomials from the Cayley matrix, and the Birch point.

The kernel of the Cayley matrix cuts out binomials prod K^{u+} - prod K^{u-}
in the tree constants; rates admit a complex-balancing steady state exactly
when all of them vanish. The Birch point solves the log-linear system pairing
complexes within each linkage class, with minimum-norm tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InternalError, NotComplexBalanced, NotWeaklyReversible
from ..exactcore import lattice_kernel
from .network import build_rate_matrix, cayley_matrix, is_weakly_reversible, linkage_classes
from .parser import Network
from .trees import tree_constants


@dataclass(frozen=True)
class ToricBinomial:
    u_plus: tuple[int, ...]
    u_minus: tuple[int, ...]
    text: str


def _monomial_text(u: tuple[int, ...]) -> str:
    bits = []
    for i, e in enumerate(u):
        if e == 0:
            continue
        bits.append(f"K{i + 1}" if e == 1 else f"K{i + 1}^{e}")
    return "*".join(bits) if bits else "1"


def toric_binomials(net: Network) -> list[ToricBinomial]:
    """One binomial per lattice-kernel basis vector of the Cayley matrix."""
    kernel = lattice_kernel(cayley_matrix(net))
    out = []
    for u in kernel:
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


def birch_point(net: Network, bindings: dict | None = None, tol: float = 1e-9) -> SteadyState:
    """Complex-balancing steady state, or a structured refusal.

    Solves <Y_k - Y_l, x> = log K_k - log K_l in log-coordinates over all
    complex pairs within each linkage class (least squares, minimum-norm x).
    A residual above tol (relative) means the rates are not complex balancing.
    """
    if not is_weakly_reversible(net):
        raise NotWeaklyReversible("network is not weakly reversible")
    trees = tree_constants(net, bindings if bindings is not None else {})
    rows: list[list[float]] = []
    rhs: list[float] = []
    for cls in linkage_classes(net):
        for a_idx in range(len(cls)):
            for b_idx in range(a_idx + 1, len(cls)):
                k, l = cls[a_idx], cls[b_idx]
                yk, yl = net.complexes[k], net.complexes[l]
                rows.append([float(a - b) for a, b in zip(yk, yl)])
                rhs.append(math.log(trees[k]) - math.log(trees[l]))
    m = np.array(rows, dtype=float)
    b = np.array(rhs, dtype=float)
    x, *_ = np.linalg.lstsq(m, b, rcond=None)
    residual = float(np.max(np.abs(m @ x - b))) if len(b) else 0.0
    scale = max(1.0, float(np.max(np.abs(b))) if len(b) else 0.0)
    if residual > tol * scale:
        raise NotComplexBalanced(
            f"rates violate the balancing binomials (residual {residual:.3e})",
            residual=residual,
        )
    c = tuple(math.exp(v) for v in x)

    a_num = build_rate_matrix(net, bindings if bindings is not None else {})
    psi = psi_vector(net, c)
    worst = 0.0
    for row in a_num:
        worst = max(worst, abs(sum(float(e) * p for e, p in zip(row, psi))))
    kappa_max = max(abs(float(e)) for row in a_num for e in row)
    # relative to the size of the terms that cancel: Psi(c) can be large
    if worst > 1e-9 * max(1.0, kappa_max) * max(1.0, max(psi)):
        raise InternalError(
            f"balancing verification failed: |A*Psi(c)| = {worst:.3e}"
        )
    return SteadyState(concentrations=c, residual=residual, normalization="min-norm-log")
