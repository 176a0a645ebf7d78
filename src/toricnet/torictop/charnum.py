"""Characteristic numbers from the v-class splitting.

A class is a list of its restrictions to the torus fixed points, one integer
per facet sigma in the order of ``EvalContext.basis``: v_i restricts to the
tangent weight w_{sigma,i} for i in sigma and to 0 otherwise (see
``quasitoric``). Restriction is a ring map, so products and powers are
pointwise, and ``EvalContext.evaluate_class`` pairs a top-degree class with
[M] by the fixed-point formula.

Tangent Chern classes are elementary symmetric in v_1..v_m; the stable
normal ones come from the e_k -> (-1)^k h_k involution. The composition-
indexed family evaluates, for each composition alpha of n, the quasisymmetric
monomial function M_alpha(v), the sum over increasing index tuples of
v_{i_1}^{a_1} ... v_{i_l}^{a_l}; the result is read as a word-basis element
of the free algebra. Hamiltonian variants mix in powers of a degree-2 class u
and are tabulated for all weights <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul

from ..errors import InputError
from ..ncsf import NCF, compositions, partitions
from .quasitoric import QuasitoricData, eval_context


def class_product(q: QuasitoricData, a: list, b: list) -> list:
    """The product of two classes, pointwise on their per-facet restrictions."""
    return list(map(mul, a, b))


def class_power(q: QuasitoricData, cls: list, k: int) -> list:
    """cls^k, pointwise on its per-facet restrictions."""
    return [x**k for x in cls]


def _composition_class(ctx, alpha: tuple[int, ...]) -> list:
    """M_alpha(v) per facet of the context ``ctx``: M_alpha of the facet's
    weights in vertex order, the v_i off the facet restricting to 0. acc[j]
    is M of the first j parts over the weights read so far."""
    out = []
    for ws in ctx.weights:
        acc = [1] + [0] * len(alpha)
        for w in ws:
            for j in range(len(alpha), 0, -1):
                acc[j] += acc[j - 1] * w ** alpha[j - 1]
        out.append(acc[-1])
    return out


def _symmetric_classes(ctx, k: int, complete: bool) -> list:
    """[e_0, ..., e_k](v_1..v_m), or [h_0, ..., h_k] with ``complete``, as
    per-facet restrictions in the context ``ctx``. Each weight w of a facet
    adds w * x_{j-1} to x_j: from the top degree down for e (e_{j-1} without
    w), from 1 up for h."""
    if k < 0:
        raise InputError(f"degree {k} < 0")
    steps = range(1, k + 1) if complete else range(k, 0, -1)
    per_facet = []
    for ws in ctx.weights:
        acc = [1] + [0] * k
        for w in ws:
            for j in steps:
                acc[j] += w * acc[j - 1]
        per_facet.append(acc)
    return [list(cls) for cls in zip(*per_facet)]


def elementary_class(q: QuasitoricData, k: int) -> list:
    """e_k(v_1..v_m), as per-facet restrictions."""
    return _symmetric_classes(eval_context(q), k, complete=False)[k]


def complete_class(q: QuasitoricData, k: int) -> list:
    """h_k(v_1..v_m), the sum of all degree-k monomials, as per-facet restrictions."""
    return _symmetric_classes(eval_context(q), k, complete=True)[k]


def linear_class(q: QuasitoricData, coeffs) -> list:
    """sum coeffs[i] * v_{i+1}, as per-facet restrictions."""
    if len(coeffs) != q.m:
        raise InputError(f"linear form needs {q.m} coefficients")
    ctx = eval_context(q)
    return [sum(coeffs[v - 1] * w for v, w in zip(f, ws)) for f, ws in zip(ctx.basis, ctx.weights)]


def _chern_values(q: QuasitoricData, partitions, bundle: str) -> list[int]:
    """c_I[M] for each partition I of n in ``partitions``, all from one e (or
    h) table and one evaluation context."""
    parts_list = [[int(p) for p in partition] for partition in partitions]
    for parts in parts_list:
        if sum(parts) != q.n:
            raise InputError(f"partition weight {sum(parts)} != n = {q.n}")
    if bundle not in ("tangent", "normal"):
        raise InputError(f"unknown bundle {bundle!r}")
    for parts in parts_list:
        if any(p < 0 for p in parts):
            raise InputError(f"partition {tuple(parts)} has a negative part")
    ctx = eval_context(q)
    top = max((p for parts in parts_list for p in parts), default=0)
    classes = _symmetric_classes(ctx, top, complete=bundle == "normal")
    sign = (-1) ** q.n if bundle == "normal" else 1  # prod of (-1)^p over a partition of n
    return [
        ctx.evaluate_class([sign * prod(vals) for vals in zip(*(classes[p] for p in parts))])
        for parts in parts_list
    ]


def chern_numbers(q: QuasitoricData, partition, bundle: str = "tangent") -> int:
    """c_I[M] for a partition I of n; bundle 'tangent' or 'normal'."""
    return _chern_values(q, [partition], bundle)[0]


@dataclass(frozen=True)
class MxiClass:
    """Composition-indexed rational table; weight-n rows form the top class."""

    degree: int
    table: tuple  # sorted tuple of (composition, int or Fraction)

    def value(self, alpha) -> int | Fraction:
        alpha = tuple(int(x) for x in alpha)
        for comp, val in self.table:
            if comp == alpha:
                return val
        return 0

    def to_ncf(self) -> NCF:
        return NCF({comp: val for comp, val in self.table if val and len(comp) > 0})


def mxi_numbers(q: QuasitoricData) -> MxiClass:
    """The degree-n composition-indexed characteristic class."""
    ctx = eval_context(q)
    rows = [(alpha, ctx.evaluate_class(_composition_class(ctx, alpha))) for alpha in compositions(q.n)]
    return MxiClass(degree=q.n, table=tuple(rows))


def hamiltonian_numbers(q: QuasitoricData, u_coeffs, convention: str = "mxi") -> MxiClass:
    """Characteristic tables of (M, u) for all weights i <= n.

    convention 'mxi': entries (<alpha>(v) * u^(n-i))[M] for compositions alpha
    of i. convention 'ginzburg': entries (-1)^i * (h_I(v) * u^(n-i))[M] for
    partitions I of i. The weight marker is sum(key) in both cases.
    """
    ctx = eval_context(q)
    u = [Fraction(c) for c in u_coeffs]
    # L * u is integral for L the lcm of the denominators, so every class
    # evaluated is integral and the integrality check holds; the entries of
    # weight i are divided by L^(n-i) afterwards
    scale = lcm(*(c.denominator for c in u))
    lu = linear_class(q, [int(c * scale) for c in u])

    def entry(i, factors, sign=1):
        cls = class_power(q, lu, q.n - i)
        for factor in factors:
            cls = class_product(q, cls, factor)
        value = Fraction(sign * ctx.evaluate_class(cls), scale ** (q.n - i))
        return value.numerator if value.denominator == 1 else value

    weights = range(q.n + 1)
    if convention == "mxi":
        rows = [(a, entry(i, [_composition_class(ctx, a)])) for i in weights for a in compositions(i)]
    elif convention == "ginzburg":
        h = _symmetric_classes(ctx, q.n, complete=True)
        rows = [
            (lam, entry(i, [h[p] for p in lam], (-1) ** i))
            for i in weights
            for lam in partitions(i)
        ]
    else:
        raise InputError(f"unknown convention {convention!r}")
    return MxiClass(degree=q.n, table=tuple(rows))
