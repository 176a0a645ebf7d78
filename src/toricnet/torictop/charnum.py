"""Characteristic numbers from the v-class splitting.

Tangent Chern classes are elementary symmetric in v_1..v_m; the stable
normal ones come from the e_k -> (-1)^k h_k involution. The composition-
indexed family evaluates, for each composition alpha of n, the sum over
increasing index tuples of v_{i_1}^{a_1} ... v_{i_l}^{a_l}; the result is
read as a word-basis element of the free algebra. Hamiltonian variants mix
in powers of a degree-2 class u and are tabulated for all weights <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, compress
from operator import add

from ..errors import InputError
from ..ncsf import NCF, compositions, partitions
from .quasitoric import QuasitoricData, eval_context

ClassDict = dict  # exponent tuple -> rational coefficient (int or Fraction)


def _prune(q: QuasitoricData, cls: ClassDict) -> ClassDict:
    """Drop zero terms and terms whose support is not a face of the complex."""
    supports = eval_context(q).supports
    return {e: c for e, c in cls.items() if c and tuple(compress(range(len(e)), e)) in supports}


def class_product(q: QuasitoricData, a: ClassDict, b: ClassDict) -> ClassDict:
    out: ClassDict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            p = ca * cb
            out[e] = out[e] + p if e in out else p
    return _prune(q, out)


def _unit_class(m: int) -> ClassDict:
    return {tuple([0] * m): 1}


def elementary_class(q: QuasitoricData, k: int) -> ClassDict:
    """e_k(v_1..v_m) in the face ring."""
    out: ClassDict = {}
    for chosen in combinations(range(q.m), k):
        e = [0] * q.m
        for i in chosen:
            e[i] = 1
        out[tuple(e)] = 1
    return _prune(q, out)

def complete_class(q: QuasitoricData, k: int) -> ClassDict:
    """h_k(v_1..v_m) in the face ring."""
    out: ClassDict = {}
    for chosen in combinations_with_replacement(range(q.m), k):
        e = [0] * q.m
        for i in chosen:
            e[i] += 1
        key = tuple(e)
        out[key] = out[key] + 1 if key in out else 1
    return _prune(q, out)


def linear_class(q: QuasitoricData, coeffs) -> ClassDict:
    """sum coeffs[i] * v_{i+1}; an integral coefficient is kept as an int."""
    if len(coeffs) != q.m:
        raise InputError(f"linear form needs {q.m} coefficients")
    out: ClassDict = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * q.m
            e[i] = 1
            c = Fraction(c)
            out[tuple(e)] = c.numerator if c.denominator == 1 else c
    return _prune(q, out)


def class_power(q: QuasitoricData, cls: ClassDict, k: int) -> ClassDict:
    out = _unit_class(q.m)
    for _ in range(k):
        out = class_product(q, out, cls)
    return out


def chern_numbers(q: QuasitoricData, partition, bundle: str = "tangent") -> int | Fraction:
    """c_I[M] for a partition I of n; bundle 'tangent' or 'normal'."""
    parts = [int(p) for p in partition]
    if sum(parts) != q.n:
        raise InputError(f"partition weight {sum(parts)} != n = {q.n}")
    if bundle not in ("tangent", "normal"):
        raise InputError(f"unknown bundle {bundle!r}")
    cls = _unit_class(q.m)
    for p in parts:
        if bundle == "tangent":
            factor = elementary_class(q, p)
        else:
            factor = complete_class(q, p)
            factor = {e: c * (-1) ** p for e, c in factor.items()}
        cls = class_product(q, cls, factor)
    return eval_context(q).evaluate_class(cls)


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


def _composition_class(q: QuasitoricData, alpha: tuple[int, ...]) -> ClassDict:
    """sum over i_1 < ... < i_l of prod v_{i_j}^{alpha_j}."""
    out: ClassDict = {}
    l = len(alpha)
    for chosen in combinations(range(q.m), l):
        e = [0] * q.m
        for i, a in zip(chosen, alpha):
            e[i] = a
        key = tuple(e)
        out[key] = out[key] + 1 if key in out else 1
    return _prune(q, out)


def mxi_numbers(q: QuasitoricData) -> MxiClass:
    """The degree-n composition-indexed characteristic class."""
    ctx = eval_context(q)
    rows = []
    for alpha in compositions(q.n):
        val = ctx.evaluate_class(_composition_class(q, alpha))
        rows.append((alpha, val))
    return MxiClass(degree=q.n, table=tuple(rows))


def hamiltonian_numbers(q: QuasitoricData, u_coeffs, convention: str = "mxi") -> MxiClass:
    """Characteristic tables of (M, u) for all weights i <= n.

    convention 'mxi': entries (<alpha>(v) * u^(n-i))[M] for compositions alpha
    of i. convention 'ginzburg': entries (-1)^i * (h_I(v) * u^(n-i))[M] for
    partitions I of i. The weight marker is sum(key) in both cases.
    """
    ctx = eval_context(q)
    u = linear_class(q, u_coeffs)
    rows = []
    if convention == "mxi":
        for i in range(q.n + 1):
            u_pow = class_power(q, u, q.n - i)
            for alpha in compositions(i):
                cls = class_product(q, _composition_class(q, alpha), u_pow)
                rows.append((alpha, ctx.evaluate_class(cls)))
    elif convention == "ginzburg":
        for i in range(q.n + 1):
            u_pow = class_power(q, u, q.n - i)
            for lam in partitions(i):
                cls = u_pow
                for p in lam:
                    cls = class_product(q, cls, complete_class(q, p))
                rows.append((lam, (-1) ** i * ctx.evaluate_class(cls)))
    else:
        raise InputError(f"unknown convention {convention!r}")
    return MxiClass(degree=q.n, table=tuple(rows))
