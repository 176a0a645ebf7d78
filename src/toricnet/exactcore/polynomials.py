"""Sparse multivariate polynomials over the rationals.

Variables are identified by name; every polynomial carries its own sorted
variable registry, and binary operations merge registries on the fly, so
polynomials built independently (say over ``k1`` and over ``k2``) combine
without shared state. Coefficients are ``fractions.Fraction``; arithmetic is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class SparsePoly:
    """Immutable sparse polynomial with Fraction coefficients.

    Canonical form: variable names sorted; exponent tuples aligned with the
    registry; no zero coefficients; variables with zero exponent everywhere
    are pruned. Structural equality is therefore mathematical equality.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, Scalar] | None = None):
        vs = tuple(vars)
        tm = {}
        for exps, c in (terms or {}).items():
            c = _as_fraction(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError("exponent tuple length does not match registry")
            tm[exps] = tm[exps] + c if exps in tm else c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", {e: c for e, c in tm.items() if c != 0})
        self._canonicalize()

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("SparsePoly is immutable")

    def _canonicalize(self):
        vs, tm = self.vars, self.terms
        used = [i for i in range(len(vs)) if any(e[i] for e in tm)]
        order = sorted(used, key=lambda i: vs[i])
        if [vs[i] for i in order] != list(vs):
            new_vars = tuple(vs[i] for i in order)
            new_terms = {}
            for e, c in tm.items():
                ne = tuple(e[i] for i in order)
                new_terms[ne] = new_terms[ne] + c if ne in new_terms else c
            object.__setattr__(self, "vars", new_vars)
            object.__setattr__(self, "terms", {e: c for e, c in new_terms.items() if c != 0})

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls((), {})

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls.const(1)

    @classmethod
    def const(cls, c: Scalar) -> "SparsePoly":
        c = _as_fraction(c)
        return cls((), {(): c} if c != 0 else {})

    @classmethod
    def variable(cls, name: str) -> "SparsePoly":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coeff: Scalar = 1) -> "SparsePoly":
        items = sorted((n, p) for n, p in powers.items() if p)
        return cls(tuple(n for n, _ in items), {tuple(p for _, p in items): coeff})

    @classmethod
    def sum(cls, polys: Iterable["SparsePoly"]) -> "SparsePoly":
        """Sum in one pass: the registries are merged once, then every term is
        added into one dict. An empty sum is zero."""
        polys = list(polys)
        merged = tuple(sorted({v for p in polys for v in p.vars}))
        out: dict = {}
        for p in polys:
            for e, c in (p.terms if p.vars == merged else _remap(p, merged)).items():
                out[e] = out[e] + c if e in out else c
        return cls(merged, out)

    # -- alignment ------------------------------------------------------

    def _align(self, other: "SparsePoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars)))
        return merged, _remap(self, merged), _remap(other, merged)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SparsePoly.sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return SparsePoly.zero()
            return SparsePoly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        vs, a, b = self._align(other)
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return SparsePoly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.vars), Fraction(0)) if self.vars else self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        mono = {n: p for n, p in powers.items() if p}
        for e, c in self.terms.items():
            if {v: x for v, x in zip(self.vars, e) if x} == mono:
                return c
        return Fraction(0)

    def substitute(self, values: Mapping[str, "SparsePoly | Scalar"]) -> "SparsePoly":
        """Substitute polynomials or scalars for (a subset of) the variables."""

        def image(e, c):
            term = SparsePoly.const(c)
            for name, exp in zip(self.vars, e):
                if not exp:
                    continue
                if name in values:
                    v = values[name]
                    v = v if isinstance(v, SparsePoly) else SparsePoly.const(v)
                    term = term * v ** exp
                else:
                    term = term * SparsePoly((name,), {(exp,): 1})
            return term

        return SparsePoly.sum(image(e, c) for e, c in self.terms.items())

    def sorted_terms(self):
        """Terms in a deterministic order: by total degree, then exponents."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    # -- rendering --------------------------------------------------------

    def render(self, mul: str = "*", pow_: str = "^") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, exp in zip(self.vars, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}{pow_}{exp}")
            body = mul.join(factors)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c}{mul}{body}"
            parts.append(piece)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"SparsePoly({self.render()})"


def _remap(p: SparsePoly, merged: tuple) -> dict:
    idx = [merged.index(v) for v in p.vars]
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(merged)
        for pos, x in zip(idx, e):
            ne[pos] = x
        out[tuple(ne)] = c
    return out


def _coerce(x):
    if isinstance(x, SparsePoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SparsePoly.const(x)
    return NotImplemented
