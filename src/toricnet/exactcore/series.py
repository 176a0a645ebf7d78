"""Truncated power series in central variables over pluggable rings.

A series carries an explicit truncation order N: coefficients are stored for
total degree <= N and anything beyond is unknown, not zero. Binary operations
clamp to the minimum order of the operands.

Coefficients live in any associative unital Q-algebra. A series' ``ring`` is
the coefficient class itself (``SparsePoly``, ``NCF``, ``BetaNCF``, ...), or
``QRing`` for plain int/``Fraction`` coefficients. The ring protocol is:

* ``ring.zero()`` and ``ring.one()``;
* ``ring.sum(iterable)``, the sum of the elements in one pass (zero when the
  iterable is empty);
* elements that are falsy exactly when they are zero and support ``-``,
  unary ``-``, ``*`` (possibly noncommutative) and multiplication by
  int/Fraction scalars.

Every sum of coefficients goes through ``ring.sum`` once per exponent, never
through a chain of binary ``+``. The series variables are central: they
commute with every coefficient, but coefficients need not commute with each
other, and all operations here keep coefficient products in left-to-right
order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import factorial
from operator import mul


class QRing:
    """Coefficient ring of plain rationals (int or ``Fraction``), which have
    no ``zero``/``one``/``sum``."""

    @staticmethod
    def one():
        return 1

    @staticmethod
    def zero():
        return 0

    @staticmethod
    def sum(items):
        return sum(items)


def _collect(ring, pairs) -> dict:
    """Group (exponent, coefficient) pairs by exponent; sum each group once."""
    groups: dict = {}
    for e, c in pairs:
        if e in groups:
            groups[e].append(c)
        else:
            groups[e] = [c]
    return {e: cs[0] if len(cs) == 1 else ring.sum(cs) for e, cs in groups.items()}


def _same_ring(a: "TruncSeries", b: "TruncSeries") -> None:
    if a.ring is not b.ring:
        raise ValueError(f"ring mismatch: {a.ring.__name__} vs {b.ring.__name__}")


class TruncSeries:
    """Power series truncated at total degree ``order`` in ``nvars`` variables."""

    __slots__ = ("ring", "order", "nvars", "coeffs")

    def __init__(self, ring, order: int, nvars: int = 1, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.ring = ring
        self.order = order
        self.nvars = nvars
        clean = {}
        for e, c in (coeffs or {}).items():
            e = tuple(e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e}")
            if sum(e) > order:
                continue
            if c:
                clean[e] = c
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, ring, order: int, nvars: int = 1) -> "TruncSeries":
        return cls(ring, order, nvars, {(0,) * nvars: ring.one()})

    @classmethod
    def var(cls, ring, order: int, index: int = 0, nvars: int = 1) -> "TruncSeries":
        e = [0] * nvars
        e[index] = 1
        return cls(ring, order, nvars, {tuple(e): ring.one()})

    # -- basics -----------------------------------------------------------

    def coeff(self, *exps):
        if len(exps) == 1 and isinstance(exps[0], tuple):
            exps = exps[0]
        if len(exps) != self.nvars:
            raise ValueError("wrong arity")
        return self.coeffs.get(tuple(exps), self.ring.zero())

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.ring, order, self.nvars, self.coeffs)

    def _compat(self, other: "TruncSeries"):
        _same_ring(self, other)
        if self.nvars != other.nvars:
            raise ValueError("variable arity mismatch")
        return min(self.order, other.order)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.nvars == other.nvars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("TruncSeries is not hashable")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._compat(other)
        out = _collect(self.ring, chain(self.coeffs.items(), other.coeffs.items()))
        return TruncSeries(self.ring, n, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncSeries(self.ring, self.order, self.nvars, {e: -c for e, c in self.coeffs.items()})

    def scale(self, scalar) -> "TruncSeries":
        """Multiply every coefficient by an int/Fraction scalar."""
        return TruncSeries(
            self.ring, self.order, self.nvars, {e: c * scalar for e, c in self.coeffs.items()}
        )

    def scale_left(self, elem) -> "TruncSeries":
        """Left-multiply every coefficient by a ring element."""
        return TruncSeries(
            self.ring, self.order, self.nvars, {e: elem * c for e, c in self.coeffs.items()}
        )

    # -- multiplicative structure --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._compat(other)
        rhs = [(e2, sum(e2), c2) for e2, c2 in other.coeffs.items()]

        def products():
            for e1, c1 in self.coeffs.items():
                room = n - sum(e1)
                for e2, d2, c2 in rhs:
                    if d2 <= room:
                        yield tuple(x + y for x, y in zip(e1, e2)), c1 * c2

        return TruncSeries(self.ring, n, self.nvars, _collect(self.ring, products()))

    def constant_term(self):
        return self.coeff((0,) * self.nvars)

    def has_zero_constant_term(self) -> bool:
        return not self.constant_term()

    # -- composition -----------------------------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` for the single variable of this series."""
        if self.nvars != 1:
            raise ValueError("compose expects a 1-variable outer series")
        return self.compose_many([inner])

    def compose_many(self, inners: list["TruncSeries"]) -> "TruncSeries":
        """Substitute inners[i] for variable i. All inners share arity and ring.

        Coefficients of the outer series multiply from the left, and the inner
        powers are assembled in variable order, so for noncommutative rings
        the result is sum_e c_e * g_1^{e_1} * ... * g_k^{e_k}.
        """
        if len(inners) != self.nvars:
            raise ValueError("wrong number of inner series")
        g0 = inners[0]
        n = min([self.order] + [g.order for g in inners])
        for g in inners:
            _same_ring(self, g)
            if g.nvars != g0.nvars:
                raise ValueError("inner series arity mismatch")
            if not g.has_zero_constant_term():
                raise ValueError("inner series must have zero constant term")
        nv = g0.nvars
        # precompute powers of each inner series up to what the monomials use
        max_exp = [0] * self.nvars
        for e in self.coeffs:
            for i, x in enumerate(e):
                max_exp[i] = max(max_exp[i], x)
        # powers[i][x - 1] is inners[i] to the power x
        powers = []
        for i, g in enumerate(inners):
            ps = [g.truncate(n) if g.order != n else g]
            for _ in range(max_exp[i] - 1):
                ps.append(ps[-1] * ps[0])
            powers.append(ps)
        one = TruncSeries.one(self.ring, n, nv)

        def terms():
            for e, c in sorted(self.coeffs.items()):
                if sum(e) > n:
                    # a monomial of degree d contributes starting at degree d
                    continue
                factors = [powers[i][x - 1] for i, x in enumerate(e) if x]
                term = reduce(mul, factors) if factors else one
                for f, t in term.coeffs.items():
                    yield f, c * t

        return TruncSeries(self.ring, n, nv, _collect(self.ring, terms()))

    def comp_inverse(self) -> "TruncSeries":
        """Compositional inverse g with self(g(T)) = T, in one pass over degrees.

        Requires a 1-variable series f = T + f_2 T^2 + .... The pass keeps a
        table of powers p[j][k] = [T^k] g^j. At degree k it first extends
        each power by p[j][k] = sum_i p[j-1][i] * g_{k-i}, which needs only
        g_1 .. g_{k-1}, then reads g_k = -sum_{j>=2} f_j * p[j][k] off the
        degree-k coefficient of f(g). Products keep the order of
        compose_many (f_j on the left, g^j = g^{j-1} * g), so each power
        coefficient is computed once, O(N^3) ring products in all. The
        result is also a two-sided inverse; tests verify g(self(T)) = T.
        """
        if self.nvars != 1:
            raise ValueError("compositional inverse needs a 1-variable series")
        ring = self.ring
        one = ring.one()
        if self.coeff(0) or self.coeff(1) != one:
            raise ValueError("compositional inverse needs the form T + O(T^2)")
        f = {k: c for (k,), c in self.coeffs.items()}
        top = max(f)  # the largest power of g that f uses
        g = {1: one}
        # powers[j] holds the nonzero [T^k] g^j by k; powers[1] is g itself
        powers = [None, g] + [{} for _ in range(2, top + 1)]
        for k in range(2, self.order + 1):
            for j in range(2, min(k, top) + 1):
                prev = powers[j - 1]
                c = ring.sum(
                    prev[i] * g[k - i] for i in range(j - 1, k) if i in prev and k - i in g
                )
                if c:
                    powers[j][k] = c
            val = ring.sum(
                f[j] * powers[j][k] for j in range(2, min(k, top) + 1) if j in f and k in powers[j]
            )
            if val:
                g[k] = -val
        return TruncSeries(ring, self.order, 1, {(k,): c for k, c in g.items()})

    def mult_inverse(self) -> "TruncSeries":
        """Multiplicative inverse of a series with constant term 1.

        For unit constant term the inverse is two-sided even over
        noncommutative rings (the Neumann series only involves powers of one
        element); computed from u*v = 1.
        """
        if self.nvars != 1:
            raise ValueError("mult_inverse implemented for 1-variable series")
        one = self.ring.one()
        if self.constant_term() != one:
            raise ValueError("mult_inverse needs constant term 1")
        coeffs = self.coeffs
        inv = {(0,): one}
        for k in range(1, self.order + 1):
            acc = self.ring.sum(
                coeffs[(j,)] * inv[(k - j,)]
                for j in range(1, k + 1)
                if (j,) in coeffs and (k - j,) in inv
            )
            if acc:
                inv[(k,)] = -acc
        return TruncSeries(self.ring, self.order, 1, inv)

    def derivative(self) -> "TruncSeries":
        if self.nvars != 1:
            raise ValueError("derivative implemented for 1-variable series")
        out = {}
        for (k,), c in self.coeffs.items():
            if k >= 1:
                out[(k - 1,)] = c * k
        return TruncSeries(self.ring, max(self.order - 1, 0), 1, out)

    def shift_down(self) -> "TruncSeries":
        """Divide by the variable: T^k -> T^(k-1). Needs zero constant term."""
        if self.nvars != 1:
            raise ValueError("shift_down implemented for 1-variable series")
        if not self.has_zero_constant_term():
            raise ValueError("series is not divisible by the variable")
        out = {(k - 1,): c for (k,), c in self.coeffs.items() if k >= 1}
        return TruncSeries(self.ring, max(self.order - 1, 0), 1, out)

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        if not self.has_zero_constant_term():
            raise ValueError("exp needs zero constant term")
        weights = [Fraction(1, factorial(k)) for k in range(self.order + 1)]
        return self._power_sum(self, weights)

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != self.ring.one():
            raise ValueError("log needs constant term 1")
        u = self - TruncSeries.one(self.ring, self.order, self.nvars)
        weights = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.order + 1)]
        return self._power_sum(u, weights)

    def _power_sum(self, base: "TruncSeries", weights: list) -> "TruncSeries":
        """sum_k weights[k] * base^k for k = 0..order, summed in one pass."""

        def terms():
            power = TruncSeries.one(self.ring, self.order, self.nvars)
            for k, w in enumerate(weights):
                if k:
                    power = base if k == 1 else power * base
                if w:
                    for e, c in power.coeffs.items():
                        yield e, c * w

        out = _collect(self.ring, terms())
        return TruncSeries(self.ring, self.order, self.nvars, out)

    def map_coeffs(self, fn, ring=None) -> "TruncSeries":
        """Apply ``fn`` to every coefficient (optionally into another ring)."""
        ring = ring or self.ring
        return TruncSeries(ring, self.order, self.nvars, {e: fn(c) for e, c in self.coeffs.items()})

    def embed(self, nvars: int, axes: list[int]) -> "TruncSeries":
        """View this series inside a larger variable set, axes[i] = new index."""
        if len(axes) != self.nvars:
            raise ValueError("axes must match arity")
        out = {}
        for e, c in self.coeffs.items():
            ne = [0] * nvars
            for i, x in enumerate(e):
                ne[axes[i]] = x
            out[tuple(ne)] = c
        return TruncSeries(self.ring, self.order, nvars, out)

    def __repr__(self):
        inside = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"TruncSeries(order={self.order}, nvars={self.nvars}, {{{inside}}})"
