"""Symmetric functions over Q in the e, h, p, m, s bases.

Conversions are exact: e <-> h through the series relation H(t)E(-t) = 1,
p through the Newton recurrences, s through Jacobi-Trudi determinants in h,
and the monomial basis through per-degree transition matrices read off a
brute-force realization in (degree) variables. Everything is cached per
degree; inputs above DEGREE_CAP are refused rather than silently truncated.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from operator import mul

from ..errors import InputError
from ..exactcore import SparsePoly, inverse_rational
from ..exactcore.terms import Terms, key_str
from .compositions import check_partition, partitions, to_partition
from .nsym import NCF, TensorNCF
from .qsym import QSF

DEGREE_CAP = 10

BASES = ("e", "h", "p", "m", "s")
_MULTIPLICATIVE = ("e", "h", "p")


class SymF(Terms):
    """Symmetric function tagged with its basis: terms partition -> Q.

    Elements in different bases add and compare after conversion to the
    basis of the left operand.
    """

    __slots__ = ("basis",)

    _check_key = staticmethod(check_partition)

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        object.__setattr__(self, "basis", basis)
        super().__init__(terms)

    def _new(self, terms) -> "SymF":
        return SymF(self.basis, terms)

    def _aligned(self, other: "SymF") -> "SymF":
        return sym_convert(other, self.basis)

    def _invariant(self):
        # a change of basis is invertible degree by degree, so the set of
        # degrees present is the same in every basis
        return frozenset(sum(lam) for lam in self.terms)

    def _key_str(self, lam) -> str:
        return key_str(self.basis, lam)

    @classmethod
    def zero(cls, basis: str = "e") -> "SymF":
        return cls(basis, {})

    @classmethod
    def one(cls, basis: str = "e") -> "SymF":
        return cls(basis, {(): Fraction(1)})

    @classmethod
    def gen(cls, basis: str, k: int, coeff=1) -> "SymF":
        """Single generator e_k / h_k / p_k, or basis element m_(k), s_(k)."""
        if k == 0:
            return cls(basis, {(): Fraction(coeff)})
        return cls(basis, {(k,): Fraction(coeff)})

    @classmethod
    def element(cls, basis: str, lam, coeff=1) -> "SymF":
        return cls(basis, {tuple(lam): Fraction(coeff)})

    def __mul__(self, other):
        if not isinstance(other, SymF):
            return super().__mul__(other)
        if self.basis == other.basis and self.basis in _MULTIPLICATIVE:
            return _merge_mul(self, other)
        a = sym_convert(self, "h")
        b = sym_convert(other, "h")
        return sym_convert(_merge_mul(a, b), self.basis)

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def graded_piece(self, n: int) -> "SymF":
        return SymF(self.basis, {lam: c for lam, c in self.terms.items() if sum(lam) == n})

    def is_homogeneous(self, n: int) -> bool:
        return all(sum(lam) == n for lam in self.terms)


def _merge_mul(x: SymF, y: SymF) -> SymF:
    # product in a multiplicative basis: concatenate and resort the parts
    out: dict = {}
    for l1, c1 in x.terms.items():
        for l2, c2 in y.terms.items():
            key = tuple(sorted(l1 + l2, reverse=True))
            c = c1 * c2
            out[key] = out.get(key, Fraction(0)) + c
    return SymF(x.basis, out)


# -- generator images among the multiplicative bases -------------------------


@lru_cache(maxsize=None)
def _gen_image(src: str, dst: str, k: int) -> SymF:
    """Image of the degree-k generator of ``src`` in basis ``dst``."""
    if k == 0:
        return SymF.one(dst)
    if src == dst:
        return SymF.gen(dst, k)
    if (src, dst) in (("e", "h"), ("h", "e")):
        # H(t)E(-t) = 1  =>  x_n = sum_{j=1..n} (-1)^(j-1) y_j x_{n-j}
        return SymF.sum(
            SymF.gen(dst, j) * _gen_image(src, dst, k - j) * Fraction((-1) ** (j - 1))
            for j in range(1, k + 1)
        )
    if src == "p" and dst == "e":
        # Newton: p_n = sum_{j<n} (-1)^(j-1) e_j p_{n-j} + (-1)^(n-1) n e_n
        return SymF.sum(
            [SymF.gen("e", k) * Fraction((-1) ** (k - 1) * k)]
            + [
                SymF.gen("e", j) * _gen_image("p", "e", k - j) * Fraction((-1) ** (j - 1))
                for j in range(1, k)
            ]
        )
    if src == "e" and dst == "p":
        # e_n = (1/n) sum_{j=1..n} (-1)^(j-1) e_{n-j} p_j
        acc = SymF.sum(
            _gen_image("e", "p", k - j) * SymF.gen("p", j) * Fraction((-1) ** (j - 1))
            for j in range(1, k + 1)
        )
        return acc * Fraction(1, k)
    if src == "p" and dst == "h":
        # n h_n = sum p_j h_{n-j}  =>  p_n = n h_n - sum_{j<n} p_j h_{n-j}
        return SymF.sum(
            [SymF.gen("h", k) * k]
            + [-(_gen_image("p", "h", j) * SymF.gen("h", k - j)) for j in range(1, k)]
        )
    if src == "h" and dst == "p":
        # h_n = (1/n) sum_{j=1..n} h_{n-j} p_j
        acc = SymF.sum(_gen_image("h", "p", k - j) * SymF.gen("p", j) for j in range(1, k + 1))
        return acc * Fraction(1, k)
    raise ValueError(f"no generator route {src} -> {dst}")


def _convert_multiplicative(f: SymF, dst: str) -> SymF:
    return SymF.sum(
        reduce(mul, (_gen_image(f.basis, dst, part) for part in lam), SymF.one(dst)) * c
        for lam, c in f.terms.items()
    )


# -- Jacobi-Trudi -------------------------------------------------------------


@lru_cache(maxsize=None)
def schur_in_h(lam: tuple) -> SymF:
    """s_lambda = det(h_{lambda_i - i + j}) expanded in the h basis."""
    lam = check_partition(lam)
    size = len(lam)
    if size == 0:
        return SymF.one("h")
    memo: dict = {}

    def minor(row: int, cols: tuple) -> dict:
        if row == size:
            return {(): Fraction(1)}
        key = (row, cols)
        if key in memo:
            return memo[key]
        out: dict = {}
        for pos, j in enumerate(cols):
            a = lam[row] - row + j  # h-index at (row, j), 0-based
            if a < 0:
                continue
            sign = Fraction((-1) ** pos)
            rest = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            for mult, c in rest.items():
                key2 = tuple(sorted(mult + ((a,) if a > 0 else ()), reverse=True))
                out[key2] = out.get(key2, Fraction(0)) + sign * c
        memo[key] = out
        return out

    return SymF("h", minor(0, tuple(range(size))))


# -- monomial-basis transitions via realization -------------------------------


@lru_cache(maxsize=None)
def _h_poly(k: int, nvars: int) -> dict:
    """Complete homogeneous h_k in nvars variables, as exponent-tuple -> int."""
    out: dict = {}
    for combo in combinations_with_replacement(range(nvars), k):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def _realize_h_partition(lam: tuple, nvars: int) -> dict:
    acc = {(0,) * nvars: 1}
    for part in lam:
        hp = _h_poly(part, nvars)
        nxt: dict = {}
        for e1, c1 in acc.items():
            for e2, c2 in hp.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = nxt
    return acc


@lru_cache(maxsize=None)
def _h_to_m_matrix(n: int) -> tuple:
    """Rows h_lambda expanded over columns m_mu, partitions(n) order."""
    parts = partitions(n)
    rows = []
    for lam in parts:
        poly = _realize_h_partition(lam, max(n, 1))
        row = []
        for mu in parts:
            e = tuple(mu) + (0,) * (max(n, 1) - len(mu))
            row.append(Fraction(poly.get(e, 0)))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _m_to_h_matrix(n: int) -> tuple:
    inv = inverse_rational([list(r) for r in _h_to_m_matrix(n)])
    if inv is None:
        raise RuntimeError("h-to-m transition is singular (bug)")
    return tuple(tuple(r) for r in inv)


@lru_cache(maxsize=None)
def _s_to_h_matrix(n: int) -> tuple:
    parts = partitions(n)
    return tuple(
        tuple(schur_in_h(lam).coeff(mu) for mu in parts) for lam in parts
    )


@lru_cache(maxsize=None)
def _h_to_s_matrix(n: int) -> tuple:
    inv = inverse_rational([list(r) for r in _s_to_h_matrix(n)])
    if inv is None:
        raise RuntimeError("s-to-h transition is singular (bug)")
    return tuple(tuple(r) for r in inv)


def _apply_degree_matrix(piece: dict, matrix: tuple, n: int) -> dict:
    parts = partitions(n)
    index = {lam: i for i, lam in enumerate(parts)}
    out: dict = {}
    for lam, c in piece.items():
        row = matrix[index[lam]]
        for j, entry in enumerate(row):
            if entry:
                mu = parts[j]
                out[mu] = out.get(mu, Fraction(0)) + c * entry
    return out


# -- the public conversion -----------------------------------------------------


def sym_convert(f: SymF, to: str) -> SymF:
    if to not in BASES:
        raise ValueError(f"unknown basis {to!r}")
    if f.basis == to:
        return f
    if f.degree() > DEGREE_CAP:
        raise InputError(f"degree cap exceeded: {f.degree()} > {DEGREE_CAP}")
    out_terms: dict = {}
    degrees = sorted({sum(lam) for lam in f.terms})
    for n in degrees:
        piece = {lam: c for lam, c in f.terms.items() if sum(lam) == n}
        # normalize the source to the h basis when it is not multiplicative
        src = f.basis
        if src == "m":
            piece = _apply_degree_matrix(piece, _m_to_h_matrix(n), n)
            src = "h"
        elif src == "s":
            piece = SymF.sum(schur_in_h(lam) * c for lam, c in piece.items()).terms
            src = "h"
        if to in _MULTIPLICATIVE:
            conv = _convert_multiplicative(SymF(src, piece), to)
            for lam, c in conv.terms.items():
                out_terms[lam] = out_terms.get(lam, Fraction(0)) + c
        else:
            in_h = SymF(src, piece) if src == "h" else _convert_multiplicative(SymF(src, piece), "h")
            matrix = _h_to_m_matrix(n) if to == "m" else _h_to_s_matrix(n)
            for lam, c in _apply_degree_matrix(in_h.terms, matrix, n).items():
                out_terms[lam] = out_terms.get(lam, Fraction(0)) + c
    return SymF(to, out_terms)


# -- involutions, pairing, realization ----------------------------------------


def involution(f: SymF, which: str) -> SymF:
    """sign: e_k -> (-1)^k e_k.  inverse: e_k -> (-1)^k h_k.

    Both are algebra involutions; on power sums the inverse variant gives
    p_k -> -p_k. They commute and generate a Klein four-group together with
    their composite.
    """
    if which == "sign":
        in_e = sym_convert(f, "e")
        flipped = SymF("e", {lam: c * Fraction((-1) ** sum(lam)) for lam, c in in_e.terms.items()})
        return sym_convert(flipped, f.basis)
    if which == "inverse":
        in_e = sym_convert(f, "e")
        in_h = SymF("h", {lam: c * Fraction((-1) ** sum(lam)) for lam, c in in_e.terms.items()})
        return sym_convert(in_h, f.basis)
    raise ValueError(f"unknown involution {which!r}")


def hall_pairing(f: SymF, g: SymF) -> Fraction:
    """Hall inner product, computed from <h_lambda, m_mu> = delta."""
    fh = sym_convert(f, "h")
    gm = sym_convert(g, "m")
    total = Fraction(0)
    for lam, c in fh.terms.items():
        d = gm.terms.get(lam)
        if d is not None:
            total += c * d
    return total


def sym_realize(f: SymF, nvars: int) -> SparsePoly:
    """Evaluate in x1..xk by expanding through the h basis."""
    fh = sym_convert(f, "h")
    names = [f"x{i}" for i in range(1, nvars + 1)]
    return SparsePoly.sum(
        SparsePoly.monomial(dict(zip(names, e)), n * c)
        for lam, c in fh.terms.items()
        for e, n in _realize_h_partition(lam, nvars).items()
    )


# -- abelianization maps out of the free algebra --------------------------------


def abelianize_ncf(x: NCF, naming: str = "sym"):
    """Ring map killing commutators: Z_i -> e_i (naming="sym", e-basis SymF)
    or Z_i -> t_i (naming="diffeo", commutative SparsePoly)."""
    if naming == "sym":
        out: dict = {}
        for w, c in x.terms.items():
            lam = to_partition(w)
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymF("e", out)
    if naming == "diffeo":
        return SparsePoly.sum(
            SparsePoly.monomial(Counter(f"t{i}" for i in w), c) for w, c in x.terms.items()
        )
    raise ValueError(f"unknown naming {naming!r}")


def abelianize_tensor(t: TensorNCF, naming: str = "diffeo") -> SparsePoly:
    """Tensor-square abelianization onto polynomials: left slot t_i, right t_i'."""
    if naming != "diffeo":
        raise ValueError("tensor abelianization targets the diffeo naming")
    return SparsePoly.sum(
        SparsePoly.monomial(Counter([f"t{i}" for i in w1] + [f"t{i}'" for i in w2]), c)
        for (w1, w2), c in t.terms.items()
    )


def qsf_to_sym(q: QSF) -> SymF:
    """Forget the ordering: M_alpha -> m_{sort(alpha)}."""
    out: dict = {}
    for a, c in q.terms.items():
        lam = to_partition(a)
        out[lam] = out.get(lam, Fraction(0)) + c
    return SymF("m", out)
