"""Symmetric functions over Q in the e, h, p, m, s bases.

Conversions are exact: e <-> h through the series relation H(t)E(-t) = 1,
p through the Newton recurrences, and the m and s bases through per-degree
integer matrices that all come from one Kostka matrix K (s = K m, h = K^T s),
whose entries count semistandard tableaux. Everything is cached per degree;
inputs above DEGREE_CAP are refused rather than silently truncated. A
realization in variables goes through the e basis, where e_k = M_(1^k).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

from ..errors import InputError
from ..exactcore import SparsePoly, identity, mat_mul, transpose
from ..exactcore.terms import Terms, algebra_map, key_str
from .compositions import check_partition, partitions, to_partition
from .nsym import NCF, TensorNCF
from .qsym import QSF, qsym_realize

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
            raise InputError(f"unknown basis {basis!r}")
        object.__setattr__(self, "basis", basis)
        super().__init__(terms)

    def _new(self, terms) -> "SymF":
        out = self._trusted(terms)
        object.__setattr__(out, "basis", self.basis)
        return out

    def _aligned(self, other: "SymF") -> "SymF":
        # e, h and p convert into each other with no degree cap
        if self.basis in _MULTIPLICATIVE and other.basis in _MULTIPLICATIVE:
            return _convert_multiplicative(other, self.basis)
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
        return cls(basis, {(): 1})

    @classmethod
    def gen(cls, basis: str, k: int, coeff=1) -> "SymF":
        """Single generator e_k / h_k / p_k, or basis element m_(k), s_(k)."""
        if k == 0:
            return cls(basis, {(): coeff})
        return cls(basis, {(k,): coeff})

    @classmethod
    def element(cls, basis: str, lam, coeff=1) -> "SymF":
        return cls(basis, {tuple(lam): coeff})

    def __mul__(self, other):
        if not isinstance(other, SymF):
            return super().__mul__(other)
        # e, h and p convert into each other with no degree cap; m and s
        # multiply through h
        if self.basis in _MULTIPLICATIVE and other.basis in _MULTIPLICATIVE:
            return self._product(_convert_multiplicative(other, self.basis), _merge_parts)
        a = sym_convert(self, "h")
        return sym_convert(a._product(sym_convert(other, "h"), _merge_parts), self.basis)

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def graded_piece(self, n: int) -> "SymF":
        return SymF(self.basis, {lam: c for lam, c in self.terms.items() if sum(lam) == n})


def _merge_parts(a: tuple, b: tuple) -> tuple:
    """Product of two keys in a multiplicative basis: the parts of both, resorted."""
    return tuple(sorted(a + b, reverse=True))


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
            SymF.gen(dst, j) * _gen_image(src, dst, k - j) * (-1) ** (j - 1)
            for j in range(1, k + 1)
        )
    if src == "p" and dst == "e":
        # Newton: p_n = sum_{j<n} (-1)^(j-1) e_j p_{n-j} + (-1)^(n-1) n e_n
        return SymF.sum(
            [SymF.gen("e", k) * ((-1) ** (k - 1) * k)]
            + [
                SymF.gen("e", j) * _gen_image("p", "e", k - j) * (-1) ** (j - 1)
                for j in range(1, k)
            ]
        )
    if src == "e" and dst == "p":
        # e_n = (1/n) sum_{j=1..n} (-1)^(j-1) e_{n-j} p_j
        acc = SymF.sum(
            _gen_image("e", "p", k - j) * SymF.gen("p", j) * (-1) ** (j - 1)
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
    if f.basis == dst:
        return f
    return algebra_map(f, partial(_gen_image, f.basis, dst), SymF.one(dst))


# -- Kostka numbers and the m, s transitions ----------------------------------


def _strip_inner(shape: tuple, k: int):
    """Shapes nu inside ``shape`` such that shape/nu is a horizontal strip of k boxes."""
    if not shape:
        if k == 0:
            yield ()
        return
    below = shape[1] if len(shape) > 1 else 0
    for take in range(min(k, shape[0] - below) + 1):
        head = shape[0] - take
        for rest in _strip_inner(shape[1:], k - take):
            yield (head,) + rest if head else rest


@lru_cache(maxsize=None)
def _kostka_number(shape: tuple, content: tuple) -> int:
    """Semistandard tableaux of ``shape`` and ``content``.

    The entries equal to the largest letter fill a horizontal strip; strip it
    and count the rest.
    """
    if not content:
        return 0 if shape else 1
    return sum(_kostka_number(inner, content[:-1]) for inner in _strip_inner(shape, content[-1]))


def _inverse_unitriangular(u: list) -> list:
    """Inverse of an upper unitriangular integer matrix, by back-substitution."""
    # not exactcore.cramer: on the 42x42 degree-10 Kostka matrix this is 5x faster
    size = len(u)
    inv = identity(size)
    for i in reversed(range(size)):
        for j in range(i + 1, size):
            inv[i][j] = -sum(u[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return inv


@lru_cache(maxsize=None)
def _transitions(n: int) -> dict:
    """Degree-n matrices between h and the m, s bases, keyed by (source, target).

    Row lambda expands the source element lambda over the target basis, rows
    and columns in partitions(n) order. All of them come from the Kostka
    matrix K, where s = K m and h = K^T s (Macdonald I.6-I.7): h -> s is K^T,
    h -> m is K^T K, and s -> h, m -> h are their inverses. K is upper
    unitriangular in this order, so its inverse is an integer matrix too.
    """
    parts = partitions(n)
    k = [[_kostka_number(lam, mu) for mu in parts] for lam in parts]
    kt = transpose(k)
    kinv = _inverse_unitriangular(k)
    kinv_t = transpose(kinv)
    return {
        ("h", "s"): kt,
        ("s", "h"): kinv_t,
        ("h", "m"): mat_mul(kt, k),
        ("m", "h"): mat_mul(kinv, kinv_t),
    }


def _apply_transition(piece: SymF, to: str, n: int) -> SymF:
    """A degree-n piece moved between h and m or s by one transition matrix."""
    parts = partitions(n)
    rows = dict(zip(parts, _transitions(n)[piece.basis, to]))
    out: dict = {}
    for lam, c in piece.terms.items():
        for mu, entry in zip(parts, rows[lam]):
            if entry:
                v = c * entry
                out[mu] = out[mu] + v if mu in out else v
    return SymF(to, out)


@lru_cache(maxsize=None)
def schur_in_h(lam: tuple) -> SymF:
    """s_lambda in the h basis (the Jacobi-Trudi expansion): row lambda of K^-T."""
    lam = check_partition(lam)
    return _apply_transition(SymF("s", {lam: 1}), "h", sum(lam))


# -- the public conversion -----------------------------------------------------


def sym_convert(f: SymF, to: str) -> SymF:
    if to not in BASES:
        raise InputError(f"unknown basis {to!r}")
    if f.basis == to:
        return f
    if f.degree() > DEGREE_CAP:
        raise InputError(f"degree cap exceeded: {f.degree()} > {DEGREE_CAP}")
    out_terms: dict = {}
    for n in sorted({sum(lam) for lam in f.terms}):
        piece = f.graded_piece(n)
        # m and s reach the multiplicative bases through h
        if piece.basis not in _MULTIPLICATIVE:
            piece = _apply_transition(piece, "h", n)
        if to in _MULTIPLICATIVE:
            piece = _convert_multiplicative(piece, to)
        else:
            piece = _apply_transition(_convert_multiplicative(piece, "h"), to, n)
        # pieces of different degrees share no partition
        out_terms.update(piece.terms)
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
        flipped = SymF("e", {lam: c * (-1) ** sum(lam) for lam, c in in_e.terms.items()})
        return sym_convert(flipped, f.basis)
    if which == "inverse":
        in_e = sym_convert(f, "e")
        in_h = SymF("h", {lam: c * (-1) ** sum(lam) for lam, c in in_e.terms.items()})
        return sym_convert(in_h, f.basis)
    raise ValueError(f"unknown involution {which!r}")


def hall_pairing(f: SymF, g: SymF) -> int | Fraction:
    """Hall inner product, computed from <h_lambda, m_mu> = delta."""
    fh = sym_convert(f, "h")
    gm = sym_convert(g, "m")
    total = 0
    for lam, c in fh.terms.items():
        d = gm.terms.get(lam)
        if d is not None:
            total += c * d
    return total


def sym_realize(f: SymF, nvars: int) -> SparsePoly:
    """Evaluate in x1..xk as a product of e_k = M_(1^k) in the e basis."""
    return algebra_map(
        sym_convert(f, "e"), lambda k: qsym_realize((1,) * k, nvars), SparsePoly.one()
    )


# -- abelianization maps out of the free algebra --------------------------------


def abelianize_ncf(x: NCF, naming: str = "sym"):
    """Ring map killing commutators: Z_i -> e_i (naming="sym", e-basis SymF)
    or Z_i -> t_i (naming="diffeo", commutative SparsePoly)."""
    if naming == "sym":
        out: dict = {}
        for w, c in x.terms.items():
            lam = to_partition(w)
            out[lam] = out[lam] + c if lam in out else c
        return SymF("e", out)
    if naming == "diffeo":
        return SparsePoly.sum(
            SparsePoly.monomial(Counter(f"t{i}" for i in w), c) for w, c in x.terms.items()
        )
    raise ValueError(f"unknown naming {naming!r}")


def abelianize_tensor(t: TensorNCF) -> SparsePoly:
    """Tensor-square abelianization onto polynomials: left slot t_i, right t_i'."""
    return SparsePoly.sum(
        SparsePoly.monomial(Counter([f"t{i}" for i in w1] + [f"t{i}'" for i in w2]), c)
        for (w1, w2), c in t.terms.items()
    )


def qsf_to_sym(q: QSF) -> SymF:
    """Forget the ordering: M_alpha -> m_{sort(alpha)}."""
    out: dict = {}
    for a, c in q.terms.items():
        lam = to_partition(a)
        out[lam] = out[lam] + c if lam in out else c
    return SymF("m", out)
