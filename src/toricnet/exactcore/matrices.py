"""Exact linear algebra over Z and Q.

Every elimination runs on integers: a rational matrix is cleared row by row
(``clear_denominators``), a square system goes through one fraction-free
elimination (``cramer``: det A and adj(A) * B), and ranks, kernels and Smith
forms through the Hermite normal form. The Fraction Gauss-Jordan trio
(``rational_rref``, ``solve_rational``, ``inverse_rational``) remains only
for the public API and the benchmark tracer. No floats anywhere.

Matrices are plain lists of row lists; functions never mutate their inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polynomials import SparsePoly

Matrix = list  # list of row lists


def dims(a: Matrix) -> tuple[int, int]:
    if not a:
        return 0, 0
    ncols = len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    return len(a), ncols


def transpose(a: Matrix) -> Matrix:
    m, n = dims(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m, k = dims(a)
    k2, n = dims(b)
    if k != k2:
        raise ValueError("shape mismatch")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# ---------------------------------------------------------------------------
# square systems


def _integer_matrix(a: Matrix) -> Matrix:
    """A copy of a with every entry an int; a float or other non-rational
    entry raises TypeError, a non-integral Fraction ValueError."""
    rows, scale = clear_denominators(a)
    if scale != 1:
        raise ValueError("integer matrix expected")
    return rows


def cramer(a: Matrix, b: Matrix = ()) -> tuple[int, Matrix | None]:
    """(det A, adj(A) * B) for square integer A and integer B with as many
    rows, from one fraction-free elimination of [A | B] (Bareiss, Math. Comp.
    22 (1968)), every division exact. With columns in B it clears every other
    row (Gauss-Jordan), leaving det A * A^{-1} B on the right; with none, only
    the rows below each pivot. A singular A gives (0, None); n = 0, (1, [])."""
    n, ncols = dims(a)
    if n != ncols or (b and dims(b)[0] != n):
        raise ValueError("cramer needs a square matrix and a right side with as many rows")
    M = _integer_matrix([[*row, *extra] for row, extra in zip(a, b)] if b else a)
    sign = prev = 1
    for k in range(n):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot is None:
                return 0, None
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        top = M[k]
        p = top[k]
        for row in M[:k] + M[k + 1 :] if b else M[k + 1 :]:
            f = row[k]
            for j in range(k + 1, len(top)):
                # Bareiss guarantees exact divisibility by the previous pivot
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in M]


def ff_determinant(a: Matrix):
    """Exact determinant: an int when integral, otherwise a Fraction.

    Ints and Fractions are cleared to integers for one ``cramer`` elimination,
    the product of the row scales divided out at the end; polynomial entries
    use cofactor expansion memoized over column subsets (supported up to
    size 6, which the callers respect).
    """
    m, n = dims(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if any(isinstance(x, SparsePoly) for row in a for x in row):
        return _det_cofactor(a)
    rows, scale = clear_denominators(a)
    det = cramer(rows)[0]
    q, r = divmod(det, scale)
    return q if r == 0 else Fraction(det, scale)


COFACTOR_CAP = 6


def _det_cofactor(a: Matrix):
    n = len(a)
    if n > COFACTOR_CAP:
        raise ValueError(f"polynomial determinant supported up to size {COFACTOR_CAP}, got {n}")
    rows = [[x if isinstance(x, SparsePoly) else SparsePoly.const(x) for x in row] for row in a]
    memo: dict = {}

    def det(cols: tuple):
        if not cols:
            return SparsePoly.one()
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        acc = SparsePoly.sum(
            rows[r][c] * det(cols[:idx] + cols[idx + 1 :]) * (-1) ** idx
            for idx, c in enumerate(cols)
            if not rows[r][c].is_zero()
        )
        memo[cols] = acc
        return acc

    return det(tuple(range(n)))


# ---------------------------------------------------------------------------
# unimodular reduction over Z


def hermite_normal_form(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, H in row-echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    m, n = dims(a)
    H = _integer_matrix(a)
    U = identity(m)

    def combine(r, src, q):  # row r -= q * row src
        if q == 0:
            return
        H[r] = [x - q * y for x, y in zip(H[r], H[src])]
        U[r] = [x - q * y for x, y in zip(U[r], U[src])]

    pivot_row = 0
    for col in range(n):
        live = [r for r in range(pivot_row, m) if H[r][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(H[r][col]))
            base = live[0]
            for r in live[1:]:
                combine(r, base, H[r][col] // H[base][col])
            live = [r for r in range(pivot_row, m) if H[r][col] != 0]
        r0 = live[0]
        if r0 != pivot_row:
            H[r0], H[pivot_row] = H[pivot_row], H[r0]
            U[r0], U[pivot_row] = U[pivot_row], U[r0]
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-x for x in H[pivot_row]]
            U[pivot_row] = [-x for x in U[pivot_row]]
        p = H[pivot_row][col]
        for r in range(pivot_row):
            combine(r, pivot_row, H[r][col] // p)
        pivot_row += 1
        if pivot_row == m:
            break
    return H, U


def clear_denominators(a: Matrix) -> tuple[Matrix, int]:
    """Each row times the lcm of its denominators, and the product of those
    scales: the rank and the kernel are kept, and the determinant is
    multiplied by the product. A float or other non-rational entry raises
    TypeError."""
    cleared = []
    product = 1
    for row in a:
        if all(type(x) is int for x in row):  # the common case makes no Fraction
            cleared.append(list(row))
            continue
        try:
            scale = lcm(*(x.denominator for x in row))
        except AttributeError:
            raise TypeError(f"expected int or Fraction entries, got {row!r}") from None
        cleared.append([x.numerator * (scale // x.denominator) for x in row])
        product *= scale
    return cleared, product


def rank(a: Matrix) -> int:
    """Rank over Q: the number of nonzero rows of the Hermite normal form."""
    return sum(1 for row in hermite_normal_form(clear_denominators(a)[0])[0] if any(row))


def lattice_kernel(a: Matrix) -> list[list[int]]:
    """Basis of the integer kernel {u : A u = 0}, canonically normalized.

    The basis is the Hermite normal form of the kernel lattice, so equal
    lattices produce byte-identical output; each vector's first nonzero entry
    is positive. Rational input rows are cleared to integers first (row
    scaling does not change the kernel).
    """
    m, n = dims(a)
    B = transpose(clear_denominators(a)[0])  # n x m; rows indexed by kernel coordinates
    H, U = hermite_normal_form(B)
    kernel_rows = [U[i] for i in range(n) if all(x == 0 for x in H[i])]
    if not kernel_rows:
        return []
    K, _ = hermite_normal_form(kernel_rows)
    return [row for row in K if any(row)]


def smith_normal_form(a: Matrix) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Row-style Hermite forms of the matrix and of its transpose alternate
    until it is diagonal (Kannan-Bachem): each round can only shrink the
    leading pivot, and a pivot that divides its row and column clears both.
    Gcd/lcm exchanges then put the nonzero diagonal into divisibility order.
    """
    M = a
    while True:
        M = [row for row in hermite_normal_form(M)[0] if any(row)]
        if all(x == 0 for i, row in enumerate(M) for j, x in enumerate(row) if i != j):
            break
        M = transpose(M)
    divisors = [M[i][i] for i in range(len(M))]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return divisors


# ---------------------------------------------------------------------------
# rational elimination


def _fraction(x) -> Fraction:
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected int or Fraction entries, got {x!r}")
    return Fraction(x)


def rational_rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Q. Returns (R, pivot_columns). A float
    or other non-rational entry raises TypeError."""
    m, n = dims(a)
    R = [[_fraction(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def solve_rational(a: Matrix, b: list) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent."""
    m, n = dims(a)
    aug = [[*row, b[i]] for i, row in enumerate(a)]
    R, pivots = rational_rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = R[r][n]
    return x


def inverse_rational(a: Matrix) -> Matrix | None:
    """Exact inverse of a square rational matrix, or None if singular."""
    m, n = dims(a)
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    aug = [[*row, *e] for row, e in zip(a, identity(n))]
    R, pivots = rational_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R[:n]]
