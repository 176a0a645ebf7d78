"""Top-degree evaluation of quasitoric data against independent oracles.

``EvalContext`` evaluates a class from its restrictions to the fixed points
by the fixed-point formula at one generic point t, and ``charnum`` builds the
classes as such restrictions. The oracle here is a construction neither uses: the relation matrix over all degree-n face monomials, one row per
(degree-(n-1) face monomial, row of Lambda), and its one-dimensional
nullspace taken by sympy. The Bott-tower oracle reduces by the
Stanley-Reisner relations instead. Neither shares code with
``toricnet.torictop.quasitoric``; the classes checked against them are
expanded into monomials here. The formula's own checks (the integral of 1
vanishes, every value is an integer) are reached by corrupting one input each.
Each facet inverse is checked against sympy's product and determinant.
"""

import random
from fractions import Fraction as F
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod

import pytest
import sympy

from toricnet.errors import InternalError
from toricnet.ncsf import compositions, partitions
from toricnet.torictop import (
    DelzantPolytope,
    QuasitoricData,
    SimplicialComplex,
    chern_numbers,
    complete_class,
    cpn_data,
    delzant_to_quasitoric,
    elementary_class,
    eval_context,
    hamiltonian_numbers,
    mxi_numbers,
)
from toricnet.torictop import complexes, quasitoric


# ---------------------------------------------------------------- data


def cpn(n):
    facets = list(combinations(range(1, n + 2), n))
    lam = [[1 if j == i else (-1 if j == n else 0) for j in range(n + 1)] for i in range(n)]
    return QuasitoricData(SimplicialComplex(n + 1, tuple(facets)), tuple(map(tuple, lam)))


def times(a, b):
    facets = [fa + tuple(v + a.m for v in fb) for fa in a.complex.facets for fb in b.complex.facets]
    lam = [row + (0,) * b.m for row in a.lam] + [(0,) * a.m + row for row in b.lam]
    return QuasitoricData(SimplicialComplex(a.m + b.m, tuple(facets)), tuple(lam))


def bott(c):
    """Lambda = [I | L], L lower triangular with -1 on the diagonal, c below it."""
    n = len(c)
    facets = [
        tuple(sorted(i + 1 if pick == 0 else n + i + 1 for i, pick in enumerate(choice)))
        for choice in product((0, 1), repeat=n)
    ]
    lam = [[0] * (2 * n) for _ in range(n)]
    for i in range(n):
        lam[i][i] = 1
        lam[i][n + i] = -1
        for j in range(i):
            lam[i][n + j] = c[i][j]
    return QuasitoricData(SimplicialComplex(2 * n, tuple(facets)), tuple(map(tuple, lam)))


def twisted(q):
    """q with Lambda multiplied on the left by a fixed det-1 integer matrix."""
    n = q.n
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):  # row additions keep the determinant 1
        t[i] = [x + y for x, y in zip(t[i], t[i + 1])]
    if n > 1:
        t[n - 1] = [x - 2 * y for x, y in zip(t[n - 1], t[0])]
    lam = [[sum(t[i][k] * q.lam[k][j] for k in range(n)) for j in range(q.m)] for i in range(n)]
    return QuasitoricData(q.complex, tuple(map(tuple, lam)))


def flipped(q):
    return QuasitoricData(q.complex, q.lam, orientation_flip=True)


HIRZEBRUCH = DelzantPolytope(((1, 0), (0, 1), (-1, 0), (-1, -1)), (F(0), F(0), F(-3), F(-5)))
# the cube [0,2]^3 with one corner cut off: 7 facets, smooth
CUT_CUBE = DelzantPolytope(
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1)),
    (F(0), F(0), F(0), F(-2), F(-2), F(-2), F(-5)),
)

BASES = {
    "CP1": cpn(1),
    "CP2": cpn(2),
    "CP3": cpn(3),
    "CP4": cpn(4),
    "CP1xCP1": times(cpn(1), cpn(1)),
    "CP1xCP2": times(cpn(1), cpn(2)),
    "CP2xCP2": times(cpn(2), cpn(2)),
    "CP1xCP3": times(cpn(1), cpn(3)),
    "bott2": bott([[], [2]]),
    "bott3": bott([[], [1], [-1, 2]]),
    "hirzebruch": delzant_to_quasitoric(HIRZEBRUCH)[0],
    "cut-cube": delzant_to_quasitoric(CUT_CUBE)[0],
}
VARIANTS = {"plain": lambda q: q, "twisted": twisted, "flipped": flipped}


# ---------------------------------------------------------------- dense oracle


def face_monomials(q, degree):
    """Exponent vectors of the given degree supported on a face."""
    out = set()
    for facet in q.complex.facets:
        cols = [v - 1 for v in facet]
        for exps in product(range(degree + 1), repeat=len(cols)):
            if sum(exps) == degree:
                e = [0] * q.m
                for c, x in zip(cols, exps):
                    e[c] = x
                out.add(tuple(e))
    return sorted(out)


def dense_phi(q):
    """phi on every degree-n face monomial, from the nullspace of all relations."""
    basis = face_monomials(q, q.n)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for mu in face_monomials(q, q.n - 1):
        for lam_row in q.lam:
            row = [0] * len(basis)
            for i, c in enumerate(lam_row):
                e = list(mu)
                e[i] += 1
                if c and tuple(e) in index:
                    row[index[tuple(e)]] += c
            if any(row):
                rows.append(row)
    kernel = sympy.Matrix(rows).nullspace()
    assert len(kernel) == 1
    base = q.complex.facets[0]
    base_mono = tuple(int(i + 1 in base) for i in range(q.m))
    det = sympy.Matrix([[row[v - 1] for v in base] for row in q.lam]).det()
    want = -det if q.orientation_flip else det
    vec = kernel[0] * (want / kernel[0][index[base_mono]])
    return {e: F(int(sympy.fraction(x)[0]), int(sympy.fraction(x)[1])) for e, x in zip(basis, vec)}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(BASES))
def test_phi_matches_dense_nullspace(name, variant):
    q = VARIANTS[variant](BASES[name])
    assert q.validate().valid
    ctx = eval_context(q)
    want = dense_phi(q)
    got = {e: ctx.evaluate_monomial(e) for e in want}
    assert got == want


def _monomial(m, exponents):
    """{index: exponent} as an exponent vector of length m."""
    return tuple(exponents.get(i, 0) for i in range(m))


def _elementary(m, k):
    return {_monomial(m, dict.fromkeys(chosen, 1)): 1 for chosen in combinations(range(m), k)}


def _complete(m, k):
    return dict(
        Counter(_monomial(m, Counter(chosen)) for chosen in combinations_with_replacement(range(m), k))
    )


def _composition(m, alpha):
    """M_alpha(v_1..v_m): v_{i_1}^{a_1} ... v_{i_l}^{a_l} over i_1 < ... < i_l."""
    return {
        _monomial(m, dict(zip(chosen, alpha))): 1 for chosen in combinations(range(m), len(alpha))
    }


def _pair(phi, poly):
    """A degree-n polynomial paired with [M]; non-face monomials pair to 0."""
    return sum(c * phi.get(e, 0) for e, c in poly.items())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(BASES))
def test_classes_match_their_monomial_expansion(name, variant):
    q = VARIANTS[variant](BASES[name])
    phi = dense_phi(q)
    m, n = q.m, q.n
    for lam in partitions(n):
        tangent = normal = {(0,) * m: 1}
        for p in lam:
            tangent = _poly_mul(tangent, _elementary(m, p))
            normal = _poly_mul(normal, {e: (-1) ** p * c for e, c in _complete(m, p).items()})
        assert chern_numbers(q, lam) == _pair(phi, tangent), lam
        assert chern_numbers(q, lam, bundle="normal") == _pair(phi, normal), lam
    table = mxi_numbers(q).table
    assert [alpha for alpha, _ in table] == list(compositions(n))
    for alpha, value in table:
        assert value == _pair(phi, _composition(m, alpha)), alpha
    # e_k and h_k restrict at each fixed point to e_k and h_k of its weights,
    # also above the dimension, where e_k vanishes and h_k does not
    weights = eval_context(q).weights
    for k in range(n + 3):
        assert elementary_class(q, k) == [sum(map(prod, combinations(ws, k))) for ws in weights], k
        assert complete_class(q, k) == [
            sum(map(prod, combinations_with_replacement(ws, k))) for ws in weights
        ], k
    # u = sum_i i * v_i
    u = {_monomial(m, {i: 1}): i + 1 for i in range(m)}
    u_powers = [{(0,) * m: 1}]
    for _ in range(n):
        u_powers.append(_poly_mul(u_powers[-1], u))
    want = []
    for i in range(n + 1):
        for alpha in compositions(i):
            want.append((alpha, _pair(phi, _poly_mul(_composition(m, alpha), u_powers[n - i]))))
    assert hamiltonian_numbers(q, range(1, m + 1)).table == tuple(want)
    want = []
    for i in range(n + 1):
        for lam in partitions(i):
            h = u_powers[n - i]
            for p in lam:
                h = _poly_mul(h, _complete(m, p))
            want.append((lam, (-1) ** i * _pair(phi, h)))
    assert hamiltonian_numbers(q, range(1, m + 1), convention="ginzburg").table == tuple(want)


# ---------------------------------------------------------------- cases now in reach


@pytest.mark.parametrize("n", [5, 6])
def test_cpn_binomial_table_and_euler_number(n):
    q = cpn_data(n)
    for alpha, val in mxi_numbers(q).table:
        assert val == comb(n + 1, len(alpha))
    assert chern_numbers(q, (n,)) == n + 1


def test_product_table_is_the_concatenation_of_factor_tables():
    # M_alpha(x, y) = sum over alpha = beta.gamma of M_beta(x) M_gamma(y), and
    # only bidegree (2, 3) survives on CP^2 x CP^3
    a, b = cpn(2), cpn(3)
    table = dict(mxi_numbers(times(a, b)).table)
    ta, tb = dict(mxi_numbers(a).table), dict(mxi_numbers(b).table)
    for alpha in compositions(5):
        want = F(0)
        for cut in range(len(alpha) + 1):
            beta, gamma = alpha[:cut], alpha[cut:]
            if sum(beta) == 2 and sum(gamma) == 3:
                assert ta[beta] == comb(3, len(beta))
                assert tb[gamma] == comb(4, len(gamma))
                want += ta[beta] * tb[gamma]
        assert table[alpha] == want
    assert chern_numbers(times(a, b), (5,)) == 12  # Euler number 3 * 4


def _reduce_bott(c, poly):
    """The coefficient of y_1 ... y_n in the reduction of a degree-n polynomial.

    v_i * v_{n+i} = 0 gives y_i^2 = y_i * sum_{j<i} c[i][j] y_j; rewriting the
    highest square first ends on multiples of y_1 ... y_n.
    """
    n = len(c)
    total = F(0)
    work = dict(poly)
    while work:
        e, coeff = work.popitem()
        squares = [i for i in range(n) if e[i] >= 2]
        if not squares:
            if all(x == 1 for x in e):
                total += coeff
            continue
        i = max(squares)
        for j in range(i):
            if c[i][j]:
                f = list(e)
                f[i] -= 1
                f[j] += 1
                f = tuple(f)
                work[f] = work.get(f, 0) + coeff * c[i][j]
    return total


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def test_bott_tower_of_dimension_4_matches_stanley_reisner_reduction():
    c = [[], [1], [-1, 2], [2, 0, -1]]
    n = len(c)
    q = bott(c)

    def y(i):
        return tuple(int(k == i) for k in range(n))

    # v_i = y_i - sum_{j<i} c[i][j] y_j from the row i of Lambda; v_{n+i} = y_i
    vs = [{y(i): 1, **{y(j): -c[i][j] for j in range(i) if c[i][j]}} for i in range(n)]
    vs += [{y(i): 1} for i in range(n)]
    one = {(0,) * n: 1}
    base = one
    for v in vs[:n]:
        base = _poly_mul(base, v)
    scale = _reduce_bott(c, base)  # v_1 ... v_n pairs to det Lambda_{1..n} = 1
    table = dict(mxi_numbers(q).table)
    for alpha in compositions(n):
        cls = {}
        for chosen in combinations(range(2 * n), len(alpha)):
            term = one
            for i, a in zip(chosen, alpha):
                for _ in range(a):
                    term = _poly_mul(term, vs[i])
            for e, x in term.items():
                cls[e] = cls.get(e, 0) + x
        assert table[alpha] == _reduce_bott(c, cls) / scale, alpha
    # c_n is the Euler number: 2^n fixed points
    assert chern_numbers(q, (n,)) == 2**n


# ---------------------------------------------------------------- the context cache


def _cp2_twist(a):
    """CP^2 with Lambda multiplied by [[1, a], [0, 1]]: distinct keys, same space."""
    lam = ((1, a, -1 - a), (0, 1, -1))
    return QuasitoricData(cpn(2).complex, lam)


@pytest.fixture
def counted(monkeypatch):
    monkeypatch.setattr(quasitoric, "_CONTEXTS", {})
    builds = []
    original = quasitoric.EvalContext.__init__

    def init(self, q):
        builds.append(q)
        original(self, q)

    monkeypatch.setattr(quasitoric.EvalContext, "__init__", init)
    return builds


def test_cache_stays_within_its_bound(counted):
    limit = quasitoric._CONTEXT_LIMIT
    for a in range(limit + 5):
        eval_context(_cp2_twist(a))
        assert len(quasitoric._CONTEXTS) <= limit
    assert len(counted) == limit + 5


def test_cache_hit_within_bound_does_not_rebuild(counted):
    limit = quasitoric._CONTEXT_LIMIT
    first = eval_context(_cp2_twist(0))
    for a in range(1, limit):
        eval_context(_cp2_twist(a))
        # a hit moves the entry to the newest end, so it outlives later inserts
        assert eval_context(_cp2_twist(0)) is first
    eval_context(_cp2_twist(limit))
    assert eval_context(_cp2_twist(0)) is first
    assert len(counted) == limit + 1


def test_evicted_context_rebuilds_identically(counted):
    limit = quasitoric._CONTEXT_LIMIT
    q = _cp2_twist(0)
    old = eval_context(q)
    for a in range(1, limit + 1):
        eval_context(_cp2_twist(a))
    assert (q.complex, q.lam, q.orientation_flip) not in quasitoric._CONTEXTS
    new = eval_context(q)
    assert new is not old
    monomials = face_monomials(q, q.n)
    assert [new.evaluate_monomial(e) for e in monomials] == [
        old.evaluate_monomial(e) for e in monomials
    ]
    assert len(counted) == limit + 2


# ---------------------------------------------------------------- facet inverses


def _random_unimodular(rng, n):
    """A product of random row additions and row negations: det +-1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j or rng.random() < 0.2:
            a[i] = [-x for x in a[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def _check_inverse_rows(lam, facet):
    square = sympy.Matrix([[row[v - 1] for v in facet] for row in lam])
    det, rows = quasitoric._inverse_rows(lam, facet)
    assert sympy.Matrix(rows) * square == sympy.eye(len(lam)), (lam, facet)
    assert det == square.det(), (lam, facet)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(BASES))
def test_facet_inverses_match_sympy(name, variant):
    q = VARIANTS[variant](BASES[name])
    for facet in q.complex.facets:
        _check_inverse_rows(q.lam, facet)


def test_inverse_rows_of_random_unimodular_matrices():
    rng = random.Random(0)
    for n in range(1, 7):
        for _ in range(25):
            _check_inverse_rows(_random_unimodular(rng, n), tuple(range(1, n + 1)))


# ---------------------------------------------------------------- cross-checks


def test_orientation_check_fires_on_wrong_facet_signs(monkeypatch):
    # the validation pass finds the orientation in the sphere battery
    signs = complexes.orientation_signs
    monkeypatch.setattr(
        complexes, "orientation_signs", lambda k: {i: -s if i else s for i, s in signs(k).items()}
    )
    with pytest.raises(InternalError, match="integral of 1 at t = .* expected 0"):
        quasitoric.EvalContext(cpn(2))


def test_integrality_check_fires_on_a_negated_facet_inverse(monkeypatch):
    # negating det and Lambda_sigma^{-1} on one facet of CP^3 leaves
    # eps(sigma) / prod_j w_{sigma,j} unchanged in odd dimension, so the
    # integral of 1 still vanishes, while phi(v_3^3) picks up a non-integer
    inverse_rows = quasitoric._inverse_rows
    q = cpn(3)
    base = q.complex.facets[0]

    def negated(lam, facet):
        det, rows = inverse_rows(lam, facet)
        if facet != base:
            return det, rows
        return -det, [[-x for x in row] for row in rows]

    monkeypatch.setattr(quasitoric, "_inverse_rows", negated)
    ctx = quasitoric.EvalContext(q)
    with pytest.raises(InternalError, match=r"\(0, 0, 3, 0\) at t = .* is -112/9, not an integer"):
        ctx.evaluate_monomial((0, 0, 3, 0))


def _other_point(rows):
    """A second generic point, chosen by a rule unlike the library's."""
    n = len(rows[0])
    for s in range(5, 100):
        t = [(-s) ** j - 3 * j for j in range(1, n + 1)]
        if all(sum(a * b for a, b in zip(row, t)) for row in rows):
            return t


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(BASES))
def test_phi_does_not_depend_on_the_generic_point(name, variant, monkeypatch):
    q = VARIANTS[variant](BASES[name])
    first = quasitoric.EvalContext(q)
    default_point = quasitoric._generic_point
    points = []

    def record(rows):
        points.append((default_point(rows), _other_point(rows)))
        return points[-1][1]

    monkeypatch.setattr(quasitoric, "_generic_point", record)
    second = quasitoric.EvalContext(q)
    [(default, other)] = points
    assert default != other
    monomials = face_monomials(q, q.n)
    assert [second.evaluate_monomial(e) for e in monomials] == [
        first.evaluate_monomial(e) for e in monomials
    ]
