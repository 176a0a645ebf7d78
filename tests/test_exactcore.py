import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from toricnet.exactcore import (
    QRing,
    SparsePoly,
    TruncSeries,
    cramer,
    ff_determinant,
    hermite_normal_form,
    identity,
    inverse_rational,
    lattice_kernel,
    mat_mul,
    rank,
    rational_rref,
    smith_normal_form,
    solve_rational,
    transpose,
)
from toricnet.hopfdiff import BetaNCF
from toricnet.ncsf import NCF, QSF, SymF, TensorNCF

x = SparsePoly.variable("x")
y = SparsePoly.variable("y")
z = SparsePoly.variable("z")


class TestSparsePoly:
    def test_arithmetic(self):
        p = (x + y) ** 2
        assert p == x * x + x * y * 2 + y * y
        assert p.coefficient({"x": 1, "y": 1}) == 2
        assert p.substitute({"x": 2, "y": 3}) == SparsePoly.const(25)
        assert (p - p).is_zero()

    def test_render(self):
        assert ((x + y) ** 2).render() == "y^2 + 2*x*y + x^2"
        assert SparsePoly.zero().render() == "0"
        assert (x * Fraction(-3, 2)).render() == "-3/2*x"

    def test_scalar_coercion(self):
        assert x * 2 == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
        assert (x + 1) - 1 == x

    def test_total_degree_and_constants(self):
        assert (x * y * y).total_degree() == 3
        assert SparsePoly.const(7).is_constant()
        assert SparsePoly.const(7).constant_value() == 7
        assert not x.is_constant()


class TestMatrices:
    def test_determinant_golden(self):
        assert ff_determinant([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
        # Vandermonde on three symbols
        v = ff_determinant(
            [
                [SparsePoly.one(), x, x * x],
                [SparsePoly.one(), y, y * y],
                [SparsePoly.one(), z, z * z],
            ]
        )
        assert v == (y - x) * (z - x) * (z - y)

    def test_determinant_fraction_exactness(self):
        hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
        assert ff_determinant(hilbert) == Fraction(1, 6048000)

    def test_hermite(self):
        a = [[2, 4], [1, 3]]
        h, u = hermite_normal_form(a)
        assert mat_mul(u, a) == h
        assert ff_determinant([[Fraction(e) for e in row] for row in u]) in (1, -1)
        assert h == [[1, 1], [0, 2]]

    def test_smith(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[2]]) == [2]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]

    def test_lattice_kernel(self):
        cayley = [[2, 1, 0], [0, 1, 2], [1, 1, 1]]
        assert lattice_kernel(cayley) == [[1, -2, 1]]
        for u in lattice_kernel(cayley):
            for row in cayley:
                assert sum(r * c for r, c in zip(row, u)) == 0

    def test_solve_and_inverse(self):
        a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        b = [Fraction(5), Fraction(10)]
        sol = solve_rational(a, b)
        assert sol == [Fraction(1), Fraction(3)]
        inv = inverse_rational(a)
        assert mat_mul(a, inv) == identity(2)
        assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None

    def test_rref_rank_kernel(self):
        a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert rank(a) == 2
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
        assert rank([]) == 0
        basis = lattice_kernel(a)
        assert len(basis) == 1
        for v in basis:
            for row in a:
                assert sum(Fraction(r) * c for r, c in zip(row, v)) == 0
        r, pivots = rational_rref([[0, 1], [1, 0]])
        assert r == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert pivots == [0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_inverse_property(self, rows):
        a = [[Fraction(e) for e in row] for row in rows]
        inv = inverse_rational(a)
        if inv is None:
            assert ff_determinant(a) == 0
        else:
            assert mat_mul(a, inv) == identity(3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=4, max_size=4),
            min_size=2,
            max_size=4,
        )
    )
    def test_kernel_property(self, rows):
        kernel = lattice_kernel(rows)
        for v in kernel:
            for row in rows:
                assert sum(r * c for r, c in zip(row, v)) == 0
        # the rank and the kernel dimension against a Fraction elimination
        pivots = rational_rref(rows)[1]
        assert rank(rows) == len(pivots)
        assert len(pivots) + len(kernel) == 4

    def test_transpose(self):
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]


def qvar(order):
    return TruncSeries.var(QRing, order)


class TestTruncSeries:
    def test_compose_golden(self):
        t = qvar(4)
        f = t + t * t
        out = f.compose(f)
        assert [out.coeffs.get((k,), Fraction(0)) for k in range(1, 5)] == [1, 2, 2, 1]

    def test_compose_identity(self):
        t = qvar(5)
        g = t + (t * t).scale(3)
        assert t.compose(g) == g

    def test_compose_free_coefficient_order(self):
        # outer coefficients multiply from the left: Z1 lands before Z2
        t = TruncSeries.var(NCF, 4)
        f = t + (t * t).scale_left(NCF.gen(1))
        g = t + (t * t).scale_left(NCF.gen(2))
        out = f.compose(g)
        assert out.coeffs[(2,)] == NCF.gen(1) + NCF.gen(2)
        assert out.coeffs[(3,)] == 2 * (NCF.gen(1) * NCF.gen(2))
        assert out.coeffs[(4,)] == NCF.gen(1) * NCF.gen(2) * NCF.gen(2)

    def test_comp_inverse_catalan(self):
        t = qvar(4)
        inv = (t + t * t).comp_inverse()
        assert [inv.coeffs.get((k,), Fraction(0)) for k in range(1, 5)] == [1, -1, 2, -5]
        assert (t + t * t).compose(inv) == t

    def test_comp_inverse_symbolic(self):
        t1 = SparsePoly.variable("t1")
        t2 = SparsePoly.variable("t2")
        t = TruncSeries.var(SparsePoly, 3)
        f = t + (t * t).scale_left(t1) + (t * t * t).scale_left(t2)
        inv = f.comp_inverse()
        assert inv.coeffs[(2,)] == -t1
        assert inv.coeffs[(3,)] == t1 * t1 * 2 - t2

    def test_mult_inverse(self):
        t = qvar(6)
        geo = (TruncSeries.one(QRing, 6) - t).mult_inverse()
        assert all(geo.coeffs.get((k,)) == 1 for k in range(7))

    def test_exp_log_roundtrip(self):
        t = qvar(6)
        u = t + (t * t).scale(Fraction(1, 3))
        assert u.exp().log() == u
        lg = (TruncSeries.one(QRing, 3) + t.truncate(3)).log()
        assert [lg.coeffs.get((k,), Fraction(0)) for k in range(1, 4)] == [
            1,
            Fraction(-1, 2),
            Fraction(1, 3),
        ]

    def test_shift_down_drops_order(self):
        t = qvar(5)
        s = (t + t * t).shift_down()
        assert s.order == 4
        assert s.coeffs.get((0,)) == 1
        assert s.coeffs.get((1,)) == 1

    def test_derivative(self):
        t = qvar(4)
        d = (t * t * t).derivative()
        assert d.coeffs.get((2,)) == 3

    def test_exp_requires_zero_constant(self):
        one = TruncSeries.one(QRing, 3)
        with pytest.raises(ValueError):
            one.exp()


def _rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _word(rng):
    return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2)))


# a seeded random element of each coefficient ring; NCF and BetaNCF words in
# two letters, so coefficients do not commute
RANDOM_ELEMENT = {
    QRing: _rational,
    SparsePoly: lambda rng: SparsePoly.sum(
        SparsePoly.monomial({"x": rng.randint(0, 2), "y": rng.randint(0, 1)}, _rational(rng))
        for _ in range(2)
    ),
    NCF: lambda rng: NCF({_word(rng): _rational(rng) for _ in range(2)}),
    BetaNCF: lambda rng: BetaNCF(
        {(rng.randint(0, 1), _word(rng)): _rational(rng) for _ in range(2)}
    ),
}
RINGS = list(RANDOM_ELEMENT)
ORDER = 5


def _random_series(ring, rng, low):
    """sum_{k=low}^{ORDER} c_k T^k with seeded random coefficients."""
    element = RANDOM_ELEMENT[ring]
    return TruncSeries(ring, ORDER, 1, {(k,): element(rng) for k in range(low, ORDER + 1)})


def _expand(outer, inner, ring, order):
    """sum_e c_e * inner^e over plain {degree: coefficient} dicts, c_e on the left."""
    power = {0: ring.one()}
    out = {}
    for e in range(order + 1):
        if e:
            nxt = {}
            for i, a in power.items():
                for j, b in inner.items():
                    if i + j <= order:
                        nxt[i + j] = nxt[i + j] + a * b if i + j in nxt else a * b
            power = nxt
        if e in outer:
            for k, p in power.items():
                out[k] = out[k] + outer[e] * p if k in out else outer[e] * p
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.__name__)
class TestSeriesOverEveryRing:
    def test_log_exp_roundtrip(self, ring, seed):
        u = TruncSeries.one(ring, ORDER) + _random_series(ring, random.Random(seed), 1)
        assert u.log().exp() == u

    def test_mult_inverse_is_two_sided(self, ring, seed):
        u = TruncSeries.one(ring, ORDER) + _random_series(ring, random.Random(seed), 1)
        one = TruncSeries.one(ring, ORDER)
        inv = u.mult_inverse()
        assert u * inv == one
        assert inv * u == one

    def test_comp_inverse_is_two_sided(self, ring, seed):
        t = TruncSeries.var(ring, ORDER)
        g = t + _random_series(ring, random.Random(seed), 2)
        inv = g.comp_inverse()
        assert g.compose(inv) == t
        assert inv.compose(g) == t

    def test_compose_matches_plain_expansion(self, ring, seed):
        rng = random.Random(seed)
        f = _random_series(ring, rng, 0)
        g = _random_series(ring, rng, 1)
        expected = _expand(
            {k: c for (k,), c in f.coeffs.items()},
            {k: c for (k,), c in g.coeffs.items()},
            ring,
            ORDER,
        )
        assert f.compose(g).coeffs == {(k,): c for k, c in expected.items()}

    def test_mixing_rings_names_both(self, ring, seed):
        other = RINGS[(RINGS.index(ring) + 1 + seed % 3) % len(RINGS)]
        a, b = TruncSeries.var(ring, ORDER), TruncSeries.var(other, ORDER)
        for op in (lambda: a + b, lambda: a * b, lambda: a.compose(b)):
            with pytest.raises(ValueError) as info:
                op()
            assert ring.__name__ in str(info.value)
            assert other.__name__ in str(info.value)


def _per_degree_inverse(f, ring, order):
    """The compositional inverse by the per-degree algorithm: g_k is minus the
    T^k coefficient of f(T + g_2 T^2 + ... + g_{k-1} T^{k-1})."""
    g = {1: ring.one()}
    for k in range(2, order + 1):
        val = _expand(f, g, ring, k).get(k)
        if val:
            g[k] = -val
    return g


@pytest.mark.parametrize("top", [3, 9], ids=["cubic", "full"])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.__name__)
def test_comp_inverse_matches_per_degree_algorithm(ring, top):
    """At order 9, for f of degree ``top`` with some coefficients zero."""
    order, rng = 9, random.Random(top)
    element = RANDOM_ELEMENT[ring]
    f = {1: ring.one(), **{k: element(rng) for k in range(2, top + 1) if rng.random() < 0.7}}
    inverse = TruncSeries(ring, order, 1, {(k,): c for k, c in f.items()}).comp_inverse()
    assert inverse.order == order
    expected = _per_degree_inverse(f, ring, order)
    assert inverse.coeffs == {(k,): c for k, c in expected.items()}
    assert all(type(inverse.coeffs[(k,)]) is type(c) for k, c in expected.items())


def _lagrange_inverse(f, order):
    """[T^k] g = (1/k) [T^(k-1)] (T/f)^k over plain Fraction lists."""
    h = [f.get(k + 1, 0) for k in range(order)]  # f / T
    recip = [Fraction(1)] + [Fraction(0)] * (order - 1)  # T / f
    for k in range(1, order):
        recip[k] = -sum(h[j] * recip[k - j] for j in range(1, k + 1))
    g = {}
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for k in range(1, order + 1):
        power = [sum(power[i] * recip[n - i] for i in range(n + 1)) for n in range(order)]
        if power[k - 1]:
            g[k] = power[k - 1] / k
    return g


@pytest.mark.parametrize("seed", range(3))
def test_comp_inverse_matches_lagrange_inversion(seed):
    order, rng = 16, random.Random(seed)
    f = {1: 1, **{k: _rational(rng) for k in range(2, order + 1)}}
    inverse = TruncSeries(QRing, order, 1, {(k,): c for k, c in f.items()}).comp_inverse()
    assert inverse.coeffs == {(k,): c for k, c in _lagrange_inverse(f, order).items()}


# -- SparsePoly against a plain-dict oracle ----------------------------------
#
# The oracle keys a polynomial by its exponent vector over NAMES, so it needs
# no monomial format of its own; it shares no code with toricnet.

XYZ = ("x", "y", "z")
KS = ("k1", "k2", "k3", "k4")
NAMES = tuple(sorted(XYZ + KS))
UNIT = (0,) * len(NAMES)
VARIABLE_SETS = [XYZ, KS, ("k2", "x", "z"), ("k1", "k4", "y")]

oracle_coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _oracle_dicts(max_size):
    def over(names):
        exps = st.tuples(*[st.integers(0, 2) if n in names else st.just(0) for n in NAMES])
        return st.dictionaries(exps, oracle_coeffs, max_size=max_size)

    return st.sampled_from(VARIABLE_SETS).flatmap(over)


oracle_polys = _oracle_dicts(4)
substitution_values = st.dictionaries(
    st.sampled_from(NAMES), st.one_of(st.integers(-2, 2), _oracle_dicts(2)), max_size=3
)


def _clean(a):
    return {e: c for e, c in a.items() if c}


def _o_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def _o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def _o_pow(a, n):
    out = {UNIT: Fraction(1)}
    for _ in range(n):
        out = _o_mul(out, a)
    return out


def _o_substitute(a, values):
    total = {}
    for e, c in a.items():
        term = {tuple(0 if n in values else i for n, i in zip(NAMES, e)): c}
        for n, i in zip(NAMES, e):
            if i and n in values:
                v = values[n]
                v = v if isinstance(v, dict) else {UNIT: Fraction(v)}
                term = _o_mul(term, _o_pow(v, i))
        total = _o_add(total, term)
    return total


def _o_render(a):
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        body = "*".join(n if i == 1 else f"{n}^{i}" for n, i in zip(NAMES, e) if i)
        if not body:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(body if c == 1 else "-" + body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def _poly(a):
    return SparsePoly({tuple((n, i) for n, i in zip(NAMES, e) if i): c for e, c in a.items()})


def _as_dict(p):
    return {tuple(dict(m).get(n, 0) for n in NAMES): c for m, c in p.terms.items()}


@settings(deadline=None, max_examples=80)
@given(oracle_polys, oracle_polys)
def test_sparse_poly_ring_matches_dict_oracle(a, b):
    p, q = _poly(a), _poly(b)
    assert _as_dict(p) == _clean(a)
    assert _as_dict(p + q) == _o_add(a, b)
    assert _as_dict(p - q) == _o_add(a, {e: -c for e, c in b.items()})
    assert _as_dict(p * q) == _o_mul(a, b)
    assert p.render() == _o_render(_clean(a))
    assert (p * q).render() == _o_render(_o_mul(a, b))
    assert p.vars == tuple(n for i, n in enumerate(NAMES) if any(e[i] for e in _clean(a)))
    for e in list(a) + list(b):
        assert p.coefficient(dict(zip(NAMES, e))) == a.get(e, 0)


@settings(deadline=None, max_examples=40)
@given(oracle_polys, st.integers(0, 3))
def test_sparse_poly_power_matches_dict_oracle(a, n):
    power = _poly(a) ** n
    assert _as_dict(power) == _o_pow(_clean(a), n)
    assert power.render() == _o_render(_o_pow(_clean(a), n))


@settings(deadline=None, max_examples=60)
@given(oracle_polys, substitution_values)
def test_sparse_poly_substitute_matches_dict_oracle(a, values):
    lib_values = {n: _poly(v) if isinstance(v, dict) else v for n, v in values.items()}
    image = _poly(a).substitute(lib_values)
    assert _as_dict(image) == _o_substitute(_clean(a), values)
    assert image.render() == _o_render(_o_substitute(_clean(a), values))


@pytest.mark.parametrize(
    "key",
    [
        (("y", 1), ("x", 1)),
        (("x", 1), ("x", 2)),
        (("x", 0),),
        (("x", -1),),
        ((1, 1),),
    ],
    ids=["unsorted", "duplicate", "zero-exponent", "negative-exponent", "non-str-name"],
)
def test_bad_monomial_keys_raise(key):
    with pytest.raises(ValueError):
        SparsePoly({key: 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda c: NCF({(1,): c}),
        lambda c: TensorNCF({((1,), (2,)): c}),
        lambda c: QSF({(1,): c}),
        lambda c: SymF("h", {(1,): c}),
        lambda c: BetaNCF({(0, (1,)): c}),
        lambda c: SparsePoly({(("x", 1),): c}),
    ],
    ids=["NCF", "TensorNCF", "QSF", "SymF", "BetaNCF", "SparsePoly"],
)
def test_float_coefficients_raise(build):
    assert build(1) == build(Fraction(1))
    assert all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in build(1).terms.values()
    )
    with pytest.raises(TypeError):
        build(0.1)


# ---------------------------------------------------------------- lattice algebra against sympy


def _lattice_cases(count=300):
    """Seeded integer matrices of 1..5 x 1..5 with entries in [-6, 6]. Every
    third one is rank-deficient: its last row (its last column, when it has
    more rows than columns) is the negative of another, or it is zero when it
    has one row or one column."""
    rng = random.Random(0)
    cases = []
    for i in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if i % 3 == 0:
            if min(m, n) == 1:
                a = [[0] * n for _ in range(m)]
            elif m <= n:
                a[-1] = [-x for x in a[rng.randrange(m - 1)]]
            else:
                c = rng.randrange(n - 1)
                for row in a:
                    row[-1] = -row[c]
        cases.append(a)
    return cases


LATTICE_CASES = _lattice_cases()



def _larger_lattice_cases(count=60):
    """Seeded integer matrices of 1..9 x 1..9 with entries in [-20, 20]. In two
    of every five, the last row (the last column, when there are more rows
    than columns) is the difference of two others, or zero when there is no
    pair, so that about 40% are rank-deficient."""
    rng = random.Random(1)
    cases = []
    for i in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        if i % 5 < 2:
            rows = a if m <= n else [list(col) for col in zip(*a)]
            if len(rows) < 3:
                rows[-1] = [0] * len(rows[-1])
            else:
                j, k = rng.sample(range(len(rows) - 1), 2)
                rows[-1] = [x - y for x, y in zip(rows[j], rows[k])]
            a = rows if m <= n else [list(row) for row in zip(*rows)]
        cases.append(a)
    return cases


LARGER_LATTICE_CASES = _larger_lattice_cases()


def test_lattice_cases_include_rank_deficient_matrices():
    deficient = [a for a in LATTICE_CASES if sympy.Matrix(a).rank() < min(len(a), len(a[0]))]
    assert len(deficient) >= len(LATTICE_CASES) // 3


def test_hermite_matches_sympy():
    for a in LATTICE_CASES:
        h, u = hermite_normal_form(a)
        assert mat_mul(u, a) == h
        assert abs(sympy.Matrix(u).det()) == 1
        want = []
        if sympy.Matrix(a).rank():
            # sympy's form is column-style; transposed, with rows and columns
            # reversed on both sides, it is the row-style form computed here
            s = sympy_hnf(sympy.Matrix([row[::-1] for row in a]).T).T
            want = [[int(x) for x in s.row(r)][::-1] for r in reversed(range(s.rows))]
        assert [row for row in h if any(row)] == want, a


def test_larger_lattice_cases_include_rank_deficient_matrices():
    cases = LARGER_LATTICE_CASES
    deficient = [a for a in cases if sympy.Matrix(a).rank() < min(len(a), len(a[0]))]
    assert len(deficient) >= len(cases) // 3


def test_smith_matches_sympy():
    for a in LATTICE_CASES:
        d = sympy_snf(sympy.Matrix(a), domain=ZZ)
        assert smith_normal_form(a) == [abs(int(x)) for x in d.diagonal() if x], a


def test_smith_matches_sympy_on_larger_matrices():
    for a in LARGER_LATTICE_CASES:
        d = sympy_snf(sympy.Matrix(a), domain=ZZ)
        assert smith_normal_form(a) == [abs(int(x)) for x in d.diagonal() if x], a


def test_lattice_kernel_is_the_saturated_integer_kernel():
    for a in LATTICE_CASES:
        basis = lattice_kernel(a)
        matrix = sympy.Matrix(a)
        assert len(basis) == matrix.cols - matrix.rank(), a
        assert all(not any(matrix * sympy.Matrix(u)) for u in basis), a
        if basis:
            # Z^n / span(basis) is torsion-free iff every elementary divisor is 1
            d = sympy_snf(sympy.Matrix(basis), domain=ZZ)
            assert [abs(x) for x in d.diagonal()] == [1] * len(basis), a


# ---------------------------------------------------------------- rational elimination against sympy


def _rational_cases(count=210):
    """Seeded square matrices of 0x0 to 6x6. Each row is all ints in [-4, 4]
    or all Fractions p/q with p in [-9, 9] and q in 1..6. Every third matrix
    of size >= 1 is singular: a row is zero (always for 1x1) or a rational
    combination of two other rows."""
    rng = random.Random(19)
    cases = []
    for i in range(count):
        n = i % 7
        a = [
            [rng.randint(-4, 4) for _ in range(n)]
            if rng.random() < 0.5
            else [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n)
        ]
        if n and i % 3 == 0:
            r = rng.randrange(n)
            if n == 1 or rng.random() < 0.3:
                a[r] = [0] * n
            else:
                j, k = rng.sample([s for s in range(n) if s != r] * 2, 2)
                c, d = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
                a[r] = [c * x + d * y for x, y in zip(a[j], a[k])]
        cases.append(a)
    return cases


RATIONAL_CASES = _rational_cases()


def _sympy_matrix(a):
    n = len(a)
    return sympy.Matrix(n, len(a[0]) if a else 0,
                        [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])


def test_rational_cases_cover_sizes_row_kinds_and_singular_matrices():
    assert {len(a) for a in RATIONAL_CASES} == set(range(7))
    rows = [row for a in RATIONAL_CASES for row in a]
    assert any(all(type(x) is int for x in row) for row in rows)
    assert any(all(type(x) is Fraction for x in row) for row in rows)
    assert any(not any(row) for row in rows)
    singular = [a for a in RATIONAL_CASES if _sympy_matrix(a).det() == 0]
    assert len(RATIONAL_CASES) // 4 <= len(singular) <= len(RATIONAL_CASES) // 2


def test_rational_determinant_matches_sympy():
    for a in RATIONAL_CASES:
        want = _sympy_matrix(a).det()
        got = ff_determinant(a)
        assert got == Fraction(int(want.p), int(want.q)), a
        assert type(got) is (int if want.q == 1 else Fraction), a


def test_determinant_clears_its_rows_once(monkeypatch):
    # the cleared rows go straight to the elimination, not through cramer's
    # own copy and check a second time
    from toricnet.exactcore import matrices

    calls = []
    real = matrices.clear_denominators

    def counting(a):
        calls.append(None)
        return real(a)

    monkeypatch.setattr(matrices, "clear_denominators", counting)
    for a in RATIONAL_CASES:
        calls.clear()
        ff_determinant(a)
        assert len(calls) == 1, a


def test_rational_rank_matches_sympy():
    for a in RATIONAL_CASES:
        assert rank(a) == _sympy_matrix(a).rank(), a


def test_rational_lattice_kernel_spans_sympy_nullspace():
    for a in RATIONAL_CASES:
        matrix = _sympy_matrix(a)
        null = matrix.nullspace()
        basis = lattice_kernel(a)
        assert len(basis) == len(null), a
        for u in basis:
            assert not any(matrix * sympy.Matrix(u)), a
            assert sympy.Matrix.hstack(*null, sympy.Matrix(u)).rank() == len(null), a


@pytest.mark.parametrize(
    "eliminate",
    [
        ff_determinant,
        cramer,
        hermite_normal_form,
        rank,
        lattice_kernel,
        rational_rref,
        inverse_rational,
        lambda a: solve_rational(a, [0] * len(a)),
    ],
    ids=lambda f: getattr(f, "__name__", "").replace("<lambda>", "solve_rational"),
)
@pytest.mark.parametrize(
    "a", [[[0.1]], [[1.5, 1], [0, 1]], [[Fraction(1, 2), 1], [2, 3.0]]], ids=["0.1", "1.5", "3.0"]
)
def test_float_matrix_entries_raise(eliminate, a):
    with pytest.raises(TypeError):
        eliminate(a)


def test_float_right_hand_side_raises():
    with pytest.raises(TypeError):
        solve_rational([[1, 0], [0, 1]], [1, 0.5])


@pytest.mark.parametrize("eliminate", [cramer, hermite_normal_form], ids=lambda f: f.__name__)
def test_integer_eliminations_check_entries_alike(eliminate):
    with pytest.raises(ValueError):
        eliminate([[1, Fraction(3, 2)], [0, 1]])
    with pytest.raises(TypeError):
        eliminate([[1, "2"], [0, 1]])
    assert eliminate([[1, Fraction(4, 2)], [0, 1]]) == eliminate([[1, 2], [0, 1]])


# ---------------------------------------------------------------- cramer against sympy and cofactors


def _cramer_cases(count=280):
    """Seeded (A, B): A square of size 1..7 with entries in [-5, 5], B with as
    many rows and 0..3 columns. Every third A is singular: a row is zero (always
    below 3x3) or the sum of two others."""
    rng = random.Random(28)
    cases = []
    for i in range(count):
        n = i % 7 + 1
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if i % 3 == 0:
            r = rng.randrange(n)
            if n < 3:
                a[r] = [0] * n
            else:
                j, k = rng.sample([s for s in range(n) if s != r], 2)
                a[r] = [x + y for x, y in zip(a[j], a[k])]
        width = rng.randint(0, 3)
        b = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(n)] if width else []
        cases.append((a, b))
    return cases


CRAMER_CASES = _cramer_cases()


def _domain_matrix(a):
    return DomainMatrix([[ZZ(x) for x in row] for row in a], (len(a), len(a[0]) if a else 0), ZZ)


def test_cramer_cases_cover_sizes_widths_and_singular_matrices():
    assert {len(a) for a, _ in CRAMER_CASES} == set(range(1, 8))
    assert {len(b[0]) if b else 0 for _, b in CRAMER_CASES} == {0, 1, 2, 3}
    singular = [a for a, _ in CRAMER_CASES if _domain_matrix(a).det() == 0]
    assert len(singular) >= len(CRAMER_CASES) // 3


def test_cramer_matches_sympy_det_and_adjugate():
    for a, b in CRAMER_CASES:
        matrix = _domain_matrix(a)
        det, adj_b = cramer(a, b)
        assert det == matrix.det(), a
        if det == 0:
            assert adj_b is None, a
        elif b:
            assert adj_b == (matrix.adjugate() * _domain_matrix(b)).to_list(), (a, b)
        else:
            assert adj_b == [[]] * len(a), a


def test_cramer_of_the_empty_matrix():
    assert cramer([]) == (1, [])
    assert cramer([], []) == (1, [])


def test_cramer_leaves_its_inputs_alone():
    a, b = [[0, 2], [3, 4]], [[1], [5]]
    assert cramer(a, b) == (-6, [[-6], [-3]])
    assert (a, b) == ([[0, 2], [3, 4]], [[1], [5]])


def _cofactor_adjugate(g):
    """adj(G) from its cofactors, each minor's determinant taken by sympy."""
    r = len(g)
    return [
        [
            (-1) ** (i + j)
            * int(_domain_matrix([row[:i] + row[i + 1 :] for k, row in enumerate(g) if k != j]).det())
            for j in range(r)
        ]
        for i in range(r)
    ]


def test_cramer_gives_the_cofactor_adjugate_of_gram_matrices():
    # the Gram matrices G = B B^T of integer row bases, as the Birch point
    # solves them: cramer(G, I) is adj(G), and cramer(G, B) is adj(G) B
    rng = random.Random(9)
    checked = 0
    while checked < 150:
        r = rng.randint(1, 6)
        width = r + rng.randint(0, 3)
        basis = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(r)]
        gram = mat_mul(basis, transpose(basis))
        if _domain_matrix(gram).det() == 0:
            continue
        det, adj = cramer(gram, identity(r))
        assert adj == _cofactor_adjugate(gram), gram
        assert cramer(gram, basis) == (det, mat_mul(adj, basis)), gram
        checked += 1
