import functools
import random
import re
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
import sympy
from scipy.optimize import linprog
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from toricnet.crn import parse_network
from toricnet.errors import (
    DeficiencyNonzero,
    InputError,
    NonSmooth,
    NotWeaklyReversible,
)
from toricnet.exactcore import clear_denominators, lattice_kernel
from toricnet.ncsf import QSF, partitions, qsym_product
from toricnet.render import render_ncf
from toricnet.torictop import (
    DelzantPolytope,
    QuasitoricData,
    SimplicialComplex,
    boundary_simplex,
    chern_numbers,
    complete_class,
    cpn_data,
    crn_to_toric,
    delzant_to_quasitoric,
    elementary_class,
    eval_context,
    facet_determinant,
    hamiltonian_numbers,
    join_complexes,
    mxi_numbers,
    orientation_signs,
    polytope_vertices,
    product_data,
    sphere_battery,
    top_evaluate,
    validate_quasitoric,
)

S0 = SimplicialComplex(2, ((1,), (2,)))


def hirzebruch(k: int) -> QuasitoricData:
    square = SimplicialComplex(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    return QuasitoricData(square, ((1, 0, -1, 0), (0, 1, k, -1)))


class TestComplexes:
    def test_boundary_simplex(self):
        tri = boundary_simplex(2)
        assert tri.facets == ((1, 2), (1, 3), (2, 3))
        assert tri.n == 2
        assert tri.is_face((1, 3))
        assert not tri.is_face((1, 2, 3))

    def test_battery_spheres(self):
        assert sphere_battery(S0).valid
        assert sphere_battery(boundary_simplex(2)).valid
        assert sphere_battery(boundary_simplex(3)).valid

    def test_battery_checks_run(self):
        rep = sphere_battery(S0)
        assert "euler-characteristic" in rep.checks_run
        assert "orientable" in rep.checks_run

    def test_battery_rejects_disk(self):
        rep = sphere_battery(SimplicialComplex(2, ((1, 2),)))
        assert not rep.valid
        assert any("ridge" in msg for msg in rep.issues)

    def test_battery_rejects_projective_plane(self):
        # 6-vertex triangulation: right Euler count for RP^2, wrong for S^2
        rp2 = SimplicialComplex(
            6,
            (
                (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
                (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
            ),
        )
        rep = sphere_battery(rp2)
        assert not rep.valid
        assert any("Euler" in msg for msg in rep.issues)

    def test_orientation_signs(self):
        assert orientation_signs(S0) == {0: 1, 1: -1}
        assert orientation_signs(boundary_simplex(2)) == {0: 1, 1: -1, 2: 1}

    def test_join(self):
        j = join_complexes(S0, S0)
        assert j.facets == ((1, 3), (1, 4), (2, 3), (2, 4))
        assert j.n == 2
        assert sphere_battery(j).valid


class TestValidation:
    def test_cp2_valid(self):
        rep = cpn_data(2).validate()
        assert rep.valid

    def test_determinant_condition(self):
        rep = validate_quasitoric(boundary_simplex(2), ((1, 0, -2), (0, 1, -1)))
        assert not rep.valid
        assert any("|det| = 2" in msg for msg in rep.issues)

    def test_non_integral_lambda_refused(self):
        cp2 = cpn_data(2)
        with pytest.raises(InputError, match="lambda entries must be integers"):
            QuasitoricData(cp2.complex, ((1, 0, -1.5), (0, 1, -1)))
        integral = QuasitoricData(cp2.complex, ((F(1), 0, -1.0), (0, 1, -1)))
        assert integral.lam == cp2.lam

    def test_non_integral_vertex_refused(self):
        with pytest.raises(InputError, match="facet entries must be integers, got 1.5"):
            QuasitoricData(
                SimplicialComplex(3, ((1.5, 2), (2, 3), (1, 3))), ((1, 0, -1), (0, 1, -1))
            ).validate()
        integral = SimplicialComplex(3, ((F(1), 2.0), (2, 3), (1, 3)))
        assert integral.facets == boundary_simplex(2).facets

    def test_facet_determinant(self):
        assert facet_determinant(((1, 0, -1), (0, 1, -1)), (1, 2)) == 1
        assert facet_determinant(((1, 0, -2), (0, 1, -1)), (2, 3)) == 2


class TestEvaluation:
    def test_cp2_monomials(self):
        cp2 = cpn_data(2)
        assert top_evaluate(cp2, (1, 1, 0)) == 1
        assert top_evaluate(cp2, {1: 2}) == 1
        assert top_evaluate(cp2, {3: 2}) == 1

    def test_orientation_flip(self):
        cp2 = cpn_data(2)
        flip = QuasitoricData(cp2.complex, cp2.lam, orientation_flip=True)
        assert top_evaluate(flip, (1, 1, 0)) == -1

    def test_input_errors(self):
        cp2 = cpn_data(2)
        with pytest.raises(InputError):
            top_evaluate(cp2, (1, 1, 1))  # degree 3 on a surface
        with pytest.raises(InputError):
            top_evaluate(cp2, (1, 1))  # wrong length
        with pytest.raises(InputError):
            top_evaluate(cp2, {5: 2})  # vertex out of range
        for e in [(2,), (1, 1), (2, 0, 0, 0)]:
            with pytest.raises(InputError, match="length 3"):
                eval_context(cp2).evaluate_monomial(e)

    def test_nonface_vanishes(self):
        p = product_data(cpn_data(1), cpn_data(1))
        assert top_evaluate(p, (1, 1, 0, 0)) == 0
        assert top_evaluate(p, (1, 0, 1, 0)) == 1

    def test_hirzebruch_self_intersections(self):
        for k in range(4):
            h = hirzebruch(k)
            assert h.validate().valid
            assert top_evaluate(h, (0, 0, 0, 2)) == k
            assert top_evaluate(h, (0, 2, 0, 0)) == -k

    def test_linear_relations_vanish(self):
        # sum_i lam[j][i] v_i must evaluate to zero against anything
        for q in (cpn_data(2), hirzebruch(2)):
            for row in q.lam:
                for k in range(q.m):
                    total = F(0)
                    for i, c in enumerate(row):
                        if c == 0:
                            continue
                        mono = [0] * q.m
                        mono[i] += 1
                        mono[k] += 1
                        total += F(c) * top_evaluate(q, tuple(mono))
                    assert total == 0


class TestChernNumbers:
    def test_cp2(self):
        cp2 = cpn_data(2)
        assert chern_numbers(cp2, (1, 1)) == 9
        assert chern_numbers(cp2, (2,)) == 3

    def test_cp3(self):
        cp3 = cpn_data(3)
        assert chern_numbers(cp3, (1, 1, 1)) == 64
        assert chern_numbers(cp3, (3,)) == 4
        assert chern_numbers(cp3, (2, 1)) == 24

    def test_cp2_normal_bundle(self):
        cp2 = cpn_data(2)
        assert chern_numbers(cp2, (1, 1), bundle="normal") == 9
        assert chern_numbers(cp2, (2,), bundle="normal") == 6

    def test_hirzebruch(self):
        for k in range(3):
            h = hirzebruch(k)
            assert chern_numbers(h, (1, 1)) == 8
            assert chern_numbers(h, (2,)) == 4

    def test_negative_degrees_refused(self):
        cp2 = cpn_data(2)
        for bundle in ("tangent", "normal"):
            with pytest.raises(InputError, match="negative part"):
                chern_numbers(cp2, (3, -1), bundle=bundle)
        for build in (elementary_class, complete_class):
            with pytest.raises(InputError, match="degree -1 < 0"):
                build(cp2, -1)


class TestMxi:
    def test_cp2_table(self):
        mx = mxi_numbers(cpn_data(2))
        assert mx.table == (((1, 1), F(3)), ((2,), F(3)))
        assert mx.value((1, 1)) == 3
        assert render_ncf(mx.to_ncf()) == "3·Z[2] + 3·Z[1,1]"

    def test_cpn_binomial_formula(self):
        from math import comb

        for n in range(1, 5):
            mx = mxi_numbers(cpn_data(n))
            for alpha, val in mx.table:
                assert val == comb(n + 1, len(alpha))

    def test_product_table_keeps_zeros(self):
        p = product_data(cpn_data(1), cpn_data(1))
        assert mxi_numbers(p).table == (((1, 1), F(4)), ((2,), F(0)))

    def test_chern_from_mxi(self):
        # c_lam pairs with the table through e_k = M_{(1,...,1)} products
        for q in (cpn_data(2), cpn_data(3), hirzebruch(2)):
            mx = dict(mxi_numbers(q).table)
            n = q.n
            for lam in partitions(n):
                if 0 in lam:
                    continue
                factors = [QSF.monomial((1,) * part) for part in lam]
                prod = reduce(qsym_product, factors, QSF.monomial(()))
                total = sum((c * mx[alpha] for alpha, c in prod.terms.items()), F(0))
                assert total == chern_numbers(q, lam)


class TestHamiltonian:
    def test_square_golden(self):
        sq = DelzantPolytope(
            ((1, 0), (0, 1), (-1, 0), (0, -1)), (F(0), F(0), F(-2), F(-3))
        )
        q, u = delzant_to_quasitoric(sq)
        h = hamiltonian_numbers(q, u)
        assert h.table == (
            ((), F(12)),
            ((1,), F(10)),
            ((1, 1), F(4)),
            ((2,), F(0)),
        )

    def test_ginzburg_convention(self):
        sq = DelzantPolytope(
            ((1, 0), (0, 1), (-1, 0), (0, -1)), (F(0), F(0), F(-2), F(-3))
        )
        q, u = delzant_to_quasitoric(sq)
        g = hamiltonian_numbers(q, u, convention="ginzburg")
        assert dict(g.table) == {(): F(12), (1,): F(-10), (2,): F(4), (1, 1): F(8)}

    def test_rational_class_on_the_simplex(self):
        tri = DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-9, 2)))
        q, u = delzant_to_quasitoric(tri)
        # 2! * area of the right triangle with leg 9/2
        assert hamiltonian_numbers(q, u).table[0] == ((), F(81, 4))

    @pytest.mark.parametrize("convention", ["mxi", "ginzburg"])
    def test_halved_offsets_scale_each_weight(self, convention):
        normals = ((1, 0), (0, 1), (-1, 0), (-1, -1))
        offsets = (F(0), F(0), F(-3), F(-5))
        whole = delzant_to_quasitoric(DelzantPolytope(normals, offsets))
        half = delzant_to_quasitoric(DelzantPolytope(normals, [x / 2 for x in offsets]))
        assert half[0] == whole[0]
        want = hamiltonian_numbers(*whole, convention=convention).table
        got = hamiltonian_numbers(*half, convention=convention).table
        # the entries of weight i carry u^(n-i)
        assert got == tuple((key, F(value, 2 ** (2 - sum(key)))) for key, value in want)
        assert any(value.denominator != 1 for _, value in got)

    def test_unknown_convention(self):
        q, u = delzant_to_quasitoric(
            DelzantPolytope(((1,), (-1,)), (F(0), F(-1)))
        )
        with pytest.raises(InputError):
            hamiltonian_numbers(q, u, convention="weird")


class TestDelzant:
    def test_interval(self):
        q, u = delzant_to_quasitoric(DelzantPolytope(((1,), (-1,)), (F(0), F(-5))))
        assert q.complex.facets == ((1,), (2,))
        assert q.lam == ((1, -1),)
        assert u == [F(0), F(5)]
        # 1! * length
        assert hamiltonian_numbers(q, u).table[0] == ((), F(5))

    def test_triangle(self):
        tri = DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))
        q, u = delzant_to_quasitoric(tri)
        assert q.complex.facets == cpn_data(2).complex.facets
        assert q.lam == cpn_data(2).lam
        assert u == [F(0), F(0), F(4)]
        # 2! * area of the right triangle with leg 4
        assert hamiltonian_numbers(q, u).table[0] == ((), F(16))

    def test_vertices(self):
        tri = DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))
        vs = polytope_vertices(tri)
        assert [v for v, _ in vs] == [(F(0), F(0)), (F(0), F(4)), (F(4), F(0))]
        assert [a for _, a in vs] == [(0, 1), (0, 2), (1, 2)]

    def test_not_simple(self):
        pyr = DelzantPolytope(
            ((0, 0, 1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)),
            (F(0), F(0), F(-4), F(0), F(-4)),
        )
        with pytest.raises(InputError, match="not simple"):
            delzant_to_quasitoric(pyr)

    def test_not_smooth(self):
        bad = DelzantPolytope(((1, 0), (0, 1), (-1, -2)), (F(0), F(0), F(-4)))
        with pytest.raises(NonSmooth) as exc:
            delzant_to_quasitoric(bad)
        assert exc.value.divisors == [2]

    def test_unbounded(self):
        with pytest.raises(InputError, match="unbounded"):
            delzant_to_quasitoric(DelzantPolytope(((1, 0), (0, 1)), (F(0), F(0))))

    def test_redundant_facet(self):
        red = DelzantPolytope(((1,), (-1,), (1,)), (F(0), F(-5), F(-1)))
        with pytest.raises(InputError, match="redundant"):
            delzant_to_quasitoric(red)

    def test_constructor_checks(self):
        with pytest.raises(InputError, match="normal entries must be integers"):
            DelzantPolytope(((1.7, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))
        integral = DelzantPolytope(((F(1), 0.0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))
        assert integral.normals == ((1, 0), (0, 1), (-1, -1))
        with pytest.raises(InputError, match="primitive"):
            DelzantPolytope(((2, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))
        with pytest.raises(InputError):
            DelzantPolytope(((1, 0), (0, 1)), (F(0),))

    @pytest.mark.parametrize("offset", [-4.1, -4.0, "-4"])
    def test_non_rational_offset_refused(self, offset):
        with pytest.raises(TypeError, match="offsets must be int or Fraction"):
            DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (0, F(0), offset))
        assert DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (0, F(0), -4)).offsets[2] == -4

    @pytest.mark.parametrize("offset", [True, False])
    def test_bool_offset_refused(self, offset):
        # a bool equals 1 or 0 but is no offset, as it is no normal entry
        with pytest.raises(InputError, match=f"offsets must be int or Fraction, got {offset}"):
            DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (offset, 0, -4))

    # a bool equals 1 or 0 but is refused, not read as that integer
    @pytest.mark.parametrize("bad", ["x", None, float("nan"), float("inf"), (1,), True, False])
    def test_non_numeric_entries_refused(self, bad):
        message = f"facet entries must be integers, got {re.escape(repr(bad))}"
        with pytest.raises(InputError, match=message):
            SimplicialComplex(3, ((bad, 2), (2, 3), (1, 3)))
        with pytest.raises(InputError, match="lambda entries must be integers"):
            QuasitoricData(cpn_data(2).complex, ((bad, 0, -1), (0, 1, -1)))
        with pytest.raises(InputError, match="normal entries must be integers"):
            DelzantPolytope(((bad, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))

    def test_a_row_that_is_no_sequence_is_refused(self):
        with pytest.raises(InputError, match="each facet must be a row of integers, got 1"):
            SimplicialComplex(3, (1, (2, 3)))


# ---------------------------------------------------------------- Delzant oracle
#
# Outcomes of delzant_to_quasitoric from code that shares nothing with it:
# boundedness by linear programs over the recession cone, vertices by sympy
# solves over every n-subset of facets, divisors by sympy's Smith form, and
# the refusals in their documented order.


def _oracle_polytopes(count=300):
    """Seeded polytopes of dimension 1..3 with n to n + 5 primitive normals,
    entries in [-2, 2], and rational offsets, most of them <= 0. About a third
    start from the simplex and a third from the cube, so that many are
    bounded. Two more have normals spanning a line in dimension 3, where no
    n - 1 of them cut out a ray."""
    rng = random.Random(15)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 3)
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        start = rng.randrange(3)
        if start == 0:
            normals = unit + [(-1,) * n]
        elif start == 1:
            normals = unit + [tuple(-x for x in a) for a in unit]
        else:
            normals = []
        # a started polytope gets up to two cuts, a random one n to n + 5 normals
        size = min(n + 5, len(normals) + rng.randint(0, 2)) if normals else rng.randint(n, n + 5)
        while len(normals) < size:
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(a) and gcd(*(abs(x) for x in a)) == 1:
                normals.append(a)
        rng.shuffle(normals)
        offsets = [
            F(-rng.randint(0, 4) if rng.random() < 0.9 else rng.randint(1, 2), rng.randint(1, 3))
            for _ in normals
        ]
        cases.append((tuple(normals), tuple(offsets)))
    cases.append((((1, 0, 0), (-1, 0, 0)), (F(0), F(-1))))
    cases.append((((0, 1, -1), (0, -1, 1), (0, 1, -1)), (F(0), F(-2), F(-1, 2))))
    return cases


ORACLE_POLYTOPES = _oracle_polytopes()


def _oracle_is_unbounded(normals) -> bool:
    # unbounded iff some y != 0 has A y >= 0; scaled into the box, some
    # coordinate of such a y reaches at least 1/2 in absolute value
    n = len(normals[0])
    for k in range(n):
        for sign in (1, -1):
            objective = [0] * n
            objective[k] = -sign
            res = linprog(
                objective,
                A_ub=[[-x for x in a] for a in normals],
                b_ub=[0] * len(normals),
                bounds=[(-1, 1)] * n,
            )
            assert res.status == 0, res.message
            if -res.fun > 1e-6:
                return True
    return False


@functools.cache
def _oracle_vertices(normals, offsets) -> list:
    n = len(normals[0])
    found = {}
    for subset in combinations(range(len(normals)), n):
        a = DomainMatrix([[QQ(x) for x in normals[i]] for i in subset], (n, n), QQ)
        if a.det() == 0:
            continue
        b = DomainMatrix([[QQ(offsets[i].numerator, offsets[i].denominator)] for i in subset],
                         (n, 1), QQ)
        x = tuple(F(int(c.numerator), int(c.denominator)) for [c] in a.lu_solve(b).to_list())
        values = [sum(ai * xi for ai, xi in zip(row, x)) for row in normals]
        if all(v >= lam for v, lam in zip(values, offsets)):
            found[x] = tuple(i for i, (v, lam) in enumerate(zip(values, offsets)) if v == lam)
    return sorted(found.items())


def _oracle_outcome(normals, offsets):
    """("ok", sorted 1-based facets), ("InputError", message) or ("NonSmooth",
    divisors)."""
    if _oracle_is_unbounded(normals):
        return "InputError", "polytope is unbounded"
    vertices = _oracle_vertices(normals, offsets)
    if not vertices:
        return "InputError", "polytope has no vertices"
    n = len(normals[0])
    for x, active in vertices:
        if len(active) != n:
            coords = tuple(str(c) for c in x)
            detail = f"vertex {coords} lies on {len(active)} facets, polytope is not simple"
            return "InputError", detail
    covered = {i for _, active in vertices for i in active}
    missing = [i + 1 for i in range(len(normals)) if i not in covered]
    if missing:
        return "InputError", f"redundant facet(s) {missing}: never active at a vertex"
    divisors = []
    for _, active in vertices:
        d = sympy_snf(sympy.Matrix([normals[i] for i in active]).T, domain=ZZ)
        divisors += [abs(int(v)) for v in d.diagonal() if abs(v) != 1]
    if divisors:
        return "NonSmooth", sorted(divisors)
    return "ok", tuple(sorted(tuple(i + 1 for i in active) for _, active in vertices))


@functools.cache
def _oracle_outcomes() -> list:
    return [_oracle_outcome(*case) for case in ORACLE_POLYTOPES]


def test_oracle_corpus_reaches_every_outcome():
    # an InputError is told by the last word of its message
    kinds = Counter(
        kind if kind != "InputError" else detail.split()[-1] for kind, detail in _oracle_outcomes()
    )
    assert kinds["ok"] >= 20 and kinds["NonSmooth"] >= 15, kinds
    for last_word in ("unbounded", "vertices", "simple", "vertex"):
        assert kinds[last_word] >= 5, kinds


def test_delzant_matches_the_oracle():
    for (normals, offsets), want in zip(ORACLE_POLYTOPES, _oracle_outcomes()):
        try:
            q, u = delzant_to_quasitoric(DelzantPolytope(normals, offsets))
        except NonSmooth as exc:
            got = "NonSmooth", exc.divisors
        except InputError as exc:
            got = "InputError", str(exc)
        else:
            got = "ok", q.complex.facets
            assert q.lam == tuple(zip(*normals))
            assert u == [-lam for lam in offsets]
        assert got == want, (normals, offsets)


def test_polytope_vertices_match_the_oracle():
    for (normals, offsets), want in zip(ORACLE_POLYTOPES, _oracle_outcomes()):
        if want[1] != "polytope is unbounded":
            got = polytope_vertices(DelzantPolytope(normals, offsets))
            assert got == _oracle_vertices(normals, offsets), (normals, offsets)


def _kernel_polyhedra(count=1000):
    """Seeded polyhedra of dimension 1..4 with n to n + 4 primitive normals,
    entries in [-2, 2], bounded or not. Offsets are ints or Fractions; a
    quarter of the cases repeat a normal, and a quarter put every facet
    through the origin, so that many vertices are degenerate."""
    rng = random.Random(28)
    cases = []
    for i in range(count):
        n = rng.randint(1, 4)
        size = rng.randint(n, n + 4)
        normals = []
        while len(normals) < size:
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(a) and gcd(*(abs(x) for x in a)) == 1:
                normals.append(a)
        if i % 4 == 1:
            normals.append(rng.choice(normals))
        if i % 4 == 2:
            offsets = [0] * len(normals)
        else:
            offsets = [
                rng.randint(-3, 1) if rng.random() < 0.5 else F(rng.randint(-7, 2), rng.randint(1, 4))
                for _ in normals
            ]
        cases.append((tuple(normals), tuple(offsets)))
    return cases


def _kernel_vertices(p):
    """The vertices as the one-line integer kernels (X, w), w != 0, of the
    n-subsets of the cleared rows (a_i, -lambda_i), x = X / w."""
    n = p.dim
    rows, _ = clear_denominators([(*a, -lam) for a, lam in zip(p.normals, p.offsets)])
    found = {}
    for subset in combinations(rows, n):
        kernel = lattice_kernel(subset)
        if len(kernel) != 1 or kernel[0][n] == 0:
            continue
        v = kernel[0] if kernel[0][n] > 0 else [-c for c in kernel[0]]
        values = [sum(r * c for r, c in zip(row, v)) for row in rows]
        if any(value < 0 for value in values):
            continue
        x = tuple(F(c, v[n]) for c in v[:n])
        found[x] = tuple(i for i, value in enumerate(values) if value == 0)
    return sorted(found.items())


def test_polytope_vertices_match_the_integer_kernels():
    kinds = Counter()
    for normals, offsets in _kernel_polyhedra():
        p = DelzantPolytope(normals, offsets)
        want = _kernel_vertices(p)
        assert polytope_vertices(p) == want, (normals, offsets)
        kinds[p.dim, any(len(active) > p.dim for _, active in want)] += 1
    # every dimension, with and without a degenerate vertex
    assert all(kinds[n, degenerate] >= 20 for n in range(1, 5) for degenerate in (False, True))


class TestBridge:
    def test_triangle_gives_cp2(self):
        net = parse_network("A -> B : 1\nB -> C : 1\nC -> A : 1")
        q, mx = crn_to_toric(net)
        cp2 = cpn_data(2)
        assert q.complex.facets == cp2.complex.facets
        assert q.lam == cp2.lam
        assert mx.table == (((1, 1), F(3)), ((2,), F(3)))

    def test_two_complex_cycle_gives_cp1(self):
        q, mx = crn_to_toric(parse_network("A <-> 2A : 1, 1"))
        assert q.complex.facets == ((1,), (2,))
        assert mx.table == (((1,), F(2)),)

    def test_deficiency_refusal(self):
        net = parse_network("2A <-> A + B : 1, 1\nA + B <-> 2B : 1, 1")
        with pytest.raises(DeficiencyNonzero) as exc:
            crn_to_toric(net)
        assert exc.value.deficiency == 1

    def test_nonsmooth_refusal(self):
        with pytest.raises(NonSmooth) as exc:
            crn_to_toric(parse_network("0 <-> 2A : 1, 1"))
        assert exc.value.divisors == [2]

    def test_not_weakly_reversible_refusal(self):
        with pytest.raises(NotWeaklyReversible):
            crn_to_toric(parse_network("A -> B : 1"))
