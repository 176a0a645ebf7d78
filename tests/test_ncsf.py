from fractions import Fraction

import pytest

from toricnet.errors import InputError
from toricnet.exactcore import TruncSeries
from toricnet.ncsf import (
    NCF,
    QSF,
    SymF,
    abelianize_ncf,
    cartier,
    compositions,
    hall_pairing,
    involution,
    nsf_coproduct,
    nsf_product,
    pairing,
    partitions,
    psi_series,
    qsf_realize,
    qsf_to_sym,
    qsym_product,
    qsym_realize,
    schur_in_h,
    sigma_series,
    sym_convert,
    sym_realize,
    tensor_pairing,
    to_partition,
    weight,
    z_series,
)
from toricnet.render import render_ncf, render_qsf, render_sym, render_tensor


class TestCompositions:
    def test_counts(self):
        # 2^(n-1) compositions of n, and the n=0 edge case
        assert compositions(0) == ((),)
        assert len(compositions(1)) == 1
        assert len(compositions(4)) == 8
        assert len(compositions(6)) == 32

    def test_partitions(self):
        assert partitions(0) == ((),)
        assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_to_partition(self):
        assert to_partition((1, 3, 2)) == (3, 2, 1)
        assert weight((1, 3, 2)) == 6


class TestNCF:
    def test_arithmetic(self):
        x = NCF.gen(1) + NCF.word((2,), Fraction(3))
        y = x - NCF.gen(1)
        assert render_ncf(y) == "3·Z[2]"
        assert render_ncf(x * x) == (
            "Z[1,1] + 3·Z[1,2] + 3·Z[2,1] + 9·Z[2,2]"
        )

    def test_graded_piece(self):
        x = NCF.word((1, 2)) + NCF.word((3,)) + NCF.word((1,))
        assert render_ncf(x.graded_piece(3)) == "Z[3] + Z[1,2]"
        assert x.graded_piece(5) == NCF.zero()

    def test_product_concatenates(self):
        assert nsf_product(NCF.gen(1), NCF.gen(2)) == NCF.word((1, 2))

    def test_coproduct_grouplike(self):
        # Delta(Z_n) = sum_{i+j=n} Z_i (x) Z_j
        t = nsf_coproduct(NCF.gen(3))
        assert render_tensor(t) == (
            "Z[3]⊗1 + Z[2]⊗Z[1] + Z[1]⊗Z[2] + 1⊗Z[3]"
        )

    def test_coproduct_multiplicative(self):
        x, y = NCF.gen(1), NCF.gen(2)
        assert nsf_coproduct(x * y) == nsf_coproduct(x) * nsf_coproduct(y)


class TestSeries:
    def test_z_series_grouplike(self):
        z = z_series(4, "grouplike")
        assert z.coeff(0) == NCF.one()
        assert z.coeff(3) == NCF.gen(3)

    def test_z_series_diffeo(self):
        z = z_series(4, "diffeo")
        assert z.coeff(0) == NCF.zero()
        assert z.coeff(1) == NCF.one()
        assert z.coeff(3) == NCF.gen(2)

    def test_sigma_series(self):
        s = sigma_series(3)
        assert render_ncf(s.coeff(2)) == "-Z[2] + Z[1,1]"
        assert render_ncf(s.coeff(3)) == "Z[3] - Z[1,2] - Z[2,1] + Z[1,1,1]"

    def test_sigma_inverts_z(self):
        # sigma(T) * z(-T) == 1
        n = 6
        sig = sigma_series(n)
        z = z_series(n, "grouplike")
        ring = z.ring
        neg = TruncSeries(
            ring, n, 1, {k: c * Fraction((-1) ** k[0]) for k, c in z.coeffs.items()}
        )
        prod = sig * neg
        assert prod.coeff(0) == ring.one()
        assert all(prod.coeff(k) == ring.zero() for k in range(1, n + 1))

    def test_cartier(self):
        sigs, psis = cartier(3)
        assert render_ncf(sigs[1]) == "-Z[2] + Z[1,1]"
        assert render_ncf(psis[1]) == "2·Z[2] - Z[1,1]"
        assert render_ncf(psis[2]) == "3·Z[3] - Z[1,2] - 2·Z[2,1] + Z[1,1,1]"

    def test_psi_series_matches_cartier(self):
        _, psis = cartier(4)
        p = psi_series(4)
        for n in range(1, 5):
            assert p.coeff(n) == psis[n - 1]


class TestQSym:
    def test_product_goldens(self):
        m1 = QSF.monomial((1,))
        assert render_qsf(qsym_product(m1, m1)) == "M[2] + 2·M[1,1]"
        assert render_qsf(qsym_product(m1, QSF.monomial((2,)))) == (
            "M[3] + M[1,2] + M[2,1]"
        )

    def test_product_commutative(self):
        a = QSF.monomial((1, 2)) + QSF.monomial((3,))
        b = QSF.monomial((2,), Fraction(1, 2))
        assert qsym_product(a, b) == qsym_product(b, a)

    def test_realize(self):
        assert qsym_realize((1, 2), 3).render() == "x2*x3^2 + x1*x3^2 + x1*x2^2"
        assert qsf_realize(QSF.monomial((1, 2)), 3).render() == (
            "x2*x3^2 + x1*x3^2 + x1*x2^2"
        )

    def test_realize_too_few_vars(self):
        # a monomial word longer than nvars has no realization
        assert qsym_realize((1, 1, 1), 2).is_zero()

    def test_realization_is_ring_map(self):
        a, b = QSF.monomial((2,)), QSF.monomial((1, 1))
        lhs = qsf_realize(qsym_product(a, b), 4)
        rhs = qsf_realize(a, 4) * qsf_realize(b, 4)
        assert lhs == rhs

    def test_pairing_dual_bases(self):
        for n in range(0, 6):
            for alpha in compositions(n):
                for beta in compositions(n):
                    expected = Fraction(1 if alpha == beta else 0)
                    assert pairing(NCF.word(alpha), QSF.monomial(beta)) == expected

    def test_pairing_degree_mismatch(self):
        assert pairing(NCF.gen(2), QSF.monomial((1,))) == 0

    def test_tensor_pairing(self):
        t = nsf_coproduct(NCF.gen(2))
        assert tensor_pairing(t, QSF.monomial((1,)), QSF.monomial((1,))) == 1
        assert tensor_pairing(t, QSF.monomial((2,)), QSF.monomial(())) == 1


class TestSym:
    def test_convert_goldens(self):
        e21 = SymF.element("e", (2, 1))
        assert render_sym(sym_convert(e21, "h")) == "-h[2,1] + h[1,1,1]"
        assert render_sym(sym_convert(e21, "m")) == "m[2,1] + 3·m[1,1,1]"

    def test_roundtrips(self):
        bases = ("e", "h", "p", "m")
        for n in range(0, 6):
            for lam in partitions(n):
                for src in bases:
                    x = SymF.element(src, lam)
                    for mid in bases:
                        assert sym_convert(sym_convert(x, mid), src) == x

    def test_newton_identity(self):
        # p3 = h1^3 - 3 h1 h2 + 3 h3 in the h basis
        p3 = sym_convert(SymF.element("p", (3,)), "h")
        assert render_sym(p3) == "3·h[3] - 3·h[2,1] + h[1,1,1]"

    def test_schur_in_h(self):
        assert render_sym(schur_in_h((2, 1))) == "-h[3] + h[2,1]"
        assert render_sym(schur_in_h((2, 2))) == "h[2,2] - h[3,1]"

    def test_schur_jacobi_trudi_row(self):
        assert schur_in_h((3,)) == SymF.element("h", (3,))

    def test_hall_pairing(self):
        for n in range(0, 5):
            for lam in partitions(n):
                for mu in partitions(n):
                    h = SymF.element("h", lam)
                    m = SymF.element("m", mu)
                    expected = Fraction(1 if lam == mu else 0)
                    assert hall_pairing(h, m) == expected

    def test_hall_pairing_power_sums(self):
        # <p_lam, p_mu> = z_lam delta; z_(2,1) = 2
        p21 = SymF.element("p", (2, 1))
        assert hall_pairing(p21, p21) == 2

    def test_involutions(self):
        e2 = SymF.element("e", (2,))
        assert render_sym(involution(e2, "inverse")) == "-e[2] + e[1,1]"
        assert render_sym(involution(SymF.element("e", (2, 1)), "sign")) == "-e[2,1]"
        # inverse flips power sums: p_k -> -p_k
        p3 = SymF.element("p", (3,))
        assert involution(p3, "inverse") == SymF.element("p", (3,), Fraction(-1))
        with pytest.raises(ValueError):
            involution(e2, "bogus")

    def test_realize(self):
        assert sym_realize(SymF.element("e", (2,)), 3).render() == (
            "x2*x3 + x1*x3 + x1*x2"
        )

    def test_qsf_to_sym(self):
        assert qsf_to_sym(QSF.monomial((1, 1))) == SymF.element("m", (1, 1))
        # forgetful: every rearrangement lands on the sorted partition
        assert qsf_to_sym(QSF.monomial((1, 2))) == SymF.element("m", (2, 1))
        diff = QSF.monomial((1, 2)) - QSF.monomial((2, 1))
        assert qsf_to_sym(diff) == SymF("m", {})

    def test_mixed_multiplicative_product_has_no_degree_cap(self):
        # e, h and p convert into each other for any degree; the product is
        # in the basis of the left operand
        product = SymF.gen("e", 6) * SymF.gen("h", 5)
        assert product.basis == "e"
        assert product == SymF.gen("e", 6) * sym_convert(SymF.gen("h", 5), "e")

    def test_mixed_multiplicative_compare_and_add_have_no_degree_cap(self):
        # ==, +, - and sum convert the right operand into the left one's
        # basis; among e, h and p that needs no Kostka matrix
        eh = SymF.gen("e", 6) * SymF.gen("h", 5)
        he = SymF.gen("h", 5) * SymF.gen("e", 6)
        assert (eh.basis, he.basis) == ("e", "h")
        assert eh == he and he == eh
        assert hash(eh) == hash(he)
        assert (eh + he).basis == "e"
        assert eh + he == eh * 2
        assert not eh - he
        assert SymF.sum([he, eh, -he]) == he
        assert SymF.gen("p", 6) * SymF.gen("e", 5) == SymF.gen("e", 5) * SymF.gen("p", 6)
        # the m and s bases still go through the capped Kostka matrices
        with pytest.raises(InputError):
            eh == SymF.element("m", (11,))

    def test_abelianize(self):
        assert abelianize_ncf(NCF.gen(2), "sym") == SymF.element("e", (2,))
        assert abelianize_ncf(NCF.gen(2), "diffeo").render() == "t2"

    def test_abelianize_is_ring_map(self):
        x = NCF.word((1, 2)) + NCF.gen(3)
        y = NCF.gen(1)
        lhs = abelianize_ncf(x * y, "sym")
        rhs = abelianize_ncf(x, "sym") * abelianize_ncf(y, "sym")
        assert lhs == rhs
