from fractions import Fraction

import pytest

from fgl_oracle import FreeLawOracle, mirror

from toricnet.errors import InputError
from toricnet.exactcore import SparsePoly
from toricnet.hopfdiff import (
    ab_bfk_to_ln,
    beta_deform,
    bfk_antipode,
    bfk_antipode_gen,
    bfk_coassociativity_gap,
    bfk_convolution,
    bfk_coproduct,
    bfk_coproduct_gen,
    bfk_counit,
    bfk_generator_checks,
    coaction_coassoc_ok,
    coaction_counit_ok,
    commutative_fgl,
    fgl_abelianized,
    fgl_associativity_defect,
    fgl_commutative_ok,
    fgl_over_N,
    fgl_unit_ok,
    ln_antipode_gen,
    ln_coassociativity_gap,
    ln_convolution,
    ln_coproduct,
    ln_coproduct_gen,
    ln_counit,
    ln_generator_checks,
    ln_is_homogeneous,
    mu_b_image,
    mu_coaction,
    mu_log_image,
)
from toricnet.ncsf import NCF
from toricnet.render import render_ncf, render_tensor


class TestLn:
    def test_coproduct_gen(self):
        assert ln_coproduct_gen(2).render() == "t2' + t2 + 2*t1*t1'"

    def test_coproduct_multiplicative(self):
        t1 = SparsePoly.variable("t1")
        t2 = SparsePoly.variable("t2")
        assert ln_coproduct(t1 * t2) == ln_coproduct(t1) * ln_coproduct(t2)

    def test_antipode_gens(self):
        assert ln_antipode_gen(2).render() == "-t2 + 2*t1^2"
        assert ln_antipode_gen(3).render() == "-t3 + 5*t1*t2 - 5*t1^3"

    def test_counit(self):
        assert ln_counit(SparsePoly.variable("t2")) == 0
        assert ln_counit(SparsePoly.const(Fraction(7))) == 7

    def test_coassociativity(self):
        for n in range(1, 6):
            assert ln_coassociativity_gap(n).is_zero()

    def test_convolution_identities(self):
        for n in range(1, 6):
            gen = SparsePoly.variable(f"t{n}")
            assert ln_convolution(gen, True).is_zero()
            assert ln_convolution(gen, False).is_zero()

    def test_homogeneity(self):
        assert ln_is_homogeneous(ln_antipode_gen(3), 3)
        assert not ln_is_homogeneous(ln_antipode_gen(3), 2)


class TestBfk:
    def test_coproduct_gen(self):
        assert render_tensor(bfk_coproduct_gen(2)) == (
            "Z[2]⊗1 + 2·Z[1]⊗Z[1] + 1⊗Z[2]"
        )

    def test_coproduct_multiplicative(self):
        x, y = NCF.gen(1), NCF.gen(2)
        assert bfk_coproduct(x * y) == bfk_coproduct(x) * bfk_coproduct(y)

    def test_antipode_gens(self):
        assert render_ncf(bfk_antipode_gen(2)) == "-Z[2] + 2·Z[1,1]"
        assert render_ncf(bfk_antipode_gen(3)) == (
            "-Z[3] + 2·Z[1,2] + 3·Z[2,1] - 5·Z[1,1,1]"
        )

    def test_antipode_antihomomorphism(self):
        x, y = NCF.gen(1), NCF.gen(2)
        assert bfk_antipode(x * y) == bfk_antipode(y) * bfk_antipode(x)

    def test_counit(self):
        assert bfk_counit(NCF.gen(2)) == 0
        assert bfk_counit(NCF.one()) == 1

    def test_coassociativity(self):
        for n in range(1, 6):
            gap = bfk_coassociativity_gap(NCF.gen(n))
            assert all(not v.terms for v in gap.values())

    def test_convolution_identities(self):
        for n in range(1, 6):
            assert bfk_convolution(NCF.gen(n), True) == NCF.zero()
            assert bfk_convolution(NCF.gen(n), False) == NCF.zero()

    def test_abelianization_bridge(self):
        ok, witness = ab_bfk_to_ln(5)
        assert ok and witness is None


class TestCoaction:
    def test_log_image(self):
        assert mu_log_image(2).render() == "3*t2 + CP2 + 3*CP1*t1"
        assert mu_log_image(0) == SparsePoly.one()

    def test_b_image(self):
        assert mu_b_image(2).render() == "t2 + b2 + 2*b1*t1"
        assert mu_b_image(0) == SparsePoly.one()

    def test_images_table(self):
        mc = mu_coaction("log-generators", 3)
        assert sorted(mc) == [1, 2]
        assert mc[1].render() == "2*t1 + CP1"

    def test_unknown_target(self):
        with pytest.raises(InputError):
            mu_coaction("nope", 3)

    def test_counit_and_coassoc(self):
        for target in ("log-generators", "b-series"):
            assert coaction_counit_ok(target, 4)
            assert coaction_coassoc_ok(target, 4)


class TestFgl:
    def test_linear_and_mixed_terms(self):
        f = fgl_over_N(4)
        assert f.coeff(1, 0) == NCF.one()
        assert f.coeff(0, 1) == NCF.one()
        assert render_ncf(f.coeff(1, 1)) == "2·Z[1]"

    def test_unit_and_commutativity(self):
        assert fgl_unit_ok(5)
        assert fgl_commutative_ok(5)

    def test_associativity_holds_through_4(self):
        assert fgl_associativity_defect(4) is None

    def test_first_defect_at_5(self):
        mono, defect = fgl_associativity_defect(5)
        assert mono == (1, 1, 3)
        assert render_ncf(defect) == "2·Z[1,1,2] - 2·Z[1,2,1]"

    @pytest.mark.parametrize("order", [0, 9])
    def test_out_of_range_defect_order_is_refused_and_not_cached(self, order):
        size = fgl_associativity_defect.cache_info().currsize
        with pytest.raises(InputError):
            fgl_associativity_defect(order)
        assert fgl_associativity_defect.cache_info().currsize == size

    def test_abelianized_matches_commutative(self):
        assert fgl_abelianized(5) == commutative_fgl(5)

    def test_commutative_mixed_term(self):
        assert commutative_fgl(4).coeff(1, 1).render() == "2*b1"

    def test_oracle_self_check(self):
        # With sorted words the oracle computes the commutative law, which is
        # associative; a broken oracle would not vanish here and so cannot
        # agree with the library by accident in criterion 7.
        assert FreeLawOracle(6, commute=True).associativity_defect() == {}
        left = FreeLawOracle(6).associativity_defect()
        assert left and min(left) == (1, 1, 3)
        # Coefficients on the right only mirror the defect, word by word.
        assert FreeLawOracle(6, side="right").associativity_defect() == mirror(left)


class TestBeta:
    def test_beta_zero_is_one(self):
        s = beta_deform(Fraction(0), 4)
        assert s.coeff(0) == NCF.one()
        assert all(s.coeff(k) == NCF.zero() for k in range(1, 5))

    def test_beta_one_golden(self):
        s = beta_deform(Fraction(1), 4)
        assert render_ncf(s.coeff(2)) == "2·Z[2] - 1/2·Z[1,1]"

    def test_formal_specializes(self):
        formal = beta_deform("beta", 4)
        for val in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            numeric = beta_deform(val, 4)
            for k in range(5):
                assert formal.coeff(k).eval_beta(val) == numeric.coeff(k)

    def test_order_bounds(self):
        with pytest.raises(InputError):
            beta_deform(Fraction(1), 0)
        with pytest.raises(InputError):
            beta_deform(Fraction(1), 9)


class TestGeneratorChecks:
    @pytest.mark.parametrize(
        "checks, name", [(bfk_generator_checks, "Z[3]"), (ln_generator_checks, "t3")]
    )
    def test_every_axiom_holds_at_a_generator(self, checks, name):
        assert checks(3) == tuple(
            (f"{axiom} {name}", True)
            for axiom in ("coassociativity", "antipode left", "antipode right", "counit")
        )

    @pytest.mark.parametrize("checks", [bfk_generator_checks, ln_generator_checks])
    def test_generator_zero_is_refused_and_not_cached(self, checks):
        size = checks.cache_info().currsize
        with pytest.raises(ValueError):
            checks(0)
        assert checks.cache_info().currsize == size
