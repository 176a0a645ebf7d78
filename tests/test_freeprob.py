import random
from fractions import Fraction as F
from math import factorial

import pytest

from partition_oracle import (
    moment_from_classical_cumulants,
    moment_from_free_cumulants,
    nc_partition_oracle,
    set_partitions,
)

from toricnet.errors import InputError
from toricnet.exactcore import QRing, TruncSeries
from toricnet.freeprob import (
    classical_cumulants,
    classical_cumulants_to_moments,
    free_cumulants_to_moments,
    hirzebruch_K,
    moments_to_free_cumulants,
    nc_cumulant_series,
)
from toricnet.render import render_ncf


class TestOracles:
    def test_noncrossing_counts(self):
        # Catalan numbers
        assert [len(nc_partition_oracle(n)) for n in (1, 2, 3, 4, 5)] == [1, 2, 5, 14, 42]

    def test_set_partition_counts(self):
        # Bell numbers
        assert [len(set_partitions(n)) for n in (1, 2, 3, 4, 5)] == [1, 2, 5, 15, 52]

    def test_oracle_agrees_with_transforms(self):
        rng = random.Random(5)
        for _ in range(10):
            kappa = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
            m = free_cumulants_to_moments(kappa)
            assert m[0] == 1
            for n in range(1, 9):
                assert m[n] == moment_from_free_cumulants(kappa, n)
            assert moments_to_free_cumulants(m) == kappa

    def test_oracle_agrees_classical(self):
        rng = random.Random(6)
        for _ in range(5):
            kappa = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]
            m = classical_cumulants_to_moments(kappa)
            for n in range(1, 8):
                assert m[n] == moment_from_classical_cumulants(kappa, n)
            assert classical_cumulants(m) == kappa


def _q_series(coeffs: dict, order: int) -> TruncSeries:
    return TruncSeries(QRing, order, 1, {(k,): c for k, c in coeffs.items() if c})


def _coeffs(series: TruncSeries, degrees) -> list:
    return [series.coeffs.get((i,), 0) for i in degrees]


# The transforms as Fraction series algebra: an oracle for the integer kernels
def series_free_cumulants(m):
    n = len(m) - 1
    gamma = _q_series({k + 1: c for k, c in enumerate(m)}, n + 1)
    return _coeffs(gamma.comp_inverse().shift_down().mult_inverse(), range(1, n + 1))


def series_free_moments(kappa):
    n = len(kappa)
    k_series = _q_series({0: 1, **{i + 1: c for i, c in enumerate(kappa)}}, n + 1)
    gamma = (_q_series({1: 1}, n + 1) * k_series.mult_inverse()).comp_inverse()
    return _coeffs(gamma, range(1, n + 2))


def series_classical_cumulants(m):
    n = len(m) - 1
    egf = _q_series({k: F(c, factorial(k)) for k, c in enumerate(m)}, n)
    return [factorial(i) * c for i, c in enumerate(_coeffs(egf.log(), range(n + 1)))][1:]


def series_classical_moments(kappa):
    n = len(kappa)
    gen = _q_series({i + 1: F(c, factorial(i + 1)) for i, c in enumerate(kappa)}, n)
    return [factorial(i) * c for i, c in enumerate(_coeffs(gen.exp(), range(n + 1)))]


def series_hirzebruch_K(ell, order):
    log = _q_series({i + 1: c for i, c in enumerate(ell[: order + 1])}, order + 1)
    return _coeffs(log.comp_inverse().shift_down().mult_inverse(), range(order + 1))


def _entry(rng, style):
    if style == "zeros" and rng.random() < 0.5:
        return F(0)
    if style == "integers":
        return F(rng.randint(-30, 30))
    bound = rng.choice((9, 1000, 10**6))
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def _sequences(seed, count):
    """Seeded rational sequences of length 1-16: zeros, negative entries, all
    integers and denominators up to 10^6."""
    rng = random.Random(seed)
    styles = ("zeros", "integers", "mixed")
    return [
        [_entry(rng, style) for _ in range(rng.randint(1, 16))]
        for style in (styles[i % 3] for i in range(count))
    ]


class TestIntegerKernels:
    """The integer recurrences against the Fraction series algebra."""

    def test_free_side_matches_series(self):
        for seq in _sequences(11, 300):
            m = [F(1)] + seq
            assert moments_to_free_cumulants(m) == series_free_cumulants(m)
            assert free_cumulants_to_moments(seq) == series_free_moments(seq)

    def test_classical_side_matches_series(self):
        for seq in _sequences(12, 300):
            m = [F(1)] + seq
            assert classical_cumulants(m) == series_classical_cumulants(m)
            assert classical_cumulants_to_moments(seq) == series_classical_moments(seq)

    def test_centred_moments(self):
        # m_1 = 0: the free and classical cumulants of order 2 are the variance
        for seq in _sequences(13, 60):
            m = [F(1), F(0)] + seq
            assert moments_to_free_cumulants(m) == series_free_cumulants(m)
            assert classical_cumulants(m) == series_classical_cumulants(m)

    def test_hirzebruch_matches_series_above_and_below_the_input_length(self):
        for seq in _sequences(14, 100):
            ell = [F(1)] + seq
            for order in {1, max(1, len(ell) - 3), len(ell) - 1, len(ell), len(ell) + 4}:
                assert hirzebruch_K(ell, order) == series_hirzebruch_K(ell, order)

    def test_outputs_are_fractions(self):
        m = [1, 0, 1, 0, 2]
        for out in (
            moments_to_free_cumulants(m), free_cumulants_to_moments(m[1:]),
            classical_cumulants(m), classical_cumulants_to_moments(m[1:]),
            hirzebruch_K(m, 6),
        ):
            assert all(type(x) is F for x in out)

    @pytest.mark.parametrize(
        "to_cumulants, to_moments",
        [
            (moments_to_free_cumulants, free_cumulants_to_moments),
            (classical_cumulants, classical_cumulants_to_moments),
        ],
    )
    def test_length_40_roundtrip(self, to_cumulants, to_moments):
        rng = random.Random(40)
        kappa = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(40)]
        m = to_moments(kappa)
        assert len(m) == 41 and m[0] == 1
        assert to_cumulants(m) == kappa
        moments = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(40)]
        assert to_moments(to_cumulants(moments)) == moments


class TestSpotValues:
    def test_semicircle(self):
        kappa = moments_to_free_cumulants([1, 0, 1, 0, 2, 0, 5])
        assert kappa == [0, 1, 0, 0, 0, 0]

    def test_free_poisson(self):
        # Catalan moments
        assert moments_to_free_cumulants([1, 1, 2, 5, 14]) == [1, 1, 1, 1]

    def test_point_mass(self):
        assert moments_to_free_cumulants([1, 1, 1, 1, 1]) == [1, 0, 0, 0]

    def test_classical_normal(self):
        assert classical_cumulants([1, 0, 1, 0, 3]) == [0, 1, 0, 0]

    def test_classical_poisson(self):
        # Bell moments
        assert classical_cumulants([1, 1, 2, 5, 15]) == [1, 1, 1, 1]

    def test_free_vs_classical_diverge(self):
        # same first three moments, fourth cumulant differs by the crossing pair
        free = moments_to_free_cumulants([1, 0, 1, 0, 2])
        cls = classical_cumulants([1, 0, 1, 0, 2])
        assert free[3] == 0
        assert cls[3] == -1

    def test_short_input(self):
        assert moments_to_free_cumulants([1, 1, 2, 5]) == [1, 1, 1]

    def test_bad_m0(self):
        with pytest.raises(InputError):
            moments_to_free_cumulants([0, 1])


class TestHirzebruch:
    def test_todd(self):
        ell = [F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
        assert hirzebruch_K(ell, 4) == [F(1), F(1, 2), F(1, 12), F(0), F(-1, 720)]

    def test_l_genus(self):
        ell = [F(1), F(0), F(1, 3), F(0), F(1, 5)]
        assert hirzebruch_K(ell, 4) == [F(1), F(0), F(1, 3), F(0), F(-1, 45)]

    def test_additive(self):
        assert hirzebruch_K([F(1)], 4) == [F(1), F(0), F(0), F(0), F(0)]

    def test_leading_coefficient_checked(self):
        with pytest.raises(InputError):
            hirzebruch_K([F(2)], 3)

    def test_matches_free_cumulants(self):
        # K-series of the moment log recovers the free cumulants
        rng = random.Random(3)
        for _ in range(5):
            m = [F(1)] + [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)]
            kappa = moments_to_free_cumulants(m)
            K = hirzebruch_K(m, 5)
            assert K[0] == 1
            assert K[1:] == kappa


class TestNCSeries:
    @pytest.mark.parametrize("order", [0, 9])
    def test_out_of_range_order_is_refused_and_not_cached(self, order):
        size = nc_cumulant_series.cache_info().currsize
        with pytest.raises(InputError):
            nc_cumulant_series(order)
        assert nc_cumulant_series.cache_info().currsize == size

    def test_raw_golden(self):
        nc = nc_cumulant_series(3)
        assert render_ncf(nc.raw.coeff(1)) == "-1"
        assert render_ncf(nc.raw.coeff(2)) == "-Z[1]"
        assert render_ncf(nc.raw.coeff(3)) == "Z[2] - 2·Z[1,1]"

    def test_normalized_goldens(self):
        nc = nc_cumulant_series(3)
        assert render_ncf(nc.normalized.coeff(1)) == "Z[1]"
        assert render_ncf(nc.normalized.coeff(2)) == "Z[2] - Z[1,1]"
        assert render_ncf(nc.normalized.coeff(3)) == (
            "Z[3] - Z[1,2] - 2·Z[2,1] + 2·Z[1,1,1]"
        )

    def test_abelianizes_to_free_cumulants(self):
        # substituting Z_w -> prod m_{w_i} recovers kappa_n numerically
        rng = random.Random(9)
        nc = nc_cumulant_series(5)
        for _ in range(4):
            m = [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
            kappa = moments_to_free_cumulants(m)

            def sub(x):
                tot = F(0)
                for w, c in x.terms.items():
                    prod = F(1)
                    for i in w:
                        prod *= m[i]
                    tot += c * prod
                return tot

            for n in range(1, 6):
                assert sub(nc.normalized.coeff(n)) == kappa[n - 1]
