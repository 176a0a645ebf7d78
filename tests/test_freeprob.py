import random
from fractions import Fraction as F

import pytest

from partition_oracle import (
    moment_from_classical_cumulants,
    moment_from_free_cumulants,
    nc_partition_oracle,
    set_partitions,
)

from toricnet.errors import InputError
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
