"""Cumulant transforms: classical, free, genus K-series, noncommutative."""

from .ncseries import NCCumulants, nc_cumulant_series
from .transforms import (
    classical_cumulants,
    classical_cumulants_to_moments,
    free_cumulants_to_moments,
    hirzebruch_K,
    moments_to_free_cumulants,
)

__all__ = [
    "NCCumulants",
    "classical_cumulants",
    "classical_cumulants_to_moments",
    "free_cumulants_to_moments",
    "hirzebruch_K",
    "moments_to_free_cumulants",
    "nc_cumulant_series",
]
