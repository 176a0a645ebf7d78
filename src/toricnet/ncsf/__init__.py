"""Symmetric, quasisymmetric, and noncommutative symmetric functions."""

from .compositions import compositions, partitions, to_partition, weight
from .nsym import (
    NCF,
    TensorNCF,
    cartier,
    nsf_coproduct,
    nsf_product,
    psi_series,
    sigma_series,
    z_series,
)
from .qsym import QSF, pairing, qsf_realize, qsym_product, qsym_realize, tensor_pairing
from .sym import (
    BASES,
    DEGREE_CAP,
    SymF,
    abelianize_ncf,
    abelianize_tensor,
    hall_pairing,
    involution,
    qsf_to_sym,
    schur_in_h,
    sym_convert,
    sym_realize,
)

__all__ = [
    "compositions",
    "partitions",
    "to_partition",
    "weight",
    "NCF",
    "TensorNCF",
    "cartier",
    "nsf_coproduct",
    "nsf_product",
    "psi_series",
    "sigma_series",
    "z_series",
    "QSF",
    "pairing",
    "qsf_realize",
    "qsym_product",
    "qsym_realize",
    "tensor_pairing",
    "BASES",
    "DEGREE_CAP",
    "SymF",
    "abelianize_ncf",
    "abelianize_tensor",
    "hall_pairing",
    "involution",
    "qsf_to_sym",
    "schur_in_h",
    "sym_convert",
    "sym_realize",
]
