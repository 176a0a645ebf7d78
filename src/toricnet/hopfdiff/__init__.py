"""Hopf algebras of formal diffeomorphisms and their comparisons.

ln:       commutative Hopf algebra on t_1, t_2, ... (series substitution).
bfk:      its free-algebra counterpart on Z_1, Z_2, ... (residue coproduct).
coaction: the logarithm/binomial coactions on CP_* and b_* generators.
fgl:      the formal group law Z(Z^{<-1>}(x) + Z^{<-1>}(y)) over the free
          algebra, with its documented associativity breakdown at degree 5.
beta:     the one-parameter deformation exp(beta * Psi(T)).
"""

from .beta import BetaNCF, beta_deform
from .bfk import (
    ab_bfk_to_ln,
    bfk_antipode,
    bfk_antipode_gen,
    bfk_coassociativity_gap,
    bfk_convolution,
    bfk_coproduct,
    bfk_coproduct_gen,
    bfk_coproduct_word,
    bfk_counit,
    bfk_generator_checks,
)
from .coaction import (
    b_series,
    coaction_coassoc_ok,
    coaction_counit_ok,
    log_series,
    mu_b_image,
    mu_coaction,
    mu_log_image,
)
from .fgl import (
    commutative_fgl,
    fgl_abelianized,
    fgl_associativity_defect,
    fgl_commutative_ok,
    fgl_over_N,
    fgl_unit_ok,
    set_axis_zero,
    swap_axes,
)
from .ln import (
    ln_antipode,
    ln_antipode_gen,
    ln_coassociativity_gap,
    ln_convolution,
    ln_coproduct,
    ln_coproduct_gen,
    ln_counit,
    ln_generator_checks,
    ln_is_homogeneous,
    t_series,
)

__all__ = [
    "BetaNCF",
    "ab_bfk_to_ln",
    "b_series",
    "beta_deform",
    "bfk_antipode",
    "bfk_antipode_gen",
    "bfk_coassociativity_gap",
    "bfk_convolution",
    "bfk_coproduct",
    "bfk_coproduct_gen",
    "bfk_coproduct_word",
    "bfk_counit",
    "bfk_generator_checks",
    "coaction_coassoc_ok",
    "coaction_counit_ok",
    "commutative_fgl",
    "fgl_abelianized",
    "fgl_associativity_defect",
    "fgl_commutative_ok",
    "fgl_over_N",
    "fgl_unit_ok",
    "ln_antipode",
    "ln_antipode_gen",
    "ln_coassociativity_gap",
    "ln_convolution",
    "ln_coproduct",
    "ln_coproduct_gen",
    "ln_counit",
    "ln_generator_checks",
    "ln_is_homogeneous",
    "log_series",
    "mu_b_image",
    "mu_coaction",
    "mu_log_image",
    "set_axis_zero",
    "swap_axes",
    "t_series",
]
