"""Every bad argument the library refuses raises InputError, which is also a
ValueError: the CLI exits 1 on it without translating, and a caller that
catches ValueError still catches it. The bool offset refusal is tested with
DelzantPolytope in test_torictop.py."""

from fractions import Fraction

import pytest

from toricnet.errors import InputError
from toricnet.freeprob import nc_cumulant_series
from toricnet.hopfdiff import (
    beta_deform,
    bfk_antipode_gen,
    bfk_coproduct_gen,
    bfk_generator_checks,
    fgl_over_N,
    ln_antipode_gen,
    ln_coproduct_gen,
    ln_generator_checks,
)
from toricnet.ncsf import NCF, QSF, SymF, qsym_realize, sym_convert
from toricnet.ncsf.compositions import check_composition, check_partition

BAD_ARGUMENTS = {
    "composition part 0": lambda: check_composition((1, 0)),
    "partition part 0": lambda: check_partition((0,)),
    "increasing partition": lambda: check_partition((1, 2)),
    "QSF key": lambda: QSF.monomial((0, 1)),
    "NCF word": lambda: NCF.word((0,)),
    "SymF basis": lambda: SymF("x"),
    "SymF partition": lambda: SymF.element("e", (1, 2)),
    "sym_convert basis": lambda: sym_convert(SymF.element("e", (1,)), "x"),
    "qsym_realize variables": lambda: qsym_realize((1,), -1),
    "bfk coproduct": lambda: bfk_coproduct_gen(0),
    "bfk antipode": lambda: bfk_antipode_gen(-1),
    "bfk checks": lambda: bfk_generator_checks(0),
    "ln coproduct": lambda: ln_coproduct_gen(0),
    "ln antipode": lambda: ln_antipode_gen(-1),
    "ln checks": lambda: ln_generator_checks(0),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_argument_raises_input_error(call):
    with pytest.raises(InputError) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("order", [0, 9])
def test_one_order_range_for_every_capped_series(order):
    messages = set()
    for build in (fgl_over_N, lambda n: beta_deform(Fraction(1), n), nc_cumulant_series):
        with pytest.raises(InputError) as info:
            build(order)
        messages.add(str(info.value))
    assert messages == {f"order must be between 1 and 8, got {order}"}
