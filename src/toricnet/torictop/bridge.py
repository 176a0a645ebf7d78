"""From a deficiency-zero network to the quasitoric data of its Cayley simplex.

The Cayley columns of a deficiency-zero weakly reversible network are
affinely independent, so they span a simplex. When the edge lattice they
generate is saturated (all elementary divisors 1) that simplex is unimodular
and the associated space carries complex-projective quasitoric data.
"""

from __future__ import annotations

from ..crn.network import Network, analyze
from ..errors import DeficiencyNonzero, NonSmooth, NotWeaklyReversible
from ..exactcore import smith_normal_form, transpose
from .charnum import MxiClass, mxi_numbers
from .quasitoric import QuasitoricData, cpn_data


def crn_to_toric(net: Network) -> tuple[QuasitoricData, MxiClass]:
    """Quasitoric data and top intersection numbers for the Cayley simplex."""
    info = analyze(net)
    if info.deficiency != 0:
        raise DeficiencyNonzero(info.deficiency)
    if not info.weakly_reversible:
        raise NotWeaklyReversible("network is not weakly reversible")
    cols = transpose(info.cayley)
    edges = [[c - cols[0][i] for i, c in enumerate(col)] for col in cols[1:]]
    divisors = smith_normal_form(transpose(edges))
    bad = [d for d in divisors if d != 1]
    if bad:
        raise NonSmooth(bad)
    q = cpn_data(net.n_complexes - 1)
    return q, mxi_numbers(q)
