"""Byte-for-byte goldens of ``--format json`` and ``--format text`` output.

Each case runs one CLI command and compares its stdout with
``tests/golden/<name>.json``, and without ``--format json`` with
``tests/golden/<name>.txt``. Between them the cases reach every renderer
(words, compositions, partitions, tensors, polynomials and rationals), so a
refactor of the algebra types cannot change a printed byte unnoticed.
``@name`` in an argument stands for ``tests/golden/inputs/name``.
"""

import sys
from pathlib import Path

import pytest

from toricnet.cli import main
from toricnet.exactcore import SparsePoly, matrices
from toricnet.torictop import complexes, quasitoric

GOLDEN = Path(__file__).parent / "golden"

BRIDGE = "2A <-> A + B : k1, k2\nA + B <-> 2B : k3, k4"
# complete digraph on four complexes, one symbol per edge
K4 = "\n".join(
    f"{s} -> {t} : k{s}{t}" for s in "ABCD" for t in "ABCD" if s != t
)
# one strongly connected class of nine complexes: above the enumeration cap
NINE = (
    "A <-> B : 1, 2\nB <-> C : 3/2, 1\nC <-> D : 2, 1/3\nD <-> E : 1, 1\n"
    "E <-> F : 5, 2\nF <-> G : 1, 3\nG <-> H : 2/5, 1\nH <-> I : 1, 4\n"
    "I -> A : 7\nA -> E : 1/2"
)
# one class of seven complexes over ten names: a, b, e, g, k and m label
# out-edges of several complexes, so they reach powers up to k^3, and the
# exponent fields take three decode chunks; A -> B runs twice (k + f), and
# one rate is numeric
SEVEN = (
    "A -> B : k\nA -> B : f\nB -> C : a\nC -> D : k\nD -> E : b\nE -> F : k\n"
    "F -> G : c\nG -> A : d\nB -> A : a\nD -> C : e\nF -> E : a\nG -> E : 1/2\n"
    "A -> D : k\nE -> B : b\nC -> A : e\nB -> D : g\nD -> F : h\nF -> B : g\n"
    "E -> G : m\nG -> C : m"
)

CASES = {
    "crn_trees_bridge": ["crn", "trees", BRIDGE],
    "crn_trees_k4": ["crn", "trees", K4],
    "crn_trees_nine": ["crn", "trees", NINE],
    "crn_trees_seven": ["crn", "trees", SEVEN],
    "crn_toric_bridge": ["crn", "toric", "A <-> B : 1, 1\nB <-> C : 1, 1\nC <-> A : 1, 1"],
    "crn_toric_cycle5": ["crn", "toric", "A -> B : 1\nB -> C : 2\nC -> D : 1\nD -> E : 3\nE -> A : 1"],
    "qsym_product": ["qsym", "product", "--left", "1,2", "--right", "2,1"],
    "qsym_realize": ["qsym", "realize", "--comp", "1,2", "--nvars", "3"],
    "sym_convert_m_h": ["sym", "convert", "--element", "m:2,1,1", "--to", "h"],
    "sym_convert_h_s": ["sym", "convert", "--element", "h:3,2,1", "--to", "s"],
    "sym_convert_s_e": ["sym", "convert", "--element", "s:2,2,1", "--to", "e"],
    "sym_convert_p_m": ["sym", "convert", "--element", "p:3,1", "--to", "m"],
    # degree 10, the degree cap
    "sym_convert_m_s_deg10": ["sym", "convert", "--element", "m:4,3,2,1", "--to", "s"],
    "sym_pair": ["sym", "pair", "--left", "s:2,1", "--right", "p:2,1"],
    "hopf_coproduct_bfk": ["hopf", "coproduct", "--algebra", "bfk", "--degree", "4"],
    "hopf_coproduct_ln": ["hopf", "coproduct", "--algebra", "ln", "--degree", "4"],
    "hopf_antipode_bfk": ["hopf", "antipode", "--algebra", "bfk", "--degree", "5"],
    "hopf_antipode_ln": ["hopf", "antipode", "--algebra", "ln", "--degree", "4"],
    "hopf_verify_bfk": ["hopf", "verify", "--algebra", "bfk", "--max-weight", "4"],
    "hopf_fgl": ["hopf", "fgl", "--order", "6"],
    "hopf_fgl_order8": ["hopf", "fgl", "--order", "8"],
    "hopf_coaction": ["hopf", "coaction", "--target", "b-series", "--degree", "3"],
    "hopf_coaction_log_generators": [
        "hopf", "coaction", "--target", "log-generators", "--degree", "5"
    ],
    "hopf_antipode_ln_deg7": ["hopf", "antipode", "--algebra", "ln", "--degree", "7"],
    "freeprob_ncseries": ["freeprob", "ncseries", "--order", "4"],
    "freeprob_free": ["freeprob", "free", "--moments", "1,0,1,0,2,0,5"],
    "freeprob_free_cumulants": ["freeprob", "free", "--cumulants", "0,1,0,1"],
    "freeprob_classical": ["freeprob", "classical", "--moments", "1,0,1,0,3,0,15"],
    "freeprob_hirzebruch": [
        "freeprob", "hirzebruch", "--log", "1,1/2,1/6,1/24", "--order", "5"
    ],
    "toric_charnum_cp2": ["toric", "charnum", "--quasitoric", "@cp2.json"],
    "toric_charnum_prism": ["toric", "charnum", "--polytope", "@prism3.json"],
    "toric_charnum_cp2xcp2_twisted": ["toric", "charnum", "--quasitoric", "@cp2xcp2_twisted.json"],
    "toric_charnum_cp4_flip": ["toric", "charnum", "--quasitoric", "@cp4.json", "--orientation-flip"],
    "toric_charnum_bott3": ["toric", "charnum", "--quasitoric", "@bott3.json"],
    "toric_charnum_cube_cut_normal": [
        "toric", "charnum", "--polytope", "@cube_cut.json", "--bundle", "normal"
    ],
    "toric_charnum_cube_cut_flip": [
        "toric", "charnum", "--polytope", "@cube_cut.json", "--orientation-flip"
    ],
    "toric_delzant": ["toric", "delzant", "--polytope", "@simplex2.json"],
}


def argv(name: str, fmt: str = "json") -> list:
    args = [str(GOLDEN / "inputs" / a[1:]) if a.startswith("@") else a for a in CASES[name]]
    return args + ["--format", "json"] if fmt == "json" else args


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_byte_identical(name, capsys):
    assert main(argv(name)) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_output_is_byte_identical(name, capsys):
    assert main(argv(name, "text")) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_symbolic_trees_are_printed_from_their_keys(fmt, capsys, monkeypatch):
    """``crn trees`` writes symbolic tree constants from the walk's sorted
    keys: no ``SparsePoly`` is sorted or rendered, and the bytes are the
    goldens'."""

    def refuse(self):
        raise AssertionError("crn trees sorted or rendered a SparsePoly")

    monkeypatch.setattr(SparsePoly, "render", refuse)
    monkeypatch.setattr(SparsePoly, "sorted_terms", refuse)
    for name in ("crn_trees_seven", "crn_trees_k4", "crn_trees_bridge"):
        assert main(argv(name, fmt)) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}").read_text(encoding="utf-8")


def _count_calls(monkeypatch, functions) -> dict:
    """Wrap each function in every toricnet namespace that holds it; the
    returned dict counts the calls by name."""
    counts = dict.fromkeys((f.__name__ for f in functions), 0)
    for original in functions:

        def counted(*args, _original=original):
            counts[_original.__name__] += 1
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("toricnet") and vars(module).get(original.__name__) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    return counts


def test_cold_polytope_charnum_makes_no_rational_elimination(capsys, monkeypatch):
    """Delzant vertices and smoothness are lattice questions: a cold
    ``toric charnum --polytope`` runs no Fraction Gauss-Jordan elimination."""
    counts = _count_calls(monkeypatch, [matrices.rational_rref])
    monkeypatch.setattr(quasitoric, "_CONTEXTS", {})
    name = "toric_charnum_cube_cut_normal"
    assert main(argv(name)) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert counts == {"rational_rref": 0}


@pytest.mark.parametrize(
    "args, expected, golden",
    [
        (["charnum", "--polytope", "cube_cut.json"], (1, 1, 1, 10, 0, 0, 4), None),
        (["delzant", "--polytope", "cube_cut.json"], (1, 1, 1, 10, 0, 0, 0), None),
        (["charnum", "--quasitoric", "cp2xcp2_twisted.json"], (1, 1, 1, 9, 0, 0, 2), None),
        (
            ["charnum", "--orientation-flip", "--format", "json", "--polytope", "cube_cut.json"],
            (1, 1, 1, 10, 0, 0, 4),
            "toric_charnum_cube_cut_flip",
        ),
    ],
    ids=["charnum-cube_cut", "delzant-cube_cut", "charnum-cp2xcp2_twisted", "charnum-cube_cut-flip"],
)
def test_cold_toric_request_decides_each_facet_once(args, expected, golden, capsys, monkeypatch):
    """One validation pass per QuasitoricData: the Delzant check and the
    evaluation context share it, so does the orientation-flipped copy of
    Delzant data, each facet is eliminated once (its determinant comes with
    its inverse, so ``facet_determinant`` is never called), a Smith form is
    left to refusals, and each builder reuses its context."""
    functions = [
        quasitoric.validate_quasitoric,
        complexes.sphere_battery,
        complexes.orientation_signs,
        quasitoric._inverse_rows,
        quasitoric.facet_determinant,
        matrices.smith_normal_form,
        quasitoric.eval_context,
    ]
    counts = _count_calls(monkeypatch, functions)
    monkeypatch.setattr(quasitoric, "_CONTEXTS", {})
    *flags, name = args
    assert main(["toric", *flags, str(GOLDEN / "inputs" / name)]) == 0
    out = capsys.readouterr().out
    if golden is not None:
        assert out == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")
    assert counts == dict(zip((f.__name__ for f in functions), expected))
