"""Deterministic text and JSON rendering for algebra elements.

Text grammar: words as Z[1,2], scalar prefix with a middle dot (2·Z[1,1]),
unit coefficient omitted, zero rendered "0". Tensors use ⊗ with the empty
word shown as 1. JSON carries rationals as strings "p/q".
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore.terms import key_str


def frac_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _join_terms(parts: list) -> str:
    """parts: (coeff, body) with body already rendered; signs move to the joins."""
    if not parts:
        return "0"
    out = []
    for k, (c, body) in enumerate(parts):
        mag = abs(c)
        piece = body if mag == 1 and body != "1" else (
            frac_str(mag) if body == "1" else f"{frac_str(mag)}·{body}"
        )
        if k == 0:
            out.append(("-" if c < 0 else "") + piece)
        else:
            out.append((" - " if c < 0 else " + ") + piece)
    return "".join(out)


def render_terms(sorted_terms, letter: str = "Z") -> str:
    return _join_terms([(c, key_str(letter, w)) for w, c in sorted_terms])


def render_ncf(x) -> str:
    return render_terms(x.sorted_terms(), "Z")


def render_qsf(q) -> str:
    return render_terms(q.sorted_terms(), "M")


def render_sym(s) -> str:
    return render_terms(s.sorted_terms(), s.basis)


def _tensor_terms(t) -> list:
    """Terms of a tensor, heaviest left factor first, then by the two words."""
    return sorted(t.terms.items(), key=lambda kv: (-sum(kv[0][0]), kv[0][0], kv[0][1]))


def render_tensor(t) -> str:
    return _join_terms(
        [(c, f"{key_str('Z', lw)}⊗{key_str('Z', rw)}") for (lw, rw), c in _tensor_terms(t)]
    )


def terms_json(sorted_terms, basis: str) -> dict:
    return {
        "basis": basis,
        "terms": [
            {"index": list(w), "coeff": frac_str(c)} for w, c in sorted_terms
        ],
    }


def ncf_json(x) -> dict:
    return terms_json(x.sorted_terms(), "Z")


def qsf_json(q) -> dict:
    return terms_json(q.sorted_terms(), "M")


def sym_json(s) -> dict:
    return terms_json(s.sorted_terms(), s.basis)


def tensor_json(t) -> dict:
    return {
        "terms": [
            {"left": list(lw), "right": list(rw), "coeff": frac_str(c)}
            for (lw, rw), c in _tensor_terms(t)
        ]
    }


def value_str(v) -> str:
    """Rational or exact polynomial, as the CLI prints it."""
    if isinstance(v, (int, Fraction)):
        return frac_str(v)
    return v.render()  # SparsePoly
