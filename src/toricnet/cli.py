"""Command-line front end: every analysis behind one deterministic binary.

Exit codes: 0 success, 1 an ``InputError`` (bad input, unknown flags and
unreadable files included; the library raises it for every bad argument and
no handler translates one), 2 a ``DomainRefusal``; any other exception is a
bug and prints a traceback. Refusals always emit machine-readable
{"error": {"kind": ..., "detail": ...}} regardless of --format.

Every ``_cmd_*`` handler computes and returns ``(payload, text_lines)``, or
``(payload, text_lines, exit_code)`` when the result itself decides the code
(``hopf verify`` exits 1 on a failed check, its output still printed); it
prints nothing. ``main`` prints the one result through ``_emit`` in the form
``--format`` asks for, and every subcommand is declared through ``_command``,
which adds that option.

The argparse tree is built once per process, on the first ``main`` call, and
reused by every later call: each ``parse_args`` returns a fresh namespace, no
option appends to a shared default, and a usage error raises before any
state is kept. Importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainRefusal, InputError
from .render import (
    frac_str,
    ncf_json,
    qsf_json,
    render_ncf,
    render_qsf,
    render_sym,
    render_tensor,
    sym_json,
    tensor_json,
)

DEFAULT_ORDER = 8

_PARSER = None  # built by the first main() call


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for domain refusals here
    def error(self, message):
        raise InputError(message)


def _emit(payload: dict, text_lines: list, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _read_source(spec_arg: str) -> str:
    if spec_arg == "-":
        return sys.stdin.read()
    if "->" in spec_arg or "\n" in spec_arg:
        return spec_arg
    if os.path.isfile(spec_arg):
        with open(spec_arg, encoding="utf-8") as fh:
            return fh.read()
    raise InputError(f"cannot read {spec_arg!r}: not a file and not reaction text")


def _read_json(path: str) -> dict:
    if not os.path.isfile(path):
        raise InputError(f"cannot read {path!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _parse_bindings(text: str | None) -> dict | None:
    if text is None:
        return None
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"binding {item!r} is not name=value")
        name, _, value = item.partition("=")
        name = name.strip()
        if not name:
            raise InputError(f"binding {item!r} has an empty name")
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}") from exc
        if out.setdefault(name, value) != value:
            raise InputError(f"rate {name!r} bound twice, to {out[name]} and {value}")
    return out


def _parse_list(text: str, convert, word: str) -> tuple:
    """``text`` split at commas, each part through ``convert``; ``word`` names
    the expected entries in the refusal."""
    try:
        return tuple(convert(p.strip()) for p in text.split(",") if p.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"expected comma-separated {word}, got {text!r}") from exc


# ---------------------------------------------------------------- crn


def _load_network(arg: str):
    from .crn import parse_network

    return parse_network(_read_source(arg))


def _cmd_crn_analyze(args) -> tuple:
    from .crn import analyze

    net = _load_network(args.input)
    info = analyze(net)
    payload = {
        "species": list(net.species),
        "complexes": [net.complex_label(i) for i in range(net.n_complexes)],
        "n_complexes": net.n_complexes,
        "linkage_classes": [list(c) for c in info.linkage_classes],
        "n_linkage_classes": len(info.linkage_classes),
        "strong_components": [list(c) for c in info.strong_components],
        "weakly_reversible": info.weakly_reversible,
        "stoichiometric_rank": info.stoich_rank,
        "deficiency": info.deficiency,
        "cayley": [list(row) for row in info.cayley],
    }
    lines = [
        "species: " + " ".join(net.species),
        "complexes: " + ", ".join(payload["complexes"]),
        f"n = {net.n_complexes}",
        f"l = {len(info.linkage_classes)}",
        f"s = {info.stoich_rank}",
        f"deficiency = {info.deficiency}",
        "weakly reversible: " + ("yes" if info.weakly_reversible else "no"),
        "cayley:",
    ] + ["  " + " ".join(str(x) for x in row) for row in info.cayley]
    return payload, lines


def _cmd_crn_trees(args) -> tuple:
    from .crn import tree_constant_texts

    net = _load_network(args.input)
    values = tree_constant_texts(net, _parse_bindings(args.bindings))
    payload = {
        "tree_constants": [
            {"complex": net.complex_label(i), "value": v} for i, v in enumerate(values)
        ]
    }
    lines = [f"K[{i + 1}] ({net.complex_label(i)}) = {v}" for i, v in enumerate(values)]
    return payload, lines


def _cmd_crn_ideal(args) -> tuple:
    from .crn import toric_binomials

    net = _load_network(args.input)
    bins = toric_binomials(net)
    payload = {
        "binomials": [
            {"u_plus": list(b.u_plus), "u_minus": list(b.u_minus), "text": b.text}
            for b in bins
        ]
    }
    lines = [b.text for b in bins] if bins else ["(no binomials: kernel is trivial)"]
    return payload, lines


def _cmd_crn_steady(args) -> tuple:
    from .crn import birch_point

    net = _load_network(args.input)
    st = birch_point(net, _parse_bindings(args.bindings), tol=args.tol)
    payload = {
        "concentrations": {
            s: c for s, c in zip(net.species, st.concentrations)
        },
        "residual": st.residual,
        "normalization": st.normalization,
    }
    lines = [
        f"{s} = {c:.12g}" for s, c in zip(net.species, st.concentrations)
    ] + [f"residual = {st.residual:.3e}", f"normalization = {st.normalization}"]
    return payload, lines


def _cmd_crn_simulate(args) -> tuple:
    from .crn import simulate

    net = _load_network(args.input)
    c0 = _parse_list(args.c0, float, "numbers")
    traj = simulate(
        net,
        _parse_bindings(args.bindings),
        c0,
        t_end=args.t_end,
        dt=args.dt,
        record_every=args.record_every,
    )
    payload = {
        "t_end": traj.times[-1],
        "steps_recorded": len(traj.times),
        "final": {s: c for s, c in zip(net.species, traj.final)},
    }
    lines = [f"t = {traj.times[-1]:.6g} after {len(traj.times)} recorded steps"] + [
        f"{s} = {c:.12g}" for s, c in zip(net.species, traj.final)
    ]
    return payload, lines


def _cmd_crn_toric(args) -> tuple:
    from .torictop import crn_to_toric

    net = _load_network(args.input)
    q, cls = crn_to_toric(net)
    payload, lines = _quasitoric_output(q)
    payload["mxi"] = _mxi_json(cls)
    lines.append("mxi: " + render_ncf(cls.to_ncf()))
    return payload, lines


# ---------------------------------------------------------------- qsym / sym


def _cmd_qsym_product(args) -> tuple:
    from .ncsf import QSF, qsym_product

    out = qsym_product(
        QSF.monomial(_parse_list(args.left, int, "integers")),
        QSF.monomial(_parse_list(args.right, int, "integers")),
    )
    return qsf_json(out), [render_qsf(out)]


def _cmd_qsym_pair(args) -> tuple:
    from .ncsf import NCF, QSF, pairing

    value = pairing(
        NCF.word(_parse_list(args.word, int, "integers")),
        QSF.monomial(_parse_list(args.comp, int, "integers")),
    )
    return {"value": frac_str(value)}, [frac_str(value)]


def _cmd_qsym_realize(args) -> tuple:
    from .ncsf import qsym_realize

    poly = qsym_realize(_parse_list(args.comp, int, "integers"), args.nvars)
    payload = {"polynomial": poly.render(), "nvars": args.nvars}
    return payload, [poly.render()]


def _parse_sym_element(text: str):
    from .ncsf import SymF

    basis, _, parts = text.partition(":")
    basis = basis.strip()
    if not parts:
        raise InputError(f"expected basis:parts like e:2,1, got {text!r}")
    return SymF.element(basis, _parse_list(parts, int, "integers"))


def _cmd_sym_convert(args) -> tuple:
    from .ncsf import sym_convert

    out = sym_convert(_parse_sym_element(args.element), args.to)
    return sym_json(out), [render_sym(out)]


def _cmd_sym_pair(args) -> tuple:
    from .ncsf import hall_pairing

    value = hall_pairing(_parse_sym_element(args.left), _parse_sym_element(args.right))
    return {"value": frac_str(value)}, [frac_str(value)]


# ---------------------------------------------------------------- hopf


def _cmd_hopf_coproduct(args) -> tuple:
    if args.algebra == "bfk":
        from .hopfdiff import bfk_coproduct_gen

        t = bfk_coproduct_gen(args.degree)
        return {"coproduct": tensor_json(t)}, [f"Δ(Z[{args.degree}]) = {render_tensor(t)}"]
    from .hopfdiff import ln_coproduct_gen

    p = ln_coproduct_gen(args.degree)
    return {"coproduct": p.render()}, [f"Δ(t{args.degree}) = {p.render()}"]


def _cmd_hopf_antipode(args) -> tuple:
    if args.algebra == "bfk":
        from .hopfdiff import bfk_antipode_gen

        x = bfk_antipode_gen(args.degree)
        return {"antipode": ncf_json(x)}, [f"χ(Z[{args.degree}]) = {render_ncf(x)}"]
    from .hopfdiff import ln_antipode_gen

    p = ln_antipode_gen(args.degree)
    return {"antipode": p.render()}, [f"χ(t{args.degree}) = {p.render()}"]


def _hopf_checks(algebra: str, max_weight: int) -> list:
    from .hopfdiff import bfk_generator_checks, ln_generator_checks

    generator_checks = bfk_generator_checks if algebra == "bfk" else ln_generator_checks
    return [check for n in range(1, max_weight + 1) for check in generator_checks(n)]


def _cmd_hopf_verify(args) -> tuple:
    if args.max_weight < 1:
        raise InputError(f"max weight must be >= 1, got {args.max_weight}")
    checks = _hopf_checks(args.algebra, args.max_weight)
    payload = {"algebra": args.algebra, "checks": [{"name": n, "ok": ok} for n, ok in checks]}
    lines = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks]
    return payload, lines, 0 if all(ok for _, ok in checks) else 1


def _cmd_hopf_fgl(args) -> tuple:
    from .hopfdiff.fgl import (
        check_order,
        fgl_associativity_defect,
        fgl_commutative_ok,
        fgl_over_N,
        fgl_unit_ok,
    )

    order = check_order(args.order, least=2)  # order 1 has no x·y coefficient
    f = fgl_over_N(order)
    xy = f.coeffs.get((1, 1))
    unit = fgl_unit_ok(order)
    comm = fgl_commutative_ok(order)
    defect = fgl_associativity_defect(order)
    payload = {
        "order": order,
        "unit": unit,
        "commutative": comm,
        "xy_coefficient": ncf_json(xy),
        "associative": defect is None,
    }
    lines = [
        f"unit: {'ok' if unit else 'FAIL'}",
        f"commutative: {'ok' if comm else 'FAIL'}",
        f"coefficient of x·y: {render_ncf(xy)}",
    ]
    if defect is None:
        payload["associativity_defect"] = None
        lines.append(f"associative through order {order}: ok")
    else:
        exponents, coeff = defect
        payload["associativity_defect"] = {
            "monomial": list(exponents),
            "coeff": ncf_json(coeff),
        }
        mono = "·".join(
            f"{v}^{e}" if e > 1 else v
            for v, e in zip(("x", "y", "z"), exponents)
            if e
        )
        lines.append(f"associative: FAIL, first defect at {mono}: {render_ncf(coeff)}")
    return payload, lines


def _cmd_hopf_coaction(args) -> tuple:
    from .hopfdiff import mu_b_image, mu_log_image

    degree = args.degree
    if degree < 1:  # mu_*_image(0) is 1, the image of the unit, not a generator's
        raise InputError(f"generator degree must be >= 1, got {degree}")
    p = (mu_log_image if args.target == "log-generators" else mu_b_image)(degree)
    payload = {"target": args.target, "image": p.render()}
    return payload, [f"μ(t{degree}) = {p.render()}"]


# ---------------------------------------------------------------- freeprob


def _cmd_freeprob_cumulants(args) -> tuple:
    """``freeprob free`` and ``freeprob classical``: ``args.transforms`` names
    the (moments -> cumulants, cumulants -> moments) pair in ``freeprob``."""
    from . import freeprob

    if (args.moments is None) == (args.cumulants is None):
        raise InputError("give exactly one of --moments or --cumulants")
    to_cumulants, to_moments = (getattr(freeprob, name) for name in args.transforms)
    if args.moments is not None:
        out = to_cumulants(_parse_list(args.moments, Fraction, "rationals"))
        key = f"{args.cmd}_cumulants"
    else:
        out = to_moments(_parse_list(args.cumulants, Fraction, "rationals"))
        key = "moments"
    payload = {key: [frac_str(v) for v in out]}
    return payload, [f"{key}: " + ", ".join(frac_str(v) for v in out)]


def _cmd_freeprob_hirzebruch(args) -> tuple:
    from .freeprob import hirzebruch_K

    coeffs = _parse_list(args.log, Fraction, "rationals")
    order = args.order if args.order is not None else len(coeffs)
    ks = hirzebruch_K(coeffs, order)
    payload = {"K": [frac_str(v) for v in ks]}
    lines = [f"K{i} = {frac_str(v)}" for i, v in enumerate(ks)]
    return payload, lines


def _cmd_freeprob_ncseries(args) -> tuple:
    from .freeprob import nc_cumulant_series

    series = nc_cumulant_series(args.order)
    raw, normalized = (
        [(n, ts.coeffs[(n,)]) for n in range(1, args.order + 1) if (n,) in ts.coeffs]
        for ts in (series.raw, series.normalized)
    )
    payload = {
        key: [{"n": n, "value": ncf_json(c)} for n, c in rows]
        for key, rows in (("raw", raw), ("normalized", normalized))
    }
    lines = (
        ["raw:"] + [f"  [x^{n}] = {render_ncf(c)}" for n, c in raw]
        + ["normalized:"] + [f"  k[{n}] = {render_ncf(c)}" for n, c in normalized]
    )
    return payload, lines


# ---------------------------------------------------------------- toric


def _mxi_json(cls) -> dict:
    return {
        "degree": cls.degree,
        "table": [
            {"composition": list(a), "value": frac_str(v)} for a, v in cls.table
        ],
        "class": ncf_json(cls.to_ncf()),
    }


def _quasitoric_output(q) -> tuple[dict, list]:
    """The facets, lambda and base facet of quasitoric data: payload and text."""
    payload = {
        "facets": [list(f) for f in q.complex.facets],
        "lambda": [list(r) for r in q.lam],
        "base_facet": list(q.base_facet),
    }
    lines = [
        "facets: " + ", ".join("{" + ",".join(str(v) for v in f) + "}" for f in q.complex.facets),
        "lambda:",
    ] + ["  " + " ".join(str(x) for x in row) for row in q.lam]
    return payload, lines


def _load_quasitoric(path: str, flip: bool):
    from .torictop import QuasitoricData, SimplicialComplex

    data = _read_json(path)
    # only the JSON's shape here: the entries are the library's to check
    try:
        facets, lam = tuple(data["facets"]), tuple(data["lambda"])
        m = len(lam[0]) if lam else 0
    except (KeyError, TypeError) as exc:
        raise InputError(f"quasitoric JSON needs facets and lambda: {exc}") from exc
    return QuasitoricData(SimplicialComplex(m, facets), lam, orientation_flip=flip)


def _offset(v):
    """A JSON offset for DelzantPolytope: a float through its decimal text, so
    -4.1 reads as -41/10 and not as its binary value, text through Fraction,
    and an int, or a bool the polytope refuses, as it is."""
    if isinstance(v, float):
        return Fraction(repr(v))
    return v if isinstance(v, int) else Fraction(v)


def _load_polytope(path: str):
    from .torictop import DelzantPolytope

    data = _read_json(path)
    try:
        normals = tuple(data["normals"])
        offsets = tuple(_offset(v) for v in data["offsets"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"polytope JSON needs normals and offsets: {exc}") from exc
    return DelzantPolytope(normals, offsets)


def _cmd_toric_validate(args) -> tuple:
    q = _load_quasitoric(args.quasitoric, flip=False)
    rep = q.validate()
    payload = {"valid": rep.valid, "checks_run": list(rep.checks_run), "issues": list(rep.issues)}
    lines = [f"valid: {'yes' if rep.valid else 'no'}"] + [
        f"  issue: {msg}" for msg in rep.issues
    ]
    return payload, lines


def _cmd_toric_charnum(args) -> tuple:
    from .ncsf import partitions
    from .torictop import delzant_to_quasitoric, hamiltonian_numbers, mxi_numbers
    from .torictop.charnum import _chern_values

    if (args.polytope is None) == (args.quasitoric is None):
        raise InputError("give exactly one of --polytope or --quasitoric")
    u = None
    if args.polytope is not None:
        q, u = delzant_to_quasitoric(_load_polytope(args.polytope))
        if args.orientation_flip:
            q = q.flipped()
    else:
        q = _load_quasitoric(args.quasitoric, flip=args.orientation_flip)
    cls = mxi_numbers(q)
    lams = partitions(q.n)
    cherns = list(zip(lams, _chern_values(q, lams, args.bundle)))
    payload = {
        "n": q.n,
        "bundle": args.bundle,
        "mxi": _mxi_json(cls),
        "chern": [
            {"partition": list(lam), "value": frac_str(v)} for lam, v in cherns
        ],
    }
    lines = ["mxi: " + render_ncf(cls.to_ncf())] + [
        f"c[{','.join(str(p) for p in lam)}] = {frac_str(v)}" for lam, v in cherns
    ]
    if u is not None:
        ham = hamiltonian_numbers(q, u, convention=args.convention)
        payload["u"] = [frac_str(x) for x in u]
        payload["hamiltonian"] = {
            "convention": args.convention,
            "table": [
                {"index": list(a), "value": frac_str(v)} for a, v in ham.table
            ],
        }
        lines.append("u: " + ", ".join(frac_str(x) for x in u))
        lines += [
            f"S[{','.join(str(p) for p in a)}] = {frac_str(v)}" for a, v in ham.table
        ]
    return payload, lines


def _cmd_toric_delzant(args) -> tuple:
    from .torictop import delzant_to_quasitoric

    q, u = delzant_to_quasitoric(_load_polytope(args.polytope))
    payload, lines = _quasitoric_output(q)
    payload["u"] = [frac_str(x) for x in u]
    lines.append("u: " + ", ".join(frac_str(x) for x in u))
    return payload, lines


# ---------------------------------------------------------------- wiring


def _command(group, name: str, fn, **defaults):
    """Subcommand ``name`` of ``group``, run by ``fn``, with ``--format``;
    ``defaults`` are further namespace values the handler reads."""
    p = group.add_parser(name)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=fn, **defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="toricnet", description=__doc__.splitlines()[0])
    groups = root.add_subparsers(dest="group", required=True)

    def group(name: str, about: str):
        return groups.add_parser(name, help=about).add_subparsers(dest="cmd", required=True)

    crn = group("crn", "reaction network analyses")
    for name, fn in (
        ("analyze", _cmd_crn_analyze),
        ("trees", _cmd_crn_trees),
        ("ideal", _cmd_crn_ideal),
        ("steady", _cmd_crn_steady),
        ("simulate", _cmd_crn_simulate),
        ("toric", _cmd_crn_toric),
    ):
        p = _command(crn, name, fn)
        p.add_argument("input", help="reaction file, inline text, or - for stdin")
        if name in ("trees", "steady", "simulate"):
            p.add_argument("--bindings", help="k1=2,k2=1/3")
        if name == "steady":
            p.add_argument(
                "--tol",
                type=float,
                default=1e-9,
                help="bound on the relative residual of the solved log-linear system, "
                "an internal cross-check; balancing itself is decided exactly",
            )
        if name == "simulate":
            p.add_argument("--c0", required=True, help="initial concentrations")
            p.add_argument("--t-end", type=float, required=True)
            p.add_argument("--dt", type=float, default=0.01)
            p.add_argument("--record-every", type=int, default=1)

    qsym = group("qsym", "quasisymmetric functions")
    p = _command(qsym, "product", _cmd_qsym_product)
    p.add_argument("--left", required=True, help="composition, e.g. 1,2")
    p.add_argument("--right", required=True)
    p = _command(qsym, "pair", _cmd_qsym_pair)
    p.add_argument("--word", required=True, help="Z-word, e.g. 1,2")
    p.add_argument("--comp", required=True, help="M-composition")
    p = _command(qsym, "realize", _cmd_qsym_realize)
    p.add_argument("--comp", required=True)
    p.add_argument("--nvars", type=int, required=True)

    sym = group("sym", "symmetric functions")
    p = _command(sym, "convert", _cmd_sym_convert)
    p.add_argument("--element", required=True, help="basis:parts, e.g. e:2,1")
    p.add_argument("--to", required=True, choices=("e", "h", "p", "m", "s"))
    p = _command(sym, "pair", _cmd_sym_pair)
    p.add_argument("--left", required=True, help="basis:parts")
    p.add_argument("--right", required=True)

    hopf = group("hopf", "Hopf algebras of diffeomorphisms")
    for name, fn in (("coproduct", _cmd_hopf_coproduct), ("antipode", _cmd_hopf_antipode)):
        p = _command(hopf, name, fn)
        p.add_argument("--algebra", choices=("ln", "bfk"), required=True)
        p.add_argument("--degree", type=int, required=True)
    p = _command(hopf, "verify", _cmd_hopf_verify)
    p.add_argument("--algebra", choices=("ln", "bfk"), required=True)
    p.add_argument("--max-weight", type=int, default=6)
    p = _command(hopf, "fgl", _cmd_hopf_fgl)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p = _command(hopf, "coaction", _cmd_hopf_coaction)
    p.add_argument("--target", choices=("log-generators", "b-series"), required=True)
    p.add_argument("--degree", type=int, required=True)

    fp = group("freeprob", "cumulant transforms")
    p = _command(
        fp, "free", _cmd_freeprob_cumulants,
        transforms=("moments_to_free_cumulants", "free_cumulants_to_moments"),
    )
    p.add_argument("--moments", help="1,m1,m2,... starting at m0 = 1")
    p.add_argument("--cumulants", help="k1,k2,...")
    p = _command(
        fp, "classical", _cmd_freeprob_cumulants,
        transforms=("classical_cumulants", "classical_cumulants_to_moments"),
    )
    p.add_argument("--moments")
    p.add_argument("--cumulants")
    p = _command(fp, "hirzebruch", _cmd_freeprob_hirzebruch)
    p.add_argument("--log", required=True, help="log coefficients l1,l2,... with l1 = 1")
    p.add_argument("--order", type=int)
    p = _command(fp, "ncseries", _cmd_freeprob_ncseries)
    p.add_argument("--order", type=int, default=4)

    toric = group("toric", "quasitoric data")
    p = _command(toric, "validate", _cmd_toric_validate)
    p.add_argument("--quasitoric", required=True, help="JSON with facets + lambda")
    p = _command(toric, "charnum", _cmd_toric_charnum)
    p.add_argument("--quasitoric")
    p.add_argument("--polytope")
    p.add_argument("--orientation-flip", action="store_true")
    p.add_argument("--bundle", choices=("tangent", "normal"), default="tangent")
    p.add_argument("--convention", choices=("mxi", "ginzburg"), default="mxi")
    p = _command(toric, "delzant", _cmd_toric_delzant)
    p.add_argument("--polytope", required=True)

    return root


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        payload, lines, *code = args.fn(args)
        _emit(payload, lines, args.format)
        sys.stdout.flush()
        return code[0] if code else 0
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): the output was cut, not
        # wrong; stdout goes to devnull so the interpreter's final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DomainRefusal as exc:
        print(json.dumps({"error": exc.payload()}, sort_keys=True))
        return 2
    except InputError as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "detail": str(exc)}},
                         sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
