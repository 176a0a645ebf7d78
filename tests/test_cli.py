import ast
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from toricnet import cli, freeprob, hopfdiff
from toricnet.cli import main

TRIANGLE = "A -> B : 1\nB -> C : 1\nC -> A : 1\n"
BRIDGE = "2A <-> A + B : k1, k2\nA + B <-> 2B : k3, k4\n"
CP2_FACETS = [[1, 2], [1, 3], [2, 3]]
CP2_LAMBDA = [[1, 0, -1], [0, 1, -1]]
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _python(*args, **kwargs):
    """A fresh interpreter that imports toricnet from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    return _run


@pytest.fixture()
def triangle_file(tmp_path):
    p = tmp_path / "triangle.rxn"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture()
def bridge_file(tmp_path):
    p = tmp_path / "bridge.rxn"
    p.write_text(BRIDGE)
    return str(p)


@pytest.fixture()
def cp2_file(tmp_path):
    p = tmp_path / "cp2.json"
    p.write_text(json.dumps({"facets": [[1, 2], [1, 3], [2, 3]], "lambda": [[1, 0, -1], [0, 1, -1]]}))
    return str(p)


@pytest.fixture()
def simplex_file(tmp_path):
    p = tmp_path / "simplex2.json"
    p.write_text(json.dumps({"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": ["0", "0", "-4"]}))
    return str(p)


class TestCrn:
    def test_analyze_text(self, run, triangle_file):
        code, out = run("crn", "analyze", triangle_file)
        assert code == 0
        assert out == (
            "species: A B C\n"
            "complexes: A, B, C\n"
            "n = 3\n"
            "l = 1\n"
            "s = 2\n"
            "deficiency = 0\n"
            "weakly reversible: yes\n"
            "cayley:\n"
            "  1 0 0\n"
            "  0 1 0\n"
            "  0 0 1\n"
            "  1 1 1\n"
        )

    def test_analyze_json(self, run, bridge_file):
        code, out = run("crn", "analyze", bridge_file, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["deficiency"] == 1
        assert data["stoichiometric_rank"] == 1
        assert data["cayley"] == [[2, 1, 0], [0, 1, 2], [1, 1, 1]]

    def test_trees(self, run, bridge_file):
        code, out = run("crn", "trees", bridge_file)
        assert code == 0
        assert out == (
            "K[1] (2A) = k2*k4\n"
            "K[2] (A + B) = k1*k4\n"
            "K[3] (2B) = k1*k3\n"
        )

    def test_ideal(self, run, bridge_file):
        code, out = run("crn", "ideal", bridge_file)
        assert code == 0
        assert out == "K1*K3 - K2^2\n"

    def test_steady(self, run, triangle_file):
        code, out = run("crn", "steady", triangle_file)
        assert code == 0
        assert out.splitlines()[:3] == ["A = 1", "B = 1", "C = 1"]
        assert "normalization = min-norm-log" in out

    def test_steady_inline_source(self, run):
        code, out = run("crn", "steady", "A -> B : 1\nB -> A : 2")
        assert code == 0
        assert "residual = " in out

    def test_steady_large_psi_is_verified_relatively(self, run):
        # deficiency zero, so complex balanced for every rate vector; the
        # min-norm point has Psi(c) near 1e11, where an absolute balancing
        # threshold fails on rounding alone
        source = (
            "2B -> 2A + B : k1\n2B -> A + 2B : k2\n"
            "2A + B -> A + 2B : k3\nA + 2B -> 2B : k4"
        )
        code, out = run(
            "crn", "steady", source, "--bindings", "k1=9/4,k2=9,k3=9,k4=1/9", "--format", "json"
        )
        assert code == 0
        conc = json.loads(out)["concentrations"]
        a, b = conc["A"], conc["B"]
        k1, k2, k3, k4 = 9 / 4, 9, 9, 1 / 9
        psi = {"2B": b * b, "2A+B": a * a * b, "A+2B": a * b * b}
        # inflow minus outflow at each complex
        net_flow = [
            k4 * psi["A+2B"] - (k1 + k2) * psi["2B"],
            k1 * psi["2B"] - k3 * psi["2A+B"],
            k2 * psi["2B"] + k3 * psi["2A+B"] - k4 * psi["A+2B"],
        ]
        assert max(map(abs, net_flow)) <= 1e-9 * max(psi.values())

    def test_simulate(self, run, triangle_file):
        code, out = run(
            "crn", "simulate", triangle_file, "--c0", "3,0,0", "--t-end", "5", "--dt", "0.01"
        )
        assert code == 0
        assert out.startswith("t = 5 after 501 recorded steps\n")

    def test_toric(self, run, triangle_file):
        code, out = run("crn", "toric", triangle_file)
        assert code == 0
        assert out == (
            "facets: {1,2}, {1,3}, {2,3}\n"
            "lambda:\n"
            "  1 0 -1\n"
            "  0 1 -1\n"
            "mxi: 3·Z[2] + 3·Z[1,1]\n"
        )

    def test_toric_refusal_exit_2(self, run, bridge_file):
        code, out = run("crn", "toric", bridge_file)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "DeficiencyNonzero"
        assert err["deficiency"] == 1

    def test_trees_structure_before_rates(self, run):
        # two faults: {C, D} is not strongly connected and k2 is unbound; the
        # structure is checked for every class before any rate is resolved
        code, out = run(
            "crn", "trees", "A <-> B : k1, k2\nC -> D : k3", "--bindings", "k1=1,k3=1"
        )
        assert code == 2
        assert json.loads(out)["error"] == {
            "detail": "linkage class {C, D} is not strongly connected",
            "kind": "NotWeaklyReversible",
        }
        # with the structure mended the rate fault is the one reported
        code, out = run(
            "crn", "trees", "A <-> B : k1, k2\nC <-> D : k3, k4", "--bindings", "k1=1,k3=1,k4=1"
        )
        assert code == 1
        assert json.loads(out)["error"] == {
            "detail": "unbound rate symbol 'k2'", "kind": "InputError"
        }

    @pytest.mark.parametrize(
        "bindings, detail",
        [
            ("k1=1,=4", "binding '=4' has an empty name"),
            ("k1=1,k2=3,k1=2", "rate 'k1' bound twice, to 1 and 2"),
        ],
    )
    def test_bad_bindings_exit_1(self, run, bindings, detail):
        code, out = run("crn", "trees", "A <-> B : k1, k2", "--bindings", bindings)
        assert code == 1
        assert json.loads(out)["error"] == {"detail": detail, "kind": "InputError"}

    def test_repeated_equal_binding_and_inline_override(self, run):
        # the same value twice is one binding; a CLI binding beats an inline one
        code, out = run(
            "crn", "trees", "A <-> B : k1 = 5, k2", "--bindings", "k1=2,k2=3,k1=4/2"
        )
        assert code == 0
        assert out == "K[1] (A) = 3\nK[2] (B) = 2\n"

    def test_missing_file_exit_1(self, run):
        code, out = run("crn", "analyze", "/nonexistent/net.rxn")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "InputError"

    def test_stdin_source(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE))
        code, out = run("crn", "ideal", "-")
        assert code == 0


class TestQsymSym:
    def test_product(self, run):
        code, out = run("qsym", "product", "--left", "1", "--right", "1")
        assert code == 0
        assert out == "M[2] + 2·M[1,1]\n"

    def test_product_json(self, run):
        code, out = run("qsym", "product", "--left", "1", "--right", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["basis"] == "M"
        assert data["terms"] == [
            {"coeff": "1", "index": [2]},
            {"coeff": "2", "index": [1, 1]},
        ]

    def test_pair(self, run):
        code, out = run("qsym", "pair", "--word", "1,2", "--comp", "1,2")
        assert (code, out) == (0, "1\n")
        code, out = run("qsym", "pair", "--word", "1,2", "--comp", "2,1")
        assert (code, out) == (0, "0\n")

    def test_realize(self, run):
        code, out = run("qsym", "realize", "--comp", "1,2", "--nvars", "3")
        assert (code, out) == (0, "x2*x3^2 + x1*x3^2 + x1*x2^2\n")

    def test_convert(self, run):
        code, out = run("sym", "convert", "--element", "e:2,1", "--to", "h")
        assert (code, out) == (0, "-h[2,1] + h[1,1,1]\n")

    def test_sym_pair(self, run):
        code, out = run("sym", "pair", "--left", "p:2,1", "--right", "p:2,1")
        assert (code, out) == (0, "2\n")

    def test_sym_convert_above_degree_cap_exit_1(self, run):
        code, out = run("sym", "convert", "--element", "m:6,5", "--to", "s")
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "InputError"
        assert "degree cap exceeded" in err["detail"]


class TestHopf:
    def test_coproduct(self, run):
        code, out = run("hopf", "coproduct", "--algebra", "bfk", "--degree", "2")
        assert (code, out) == (0, "Δ(Z[2]) = Z[2]⊗1 + 2·Z[1]⊗Z[1] + 1⊗Z[2]\n")
        code, out = run("hopf", "coproduct", "--algebra", "ln", "--degree", "2")
        assert (code, out) == (0, "Δ(t2) = t2' + t2 + 2*t1*t1'\n")

    def test_antipode(self, run):
        code, out = run("hopf", "antipode", "--algebra", "bfk", "--degree", "2")
        assert (code, out) == (0, "χ(Z[2]) = -Z[2] + 2·Z[1,1]\n")
        code, out = run("hopf", "antipode", "--algebra", "ln", "--degree", "2")
        assert (code, out) == (0, "χ(t2) = -t2 + 2*t1^2\n")

    def test_verify(self, run):
        for algebra in ("ln", "bfk"):
            code, out = run("hopf", "verify", "--algebra", algebra, "--max-weight", "3")
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == 12  # 4 checks x 3 weights
            assert all(line.endswith(": ok") for line in lines)

    @pytest.mark.parametrize("algebra", ["bfk", "ln"])
    def test_verify_failing_check_exit_1(self, run, monkeypatch, algebra):
        # the output of a failed axiom check is still printed in full
        checks = lambda n: [(f"weight {n} check", n != 2)]  # noqa: E731
        monkeypatch.setattr(hopfdiff, f"{algebra}_generator_checks", checks)
        argv = ["hopf", "verify", "--algebra", algebra, "--max-weight", "3"]
        code, out = run(*argv)
        assert code == 1
        assert out == "weight 1 check: ok\nweight 2 check: FAIL\nweight 3 check: ok\n"
        code, out = run(*argv, "--format", "json")
        assert code == 1
        assert json.loads(out) == {
            "algebra": algebra,
            "checks": [{"name": f"weight {n} check", "ok": n != 2} for n in (1, 2, 3)],
        }

    def test_fgl(self, run):
        code, out = run("hopf", "fgl", "--order", "5")
        assert code == 0
        assert out == (
            "unit: ok\n"
            "commutative: ok\n"
            "coefficient of x·y: 2·Z[1]\n"
            "associative: FAIL, first defect at x·y·z^3: 2·Z[1,1,2] - 2·Z[1,2,1]\n"
        )

    def test_fgl_low_order_associative(self, run):
        code, out = run("hopf", "fgl", "--order", "4")
        assert code == 0
        assert "associative through order 4: ok" in out

    def test_coaction(self, run):
        code, out = run("hopf", "coaction", "--target", "log-generators", "--degree", "2")
        assert (code, out) == (0, "μ(t2) = 3*t2 + CP2 + 3*CP1*t1\n")
        code, out = run("hopf", "coaction", "--target", "b-series", "--degree", "2")
        assert (code, out) == (0, "μ(t2) = t2 + b2 + 2*b1*t1\n")


class TestFreeprob:
    def test_free(self, run):
        code, out = run("freeprob", "free", "--moments", "1,0,1,0,2")
        assert (code, out) == (0, "free_cumulants: 0, 1, 0, 0\n")

    def test_classical_roundtrip(self, run):
        code, out = run("freeprob", "classical", "--cumulants", "1,1,1")
        assert (code, out) == (0, "moments: 1, 1, 2, 5\n")

    def test_exactly_one_input(self, run):
        code, out = run("freeprob", "free", "--moments", "1,1", "--cumulants", "1")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "InputError"

    def test_hirzebruch(self, run):
        code, out = run(
            "freeprob", "hirzebruch", "--log", "1,1/2,1/3,1/4,1/5", "--order", "4"
        )
        assert code == 0
        assert out == "K0 = 1\nK1 = 1/2\nK2 = 1/12\nK3 = 0\nK4 = -1/720\n"

    def test_ncseries(self, run):
        code, out = run("freeprob", "ncseries", "--order", "3")
        assert code == 0
        assert "  [x^3] = Z[2] - 2·Z[1,1]\n" in out
        assert "  k[3] = Z[3] - Z[1,2] - 2·Z[2,1] + 2·Z[1,1,1]\n" in out


class TestToric:
    def test_validate(self, run, cp2_file):
        code, out = run("toric", "validate", "--quasitoric", cp2_file)
        assert (code, out) == (0, "valid: yes\n")

    def test_charnum_quasitoric(self, run, cp2_file):
        code, out = run("toric", "charnum", "--quasitoric", cp2_file)
        assert code == 0
        assert out == "mxi: 3·Z[2] + 3·Z[1,1]\nc[2] = 3\nc[1,1] = 9\n"

    def test_charnum_flip(self, run, cp2_file):
        code, out = run("toric", "charnum", "--quasitoric", cp2_file, "--orientation-flip")
        assert code == 0
        assert "c[1,1] = -9" in out

    def test_charnum_polytope(self, run, simplex_file):
        code, out = run("toric", "charnum", "--polytope", simplex_file)
        assert code == 0
        assert out == (
            "mxi: 3·Z[2] + 3·Z[1,1]\n"
            "c[2] = 3\n"
            "c[1,1] = 9\n"
            "u: 0, 0, 4\n"
            "S[] = 16\n"
            "S[1] = 12\n"
            "S[1,1] = 3\n"
            "S[2] = 3\n"
        )

    def test_delzant(self, run, simplex_file):
        code, out = run("toric", "delzant", "--polytope", simplex_file)
        assert code == 0
        assert out == (
            "facets: {1,2}, {1,3}, {2,3}\n"
            "lambda:\n"
            "  1 0 -1\n"
            "  0 1 -1\n"
            "u: 0, 0, 4\n"
        )

    def test_delzant_nonsmooth_exit_2(self, run, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"normals": [[1, 0], [0, 1], [-1, -2]], "offsets": ["0", "0", "-4"]}))
        code, out = run("toric", "delzant", "--polytope", str(p))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "NonSmooth"
        assert err["divisors"] == [2]

    @pytest.mark.parametrize(
        "command, field, data",
        [
            ("delzant", "normals", {"normals": [[1.7, 0], [0, 1], [-1, -1]], "offsets": [0, 0, -4]}),
            ("delzant", "normals", {"normals": [[True, 0], [0, 1], [-1, -1]], "offsets": [0, 0, -4]}),
            ("validate", "lambda", {"facets": CP2_FACETS, "lambda": [[1, 0, -1.9], [0, 1, -1]]}),
            ("validate", "facets", {"facets": [[1, 2], [1, 3], [2, 2.5]], "lambda": CP2_LAMBDA}),
            ("validate", "facets", {"facets": [[True, 2], [1, 3], [2, 3]], "lambda": CP2_LAMBDA}),
            ("delzant", "normals", {"normals": [["1", 0], [0, 1], [-1, -1]], "offsets": [0, 0, -4]}),
            ("validate", "lambda", {"facets": CP2_FACETS, "lambda": [["1", "0", "-1"], [0, 1, -1]]}),
            ("validate", "facets", {"facets": [[1, 2], ["2", 3], [1, 3]], "lambda": CP2_LAMBDA}),
        ],
    )
    def test_non_integer_json_entries_exit_1(self, run, tmp_path, command, field, data):
        p = tmp_path / "data.json"
        p.write_text(json.dumps(data))
        flag = "--polytope" if command == "delzant" else "--quasitoric"
        code, out = run("toric", command, flag, str(p))
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "InputError"
        # the library names one entry of the JSON field: a normal, a facet
        entry = {"normals": "normal", "facets": "facet"}.get(field, field)
        assert err["detail"].startswith(f"{entry} entries must be integers")

    @pytest.mark.parametrize("command", ["validate", "charnum"])
    def test_empty_facet_list_exit_1(self, run, tmp_path, command):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"facets": [], "lambda": [[1]]}))
        code, out = run("toric", command, "--quasitoric", str(p))
        assert code == 1
        assert json.loads(out)["error"] == {
            "detail": "a simplicial complex needs at least one facet", "kind": "InputError"
        }

    def test_float_offset_read_through_its_decimal_text(self, run, tmp_path):
        p = tmp_path / "floats.json"
        p.write_text(json.dumps({"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [0, 0.0, -4.1]}))
        code, out = run("toric", "delzant", "--polytope", str(p), "--format", "json")
        assert code == 0
        assert json.loads(out)["u"] == ["0", "0", "41/10"]

    def test_bool_offset_exit_1(self, run, tmp_path):
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [False, 0, -4]}))
        code, out = run("toric", "delzant", "--polytope", str(p))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "InputError"

    def test_true_offset_refused_by_the_polytope(self, run, tmp_path):
        # the library's refusal, not wrapped as a JSON shape error
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [True, 0, -4]}))
        code, out = run("toric", "delzant", "--polytope", str(p))
        assert code == 1
        assert json.loads(out)["error"] == {
            "detail": "offsets must be int or Fraction, got True", "kind": "InputError"
        }

    def test_integral_json_floats_read_as_integers(self, run, simplex_file, tmp_path):
        p = tmp_path / "floats.json"
        normals = [[1.0, 0], [0, 1], [-1, -1.0]]
        p.write_text(json.dumps({"normals": normals, "offsets": ["0", "0", "-4"]}))
        assert run("toric", "delzant", "--polytope", str(p)) == run(
            "toric", "delzant", "--polytope", simplex_file
        )


class TestHarness:
    def test_no_numpy_at_import(self):
        code = (
            "import sys, toricnet.cli, toricnet.crn, toricnet.torictop; "
            "sys.exit('numpy' in sys.modules)"
        )
        assert _python("-c", code).wait(timeout=60) == 0

    def test_closed_stdout_exits_quietly(self):
        # 158 kB of symbolic tree constants, far more than a pipe buffers,
        # with the reader gone after 100 bytes (``| head -c 100``)
        labels = ["0", "A", "B", "C", "D", "E"]
        text = "\n".join(
            f"{a} -> {b} : k{i}" for i, (a, b) in enumerate(itertools.permutations(labels, 2))
        )
        proc = _python(
            "-m", "toricnet.cli", "crn", "trees", text,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""

    def test_one_output_path(self):
        """Handlers return their result and print nothing; ``main`` alone
        prints it, through the one call of ``_emit``."""
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

        def calls(fn) -> list:
            return [
                node.func.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            ]

        assert [fn.name for fn in functions for name in calls(fn) if name == "_emit"] == ["main"]
        handlers = [fn for fn in functions if fn.name.startswith("_cmd_")]
        assert len(handlers) == 22
        assert [fn.name for fn in handlers if {"print", "_emit"} & set(calls(fn))] == []

    def test_unknown_group_exit_1(self, run):
        code, out = run("bogus")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "InputError"

    def test_missing_required_flag_exit_1(self, run):
        code, out = run("qsym", "product", "--left", "1")
        assert code == 1

    def test_deterministic_output(self, run, bridge_file):
        outs = set()
        for _ in range(2):
            code, out = run("crn", "analyze", bridge_file, "--format", "json")
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


# each request reads a per-degree memo of toricnet.hopfdiff
HOPF_MEMOS = [
    (["hopf", "fgl", "--order", str(order)], "fgl_associativity_defect") for order in range(5, 9)
] + [
    (["hopf", "verify", "--algebra", algebra], f"{algebra}_generator_checks")
    for algebra in ("bfk", "ln")
]


@pytest.mark.parametrize("argv, memo", HOPF_MEMOS, ids=["-".join(argv[1:]) for argv, _ in HOPF_MEMOS])
def test_repeated_hopf_request_is_a_cache_hit(run, argv, memo):
    memo = getattr(hopfdiff, memo)
    first = run(*argv, "--format", "json")
    before = memo.cache_info()
    assert run(*argv, "--format", "json") == first
    after = memo.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_repeated_ncseries_request_is_a_cache_hit(run):
    memo = freeprob.nc_cumulant_series
    argv = ("freeprob", "ncseries", "--order", "5", "--format", "json")
    first = run(*argv)
    before = memo.cache_info()
    assert run(*argv) == first
    after = memo.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


BAD_INTEGER_ARGUMENTS = [
    ["hopf", "coproduct", "--algebra", "bfk", "--degree", "0"],
    ["hopf", "coaction", "--target", "b-series", "--degree", "0"],
    ["hopf", "coaction", "--target", "log-generators", "--degree", "0"],
    ["hopf", "antipode", "--algebra", "ln", "--degree", "0"],
    ["qsym", "product", "--left", "0,1", "--right", "1"],
    ["qsym", "pair", "--word", "0", "--comp", "1"],
    ["qsym", "realize", "--comp", "1,2", "--nvars", "-1"],
    ["sym", "convert", "--element", "e:0", "--to", "h"],
    ["sym", "convert", "--element", "e:1,2", "--to", "h"],
    ["crn", "simulate", "A <-> B : 1, 1", "--c0", "1,0", "--t-end", "0.1", "--record-every", "0"],
    ["hopf", "verify", "--algebra", "bfk", "--max-weight", "0"],
    ["hopf", "verify", "--algebra", "ln", "--max-weight", "-2"],
    ["hopf", "fgl", "--order", "1"],
    ["hopf", "fgl", "--order", "1", "--format", "json"],
    ["hopf", "fgl", "--order", "9"],
]

# --tol 0 on this complex-balanced bridge used to end in an InternalError on
# the rounding residual of its solve, and --tol nan turned that check off
BALANCED = "2A <-> A + B : 2, 3\nA + B <-> 2B : 4, 6"
NON_FINITE_OR_NON_POSITIVE_ARGUMENTS = [
    ["crn", "steady", BALANCED, "--tol", tol] for tol in ("0", "-1", "nan", "inf")
] + [
    ["crn", "simulate", "A <-> B : 1, 1", "--c0", c0, "--t-end", t_end, "--dt", dt]
    for c0, t_end, dt in (
        ("1,0", "nan", "0.01"),
        ("1,0", "1", "nan"),
        ("1,0", "1", "inf"),
        ("nan,0", "1", "0.01"),
        ("inf,0", "1", "0.01"),
    )
]


@pytest.mark.parametrize("argv", BAD_INTEGER_ARGUMENTS, ids=" ".join)
def test_bad_integer_argument_exit_1(run, argv):
    code, out = run(*argv)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("order", ["1", "9"])
def test_fgl_order_refusal_names_the_range(run, order):
    # order 1 has no x·y coefficient, order 9 is past the series cap: one range
    code, out = run("hopf", "fgl", "--order", order)
    assert code == 1
    assert json.loads(out)["error"] == {
        "detail": f"order must be between 2 and 8, got {order}", "kind": "InputError"
    }


@pytest.mark.parametrize("argv", NON_FINITE_OR_NON_POSITIVE_ARGUMENTS, ids=" ".join)
def test_non_finite_or_non_positive_number_exit_1(run, argv):
    code, out = run(*argv)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InputError"


def _simulate_to(t_end: str) -> dict:
    """The JSON output of ``crn simulate`` to ``t_end``, which must exit 1. It
    runs in a subprocess: an integrator that accepts such a t_end never ends."""
    proc = _python(
        "-m", "toricnet.cli", "crn", "simulate", "A <-> B : 1, 1",
        "--c0", "1,0", "--t-end", t_end, "--record-every", "1000000",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"crn simulate --t-end {t_end} did not end")
    assert proc.returncode == 1
    return json.loads(out)


def test_infinite_t_end_is_refused():
    assert _simulate_to("inf")["error"]["kind"] == "InputError"


def test_huge_t_end_is_refused():
    # past t = 2^53 * dt, t += dt no longer moves t
    assert _simulate_to("1e308")["error"] == {
        "kind": "InputError", "detail": "t_end / dt = inf exceeds the step cap 1000000"
    }


class TestParserReuse:
    """main builds its parser once per process; reusing it changes no output."""

    @staticmethod
    def _calls(triangle_file, bridge_file, cp2_file):
        return [
            (1, ["qsym", "product", "--left", "1"]),
            (0, ["--help"]),
            (1, ["crn", "analyze", triangle_file, "--no-such-flag"]),
            (2, ["crn", "toric", bridge_file]),
            (0, ["crn", "trees", bridge_file, "--bindings", "k1=2,k2=3,k3=5,k4=7"]),
            (0, ["crn", "trees", bridge_file]),
            (0, ["crn", "steady", triangle_file, "--tol", "1e-6"]),
            (0, ["crn", "steady", triangle_file, "--format", "json"]),
            (0, ["qsym", "product", "--left", "1,2", "--right", "1"]),
            (0, ["sym", "convert", "--element", "e:2,1", "--to", "s", "--format", "json"]),
            (0, ["hopf", "fgl", "--order", "4"]),
            (0, ["hopf", "antipode", "--algebra", "bfk", "--degree", "3"]),
            (0, ["freeprob", "free", "--moments", "1,0,1,0,2"]),
            (0, ["freeprob", "hirzebruch", "--log", "1,1/2"]),
            (0, ["toric", "charnum", "--quasitoric", cp2_file, "--orientation-flip"]),
            (0, ["toric", "charnum", "--quasitoric", cp2_file]),
            (0, ["hopf", "fgl", "--help"]),
            (0, ["--help"]),
        ]

    @staticmethod
    def _call(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert argv[-1] == "--help"
            code = exc.code
        return code, capsys.readouterr().out

    def test_reused_parser_matches_fresh_parser(
        self, capsys, monkeypatch, triangle_file, bridge_file, cp2_file
    ):
        monkeypatch.setenv("COLUMNS", "80")
        calls = self._calls(triangle_file, bridge_file, cp2_file)
        fresh = []
        for _, argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(self._call(argv, capsys))

        monkeypatch.setattr(cli, "_PARSER", None)
        builds = []
        real_build = cli.build_parser

        def counting_build():
            builds.append(None)
            return real_build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for (code, argv), want in zip(calls, fresh):
            got = self._call(argv, capsys)
            assert got == want, argv
            assert got[0] == code, argv
            assert got[1], argv
        assert len(builds) <= 1
