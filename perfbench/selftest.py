"""Self-tests of the benchmark itself (not of toricnet).

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout. Covers determinism of the request lists,
the tracer's patching by identity, that an untraced worker installs no
wrapper, that the oracles reject a wrong answer, that generated CRN inputs
avoid the known defects while the defect probes hit them, and that
BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _kinds(rounds):
    return collections.Counter(req["kind"] for rnd in rounds for req in rnd)


def test_same_seed_gives_byte_identical_requests():
    for name in workloads.WORKLOADS:
        a = json.dumps(workloads.generate(name, 11, rounds=6), sort_keys=True).encode()
        b = json.dumps(workloads.generate(name, 11, rounds=6), sort_keys=True).encode()
        assert a == b, name


def test_other_seed_changes_inputs_not_the_mix():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 11, rounds=6)
        b = workloads.generate(name, 12, rounds=6)
        assert json.dumps(a) != json.dumps(b), name
        assert _kinds(a) == _kinds(b), name
        assert [len(r) for r in a] == [len(r) for r in b], name


def test_tracer_records_calls_through_every_alias():
    import toricnet.cli  # noqa: F401
    import toricnet.crn  # noqa: F401
    import toricnet.torictop  # noqa: F401
    from toricnet.exactcore import matrices, polynomials

    original = matrices.ff_determinant
    t = tracer.Tracer()
    t.install()
    try:
        aliases = [(owner, attr) for owner, attr, orig in t.patches if orig is original]
        # exactcore.matrices, exactcore, torictop.quasitoric, crn.trees at least
        assert len(aliases) >= 4
        for owner, attr in aliases:
            assert getattr(owner, attr)([[1, 2], [3, 4]]) == -2
        assert t.stats[("exactcore.ff_determinant", "calls")] == len(aliases)

        x = polynomials.SparsePoly.variable("x")
        _ = x + x  # __add__
        _ = 1 + x  # __radd__, the same function object
        assert t.stats[("exactcore.poly_add", "calls")] == 2
        names = {t.names[i] for i in t.name_ids}
        assert {"exactcore.ff_determinant", "exactcore.poly_add"} <= names
    finally:
        t.uninstall()
    assert tracer.wrapped_count() == 0
    assert matrices.ff_determinant is original


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    own = t.self_times()
    durations = [e - s for s, e in zip(t.starts, t.ends)]
    assert abs(own[0] - (durations[0] - sum(durations[1:]))) < 1e-9
    assert t.summary()["self_s"]["inner"] == sum(durations[1:])


def _probe(trace: str) -> int:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(ROOT, "src"), trace, "toricnet.crn"]
    proc = subprocess.run(cmd, input='{"op": "probe"}\n{"op": "end"}\n', capture_output=True,
                          text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert json.loads(lines[0])["ready"] is True
    return json.loads(lines[1])["wrapped"]


def test_untraced_worker_installs_no_wrapper():
    assert _probe("0") == 0
    assert _probe("1") > len(tracer.TARGETS)


def test_oracles_reject_a_wrong_answer():
    req = workloads.generate("hopf-series", 3, rounds=1)[0][0]
    assert req["kind"] == "hopf-fgl"
    from toricnet import cli
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(req["argv"]) == 0
    assert oracles.check(req, 0, buf.getvalue()) is None
    bad = buf.getvalue().replace('"coeff": "-2"', '"coeff": "-3"')
    assert oracles.check(req, 0, bad) is not None


def test_generated_crn_inputs_steer_round_the_known_defects():
    from fractions import Fraction

    for seed in range(3):
        for rnd in workloads.generate("crn-networks", seed, rounds=3):
            steady = next(req for req in rnd if req["kind"] == "crn-steady")
            values = {k: Fraction(v) for k, v in steady["spec"]["bindings"].items()}
            assert oracles.NetworkFacts(steady["spec"]).complex_balanced(values)
            simulate = next(req for req in rnd if req["kind"] == "crn-simulate")
            assert oracles.simulate_stiffness(simulate) <= 1.0


def test_defect_probes_are_valid_inputs_that_hit_the_defects():
    from fractions import Fraction

    simulate, steady = workloads.probes()
    assert oracles.simulate_stiffness(simulate) > 1.0
    values = {k: Fraction(v) for k, v in steady["spec"]["bindings"].items()}
    facts = oracles.NetworkFacts(steady["spec"])
    assert facts.deficiency == 0 and facts.complex_balanced(values)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.per_layer_unit(n) for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
