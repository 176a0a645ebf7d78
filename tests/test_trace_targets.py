"""The benchmark tracer's targets name functions that exist.

``perfbench/tracer.py`` wraps each of its ``TARGETS`` by module and attribute
path, and reads ``quasitoric._CONTEXTS`` to count context-cache misses. A
renamed target would otherwise fail only when the benchmark runs with
tracing on. The tracer module is loaded from its file and never installed.
"""

import importlib.util
from pathlib import Path

import pytest

import toricnet.freeprob  # noqa: F401  (loads the modules lru_caches() scans)
import toricnet.hopfdiff  # noqa: F401
from toricnet.torictop import quasitoric

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_trace_target_resolves(target):
    _, module, path, _, _ = target
    assert callable(tracer._resolve(module, path))


def test_context_cache_is_where_the_tracer_reads_it():
    assert isinstance(vars(quasitoric)["_CONTEXTS"], dict)


def test_tracer_reports_the_hopf_memos():
    names = {name for name, _ in tracer.lru_caches()}
    for memo in (
        "hopfdiff.fgl.fgl_associativity_defect",
        "hopfdiff.bfk.bfk_generator_checks",
        "hopfdiff.ln.ln_generator_checks",
        "freeprob.ncseries.nc_cumulant_series",
    ):
        assert f"toricnet.{memo}" in names
