"""A seeded walk over every subcommand of ``toricnet``: whatever the arguments,
``cli.main`` returns 0, 1 or 2 and raises nothing.

The argv of each call picks a subcommand of ``build_parser()``, keeps each
required option and half of the others, and fills each from a pool of edge
values (zero, negatives, nan, inf, empty text, bad rationals, reaction text,
JSON files of every shape). Under ``--format json`` the output is one JSON
object, and it is an ``{"error": {"kind", "detail", ...}}`` object exactly
when the exit code is not 0.

Each call runs under a timer. A call that outlives it is counted, not
failed: some sizes have no cap (``hopf antipode --degree 1000``, ``hopf
verify --algebra ln --max-weight 30``), and the pool leaves them out only to
keep the walk within its budget.
"""

import argparse
import contextlib
import io
import itertools
import json
import random
import signal
import time

import pytest

from toricnet import cli

SEEDS = (0, 1, 2, 3)
CALLS_PER_SEED = 1500
BUDGET_S = 5.0  # for all seeds together; the walk stops early past it
CALL_LIMIT_S = 1.0

NETWORKS = [
    "A <-> B : 1, 1",
    "2A <-> A + B : 2, 3\nA + B <-> 2B : 4, 6",
    "2A <-> A + B : k1, k2\nA + B <-> 2B : k3, k4",
    "A -> B : 1\nB -> C : 1\nC -> A : 1",
    "A <-> 2A : 1, 1",
    "A -> B : 1",
    "A -> B : 0",
    "A -> : 1",
    "A <-> B",
    "A -> B : 1/0",
    "->",
]
INTS = ["-1", "0", "1", "2", "3", "5", "8", "9"]
# crn simulate refuses more than a million steps (t_end / dt), so 1e308 is
# refused at once and every accepted run takes at most 100 steps
FLOATS = ["-1", "0", "0.01", "0.5", "1", "1e308", "nan", "inf", "-inf"]
# never "-": it reads stdin
TEXTS = [
    "", " ", ",", "x", "0", "1", "-1", "1/2", "1/0", "nan", "1,,2", "0,1", "1,2",
    "2,1", "1,2,3", "-1,2", "1,0", "nan,0", "inf,0", "1e308,0", "1,1/2,1/3",
    "1,0,1,0,2", "e:2,1", "s:3", "h:0", "p:", "m:1,2", "q:1", ":1", "e:1,2",
    "k1=2", "k1=2,k2=3,k3=5,k4=7", "k1=0", "k1=x", "=1", "k1", "k1=1,k1=2",
]
FILES = {
    "simplex.json": {"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [0, 0, -4]},
    "nonsmooth.json": {"normals": [[1, 0], [0, 1], [-1, -2]], "offsets": ["0", "0", "-4"]},
    "unbounded.json": {"normals": [[1, 0], [0, 1]], "offsets": [0, 0]},
    "bool_offset.json": {"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [True, 0, -4]},
    "odd_offsets.json": {"normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [None, "1/0", [1]]},
    "flat_normals.json": {"normals": 5, "offsets": 7},
    "ragged.json": {"normals": [[1, 0], [0, 1, 1], [-1]], "offsets": [0, 0, -4]},
    "cp2.json": {"facets": [[1, 2], [1, 3], [2, 3]], "lambda": [[1, 0, -1], [0, 1, -1]]},
    "empty_facets.json": {"facets": [], "lambda": [[1]]},
    "bad_lambda.json": {"facets": [[1, 2], [1, 3], [2, 3]], "lambda": [[True, 0, "1"], [0, 1.5, -1]]},
    "flat_lambda.json": {"facets": [[1, 2]], "lambda": [5]},
    "text_rows.json": {"facets": "abc", "lambda": "xyz"},
    "list.json": [1, 2, 3],
    "null.json": None,
}


def _commands(parser: argparse.ArgumentParser):
    """(argv prefix, options) of every leaf subcommand, options without --help."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [([], [a for a in parser._actions if a.dest != "help"])]
    return [
        ([name] + prefix, options)
        for name, sub in subs[0].choices.items()
        for prefix, options in _commands(sub)
    ]


def _value(rng: random.Random, action, files: list) -> str:
    """Mostly a value of the option's own kind, now and then any value."""
    if rng.random() < 0.1:
        return rng.choice(rng.choice((INTS, FLOATS, TEXTS, NETWORKS, files)))
    if action.choices:
        return rng.choice(list(action.choices))
    if action.type in (int, float):
        return rng.choice(INTS if action.type is int else FLOATS)
    if action.dest in ("input", "quasitoric", "polytope"):
        return rng.choice(NETWORKS if action.dest == "input" else files)
    return rng.choice(TEXTS)


def fuzz_argvs(seed: int, calls: int, files: list):
    """``calls`` argv lists of the seeded walk; ``files`` are paths it may pass."""
    rng = random.Random(seed)
    commands = sorted(_commands(cli.build_parser()), key=lambda c: c[0])
    for _ in range(calls):
        argv, options = rng.choice(commands)
        argv = list(argv)
        for action in options:
            keep = action.required or action.dest == "format" or rng.random() < 0.5
            if rng.random() < 0.03:
                keep = not keep  # now and then drop a required option, or add a skipped one
            if not keep:
                continue
            value = _value(rng, action, files)
            if not action.option_strings:
                argv.append(value)
            elif action.nargs == 0:
                argv.append(action.option_strings[0])
            else:
                argv += [action.option_strings[0], value]
        if rng.random() < 0.03:
            argv.append("--no-such-flag")
        yield argv


class _Timeout(BaseException):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _call(argv: list):
    """(exit code, stdout) of ``cli.main(argv)``, or None past the call limit."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue()


@pytest.fixture()
def fuzz_files(tmp_path):
    paths = []
    for name, data in FILES.items():
        p = tmp_path / name
        p.write_text(json.dumps(data))
        paths.append(str(p))
    (tmp_path / "malformed.json").write_text("{not json")
    return paths + [str(tmp_path / "malformed.json"), str(tmp_path / "missing.json")]


def test_every_argv_ends_in_a_structured_outcome(fuzz_files):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.monotonic() + BUDGET_S
    argvs = itertools.chain.from_iterable(
        fuzz_argvs(seed, CALLS_PER_SEED, fuzz_files) for seed in SEEDS
    )
    codes, timeouts = [], []
    try:
        for argv in argvs:
            if time.monotonic() > deadline:
                break
            outcome = _call(argv)
            if outcome is None:
                timeouts.append(argv)
                continue
            code, out = outcome
            assert code in (0, 1, 2), argv
            if "--format" in argv and argv[argv.index("--format") + 1] == "json":
                doc = json.loads(out)
                assert isinstance(doc, dict), argv
                assert ("error" in doc) == (code != 0), argv
                if code:
                    assert list(doc) == ["error"], argv
                    assert {"kind", "detail"} <= set(doc["error"]), argv
            codes.append(code)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the walk reached all three outcomes, and most calls ended in time
    assert set(codes) == {0, 1, 2}
    assert len(timeouts) <= len(codes) // 20, timeouts
