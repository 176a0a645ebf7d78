"""toricnet benchmark: seeded CLI workloads measured end to end, checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. One
client (this process) sends requests to one worker process (worker.py) in a
closed loop: each request is one ``toricnet.cli.main(argv)`` call, sent only
after the previous one returned. Times are the worker's CPU time (README.md
says why). The loop runs for S seconds of wall time and then finishes the
round it is in, so a run always covers whole rounds of the workload's
request mix. After the loop, oracles.py checks every output.

--trace 0 prints the end-to-end metrics; --trace 1 runs a traced worker for
the per-layer metrics, then the same requests untraced for the overhead. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 8
REQUEST_TIMEOUT = 60  # seconds; the slowest request here takes about 1 s
# single-threaded numerics, so the worker's CPU time is the request's
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_trace"
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
)


def _names(layer, functions, stats):
    return [f"{layer}.{f}.{s}" for f in functions for s in stats]


PER_LAYER = (
    ["cli.build_parser.self_s", "cli.main.self_s", "render.self_s"]
    + _names("exactcore", ["rational_rref"], ["calls", "self_s", "cells"])
    + _names("torictop", ["EvalContext"], ["calls", "self_s", "basis_terms"])
    + _names("torictop", ["eval_context"], ["calls", "misses"])
    + _names("torictop", ["mxi_numbers", "chern_numbers", "hamiltonian_numbers", "class_product",
                          "validate_quasitoric", "delzant_to_quasitoric", "crn_to_toric"], ["self_s"])
    + _names("crn", ["tree_constants"], ["calls", "self_s", "out_terms"])
    + _names("exactcore", ["poly_add"], ["calls", "self_s", "terms_touched"])
    + _names("exactcore", ["poly_mul"], ["calls", "self_s", "term_products"])
    + _names("crn", ["parse_network", "analyze", "toric_binomials", "birch_point", "simulate"], ["self_s"])
    + ["crn.simulate.errors"]
    + _names("exactcore", ["ff_determinant", "hermite_normal_form", "lattice_kernel", "smith_normal_form",
                           "inverse_rational"], ["self_s"])
    + _names("exactcore", ["compose_many", "comp_inverse", "mult_inverse"], ["calls", "self_s"])
    + _names("exactcore", ["series_mul"], ["calls", "self_s", "term_products"])
    + _names("ncsf", ["ncf_mul", "tensor_mul"], ["calls", "self_s", "term_products"])
    + _names("ncsf", ["ncf_add"], ["calls", "terms_touched"])
    + _names("hopfdiff", ["fgl_over_N", "fgl_associativity_defect", "bfk_coproduct", "bfk_antipode",
                          "ln_coproduct", "ln_antipode"], ["self_s"])
    + _names("freeprob", ["moments_to_free_cumulants", "free_cumulants_to_moments", "classical_cumulants",
                          "hirzebruch_K", "nc_cumulant_series"], ["self_s"])
    + _names("ncsf", ["sym_convert", "qsym_product", "pairing"], ["self_s"])
    + ["ncsf.cache.hits", "ncsf.cache.misses", "ncsf.cache.entries"]
    + ["hopfdiff.cache.hits", "hopfdiff.cache.misses", "hopfdiff.cache.entries"]
    + ["torictop.cache.entries", "trace.overhead"]
)


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "ratio" if name == "trace.overhead" else "count"


class Worker:
    """One worker process; the client talks to it over pipes, one line each way."""

    def __init__(self, root, workdir, workload, trace):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(root, "src"),
               "1" if trace else "0", *workloads.MODULES[workload]]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=workdir, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1, env={**os.environ, **SINGLE_THREAD})
        ready = select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT)[0] and self.proc.stdout.readline()
        self.setup_wall = time.perf_counter() - start
        if not ready:
            self.proc.kill()
            self.close()
            raise SystemExit(f"worker exited during set-up (code {self.proc.returncode})")
        self.setup_cpu = json.loads(ready)["cpu"]

    def ask(self, cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        # one line per command, so nothing is left buffered between answers
        if not select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT)[0]:
            self.proc.kill()
            raise SystemExit(f"no answer within {REQUEST_TIMEOUT} s to {cmd.get('argv', cmd['op'])}")
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker died on {cmd.get('argv', cmd['op'])}")
        return json.loads(line)

    def end(self, spans=None) -> dict:
        result = self.ask({"op": "end", "spans": spans})
        self.close()
        return result

    def close(self) -> None:
        """Idempotent: end the worker's input, wait for it, kill it if it hangs."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def write_inputs(rounds, workdir) -> None:
    files = {}
    for rnd in rounds:
        for req in rnd:
            for name, text in req["files"].items():
                if files.setdefault(name, text) != text:
                    raise SystemExit(f"generated file {name} has two contents")
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def closed_loop(worker, rounds, seconds, max_requests=None):
    """Whole rounds until `seconds` have passed (or max_requests are sent)."""
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while True:
        for req in rounds[r % len(rounds)]:
            if max_requests is not None and len(results) == max_requests:
                return results, time.perf_counter() - start
            reply = worker.ask({"op": "run", "id": len(results), "argv": req["argv"]})
            reply["id"] = len(results)
            reply["req"] = req
            reply["round"] = r
            results.append(reply)
        r += 1
        if max_requests is None and time.perf_counter() >= deadline:
            return results, time.perf_counter() - start


def verdict(req, res, memo):
    """None when the answer is right, else why it is not."""
    if res["error"] is not None:
        return "uncaught exception: " + res["error"].strip().splitlines()[-1]
    key = (json.dumps(req["argv"]), res["rc"], res["out"])
    if key not in memo:
        memo[key] = oracles.check(req, res["rc"], res["out"])
    return memo[key]


def judge(results):
    """Oracle verdicts: (failed, unexplained failures, known-defect counts, seconds)."""
    start = time.perf_counter()
    memo: dict = {}
    failed, wrong, defects = 0, [], {}
    for res in results:
        req = res["req"]
        reason = verdict(req, res, memo)
        res["ok"] = reason is None
        if reason is None:
            continue
        failed += 1
        why = oracles.known_defect(req, res["error"])
        if why:
            defects[why] = defects.get(why, 0) + 1
        else:
            wrong.append(f"{req['kind']} {' '.join(req['argv'])[:120]!r}: {reason}")
    return failed, wrong, defects, time.perf_counter() - start


def run_probes(worker):
    """Send workloads.probes(): (lines to print, unexplained failures)."""
    lines, wrong = [], []
    for req in workloads.probes():
        res = worker.ask({"op": "run", "id": -1, "argv": req["argv"]})
        reason = verdict(req, res, {})
        why = reason and oracles.known_defect(req, res["error"])
        if reason is None:
            lines.append(f"defect probe {req['kind']}: answered correctly, the defect is gone")
        elif why:
            lines.append(f"defect probe {req['kind']}: still fails ({reason[:80]}): {why}")
        else:
            wrong.append(f"defect probe {req['kind']}: {reason}")
    return lines, wrong


def latency_stats(results):
    lat = sorted(res["cpu"] * 1000 if res["ok"] else math.inf for res in results)
    n = len(lat)
    p50 = statistics.median(lat)
    k = max(0, n - 11)  # the highest sample with at least 10 samples above it
    return p50, lat[k], 100.0 * (k + 1) / n, n


def digest(results, first_round_only=False):
    h = hashlib.sha256()
    for res in results:
        if first_round_only and res["round"]:
            break
        h.update(res["out"].encode())
    return h.hexdigest()


def attribution(results, by_request, top=3):
    """Request kind -> its spans with the largest summed self time."""
    kinds: dict = {}
    for res in results:
        per = kinds.setdefault(res["req"]["kind"], {})
        for name, t in by_request.get(str(res["id"]), {}).items():
            per[name] = per.get(name, 0.0) + t
    return {k: sorted(v.items(), key=lambda kv: -kv[1])[:top] for k, v in sorted(kinds.items())}


def per_layer_metrics(end, overhead):
    trace = end["trace"]
    values = dict(trace["stats"])
    values.update({f"{name}.self_s": t for name, t in trace["self_s"].items()})
    for layer in ("ncsf", "hopfdiff"):
        infos = [info for name, info in end["caches"].items() if name.startswith(f"toricnet.{layer}.")]
        values[f"{layer}.cache.hits"] = sum(i["hits"] for i in infos)
        values[f"{layer}.cache.misses"] = sum(i["misses"] for i in infos)
        values[f"{layer}.cache.entries"] = sum(i["currsize"] for i in infos)
    values["torictop.cache.entries"] = end["contexts"]
    values["trace.overhead"] = overhead
    return {name: {"value": values.get(name, 0), "unit": per_layer_unit(name)} for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toricnet", "cli.py")):
        print("perfbench: no src/toricnet here; run from the root of a toricnet checkout", file=sys.stderr)
        return 2

    rounds = workloads.generate(args.workload, args.seed)
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        write_inputs(rounds, workdir)
        return measure(args, root, workdir, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, workdir, rounds) -> int:
    trace = bool(args.trace)
    spawns = []
    probe_lines, probe_wrong = [], []
    # Half the set-up spawns come before the loop (the last one serves it),
    # half after it, so the median covers the run and not one moment: the
    # host's speed drifts over tens of seconds (README.md, Steadiness).
    before = 1 if trace else SETUP_SPAWNS // 2
    for i in range(before):
        worker = Worker(root, workdir, args.workload, trace)
        spawns.append((worker.setup_cpu, worker.setup_wall))
        if i < before - 1:
            if i == 0:  # a worker that times nothing
                probe_lines, probe_wrong = run_probes(worker)
            worker.end()
    spans = None
    if trace:
        os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
        spans = os.path.join(root, TRACE_DIR, f"spans-{args.workload}-{args.seed}.tsv")
    try:
        results, wall = closed_loop(worker, rounds, args.seconds)
        end = worker.end(spans)
    finally:
        worker.close()
    for _ in range(0 if trace else SETUP_SPAWNS - before):
        worker = Worker(root, workdir, args.workload, trace)
        spawns.append((worker.setup_cpu, worker.setup_wall))
        worker.end()
    failed, wrong, defects, oracle_s = judge(results)
    attempted = len(results)
    completed = attempted - failed
    cpu = sum(res["cpu"] for res in results)
    rps = completed / cpu
    p50, tail, tail_pct, n = latency_stats(results)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} requests in "
          f"{1 + results[-1]['round']} rounds of {len(rounds[0])}, closed loop, one client, "
          f"{wall:.2f} s{' (traced)' if trace else ''}")
    print(f"failed_frac = {failed / attempted:.4f} ratio ({failed} of {attempted})")
    for why, count in defects.items():
        print(f"  known defect x{count}: {why}")
    for line in wrong[:20]:
        print(f"  WRONG {line}")
    for line in probe_lines:
        print(line)
    for line in probe_wrong:
        print(f"  WRONG {line}")
    kinds: dict = {}
    for res in results:
        kinds.setdefault(res["req"]["kind"], []).append(res["cpu"] * 1000)
    print("median latency by kind: " + ", ".join(
        f"{k} {statistics.median(v):.1f} ms x{len(v)}" for k, v in sorted(kinds.items())))
    print(f"oracle time = {oracle_s:.3f} s (after the loop, not in any metric)")
    print(f"output sha256 first round = {digest(results, True)}")
    print(f"output sha256 all {1 + results[-1]['round']} rounds = {digest(results)}")

    if not trace:
        metrics = {
            "setup_s": statistics.median(c for c, _ in spawns),
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "throughput_rps": rps,
            "peak_rss_mb": end["maxrss_kb"] / 1024,
        }
        print("setup_s spawns, CPU (wall) = " + ", ".join(f"{c:.4f} ({w:.4f})" for c, w in spawns)
              + " s; median CPU reported")
        print(f"latency_tail_ms is p{tail_pct:.1f} of {n} samples")
        print(f"wall clock, for reference: loop {wall:.2f} s, {completed / wall:.4g} req/s, p50 "
              f"{statistics.median(res['wall'] for res in results) * 1000:.4g} ms")
        for name, unit in END_TO_END:
            print(f"{name} = {metrics[name]:.6g} {unit}")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        # the same requests again, untraced, for the tracing overhead
        plain = Worker(root, workdir, args.workload, False)
        try:
            again, _ = closed_loop(plain, rounds, 0, max_requests=attempted)
            plain.end()
        finally:
            plain.close()
        overhead = (attempted / cpu) / (len(again) / sum(res["cpu"] for res in again))
        out = per_layer_metrics(end, overhead)
        print(f"spans = {end['trace']['spans']} (written to {spans})")
        print(f"trace.overhead = {overhead:.4f} (traced / untraced throughput over the same requests)")
        print(f"EvalContext cache entries = {end['contexts']}, largest basis = {end['max_basis']} monomials")
        for name, info in end["caches"].items():
            print(f"  lru {name}: hits {info['hits']} misses {info['misses']} entries {info['currsize']}")
        for kind, top in attribution(results, end["trace"]["by_request"]).items():
            print(f"  self time, {kind}: " + ", ".join(f"{name} {t:.3f} s" for name, t in top))
        for name in PER_LAYER:
            print(f"{name} = {out[name]['value']:.6g} {out[name]['unit']}")

    print(json.dumps({"correct": not wrong and not probe_wrong, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
