"""Benchmark worker: one process that serves ``toricnet.cli.main`` requests.

    python3 perfbench/worker.py SRC_DIR TRACE MODULE...

Imports ``toricnet.cli`` and the listed subpackages from SRC_DIR, installs
the tracer when TRACE is 1, then prints one ready line with the CPU time
the process has used so far. After that it reads one JSON command per line
on stdin and answers each with one JSON line:

    {"op": "run", "id": n, "argv": [...]}  -> rc, stdout, stderr, error, CPU and wall seconds
    {"op": "probe"}                         -> how many tracer wrappers are installed
    {"op": "end", "spans": path or null}    -> peak RSS and the trace summary, then exit

Requests run one at a time, with no threads.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's peak resident set size in kB.

    VmHWM belongs to the process's own address space. ru_maxrss does not
    serve here: Linux carries the parent's peak over fork and exec, so it
    would report the client's size whenever that is the larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    src, trace, modules = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, os.path.abspath(src))
    cli = importlib.import_module("toricnet.cli")
    expected = os.path.join(os.path.abspath(src), "toricnet")
    if not os.path.abspath(cli.__file__).startswith(expected + os.sep):
        raise SystemExit(f"toricnet imported from {cli.__file__}, not from {expected}")
    for name in modules:
        importlib.import_module(name)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer as tracing

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    # Like a long-running server: objects that exist after start-up are
    # moved out of the collector's generations, so a full collection scans
    # only what requests created (the program's caches included) and the
    # latency tail measures requests rather than rescans of the import heap.
    gc.freeze()

    proto_in, proto_out = sys.stdin, sys.stdout

    def reply(obj) -> None:
        proto_out.write(json.dumps(obj) + "\n")
        proto_out.flush()

    reply({"ready": True, "cpu": time.process_time()})
    for line in proto_in:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "run":
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            if tracer is not None:
                tracer.request = cmd["id"]
            start, cpu = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(cmd["argv"])
            except Exception:  # a crash of one request is a measured failure
                error = traceback.format_exc(limit=3)
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - start
            reply({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "error": error, "cpu": cpu, "wall": wall})
        elif op == "probe":
            reply({"wrapped": tracing.wrapped_count()})
        elif op == "end":
            result = {"maxrss_kb": peak_rss_kb()}
            if tracer is not None:
                result["trace"] = tracer.summary()
                result["caches"] = {
                    name: fn.cache_info()._asdict() for name, fn in tracing.lru_caches()
                }
                quasitoric = importlib.import_module("toricnet.torictop.quasitoric")
                result["contexts"] = len(quasitoric._CONTEXTS)
                result["max_basis"] = max((len(c.basis) for c in quasitoric._CONTEXTS.values()), default=0)
                if cmd.get("spans"):
                    tracer.write_spans(cmd["spans"])
            reply(result)
            return 0
        else:
            raise SystemExit(f"unknown op {op!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
