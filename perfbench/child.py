"""Run one workload plan in a fresh interpreter: one client, closed loop.

Reads {"mode", "plan", "seconds", "spans"} as JSON on stdin, imports
`mahlerlab.cli`, runs the plan's first operation and prints "ready" so the
parent can time set-up.  Every operation goes through `mahlerlab.cli.main`
with stdout and stderr captured.  Modes:

* setup - stop after the first operation;
* loop  - run whole rounds until `seconds` have passed and at least
          MIN_TIMED operations after the first are timed, cycling the plan;
* trace - run each operation of the plan's first `trace_rounds` rounds
          untraced and then traced, compare the two outputs byte for byte and
          report the per-layer metrics.

The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

#: the tail latency needs at least 10 samples beyond it
MIN_TIMED = 11


def run_op(main, argv):
    """(seconds, exit code, stdout, error) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an operation that raises is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue(), error


def _record(i, op, result, check) -> dict:
    seconds, code, stdout, error = result
    return {
        "i": i,
        "s": seconds,
        "why": error or check(op["check"], code, stdout),
        "digest": hashlib.sha256(stdout.encode()).hexdigest()[:16],
    }


def _loop(main, check, ops, round_len, seconds, first):
    records = [_record(0, ops[0], first, check)]
    start = time.perf_counter()
    i = 1
    while not (i % round_len == 0 and len(records) > MIN_TIMED
               and time.perf_counter() - start >= seconds):
        op = ops[i % len(ops)]
        records.append(_record(i, op, run_op(main, op["argv"]), check))
        i += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"records": records, "peak_rss_mb": peak_kb / 1024.0}


def _trace(main, check, ops, spans_path):
    from tracer import Tracer

    tracer = Tracer()
    traced_main = tracer.spanned("cli", main, "cli.main")
    records, plain_s, traced_s, mismatched = [], 0.0, 0.0, []
    for i, op in enumerate(ops):
        plain = run_op(main, op["argv"])
        tracer.install()
        tracer.begin_op(i)
        try:
            traced = run_op(traced_main, op["argv"])
            tracer.end_op(traced[2])
        finally:
            tracer.uninstall()
        plain_s += plain[0]
        traced_s += traced[0]
        if plain[1:] != traced[1:]:
            mismatched.append(i)
        records.append(_record(i, op, traced, check))
    if spans_path:
        tracer.write_spans(spans_path)
    return {
        "records": records,
        "mismatched": mismatched,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "layers": tracer.metrics(len(ops)),
        "counts": dict(tracer.counts),
        "levels": tracer.levels,
    }


def main() -> int:
    job = json.load(sys.stdin)
    plan = job["plan"]
    rounds = plan["rounds"]
    ops = [op for rnd in rounds for op in rnd]
    from mahlerlab.cli import main as cli_main

    first = run_op(cli_main, ops[0]["argv"])
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0
    from gate import check

    if job["mode"] == "loop":
        result = _loop(cli_main, check, ops, len(rounds[0]), job["seconds"], first)
    else:
        traced = ops[: plan["trace_rounds"] * len(rounds[0])]
        result = _trace(cli_main, check, traced, job.get("spans"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
