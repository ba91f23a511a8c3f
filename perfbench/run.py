"""Benchmark of the mahlerlab CLI on four seeded workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Builds the workload's operation list from the seed, computes the mpmath
references its output checks need, then measures in fresh child interpreters
(see child.py) with the package imported from src/:

* --trace 0: one closed-loop child for `--seconds` (throughput, latency,
  peak RSS, correctness of every operation), then SETUP_RUNS children timed
  from launch to the end of their first operation (setup_s, median);
* --trace 1: IMPORT_RUNS children under `-X importtime` (median import self
  times) and one child that runs a fixed prefix of the plan untraced and
  traced (per-layer metrics, tracing overhead).

Prints a run record line, then as the last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Spans of traced runs and
the run records go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import references
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 3
IMPORT_RUNS = 3
#: a child still running after this many seconds is killed and the run fails
CHILD_TIMEOUT = 150.0

IMPORT_PACKAGES = ("scipy", "numpy", "mahlerlab")


class ChildFailed(RuntimeError):
    pass


def run_child(job: dict, workdir: Path, python_flags=()) -> tuple[float, str, str]:
    """Start a child, send it the job, and return (seconds from launch to its
    first operation's end, its result line, its stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    payload = json.dumps(job)
    with tempfile.TemporaryFile("w+", dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *python_flags, str(CHILD)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            cwd=ROOT, env=env, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {stderr[-2000:]}")
    return setup, rest.strip(), stderr


def import_self_ms(stderr: str) -> dict[str, float]:
    """Sum of `-X importtime` self times per top-level package, in ms."""
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in out and self_us.strip().isdigit():
            out[top] += int(self_us) / 1000.0
    return out


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_record(args, plan) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    rev = None
    if (ROOT / ".git").exists():  # a bare checkout must not pick up an enclosing repo
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "mahlerlab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": rev,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "plan_sha256": {w: workloads.plan_digest(workloads.build_plan(w, args.seed))
                        for w in workloads.WORKLOADS},
        "plan_ops": sum(len(r) for r in plan["rounds"]),
    }


def measure(plan: dict, seconds: float, workdir: Path, record: dict) -> tuple[list, dict]:
    _, line, _ = run_child({"mode": "loop", "plan": plan, "seconds": seconds}, workdir)
    loop = json.loads(line)
    setups = [run_child({"mode": "setup", "plan": plan}, workdir)[0] for _ in range(SETUP_RUNS)]
    timed = [r["s"] for r in loop["records"][1:]]
    tail, pct = tail_latency(timed)
    records = loop["records"]
    ok = sum(1 for r in records if not r["why"])
    record.update(setup_runs_s=setups, ops_timed=len(timed), timed_s=sum(timed),
                  latency_tail_percentile=pct, latency_tail_samples_beyond=10)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(timed) / sum(timed), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(timed), "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "ok_share": (ok / len(records), "ratio"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    return records, metrics


def design_check(workload: str, share: dict[str, float]) -> list[str]:
    """The self-time split each workload was chosen for; returns the breaches."""
    idents = share["identities"]
    want = {
        "verify": ("identities > 1/2", idents > 0.5),
        "table": ("lseries + curves > 1/2 and identities < 0.05",
                  share["lseries"] + share["curves"] > 0.5 and idents < 0.05),
        "sweep": ("quadrature + mahler_jensen > 1/2 and identities < 0.05",
                  share["quadrature"] + share["mahler_jensen"] > 0.5 and idents < 0.05),
        "oracle2d": ("mahler_oracle2d > 1/2", share["mahler_oracle2d"] > 0.5),
    }[workload]
    return [] if want[1] else [f"{workload}: expected {want[0]}"]


def measure_traced(plan: dict, workdir: Path, record: dict) -> tuple[list, dict]:
    imports = [import_self_ms(run_child({"mode": "setup", "plan": plan}, workdir,
                                        ("-X", "importtime"))[2])
               for _ in range(IMPORT_RUNS)]
    spans = OUT / f"spans-{plan['workload']}-seed{plan['seed']}.jsonl.gz"
    _, line, _ = run_child({"mode": "trace", "plan": plan, "spans": str(spans)}, workdir)
    trace = json.loads(line)
    layers = trace["layers"]
    share = {k.split(".", 1)[1]: v for k, v in layers.items() if k.startswith("share.")}
    breaches = design_check(plan["workload"], share)
    for why in breaches:
        print(f"perfbench: workload design check failed: {why}", file=sys.stderr)
    metrics = {f"import.{p}_ms": (statistics.median(i[p] for i in imports), "ms")
               for p in IMPORT_PACKAGES}
    for name, value in layers.items():
        metrics[name] = (value, _unit(name))
    metrics["trace.overhead_ratio"] = (trace["traced_s"] / trace["untraced_s"] - 1.0, "ratio")
    metrics["trace.output_mismatches"] = (len(trace["mismatched"]), "count")
    metrics["design.split_ok"] = (0 if breaches else 1, "bool")
    record.update(spans_file=str(spans.relative_to(ROOT)), traced_ops=len(trace["records"]),
                  design_breaches=breaches)
    records = trace["records"]
    for i in trace["mismatched"]:
        records[i]["why"] = records[i]["why"] or "traced output differs from untraced"
    return records, metrics


def _unit(name: str) -> str:
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("mean_level"):
        return "level"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mahlerlab" / "cli.py").is_file():
        print(f"perfbench: no mahlerlab sources under {SRC}", file=sys.stderr)
        return 2
    plan = workloads.build_plan(args.workload, args.seed)
    record = run_record(args, plan)
    references.attach(plan)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workloads.materialize(plan, workdir)
        try:
            if args.trace:
                records, metrics = measure_traced(plan, workdir, record)
            else:
                records, metrics = measure(plan, args.seconds, workdir, record)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    failures = [r for r in records if r["why"]]
    for r in failures[:5]:
        print(f"perfbench: operation {r['i']} failed: {r['why']}", file=sys.stderr)
    record.update(attempted=len(records), failed=len(failures),
                  fail_share=len(failures) / len(records),
                  output_sha256=hashlib.sha256(
                      "".join(r["digest"] for r in records).encode()).hexdigest())
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
