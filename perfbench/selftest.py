"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that plans are a pure function of the seed, that the output gate
fires on injected defects, that tracing leaves outputs byte-identical and
its counters repeatable, and that each workload loads the layers it was
chosen for.  Takes about half a minute on two CPUs.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import gate  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _first_op(workload: str, kind: str, seed: int = 3) -> dict:
    plan = workloads.build_plan(workload, seed)
    op = next(op for rnd in plan["rounds"] for op in rnd if op["check"]["kind"] == kind)
    references.attach({"rounds": [[op]]})
    return op


class PlanTests(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.build_plan(w, 11), workloads.build_plan(w, 11))

    def test_two_seeds_differ(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(workloads.plan_digest(workloads.build_plan(w, 11)),
                                workloads.plan_digest(workloads.build_plan(w, 12)))

    def test_grid_matches_the_cli(self):
        from mahlerlab.cli import parse_grid

        for spec in ("6.512:80.25:37", "0.2:3.8:100", "5:5:1"):
            self.assertEqual(workloads.grid(spec), parse_grid(spec))


class GateTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from mahlerlab.cli import main

        cls.outputs = {}
        for workload, kind in (("table", "table"), ("sweep", "sweep"), ("table", "lvalue")):
            op = _first_op(workload, kind)
            _, code, stdout, error = child.run_op(main, op["argv"])
            assert not error, error
            cls.outputs[kind] = (op["check"], code, stdout)
        cls.main = staticmethod(main)

    def test_good_outputs_pass(self):
        for kind, (spec, code, stdout) in self.outputs.items():
            self.assertEqual(gate.check(spec, code, stdout), "", kind)

    def test_perturbed_table_value(self):
        spec, code, stdout = self.outputs["table"]
        doc = json.loads(stdout)
        doc["rows"][3]["computed"] *= 1.0 + 1e-7
        self.assertIn("reference", gate.check(spec, code, json.dumps(doc)))

    def test_perturbed_lvalue(self):
        spec, code, stdout = self.outputs["lvalue"]
        doc = json.loads(stdout)
        row = next(r for r in doc["rows"] if r["input"] == "L2")
        row["computed"] *= 1.0 + 1e-7
        self.assertNotEqual(gate.check(spec, code, json.dumps(doc)), "")

    def test_perturbed_sweep_value(self):
        spec, code, stdout = self.outputs["sweep"]
        lines = stdout.splitlines(keepends=True)
        i = spec["samples"][0] + 1
        k, value, est = lines[i].rstrip("\n").split(",")
        lines[i] = f"{k},{float(value) + 1e-9!r},{est}\n"
        self.assertIn("reference", gate.check(spec, code, "".join(lines)))

    def test_missing_known_red_row(self):
        spec, code, stdout = self.outputs["table"]
        doc = json.loads(stdout)
        doc["rows"] = [r for r in doc["rows"] if r["input"] != gate.KNOWN_RED]
        self.assertNotEqual(gate.check(spec, code, json.dumps(doc)), "")
        doc = json.loads(stdout)
        next(r for r in doc["rows"] if r["input"] == gate.KNOWN_RED)["status"] = "PASS"
        self.assertNotEqual(gate.check(spec, code, json.dumps(doc)), "")

    def test_usage_error_exit_2(self):
        argv = ["verify", "thm-main", "--k-grid", "1:3:5", "--format", "json", "--jobs", "1"]
        _, code, stdout, error = child.run_op(self.main, argv)
        self.assertEqual(code, 2)
        self.assertIn("exit code 2", gate.check({"kind": "verify_all", "spec": "1:3:5"},
                                                 code, stdout))


class TraceTests(unittest.TestCase):
    """Runs the children the benchmark runs, on each workload's traced prefix."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.workdir = Path(cls.tmp.name)
        cls.traces, cls.plans = {}, {}
        for w in workloads.WORKLOADS:
            plan = workloads.build_plan(w, 5)
            references.attach(plan)
            workloads.materialize(plan, cls.workdir)
            cls.plans[w] = plan
            cls.traces[w] = cls._trace(plan)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    @classmethod
    def _trace(cls, plan):
        _, line, _ = run.run_child({"mode": "trace", "plan": plan}, cls.workdir)
        return json.loads(line)

    def test_traced_outputs_match_untraced(self):
        for w, trace in self.traces.items():
            self.assertEqual(trace["mismatched"], [], w)
            self.assertTrue(all(not r["why"] for r in trace["records"]), w)
        plan = self.plans["table"]
        _, line, _ = run.run_child({"mode": "loop", "plan": plan, "seconds": 0}, self.workdir)
        loop = {r["i"]: r["digest"] for r in json.loads(line)["records"]}
        traced = {r["i"]: r["digest"] for r in self.traces["table"]["records"]}
        self.assertEqual({i: loop[i] for i in traced}, traced)

    def test_counters_repeat_exactly(self):
        for w in ("table", "sweep"):
            again = self._trace(self.plans[w])
            self.assertEqual(again["counts"], self.traces[w]["counts"], w)
            self.assertEqual(again["levels"], self.traces[w]["levels"], w)
            first = {k: v for k, v in self.traces[w]["layers"].items() if "ms" not in k
                     and not k.startswith("share.")}
            second = {k: v for k, v in again["layers"].items() if k in first}
            self.assertEqual(first, second, w)

    def test_every_layer_metric_reported(self):
        names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
                 ["per_layer"]}
        for w, trace in self.traces.items():
            reported = set(trace["layers"]) | {f"import.{p}_ms" for p in run.IMPORT_PACKAGES}
            reported |= {"trace.overhead_ratio", "trace.output_mismatches", "design.split_ok"}
            self.assertEqual(names - reported, set(), w)

    def test_workload_design_split(self):
        for w, trace in self.traces.items():
            share = {k.split(".", 1)[1]: v for k, v in trace["layers"].items()
                     if k.startswith("share.")}
            self.assertEqual(run.design_check(w, share), [], (w, share))

    def test_gate_counts_a_failed_operation(self):
        plan = copy.deepcopy(self.plans["table"])
        plan["rounds"] = [plan["rounds"][0]]
        plan["rounds"][0][1]["check"]["m_ref"] += 1e-6
        _, line, _ = run.run_child({"mode": "loop", "plan": plan, "seconds": 0}, self.workdir)
        bad = [r["i"] for r in json.loads(line)["records"] if r["why"]]
        self.assertEqual(bad, [1, 6, 11])


if __name__ == "__main__":
    unittest.main(verbosity=2)
