"""Seeded operation lists for the four benchmark workloads.

A plan is a list of rounds; a round is a short list of CLI operations in a
fixed proportion of kinds, and the runner only stops at a round boundary, so
every run executes the same mix.  Values inside a round (grids, anchors, k)
are drawn from the seed with stratified sampling across rounds, so two seeds
give different inputs of the same cost profile.  Each operation carries the
data its output check needs; mpmath references are attached separately
(`references.attach`), so generating a plan needs neither mpmath nor the
program.

Candidate files are kept as text under a placeholder name; `materialize`
writes them out and substitutes their paths into the argv lists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("verify", "table", "sweep", "oracle2d")

#: regime boundary 2(1 + sqrt(5)); the minus half-measure vanishes beyond it
K_LARGE = 2.0 * (1.0 + math.sqrt(5.0))

#: k-intervals of the three regimes, kept clear of k = 4 and of K_LARGE
REGIMES = {
    "small": (0.2, 3.8),
    "mid": (4.3, 6.3),
    "large": (6.7, 60.0),
}

SWEEP_QUANTITIES = {
    "f": ("small", "mid", "large"),
    "h": ("mid", "large"),
    "m_plus": ("small", "mid", "large"),
    "m_minus": ("small", "mid", "large"),
    "dfdk": ("mid", "large"),
    "dhdk": ("mid", "large"),
}

#: k^2 of the eleven real table rows
TABLE_K2 = (1, 2, 4, 8, 9, 18, 25, 32, 64, 144, 256)

#: closed-loop rounds per plan, and how many of them the traced run covers
_ROUNDS = {"verify": 8, "table": 11, "sweep": 12, "oracle2d": 12}
TRACE_ROUNDS = {"verify": 1, "table": 2, "sweep": 2, "oracle2d": 2}

_JOBS = ["--jobs", "1"]


def grid(spec: str) -> list[float]:
    """The k values the CLI's `--k-grid lo:hi:n` produces, in the same
    floating-point arithmetic."""
    lo_s, hi_s, n_s = spec.split(":")
    lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of `count` equal strata of [lo, hi], in
    seeded order."""
    width = (hi - lo) / count
    vals = [lo + (j + rng.random()) * width for j in range(count)]
    rng.shuffle(vals)
    return vals


def _int_strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    return [min(hi, int(v)) for v in _strata(rng, lo, hi + 1, count)]


def _op(argv: list[str], **check) -> dict:
    return {"argv": argv + _JOBS, "check": check}


def _verify_plan(rng: random.Random) -> tuple[list[list[dict]], dict]:
    count = _ROUNDS["verify"]
    los = _strata(rng, 6.5, 12.0, count)
    widths = _strata(rng, 5.0, 90.0, count)
    ns = _int_strata(rng, 10, 40, count)
    anchors = [_strata(rng, 0.1, 0.9, count), _strata(rng, 0.1, 0.9, count)]
    rounds, files = [], {}
    for i in range(count):
        spec = f"{los[i]:.3f}:{los[i] + widths[i]:.3f}:{ns[i]}"
        name = f"cand{i}"
        # the README's cubic pair and the linear pair under non-builtin
        # names; an anchor at 0 would need a printed r, so it is interior
        files[name] = json.dumps(
            [
                {
                    "name": "file-cubic",
                    "p": "-(x^2)/(1+2*x)",
                    "q": "sqrt(x^3*(2+x)/(1+2*x))",
                    "domain": [0.0, 1.0],
                    "anchor_x0": round(anchors[0][i], 4),
                },
                {
                    "name": "file-linear",
                    "p": "-x",
                    "q": "x",
                    "domain": [0.0, 1.0],
                    "anchor_x0": round(anchors[1][i], 4),
                },
            ]
        )
        rounds.append(
            [
                _op(["verify", "all", "--k-grid", spec, "--format", "json"],
                    kind="verify_all", spec=spec),
                _op(["verify", "appendix", "--candidate-file", "{" + name + "}",
                     "--format", "json"],
                    kind="verify_appendix", file_candidates=2),
            ]
        )
    return rounds, files


def _table_plan(rng: random.Random) -> tuple[list[list[dict]], dict]:
    count = _ROUNDS["table"]
    per_round = 4
    # every row appears equally often over the plan, in seeded order
    rows = list(TABLE_K2) * (count * per_round // len(TABLE_K2))
    rng.shuffle(rows)
    rounds = []
    for i in range(count):
        rnd = [_op(["table", "--format", "json"], kind="table")]
        for k2 in rows[i * per_round:(i + 1) * per_round]:
            rnd.append(
                _op(["lvalue", "--k", repr(math.sqrt(k2)), "--format", "json"],
                    kind="lvalue", k2=k2)
            )
        rounds.append(rnd)
    return rounds, {}


def _sweep_plan(rng: random.Random) -> tuple[list[list[dict]], dict]:
    # each quantity visits its regimes in turn, and the grid sizes are
    # stratified within each (quantity, regime) cell, whose cost per point
    # differs by up to 2x; the cost per point also steps with k inside a
    # regime, so every range spans at least 80% of its regime
    count = _ROUNDS["sweep"]
    cells = {}
    for q, regimes in SWEEP_QUANTITIES.items():
        start = rng.randrange(len(regimes))
        regime = [regimes[(start + i) % len(regimes)] for i in range(count)]
        sizes = {r: _int_strata(rng, 20, 100, regime.count(r)) for r in regimes}
        cells[q] = [(r, sizes[r].pop()) for r in regime]
    rounds = []
    for i in range(count):
        order = list(SWEEP_QUANTITIES)
        rng.shuffle(order)
        rnd = []
        for q in order:
            regime, n = cells[q][i]
            lo_r, hi_r = REGIMES[regime]
            span = hi_r - lo_r
            lo = lo_r + 0.1 * span * rng.random()
            hi = hi_r - 0.1 * span * rng.random()
            spec = f"{lo:.4f}:{hi:.4f}:{n}"
            samples = sorted(rng.sample(range(n), 2))
            rnd.append(_op(["sweep", q, "--k-grid", spec], kind="sweep",
                           quantity=q, spec=spec, samples=samples, tol=1e-10))
        rounds.append(rnd)
    return rounds, {}


def _oracle2d_plan(rng: random.Random) -> tuple[list[list[dict]], dict]:
    # A round is one k < 4 and three k > 4.  Below 4 the oracle's cost jumps
    # with k (0.3 to 1.6 s here) and some k miss its 1e-6 tolerance, so the
    # k < 4 side is the table row k = 1: with one cost there the tail
    # percentile stays inside the k < 4 group however many rounds a run
    # completes.  Above 4 the cost is flat on [4.6, 11.5].  The round opens
    # with k > 4, so set-up time does not depend on the seed.
    count = _ROUNDS["oracle2d"]
    large = _strata(rng, 4.6, 11.5, 3 * count)
    rounds = []
    for i in range(count):
        ks = [f"{large[3 * i]:.4f}", "1.0", f"{large[3 * i + 1]:.4f}", f"{large[3 * i + 2]:.4f}"]
        rounds.append(
            [_op(["mahler", "--k", k, "--with-2d", "--format", "json"],
                 kind="oracle2d", k=float(k)) for k in ks]
        )
    return rounds, {}


_BUILDERS = {
    "verify": _verify_plan,
    "table": _table_plan,
    "sweep": _sweep_plan,
    "oracle2d": _oracle2d_plan,
}


def build_plan(workload: str, seed: int) -> dict:
    """The seeded plan of one workload: rounds of operations plus the text of
    any candidate files they read."""
    rng = random.Random(f"{workload}:{seed}")
    rounds, files = _BUILDERS[workload](rng)
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "files": files,
        "trace_rounds": TRACE_ROUNDS[workload],
    }


def plan_digest(plan: dict) -> str:
    """SHA-256 of the generated operations and files, before any paths or
    references are filled in."""
    body = {"rounds": [[op["argv"] for op in rnd] for rnd in plan["rounds"]],
            "files": plan["files"]}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def materialize(plan: dict, directory) -> None:
    """Write the plan's candidate files into `directory` and put their paths
    into the argv lists in place of the placeholders."""
    paths = {}
    for name, text in plan["files"].items():
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths["{" + name + "}"] = str(path)
    for rnd in plan["rounds"]:
        for op in rnd:
            op["argv"] = [paths.get(a, a) for a in op["argv"]]
