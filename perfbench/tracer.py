"""Layer tracing from outside the package.

`Tracer.install` replaces each layer's public functions with timing wrappers
in the module namespaces their callers look them up in (the modules bind with
`from .x import y`, so `tanh_sinh` is wrapped in `mahlerlab.quadrature` and in
`mahlerlab.mahler`, `ell_pi` in `cli`, `identities` and `mahler`, and so on),
and `uninstall` puts the originals back.  Nothing under `src/` changes.

Each wrapped call records a span [op, name, layer, start_ns, end_ns, parent]
in memory; a layer's self time is its spans' durations minus their child
spans.  Hot, cheap calls (Carlson forms, E1, Jet2 construction, integrand
evaluations) are counted without spans, so their time lands in the caller's
self time.  Names missing from a module are skipped, so the tracer keeps
working when a function moves.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import math
import time
from collections import Counter

#: (layer, module, names) of span-wrapped functions
SPANNED = (
    ("quadrature", "mahlerlab.quadrature", ("tanh_sinh",)),
    ("quadrature", "mahlerlab.mahler", ("tanh_sinh",)),
    ("mahler", "mahlerlab.cli", (
        "m_p1k", "half_measures_ptilde", "half_measures_pac_small_k", "dfdk", "dhdk",
        "verify_thm_main", "verify_corollary", "lsz_branch_verdict", "params_from_k",
        "m_generic_2d")),
    ("mahler", "mahlerlab.mahler", (
        "m_p1k", "half_measures_ptilde", "half_measures_pac_small_k", "params_from_k")),
    ("elliptic", "mahlerlab.cli", ("ell_e", "ell_k", "ell_k_imag", "ell_pi", "ell_pi_imag")),
    ("elliptic", "mahlerlab.identities", ("ell_k", "ell_pi")),
    ("elliptic", "mahlerlab.mahler", ("ell_k", "ell_pi")),
    ("identities", "mahlerlab.cli", (
        "builtin_candidates", "check_printed_variants", "default_grid", "identity_lhs",
        "verify_identity")),
    ("identities", "mahlerlab.identities", (
        "eval_f", "eval_r", "ode_residual", "e_coefficient_residual", "identity_lhs",
        "default_grid")),
    ("expressions", "mahlerlab.cli", ("load_candidates",)),
    ("curves", "mahlerlab.lseries", (
        "curve_from_k", "ap_with_route", "extend_multiplicatively", "hasse_range",
        "primes_up_to")),
    ("lseries", "mahlerlab.cli", (
        "lvalue_from_k", "split_point_spread", "summary_record", "an_table_text")),
    ("lseries", "mahlerlab.lseries", ("an_table", "l2", "split_point_spread")),
)

#: (counter, module, names) of count-only wrappers
COUNTED = (
    ("elliptic.carlson", "mahlerlab.elliptic",
     ("carlson_rf", "carlson_rc", "carlson_rd", "carlson_rj")),
    ("lseries.e1", "mahlerlab.lseries", ("exp_integral_e1",)),
)

MEASURES = ("m_p1k", "half_measures_ptilde", "half_measures_pac_small_k")
ORACLE2D = "m_generic_2d"

#: layers whose self-time shares the traced run reports; the 2D oracle is
#: split from the rest of `mahler`, the 1D Jensen route
SHARE_LAYERS = ("cli", "quadrature", "mahler_jensen", "mahler_oracle2d", "elliptic",
                "identities", "expressions", "curves", "lseries")
ERROR_LAYERS = ("cli", "quadrature", "mahler", "elliptic", "identities", "expressions",
                "curves", "lseries")


def emitted_values(stdout: str) -> list[float]:
    """The values an operation reports: `expected` and `computed` of each
    JSON row, or the value column of a sweep's CSV."""
    try:
        rows = json.loads(stdout)["rows"]
        return [r[f] for r in rows for f in ("expected", "computed")
                if isinstance(r[f], float)]
    except ValueError:
        return [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]


def _derived(result) -> tuple:
    """The values a measure call can contribute to a printed row."""
    if isinstance(result, float):
        return (result,)
    mp, mm = result.m_plus, result.m_minus
    return (mp, mm, mp + mm, mp - mm)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.levels: list[int] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._measures: list[tuple] = []
        self._candidates: list[str] = []

    # -- wrapping ----------------------------------------------------------

    def spanned(self, layer: str, fn, name: str, hook=None):
        """Wrap fn in a span.  hook(result, args) may record from the result
        and returns what the caller receives."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        tracer = self
        integrates = name == "quadrature.tanh_sinh"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][1] == name:
                return fn(*args, **kwargs)  # direct recursion stays one span
            rec = [tracer.op, name, layer, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            counts[name] += 1
            if integrates:
                args = (tracer._counted_integrand(args[0]),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[layer + ".errors"] += 1
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            return hook(result, args) if hook else result

        return wrapper

    def _counted_integrand(self, f):
        counts = self.counts

        def integrand(x):
            v = f(x)
            if isinstance(v, float):
                counts["quadrature.evals"] += 1
                if not math.isfinite(v):
                    counts["quadrature.nonfinite"] += 1
            else:  # an array-valued integrand evaluates a whole node set
                import numpy as np

                arr = np.asarray(v)
                counts["quadrature.evals"] += arr.size
                counts["quadrature.nonfinite"] += int(arr.size - np.isfinite(arr).sum())
            return v

        return integrand

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = {
            "quadrature.tanh_sinh": self._record_level,
            "identities.verify_identity": self._record_candidate,
            "expressions.load_candidates": self._wrap_candidates,
            **{f"mahler.{m}": self._record_measure for m in MEASURES},
        }
        for layer, module, names in SPANNED:
            mod = importlib.import_module(module)
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is not None:
                    name = f"{layer}.{attr}"
                    self._patch(mod, attr, self.spanned(layer, fn, name, hooks.get(name)))
        for key, module, names in COUNTED:
            mod = importlib.import_module(module)
            for attr in names:
                if hasattr(mod, attr):
                    self._patch(mod, attr, self._counted(key, getattr(mod, attr)))
        jets = importlib.import_module("mahlerlab.jets")
        self._patch(jets.Jet2, "__init__", self._counted("jets.constructed", jets.Jet2.__init__))
        # QUADPACK is reached through the scipy.integrate module attribute, so
        # the count survives the import moving into the 2D oracle
        import scipy.integrate as spi

        self._patch(spi, "quad", self._counting_quad(spi.quad))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _counting_quad(self, quad):
        counts = self.counts

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            def integrand(*x):
                counts["mahler.oracle2d_evals"] += 1
                return func(*x)

            return quad(integrand, *args, **kwargs)

        return wrapper

    # -- result hooks ------------------------------------------------------

    def _record_level(self, result, args):
        self.levels.append(result[2])
        return result

    def _record_measure(self, result, args):
        self._measures.append(_derived(result))
        return result

    def _record_candidate(self, result, args):
        self._candidates.append(args[0].name)
        return result

    def _wrap_candidates(self, result, args):
        return [
            dataclasses.replace(
                c,
                p=self.spanned("expressions", c.p, "expressions.p"),
                q=self.spanned("expressions", c.q, "expressions.q"),
            )
            for c in result
        ]

    # -- per operation -----------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._measures.clear()
        self._candidates.clear()

    def end_op(self, stdout: str) -> None:
        """Match this operation's measure calls against its reported values:
        a call is useful when one of its values is reported, each reported
        value crediting one call."""
        try:
            printed = Counter(emitted_values(stdout))
        except (ValueError, KeyError, IndexError):  # malformed; the gate reports it
            printed = Counter()
        for values in self._measures:
            self.counts["mahler.measure_calls"] += 1
            for v in values:
                if printed[v] > 0:
                    printed[v] -= 1
                    self.counts["mahler.useful_calls"] += 1
                    break
        self.counts["identities.distinct_candidates"] += len(set(self._candidates))

    # -- results -----------------------------------------------------------

    def self_times_ns(self) -> Counter:
        """Self time per share layer."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[5] >= 0:
                child[rec[5]] += rec[4] - rec[3]
        out: Counter = Counter()
        for i, (_, name, layer, start, end, _) in enumerate(self.spans):
            if layer == "mahler":
                layer = "mahler_oracle2d" if name.endswith(ORACLE2D) else "mahler_jensen"
            out[layer] += end - start - child[i]
        return out

    def _inclusive_ms(self, *names: str) -> float:
        # none of these names nests inside itself, so durations do not overlap
        return sum(e - s for _, n, _, s, e, _ in self.spans if n in names) / 1e6

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, per operation over n_ops traced operations."""
        c = self.counts
        self_ns = self.self_times_ns()
        total_ns = sum(self_ns.values()) or 1

        def per_op(v):
            return v / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "cli.self_ms_per_op": per_op(self_ns["cli"] / 1e6),
            "quadrature.calls_per_op": per_op(c["quadrature.tanh_sinh"]),
            "quadrature.evals_per_op": per_op(c["quadrature.evals"]),
            "quadrature.nonfinite_evals_per_op": per_op(c["quadrature.nonfinite"]),
            "quadrature.mean_level": ratio(sum(self.levels), len(self.levels)),
            "quadrature.self_ms_per_op": per_op(self_ns["quadrature"] / 1e6),
            "mahler.jensen_ms_per_op": per_op(self._inclusive_ms(
                *(f"mahler.{m}" for m in MEASURES))),
            "mahler.useful_ratio": ratio(c["mahler.useful_calls"], c["mahler.measure_calls"]),
            "mahler.oracle2d_ms_per_op": per_op(self._inclusive_ms(f"mahler.{ORACLE2D}")),
            "mahler.oracle2d_evals_per_op": per_op(c["mahler.oracle2d_evals"]),
            "mahler.self_ms_per_op": per_op(
                (self_ns["mahler_jensen"] + self_ns["mahler_oracle2d"]) / 1e6),
            "elliptic.carlson_calls_per_op": per_op(c["elliptic.carlson"]),
            "elliptic.self_ms_per_op": per_op(self_ns["elliptic"] / 1e6),
            "identities.verify_calls_per_op": per_op(c["identities.verify_identity"]),
            "identities.distinct_candidate_ratio": ratio(
                c["identities.distinct_candidates"], c["identities.verify_identity"]),
            "identities.eval_f_calls_per_op": per_op(c["identities.eval_f"]),
            "identities.self_ms_per_op": per_op(self_ns["identities"] / 1e6),
            "jets.constructed_per_op": per_op(c["jets.constructed"]),
            "expressions.self_ms_per_op": per_op(self_ns["expressions"] / 1e6),
            "curves.ap_calls_per_op": per_op(c["curves.ap_with_route"]),
            "curves.self_ms_per_op": per_op(self_ns["curves"] / 1e6),
            "lseries.candidates_scored_per_op": per_op(c["lseries.split_point_spread"]),
            "lseries.e1_calls_per_op": per_op(c["lseries.e1"]),
            "lseries.an_table_ms_per_op": per_op(self._inclusive_ms("lseries.an_table")),
            "lseries.l2_ms_per_op": per_op(self._inclusive_ms("lseries.l2")),
            "lseries.self_ms_per_op": per_op(self_ns["lseries"] / 1e6),
        }
        for layer in ERROR_LAYERS:
            out[f"{layer}.errors_per_op"] = per_op(c[f"{layer}.errors"])
        for layer in SHARE_LAYERS:
            out[f"share.{layer}"] = self_ns[layer] / total_ns
        return out

    def write_spans(self, path) -> None:
        """One JSON list per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
