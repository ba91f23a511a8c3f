"""Command-line front end.

Usage:
    mahlerlab ell --kind K --z 0.5
    mahlerlab mahler --k 8
    mahlerlab lvalue --k 8 --dump-an an.txt
    mahlerlab verify ei --k-grid 4.5:100:20
    mahlerlab verify all
    mahlerlab table
    mahlerlab sweep dfdk --k-grid 5:50:10 --jobs 4

Exit codes: 0 all rows PASS, 1 any numerical FAIL, 2 usage error.
CSV/JSON output is byte-identical across runs and --jobs settings; timings
are only ever printed in text mode.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .curves import K_LABELS, TABLE1
from .elliptic import ell_e, ell_k, ell_k_imag, ell_pi, ell_pi_imag, ell_pi_k_array
from .errors import MahlerLabError
from .eta import verify_eta_param
from .identities import E_COEFF_TOL, ODE_TOL, builtin_candidates, verify_identity
from .expressions import load_candidates
from .lseries import SPREAD_ACCEPT, an_table_text, lvalue_from_k, summary_record
from .mahler import (
    K_LARGE,
    MIN_TOL,
    derivative_grid,
    factor_member,
    factor_p1k,
    factor_pac_small,
    factor_ptilde,
    half_measures_lockstep,
    m_generic_2d,
    poly_p1k,
    regime,
)

#: documented safety floor for the main-theorem verification grid
THM_MAIN_K_FLOOR = 4.2
#: most points a --k-grid may ask for
MAX_GRID_POINTS = 10_000
#: largest --nmax: the a_n table costs ~2 s at 10 000 and ~20 s at 40 000
MAX_NMAX = 10_000

_ABOVE_4 = (lambda k: k <= 4.0, "not above 4 (requires k > 4)")
_MEMBER = (lambda k: k <= 0.0 or k == 4.0, "not above 0 or equal to 4 (requires k > 0, k != 4)")
#: per `sweep` quantity: the k it rejects, its domain as the usage error
#: states it, the factorization at k and the value read off its
#: half-measures; the closed forms dfdk and dhdk take `derivative_grid`
_QUANTITIES = {
    "f": (lambda k: k <= 0.0, "not above 0 (requires k > 0)", factor_p1k, lambda hm: hm.m_total),
    "h": (*_ABOVE_4, factor_ptilde, lambda hm: hm.m_plus - hm.m_minus),
    "m_plus": (*_MEMBER, factor_member, lambda hm: hm.m_plus),
    "m_minus": (*_MEMBER, factor_member, lambda hm: hm.m_minus),
    "dfdk": (*_ABOVE_4, None, None),
    "dhdk": (*_ABOVE_4, None, None),
}

_IMAGINARY_ROWS = ("i", "2i", "3i", "4i", "sqrt(2)i")


@dataclass
class Row:
    input: str
    expected: float | str
    computed: float | str
    residual: float
    status: str  # PASS / FAIL / SKIPPED

    def __post_init__(self):
        # numpy scalars become builtin numbers, so no format prints their repr
        for name in ("expected", "computed", "residual"):
            if isinstance(getattr(self, name), np.generic):
                setattr(self, name, getattr(self, name).item())


@dataclass
class Report:
    command: str
    rows: list[Row] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    elapsed: float = 0.0  # text-mode only; never serialized

    def add(self, input_, expected, computed, residual, tol) -> None:
        """A row judged by its residual: PASS where it is at most tol."""
        self.check(input_, expected, computed, residual, residual <= tol)

    def check(self, input_, expected, computed, residual, ok: bool) -> None:
        """A row judged by ok."""
        self.rows.append(Row(input_, expected, computed, residual, "PASS" if ok else "FAIL"))

    def note(self, input_, computed, residual=0.0) -> None:
        """A value no second route checks.  Its status reads PASS only
        because the benchmark's gate (`perfbench/gate.py`) requires PASS
        rows; ROADMAP items 1 and 2 give such rows a status of their own."""
        self.rows.append(Row(input_, "", computed, residual, "PASS"))

    def skip(self, input_, note) -> None:
        self.rows.append(Row(input_, note, "", 0.0, "SKIPPED"))

    @property
    def failed(self) -> bool:
        return any(r.status == "FAIL" for r in self.rows)


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def emit(report: Report, fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["input", "expected", "computed", "residual", "status"])
        for r in report.rows:
            writer.writerow([r.input, _fmt(r.expected), _fmt(r.computed), repr(r.residual), r.status])
        stream.write(buf.getvalue())
    elif fmt == "json":
        payload = {
            "schema": 1,
            "command": report.command,
            "metadata": report.metadata,
            "rows": [
                {
                    "input": r.input,
                    "expected": r.expected,
                    "computed": r.computed,
                    "residual": r.residual,
                    "status": r.status,
                }
                for r in report.rows
            ],
            "status": "FAIL" if report.failed else "PASS",
        }
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        stream.write(f"# {report.command}\n")
        for key, val in report.metadata.items():
            stream.write(f"#   {key} = {val}\n")
        for r in report.rows:
            stream.write(
                f"{r.status:7s} {r.input:34s} expected={_fmt(r.expected):24s} "
                f"computed={_fmt(r.computed):24s} residual={r.residual:.3e}\n"
            )
        overall = "FAIL" if report.failed else "PASS"
        stream.write(f"# overall: {overall} ({len(report.rows)} rows, {report.elapsed:.2f}s)\n")


def finite_float(text: str) -> float:
    """argparse type for every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def parse_grid(spec: str) -> list[float]:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = finite_float(lo_s), finite_float(hi_s), int(n_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:n, got {spec!r}"
        ) from exc
    if not 1 <= n <= MAX_GRID_POINTS or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r} (lo <= hi, 1 <= n <= {MAX_GRID_POINTS})")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (n - 1)) if n > 1 else 1.0
    return [lo * ratio**i for i in range(n)]


def parse_nmax(text: str) -> int:
    """argparse type for --nmax: an integer in [1, MAX_NMAX]."""
    value = int(text)
    if not 1 <= value <= MAX_NMAX:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_NMAX}], got {value}")
    return value


# ----------------------------------------------------------------------------
# suites: each takes (ks, tol, args, run), where `run(fn, *args, **kwargs)`
# is fn's result shared by the whole run.  They look up the checks they run
# in this module's namespace when called, so a patch of one of those names
# takes effect


def slice_pairs(factor, ks: Sequence[float], tols: tuple[float, ...]) -> list[list[tuple]]:
    """out[j][r] holds the half-measures of factor(ks[j]) and of P_k at
    tols[r], from one lockstep refinement ordered by k, then tol, then the
    two, so its first AccuracyError is the one a loop over them raises."""
    jobs = [(fac, tol) for k in ks for tol in tols for fac in (factor(k), factor_p1k(k))]
    rows = iter(half_measures_lockstep(*zip(*jobs)))
    return [[(next(rows), next(rows)) for _ in tols] for _ in ks]


def suite_ei(ks: Sequence[float], tol: float, args, run) -> Report:
    rep = Report("verify ei", metadata={"tol": tol})
    # Pi and K at every k from one R_F each; k > 4 keeps z = 4/k in [0, 1)
    z = 4.0 / np.array(ks, dtype=float)
    pi, kz = ell_pi_k_array(-z, z)
    for k, lhs in zip(ks, (pi - 0.5 * kz).tolist()):
        rhs = math.pi / (4.0 * (1.0 + 4.0 / k))
        rep.add(f"k={k:.6g}", rhs, lhs, abs(lhs - rhs), tol)
    return rep


def suite_thm_main(ks: Sequence[float], tol: float, args, run) -> Report:
    # m(P_k) = 2(m+ - m-) + (1/2) log((k-4)/(k+4)) for k > 4
    rep = Report("verify thm-main", metadata={"tol": tol, "k_floor": THM_MAIN_K_FLOOR})
    for k, [(hm, p1k)] in zip(ks, run(slice_pairs, factor_ptilde, ks, (0.01 * tol,))):
        res = abs(p1k.m_total - (2.0 * (hm.m_plus - hm.m_minus) + 0.5 * math.log((k - 4.0) / (k + 4.0))))
        rep.add(f"k={k:.6g}", 0.0, res, res, tol)
    return rep


def suite_corollary(ks: Sequence[float], tol: float, args, run) -> Report:
    # past 2(1+sqrt(5)) m- = 0, and m(P_k) = 2 m(Ptilde_k) + (1/2) log((k-4)/(k+4))
    rep = Report("verify corollary", metadata={"tol": tol, "m_minus_tol": 1e-12})
    for k, [(hm, p1k)] in zip(ks, run(slice_pairs, factor_ptilde, ks, (0.01 * tol,))):
        res = abs(p1k.m_total - (2.0 * hm.m_total + 0.5 * math.log((k - 4.0) / (k + 4.0))))
        rep.add(f"k={k:.6g} m_minus", 0.0, hm.m_minus, abs(hm.m_minus), 1e-12)
        rep.add(f"k={k:.6g} identity", 0.0, res, res, tol)
    return rep


def suite_appendix(ks: Sequence[float], tol: float, args, run) -> Report:
    rep = Report(
        "verify appendix",
        metadata={"identity_tol": tol, "ode_tol": ODE_TOL, "e_coeff_tol": E_COEFF_TOL},
    )
    cands = builtin_candidates()
    if args.candidate_file:
        cands += load_candidates(args.candidate_file)
    for cand in cands:
        r = run(verify_identity, cand, tol=tol)
        rep.add(f"{cand.name} ode", 0.0, r.ode_residual_max, r.ode_residual_max, r.ode_tol)
        rep.add(
            f"{cand.name} e-coeff", 0.0, r.e_coeff_residual_max, r.e_coeff_residual_max, r.e_coeff_tol
        )
        rep.add(
            f"{cand.name} identity", 0.0, r.identity_residual_max, r.identity_residual_max, r.identity_tol
        )
        if cand.printed_r_alts:
            verdicts = dict(r.printed_residual_max)
            winners = [lbl for lbl, res in verdicts.items() if res <= tol]
            rep.add(
                f"{cand.name} coefficient verdict",
                "exactly one printed variant valid",
                f"valid={winners} residuals={{{', '.join(f'{k}: {v:.3e}' for k, v in verdicts.items())}}}",
                0.0 if len(winners) == 1 else 1.0,
                0.0,
            )
    return rep


def suite_jia(ks: Sequence[float], tol: float, args, run) -> Report:
    rep = Report("verify jia", metadata={"tol": tol, "anchor_tol": 1e-12})
    jia = next(c for c in builtin_candidates() if c.name == "jia")
    r = run(verify_identity, jia, tol=tol)
    rep.add("grid residual [-10,-1]", 0.0, r.identity_residual_max, r.identity_residual_max, tol)
    lhs = r.constant_C  # Pi + r K at the anchor x = -1, pinned with the printed r
    rhs = jia.printed_rhs(-1.0)
    rep.add("x=-1 lhs = pi/3", math.pi / 3.0, lhs, abs(lhs - math.pi / 3.0), 1e-12)
    rep.add("x=-1 rhs = pi/3", math.pi / 3.0, rhs, abs(rhs - math.pi / 3.0), 1e-12)
    printed = dict(r.printed_residual_max)["printed"]
    rep.add("printed closed form", 0.0, printed, printed, tol)
    return rep


def suite_lsz(ks: Sequence[float], tol: float, args, run) -> Report:
    # m(P_k) = m- - 3 m+ of the (a, c) member for 0 < k < 4; the swapped
    # labeling of the two roots must miss it
    rep = Report("verify lsz", metadata={"log_tol": 1e-8, "lsz_tol": tol})
    # the branch verdict reads the measures at 1e-10, the other rows at 1e-11
    pairs = run(slice_pairs, factor_pac_small, ks, (1e-11, 1e-10))
    for k, [(fine, fine_p1k), (hm, p1k)] in zip(ks, pairs):
        log_a = math.log(factor_pac_small(k).beta / 2.0)
        rep.add(f"k={k:.6g} m_total = log a", log_a, fine.m_total, abs(fine.m_total - log_a), 1e-8)
        lsz, target = fine.m_minus - 3.0 * fine.m_plus, fine_p1k.m_total
        rep.add(f"k={k:.6g} m- - 3m+ = m(P_1k)", target, lsz, abs(lsz - target), tol)
        principal = abs(hm.m_minus - 3.0 * hm.m_plus - p1k.m_total)
        swapped = abs(hm.m_plus - 3.0 * hm.m_minus - p1k.m_total)
        winner = "principal" if principal < swapped else "swapped"
        rep.check(f"k={k:.6g} branch labeling", "principal", winner, principal, winner == "principal")
    return rep


def suite_eta(ts: Sequence[float], tol: float, args, run) -> Report:
    rep = Report("verify eta", metadata={"tol": tol})
    for t in ts:
        res = verify_eta_param(t)
        rep.add(f"t={t:.6g}", 0.0, res, res, tol)
    return rep


@dataclass(frozen=True)
class Suite:
    """One `verify` suite.

    `ks` are the default k values.  --k or --k-grid replace them, and the run
    stops with `domain` as a usage error if `bad_k` holds for any of them.
    A suite with ks=None runs only its fixed `inputs` and rejects --k and
    --k-grid.  `rows` builds the suite's report.
    """

    name: str
    ks: tuple[float, ...] | None
    tol: float
    rows: Callable[..., Report]
    bad_k: Callable[[float], bool] | None = None
    domain: str = ""
    inputs: tuple[float, ...] = ()

    def ks_for(self, args, single: bool) -> Sequence[float]:
        if self.ks is None:
            if single and (args.k is not None or args.k_grid):
                raise UsageError(f"verify {self.name}: runs fixed inputs and takes no --k or --k-grid")
            return self.inputs
        ks = [args.k] if args.k is not None else args.k_grid or self.ks
        bad = [k for k in ks if self.bad_k(k)]
        if bad:
            raise UsageError(f"verify {self.name}: k values {bad} {self.domain}")
        return ks


#: every `verify` suite, in the order `verify all` runs them
SUITES = {
    s.name: s
    for s in (
        Suite("thm-main", (4.5, 5.0, 6.0, 8.0, 12.0, 20.0), 1e-8, suite_thm_main,
              lambda k: k < THM_MAIN_K_FLOOR,
              f"below the documented safety floor {THM_MAIN_K_FLOOR} "
              "(both sides diverge as k -> 4)"),
        Suite("corollary", (7.0, 8.0, 16.0, 50.0), 1e-8, suite_corollary,
              lambda k: k <= K_LARGE, f"not above 2(1+sqrt(5)) = {K_LARGE:.4f}"),
        Suite("ei", tuple(log_grid(4.5, 100.0, 20)), 1e-11, suite_ei,
              lambda k: k <= 4.0, "not above 4 (requires k > 4, so z = 4/k < 1)"),
        Suite("appendix", None, 1e-10, suite_appendix),
        Suite("jia", None, 1e-10, suite_jia),
        Suite("lsz", None, 1e-6, suite_lsz, inputs=(1.0, 2.0, 3.0)),
        Suite("eta", None, 1e-10, suite_eta, inputs=(0.5, 1.0, 1.5)),
    )
}


def cmd_verify(args) -> Report:
    single = args.suite != "all"
    if single and args.candidate_file and args.suite != "appendix":
        raise UsageError(f"verify {args.suite}: takes no --candidate-file (only appendix reads one)")
    specs = [SUITES[args.suite]] if single else list(SUITES.values())
    # every suite's k values are checked before any suite runs
    runs = [(spec, tuple(spec.ks_for(args, single))) for spec in specs]
    results = {}

    def run(fn, *fn_args, **kwargs):
        # one result per function and arguments for the whole run: `verify
        # all` checks the same built-in candidate in more than one suite,
        # and thm-main and corollary refine the same slice pairs
        key = (fn, fn_args, *kwargs.items())
        if key not in results:
            results[key] = fn(*fn_args, **kwargs)
        return results[key]

    combined = Report("verify all", metadata={"suites": list(SUITES)})
    for spec, ks in runs:
        sub = spec.rows(ks, spec.tol if args.tol is None else args.tol, args, run)
        if single:
            return sub
        combined.rows += [replace(row, input=f"{spec.name}: {row.input}") for row in sub.rows]
    return combined


#: k^2 of the table rows that state the total-measure corollary
_COROLLARY_ROWS = (32, 64, 144, 256)


def cmd_table(args) -> Report:
    rep = Report(
        "table",
        metadata={"digits_required": 6, "nt_tol": 1e-6, "measure_tol": 1e-9},
    )
    # every row's m(P_k) at 1e-9 and, on the corollary rows, the
    # half-measures of Ptilde_k at 1e-10, from one lockstep refinement
    facs, tols = [], []
    for k2 in sorted(TABLE1):
        facs.append(factor_p1k(math.sqrt(k2)))
        tols.append(1e-9)
        if k2 in _COROLLARY_ROWS:
            facs.append(factor_ptilde(math.sqrt(k2)))
            tols.append(1e-10)
    measures = iter(half_measures_lockstep(facs, tols))
    # the rows share seven conductors, and a split weight depends only on the
    # conductor, the split point and n: one memo for the run computes each once
    weight_memo = {}
    for k2 in sorted(TABLE1):
        k = math.sqrt(k2)
        N, r = TABLE1[k2]
        label = K_LABELS[k2]
        m = next(measures).m_total
        _, data = lvalue_from_k(k, n_max=args.nmax, weight_memo=weight_memo)
        rl = float(r) * data.Lprime0
        rel = abs(m - rl) / abs(rl)
        digits = math.floor(-math.log10(rel)) if rel > 0 else 16
        rep.add(f"k={label} N={N} r={r}", m, rl, rel, 1e-6)
        rep.metadata[f"digits[{label}]"] = digits
        if k2 in _COROLLARY_ROWS:
            # the 4*sqrt(2) row fails by 2*m_minus because that k is below
            # the 2(1+sqrt(5)) regime boundary
            hm = next(measures)
            target = float(r) / 2.0 * data.Lprime0 - 0.25 * math.log((k - 4.0) / (k + 4.0))
            rep.add(f"k={label} m(Pac) vs L'", target, hm.m_total, abs(hm.m_total - target), 1e-6)
            if k < K_LARGE:
                diff = hm.m_plus - hm.m_minus
                rep.add(
                    f"k={label} m+-m- vs L' (mid regime)",
                    target,
                    diff,
                    abs(diff - target),
                    1e-6,
                )
    for label in _IMAGINARY_ROWS:
        rep.skip(f"k={label}", "imaginary k out of scope")
    return rep


def _sweep_chunk(task) -> list[tuple[float, float, float]]:
    """(k, value, est_error) at each k of one contiguous piece of a sweep
    grid; est_error is 1e-15 |value|, or a measure's quadrature estimate
    where that is larger."""
    quantity, ks, tol = task
    _, _, factor, value = _QUANTITIES[quantity]
    if value is None:
        pairs = [(v, 0.0) for v in derivative_grid(quantity, ks).tolist()]
    else:
        measures = half_measures_lockstep([factor(k) for k in ks], [tol] * len(ks))
        pairs = [(value(hm), hm.est) for hm in measures]
    return [(k, v, max(est, 1e-15 * abs(v))) for k, (v, est) in zip(ks, pairs)]


def cmd_sweep(args) -> Report:
    ks = args.k_grid
    bad_k, domain, _, _ = _QUANTITIES[args.quantity]
    bad = [k for k in ks if bad_k(k)]
    if bad:
        raise UsageError(f"sweep {args.quantity}: k values {bad} {domain}")
    workers = min(args.jobs, os.cpu_count() or 1, len(ks))
    chunks = [(args.quantity, ks[i * len(ks) // workers:(i + 1) * len(ks) // workers], args.tol)
              for i in range(workers)]
    if workers > 1:
        # imported here: the pool's modules cost every other command ~10 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_chunk, chunks))
    else:
        results = [_sweep_chunk(c) for c in chunks]
    rep = Report(f"sweep {args.quantity}", metadata={"tol": args.tol})
    for k, v, est in (row for chunk in results for row in chunk):
        rep.note(f"k={k!r}", v, est)
    return rep


def emit_sweep_csv(report: Report, stream) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "value", "est_error"])
    for r in report.rows:
        writer.writerow([r.input[2:], repr(r.computed), repr(r.residual)])
    stream.write(buf.getvalue())


#: per `ell --kind`: the float flags it reads, in order, its row label and
#: the integral (looked up in this module when called)
_ELL = {
    "K": ("z", "K(z={z!r})", lambda z: ell_k(z)),
    "E": ("z", "E(z={z!r})", lambda z: ell_e(z)),
    "Pi": ("nz", "Pi(n={n!r}, z={z!r})", lambda n, z: ell_pi(n, z)),
    "K-imag": ("m", "K(i*m, m={m!r})", lambda m: ell_k_imag(m)),
    "Pi-imag": ("nm", "Pi(n={n!r}, i*m, m={m!r})", lambda n, m: ell_pi_imag(n, m)),
}


def cmd_ell(args) -> Report:
    flags, label, integral = _ELL[args.kind]
    unused = [f"--{f}" for f in "znm" if f not in flags and getattr(args, f) is not None]
    if unused:
        raise UsageError(f"ell --kind {args.kind}: does not use {' '.join(unused)}")
    values = {f: _require(getattr(args, f), f"--{f}") for f in flags}
    rep = Report(f"ell {args.kind}", metadata={})
    rep.note(label.format(**values), integral(*values.values()))
    return rep


def cmd_mahler(args) -> Report:
    k, tol = args.k, args.tol
    rep = Report(f"mahler k={k!r}", metadata={"tol": tol})
    rep.metadata["regime"] = regime(k)
    p1k, hm = half_measures_lockstep([factor_p1k(k), factor_member(k)], [tol, tol])
    m = p1k.m_total
    rep.note("m(P_1k)", m, tol)
    rep.note("m_plus", hm.m_plus, tol)
    rep.note("m_minus", hm.m_minus, tol)
    rep.note("m_total", hm.m_total, tol)
    if args.with_2d:
        v = m_generic_2d(poly_p1k(k), 1e-6)
        rep.add("2d oracle vs m(P_1k)", m, v, abs(v - m), 1e-6)
    return rep


def cmd_lvalue(args) -> Report:
    k, tol = args.k, args.tol
    curve, data = lvalue_from_k(k, n_max=args.nmax, tol=tol)
    rep = Report(f"lvalue k={k!r}", metadata={"tol": tol})
    rec = summary_record(curve, data)
    spread = data.spread()
    for key in ("k", "N", "eps", "L2", "Lprime0", "n_used", "r_k"):
        rep.note(key, rec[key])
    rep.add("split-point spread", 0.0, spread, spread, SPREAD_ACCEPT)
    rep.metadata["ap_routes"] = rec["ap_routes"]
    if args.dump_an:
        try:
            with open(args.dump_an, "w", encoding="utf-8") as fh:
                fh.write(an_table_text(data))
        except OSError as exc:
            raise UsageError(f"--dump-an: cannot write {args.dump_an!r}: {exc.strerror}") from exc
        rep.metadata["an_table"] = args.dump_an
    return rep


def _require(value, flag):
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahlerlab",
        description="Mahler measures of a(x+1/x)+y+1/y+c, elliptic integral "
        "identities, and elliptic-curve L-values.",
    )
    parser.add_argument("--version", action="version", version=f"mahlerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=None, tol=True):
        # ell and table read no tol, so they take no --tol
        if tol:
            p.add_argument("--tol", type=finite_float, default=tol_default)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("ell", help="evaluate a complete elliptic integral")
    p.add_argument("--kind", choices=("K", "E", "Pi", "K-imag", "Pi-imag"), required=True)
    p.add_argument("--z", type=finite_float)
    p.add_argument("--n", type=finite_float)
    p.add_argument("--m", type=finite_float)
    common(p, tol=False)
    p.set_defaults(fn=cmd_ell)

    p = sub.add_parser("mahler", help="Mahler and half-Mahler measures at k")
    p.add_argument("--k", type=finite_float, required=True)
    p.add_argument("--with-2d", action="store_true", help="also run the 2D oracle")
    common(p, tol_default=1e-8)
    p.set_defaults(fn=cmd_mahler)

    p = sub.add_parser("lvalue", help="curve data and L-values at k")
    p.add_argument("--k", type=finite_float, required=True)
    p.add_argument("--nmax", type=parse_nmax, default=None)
    p.add_argument("--dump-an", default=None, help="write the (n, a_n) table here")
    common(p, tol_default=1e-12)
    p.set_defaults(fn=cmd_lvalue)

    p = sub.add_parser("verify", help="run a residual suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--k", type=finite_float, default=None)
    p.add_argument("--k-grid", type=parse_grid, default=None)
    p.add_argument("--candidate-file", default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="reproduce the published k-table")
    p.add_argument("--nmax", type=parse_nmax, default=None)
    common(p, tol=False)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("sweep", help="CSV sweep of a quantity over a k-grid")
    p.add_argument("quantity", choices=_QUANTITIES)
    p.add_argument("--k-grid", type=parse_grid, required=True)
    common(p, tol_default=1e-10)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is not None and args.tol < MIN_TOL:
        parser.exit(2, f"mahlerlab: --tol below the {MIN_TOL:g} double-precision floor\n")
    if args.jobs < 1:
        parser.exit(2, f"mahlerlab: --jobs must be at least 1, got {args.jobs}\n")
    t0 = time.perf_counter()
    try:
        report = args.fn(args)
    except UsageError as exc:
        parser.exit(2, f"mahlerlab: {exc}\n")
    except MahlerLabError as exc:
        print(f"mahlerlab: error: {exc}", file=sys.stderr)
        return 1
    report.elapsed = time.perf_counter() - t0
    if args.command == "sweep" and args.format != "json":
        emit_sweep_csv(report, sys.stdout)
    else:
        emit(report, args.format)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
