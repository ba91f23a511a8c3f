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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .curves import K_LABELS, TABLE1
from .elliptic import ell_e, ell_k, ell_k_imag, ell_pi, ell_pi_imag
from .errors import MahlerLabError
from .eta import verify_eta_param
from .identities import (
    builtin_candidates,
    check_printed_variants,
    default_grid,
    identity_lhs,
    verify_identity,
)
from .expressions import load_candidates
from .lseries import an_table_text, lvalue_from_k, split_point_spread, summary_record
from .mahler import (
    K_LARGE,
    dfdk,
    dhdk,
    half_measures_pac_small_k,
    half_measures_ptilde,
    lsz_branch_verdict,
    m_generic_2d,
    m_p1k,
    params_from_k,
    poly_p1k,
    verify_corollary,
    verify_thm_main,
)

#: documented safety floor for the main-theorem verification grid
THM_MAIN_K_FLOOR = 4.2
#: most points a --k-grid may ask for
MAX_GRID_POINTS = 10_000

_SUITES = ("thm-main", "corollary", "ei", "appendix", "jia", "lsz", "eta", "all")
_QUANTITIES = ("f", "h", "m_plus", "m_minus", "dfdk", "dhdk")

_IMAGINARY_ROWS = ("i", "2i", "3i", "4i", "sqrt(2)i")


@dataclass(frozen=True)
class RunConfig:
    """Fully deterministic run configuration (no seeds anywhere).

    tolerance is gated at 1e-13 (the double-precision floor) and grid domains
    are validated per command before any computation starts.
    """

    command: str
    fmt: str = "text"
    jobs: int = 1
    tol: float | None = None
    k: float | None = None
    k_grid: list[float] | None = None
    n_max: int | None = None
    suite: str | None = None
    quantity: str | None = None
    kind: str | None = None
    z: float | None = None
    n: float | None = None
    m: float | None = None
    with_2d: bool = False
    dump_an: str | None = None
    candidate_file: str | None = None

    @staticmethod
    def from_args(args) -> "RunConfig":
        return RunConfig(
            command=args.command,
            fmt=args.format,
            jobs=getattr(args, "jobs", 1),
            tol=getattr(args, "tol", None),
            k=getattr(args, "k", None),
            k_grid=getattr(args, "k_grid", None),
            n_max=getattr(args, "nmax", None),
            suite=getattr(args, "suite", None),
            quantity=getattr(args, "quantity", None),
            kind=getattr(args, "kind", None),
            z=getattr(args, "z", None),
            n=getattr(args, "n", None),
            m=getattr(args, "m", None),
            with_2d=getattr(args, "with_2d", False),
            dump_an=getattr(args, "dump_an", None),
            candidate_file=getattr(args, "candidate_file", None),
        )


@dataclass
class Row:
    input: str
    expected: float | str
    computed: float | str
    residual: float
    status: str  # PASS / FAIL / SKIPPED


@dataclass
class Report:
    command: str
    rows: list[Row] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    elapsed: float = 0.0  # text-mode only; never serialized

    def add(self, input_, expected, computed, residual, tol) -> None:
        status = "PASS" if residual <= tol else "FAIL"
        self.rows.append(Row(input_, expected, computed, residual, status))

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


def _k_values(cfg: "RunConfig", default: list[float]) -> list[float]:
    if cfg.k is not None:
        return [cfg.k]
    if cfg.k_grid:
        return cfg.k_grid
    return default


def _reject_ks(suite: str, ks: list[float], bad_k, why: str) -> None:
    bad = [k for k in ks if bad_k(k)]
    if bad:
        raise UsageError(f"verify {suite}: k values {bad} {why}")


# ----------------------------------------------------------------------------
# suites


def suite_ei(ks: list[float], tol: float) -> Report:
    rep = Report("verify ei", metadata={"tol": tol})
    for k in ks:
        z = 4.0 / k
        lhs = ell_pi(-z, z) - 0.5 * ell_k(z)
        rhs = k * math.pi / (4.0 * (k + 4.0))
        rep.add(f"k={k:.6g}", rhs, lhs, abs(lhs - rhs), tol)
    return rep


def suite_thm_main(ks: list[float], tol: float) -> Report:
    rep = Report("verify thm-main", metadata={"tol": tol, "k_floor": THM_MAIN_K_FLOOR})
    for k in ks:
        res = verify_thm_main(k, tol)
        rep.add(f"k={k:.6g}", 0.0, res, res, tol)
    return rep


def suite_corollary(ks: list[float], tol: float) -> Report:
    rep = Report("verify corollary", metadata={"tol": tol, "m_minus_tol": 1e-12})
    for k in ks:
        m_minus, res = verify_corollary(k, tol)
        rep.add(f"k={k:.6g} m_minus", 0.0, m_minus, abs(m_minus), 1e-12)
        rep.add(f"k={k:.6g} identity", 0.0, res, res, tol)
    return rep


def suite_appendix(tol: float, candidate_file: str | None, verify) -> Report:
    rep = Report(
        "verify appendix",
        metadata={"identity_tol": tol, "ode_tol": 1e-10, "e_coeff_tol": 1e-11},
    )
    cands = builtin_candidates()
    if candidate_file:
        cands += load_candidates(candidate_file)
    for cand in cands:
        r = verify(cand, tol=tol)
        rep.add(f"{cand.name} ode", 0.0, r.ode_residual_max, r.ode_residual_max, r.ode_tol)
        rep.add(
            f"{cand.name} e-coeff", 0.0, r.e_coeff_residual_max, r.e_coeff_residual_max, r.e_coeff_tol
        )
        rep.add(
            f"{cand.name} identity", 0.0, r.identity_residual_max, r.identity_residual_max, r.identity_tol
        )
        if cand.printed_r_alts:
            verdicts = check_printed_variants(cand)
            winners = [lbl for lbl, res in verdicts.items() if res <= tol]
            rep.rows.append(
                Row(
                    f"{cand.name} coefficient verdict",
                    "exactly one printed variant valid",
                    f"valid={winners} residuals={{{', '.join(f'{k}: {v:.3e}' for k, v in verdicts.items())}}}",
                    0.0 if len(winners) == 1 else 1.0,
                    "PASS" if len(winners) == 1 else "FAIL",
                )
            )
    return rep


def suite_jia(tol: float, verify) -> Report:
    rep = Report("verify jia", metadata={"tol": tol, "anchor_tol": 1e-12})
    jia = next(c for c in builtin_candidates() if c.name == "jia")
    r = verify(jia, tol=tol)
    rep.add("grid residual [-10,-1]", 0.0, r.identity_residual_max, r.identity_residual_max, tol)
    lhs = identity_lhs(jia, -1.0, r=jia.printed_r(-1.0))
    rhs = jia.printed_rhs(-1.0)
    rep.add("x=-1 lhs = pi/3", math.pi / 3.0, lhs, abs(lhs - math.pi / 3.0), 1e-12)
    rep.add("x=-1 rhs = pi/3", math.pi / 3.0, rhs, abs(rhs - math.pi / 3.0), 1e-12)
    printed = max(
        abs(identity_lhs(jia, x, r=jia.printed_r(x)) - jia.printed_rhs(x))
        for x in default_grid(jia)
    )
    rep.add("printed closed form", 0.0, printed, printed, tol)
    return rep


def suite_lsz(tol: float) -> Report:
    rep = Report("verify lsz", metadata={"log_tol": 1e-8, "lsz_tol": tol})
    for k in (1.0, 2.0, 3.0):
        fp = params_from_k(k)
        hm = half_measures_pac_small_k(k, tol=1e-11)
        target = m_p1k(k, tol=1e-11)
        rep.add(
            f"k={k:.6g} m_total = log a",
            math.log(fp.a),
            hm.m_total,
            abs(hm.m_total - math.log(fp.a)),
            1e-8,
        )
        lsz = hm.m_minus - 3.0 * hm.m_plus
        rep.add(f"k={k:.6g} m- - 3m+ = m(P_1k)", target, lsz, abs(lsz - target), tol)
        verdict = lsz_branch_verdict(k)
        rep.rows.append(
            Row(
                f"k={k:.6g} branch labeling",
                "principal",
                verdict["winner"],
                verdict["residual_principal"],
                "PASS" if verdict["winner"] == "principal" else "FAIL",
            )
        )
    return rep


def suite_eta(tol: float) -> Report:
    rep = Report("verify eta", metadata={"tol": tol})
    for t in (0.5, 1.0, 1.5):
        res = verify_eta_param(t)
        rep.add(f"t={t:.6g}", 0.0, res, res, tol)
    return rep


def cmd_verify(cfg: RunConfig) -> Report:
    tolmap = {
        "thm-main": 1e-8,
        "corollary": 1e-8,
        "ei": 1e-11,
        "appendix": 1e-10,
        "jia": 1e-10,
        "lsz": 1e-6,
        "eta": 1e-10,
    }
    reports = {}

    def verify(cand, tol):
        # one report per candidate and tol for the whole run: `verify all`
        # checks the same built-in candidate in more than one suite
        if (cand, tol) not in reports:
            reports[cand, tol] = verify_identity(cand, tol=tol)
        return reports[cand, tol]

    def run(suite: str) -> Report:
        tol = cfg.tol if cfg.tol is not None else tolmap[suite]
        if suite == "ei":
            ks = _k_values(cfg, log_grid(4.5, 100.0, 20))
            _reject_ks(suite, ks, lambda k: k <= 4.0, "not above 4 (requires k > 4, so z = 4/k < 1)")
            return suite_ei(ks, tol)
        if suite == "thm-main":
            ks = _k_values(cfg, [4.5, 5.0, 6.0, 8.0, 12.0, 20.0])
            _reject_ks(suite, ks, lambda k: k < THM_MAIN_K_FLOOR,
                       f"below the documented safety floor {THM_MAIN_K_FLOOR} "
                       "(both sides diverge as k -> 4)")
            return suite_thm_main(ks, tol)
        if suite == "corollary":
            ks = _k_values(cfg, [7.0, 8.0, 16.0, 50.0])
            _reject_ks(suite, ks, lambda k: k <= K_LARGE,
                       f"not above 2(1+sqrt(5)) = {K_LARGE:.4f}")
            return suite_corollary(ks, tol)
        if suite == "appendix":
            return suite_appendix(tol, cfg.candidate_file, verify)
        if suite == "jia":
            return suite_jia(tol, verify)
        if suite == "lsz":
            return suite_lsz(tol)
        if suite == "eta":
            return suite_eta(tol)
        raise UsageError(f"unknown suite {suite!r}")

    if cfg.suite == "all":
        combined = Report("verify all", metadata={"suites": [s for s in _SUITES if s != "all"]})
        for suite in _SUITES:
            if suite == "all":
                continue
            sub = run(suite)
            for row in sub.rows:
                combined.rows.append(
                    Row(f"{suite}: {row.input}", row.expected, row.computed, row.residual, row.status)
                )
        return combined
    return run(cfg.suite)


def cmd_table(cfg: RunConfig) -> Report:
    rep = Report(
        "table",
        metadata={"digits_required": 6, "nt_tol": 1e-6, "measure_tol": 1e-9},
    )
    for k2 in sorted(TABLE1):
        k = math.sqrt(k2)
        N, r = TABLE1[k2]
        label = K_LABELS[k2]
        m = m_p1k(k, tol=1e-9)
        _, data, res = lvalue_from_k(k, n_max=cfg.n_max)
        rl = float(r) * res.Lprime0
        rel = abs(m - rl) / abs(rl)
        digits = math.floor(-math.log10(rel)) if rel > 0 else 16
        rep.rows.append(
            Row(
                f"k={label} N={N} r={r}",
                m,
                rl,
                rel,
                "PASS" if rel <= 1e-6 else "FAIL",
            )
        )
        rep.metadata[f"digits[{label}]"] = digits
        if k2 in (32, 64, 144, 256):
            # the stated corollary rows; the 4*sqrt(2) one fails by 2*m_minus
            # because that k is below the 2(1+sqrt(5)) regime boundary
            hm = half_measures_ptilde(k, tol=1e-10)
            target = float(r) / 2.0 * res.Lprime0 - 0.25 * math.log((k - 4.0) / (k + 4.0))
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


def _sweep_one(task) -> tuple[float, float, float]:
    quantity, k, tol = task
    if quantity == "f":
        v = m_p1k(k, tol)
        v2 = m_p1k(k, tol * 0.1)
    elif quantity == "h":
        hm = half_measures_ptilde(k, tol)
        hm2 = half_measures_ptilde(k, tol * 0.1)
        v = hm.m_plus - hm.m_minus
        v2 = hm2.m_plus - hm2.m_minus
    elif quantity in ("m_plus", "m_minus"):
        fn = half_measures_ptilde if k > 4.0 else half_measures_pac_small_k
        v = getattr(fn(k, tol), quantity)
        v2 = getattr(fn(k, tol * 0.1), quantity)
    elif quantity == "dfdk":
        v = v2 = dfdk(k)
    elif quantity == "dhdk":
        v = v2 = dhdk(k)
    else:  # pragma: no cover - argparse gates choices
        raise UsageError(f"unknown sweep quantity {quantity!r}")
    est = abs(v - v2) if v != v2 else 1e-15 * abs(v)
    return k, v, est


def cmd_sweep(cfg: RunConfig) -> Report:
    if not cfg.k_grid:
        raise UsageError("sweep: --k-grid lo:hi:n is required")
    tol = cfg.tol if cfg.tol is not None else 1e-10
    tasks = [(cfg.quantity, k, tol) for k in cfg.k_grid]
    workers = min(cfg.jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    rep = Report(f"sweep {cfg.quantity}", metadata={"tol": tol})
    for k, v, est in results:
        rep.rows.append(Row(f"k={k!r}", "", v, est, "PASS"))
    return rep


def emit_sweep_csv(report: Report, stream) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "value", "est_error"])
    for r in report.rows:
        writer.writerow([r.input[2:], repr(r.computed), repr(r.residual)])
    stream.write(buf.getvalue())


def cmd_ell(cfg: RunConfig) -> Report:
    rep = Report(f"ell {cfg.kind}", metadata={})
    kind = cfg.kind
    if kind == "K":
        val = ell_k(_require(cfg.z, "--z"))
        inp = f"K(z={cfg.z!r})"
    elif kind == "E":
        val = ell_e(_require(cfg.z, "--z"))
        inp = f"E(z={cfg.z!r})"
    elif kind == "Pi":
        val = ell_pi(_require(cfg.n, "--n"), _require(cfg.z, "--z"))
        inp = f"Pi(n={cfg.n!r}, z={cfg.z!r})"
    elif kind == "K-imag":
        val = ell_k_imag(_require(cfg.m, "--m"))
        inp = f"K(i*m, m={cfg.m!r})"
    else:  # Pi-imag
        val = ell_pi_imag(_require(cfg.n, "--n"), _require(cfg.m, "--m"))
        inp = f"Pi(n={cfg.n!r}, i*m, m={cfg.m!r})"
    rep.rows.append(Row(inp, "", val, 0.0, "PASS"))
    return rep


def cmd_mahler(cfg: RunConfig) -> Report:
    k = _require(cfg.k, "--k")
    tol = cfg.tol if cfg.tol is not None else 1e-8
    rep = Report(f"mahler k={k!r}", metadata={"tol": tol})
    fp = params_from_k(k)
    rep.metadata["regime"] = fp.regime.value
    m = m_p1k(k, tol)
    rep.rows.append(Row("m(P_1k)", "", m, tol, "PASS"))
    if k > 4.0:
        hm = half_measures_ptilde(k, tol)
    else:
        hm = half_measures_pac_small_k(k, tol)
    rep.rows.append(Row("m_plus", "", hm.m_plus, tol, "PASS"))
    rep.rows.append(Row("m_minus", "", hm.m_minus, tol, "PASS"))
    rep.rows.append(Row("m_total", "", hm.m_total, tol, "PASS"))
    if cfg.with_2d:
        v = m_generic_2d(poly_p1k(k), 1e-6)
        rep.add("2d oracle vs m(P_1k)", m, v, abs(v - m), 1e-6)
    return rep


def cmd_lvalue(cfg: RunConfig) -> Report:
    k = _require(cfg.k, "--k")
    tol = cfg.tol if cfg.tol is not None else 1e-12
    curve, data, res = lvalue_from_k(k, n_max=cfg.n_max, tol=tol)
    rep = Report(f"lvalue k={k!r}", metadata={"tol": tol})
    rec = summary_record(curve, data, res)
    spread = split_point_spread(data)
    for key in ("k", "N", "eps", "L2", "Lprime0", "n_used", "r_k"):
        rep.rows.append(Row(key, "", rec[key], 0.0, "PASS"))
    rep.add("split-point spread", 0.0, spread, spread, 1e-10)
    rep.metadata["ap_routes"] = rec["ap_routes"]
    if cfg.dump_an:
        with open(cfg.dump_an, "w", encoding="utf-8") as fh:
            fh.write(an_table_text(data))
        rep.metadata["an_table"] = cfg.dump_an
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

    def common(p, tol_default=None):
        p.add_argument("--tol", type=finite_float, default=tol_default)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("ell", help="evaluate a complete elliptic integral")
    p.add_argument("--kind", choices=("K", "E", "Pi", "K-imag", "Pi-imag"), required=True)
    p.add_argument("--z", type=finite_float)
    p.add_argument("--n", type=finite_float)
    p.add_argument("--m", type=finite_float)
    common(p)
    p.set_defaults(fn=cmd_ell)

    p = sub.add_parser("mahler", help="Mahler and half-Mahler measures at k")
    p.add_argument("--k", type=finite_float, required=True)
    p.add_argument("--with-2d", action="store_true", help="also run the 2D oracle")
    common(p)
    p.set_defaults(fn=cmd_mahler)

    p = sub.add_parser("lvalue", help="curve data and L-values at k")
    p.add_argument("--k", type=finite_float, required=True)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--dump-an", default=None, help="write the (n, a_n) table here")
    common(p)
    p.set_defaults(fn=cmd_lvalue)

    p = sub.add_parser("verify", help="run a residual suite")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--k", type=finite_float, default=None)
    p.add_argument("--k-grid", type=parse_grid, default=None)
    p.add_argument("--candidate-file", default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="reproduce the published k-table")
    p.add_argument("--nmax", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("sweep", help="CSV sweep of a quantity over a k-grid")
    p.add_argument("quantity", choices=_QUANTITIES)
    p.add_argument("--k-grid", type=parse_grid, default=None)
    common(p)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol is not None and args.tol < 1e-13:
        parser.exit(2, "mahlerlab: --tol below the 1e-13 double-precision floor\n")
    if args.jobs < 1:
        parser.exit(2, f"mahlerlab: --jobs must be at least 1, got {args.jobs}\n")
    cfg = RunConfig.from_args(args)
    t0 = time.perf_counter()
    try:
        report = args.fn(cfg)
    except UsageError as exc:
        parser.exit(2, f"mahlerlab: {exc}\n")
    except MahlerLabError as exc:
        print(f"mahlerlab: error: {exc}", file=sys.stderr)
        return 1
    report.elapsed = time.perf_counter() - t0
    if cfg.command == "sweep" and cfg.fmt != "json":
        emit_sweep_csv(report, sys.stdout)
    else:
        emit(report, cfg.fmt)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
