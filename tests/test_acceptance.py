"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime budgets are pinned here; nothing is deferred to later
calibration.  The k and t values come from `cli.SUITES`, the table that
`mahlerlab verify` runs, so both check the same inputs.  The double-precision
build replaces the source's 25-digit standard with 6-significant-digit
agreement plus exact-identity residual suites.

Known red: the stated nt-corollary list includes k = 4*sqrt(2), which lies
below the 2(1+sqrt(5)) regime boundary; the identity fails there by exactly
2*m_minus (certified independently by the brute-force 2D oracle; see the
decisions ledger).  The assert is kept as stated rather than weakened.
"""

import json
import math
import time

import pytest

from mahlerlab import curves as C
from mahlerlab import cli
from mahlerlab import identities as I
from mahlerlab import lseries as L
from mahlerlab import mahler as M
from mahlerlab.elliptic import ell_k, ell_pi
from mahlerlab.eta import verify_eta_param


def _verify_rows(capsys, suite: str) -> list[dict]:
    """The JSON rows of `mahlerlab verify suite` on the suite's own inputs."""
    cli.main(["verify", suite, "--format", "json"])
    return json.loads(capsys.readouterr().out)["rows"]


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_pi_k_identity():
    # |Pi(-4/k, 4/k) - K(4/k)/2 - k pi/(4(k+4))| <= 1e-11, 20 log-spaced
    # k in [4.5, 100]; runtime < 1 s
    t0 = time.perf_counter()
    worst = 0.0
    for k in cli.SUITES["ei"].ks:
        z = 4.0 / k
        res = abs(ell_pi(-z, z) - 0.5 * ell_k(z) - k * math.pi / (4.0 * (k + 4.0)))
        worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    _report(
        "Pi/K derivative-chain identity on [4.5, 100]",
        worst <= 1e-11 and elapsed < 1.0,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_02_main_theorem_and_corollary(capsys):
    # main identity residual <= 1e-8 at {4.5, 5, 6, 8, 12, 20}; corollary
    # residual <= 1e-8 and m_minus <= 1e-12 at {7, 8, 16, 50}; < 30 s total
    t0 = time.perf_counter()
    worst_main = max(r["residual"] for r in _verify_rows(capsys, "thm-main"))
    corollary = _verify_rows(capsys, "corollary")
    worst_mm = max(r["computed"] for r in corollary[0::2])
    worst_cor = max(r["residual"] for r in corollary[1::2])
    elapsed = time.perf_counter() - t0
    _report(
        "main theorem + vanishing-m_minus corollary",
        worst_main <= 1e-8 and worst_cor <= 1e-8 and worst_mm <= 1e-12 and elapsed < 30.0,
        f"main={worst_main:.2e}, corollary={worst_cor:.2e}, m_minus={worst_mm:.2e}, {elapsed:.1f}s",
    )


def test_03_derivative_formulas():
    # closed forms match central differences (h = 1e-3) within 1e-6 at
    # {5, 8, 12}; exact relation dfdk - 2 dhdk = 4/(k^2-16) to 1e-11; < 10 s
    t0 = time.perf_counter()
    h = 1e-3
    worst_fd = 0.0
    for k in (5.0, 8.0, 12.0):
        fd_f = (M.m_p1k(k + h, 1e-12) - M.m_p1k(k - h, 1e-12)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(M.dfdk(k) - fd_f))

        def hval(kk):
            hm = M.half_measures(M.factor_ptilde(kk), 1e-12)
            return hm.m_plus - hm.m_minus

        fd_h = (hval(k + h) - hval(k - h)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(M.dhdk(k) - fd_h))
    worst_id = max(
        abs(M.dfdk(k) - 2.0 * M.dhdk(k) - 4.0 / (k * k - 16.0))
        for k in (4.2, 4.5, 5.0, 6.0, 8.0, 12.0, 20.0, 50.0, 100.0)
    )
    elapsed = time.perf_counter() - t0
    _report(
        "derivative closed forms vs finite differences + exact relation",
        worst_fd <= 1e-6 and worst_id <= 1e-11 and elapsed < 10.0,
        f"fd={worst_fd:.2e}, exact={worst_id:.2e}, {elapsed:.1f}s",
    )


def test_04_small_k_identities(capsys):
    # at k in {1, 2, 3}: m(P_ac) = log a to 1e-8 and m- - 3 m+ = m(P_1k) to
    # 1e-6 with the branch labeling recorded; < 20 s
    t0 = time.perf_counter()
    worst_log = 0.0
    worst_lsz = 0.0
    labelings = [r["computed"] for r in _verify_rows(capsys, "lsz") if "branch" in r["input"]]
    for k in cli.SUITES["lsz"].inputs:
        fac = M.factor_pac_small(k)
        hm = M.half_measures(fac, 1e-11)
        worst_log = max(worst_log, abs(hm.m_total - math.log(fac.beta / 2.0)))
        target = M.m_p1k(k, 1e-11)
        worst_lsz = max(worst_lsz, abs(hm.m_minus - 3.0 * hm.m_plus - target))
    elapsed = time.perf_counter() - t0
    _report(
        "small-k log/half-measure identities",
        worst_log <= 1e-8
        and worst_lsz <= 1e-6
        and labelings == ["principal"] * 3
        and elapsed < 20.0,
        f"log={worst_log:.2e}, lsz={worst_lsz:.2e}, labeling={labelings[0]}, {elapsed:.1f}s",
    )


def test_05_identity_engine():
    # all four built-ins: ODE <= 1e-10, E-coefficient <= 1e-11, identity
    # <= 1e-10 on 200-point grids; Jia verified on [-10, -1] with both sides
    # pi/3 at x = -1 within 1e-12; coefficient discrepancy resolved; < 5 s
    t0 = time.perf_counter()
    worst = {"ode": 0.0, "ec": 0.0, "id": 0.0}
    reps = {}
    for cand in I.builtin_candidates():
        rep = reps[cand.name] = I.verify_identity(cand, tol=1e-10)
        assert len(rep.grid) == 200
        worst["ode"] = max(worst["ode"], rep.ode_residual_max)
        worst["ec"] = max(worst["ec"], rep.e_coeff_residual_max)
        worst["id"] = max(worst["id"], rep.identity_residual_max)
    jia = next(c for c in I.builtin_candidates() if c.name == "jia")
    # the constant is the lhs at the anchor x = -1, with the printed r there
    anchor_ok = (
        abs(reps["jia"].constant_C - math.pi / 3.0) <= 1e-12
        and abs(jia.printed_rhs(-1.0) - math.pi / 3.0) <= 1e-12
    )
    verdicts = dict(reps["cubic"].printed_residual_max)
    resolved = verdicts["printed"] <= 1e-10 and verdicts["displayed"] > 1e-3
    elapsed = time.perf_counter() - t0
    _report(
        "Pi/K identity engine (4 candidates, 200-point grids)",
        worst["ode"] <= 1e-10
        and worst["ec"] <= 1e-11
        and worst["id"] <= 1e-10
        and anchor_ok
        and resolved
        and elapsed < 5.0,
        f"ode={worst['ode']:.2e}, ecoef={worst['ec']:.2e}, id={worst['id']:.2e}, "
        f"coefficient verdict: defined-r valid / displayed invalid, {elapsed:.1f}s",
    )


def test_06_lvalue_closure():
    # m(P_1k) agrees with r_k L'(E_k, 0) to >= 6 significant digits for all
    # eleven real-k table rows; split-point independence <= 1e-10; < 60 s
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_spread = 0.0
    for k2 in sorted(C.TABLE1):
        k = math.sqrt(k2)
        m = M.m_p1k(k, 1e-9)
        curve, data = L.lvalue_from_k(k)
        rl = float(curve.r_k) * data.Lprime0
        worst_rel = max(worst_rel, abs(m - rl) / abs(rl))
        worst_spread = max(worst_spread, data.spread())
    elapsed = time.perf_counter() - t0
    _report(
        "measure = r * L' closure over all 11 table rows",
        worst_rel <= 1e-6 and worst_spread <= 1e-10 and elapsed < 60.0,
        f"worst_rel={worst_rel:.2e} (>= {-math.log10(worst_rel):.1f} digits), "
        f"spread={worst_spread:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("k2,label", [(32, "4*sqrt(2)"), (64, "8"), (144, "12"), (256, "16")])
def test_06b_nt_corollary_as_stated(k2, label):
    # the nt identity m(P_ac) = (r/2) L' - (1/4) log((k-4)/(k+4)) at the four
    # stated k, tolerance 1e-6.  KNOWN RED at 4*sqrt(2): that k is below the
    # 2(1+sqrt(5)) boundary, m_minus = 0.0194890 > 0, and the residual is
    # exactly 2*m_minus = 0.0389780 (see decisions ledger); asserted as
    # stated, not weakened.
    k = math.sqrt(k2)
    curve, data = L.lvalue_from_k(k)
    hm = M.half_measures(M.factor_ptilde(k), 1e-10)
    rhs = float(curve.r_k) / 2.0 * data.Lprime0 - 0.25 * math.log((k - 4.0) / (k + 4.0))
    residual = abs(hm.m_total - rhs)
    _report(f"nt corollary as stated at k={label}", residual <= 1e-6, f"residual={residual:.3e}")


def test_07_eta_parametrization():
    # residual <= 1e-10 at t in {0.5, 1, 1.5}; < 1 s
    t0 = time.perf_counter()
    worst = max(verify_eta_param(t) for t in cli.SUITES["eta"].inputs)
    elapsed = time.perf_counter() - t0
    _report(
        "eta-quotient curve parametrization",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_08_oracle_equivalence():
    # 1D Jensen-route measures match the brute-force 2D oracle within 1e-6
    # at k in {2, 8}; < 120 s (the 2D oracle is the slow path)
    t0 = time.perf_counter()
    d2 = abs(M.m_generic_2d(M.poly_p1k(2.0), 1e-6) - M.m_p1k(2.0, 1e-9))
    d8 = abs(M.m_generic_2d(M.poly_p1k(8.0), 1e-6) - M.m_p1k(8.0, 1e-9))
    elapsed = time.perf_counter() - t0
    _report(
        "1D Jensen route vs 2D brute-force oracle",
        d2 <= 1e-6 and d8 <= 1e-6 and elapsed < 120.0,
        f"k=2: {d2:.2e}, k=8: {d8:.2e}, {elapsed:.1f}s",
    )
