"""Output checks: decide whether one CLI operation succeeded.

An operation fails when it raised, exited with an unexpected code, or printed
a wrong payload.  Besides the PASS/FAIL rows the program reports about
itself, the checks recompute what they can from outside: each row's residual
from its expected and computed values, measures against 30-digit mpmath
references, and the published conductors and multipliers of the table.
`check` returns an empty string for a good operation and the reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from workloads import grid

#: k^2 -> (label, conductor N, multiplier r_k) of the published table
TABLE = {
    1: ("1", 15, "1"),
    2: ("sqrt(2)", 56, "1/4"),
    4: ("2", 24, "1"),
    8: ("2*sqrt(2)", 32, "1"),
    9: ("3", 21, "2"),
    18: ("3*sqrt(2)", 24, "5/2"),
    25: ("5", 15, "6"),
    32: ("4*sqrt(2)", 64, "1"),
    64: ("8", 24, "4"),
    144: ("12", 48, "2"),
    256: ("16", 15, "11"),
}
COROLLARY_K2 = (32, 64, 144, 256)
#: the deliberate red row: 4*sqrt(2) lies below the regime boundary
KNOWN_RED = "k=4*sqrt(2) m(Pac) vs L'"
IMAGINARY_ROWS = 5

_EXIT = {"verify_all": 0, "verify_appendix": 0, "table": 1, "lvalue": 0,
         "oracle2d": 0, "sweep": 0}
_MEASURE_TOL = 1e-9  # table and lvalue measures against the mpmath reference


class Bad(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Bad(why)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _consistent(row: dict) -> bool:
    """residual == |computed - expected| up to rounding of the subtraction."""
    e, c, r = row["expected"], row["computed"], row["residual"]
    return abs(r - abs(c - e)) <= 4e-16 * max(1.0, abs(c), abs(e))


def _numeric(row: dict) -> bool:
    return all(isinstance(row[k], (int, float)) for k in ("expected", "computed", "residual"))


def _rows(doc: dict, status: str, count: int) -> list[dict]:
    rows = doc["rows"]
    _require(doc["status"] == status, f"overall status {doc['status']}, want {status}")
    _require(len(rows) == count, f"{len(rows)} rows, want {count}")
    return rows


def _all_pass(rows: list[dict]) -> None:
    bad = [r["input"] for r in rows if r["status"] != "PASS"]
    _require(not bad, f"rows not PASS: {bad[:3]}")
    wrong = [r["input"] for r in rows if _numeric(r) and not _consistent(r)]
    _require(not wrong, f"residual disagrees with its values: {wrong[:3]}")


def _verify_all(doc: dict, check: dict) -> None:
    ks = grid(check["spec"])
    # ei, thm-main and corollary (two rows) per grid point, plus the fixed
    # appendix (13), jia (4), lsz (9) and eta (3) rows
    rows = _rows(doc, "PASS", 4 * len(ks) + 29)
    _all_pass(rows)
    ei = [r for r in rows if r["input"].startswith("ei: ")]
    _require(len(ei) == len(ks), "ei rows do not match the grid")
    for k, row in zip(ks, ei):
        target = k * math.pi / (4.0 * (k + 4.0))
        _require(_close(row["expected"], target, 4e-16 * target), f"ei target wrong at k={k}")


def _verify_appendix(doc: dict, check: dict) -> None:
    rows = _rows(doc, "PASS", 13 + 3 * check["file_candidates"])
    _all_pass(rows)


def _table(doc: dict, check: dict) -> None:
    rows = _rows(doc, "FAIL", len(TABLE) + len(COROLLARY_K2) + 1 + IMAGINARY_ROWS)
    by_input = {r["input"]: r for r in rows}
    failed = [r["input"] for r in rows if r["status"] == "FAIL"]
    _require(failed == [KNOWN_RED], f"FAIL rows {failed}, want only {KNOWN_RED!r}")
    skipped = [r for r in rows if r["status"] == "SKIPPED"]
    _require(len(skipped) == IMAGINARY_ROWS, "imaginary rows missing")
    for k2, (label, n, r) in TABLE.items():
        row = by_input.get(f"k={label} N={n} r={r}")
        _require(row is not None, f"closure row k={label} missing")
        _require(row["status"] == "PASS", f"closure row k={label} not PASS")
        ref = check["m_ref"][str(k2)]
        m, rl = row["expected"], row["computed"]
        _require(_close(m, ref, _MEASURE_TOL), f"m(P_k) at k={label} off the reference")
        _require(_close(rl, ref, _MEASURE_TOL), f"r L'(E,0) at k={label} off the reference")
        rel = abs(m - rl) / abs(rl)
        _require(_close(row["residual"], rel, 1e-15 * rel),
                 f"closure residual wrong at k={label}")
    for k2 in COROLLARY_K2:
        label = TABLE[k2][0]
        row = by_input.get(f"k={label} m(Pac) vs L'")
        _require(row is not None, f"corollary row k={label} missing")
        _require(_consistent(row), f"corollary residual wrong at k={label}")
        k = math.sqrt(k2)
        target = check["m_ref"][str(k2)] / 2.0 - 0.25 * math.log((k - 4.0) / (k + 4.0))
        _require(_close(row["expected"], target, _MEASURE_TOL),
                 f"corollary target at k={label} off the reference")
    mid = by_input.get("k=4*sqrt(2) m+-m- vs L' (mid regime)")
    _require(mid is not None and mid["status"] == "PASS", "mid-regime row missing or not PASS")


def _lvalue(doc: dict, check: dict) -> None:
    rows = _rows(doc, "PASS", 8)
    _all_pass(rows)
    vals = {r["input"]: r["computed"] for r in rows}
    label, n, r = TABLE[check["k2"]]
    _require(vals["N"] == n, f"conductor {vals['N']}, want {n}")
    _require(vals["r_k"] == r, f"r_k {vals['r_k']}, want {r}")
    _require(vals["eps"] in (1, -1), f"sign {vals['eps']}")
    lp0 = vals["eps"] * n / (4.0 * math.pi**2) * vals["L2"]
    _require(_close(vals["Lprime0"], lp0, 1e-15 * abs(lp0)), "L'(E,0) disagrees with L(E,2)")
    _require(_close(float(Fraction(r)) * vals["Lprime0"], check["m_ref"], _MEASURE_TOL),
             f"r L'(E,0) at k={label} off the reference m(P_k)")
    spread = rows[-1]
    _require(spread["input"] == "split-point spread" and spread["residual"] <= 1e-10,
             "split-point spread row wrong")


def _oracle2d(doc: dict, check: dict) -> None:
    rows = _rows(doc, "PASS", 5)
    _all_pass(rows)
    vals = {r["input"]: r for r in rows}
    m = vals["m(P_1k)"]["computed"]
    tol = doc["metadata"]["tol"]
    _require(_close(m, check["m_ref"], tol), "m(P_1k) off the reference")
    total = vals["m_plus"]["computed"] + vals["m_minus"]["computed"]
    _require(_close(vals["m_total"]["computed"], total, 4e-16 * max(1.0, abs(total))),
             "m_total is not m_plus + m_minus")
    oracle = vals["2d oracle vs m(P_1k)"]
    _require(oracle["expected"] == m, "2D row compares against another value")


def _sweep(text: str, check: dict) -> None:
    table = list(csv.reader(io.StringIO(text)))
    _require(table and table[0] == ["k", "value", "est_error"], "bad CSV header")
    ks = grid(check["spec"])
    body = table[1:]
    _require(len(body) == len(ks), f"{len(body)} rows, want {len(ks)}")
    values = []
    for k, (k_s, v_s, e_s) in zip(ks, body):
        _require(k_s == repr(k), f"k column {k_s} is not the grid point {k!r}")
        v, e = float(v_s), float(e_s)
        _require(math.isfinite(v) and math.isfinite(e), f"non-finite value at k={k_s}")
        values.append(v)
    for i, ref in zip(check["samples"], check["refs"]):
        _require(_close(values[i], ref, check["tol"]),
                 f"{check['quantity']}({ks[i]!r}) = {values[i]!r}, reference {ref!r}")


def check(spec: dict, code, stdout: str) -> str:
    """Empty string if the operation's exit code and output are right,
    otherwise why not."""
    kind = spec["kind"]
    if code != _EXIT[kind]:
        return f"exit code {code}, want {_EXIT[kind]}"
    try:
        if kind == "sweep":
            _sweep(stdout, spec)
        else:
            doc = json.loads(stdout)
            {"verify_all": _verify_all, "verify_appendix": _verify_appendix,
             "table": _table, "lvalue": _lvalue, "oracle2d": _oracle2d}[kind](doc, spec)
    except Bad as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return ""
