import ast
import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scalar_reference as R

from mahlerlab import cli
from mahlerlab import identities
from mahlerlab import mahler as M
from mahlerlab import quadrature


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_sweep_one(quantity, k, tol):
    """One sweep row by the per-point route, the reference for the lockstep
    sweep: the scalar reference half-measures at tol, whose est is the
    est_error where it exceeds 1e-15 |value|."""
    if quantity == "f":
        fac, value = M.factor_p1k(k), lambda hm: hm.m_total
    elif quantity == "h":
        fac, value = M.factor_ptilde(k), lambda hm: hm.m_plus - hm.m_minus
    else:
        fac = M.factor_member(k)
        value = lambda hm: getattr(hm, quantity)  # noqa: E731
    hm = R.half_measures(fac, tol)
    v = value(hm)
    return k, v, max(hm.est, 1e-15 * abs(v))


def reference_sweep_csv(quantity, ks, tol):
    rows = [reference_sweep_one(quantity, k, tol) for k in ks]
    return "k,value,est_error\n" + "".join(f"{k!r},{v!r},{est!r}\n" for k, v, est in rows)


#: sweep grids in every k regime each integrated quantity accepts, edges
#: included; the first of each quantity spans more than one lockstep piece
SWEEP_GRIDS = [
    ("f", "0.05:3.95:70"),
    ("f", "3.99:6.48:11"),
    ("f", "6.4721:200:17"),
    ("h", "4.01:6.4721:45"),
    ("h", "6.4722:200:17"),
    ("m_plus", "6.47:1000:40"),
    ("m_plus", "0.05:3.999:13"),
    ("m_plus", "4.001:6.5:13"),
    ("m_minus", "0.01:3.95:33"),
    ("m_minus", "4.05:6.47213:13"),
    ("m_minus", "6.4722:60:9"),
]
SWEEP_IDS = [" ".join(case) for case in SWEEP_GRIDS]
MULTI_PIECE = [SWEEP_GRIDS[i] for i in (0, 3, 5, 8)]

#: k in every regime and next to each of its edges, for the est_error bound
EST_KS = [1e-3, 0.05, 1.0, 3.5, 3.999, 4.001, 4.3, 5.5, M.K_LARGE - 1e-3, M.K_LARGE + 1e-3,
          8.0, 50.0, 1e3, 1e6]


@functools.cache
def mp_quantities(k):
    """f, h (k > 4 only), m_plus and m_minus at k by 30-digit quadrature."""
    mpmath = pytest.importorskip("mpmath")
    from test_mahler import _jensen_mp

    with mpmath.workdps(30):
        kk = mpmath.mpf(k)
        out = {"f": sum(_jensen_mp(mpmath, (1, kk), 1))}
        if k < 4.0:
            pair = _jensen_mp(mpmath, (mpmath.sqrt((4 + kk) / (4 - kk)), kk / mpmath.sqrt(4 - kk)), 1)
        else:
            pair = _jensen_mp(mpmath, (mpmath.sqrt((kk + 4) / (kk - 4)), -kk / mpmath.sqrt(kk - 4)), -1)
            out["h"] = pair[0] - pair[1]
        out["m_plus"], out["m_minus"] = pair
    return out


class TestBasicCommands:
    def test_ell_k(self, capsys):
        code, out, _ = run_main(capsys, "ell", "--kind", "K", "--z", "0.5")
        assert code == 0
        assert "1.6857503548125958" in out

    def test_ell_pi_imag(self, capsys):
        code, out, _ = run_main(capsys, "ell", "--kind", "Pi-imag", "--n", "0.25", "--m", "0.5")
        assert code == 0

    @pytest.mark.parametrize(
        "argv,param",
        [(["Pi", "--n=-1e100", "--z", "0.5"], 0.25), (["Pi", "--n=-1e150", "--z", "0.5"], 0.25),
         (["Pi-imag", "--n=-1e12", "--m", "0.5"], -0.25)],
    )
    def test_ell_pi_far_below_minus_one(self, capsys, argv, param):
        # Pi(-1e100, 0.5) printed -8.9e-16 with exit 0, and n = -1e150 was a
        # bogus R_C error
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run_main(capsys, "ell", "--kind", *argv, "--format", "json")
        assert code == 0
        value = json.loads(out)["rows"][0]["computed"]
        with mpmath.workdps(60):
            ref = mpmath.ellippi(float(argv[1][4:]), param)
            assert abs((value - ref) / ref) <= 1e-15

    def test_ell_missing_arg_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ell", "--kind", "Pi"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "K", "--z", "0.5", "--n", "0.3", "--m", "7"],
            ["--kind", "E", "--z", "0.5", "--m", "0.2"],
            ["--kind", "Pi", "--n", "-0.5", "--z", "0.5", "--m", "1"],
            ["--kind", "K-imag", "--m", "0.5", "--z", "0.5"],
            ["--kind", "Pi-imag", "--n", "0.3", "--m", "0.5", "--z", "0.1"],
        ],
        ids=" ".join,
    )
    def test_ell_unused_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ell", *argv])
        assert exc.value.code == 2
        assert f"ell --kind {argv[1]}: does not use" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["ell", "--kind", "K", "--z", "0.5"], ["table"]], ids=" ".join)
    def test_tol_is_usage_error_where_no_tol_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["mahler", "--k", "8"], ["lvalue", "--k", "8"], ["verify", "ei"], ["sweep", "dfdk", "--k-grid", "5:6:2"]],
        ids=" ".join,
    )
    def test_tol_floor_where_tol_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--tol", "1e-14"])
        assert exc.value.code == 2
        assert "--tol below the 1e-13 double-precision floor" in capsys.readouterr().err

    def test_mahler_large_k(self, capsys):
        code, out, _ = run_main(capsys, "mahler", "--k", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = {r["input"]: r["computed"] for r in doc["rows"]}
        assert rows["m(P_1k)"] == pytest.approx(2.04569626821401489, abs=1e-9)
        assert rows["m_minus"] == 0.0
        assert doc["metadata"]["regime"] == "large"
        code, out, _ = run_main(capsys, "mahler", "--k", "1e300", "--format", "json")
        assert code == 0
        rows = {r["input"]: r["computed"] for r in json.loads(out)["rows"]}
        assert rows["m(P_1k)"] == pytest.approx(690.7755278982137, abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mahler", "--k", "nan"],
            ["mahler", "--k", "inf"],
            ["mahler", "--k=-inf"],
            ["mahler", "--k", "8", "--tol", "nan"],
            ["ell", "--kind", "K", "--z", "nan"],
            ["verify", "ei", "--k-grid", "4.5:inf:3"],
            ["sweep", "f", "--k-grid", "nan:5:3"],
        ],
        ids=" ".join,
    )
    def test_non_finite_float_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_mahler_with_2d_oracle_below_4(self, capsys):
        # the oracle used to miss its 1e-6 here, failing the comparison row
        code, out, _ = run_main(capsys, "mahler", "--k", "1.8291", "--with-2d", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1]["input"] == "2d oracle vs m(P_1k)"
        assert all(r["status"] == "PASS" for r in rows)

    def test_rows_hold_builtin_numbers(self):
        # a numpy scalar would print as np.float64(...) in text and CSV
        row = cli.Row("x", np.float64(0.5), np.int64(3), np.float32(0.25), "PASS")
        assert (type(row.expected), type(row.computed), type(row.residual)) == (float, int, float)
        assert (row.expected, row.computed, row.residual) == (0.5, 3, 0.25)
        assert cli.Row("x", "principal", "", 0.0, "PASS").expected == "principal"

    def test_mahler_small_k(self, capsys):
        code, out, _ = run_main(capsys, "mahler", "--k", "2", "--format", "json")
        doc = json.loads(out)
        rows = {r["input"]: r["computed"] for r in doc["rows"]}
        assert rows["m_total"] == pytest.approx(0.5 * math.log(3.0), abs=1e-9)

    def test_lvalue_with_dump(self, capsys, tmp_path):
        path = tmp_path / "an.txt"
        code, out, _ = run_main(
            capsys, "lvalue", "--k", "8", "--format", "json", "--dump-an", str(path)
        )
        assert code == 0
        doc = json.loads(out)
        rows = {r["input"]: r["computed"] for r in doc["rows"]}
        assert rows["Lprime0"] == pytest.approx(0.511424067053503722, abs=1e-12)
        assert rows["N"] == 24
        lines = path.read_text().splitlines()
        assert lines[0] == "1 1"
        assert doc["metadata"]["ap_routes"]["2"] == "additive"

    @pytest.mark.parametrize("k", ["1e200", "1.4e154", "1e-200"])
    def test_lvalue_k_squared_off_the_doubles_is_one_line_error(self, capsys, k):
        # k^2 overflows to inf past ~1.34e154 and underflows to 0 near 1e-200
        code, out, err = run_main(capsys, "lvalue", "--k", k)
        assert (code, out) == (1, "")
        assert err.startswith(f"mahlerlab: error: curve_from_k: k = {float(k)}") and err.count("\n") == 1

    def test_lvalue_dump_to_missing_dir_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "an.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["lvalue", "--k", "8", "--dump-an", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mahlerlab: --dump-an:") and captured.err.count("\n") == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


class TestVerify:
    def test_ei_grid_csv(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "ei", "--k-grid", "4.5:100:20", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20
        assert all(r["status"] == "PASS" for r in rows)
        assert all(float(r["residual"]) <= 1e-11 for r in rows)

    def test_ei_at_the_largest_double(self, capsys):
        # k pi overflowed in the right-hand side, printing NaN in a FAIL row
        code, out, _ = run_main(capsys, "verify", "ei", "--k", "1e308", "--format", "json")
        assert code == 0 and "NaN" not in out
        [row] = json.loads(out)["rows"]
        assert row["status"] == "PASS" and row["expected"] == pytest.approx(math.pi / 4.0, abs=1e-16)

    def test_thm_main_default(self, capsys):
        code, out, _ = run_main(capsys, "verify", "thm-main", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        assert len(doc["rows"]) == 6

    def test_thm_main_floor_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "thm-main", "--k", "4.1"])
        assert exc.value.code == 2
        assert "safety floor" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["3", "1e-300"])
    def test_ei_requires_k_above_4(self, capsys, k):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "ei", "--k", k])
        assert exc.value.code == 2
        assert "requires k > 4" in capsys.readouterr().err

    def test_corollary_rejects_mid_regime_k(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "corollary", "--k", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["appendix", "jia", "lsz", "eta"])
    @pytest.mark.parametrize("flag", [["--k", "5"], ["--k-grid", "1:2:3"]], ids=" ".join)
    def test_fixed_input_suite_rejects_k(self, capsys, suite, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, *flag])
        assert exc.value.code == 2
        assert f"verify {suite}:" in capsys.readouterr().err

    def test_all_applies_k_to_the_k_suites_only(self, capsys):
        code, out, _ = run_main(capsys, "verify", "all", "--k", "8", "--format", "json")
        assert code == 0
        inputs = [r["input"] for r in json.loads(out)["rows"]]
        for name in ("thm-main", "ei"):
            assert [i for i in inputs if i.startswith(f"{name}: ")] == [f"{name}: k=8"]
        lsz = [i for i in inputs if i.startswith("lsz: ") and i.endswith("branch labeling")]
        assert len(lsz) == len(cli.SUITES["lsz"].inputs) == 3

    def test_suite_table(self):
        # the defaults `verify` ran before the suites became one table
        suites = cli.SUITES
        assert list(suites) == ["thm-main", "corollary", "ei", "appendix", "jia", "lsz", "eta"]
        assert suites["thm-main"].ks == (4.5, 5.0, 6.0, 8.0, 12.0, 20.0)
        assert suites["corollary"].ks == (7.0, 8.0, 16.0, 50.0)
        assert suites["ei"].ks == tuple(cli.log_grid(4.5, 100.0, 20))
        assert [s.ks for s in list(suites.values())[3:]] == [None] * 4
        assert suites["lsz"].inputs == (1.0, 2.0, 3.0)
        assert suites["eta"].inputs == (0.5, 1.0, 1.5)
        assert {n: s.tol for n, s in suites.items()} == {
            "thm-main": 1e-8, "corollary": 1e-8, "ei": 1e-11, "appendix": 1e-10,
            "jia": 1e-10, "lsz": 1e-6, "eta": 1e-10,
        }
        assert suites["thm-main"].domain == (
            "below the documented safety floor 4.2 (both sides diverge as k -> 4)"
        )
        assert suites["corollary"].domain == "not above 2(1+sqrt(5)) = 6.4721"
        assert suites["ei"].domain == "not above 4 (requires k > 4, so z = 4/k < 1)"

    def test_readme_suite_table(self):
        def ks_cell(s):
            if s.ks is None:
                return "fixed: " + ", ".join(f"{v:g}" for v in s.inputs) if s.inputs else "fixed"
            n = len(s.ks)
            if n > 2 and s.ks == tuple(cli.log_grid(s.ks[0], s.ks[-1], n)):
                return f"{n} log-spaced in [{s.ks[0]:g}, {s.ks[-1]:g}]"
            return ", ".join(f"{k:g}" for k in s.ks)

        want = [
            [f"`{s.name}`", ks_cell(s), s.domain or "every --k and --k-grid", s.tol]
            for s in cli.SUITES.values()
        ]
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("| suite | default k | rejected k | tol |\n| --- | --- | --- | --- |\n")[1]
        rows = [line.strip("| ").split(" | ") for line in table.split("\n\n")[0].splitlines()]
        assert [[name, ks, domain, float(tol)] for name, ks, domain, tol in rows] == want

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_appendix(self, capsys):
        code, out, _ = run_main(capsys, "verify", "appendix", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        verdict = next(r for r in doc["rows"] if "verdict" in r["input"])
        assert "valid=['printed']" in verdict["computed"]

    def test_appendix_candidate_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                [{"name": "file-linear", "p": "-x", "q": "x", "domain": [0.0, 1.0], "anchor_x0": 0.5}]
            )
        )
        code, out, _ = run_main(
            capsys, "verify", "appendix", "--candidate-file", str(path), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert any(r["input"].startswith("file-linear") for r in doc["rows"])

    @pytest.mark.parametrize("suite", [name for name in cli.SUITES if name != "appendix"])
    def test_candidate_file_on_other_suites_is_usage_error(self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, "--candidate-file", "/nonexistent.json"])
        assert exc.value.code == 2
        assert f"verify {suite}: takes no --candidate-file" in capsys.readouterr().err

    def test_all_feeds_candidate_file_to_appendix(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "file-linear", "p": "-x", "q": "x", "domain": [0.0, 1.0]}]))
        code, out, _ = run_main(capsys, "verify", "all", "--candidate-file", str(path), "--format", "json")
        assert code == 0
        inputs = [r["input"] for r in json.loads(out)["rows"]]
        assert "appendix: file-linear identity" in inputs

    def test_candidate_exponent_in_x_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "xx.json"
        path.write_text(json.dumps([{"name": "xx", "p": "x^x", "q": "x", "domain": [0.0, 1.0]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("mahlerlab: error: expression:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "p",
        ["(" * 400 + "x" + ")" * 400, "-" * 3000 + "x", "+".join(["x"] * 3000)],
        ids=["400-parentheses", "3000-unary-minuses", "3000-term-sum"],
    )
    def test_candidate_nested_too_deep_is_one_line_error(self, capsys, tmp_path, p):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps([{"name": "deep", "p": p, "q": "x", "domain": [0.0, 1.0]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("mahlerlab: error: expression:") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["-x" + "+0" * 194, "-x "], ids=["195-term-chain", "trailing-space"])
    def test_candidate_long_chain_and_trailing_space_verify(self, capsys, tmp_path, p):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "chain", "p": p, "q": "x", "domain": [0.0, 1.0]}]))
        code, out, _ = run_main(capsys, "verify", "appendix", "--candidate-file", str(path),
                                "--format", "json")
        assert code == 0
        rows = [r for r in json.loads(out)["rows"] if r["input"].startswith("chain")]
        assert len(rows) == 3 and all(r["status"] == "PASS" for r in rows)

    @pytest.mark.parametrize(
        "p,q",
        [("-x", "sqrt(x-0.5)"), ("-x", "(x-0.5)^(1/2)"), ("-1/(x-0.001000000000000334)", "x")],
        ids=["sqrt-of-negative", "complex-power", "division-by-zero"],
    )
    def test_candidate_undefined_on_grid_is_one_line_error(self, capsys, tmp_path, p, q):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "bad", "p": p, "q": q, "domain": [0.0, 1.0],
                                     "anchor_x0": 0.7}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("mahlerlab: error: bad: p/q undefined at x = 0.001000000000000334: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("p,q", [("(0-8)^(1/3)", "x"), ("x+(0-8)^(1/3)", "x"),
                                     ("-x", "x^((0-8)^(1/3))")],
                             ids=["complex-constant", "complex-term", "complex-exponent"])
    def test_candidate_complex_constant_is_named(self, capsys, tmp_path, p, q):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "bad", "p": p, "q": q, "domain": [0.0, 1.0]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert (code, out) == (1, "")
        assert err == ("mahlerlab: error: bad: p/q undefined at x = 0.001000000000000334: "
                       "expression: (-8.0) ** 0.3333333333333333 is not real\n")

    def test_candidate_q_zero_on_grid_is_one_line_error(self, capsys, tmp_path):
        # q vanishes at the first point of the default grid, where the ODE
        # residual divides by q: a bare ZeroDivisionError escaped from there
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "qzero", "p": "-x-0.1", "q": "x-0.001000000000000334",
                                     "domain": [0.0, 1.0]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert code == 1 and out == ""
        assert err == "mahlerlab: error: qzero: q in {0,1} at x = 0.001000000000000334\n"

    def test_candidate_constant_q_is_one_line_error(self, capsys, tmp_path):
        # a constant q has q' = 0, so the forced r's denominator vanishes
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "qconst", "p": "-x", "q": "0.5", "domain": [0.0, 1.0]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert (code, out) == (1, "")
        assert err == "mahlerlab: error: qconst: r denominator vanishes at x = 0.5\n"

    def test_candidate_constant_p_is_verified(self, capsys, tmp_path):
        # Pi(-1/2, x) + r K(x) is no identity: its rows fail like any other
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "pconst", "p": "-0.5", "q": "x", "domain": [0.0, 1.0]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path),
                                  "--format", "json")
        rows = {r["input"]: r for r in json.loads(out)["rows"]}
        assert (code, err) == (1, "")
        assert rows["pconst e-coeff"]["status"] == "PASS"
        assert rows["pconst ode"]["status"] == rows["pconst identity"]["status"] == "FAIL"

    def test_candidate_is_verified_on_its_own_domain(self, capsys, tmp_path):
        # q = 1/x leaves [0, 1) below x = 1: on [2, 5] the pair runs, and
        # fails on its merits rather than at x = 0.001
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "d", "p": "-x", "q": "1/x", "domain": [2, 5]}]))
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path),
                                  "--format", "json")
        rows = {r["input"]: r for r in json.loads(out)["rows"]}
        assert (code, err) == (1, "")
        assert rows["d e-coeff"]["status"] == "PASS"
        assert rows["d ode"]["status"] == rows["d identity"]["status"] == "FAIL"
        assert rows["d ode"]["residual"] > 0.05 and rows["d identity"]["residual"] > 0.05

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            "[5]",
            '[{"name": "a", "p": "-x", "q": "x", "domain": [1]}]',
            '[{"name": "a", "p": "-x", "q": "x", "domain": [0, 1], "anchor_x0": "mid"}]',
            '[{"name": "a", "p": 5, "q": "x", "domain": [0, 1]}]',
            '[{"name": "a", "p": "-x", "q": null, "domain": [0, 1]}]',
            '[{"name": "a", "p": "-x", "q": "x", "domain": [5, 2]}]',
            '[{"name": "a", "p": "-x", "q": "x", "domain": [1, 1]}]',
            '[{"name": "a", "p": "-x", "q": "x", "domain": [0, Infinity]}]',
            '[{"name": "a", "p": "-x", "q": "x", "domain": [NaN, 1]}]',
            '[{"name": "a", "p": "-x", "q": "x", "domain": [0, 1], "anchor_x0": NaN}]',
        ],
        ids=["missing", "invalid-json", "entry-not-object", "domain-not-pair",
             "anchor-not-number", "p-not-string", "q-not-string", "domain-reversed",
             "domain-empty", "domain-infinite", "domain-nan", "anchor-nan"],
    )
    def test_candidate_file_defect_is_one_line_error(self, capsys, tmp_path, content):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("mahlerlab: error: candidate file:") and err.count("\n") == 1

    def test_all_verifies_each_candidate_once(self, capsys, monkeypatch):
        # the appendix and jia suites share one report per candidate and tol
        seen = []
        real = cli.verify_identity

        def counting(cand, **kwargs):
            seen.append(cand.name)
            return real(cand, **kwargs)

        monkeypatch.setattr(cli, "verify_identity", counting)
        code, _, _ = run_main(capsys, "verify", "all", "--format", "json")
        assert code == 0
        assert sorted(seen) == ["cubic", "jia", "linear", "surd"]

    @pytest.mark.parametrize("suite,calls", [("all", 4), ("appendix", 4), ("jia", 1)])
    def test_one_carlson_call_per_candidate_and_grid(self, capsys, monkeypatch, suite, calls):
        # Pi and K at the grid, the anchor and for the printed coefficients
        # come from one call of the Carlson kernels per verified candidate
        seen = []
        real = identities.ell_pi_k_array
        monkeypatch.setattr(identities, "ell_pi_k_array", lambda *a: seen.append(a) or real(*a))
        code, _, _ = run_main(capsys, "verify", suite, "--format", "json")
        assert code == 0 and len(seen) == calls

    def test_thm_main_and_corollary_share_one_slice_refinement(self, capsys, monkeypatch):
        # with one --k-grid, thm-main and corollary ask for the same
        # (Ptilde_k, P_k) pairs at the same tol; lsz makes the other call
        calls, depth = [], [0]
        real = M.half_measures_lockstep

        def counting(*args):
            calls.append(depth[0])
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        # the CLI's binding and mahler's own, which its pieces recurse through
        monkeypatch.setattr(cli, "half_measures_lockstep", counting)
        monkeypatch.setattr(M, "half_measures_lockstep", counting)
        code, _, _ = run_main(capsys, "verify", "all", "--k-grid", "7:90:12", "--format", "json")
        assert code == 0 and calls.count(0) == 2

    def test_file_candidate_named_like_a_builtin_is_verified(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "jia", "p": "-x", "q": "x", "domain": [0.0, 1.0]}]))
        seen = []
        real = cli.verify_identity

        def counting(cand, **kwargs):
            seen.append(cand.name)
            return real(cand, **kwargs)

        monkeypatch.setattr(cli, "verify_identity", counting)
        code, _, _ = run_main(capsys, "verify", "appendix", "--candidate-file", str(path))
        assert code == 0
        assert seen.count("jia") == 2

    def test_jia(self, capsys):
        code, out, _ = run_main(capsys, "verify", "jia", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        anchor = next(r for r in doc["rows"] if r["input"].startswith("x=-1 lhs"))
        assert anchor["residual"] <= 1e-12

    def test_lsz(self, capsys):
        code, out, _ = run_main(capsys, "verify", "lsz", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        branch_rows = [r for r in doc["rows"] if "branch" in r["input"]]
        assert len(branch_rows) == 3
        assert all(r["computed"] == "principal" for r in branch_rows)

    def test_eta(self, capsys):
        code, out, _ = run_main(capsys, "verify", "eta")
        assert code == 0

    def test_all(self, capsys):
        code, out, _ = run_main(capsys, "verify", "all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["status"] == "PASS"
        assert len(doc["rows"]) > 50

    def test_tol_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "ei", "--tol", "1e-14"])
        assert exc.value.code == 2


class TestTable:
    def test_table_rows_and_known_failure(self, capsys):
        code, out, _ = run_main(capsys, "table", "--format", "json")
        doc = json.loads(out)
        rows = {r["input"]: r for r in doc["rows"]}
        # all eleven measure rows agree to >= 6 digits
        measure_rows = [r for k, r in rows.items() if " N=" in k]
        assert len(measure_rows) == 11
        assert all(r["status"] == "PASS" for r in measure_rows)
        # imaginary rows are skipped, not failed
        skipped = [r for r in doc["rows"] if r["status"] == "SKIPPED"]
        assert len(skipped) == 5
        # the stated nt row at 4*sqrt(2) fails (regime boundary defect);
        # the difference form passes; 8, 12, 16 nt rows pass
        nt_4s2 = rows["k=4*sqrt(2) m(Pac) vs L'"]
        assert nt_4s2["status"] == "FAIL"
        assert nt_4s2["residual"] == pytest.approx(0.038977995, abs=1e-6)
        assert rows["k=4*sqrt(2) m+-m- vs L' (mid regime)"]["status"] == "PASS"
        for label in ("8", "12", "16"):
            assert rows[f"k={label} m(Pac) vs L'"]["status"] == "PASS"
        assert code == 1  # exit contract: any FAIL row -> 1
        assert doc["metadata"]["digits[16]"] >= 6


class TestSweep:
    def test_dfdk_positive(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "dfdk", "--k-grid", "5:50:10")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        assert all(float(r["value"]) > 0.0 for r in rows)

    def test_m_minus_vanishes_in_large_regime(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "m_minus", "--k-grid", "4.2:10:30")
        rows = list(csv.DictReader(io.StringIO(out)))
        for r in rows:
            k, v = float(r["k"]), float(r["value"])
            if k > 6.4722:
                assert v == 0.0
            elif k < 6.47:
                assert v > 0.0

    def test_f_gap_to_log_k_decreasing(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "f", "--k-grid", "10:100:5")
        rows = list(csv.DictReader(io.StringIO(out)))
        gaps = [math.log(float(r["k"])) - float(r["value"]) for r in rows]
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))

    def test_requires_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "dfdk"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "quantity,spec,bad,domain",
        [
            ("f", "-1:1:3", [-1.0, 0.0], "not above 0 (requires k > 0)"),
            ("h", "3:5:3", [3.0, 4.0], "not above 4 (requires k > 4)"),
            ("dfdk", "3:5:3", [3.0, 4.0], "not above 4 (requires k > 4)"),
            ("dhdk", "4:8:2", [4.0], "not above 4 (requires k > 4)"),
            ("m_plus", "3:5:3", [4.0], "not above 0 or equal to 4 (requires k > 0, k != 4)"),
            ("m_minus", "-1:4:6", [-1.0, 0.0, 4.0],
             "not above 0 or equal to 4 (requires k > 0, k != 4)"),
        ],
        ids=["f", "h", "dfdk", "dhdk", "m_plus", "m_minus"],
    )
    def test_k_outside_the_quantity_domain_is_usage_error(self, capsys, quantity, spec, bad, domain):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", quantity, f"--k-grid={spec}"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"mahlerlab: sweep {quantity}: k values {bad} {domain}\n")

    def test_pool_clamped_to_cpus_and_tasks(self, capsys, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        run_main(capsys, "sweep", "dhdk", "--k-grid", "5:20:3", "--jobs", "1000000")
        run_main(capsys, "sweep", "dhdk", "--k-grid", "5:20:8", "--jobs", "1000000")
        run_main(capsys, "sweep", "dhdk", "--k-grid", "5:20:8", "--jobs", "2")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        code, _, _ = run_main(capsys, "sweep", "dhdk", "--k-grid", "5:20:8", "--jobs", "8")
        assert code == 0
        # tasks cap the first, CPUs the second; one CPU runs without a pool
        assert sizes == [3, 4, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "dhdk", "--k-grid", "5:20:8", "--jobs", "0"],
            ["sweep", "dhdk", "--k-grid", "5:20:8", "--jobs=-1"],
            ["table", "--jobs", "0"],
            ["sweep", "dhdk", "--k-grid", "5:20:10001"],
            ["verify", "ei", "--k-grid", "4.5:100:1000000000"],
            ["lvalue", "--k", "8", "--nmax", "0"],
            ["lvalue", "--k", "8", "--nmax", "-5"],
            ["lvalue", "--k", "8", "--nmax", "10001"],
            ["table", "--nmax", "0"],
            ["table", "--nmax", "-5"],
            ["table", "--nmax", "10001"],
        ],
        ids=" ".join,
    )
    def test_resource_flags_bounded(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_every_command_accepts_jobs(self):
        parser = cli.build_parser()
        for argv in (
            ["ell", "--kind", "K", "--z", "0.5"],
            ["mahler", "--k", "8"],
            ["lvalue", "--k", "8"],
            ["verify", "ei"],
            ["table"],
            ["sweep", "f", "--k-grid", "5:6:2"],
        ):
            assert parser.parse_args(argv + ["--jobs", "1"]).jobs == 1

    def test_jobs_determinism(self, capsys):
        code1, out1, _ = run_main(capsys, "sweep", "dhdk", "--k-grid", "5:20:8")
        code2, out2, _ = run_main(capsys, "sweep", "dhdk", "--k-grid", "5:20:8", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("quantity", ["f", "h", "m_plus", "m_minus"])
    @pytest.mark.parametrize("tol", ["1e-13", "9.9e-13"])
    def test_integrated_tol_floor_is_usage_error(self, capsys, quantity, tol):
        # an integrated quantity runs down to the double-precision floor and
        # is refused below it
        code, out, _ = run_main(capsys, "sweep", quantity, "--k-grid", "5:6:2", "--tol", tol)
        assert code == 0 and len(out.splitlines()) == 3
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", quantity, "--k-grid", "5:6:2", "--tol", "9.9e-14"])
        assert exc.value.code == 2
        assert "--tol below the 1e-13 double-precision floor" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", ["dfdk", "dhdk"])
    def test_closed_forms_keep_the_1e_13_floor(self, capsys, quantity):
        code, _, _ = run_main(capsys, "sweep", quantity, "--k-grid", "5:6:2", "--tol", "1e-13")
        assert code == 0

    @pytest.mark.parametrize("quantity,spec", SWEEP_GRIDS, ids=SWEEP_IDS)
    @pytest.mark.parametrize("tol", ["1e-10", "1e-12", "1e-6"])
    def test_lockstep_sweep_equals_per_point_reference(self, capsys, quantity, spec, tol):
        code, out, _ = run_main(capsys, "sweep", quantity, "--k-grid", spec, "--tol", tol)
        assert code == 0
        assert out == reference_sweep_csv(quantity, cli.parse_grid(spec), float(tol))

    @pytest.mark.parametrize("quantity", ["f", "h", "m_plus", "m_minus"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 1e-13])
    def test_est_error_bounds_the_error_in_every_regime(self, quantity, tol):
        # est_error, the quadrature's own estimate, is at least the distance
        # to a 30-digit value, give or take the value's rounding
        mpmath = pytest.importorskip("mpmath")
        ks = [k for k in EST_KS if quantity != "h" or k > 4.0]
        for k, v, est in cli._sweep_chunk((quantity, ks, tol)):
            with mpmath.workdps(30):
                err = float(abs(mpmath.mpf(v) - mp_quantities(k)[quantity]))
            assert err <= est + 2.0 ** -53 * max(1.0, abs(v)), (k, v, est, err)

    @pytest.mark.parametrize("quantity,spec", MULTI_PIECE, ids=[" ".join(c) for c in MULTI_PIECE])
    def test_integrated_jobs_determinism(self, capsys, quantity, spec):
        _, out1, _ = run_main(capsys, "sweep", quantity, "--k-grid", spec)
        _, out2, _ = run_main(capsys, "sweep", quantity, "--k-grid", spec, "--jobs", "2")
        assert out1 == out2

    # (quantity, grid, max level): the reference fails first at the second
    # k while the first meets tol (the first and the last case); at the m-
    # arc of the first k while its m+ arc also fails; at the m+ arc of the
    # second k while its m- arc meets tol; and at the m- arc of the second k
    # while its m+ arc meets tol
    @pytest.mark.parametrize(
        "quantity,spec,max_level",
        [("f", "2:3.5:2", 3), ("m_plus", "4.3:5:2", 3), ("h", "5:6:2", 4),
         ("m_minus", "0.5:3.5:2", 3), ("f", "0.5:3.5:2", 3)],
    )
    def test_lockstep_nonconvergence_matches_reference(self, capsys, monkeypatch, quantity, spec, max_level):
        monkeypatch.setattr(R, "tanh_sinh", functools.partial(R.tanh_sinh, max_level=max_level))
        with pytest.raises(cli.MahlerLabError) as want:
            reference_sweep_csv(quantity, cli.parse_grid(spec), 1e-10)
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", max_level)
        code, out, err = run_main(capsys, "sweep", quantity, "--k-grid", spec)
        assert (code, out) == (1, "")
        assert err == f"mahlerlab: error: {want.value}\n"

    def test_one_integrand_call_per_level_per_piece_of_the_grid(self, capsys, monkeypatch):
        runs = []
        real = M.tanh_sinh_panels

        def counting(f, *args):
            runs.append(0)

            def counted(x, panel):
                runs[-1] += 1
                return f(x, panel)

            return real(counted, *args)

        monkeypatch.setattr(M, "tanh_sinh_panels", counting)
        code, out, _ = run_main(capsys, "sweep", "m_plus", "--k-grid", "0.2:60:50")
        assert code == 0 and len(out.splitlines()) == 51
        # pieces of 32 and 18 grid points, each refined in lockstep
        assert len(runs) == 2 and all(0 < calls <= quadrature._MAX_LEVEL + 1 for calls in runs)


    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "thm-main"],
            ["verify", "corollary"],
            ["verify", "lsz"],
            ["table"],
            ["mahler", "--k", "8"],
            ["mahler", "--k", "2"],
        ],
        ids=" ".join,
    )
    def test_each_measure_caller_makes_one_lockstep_refinement(self, capsys, monkeypatch, argv):
        runs = []
        real = quadrature.tanh_sinh_panels

        def counting(*args):
            runs.append(args[1:])
            return real(*args)

        # mahler's own binding and the one quadrature_oracle and
        # cumulative_integrals use
        monkeypatch.setattr(M, "tanh_sinh_panels", counting)
        monkeypatch.setattr(quadrature, "tanh_sinh_panels", counting)
        code, _, _ = run_main(capsys, *argv, "--format", "json")
        assert code in (0, 1)  # the table's known red row exits 1
        assert len(runs) == 1


class TestDeterminism:
    def test_json_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_main(capsys, "verify", "ei", "--format", "json")
        _, out2, _ = run_main(capsys, "verify", "ei", "--format", "json")
        assert out1 == out2

    def test_csv_byte_identical_across_runs(self, capsys):
        _, out1, _ = run_main(capsys, "verify", "lsz", "--format", "csv")
        _, out2, _ = run_main(capsys, "verify", "lsz", "--format", "csv")
        assert out1 == out2


def test_rows_are_made_only_by_report():
    # one way to print a row: every command goes through Report.add, check,
    # note or skip, never through a Row of its own
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    report = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Report")
    inside = {id(n) for n in ast.walk(report)}
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Row"
            and id(n) not in inside] == []


def _child_env() -> dict:
    """Environment for a child interpreter that imports the same mahlerlab as
    the tests, also when pytest alone put src/ on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _imported_after(module: str, *runs: list[str]) -> list[str]:
    """Whether `module` is imported after `import mahlerlab.cli`, then after
    each CLI run in runs (each must exit 0), in a child interpreter."""
    probe = (
        "import contextlib, io, sys, mahlerlab.cli\n"
        f"print({module!r} in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if mahlerlab.cli.main(argv):\n"
        "            sys.exit(f'{argv} failed')\n"
        f"    print({module!r} in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


VERIFY_ETA = ["verify", "eta", "--format", "json"]


def test_scipy_never_imported():
    runs = (VERIFY_ETA, ["mahler", "--k", "1", "--with-2d", "--format", "json"])
    assert _imported_after("scipy", *runs) == ["False", "False", "False"]


def test_process_pool_imported_only_by_sweep_jobs():
    assert _imported_after("concurrent.futures.process", VERIFY_ETA) == ["False", "False"]


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mahlerlab.cli", "ell", "--kind", "E", "--z", "0"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "1.5707963267948966" in proc.stdout
