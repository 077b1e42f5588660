"""The command line surface: values, formats, determinism, exit codes."""

import hashlib
import json
import sys
from collections import Counter

import pytest

from tracezero import gf
from tracezero.cli import ENV_BUDGET, main
from tracezero.counting import engine_for
from tracezero.curves import curve_family
from tracezero.numtheory import prime_power_parts


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_binary_quartic_field(self, capsys):
        code, out, _ = run(
            capsys, "count", "--p", "2", "--r", "2", "--n", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "q": 4,
            "n": 5,
            "f_count": "31",
            "i_count": "6",
            "method": "formula",
        }

    def test_nine_element_field(self, capsys):
        code, out, _ = run(
            capsys, "count", "--p", "3", "--r", "2", "--n", "5", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert (data["f_count"], data["i_count"]) == ("801", "160")

    def test_degree_one_conventions(self, capsys):
        code, out, _ = run(
            capsys, "count", "--p", "2", "--r", "2", "--n", "1", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert (data["f_count"], data["i_count"]) == ("1", "1")

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "2", "--r", "1", "--n", "6")
        assert code == 0
        assert "q=2 n=6" in out

    def test_counts_past_the_int_str_digit_limit(self, capsys):
        # F(8000) over F_4 has about 4800 decimal digits, more than the
        # interpreter's default int/str conversion limit of 4300
        want = engine_for(4).f_count(8000)
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        limit = get_limit() if get_limit else None
        argv = ("count", "--p", "2", "--r", "2", "--n", "8000")
        code_json, out_json, _ = run(capsys, *argv, "--format", "json")
        code_text, out_text, _ = run(capsys, *argv)
        assert code_json == code_text == 0
        if get_limit:
            assert get_limit() == limit  # main leaves the process limit as it was
            sys.set_int_max_str_digits(0)
        try:
            digits = str(want)
        finally:
            if get_limit:
                sys.set_int_max_str_digits(limit)
        assert len(digits) > 4300
        assert json.loads(out_json)["f_count"] == digits
        assert f"elements with vanishing trace pair: {digits}\n" in out_text

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--p", "7", "--n", "5"),
            ("table", "--p", "7", "--n-min", "1", "--n-max", "5"),
        ],
    )
    def test_cut_self_check_is_reported_on_stderr(self, capsys, argv):
        # 7**6 <= 200000 < 7**7: the cap admits the seeding counts at
        # m <= 6 (the genus) but neither self-check degree m = 7, 8
        code, out, err = run(capsys, *argv, "--max-elements", "200000")
        full_code, full_out, full_err = run(capsys, *argv)
        assert code == full_code == 0
        assert out == full_out
        assert full_err == ""
        assert err == (
            "note: self-check reached depth 0 of 2; the element cap 200000 stopped it\n"
        )


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--p", "2", "--r", "2",
            "--n-min", "3", "--n-max", "10", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,f_count,i_count"
        got = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
        assert got == [
            (3, 7, 2), (4, 16, 0), (5, 31, 6), (6, 268, 34),
            (7, 1135, 162), (8, 4096, 480), (9, 16279, 1808), (10, 64684, 6366),
        ]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--p", "3", "--r", "2",
            "--n-min", "2", "--n-max", "6", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["p"], data["r"], data["q"]) == (3, 2, 9)
        engine = engine_for(9)
        assert [(row["n"], int(row["f_count"]), int(row["i_count"])) for row in data["rows"]] == [
            (n, engine.f_count(n), engine.i_count(n)) for n in range(2, 7)
        ]
        assert [int(row["f_count"]) for row in data["rows"]] == [9, 9, 89, 801, 6561]
        assert all(row["sources"] == ["formula"] for row in data["rows"])

    # SHA-256 of the stdout of `table --p 3 --r 2 --n-min 1 --n-max 2000`,
    # recorded while every class recurred at order 2g
    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("text", "a24b41ed51a7b1aecf34ae9fdfcc3960b10b21561d97e04dfbc9e8ef3904d113"),
            ("json", "76cedfb44dcd0529472cdaacb4ca07c30dceff93cc747b4d82678140fd4d9e10"),
        ],
    )
    def test_long_sweep_output_is_pinned(self, capsys, fmt, digest):
        argv = ("table", "--p", "3", "--r", "2", "--n-min", "1", "--n-max", "2000")
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cross_check_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--p", "2", "--r", "1",
            "--n-min", "2", "--n-max", "8", "--cross-check", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert all(row["sources"] == ["formula", "oracle"] for row in data["rows"])

    def test_cross_check_mismatch_exits_three(self, capsys, monkeypatch):
        import tracezero.oracle as oracle_mod

        real = oracle_mod.enum_i_count
        monkeypatch.setattr(oracle_mod, "enum_i_count", lambda *a, **k: real(*a, **k) + 1)
        code, out, err = run(
            capsys, "table", "--p", "2", "--r", "1", "--n-min", "3", "--n-max", "5", "--cross-check"
        )
        assert code == 3 and out == ""
        assert "formula/enumeration mismatch at n=3: (1, 0) vs (1, 1)" in err


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "2", "--r", "1", "--max-n", "6"
        )
        assert code == 0
        assert "all checks passed" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--p", "5", "--r", "1", "--max-n", "3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True

    def test_failure_exit_code(self, capsys, monkeypatch):
        import tracezero.cli as cli_mod
        from tracezero.oracle import CheckResult, VerifyReport

        def fake_verify(q, n_max, budget):
            rep = VerifyReport(q=q, n_max=n_max)
            rep.checks.append(CheckResult("element_count_formula", q, 1, "fail", "3 != 4"))
            return rep

        monkeypatch.setattr(cli_mod, "verify_all", fake_verify)
        code, out, _ = run(capsys, "verify", "--p", "2", "--r", "1", "--max-n", "1")
        assert code == 1
        assert "FAILED" in out

    def test_cut_engine_self_check_is_a_skip_line(self, capsys):
        # 7**6 <= 200000 < 7**7: the engine that verify builds re-counts no
        # curve beyond the genus, and the report must say so
        code, out, _ = run(
            capsys, "verify", "--p", "7", "--max-n", "2", "--max-elements", "200000"
        )
        assert code == 0
        skips = [
            ln for ln in out.splitlines() if ln.split()[:2] == ["SKIP", "engine_selfcheck"]
        ]
        assert skips == [
            "SKIP  engine_selfcheck q=7 n=7  [self-check reached depth 0 of 2; "
            "the element cap 200000 stopped it]"
        ]
        assert "all checks passed" in out

    def test_composite_characteristic_exit_two(self, capsys):
        # 4**2 = 16 is a prime power, but --p must itself be prime
        code, out, err = run(capsys, "verify", "--p", "4", "--r", "2", "--max-n", "1")
        assert code == 2
        assert "--p 4 is not prime" in err
        assert out == ""


# SHA-256 of the exit code and stdout of `curve --m-max 4` and `lpoly`, text
# and json, over the curves that test_curve_and_lpoly_output_is_pinned
# runs, recorded before the curve counts were read off the class counts.
_CLI_DIGESTS = {
    9: "de816370db2d33496330f854f6a3b7f15d3d2bab693115e27c5b321a7eb2b261",
    27: "788862d1cd9c2f2dd3c85ea8f0644235814e16dedc2ae6cdb6beb44cbf34c07e",
}

# SHA-256 of the exit code and stdout of `lpoly`, text and json, over every
# curve of the family, recorded while lpoly seeded its curve's L-polynomial
# on its own from the point counts at m = 1..genus.
_LPOLY_DIGESTS = {
    3: "37fa59e330e8acc93c588550719c80df0ea92ebe75ef4c0fbd8da54097d3a745",
    4: "076468716796687c9d354f2c11b46279116153355f84f790b06bacf3084f1afe",
    5: "8dc40ef37d0f183c429038cb41616dd26d52fe693c736747e8ac631d9c0042af",
    7: "09db427e2b6ffad0d8dacb1c8f39fbbec72b78da4d5df404689e242321323fa2",
    8: "9dcddb8342106c600f5cceab962dc7ab236cb86f13da0c07eb981b88e8e05bf1",
    9: "a1a3874254c22619d90288737507c106545b0f129c1dc90293a7ba38c12d83d9",
    16: "c4910bcb3ba0710cc622556477bc1f9f23304eed29de4205862acc165d831068",
    25: "049b6e5bfc9d1210b6d423b62a7f648515a6b70d8e8f4c2386c17678bd37407f",
    27: "866079adf629f39778ffc0c116b7ea32059c1f7c5afd872d6e1811dc2d883300",
}


class TestCurveAndLpoly:
    def test_genus_one_coefficients(self, capsys):
        code, out, _ = run(capsys, "lpoly", "--p", "2", "--r", "2", "--alpha", "1")
        assert code == 0
        assert len(out.split()) == 3

    def test_genus_two_coefficients(self, capsys):
        code, out, _ = run(
            capsys,
            "lpoly", "--p", "3", "--r", "2",
            "--alpha", "2", "--beta", "1", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["coeffs"]) == 5
        assert data["coeffs"][4] == "81"

    def test_curve_counts(self, capsys):
        code, out, _ = run(
            capsys,
            "curve", "--p", "2", "--r", "1", "--alpha", "1",
            "--m-max", "2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["counts"] == ["4", "8"]

    def test_element_digit_literals(self, capsys):
        code_a, out_a, _ = run(
            capsys, "lpoly", "--p", "2", "--r", "2", "--alpha", "0,1"
        )
        code_b, out_b, _ = run(
            capsys, "lpoly", "--p", "2", "--r", "2", "--alpha", "2"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_missing_beta_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "lpoly", "--p", "3", "--r", "2", "--alpha", "1")
        assert code == 2
        assert "beta" in err

    @pytest.mark.parametrize(
        "argv,err",
        [
            (
                ("curve", "--p", "2", "--alpha", "1", "--m-max", "25"),
                "error: 2**25 elements exceed the cap 16777216\n",
            ),
            (
                ("lpoly", "--p", "3", "--r", "2", "--alpha", "2", "--beta", "1",
                 "--max-elements", "50"),
                "error: 9**2 elements exceed the cap 50\n",
            ),
        ],
        ids=["curve", "lpoly"],
    )
    def test_cap_refused_before_the_first_count(self, capsys, monkeypatch, argv, err):
        def refuse(*args, **kwargs):
            raise AssertionError("counted before the element cap check")

        monkeypatch.setattr("tracezero.cli.count_points", refuse)
        monkeypatch.setattr("tracezero.counting.class_point_counts", refuse)
        assert run(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2)])
    def test_lpoly_matches_the_engine_on_every_curve(self, capsys, p, r):
        engine = engine_for(p**r)
        field = engine.field
        curves = curve_family(field)
        outputs = Counter()
        for curve in curves:
            argv = ["lpoly", "--p", str(p), "--r", str(r), "--alpha", str(field.code(curve.alpha))]
            if curve.beta is not None:
                argv += ["--beta", str(field.code(curve.beta))]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), curve.describe()
            outputs[out] += 1
        # each c = A*B labels len(curves) / (q - 1) curves: (q-1)/(p-1) for odd p, one for p = 2
        per_c = len(curves) // (engine.q - 1)
        want = Counter({" ".join(map(str, lp.coeffs)) + "\n": k * per_c for lp, k in engine.classes})
        assert outputs == want

    @pytest.mark.parametrize("q", sorted(_CLI_DIGESTS))
    def test_curve_and_lpoly_output_is_pinned(self, capsys, q):
        p, r = prime_power_parts(q)
        field = gf.make_field(p, r)
        # every curve of F_9's family; the first beta of each alpha of
        # F_27's, which still meets every c = A*B
        curves = curve_family(field)[:: 1 if q == 9 else (q - 1) // (p - 1)]
        outputs = []
        for curve in curves:
            argv = ["--p", str(p), "--r", str(r), "--alpha", str(field.code(curve.alpha))]
            argv += ["--beta", str(field.code(curve.beta))]
            for cmd in (["curve", "--m-max", "4"], ["lpoly"]):
                for fmt in ("text", "json"):
                    code, out, err = run(capsys, *cmd, *argv, "--format", fmt)
                    assert err == ""
                    outputs.append(f"{code}\n{out}")
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == _CLI_DIGESTS[q]

    @pytest.mark.parametrize("q", sorted(_LPOLY_DIGESTS))
    def test_lpoly_output_is_pinned_on_every_curve(self, capsys, engine, q):
        p, r = prime_power_parts(q)
        field = gf.make_field(p, r)
        # lpoly builds the engine, so stderr holds its self-check note or nothing
        note = engine(q).selfcheck_note
        outputs = []
        for curve in curve_family(field):
            argv = ["lpoly", "--p", str(p), "--r", str(r), "--alpha", str(field.code(curve.alpha))]
            if curve.beta is not None:
                argv += ["--beta", str(field.code(curve.beta))]
            for fmt in ("text", "json"):
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert err == (f"note: {note}\n" if note else "")
                outputs.append(f"{code}\n{out}")
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == _LPOLY_DIGESTS[q]


class TestFamilyAndBound:
    def test_family_rows(self, capsys):
        code, out, _ = run(
            capsys, "family", "--p", "5", "--n", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 4
        assert all(len(r) == 4 for r in data["rows"])

    def test_family_index_must_not_be_negative(self, capsys):
        code, _, err = run(capsys, "family", "--p", "5", "--n", "5", "--index", "-1")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize(
        "p,poly,err",
        [
            ("5", "1,1,0,0,0,1", "error: --poly 1,1,0,0,0,1 has the root 2 in F_5\n"),
            ("4", "1,1,1", "error: p must be an odd prime\n"),
            ("9", "2,0,1", "error: p must be an odd prime\n"),
            ("2", "1,1,1", "error: p must be an odd prime\n"),
            ("5", "2,0,1,0", "error: the top coefficient of --poly 2,0,1,0 vanishes mod 5\n"),
            ("5", "2,0,1,5", "error: the top coefficient of --poly 2,0,1,5 vanishes mod 5\n"),
            ("5", "2,0,1", "error: --poly 2,0,1 has degree 2, not --n 5\n"),
        ],
        ids=["root", "p4", "p9", "p2", "top_zero", "top_multiple_of_p", "degree_not_n"],
    )
    def test_family_poly_is_refused(self, capsys, p, poly, err):
        assert run(capsys, "family", "--p", p, "--n", "5", "--poly", poly) == (2, "", err)

    def test_family_poly_root_at_zero_is_allowed(self, capsys):
        # the rows evaluate f at units only, so x**3 + x over F_7 builds a family
        code, out, _ = run(capsys, "family", "--p", "7", "--n", "3", "--poly", "0,1,0,1")
        assert code == 0
        assert out.splitlines()[1] == "+1 -1 +1 -1 +1 -1"

    def test_bound_strictness(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "5", "--n", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert int(data["distinct_families"]) < int(data["bound"])


class TestContracts:
    def test_byte_identical_reruns(self, capsys):
        args = ("table", "--p", "3", "--r", "2", "--n-min", "2", "--n-max", "6",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_composite_characteristic_exit_two(self, capsys):
        code, _, err = run(capsys, "count", "--p", "6", "--r", "1", "--n", "2")
        assert code == 2
        assert "prime" in err

    def test_env_budget_cap(self, capsys, monkeypatch):
        # small enough to block even the curve-count seeding at m = 1
        monkeypatch.setenv(ENV_BUDGET, "5")
        code, _, err = run(capsys, "count", "--p", "3", "--r", "2", "--n", "5")
        assert code == 2
        assert "exceed" in err

    def test_cap_refused_before_the_curve_family(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an array was made before the element cap check")

        monkeypatch.setattr("tracezero.counting.c_order", refuse)
        monkeypatch.setattr("tracezero.counting.class_point_counts", refuse)
        code, out, err = run(
            capsys, "count", "--p", "2", "--r", "18", "--n", "3", "--max-elements", "100"
        )
        assert (code, out) == (2, "")
        assert err == "error: 262144**1 elements exceed the cap 100\n"

    def test_formula_path_outruns_the_enumeration_cap(self, capsys, monkeypatch):
        # the closed form needs no big enumeration, so a cap that admits the
        # genus-seeding counts still lets far larger n through
        monkeypatch.setenv(ENV_BUDGET, "100")
        code, out, _ = run(
            capsys, "count", "--p", "3", "--r", "2", "--n", "40", "--format", "json"
        )
        assert code == 0
        assert int(json.loads(out)["f_count"]) > 9**37

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_budget_flag_must_be_positive(self, capsys, cap):
        # a non-positive cap is a usage error, never the silent default
        with pytest.raises(SystemExit) as exc:
            main(["count", "--p", "2", "--r", "1", "--n", "2", "--max-elements", cap])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--p", "2", "--max-n", "0"),
            ("curve", "--p", "2", "--alpha", "1", "--m-max", "0"),
        ],
    )
    def test_degree_flags_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_env_budget_must_be_integral(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_BUDGET, "many")
        code, _, err = run(capsys, "count", "--p", "2", "--r", "1", "--n", "2")
        assert code == 2

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        import tracezero.cli as cli_mod
        from tracezero.errors import NonIntegralError

        class Broken:
            def __init__(self, *a, **k):
                raise NonIntegralError("forced")

        monkeypatch.setattr(cli_mod, "CountEngine", Broken)
        code, _, err = run(capsys, "count", "--p", "2", "--r", "1", "--n", "2")
        assert code == 3
        assert "invariant" in err

    @pytest.mark.parametrize(
        "r,modulus",
        [
            pytest.param("2", "1,1", id="wrong_degree"),
            pytest.param("2", "1,1,0", id="not_monic"),
            pytest.param("2", "2,1,1", id="unreduced_coefficient"),
            pytest.param("2", "1,0,1", id="reducible"),
            pytest.param("1", "1,1", id="not_the_prime_field_placeholder"),
        ],
    )
    def test_explicit_modulus_must_be_irreducible(self, capsys, r, modulus):
        code, _, err = run(
            capsys,
            "count", "--p", "2", "--r", r, "--n", "2", "--modulus", modulus,
        )
        assert code == 2
