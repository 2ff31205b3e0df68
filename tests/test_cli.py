"""CLI contract tests: exit codes, exact serialisation, determinism."""

import contextlib
import csv
import io
import json
import sys
import time
from fractions import Fraction
from itertools import compress
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multsidon.density
import multsidon.oracle
import multsidon.pair_sidon
import multsidon.cli
from multsidon import build_path_decomposition, construct_extremal_set, path_alpha, reduce_pair
from multsidon.cli import (
    MAX_CHECK_WORK,
    MAX_EMPIRICAL_N,
    MAX_EPS_EXPONENT,
    MAX_PAIR_N,
    MAX_SET_BYTES,
    MAX_SET_MEMBERS,
    MAX_VERIFIED_N,
    _member_text,
    main,
)
from multsidon.rational import format_rational, truncated_decimal

from claims import coprime_triples, extremal_members


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRationalHelpers:
    def test_format_includes_unit_denominator(self):
        assert format_rational(Fraction(1)) == "1/1"
        assert format_rational(Fraction(2, 3)) == "2/3"

    def test_parse_roundtrip(self):
        for value in (Fraction(2, 3), Fraction(125, 288), Fraction(7)):
            assert Fraction(format_rational(value)) == value

    def test_truncation(self):
        assert truncated_decimal(Fraction(2, 3), 4) == "0.6666"
        assert truncated_decimal(Fraction(1, 4), 2) == "0.25"
        assert truncated_decimal(Fraction(5), 0) == "5"
        assert truncated_decimal(Fraction(1, 1000), 2) == "0.00"


class TestPairDensity:
    def test_double_free(self, capsys):
        report = run_json(capsys, "pair-density", "--a", "1", "--b", "2")
        assert report["density"] == "2/3"
        assert report["g"] == 1

    def test_two_three(self, capsys):
        report = run_json(capsys, "pair-density", "--a", "2", "--b", "3")
        assert report["density"] == "3/4"
        assert Fraction(report["density"]) == Fraction(3, 4)

    def test_equal_pair_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pair-density", "--a", "3", "--b", "3")
        assert code == 2
        assert err

    @pytest.mark.parametrize("digits", ["100000000", "4001", "-1"])
    def test_unbounded_digits_exit_2_at_once(self, capsys, digits):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["pair-density", "--a", "2", "--b", "3", "--digits", digits])
        assert time.perf_counter() - start < 5
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"argument --digits: must be an integer in [0, 4000]: '{digits}'"
        )

    def test_digit_bound_is_inclusive(self, capsys):
        report = run_json(capsys, "pair-density", "--a", "2", "--b", "3", "--digits", "4000")
        assert report["decimal"] == "0.75" + "0" * 3998


class TestPairConstruct:
    def test_cardinality(self, capsys):
        report = run_json(capsys, "pair-construct", "--a", "2", "--b", "3", "--n", "10")
        assert report["cardinality"] == 8
        assert report["members"] == [1, 2, 4, 5, 7, 8, 9, 10]

    def test_verify_reduced_pair(self, capsys):
        report = run_json(
            capsys, "pair-construct", "--a", "2", "--b", "4", "--n", "10", "--verify"
        )
        assert report["verified"] is True
        other = run_json(capsys, "pair-construct", "--a", "1", "--b", "2", "--n", "10")
        assert report["members"] == other["members"]

    def test_zero_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair-construct", "--a", "2", "--b", "3", "--n", "0"])
        assert exc.value.code == 2

    @staticmethod
    def assert_verify_fails_silently(capsys, reason):
        for fmt in ("json", "csv", "plain"):
            code, out, err = run_cli(
                capsys, "pair-construct", "--a", "2", "--b", "3", "--n", "10", "--verify",
                "--format", fmt,
            )
            assert code == 3, fmt
            assert out == "", fmt
            assert "verification failed" in err and reason in err, fmt

    def test_broken_invariant_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(multsidon.pair_sidon, "path_alpha", lambda d: -1)
        self.assert_verify_fails_silently(capsys, "path optimum -1")

    def test_condition_violation_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            multsidon.pair_sidon, "is_pair_multiplicative", lambda members, params: False
        )
        self.assert_verify_fails_silently(capsys, "defining condition")

    def test_plain_format_reports_cardinality(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair-construct", "--a", "2", "--b", "3", "--n", "10",
            "--format", "plain",
        )
        assert code == 0
        assert "cardinality 8" in out

    def test_plain_format_verified(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair-construct", "--a", "4", "--b", "6", "--n", "10",
            "--verify", "--format", "plain",
        )
        assert code == 0
        assert out == "extremal set for a=4, b=6, n=10: cardinality 8 (verified)\n"

    def test_csv_format_lists_members_in_json_order(self, capsys):
        argv = ("pair-construct", "--a", "2", "--b", "3", "--n", "10", "--verify")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "member"
        members = run_json(capsys, *argv)["members"]
        assert lines[1:] == [str(m) for m in members]
        assert lines[1:] == ["1", "2", "4", "5", "7", "8", "9", "10"]
        reference = io.StringIO()
        writer = csv.DictWriter(reference, fieldnames=["member"])
        writer.writeheader()
        writer.writerows({"member": m} for m in members)
        assert out == reference.getvalue()

    @pytest.mark.parametrize(
        "n", [1, 2, 9, 10, 11, 999, 1000, 1001, 2000, 3001, 9999, 10000, 10001]
    )
    @pytest.mark.parametrize("a,b", [(4, 6), (1, 2), (2, 3), (3, 5)])
    def test_members_equal_library_renderings(self, capsys, a, b, n):
        """Whole stdout, json and csv, with and without --verify, against
        json.dumps and csv.DictWriter on the member list."""
        members = list(extremal_members(construct_extremal_set(reduce_pair(a, b), n)))
        reference = io.StringIO()
        writer = csv.DictWriter(reference, fieldnames=["member"])
        writer.writeheader()
        writer.writerows({"member": m} for m in members)
        for verify in ((), ("--verify",)):
            argv = ("pair-construct", "--a", str(a), "--b", str(b), "--n", str(n), *verify)
            report = {"command": "pair-construct", "a": a, "b": b, "n": n,
                      "cardinality": len(members), "members": members}
            if verify:
                report["verified"] = True
            expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
            assert run_cli(capsys, *argv) == (0, expected, ""), verify
            assert run_cli(capsys, *argv, "--format", "csv") == (0, reference.getvalue(), ""), verify

    def test_n_above_limit_exits_2_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("nothing may be built above the limit")

        for name in ("construct_extremal_set", "build_path_decomposition"):
            monkeypatch.setattr(multsidon.pair_sidon, name, refuse)
        code, out, err = run_cli(
            capsys, "pair-construct", "--a", "2", "--b", "3",
            "--n", str(MAX_PAIR_N + 1), "--verify",
        )
        assert MAX_PAIR_N == 10**7
        assert code == 2
        assert out == ""
        assert str(MAX_PAIR_N) in err


class TestTripleDensity:
    def test_certified_two_three_five(self, capsys):
        report = run_json(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--eps", "5e-5",
        )
        lower = Fraction(report["lower"])
        upper = Fraction(report["upper"])
        assert lower <= upper <= lower + Fraction(1, 20000)
        assert Fraction(report["delta_complete"]) == Fraction(125, 288)
        assert upper - lower == Fraction(report["tail_bound"])

    def test_converge_mode(self, capsys):
        report = run_json(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--mode", "converge", "--digits", "4",
        )
        assert report["decimal"] == "0.7292"
        assert report["d"] >= 1

    @pytest.mark.parametrize("flags", [("--eps", "1e-3"), ("--d", "7"),
                                       ("--eps", "1e-3", "--d", "7")])
    def test_converge_mode_refuses_eps_and_d_before_any_work(self, capsys, monkeypatch, flags):
        def refuse(*args):
            raise AssertionError("converge mode may not run with --eps or --d")

        monkeypatch.setattr(multsidon.cli, "convergence_estimate", refuse)
        code, out, err = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--mode", "converge", "--digits", "4", *flags,
        )
        assert (code, out) == (2, "")
        assert "converge mode takes neither --eps nor --d" in err

    def test_forced_cutoff(self, capsys):
        report = run_json(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5", "--d", "8"
        )
        assert report["d"] == 8
        assert report["eps"] == report["tail_bound"]

    def test_forced_cutoff_keeps_sufficient_eps(self, capsys):
        report = run_json(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--d", "10", "--eps", "1/10",
        )
        assert report["eps"] == "1/10"
        assert report["tail_bound"] == "41/640"

    def test_forced_cutoff_with_uncertified_eps_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--d", "10", "--eps", "1e-9",
        )
        assert code == 2
        assert out == ""
        assert "1/1000000000" in err and "41/640" in err

    def test_forced_cutoff_with_negative_eps_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--d", "10", "--eps", "-1",
        )
        assert code == 2
        assert out == ""
        assert "-1" in err and "41/640" in err

    def test_unstable_estimate_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(multsidon.density, "MAX_CUTOFF", 3)
        code, out, err = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5",
            "--mode", "converge", "--digits", "12",
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "cutoff 3" in err

    @pytest.mark.parametrize(
        "argv, cutoff",
        [
            (("triple-density", "--a", "2", "--b", "3", "--c", "5", "--eps", "1e-100000"),
             332229),
            (("triple-density", "--a", "2", "--b", "3", "--c", "5", "--d", "100000"), 100000),
            (("triple-table", "--eps", "1e-1000"), 3345),
        ],
    )
    def test_cutoff_above_limit_exits_2_at_once(self, capsys, argv, cutoff):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert f"cutoff {cutoff} " in err and f"[0, {multsidon.density.MAX_CUTOFF}]" in err

    @pytest.mark.parametrize("command", ["triple-density", "triple-table"])
    @pytest.mark.parametrize("eps", ["1e-10000000", "1e-100000000", "1e100000000"])
    def test_huge_eps_exponent_exits_2_at_once(self, capsys, command, eps):
        argv = (command, "--eps", eps)
        if command == "triple-density":
            argv += ("--a", "2", "--b", "3", "--c", "5")
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --eps: decimal exponent of '{eps}' exceeds {MAX_EPS_EXPONENT} in magnitude"
        )

    def test_eps_exponent_limit_is_inclusive(self, capsys):
        base = ("triple-density", "--a", "2", "--b", "3", "--c", "5", "--eps")
        code, out, err = run_cli(capsys, *base, f"1e-{MAX_EPS_EXPONENT}")
        assert (code, out) == (2, "") and "cutoff 332229 " in err
        with pytest.raises(SystemExit) as exc:
            main([*base, f"1E-{MAX_EPS_EXPONENT + 1}"])
        assert exc.value.code == 2 and "exponent" in capsys.readouterr().err
        assert run_json(capsys, *base, "5E-5")["eps"] == "1/20000"

    def test_cutoff_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(multsidon.density, "MAX_CUTOFF", 10)
        base = ("triple-density", "--a", "2", "--b", "3", "--c", "5")
        # tail_bound is 41/640 at d = 10 and 73/1920 at d = 11
        assert run_json(capsys, *base, "--d", "10")["d"] == 10
        assert run_json(capsys, *base, "--eps", "41/640")["d"] == 10
        for option, value in (("--d", "11"), ("--eps", "73/1920")):
            code, out, err = run_cli(capsys, *base, option, value)
            assert (code, out) == (2, "")
            assert "cutoff 11 " in err and "[0, 10]" in err

    @pytest.mark.parametrize(
        "argv, cutoff",
        [
            (("--a", "997", "--b", "998", "--c", "999", "--d", "500"), 500),
            (("--a", "2", "--b", "3", "--c", "1" + "0" * 49 + "1", "--eps", "1e-40"), 147),
        ],
    )
    def test_unprintable_certificate_exits_2_at_once(self, capsys, monkeypatch, argv, cutoff):
        def refuse(*args):
            raise AssertionError("the kernel may not run for an unprintable certificate")

        monkeypatch.setattr(multsidon.density, "delta_small", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "triple-density", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert f"cutoff {cutoff} " in err and "limit of 4300 digits on printing an int" in err

    def test_converge_mode_stops_before_an_unprintable_cutoff(self, capsys, monkeypatch):
        monkeypatch.setattr(multsidon.density, "STABLE_STEPS", 10**6)
        code, out, err = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "1" + "0" * 49 + "1",
            "--mode", "converge", "--digits", "12",
        )
        assert (code, out) == (2, "")
        assert "cutoff 82 " in err and "limit of 4300 digits" in err

    def test_non_coprime_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "4", "--c", "5",
            "--eps", "1e-3",
        )
        assert code == 2
        assert err

    def test_certified_without_eps_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "triple-density", "--a", "2", "--b", "3", "--c", "5"
        )
        assert code == 2


class TestTripleTable:
    def test_rows_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "triple-table", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        by_triple = {(int(r["a"]), int(r["b"]), int(r["c"])): r for r in rows}
        assert by_triple[(2, 5, 7)]["estimate"] == "0.8235"
        assert by_triple[(3, 5, 8)]["estimate"] == "0.8212"
        assert by_triple[(2, 5, 9)]["estimate"] == "0.8187"
        for row in rows:
            lower = Fraction(row["lower"])
            upper = Fraction(row["upper"])
            assert upper - lower <= Fraction(1, 20000)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "triple-table", "--format", "json")
        _, second, _ = run_cli(capsys, "triple-table", "--format", "json")
        assert first == second


class TestEmpirical:
    def test_n_one(self, capsys):
        report = run_json(
            capsys, "empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "1"
        )
        assert report["ratio"] == "1/1"

    def test_verified_run(self, capsys):
        report = run_json(
            capsys, "empirical", "--a", "2", "--b", "3", "--c", "5",
            "--n", "1000", "--verify-upto", "5000",
        )
        assert report["verified"] is True
        assert report["alpha"] == 728
        assert Fraction(report["ratio"]) == Fraction(728, 1000)

    def test_verified_and_block_sum_agree(self, capsys):
        argv = ("empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "3000")
        verified = run_json(capsys, *argv, "--verify-upto", "3000")
        fast = run_json(capsys, *argv, "--verify-upto", "0")
        assert verified["verified"] is True and fast["verified"] is False
        del verified["verified"], fast["verified"]
        assert verified == fast

    def test_wrong_rising_value_sum_exits_3(self, capsys, monkeypatch):
        count = multsidon.oracle.admissible_count
        monkeypatch.setattr(multsidon.oracle, "admissible_count",
                            lambda params, limit: count(params, limit) + (limit == 300))
        for fmt in ("json", "csv", "plain"):
            code, out, err = run_cli(
                capsys, "empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "300",
                "--verify-upto", "300", "--format", fmt,
            )
            assert (code, out) == (3, ""), fmt
            assert err.startswith("verification failed: ") and "rising-value sum" in err, fmt

    def test_parity_and_matching_disagreement_exits_3(self, capsys, monkeypatch):
        matcher = multsidon.oracle._matched_alphas
        # the matcher finds one more independent cell on the third prefix of each height
        monkeypatch.setattr(multsidon.oracle, "_matched_alphas",
                            lambda cells: [alpha + (k == 3)
                                           for k, alpha in enumerate(matcher(cells), 1)])
        for fmt in ("json", "csv", "plain"):
            code, out, err = run_cli(
                capsys, "empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "300",
                "--verify-upto", "300", "--format", fmt,
            )
            assert (code, out) == (3, ""), fmt
            assert err.startswith("verification failed: height 1, first 3 cells: parity alpha 2 "
                                  "!= matching alpha 3"), fmt

    def test_matcher_with_too_few_alphas_exits_3(self, capsys, monkeypatch):
        matcher = multsidon.oracle._matched_alphas
        monkeypatch.setattr(multsidon.oracle, "_matched_alphas", lambda cells: matcher(cells)[:-1])
        code, out, err = run_cli(capsys, "empirical", "--a", "2", "--b", "3", "--c", "5",
                                 "--n", "300", "--verify-upto", "300")
        assert (code, out) == (3, "")
        assert err == ("verification failed: height 0, first 1 cells: parity alpha 1 "
                       "!= matching alpha None\n")

    def test_billion(self, capsys):
        report = run_json(
            capsys, "empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "1000000000"
        )
        n = 10**9
        assert report["n"] == n
        assert report["alpha"] == Fraction(report["ratio"]) * n
        assert 0 < report["alpha"] <= n

    @pytest.mark.parametrize(
        "n, verify_upto, limit",
        [
            (10**16, 0, MAX_EMPIRICAL_N),
            (MAX_EMPIRICAL_N + 1, 0, MAX_EMPIRICAL_N),
            (MAX_VERIFIED_N + 1, MAX_VERIFIED_N + 1, MAX_VERIFIED_N),
            (10**9, 10**12, MAX_VERIFIED_N),
        ],
    )
    def test_n_above_limit_exits_2_before_any_work(self, capsys, monkeypatch, n, verify_upto,
                                                     limit):
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may be computed above the limit")

        monkeypatch.setattr(multsidon.cli, "empirical_density", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "empirical", "--a", "2", "--b", "3", "--c", "5",
            "--n", str(n), "--verify-upto", str(verify_upto),
        )
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert f"--n {n} " in err and str(limit) in err
        assert (MAX_EMPIRICAL_N, MAX_VERIFIED_N) == (10**12, 10**5)

    def test_limits_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(multsidon.cli, "MAX_EMPIRICAL_N", 1000)
        monkeypatch.setattr(multsidon.cli, "MAX_VERIFIED_N", 100)
        base = ("empirical", "--a", "2", "--b", "3", "--c", "5")
        assert run_json(capsys, *base, "--n", "1000")["verified"] is False
        assert run_json(capsys, *base, "--n", "100", "--verify-upto", "100")["verified"] is True
        # above the verify limit, a run is accepted as long as it is not verified
        assert run_json(capsys, *base, "--n", "101", "--verify-upto", "100")["verified"] is False
        for n, verify_upto, limit in (("1001", "0", "1000"), ("101", "101", "100")):
            code, out, err = run_cli(capsys, *base, "--n", n, "--verify-upto", verify_upto)
            assert (code, out) == (2, "")
            assert f"--n {n} " in err and f"limit of {limit} " in err

    @pytest.mark.parametrize(
        "a, b, c, alpha",
        [
            # c > a * n, so only the (2,3) pair has edges: 3/4 of n
            (2, 3, 10**4200 + 1, 750_000_000_000),
            # b > a * n as well: no edge at all
            (5, 10**4299 + 1, 10**4299 + 3, 10**12),
        ],
        ids=["c=10^4200+1", "b,c=10^4299+1,+3"],
    )
    def test_huge_bases_run_at_once(self, capsys, a, b, c, alpha):
        start = time.perf_counter()
        report = run_json(
            capsys, "empirical", "--a", str(a), "--b", str(b), "--c", str(c), "--n", str(10**12)
        )
        assert time.perf_counter() - start < 1
        assert report["alpha"] == alpha

    @settings(max_examples=30, deadline=None)
    @given(triple=coprime_triples(), n=st.integers(1, 10**6))
    @example(triple=(2, 3, 5), n=10**6)
    def test_c_above_a_n_gives_the_pair_optimum(self, triple, n):
        # no cx = ay within [n] once c > a * n, so G_n is the {a},{b} graph
        a, b, _ = triple
        c = a * b * n + 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["empirical", "--a", str(a), "--b", str(b), "--c", str(c), "--n", str(n)])
        assert code == 0
        report = json.loads(out.getvalue())
        pair = build_path_decomposition(reduce_pair(a, b), n)
        assert report["alpha"] == path_alpha(pair)

    def test_negative_verify_upto_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["empirical", "--a", "2", "--b", "3", "--c", "5", "--n", "10",
                  "--verify-upto", "-5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            "argument --verify-upto: must be a non-negative integer: '-5'"
        )


class TestCheckSet:
    def write(self, tmp_path, lines):
        path = tmp_path / "set.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="ascii")
        return str(path)

    def test_valid_set(self, capsys, tmp_path):
        path = self.write(tmp_path, [1, 4, 9])
        report = run_json(capsys, "check-set", "--A", "2", "--B", "3,5",
                          "--set-file", path)
        assert report["multiplicative"] is True
        assert report["witness"] is None

    def test_violation(self, capsys, tmp_path):
        path = self.write(tmp_path, [3, 2])
        report = run_json(capsys, "check-set", "--A", "2", "--B", "3,5",
                          "--set-file", path)
        assert report["multiplicative"] is False
        assert report["witness"] == {"a": 2, "b": 3, "x": 3, "y": 2}

    def test_violation_with_a_product_past_the_digit_limit(self, capsys, tmp_path):
        # a*x = 10**4350 has more digits than int-to-str converts; no format prints it
        path = self.write(tmp_path, [10**4250, 10**4150])
        argv = ("check-set", "--A", str(10**100), "--B", str(10**200), "--set-file", path)
        assert run_json(capsys, *argv)["witness"] == {
            "a": 10**100, "b": 10**200, "x": 10**4250, "y": 10**4150}
        witness = f"{10**100}*{10**4250} = {10**200}*{10**4150}"
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert list(csv.DictReader(io.StringIO(out)))[0]["witness"] == witness
        code, out, err = run_cli(capsys, *argv, "--format", "plain")
        assert (code, out) == (0, f"violation: {witness}\n"), err

    def test_empty_file(self, capsys, tmp_path):
        path = self.write(tmp_path, [])
        report = run_json(capsys, "check-set", "--A", "2", "--B", "3,5",
                          "--set-file", path)
        assert report["multiplicative"] is True

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [1, "noise", 9])
        code, _, err = run_cli(capsys, "check-set", "--A", "2", "--B", "3,5",
                               "--set-file", path)
        assert code == 2
        assert "noise" in err

    @pytest.mark.parametrize("data, line", [(b"\xff\n", 1), (b"1\n4\r\n9\xff\n", 3)])
    def test_non_ascii_line_exits_2_with_its_number(self, capsys, tmp_path, data, line):
        path = tmp_path / "set.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "check-set", "--A", "2", "--B", "3,5",
                                 "--set-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}:{line}: not ascii: b'")

    def test_blank_lines_are_skipped(self, capsys, tmp_path):
        path = self.write(tmp_path, ["", 1, " ", 4, "\t", 9, ""])
        report = run_json(capsys, "check-set", "--A", "2", "--B", "3,5", "--set-file", path)
        assert (report["size"], report["multiplicative"]) == (3, True)

    def test_nonpositive_value_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [1, 0])
        code, _, _ = run_cli(capsys, "check-set", "--A", "2", "--B", "3,5",
                             "--set-file", path)
        assert code == 2

    @pytest.mark.parametrize(
        "members, A, B, message",
        [
            (11, "2", "3", "has more than 10 lines, one per member"),
            (4, "2,4", "3,5", "|A| * |B| * |set| = 16 exceeds the limit of 15"),
            (20, "2", "3", "is larger than 30 bytes"),  # 51 bytes, refused before parsing
        ],
    )
    def test_limits_exit_2_before_the_search(self, capsys, monkeypatch, tmp_path, members, A, B,
                                             message):
        def refuse(*args):
            raise AssertionError("the witness search may not run above the limits")

        monkeypatch.setattr(multsidon.cli, "general_multiplicative_witness", refuse)
        monkeypatch.setattr(multsidon.cli, "MAX_SET_BYTES", 30)
        monkeypatch.setattr(multsidon.cli, "MAX_SET_MEMBERS", 10)
        monkeypatch.setattr(multsidon.cli, "MAX_CHECK_WORK", 15)
        path = self.write(tmp_path, range(1, members + 1))
        code, out, err = run_cli(capsys, "check-set", "--A", A, "--B", B, "--set-file", path)
        assert (code, out) == (2, "")
        assert message in err
        assert (MAX_SET_BYTES, MAX_SET_MEMBERS, MAX_CHECK_WORK) == (4 * 10**6, 10**6, 2 * 10**6)

    def test_long_members_are_refused_before_the_search(self, capsys, monkeypatch, tmp_path):
        """500 members of 4000 digits make only 38 * 38 * 500 = 722,000 steps, but
        each step multiplies and divides a 13,288-bit number: 208 words of 64 bits."""

        def refuse(*args):
            raise AssertionError("the witness search may not run above the limits")

        monkeypatch.setattr(multsidon.cli, "general_multiplicative_witness", refuse)
        path = self.write(tmp_path, (10**3999 + k for k in range(500)))
        A = ",".join(map(str, range(2, 40)))
        B = ",".join(map(str, range(41, 79)))
        code, out, err = run_cli(capsys, "check-set", "--A", A, "--B", B, "--set-file", path)
        assert (code, out) == (2, "")
        assert f"|A| * |B| * |set| = {38 * 38 * 500 * 208} exceeds the limit of 2000000" in err
        assert "each number counted once per 64 bits, rounded up" in err

    @pytest.mark.parametrize(
        "members, A, B, holds",
        [
            ([2**64 - 1], "2", "3", True),  # 64 bits: one word
            ([2**64, 3], "2", "3", None),  # 65 bits: two words, 3 in all
            ([2**64], "2", "3", True),
            ([1], str(2**64), "3", True),
            ([5], str(2**64), "3,7", None),
        ],
    )
    def test_work_counts_each_number_once_per_64_bits(self, capsys, monkeypatch, tmp_path,
                                                        members, A, B, holds):
        monkeypatch.setattr(multsidon.cli, "MAX_CHECK_WORK", 2)
        path = self.write(tmp_path, members)
        code, out, err = run_cli(capsys, "check-set", "--A", A, "--B", B, "--set-file", path)
        if holds is None:
            assert (code, out) == (2, "")
            assert "exceeds the limit of 2" in err
        else:
            assert code == 0 and json.loads(out)["multiplicative"] is holds


    def test_limits_are_inclusive(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(multsidon.cli, "MAX_SET_BYTES", 21)
        monkeypatch.setattr(multsidon.cli, "MAX_SET_MEMBERS", 10)
        monkeypatch.setattr(multsidon.cli, "MAX_CHECK_WORK", 40)
        # 10 lines in 21 bytes, and duplicates in A and B count once: 2 * 2 * 10 = 40
        path = self.write(tmp_path, range(1, 11))
        report = run_json(capsys, "check-set", "--A", "7,7,11", "--B", "13,13,17",
                          "--set-file", path)
        assert report["multiplicative"] is True and report["size"] == 10

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "check-set", "--A", "2", "--B", "3,5",
                             "--set-file", str(tmp_path / "missing.txt"))
        assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ("check-set --A 2,x --B 3 --set-file set.txt",
         "argument --A: not a comma-separated integer list: '2,x'"),
        ("check-set --A 2 --B , --set-file set.txt", "argument --B: need positive integers: ','"),
        ("triple-table --eps 1ex", "argument --eps: not a rational number: '1ex'"),
        ("triple-density --a 2 --b 3 --c 5 --eps 1/0",
         "argument --eps: not a rational number: '1/0'"),
        # only the commands that print a decimal take --digits
        ("pair-construct --a 2 --b 3 --n 10 --digits 3", "unrecognized arguments: --digits 3"),
        ("check-set --A 2 --B 3 --set-file set.txt --digits 3",
         "unrecognized arguments: --digits 3"),
    ],
)
def test_malformed_argument_exits_2_at_parse(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(message)


class TestPatchContract:
    """Each command reads these names on multsidon.cli when it runs, so a patch there is called.

    The four layer functions stand in for their home modules' until called, so
    that importing the CLI loads no layer.
    """

    @pytest.mark.parametrize(
        "name, command",
        [
            ("approximate_density", "triple-density --a 2 --b 3 --c 5 --eps 1e-6"),
            ("convergence_estimate", "triple-density --a 2 --b 3 --c 5 --mode converge"),
            ("empirical_density", "empirical --a 2 --b 3 --c 5 --n 1000"),
            ("general_multiplicative_witness", "check-set --A 2 --B 3 --set-file SET_FILE"),
            ("format_rational", "pair-density --a 2 --b 3"),
            ("truncated_decimal", "pair-density --a 2 --b 3"),
        ],
    )
    def test_command_calls_the_patched_name(self, capsys, monkeypatch, tmp_path, name, command):
        set_file = tmp_path / "set.txt"
        set_file.write_text("1\n2\n", encoding="ascii")
        argv = [str(set_file) if arg == "SET_FILE" else arg for arg in command.split()]
        expected = run_cli(capsys, *argv)
        original = getattr(multsidon.cli, name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(multsidon.cli, name, recording)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0 and calls


class TestJsonRoundTrip:
    def test_every_rational_field_parses_back(self, capsys):
        report = run_json(
            capsys, "triple-density", "--a", "3", "--b", "5", "--c", "7",
            "--eps", "1/1000",
        )
        for key in ("eps", "delta_complete", "delta_small", "tail_bound",
                    "lower", "upper"):
            value = Fraction(report[key])
            assert format_rational(value) == report[key]


def plain_and_json(argv: list[str]) -> tuple[str, dict]:
    """One command's --format plain text and its json report, each from its own run."""
    texts = []
    for fmt in ("plain", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0
        texts.append(out.getvalue())
    return texts[0], json.loads(texts[1])


@st.composite
def small_triples(draw) -> tuple[int, int, int]:
    """Pairwise coprime 1 < a < b < c <= 40."""
    a = draw(st.integers(2, 6))
    b = draw(st.integers(a + 1, 20).filter(lambda b: gcd(a, b) == 1))
    c = draw(st.integers(b + 1, 40).filter(lambda c: gcd(a * b, c) == 1))
    return a, b, c


class TestPlainMatchesJson:
    """Every rational and decimal in a plain line equals its json field."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 40))
    def test_pair_density(self, a, delta, digits):
        plain, report = plain_and_json(
            ["pair-density", "--a", str(a), "--b", str(a + delta), "--digits", str(digits)])
        assert plain == (
            f"maximum density for a={report['a']}, b={report['b']} (gcd {report['g']}): "
            f"{report['density']} = {report['decimal']} "
            f"(truncated to {report['decimal_digits']} digits)\n"
        )
        assert report["decimal_digits"] == digits

    @settings(max_examples=30, deadline=None)
    @given(small_triples(), st.one_of(st.integers(1, 30).map(lambda k: ["--eps", f"1e-{k}"]),
                                      st.integers(0, 30).map(lambda d: ["--d", str(d)])),
           st.integers(0, 40))
    def test_certified_triple_density(self, triple, precision, digits):
        a, b, c = triple
        plain, report = plain_and_json(["triple-density", "--a", str(a), "--b", str(b),
                                        "--c", str(c), *precision, "--digits", str(digits)])
        width = truncated_decimal(Fraction(report["tail_bound"]), digits)
        assert plain == (
            f"certified interval for ({a},{b},{c}) at cutoff {report['d']}:\n"
            f"  lower {report['lower']} = {report['lower_decimal']}\n"
            f"  upper {report['upper']} = {report['upper_decimal']}\n"
            f"  width <= {width} ({report['decimal_digits']} digits, truncated)\n"
        )
        assert report["decimal_digits"] == digits

    @settings(max_examples=30, deadline=None)
    @given(small_triples(), st.integers(1, 3000), st.booleans(), st.integers(0, 40))
    def test_empirical(self, triple, n, verify, digits):
        a, b, c = triple
        plain, report = plain_and_json(
            ["empirical", "--a", str(a), "--b", str(b), "--c", str(c), "--n", str(n),
             "--verify-upto", str(n if verify else 0), "--digits", str(digits)])
        assert plain == (
            f"alpha(G_{n}) / {n} = {report['ratio']} = {report['decimal']} "
            f"(truncated to {report['decimal_digits']} digits)"
            + (" [components cross-checked]" if report["verified"] else "") + "\n"
        )
        assert (report["verified"], report["decimal_digits"]) == (verify, digits)


@st.composite
def member_masks(draw):
    """0/1 byte masks with mask[0] == 0, of 1..5000 bytes, from empty to full."""
    size = draw(st.integers(1, 5000))
    density = draw(st.sampled_from([0.0, 0.0005, 0.01, 0.5, 0.99, 1.0]))
    rng = draw(st.randoms(use_true_random=True))
    return bytes([0] + [rng.random() < density for _ in range(size - 1)])


def joined_members(mask: bytes, sep: str) -> bytes:
    return sep.join(map(str, compress(range(len(mask)), mask))).encode()


class TestMemberText:
    """The mask renderer against str and join on the ints it selects, between head and tail."""

    @settings(max_examples=150, deadline=None)
    @given(member_masks(), st.sampled_from([",\n    ", "\r\n", ", ", ""]))
    @example(b"\x00" + b"\x01" * 998, ",\n    ")
    @example(b"\x00" + b"\x01" * 999, ",\n    ")
    @example(b"\x00" + b"\x01" * 1000, "\r\n")
    @example(b"\x00" * 1001 + b"\x01", "\r\n")
    @example(b"\x00" * 2000 + b"\x01", ", ")
    @example(b"\x00" + b"\x01" + b"\x00" * 1998 + b"\x01", ", ")  # an empty block between
    @example(b"\x00" * 100 + b"\x01", ",\n    ")  # 100, the first member past block 0
    @example(b"\x00" * 100 + b"\x01" * 5, "")
    @example(b"\x00" * 101 + b"\x01", "\r\n")  # 101: "1" then the padded "01"
    @example(b"\x00" + b"\x01" * 100, ", ")  # a mask of 101 bytes, 1 past a block
    @example(b"\x00" + b"\x01" * 249, "\r\n")  # ends inside block 2
    @example(b"\x00" + b"\x01" * 249, "")
    @example(b"\x00", "")  # no member at all
    @example(b"\x00" + b"\x01" * 99, "")
    @example(b"\x00" * 150 + b"\x01" + b"\x00" * 99, "")
    def test_equals_join_of_str(self, mask, sep):
        expected = joined_members(mask, sep)
        assert _member_text(mask, sep.encode(), b"", b"") == expected
        assert _member_text(mask, sep.encode(), b"[\n", b"]\r\n") == b"[\n" + expected + b"]\r\n"

    @pytest.mark.parametrize("x", [1000, 10**4, 10**5])
    @pytest.mark.parametrize("sep", [",\n    ", ""])
    def test_a_repeated_block_across_a_longer_prefix(self, x, sep):
        """One 100-block pattern before and after x, where str(x // 100) gains a digit."""
        pattern = bytes(r % 3 == 0 or r in (1, 98, 99) for r in range(100))
        mask = b"\x00" + (pattern * (x // 100 + 3))[1 : x + 250]
        assert len({mask[q : q + 100] for q in range(100, len(mask) - 99, 100)}) == 1
        assert _member_text(mask, sep.encode(), b"", b"") == joined_members(mask, sep)

    @pytest.mark.parametrize("a, b", [(2, 3), (1, 2), (5, 11), (1, 1009)])
    def test_extremal_masks_at_a_million(self, a, b):
        mask = construct_extremal_set(reduce_pair(a, b), 10**6).mask
        for sep in (",\n    ", "\r\n"):
            assert _member_text(mask, sep.encode(), b"", b"") == joined_members(mask, sep)

    def test_extremal_masks_have_few_distinct_blocks(self):
        """The renderer builds one tuple per distinct 100-block; the extremal masks have few."""
        n = 10**6
        for b in range(2, 61):
            mask = construct_extremal_set(reduce_pair(1, b), n).mask
            distinct = {mask[q : q + 100] for q in range(0, n + 1, 100)}
            assert len(distinct) <= 200, (b, len(distinct))


REPORTS = [
    "pair-construct --a 2 --b 3 --n 2500 --verify",
    "pair-construct --a 2 --b 3 --n 2500 --verify --format csv",
    "pair-construct --a 2 --b 3 --n 2500 --format plain",
    "triple-density --a 2 --b 3 --c 5 --eps 1e-6",
    "triple-density --a 2 --b 3 --c 5 --eps 1e-6 --format csv",
    "empirical --a 2 --b 3 --c 5 --n 1000",
    "empirical --a 2 --b 3 --c 5 --n 1000 --format plain",
]


class _RecordingBuffer(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


class _RecordingText(io.TextIOWrapper):
    def __init__(self, binary):
        super().__init__(binary, encoding="ascii", newline="")
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class _PartialBuffer(io.BytesIO):
    """A binary layer that takes at most 1,000 bytes per call, as a raw pipe may."""

    def write(self, data):
        return super().write(data[:1000])


class TestWrite:
    """Each report reaches stdout in one write, to the binary layer when there is one."""

    def test_a_layer_taking_part_of_each_write_gets_the_whole_report(self, capsys, monkeypatch):
        command = "pair-construct --a 2 --b 3 --n 2500 --verify".split()
        expected = run_cli(capsys, *command)
        binary = _PartialBuffer()
        stdout = io.TextIOWrapper(binary, encoding="ascii", newline="")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(command) == 0
        monkeypatch.undo()
        assert len(expected[1]) > 10_000
        assert (0, binary.getvalue().decode("ascii"), "") == expected

    @pytest.mark.parametrize("command", REPORTS)
    def test_one_write_to_the_binary_layer(self, capsys, monkeypatch, command):
        expected = run_cli(capsys, *command.split())
        binary = _RecordingBuffer()
        stdout = _RecordingText(binary)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(command.split()) == 0
        stdout.flush()
        monkeypatch.undo()
        assert (stdout.writes, binary.writes) == (0, 1)
        assert (0, binary.getvalue().decode("ascii"), "") == expected

    @pytest.mark.parametrize("command", REPORTS)
    def test_text_stream_gets_the_same_text(self, capsys, command):
        expected = run_cli(capsys, *command.split())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(command.split())
        assert (code, out.getvalue()) == expected[:2]


@st.composite
def cli_inputs(draw):
    """Bounded bad and edge inputs for every computing command.

    Small primes, sorted bases and small digit counts are drawn more often,
    so that valid pairs and triples reach the computations, not only the
    parser.
    """
    base = (st.sampled_from([2, 3, 5, 7]) | st.integers(-3, 30)).map(str)
    digits = st.integers(-1, 13) | st.integers(-1, 4001)
    eps = st.sampled_from(["0", "1", "-1", "1/0", "abc", "1e-100000", "1/2", "1/1000", "5e-5"])
    n = st.integers(-1, 10**4).map(str)
    command = draw(st.sampled_from(
        ["pair-density", "pair-construct", "triple-density", "triple-table", "empirical"]
    ))
    argv = [command]
    if command != "pair-construct":
        argv += ["--digits", str(draw(digits))]
    names = {"pair-density": "ab", "pair-construct": "ab", "triple-table": ""}.get(command, "abc")
    values = [draw(base) for _ in names]
    if draw(st.booleans()):
        values.sort(key=int)
    for name, value in zip(names, values):
        argv += [f"--{name}", value]
    if command in ("pair-construct", "empirical"):
        argv += ["--n", draw(n)]
    if command == "pair-construct" and draw(st.booleans()):
        argv.append("--verify")
    if command == "triple-density" and draw(st.booleans()):
        argv += ["--mode", "converge"]
    if command in ("triple-density", "triple-table") and draw(st.booleans()):
        argv += ["--eps", draw(eps)]
    if command == "triple-density" and draw(st.booleans()):
        argv += ["--d", draw(base)]
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_inputs())
def test_error_paths_exit_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
