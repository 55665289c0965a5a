"""Redundancy table, bound comparison, and the parity-collision sweep."""
import math
from itertools import groupby

import pytest

from rllindel import analysis
from rllindel.analysis import (
    AnalysisRow,
    emit_csv,
    forbidden_parities,
    g_bound,
    gap_condition_check,
    h_bound,
    phi,
    psi,
    redundancy_row,
    rho,
)
from rllindel.bitseq import BitSeq, le_encode
from rllindel.code import coefficient_value, d_range
from rllindel.errors import DataError, InvariantError, ValidationError

import reference
from reference import reference_gap_condition


class TestBounds:
    def test_known_values(self):
        assert g_bound(4) == 3
        assert h_bound(4) == 15
        assert g_bound(3) == 2
        assert h_bound(3) == 6

    def test_difference_identity(self):
        for r in range(3, 21):
            assert h_bound(r) - g_bound(r) == 7 * (1 << (r - 3)) + r - 6
            assert h_bound(r) > g_bound(r)

    def test_range_error(self):
        with pytest.raises(ValidationError):
            g_bound(2)
        with pytest.raises(ValidationError):
            h_bound(2)


class TestPhi:
    def test_smallest_case_exact(self):
        assert phi(2) == 1.0

    def test_known_value(self):
        assert abs(phi(14) - 3.700616) < 5e-7

    def test_monotone_sample(self):
        values = [phi(n) for n in range(14, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_large_n_does_not_overflow(self):
        assert abs(phi(4096) - 12.0) < 0.01
        # beyond a float's range 2^(1-n) is 0.0, so the bound is log2(n - 1)
        assert phi(10**400) == math.log2(10**400 - 1)

    def test_range_error(self):
        with pytest.raises(ValidationError):
            phi(1)

    def test_psi_positive(self):
        for n in range(14, 65):
            assert psi(n) > 0

    def test_psi_is_inf_where_2_to_the_n_overflows(self):
        assert math.isfinite(psi(1023))
        assert psi(1024) == psi(10**400) == math.inf


class TestRedundancyRow:
    def test_band_edges(self):
        assert redundancy_row(14).r_hat == 4
        assert redundancy_row(21).r_hat == 4
        assert redundancy_row(22).r_hat == 5
        assert redundancy_row(38).r_hat == 5
        assert redundancy_row(39).r_hat == 6

    def test_gap_value(self):
        row = redundancy_row(14)
        assert row.redundancy == 8
        assert abs(row.gap - 4.299384) < 1e-6

    def test_blocklength_beyond_a_float(self):
        row = redundancy_row(10**400)
        assert (row.r_hat, row.redundancy) == (1329, 1333)
        assert abs(row.gap - 4.228762) < 1e-6

    def test_range_error(self):
        with pytest.raises(ValidationError):
            redundancy_row(13)

    def test_row_invariants_enforced(self):
        with pytest.raises(InvariantError):
            AnalysisRow(n=14, r_hat=4, redundancy=9, phi=3.7, gap=5.3)
        with pytest.raises(InvariantError):
            AnalysisRow(n=14, r_hat=4, redundancy=8, phi=3.7, gap=5.0)


class TestRho:
    def test_all_zero(self):
        assert rho(4, BitSeq("0000000")) == 0

    def test_single_leading_one(self):
        assert rho(4, BitSeq("1000000")) == 1

    def test_all_ones_except_last(self):
        assert rho(4, BitSeq("1111110")) == 31
        assert rho(5, BitSeq("11111110")) == 63

    def test_solved_position_is_skipped(self):
        # the weight at the solved index (d) never contributes
        assert rho(4, BitSeq("0001000")) == 0

    def test_length_error(self):
        with pytest.raises(DataError):
            rho(4, BitSeq("000"))

    @pytest.mark.parametrize("r_hat", range(4))
    def test_shape_below_4_is_rejected(self, r_hat):
        with pytest.raises(ValidationError) as excinfo:
            rho(r_hat, BitSeq("0" * (r_hat + 3)))
        assert str(excinfo.value) == f"shape parameter must be at least 4 (got r_hat={r_hat})"

    def test_matches_the_per_position_sum(self):
        # every position but the solved one and the last, each by its own coefficient
        for r_hat in range(4, 8):
            m = r_hat + 3
            for mask in range(1 << m):
                p = le_encode(mask, m)
                expected = sum(
                    coefficient_value(i, r_hat, 0) for i in range(1, m) if i != r_hat and p[i - 1]
                )
                assert rho(r_hat, p) == expected


class TestForbiddenParities:
    def test_frozen_set_rhat4(self):
        words = [str(p) for p in forbidden_parities(4, 0)]
        assert words == [
            "0000000",
            "0000010",
            "0100000",
            "0111110",
            "1000000",
            "1100000",
            "1111100",
            "1111110",
        ]

    def test_matches_independent_enumeration(self):
        for r_hat in range(4, 11):
            for last in (0, 1):
                m = r_hat + 3
                indep = []
                for mask in range(1 << m):
                    word = format(mask, f"0{m}b")
                    if int(word[-1]) != last:
                        continue
                    if max(len(list(g)) for _, g in groupby(word)) >= r_hat + 1:
                        indep.append(word)
                assert [str(p) for p in forbidden_parities(r_hat, last)] == indep

    def test_run_polarity_fixes_solved_symbol(self):
        # long zero runs force a 0 at the solved index, long one runs a 1
        for last in (0, 1):
            for p in forbidden_parities(4, last):
                text = str(p)
                if "00000" in text:
                    assert p[3] == 0
                else:
                    assert "11111" in text and p[3] == 1

    def test_guards(self):
        # the same text as every other r_hat check, and before the symbol check
        for last_symbol in (0, 2):
            with pytest.raises(
                ValidationError, match=r"^shape parameter must be at least 4 \(got r_hat=3\)$"
            ):
                forbidden_parities(3, last_symbol)
        with pytest.raises(DataError):
            forbidden_parities(4, 2)


def families(report):
    """c1, c2, c3 and d_interval of a sweep report as (lo, hi) pairs."""
    names = ("c1", "c2", "c3", "d_interval")
    return [tuple(map(int, report.stats[name].split(".."))) for name in names]


class TestGapCondition:
    def test_rhat4_single_collision(self):
        report = gap_condition_check(4)
        assert report.counterexample == "(k=14,d=5,A=32)"
        assert report.stats["collisions"] == 1
        assert report.passed
        assert families(report) == [(4, 6), (17, 22), (32, 38), (25, 32)]

    def test_rhat5_clean(self):
        report = gap_condition_check(5)
        assert report.counterexample is None and report.stats["collisions"] == 0
        assert report.passed
        assert families(report) == [(8, 14), (37, 46), (68, 78), (49, 64)]

    def test_chain_with_boundary_touch_only_at_4(self):
        for r_hat in range(4, 65):
            report = gap_condition_check(r_hat)
            assert report.stats["chain"] == "yes"
            c1, c2, c3, d_interval = families(report)
            touching = d_interval[1] == c3[0]
            assert touching == (r_hat == 4)
            # the families read off the sweep match the closed forms over the d range
            (d_lo, d_hi), base = d_range(r_hat), 1 << r_hat
            assert c1 == (d_lo - 1, d_hi - 1)
            assert c2 == (d_lo + base - 4, d_hi + base - 1)
            assert c3 == (d_lo + 2 * base - 5, d_hi + 2 * base - 1)
            assert d_interval == (base + base // 2 + 1, 2 * base)

    def test_families_that_are_not_three_runs_raise(self, monkeypatch):
        # d up to 16 at r_hat = 4 makes the values of C2 and C3 meet at 31, 32
        monkeypatch.setattr(analysis, "d_range", lambda r_hat: (5, 16))
        with pytest.raises(InvariantError, match="form 2 runs, not three families"):
            gap_condition_check(4)

    def test_render_format(self):
        lines = gap_condition_check(4).lines()
        assert lines[0] == "CHECK gap-condition r_hat=4 PASS (k=14,d=5,A=32)"
        assert "collisions=1" in lines[1]

    def test_unexpected_collision_fails(self, monkeypatch):
        monkeypatch.setattr(analysis, "_EXPECTED_COLLISIONS", {})
        report = gap_condition_check(4)
        assert not report.passed
        assert report.lines()[0] == "CHECK gap-condition r_hat=4 FAIL (k=14,d=5,A=32)"

    def test_guards(self):
        # one range check, made before 2^r_hat is built
        for r_hat in (3, 65, 10**22):
            with pytest.raises(ValidationError) as excinfo:
                gap_condition_check(r_hat)
            assert str(excinfo.value) == (
                "sweep supports 4 <= r_hat <= 64, the shapes of every k below 2^64 - 1 "
                f"(got {r_hat})"
            )


def _sweep_or_error(sweep, r_hat):
    """A sweep's rendered report, or the text of the InvariantError it raises."""
    try:
        return sweep(r_hat).render()
    except InvariantError as exc:
        return f"InvariantError: {exc}"


class TestGapConditionAgainstEnumeration:
    @pytest.mark.parametrize("r_hat", range(4, 12))
    def test_same_report(self, r_hat):
        assert gap_condition_check(r_hat).render() == reference_gap_condition(r_hat).render()

    # d ranges that move A off the chain: to 0, where j = 0 hits every
    # modulus; below 0, where j = -2 hits; past 2*M, where j = 2 hits; or
    # into fewer than three families, which both sweeps reject with the
    # same text. Each case's output must hold the fragment given
    @pytest.mark.parametrize(
        "r_hat, d_lo, d_hi, fragment",
        [
            (4, -33, -28, "(k=7,d=-31,A=0)"),
            (5, -5, 3, "(k=15,d=1,A=0)"),
            (4, -64, -60, "(k=14,d=-63,A=-64)"),
            (5, -100, -90, "(k=15,d=-97,A=-98)"),
            (4, -20, -16, "c1=-21..-17 c2=-8..-1 c3=7..15 d_interval=25..32 chain=no collisions=0"),
            (4, 20, 25, "(k=7,d=20,A=50)"),
            (5, 40, 50, "(k=15,d=50,A=49);(k=16,d=40,A=100)"),
            (4, 40, 43, "(k=8,d=40,A=52)"),
            (4, 0, 0, "c1=-1..-1 c2=12..15 c3=27..31"),
            (4, 5, 16, "InvariantError: collision values form 2 runs, not three families"),
            (4, -40, -1, "InvariantError: collision values form 1 runs, not three families"),
        ],
    )
    def test_same_report_off_the_chain(self, monkeypatch, r_hat, d_lo, d_hi, fragment):
        monkeypatch.setattr(analysis, "d_range", lambda r_hat: (d_lo, d_hi))
        monkeypatch.setattr(reference, "d_range", lambda r_hat: (d_lo, d_hi))
        got = _sweep_or_error(gap_condition_check, r_hat)
        assert got == _sweep_or_error(reference_gap_condition, r_hat)
        assert fragment in got and "chain=yes" not in got


class TestEmitCsv:
    def test_header_only(self):
        assert emit_csv([]) == "n,r_hat,redundancy,phi,gap\n"

    def test_frozen_row(self):
        text = emit_csv([redundancy_row(14)])
        assert text == "n,r_hat,redundancy,phi,gap\n14,4,8,3.700616,4.299384\n"

    def test_row_count(self):
        rows = [redundancy_row(n) for n in range(14, 30)]
        assert emit_csv(rows).count("\n") == len(rows) + 1
