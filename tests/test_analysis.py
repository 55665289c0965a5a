"""Redundancy table, bound comparison, and the parity-collision sweep."""
from itertools import groupby

import pytest

from rllindel import analysis
from rllindel.analysis import (
    AnalysisRow,
    GapReport,
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
from rllindel.bitseq import BitSeq
from rllindel.code import d_range
from rllindel.errors import DataError, InvariantError, ValidationError


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

    def test_range_error(self):
        with pytest.raises(ValidationError):
            phi(1)

    def test_psi_positive(self):
        for n in range(14, 65):
            assert psi(n) > 0


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
        for r_hat in (4, 5):
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
        with pytest.raises(ValidationError):
            forbidden_parities(3, 0)
        with pytest.raises(DataError):
            forbidden_parities(4, 2)


class TestGapCondition:
    def test_rhat4_single_collision(self):
        report = gap_condition_check(4)
        assert report.collisions == ((14, 5, 32),)
        assert not report.disjoint
        assert report.passed
        assert (report.c1, report.c2, report.c3) == ((4, 6), (17, 22), (32, 38))
        assert report.d_interval == (25, 32)

    def test_rhat5_clean(self):
        report = gap_condition_check(5)
        assert report.disjoint and report.passed
        assert report.c1 == (8, 14)
        assert report.c2 == (37, 46)
        assert report.c3 == (68, 78)
        assert report.d_interval == (49, 64)

    def test_chain_with_boundary_touch_only_at_4(self):
        for r_hat in range(4, 11):
            report = gap_condition_check(r_hat)
            assert report.chain_holds()
            touching = report.d_interval[1] == report.c3[0]
            assert touching == (r_hat == 4)
            # the families read off the sweep match the closed forms over the d range
            (d_lo, d_hi), base = d_range(r_hat), 1 << r_hat
            assert report.c1 == (d_lo - 1, d_hi - 1)
            assert report.c2 == (d_lo + base - 4, d_hi + base - 1)
            assert report.c3 == (d_lo + 2 * base - 5, d_hi + 2 * base - 1)

    def test_families_that_are_not_three_runs_raise(self, monkeypatch):
        # d up to 16 at r_hat = 4 makes the values of C2 and C3 meet at 31, 32
        monkeypatch.setattr(analysis, "d_range", lambda r_hat: (5, 16))
        with pytest.raises(InvariantError, match="form 2 runs, not three families"):
            gap_condition_check(4)

    def test_render_format(self):
        lines = gap_condition_check(4).lines()
        assert lines[0] == "CHECK gap-condition r_hat=4 PASS (k=14,d=5,A=32)"
        assert "collisions=1" in lines[1]

    def test_guards(self):
        with pytest.raises(ValidationError):
            gap_condition_check(3)
        with pytest.raises(ValidationError):
            gap_condition_check(13)

    def test_report_invariants_enforced(self):
        with pytest.raises(InvariantError):
            GapReport(4, (4, 6), (17, 22), (32, 38), (25, 32), True, ((14, 5, 32),))
        with pytest.raises(InvariantError):
            GapReport(4, (6, 4), (17, 22), (32, 38), (25, 32), True, ())


class TestEmitCsv:
    def test_header_only(self):
        assert emit_csv([]) == "n,r_hat,redundancy,phi,gap\n"

    def test_frozen_row(self):
        text = emit_csv([redundancy_row(14)])
        assert text == "n,r_hat,redundancy,phi,gap\n14,4,8,3.700616,4.299384\n"

    def test_row_count(self):
        rows = [redundancy_row(n) for n in range(14, 30)]
        assert emit_csv(rows).count("\n") == len(rows) + 1
