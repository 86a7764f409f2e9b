"""Exact rational gates, exponent algebra, piecewise max, region scans."""

import hashlib
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus.admissible import (
    BOUNDARY,
    PASS,
    appendix_a_infima,
    appendix_a_max,
    check_global,
    check_local,
    default_q,
    derive_exponents,
    direct_regularity_max,
    region_conditions,
    reproduce_reference_table,
    scan_region,
)
from nstorus.besov import BesovParams
from nstorus.errors import InadmissibleParams


def _local_points(scan):
    """(x, y, global) for every local point of a scan, in i-then-j order."""
    d = scan.denominator
    for i in range(1, 2 * d):
        lo, hi = int(scan.local_lo[i - 1]), int(scan.local_hi[i - 1])
        glo, ghi = int(scan.global_lo[i - 1]), int(scan.global_hi[i - 1])
        for j in range(lo, hi + 1):
            yield Fraction(i, d), Fraction(j, d), glo <= j <= ghi


class TestLocalGate:
    def test_reference_row_all_pass(self):
        rep = check_local(BesovParams("9/10", 12, 2, "20/19"))
        assert rep.all_pass
        assert rep.initial_regularity == Fraction(-4, 5)
        assert rep.exponents is not None

    def test_boundary_row_reported_not_passed(self):
        rep = check_local(BesovParams("11/10", "40/3", 3, "8/7"))
        assert not rep.all_pass
        assert rep.boundary_ids == ("4",)
        assert rep.failed_ids == ()
        cond4 = next(c for c in rep.checks if c.cond_id == "4")
        assert cond4.lhs == Fraction(3) and cond4.rhs == Fraction(3)
        assert rep.initial_regularity == Fraction(-17, 20)

    def test_hilbert_case_sits_on_boundary(self):
        # s = 0, p = q = r = 2: the sum condition (5) holds with equality
        rep = check_local(BesovParams(0, 2, 2, 2))
        assert not rep.all_pass
        cond5 = next(c for c in rep.checks if c.cond_id == "5")
        assert cond5.verdict == BOUNDARY
        assert cond5.lhs == cond5.rhs == Fraction(2)

    def test_non_strict_condition_one(self):
        rep = check_local(BesovParams("4/3", "5/2", 3, 3))  # r == q allowed
        cond1 = next(c for c in rep.checks if c.cond_id == "1")
        assert cond1.verdict == PASS

    def test_deterministic_reports(self):
        params = BesovParams("4/3", "5/2", 3, 3)
        assert check_local(params).to_json() == check_local(params).to_json()


class TestGlobalGate:
    @pytest.mark.parametrize(
        "s,r,p,expected",
        [
            ("-9/10", "100/49", "40/39", Fraction(48, 25)),
            ("149/100", "200/99", 4, Fraction(-48, 100)),
            ("11/10", "40/19", 3, Fraction(-1, 20)),
            ("4/3", 3, "5/2", Fraction(0)),
            ("19/10", 21, 2, Fraction(1, 210)),
        ],
    )
    def test_reference_rows_pass(self, s, r, p, expected):
        params = BesovParams(s, p, default_q(r), r)
        rep = check_global(params)
        assert rep.all_pass
        assert rep.initial_regularity == expected

    def test_r_not_above_two_fails(self):
        rep = check_global(BesovParams("9/10", 12, 2, "20/19"))
        assert "g1" in rep.failed_ids


class TestExponents:
    def test_spot_values_global_example(self):
        e = derive_exponents(BesovParams("4/3", "5/2", 3, 3))
        assert (e.a, e.b) == (Fraction(7, 30), Fraction(7, 30))
        assert (e.alpha, e.beta) == (Fraction(7, 20), Fraction(7, 20))
        assert e.alpha + e.beta == Fraction(7, 10)
        assert e.epsilon == Fraction(1, 10)

    def test_spot_values_local_example(self):
        e = derive_exponents(BesovParams("9/10", 12, 2, "20/19"))
        assert e.a == Fraction(2, 15)
        assert e.alpha == Fraction(28, 57)
        assert e.alpha + e.beta == Fraction(56, 57)
        assert e.epsilon == Fraction(1, 60)

    def test_sum_rule_and_ranges_over_region_samples(self):
        for s in (Fraction(1, 2), Fraction(4, 3), Fraction(-1, 2), Fraction(19, 10)):
            scan = scan_region(s, denominator=12)
            for x, y, _ in islice(_local_points(scan), 40):
                p, r = Fraction(2) / x, Fraction(2) / y
                params = BesovParams(s, p, default_q(r), r)
                if not check_local(params).all_pass:
                    continue
                e = derive_exponents(params)
                assert e.a + e.b == Fraction(2) / p + 1 - s
                assert e.alpha > 0 and e.beta > 0
                assert e.alpha + e.beta < 1
                assert e.epsilon == (1 - e.alpha - e.beta) / r

    def test_gate_enforced(self):
        with pytest.raises(InadmissibleParams):
            derive_exponents(BesovParams("5/2", "5/2", 3, 3))


class TestPiecewiseMax:
    def test_reference_branches(self):
        res = appendix_a_max(12, Fraction(20, 19))
        assert res.value == Fraction(-5, 6)
        assert res.branch == "p>2, 1<r<=p/(p-2)"
        assert appendix_a_max(2, 7).value == 0
        res3 = appendix_a_max(4, 4)
        assert res3.value == 0
        assert res3.branch == "p>2, r>p/(p-2)"

    def test_matches_direct_max_on_random_rationals(self):
        import random

        rng = random.Random(7)
        for _ in range(2000):
            p = Fraction(rng.randint(1, 400), rng.randint(1, 400)) + Fraction(101, 100)
            r = Fraction(rng.randint(1, 400), rng.randint(1, 400)) + Fraction(101, 100)
            assert appendix_a_max(p, r).value == direct_regularity_max(p, r)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            appendix_a_max(1, 2)


class TestInfimumScans:
    def test_r_above_one_approaches_minus_one(self):
        scan = appendix_a_infima(1, depth=12)
        assert scan.limit == Fraction(-1)
        assert scan.infimum <= Fraction(-1) + Fraction(1, 100)
        assert scan.infimum >= Fraction(-1)
        p, r = scan.witness
        assert p > 100 and r < Fraction(11, 10)

    def test_r_above_two_approaches_minus_half(self):
        scan = appendix_a_infima(2, depth=12)
        assert scan.infimum <= Fraction(-1, 2) + Fraction(1, 100)
        assert scan.infimum >= Fraction(-1, 2)

    def test_trace_is_decreasing_improvements(self):
        scan = appendix_a_infima(1, depth=6)
        values = [v for (_, _, v) in scan.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            appendix_a_infima(3)


class TestRegionScan:
    def test_inside_value_has_points(self):
        scan = scan_region("4/3", denominator=60)
        local = {(x, y) for x, y, _ in _local_points(scan)}
        assert scan.local_count > 0
        assert (Fraction(4, 5), Fraction(2, 3)) in local
        assert (Fraction(4, 5), Fraction(1, 121)) not in local  # off the grid
        assert (0, Fraction(2, 3)) not in local and (2, Fraction(2, 3)) not in local
        assert scan.global_count > 0

    @pytest.mark.parametrize("s", ["5/2", -2, 3, "-101/100"])
    def test_outside_values_empty(self, s):
        assert scan_region(s, denominator=60).local_count == 0

    def test_admissible_s_range_boundaries(self):
        # feasible for sampled s inside (-1, 2), empty at and beyond the ends
        for s in ("-9/10", "1/2", "19/10"):
            assert scan_region(s, denominator=60).local_count > 0
        for s in (-1, 2, "21/10"):
            assert scan_region(s, denominator=60).local_count == 0

    def test_global_requires_sharper_conditions(self):
        scan = scan_region("4/3", denominator=30)
        points = list(_local_points(scan))
        assert 0 < scan.global_count < scan.local_count == len(points)
        assert scan.global_count == sum(glo for _, _, glo in points)
        for x, y, glo in points:
            assert glo == (y < 1 and x + y > 1)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(a=st.integers(-60, 60), b=st.integers(1, 24), d=st.integers(1, 24))
    def test_region_conditions_match_point_classification(self, a, b, d):
        # every grid point, so a point wrongly left out of an interval is caught
        s = Fraction(a, b)
        scan = scan_region(s, denominator=d)
        local = {(x, y) for x, y, _ in _local_points(scan)}
        for i in range(1, 2 * d):
            x = Fraction(i, d)
            for j in range(1, 2 * d):
                y = Fraction(j, d)
                loc = region_conditions(s, x, y)
                assert ((x, y) in local) == loc
                in_global = scan.global_lo[i - 1] <= j <= scan.global_hi[i - 1]
                assert in_global == (loc and y < 1 and x + y > 1)

    @pytest.mark.parametrize("s,digest", [
        ("17/12", "15209dad6303045f711dedbb0151a5a3639cbe2229f2871eb7fd0590384be37f"),
        ("37/24", "0e13b5bc1ce5027be66bf5c3298e1fcf7cc473c600344441236d10c3b60bcc66"),
    ])
    def test_depth_eight_csv_is_pinned(self, s, digest):
        # digests of the CSV written by the point-by-point Fraction scan
        text = "\n".join(scan_region(s, denominator=2**8).csv_lines()) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("denominator", [0, -5, 0.5])
    def test_denominator_below_one_rejected(self, denominator):
        with pytest.raises(ValueError, match="denominator"):
            scan_region("4/3", denominator=denominator)

    @pytest.mark.parametrize("s", [Fraction(2**60, 3), Fraction(1, 2**60), Fraction(-(2**59))])
    def test_int64_overflow_rejected(self, s):
        with pytest.raises(ValueError, match="overflow"):
            scan_region(s, denominator=4)

    def test_csv_emission(self):
        lines = list(scan_region("4/3", denominator=15).csv_lines())
        assert lines[0] == "x,y,local,global"
        assert all(line.count(",") == 3 for line in lines[1:])


class TestReferenceTable:
    def test_all_rows_reproduce(self):
        rows = reproduce_reference_table()
        assert len(rows) == 7
        expected = [Fraction(-4, 5), Fraction(48, 25), Fraction(-17, 20),
                    Fraction(-48, 100), Fraction(-1, 20), Fraction(0), Fraction(1, 210)]
        for row, exp in zip(rows, expected):
            assert row.regularity_matches
            assert row.computed_regularity == exp

    def test_boundary_row_is_flagged(self):
        rows = reproduce_reference_table()
        statuses = [r.status for r in rows]
        assert statuses[2] == "BOUNDARY(4)"
        assert all(s == PASS for i, s in enumerate(statuses) if i != 2)
