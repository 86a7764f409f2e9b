"""Exact rational feasibility checks for the solver's parameter systems.

Every verdict here is decided in exact rational arithmetic; floating point
never touches a comparison.  Several reference examples sit within 1e-2 of
a boundary, and one sits exactly on it, so equality in a strict inequality
gets its own BOUNDARY verdict instead of a coerced pass or fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .besov import BesovParams, as_fraction
from .errors import InadmissibleParams

PASS = "PASS"
FAIL = "FAIL"
BOUNDARY = "BOUNDARY"


@dataclass(frozen=True)
class ConditionCheck:
    cond_id: str
    description: str
    lhs: Fraction
    rhs: Fraction
    relation: str  # "<" | "<=" strict vs non-strict, always lhs REL rhs
    verdict: str

    def as_dict(self) -> dict:
        return {
            "id": self.cond_id,
            "description": self.description,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "relation": self.relation,
            "verdict": self.verdict,
        }


def _check(cond_id: str, description: str, lhs: Fraction, rhs: Fraction, relation: str) -> ConditionCheck:
    if relation == "<":
        verdict = PASS if lhs < rhs else (BOUNDARY if lhs == rhs else FAIL)
    elif relation == "<=":
        verdict = PASS if lhs <= rhs else FAIL
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return ConditionCheck(cond_id, description, lhs, rhs, relation, verdict)


@dataclass(frozen=True)
class Exponents:
    """Interpolation bookkeeping for the bilinear estimate chain."""

    a: Fraction
    b: Fraction
    alpha: Fraction
    beta: Fraction
    epsilon: Fraction

    def as_dict(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("a", "b", "alpha", "beta", "epsilon")}


@dataclass(frozen=True)
class AdmissibilityReport:
    params: BesovParams
    gate: str  # "local" | "global"
    checks: tuple
    initial_regularity: Fraction
    exponents: Exponents | None

    @property
    def all_pass(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    @property
    def boundary_ids(self) -> tuple:
        return tuple(c.cond_id for c in self.checks if c.verdict == BOUNDARY)

    @property
    def failed_ids(self) -> tuple:
        return tuple(c.cond_id for c in self.checks if c.verdict == FAIL)

    def to_json(self) -> str:
        return json.dumps(
            {
                "gate": self.gate,
                "params": self.params.as_dict(),
                "checks": [c.as_dict() for c in self.checks],
                "all_pass": self.all_pass,
                "boundary": list(self.boundary_ids),
                "failed": list(self.failed_ids),
                "initial_regularity": str(self.initial_regularity),
                "exponents": self.exponents.as_dict() if self.exponents else None,
            },
            sort_keys=True,
            indent=2,
        )


def default_q(r) -> Fraction:
    """Default summability index when unspecified: max(r, 2) + 1."""
    r = as_fraction(r)
    return max(r, Fraction(2)) + 1


def check_local(params: BesovParams) -> AdmissibilityReport:
    """The six local-solvability conditions, strictness as stated."""
    s, p, q, r = params.s, params.p, params.q, params.r
    x, y = Fraction(2) / p, Fraction(2) / r
    checks = (
        _check("1", "r <= q", r, q, "<="),
        _check("2", "s - 1 < 2/p", s - 1, x, "<"),
        _check("3", "1 - s < 2/p", 1 - s, x, "<"),
        _check("4", "s + 2/p + 2/r < 3", s + x + y, Fraction(3), "<"),
        _check("5", "2 < s + 2/p + 2/r", Fraction(2), s + x + y, "<"),
        _check("6", "3 < s + 2/p + 4/r", Fraction(3), s + x + 2 * y, "<"),
    )
    return _report(params, "local", checks)


def check_global(params: BesovParams) -> AdmissibilityReport:
    """The global-solvability conditions (local set sharpened by r > 2 and 2/p+2/r > 1)."""
    s, p, q, r = params.s, params.p, params.q, params.r
    x, y = Fraction(2) / p, Fraction(2) / r
    checks = (
        _check("g1", "2 < r", Fraction(2), r, "<"),
        _check("g2", "r <= q", r, q, "<="),
        _check("g3", "2/p + 2/r - 1 > 0", Fraction(0), x + y - 1, "<"),
        _check("g4", "-2/p < s - 1", -x, s - 1, "<"),
        _check("g5", "s - 1 < 2/p", s - 1, x, "<"),
        _check("g6", "2 < s + 2/p + 2/r", Fraction(2), s + x + y, "<"),
        _check("g7", "s + 2/p + 2/r < 3", s + x + y, Fraction(3), "<"),
        _check("g8", "3 < s + 2/p + 4/r", Fraction(3), s + x + 2 * y, "<"),
    )
    return _report(params, "global", checks)


def _report(params: BesovParams, gate: str, checks: tuple) -> AdmissibilityReport:
    """Gate report; the symmetric exponents are derived when every check passes."""
    exps = _exponents(params) if all(c.verdict == PASS for c in checks) else None
    return AdmissibilityReport(params, gate, checks, params.initial_regularity, exps)


def derive_exponents(params: BesovParams) -> Exponents:
    """Exponents (a, b, alpha, beta, epsilon) for the bilinear estimate chain.

    The choice is symmetric, a = b = 1/p + 1/2 - s/2.  The defining system

        2 - 2/r - s < a, b          (lower bound)
        a, b < 2/p                  (upper bound)
        a + b = 2/p + 1 - s         (sum rule)
        (r/2) [a + b + 2(s - 2 + 2/r)] < 1
        a + b > 0

    is verified exactly; any violation is an internal consistency failure
    for gate-passing parameters and raises InadmissibleParams.  The local
    gate must pass first.
    """
    rep = check_local(params)
    if not rep.all_pass:
        raise InadmissibleParams(
            f"local gate not satisfied: failed={rep.failed_ids} boundary={rep.boundary_ids}"
        )
    return rep.exponents


def _exponents(params: BesovParams) -> Exponents:
    """The exponent system of derive_exponents, with no gate check."""
    s, p, r = params.s, params.p, params.r
    a = b = Fraction(1) / p + Fraction(1, 2) - s / 2
    lower = 2 - Fraction(2) / r - s
    upper = Fraction(2) / p
    sum_rule = Fraction(2) / p + 1 - s
    failures = []
    if not (lower < a and lower < b):
        failures.append("lower bound 2 - 2/r - s < a, b")
    if not (a < upper and b < upper):
        failures.append("upper bound a, b < 2/p")
    if a + b != sum_rule:
        failures.append("sum rule a + b = 2/p + 1 - s")
    if not ((r / 2) * ((a + b) + 2 * (s - 2 + Fraction(2) / r)) < 1):
        failures.append("(r/2)[a + b + 2(s - 2 + 2/r)] < 1")
    if not (a + b > 0):
        failures.append("a + b > 0")
    if failures:
        raise InadmissibleParams("exponent system violated: " + "; ".join(failures))
    alpha = (r / 2) * (a + s - 2 + Fraction(2) / r)
    beta = (r / 2) * (b + s - 2 + Fraction(2) / r)
    if not (alpha > 0 and beta > 0 and alpha + beta < 1):
        raise InadmissibleParams(
            f"derived exponents out of range: alpha={alpha}, beta={beta}"
        )
    epsilon = (1 - alpha - beta) / r
    return Exponents(a, b, alpha, beta, epsilon)


# -- piecewise maximum of the two regularity lower bounds -------------------------


@dataclass(frozen=True)
class MaxFormulaResult:
    value: Fraction
    branch: str


def direct_regularity_max(p, r) -> Fraction:
    """max(-2/r - 2/p + 1, 2/p - 1), evaluated directly."""
    p, r = as_fraction(p), as_fraction(r)
    return max(-Fraction(2) / r - Fraction(2) / p + 1, Fraction(2) / p - 1)


def appendix_a_max(p, r) -> MaxFormulaResult:
    """Piecewise form of the regularity lower bound, cross-checked exactly.

    Branches: p <= 2 (value 2/p - 1); p > 2 with r <= p/(p-2) (same value);
    p > 2 with r > p/(p-2) (value -2/r - 2/p + 1).
    """
    p, r = as_fraction(p), as_fraction(r)
    if p <= 1 or r <= 1:
        raise ValueError("p and r must exceed 1")
    if p <= 2:
        value, branch = Fraction(2) / p - 1, "1<p<=2"
    else:
        threshold = p / (p - 2)
        if r <= threshold:
            value, branch = Fraction(2) / p - 1, "p>2, 1<r<=p/(p-2)"
        else:
            value, branch = -Fraction(2) / r - Fraction(2) / p + 1, "p>2, r>p/(p-2)"
    direct = direct_regularity_max(p, r)
    if value != direct:
        raise AssertionError(f"piecewise branch {branch} disagrees with direct max at p={p}, r={r}")
    return MaxFormulaResult(value, branch)


@dataclass(frozen=True)
class InfimumScan:
    r_lower_bound: int
    limit: Fraction
    infimum: Fraction
    witness: tuple  # (p, r)
    trace: tuple  # (p, r, value) at each improvement

    def as_dict(self) -> dict:
        return {
            "r_lower_bound": self.r_lower_bound,
            "limit": str(self.limit),
            "infimum": str(self.infimum),
            "witness": [str(self.witness[0]), str(self.witness[1])],
            "trace": [[str(p), str(r), str(v)] for (p, r, v) in self.trace],
        }


def appendix_a_infima(r_lower_bound: int, depth: int = 12) -> InfimumScan:
    """Grid scan of the regularity lower bound toward its infimum.

    r_lower_bound = 1 scans 1 < r (limit -1); r_lower_bound = 2 scans
    2 < r (limit -1/2).  The grid pushes p toward the large end and r
    toward its lower bound on exponential ladders of rational points; the
    running infimum and its witnesses are returned.  Every scanned value
    is also checked against the exact limit from below.
    """
    if r_lower_bound not in (1, 2):
        raise ValueError("r_lower_bound must be 1 or 2")
    limit = Fraction(-1) if r_lower_bound == 1 else Fraction(-1, 2)
    p_grid = [1 + Fraction(1, 2**j) for j in range(1, depth + 1)]
    p_grid += [Fraction(2**j) for j in range(1, depth + 1)]
    base = Fraction(r_lower_bound)
    r_grid = [base + Fraction(1, 2**j) for j in range(1, depth + 1)]
    r_grid += [Fraction(2**j) for j in range(1, depth + 1) if 2**j > r_lower_bound]
    best: Fraction | None = None
    witness = None
    trace = []
    for p in p_grid:
        for r in r_grid:
            value = appendix_a_max(p, r).value
            if value < limit:
                raise AssertionError(f"scan value {value} fell below the exact limit {limit}")
            if best is None or value < best:
                best, witness = value, (p, r)
                trace.append((p, r, value))
    return InfimumScan(r_lower_bound, limit, best, witness, tuple(trace))


# -- feasible-region scan in (x, y) = (2/p, 2/r) coordinates ----------------------


@dataclass(frozen=True, eq=False)
class RegionScan:
    """Feasible points of the grid {i/D} x {j/D}, i, j = 1 .. 2D-1, one j-interval per row.

    Row i (x = i/D) holds the local points j in [local_lo[i-1], local_hi[i-1]]
    and the global points j in [global_lo[i-1], global_hi[i-1]]; an empty
    interval has hi < lo.
    """

    s: Fraction
    denominator: int
    local_lo: np.ndarray
    local_hi: np.ndarray
    global_lo: np.ndarray
    global_hi: np.ndarray

    @property
    def local_count(self) -> int:
        return int(np.maximum(self.local_hi - self.local_lo + 1, 0).sum())

    @property
    def global_count(self) -> int:
        return int(np.maximum(self.global_hi - self.global_lo + 1, 0).sum())

    def csv_lines(self):
        """Header, then one line per local point, in i-then-j order."""
        yield "x,y,local,global"
        d = self.denominator
        k = np.arange(2 * d, dtype=np.int64)
        g = np.gcd(k, d)
        labels = [str(n) if m == 1 else f"{n}/{m}"
                  for n, m in zip((k // g).tolist(), (d // g).tolist())]
        rows = zip(range(1, 2 * d), self.local_lo.tolist(), self.local_hi.tolist(),
                   self.global_lo.tolist(), self.global_hi.tolist())
        for i, lo, hi, glo, ghi in rows:
            x = labels[i]
            for j in range(lo, hi + 1):
                yield f"{x},{labels[j]},1,{int(glo <= j <= ghi)}"


def region_conditions(s: Fraction, x: Fraction, y: Fraction) -> bool:
    """The local feasibility system in (x, y) = (2/p, 2/r) coordinates."""
    return (
        2 - s < x + y < 3 - s
        and 3 - s < x + 2 * y
        and s - 1 < x
        and 1 - s < x
        and 0 < x < 2
        and 0 < y < 2
    )


def scan_region(s, denominator: int) -> RegionScan:
    """Classify the rational grid {i/D} x {j/D} inside (0,2)^2 against the region.

    A point is local when it solves `region_conditions`; it is global when
    it also has y < 1 and x + y > 1.  With s = a/b and (x, y) = (i/D, j/D),
    each condition times bD is a strict integer inequality:

        (2b - a)D < (i + j)b < (3b - a)D,    (3b - a)D < (i + 2j)b,
        ib > |a - b|D.

    The last depends on the row alone, and the others bound j from one
    side each, so the local points of row i are one integer interval,
    found by floor division; the global points are its sub-interval with
    D - i < j < D.  Every verdict is exact int64 arithmetic, memory is
    O(D), and (s, D) whose scaled terms could reach 2^62 is rejected
    before anything is allocated.
    """
    s = as_fraction(s)
    d = int(denominator)
    if d != denominator or d < 1:
        raise ValueError(f"scan denominator must be an integer >= 1, got {denominator!r}")
    a, b = s.numerator, s.denominator
    # |(3b - a)D - ib| < (|a| + 5b)D bounds every int64 term below
    if 6 * max(abs(a), b) * d >= 2**62:
        raise ValueError(f"scan of s = {s} at denominator {d} would overflow int64")
    i = np.arange(1, 2 * d, dtype=np.int64)
    rest = (3 * b - a) * d - i * b  # (3 - s - x) bD
    lo = np.maximum(np.maximum(((2 * b - a) * d - i * b) // b + 1, rest // (2 * b) + 1), 1)
    hi = np.minimum((rest - 1) // b, 2 * d - 1)
    hi = np.where(i * b > abs(a - b) * d, hi, lo - 1)
    return RegionScan(s, d, lo, hi, np.maximum(lo, d - i + 1), np.minimum(hi, d - 1))


# -- bundled reference parameter rows ---------------------------------------------

# (s, r, p, gate, expected initial regularity); the third row sits exactly on
# the boundary of the sum condition and is reported as such, never passed.
REFERENCE_ROWS = (
    (Fraction(9, 10), Fraction(20, 19), Fraction(12), "local", Fraction(-4, 5)),
    (Fraction(-9, 10), Fraction(100, 49), Fraction(40, 39), "global", Fraction(48, 25)),
    (Fraction(11, 10), Fraction(8, 7), Fraction(40, 3), "local", Fraction(-17, 20)),
    (Fraction(149, 100), Fraction(200, 99), Fraction(4), "global", Fraction(-48, 100)),
    (Fraction(11, 10), Fraction(40, 19), Fraction(3), "global", Fraction(-1, 20)),
    (Fraction(4, 3), Fraction(3), Fraction(5, 2), "global", Fraction(0)),
    (Fraction(19, 10), Fraction(21), Fraction(2), "global", Fraction(1, 210)),
)


@dataclass(frozen=True)
class ReferenceRowResult:
    index: int
    params: BesovParams
    gate: str
    expected_regularity: Fraction
    computed_regularity: Fraction
    regularity_matches: bool
    report: AdmissibilityReport

    @property
    def status(self) -> str:
        if self.report.all_pass:
            return PASS
        if self.report.boundary_ids and not self.report.failed_ids:
            return f"BOUNDARY({','.join(self.report.boundary_ids)})"
        return f"FAIL({','.join(self.report.failed_ids)})"


def reproduce_reference_table() -> list[ReferenceRowResult]:
    """Recompute every bundled reference row at its stated gate."""
    out = []
    for idx, (s, r, p, gate, expected) in enumerate(REFERENCE_ROWS):
        params = BesovParams(s, p, default_q(r), r)
        report = check_global(params) if gate == "global" else check_local(params)
        computed = params.initial_regularity
        out.append(
            ReferenceRowResult(
                index=idx,
                params=params,
                gate=gate,
                expected_regularity=expected,
                computed_regularity=computed,
                regularity_matches=computed == expected,
                report=report,
            )
        )
    return out
