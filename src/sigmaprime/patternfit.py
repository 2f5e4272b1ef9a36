"""Exact rational fitting of the closed-form ansatz.

Every proven convolution evaluation in this package matches the template

    Σ_m sigma_prime(r, s, m, n - m)
        = (A n**(r+s+1) + B n) psi_{-1}(n) + C n**r psi_s(n) + D n**s psi_r(n)

with rational A, B, C, D.  The template is a ClosedForm over four
(n_power, psi_order) columns, stated once in identities._columns beside the
stored (A, B, C, D) rows that theorem_pattern reads.  fit() recovers
the coefficients from oracle values by Gauss-Jordan elimination on rows
scaled to integers, reading each coefficient as one exact Fraction at the
end (no floats anywhere), validate() replays a fitted ansatz against the
oracle on fresh n, and probe_weight10() runs the machinery at the unproven
weight-10 exponent pairs, labeling the outcome as numerical evidence rather
than a theorem.

The oracle is always the convolution oracle behind brute_convolution over
B'(n), never a stored form.  fit() and validate() each call it once for
their whole point set, so one pair of σ tables serves every point, in this
process, and evaluate each ClosedForm in one call for the set.  Both are
bounded by the shared work limit: fit() first estimates its exact solve
from the number of points and unknowns and the length of n**(r+s+1) at
the largest point, and raises BudgetExceededError before any work when
that estimate is over the limit; the oracle then checks its own estimate,
and fit() the sum of the two, so a whole fit stays within one limit.
When r == s the C and D columns coincide; the fit then drops D, so C
carries the combined coefficient and D is fixed at 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import sub
from typing import NamedTuple

from . import arith
from .identities import _COEFFICIENTS, THEOREM_RS, TheoremId, _ansatz_form, _columns, _key
from .lattice import _convolution_work, _convolutions
from .powersums import ClosedForm

__all__ = [
    "PatternCoeffs",
    "FitReport",
    "fit",
    "validate",
    "fit_and_validate",
    "probe_weight10",
    "pattern_value",
    "theorem_pattern",
    "WEIGHT10_PAIRS",
    "DEFAULT_TRAIN_NS",
    "DEFAULT_TEST_NS",
]

WEIGHT10_PAIRS = ((1, 9), (3, 7), (5, 5))
DEFAULT_TRAIN_NS = (2, 3, 4, 5, 7, 9)
DEFAULT_TEST_NS = (11, 13, 16, 25, 30)
EVIDENCE_LABEL = "numerical evidence"


class PatternCoeffs(NamedTuple):
    """Fitted ansatz coefficients; all exact Fractions.

    ``degenerate`` marks the r == s case, where only C + D is determined:
    by convention C then holds the combined value and D is 0.
    """

    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    degenerate: bool = False


class FitReport(NamedTuple):
    r: int
    s: int
    coefficients: PatternCoeffs | None  # None when the training system is inconsistent
    train_ns: tuple[int, ...]
    test_ns: tuple[int, ...]
    residuals: tuple[Fraction, ...]  # oracle minus ansatz, per test n
    verdict: str  # "consistent" or "inconsistent"
    label: str | None = None  # set on weight-10 probes


def pattern_value(coeffs: PatternCoeffs, r: int, s: int, n: int) -> Fraction:
    """Evaluate the ansatz at n >= 2, as the ClosedForm of its columns.

    In the degenerate case D is 0, and any D would add to C anyway.  Like
    every closed form, it refuses n < 2.
    """
    return _ansatz_form(r, s, coeffs[:4]).evaluate(n)


def _solve_exact(rows: list[list[Fraction]], rhs: list[int | Fraction]) -> list[Fraction] | None:
    """Solve an overdetermined exact linear system by Gauss-Jordan elimination.

    Each augmented row is scaled to integers by the lcm of its denominators,
    so elimination runs on ints alone, fraction-free in the manner of
    Bareiss (1968).  The pivot is the largest-magnitude entry left in its
    column.  Each other row i becomes p*row_i - f*row_pivot, with p the
    pivot and f the row's entry in the pivot column, and is then divided by
    the gcd of its entries (1 for a row of zeros) to keep the ints small.
    Each unknown is read at the end as Fraction(rhs, pivot).

    Every step scales a row by a nonzero rational or adds a multiple of
    another row to it, so the system keeps its solutions; a consistent
    full-rank one has exactly one, which elimination over Fractions finds
    too.  A column lacks a pivot exactly when it depends on the columns
    before it, whichever rows were chosen as pivots, so the rank check
    names the same column too.  Returns the solution, or None when some
    leftover row reads 0 == nonzero.  A rank below the number of unknowns
    raises, naming the deficiency, since the caller then supplied a
    structurally degenerate training set.
    """
    m, k = len(rows), len(rows[0])
    aug = []
    for row, val in zip(rows, rhs):
        scale = lcm(*(v.denominator for v in row), val.denominator)
        aug.append([v.numerator * (scale // v.denominator) for v in (*row, val)])
    rank = 0
    for col in range(k):
        pivot = max(range(rank, m), key=lambda i: abs(aug[i][col]), default=None)
        if pivot is None or aug[pivot][col] == 0:
            raise ValueError(
                f"training system is rank deficient (column {col} has no pivot); "
                "choose structurally more diverse training points"
            )
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        prow = aug[rank]
        p = prow[col]
        for i in range(m):
            f = aug[i][col]
            if i != rank and f:
                row = [p * v - f * w for v, w in zip(aug[i], prow)]
                g = gcd(*row) or 1
                aug[i] = [v // g for v in row]
        rank += 1
    for i in range(rank, m):
        if aug[i][k] != 0:
            return None
    return [Fraction(aug[i][k], aug[i][i]) for i in range(k)]


# One entry of one row update in _solve_exact, two products and a share of the
# row's gcd, costs this many units of work times w * isqrt(w), w its bit
# weight: their time grew as about the 1.6th power of the entries' length, and
# w**2 refused 3x too early at large w.  At the bound the solve took 0.8-1.1 s:
# (1, 13309) on the six default points, (1, 2728) on the 38 points 2..39, and
# (1, 137) on the 2000 points 2..2001, whose oracle, near its own bound, took
# 0.5 s more (2-CPU container, Python 3.11.7).  fit() also bounds the solve and
# the oracle together, which admits the second (9.83e6 units) and refuses the
# first and third (1.005e7 and 1.60e7), as it does (1, 83) on 2..3001, whose
# gates each admitted it and which took 1.45 s.  Every fit with r + s <= 12 on
# points up to 300 has weight 1, so 300 points cost 480,000 units;
# fit(1, 99991) on the default points, which ran 41 s, costs 2e8 and is refused.
_SOLVE_ENTRY_COST = 80


def _solve_work(r: int, s: int, ns: tuple[int, ...], unknowns: int) -> int:
    """Estimated work of _solve_exact on the fit's rows, before they exist.

    Each of the unknowns pivots updates every row, unknowns + 1 entries each.
    The entries are about as long as n**(r+s+1) at the largest point, the
    longest column, and each is weighted by w * isqrt(w), w that length's
    arith._bit_weight.
    """
    weight = arith._bit_weight(r + s + 1, ns[-1])
    return _SOLVE_ENTRY_COST * len(ns) * unknowns * (unknowns + 1) * weight * isqrt(weight)


def _design_rows(columns: tuple[tuple[int, int], ...], ns: tuple[int, ...]) -> list[list[Fraction]]:
    # a row of column values per point, each column one ClosedForm for every row
    forms = [ClosedForm(((Fraction(1), power, order),)) for power, order in columns]
    return [list(row) for row in zip(*[form._values(ns) for form in forms])]


def fit(r: int, s: int, train_ns: tuple[int, ...] | list[int]) -> FitReport:
    """Fit the ansatz to oracle values at the training points, exactly.

    Needs at least five distinct points, all >= 2 (four unknowns, so the
    system is overdetermined by at least one equation; with r == s, three
    unknowns and at least two spare equations).  A training set mixing
    primes, a proper prime power and composite radicals keeps the system
    well conditioned; what fit() actually enforces is full column rank,
    raising a usage error when the basis degenerates.  The oracle values of
    all points come from one call, which shares one pair of σ tables.  A
    solve, an oracle or the two together estimated above the work limit
    raise BudgetExceededError before either starts.
    """
    if r < 1 or s < 1:
        raise ValueError(f"fit requires r, s >= 1, got ({r}, {s})")
    ns = tuple(sorted(set(train_ns)))
    if len(ns) < 5:
        raise ValueError(f"need at least 5 distinct training points, got {len(ns)}")
    if ns[0] < 2:
        raise ValueError(f"training points must be >= 2, got {ns[0]}")
    # with r == s the D column equals the C column, so it is left out
    columns = _columns(r, s)[: 3 if r == s else 4]
    # the solve's estimate, the oracle's, then their sum: each refuses before
    # any work, and the oracle refuses over-budget points before the rows
    # factorize them
    solve = _solve_work(r, s, ns, len(columns))
    arith._check_work(solve, "the exact solve of the fit needs about {work} units of work")
    work = solve + _convolution_work(r, s, ns)
    arith._check_work(work, "the fit's solve and oracle together need about {work} units of work")
    rhs = _convolutions(r, s, ns, "Bprime")
    solution = _solve_exact(_design_rows(columns, ns), rhs)
    if solution is None:
        return FitReport(r, s, None, ns, (), (), "inconsistent")
    coeffs = PatternCoeffs(*solution, *[Fraction(0)] * (4 - len(solution)), degenerate=r == s)
    return FitReport(r, s, coeffs, ns, (), (), "consistent")


def _test_points(test_ns, train_ns) -> tuple[int, ...]:
    # the sorted distinct test points, which validate() and fit_and_validate() refuse alike
    ns = tuple(sorted(set(test_ns)))
    if not ns:
        raise ValueError("validation needs a nonempty test set")
    if ns[0] < 2:
        raise ValueError(f"test points must be >= 2, got {ns[0]}")
    overlap = set(ns) & set(train_ns)
    if overlap:
        raise ValueError(f"test points {sorted(overlap)} overlap the training set")
    return ns


def validate(
    coeffs: PatternCoeffs,
    r: int,
    s: int,
    test_ns: tuple[int, ...] | list[int],
    train_ns: tuple[int, ...] | list[int] = (),
) -> FitReport:
    """Replay fitted coefficients against the oracle on fresh points.

    Residuals are oracle minus ansatz, exact; the verdict is "consistent"
    only when every residual is zero.  An empty test set or any overlap
    with the training set is a usage error.  The oracle values of all
    points come from one call, which shares one pair of σ tables.
    """
    ns = _test_points(test_ns, train_ns)
    form = _ansatz_form(r, s, coeffs[:4])
    residuals = tuple(map(sub, _convolutions(r, s, ns, "Bprime"), form._values(ns)))
    verdict = "consistent" if all(res == 0 for res in residuals) else "inconsistent"
    return FitReport(r, s, coeffs, tuple(sorted(set(train_ns))), ns, residuals, verdict)


def fit_and_validate(
    r: int,
    s: int,
    train_ns: tuple[int, ...] | list[int],
    test_ns: tuple[int, ...] | list[int],
) -> FitReport:
    """fit() then validate(); an inconsistent fit checks the test points but skips their oracle."""
    report = fit(r, s, train_ns)
    if report.coefficients is None:
        return report._replace(test_ns=_test_points(test_ns, report.train_ns))
    return validate(report.coefficients, r, s, test_ns, report.train_ns)


def probe_weight10(
    r: int,
    s: int,
    train_ns: tuple[int, ...] | list[int] = DEFAULT_TRAIN_NS,
    test_ns: tuple[int, ...] | list[int] = DEFAULT_TEST_NS,
) -> FitReport:
    """Run the fitter at an unproven weight-10 pair.

    Whatever the outcome, the report carries the "numerical evidence"
    label: nothing here is a proof, it is the fitter applied beyond the
    stored theorems.
    """
    if tuple(sorted((r, s))) not in WEIGHT10_PAIRS:
        raise ValueError(f"weight-10 probes cover {WEIGHT10_PAIRS}, got ({r}, {s})")
    return fit_and_validate(r, s, train_ns, test_ns)._replace(label=EVIDENCE_LABEL)


def theorem_pattern(tid: TheoremId | str) -> PatternCoeffs:
    """The stored ansatz coefficients of a theorem id (variant resolved), to
    compare fresh fits against."""
    key = _key(tid)
    r, s = THEOREM_RS[key[0]]
    return PatternCoeffs(*_COEFFICIENTS[key], degenerate=r == s)
