"""Exact rational fitting of the closed-form ansatz.

Every proven convolution evaluation in this package matches the template

    Σ_m sigma_prime(r, s, m, n - m)
        = (A n**(r+s+1) + B n) psi_{-1}(n) + C n**r psi_s(n) + D n**s psi_r(n)

with rational A, B, C, D.  The template is a ClosedForm over four
(n_power, psi_order) columns, stated once in _columns; evaluation, the fit's
design rows and the reading of stored forms all read them.  fit() recovers
the coefficients from oracle values by exact Gaussian elimination (no
floats anywhere), validate() replays a fitted ansatz against the oracle on
fresh n, and probe_weight10() runs the machinery at the unproven weight-10
exponent pairs, labeling the outcome as numerical evidence rather than a
theorem.

The oracle is always the convolution oracle behind brute_convolution over
B'(n), never a stored form.  fit() and validate() each call it once for
their whole point set, so one pair of σ tables serves every point, in this
process.
When r == s the C and D columns coincide; the fit then drops D, so C
carries the combined coefficient and D is fixed at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .identities import THEOREM_RS, TheoremId, parse_theorem_id, theorem_form
from .lattice import _convolutions
from .powersums import ClosedForm, psi

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


@dataclass(frozen=True)
class PatternCoeffs:
    """Fitted ansatz coefficients; all exact Fractions.

    ``degenerate`` marks the r == s case, where only C + D is determined:
    by convention C then holds the combined value and D is 0.
    """

    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    degenerate: bool = False


@dataclass(frozen=True)
class FitReport:
    r: int
    s: int
    coefficients: PatternCoeffs | None  # None when the training system is inconsistent
    train_ns: tuple[int, ...]
    test_ns: tuple[int, ...]
    residuals: tuple[Fraction, ...]  # oracle minus ansatz, per test n
    verdict: str  # "consistent" or "inconsistent"
    label: str | None = None  # set on weight-10 probes


def _columns(r: int, s: int) -> tuple[tuple[int, int], ...]:
    # (n_power, psi_order) of the A, B, C and D columns of the ansatz
    return ((r + s + 1, -1), (1, -1), (r, s), (s, r))


def pattern_value(coeffs: PatternCoeffs, r: int, s: int, n: int) -> Fraction:
    """Evaluate the ansatz at n >= 2, as the ClosedForm of its columns.

    In the degenerate case D is 0, and any D would add to C anyway.  Like
    every closed form, it refuses n < 2.
    """
    coefficients = (coeffs.A, coeffs.B, coeffs.C, coeffs.D)
    terms = tuple((c, p, o) for c, (p, o) in zip(coefficients, _columns(r, s)))
    return ClosedForm(terms).evaluate(n)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve an overdetermined exact linear system by Gaussian elimination.

    Pivoting picks the largest-magnitude entry in the column (Fraction
    comparison is exact cross multiplication), rows are eliminated in
    place, and leftover rows decide consistency.  Returns the solution, or
    None when some leftover row reads 0 == nonzero.  A rank below the
    number of unknowns raises, naming the deficiency, since the caller then
    supplied a structurally degenerate training set.
    """
    m, k = len(rows), len(rows[0])
    aug = [row[:] + [val] for row, val in zip(rows, rhs)]
    rank = 0
    for col in range(k):
        pivot = max(range(rank, m), key=lambda i: abs(aug[i][col]), default=None)
        if pivot is None or aug[pivot][col] == 0:
            raise ValueError(
                f"training system is rank deficient (column {col} has no pivot); "
                "choose structurally more diverse training points"
            )
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[rank])]
        rank += 1
    for i in range(rank, m):
        if aug[i][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def _design_row(columns: tuple[tuple[int, int], ...], n: int) -> list[Fraction]:
    return [Fraction(n) ** power * psi(order, n) for power, order in columns]


def fit(r: int, s: int, train_ns: tuple[int, ...] | list[int]) -> FitReport:
    """Fit the ansatz to oracle values at the training points, exactly.

    Needs at least five distinct points, all >= 2 (four unknowns, so the
    system is overdetermined by at least one equation; with r == s, three
    unknowns and at least two spare equations).  A training set mixing
    primes, a proper prime power and composite radicals keeps the system
    well conditioned; what fit() actually enforces is full column rank,
    raising a usage error when the basis degenerates.  The oracle values of
    all points come from one call, which shares one pair of σ tables.
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
    # the oracle first: it refuses over-budget points before psi factorizes them
    rhs = list(map(Fraction, _convolutions(r, s, ns, "Bprime")))
    solution = _solve_exact([_design_row(columns, n) for n in ns], rhs)
    if solution is None:
        return FitReport(r, s, None, ns, (), (), "inconsistent")
    coeffs = PatternCoeffs(*solution, *[Fraction(0)] * (4 - len(solution)), degenerate=r == s)
    return FitReport(r, s, coeffs, ns, (), (), "consistent")


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
    ns = tuple(sorted(set(test_ns)))
    if not ns:
        raise ValueError("validation needs a nonempty test set")
    if ns[0] < 2:
        raise ValueError(f"test points must be >= 2, got {ns[0]}")
    overlap = set(ns) & set(train_ns)
    if overlap:
        raise ValueError(f"test points {sorted(overlap)} overlap the training set")
    residuals = tuple(
        oracle - pattern_value(coeffs, r, s, n)
        for n, oracle in zip(ns, _convolutions(r, s, ns, "Bprime"))
    )
    verdict = "consistent" if all(res == 0 for res in residuals) else "inconsistent"
    return FitReport(r, s, coeffs, tuple(sorted(set(train_ns))), ns, residuals, verdict)


def fit_and_validate(
    r: int,
    s: int,
    train_ns: tuple[int, ...] | list[int],
    test_ns: tuple[int, ...] | list[int],
) -> FitReport:
    """fit() then validate(); an inconsistent training fit short-circuits."""
    report = fit(r, s, train_ns)
    if report.coefficients is None:
        return replace(report, test_ns=tuple(sorted(set(test_ns))))
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
    return replace(fit_and_validate(r, s, train_ns, test_ns), label=EVIDENCE_LABEL)


def theorem_pattern(tid: TheoremId | str) -> PatternCoeffs:
    """Convert a stored closed form into ansatz coefficients.

    Used to compare fresh fits against the stored theorem constants; each
    term goes to the ansatz column with its (n_power, psi_order), the first
    one when r == s, and a term outside the ansatz raises ValueError.
    """
    if isinstance(tid, str):
        tid = parse_theorem_id(tid)
    r, s = THEOREM_RS[tid.name]
    columns = _columns(r, s)
    coefficients = [Fraction(0)] * len(columns)
    for coeff, power, order in theorem_form(tid).terms:
        if (power, order) not in columns:
            raise ValueError(f"term {(coeff, power, order)} does not fit the ansatz")
        coefficients[columns.index((power, order))] += coeff
    return PatternCoeffs(*coefficients, degenerate=r == s)
