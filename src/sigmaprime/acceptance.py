"""The package's acceptance checklist, runnable as a library.

Each criterion is a named callable returning a CriterionResult; the pytest
acceptance module and the CLI ``selftest`` subcommand both run this list,
so there is exactly one definition of "done".  All comparisons are exact;
there are no tolerances anywhere.

``quick=True`` shrinks the ranges so the whole list finishes in well under
a minute; the full ranges are the normative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from .arith import bernoulli
from .identities import (
    PROOF_POLYNOMIALS,
    THEOREM_RS,
    TheoremId,
    besge_check,
    eval_theorem,
    glaisher_check,
    main_identity_sides,
    random_symmetric_poly,
    verify_theorem,
)
from .lattice import check_pre_identity
from .patternfit import (
    DEFAULT_TEST_NS,
    DEFAULT_TRAIN_NS,
    WEIGHT10_PAIRS,
    fit,
    probe_weight10,
    theorem_pattern,
    validate,
)
from .representations import verify_lm

__all__ = ["CriterionResult", "Criterion", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    name: str
    run: Callable[[bool], CriterionResult]


def _result(name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name, passed, detail)


def _c01_power_sum_methods(quick: bool) -> CriterionResult:
    from .powersums import coprime_power_sum

    hi = 120 if quick else 500
    for n in range(2, hi + 1):
        for k in range(13):
            direct = coprime_power_sum(k, n, "direct")
            moebius = coprime_power_sum(k, n, "moebius_faulhaber")
            closed = coprime_power_sum(k, n, "closed_table")
            if not (direct == moebius == closed):
                return _result(
                    "powersum-methods",
                    False,
                    f"methods disagree at n={n}, k={k}: {direct}, {moebius}, {closed}",
                )
    return _result(
        "powersum-methods", True, f"three routes agree for 2<=n<={hi}, 0<=k<=12"
    )


def _check_theorem_range(name: str, hi: int) -> str | None:
    report = verify_theorem(TheoremId(name), 2, hi)
    if not report.all_pass:
        row = report.first_counterexample
        return f"{name} fails at n={row.n}: closed {row.closed}, oracle {row.oracle}"
    return None


def _c02_t11(quick: bool) -> CriterionResult:
    hi = 80 if quick else 300
    spots = {2: 1, 3: 6}
    for n, expected in spots.items():
        got = eval_theorem(TheoremId("t11"), n)
        if got != expected:
            return _result("t11-vs-oracle", False, f"spot value t11({n}) = {got}, expected {expected}")
    bad = _check_theorem_range("t11", hi)
    if bad:
        return _result("t11-vs-oracle", False, bad)
    return _result("t11-vs-oracle", True, f"t11 matches the oracle for 2<=n<={hi}, spots at 2 and 3 pinned")


def _c03_t13_erratum(quick: bool) -> CriterionResult:
    hi_printed = 20 if quick else 50
    hi_corrected = 80 if quick else 300
    printed = verify_theorem(TheoremId("t13", "printed"), 2, hi_printed)
    for row in printed.rows:
        if row.ok:
            return _result("t13-erratum", False, f"printed t13 unexpectedly matches at n={row.n}")
        if row.closed != 8 * row.oracle:
            return _result(
                "t13-erratum",
                False,
                f"printed t13 at n={row.n} is {row.closed}, not 8 x oracle {row.oracle}",
            )
    bad = _check_theorem_range("t13", hi_corrected)
    if bad:
        return _result("t13-erratum", False, bad)
    return _result(
        "t13-erratum",
        True,
        f"printed variant is exactly 8 x oracle for 2<=n<={hi_printed}; corrected matches for 2<=n<={hi_corrected}",
    )


def _c04_weight6_weight8(quick: bool) -> CriterionResult:
    hi = 60 if quick else 200
    spots = [("t15", 3, 36), ("t33", 3, 18), ("t17", 2, 1), ("t35", 2, 1)]
    for name, n, expected in spots:
        got = eval_theorem(TheoremId(name), n)
        if got != expected:
            return _result(
                "weight6-weight8-forms", False, f"spot value {name}({n}) = {got}, expected {expected}"
            )
    for name in ("t15", "t33", "t17", "t35"):
        bad = _check_theorem_range(name, hi)
        if bad:
            return _result("weight6-weight8-forms", False, bad)
    return _result(
        "weight6-weight8-forms", True, f"t15, t33, t17, t35 match the oracle for 2<=n<={hi}"
    )


def _c05_weight12(quick: bool) -> CriterionResult:
    hi = 40 if quick else 120
    for name in ("t111", "t39", "t57"):
        got = eval_theorem(TheoremId(name), 2)
        if got != 1:
            return _result("weight12-forms", False, f"spot value {name}(2) = {got}, expected 1")
        bad = _check_theorem_range(name, hi)
        if bad:
            return _result("weight12-forms", False, bad)
    return _result("weight12-forms", True, f"t111, t39, t57 match the oracle for 2<=n<={hi}")


def _c06_main_identity(quick: bool) -> CriterionResult:
    hi_coprime = 25 if quick else 60
    hi_plain = 20 if quick else 40
    n_random = 12 if quick else 50
    rng = Random(20250819)
    family = list(PROOF_POLYNOMIALS) + [random_symmetric_poly(rng) for _ in range(n_random)]
    for which, hi in (("Bprime", hi_coprime), ("B", hi_plain)):
        for idx, f in enumerate(family):
            for n in range(2, hi + 1):
                lhs, rhs = main_identity_sides(f, n, which)
                if lhs != rhs:
                    return _result(
                        "main-identity",
                        False,
                        f"identity fails over {which} at n={n} for polynomial #{idx} ({f.to_text()}): "
                        f"lhs {lhs}, rhs {rhs}",
                    )
    return _result(
        "main-identity",
        True,
        f"{len(family)} polynomials pass over Bprime (2<=n<={hi_coprime}) and B (2<=n<={hi_plain})",
    )


def _c07_pre_identity(quick: bool) -> CriterionResult:
    max_rs = 3 if quick else 5
    hi = 30 if quick else 60
    # the six expressions for (s, r) are the same six numbers, so r <= s suffices
    for r in range(max_rs + 1):
        for s in range(r, max_rs + 1):
            for n in range(2, hi + 1):
                report = check_pre_identity(r, s, n)
                if not report.all_equal:
                    return _result(
                        "pre-identity",
                        False,
                        f"six expressions disagree at r={r}, s={s}, n={n}: {report.values()}",
                    )
    return _result(
        "pre-identity", True, f"all six expressions agree for r,s<={max_rs}, 2<=n<={hi}"
    )


def _c08_besge_glaisher(quick: bool) -> CriterionResult:
    hi = 100 if quick else 300
    for n in range(2, hi + 1):
        if not besge_check(n):
            return _result("besge-glaisher", False, f"sigma*sigma evaluation fails at n={n}")
        if not glaisher_check(n):
            return _result("besge-glaisher", False, f"sigma*sigma_3 evaluation fails at n={n}")
    return _result("besge-glaisher", True, f"both classical evaluations hold for 2<=n<={hi}")


def _c09_representation_counts(quick: bool) -> CriterionResult:
    hi_raw = 8 if quick else 12
    hi_fast = 25 if quick else 60
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            raw = verify_lm(r, s, 2, hi_raw)
            if not raw.all_pass:
                bad = next(row for row in raw.rows if not row.ok)
                return _result(
                    "representation-counts",
                    False,
                    f"raw/fast mismatch at r={r}, s={s}, n={bad.n}: fast {bad.fast}, raw {bad.raw}",
                )
            if raw.skipped_any:
                return _result(
                    "representation-counts",
                    False,
                    f"raw enumeration unexpectedly hit the budget at r={r}, s={s}",
                )
            fast = verify_lm(r, s, hi_raw + 1, hi_fast, budget=1)
            for row in fast.rows:
                if row.fast["L"] != row.conv_plain or row.fast["Lprime"] != row.conv_coprime:
                    return _result(
                        "representation-counts",
                        False,
                        f"fast count disagrees with convolution at r={r}, s={s}, n={row.n}",
                    )
    return _result(
        "representation-counts",
        True,
        f"raw == fast == convolution for r,s in (1,2,3), raw to n={hi_raw}, fast to n={hi_fast}",
    )


def _c10_pattern_fit(quick: bool) -> CriterionResult:
    for name, (r, s) in THEOREM_RS.items():
        expected = theorem_pattern(TheoremId(name))
        report = fit(r, s, DEFAULT_TRAIN_NS)
        if report.coefficients != expected:
            return _result(
                "pattern-fit",
                False,
                f"fit at ({r},{s}) got {report.coefficients}, expected {expected}",
            )
        check = validate(report.coefficients, r, s, DEFAULT_TEST_NS, DEFAULT_TRAIN_NS)
        if check.verdict != "consistent":
            return _result(
                "pattern-fit",
                False,
                f"validation at ({r},{s}) left residuals {check.residuals}",
            )
    for r, s in WEIGHT10_PAIRS:
        probe = probe_weight10(r, s)
        if probe.label != "numerical evidence":
            return _result(
                "pattern-fit", False, f"weight-10 probe at ({r},{s}) lost its evidence label"
            )
    return _result(
        "pattern-fit",
        True,
        "nine stored coefficient sets recovered exactly and validated; three weight-10 probes labeled",
    )


def _c11_bernoulli(quick: bool) -> CriterionResult:
    table = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for j, expected in table.items():
        got = bernoulli(j)
        if got != expected:
            return _result("bernoulli-table", False, f"bernoulli({j}) = {got}, expected {expected}")
    return _result("bernoulli-table", True, "all eight tabulated values match")


CRITERIA: tuple[Criterion, ...] = (
    Criterion("powersum-methods", _c01_power_sum_methods),
    Criterion("t11-vs-oracle", _c02_t11),
    Criterion("t13-erratum", _c03_t13_erratum),
    Criterion("weight6-weight8-forms", _c04_weight6_weight8),
    Criterion("weight12-forms", _c05_weight12),
    Criterion("main-identity", _c06_main_identity),
    Criterion("pre-identity", _c07_pre_identity),
    Criterion("besge-glaisher", _c08_besge_glaisher),
    Criterion("representation-counts", _c09_representation_counts),
    Criterion("pattern-fit", _c10_pattern_fit),
    Criterion("bernoulli-table", _c11_bernoulli),
)


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run every acceptance criterion in order; never raises, only reports."""
    results = []
    for criterion in CRITERIA:
        try:
            results.append(criterion.run(quick))
        except Exception as exc:  # a crash is a failure, not an excuse
            results.append(CriterionResult(criterion.name, False, f"raised {exc!r}"))
    return results
