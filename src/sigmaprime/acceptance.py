"""The package's acceptance checklist, runnable as a library.

Each criterion is one row of a table: its name, its quick and full
parameters, and the check they are passed to.  The pytest acceptance
module and the CLI ``selftest`` subcommand both run this table, so there
is exactly one definition of "done".  All comparisons are exact; there are
no tolerances anywhere.

``quick=True`` picks the smaller parameters so the whole list finishes in
well under a minute; the full ranges are the normative ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, NamedTuple

from .arith import bernoulli
from .identities import (
    PROOF_POLYNOMIALS,
    THEOREM_RS,
    TheoremId,
    _sides_over,
    besge_check,
    eval_theorem,
    glaisher_check,
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
from .powersums import coprime_power_sum
from .representations import verify_lm

__all__ = ["CriterionResult", "Criterion", "CRITERIA", "run_all"]


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class Criterion(NamedTuple):
    """One row of the checklist: ``check(*quick)`` or ``check(*full)`` gives (passed, detail)."""

    name: str
    quick: tuple
    full: tuple
    check: Callable[..., tuple[bool, str]]

    def run(self, quick: bool) -> CriterionResult:
        return CriterionResult(self.name, *self.check(*(self.quick if quick else self.full)))


def _c01_power_sum_methods(hi: int) -> tuple[bool, str]:
    for n in range(2, hi + 1):
        for k in range(13):
            direct = coprime_power_sum(k, n, "direct")
            moebius = coprime_power_sum(k, n, "moebius_faulhaber")
            closed = coprime_power_sum(k, n, "closed_table")
            if not (direct == moebius == closed):
                return False, f"methods disagree at n={n}, k={k}: {direct}, {moebius}, {closed}"
    return True, f"three routes agree for 2<=n<={hi}, 0<=k<=12"


def _theorem_forms(spots: dict[str, dict[int, int]], hi: int) -> tuple[bool, str]:
    # spots maps each tag to its pinned values {n: expected}; every tag's form
    # must also match the oracle on 2..hi
    for name, pins in spots.items():
        for n, expected in pins.items():
            got = eval_theorem(TheoremId(name), n)
            if got != expected:
                return False, f"spot value {name}({n}) = {got}, expected {expected}"
    for name in spots:
        report = verify_theorem(TheoremId(name), 2, hi)
        if not report.all_pass:
            row = report.first_counterexample
            return False, f"{name} fails at n={row.n}: closed {row.closed}, oracle {row.oracle}"
    if len(spots) > 1:
        return True, f"{', '.join(spots)} match the oracle for 2<=n<={hi}"
    ((name, pins),) = spots.items()
    pinned = " and ".join(map(str, pins))
    return True, f"{name} matches the oracle for 2<=n<={hi}, spots at {pinned} pinned"


def _c03_t13_erratum(hi_printed: int, hi_corrected: int) -> tuple[bool, str]:
    printed = verify_theorem(TheoremId("t13", "printed"), 2, hi_printed)
    for row in printed.rows:
        if row.ok:
            return False, f"printed t13 unexpectedly matches at n={row.n}"
        if row.closed != 8 * row.oracle:
            return False, f"printed t13 at n={row.n} is {row.closed}, not 8 x oracle {row.oracle}"
    corrected = _theorem_forms({"t13": {}}, hi_corrected)
    if not corrected[0]:
        return corrected
    return (
        True,
        f"printed variant is exactly 8 x oracle for 2<=n<={hi_printed}; corrected matches for 2<=n<={hi_corrected}",
    )


def _c06_main_identity(hi_coprime: int, hi_plain: int, n_random: int) -> tuple[bool, str]:
    rng = Random(20250819)
    family = list(PROOF_POLYNOMIALS) + [random_symmetric_poly(rng) for _ in range(n_random)]
    # f outermost, so each (f, set) takes its whole range from one _sides_over call
    for idx, f in enumerate(family):
        for which, hi in (("Bprime", hi_coprime), ("B", hi_plain)):
            ns = range(2, hi + 1)
            for n, (lhs, rhs) in zip(ns, _sides_over(f, ns, which)):
                if lhs != rhs:
                    return (
                        False,
                        f"identity fails over {which} at n={n} for polynomial #{idx} ({f.to_text()}): "
                        f"lhs {lhs}, rhs {rhs}",
                    )
    return (
        True,
        f"{len(family)} polynomials pass over Bprime (2<=n<={hi_coprime}) and B (2<=n<={hi_plain})",
    )


def _c07_pre_identity(max_rs: int, hi: int) -> tuple[bool, str]:
    # the six expressions for (s, r) are the same six numbers, so r <= s suffices
    for r in range(max_rs + 1):
        for s in range(r, max_rs + 1):
            for n in range(2, hi + 1):
                report = check_pre_identity(r, s, n)
                if not report.all_equal:
                    return (
                        False,
                        f"six expressions disagree at r={r}, s={s}, n={n}: {report.values()}",
                    )
    return True, f"all six expressions agree for r,s<={max_rs}, 2<=n<={hi}"


def _c08_besge_glaisher(hi: int) -> tuple[bool, str]:
    for n in range(2, hi + 1):
        if not besge_check(n):
            return False, f"sigma*sigma evaluation fails at n={n}"
        if not glaisher_check(n):
            return False, f"sigma*sigma_3 evaluation fails at n={n}"
    return True, f"both classical evaluations hold for 2<=n<={hi}"


def _c09_representation_counts(hi_raw: int, hi_fast: int) -> tuple[bool, str]:
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            raw = verify_lm(r, s, 2, hi_raw)
            if not raw.all_pass:
                bad = next(row for row in raw.rows if not row.ok)
                return (
                    False,
                    f"raw/fast mismatch at r={r}, s={s}, n={bad.n}: fast {bad.fast}, raw {bad.raw}",
                )
            if raw.skipped_any:
                return False, f"raw enumeration unexpectedly hit the budget at r={r}, s={s}"
            # a budget of 1 skips every raw count; the row still checks the
            # fast L and Lprime against both convolutions
            fast = verify_lm(r, s, hi_raw + 1, hi_fast, budget=1)
            if not fast.all_pass:
                bad = next(row for row in fast.rows if not row.ok)
                return False, f"fast count disagrees with convolution at r={r}, s={s}, n={bad.n}"
    return (
        True,
        f"raw == fast == convolution for r,s in (1,2,3), raw to n={hi_raw}, fast to n={hi_fast}",
    )


def _c10_pattern_fit() -> tuple[bool, str]:
    for name, (r, s) in THEOREM_RS.items():
        expected = theorem_pattern(TheoremId(name))
        report = fit(r, s, DEFAULT_TRAIN_NS)
        if report.coefficients != expected:
            return False, f"fit at ({r},{s}) got {report.coefficients}, expected {expected}"
        check = validate(report.coefficients, r, s, DEFAULT_TEST_NS, DEFAULT_TRAIN_NS)
        if check.verdict != "consistent":
            return False, f"validation at ({r},{s}) left residuals {check.residuals}"
    for r, s in WEIGHT10_PAIRS:
        probe = probe_weight10(r, s)
        if probe.label != "numerical evidence":
            return False, f"weight-10 probe at ({r},{s}) lost its evidence label"
    return (
        True,
        "nine stored coefficient sets recovered exactly and validated; three weight-10 probes labeled",
    )


def _c11_bernoulli() -> tuple[bool, str]:
    table = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6), 4: Fraction(-1, 30)}
    table |= {6: Fraction(1, 42), 8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    for j, expected in table.items():
        got = bernoulli(j)
        if got != expected:
            return False, f"bernoulli({j}) = {got}, expected {expected}"
    return True, "all eight tabulated values match"


_T11_SPOTS = {"t11": {2: 1, 3: 6}}
_WEIGHT6_WEIGHT8_SPOTS = {"t15": {3: 36}, "t33": {3: 18}, "t17": {2: 1}, "t35": {2: 1}}
_WEIGHT12_SPOTS = {"t111": {2: 1}, "t39": {2: 1}, "t57": {2: 1}}

# name, quick parameters, full parameters, check
CRITERIA: tuple[Criterion, ...] = (
    Criterion("powersum-methods", (120,), (500,), _c01_power_sum_methods),
    Criterion("t11-vs-oracle", (80,), (300,), partial(_theorem_forms, _T11_SPOTS)),
    Criterion("t13-erratum", (20, 80), (50, 300), _c03_t13_erratum),
    Criterion(
        "weight6-weight8-forms", (60,), (200,), partial(_theorem_forms, _WEIGHT6_WEIGHT8_SPOTS)
    ),
    Criterion("weight12-forms", (40,), (120,), partial(_theorem_forms, _WEIGHT12_SPOTS)),
    Criterion("main-identity", (25, 20, 12), (60, 40, 50), _c06_main_identity),
    Criterion("pre-identity", (3, 30), (5, 60), _c07_pre_identity),
    Criterion("besge-glaisher", (100,), (300,), _c08_besge_glaisher),
    Criterion("representation-counts", (8, 25), (12, 60), _c09_representation_counts),
    Criterion("pattern-fit", (), (), _c10_pattern_fit),
    Criterion("bernoulli-table", (), (), _c11_bernoulli),
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
