"""Representation counters over the solution sets.

Four counting problems share one shape: attach to every quadruple
(u, v, x, y) in B(n) or B'(n) the number of ways to split u**r and v**s.

* L / Lprime   splits a + c = u**r with a >= 0, c >= 1, and b + d = v**s
               likewise; each quadruple contributes u**r * v**s.
* M / Mprime   splits run over factorizations k*e = u**r and l*f = v**s
               with coprime splits a + c = e, b + d = f (gcd(a, c) =
               gcd(b, d) = 1, with gcd(0, c) = c), which collapses to the
               same totals because the coprime splits of e number phi(e).

count_fast is the collapsed sum, Σ u**r v**s over the counter's set,
which is exactly the convolution oracle brute_convolution; it walks no
set.  count_raw visits the tuples one by one, independent of the
collapsing step and of the oracle, so the two routes check each other; it
reads the set from lattice.quadruples, the memo check_pre_identity reads
too.  count_raw and verify_lm refuse raw work in the order count_raw
states, each refusal before the work it guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import divisors, sigma_convolution, sigma_k
from .lattice import (
    SOLUTION_SETS,
    BudgetExceededError,
    _convolutions,
    _sigma_prime_convolution,
    brute_convolution,
    quadruples,
)

__all__ = [
    "COUNTERS",
    "CountSpec",
    "BudgetExceededError",
    "count_fast",
    "count_raw",
    "verify_lm",
    "LMRow",
    "LMReport",
    "DEFAULT_BUDGET",
]

COUNTERS = ("L", "M", "Lprime", "Mprime")
DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class CountSpec:
    """Which counter to evaluate, at which exponents and target n."""

    which: str
    r: int
    s: int
    n: int

    def __post_init__(self):
        if self.which not in COUNTERS:
            raise ValueError(f"counter must be one of {COUNTERS}, got {self.which!r}")
        if self.r < 1 or self.s < 1:
            raise ValueError(f"counters need r, s >= 1, got ({self.r}, {self.s})")
        if self.n < 2:
            raise ValueError(f"counters need n >= 2, got {self.n}")

    @property
    def solution_set(self) -> str:
        return "Bprime" if self.which.endswith("prime") else "B"


def count_fast(spec: CountSpec) -> int:
    """Collapsed count: Σ u**r v**s over the quadruples of the counter's set.

    That sum is the convolution oracle brute_convolution over B(n) or
    B'(n), so this enumerates nothing and, like the oracle, raises
    BudgetExceededError above the oracle's work limit.  The L and M
    problems have the same collapsed total (the coprime splits of e number
    phi(e), and Σ_{e | w} phi(e) = w); the distinction only matters for
    the raw route.
    """
    return brute_convolution(spec.r, spec.s, spec.n, spec.solution_set)


def count_raw(spec: CountSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Literal tuple enumeration of the counter, independent of count_fast.

    For L the loop ranges over every split pair (a, c), (b, d); for M it
    additionally ranges over the divisor factorizations and filters splits
    by coprimality, one gcd at a time.  Work over ``budget`` raises
    BudgetExceededError rather than grinding for hours.  Refusals come in
    this order, each before the work it guards: the fast count (every
    counted tuple is visited, so it bounds the visits below, and for L it
    is exact) over ``budget``; listing the set, by lattice.quadruples, over
    the enumerator's work limit, for n > 8503; then, for M alone, an
    estimate free of the phi collapse, Σ sigma(u**r) * (1 + sigma(v**s))
    over the set, over ``budget``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return _raw_count(spec, count_fast(spec), budget)


def _raw_count(spec: CountSpec, fast: int, budget: int) -> int:
    # Every raw refusal is made here or by the listing, in count_raw's order;
    # (u, v) is the (a, b) of each quadruple of the set at spec.n.
    label = f"{spec.which}({spec.r},{spec.s};{spec.n})"
    if fast > budget:
        raise BudgetExceededError(
            f"raw enumeration of {label} needs at least {fast} tuple visits, budget is {budget}"
        )
    quads = quadruples(spec.n, spec.solution_set)
    total = 0
    if spec.which in ("L", "Lprime"):
        for u, v, _, _ in quads:
            ur, vs = u**spec.r, v**spec.s
            for _a in range(ur):  # c = ur - a >= 1
                for _b in range(vs):  # d = vs - b >= 1
                    total += 1
    else:
        # M also scans rejected splits: at most sigma(u**r) * (1 + sigma(v**s))
        est = sum(sigma_k(1, u**spec.r) * (1 + sigma_k(1, v**spec.s)) for u, v, _, _ in quads)
        if est > budget:
            raise BudgetExceededError(
                f"raw enumeration of {label} needs about {est} tuple visits, budget is {budget}"
            )
        for u, v, _, _ in quads:
            ur, vs = u**spec.r, v**spec.s
            for e in divisors(ur):
                for a in range(e):
                    if gcd(a, e - a) != 1:
                        continue
                    for f in divisors(vs):
                        for b in range(f):
                            if gcd(b, f - b) == 1:
                                total += 1
    return total


@dataclass
class LMRow:
    n: int
    fast: dict[str, int]
    raw: dict[str, int]
    skipped: tuple[str, ...]  # counters whose raw route blew the budget
    conv_plain: int  # Σ sigma_r(m) sigma_s(n - m)
    conv_coprime: int  # Σ sigma_prime(r, s, m, n - m)
    ok: bool


@dataclass
class LMReport:
    r: int
    s: int
    rows: tuple[LMRow, ...]
    all_pass: bool  # over the checks that actually ran
    skipped_any: bool


def verify_lm(r: int, s: int, lo: int, hi: int, budget: int = DEFAULT_BUDGET) -> LMReport:
    """Cross-check all four counters on [lo, hi].

    Asserts raw == fast for each counter (budget permitting; blown budgets
    are recorded as skips, never failures), that L equals the classical
    convolution Σ sigma_r(m) sigma_s(n - m), and that Lprime equals
    Σ sigma_prime(r, s, m, n - m).  The fast values come from one oracle
    call per solution set over the whole range.  Raw counts follow
    count_raw's budget rule and memo: a set is enumerated at n only when a
    fast count over it fits and the memo does not hold it.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rows: list[LMRow] = []
    ns = range(lo, hi + 1)
    sums = {ss: dict(zip(ns, _convolutions(r, s, ns, ss))) for ss in SOLUTION_SETS}
    for n in ns:
        fast: dict[str, int] = {}
        raw: dict[str, int] = {}
        skipped: list[str] = []
        ok = True
        for which in COUNTERS:
            spec = CountSpec(which, r, s, n)
            fast[which] = sums[spec.solution_set][n]
            try:
                raw[which] = _raw_count(spec, fast[which], budget)
            except BudgetExceededError:
                skipped.append(which)
                continue
            if raw[which] != fast[which]:
                ok = False
        conv_plain = sigma_convolution(r, s, n)
        conv_coprime = _sigma_prime_convolution(r, s, n)
        if fast["L"] != conv_plain or fast["Lprime"] != conv_coprime:
            ok = False
        rows.append(LMRow(n, fast, raw, tuple(skipped), conv_plain, conv_coprime, ok))
    return LMReport(
        r,
        s,
        tuple(rows),
        all_pass=all(row.ok for row in rows),
        skipped_any=any(row.skipped for row in rows),
    )
