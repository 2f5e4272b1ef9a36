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
set.  count_raw scans each half split by split and multiplies per
quadruple, independent of the collapsing step and of the oracle, so the
two routes check each other; it lists each set by lattice.quadruples
once per call.  count_raw and verify_lm refuse raw work in the order
count_raw states, each refusal before the work it guards.  The M estimate
and scan read sigma(u**r) and the divisors of u**r from arith's kernels
_sigma_of and _divisors_of, over u's factors with each exponent times r, so
no u**r reaches arith's caches.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import _divisors_of, _sigma_of, factorize, sigma_convolution
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


class _CountSpec(NamedTuple):
    which: str
    r: int
    s: int
    n: int


class CountSpec(_CountSpec):
    """Which counter to evaluate, at which exponents and target n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__

    def __new__(cls, which: str, r: int, s: int, n: int):
        if which not in COUNTERS:
            raise ValueError(f"counter must be one of {COUNTERS}, got {which!r}")
        if r < 1 or s < 1:
            raise ValueError(f"counters need r, s >= 1, got ({r}, {s})")
        if n < 2:
            raise ValueError(f"counters need n >= 2, got {n}")
        return tuple.__new__(cls, (which, r, s, n))

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

    Each half of a tuple is counted on its own and the two counts are
    multiplied per quadruple.  For L a half counts every split a + c = w
    with a >= 0, c >= 1; for M it ranges over the divisors e of w and
    counts the splits a + c = e with gcd(a, c) = 1, one gcd at a time.
    The set and each distinct w are scanned once per call.  ``budget``
    bounds the tuples counted: a count over it raises BudgetExceededError
    rather than grinding for hours.  Refusals come in this order, each before the work
    it guards: the fast count (the number of tuples counted, when the two
    routes agree) over ``budget``; listing the set, by lattice.quadruples,
    over the enumerator's work limit, for n > 8503; then, for M alone, an
    estimate free of the phi collapse, Σ sigma(u**r) * (1 + sigma(v**s))
    over the set, over ``budget``.  That estimate bounds the nested scan
    over (e, a, f, b), which does more work than the product, and stays the
    refusal rule so that the same inputs are refused.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return _raw_count(spec, count_fast(spec), budget, {})


def _power_factors(u: int, r: int) -> list[tuple[int, int]]:
    # the factors of u**r, from those of u, so only u < n reaches arith's caches
    return [(p, r * e) for p, e in factorize(u)]


def _raw_count(spec: CountSpec, fast: int, budget: int, splits: dict) -> int:
    # Every raw refusal is made here or by the listing, in count_raw's order;
    # (u, v) is the (a, b) of each quadruple of the set at spec.n.  splits
    # maps (kind, w) to the splits of w and (n, set) to the listed set, for
    # one count_raw or verify_lm call.
    label = f"{spec.which}({spec.r},{spec.s};{spec.n})"
    if fast > budget:
        raise BudgetExceededError(
            f"raw enumeration of {label} needs at least {fast} tuple visits, budget is {budget}"
        )
    listing = (spec.n, spec.solution_set)
    if listing not in splits:
        splits[listing] = quadruples(*listing)
    quads = splits[listing]
    if spec.which in ("L", "Lprime"):
        kind = "L"
    else:
        # bounds the nested scan of the M splits, rejected ones included:
        # at most sigma(u**r) * (1 + sigma(v**s)) per quadruple
        su = {u: _sigma_of(1, _power_factors(u, spec.r)) for u in {q[0] for q in quads}}
        sv = {v: _sigma_of(1, _power_factors(v, spec.s)) for v in {q[1] for q in quads}}
        est = sum(su[u] * (1 + sv[v]) for u, v, _, _ in quads)
        if est > budget:
            raise BudgetExceededError(
                f"raw enumeration of {label} needs about {est} tuple visits, budget is {budget}"
            )
        kind = "M"

    def half(u: int, r: int) -> int:
        # the splits of one half are independent of the other's, so a
        # quadruple's tuples number half(u, r) * half(v, s)
        w = u**r
        key = (kind, w)
        if key not in splits:
            count = 0
            if kind == "L":
                for _a in range(w):  # c = w - a >= 1
                    count += 1
            else:
                for e in _divisors_of(_power_factors(u, r)):
                    for a in range(e):
                        if gcd(a, e - a) == 1:
                            count += 1
            splits[key] = count
        return splits[key]

    total = 0
    for u, v, _, _ in quads:
        total += half(u, spec.r) * half(v, spec.s)
    return total


class LMRow(NamedTuple):
    n: int
    fast: dict[str, int]
    raw: dict[str, int]
    skipped: tuple[str, ...]  # counters whose raw route blew the budget
    conv_plain: int  # Σ sigma_r(m) sigma_s(n - m)
    conv_coprime: int  # Σ sigma_prime(r, s, m, n - m)
    ok: bool


class LMReport(NamedTuple):
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
    count_raw's budget rule: a set is listed at n only when a fast count
    over it fits, once for its two counters, and dropped after the row.
    The rows share one table of split counts, which lives for this call.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rows: list[LMRow] = []
    ns = range(lo, hi + 1)
    sums = {ss: dict(zip(ns, _convolutions(r, s, ns, ss))) for ss in SOLUTION_SETS}
    splits: dict = {}
    for n in ns:
        fast: dict[str, int] = {}
        raw: dict[str, int] = {}
        skipped: list[str] = []
        ok = True
        for which in COUNTERS:
            spec = CountSpec(which, r, s, n)
            fast[which] = sums[spec.solution_set][n]
            try:
                raw[which] = _raw_count(spec, fast[which], budget, splits)
            except BudgetExceededError:
                skipped.append(which)
                continue
            if raw[which] != fast[which]:
                ok = False
        for ss in SOLUTION_SETS:
            splits.pop((n, ss), None)
        conv_plain = sigma_convolution(r, s, n)
        conv_coprime = _sigma_prime_convolution(r, s, n)
        if fast["L"] != conv_plain or fast["Lprime"] != conv_coprime:
            ok = False
        rows.append(LMRow(n, fast, raw, tuple(skipped), conv_plain, conv_coprime, ok))
    return LMReport(r, s, tuple(rows), all(row.ok for row in rows), any(row.skipped for row in rows))
