"""Polynomial identity engine.

Holds the exact four-variable polynomial type used as test functions, the
six-term main identity and its divisor-sum analogue over B(n), the stored
closed forms for the nine proven (r, s) convolution evaluations, range
verification against the enumeration oracle, and the two classical
convolution checks (besge_check, glaisher_check).

A test function f(a, b, x, y) qualifies for the identities when it
satisfies, as a polynomial identity,

    f(a, b, x, y) - f(x, y, a, b) = f(-a, -b, x, y) - f(x, y, -a, -b).

symmetry_holds checks it exactly, as a rule on f's coefficients, so the
identity checks never run on an unqualified f.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

from . import arith
from .arith import BudgetExceededError, divisors, sigma_convolution, sigma_k
from .lattice import _convolutions, _quadruple_bound, enumerate_quadruples
from .powersums import ClosedForm, _form

__all__ = [
    "Poly4",
    "symmetry_holds",
    "main_identity_sides",
    "random_symmetric_poly",
    "PROOF_POLYNOMIALS",
    "TheoremId",
    "parse_theorem_id",
    "THEOREM_RS",
    "THEOREM_BY_RS",
    "theorem_form",
    "eval_theorem",
    "verify_theorem",
    "VerifyRow",
    "VerifyReport",
    "besge_check",
    "glaisher_check",
]

_VARS = "abxy"

Monomials = dict[tuple[int, int, int, int], int]


class Poly4:
    """Integer polynomial in the four variables a, b, x, y, stored exactly.

    Internally a mapping from exponent quadruples (i, j, k, l) to nonzero
    integer coefficients; evaluation, addition and the slot transforms the
    symmetry check needs are all exact.

    Text form, accepted by from_text and produced by to_text: terms joined
    by '+' or '-', each term an integer coefficient followed by optional
    factors v^e with v in {a, b, x, y} (a bare variable means exponent 1);
    whitespace is insignificant.  Example: ``1 x^1 y^5 - 10 x^3 y^3``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Monomials | None = None):
        clean: Monomials = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != 4 or any(e < 0 or not isinstance(e, int) for e in expo):
                raise ValueError(f"bad exponent quadruple {expo!r}")
            if coeff:
                clean[tuple(expo)] = clean.get(tuple(expo), 0) + coeff
        self._terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def from_text(cls, text: str) -> "Poly4":
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial text")
        terms: Monomials = {}
        i, first = 0, True
        while i < len(s):
            sign = 1
            if first:
                first = False
                if s[i] in "+-":
                    sign = -1 if s[i] == "-" else 1
                    i += 1
            else:
                if s[i] == "+":
                    sign = 1
                elif s[i] == "-":
                    sign = -1
                else:
                    raise ValueError(f"expected '+' or '-' at position {i} of {text!r}")
                i += 1
            m = re.match(r"\d+", s[i:])
            if not m:
                raise ValueError(f"expected an integer coefficient at position {i} of {text!r}")
            coeff = sign * int(m.group())
            i += m.end()
            expo = [0, 0, 0, 0]
            while i < len(s) and s[i] in _VARS:
                slot = _VARS.index(s[i])
                i += 1
                e = 1
                if i < len(s) and s[i] == "^":
                    i += 1
                    m = re.match(r"\d+", s[i:])
                    if not m:
                        raise ValueError(f"expected an exponent at position {i} of {text!r}")
                    e = int(m.group())
                    i += m.end()
                expo[slot] += e
            key = (expo[0], expo[1], expo[2], expo[3])
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms)

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for expo in sorted(self._terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
            coeff = self._terms[expo]
            factors = " ".join(
                f"{v}^{e}" for v, e in zip(_VARS, expo) if e
            )
            body = f"{abs(coeff)} {factors}".strip()
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __call__(self, a: int, b: int, x: int, y: int) -> int:
        total = 0
        for (i, j, k, l), c in self._terms.items():
            total += c * a**i * b**j * x**k * y**l
        return total

    def __add__(self, other: "Poly4") -> "Poly4":
        merged = dict(self._terms)
        for expo, coeff in other._terms.items():
            merged[expo] = merged.get(expo, 0) + coeff
        return Poly4(merged)

    def __sub__(self, other: "Poly4") -> "Poly4":
        return self + Poly4({expo: -coeff for expo, coeff in other._terms.items()})

    def swapped(self) -> "Poly4":
        """The polynomial f(x, y, a, b): variable pairs exchanged."""
        return Poly4({(k, l, i, j): c for (i, j, k, l), c in self._terms.items()})

    def negated_front(self) -> "Poly4":
        """The polynomial f(-a, -b, x, y)."""
        return Poly4(
            {expo: c * (-1) ** (expo[0] + expo[1]) for expo, c in self._terms.items()}
        )

    @property
    def monomials(self) -> Monomials:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly4) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Poly4.from_text({self.to_text()!r})"


def symmetry_holds(f: Poly4) -> bool:
    """Exact check of the swap/negation hypothesis (module docstring).

    With w = (k, l, i, j) the swap of e = (i, j, k, l), the four terms have
    coefficients c_e, c_w, g c_e and g c_w at e, where g = (-1)**(i+j); so
    the hypothesis is (c_e - c_w)(1 - g) = 0, and each present term of odd
    front or back degree must match its swap (an absent swap counts as 0).
    """
    terms = f._terms
    return all(
        terms.get((k, l, i, j), 0) == c
        for (i, j, k, l), c in terms.items()
        if (i + j) % 2 or (k + l) % 2
    )


# One side of the identity as merged rows ((a, b, x, y), w); a row stands for
# the term w * f(a, b, x, y).
Rows = tuple[tuple[tuple[int, int, int, int], int], ...]


def _merge(weights: dict[tuple[int, int, int, int], int], sign: int, terms) -> None:
    for args in terms:
        weights[args] = weights.get(args, 0) + sign


@lru_cache(maxsize=1)
def _argument_table(n: int, which: str) -> tuple[Rows, Rows]:
    """Merged signed argument tuples of both identity sides at (n, which).

    Each side of the identity is Σ w * f(a, b, x, y) over a multiset of
    argument tuples that does not depend on f.  The solution set is
    enumerated once; identical tuples are merged by summing their signs and
    zero weights are dropped.  Each side comes back as rows
    ((a, b, x, y), w).  Only the table of the (n, which) being swept is
    kept, so callers sweep n outer and polynomials inner.
    """
    lhs: dict[tuple[int, int, int, int], int] = {}
    get = lhs.get

    # _merge inlined: this runs once per quadruple and dominates a cold call
    def visit(a: int, b: int, x: int, y: int) -> None:
        for args in ((a, b, x, -y), (a, a - b, x + y, y), (b - a, b, x, x + y)):
            lhs[args] = get(args, 0) + 1
        for args in ((a, -b, x, y), (a, a + b, y - x, y), (a + b, b, x, x - y)):
            lhs[args] = get(args, 0) - 1

    enumerate_quadruples(n, which, visit)
    rhs: dict[tuple[int, int, int, int], int] = {}
    if which == "Bprime":
        for t in range(1, n):
            if gcd(t, n) != 1:
                continue
            _merge(rhs, 1, ((1, 0, n, t), (0, 1, t, n), (1, 1, n - t, -t)))
            _merge(rhs, -1, ((n, t, 1, 0), (t, n, 0, 1), (n - t, -t, 1, 1)))
    else:
        for d in divisors(n):
            nd = n // d
            for x in range(1, d):
                _merge(rhs, 1, ((0, nd, x, d), (nd, 0, d, x), (nd, nd, d - x, -x)))
                _merge(rhs, -1, ((x, x - d, nd, nd), (x, d, 0, nd), (d, x, nd, 0)))
    return tuple(tuple(row for row in side.items() if row[1]) for side in (lhs, rhs))


def _weighted_sum(f: Poly4, rows: Rows) -> int:
    """Σ_e c_e Σ_rows w * a**i * b**j * x**k * y**l over f's monomials."""
    total = 0
    for (i, j, k, l), c in f._terms.items():
        total += c * sum(w * a**i * b**j * x**k * y**l for (a, b, x, y), w in rows)
    return total


# main_identity_sides refuses any n above this, before it enumerates.  The
# cold table of B(n) is the costly one, with O(|B(n)|) rows: B(2000) merges
# 309,560 left rows in 1.1-1.2 s at a peak RSS of 129 MB, and B'(2000) takes
# 0.3 s at 46 MB (one process, Python 3.11, 2-core container).  The one table
# kept afterwards holds 56 MB at B(2000) (tracemalloc).  That is in line with
# the convolution oracle's work limit (about 2 s and 135 MB).  The tests,
# selftest and benchmark stay at n <= 60.
_IDENTITY_N_LIMIT = 2000


def _identity_work(f: Poly4, n: int) -> int:
    """Estimated work of main_identity_sides(f, n), in the oracle's units.

    The left side has at most six argument rows per quadruple of B(n), the
    right side far fewer, and B'(n) is a subset of B(n), whose size
    lattice._quadruple_bound bounds.  Every row costs one product per
    monomial of f.  A row's entries are at most n in size, so a product has
    at most deg(f) * n.bit_length() bits, and it is weighted by that length
    as the convolution oracle weighs its powers.
    """
    degree = max(map(sum, f._terms), default=0)
    return 6 * _quadruple_bound(n) * len(f._terms) * arith._bit_weight(degree, n)


def main_identity_sides(f: Poly4, n: int, which: str = "Bprime") -> tuple[int, int]:
    """Evaluate both sides of the six-term identity for f at n; return (lhs, rhs).

    The left side is the same alternating six-term sum over the chosen
    solution set in both cases:

        f(a,b,x,-y) - f(a,-b,x,y) + f(a,a-b,x+y,y) - f(a,a+b,y-x,y)
        + f(b-a,b,x,x+y) - f(a+b,b,x,x-y).

    Over B'(n) the right side runs over the totatives t of n; over B(n) it
    is the divisor double sum with six boundary terms.  Both sides are
    linear in f, so each is evaluated as one weighted sum, monomial by
    monomial, over the merged argument table of (n, which); f is never
    called per quadruple.  Raises ValueError if f fails the symmetry
    hypothesis or n < 2, and BudgetExceededError, before any enumeration,
    if n is above a fixed ceiling of 2000 or if the work estimated from n and
    f's size and degree is above the convolution oracle's work limit.
    """
    if not symmetry_holds(f):
        raise ValueError("polynomial does not satisfy the symmetry hypothesis")
    if n < 2:
        raise ValueError(f"identity sides need n >= 2, got {n}")
    if n > _IDENTITY_N_LIMIT:
        raise BudgetExceededError(f"identity sides are limited to n <= {_IDENTITY_N_LIMIT}, got {n}")
    work = _identity_work(f, n)
    arith._check_work(work, "identity sides at n = {n} need about {work} units of work", n=n)
    lhs, rhs = _argument_table(n, which)
    return _weighted_sum(f, lhs), _weighted_sum(f, rhs)


def random_symmetric_poly(
    rng: Random,
    max_terms: int = 4,
    max_exp: int = 3,
    coeff_bound: int = 9,
) -> Poly4:
    """Random nonzero Poly4 satisfying the symmetry hypothesis by construction.

    Built as g + g.swapped() for a random g (always qualifies), optionally
    plus a monomial whose degree is even in (a, b) jointly and in (x, y)
    jointly (such monomials qualify on their own).  The result is asserted
    through symmetry_holds before being returned.
    """
    while True:
        g_terms: Monomials = {}
        for _ in range(rng.randint(1, max_terms)):
            expo = tuple(rng.randint(0, max_exp) for _ in range(4))
            coeff = rng.randint(-coeff_bound, coeff_bound)
            g_terms[expo] = g_terms.get(expo, 0) + coeff
        g = Poly4(g_terms)
        f = g + g.swapped()
        if rng.random() < 0.5:
            while True:
                i, j, k, l = (rng.randint(0, max_exp) for _ in range(4))
                if (i + j) % 2 == 0 and (k + l) % 2 == 0:
                    break
            f = f + Poly4({(i, j, k, l): rng.randint(1, coeff_bound)})
        if f:
            if not symmetry_holds(f):
                raise AssertionError("generator produced an unqualified polynomial")
            return f


# The nine test functions used to derive the stored closed forms, in the
# order of the theorems they prove.
PROOF_POLYNOMIALS: tuple[Poly4, ...] = tuple(
    Poly4.from_text(text)
    for text in (
        "1 x^2",
        "1 x^2 y^2",
        "1 x^1 y^5 - 10 x^3 y^3",
        "1 x^1 y^5 - 1 x^3 y^3",
        "-22 x^7 y^1 + 112 x^5 y^3",
        "1 x^7 y^1 - 1 x^5 y^3",
        "271 x^11 y^1 - 1540 x^9 y^3 + 1584 x^7 y^5",
        "-2 x^11 y^1 + 11 x^9 y^3 - 9 x^7 y^5",
        "8 x^11 y^1 - 35 x^9 y^3 + 27 x^7 y^5",
    )
)


@dataclass(frozen=True)
class TheoremId:
    """A stored closed form: tag (t11 .. t57) plus coefficient variant.

    Only t13 actually has two variants.  Its ``printed`` coefficient set
    overshoots the enumeration oracle by an exact factor of 8; ``corrected``
    is the set obtained by exact refit against the oracle.  Both are kept
    so the discrepancy can be reported instead of silently patched.  For
    every other tag the two variant names resolve to the same form.
    """

    name: str
    variant: str = "corrected"

    def __post_init__(self):
        if self.name not in THEOREM_RS:
            raise ValueError(f"unknown theorem tag {self.name!r}")
        if self.variant not in ("printed", "corrected"):
            raise ValueError(f"variant must be 'printed' or 'corrected', got {self.variant!r}")

    def __str__(self) -> str:
        if self.name == "t13":
            return f"{self.name}:{self.variant}"
        return self.name


def parse_theorem_id(text: str) -> TheoremId:
    """Parse 'tag' or 'tag:printed' / 'tag:corrected'."""
    name, sep, variant = text.partition(":")
    if sep:
        return TheoremId(name, variant)
    return TheoremId(name)


THEOREM_RS: dict[str, tuple[int, int]] = {
    "t11": (1, 1),
    "t13": (1, 3),
    "t15": (1, 5),
    "t33": (3, 3),
    "t17": (1, 7),
    "t35": (3, 5),
    "t111": (1, 11),
    "t39": (3, 9),
    "t57": (5, 7),
}

# (r, s) -> tag, exponent order normalized ascending; sigma_prime convolutions
# are symmetric in (r, s), so both orders resolve to the same form.
THEOREM_BY_RS: dict[tuple[int, int], str] = {rs: tag for tag, rs in THEOREM_RS.items()}


_FORMS: dict[tuple[str, str], ClosedForm] = {
    ("t11", "printed"): _form((5, 12, 3, -1), (-6, 12, 1, -1), (1, 12, 1, 1)),
    ("t13", "printed"): _form((7, 10, 5, -1), (-10, 10, 1, -1), (1, 3, 3, 1), (-1, 30, 1, 3)),
    ("t13", "corrected"): _form((7, 80, 5, -1), (-10, 80, 1, -1), (1, 24, 3, 1), (-1, 240, 1, 3)),
    ("t15", "printed"): _form(
        (540, 13608, 7, -1), (-1134, 13608, 1, -1), (1, 24, 5, 1), (9, 4536, 1, 5)
    ),
    ("t33", "printed"): _form((1, 120, 7, -1), (-1, 120, 3, 3)),
    ("t17", "printed"): _form(
        (176, 7680, 9, -1), (-480, 7680, 1, -1), (1, 24, 7, 1), (-1, 480, 1, 7)
    ),
    ("t35", "printed"): _form((11, 5040, 9, -1), (-1, 240, 5, 3), (1, 504, 3, 5)),
    ("t111", "printed"): _form(
        (5223960, 495331200, 13, -1),
        (-20638800, 495331200, 1, -1),
        (1, 24, 11, 1),
        (-691, 65520, 1, 11),
    ),
    ("t39", "printed"): _form((1, 2640, 13, -1), (-1, 240, 9, 3), (1, 264, 3, 9)),
    ("t57", "printed"): _form((1, 10080, 13, -1), (1, 504, 7, 5), (-1, 480, 5, 7)),
}


def theorem_form(tid: TheoremId) -> ClosedForm:
    """The stored ClosedForm for a theorem id (variant resolved)."""
    # a tag with a single stored form keeps it under "printed" alone
    variant = tid.variant if (tid.name, "corrected") in _FORMS else "printed"
    return _FORMS[(tid.name, variant)]


def eval_theorem(tid: TheoremId | str, n: int) -> Fraction:
    """Evaluate a stored closed form at n >= 2, exactly."""
    if isinstance(tid, str):
        tid = parse_theorem_id(tid)
    return theorem_form(tid).evaluate(n)


@dataclass(frozen=True)
class VerifyRow:
    n: int
    oracle: int
    closed: Fraction
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    theorem: TheoremId
    rows: tuple[VerifyRow, ...]
    all_pass: bool
    first_counterexample: VerifyRow | None


# Largest accepted ``jobs``: the option is kept for compatibility, and a
# mistyped value is still refused rather than silently accepted.
_MAX_JOBS = 256


def verify_theorem(tid: TheoremId | str, lo: int, hi: int, jobs: int = 1) -> VerifyReport:
    """Compare a stored closed form against the convolution oracle on [lo, hi].

    Every n is checked for exact equality, and rows are reported in
    ascending n.  One oracle call covers the whole range, so one pair of σ
    tables, built up to hi, serves every row.  All rows run in this
    process; ``jobs`` is accepted for compatibility and must lie in 1..256.
    Raises ValueError, before any work, on an empty or out-of-domain range
    (lo < 2 or hi < lo) and on jobs outside 1..256, and BudgetExceededError
    when the range is beyond the oracle's work limit.
    """
    if isinstance(tid, str):
        tid = parse_theorem_id(tid)
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    if not 1 <= jobs <= _MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {_MAX_JOBS}, got {jobs}")
    r, s = THEOREM_RS[tid.name]
    ns = range(lo, hi + 1)
    rows = []
    for n, oracle in zip(ns, _convolutions(r, s, ns, "Bprime")):
        closed = eval_theorem(tid, n)
        rows.append(VerifyRow(n, oracle, closed, closed == oracle))
    bad = next((row for row in rows if not row.ok), None)
    return VerifyReport(tid, tuple(rows), bad is None, bad)


def besge_check(n: int) -> bool:
    """Exact check of the classical sigma*sigma convolution evaluation at n."""
    if n < 2:
        raise ValueError(f"besge_check requires n >= 2, got {n}")
    lhs = sigma_convolution(1, 1, n)
    rhs = Fraction(5 * sigma_k(3, n) + (1 - 6 * n) * sigma_k(1, n), 12)
    return lhs == rhs


def glaisher_check(n: int) -> bool:
    """Exact check of the classical sigma*sigma_3 convolution evaluation at n."""
    if n < 2:
        raise ValueError(f"glaisher_check requires n >= 2, got {n}")
    lhs = sigma_convolution(1, 3, n)
    rhs = Fraction(
        21 * sigma_k(5, n) + (10 - 30 * n) * sigma_k(3, n) - sigma_k(1, n), 240
    )
    return lhs == rhs
