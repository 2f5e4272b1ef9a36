"""Polynomial identity engine.

Holds the exact four-variable polynomial type used as test functions, the
six-term main identity and its divisor-sum analogue over B(n), the nine
proven (r, s) convolution evaluations, each stored once as its (A, B, C, D)
over the ansatz columns and read as ψ terms over B'(n) or as σ terms over
B(n), range verification against the enumeration oracle, and the two
classical convolution checks (besge_check, glaisher_check) on the σ terms.
The identity's left side pairs its six terms into binomial sums of
quadruple moments, which lattice's moment core sums without walking the
set.  It depends on f alone, so it is expanded once per call, from
binomial rows built by Pascal's recurrence and only at the terms whose
sign factor is nonzero, and a range of n shares that expansion and one
sieve.  The right side is a sum of power sums Σ tᵘ(N − t)ᵛ over the
totatives of N = n or over 0 < t < N = d for each divisor d > 1 of n: the
at most six rows of each monomial add their factors into one weight per
pair (u, v), with (u, v) and (v, u) folded into one, and each distinct
pair is summed once per N in C-level maps.  Nothing is kept between calls.

A test function f(a, b, x, y) qualifies for the identities when it
satisfies, as a polynomial identity,

    f(a, b, x, y) - f(x, y, a, b) = f(-a, -b, x, y) - f(x, y, -a, -b).

symmetry_holds checks it exactly, as a rule on f's coefficients, so the
identity checks never run on an unqualified f.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul
from random import Random
from typing import NamedTuple, Sequence

from . import arith
from .arith import divisors, sigma_convolution, sigma_k
from .lattice import _convolutions, _moment_sums, _moment_work
from .powersums import ClosedForm

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
# Poly4's text grammar, stated in its docstring; (?!\Z) keeps finditer from
# ending on an empty term at the end of the text
_TERM = re.compile(r"(?!\Z)([+-]?)(\d*)((?:[abxy](?:\^\d*)?)*)")
_FACTOR = re.compile(r"([abxy])(?:\^(\d*))?")

Monomials = dict[tuple[int, int, int, int], int]


class Poly4:
    """Integer polynomial in the four variables a, b, x, y, stored exactly.

    Internally a mapping from exponent quadruples (i, j, k, l) to nonzero
    integer coefficients; evaluation, addition and the slot transforms the
    symmetry check needs are all exact.  The constructor takes such a
    mapping and raises ValueError on an exponent or coefficient that is not
    an int (a bool is not one) and on a negative exponent.

    Text form, accepted by from_text and produced by to_text.  Whitespace is
    removed before parsing; what remains is a run of terms, each a sign ('+'
    or '-', optional on the first term only), an integer coefficient, then
    factors v or v^e with v in {a, b, x, y} and e an integer (a bare v means
    v^1).  Numbers are runs of Unicode decimal digits, read as int() reads
    them.  Example: ``1 x^1 y^5 - 10 x^3 y^3``.  A malformed text raises
    ValueError naming what was expected and its position in the text with
    whitespace removed.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Monomials | None = None):
        clean: Monomials = {}
        for expo, coeff in (terms or {}).items():
            # type() rather than isinstance(), so that bools are refused
            if len(expo) != 4 or not all(type(e) is int and e >= 0 for e in expo):
                raise ValueError(f"bad exponent quadruple {expo!r}")
            if type(coeff) is not int:
                raise ValueError(f"coefficient {coeff!r} is not an integer")
            if coeff:
                clean[tuple(expo)] = clean.get(tuple(expo), 0) + coeff
        self._terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def from_text(cls, text: str) -> "Poly4":
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial text")
        terms: Monomials = {}
        for term in _TERM.finditer(s):
            sign, digits, _ = term.groups()
            if term.start() and not sign:
                raise ValueError(f"expected '+' or '-' at position {term.start()} of {text!r}")
            if not digits:
                raise ValueError(f"expected an integer coefficient at position {term.end(1)} of {text!r}")
            coeff = int(sign + digits)
            expo = [0, 0, 0, 0]
            for factor in _FACTOR.finditer(s, term.start(3), term.end(3)):
                var, e = factor.groups()
                if e == "":
                    raise ValueError(f"expected an exponent at position {factor.end()} of {text!r}")
                expo[_VARS.index(var)] += 1 if e is None else int(e)
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


def _pascal_row(k: int) -> list[int]:
    """[C(k, 0), ..., C(k, k)] by the recurrence C(k, q+1) = C(k, q)(k-q)/(q+1)."""
    row = [1]
    for q in range(k):
        row.append(row[q] * (k - q) // (q + 1))
    return row


def _left_moments(f: Poly4) -> dict[tuple[int, int, int, int], int]:
    """The left side as {(i, j, k, l): c}, Σ c M(i, j, k, l; n) for the moments M.

    The six terms pair off by the keys they make of c a^i b^j x^k y^l:
    f(a,b,x,-y) - f(a,-b,x,y) keeps (i, j, k, l) with c((-1)^l - (-1)^j);
    f(a,a-b,x+y,y) - f(a,a+b,y-x,y) makes (i+p, j-p, q, l+k-q) with
    c C(j,p) C(k,q) ((-1)^(j-p) - (-1)^q); and f(b-a,b,x,x+y) - f(a+b,b,x,x-y)
    makes (p, i-p+j, k+q, l-q) with c C(i,p) C(l,q) ((-1)^p - (-1)^(l-q)).
    A sign factor is ±2 where its two exponents differ in parity and 0
    elsewhere, so q steps by 2 from the parity that makes it nonzero.  Each
    binomial row is built once per call from the Pascal recurrence.  The sets
    are closed under (a, b, x, y) -> (b, a, y, x) and -> (x, y, a, b), so each
    distinct key is then reduced once to the least of its four images;
    moments that cancel are dropped.
    """
    rows = {e: _pascal_row(e) for e in {e for expo in f._terms for e in expo}}
    raw: dict[tuple[int, int, int, int], int] = {}
    for (i, j, k, l), c in f._terms.items():
        if (j - l) % 2:
            raw[i, j, k, l] = raw.get((i, j, k, l), 0) + (2 * c if l % 2 == 0 else -2 * c)
        row_k, row_l = rows[k], rows[l]
        for p, binom in enumerate(rows[j]):
            weight = 2 * c * binom if (j - p) % 2 == 0 else -2 * c * binom
            for q in range((j - p + 1) % 2, k + 1, 2):
                key = (i + p, j - p, q, l + k - q)
                raw[key] = raw.get(key, 0) + weight * row_k[q]
        for p, binom in enumerate(rows[i]):
            weight = 2 * c * binom if p % 2 == 0 else -2 * c * binom
            for q in range((l - p + 1) % 2, l + 1, 2):
                key = (p, i - p + j, k + q, l - q)
                raw[key] = raw.get(key, 0) + weight * row_l[q]
    moments: dict[tuple[int, int, int, int], int] = {}
    for (a, b, x, y), c in raw.items():
        key = min((a, b, x, y), (b, a, y, x), (x, y, a, b), (y, x, b, a))
        moments[key] = moments.get(key, 0) + c
    return {key: c for key, c in moments.items() if c}


def _identity_work(f: Poly4, n: int, which: str) -> int:
    """Work of main_identity_sides(f, n, which) from f's exponents alone: the
    moment core's estimate, weighted by deg(f), for at most (j+1)(k+1) +
    (i+1)(l+1) moments per monomial a^i b^j x^k y^l, plus one product per
    monomial for each right-side row, at most 6n over B'(n) and 6 sigma(n) <
    6n bits(n) over B(n).  The right side sums at most six distinct power
    sums per monomial and divisor d, each of d - 1 products at most, so that
    term still bounds it."""
    degree = max(map(sum, f._terms), default=0)
    moments = sum((j + 1) * (k + 1) + (i + 1) * (l + 1) for i, j, k, l in f._terms)
    rows = 6 * n * len(f._terms) * (n.bit_length() if which == "B" else 1)
    return _moment_work(degree, (n,), moments, rows)


def _power_sum(pts, rest, u: int, v: int) -> int:
    """Σ x^u r^v over the pairs (x, r) of pts and rest, in C-level maps; for
    v = 0, one pow map over pts."""
    if not v:
        return sum(map(pow, pts, repeat(u)))
    return sum(map(mul, map(pow, pts, repeat(u)), map(pow, rest, repeat(v))))


def _right_side(f: Poly4, d: int, e: int, pts) -> int:
    """Σ over x in pts of the six rows
    f(0,e,x,d) + f(e,0,d,x) + f(e,e,d-x,-x) - f(x,x-d,e,e) - f(x,d,0,e) - f(d,x,e,0),
    for pts closed under x -> d - x.

    With M(u, v) = Σ x^u (d-x)^v over pts, a monomial c a^i b^j x^k y^l gives
    the rows c times e^j d^l M(k, 0) if i = 0, e^i d^k M(l, 0) if j = 0,
    e^(i+j) (-1)^l M(l, k), -e^(k+l) (-1)^j M(i, j), -d^j e^l M(i, 0) if
    k = 0 and -d^i e^k M(j, 0) if l = 0.  Each row adds its factor to one
    weight per pair, and pts's symmetry makes M(u, v) = M(v, u), so (u, v)
    and (v, u) share a weight.  Each distinct pair's sum is then taken once
    and multiplied by its total weight, unless that weight is 0, as every one
    is for a swap-symmetric f, whose rows cancel under the swap.
    """
    weights: dict[tuple[int, int], int] = {}
    for (i, j, k, l), c in f._terms.items():
        rows = [
            (l, k, (-c if l % 2 else c) * e ** (i + j)),
            (i, j, (c if j % 2 else -c) * e ** (k + l)),
        ]
        if not i:
            rows.append((k, 0, c * e**j * d**l))
        if not j:
            rows.append((l, 0, c * e**i * d**k))
        if not k:
            rows.append((i, 0, -c * d**j * e**l))
        if not l:
            rows.append((j, 0, -c * d**i * e**k))
        for u, v, weight in rows:
            key = (u, v) if u >= v else (v, u)
            weights[key] = weights.get(key, 0) + weight
    rest = [d - x for x in pts]
    return sum(weight * _power_sum(pts, rest, u, v) for (u, v), weight in weights.items() if weight)


def _sides_over(f: Poly4, ns: Sequence[int], which: str) -> list[tuple[int, int]]:
    """main_identity_sides(f, n, which) for every n of the nonempty ns, in order.

    f's symmetry and every n's gate are checked first, in the order and with
    the messages of the one-n calls, so nothing is expanded or sieved for a
    range with any n refused.  _identity_work grows with n, so a range of
    n >= 2 whose largest n is admitted is admitted whole by that one
    estimate; only otherwise are the n walked in order to the first refused.
    Then the left side is expanded once and one moment-core call sums it for
    every n from one sieve; the right side is summed per n, over the divisors
    d > 1 for B(n), as d = 1 has no point 0 < x < d.
    """
    if not symmetry_holds(f):
        raise ValueError("polynomial does not satisfy the symmetry hypothesis")
    if min(ns) < 2 or _identity_work(f, max(ns), which) > arith._WORK_LIMIT:
        for n in ns:
            if n < 2:
                raise ValueError(f"identity sides need n >= 2, got {n}")
            work = _identity_work(f, n, which)
            arith._check_work(work, "identity sides at n = {n} need about {work} units of work", n=n)
    lhs = _moment_sums(_left_moments(f), ns, which)
    if which == "Bprime":
        rhs = [_right_side(f, n, 1, [t for t in range(1, n) if gcd(t, n) == 1]) for n in ns]
    else:
        rhs = [sum(_right_side(f, d, n // d, range(1, d)) for d in divisors(n)[1:]) for n in ns]
    return list(zip(lhs, rhs))


def main_identity_sides(f: Poly4, n: int, which: str = "Bprime") -> tuple[int, int]:
    """Evaluate both sides of the six-term identity for f at n; return (lhs, rhs).

    The left side is the same alternating six-term sum over the chosen
    solution set in both cases:

        f(a,b,x,-y) - f(a,-b,x,y) + f(a,a-b,x+y,y) - f(a,a+b,y-x,y)
        + f(b-a,b,x,x+y) - f(a+b,b,x,x-y).

    It is linear in f and the substitutions are linear, so it is a sum of
    moments Σ a**i b**j x**k y**l over the set, expanded from f's monomials
    with binomial rows built by Pascal's recurrence and taken from lattice's
    moment core.  The right side is f at six rows, summed over the totatives
    t of n for B'(n) and over de = n, 0 < x < d for B(n):

        f(1,0,n,t) + f(0,1,t,n) + f(1,1,n-t,-t) - f(n,t,1,0) - f(t,n,0,1) - f(n-t,-t,1,1),
        f(0,e,x,d) + f(e,0,d,x) + f(e,e,d-x,-x) - f(x,x-d,e,e) - f(x,d,0,e) - f(d,x,e,0).

    The first is the second at (d, e) = (n, 1) with x over the totatives, up
    to t -> n - t, so _right_side sums both, as one weighted power sum
    Σ x^u (d-x)^v per distinct pair (u, v) and d.  This is _sides_over at (n,): the
    left side is expanded once per call, and nothing is enumerated or kept
    between calls.  Raises ValueError if f fails the symmetry hypothesis or
    n < 2, and BudgetExceededError, before anything is allocated, if
    _identity_work is above the work limit.
    """
    return _sides_over(f, (n,), which)[0]


# random_symmetric_poly draws up to _RANDOM_TERMS terms of g, exponents up to
# _RANDOM_EXP and coefficients of absolute value up to _RANDOM_COEFF
_RANDOM_TERMS = 4
_RANDOM_EXP = 3
_RANDOM_COEFF = 9


def random_symmetric_poly(rng: Random) -> Poly4:
    """Random nonzero Poly4 satisfying the symmetry hypothesis by construction.

    Built as g + g.swapped() for a random g (always qualifies), optionally
    plus a monomial whose degree is even in (a, b) jointly and in (x, y)
    jointly (such monomials qualify on their own).  The result is asserted
    through symmetry_holds before being returned.
    """
    while True:
        g_terms: Monomials = {}
        for _ in range(rng.randint(1, _RANDOM_TERMS)):
            expo = tuple(rng.randint(0, _RANDOM_EXP) for _ in range(4))
            coeff = rng.randint(-_RANDOM_COEFF, _RANDOM_COEFF)
            g_terms[expo] = g_terms.get(expo, 0) + coeff
        g = Poly4(g_terms)
        f = g + g.swapped()
        if rng.random() < 0.5:
            while True:
                i, j, k, l = (rng.randint(0, _RANDOM_EXP) for _ in range(4))
                if (i + j) % 2 == 0 and (k + l) % 2 == 0:
                    break
            f = f + Poly4({(i, j, k, l): rng.randint(1, _RANDOM_COEFF)})
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


class _TheoremId(NamedTuple):
    name: str
    variant: str


class TheoremId(_TheoremId):
    """A stored closed form: tag (t11 .. t57) plus coefficient variant.

    Only t13 actually has two variants.  Its ``printed`` coefficient set
    overshoots the enumeration oracle by an exact factor of 8; ``corrected``
    is the set obtained by exact refit against the oracle.  Both are kept
    so the discrepancy can be reported instead of silently patched.  For
    every other tag the two variant names resolve to the same form.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__

    def __new__(cls, name: str, variant: str = "corrected"):
        if name not in THEOREM_RS:
            raise ValueError(f"unknown theorem tag {name!r}")
        if variant not in ("printed", "corrected"):
            raise ValueError(f"variant must be 'printed' or 'corrected', got {variant!r}")
        return tuple.__new__(cls, (name, variant))

    def __str__(self) -> str:
        if self.name == "t13":
            return f"{self.name}:{self.variant}"
        return self.name


def parse_theorem_id(text: str) -> TheoremId:
    """Parse 'tag' or 'tag:printed' / 'tag:corrected'."""
    name, sep, variant = text.partition(":")
    return TheoremId(name, variant) if sep else TheoremId(name)


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


def _columns(r: int, s: int) -> tuple[tuple[int, int], ...]:
    # (n_power, psi_order) of the A, B, C and D columns of the ansatz
    return ((r + s + 1, -1), (1, -1), (r, s), (s, r))


def _ansatz_form(r: int, s: int, coefficients: Sequence[Fraction]) -> ClosedForm:
    # Σ c n**p psi_o(n) over the ansatz columns, zero coefficients left out
    return ClosedForm(tuple((c, p, o) for c, (p, o) in zip(coefficients, _columns(r, s)) if c))


# (A, B, C, D) of each stored form over _columns(r, s), as the paper prints
# them; t13's printed set, 8 times the oracle, is kept beside its exact refit.
_COEFFICIENTS = {key: tuple(map(Fraction, row)) for key, row in {
    ("t11", "printed"): ("5/12", "-6/12", "1/12", "0"),
    ("t13", "printed"): ("7/10", "-10/10", "-1/30", "1/3"),
    ("t13", "corrected"): ("7/80", "-10/80", "-1/240", "1/24"),
    ("t15", "printed"): ("540/13608", "-1134/13608", "9/4536", "1/24"),
    ("t33", "printed"): ("1/120", "0", "-1/120", "0"),
    ("t17", "printed"): ("176/7680", "-480/7680", "-1/480", "1/24"),
    ("t35", "printed"): ("11/5040", "0", "1/504", "-1/240"),
    ("t111", "printed"): ("5223960/495331200", "-20638800/495331200", "-691/65520", "1/24"),
    ("t39", "printed"): ("1/2640", "0", "1/264", "-1/240"),
    ("t57", "printed"): ("1/10080", "0", "-1/480", "1/504"),
}.items()}
_FORMS = {key: _ansatz_form(*THEOREM_RS[key[0]], row) for key, row in _COEFFICIENTS.items()}


def _key(tid: TheoremId | str) -> tuple[str, str]:
    # the entry of an id or its text; a tag stored once keeps it under "printed"
    name, variant = parse_theorem_id(tid) if isinstance(tid, str) else tid
    return (name, variant if (name, "corrected") in _COEFFICIENTS else "printed")


def theorem_form(tid: TheoremId) -> ClosedForm:
    """The stored ClosedForm for a theorem id (variant resolved)."""
    return _FORMS[_key(tid)]


def eval_theorem(tid: TheoremId | str, n: int) -> Fraction:
    """Evaluate a stored closed form at n >= 2, exactly."""
    return _FORMS[_key(tid)].evaluate(n)


class VerifyRow(NamedTuple):
    n: int
    oracle: int
    closed: Fraction
    ok: bool


class VerifyReport(NamedTuple):
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
    ascending n.  Each side is one call over the whole range.  The oracle's
    one pair of σ tables, built up to hi, serves every row; a range dense
    enough takes every M_B(N) from one big-integer product of the two
    tables, and every B'(n) from those by forward substitution in
    M_B = σ_{r+s} ⋆ M_B', with σ_{r+s} built up to hi // 2, rather than a
    dot product and a Möbius step per n.  The closed form then evaluates the
    range in one call, which reads its terms once and takes each distinct ψ
    once per n.  All rows run in this process; ``jobs`` is accepted for
    compatibility and must lie in 1..256.  Raises ValueError, before any
    work, on an empty or out-of-domain range (lo < 2 or hi < lo) and on jobs
    outside 1..256, and BudgetExceededError when the range is beyond the
    oracle's work limit, before either side runs.
    """
    if isinstance(tid, str):
        tid = parse_theorem_id(tid)
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    if not 1 <= jobs <= _MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {_MAX_JOBS}, got {jobs}")
    r, s = THEOREM_RS[tid.name]
    ns = range(lo, hi + 1)
    oracles = _convolutions(r, s, ns, "Bprime")
    closed = theorem_form(tid)._values(ns)
    rows = tuple(VerifyRow(n, o, c, c == o) for n, o, c in zip(ns, oracles, closed))
    bad = next((row for row in rows if not row.ok), None)
    return VerifyReport(tid, rows, bad is None, bad)


def _sigma_twin(tid: TheoremId | str, n: int) -> Fraction:
    """The stored form's twin, its convolution over B(n): since Σ_{B(n)} =
    Σ_{m|n} σ_{r+s}(n/m) Σ_{B'(m)} and n**p psi_o = (μ·id_{p+o}) ⋆ id_p, the
    A, C and D columns n**p psi_o read as σ_p(n) and the B column n psi_{-1}
    as n σ_{r+s-1}(n), for a form that vanishes at n = 1, as every one does."""
    key = _key(tid)
    r, s = THEOREM_RS[key[0]]
    row = _COEFFICIENTS[key]
    # one integer sum over the row's common denominator, as ClosedForm.evaluate
    common = lcm(*(coeff.denominator for coeff in row))
    a, b, c, d = (coeff.numerator * (common // coeff.denominator) for coeff in row)
    total = (a * sigma_k(r + s + 1, n) + b * n * sigma_k(r + s - 1, n)
             + c * sigma_k(r, n) + d * sigma_k(s, n))
    return Fraction(total, common)


def besge_check(n: int) -> bool:
    """Exact check of the classical sigma*sigma convolution evaluation at n, t11's twin."""
    if n < 2:
        raise ValueError(f"besge_check requires n >= 2, got {n}")
    return sigma_convolution(1, 1, n) == _sigma_twin("t11", n)


def glaisher_check(n: int) -> bool:
    """Exact check of the classical sigma*sigma_3 convolution evaluation at n, t13's twin."""
    if n < 2:
        raise ValueError(f"glaisher_check requires n >= 2, got {n}")
    return sigma_convolution(1, 3, n) == _sigma_twin("t13", n)
