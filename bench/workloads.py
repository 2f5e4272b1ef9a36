"""The four workloads: seeded inputs, the calls they time, and their checks.

Every workload is a fixed list of public sigmaprime calls built from the
seed alone; the package receives only the generated inputs.  Where a
parameter sets a call's cost (n, the exponent pair, the solution set), the
seed picks a value inside a narrow stratum and the stratum fixes the rest,
so every seed asks for about the same work and the runs of different seeds
can be compared.  Each call carries two untimed companions: ``values``
gives the exact numbers that go into the run's digest, and ``check``
compares the result with an independent route and returns a message on a
mismatch.  The stdlib helpers at the top of this file are those routes
where the package has no second one of its own.

Calls look package functions up when they run (``sigmaprime.name``), never
at build time, so the wrappers a traced round installs see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random
from typing import Callable

import sigmaprime
import sigmaprime.cli  # noqa: F401  (part of set-up: point-queries times cli.main)
from sigmaprime import PROOF_POLYNOMIALS, THEOREM_BY_RS, THEOREM_RS, CountSpec, TheoremId
from sigmaprime.patternfit import DEFAULT_TEST_NS, DEFAULT_TRAIN_NS, WEIGHT10_PAIRS

PAIRS = tuple(THEOREM_RS.values())
EXP_GRID = tuple((r, s) for r in (1, 2, 3) for s in (1, 2, 3))
COUNTER_NAMES = ("L", "M", "Lprime", "Mprime")


# --- independent stdlib routes -------------------------------------------


def _sigma_table(k: int, n: int) -> list[int]:
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**k
        for m in range(d, n + 1, d):
            table[m] += dk
    return table


def plain_convolution(r: int, s: int, n: int) -> int:
    """Σ_{m<n} σ_r(m) σ_s(n-m) from divisor-sieve tables."""
    sr, ss = _sigma_table(r, n), _sigma_table(s, n)
    return sum(sr[m] * ss[n - m] for m in range(1, n))


def _primes_of(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def psi_direct(s: int, n: int) -> Fraction:
    out = Fraction(1)
    for p in _primes_of(n):
        out *= 1 - Fraction(p) ** s
    return out


def sigma_prime_direct(r: int, s: int, m: int, n: int) -> int:
    dm = [d for d in range(1, m + 1) if m % d == 0]
    dn = [e for e in range(1, n + 1) if n % e == 0]
    return sum(
        d**r * e**s for d in dm for e in dn if gcd(d, e) == 1 and gcd(m // d, n // e) == 1
    )


@lru_cache(maxsize=None)
def power_sum_direct(k: int, n: int) -> int:
    return sum(t**k for t in range(1, n) if gcd(t, n) == 1)


def stratified(rng: Random, lo: int, step: int, count: int, jitter: int) -> list[int]:
    """count values lo + i*step, each moved up by a seeded 0 <= j < jitter."""
    return [lo + i * step + rng.randrange(jitter) for i in range(count)]


def symmetric_family(rng: Random, count: int, terms: int = 6) -> list:
    """Seeded symmetric polynomials with exactly ``terms`` monomials each."""
    out = []
    while len(out) < count:
        f = sigmaprime.random_symmetric_poly(rng)
        if len(f.monomials) == terms:
            out.append(f)
    return out


def _rat(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _expect(ok: bool, message: str) -> str | None:
    return None if ok else message


# --- batch workloads ------------------------------------------------------


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    values: Callable[[object], object]
    check: Callable[[object], str | None]


def _verify_call(text: str, hi: int) -> Call:
    tid = sigmaprime.parse_theorem_id(text)
    printed = tid.variant == "printed"

    def check(report) -> str | None:
        if [row.n for row in report.rows] != list(range(2, hi + 1)):
            return f"{text}: rows do not cover 2..{hi}"
        for row in report.rows:
            want = 8 * row.oracle if printed else row.oracle
            if row.closed != want or row.ok == printed:
                return f"{text}: n={row.n} closed {row.closed}, oracle {row.oracle}"
        return _expect(report.all_pass != printed, f"{text}: verdict {report.all_pass}")

    return Call(
        f"verify_theorem {text} 2..{hi}",
        lambda: sigmaprime.verify_theorem(tid, 2, hi, jobs=1),
        lambda report: [[row.n, row.oracle, *_rat(row.closed)] for row in report.rows],
        check,
    )


def _brute_call(r: int, s: int, n: int, which: str) -> Call:
    def check(value) -> str | None:
        if which == "B":
            want = plain_convolution(r, s, n)
        else:
            want = sigmaprime.eval_theorem(TheoremId(THEOREM_BY_RS[(r, s)]), n)
        return _expect(value == want, f"brute {which}({r},{s};{n}) = {value}, expected {want}")

    return Call(
        f"brute_convolution {r},{s} n={n} {which}",
        lambda: sigmaprime.brute_convolution(r, s, n, which),
        lambda value: value,
        check,
    )


def oracle_sweep(rng: Random) -> list[Call]:
    """sigmaprime verify over all nine forms and the erratum, then big-n oracle calls."""
    his = {"t11": 150, "t13": 150, "t15": 120, "t33": 120, "t17": 120, "t35": 120}
    calls = [_verify_call(tag, his.get(tag, 100)) for tag in THEOREM_RS]
    calls.append(_verify_call("t13:printed", 50))
    # ascending n, so each call pays the divisor-cache misses of its own stratum
    for i, n in enumerate(stratified(rng, 1000, 20, 60, 10)):
        r, s = PAIRS[i % len(PAIRS)]
        calls.append(_brute_call(r, s, n, ("Bprime", "B")[i % 2]))
    return calls


def identity_family(rng: Random) -> list[Call]:
    """Six-term identity over a polynomial family, plus the pre-identity grid."""
    family = list(PROOF_POLYNOMIALS) + symmetric_family(rng, 12)
    calls = []
    for which, hi in (("Bprime", 26), ("B", 20)):
        for n in range(2, hi + 1):
            for idx, f in enumerate(family):
                calls.append(
                    Call(
                        f"main_identity_sides #{idx} n={n} {which}",
                        lambda f=f, n=n, which=which: sigmaprime.main_identity_sides(f, n, which),
                        lambda sides: list(sides),
                        lambda sides, idx=idx, n=n, which=which: _expect(
                            sides[0] == sides[1], f"identity #{idx} fails over {which} at n={n}"
                        ),
                    )
                )
    for r in range(4):
        for s in range(r, 4):
            for n in range(2, 31):
                calls.append(
                    Call(
                        f"check_pre_identity {r},{s} n={n}",
                        lambda r=r, s=s, n=n: sigmaprime.check_pre_identity(r, s, n),
                        lambda rep: list(rep.values()),
                        lambda rep, r=r, s=s, n=n: _expect(
                            rep.all_equal and len(set(rep.values())) == 1,
                            f"pre-identity disagrees at {r},{s} n={n}: {rep.values()}",
                        ),
                    )
                )
    return calls


def _lm_call(r: int, s: int, lo: int, hi: int, budget: int | None) -> Call:
    refused = budget is not None

    def check(report) -> str | None:
        for row in report.rows:
            if not row.ok:
                return f"verify_lm {r},{s} fails at n={row.n}"
            if set(row.skipped) != (set(COUNTER_NAMES) if refused else set()):
                return f"verify_lm {r},{s} n={row.n} skipped {row.skipped}"
            if row.conv_plain != plain_convolution(r, s, row.n):
                return f"verify_lm {r},{s} n={row.n} plain convolution {row.conv_plain}"
            if any(row.raw[w] != row.fast[w] for w in row.raw):
                return f"verify_lm {r},{s} n={row.n} raw {row.raw} != fast {row.fast}"
        return None

    kwargs = {} if budget is None else {"budget": budget}
    return Call(
        f"verify_lm {r},{s} {lo}..{hi}" + (f" budget={budget}" if refused else ""),
        lambda: sigmaprime.verify_lm(r, s, lo, hi, **kwargs),
        lambda report: [
            [row.n, [row.fast[w] for w in COUNTER_NAMES], sorted(row.raw.items()), row.conv_coprime]
            for row in report.rows
        ],
        check,
    )


def _count_fast_call(spec: CountSpec) -> Call:
    def check(value) -> str | None:
        if spec.solution_set == "B":
            want = plain_convolution(spec.r, spec.s, spec.n)
        else:
            want = sigmaprime.brute_convolution(spec.r, spec.s, spec.n, "Bprime")
        return _expect(value == want, f"count_fast {spec} = {value}, expected {want}")

    return Call(f"count_fast {spec}", lambda: sigmaprime.count_fast(spec), lambda v: v, check)


def counters(rng: Random) -> list[Call]:
    """Representation counters, the fitter, power-sum routes and Besge/Glaisher."""
    calls = [_lm_call(r, s, 2, 11, None) for r, s in EXP_GRID]
    calls += [_lm_call(r, s, 12, 30, 1) for r, s in EXP_GRID]
    for i, n in enumerate(stratified(rng, 400, 20, 24, 8)):
        r, s = EXP_GRID[i % len(EXP_GRID)]
        calls.append(_count_fast_call(CountSpec(COUNTER_NAMES[i % 4], r, s, n)))
    # the defaults plus seeded larger points: still consistent, so the fit
    # must recover the stored coefficients exactly
    train = DEFAULT_TRAIN_NS + tuple(stratified(rng, 40, 10, 6, 10))
    test = DEFAULT_TEST_NS + tuple(stratified(rng, 150, 20, 8, 6))
    fitted: dict[tuple[int, int], object] = {}
    for tag, (r, s) in THEOREM_RS.items():
        want = sigmaprime.theorem_pattern(TheoremId(tag))

        def run_fit(r=r, s=s):
            fitted[(r, s)] = report = sigmaprime.fit(r, s, train)
            return report

        calls.append(
            Call(
                f"fit {r},{s}",
                run_fit,
                lambda rep: [_rat(getattr(rep.coefficients, k)) for k in "ABCD"],
                lambda rep, tag=tag, want=want: _expect(
                    rep.coefficients == want, f"fit for {tag} got {rep.coefficients}"
                ),
            )
        )
        calls.append(
            Call(
                f"validate {r},{s}",
                lambda r=r, s=s: sigmaprime.validate(
                    fitted[(r, s)].coefficients, r, s, test, train
                ),
                lambda rep: [_rat(v) for v in rep.residuals],
                lambda rep, tag=tag: _expect(
                    rep.verdict == "consistent" and not any(rep.residuals),
                    f"validate for {tag} left residuals {rep.residuals}",
                ),
            )
        )
    for r, s in WEIGHT10_PAIRS:
        calls.append(
            Call(
                f"probe_weight10 {r},{s}",
                lambda r=r, s=s: sigmaprime.probe_weight10(r, s),
                lambda rep: [rep.verdict, rep.label],
                # no ansatz of this shape exists at weight 10: the fit is inconsistent
                lambda rep, r=r, s=s: _expect(
                    rep.label == "numerical evidence"
                    and rep.verdict == "inconsistent"
                    and rep.coefficients is None,
                    f"probe {r},{s}: {rep.verdict}, {rep.label}",
                ),
            )
        )
    for k, n in enumerate(stratified(rng, 20000, 2000, 13, 100)):
        for method in sigmaprime.powersums.POWER_SUM_METHODS:
            calls.append(
                Call(
                    f"coprime_power_sum k={k} n={n} {method}",
                    lambda k=k, n=n, method=method: sigmaprime.coprime_power_sum(k, n, method),
                    lambda v: v,
                    lambda v, k=k, n=n: _expect(
                        v == power_sum_direct(k, n), f"S_{k}({n}) = {v} disagrees"
                    ),
                )
            )
    for n in stratified(rng, 400, 80, 6, 10):
        for name in ("besge_check", "glaisher_check"):
            calls.append(
                Call(
                    f"{name} n={n}",
                    lambda name=name, n=n: getattr(sigmaprime, name)(n),
                    lambda v: v,
                    lambda v, name=name, n=n: _expect(v is True, f"{name}({n}) is {v}"),
                )
            )
    return calls


# --- point queries --------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation: argv, the exit code it must give, and a check.

    check(doc) runs in the command's child after the timed call, on the
    parsed JSON document, and returns a message on a mismatch.
    """

    argv: list[str]
    code: int
    check: Callable[[dict], str | None]


def _psi_cmd(s: int, n: int) -> Command:
    def check(doc):
        want = psi_direct(s, n)
        got = Fraction(int(doc["result"]["num"]), int(doc["result"]["den"]))
        return _expect(got == want, f"psi({s},{n}) = {got}, expected {want}")

    return Command(["psi", "--s", str(s), "--n", str(n)], 0, check)


def _powersum_cmd(k: int, n: int, method: str) -> Command:
    return Command(
        ["powersum", "--k", str(k), "--n", str(n), "--method", method],
        0,
        lambda doc: _expect(int(doc["result"]) == power_sum_direct(k, n), f"S_{k}({n}) wrong"),
    )


def _sigma_prime_cmd(r: int, s: int, m: int, n: int) -> Command:
    return Command(
        ["sigma-prime", "--r", str(r), "--s", str(s), "--m", str(m), "--n", str(n)],
        0,
        lambda doc: _expect(
            int(doc["result"]) == sigma_prime_direct(r, s, m, n), f"sigma'({r},{s},{m},{n}) wrong"
        ),
    )


def _conv_cmd(r: int, s: int, n: int, which: str, method: str) -> Command:
    def check(doc):
        if method == "closed":
            want = sigmaprime.brute_convolution(r, s, n, "Bprime")
        elif which == "B":
            want = plain_convolution(r, s, n)
        else:
            want = sigmaprime.eval_theorem(TheoremId(THEOREM_BY_RS[(r, s)]), n)
        return _expect(int(doc["result"]) == want, f"conv {method} {which}({r},{s};{n}) wrong")

    argv = ["conv", "--r", str(r), "--s", str(s), "--n", str(n), "--set", which]
    return Command(argv + ["--method", method], 0, check)


def _check_main_cmd(text: str, n: int, which: str) -> Command:
    def check(doc):
        res = doc["result"]
        return _expect(
            res["equal"] is True and res["lhs"] == res["rhs"] and doc["verdict"] == "verified",
            f"check-main {text!r} n={n} {which}: {res}",
        )

    return Command(["check-main", "--poly", text, "--n", str(n), "--set", which], 0, check)


def _count_cmd(which: str, r: int, s: int, n: int, raw: bool) -> Command:
    short = {"L": "L", "M": "M", "Lprime": "Lp", "Mprime": "Mp"}[which]
    spec = CountSpec(which, r, s, n)

    def check(doc):
        if raw:
            want = sigmaprime.count_fast(spec)
        elif spec.solution_set == "B":
            want = plain_convolution(r, s, n)
        else:
            want = sigmaprime.brute_convolution(r, s, n, "Bprime")
        return _expect(int(doc["result"]) == want, f"count {spec} raw={raw} wrong")

    argv = ["count", "--which", short, "--r", str(r), "--s", str(s), "--n", str(n)]
    return Command(argv + (["--raw"] if raw else []), 0, check)


def _fit_cmd(tag: str) -> Command:
    r, s = THEOREM_RS[tag]

    def check(doc):
        want = sigmaprime.theorem_pattern(TheoremId(tag))
        got = doc["result"]["coefficients"]
        ok = doc["verdict"] == "consistent" and all(
            Fraction(int(got[k]["num"]), int(got[k]["den"])) == getattr(want, k) for k in "ABCD"
        )
        return _expect(ok, f"fit {tag}: {got}")

    train = ",".join(map(str, DEFAULT_TRAIN_NS))
    test = ",".join(map(str, DEFAULT_TEST_NS))
    return Command(
        ["fit", "--r", str(r), "--s", str(s), "--train", train, "--test", test], 0, check
    )


def _verify_cmd(text: str, hi: int) -> Command:
    printed = text.endswith(":printed")

    def check(doc):
        rows = doc["result"]["rows"]
        if [row["n"] for row in rows] != list(range(2, hi + 1)):
            return f"verify {text}: rows do not cover 2..{hi}"
        for row in rows:
            closed = Fraction(int(row["closed"]["num"]), int(row["closed"]["den"]))
            if closed != (8 if printed else 1) * int(row["oracle"]):
                return f"verify {text}: n={row['n']} closed {closed}, oracle {row['oracle']}"
        return _expect(doc["verdict"] == ("failed" if printed else "verified"), f"verify {text}")

    return Command(["verify", "--theorem", text, "--range", f"2..{hi}"], 1 if printed else 0, check)


def point_queries(rng: Random) -> list[Command]:
    """One round of single CLI commands; each runs from the just-imported state."""
    cmds: list[Command] = []
    for i in range(18):
        cmds.append(_psi_cmd((1, -1, 2, 3, -2, 5, 7, 11, -3)[i % 9], rng.randint(10**4, 10**6)))
    methods = ("direct", "moebius", "closed")
    for i, n in enumerate(stratified(rng, 200, 40, 18, 10)):
        cmds.append(_powersum_cmd(i % 13, n, methods[i % 3]))
    for i in range(18):
        m, n = rng.randint(100, 5000), rng.randint(100, 5000)
        cmds.append(_sigma_prime_cmd(i % 5, (i // 5) % 5, m, n))
    for i, n in enumerate(stratified(rng, 200, 20, 15, 5)):
        r, s = PAIRS[i % len(PAIRS)]
        cmds.append(_conv_cmd(r, s, n, ("Bprime", "B")[i % 2], "brute"))
    for i, n in enumerate(stratified(rng, 300, 80, 15, 20)):
        r, s = PAIRS[i % len(PAIRS)]
        cmds.append(_conv_cmd(r, s, n, "Bprime", "closed"))
    polys = list(PROOF_POLYNOMIALS) + symmetric_family(rng, 6)
    for i, n in enumerate(stratified(rng, 10, 1, 15, 1)):
        cmds.append(_check_main_cmd(polys[i].to_text(), n, ("Bprime", "B")[i % 2]))
    for i, n in enumerate(stratified(rng, 50, 10, 15, 3)):
        r, s = EXP_GRID[i % len(EXP_GRID)]
        cmds.append(_count_cmd(COUNTER_NAMES[i % 4], r, s, n, raw=False))
    for i in range(9):
        r, s = EXP_GRID[(0, 1, 3, 4)[i % 4]]
        cmds.append(_count_cmd(COUNTER_NAMES[i % 4], r, s, 4 + rng.randrange(2), raw=True))
    for tag in THEOREM_RS:
        cmds.append(_fit_cmd(tag))
    for i, tag in enumerate(list(THEOREM_RS) + ["t13:printed"]):
        cmds.append(_verify_cmd(tag, 24 + rng.randrange(3)))
    rng.shuffle(cmds)
    return cmds


PLANS = {
    "oracle-sweep": oracle_sweep,
    "identity-family": identity_family,
    "counters": counters,
    "point-queries": point_queries,
}


def build(name: str, seed: int) -> list:
    """The workload's calls (or commands) for one round, from the seed alone."""
    return PLANS[name](Random(seed))
