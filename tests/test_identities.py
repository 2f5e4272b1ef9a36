"""Polynomial symmetry machinery, the main identity, and the named theorems."""

import ast
import concurrent.futures
import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaprime import arith, cli, identities
from sigmaprime.arith import divisors
from sigmaprime.identities import (
    PROOF_POLYNOMIALS,
    THEOREM_BY_RS,
    THEOREM_RS,
    Poly4,
    TheoremId,
    besge_check,
    eval_theorem,
    glaisher_check,
    main_identity_sides,
    parse_theorem_id,
    random_symmetric_poly,
    symmetry_holds,
    theorem_form,
    verify_theorem,
)
from sigmaprime.lattice import SOLUTION_SETS, BudgetExceededError, brute_convolution, quadruples


def six_term_oracle(f, n, which):
    """Both identity sides by calling f at six argument tuples per quadruple.

    The literal evaluation, kept as the independent reference that the
    weighted-sum engine is checked against.
    """
    lhs = 0
    for a, b, x, y in quadruples(n, which):
        lhs += (
            f(a, b, x, -y)
            - f(a, -b, x, y)
            + f(a, a - b, x + y, y)
            - f(a, a + b, y - x, y)
            + f(b - a, b, x, x + y)
            - f(a + b, b, x, x - y)
        )
    rhs = 0
    if which == "Bprime":
        for t in range(1, n):
            if gcd(t, n) != 1:
                continue
            rhs += (
                f(1, 0, n, t)
                - f(n, t, 1, 0)
                + f(0, 1, t, n)
                - f(t, n, 0, 1)
                + f(1, 1, n - t, -t)
                - f(n - t, -t, 1, 1)
            )
    else:
        for d in divisors(n):
            nd = n // d
            for x in range(1, d):
                rhs += (
                    f(0, nd, x, d)
                    + f(nd, 0, d, x)
                    + f(nd, nd, d - x, -x)
                    - f(x, x - d, nd, nd)
                    - f(x, d, 0, nd)
                    - f(d, x, nd, 0)
                )
    return lhs, rhs


def test_parser_round_trip():
    for text in ("1x^2", "1x^2y^2 - 10a b", "3a^7 - 2b^3x + 5y", "-1xy^5 + 1x^3y^3"):
        poly = Poly4.from_text(text)
        assert Poly4.from_text(poly.to_text()) == poly


def test_parser_whitespace_and_implicit_exponent():
    assert Poly4.from_text("2 x y") == Poly4.from_text("2xy")
    assert Poly4.from_text("1a^1b^1") == Poly4.from_text("1ab")


def test_parser_rejects_bad_input():
    # every monomial needs an explicit integer coefficient
    with pytest.raises(ValueError):
        Poly4.from_text("x^2")
    with pytest.raises(ValueError):
        Poly4.from_text("2x +")
    with pytest.raises(ValueError):
        Poly4.from_text("3z^2")
    with pytest.raises(ValueError):
        Poly4.from_text("")


def test_poly_evaluation():
    poly = Poly4.from_text("1x^2y^2 - 2ab")
    assert poly(3, 5, 2, 7) == (2 * 7) ** 2 - 2 * 3 * 5


def test_symmetry_spot_checks():
    assert not symmetry_holds(Poly4.from_text("1a"))
    assert not symmetry_holds(Poly4.from_text("1x"))
    assert symmetry_holds(Poly4.from_text("1xy"))
    assert symmetry_holds(Poly4.from_text("1x^2"))
    assert symmetry_holds(Poly4.from_text("1a^2"))
    # mixed front/back polynomial built as g + swap(g)
    g = Poly4.from_text("1a^2x")
    assert symmetry_holds(g + g.swapped())


exponent_quads = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(exponent_quads, st.integers(-3, 3), max_size=6), st.booleans(), st.booleans())
def test_symmetry_rule_matches_expansion(terms, symmetrize, add_even):
    # the literal expansion of the hypothesis is the reference; g + swap(g)
    # and even-degree monomials make qualified inputs common
    f = Poly4(terms)
    if symmetrize:
        f = f + f.swapped()
    if add_even:
        f = f + Poly4({(2, 0, 1, 1): 5})
    swapped = f.swapped()
    assert symmetry_holds(f) == (f - swapped == f.negated_front() - swapped.negated_front())


def test_warm_main_identity_sides_builds_no_poly(monkeypatch):
    f = PROOF_POLYNOMIALS[2]
    main_identity_sides(f, 12)  # builds the argument table
    built = []
    init = Poly4.__init__

    def counting_init(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(Poly4, "__init__", counting_init)
    lhs, rhs = main_identity_sides(f, 12)
    assert lhs == rhs
    assert built == []


def test_all_proof_polynomials_qualify():
    assert len(PROOF_POLYNOMIALS) == 9
    for poly in PROOF_POLYNOMIALS:
        assert symmetry_holds(poly)


def test_main_identity_shape_check_square():
    # f = x^2 collapses to 4 * sum(x y) on the left, and on the right to a
    # polynomial in t of degree two
    f = Poly4.from_text("1x^2")
    for n in range(2, 31):
        lhs, rhs = main_identity_sides(f, n, "Bprime")
        assert lhs == rhs
        assert lhs == 4 * brute_convolution(1, 1, n, "Bprime")
        coprime_t = [t for t in range(1, n + 1) if __import__("math").gcd(t, n) == 1]
        assert rhs == sum(2 * t * t - 2 * n * t + 2 * n * n - 2 for t in coprime_t)


def test_main_identity_shape_check_quartic():
    f = Poly4.from_text("1x^2y^2")
    for n in range(2, 25):
        lhs, rhs = main_identity_sides(f, n, "Bprime")
        assert lhs == rhs
        assert lhs == 8 * brute_convolution(3, 1, n, "Bprime")


def test_main_identity_proof_polynomials_both_sets():
    for poly in PROOF_POLYNOMIALS:
        for n in range(2, 16):
            lhs, rhs = main_identity_sides(poly, n, "Bprime")
            assert lhs == rhs, (poly.to_text(), n)
            lhs, rhs = main_identity_sides(poly, n, "B")
            assert lhs == rhs, (poly.to_text(), n)


def test_main_identity_random_polynomials():
    rng = random.Random(1201)
    for _ in range(25):
        poly = random_symmetric_poly(rng)
        for n in range(2, 11):
            lhs, rhs = main_identity_sides(poly, n, "Bprime")
            assert lhs == rhs, (poly.to_text(), n)
            lhs, rhs = main_identity_sides(poly, n, "B")
            assert lhs == rhs, (poly.to_text(), n)


@pytest.mark.parametrize("which", SOLUTION_SETS)
def test_main_identity_sides_match_per_quadruple_oracle(which):
    rng = random.Random(2357)
    family = list(PROOF_POLYNOMIALS) + [random_symmetric_poly(rng) for _ in range(25)]
    for n in range(2, 31):
        for f in family:
            expected = six_term_oracle(f, n, which)
            identities._argument_table.cache_clear()
            assert main_identity_sides(f, n, which) == expected, (f.to_text(), n, "cold")
            assert main_identity_sides(f, n, which) == expected, (f.to_text(), n, "warm")


def test_argument_table_merges_rows_and_is_bounded():
    rows = identities._argument_table(26, "Bprime")[0]
    assert len(rows) == 320 and all(w for _args, w in rows)
    rows = identities._argument_table(20, "B")[0]
    assert len(rows) == 540 and all(w for _args, w in rows)
    assert identities._argument_table.cache_info().maxsize == 1


def test_main_identity_ceiling_refuses_before_enumerating(monkeypatch):
    class Enumerated(Exception):
        pass

    def refuse(*args):
        raise Enumerated

    monkeypatch.setattr(identities, "enumerate_quadruples", refuse)
    f = Poly4.from_text("1x^2y^2")
    for which in SOLUTION_SETS:
        with pytest.raises(BudgetExceededError) as info:
            main_identity_sides(f, 2001, which)
        assert str(info.value) == "identity sides are limited to n <= 2000, got 2001"
        # at the ceiling the call gets as far as enumerating
        with pytest.raises(Enumerated):
            main_identity_sides(f, 2000, which)


def test_identity_work_estimate():
    # 6 * n * bit_length(n)**2 * terms(f) * (1 + deg(f) * bit_length(n) // 512)
    work = identities._identity_work
    assert work(Poly4.from_text("1x^2000"), 200) == 2_457_600
    assert work(Poly4.from_text("1x^20000"), 200) == 24_038_400
    assert work(Poly4.from_text("1x^2y^2"), 2000) == 1_452_000
    assert work(Poly4.from_text("1x^2y^2 + 1a^2b^2"), 60) == 2 * 6 * 60 * 36
    assert work(Poly4.from_text("0"), 60) == 0
    # never evaluated: one power of 2**(10**11)
    assert work(Poly4.from_text("1x^100000000000"), 2) > arith._WORK_LIMIT
    # every call of the full main-identity criterion is far under the limit
    rng = random.Random(20250819)
    family = list(PROOF_POLYNOMIALS) + [random_symmetric_poly(rng) for _ in range(50)]
    assert max(work(f, 60) for f in family) < arith._WORK_LIMIT // 50


def test_main_identity_degree_refuses_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("the argument table was built")

    monkeypatch.setattr(identities, "_argument_table", refuse)
    for which in SOLUTION_SETS:
        with pytest.raises(BudgetExceededError) as info:
            main_identity_sides(Poly4.from_text("1x^20000"), 200, which)
        assert str(info.value) == (
            "identity sides at n = 200 need about 24038400 units of work, the limit is 10000000"
        )
    # just under the limit the call gets as far as building the table
    monkeypatch.setattr(arith, "_WORK_LIMIT", 2_457_600)
    with pytest.raises(AssertionError, match="argument table"):
        main_identity_sides(Poly4.from_text("1x^2000"), 200)
    monkeypatch.setattr(arith, "_WORK_LIMIT", 2_457_599)
    with pytest.raises(BudgetExceededError):
        main_identity_sides(Poly4.from_text("1x^2000"), 200)


def test_main_identity_rejects_unqualified_poly():
    with pytest.raises(ValueError):
        main_identity_sides(Poly4.from_text("1a"), 6, "B")
    with pytest.raises(ValueError):
        main_identity_sides(Poly4.from_text("1x^2"), 1, "B")


def test_theorem_id_parsing():
    tid = parse_theorem_id("t13:printed")
    assert tid == TheoremId("t13", "printed")
    assert str(tid) == "t13:printed"
    assert parse_theorem_id("t11") == TheoremId("t11", "corrected")
    assert str(parse_theorem_id("t11")) == "t11"
    with pytest.raises(ValueError):
        parse_theorem_id("t12")
    with pytest.raises(ValueError):
        parse_theorem_id("t13:guessed")
    # only t13 has genuinely distinct variants; elsewhere both names
    # resolve to the same stored form
    assert theorem_form(parse_theorem_id("t11:printed")) == theorem_form(parse_theorem_id("t11"))
    assert theorem_form(parse_theorem_id("t13:printed")) != theorem_form(parse_theorem_id("t13"))


def test_theorem_rs_table():
    assert THEOREM_RS["t11"] == (1, 1)
    assert THEOREM_RS["t57"] == (5, 7)
    assert THEOREM_BY_RS[(1, 3)] == "t13"
    assert len(THEOREM_RS) == 9


def test_eval_theorem_spot_values():
    assert eval_theorem(parse_theorem_id("t11"), 3) == 6
    assert eval_theorem(parse_theorem_id("t33"), 3) == 18
    assert eval_theorem(parse_theorem_id("t15"), 3) == 36
    assert eval_theorem(parse_theorem_id("t13"), 2) == 1
    assert eval_theorem(parse_theorem_id("t13:printed"), 2) == 8
    for name in ("t17", "t35", "t111", "t39", "t57"):
        assert eval_theorem(parse_theorem_id(name), 2) == 1


def test_theorem_form_coefficients_are_exact():
    form = theorem_form(parse_theorem_id("t11"))
    coeffs = {(power, order): coeff for coeff, power, order in form.terms}
    assert coeffs[(3, -1)] == Fraction(5, 12)
    assert coeffs[(1, -1)] == Fraction(-1, 2)
    assert coeffs[(1, 1)] == Fraction(1, 12)


def test_verify_theorem_corrected_forms_small_range():
    for name in ("t11", "t13", "t15", "t33"):
        report = verify_theorem(parse_theorem_id(name), 2, 40)
        assert report.all_pass
        assert report.first_counterexample is None
        assert len(report.rows) == 39


def test_verify_theorem_printed_t13_fails_with_factor_eight():
    report = verify_theorem(parse_theorem_id("t13:printed"), 2, 10)
    assert not report.all_pass
    assert report.first_counterexample is not None
    assert report.first_counterexample.n == 2
    for row in report.rows:
        assert not row.ok
        assert row.closed == 8 * row.oracle


def test_verify_theorem_parallel_matches_serial():
    serial = verify_theorem(parse_theorem_id("t15"), 2, 30, jobs=1)
    parallel = verify_theorem(parse_theorem_id("t15"), 2, 30, jobs=2)
    assert serial == parallel


def test_verify_theorem_single_worker_runs_in_process(monkeypatch):
    # every accepted jobs value runs the rows here, and gives the jobs=1 report
    serial = {hi: verify_theorem("t11", 2, hi, jobs=1) for hi in (2, 30)}

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    for jobs in (2, identities._MAX_JOBS):
        for hi, report in serial.items():
            assert verify_theorem("t11", 2, hi, jobs=jobs) == report


PROCESS_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def test_package_starts_no_process():
    # fork-storm guard: no module imports process machinery or calls os.fork
    def banned(name):
        return name == "os.fork" or any(
            name == mod or name.startswith(mod + ".") for mod in PROCESS_MODULES
        )

    offenders = []
    for path in sorted(Path(identities.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names if banned(name)]
    assert offenders == []


def test_verify_theorem_rejects_jobs_over_ceiling(monkeypatch, capsys):
    # the library and the CLI refuse before any pool exists, so nothing starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for jobs in (0, identities._MAX_JOBS + 1, 10**6):
        with pytest.raises(ValueError, match="jobs must be between 1 and"):
            verify_theorem("t11", 2, 30, jobs=jobs)
        argv = ["verify", "--theorem", "t11", "--range", "2..30", "--jobs", str(jobs)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: jobs must be between 1 and {identities._MAX_JOBS}, got {jobs}\n"


def test_verify_theorem_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_theorem(parse_theorem_id("t11"), 1, 10)
    with pytest.raises(ValueError):
        verify_theorem(parse_theorem_id("t11"), 10, 5)


def test_besge_and_glaisher():
    for n in range(2, 51):
        assert besge_check(n)
        assert glaisher_check(n)
