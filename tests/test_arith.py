"""Arithmetic primitives against independent oracles and known tables."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaprime.arith import (
    BudgetExceededError,
    bernoulli,
    divisors,
    factorize,
    faulhaber_sum,
    mobius,
    sigma_convolution,
    sigma_k,
    totient,
)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(2**3 * 7**2 * 11) == ((2, 3), (7, 2), (11, 1))


def test_factorize_bounds_trial_division():
    # a prime near 10**14 would need trial divisors up to 10**7
    with pytest.raises(BudgetExceededError, match="above 1000000"):
        factorize(100000000000031)
    # every n <= 10**12 stays within the bound
    assert factorize(999999999989) == ((999999999989, 1),)


def test_factorize_rebuilds_n():
    for n in range(1, 2000):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-4)


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(6) == (1, 2, 3, 6)
    assert divisors(97) == (1, 97)


def test_divisors_oracle():
    # oracle: literal remainder scan, no factorization involved
    for n in range(1, 500):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1
    assert mobius(6) == 1


def test_mobius_divisor_sum_vanishes():
    # sum of mu(d) over d | n is 0 for every n > 1
    for n in range(2, 10001):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_totient_examples():
    # phi(9): residues 1,2,4,5,7,8 -> 6; phi(10): 1,3,7,9 -> 4
    assert totient(1) == 1
    assert totient(9) == 6
    assert totient(10) == 4


def test_totient_by_enumeration():
    # oracle: count coprime residues directly
    for n in range(1, 2001):
        assert totient(n) == sum(1 for t in range(1, n + 1) if gcd(t, n) == 1)


def test_totient_divisor_sum():
    # sum of phi(d) over d | n rebuilds n
    for n in range(1, 10001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_sigma_k_examples():
    assert sigma_k(1, 6) == 12
    assert sigma_k(3, 2) == 9
    assert sigma_k(0, 12) == 6
    assert sigma_k(2, -5) == 0
    assert sigma_k(5, 0) == 0


def test_sigma_k_oracle():
    # oracle: divisor scan by remainder
    for n in range(1, 300):
        for k in range(4):
            assert sigma_k(k, n) == sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_sigma_convolution_oracle():
    # oracle: count the splits n = u*x + v*y literally, weighted by x**r y**s
    for n in range(1, 25):
        for r, s in ((0, 0), (1, 1), (1, 3), (2, 0)):
            expected = sum(
                x**r * ((n - u * x) // v) ** s
                for u in range(1, n)
                for x in range(1, n)
                for v in range(1, n)
                if n - u * x > 0 and (n - u * x) % v == 0
            )
            assert sigma_convolution(r, s, n) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10000), st.integers(2, 10000), st.integers(0, 5))
def test_sigma_k_multiplicative(m, n, k):
    if gcd(m, n) != 1:
        return
    assert sigma_k(k, m * n) == sigma_k(k, m) * sigma_k(k, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10000), st.integers(2, 10000))
def test_totient_multiplicative(m, n):
    if gcd(m, n) != 1:
        return
    assert totient(m * n) == totient(m) * totient(n)


def test_bernoulli_table():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for j, value in expected.items():
        assert bernoulli(j) == value


def test_bernoulli_odd_indices_vanish():
    for j in range(1, 16):
        assert bernoulli(2 * j + 1) == 0


def test_faulhaber_matches_direct_sums():
    # oracle: literal summation
    for k in range(13):
        for upper in range(0, 60):
            assert faulhaber_sum(k, upper) == sum(j**k for j in range(1, upper + 1))


def test_faulhaber_examples():
    assert faulhaber_sum(0, 7) == 7
    assert faulhaber_sum(1, 100) == 5050
    assert faulhaber_sum(2, 4) == 30
