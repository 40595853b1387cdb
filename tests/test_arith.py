from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from seljac.arith import (
    euler_phi_prime_power,
    fraction_is_square,
    fraction_sqrt,
    is_perfect_square,
    is_prime,
    least_prime_factor,
    prime_power,
    prime_powers_upto,
    primitive_count,
)
from seljac.lattice import coprime_pairs


def test_is_prime_matches_sympy():
    for m in range(-3, 500):
        assert is_prime(m) == sympy.isprime(m)
    for m in (10**9 + 7, 10**9 + 6, 2**31 - 1):
        assert is_prime(m) == sympy.isprime(m)


def test_least_prime_factor_matches_sympy():
    for m in [*range(2, 2000), 10**9 + 7, (10**9 + 7) * 3, 1000003**2]:
        assert least_prime_factor(m) == min(sympy.factorint(m)), m


@pytest.mark.parametrize(
    "q,expected",
    [
        (2, (2, 1)),
        (3, (3, 1)),
        (4, (2, 2)),
        (8, (2, 3)),
        (9, (3, 2)),
        (125, (5, 3)),
        (2048, (2, 11)),
        (1, None),
        (0, None),
        (-8, None),
        (6, None),
        (12, None),
        (100, None),
    ],
)
def test_prime_power(q, expected):
    assert prime_power(q) == expected


def test_euler_phi_prime_power():
    assert euler_phi_prime_power(2, 1) == 1
    assert euler_phi_prime_power(2, 2) == 2
    assert euler_phi_prime_power(3, 2) == 6
    assert euler_phi_prime_power(5, 3) == 100
    for p, r in ((2, 5), (3, 3), (7, 2)):
        assert euler_phi_prime_power(p, r) == sympy.totient(p**r)


def test_prime_powers_upto():
    assert prime_powers_upto(10) == [
        (2, 2, 1),
        (3, 3, 1),
        (4, 2, 2),
        (5, 5, 1),
        (7, 7, 1),
        (8, 2, 3),
        (9, 3, 2),
    ]
    assert prime_powers_upto(1) == []
    listed = prime_powers_upto(300)
    assert [q for q, _, _ in listed] == sorted(q for q, _, _ in listed)
    for q, p, r in listed:
        assert p**r == q and sympy.isprime(p)
    assert {q for q, _, _ in listed} == {
        m for m in range(2, 301) if len(sympy.factorint(m)) == 1
    }


def test_coprime_pairs_order_and_filter():
    assert list(coprime_pairs([4, 3], 5)) == [
        (4, 3, 3, 1),
        (4, 5, 5, 1),
        (3, 2, 2, 1),
        (3, 4, 2, 2),
        (3, 5, 5, 1),
    ]
    pairs = list(coprime_pairs(range(3, 31), 64))
    assert pairs == sorted(pairs)
    assert {(n, q) for n, q, _, _ in pairs} == {
        (n, q) for n in range(3, 31) for q in range(2, 65)
        if len(sympy.factorint(q)) == 1 and sympy.gcd(n, q) == 1
    }


@given(st.integers(-50, 300), st.integers(-50, 300), st.integers(2, 40))
def test_primitive_count_matches_a_filter(lo, hi, p):
    assert primitive_count(lo, hi, p) == sum(1 for i in range(lo, hi) if i % p)


def test_is_perfect_square():
    squares = {k * k for k in range(100)}
    for m in range(-5, 10_000):
        assert is_perfect_square(m) == (m in squares)


def test_fraction_square_helpers():
    assert fraction_is_square(Fraction(4, 9))
    assert fraction_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert fraction_is_square(Fraction(0))
    assert fraction_sqrt(Fraction(0)) == 0
    assert not fraction_is_square(Fraction(-4, 9))
    assert not fraction_is_square(Fraction(2))
    assert not fraction_is_square(Fraction(4, 8))  # reduces to 1/2


@given(st.fractions(max_denominator=10**6))
def test_fraction_sqrt_roundtrip(r):
    sq = r * r
    assert fraction_is_square(sq)
    assert fraction_sqrt(sq) == abs(r)
