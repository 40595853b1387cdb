import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from seljac import arith, cli
from seljac.arith import (
    CERTIFIED_BELOW,
    euler_phi_prime_power,
    fraction_is_square,
    is_perfect_square,
    is_prime,
    prime_power,
    prime_powers_upto,
    primitive_count,
)
from seljac.lattice import coprime_pairs


# ---- the trial-division oracle ----


def least_prime_factor(m: int) -> int:
    """The least prime dividing m >= 2, by trial division: 2, then odd d
    while d*d <= m; m itself when none divides it."""
    if m % 2 == 0:
        return 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


def prime_power_by_trial_division(q: int) -> tuple[int, int] | None:
    """`prime_power` as it was first written: divide out the least prime
    factor and check that nothing else is left."""
    if q < 2:
        return None
    p = least_prime_factor(q)
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    return (p, r) if q == 1 else None


def test_is_prime_matches_sympy():
    for m in range(-3, 500):
        assert is_prime(m) == sympy.isprime(m)
    for m in (10**9 + 7, 10**9 + 6, 2**31 - 1):
        assert is_prime(m) == sympy.isprime(m)


def test_least_prime_factor_matches_sympy():
    for m in [*range(2, 2000), 10**9 + 7, (10**9 + 7) * 3, 1000003**2]:
        assert least_prime_factor(m) == min(sympy.factorint(m)), m


def test_prime_power_matches_trial_division_below_a_million():
    for m in range(-3, 10**6):
        assert prime_power(m) == prime_power_by_trial_division(m), m


def _sympy_prime_power(q: int) -> tuple[int, int] | None:
    factors = sympy.factorint(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


# The least strong pseudoprime to the first k prime bases, k = 1, ..., 13
# (OEIS A014233): each is composite, and each passes Miller-Rabin to the
# bases of the row it bounds.
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
]


def test_base_sets_are_bounded_by_their_least_strong_pseudoprimes():
    assert [bound for bound, _ in arith._MILLER_RABIN] == STRONG_PSEUDOPRIMES
    assert CERTIFIED_BELOW == STRONG_PSEUDOPRIMES[-1]
    for bound, bases in arith._MILLER_RABIN:
        assert not sympy.isprime(bound)
        assert arith._strong_probable_prime(bound, bases)
        assert bases == tuple(sympy.primerange(2, bases[-1] + 1))


@pytest.mark.parametrize("m", STRONG_PSEUDOPRIMES[:-1])
def test_strong_pseudoprimes_are_not_prime_powers(m):
    # each is the least composite that its own row's bases miss, so a small
    # factor or the next row's bases must catch it
    assert prime_power(m) is None
    assert is_prime(m) is False


def test_prime_power_matches_sympy_on_seeded_inputs():
    rng = random.Random(20150801)
    cases = [3**1000, 2**1000, 101**2, 10007**3, (10**12 - 11) ** 5]
    for _ in range(150):
        p = sympy.prevprime(rng.randrange(3, 10**rng.randint(2, 12)))
        cases.append(p ** rng.randint(1, 5))
    for _ in range(100):
        a = sympy.nextprime(rng.randrange(100, 10**rng.randint(3, 7)))
        b = sympy.nextprime(rng.randrange(100, 10**rng.randint(3, 7)))
        cases.append(a * b)
        cases.append(a * b * b)
    for q in cases:
        assert prime_power(q) == _sympy_prime_power(q), q
    # products of known primes too large for factorint to be quick
    m61, m31 = 2**61 - 1, 2**31 - 1
    for q in (m61 * m31, m61**2 * m31, m61 * (10**12 - 11) ** 3):
        assert prime_power(q) is None
    assert prime_power(m61**3) == (m61, 3)


@given(st.integers(1, 10**400), st.integers(2, 300))
@example(10**30, 3)
@example(2**150 - 1, 3)
def test_integer_root_is_the_floor_of_the_real_root(m, l):
    assert arith._root(m, l) == sympy.integer_nthroot(m, l)[0]


@given(st.integers(1, 10**60), st.integers(2, 60), st.sampled_from([-1, 0, 1]))
def test_integer_root_near_an_exact_power(x, l, d):
    m = x**l + d
    if m >= 1:
        assert arith._root(m, l) == sympy.integer_nthroot(m, l)[0]


MESSAGE = (
    r"^cannot prove {} prime: the primality test is certain only below 3317044064679887385961981$"
)


@pytest.mark.parametrize(
    "q,base",
    [
        (2**89 - 1, 2**89 - 1),  # a Mersenne prime above the bound
        ((2**89 - 1) ** 3, 2**89 - 1),  # its cube: the root is taken first
        (CERTIFIED_BELOW, CERTIFIED_BELOW),  # composite, but no base set here says so
    ],
)
def test_a_probable_prime_past_the_bound_is_refused(q, base):
    for check in (prime_power, is_prime):
        with pytest.raises(ValueError, match=MESSAGE.format(base)):
            check(q)


def test_a_composite_past_the_bound_is_no_prime_power():
    # a factor below 100, or base 2 alone, proves these composite
    assert prime_power((2**89 - 1) * (2**107 - 1)) is None
    assert prime_power(CERTIFIED_BELOW * 3) is None
    assert prime_power((2**89 - 1) * 101) is None


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
    # each list is the one before it, then limit itself if it is p**r
    previous = []
    for limit in range(3001):
        listed = prime_powers_upto(limit)
        pr = prime_power_by_trial_division(limit)
        assert listed == previous + ([(limit, *pr)] if pr else []), limit
        previous = listed
    assert len(prime_powers_upto(10**6)) == 78734
    # the sieve holds r in a byte; the largest r a scan sieves is 23, 2^23
    assert max(r for _, _, r in prime_powers_upto(cli.SCAN_Q_MAX)) == 23


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
    assert fraction_is_square(Fraction(0))
    assert not fraction_is_square(Fraction(-4, 9))
    assert not fraction_is_square(Fraction(2))
    assert not fraction_is_square(Fraction(4, 8))  # reduces to 1/2


@given(st.fractions(max_denominator=10**6))
def test_fraction_is_square_on_squares(r):
    assert fraction_is_square(r * r)
