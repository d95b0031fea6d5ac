"""Exactness and algebra of the cyclotomic scalar layer."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisweil.scalar import (
    PRIME_TEST_BOUND,
    CycNumber,
    cyclotomic_polynomial,
    gauss_sum,
    imaginary_unit,
    is_odd_prime,
    legendre_symbol,
    root_of_unity,
    run_conductor,
    zeta_p,
)

ODD_PRIMES = [3, 5, 7, 11, 13]


def brute_gauss_sum(p: int, conductor: int) -> CycNumber:
    # Independent oracle: term-by-term evaluation of sum (t/p) zeta_p^t.
    out = CycNumber.zero(conductor)
    for t in range(1, p):
        out = out + legendre_symbol(t, p) * zeta_p(p, t, conductor=conductor)
    return out


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    # Phi_{4p}(x) = sum_{k<p} (-1)^k x^{2k} for odd primes p
    for p in ODD_PRIMES:
        coeffs = [0] * (2 * p - 1)
        coeffs[0::4] = [1] * len(coeffs[0::4])
        coeffs[2::4] = [-1] * len(coeffs[2::4])
        assert cyclotomic_polynomial(4 * p) == tuple(coeffs)


def test_root_of_unity_identity():
    assert root_of_unity(3, 0) == CycNumber.one(3)


def test_root_of_unity_omega_relation():
    omega = root_of_unity(3, 1)
    assert omega * omega + omega + 1 == CycNumber.zero(3)


def test_root_of_unity_i_squares_to_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == -CycNumber.one(4)
    assert imaginary_unit(12) ** 2 == -CycNumber.one(12)


@pytest.mark.parametrize("n,k", [(12, 1), (12, 8), (20, 5), (28, 21), (7, 3)])
def test_root_of_unity_order(n, k):
    from math import gcd

    x, one = root_of_unity(n, k), CycNumber.one(n)
    powers = [x**e for e in range(1, n // gcd(n, k) + 1)]
    assert powers[-1] == one and one not in powers[:-1]


def test_gauss_sum_p3_closed_form():
    # two-term evaluation: zeta_3 - zeta_3^2
    g = gauss_sum(3, conductor=3)
    z = root_of_unity(3, 1)
    assert g == z - z**2
    assert g * g == CycNumber.from_rational(3, -3)


def test_gauss_sum_p5_closed_form():
    g = gauss_sum(5, conductor=5)
    z = root_of_unity(5, 1)
    assert g == z - z**2 - z**3 + z**4
    assert g * g == CycNumber.from_rational(5, 5)


def test_gauss_sum_p7_square():
    g = gauss_sum(7)
    assert g * g == CycNumber.from_rational(run_conductor(7), -7)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_gauss_sum_against_bruteforce_and_norm(p):
    n = run_conductor(p)
    g = gauss_sum(p)
    assert g == brute_gauss_sum(p, n)
    assert g * g.conj() == CycNumber.from_rational(n, p)
    sign = -1 if p % 4 == 3 else 1
    assert g * g == CycNumber.from_rational(n, sign * p)


@pytest.mark.parametrize("p", [2, 9, 15, 1])
def test_gauss_sum_rejects_non_odd_primes(p):
    with pytest.raises(ValueError):
        gauss_sum(p)


def _is_odd_prime_by_trial_division(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    return all(n % d for d in range(3, int(n**0.5) + 1, 2))


def test_miller_rabin_agrees_with_trial_division_below_200000():
    assert [n for n in range(200_000) if is_odd_prime(n)] == [
        n for n in range(200_000) if _is_odd_prime_by_trial_division(n)
    ]


def test_miller_rabin_refuses_strong_pseudoprimes_and_large_primes_pass():
    """The least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    are composite, and so are Carmichael numbers; primes near 10^18 and
    2^61 - 1 are prime; PRIME_TEST_BOUND, the least strong pseudoprime to
    all 13 bases, and everything above it are refused with the bound."""
    pseudoprimes = [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
        561, 41041, 825265,
    ]
    assert not any(map(is_odd_prime, pseudoprimes))
    assert is_odd_prime(10**18 + 3) and is_odd_prime(2**61 - 1)
    assert not is_odd_prime(10**18 + 1) and not is_odd_prime(PRIME_TEST_BOUND - 2)
    for p in (PRIME_TEST_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match=f"not below {PRIME_TEST_BOUND}"):
            is_odd_prime(p)


def small_cyc(n):
    return st.builds(
        lambda nums, den: CycNumber(n, nums, den),
        st.lists(st.integers(-6, 6), min_size=len_phi(n), max_size=len_phi(n)),
        st.integers(1, 5),
    )


def len_phi(n):
    return len(cyclotomic_polynomial(n)) - 1


@settings(max_examples=60, deadline=None)
@given(a=small_cyc(12), b=small_cyc(12), c=small_cyc(12))
def test_field_axioms_hold_exactly(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == CycNumber.one(12)


@settings(max_examples=60, deadline=None)
@given(a=small_cyc(20), b=small_cyc(20))
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@pytest.mark.parametrize("n,k", [(12, 5), (20, 13), (28, 3)])
def test_conj_of_root_is_inverse_root(n, k):
    assert root_of_unity(n, k).conj() == root_of_unity(n, -k)


def test_embedding_matches_floats():
    # diagnostics-only float embedding should agree with exact values
    g = gauss_sum(5)
    assert abs(g.to_complex() - 5**0.5) < 1e-9
    g3 = gauss_sum(3)
    assert abs(g3.to_complex() - 1j * 3**0.5) < 1e-9


def test_json_roundtrip():
    # the JSON coefficients are the power-basis rationals: summing them back
    # over zeta_N^k rebuilds x
    x = gauss_sum(3) / 7 + root_of_unity(12, 5)
    data = x.to_json()
    assert data["N"] == 12
    terms = enumerate(data["coeffs"])
    rebuilt = sum(
        (root_of_unity(12, k) * Fraction(a, b) for k, (a, b) in terms),
        start=CycNumber.zero(12),
    )
    assert rebuilt == x


def test_rational_detection():
    x = root_of_unity(12, 6)  # = -1
    assert x.is_rational() and x.rational_value() == Fraction(-1)
    assert not root_of_unity(12, 4).is_rational()


def random_cyc(rng, n):
    nums = [0 if rng.random() < 0.3 else rng.randint(-7, 7) for _ in range(len_phi(n))]
    return CycNumber(n, nums, rng.randint(1, 6))


@pytest.mark.parametrize("n", range(1, 41))
def test_inverse_for_every_conductor_up_to_40(n):
    rng = random.Random(n)
    one = CycNumber.one(n)
    samples = [random_cyc(rng, n) for _ in range(4)]
    samples += [root_of_unity(n, 1) + 2, 1 - root_of_unity(n, 1) * 3]
    for a in samples:
        if a.is_zero():
            continue
        inv = a.inverse()
        assert a * inv == one, (n, a)
        assert inv.inverse() == a


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(12).inverse()


def units(n):
    return [k for k in range(1, n + 1) if gcd(k, n) == 1]


@pytest.mark.parametrize("n", [5, 8, 9, 12, 15, 28])
def test_galois_maps_are_composing_ring_automorphisms(n):
    rng = random.Random(100 + n)
    for k in units(n):
        for j in range(n):
            assert root_of_unity(n, j).galois(k) == root_of_unity(n, j * k)
    for _ in range(3):
        a, b = random_cyc(rng, n), random_cyc(rng, n)
        for k in units(n):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            for l in units(n):
                assert a.galois(k).galois(l) == a.galois(k * l)
        assert a.galois(1) == a
        assert a.galois(-1) == a.conj()
        assert abs(a.conj().to_complex() - a.to_complex().conjugate()) < 1e-9


def test_galois_rejects_a_non_unit():
    with pytest.raises(ValueError, match="not a unit mod 12"):
        root_of_unity(12, 1).galois(3)
