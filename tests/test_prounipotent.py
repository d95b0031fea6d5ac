import itertools
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisweil import prounipotent
from heisweil.checks import Check
from heisweil.prounipotent import (
    CongruenceGroup,
    _ul_decompose,
    alpha_factor,
    h1_alpha_trivial,
    in_pattern,
    make_alpha,
    sqrt,
    sqrt_with_trace,
)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int -> str has no limit")
def test_modulus_bound_is_the_int_to_str_limit():
    """p^K must stay below 10^limit, the bound taken once per process: the
    largest such K is accepted and the next refused, at p = 3 and at a
    prime near 10^18, and a K past 3 limit is refused at once."""
    limit = sys.get_int_max_str_digits()
    assert prounipotent._MODULUS_BOUND == 10**limit
    for p in (3, 10**18 + 3):
        K = 1
        while p ** (K + 1) < 10**limit:
            K += 1
        assert CongruenceGroup(1, p, K).modulus == p**K
        with pytest.raises(ValueError, match=rf"^modulus p\^K = {p}\^{K + 1} must stay "):
            CongruenceGroup(1, p, K + 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"below 10\^{limit}, as int -> str writes"):
        CongruenceGroup(2, 3, 10**12)
    assert time.perf_counter() - start < 1


def _doubling_trace(k0, K):
    """min(k0 2^i, K) for i = 1 .. s, s the least with k0 2^s >= K."""
    steps = (-(-K // k0) - 1).bit_length()
    return [min(k0 << i, K) for i in range(1, steps + 1)]


def test_sqrt_identity():
    g = CongruenceGroup(2, 3, 4)
    assert np.array_equal(sqrt(g, g.identity()), g.identity())


def test_sqrt_scalar_example():
    # 1x1 case: the square root of 4 in 1 + 3 Z/81 is 79
    g = CongruenceGroup(1, 3, 4)
    root, levels = sqrt_with_trace(g, [[4]])
    assert root[0, 0] == 79
    assert (79 * 79) % 81 == 4
    assert levels == [2, 4]
    # exhaustive uniqueness over the 27 elements of 1 + 3 Z/81
    candidates = [x for x in g.enumerate() if (x[0, 0] ** 2) % 81 == 4]
    assert candidates == [np.array([[79]])]


@pytest.mark.parametrize("n,p,K", [(1, 3, 4), (2, 3, 5), (2, 5, 4), (1, 5, 6)])
def test_sqrt_random_inputs(n, p, K):
    g = CongruenceGroup(n, p, K)
    rng = random.Random(f"{n}{p}{K}")
    for _ in range(60):
        a = g.random_element(rng)
        x = sqrt(g, a)
        assert np.array_equal(g.mul(x, x), a)
        assert g.contains(x)


def test_sqrt_uniqueness_exhaustive_small():
    # |G| = 3^4 = 81 for n=2, p=3, K=2: brute-force the uniqueness claim
    g = CongruenceGroup(2, 3, 2)
    els = g.enumerate()
    rng = random.Random(5)
    for _ in range(15):
        a = g.random_element(rng)
        roots = [x for x in els if np.array_equal(g.mul(x, x), a)]
        assert len(roots) == 1
        assert np.array_equal(roots[0], sqrt(g, a))


def test_sqrt_uniqueness_exhaustive_k3():
    # n=2, p=3, K=3, k0=1: 3^8 = 6561 elements, still within the guard
    g = CongruenceGroup(2, 3, 3)
    els = g.enumerate(guard=10_000)
    a = g.reduce([[4, 3], [6, 16]])
    assert g.contains(a)
    roots = [x for x in els if np.array_equal(g.mul(x, x), a)]
    assert len(roots) == 1
    assert np.array_equal(roots[0], sqrt(g, a))


def test_sqrt_commutes_with_automorphisms():
    g = CongruenceGroup(2, 3, 5)
    alpha = make_alpha(g, "transpose_inverse", perm=(1, 0))
    rng = random.Random(9)
    for _ in range(40):
        a = g.random_element(rng)
        assert np.array_equal(alpha(sqrt(g, a)), sqrt(g, alpha(a)))


def test_sqrt_rejects_outsiders():
    g = CongruenceGroup(2, 3, 4)
    with pytest.raises(ValueError):
        sqrt(g, [[2, 0], [0, 1]])


# an int64 group, and object-dtype groups (p^K > 2^32) at k0 = 1 and 2
@pytest.mark.parametrize("n,p,K,k0", [(2, 3, 4, 1), (3, 5, 6, 2), (2, 3, 21, 1), (2, 7, 13, 2)])
@pytest.mark.parametrize("as_lists", [False, True])
def test_sqrt_stack_with_one_outsider_raises(n, p, K, k0, as_lists):
    g = CongruenceGroup(n, p, K, k0)
    assert g.dtype is (np.int64 if p**K < 2**32 else object)
    rng = random.Random(f"outsider{n}{p}{K}{k0}")
    a = np.stack([g.random_element(rng) for _ in range(4)])
    sqrt_with_trace(g, a)
    a[2, 0, n - 1] = (a[2, 0, n - 1] + p ** (k0 - 1)) % g.modulus  # not 0 mod p^k0
    with pytest.raises(ValueError, match="^matrix is not in the congruence group$"):
        sqrt_with_trace(g, a.tolist() if as_lists else a)


def test_h1_identity_alpha():
    # alpha = id: Z^1 = elements of order <= 2 = {1} in a pro-p group, p odd
    g = CongruenceGroup(1, 3, 3)
    alpha = make_alpha(g, "identity")
    ok, details = h1_alpha_trivial(g, alpha, mode="exhaustive")
    assert ok and details["z1"] == details["b1"] == 1


def test_make_alpha_kinds_are_identity_and_transpose_inverse():
    g = CongruenceGroup(2, 3, 3)
    x = g.random_element(random.Random(0))
    assert np.array_equal(make_alpha(g, "identity")(x), x)
    assert np.array_equal(make_alpha(g, "identity", perm=(1, 0))(x), x[::-1, ::-1])
    with pytest.raises(ValueError, match="permutation"):
        make_alpha(g, "permutation", perm=(1, 0))


def test_h1_exhaustive_transpose_inverse_on_27():
    # 1 + 3 M_2(Z/27): 3^8 = 6561 elements, exhaustive Z^1 = B^1
    g = CongruenceGroup(2, 3, 3)
    alpha = make_alpha(g, "transpose_inverse")
    ok, details = h1_alpha_trivial(g, alpha, mode="exhaustive")
    assert ok
    assert details["z1"] == details["b1"] > 1


def test_h1_constructive_witnesses_k6():
    g = CongruenceGroup(2, 3, 6)
    alpha = make_alpha(g, "transpose_inverse", perm=(1, 0))
    ok, details = h1_alpha_trivial(
        g, alpha, mode="constructive", witnesses=100, seed=2
    )
    assert ok and details["witnesses"] == 100


def test_h1_rejects_non_involution():
    g = CongruenceGroup(2, 3, 3)
    bad = lambda x: g.mul(x, x)  # not an automorphism
    with pytest.raises(ValueError):
        h1_alpha_trivial(g, bad, mode="constructive")


def _cayley_fixed_point(group, alpha_form, rng):
    """Random fixed point of the J0-antitranspose involution via the Cayley
    transform of a form-antisymmetric nilpotent X."""
    n, mod, scale = group.n, group.modulus, group.p**group.k0
    j0 = np.fliplr(np.eye(n, dtype=np.int64))
    while True:
        x = np.array(
            [[rng.randrange(mod // scale) for _ in range(n)] for _ in range(n)],
            dtype=group.dtype,
        ) * scale % mod
        # project to tX J0 = -J0 X: X = (X - J0 tX J0) / 2
        inv2 = pow(2, -1, mod)
        x = ((x - j0 @ x.T @ j0) * inv2) % mod
        one = group.identity()
        c = group.mul(group.inv((one - x) % mod), (one + x) % mod)
        if group.contains(c):
            return c


@pytest.mark.parametrize("n,K", [(2, 4), (3, 4)])
def test_alpha_factor_on_fixed_points(n, K):
    g = CongruenceGroup(n, 3, K)
    perm = tuple(range(n - 1, -1, -1))
    alpha = make_alpha(g, "transpose_inverse", perm=perm)
    rng = random.Random(100 + n)
    for _ in range(100):
        c = _cayley_fixed_point(g, alpha, rng)
        assert np.array_equal(alpha(c), c)
        a, b = alpha_factor(g, c, "upper", "lower", alpha)
        assert np.array_equal(g.mul(a, b), c)
        assert np.array_equal(alpha(a), a) and np.array_equal(alpha(b), b)
        assert in_pattern(g, a, "upper") and in_pattern(g, b, "lower")


def test_alpha_factor_trivial_intersection():
    # A = upper unipotent, B = lower: A ^ B = 1, factorization forced
    g = CongruenceGroup(2, 3, 4)
    perm = (1, 0)
    alpha = make_alpha(g, "transpose_inverse", perm=perm)
    rng = random.Random(77)
    c = _cayley_fixed_point(g, alpha, rng)
    a, b = alpha_factor(g, c, "upper_unipotent", "lower", alpha)
    assert in_pattern(g, a, "upper_unipotent")


def test_alpha_factor_accepts_already_fixed():
    g = CongruenceGroup(2, 3, 4)
    alpha = make_alpha(g, "transpose_inverse", perm=(1, 0))
    c = g.reduce(np.diag([4, 61]))  # 4 * 61 = 244 = 1 mod 81: alpha-fixed torus
    assert np.array_equal(alpha(c), c)
    a, b = alpha_factor(g, c, "upper", "lower", alpha)
    assert np.array_equal(g.mul(a, b), c)


def test_alpha_factor_rejects_unfixed():
    g = CongruenceGroup(2, 3, 4)
    alpha = make_alpha(g, "transpose_inverse", perm=(1, 0))
    rng = random.Random(1)
    c = g.random_element(rng)
    if np.array_equal(alpha(c), c):
        c = g.mul(c, g.reduce(np.eye(2, dtype=np.int64) + 3 * np.array([[0, 1], [0, 0]])))
    with pytest.raises(ValueError):
        alpha_factor(g, c, "upper", "lower", alpha)


STACK_GROUPS = [(1, 3, 4), (2, 3, 4), (3, 3, 4), (1, 5, 4), (2, 5, 3), (3, 5, 3), (2, 13, 17)]
PATTERNS = ("upper", "lower", "upper_unipotent", "lower_unipotent", "diagonal")


def _reversing_alpha(g):
    return make_alpha(g, "transpose_inverse", perm=tuple(range(g.n - 1, -1, -1)))


@pytest.mark.parametrize("n,p,K", STACK_GROUPS)
def test_in_pattern_on_a_stack_equals_per_matrix(n, p, K):
    g = CongruenceGroup(n, p, K)
    rng = random.Random(f"pattern{n}{p}{K}")
    gs = np.stack([g.random_element(rng) for _ in range(6)])
    u, l = _ul_decompose(g, gs)
    diag = l * np.eye(n, dtype=np.int64)
    outsider = g.reduce(2 * np.eye(n, dtype=np.int64))[None]
    stack = np.concatenate([gs, u, l, u.swapaxes(-1, -2), diag, outsider])
    assert g.dtype is (object if (n, p, K) == (2, 13, 17) else np.int64)
    for pattern in PATTERNS:
        got = in_pattern(g, stack, pattern)
        assert got.dtype == bool and got.shape == (len(stack),)
        assert got.tolist() == [in_pattern(g, m, pattern) for m in stack]
        assert not got[-1]
    assert in_pattern(g, u, "upper_unipotent").all()
    assert in_pattern(g, l, "lower").all()
    assert in_pattern(g, diag, "diagonal").all()


def test_in_pattern_without_a_stack_is_a_python_bool():
    g = CongruenceGroup(2, 3, 4)
    for pattern in PATTERNS:
        assert type(in_pattern(g, g.identity(), pattern)) is bool
    assert in_pattern(g, [[2, 0], [0, 1]], "diagonal") is False
    with pytest.raises(ValueError, match="unknown block pattern"):
        in_pattern(g, np.stack([g.identity()] * 2), "antidiagonal")


@pytest.mark.parametrize("n,p,K", STACK_GROUPS)
def test_ul_decompose_on_a_stack_equals_per_matrix(n, p, K):
    g = CongruenceGroup(n, p, K)
    rng = random.Random(f"ul{n}{p}{K}")
    cs = np.stack([g.random_element(rng) for _ in range(8)])
    u, l = _ul_decompose(g, cs)
    assert u.shape == l.shape == cs.shape and u.dtype == l.dtype == g.dtype
    for c, uc, lc in zip(cs, u, l):
        u1, l1 = _ul_decompose(g, c)
        assert np.array_equal(uc, u1) and np.array_equal(lc, l1)
        assert np.array_equal(g.mul(u1, l1), c)


@pytest.mark.parametrize("n,p,K", STACK_GROUPS)
def test_alpha_factor_on_a_stack_equals_per_matrix(n, p, K):
    g = CongruenceGroup(n, p, K)
    alpha = _reversing_alpha(g)
    rng = random.Random(f"factor{n}{p}{K}")
    cs = np.stack([_cayley_fixed_point(g, alpha, rng) for _ in range(8)])
    a, b = alpha_factor(g, cs, "upper", "lower", alpha)
    assert a.shape == b.shape == cs.shape
    for c, ac, bc in zip(cs, a, b):
        a1, b1 = alpha_factor(g, c, "upper", "lower", alpha)
        assert np.array_equal(ac, a1) and np.array_equal(bc, b1)
    assert np.array_equal(g.mul(a, b), cs)
    assert np.array_equal(alpha(a), a) and np.array_equal(alpha(b), b)


@pytest.mark.parametrize("n,p,K", [(2, 3, 4), (3, 5, 3), (2, 13, 17)])
def test_alpha_factor_stack_with_one_unfixed_matrix_raises(n, p, K):
    g = CongruenceGroup(n, p, K)
    alpha = _reversing_alpha(g)
    rng = random.Random(f"unfixed{n}{p}{K}")
    cs = np.stack([_cayley_fixed_point(g, alpha, rng) for _ in range(5)])
    alpha_factor(g, cs, "upper", "lower", alpha)
    unipotent = np.eye(n, dtype=np.int64)
    unipotent[0, n - 1] = p  # alpha sends it to its inverse
    cs[3] = g.mul(cs[3], g.reduce(unipotent))
    with pytest.raises(ValueError, match="alpha-fixed"):
        alpha_factor(g, cs, "upper", "lower", alpha)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sqrt_property_hypothesis(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    p = rng.choice([3, 5])
    K = rng.choice([3, 4, 5, 6])
    g = CongruenceGroup(n, p, K)
    a = g.random_element(rng)
    x, levels = sqrt_with_trace(g, a)
    assert np.array_equal(g.mul(x, x), a)
    assert levels == _doubling_trace(g.k0, K)


def test_dtype_follows_the_product_bound():
    # a product of reduced matrices has entries below n (p^K - 1)^2
    for n, p, K in [(2, 3, 19), (2, 3, 20), (1, 3, 39), (1, 3, 40), (4, 13, 8), (4, 13, 9)]:
        g = CongruenceGroup(n, p, K)
        fits = n * (p**K - 1) ** 2 < 2**63
        assert g.dtype is (np.int64 if fits else object)
    assert CongruenceGroup(2, 3, 19).dtype is np.int64
    assert CongruenceGroup(2, 3, 20).dtype is object


def test_reduce_reads_nested_lists_as_python_ints():
    # 3^40 lies between 2^63 and 2^64; numpy reads such a mix as float64
    g = CongruenceGroup(1, 3, 40, 2)
    assert g.reduce([[2**63 + 1]]).tolist() == [[2**63 + 1]]
    g2 = CongruenceGroup(2, 3, 4)
    big = [[2**63 - 1, 2**64 - 1], [3**200 + 4, -5]]
    assert g2.reduce(big).tolist() == [[x % 81 for x in row] for row in big]
    assert g2.reduce(big).dtype == np.int64
    for bad in ([[4.0, 0], [0, 1]], [["4", 0], [0, 1]], np.array([[4.5, 0], [0, 1]])):
        with pytest.raises(ValueError, match="entries must be integers"):
            g2.reduce(bad)
    with pytest.raises(ValueError, match="expected 2x2 matrices, got shape"):
        g2.reduce([[4, 0, 0], [0, 1, 0]])


def _schoolbook(a, b, mod):
    n = len(a)
    return [
        [sum(int(a[i][t]) * int(b[t][j]) for t in range(n)) % mod for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("n,p,K,k0", [(2, 3, 5, 1), (3, 5, 4, 2), (2, 3, 30, 1)])
def test_stacked_arithmetic_matches_per_element(n, p, K, k0):
    g = CongruenceGroup(n, p, K, k0)
    rng = random.Random(f"stack{n}{p}{K}{k0}")
    a = np.stack([g.random_element(rng) for _ in range(12)])
    b = np.stack([g.random_element(rng) for _ in range(12)])
    prod = g.mul(a, b)
    assert prod.shape == (12, n, n)
    for x, y, xy in zip(a, b, prod):
        assert xy.tolist() == _schoolbook(x, y, g.modulus)
        assert np.array_equal(xy, g.mul(x, y))
    inverses = g.inv(a)
    for x, x_inv in zip(a, inverses):
        assert np.array_equal(x_inv, g.inv(x))
        assert _schoolbook(x, x_inv, g.modulus) == np.eye(n, dtype=int).tolist()
    assert g.contains(a).tolist() == [True] * 12
    roots = sqrt(g, a)
    for x, r in zip(a, roots):
        assert np.array_equal(r, sqrt(g, x))


def test_inv_rejects_outsiders():
    g = CongruenceGroup(2, 3, 4)
    with pytest.raises(ValueError, match="not in the congruence group"):
        g.inv([[2, 0], [0, 1]])


def test_enumerate_guard_names_its_limit():
    # n=2, p=3, K=4, k0=1: 27^4 = 531441 elements
    g = CongruenceGroup(2, 3, 4, 1)
    with pytest.raises(ValueError, match="531441 elements exceeds the guard of 20000"):
        g.enumerate()
    with pytest.raises(ValueError, match="the guard of 10000"):
        g.enumerate(guard=10_000)


def test_enumerate_order_matches_itertools_product():
    for n, p, K, k0 in [(2, 3, 2, 1), (1, 3, 4, 1), (2, 5, 3, 2)]:
        g = CongruenceGroup(n, p, K, k0)
        bound, scale = p ** (K - k0), p**k0
        expected = [
            (np.eye(n, dtype=np.int64) + scale * np.array(e).reshape(n, n)) % g.modulus
            for e in itertools.product(range(bound), repeat=n * n)
        ]
        assert np.array_equal(g.enumerate(), np.stack(expected))


def _h1_exhaustive_reference(group, alpha):
    """Z^1 = B^1 element by element, as a loop over the enumerated group."""
    els = list(group.enumerate())

    def key(m):
        return tuple(np.asarray(m).ravel().tolist())

    z1 = [g for g in els if np.array_equal(alpha(g), group.inv(g))]
    b1 = {key(group.mul(g, group.inv(alpha(g)))) for g in els}
    return {key(z) for z in z1} == b1, {"z1": len(z1), "b1": len(b1)}


@pytest.mark.parametrize("perm", [None, (1, 0)])
def test_h1_exhaustive_matches_per_element_reference(perm):
    g = CongruenceGroup(2, 3, 2)
    alpha = make_alpha(g, "transpose_inverse", perm=perm)
    batched = h1_alpha_trivial(g, alpha, mode="exhaustive")
    assert batched == _h1_exhaustive_reference(g, alpha)
    assert batched[0] and batched[1]["z1"] > 1


def _digit_root(a, p, K, k0):
    """The square root of a in 1 + p^k0 M_n(Z/p^K), one p-adic digit at a time
    in Python ints: x <- x + p^c Y with 2 Y = (a - x^2) / p^c mod p, as
    x Y + Y x = 2 Y mod p for x = 1 mod p."""
    n, mod = len(a), p**K
    half = pow(2, -1, p)
    x = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(k0, K):
        sq = _schoolbook(x, x, mod)
        for i in range(n):
            for j in range(n):
                rest = (int(a[i][j]) - sq[i][j]) % mod
                assert rest % p**c == 0
                x[i][j] = (x[i][j] + p**c * (rest // p**c * half % p)) % mod
    return x


@pytest.mark.parametrize(
    "n,p,K,k0,trace",
    [
        (1, 3, 4, 1, [2, 4]),
        (2, 3, 19, 1, [2, 4, 8, 16, 19]),
        (1, 3, 2, 1, [2]),  # K = 2 k0: one step
        (2, 5, 4, 2, [4]),
        (2, 3, 11, 2, [4, 8, 11]),
        (3, 5, 7, 2, [4, 7]),
        (2, 3, 2, 2, []),  # K = k0: the group is {1}
        (1, 7, 3, 3, []),
    ],
)
def test_sqrt_trace_doubles_from_k0(n, p, K, k0, trace):
    g = CongruenceGroup(n, p, K, k0)
    assert _doubling_trace(k0, K) == trace
    rng = random.Random(f"trace{n}{p}{K}{k0}")
    a = np.stack([g.random_element(rng) for _ in range(4)])
    x, levels = sqrt_with_trace(g, a)
    assert levels == trace
    assert np.array_equal(g.mul(x, x), a)
    for am, xm in zip(a, x):
        assert xm.tolist() == _digit_root(am.tolist(), p, K, k0)


def test_sqrt_at_k_equal_k0_rejects_everything_but_one():
    g = CongruenceGroup(2, 3, 2, 2)
    root, levels = sqrt_with_trace(g, g.identity())
    assert np.array_equal(root, g.identity()) and levels == []
    with pytest.raises(ValueError, match="not in the congruence group"):
        sqrt_with_trace(g, [[4, 0], [0, 1]])


@pytest.mark.parametrize(
    "n,p,K", [(2, 3, 19), (2, 3, 20), (1, 3, 39), (1, 3, 40), (4, 13, 8), (4, 13, 9)]
)
@pytest.mark.parametrize("k0", [1, 2])
def test_sqrt_matches_digit_oracle_at_the_dtype_boundary(n, p, K, k0):
    g = CongruenceGroup(n, p, K, k0)
    assert g.dtype is (np.int64 if n * (p**K - 1) ** 2 < 2**63 else object)
    rng = random.Random(f"oracle{n}{p}{K}{k0}")
    a = np.stack([g.random_element(rng) for _ in range(3)])
    roots, levels = sqrt_with_trace(g, a)
    assert roots.dtype == g.dtype
    assert levels == _doubling_trace(k0, K)
    for am, root in zip(a, roots):
        assert root.tolist() == _digit_root(am.tolist(), p, K, k0)


def _upper_band(p):
    """Least and largest K with 2^32 <= p^K <= 2^96."""
    lo = next(K for K in range(1, 200) if p**K >= 2**32)
    hi = max(K for K in range(1, 200) if p**K <= 2**96)
    return lo, hi


@st.composite
def _upper_band_requests(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 4))
    k0 = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(*_upper_band(p)))
    digit = st.integers(0, p ** (K - k0) - 1)
    rows = draw(st.lists(st.lists(digit, min_size=n, max_size=n), min_size=n, max_size=n))
    a = [[int(i == j) + p**k0 * rows[i][j] for j in range(n)] for i in range(n)]
    return n, p, K, k0, a


@settings(max_examples=40, deadline=None)
@given(request=_upper_band_requests())
def test_sqrt_upper_band_matches_digit_oracle(request):
    n, p, K, k0, a = request
    g = CongruenceGroup(n, p, K, k0)
    root, levels = sqrt_with_trace(g, a)
    assert levels == _doubling_trace(k0, K)
    assert root.tolist() == _digit_root(a, p, K, k0)


def _corrupt_product(monkeypatch, index, change):
    """Make the index-th CongruenceGroup.mul call, counted from 0, return
    change(group, product) instead of the product."""
    real = CongruenceGroup.mul
    calls = itertools.count()

    def mul(self, a, b):
        out = real(self, a, b)
        return change(self, out) if next(calls) == index else out

    monkeypatch.setattr(CongruenceGroup, "mul", mul)


def _bump_last(group, z):
    z = z.copy()
    z[-1, 0, 0] = (z[-1, 0, 0] + group.p) % group.modulus
    return z


# K = 19, k0 = 1 takes the steps to levels 2, 4, 8, 16, 19; step j's update
# z <- z (1 - e / 2) is product 3 j, then a z^2 takes products 3 j + 1 and
# 3 j + 2 (none after the last step), x = a z is product 13 and x^2 is 14
@pytest.mark.parametrize("step,level", [(0, 2), (1, 4), (2, 8), (3, 16)])
def test_sqrt_corrupted_newton_step_names_its_level(monkeypatch, step, level):
    g = CongruenceGroup(2, 3, 19)
    a = np.stack([g.random_element(random.Random(s)) for s in range(3)])
    _corrupt_product(monkeypatch, 3 * step, _bump_last)
    with pytest.raises(RuntimeError, match=rf"a z\^2 - 1 is not 0 mod p\^{level}$"):
        sqrt_with_trace(g, a)


@pytest.mark.parametrize(
    "index,change,message",
    [
        (12, _bump_last, r"root\^2 != a"),  # the last step: no residual check follows
        (13, lambda g, x: -x % g.modulus, r"root is not 1 mod p\^k0"),  # -x squares to a
    ],
)
def test_sqrt_corrupted_newton_final_checks_raise(monkeypatch, index, change, message):
    g = CongruenceGroup(2, 3, 19)
    a = np.stack([g.random_element(random.Random(s)) for s in range(3)])
    _corrupt_product(monkeypatch, index, change)
    with pytest.raises(RuntimeError, match=f"final check failed: {message}"):
        sqrt_with_trace(g, a)


def _random_element_oracle(group, rng):
    """One random element, its entries drawn row by row as a nested list."""
    bound, n = group.p ** (group.K - group.k0), group.n
    m = np.array(
        [[rng.randrange(bound) for _ in range(n)] for _ in range(n)], dtype=group.dtype
    )
    return (group.identity() + group.p**group.k0 * m) % group.modulus


@pytest.mark.parametrize(
    "group",
    [CongruenceGroup(2, 3, 4), CongruenceGroup(3, 5, 3, 2), CongruenceGroup(2, 3, 40)],
    ids=repr,
)
def test_random_elements_draw_stream_equals_single_draws(group):
    """random_elements(rng, k) makes the draws of k random_element calls,
    in their order, in int64 and object-dtype groups alike."""
    k, streams = 7, [random.Random(11) for _ in range(3)]
    stack = group.random_elements(streams[0], k)
    singles = np.stack([group.random_element(streams[1]) for _ in range(k)])
    oracle = np.stack([_random_element_oracle(group, streams[2]) for _ in range(k)])
    assert stack.shape == (k, group.n, group.n) and stack.dtype == group.dtype
    assert np.array_equal(stack, singles) and np.array_equal(stack, oracle)
    assert streams[0].getstate() == streams[1].getstate() == streams[2].getstate()
    assert np.all(group.contains(stack))


def _cayley_fixed_point_oracle(group, rng):
    """One alpha-fixed Cayley transform, drawn row by row as a nested list."""
    n, mod, scale = group.n, group.modulus, group.p**group.k0
    inv2 = pow(2, -1, mod)
    x = (
        np.array(
            [[rng.randrange(mod // scale) for _ in range(n)] for _ in range(n)],
            dtype=group.dtype,
        )
        * scale
        % mod
    )
    x = ((x - x.T[::-1, ::-1]) % mod * inv2) % mod
    one = group.identity()
    return group.mul(group.inv((one - x) % mod), (one + x) % mod)


@pytest.mark.parametrize(
    "group",
    [CongruenceGroup(2, 3, 4), CongruenceGroup(3, 3, 5), CongruenceGroup(2, 3, 40)],
    ids=repr,
)
def test_cayley_fixed_points_draw_stream_equals_single_draws(group):
    from heisweil.suites import _cayley_fixed_points

    k, streams = 6, [random.Random(5) for _ in range(3)]
    stack = _cayley_fixed_points(group, streams[0], k)
    singles = np.concatenate([_cayley_fixed_points(group, streams[1], 1) for _ in range(k)])
    oracle = np.stack([_cayley_fixed_point_oracle(group, streams[2]) for _ in range(k)])
    assert stack.shape == (k, group.n, group.n) and stack.dtype == group.dtype
    assert np.array_equal(stack, singles) and np.array_equal(stack, oracle)
    assert streams[0].getstate() == streams[1].getstate() == streams[2].getstate()
    perm = tuple(range(group.n - 1, -1, -1))
    alpha = make_alpha(group, "transpose_inverse", perm=perm)
    assert np.array_equal(alpha(stack), stack)


@pytest.mark.parametrize(
    "group",
    [CongruenceGroup(2, 3, 3), CongruenceGroup(1, 3, 40, 36), CongruenceGroup(2, 5, 2)],
    ids=repr,
)
def test_enumeration_index_inverts_enumerate(group):
    els = group.enumerate()
    index = group.enumeration_index(els)
    assert index.dtype == np.int64
    assert np.array_equal(index, np.arange(len(els)))
    assert group.enumeration_index(els[-1]) == len(els) - 1
    outsider = els[1].copy()
    outsider[0, 0] = (outsider[0, 0] + 1) % group.modulus
    with pytest.raises(ValueError, match="not in the congruence group"):
        group.enumeration_index(outsider)


def test_enumeration_index_stops_at_the_enumeration_guard():
    """Past 20 000 elements an index may leave int64 in an object-dtype
    group, so the index raises before it reads a digit, as enumerate does."""
    group = CongruenceGroup(2, 3, 4)  # 27^4 = 531 441 elements
    with pytest.raises(ValueError, match="531441 elements exceeds the guard of 20000"):
        group.enumeration_index(group.identity())


def _alpha_with_a_coboundary_sent_to_1():
    """(group, alpha, corrupted, t): transpose-inverse alpha on 1 + 3
    M_2(Z/27), and alpha with the image of one coboundary t = y alpha(y)^-1
    replaced by 1."""
    g = CongruenceGroup(2, 3, 3)
    alpha = make_alpha(g, "transpose_inverse")
    y = g.enumerate()[100]
    target = g.mul(y, g.inv(alpha(y)))

    def corrupted(m):
        out = alpha(m)
        out[np.all(m == target, axis=(-2, -1))] = g.identity()
        return out

    return g, alpha, corrupted, target


def test_h1_exhaustive_with_a_corrupted_alpha_names_an_element(monkeypatch):
    """alpha with the image of one coboundary t = y alpha(y)^-1 replaced by
    1: t is no longer a cocycle (t alpha(t) = t != 1) while it stays a
    coboundary, so the Z^1 = B^1 check fails on t, with t as its witness.
    An involutive automorphism of a group of odd order has H^1 = 1, so only
    a map that is none can fail the check; the exhaustive involution guard,
    which rejects this map (the next test), is replaced by one that accepts
    and hands back the index of every image, so the test reads the check
    alone."""

    def accepts(group, els, images):
        return group.enumeration_index(images)

    monkeypatch.setattr(prounipotent, "_involution_on_enumeration", accepts)
    g, _, corrupted, target = _alpha_with_a_coboundary_sent_to_1()
    ok, details = h1_alpha_trivial(g, corrupted, mode="exhaustive")
    assert not ok and details == {"z1": 728, "b1": 729}
    check = Check("sqrt.h1_exhaustive")
    h1_alpha_trivial(g, corrupted, mode="exhaustive", check=check)
    assert not check.passed and check.witness == target.tolist()


def test_h1_exhaustive_guard_rejects_the_corrupted_alpha(monkeypatch):
    """In exhaustive mode the involution guard reads the whole group, with
    no random draw: alpha(alpha(t)) = alpha(1) = 1 != t, so the corrupted
    alpha is refused before any identity is checked, and the true one
    passes.  The transpose, an involution of the group that reverses
    products, is refused too."""

    def no_draws(*args):
        raise AssertionError("the exhaustive guard draws no random elements")

    monkeypatch.setattr(CongruenceGroup, "random_elements", no_draws)
    g, alpha, corrupted, _ = _alpha_with_a_coboundary_sent_to_1()
    check = Check("sqrt.h1_exhaustive")
    with pytest.raises(ValueError, match="not an involutive automorphism"):
        h1_alpha_trivial(g, corrupted, mode="exhaustive", check=check)
    assert check.checks == 0
    assert h1_alpha_trivial(g, alpha, mode="exhaustive") == (True, {"z1": 729, "b1": 729})
    # the transpose is an involution of the group, but not multiplicative
    with pytest.raises(ValueError, match="not an involutive automorphism"):
        h1_alpha_trivial(g, lambda m: np.swapaxes(m, -1, -2), mode="exhaustive")


def test_h1_exhaustive_guard_refuses_an_image_outside_the_group():
    """An image off 1 mod p^k0 has no enumeration index; the guard names
    the map, not the index."""
    g, alpha, _, _ = _alpha_with_a_coboundary_sent_to_1()

    def shifted(m):
        return (alpha(m) + 1) % g.modulus

    with pytest.raises(ValueError, match="^alpha is not an involutive automorphism"):
        h1_alpha_trivial(g, shifted, mode="exhaustive")
    # an image equal to an element mod p^K but not reduced is refused too
    with pytest.raises(ValueError, match="^alpha is not an involutive automorphism"):
        h1_alpha_trivial(g, lambda m: alpha(m) + g.modulus, mode="exhaustive")


def test_h1_exhaustive_guard_agrees_with_the_per_element_guard():
    """The gathers of the exhaustive guard against _is_involution, which
    applies alpha again to the images and to the products: the same verdict
    on the true alpha, the corrupted one and the transpose, and on the true
    alpha the index of each image."""
    g, alpha, corrupted, _ = _alpha_with_a_coboundary_sent_to_1()
    els = g.enumerate()
    maps = {
        "alpha": alpha,
        "corrupted": corrupted,
        "transpose": lambda m: np.swapaxes(m, -1, -2),
    }
    verdicts = {}
    for name, f in maps.items():
        images = f(els)
        index = prounipotent._involution_on_enumeration(g, els, images)
        verdict = prounipotent._is_involution(g, f, els, images)
        assert (index is not None) == verdict, name
        verdicts[name] = verdict
    assert verdicts == {"alpha": True, "corrupted": False, "transpose": False}
    index = prounipotent._involution_on_enumeration(g, els, alpha(els))
    assert np.array_equal(els[index], alpha(els))


def test_h1_exhaustive_applies_alpha_once_and_inverts_twice(monkeypatch):
    """The whole group is mapped by alpha once, with the inverse inside it,
    and inverted once more; everything else is a gather at the indices."""
    g, alpha, _, _ = _alpha_with_a_coboundary_sent_to_1()
    calls = {"alpha": 0, "inv": 0}
    real_inv = CongruenceGroup.inv

    def inv(self, a):
        calls["inv"] += 1
        return real_inv(self, a)

    def counted_alpha(m):
        calls["alpha"] += 1
        return alpha(m)

    monkeypatch.setattr(CongruenceGroup, "inv", inv)
    assert h1_alpha_trivial(g, counted_alpha, mode="exhaustive")[0]
    assert calls == {"alpha": 1, "inv": 2}
