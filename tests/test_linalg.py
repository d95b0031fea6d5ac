import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elimination_oracle as oracle
import heisweil.linalg as linalg
import weil_oracle
from heisweil.heisenberg import HeisenbergGroup
from heisweil.linalg import (
    CycMatrix,
    batch_from_matrices,
    packed_product_table,
    trace_table,
    verify_multiplication_table,
)
from heisweil.reps import heisenberg_rep
from heisweil.scalar import CycNumber, context, root_of_unity
from heisweil.symplectic import SymplecticSpace, enumerate_sp
from heisweil.weil import sp_table, weil_lift


def schoolbook(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    """The reference product: one CycNumber multiply-add per term."""
    zero = CycNumber.zero(a.N)
    out = []
    for ra in a.rows:
        row = []
        for cb in zip(*b.rows):
            acc = zero
            for x, y in zip(ra, cb):
                acc = acc + x * y
            row.append(acc)
        out.append(row)
    return CycMatrix(a.N, out)


@st.composite
def cyc_matrices(draw, n, nrows, ncols):
    phi = context(n).phi
    entry = st.builds(
        lambda nums, den: CycNumber(n, nums, den),
        st.lists(st.integers(-9, 9), min_size=phi, max_size=phi),
        st.integers(1, 6),
    )
    return CycMatrix(
        n, [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    )


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """Record the dtype of every packed kernel call."""
    seen = []
    kernel = linalg._packed_products

    def spy(left, right, coords, out=None):
        seen.append(left.dtype)
        return kernel(left, right, coords, out=out)

    monkeypatch.setattr(linalg, "_packed_products", spy)
    return seen


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_packed_matmul_equals_schoolbook(data):
    n = data.draw(st.sampled_from([12, 20, 28]))
    r, k, c = (data.draw(st.integers(1, 7)) for _ in range(3))
    a = data.draw(cyc_matrices(n, r, k))
    b = data.draw(cyc_matrices(n, k, c))
    prod = a @ b
    ref = schoolbook(a, b)
    assert prod == ref
    assert hash(prod) == hash(ref)
    assert prod.to_json() == ref.to_json()

    # the other operations against an entrywise CycNumber reference
    a2 = data.draw(cyc_matrices(n, r, k))
    phi = context(n).phi
    nums = data.draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    c = CycNumber(n, [nums[0], data.draw(st.integers(1, 9))] + nums[2:], 5)
    zero = CycNumber.zero(n)
    assert a - a2 == CycMatrix(
        n, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, a2.rows)]
    )
    assert a.scale(c) == CycMatrix(n, [[c * x for x in row] for row in a.rows])
    assert a.transpose() == CycMatrix(n, [list(col) for col in zip(*a.rows)])
    assert a.trace() == sum((a.rows[i][i] for i in range(min(r, k))), start=zero)

    # entries read out one by one, and serialized one by one
    for m in (a, prod, a - a2, a.scale(c)):
        rows = m.rows
        assert m.to_json() == [[e.to_json() for e in row] for row in rows]
        assert all(m[i, j] == rows[i][j] for i in range(m.nrows) for j in range(m.ncols))

    # (num, den) is canonical: a common factor is reduced away
    factor = data.draw(st.integers(2, 30))
    scaled = CycMatrix._packed(n, prod.num * factor, prod.den * factor)
    assert scaled == prod
    assert hash(scaled) == hash(prod)

    # numerators past 2^63 are Python ints, and come back to int64 when they fit
    big = 2**70
    high = CycMatrix(n, [[e * big for e in row] for row in a.rows])
    assert high.num.dtype == (object if a.num.any() else np.int64)
    below = CycMatrix(n, [[e * (big - 1) for e in row] for row in a.rows])
    for back, expected in (
        (high @ b.scale(Fraction(1, big)), ref),
        (high - below, a),
    ):
        rebuilt = CycMatrix(n, expected.rows)
        assert back.num.dtype == np.int64
        assert back == rebuilt
        assert hash(back) == hash(rebuilt)


@pytest.mark.parametrize("n", [12, 20, 28])
def test_large_numerators_use_python_ints(n, kernel_dtypes):
    rng = np.random.default_rng(n)
    phi = context(n).phi

    def big(dim):
        return CycMatrix(
            n,
            [
                [
                    CycNumber(
                        n, [int(x) + 2**27 for x in rng.integers(0, 2**20, phi)], 1
                    )
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ],
        )

    a, b = big(7), big(7)
    assert a @ b == schoolbook(a, b)
    assert kernel_dtypes == [object]
    # far beyond int64 too
    huge = CycMatrix(n, [[e * 2**70 for e in row] for row in a.rows])
    assert huge @ b == schoolbook(huge, b)


def test_small_numerators_use_float32(kernel_dtypes):
    a = CycMatrix(12, [[1, 2], [3, 4]])
    assert a @ a == CycMatrix(12, [[7, 10], [15, 22]])
    assert kernel_dtypes == [np.float32]


@pytest.mark.parametrize(
    "bound,dtype",
    [
        (2**24 - 1, np.float32),
        (2**24, np.float64),
        (2**53 - 1, np.float64),
        (2**53, object),
        (2**80, object),
    ],
)
def test_exact_dtype_tier_edges(bound, dtype):
    assert linalg._exact_dtype(bound) is dtype
    # the same edges through the product bound: one 1 x 1 factor over Q
    assert linalg._exact_dtype(linalg._product_bound(1, 1, bound, 1)) is dtype


def test_shape_mismatch_names_both_shapes():
    a = CycMatrix(12, [[0] * 3] * 2)
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        a @ a
    for op in (oracle.inverse, oracle.det):
        with pytest.raises(ValueError, match="non-square 2x3"):
            op(a)


def table_failures(num, den, table, n) -> list[tuple[int, int]]:
    """The failing (s, t) of the whole table, in row-major order."""
    ok = verify_multiplication_table(num, den, table, n, np.arange(len(table)))
    return [tuple(f) for f in np.argwhere(~ok).tolist()]


@pytest.fixture(scope="module")
def packed_lift3():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model="minus"))
    tg = sp_table(lift.space)
    return lift.num, lift.den, tg.table, lift.base.conductor


def test_verify_table_passes_on_the_lift(packed_lift3, kernel_dtypes):
    num, den, table, n = packed_lift3
    assert table_failures(num, den, table, n) == []
    assert set(kernel_dtypes) == {np.dtype(np.float32)}


def test_verify_table_falls_back_when_the_bound_fails(packed_lift3, kernel_dtypes):
    num, den, table, n = packed_lift3
    scale = 2**30
    assert table_failures(num * scale, den * scale, table, n) == []
    assert len(kernel_dtypes) == len(table)
    assert set(kernel_dtypes) == {np.dtype(object)}


def test_verify_table_reports_a_corrupted_numerator(packed_lift3):
    num, den, table, n = packed_lift3
    bad = num.copy()
    bad[5, 0, 1, 0] += 1
    failures = table_failures(bad, den, table, n)
    assert failures
    assert all(5 in (s, t, table[s, t]) for s, t in failures)


@pytest.mark.parametrize(
    "den,dtype", [(2**24 - 1, np.float32), (2**24, np.float64)], ids=["below", "at"]
)
def test_verify_table_tier_covers_the_expected_side(den, dtype, kernel_dtypes):
    """The products of {0, N} over Q, N = [[0, 1], [0, 0]] / den, have the
    bound 2, but the expected side num * den reaches den: it alone sets the
    tier.  A 1 x 1 family {1 / den} fails its one identity at either tier."""
    zero_and_n = np.zeros((2, 2, 2, 1), dtype=np.int64)
    zero_and_n[1, 0, 1, 0] = 1
    assert table_failures(zero_and_n, den, np.zeros((2, 2), int), 1) == []
    assert set(kernel_dtypes) == {np.dtype(dtype)}
    del kernel_dtypes[:]
    one = np.ones((1, 1, 1, 1), dtype=np.int64)
    assert table_failures(one, den, np.zeros((1, 1), int), 1) == [(0, 0)]
    assert kernel_dtypes == [dtype]


def test_verify_table_rejects_a_table_out_of_range(packed_lift3):
    num, den, table, n = packed_lift3
    for bad in (table[:-1], np.where(table == 3, len(table), table), -table):
        with pytest.raises(ValueError, match="not a multiplication table of 24"):
            verify_multiplication_table(num, den, bad, n, np.arange(24))


def test_verify_table_p7_corrupted_family_matches_per_pair_products(kernel_dtypes):
    """One numerator of the p = 7 minus lift off by one: the failing pairs
    reported on every affected row are those a per-pair ``@`` finds."""
    g = HeisenbergGroup(SymplecticSpace(7, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model="minus"))
    tg = sp_table(lift.space)
    n, table = lift.base.conductor, tg.table
    num, den = lift.num, lift.den
    bad_s = 101
    bad = num.copy()
    bad[bad_s, 2, 4, 3] += 1
    del kernel_dtypes[:]
    count = len(table)
    failures = table_failures(bad, den, table, n)
    assert set(kernel_dtypes) == {np.dtype(np.float32)}
    assert len(kernel_dtypes) == count  # every row ran
    assert all(bad_s in (s, t, table[s, t]) for s, t in failures)
    mats = [CycMatrix._packed(n, m, den) for m in bad]
    inverse = int(np.flatnonzero(table[bad_s] == 0)[0])
    # rows with t = bad_s, t = s^-1 bad_s or s = bad_s among them
    for s in (0, 1, bad_s, inverse, 335):
        reference = [
            (s, t) for t in range(count) if mats[s] @ mats[t] != mats[table[s, t]]
        ]
        assert bool(reference) == (s != 0)  # the identity row holds
        assert [f for f in failures if f[0] == s] == reference


def full_table_product(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reference: sum_{l, u, v} a[i, l, u] b[l, j, v] T[u, v, w] over
    the whole product table T, on Python ints."""
    t = context(n).product_table.astype(object)
    folded = np.tensordot(a.astype(object), t, axes=([2], [0]))  # (i, l, v, w)
    return np.tensordot(folded, b.astype(object), axes=([1, 2], [0, 2])).transpose(0, 2, 1)


SUPPORTS = {
    "empty": lambda phi: [],
    "single": lambda phi: [phi - 1],
    "rational": lambda phi: [0],
    "even": lambda phi: list(range(0, phi, 2)),
    "full": lambda phi: list(range(phi)),
}


@pytest.mark.parametrize(
    "bound,dtype",
    [(3, np.float32), (2**10, np.float64), (2**30, object)],
    ids=["float32", "float64", "object"],
)
def test_restricted_product_equals_the_full_table_product(bound, dtype, kernel_dtypes):
    """Every pair of supports, on each dtype tier: the product on the
    coordinates in use equals the product over the whole table, and the tier
    is the one the whole-table bound picks."""
    rng = np.random.default_rng(bound)
    for n, (r, k, c) in ((12, (2, 3, 2)), (28, (3, 2, 4))):
        phi = context(n).phi
        for (na, sa), (nb, sb) in itertools.product(SUPPORTS.items(), repeat=2):
            a = np.zeros((r, k, phi), dtype=np.int64)
            b = np.zeros((k, c, phi), dtype=np.int64)
            a[..., sa(phi)] = rng.integers(-bound, bound + 1, (r, k, len(sa(phi))))
            b[..., sb(phi)] = rng.integers(-bound, bound + 1, (k, c, len(sb(phi))))
            # the largest magnitude on one used coordinate sets the tier
            if sa(phi):
                a[0, 0, sa(phi)[0]] = bound
            if sb(phi):
                b[0, 0, sb(phi)[0]] = bound
            del kernel_dtypes[:]
            prod = linalg._products(n, a, b)
            assert prod.shape == (r, c, phi)
            assert prod.tolist() == full_table_product(n, a, b).tolist(), (n, na, nb)
            expected = linalg._exact_dtype(
                linalg._product_bound(n, k, linalg._max_abs(a), linalg._max_abs(b))
            )
            assert kernel_dtypes == [expected]
            if sa(phi) and sb(phi):
                assert expected is dtype
            if dtype is object:  # numerators past int64 are object arrays
                huge = a.astype(object) * 2**70
                assert linalg._products(n, huge, b).tolist() == (
                    full_table_product(n, huge, b).tolist()
                )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_even_coordinates_of_q_zeta_4p_multiply_as_q_zeta_2p(p):
    """Q(zeta_2p) = Q(zeta_p) is spanned by the even power-basis coordinates
    of Q(zeta_4p): its table is the even sub-table, and even times even has
    no odd output, so the restricted table of two even supports is it."""
    full, half = context(4 * p).product_table, context(2 * p).product_table
    assert np.array_equal(half, full[::2, ::2, ::2])
    assert not full[::2, ::2, 1::2].any()
    even = (np.arange(context(4 * p).phi) % 2 == 0).tobytes()
    us, vs, ws, table = linalg._restricted_table(4 * p, even, even, np.float32)
    assert us.tolist() == vs.tolist() == ws.tolist() == list(range(0, len(full), 2))
    assert np.array_equal(table, half.reshape(len(us), -1))


def test_verify_table_p7_odd_coordinate_matches_per_pair_products(kernel_dtypes):
    """One p = 7 image gains a nonzero odd coordinate, which the even-only
    family never uses: the table widens to it, and the failing pairs are
    those a per-pair ``@`` finds."""
    g = HeisenbergGroup(SymplecticSpace(7, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model="plus"))
    tg = sp_table(lift.space)
    n, table = lift.base.conductor, tg.table
    num, den = lift.num, lift.den
    assert not num[..., 1::2].any()
    bad_s = 57
    bad = num.copy()
    bad[bad_s, 3, 1, 5] = 1
    count = len(table)
    del kernel_dtypes[:]
    failures = table_failures(bad, den, table, n)
    assert len(kernel_dtypes) == count
    mats = [CycMatrix._packed(n, m, den) for m in bad]
    inverse = int(np.flatnonzero(table[bad_s] == 0)[0])
    for s in (0, 2, bad_s, inverse):
        reference = [
            (s, t) for t in range(count) if mats[s] @ mats[t] != mats[table[s, t]]
        ]
        assert bool(reference) == (s != 0)
        assert [f for f in failures if f[0] == s] == reference


@pytest.fixture(
    scope="module", params=[(3, "minus"), (3, "plus"), (5, "minus"), (5, "plus")]
)
def lift_families(request):
    """The Sp images and the H images of the lift, in sp_table and H order."""
    p, model = request.param
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model=model))
    assert lift.sp_elements is sp_table(lift.space).matrices
    sps = [lift.image(i) for i in range(len(lift.num))]
    return lift, sps, [lift.base.image(h) for h in g.elements()]


def test_trace_table_equals_per_entry_traces(lift_families, kernel_dtypes):
    lift, sps, hs = lift_families
    n = lift.base.conductor
    traces = trace_table(n, (lift.num, lift.den))
    assert (traces.nrows, traces.ncols) == (1, len(sps))
    assert [traces[0, a] for a in range(len(sps))] == [m.trace() for m in sps]
    table = trace_table(n, batch_from_matrices(hs, n), (lift.num, lift.den))
    assert (table.nrows, table.ncols) == (len(sps), len(hs))
    for a, b in itertools.product(range(len(sps)), range(len(hs))):
        assert table[a, b] == (sps[a] @ hs[b]).trace()
    assert kernel_dtypes[:2] == [np.float32, np.float32]


def test_trace_table_beyond_float64_runs_on_python_ints(kernel_dtypes):
    rng = np.random.default_rng(5)
    n, phi = 20, context(20).phi

    def family(count, nrows, ncols):
        """int64 numerators near 2^30, so products pass 2^53."""
        return [
            CycMatrix(
                n,
                [
                    [
                        CycNumber(
                            n,
                            [int(x) for x in rng.integers(-2**30, 2**30, phi)],
                            int(rng.integers(1, 7)),
                        )
                        for _ in range(ncols)
                    ]
                    for _ in range(nrows)
                ],
            )
            for _ in range(count)
        ]

    left, right = family(4, 2, 3), family(5, 3, 2)
    assert {m.num.dtype for m in left + right} == {np.dtype(np.int64)}
    table = trace_table(n, batch_from_matrices(right, n), batch_from_matrices(left, n))
    assert kernel_dtypes == [object]
    assert table.num.dtype == object
    for a, b in itertools.product(range(4), range(5)):
        assert table[a, b] == (left[a] @ right[b]).trace()
    squares = [m @ r for m, r in zip(left, right)]
    del kernel_dtypes[:]
    traces = trace_table(n, batch_from_matrices(squares, n))
    assert kernel_dtypes == [object]
    assert [traces[0, a] for a in range(4)] == [m.trace() for m in squares]


def fraction_family(rng, n, count, nrows, ncols, bound):
    """Matrices whose entries have numerators below ``bound`` and
    denominators 2..6, so the stacked family has a denominator > 1."""
    phi = context(n).phi
    return [
        CycMatrix(
            n,
            [
                [
                    CycNumber(
                        n,
                        [int(x) for x in rng.integers(-bound, bound, phi)],
                        int(rng.integers(2, 7)),
                    )
                    for _ in range(ncols)
                ]
                for _ in range(nrows)
            ],
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "bound,dtype",
    [(4, np.float32), (2**10, np.float64), (2**30, object)],
    ids=["float32", "float64", "object"],
)
def test_product_table_equals_schoolbook(bound, dtype, kernel_dtypes):
    rng = np.random.default_rng(bound)
    for n, (count_l, count_r), (d, e, c) in (
        (12, (1, 5), (3, 3, 3)),
        (20, (3, 2), (2, 4, 3)),
        (28, (2, 3), (4, 1, 2)),
    ):
        del kernel_dtypes[:]
        left = fraction_family(rng, n, count_l, d, e, bound)
        right = fraction_family(rng, n, count_r, e, c, bound)
        assert max(m.den for m in left + right) > 1
        (lnum, lden), (rnum, rden) = (batch_from_matrices(f, n) for f in (left, right))
        nums = packed_product_table(n, lnum, rnum)
        assert kernel_dtypes == [dtype]
        assert nums.shape[:2] == (count_l, count_r)
        for a, b in itertools.product(range(count_l), range(count_r)):
            ref = schoolbook(left[a], right[b])
            entry = CycMatrix._packed(n, nums[a, b], lden * rden)
            assert entry == ref
            assert entry.den == ref.den
            assert entry.to_json() == ref.to_json()


def test_product_table_rejects_mismatched_families():
    """A shape mismatch fails in the table, a conductor mismatch when the
    family is stacked."""
    a = CycMatrix(12, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        packed_product_table(12, a.num[None], a.num[None])
    with pytest.raises(ValueError, match="conductor mismatch: 12 vs 20"):
        right = [a.transpose(), CycMatrix(20, [[1, 2], [3, 4], [5, 6]])]
        packed_product_table(12, a.num[None], batch_from_matrices(right, 12)[0])


def test_root_multiples_equal_per_matrix_scales(kernel_dtypes):
    """zeta_k^j M_i for every j < k and every M_i of a family with a
    denominator, from one kernel call, against one ``scale`` per pair."""
    rng = np.random.default_rng(7)
    for n, k in ((12, 3), (20, 5), (28, 4)):
        del kernel_dtypes[:]
        mats = fraction_family(rng, n, 3, 2, 3, 50)
        num, den = batch_from_matrices(mats, n)
        out = linalg.root_multiples(n, k, num)
        assert len(kernel_dtypes) == 1 and out.shape == (k, *num.shape)
        for j, i in itertools.product(range(k), range(len(mats))):
            scaled = mats[i].scale(root_of_unity(n, (n // k) * j))
            assert CycMatrix._packed(n, out[j, i], den) == scaled
    with pytest.raises(ValueError, match="no primitive 7-th root"):
        linalg.root_multiples(12, 7, num)


@pytest.mark.parametrize(
    "p,model",
    [(3, "minus"), (3, "plus"), (5, "minus"), (5, "plus"), (7, "minus"), (7, "plus")],
)
def test_weil_lift_equals_the_bruhat_word_products(p, model, monkeypatch):
    """At every central character: the stacked lift is the one matrix at a
    time reference of :mod:`weil_oracle`, image by image and as a stack over
    its lowest common denominator, with the same normalization."""
    group = HeisenbergGroup(SymplecticSpace(p, 1))
    for zeta in range(1, p):
        tau = heisenberg_rep(group, zeta, model=model)
        calls = []
        matmul = CycMatrix.__matmul__

        def counted(a, b):
            calls.append(None)
            return matmul(a, b)

        monkeypatch.setattr(CycMatrix, "__matmul__", counted)
        lift = weil_lift(tau)
        # the powers of F and j^-1 only: O(1), not O(p) or O(|Sp|)
        assert len(calls) <= 6
        monkeypatch.undo()
        normalization, images = weil_oracle.lift_images(tau)
        assert lift.normalization == normalization
        assert np.array_equal(lift.sp_elements, enumerate_sp(lift.space))
        assert len(lift.num) == len(images)
        for s, image in enumerate(images):
            assert lift.image(s) == image, (zeta, s)
        num, den = batch_from_matrices(images, tau.conductor)
        assert lift.den == den and np.array_equal(lift.num, num)
        assert lift.num.dtype == num.dtype


@pytest.mark.parametrize("zeta", [1, 2])
def test_weil_lift_at_ell_2_equals_the_generator_operators(zeta):
    """The ell = 2 generator images are the reference operators, stacked
    over the denominator of j."""
    tau = heisenberg_rep(HeisenbergGroup(SymplecticSpace(3, 2)), zeta, model="plus")
    lift = weil_lift(tau)
    ((c, j),) = weil_oracle.normalization(tau)
    els = lift.sp_elements
    images = [weil_oracle.levi_image(tau, m[:2, :2]) for m in els[:2]]
    images += [
        weil_oracle.quadratic_phase_image(tau, m[:2, 2:], lower=False) for m in els[2:6]
    ]
    num, den = batch_from_matrices(images + [j], tau.conductor)
    assert lift.normalization == c
    assert lift.den == den and np.array_equal(lift.num, num)


def random_matrix(rng, n, nrows, ncols, zero_chance=0.4):
    """Entries over Q(zeta_n) with many zeros, so elimination must swap rows."""
    phi = context(n).phi

    def entry():
        if rng.random() < zero_chance:
            return CycNumber.zero(n)
        return CycNumber(n, [rng.randint(-4, 4) for _ in range(phi)], rng.randint(1, 3))

    return CycMatrix(n, [[entry() for _ in range(ncols)] for _ in range(nrows)])


def leibniz_det(rows, one):
    """Sum over permutations of sign * product of entries: the reference."""
    d = len(rows)
    total = one - one
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("n", [12, 28])
def test_det_matches_leibniz_and_is_multiplicative(n):
    rng = random.Random(n)
    one = CycNumber.one(n)
    swaps = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    mats = [random_matrix(rng, n, 3, 3) for _ in range(12)]
    mats.append(CycMatrix(n, swaps))
    for a in mats:
        assert oracle.det(a) == leibniz_det(a.rows, one), a.rows
    assert oracle.det(mats[-1]) == one  # a 3-cycle is even
    assert oracle.det(CycMatrix(n, [[0, 1], [1, 0]])) == -one
    for a, b in zip(mats, mats[1:]):
        assert oracle.det(a @ b) == oracle.det(a) * oracle.det(b)


@pytest.mark.parametrize("n", [12, 28])
def test_inverse_is_two_sided(n):
    rng = random.Random(1000 + n)
    eye = CycMatrix.identity(n, 4)
    tried = 0
    for _ in range(10):
        a = random_matrix(rng, n, 4, 4)
        if oracle.det(a).is_zero():
            continue
        tried += 1
        assert a @ oracle.inverse(a) == eye
        assert oracle.inverse(a) @ a == eye
    assert tried >= 5


def test_singular_matrix_has_det_zero_and_no_inverse():
    rng = random.Random(7)
    a = random_matrix(rng, 12, 2, 3, zero_chance=0.0)
    c = CycNumber(12, [1, 2, 0, -1], 3)
    third = [x + c * y for x, y in zip(*a.rows)]
    s = CycMatrix(12, a.rows + [third])
    assert oracle.det(s) == CycNumber.zero(12)
    with pytest.raises(ZeroDivisionError, match="singular"):
        oracle.inverse(s)


def test_zero_by_zero_det_is_one():
    assert oracle.det(CycMatrix(12, [])) == CycNumber.one(12)


@pytest.mark.parametrize("n,shape", [(12, (3, 5)), (28, (4, 4)), (12, (5, 3))])
def test_nullspace_is_the_kernel(n, shape):
    rng = random.Random(sum(shape) + n)
    a = random_matrix(rng, n, *shape)
    # a rank-deficient stack: repeat a combination of the first two rows
    rows = a.rows + [[x - y * 2 for x, y in zip(a.rows[0], a.rows[1])]]
    ncols = shape[1]
    basis = oracle.nullspace(rows, n, ncols)
    zero = CycNumber.zero(n)
    for v in basis:
        assert any(not x.is_zero() for x in v)
        for row in rows:
            assert sum((x * y for x, y in zip(row, v)), start=zero) == zero
    rank = oracle.row_space_rank(rows)
    assert rank + len(basis) == ncols
    assert oracle.row_space_rank([list(v) for v in basis]) == len(basis)


def test_package_has_no_elimination_over_the_field():
    for name in ("_rref", "nullspace", "row_space_rank", "same_row_space"):
        assert not hasattr(linalg, name), name
    for name in ("inverse", "det"):
        assert not hasattr(CycMatrix, name), name


@pytest.mark.parametrize("n", [1, 12, 28])
def test_from_roots_equals_the_entrywise_matrix(n):
    rng = random.Random(n)
    for shape, cmax in [((3, 4), 3), ((2, 2), 2**70), ((3, 0), 1)]:
        r, c = shape
        exps = [[rng.randrange(-2 * n, 2 * n) for _ in range(c)] for _ in range(r)]
        coeffs = [[rng.randint(-cmax, cmax) for _ in range(c)] for _ in range(r)]
        expected = CycMatrix(
            n,
            [
                [k * root_of_unity(n, e) for e, k in zip(er, kr)]
                for er, kr in zip(exps, coeffs)
            ],
        )
        dtype = object if cmax > 2**63 else np.int64
        got = CycMatrix.from_roots(
            n,
            np.array(exps, dtype=np.int64).reshape(shape),
            np.array(coeffs, dtype=dtype).reshape(shape),
        )
        assert got == expected and hash(got) == hash(expected)
        assert got.num.dtype == dtype


@pytest.mark.parametrize("n", [12, 28])
def test_conj_equals_entrywise_conj_on_both_sides_of_the_int64_bound(n):
    """conj runs in int64 while phi * max|num| * max|sigma| < 2^63 and on
    Python ints past it; on both sides, and on object storage, it equals
    CycNumber.conj on every entry.  Every |sigma| entry is 1 at these n."""
    ctx, rng = context(n), random.Random(n)
    sigma = ctx.power_table[-np.arange(ctx.phi) % n]
    limit = 2**63 // (ctx.phi * int(np.abs(sigma).max()))
    for top in (7, limit - 1, limit, 2**62, 2**70):
        num = np.array(
            [rng.randint(-top, top) for _ in range(2 * 3 * ctx.phi)], dtype=object
        ).reshape(2, 3, ctx.phi)
        num[0, 0] = top  # the maximum is reached
        m = CycMatrix._packed(n, num, 1)
        assert m.num.dtype == (np.int64 if top < 2**63 else object)
        expected = CycMatrix(n, [[e.conj() for e in row] for row in m.rows])
        assert m.conj() == expected
