import itertools
import random

import numpy as np
import pytest

from heisweil.scalar import legendre_symbol
from heisweil.symplectic import (
    GuardError,
    Polarization,
    SymplecticSpace,
    bruhat_factor,
    chi_M,
    chi_P,
    codes,
    eigen_polarization,
    enumerate_antisymplectic,
    enumerate_M,
    enumerate_N,
    enumerate_P,
    enumerate_sp,
    is_antisymplectic,
    is_symplectic,
    m_element,
    mat_det,
    mat_inv,
    n_element,
    polarization_to_involution,
    sp_index,
    sp_table,
    sp_witness,
    weyl_element,
)


def apply(s, w, p: int) -> tuple[int, ...]:
    """s w mod p for one matrix s and one vector w, as a tuple."""
    return tuple(int(x) for x in np.asarray(s) @ np.asarray(w) % p)


def distinct(mats) -> int:
    """The number of distinct matrices in a stack."""
    return len({m.tobytes() for m in np.asarray(mats, dtype=np.int64)})


@pytest.fixture(scope="module")
def sp3():
    return SymplecticSpace(3, 1)


def test_form_is_antisymmetric_and_bilinear(sp3):
    vs = list(itertools.product(range(3), repeat=2))
    for a, b in itertools.product(vs[:5], vs):
        assert sp3.pair(a, b) == (-sp3.pair(b, a)) % 3
    a, b, c = (1, 2), (2, 1), (0, 1)
    lhs = sp3.pair(tuple((x + y) % 3 for x, y in zip(a, b)), c)
    assert lhs == (sp3.pair(a, c) + sp3.pair(b, c)) % 3


def test_is_symplectic_on_a_stack(sp3):
    # m^T J m = det(m) J for 2 x 2 m, and det 2 = -1 mod 3
    mats = np.array([np.eye(2), sp3.form, [[2, 0], [0, 1]], [[1, 0], [0, -1]], [[1, 1], [1, 1]]])
    assert is_symplectic(sp3, mats).tolist() == [True, True, False, False, False]
    assert is_antisymplectic(sp3, mats).tolist() == [False, False, True, True, False]
    assert is_symplectic(sp3, np.stack([mats, mats])).shape == (2, 5)


def test_is_symplectic_examples(sp3):
    assert is_symplectic(sp3, np.eye(2))
    assert is_symplectic(sp3, sp3.form)  # j itself
    assert not is_symplectic(sp3, [[2, 0], [0, 1]])  # scales the form by 2


def test_is_antisymplectic_examples(sp3):
    assert is_antisymplectic(sp3, [[1, 0], [0, -1]])
    assert not is_antisymplectic(sp3, np.eye(2))
    assert is_antisymplectic(sp3, [[0, 1], [1, 0]])


def test_dimension_mismatch_rejected(sp3):
    with pytest.raises(ValueError):
        is_symplectic(sp3, np.eye(3))


@pytest.mark.parametrize("p,expected", [(3, 24), (5, 120), (7, 336)])
def test_sp2_order(p, expected):
    space = SymplecticSpace(p, 1)
    elems = enumerate_sp(space)
    assert len(elems) == distinct(elems) == expected == p * (p * p - 1)


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_sp(SymplecticSpace(11, 1))


@pytest.mark.parametrize("p, ell", [(3, 1), (5, 1), (3, 2)])
def test_the_form_is_j_and_a_space_is_its_p_and_ell(p, ell):
    """Every space carries j = [[0, 1], [-1, 0]] (blocks of size ell), so two
    spaces are equal, and hash alike, exactly when p and ell agree."""
    space = SymplecticSpace(p, ell)
    one = np.eye(ell, dtype=np.int64)
    zero = 0 * one
    assert np.array_equal(space.form, np.block([[zero, one], [(p - 1) * one, zero]]))
    same = SymplecticSpace(p, ell)
    assert space == same and hash(space) == hash(same)
    assert space != SymplecticSpace(p + 2 if p == 3 else 3, ell)
    assert space != SymplecticSpace(p, ell + 1)
    assert is_symplectic(space, weyl_element(space))
    with pytest.raises(TypeError):
        SymplecticSpace(p, ell, form=space.form)


def test_sp_closure_random_pairs():
    space = SymplecticSpace(5, 1)
    elems = enumerate_sp(space)
    rng = random.Random(0)
    for _ in range(200):
        s, t = rng.choice(elems), rng.choice(elems)
        assert is_symplectic(space, s @ t % 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chi_M_is_order_two_homomorphism(p):
    space = SymplecticSpace(p, 1)
    ms = enumerate_M(space)
    assert len(ms) == p - 1
    values = {int(chi_M(space, m)) for m in ms}
    assert values == {1, -1}
    for m1, m2 in itertools.product(ms, repeat=2):
        assert chi_M(space, m1 @ m2 % p) == chi_M(space, m1) * chi_M(space, m2)


def test_chi_M_examples():
    sp5 = SymplecticSpace(5, 1)
    assert chi_M(sp5, m_element(sp5, [[1]])) == 1
    assert chi_M(sp5, m_element(sp5, [[2]])) == -1  # 2^2 = 4 = -1 mod 5
    sp7 = SymplecticSpace(7, 1)
    assert chi_M(sp7, m_element(sp7, [[2]])) == 1  # 2^3 = 1 mod 7


def test_chi_P_examples():
    sp5 = SymplecticSpace(5, 1)
    for b in range(5):
        assert chi_P(sp5, n_element(sp5, [[b]])) == 1
    g = m_element(sp5, [[2]]) @ n_element(sp5, [[1]]) % 5
    assert chi_P(sp5, g) == -1
    assert chi_P(sp5, m_element(sp5, [[4]])) == 1
    with pytest.raises(ValueError):
        chi_P(sp5, weyl_element(sp5))  # j does not stabilize W+


@pytest.mark.parametrize("p", [3, 5])
def test_chi_P_is_homomorphism(p):
    space = SymplecticSpace(p, 1)
    ps = enumerate_P(space)
    assert len(ps) == (p - 1) * p
    for g1, g2 in itertools.product(ps, repeat=2):
        assert chi_P(space, g1 @ g2 % p) == chi_P(space, g1) * chi_P(space, g2)


def test_M_is_stabilizer_of_standard_polarization():
    space = SymplecticSpace(3, 1)
    pol = space.standard_polarization()
    plus, minus = pol.plus_span(), pol.minus_span()
    m_set = {m.tobytes() for m in enumerate_M(space)}
    for s in enumerate_sp(space):
        stabilizes = all(apply(s, w, 3) in plus for w in plus) and all(
            apply(s, w, 3) in minus for w in minus
        )
        assert stabilizes == (s.tobytes() in m_set)


def test_eigen_polarization_diag(sp3):
    s = np.array([[1, 0], [0, -1]])
    assert is_antisymplectic(sp3, s)
    plus, minus = eigen_polarization(sp3, s)
    assert set(plus) == {(1, 0)}
    assert set(minus) == {(0, 1)}


def test_eigen_polarization_identity(sp3):
    s = np.eye(2, dtype=np.int64)
    assert is_symplectic(sp3, s)
    plus, minus = eigen_polarization(sp3, s)
    assert len(plus) == 2 and len(minus) == 0


def test_polarization_involution_roundtrip(sp3):
    pol = sp3.standard_polarization()
    s = polarization_to_involution(pol)
    assert is_antisymplectic(sp3, s) and np.array_equal(s @ s % 3, np.eye(2))
    assert np.array_equal(s, np.array([[1, 0], [0, 2]]))
    plus, minus = eigen_polarization(sp3, s)
    assert Polarization(sp3, plus, minus).plus_span() == pol.plus_span()
    swapped = Polarization(sp3, pol.minus, pol.plus)
    s2 = polarization_to_involution(swapped)
    assert np.array_equal(s2, (-s) % 3)


@pytest.mark.parametrize("p", [3, 5])
def test_every_antisymplectic_involution_gives_polarization(p):
    space = SymplecticSpace(p, 1)
    for s in enumerate_antisymplectic(space):
        assert is_antisymplectic(space, s)
        if np.array_equal(s @ s % p, np.eye(2)):
            plus, minus = eigen_polarization(space, s)
            Polarization(space, plus, minus)  # validates isotropy and spanning


def bruhat_words(space, mats) -> list[list[np.ndarray]]:
    """The Bruhat word of each matrix as its list of factors: n(x) j m(y) n(z)
    on the big cell, m(y) n(z) on the small one."""
    n = lambda x: n_element(space, [[x]])
    m = lambda y: m_element(space, [[y]])
    words = []
    for big, x, y, z in zip(*(a.tolist() for a in bruhat_factor(space, mats))):
        tail = [m(y), n(z)]
        words.append([n(x), weyl_element(space)] + tail if big else tail)
    return words


def test_bruhat_factorization_reconstructs():
    """The stacked factorization of all of Sp(W) rebuilds every element as
    the product of its word, at every p <= 7."""
    for p in (3, 5, 7):
        space = SymplecticSpace(p, 1)
        elems = enumerate_sp(space)
        for s, word in zip(elems, bruhat_words(space, elems)):
            acc = np.eye(2, dtype=np.int64)
            for factor in word:
                acc = acc @ factor % p
            assert np.array_equal(acc, s)
        # one matrix gives the same word as its row of the stack
        single = bruhat_factor(space, elems[5])
        assert [int(a) for a in single] == [int(a[5]) for a in bruhat_factor(space, elems)]


def test_sp4_f3_order():
    space = SymplecticSpace(3, 2)
    elems = enumerate_sp(space)
    assert len(elems) == 51840  # |Sp(4,3)|
    assert np.array_equal(elems[0], np.eye(4))


def test_enumerate_N_count():
    space = SymplecticSpace(3, 2)
    assert len(enumerate_N(space)) == 27  # symmetric 2x2 over F_3


def leibniz_det_mod(a, p):
    d = len(a)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= int(a[i][j])
        total += term
    return total % p


def test_mat_det_is_ad_minus_bc_on_every_2x2_mod_3():
    for a, b, c, d in itertools.product(range(3), repeat=4):
        assert mat_det([[a, b], [c, d]], 3) == (a * d - b * c) % 3


@pytest.mark.parametrize("p", [5, 7])
def test_mat_inv_and_mat_det_on_random_4x4(p):
    rng = np.random.default_rng(p)
    eye = np.eye(4, dtype=np.int64)
    invertible = 0
    for _ in range(40):
        a = rng.integers(0, p, (4, 4))
        a[rng.random((4, 4)) < 0.3] = 0  # zeros force row swaps
        det = mat_det(a, p)
        assert det == leibniz_det_mod(a, p), a
        if det:
            invertible += 1
            assert np.array_equal(mat_inv(a, p) @ a % p, eye)
            assert np.array_equal(a @ mat_inv(a, p) % p, eye)
        else:
            with pytest.raises(ZeroDivisionError, match="singular"):
                mat_inv(a, p)
    assert invertible >= 20


def test_singular_input_raises_mod_p():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert mat_det(a, 5) == 0
    with pytest.raises(ZeroDivisionError, match="singular"):
        mat_inv(a, 5)


def test_sp_table_is_built_once_per_space():
    assert sp_table(SymplecticSpace(3, 1)) is sp_table(SymplecticSpace(3, 1))
    import heisweil.weil

    assert heisweil.weil.sp_table is sp_table


@pytest.mark.parametrize("name", ["table", "inverse_of", "matrices"])
def test_sp_table_arrays_are_read_only(name):
    """The table is shared by every caller, so none of them can write to it."""
    array = getattr(sp_table(SymplecticSpace(3, 1)), name)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = array[1]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sp_table_names_are_the_enumeration(p):
    space = SymplecticSpace(p, 1)
    tg = sp_table(space)
    assert tg.matrices is enumerate_sp(space)
    assert tg.names == tuple(sp_witness(s) for s in enumerate_sp(space))
    assert tg.names[0] == {"matrix": [[1, 0], [0, 1]], "sign": 1}
    assert np.array_equal(tg.matrices, np.array([s["matrix"] for s in tg.names]))
    # the table is the group law on the matrices
    rng = random.Random(p)
    for _ in range(50):
        i, j = rng.randrange(tg.order), rng.randrange(tg.order)
        product = tg.matrices[i] @ tg.matrices[j] % p
        assert np.array_equal(tg.matrices[tg.mul(i, j)], product)
    assert sp_index(space, tg.matrices).tolist() == list(range(tg.order))


# -- the stacked Sp(W) core --------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ell1_stack_is_the_det_one_product_loop_in_order(p):
    """The identity, then every other (a, b, c, d) of det 1 in the order of
    itertools.product: the order sp_table, its generators and witness
    indices rest on."""
    loop = [[[1, 0], [0, 1]]] + [
        [[a, b], [c, d]]
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p == 1 and (a, b, c, d) != (1, 0, 0, 1)
    ]
    elems = enumerate_sp(SymplecticSpace(p, 1))
    assert elems.dtype == np.int64 and elems.tolist() == loop


def test_ell2_breadth_first_search_is_closed_under_its_generators():
    """51 840 distinct symplectic matrices; every product with one of the
    six generators is found again by its code, in one stacked product."""
    space = SymplecticSpace(3, 2)
    elems = enumerate_sp(space)
    assert elems.shape == (51840, 4, 4)
    assert is_symplectic(space, elems).all()
    found = np.sort(codes(3, elems))
    assert (np.diff(found) > 0).all()  # distinct
    gens = np.concatenate(
        [
            n_element(space, [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]]),
            weyl_element(space)[None],
            m_element(space, [[[1, 1], [0, 1]], [[2, 0], [0, 1]]]),
        ]
    )
    products = codes(3, elems[:, None] @ gens % 3).ravel()
    at = np.searchsorted(found, products)
    assert (at < len(found)).all() and (found[at] == products).all()


def test_the_stack_is_read_only_and_built_once():
    space = SymplecticSpace(5, 1)
    assert enumerate_sp(space) is enumerate_sp(SymplecticSpace(5, 1))
    with pytest.raises(ValueError, match="read-only"):
        enumerate_sp(space)[0, 0, 0] = 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stacked_characters_are_the_legendre_symbol_and_homomorphisms(p):
    """chi_M and chi_P on the stacks of M and P: the Legendre symbol of the
    upper-left entry, element by element, and multiplicative on every pair."""
    space = SymplecticSpace(p, 1)
    for stack, chi in ((enumerate_M(space), chi_M), (enumerate_P(space), chi_P)):
        values = chi(space, stack)
        assert values.shape == (len(stack),)
        assert values.tolist() == [legendre_symbol(int(s[0, 0]), p) for s in stack]
        assert [int(chi(space, s)) for s in stack] == values.tolist()
        pairs = chi(space, stack[:, None] @ stack[None] % p)
        assert np.array_equal(pairs, values[:, None] * values[None])


def test_stacked_characters_reject_a_stack_with_one_outsider():
    space = SymplecticSpace(5, 1)
    levi, parabolic = enumerate_M(space), enumerate_P(space)
    with pytest.raises(ValueError, match="Levi"):
        chi_M(space, np.concatenate([levi, parabolic[1:2]]))  # n(1) is not in M
    with pytest.raises(ValueError, match="stabilize"):
        chi_P(space, np.concatenate([parabolic, weyl_element(space)[None]]))


def test_stacked_constructors_match_one_at_a_time():
    space = SymplecticSpace(3, 2)
    ys = [[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]]]
    bs = [[[1, 0], [0, 0]], [[0, 1], [1, 2]]]
    assert np.array_equal(m_element(space, ys), np.stack([m_element(space, y) for y in ys]))
    assert np.array_equal(n_element(space, bs), np.stack([n_element(space, b) for b in bs]))
    assert is_symplectic(space, enumerate_P(space)).all()
    assert len(enumerate_M(space)) == 48  # |GL(2, 3)|
    with pytest.raises(ValueError, match="symmetric"):
        n_element(space, [[[0, 1], [0, 0]]])


def test_sp_index_rejects_a_matrix_outside_sp():
    space = SymplecticSpace(3, 1)
    assert int(sp_index(space, np.eye(2, dtype=np.int64))) == 0
    with pytest.raises(ValueError, match="not in Sp"):
        sp_index(space, [[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="dimension"):
        sp_index(space, np.eye(3))
