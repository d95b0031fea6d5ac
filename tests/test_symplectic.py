import itertools
import random

import numpy as np
import pytest

from heisweil.symplectic import (
    GuardError,
    Polarization,
    SymplecticSpace,
    SpElement,
    bruhat_factor,
    chi_M,
    chi_P,
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
    sp_table,
    weyl_element,
)


@pytest.fixture(scope="module")
def sp3():
    return SymplecticSpace(3, 1)


def test_form_is_antisymmetric_and_bilinear(sp3):
    vs = sp3.vectors()
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
    assert len(elems) == len(set(elems)) == expected == p * (p * p - 1)


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_sp(SymplecticSpace(11, 1))


def test_enumeration_uses_a_custom_form_at_ell1():
    space = SymplecticSpace(3, 1, form=[[0, 2], [1, 0]])
    elems = enumerate_sp(space)
    assert len(set(elems)) == 24
    assert all(s.space == space for s in elems)
    assert all(is_symplectic(space, s.matrix) for s in elems)


def test_enumeration_rejects_a_custom_form_at_ell2():
    form = np.zeros((4, 4), dtype=np.int64)
    form[0, 1], form[1, 0], form[2, 3], form[3, 2] = 1, -1, 1, -1
    with pytest.raises(GuardError, match="standard form"):
        enumerate_sp(SymplecticSpace(3, 2, form=form))


def test_sp_closure_random_pairs():
    space = SymplecticSpace(5, 1)
    elems = enumerate_sp(space)
    rng = random.Random(0)
    for _ in range(200):
        s, t = rng.choice(elems), rng.choice(elems)
        assert is_symplectic(space, (s * t).matrix)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chi_M_is_order_two_homomorphism(p):
    space = SymplecticSpace(p, 1)
    ms = enumerate_M(space)
    assert len(ms) == p - 1
    values = {chi_M(space, m) for m in ms}
    assert values == {1, -1}
    for m1, m2 in itertools.product(ms, repeat=2):
        assert chi_M(space, m1 * m2) == chi_M(space, m1) * chi_M(space, m2)


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
    g = m_element(sp5, [[2]]) * n_element(sp5, [[1]])
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
        assert chi_P(space, g1 * g2) == chi_P(space, g1) * chi_P(space, g2)


def test_M_is_stabilizer_of_standard_polarization():
    space = SymplecticSpace(3, 1)
    pol = space.standard_polarization()
    plus, minus = pol.plus_span(), pol.minus_span()
    m_set = set(enumerate_M(space))
    for s in enumerate_sp(space):
        stabilizes = all(s.apply(w) in plus for w in plus) and all(
            s.apply(w) in minus for w in minus
        )
        assert stabilizes == (s in m_set)


def test_eigen_polarization_diag(sp3):
    s = SpElement(sp3, [[1, 0], [0, -1]], -1)
    plus, minus = eigen_polarization(s)
    assert set(plus) == {(1, 0)}
    assert set(minus) == {(0, 1)}


def test_eigen_polarization_identity(sp3):
    s = SpElement(sp3, np.eye(2), 1)
    plus, minus = eigen_polarization(s)
    assert len(plus) == 2 and len(minus) == 0


def test_polarization_involution_roundtrip(sp3):
    pol = sp3.standard_polarization()
    s = polarization_to_involution(pol)
    assert s.sign == -1 and (s * s).is_identity()
    assert np.array_equal(s.matrix, np.array([[1, 0], [0, 2]]))
    plus, minus = eigen_polarization(s)
    assert Polarization(sp3, plus, minus).plus_span() == pol.plus_span()
    swapped = Polarization(sp3, pol.minus, pol.plus)
    s2 = polarization_to_involution(swapped)
    assert np.array_equal(s2.matrix, (-s.matrix) % 3)


@pytest.mark.parametrize("p", [3, 5])
def test_every_antisymplectic_involution_gives_polarization(p):
    space = SymplecticSpace(p, 1)
    for s in enumerate_antisymplectic(space):
        if (s * s).is_identity():
            plus, minus = eigen_polarization(s)
            Polarization(space, plus, minus)  # validates isotropy and spanning


def test_bruhat_factorization_reconstructs():
    space = SymplecticSpace(7, 1)
    tokens_product = {
        "n": lambda x: n_element(space, [[x]]),
        "m": lambda y: m_element(space, [[y]]),
    }
    for s in enumerate_sp(space):
        acc = SpElement(space, np.eye(2), 1)
        for tok in bruhat_factor(space, s):
            if tok[0] == "j":
                acc = acc * weyl_element(space)
            else:
                acc = acc * tokens_product[tok[0]](tok[1])
        assert acc == s


def test_sp4_f3_order():
    space = SymplecticSpace(3, 2)
    elems = enumerate_sp(space)
    assert len(elems) == 51840  # |Sp(4,3)|


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
    assert tg.names == tuple(enumerate_sp(space))
    assert tg.names[0].is_identity()
    assert np.array_equal(tg.matrices, np.stack([s.matrix for s in tg.names]))
    # the table is the group law on the names
    rng = random.Random(p)
    for _ in range(50):
        i, j = rng.randrange(tg.order), rng.randrange(tg.order)
        assert tg.names[tg.mul(i, j)] == tg.names[i] * tg.names[j]
