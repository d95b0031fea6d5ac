import collections
import copy
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_oracles import (
    all_subgroups_by_closure,
    automorphism_perm_by_element,
    heisenberg_law,
    heisenberg_table_eager,
    polarization_fault_by_sets,
    special_iso_inverse_image,
    table_group_from_mul,
)
import heisweil.heisenberg as heis
from heisweil.checks import Check
from heisweil.heisenberg import (
    Automorphisms,
    HElem,
    HeisenbergGroup,
    SpecialIso,
    all_special_isos,
    involution_from_polarization,
    order_two_automorphisms_inverting_center,
    order_two_automorphisms_trivial_on_center,
    polarizations_from_involutions,
    special_iso_axioms,
    special_iso_equal_tests,
    special_iso_from_split_polarization,
    split_polarization_from_iso,
)
from heisweil.symplectic import GuardError, SymplecticSpace, is_antisymplectic, sp_table


@pytest.fixture(scope="module")
def h3():
    return HeisenbergGroup(SymplecticSpace(3, 1))


@pytest.fixture(scope="module")
def h5():
    return HeisenbergGroup(SymplecticSpace(5, 1))


def test_multiplication_example(h3):
    e1, e2 = h3.from_w((1, 0)), h3.from_w((0, 1))
    prod = h3.mul(e1, e2)
    assert h3.names[prod] == HElem((1, 1), 2)  # (1/2)<e1,e2> = 2*1 in F_3


def test_identity_and_inverse(h3):
    for h in h3.elements():
        assert h3.mul(h, 0) == h
        assert h3.mul(h, h3.inv(h)) == 0


def test_group_axioms_exhaustive_p3(h3):
    els = h3.elements()
    assert len(els) == 27
    for a, b, c in itertools.product(els, repeat=3):
        assert h3.mul(h3.mul(a, b), c) == h3.mul(a, h3.mul(b, c))


_H5 = HeisenbergGroup(SymplecticSpace(5, 1))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_group_axioms_random_p5(data):
    els = _H5.elements()
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    c = data.draw(st.sampled_from(els))
    assert _H5.mul(_H5.mul(a, b), c) == _H5.mul(a, _H5.mul(b, c))


def test_center_equals_commutator_subgroup(h3):
    comms = {
        h3.mul(h3.mul(a, b), h3.mul(h3.inv(a), h3.inv(b)))
        for a in h3.elements()
        for b in h3.elements()
    }
    assert h3.subgroup_generated(comms) == h3.center()


def _commutator_values(g):
    """The all-pairs oracle: the (|H|, |H|) array of c with [a, b] = (0, c),
    every commutator checked central."""
    t, inv = g.table, g.inverse_of
    comm = t[t, t[np.ix_(inv, inv)]]
    assert not g.w[comm].any(), "a commutator is not central"
    return g.z[comm]


def test_commutator_examples(h3):
    comm = _commutator_values(h3)
    e1, e2 = h3.from_w((1, 0)), h3.from_w((0, 1))
    assert comm[e1, e2] == 1
    assert comm[h3.element((1, 0), 2), h3.element((1, 0), 1)] == 0
    assert comm[h3.central(2), e1] == 0


def test_commutator_equals_form(h3):
    comm = _commutator_values(h3)
    for a, b in itertools.product(h3.elements(), repeat=2):
        assert comm[a, b] == h3.space.pair(h3.names[a].w, h3.names[b].w)


@pytest.mark.parametrize("p", [3, 5])
def test_commutator_edges_match_the_all_pairs_oracle(p):
    """commutator_form_edges against [a, b] = (0, <w_a, w_b>) on every pair:
    both hold for H, and both fail for the group of the form 2 J read
    against J.  The edges are |H| x |S| pairs of the oracle's array."""
    space = SymplecticSpace(p, 1)
    g = HeisenbergGroup(space)
    edges = g.commutator_form_edges()
    gens = list(g.generators)
    assert edges.shape == (g.order, len(gens)) and edges.all()
    oracle = _commutator_values(g) == g.w @ space.form @ g.w.T % p
    assert oracle.all()
    twice = SymplecticSpace(p, 1)
    twice.form = 2 * space.form % p
    doubled = HeisenbergGroup(twice)
    doubled.space = space  # the table follows 2 J, the check reads J
    oracle = _commutator_values(doubled) == g.w @ space.form @ g.w.T % p
    assert np.array_equal(doubled.commutator_form_edges(), oracle[:, gens])
    assert not oracle.all() and not doubled.commutator_form_edges().all()


# -- the table, built on first read -------------------------------------------------


@pytest.mark.parametrize("p, ell", [(3, 1), (5, 1), (3, 2)])
def test_table_built_on_first_read_equals_the_eager_build_and_the_law(p, ell):
    space = SymplecticSpace(p, ell)
    g = HeisenbergGroup(space)
    assert "table" not in vars(g)
    assert np.array_equal(g.table, heisenberg_table_eager(space))
    by_law = table_group_from_mul(g.names, heisenberg_law(space), g.names[0])
    assert by_law.names == g.names and np.array_equal(g.table, by_law.table)
    assert np.array_equal(g.inverse_of, by_law.inverse_of)
    assert g.center() == by_law.center() == frozenset(range(p))


@pytest.mark.parametrize("read", ["table", "inverse_of", "center", "generators"])
def test_each_table_read_builds_the_table_once(read, monkeypatch):
    built = []
    law_table = HeisenbergGroup._law_table

    def counted(self):
        built.append(self)
        return law_table(self)

    monkeypatch.setattr(HeisenbergGroup, "_law_table", counted)
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    assert not built and g.order == 27 and len(g.names) == 27
    first = g.center() if read == "center" else getattr(g, read)
    assert built == [g]
    assert g.generators == (3, 9) and g.inverse_of[1] == 2
    assert (g.center() if read == "center" else getattr(g, read)) is first
    assert built == [g]


def _corrupted(monkeypatch, corrupt):
    law_table = HeisenbergGroup._law_table

    def broken(self):
        table = law_table(self)
        corrupt(table)
        return table

    monkeypatch.setattr(HeisenbergGroup, "_law_table", broken)


def test_a_corrupted_law_fails_the_table_checks_on_first_read(monkeypatch):
    """The constructor's checks run on the table built on first read: two
    products of one row swapped fail Light's test in H(3, 1), a lost inverse
    fails the inverse check in H(3, 2), where Light's test does not run.
    A failed table is not kept, so a second read fails again."""

    def swap(t):
        t[1, [3, 4]] = t[1, [4, 3]]

    _corrupted(monkeypatch, swap)
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-associative table"):
            g.center()
    assert not {"table", "inverse_of", "generators"} & set(vars(g))

    def lose_inverse(t):
        t[5, t[5] == 0] = 1

    _corrupted(monkeypatch, lose_inverse)
    g = HeisenbergGroup(SymplecticSpace(3, 2))
    for read in ("table", "inverse_of"):
        with pytest.raises(ValueError, match="lacks two-sided inverses"):
            getattr(g, read)


def test_a_copy_of_an_unbuilt_group_builds_its_own_table():
    space = SymplecticSpace(3, 1)
    g = HeisenbergGroup(space)
    twin = copy.copy(g)
    assert np.array_equal(twin.table, heisenberg_table_eager(space))
    assert "table" in vars(twin) and "table" not in vars(g)
    assert twin.generators == g.generators and twin.center() == g.center()
    with pytest.raises(AttributeError, match="no attribute 'tabel'"):
        g.tabel


# -- special isomorphisms ------------------------------------------------------


def test_special_iso_count_and_torsor(h3):
    # |W| = p^(2l) = 9 of them; W acts simply transitively via the offset
    isos = all_special_isos(h3)
    assert len(isos) == 3 ** 2
    assert len({nu.offset for nu in isos}) == 9
    # distinct offsets give distinct maps (simply transitive W-action)
    mu_tables = {tuple(nu.mu.tolist()) for nu in isos}
    assert len(mu_tables) == 9


def test_special_iso_axioms(h3):
    for nu in all_special_isos(h3)[:9]:
        assert nu.check_axioms()


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (3, 2)])
def test_special_iso_image_and_inverse_image_are_mutually_inverse(p, ell):
    """nu^-1(nu(h)) = h and nu(nu^-1(x)) = x for every nu and every element,
    and nu(w, z) = (w, z + <w, w0>) by the coordinates."""
    g = HeisenbergGroup(SymplecticSpace(p, ell))
    els = list(g.elements())
    for nu in all_special_isos(g):
        assert [special_iso_inverse_image(nu, nu.image(h)) for h in els] == els
        assert [nu.image(special_iso_inverse_image(nu, x)) for x in els] == els
        for h in els:
            w, z = g.names[h]
            assert g.names[nu.image(h)] == (w, (z + g.space.pair(w, nu.offset)) % p)


def _special_iso_axioms_oracle(g, mu) -> bool:
    """mu(0, z) = z and mu(ab) = mu(a) + mu(b) + (1/2)[a, b] on all |H|^2
    pairs."""
    center = sorted(g.center())
    twisted = (mu[:, None] + mu[None, :] + g.half * _commutator_values(g)) % g.p
    return bool((mu[center] == g.z[center]).all() and (mu[g.table] == twisted).all())


@pytest.mark.parametrize("p", [3, 5])
def test_special_iso_axioms_on_edges_match_the_all_pairs_oracle(p):
    """The edge check and the all-pairs oracle agree on every special
    isomorphism, on sums of two offsets (again special), and on seeded
    corruptions: one changed entry, and random values off the center."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    isos = all_special_isos(g)
    rng = np.random.default_rng(p)
    mus = [nu.mu for nu in isos]
    mus += [(a.mu + b.mu - g.z) % p for a, b in zip(isos, isos[3:])]
    special = len(mus)
    for h in rng.choice(g.order, 8, replace=False):
        broken = isos[int(h) % len(isos)].mu.copy()
        broken[h] = (broken[h] + 1) % p
        mus.append(broken)
    for _ in range(4):
        mus.append(np.where(g.w.any(axis=1), rng.integers(0, p, g.order), g.z))
    for k, mu in enumerate(mus):
        check = Check("edges")
        assert special_iso_axioms(g, mu, check) == (k < special), k
        assert _special_iso_axioms_oracle(g, mu) == (k < special), k
        assert check.checks == p + g.order * len(g.generators)


def test_base_iso_from_standard_split_polarization(h3):
    nu = special_iso_from_split_polarization(
        h3, h3.plus_subgroup, h3.minus_subgroup
    )
    assert nu.offset == (0, 0)


def test_conjugated_split_polarization_shifts_offset(h3):
    g0 = h3.element((1, 2), 0)
    hplus = frozenset(h3.conjugate(g0, h) for h in h3.plus_subgroup)
    hminus = frozenset(h3.conjugate(g0, h) for h in h3.minus_subgroup)
    nu = special_iso_from_split_polarization(h3, hplus, hminus)
    assert nu.offset != (0, 0)
    # uniqueness: exactly one special iso maps both sides into W x 1
    matching = [
        candidate
        for candidate in all_special_isos(h3)
        if all(candidate.mu[h] == 0 for h in hplus)
        and all(candidate.mu[h] == 0 for h in hminus)
    ]
    assert matching == [nu]


def test_split_polarization_from_iso_base(h3):
    hminus = split_polarization_from_iso(
        SpecialIso(h3, (0, 0)), h3.plus_subgroup, h3.minus_z_subgroup
    )
    assert hminus == h3.minus_subgroup


def test_split_from_iso_sizes_and_roundtrip(h3):
    for nu in all_special_isos(h3):
        hminus = split_polarization_from_iso(
            nu, h3.plus_subgroup, h3.minus_z_subgroup
        )
        assert len(hminus) == 3  # p^l
        if all(nu.mu[h] == 0 for h in h3.plus_subgroup):
            back = special_iso_from_split_polarization(
                h3, h3.plus_subgroup, hminus
            )
            assert back.offset == nu.offset


@pytest.mark.parametrize("p", [3, 5])
def test_exists_s_on_generator_columns_matches_the_all_pairs_version(p):
    """exists s in Sp with nu2 = s o nu1, read on the generator columns,
    against s o nu1 compared with nu2 on every element of H; three isos are
    listed twice, so the answer is not only the diagonal."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    isos = all_special_isos(g)
    isos += isos[:3]
    act = g.linear_action(sp_table(g.space).matrices)
    images = np.stack([np.arange(g.order) - g.z + nu.mu for nu in isos])
    oracle = np.array(
        [(act[:, None, row] == images[None]).all(axis=2).any(axis=0) for row in images]
    )
    assert np.array_equal(special_iso_equal_tests(isos)[2], oracle)
    assert oracle.sum() == len(isos) + 6


def test_special_iso_equal_tests_trichotomy(h3):
    isos = all_special_isos(h3)
    tests = special_iso_equal_tests(isos)
    t = tuple(bool(a[0, 0]) for a in tests)
    assert t == (True, True, True)
    t = tuple(bool(a[1, 2]) for a in tests)
    assert t == (False, False, False)


# -- automorphisms --------------------------------------------------------------


def _order_two(perm) -> bool:
    ident = np.arange(len(perm))
    return np.array_equal(perm[perm], ident) and not np.array_equal(perm, ident)


def test_involution_from_polarization_formula(h3):
    alpha = involution_from_polarization(h3)
    assert len(alpha) == 1 and alpha.sign == -1
    perm = alpha.perm[0]
    # e1 in W+: w-part fixed, center negated
    assert perm[h3.element((1, 0), 1)] == h3.element((1, 0), -1)
    assert _order_two(perm)
    assert h3.is_automorphism(perm[None])[0]


def test_polarizations_from_involutions_roundtrip(h3):
    alpha = involution_from_polarization(h3)
    hplus, hhat = (
        frozenset(np.flatnonzero(side[0]).tolist())
        for side in polarizations_from_involutions(alpha)
    )
    assert hplus == h3.plus_subgroup
    assert hhat == frozenset(
        h3.element((0, y), z) for y in range(3) for z in range(3)
    )
    assert len(hplus) == 3 and len(hhat) == 9  # p^l and p^(l+1)
    # Hhat^- = {h : h * alpha(h) central}
    assert hhat == frozenset(
        h for h in h3.elements() if not any(h3.names[h3.mul(h, alpha.perm[0, h])].w)
    )


def test_central_sign_must_match_matrix_sign(h3):
    s = [[1, 0], [0, -1]]
    assert is_antisymplectic(h3.space, s)
    transvection = [[1, 1], [0, 1]]  # symplectic
    message = "^central sign must match the form multiplier of s$"
    with pytest.raises(ValueError, match=message):
        Automorphisms(h3, [s], [(0, 0)], 1)
    # one row of the wrong multiplier refuses the whole stack
    with pytest.raises(ValueError, match=message):
        Automorphisms(h3, [s, transvection, s], [(0, 0)] * 3, -1)
    with pytest.raises(ValueError, match=r"^central sign must be \+-1$"):
        Automorphisms(h3, [s], [(0, 0)], 0)
    alphas = Automorphisms(h3, [s, [[4, 0], [0, 2]]], [(0, 0), (0, 4)], -1)
    # entries are reduced mod p, and the permutations are read-only
    assert alphas.s.tolist() == [[[1, 0], [0, 2]]] * 2
    assert alphas.w0.tolist() == [[0, 0], [0, 1]]
    assert not alphas.perm.flags.writeable


@pytest.mark.parametrize("p, ell", [(11, 1), (3, 2)])
def test_automorphism_sweeps_name_their_limit(p, ell):
    g = HeisenbergGroup(SymplecticSpace(p, ell))
    for sweep in (
        order_two_automorphisms_trivial_on_center,
        order_two_automorphisms_inverting_center,
    ):
        with pytest.raises(GuardError, match=f"p <= 7; got ell = {ell}, p = {p}"):
            sweep(g)


def _order_two_by_element(g, mats, sign):
    """The (s, w0) of every order-two automorphism with s in ``mats`` and
    every w0, in the order of s and then of w0, and their permutations, each
    from :func:`automorphism_perm_by_element`.  alpha^2 has w part s^2 w,
    so only the s with s^2 = 1 are tried."""
    p, eye = g.p, np.eye(2, dtype=np.int64)
    found, perms = [], []
    for s in mats:
        if not np.array_equal(s @ s % p, eye):
            continue
        for w0 in itertools.product(range(p), repeat=2):
            perm = np.array(automorphism_perm_by_element(g, s, w0, sign))
            if _order_two(perm):
                found.append((s.tolist(), list(w0)))
                perms.append(perm)
    return found, np.array(perms)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_order_two_trivial_on_center_crosscheck(p):
    """The stacked sweep against every symplectic (s, w0) tested on its
    permutation built element by element: the same automorphisms, in the
    same order, with the same permutations."""
    from heisweil.symplectic import enumerate_sp

    g = HeisenbergGroup(SymplecticSpace(p, 1))
    listed = order_two_automorphisms_trivial_on_center(g)
    assert listed.sign == 1
    found, perms = _order_two_by_element(g, enumerate_sp(g.space), 1)
    assert found == list(zip(listed.s.tolist(), listed.w0.tolist()))
    assert np.array_equal(perms, listed.perm)
    assert g.is_automorphism(listed.perm[:10]).all()
    center = sorted(g.center())
    assert (listed.perm[:, center] == center).all()
    # no inner automorphism has order two for odd p
    assert not (listed.s == np.eye(2)).all(axis=(1, 2)).any()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_order_two_inverting_center_crosscheck(p):
    """The stacked sweep against every antisymplectic (s, w0) tested on its
    permutation built element by element: the same automorphisms, in the
    same order, with the same permutations."""
    from heisweil.symplectic import enumerate_antisymplectic

    g = HeisenbergGroup(SymplecticSpace(p, 1))
    listed = order_two_automorphisms_inverting_center(g)
    assert listed.sign == -1
    found, perms = _order_two_by_element(g, enumerate_antisymplectic(g.space), -1)
    assert found == list(zip(listed.s.tolist(), listed.w0.tolist()))
    assert np.array_equal(perms, listed.perm)


@pytest.mark.parametrize("p", [3, 5])
def test_order_two_inverting_center_all_give_polarizations(p):
    from heisweil.symplectic import eigen_polarization, span_mod

    g = HeisenbergGroup(SymplecticSpace(p, 1))
    alphas = order_two_automorphisms_inverting_center(g)
    assert len(alphas), "there must be involutions inverting the center"
    for s, fixed, inverted in zip(alphas.s, *polarizations_from_involutions(alphas)):
        # images are the +-1 eigenspaces of the reduced map
        plus, minus = eigen_polarization(g.space, s)
        assert g.image_in_w(np.flatnonzero(fixed)) == span_mod(plus, p, 2)
        assert g.image_in_w(np.flatnonzero(inverted)) == span_mod(minus, p, 2)


def test_subgroup_count_p3(h3):
    subs = h3.all_subgroups()
    # extraspecial group of order 27, exponent 3: 1 + 13 + 4 + 1 subgroups
    assert len(subs) == 19
    by_size = {}
    for s in subs:
        by_size.setdefault(len(s), 0)
        by_size[len(s)] += 1
    assert by_size == {1: 1, 3: 13, 9: 4, 27: 1}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_subgroup_count_oracle(p):
    # counted without the table: H(p, 1) has exponent p, so its p^3 - 1
    # elements of order p make (p^3 - 1) / (p - 1) = p^2 + p + 1 subgroups of
    # order p; one of order p^2 is normal, so it meets the center of order p,
    # contains it and is the preimage of one of the p + 1 lines of W
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    subs = g.all_subgroups()
    sizes = collections.Counter(len(s) for s in subs)
    assert len(subs) == p * p + 2 * p + 4
    assert sizes == {1: 1, p: p * p + p + 1, p * p: p + 1, p**3: 1}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_all_subgroups_equals_the_closure_sweep(p):
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    assert g.all_subgroups() == all_subgroups_by_closure(g)


def test_all_subgroups_makes_no_closure(monkeypatch):
    def no_closure(self, gens):
        raise AssertionError("all_subgroups closed a generating set")

    monkeypatch.setattr(HeisenbergGroup, "subgroup_generated", no_closure)
    g = HeisenbergGroup(SymplecticSpace(5, 1))
    assert len(g.all_subgroups()) == 39
    assert len(g.subgroup_generators()) == 39
    assert "table" not in vars(g)  # and it reads no table


@pytest.mark.parametrize("p", [3, 5, 7])
def test_subgroup_generators_generate_each_listed_subgroup(p):
    """Each generating set closes to its subgroup of all_subgroups: none for
    {1}, one element for a cyclic subgroup, (d, 0) and the center's (0, 1)
    for a line's preimage, two for H."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    subs, gens = g.all_subgroups(), g.subgroup_generators()
    assert [len(s) for s in gens] == [0] + [1] * (p * p + p + 1) + [2] * (p + 2)
    for sub, s in zip(subs, gens, strict=True):
        assert g.subgroup_generated(s) == sub
    for sub, (d, c) in zip(subs[p * p + p + 2 : -1], gens[p * p + p + 2 : -1]):
        assert g.z[d] == 0 and c == g.central(1)


@pytest.mark.parametrize("p", [3, 5])
def test_polarization_subgroups_are_built_once_from_the_spans(p, monkeypatch):
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    pol = g.space.standard_polarization()
    expected = {
        "plus_subgroup": {g.from_w(w) for w in pol.plus_span()},
        "minus_subgroup": {g.from_w(w) for w in pol.minus_span()},
        "minus_z_subgroup": {
            g.element(w, z) for w in pol.minus_span() for z in range(p)
        },
    }

    def no_element(self, w, z):
        raise AssertionError("built one element at a time")

    monkeypatch.setattr(HeisenbergGroup, "element", no_element)
    for name, members in expected.items():
        side = getattr(g, name)
        assert isinstance(side, frozenset) and side == members
        assert getattr(g, name) is side  # kept, not rebuilt
        assert all(type(h) is int for h in side)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_batched_polarizations_equal_the_per_involution_reference(p):
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    alphas = order_two_automorphisms_inverting_center(g)
    plus, hhat_minus = polarizations_from_involutions(alphas)
    assert plus.shape == hhat_minus.shape == (len(alphas), g.order)
    # the inverse of (w, z) is (-w, -z)
    inverse = [g.element(tuple(-x for x in w), -z) for w, z in g.names]
    for s, w0, fixed, inverted in zip(alphas.s, alphas.w0, plus, hhat_minus):
        perm = automorphism_perm_by_element(g, s, w0, -1)
        sides = (
            frozenset(h for h in g.elements() if perm[h] == h),
            frozenset(h for h in g.elements() if perm[h] == inverse[h]),
        )
        assert set(np.flatnonzero(fixed).tolist()) == sides[0]
        assert set(np.flatnonzero(inverted).tolist()) == sides[1]
        assert polarization_fault_by_sets(g, *sides) is None


def test_polarization_faults_equal_the_set_reference(h3):
    """Every ordered pair of subgroups of H(3, 1), and of three sets that are
    not subgroups, as (H^+, Hhat^-), checked at once on masks: each row's
    first fault is the reference's."""
    g = h3
    sets = g.all_subgroups() + [
        frozenset([0, 1]),
        g.plus_subgroup - {max(g.plus_subgroup)},
        frozenset(),
    ]
    pairs = list(itertools.product(sets, repeat=2))
    plus = np.array([g.mask(a) for a, _ in pairs])
    hhat = np.array([g.mask(b) for _, b in pairs])
    faults = np.column_stack(heis._polarization_faults(g, plus, hhat))
    got = [
        heis._POLARIZATION_FAULTS[row.argmax()] if row.any() else None for row in faults
    ]
    expected = [polarization_fault_by_sets(g, a, b) for a, b in pairs]
    assert got == expected
    # at ell = 1 an image of maximal isotropic size is a line, so isotropic:
    # that fault needs the hyperbolic plane <e1, f1> of H(3, 2), under W x Z
    isotropy = "image is not totally isotropic"
    assert set(expected) == (set(heis._POLARIZATION_FAULTS) | {None}) - {isotropy}
    big = HeisenbergGroup(SymplecticSpace(3, 2))
    plane = {
        big.element((a, 0, b, 0), z) for a, b, z in itertools.product(range(3), repeat=3)
    }
    assert polarization_fault_by_sets(big, big.plus_subgroup, plane) == isotropy
    with pytest.raises(ValueError, match=f"^{isotropy}$"):
        heis._check_polarization(big, big.plus_subgroup, plane)


def test_first_bad_involution_raises_its_first_fault(h3):
    """A central-inverting stack whose rows fail to be of order two among
    good rows: the first bad row raises its fault."""
    good = order_two_automorphisms_inverting_center(h3)
    # antisymplectic with s^2 = [[1, 1], [1, 2]] != 1, and diag(1, -1), with
    # s^2 = 1 but s w0 = w0 != -w0 for w0 = (1, 0)
    not_order_two = [[0, 1], [1, 1]]
    twisted = [[1, 0], [0, 2]]
    s = [*good.s[:3], not_order_two, *good.s[:3], twisted]
    w0 = [*good.w0[:3], (0, 0), *good.w0[:3], (1, 0)]
    alphas = Automorphisms(h3, s, w0, -1)
    orders = [_order_two(perm) for perm in alphas.perm]
    assert orders == ([True] * 3 + [False]) * 2
    with pytest.raises(ValueError, match="^alpha must have order two$"):
        polarizations_from_involutions(alphas)


def test_involutions_fixing_the_center_are_refused(h3):
    """A stack of central sign +1 gives no polarization, whatever its rows."""
    trivial = order_two_automorphisms_trivial_on_center(h3)
    assert all(_order_two(perm) for perm in trivial.perm)
    message = "^alpha must act nontrivially on the center$"
    with pytest.raises(ValueError, match=message):
        polarizations_from_involutions(trivial)


def test_subgroup_sweep_names_its_limit():
    with pytest.raises(GuardError, match="needs ell = 1 .*; got ell = 2"):
        HeisenbergGroup(SymplecticSpace(3, 2)).all_subgroups()


def test_special_iso_restriction_to_nondegenerate_subspace():
    # an ell=2 space, restricted to the span of (e1, e3): restriction of any
    # special isomorphism is again one (checked through the mu axioms)
    big = HeisenbergGroup(SymplecticSpace(3, 2))
    small_space = SymplecticSpace(3, 1)
    small = HeisenbergGroup(small_space)
    embed = lambda h: big.element(
        (small.names[h].w[0], 0, small.names[h].w[1], 0), small.names[h].z
    )  # e1 -> e1, e2 -> e3
    # the embedding preserves the form, hence multiplication
    for a in small.elements():
        for b in small.elements():
            assert embed(small.mul(a, b)) == big.mul(embed(a), embed(b))
    rng = random.Random(1)
    for _ in range(5):
        w0 = tuple(rng.randrange(3) for _ in range(4))
        nu_big = SpecialIso(big, w0)
        mu_small = {h: nu_big.mu[embed(h)] for h in small.elements()}
        comm = _commutator_values(small)
        # restriction satisfies both special-isomorphism axioms
        for z in range(3):
            assert mu_small[small.central(z)] == z
        for a in small.elements():
            for b in small.elements():
                lhs = mu_small[small.mul(a, b)]
                rhs = (
                    mu_small[a]
                    + mu_small[b]
                    + small.half * comm[a, b]
                ) % 3
                assert lhs == rhs


# -- the index-based checks reject broken inputs ----------------------------------


def test_special_iso_axioms_reject_one_changed_entry(h3):
    nu = all_special_isos(h3)[4]
    assert special_iso_axioms(h3, nu.mu)
    for h in (0, 5, 26):  # a central element and two off the center
        broken = nu.mu.copy()
        broken[h] = (broken[h] + 1) % 3
        assert not special_iso_axioms(h3, broken)


def test_automorphism_check_rejects_non_multiplicative_permutation(h3):
    alpha = involution_from_polarization(h3)
    # swapping two images keeps a bijection but breaks products
    perm = alpha.perm[0].copy()
    perm[[3, 4]] = perm[[4, 3]]
    assert h3.is_automorphism(np.stack([alpha.perm[0], perm])).tolist() == [True, False]
    assert not h3.is_automorphism(perm[None, :-1])[0]  # not a permutation of H


@pytest.mark.parametrize("p", [3, 5, 7])
def test_linear_action_matches_the_index_of_the_product(p):
    """linear_action, which reduces its product in place, against index_of
    on the whole product, for one matrix and for the stack of Sp(W); the
    input matrices are left as they were."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    mats = np.array(sp_table(g.space).matrices)
    kept = mats.copy()
    expected = g.index_of(g.w @ np.swapaxes(mats, -1, -2), g.z)
    stacked = g.linear_action(mats)
    assert stacked.shape == (len(mats), g.order)
    assert np.array_equal(stacked, expected)
    assert np.array_equal(g.linear_action(mats[5]), expected[5])
    assert np.array_equal(mats, kept)
