import itertools
import operator
import random
import re

import numpy as np
import pytest

from group_oracles import checked_extend_hom, closure, zoo_groups
from heisweil.groups import TableGroup, double_coset_labels, extend_hom
from heisweil.heisenberg import HElem, HeisenbergGroup
from heisweil.linalg import CycMatrix, batch_from_matrices
from heisweil.mackey import (
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)
from heisweil.reps import MatrixRep
from heisweil.symplectic import SymplecticSpace
from heisweil.weil import sp_table


def _heisenberg_law(space):
    """(w1, z1)(w2, z2) = (w1 + w2, z1 + z2 + (1/2)<w1, w2>) on HElem tuples."""
    p, half, form = space.p, space.half, space.form.tolist()

    def mul(a, b):
        pair = sum(
            x * form[i][j] * y for i, x in enumerate(a.w) for j, y in enumerate(b.w)
        )
        w = tuple((x + y) % p for x, y in zip(a.w, b.w))
        return HElem(w, (a.z + b.z + half * pair) % p)

    return mul


def test_closure_is_breadth_first():
    assert closure([0], [1], lambda x, g: (x + g) % 5) == [0, 1, 2, 3, 4]
    assert closure([0], [2, 3], lambda x, g: (x + g) % 6) == [0, 2, 3, 4, 5, 1]


def _s3_generators():
    s3 = symmetric_group(3)
    rot = next(a for a in range(6) if s3.element_order(a) == 3)
    flip = next(a for a in range(6) if s3.element_order(a) == 2)
    return s3, rot, flip


def _scalar(n, value):
    return CycMatrix(n, [[value]])


def _rep(g, images, n):
    """The MatrixRep of an extension {index: 1 x 1 or d x d image}."""
    num, den = batch_from_matrices([images[x] for x in range(g.order)], n)
    return MatrixRep(g, np.arange(g.order), num, den, n)


def test_extend_hom_sign_character():
    """The extension of consistent images passes the certificate and is
    multiplicative on every pair."""
    s3, rot, flip = _s3_generators()
    images = extend_hom(
        s3, {rot: _scalar(3, 1), flip: _scalar(3, -1)}, operator.matmul, _scalar(3, 1)
    )
    assert sorted(images) == list(range(6))
    assert _rep(s3, images, 3).verify_homomorphism()
    for a in range(6):
        for b in range(6):
            assert images[a] @ images[b] == images[s3.mul(a, b)]


def test_extend_hom_inconsistent_images_fail_the_certificate():
    """rot has order 3, but (-1)^3 = -1: the extension keeps the images on
    the generators, fills every element, and the certificate refuses it."""
    s3, rot, flip = _s3_generators()
    gen_images = {rot: _scalar(3, -1), flip: _scalar(3, 1)}
    images = extend_hom(s3, gen_images, operator.matmul, _scalar(3, 1))
    assert sorted(images) == list(range(6))
    assert images[rot] == gen_images[rot] and images[flip] == gen_images[flip]
    assert not _rep(s3, images, 3).verify_homomorphism()
    assert checked_extend_hom(s3, gen_images, operator.matmul, _scalar(3, 1)) is None


def test_extend_hom_non_generating_set_raises():
    s3, rot, _ = _s3_generators()
    with pytest.raises(ValueError, match="reach 3 of the 6 elements"):
        extend_hom(s3, {rot: _scalar(3, 1)}, operator.matmul, _scalar(3, 1))


@pytest.mark.parametrize(
    "group, order",
    [(symmetric_group(3), 6), (dihedral_group(4), 8), (quaternion_group(), 24)],
    ids=["S3", "D4", "Q8"],
)
def test_extend_hom_matches_the_edge_checked_extension_on_automorphisms(group, order):
    """Every automorphism (|Aut| = order), read back from its images on the
    generators, is what the edge-by-edge extension gives; images given as
    columns of a stack extend every column at once."""
    g, gens = group, list(group.generators)
    perms = itertools.permutations(range(1, g.order))
    autos = [(0,) + perm for perm in perms if g.is_automorphism(np.array((0,) + perm))]
    assert len(autos) == order
    for perm in autos:
        gen_images = {a: perm[a] for a in gens}
        expected = checked_extend_hom(g, gen_images, g.mul, 0)
        assert extend_hom(g, gen_images, g.mul, 0) == expected
        assert [expected[x] for x in range(g.order)] == list(perm)
    stack = np.array(autos)
    columns = extend_hom(
        g, {a: stack[:, a] for a in gens}, lambda a, b: g.table[a, b], stack[:, 0]
    )
    assert np.array_equal(np.stack([columns[x] for x in range(g.order)], axis=1), stack)


def test_trivial_group_has_no_generators():
    """A table of one element: no generators, Light's test on no edges,
    and [G, G] = G."""
    g = TableGroup([[0]])
    assert g.generators == () and g.associativity_edges().shape == (1, 0, 1)
    assert g.commutator_subgroup() == frozenset([0]) == g.subgroup_generated([])
    assert extend_hom(g, {}, operator.matmul, _scalar(3, 1)) == {0: _scalar(3, 1)}


def test_heisenberg_closure_matches_table_closure_p3():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    law = _heisenberg_law(g.space)
    one = HElem((0, 0), 0)
    for a in range(g.order):
        for b in range(g.order):
            on_table = {g.names[i] for i in g.subgroup_generated([a, b])}
            by_law = closure([one], [g.names[a], g.names[b]], law)
            assert set(by_law) == on_table


def test_is_subgroup_rejects_a_set_missing_one_product():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    for sub in g.all_subgroups():
        assert g.is_subgroup(sub)
        for x in sorted(sub)[1:]:
            assert not g.is_subgroup(sub - {x})
    s3 = symmetric_group(3)
    assert s3.is_subgroup(range(6)) and s3.is_subgroup([0])
    assert not s3.is_subgroup(range(1, 6))  # no identity
    assert not s3.is_subgroup([])


def _brute_double_cosets(g, k_sub, h_sub) -> list[set]:
    """The sets K x H as sets of products, in the order of their smallest
    members: the reference partition."""
    cosets = []
    for x in range(g.order):
        if not any(x in c for c in cosets):
            cosets.append({g.mul(g.mul(a, x), b) for a in k_sub for b in h_sub})
    return cosets


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        HeisenbergGroup(SymplecticSpace(3, 1)),
    ],
    ids=["S3", "D4", "Q8", "H(3,1)"],
)
def test_double_coset_labels_match_the_set_partition(group):
    g = group
    # every subgroup of these groups is generated by two elements
    subgroups = sorted(
        {g.subgroup_generated([a, b]) for a in range(g.order) for b in range(g.order)},
        key=sorted,
    )
    for k_sub in subgroups:
        for h_sub in subgroups:
            labels = double_coset_labels(g, k_sub, h_sub)
            cosets = [set(np.flatnonzero(labels == i)) for i in range(labels.max() + 1)]
            expected = _brute_double_cosets(g, k_sub, h_sub)
            assert cosets == expected
            first = np.unique(labels, return_index=True)[1].tolist()
            assert first == [min(c) for c in expected]


def test_double_coset_labels_reject_a_non_subgroup():
    s3 = symmetric_group(3)
    rot = next(a for a in range(6) if s3.element_order(a) == 3)
    with pytest.raises(ValueError, match="need subgroups"):
        double_coset_labels(s3, [0, rot], range(6))
    with pytest.raises(ValueError, match="need subgroups"):
        double_coset_labels(s3, range(6), [rot])


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        dihedral_group(5),
        dihedral_group(6),
        quaternion_group(),
        direct_product(symmetric_group(3), cyclic_group(2)),
        direct_product(symmetric_group(4), cyclic_group(2)),
        HeisenbergGroup(SymplecticSpace(3, 1)),
        HeisenbergGroup(SymplecticSpace(5, 1)),
        sp_table(SymplecticSpace(3, 1)),
        sp_table(SymplecticSpace(5, 1)),
        sp_table(SymplecticSpace(7, 1)),
    ],
    ids=[
        "S3", "S4", "D4", "D5", "D6", "Q8", "S3xC2", "S4xC2", "H(3,1)", "H(5,1)",
        "SL(2,3)", "SL(2,5)", "SL(2,7)",
    ],
)
def test_commutator_subgroup_matches_the_closure(group):
    """The normal closure of the generators' commutators against closing
    every commutator of the table under the group law, one product at a
    time."""
    t, inv = group.table, group.inverse_of
    comms = np.unique(t[t, t[np.ix_(inv, inv)]]).tolist()  # a b a^-1 b^-1
    expected = frozenset(closure([0], comms, group.mul))
    assert group.commutator_subgroup() == expected
    assert group.is_subgroup(expected)


def test_subgroup_generated_takes_any_iterable_of_generators():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    assert g.subgroup_generated([]) == frozenset([0])
    a, b = g.from_w((1, 0)), g.from_w((0, 1))
    whole = frozenset(range(g.order))
    for gens in ([a, b], (b, a, a), frozenset([a, b]), np.array([a, b]), iter([a, b])):
        assert g.subgroup_generated(gens) == whole
    assert g.subgroup_generated([a]) == frozenset(closure([0], [a], g.mul))


@pytest.mark.parametrize("p", [3, 5])
def test_all_subgroups_matches_the_sweep_over_all_pairs(p):
    """One generator per cyclic subgroup gives the same list as closing every
    pair of elements one product at a time."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    swept = {frozenset([0])}
    for a in range(g.order):
        for b in range(a, g.order):
            swept.add(frozenset(closure([0], [a, b], g.mul)))
    assert g.all_subgroups() == sorted(swept, key=lambda s: (len(s), sorted(s)))


def _mask_oracle_groups():
    """Every group of the Mackey zoo, and H(3, 1)."""
    zoo = zoo_groups()
    zoo["H(3,1)"] = HeisenbergGroup(SymplecticSpace(3, 1))
    return [pytest.param(label, tg, id=label) for label, tg in zoo.items()]


@pytest.mark.parametrize("label, group", _mask_oracle_groups())
def test_mask_closure_and_subgroup_test_match_the_closure_oracle(label, group):
    """subgroup_generated and is_subgroup, on boolean masks, against closing
    one product at a time: every single generator and 40 seeded pairs; a
    seeded subset is a subgroup exactly when its products stay inside."""
    g, rng = group, random.Random(label)
    gens = [[a] for a in range(g.order)]
    gens += [rng.sample(range(g.order), 2) for _ in range(40)]
    for pick in gens:
        expected = frozenset(closure([0], pick, g.mul))
        assert g.subgroup_generated(pick) == expected, pick
        assert g.is_subgroup(expected)
        if len(expected) > 2:  # |S| - 1 divides |S| only for |S| = 2
            assert not g.is_subgroup(expected - {max(expected)})
    for _ in range(40):
        subset = set(rng.sample(range(g.order), rng.randrange(1, g.order + 1)))
        closed = all(g.mul(a, b) in subset for a in subset for b in subset)
        assert g.is_subgroup(subset) == closed, sorted(subset)
    assert not g.is_subgroup([])
    with pytest.raises(ValueError, match=f"lie in 0..{g.order - 1}"):
        g.is_subgroup([0, g.order])
    with pytest.raises(ValueError, match=f"lie in 0..{g.order - 1}"):
        g.mask([-1])


def _is_automorphism_oracle(g, perm) -> bool:
    """A permutation of the indices with perm(ab) = perm(a) perm(b) for all
    |G|^2 pairs, one pair at a time."""
    perm, t = list(perm), g.table.tolist()
    if sorted(perm) != list(range(g.order)):
        return False
    return all(
        perm[t[a][b]] == t[perm[a]][perm[b]]
        for a in range(g.order)
        for b in range(g.order)
    )


def test_is_automorphism_matches_the_all_pairs_oracle_on_every_permutation_of_s3():
    s3 = symmetric_group(3)
    found = 0
    for perm in itertools.permutations(range(6)):
        expected = _is_automorphism_oracle(s3, perm)
        assert s3.is_automorphism(np.array(perm)) == expected, perm
        found += expected
    assert found == 6  # Aut(S3) = Inn(S3) = S3


def _automorphism_oracle_cases():
    """(label, group, theta's permutation) for every zoo theta and the
    p = 3 Heisenberg and Sp x| H thetas."""
    from heisweil.suites import (
        heisenberg_mackey_configurations,
        standard_mackey_configurations,
    )

    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    cases = {}
    for label, tg, _, _, theta in configs:
        cases.setdefault((id(tg), theta.perm), (label, tg, theta.perm))
    return [pytest.param(tg, perm, id=label) for label, tg, perm in cases.values()]


@pytest.mark.parametrize("group, perm", _automorphism_oracle_cases())
def test_is_automorphism_matches_the_all_pairs_oracle_on_theta_and_a_transposed_theta(
    group, perm
):
    """theta is an automorphism; theta after a seeded transposition of two
    indices is one exactly when the oracle says so; and a repeated index or
    a wrong length is refused."""
    perm = np.array(perm)
    assert group.is_automorphism(perm) and _is_automorphism_oracle(group, perm)
    rng = random.Random(group.order)
    i, j = rng.sample(range(group.order), 2)
    swapped = perm.copy()
    swapped[[i, j]] = swapped[[j, i]]
    assert group.is_automorphism(swapped) == _is_automorphism_oracle(group, swapped)
    repeated = perm.copy()
    repeated[i] = perm[j]
    assert not group.is_automorphism(repeated)
    assert not group.is_automorphism(perm[:-1])
    assert not group.is_automorphism(np.append(perm, group.order))


def _is_associative_oracle(t) -> bool:
    """(a b) c == a (b c) on all |G|^3 triples, one row a at a time."""
    return all(np.array_equal(t[t[a]], t[a][t]) for a in range(len(t)))


def _light_oracle_groups():
    """Every group of the Mackey zoo, H(3, 1), H(5, 1) and Sp(W) at p = 3
    and 5."""
    groups = zoo_groups()
    for p in (3, 5):
        groups[f"H({p},1)"] = HeisenbergGroup(SymplecticSpace(p, 1))
        groups[f"Sp({p})"] = sp_table(SymplecticSpace(p, 1))
    return [pytest.param(label, tg, id=label) for label, tg in groups.items()]


@pytest.mark.parametrize("label, group", _light_oracle_groups())
def test_light_test_matches_the_all_triples_oracle(label, group):
    """Light's test on the generator columns holds where every triple
    associates; with two entries of one row swapped (identity and inverses
    kept, so only associativity breaks) the oracle fails and so does
    Light's test, on an edge (x, s, y) that fails.  Up to 64 elements the
    constructor runs the test and names that edge; past it the edge is read
    off the array."""
    n = group.order
    edges = group.associativity_edges()
    assert edges.shape == (n, len(group.generators), n)
    assert edges.all() and _is_associative_oracle(group.table)
    rng = random.Random(label)
    t = group.table.copy()
    x = rng.randrange(1, n)
    j, k = rng.sample([c for c in range(1, n) if t[x, c] != 0], 2)
    t[x, [j, k]] = t[x, [k, j]]
    assert not _is_associative_oracle(t)
    if n <= 64:
        with pytest.raises(ValueError, match="non-associative table") as err:
            TableGroup(t)
        witness = re.search(r"\((\d+) (\d+)\) (\d+) != ", str(err.value))
        x, s, y = map(int, witness.groups())
    else:
        broken = TableGroup(t)
        x, i, y = np.argwhere(~broken.associativity_edges())[0]
        s = broken.generators[i]
    assert t[t[x, s], y] != t[x, t[s, y]]


@pytest.mark.parametrize("entry", [3, -1])
def test_table_entry_outside_the_indices_is_named(entry):
    """An entry past n - 1 is not read as an IndexError, and -1 does not
    wrap around to the last row: both are refused with their bound."""
    t = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    TableGroup(t)
    t[1, 2] = entry
    named = rf"table entry {entry} at \(1, 2\) not in 0\.\.2"
    with pytest.raises(ValueError, match=named):
        TableGroup(t)
