import itertools
import operator
import random

import numpy as np
import pytest

from heisweil.groups import closure, double_coset_labels, extend_hom, generators_within
from heisweil.heisenberg import (
    HElem,
    HeisenbergGroup,
    order_two_automorphisms_inverting_center,
)
from heisweil import mackey as mk
from heisweil.linalg import CycMatrix, batch_from_matrices
from heisweil.mackey import (
    InvolutionRecord,
    TableGroup,
    all_involutive_automorphisms,
    conjugate_involution,
    cyclic_group,
    dihedral_group,
    direct_product,
    fixed_subgroup,
    induced_hom_dim_oracle,
    inner_involution,
    inner_involutions,
    involution_orbits,
    m_K,
    mackey_hom_dim,
    orbmult_rhs,
    quaternion_group,
    semidirect_involution_record,
    semidirect_mul,
    semidirect_table_group,
    symmetric_group,
    table_group_from_mul,
    twisted_classes,
)
from heisweil.reps import MatrixRep, contragredient
from heisweil.scalar import CycNumber, root_of_unity
from heisweil.suites import (
    SUITES,
    RunConfig,
    _abelian_characters,
    _trivial_rep,
    heisenberg_mackey_configurations,
    standard_mackey_configurations,
)
from heisweil.symplectic import SymplecticSpace
from heisweil.weil import sp_table


def _reps(g, k_sub, h_sub) -> list[int]:
    """The smallest member of each double coset K x H, in label order."""
    return np.unique(double_coset_labels(g, k_sub, h_sub), return_index=True)[1].tolist()


def _theta_cosets(g, k_sub, theta):
    """(G-orbit of theta, its K-orbits, S(theta, K.theta)), from scratch;
    S is read through the module, so a substituted s_theta is used."""
    orbit = involution_orbits(g, [theta], range(g.order))[0]
    k_orbits = involution_orbits(g, orbit, k_sub)
    orbit_of = {t.perm: i for i, o in enumerate(k_orbits) for t in o}
    reps = _reps(g, k_sub, fixed_subgroup(g, theta))
    return orbit, k_orbits, mk.s_theta(g, theta, reps, orbit_of)[orbit_of[theta.perm]]


def _mackey(g, k_sub, kappa, h_sub) -> int:
    return mackey_hom_dim(g, k_sub, kappa, h_sub, _reps(g, k_sub, h_sub))


def _orbmult(g, k_sub, kappa, theta) -> tuple[int, int]:
    """Both sides of the orbit multiplicity formula: the oracle, and m_K
    times the sum over K-orbits."""
    _, k_orbits, cosets = _theta_cosets(g, k_sub, theta)
    m, _ = m_K(g, k_sub, theta, cosets)
    lhs = induced_hom_dim_oracle(g, k_sub, kappa, sorted(fixed_subgroup(g, theta)))
    return lhs, orbmult_rhs(g, k_sub, kappa, k_orbits, m)


@pytest.fixture(scope="module")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="module")
def a3(s3):
    return sorted(
        next(s for a in range(6) if len(s := s3.subgroup_generated([a])) == 3)
    )


def test_table_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        TableGroup([[0, 1], [1, 1]])  # not a group
    with pytest.raises(ValueError):
        TableGroup([[1, 0], [0, 1]])  # identity not at 0


def test_double_coset_examples(s3, a3):
    c2 = sorted(
        next(s for a in range(1, 6) if len(s := s3.subgroup_generated([a])) == 2)
    )
    assert double_coset_labels(s3, list(range(6)), list(range(6))).max() == 0
    assert double_coset_labels(s3, a3, c2).max() == 0
    assert double_coset_labels(s3, [0], [0]).tolist() == list(range(6))


def test_double_cosets_partition(s3, a3):
    c2 = sorted(
        next(s for a in range(1, 6) if len(s := s3.subgroup_generated([a])) == 2)
    )
    labels = double_coset_labels(s3, a3, c2)
    for x in range(6):
        coset = {s3.mul(s3.mul(a, x), b) for a in a3 for b in c2}
        assert coset == set(np.flatnonzero(labels == labels[x]).tolist())


def test_mackey_hom_dim_s3_examples(s3, a3):
    c2 = sorted(
        next(s for a in range(1, 6) if len(s := s3.subgroup_generated([a])) == 2)
    )
    for chi in _abelian_characters(s3, a3, 3):
        assert _mackey(s3, a3, chi, c2) == 1
        assert induced_hom_dim_oracle(s3, a3, chi, c2) == 1
    triv = _trivial_rep(s3, a3)
    assert _mackey(s3, a3, triv, list(range(6))) == 1  # Frobenius


def test_oracle_equals_mackey_on_full_zoo():
    for label, tg, k_members, kappa, theta in standard_mackey_configurations():
        h_members = sorted(fixed_subgroup(tg, theta))
        assert _mackey(tg, k_members, kappa, h_members) == (
            induced_hom_dim_oracle(tg, k_members, kappa, h_members)
        ), label


def test_oracle_equals_mackey_on_heisenberg_configs():
    for label, tg, k_members, kappa, theta in heisenberg_mackey_configurations():
        h_members = sorted(fixed_subgroup(tg, theta))
        assert _mackey(tg, k_members, kappa, h_members) == (
            induced_hom_dim_oracle(tg, k_members, kappa, h_members)
        ), label


def test_involution_orbits_trivial_actor(s3):
    invs = [t for t in all_involutive_automorphisms(s3) if not t.is_identity()]
    orbits = involution_orbits(s3, invs, [0])
    assert all(len(o) == 1 for o in orbits)


def test_involution_orbits_rejects_a_non_subgroup_actor(s3):
    invs = [t for t in all_involutive_automorphisms(s3) if not t.is_identity()]
    rot = next(a for a in range(6) if s3.element_order(a) == 3)
    with pytest.raises(ValueError, match="not a subgroup"):
        involution_orbits(s3, invs, [0, rot])


def test_inner_involutions_by_transpositions_form_one_orbit(s3):
    transpositions = [
        a for a in range(1, 6) if s3.element_order(a) == 2
    ]
    invs = [inner_involution(s3, a) for a in transpositions]
    orbits = involution_orbits(s3, invs, range(6))
    assert len(orbits) == 1 and len(orbits[0]) == 3


def test_invstab_on_zoo_groups():
    for tg in (symmetric_group(3), dihedral_group(4), quaternion_group()):
        center = tg.center()
        theta = next(
            t for t in all_involutive_automorphisms(tg) if not t.is_identity()
        )
        for a in range(tg.order):
            stab = conjugate_involution(tg, a, theta).perm == theta.perm
            assert stab == (tg.mul(a, tg.inv(theta.apply(a))) in center)


def test_s_theta_central_twist_characterization(s3, a3):
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    members = _theta_cosets(s3, a3, theta)[2]
    center = s3.center()
    h = sorted(fixed_subgroup(s3, theta))
    for x in _reps(s3, a3, h):
        coset = {s3.mul(s3.mul(a, x), b) for a in a3 for b in h}
        has = any(s3.mul(gq, s3.inv(theta.apply(gq))) in center for gq in coset)
        assert (x in members) == has


def test_m_K_centerless_is_one(s3, a3):
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    m, bound = m_K(s3, a3, theta, _theta_cosets(s3, a3, theta)[2])
    assert m == 1 and bound == 1  # trivial center: Z^1 = B^1 = {e}


def test_m_K_bound_two_on_quaternions():
    q8 = quaternion_group()
    theta = inner_involution(q8, 2)  # Int(i): order two modulo the center
    k = sorted(q8.subgroup_generated([2]))  # <i> contains the center
    m, bound = m_K(q8, k, theta, _theta_cosets(q8, k, theta)[2])
    assert bound == 2 and m <= 2


def test_multiplicity_bound_failure_is_recorded_with_its_witness(monkeypatch):
    import heisweil.mackey as mk
    from heisweil.suites import SUITES, RunConfig

    # the first configuration with Z <= K, the first one the bound applies to
    for label, tg, k_members, kappa, theta in standard_mackey_configurations():
        m, bound = m_K(tg, k_members, theta, _theta_cosets(tg, k_members, theta)[2])
        if bound is not None:
            break
    key = (tg.order, theta.perm)
    real = mk.s_theta

    def extra_cosets(g, th, reps, orbit_of):
        split = real(g, th, reps, orbit_of)
        if (g.order, th.perm) == key:
            mine = orbit_of[th.perm]
            split[mine] = split[mine] + list(range(bound + 1))
        return split

    monkeypatch.setattr(mk, "s_theta", extra_cosets)
    cosets = _theta_cosets(tg, k_members, theta)[2]
    assert mk.m_K(tg, k_members, theta, cosets) == (m + bound + 1, bound)
    checks = SUITES["mackey"](RunConfig())
    check = next(c for c in checks if c.check == "mackey.multiplicity_bound")
    assert not check.passed
    assert check.witness == {"config": label, "m_K": m + bound + 1, "h1_bound": bound}
    assert check.checks == 28


def test_one_partition_and_one_oracle_value_per_configuration(monkeypatch):
    """A p = 3 mackey run partitions each fixed subgroup once per
    configuration (65 partitions, not 125) and runs the oracle once for
    kappa and once for kappa~ (60 calls for 30 configurations, not 120)."""
    import heisweil.groups as groups_mod
    import heisweil.suites as suites_mod
    from heisweil.suites import SUITES, RunConfig

    calls = {"double_coset_labels": 0, "induced_hom_dim_oracle": 0}

    def counted(module, name):
        real = getattr(module, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    for module in (groups_mod, suites_mod, mk):
        if hasattr(module, "double_coset_labels"):
            spy = counted(module, "double_coset_labels")
            monkeypatch.setattr(module, "double_coset_labels", spy)
    spy = counted(mk, "induced_hom_dim_oracle")
    monkeypatch.setattr(mk, "induced_hom_dim_oracle", spy)
    checks = SUITES["mackey"](RunConfig())
    assert all(c.passed for c in checks)
    assert calls == {"double_coset_labels": 65, "induced_hom_dim_oracle": 60}


def test_oracle_guard_names_its_limit():
    z = cyclic_group(130)  # K = 1, H = G: (130 * 1)^2 * 130 entries
    triv = _trivial_rep(z, [0])
    with pytest.raises(ValueError, match="<= 200000; got 2197000"):
        induced_hom_dim_oracle(z, [0], triv, range(130))


def test_automorphism_search_guards_name_their_limits():
    c2 = cyclic_group(2)
    c2_4 = direct_product(direct_product(c2, c2), direct_product(c2, c2))
    with pytest.raises(ValueError, match="<= 3 generators; got 4"):
        all_involutive_automorphisms(c2_4)
    with pytest.raises(ValueError, match="guarded to order <= 24"):
        all_involutive_automorphisms(direct_product(symmetric_group(4), c2))


def test_twisted_classes_match_the_closure_reference():
    """K-orbits under k . y = k y theta(k)^-1 against a breadth-first
    closure from each smallest unreached twist: same classes, same order."""
    for label, tg, k_members, kappa, theta in standard_mackey_configurations():
        twists = {tg.mul(x, tg.inv(theta.apply(x))) for x in range(tg.order)}
        expected = []
        while twists:
            orbit = closure(
                [min(twists)],
                k_members,
                lambda y, k: tg.mul(tg.mul(k, y), tg.inv(theta.apply(k))),
            )
            twists -= set(orbit)
            expected.append(sorted(orbit))
        assert twisted_classes(tg, k_members, theta) == expected, label


def closure_orbits(g, thetas, actor):
    """The reference: one conjugate_involution per (involution, generator)
    edge, closed breadth-first, seeds taken last-in first."""
    gens = generators_within(g, actor)
    remaining = {t.perm: t for t in thetas}
    orbits = []
    while remaining:
        _, seed = remaining.popitem()
        orbit = closure([seed], gens, lambda t, a: conjugate_involution(g, a, t))
        for t in orbit:
            remaining.pop(t.perm, None)
        orbits.append([t.perm for t in orbit])
    return orbits


def test_involution_orbits_match_the_closure_reference():
    """G-orbit of theta and its K-orbits on every configuration of the
    suite, the 648-element Sp x| H one among them: same orbits, same order."""
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    for label, tg, k_members, kappa, theta in configs:
        orbit = involution_orbits(tg, [theta], range(tg.order))[0]
        assert [[t.perm for t in orbit]] == closure_orbits(tg, [theta], range(tg.order))
        k_orbits = involution_orbits(tg, orbit, k_members, validate=False)
        assert [[t.perm for t in o] for o in k_orbits] == closure_orbits(
            tg, orbit, k_members
        ), label


def test_mackey_suite_validates_each_theta_once(monkeypatch):
    """The G-orbit call checks theta; the K-orbit call reads the conjugates
    of a checked involution and checks none."""
    seen = []
    real = mk.involution_orbits

    def spy(g, thetas, actor, validate=True):
        seen.append(validate)
        return real(g, thetas, actor, validate)

    monkeypatch.setattr(mk, "involution_orbits", spy)
    checks = SUITES["mackey"](RunConfig())
    assert all(c.passed for c in checks)
    configs = len(standard_mackey_configurations() + heisenberg_mackey_configurations())
    assert seen == [True, False] * configs


def test_mackey_suite_derives_each_groups_generators_once(monkeypatch):
    """A p = 3 mackey run on a fresh zoo derives the generators of each
    group it builds once.  A table of at most 64 elements derives them in
    its constructor, for Light's associativity test, so besides the 10
    configuration groups the zoo's character subgroups (and Sp(W), if no
    earlier test built its table) derive theirs, and no group derives them
    twice.  A second run derives only those of the two groups it builds per
    call, H(3, 1) and Sp x| H, as the shared zoo's groups keep theirs.
    Orbits under K still derive K's on every run."""
    import heisweil.groups as groups_mod
    import heisweil.suites as suites_mod

    whole, parts = [], []
    real = groups_mod.generators_within

    def spy(g, members):
        members = list(members)
        (whole if len(set(members)) == g.order else parts).append((id(g), g.order))
        return real(g, members)

    for module in (groups_mod, mk):
        monkeypatch.setattr(module, "generators_within", spy)
    suites_mod._mackey_zoo.cache_clear()
    runs = []
    for _ in range(2):
        whole.clear()
        parts.clear()
        checks = SUITES["mackey"](RunConfig())
        assert all(c.passed for c in checks)
        runs.append((list(whole), list(parts)))
    (first, first_parts), (second, second_parts) = runs
    zoo = {(id(tg), tg.order) for _, tg, *_ in standard_mackey_configurations()}
    assert len(first) == len(set(first)) and len(zoo) == 8
    assert zoo < set(first) and {27, 648} <= {order for _, order in first}
    assert sorted(order for _, order in second) == [27, 648]
    assert len(set(second)) == 2 and not zoo & set(second)
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    assert len({id(tg) for _, tg, *_ in configs}) == 10
    # one K-orbit call per configuration with K proper; K = G reads G's
    proper = sum(len(k) < tg.order for _, tg, k, *_ in configs)
    assert len(first_parts) == len(second_parts) == proper


def test_h1_bound_two_for_theta_trivial_on_center():
    # theta trivial on a C2 center: Z^1 = Z, B^1 = {e}, bound = 2
    q8 = quaternion_group()
    ident = InvolutionRecord(tuple(range(8)))
    center = q8.center()
    z1 = [z for z in center if ident.apply(z) == q8.inv(z)]
    b1 = {q8.mul(z, q8.inv(ident.apply(z))) for z in center}
    assert len(z1) == 2 and len(b1) == 1


def test_triangle_bijection_on_zoo():
    for label, tg, k_members, kappa, theta in standard_mackey_configurations()[:8]:
        h = sorted(fixed_subgroup(tg, theta))
        dcs = _reps(tg, k_members, h)
        classes = twisted_classes(tg, k_members, theta)
        assert len(dcs) == len(classes), label
        images = set()
        for x in dcs:
            tw = tg.mul(x, tg.inv(theta.apply(x)))
            images.add(next(i for i, c in enumerate(classes) if tw in c))
        assert images == set(range(len(classes))), label


def test_orbmult_formula_s3(s3, a3):
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    for chi in _abelian_characters(s3, a3, 3):
        lhs, rhs = _orbmult(s3, a3, chi, theta)
        assert lhs == rhs


def test_orbmult_reduces_to_hom_dim_when_K_is_G(s3):
    from heisweil.reps import hom_dim

    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    triv = _trivial_rep(s3, range(6))
    lhs, rhs = _orbmult(s3, list(range(6)), triv, theta)
    assert lhs == rhs == hom_dim(triv, sorted(fixed_subgroup(s3, theta)))


def test_contragredient_multiplicities_match(s3, a3):
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    h = sorted(fixed_subgroup(s3, theta))
    for chi in _abelian_characters(s3, a3, 3):
        num, den = batch_from_matrices(
            [chi.image(s3.inv(k)).transpose() for k in a3], 3
        )
        chi_tilde = MatrixRep(s3, a3, num, den, 3)
        assert induced_hom_dim_oracle(s3, a3, chi, h) == (
            induced_hom_dim_oracle(s3, a3, chi_tilde, h)
        )


def test_two_dimensional_kappa():
    # the standard 2-dimensional representation of S3 as kappa, K = G
    s3 = symmetric_group(3)

    rot = next(a for a in range(6) if s3.element_order(a) == 3)
    flip = next(a for a in range(6) if s3.element_order(a) == 2)
    w = root_of_unity(3, 1)
    n = 3
    gen_images = {
        rot: CycMatrix(n, [[w, CycNumber.zero(n)], [CycNumber.zero(n), w**2]]),
        flip: CycMatrix(
            n, [[CycNumber.zero(n), CycNumber.one(n)], [CycNumber.one(n), CycNumber.zero(n)]]
        ),
    }
    els = list(range(6))
    images = extend_hom(s3, gen_images, operator.matmul, CycMatrix.identity(n, 2))
    assert images is not None
    num, den = batch_from_matrices([images[g] for g in els], n)
    kappa = MatrixRep(s3, els, num, den, n)
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    lhs, rhs = _orbmult(s3, els, kappa, theta)
    assert lhs == rhs
    h = sorted(fixed_subgroup(s3, theta))
    assert _mackey(s3, els, kappa, h) == induced_hom_dim_oracle(s3, els, kappa, h)


def test_direct_product_and_cyclic():
    c6 = direct_product(cyclic_group(2), cyclic_group(3))
    assert c6.order == 6
    orders = sorted(c6.element_order(a) for a in range(6))
    assert orders == [1, 2, 3, 3, 6, 6]


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


@pytest.mark.parametrize("p,ell", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_heisenberg_table_matches_pairwise_products(p, ell):
    g = HeisenbergGroup(SymplecticSpace(p, ell))
    # reference: the law applied to every pair of names, in sorted order
    names = sorted(
        HElem(w, z)
        for w in itertools.product(range(p), repeat=2 * ell)
        for z in range(p)
    )
    ref = table_group_from_mul(names, _heisenberg_law(g.space), names[0])
    assert g.names == ref.names
    assert np.array_equal(g.table, ref.table)


def test_semidirect_table_matches_pairwise_products():
    space = SymplecticSpace(3, 1)
    tg, g = semidirect_table_group(space)
    # reference: the same group built one product at a time from the law
    law = _heisenberg_law(space)
    sp = sp_table(space)
    names = [(s, h) for s in range(sp.order) for h in g.names]

    def mul(x, y):
        (s1, h1), (s2, h2) = x, y
        s2_inv = sp.matrices[sp.inv(s2)]
        moved = HElem(tuple((s2_inv @ h1.w % 3).tolist()), h1.z)
        return (sp.mul(s1, s2), law(moved, h2))

    ref = table_group_from_mul(names, mul, names[0])
    assert tg.order == 648
    assert [(s, g.names[h]) for s, h in tg.names] == ref.names
    assert np.array_equal(tg.table, ref.table)


def test_semidirect_pair_law_equals_the_table_on_every_pair():
    space = SymplecticSpace(3, 1)
    tg, g = semidirect_table_group(space)
    sp = sp_table(space)
    act = g.linear_action(sp.matrices)
    s, h = np.divmod(np.arange(tg.order), g.order)
    law = semidirect_mul(sp, g, act, s[:, None], h[:, None], s[None], h[None])
    assert np.array_equal(law, tg.table)


def test_semidirect_involution_record_needs_untwisted_alpha():
    # theta(s, h) = (abar s abar^-1, alpha(h)) is an automorphism of Sp x| H
    # for the untwisted alpha (w0 = 0) only; the others are rejected
    tg, g = semidirect_table_group(SymplecticSpace(3, 1))
    alphas = order_two_automorphisms_inverting_center(g)
    untwisted = [a for a in alphas if not any(a.w0)]
    assert (len(alphas), len(untwisted)) == (36, 12)
    for alpha in alphas:
        if alpha in untwisted:
            assert semidirect_involution_record(alpha).is_valid(tg)
        else:
            with pytest.raises(ValueError, match="w0 = 0"):
                semidirect_involution_record(alpha)


def test_involution_record_validity(s3):
    inner = inner_involution(s3, 1)
    assert inner.is_valid(s3)
    transposition = next(a for a in range(1, 6) if s3.element_order(a) == 2)
    other = next(a for a in range(1, 6) if a != transposition)
    swap = list(range(6))
    swap[transposition], swap[other] = other, transposition
    assert not InvolutionRecord(tuple(swap)).is_valid(s3)  # not multiplicative
    assert not InvolutionRecord((1, 2, 0, 3, 4, 5)).is_valid(s3)  # order 3
    assert not InvolutionRecord((0, 0, 2, 3, 4, 5)).is_valid(s3)  # not bijective
    with pytest.raises(ValueError, match="not an involutive automorphism"):
        involution_orbits(s3, [InvolutionRecord(tuple(swap))], range(6))


def test_involution_record_validity_on_a_large_cyclic_group():
    # order 130, one generator: the generator columns against all pairs
    z = cyclic_group(130)
    negation = InvolutionRecord(tuple((-x) % 130 for x in range(130)))
    assert negation.is_valid(z)
    # negation with 30 and 100 fixed is bijective and of order 2 but not
    # multiplicative
    perm = list(negation.perm)
    perm[100], perm[30] = perm[30], perm[100]
    swapped = InvolutionRecord(tuple(perm))
    assert not swapped.is_valid(z)
    p = np.array(perm)
    whole = np.array_equal(p[z.table], z.table[np.ix_(p, p)])
    assert swapped.is_valid(z) == whole


def _zoo_snapshot():
    """Every configuration of the shared zoo as plain data: label, table,
    inverses, K, theta's permutation, and the character rows on K of kappa
    and of the kept kappa~ with kappa~'s images; and the stabilizer cases'
    tables and thetas."""
    import heisweil.suites as suites_mod

    configs, stabilizer, tildes = suites_mod._mackey_zoo()
    return [
        (label, tg.table.tolist(), tg.inverse_of.tolist(), list(k), theta.perm,
         kappa.characters(k).to_json(), tilde.characters(k).to_json(),
         [tilde.image(x).to_json() for x in k])
        for (label, tg, k, kappa, theta), tilde in zip(configs, tildes)
    ] + [(label, tg.table.tolist(), theta.perm) for label, tg, theta in stabilizer]


def test_mackey_zoo_is_shared_read_only_and_unchanged_by_a_run():
    """The zoo is built once per process and handed out as fresh lists of
    the same configurations; every table and inverse array is read-only, K
    is a tuple, kappa and the kept kappa~ hold read-only stacks, kappa~'s
    character row is the traces of its images, and a suite run leaves every
    configuration as it was."""
    import heisweil.suites as suites_mod

    configs, stabilizer, tildes = suites_mod._mackey_zoo()
    first, second = standard_mackey_configurations(), standard_mackey_configurations()
    assert first is not second and first == second == list(configs)
    groups = [tg for _, tg, *_ in configs] + [tg for _, tg, _ in stabilizer]
    for tg in groups:
        assert not tg.table.flags.writeable and not tg.inverse_of.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tg.table[0, 0] = 1
    assert all(type(k) is tuple for _, _, k, *_ in configs)
    assert len(tildes) == len(configs)
    for (*_, k, kappa, _), tilde in zip(configs, tildes):
        fresh = contragredient(kappa)
        assert np.array_equal(tilde.elements, k) and tilde.den == fresh.den
        assert np.array_equal(tilde.num, fresh.num)
        traces = [[tilde.image(x).trace() for x in k]]
        assert tilde.characters(k) == CycMatrix(tilde.conductor, traces)
        for stack in (tilde.num, tilde.elements, kappa.num):
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0
    before = _zoo_snapshot()
    checks = SUITES["mackey"](RunConfig(seed=5))
    assert all(c.passed for c in checks)
    assert _zoo_snapshot() == before


@pytest.mark.parametrize("seed", [0, 11])
def test_mackey_runs_repeat_on_the_shared_zoo_and_after_cache_clear(seed):
    """Two runs in one process and a run on a zoo built anew give the same
    report: checks, counts and witnesses."""
    import heisweil.suites as suites_mod

    def report():
        return [
            (c.check, c.checks, c.passed, c.witness)
            for c in SUITES["mackey"](RunConfig(seed=seed))
        ]

    first, second = report(), report()
    suites_mod._mackey_zoo.cache_clear()
    assert first == second == report()
    assert sum(count for _, count, *_ in first) > 0
