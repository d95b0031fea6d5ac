import copy
import itertools
import json
import operator
import random

import numpy as np
import pytest

from group_oracles import (
    abelian_characters_by_subtable,
    automorphisms_by_candidate,
    character_sum,
    closure,
    heisenberg_mackey_configurations,
    induced_hom_dim_by_loop,
    is_integer,
    table_group_from_mul,
    zoo_group_by_law,
    zoo_groups,
)
from heisweil.checks import Recorder
from heisweil.cli import run
from heisweil.groups import double_coset_labels, extend_hom, generators_within
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
    involution_stabilizer,
    k_orbit_labels,
    m_K,
    mackey_hom_dim,
    orbmult_rhs,
    quaternion_group,
    semidirect_involution_record,
    semidirect_mul,
    semidirect_table_group,
    summed_traces,
    symmetric_group,
    twisted_classes,
)
from heisweil.reps import MatrixRep, contragredient
from heisweil.scalar import CycNumber, root_of_unity
from heisweil.suites import (
    SUITES,
    RunConfig,
    _abelian_characters,
    _trivial_rep,
    standard_mackey_configurations,
)
from heisweil.symplectic import SymplecticSpace
from heisweil.weil import sp_table


def _reps(g, k_sub, h_sub) -> list[int]:
    """The smallest member of each double coset K x H, in label order."""
    return np.unique(double_coset_labels(g, k_sub, h_sub), return_index=True)[1].tolist()


def _theta_cosets(g, k_sub, theta):
    """(the K-orbit labels of theta's G-orbit, S(theta, K.theta)), from
    scratch; S is read through the module, so a substituted s_theta is
    used."""
    k_labels = k_orbit_labels(g, k_sub, theta)
    reps = _reps(g, k_sub, fixed_subgroup(g, theta))
    return k_labels, mk.s_theta(g, 0, reps, k_labels)[k_labels[0]]


def _mackey(g, k_sub, kappa, h_sub) -> int:
    rows = mackey_hom_dim(g, k_sub, h_sub, _reps(g, k_sub, h_sub))
    return summed_traces([kappa], [rows])[0][0]


def _oracle_values(g, k_sub, kappas, h_sub) -> list[int]:
    """The oracle for each of ``kappas``, its row built for the largest."""
    dim = max(kappa.dim for kappa in kappas)
    return summed_traces(kappas, [induced_hom_dim_oracle(g, k_sub, h_sub, dim)])[0]


def _oracle(g, k_sub, kappa, h_sub) -> int:
    return _oracle_values(g, k_sub, [kappa], h_sub)[0]


def _test_beds(configs) -> list[list]:
    """The configurations in maximal runs that share (group, K, theta)."""

    def bed_of(config):
        _, tg, k_members, _, theta = config
        return id(tg), tuple(k_members), theta.perm

    return [list(run) for _, run in itertools.groupby(configs, key=bed_of)]


def _orbmult(g, k_sub, kappa, theta) -> tuple[int, int]:
    """Both sides of the orbit multiplicity formula: the oracle, and m_K
    times the sum over K-orbits."""
    k_labels, cosets = _theta_cosets(g, k_sub, theta)
    m, _ = m_K(g, k_sub, theta, cosets)
    lhs = _oracle(g, k_sub, kappa, sorted(fixed_subgroup(g, theta)))
    rows = orbmult_rhs(g, k_sub, theta, k_labels)
    return lhs, m * summed_traces([kappa], [rows])[0][0]


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
    shapes = {r"\(\)": np.int64(5), r"\(2,\)": [0, 1], r"\(1, 2\)": [[0, 1]]}
    for shape, table in shapes.items():
        with pytest.raises(ValueError, match=f"must be square; got shape {shape}$"):
            TableGroup(table)
    for names in (["e"], ["e", "a", "b"]):
        with pytest.raises(ValueError, match=f"name the 2 elements; got {len(names)}$"):
            TableGroup([[0, 1], [1, 0]], names=names)


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
        assert _oracle(s3, a3, chi, c2) == 1
    triv = _trivial_rep(s3, a3)
    assert _mackey(s3, a3, triv, list(range(6))) == 1  # Frobenius


def test_oracle_equals_mackey_on_full_zoo():
    for label, tg, k_members, kappa, theta in standard_mackey_configurations():
        h_members = sorted(fixed_subgroup(tg, theta))
        assert _mackey(tg, k_members, kappa, h_members) == (
            _oracle(tg, k_members, kappa, h_members)
        ), label


def test_oracle_equals_mackey_on_heisenberg_configs():
    for label, tg, k_members, kappa, theta in heisenberg_mackey_configurations():
        h_members = sorted(fixed_subgroup(tg, theta))
        assert _mackey(tg, k_members, kappa, h_members) == (
            _oracle(tg, k_members, kappa, h_members)
        ), label


def test_invstab_on_zoo_groups():
    for tg in (symmetric_group(3), dihedral_group(4), quaternion_group()):
        center = tg.center()
        theta = next(
            t for t in all_involutive_automorphisms(tg) if not t.is_identity()
        )
        stabilizer = set(involution_stabilizer(tg, theta).tolist())
        for a in range(tg.order):
            stab = conjugate_involution(tg, a, theta).perm == theta.perm
            assert stab == (tg.mul(a, tg.inv(theta.apply(a))) in center)
            assert stab == (a in stabilizer)


def _conjugates(g, theta) -> list[tuple]:
    """a.theta for every conjugator a, one conjugate_involution each."""
    return [conjugate_involution(g, a, theta).perm for a in range(g.order)]


def test_involution_stabilizer_is_where_the_conjugate_is_theta():
    """The lemma a.theta = Int(a theta(a)^-1) o theta on every bed's group,
    Sp x| H(3) among them: a fixes theta exactly when its twist is central,
    against one conjugate_involution per a."""
    for bed in _test_beds(_suite_configurations()):
        label, tg, _, _, theta = bed[0]
        stab = [a for a, perm in enumerate(_conjugates(tg, theta)) if perm == theta.perm]
        center = tg.center()
        central = [
            a for a in range(tg.order) if tg.mul(a, tg.inv(theta.apply(a))) in center
        ]
        assert involution_stabilizer(tg, theta).tolist() == stab == central, label


def test_k_orbit_labels_partition_the_g_orbit_as_the_closure_does():
    """On all 30 configurations, the K-orbits of theta's G-orbit read off
    the (K, G_theta) labels of the conjugators are the orbits of the
    breadth-first closure, as a set partition, numbered in the order of
    their smallest conjugators."""
    for label, tg, k_sub, _, theta in _suite_configurations():
        labels = k_orbit_labels(tg, k_sub, theta)
        conjugates = _conjugates(tg, theta)
        (orbit,) = closure_orbits(tg, [theta], range(tg.order))
        assert set(conjugates) == set(orbit), label
        parts = [set() for _ in range(labels.max() + 1)]
        for a, perm in enumerate(conjugates):
            parts[labels[a]].add(perm)
        thetas = [InvolutionRecord(perm) for perm in orbit]
        expected = {frozenset(o) for o in closure_orbits(tg, thetas, k_sub)}
        assert {frozenset(part) for part in parts} == expected, label
        assert len(parts) == len(expected), label
        firsts = np.unique(labels, return_index=True)[1]
        assert labels[0] == 0 and (np.diff(firsts) > 0).all(), label


def test_k_orbit_labels_under_the_trivial_actor(s3):
    """K = 1: every K-orbit is one involution, one per left coset of G_theta."""
    for theta in _nontrivial_s3(s3):
        labels = k_orbit_labels(s3, [0], theta)
        conjugates = _conjugates(s3, theta)
        assert labels.max() + 1 == len(set(conjugates))
        for a in range(6):
            for b in range(6):
                same = conjugates[a] == conjugates[b]
                assert (labels[a] == labels[b]) == same


def test_k_orbit_labels_reject_a_non_subgroup_actor(s3):
    rot = next(a for a in range(6) if s3.orders[a] == 3)
    with pytest.raises(ValueError, match="need subgroups"):
        k_orbit_labels(s3, [0, rot], _nontrivial_s3(s3)[0])


def test_inner_involutions_by_transpositions_form_one_orbit(s3):
    transpositions = [
        a for a in range(1, 6) if s3.orders[a] == 2
    ]
    invs = [inner_involution(s3, a) for a in transpositions]
    theta = invs[0]
    assert k_orbit_labels(s3, range(6), theta).max() == 0
    assert set(_conjugates(s3, theta)) == {t.perm for t in invs}
    left_cosets = s3.table[:, involution_stabilizer(s3, theta)].min(axis=1)
    assert len(np.unique(left_cosets)) == 3


def _nontrivial_s3(s3):
    return [t for t in all_involutive_automorphisms(s3) if not t.is_identity()]


def test_s_theta_central_twist_characterization(s3, a3):
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    members = _theta_cosets(s3, a3, theta)[1]
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
    m, bound = m_K(s3, a3, theta, _theta_cosets(s3, a3, theta)[1])
    assert m == 1 and bound == 1  # trivial center: Z^1 = B^1 = {e}


def test_m_K_bound_two_on_quaternions():
    q8 = quaternion_group()
    theta = inner_involution(q8, 2)  # Int(i): order two modulo the center
    k = sorted(q8.subgroup_generated([2]))  # <i> contains the center
    m, bound = m_K(q8, k, theta, _theta_cosets(q8, k, theta)[1])
    assert bound == 2 and m <= 2


def test_multiplicity_bound_failure_is_recorded_with_its_witness(monkeypatch):
    import heisweil.mackey as mk
    from heisweil.suites import SUITES, RunConfig

    # the first configuration with Z <= K, the first one the bound applies to
    for label, tg, k_members, kappa, theta in standard_mackey_configurations():
        m, bound = m_K(tg, k_members, theta, _theta_cosets(tg, k_members, theta)[1])
        if bound is not None:
            break
    key = k_orbit_labels(tg, k_members, theta)
    real = mk.s_theta

    def extra_cosets(g, a, reps, k_labels):
        split = real(g, a, reps, k_labels)
        if g is tg and a == 0 and np.array_equal(k_labels, key):
            mine = k_labels[0]
            split[mine] = split[mine] + list(range(bound + 1))
        return split

    monkeypatch.setattr(mk, "s_theta", extra_cosets)
    cosets = _theta_cosets(tg, k_members, theta)[1]
    assert mk.m_K(tg, k_members, theta, cosets) == (m + bound + 1, bound)
    checks = SUITES["mackey"](RunConfig())
    check = next(c for c in checks if c.check == "mackey.multiplicity_bound")
    assert not check.passed
    assert check.witness == {"config": label, "m_K": m + bound + 1, "h1_bound": bound}
    assert check.checks == 28


def test_one_partition_and_one_oracle_call_per_test_bed(monkeypatch):
    """A p = 3 mackey run partitions each fixed subgroup once per test bed
    (47 partitions, for theta's three smallest-conjugator conjugates and
    each seeded g.theta) and G by (K, G_theta) once per bed (19 more),
    builds the oracle row once per bed, and makes one projector_traces
    call per bed, for the oracle, Mackey and orbit
    multiplicity rows on every kappa and kappa~ of the bed at once (19 of
    each for the 19 beds of the 30 configurations)."""
    import heisweil.groups as groups_mod
    import heisweil.reps as reps_mod
    import heisweil.suites as suites_mod
    from heisweil.suites import SUITES, RunConfig

    calls = {
        "double_coset_labels": 0,
        "induced_hom_dim_oracle": 0,
        "projector_traces": 0,
    }

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
    # hom_dims reads the one in reps, the Mackey sums the one in mackey
    spy = counted(reps_mod, "projector_traces")
    for module in (reps_mod, mk):
        monkeypatch.setattr(module, "projector_traces", spy)
    checks = SUITES["mackey"](RunConfig())
    assert all(c.passed for c in checks)
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    assert (len(configs), len(_test_beds(configs))) == (30, 19)
    assert calls == {
        "double_coset_labels": 47 + 19,
        "induced_hom_dim_oracle": 19,
        "projector_traces": 19,
    }


def test_per_bed_sums_equal_the_separate_values_on_every_configuration():
    """On every bed, the one summed_traces call of the suite (oracle, Mackey
    and orbit multiplicity rows, every kappa and kappa~) equals a call per
    part and per kappa, and the values of each of the 30 configurations
    agree: Mackey sum = oracle = m_K times the orbit sum = oracle on kappa~."""
    configs = _suite_configurations()
    seen = 0
    for bed in _test_beds(configs):
        _, tg, k_sub, _, theta = bed[0]
        kappas = [kappa for *_, kappa, _ in bed]
        both = kappas + [contragredient(kappa) for kappa in kappas]
        h_sub = sorted(fixed_subgroup(tg, theta))
        k_labels, cosets = _theta_cosets(tg, k_sub, theta)
        m, _ = m_K(tg, k_sub, theta, cosets)
        dim = max(kappa.dim for kappa in both)
        parts = [
            induced_hom_dim_oracle(tg, k_sub, h_sub, dim),
            mackey_hom_dim(tg, k_sub, h_sub, _reps(tg, k_sub, h_sub)),
            orbmult_rhs(tg, k_sub, theta, k_labels),
        ]
        merged = summed_traces(both, parts)
        separate = [
            [summed_traces([kappa], [part])[0][0] for kappa in both] for part in parts
        ]
        assert merged == separate
        oracle, mackey, summands = merged
        for i, (label, *_) in enumerate(bed):
            assert mackey[i] == oracle[i] == m * summands[i], label
            assert oracle[i] == oracle[len(bed) + i], label
            assert oracle[i] == _oracle(tg, k_sub, kappas[i], h_sub), label
            assert mackey[i] == _mackey(tg, k_sub, kappas[i], h_sub), label
            assert (oracle[i], m * summands[i]) == _orbmult(tg, k_sub, kappas[i], theta)
            seen += 1
    assert seen == len(configs) == 30


def test_oracle_guard_names_its_limit():
    z = cyclic_group(130)  # K = 1, H = G: (130 * 1)^2 * 130 entries
    triv = _trivial_rep(z, [0])
    with pytest.raises(ValueError, match="<= 200000; got 2197000"):
        induced_hom_dim_oracle(z, [0], range(130), triv.dim)


def test_automorphism_search_guards_name_their_limits():
    c2 = cyclic_group(2)
    c2_4 = direct_product(direct_product(c2, c2), direct_product(c2, c2))
    with pytest.raises(ValueError, match="<= 3 generators; got 4"):
        all_involutive_automorphisms(c2_4)
    with pytest.raises(ValueError, match="guarded to order <= 24"):
        all_involutive_automorphisms(direct_product(symmetric_group(4), c2))


def _twisted_class_labels_by_closure(tg, k_members, theta) -> list[int]:
    """The reference: for every x, the number of the K-orbit of its twist
    x theta(x)^-1 under k . y = k y theta(k)^-1, the orbits closed
    breadth-first from each smallest unreached twist, one g.mul at a time."""
    twists = [tg.mul(x, tg.inv(theta.apply(x))) for x in range(tg.order)]
    unreached, orbits = set(twists), []
    while unreached:
        orbit = closure(
            [min(unreached)],
            k_members,
            lambda y, k: tg.mul(tg.mul(k, y), tg.inv(theta.apply(k))),
        )
        unreached -= set(orbit)
        orbits.append(orbit)
    class_of = {y: i for i, orbit in enumerate(orbits) for y in orbit}
    return [class_of[y] for y in twists]


def test_twisted_classes_match_the_closure_reference():
    """The class of every x's twist against the breadth-first closure: same
    classes, numbered alike, on every zoo configuration and the three
    H(3, 1) and Sp x| H(3) beds, whose int16 table has 12 classes."""
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    counts = {}
    for label, tg, k_members, kappa, theta in configs:
        classes = twisted_classes(tg, k_members, theta)
        expected = _twisted_class_labels_by_closure(tg, k_members, theta)
        assert classes.tolist() == expected, label
        counts[label] = max(expected) + 1
    assert counts["SpH3/H/tau/polar"] == 12


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


def test_mackey_suite_validates_each_theta_once(monkeypatch):
    """The suite checks theta once per test bed, when it labels the
    K-orbits of theta's G-orbit, and the conjugates of a checked theta
    never."""
    import heisweil.suites as suites_mod

    suites_mod._mackey_zoo(), suites_mod._heisenberg_beds()
    seen, real = [], InvolutionRecord.is_valid

    def spy(theta, g):
        seen.append(theta.perm)
        return real(theta, g)

    monkeypatch.setattr(InvolutionRecord, "is_valid", spy)
    checks = SUITES["mackey"](RunConfig())
    assert all(c.passed for c in checks)
    beds = _test_beds(_suite_configurations())
    assert seen == [bed[0][4].perm for bed in beds] and len(seen) == 19


def test_mackey_suite_derives_each_groups_generators_once(monkeypatch):
    """A p = 3 mackey run on a fresh zoo and fresh Heisenberg beds derives
    the generators of each group it builds once.  A table of at most 64
    elements derives them in its constructor, for Light's associativity
    test, so besides the 10 configuration groups the zoo's character
    subgroups (and Sp(W), if no earlier test built its table) derive
    theirs, and no group derives them twice.  The generators of a K are
    derived only for the zoo's characters, each (group, K) once: the
    K-orbits are double cosets and read none.  A second run derives none:
    every configuration group, H(3, 1) and Sp x| H among them, is built
    once per process and keeps its generators and those of each K."""
    import heisweil.groups as groups_mod
    import heisweil.suites as suites_mod

    whole, parts = [], []
    real = groups_mod.generators_within

    def spy(g, members):
        members = frozenset(members)
        if len(members) == g.order:
            whole.append((id(g), g.order))
        else:
            parts.append((id(g), g.order, members))
        return real(g, members)

    monkeypatch.setattr(groups_mod, "generators_within", spy)
    suites_mod._mackey_zoo.cache_clear()
    suites_mod._heisenberg_beds.cache_clear()
    mk.semidirect_table_group.cache_clear()
    runs = []
    for _ in range(2):
        whole.clear()
        parts.clear()
        checks = SUITES["mackey"](RunConfig())
        assert all(c.passed for c in checks)
        runs.append((list(whole), list(parts)))
    (first, first_parts), (second, second_parts) = runs
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    groups = {(id(tg), tg.order) for _, tg, *_ in configs}
    assert len(first) == len(set(first)) and len(groups) == 10
    assert groups < set(first) and {27, 648} <= {order for _, order in groups}
    assert second == [] and second_parts == []
    # a K of a zoo bed with characters, each once; none of H(3, 1) or Sp x| H
    beds = _test_beds(configs)
    proper = {(tg.order, frozenset(k)) for (_, tg, k, *_), *_ in beds if len(k) < tg.order}
    assert len(first_parts) == len(set(first_parts))
    derived = {(order, k) for _, order, k in first_parts}
    assert derived < proper and not {27, 648} & {order for order, _ in derived}


def test_h1_bound_two_for_theta_trivial_on_center():
    # theta trivial on a C2 center: Z^1 = Z, B^1 = {e}, bound = 2
    q8 = quaternion_group()
    ident = InvolutionRecord(tuple(range(8)))
    center = q8.center()
    z1 = [z for z in center if ident.apply(z) == q8.inv(z)]
    b1 = {q8.mul(z, q8.inv(ident.apply(z))) for z in center}
    assert len(z1) == 2 and len(b1) == 1


def test_triangle_bijection_on_zoo():
    """x -> x theta(x)^-1 sends the smallest members of the double cosets
    K x G^theta one-to-one onto the twisted classes of the closure
    reference."""
    for label, tg, k_members, kappa, theta in standard_mackey_configurations()[:8]:
        h = sorted(fixed_subgroup(tg, theta))
        dcs = _reps(tg, k_members, h)
        expected = _twisted_class_labels_by_closure(tg, k_members, theta)
        assert twisted_classes(tg, k_members, theta).tolist() == expected, label
        assert sorted(expected[x] for x in dcs) == list(range(max(expected) + 1))


def test_triangle_failure_is_recorded_with_the_configuration_label(monkeypatch):
    """With the first two twisted classes merged, the double cosets of a
    configuration with two classes or more outnumber its classes: the
    triangle check fails, with the first such configuration's label as its
    witness, and no other check reads the classes."""
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    real = mk.twisted_classes
    label = next(
        label for label, tg, k, _, theta in configs if real(tg, k, theta).max() > 0
    )

    def merged(g, k_sub, theta):
        return np.maximum(real(g, k_sub, theta) - 1, 0)

    monkeypatch.setattr(mk, "twisted_classes", merged)
    report = _report(SUITES["mackey"](RunConfig()))
    failing = [(name, count, witness) for name, count, ok, witness in report if not ok]
    assert failing == [("mackey.triangle_bijection", 30, label)]


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
        assert _oracle(s3, a3, chi, h) == _oracle(s3, a3, chi_tilde, h)


def test_two_dimensional_kappa():
    """The standard 2-dimensional representation of S3 as kappa, K = G: the
    extension of its generator images passes the certificate.  With the
    scalar w in place of diag(w, w^2) as the rotation's image (still of
    order 3, but it commutes with the flip's image, and rot does not commute
    with flip) the extension fails it."""
    s3 = symmetric_group(3)

    rot = next(a for a in range(6) if s3.orders[a] == 3)
    flip = next(a for a in range(6) if s3.orders[a] == 2)
    w = root_of_unity(3, 1)
    n = 3
    zero, one = CycNumber.zero(n), CycNumber.one(n)
    swap = CycMatrix(n, [[zero, one], [one, zero]])
    els = list(range(6))

    def kappa_of(rot_image):
        images = extend_hom(
            s3, {rot: rot_image, flip: swap}, operator.matmul, CycMatrix.identity(n, 2)
        )
        num, den = batch_from_matrices([images[g] for g in els], n)
        return MatrixRep(s3, els, num, den, n)

    assert not kappa_of(CycMatrix(n, [[w, zero], [zero, w]])).verify_homomorphism()
    kappa = kappa_of(CycMatrix(n, [[w, zero], [zero, w**2]]))
    assert kappa.verify_homomorphism()
    theta = next(
        t for t in all_involutive_automorphisms(s3) if not t.is_identity()
    )
    lhs, rhs = _orbmult(s3, els, kappa, theta)
    assert lhs == rhs
    h = sorted(fixed_subgroup(s3, theta))
    assert _mackey(s3, els, kappa, h) == _oracle(s3, els, kappa, h)


@pytest.mark.parametrize(
    "label", [label for label, tg in zoo_groups().items() if tg.order <= 24]
)
def test_stacked_automorphism_search_matches_the_per_candidate_search(label):
    """All candidate tuples extended as one stack and proved by is_valid
    give the list, sorted by ``perm``, that extending one candidate at a
    time with every edge compared gives."""
    tg = zoo_groups()[label]
    found = all_involutive_automorphisms(tg)
    assert [t.perm for t in found] == sorted(t.perm for t in found)
    assert found == sorted(automorphisms_by_candidate(tg), key=lambda t: t.perm)
    assert all(theta.is_valid(tg) for theta in found)


@pytest.mark.parametrize(
    "label", [label for label, tg in zoo_groups().items() if tg.order <= 24]
)
def test_automorphism_search_does_not_depend_on_the_generating_set(label):
    """The generators in reverse order give other candidate tuples in
    another order, and the same sorted list."""
    tg = zoo_groups()[label]
    other = copy.copy(tg)
    other.generators = tuple(reversed(tg.generators))
    assert all_involutive_automorphisms(other) == all_involutive_automorphisms(tg)


def _abelian_subgroups(tg) -> list:
    """The abelian subgroups generated by one or two elements, by size."""
    n = tg.order
    subs = {tg.subgroup_generated([a, b]) for a in range(n) for b in range(a, n)}
    abelian = [
        k for k in subs if all(tg.mul(x, y) == tg.mul(y, x) for x in k for y in k)
    ]
    return sorted(abelian, key=lambda k: (len(k), sorted(k)))


@pytest.mark.parametrize("label", list(zoo_groups()))
def test_abelian_characters_match_the_subtable_oracle(label):
    """On every abelian subgroup generated by one or two elements of each
    zoo group, at conductors 2, 3, 4, 6, 8 and 12 (the zoo's own K and
    conductors among them): the same characters, with the same stacks, as
    extending on a table of the subgroup with every edge compared and
    deduplicating by values, from generators the oracle finds itself; and
    in the order of their root exponents on ``generators_within``."""
    tg = zoo_groups()[label]

    def stack(chi):
        return chi.elements.tolist(), chi.num.tolist(), chi.den

    for k in _abelian_subgroups(tg):
        members = sorted(k)
        gens = generators_within(tg, members)
        for n in (2, 3, 4, 6, 8, 12):
            got = _abelian_characters(tg, members, n)
            expected = abelian_characters_by_subtable(tg, members, n)
            assert sorted(map(stack, got)) == sorted(map(stack, expected)), (members, n)
            roots = [root_of_unity(n, e) for e in range(n)]
            exps = [tuple(roots.index(chi.image(a)[0, 0]) for a in gens) for chi in got]
            assert exps == sorted(exps), (members, n)
            if all(n % tg.orders[x] == 0 for x in k):
                assert len(got) == len(k)  # K is abelian of exponent dividing n


@pytest.mark.parametrize("label", list(zoo_groups()))
def test_inner_involutions_match_the_per_element_loop(label):
    """Int(a) for every a, and the a with a^2 central deduplicated by
    permutation in index order, against one conjugation at a time."""
    tg = zoo_groups()[label]
    center = tg.center()
    by_element = [
        tuple(tg.conjugate(a, x) for x in range(tg.order)) for a in range(tg.order)
    ]
    assert [inner_involution(tg, a).perm for a in range(tg.order)] == by_element
    expected = {}
    for a in range(tg.order):
        if tg.mul(a, a) in center:
            expected.setdefault(by_element[a], None)
    assert [theta.perm for theta in inner_involutions(tg)] == list(expected)


def _direct_product_by_mul(g1, g2):
    """The reference: one ``mul`` call per pair, through table_group_from_mul."""
    els = [(a, b) for a in range(g1.order) for b in range(g2.order)]

    def mul(x, y):
        return (g1.mul(x[0], y[0]), g2.mul(x[1], y[1]))

    return table_group_from_mul(els, mul, (0, 0))


def _by_broadcast(label: str) -> TableGroup:
    """C_n, D_n, S_n, Q8 or S_n x C2 by the package's array laws."""
    if label.endswith("xC2"):
        return direct_product(_by_broadcast(label[:2]), cyclic_group(2))
    build = {"C": cyclic_group, "D": dihedral_group, "S": symmetric_group}
    return quaternion_group() if label == "Q8" else build[label[0]](int(label[1:]))


def _by_mul(label: str) -> TableGroup:
    """The same group through table_group_from_mul, one ``mul`` call per
    pair; a direct product from the references of its factors."""
    if label.endswith("xC2"):
        return _direct_product_by_mul(_by_mul(label[:2]), _by_mul("C2"))
    return zoo_group_by_law(label[0], int(label[1:]))


@pytest.mark.parametrize(
    "label",
    ["C2", "C3", "C4", "C5", "C6", "S3", "S4", "D4", "D5", "D6", "Q8", "S3xC2", "S4xC2"],
)
def test_zoo_laws_equal_the_table_group_from_mul_oracle(label):
    """Each broadcast law gives the table, dtype and names, in the same
    index order, that one ``mul`` call per pair gives."""
    got, expected = _by_broadcast(label), _by_mul(label)
    assert np.array_equal(got.table, expected.table)
    assert got.table.dtype == expected.table.dtype
    assert got.names == expected.names
    assert [type(name) for name in got.names] == [type(name) for name in expected.names]


def test_direct_product_equals_the_table_of_its_multiplication_map():
    """The broadcast table, its names and their index order are those of
    table_group_from_mul on S3 x C2, S4 x C2 and C2^4."""
    s3, s4, c2 = symmetric_group(3), symmetric_group(4), cyclic_group(2)
    c2_2, c2_2_by_mul = direct_product(c2, c2), _direct_product_by_mul(c2, c2)
    cases = [
        ((s3, c2), (s3, c2)),
        ((s4, c2), (s4, c2)),
        ((c2_2, c2_2), (c2_2_by_mul, c2_2_by_mul)),
    ]
    for factors, reference_factors in cases:
        got = direct_product(*factors)
        expected = _direct_product_by_mul(*reference_factors)
        assert got.order == expected.order
        assert np.array_equal(got.table, expected.table)
        assert got.table.dtype == expected.table.dtype
        assert got.names == expected.names


def test_direct_product_and_cyclic():
    c6 = direct_product(cyclic_group(2), cyclic_group(3))
    assert c6.order == 6
    assert sorted(c6.orders.tolist()) == [1, 2, 3, 3, 6, 6]


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
    g = HeisenbergGroup(space)
    tg = semidirect_table_group(g.space)
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
    g = HeisenbergGroup(space)
    tg = semidirect_table_group(g.space)
    sp = sp_table(space)
    act = g.linear_action(sp.matrices)
    s, h = np.divmod(np.arange(tg.order), g.order)
    law = semidirect_mul(sp, g, act, s[:, None], h[:, None], s[None], h[None])
    assert np.array_equal(law, tg.table)


def test_semidirect_involution_record_needs_untwisted_alpha():
    # theta(s, h) = (abar s abar^-1, alpha(h)) is an automorphism of Sp x| H
    # for the untwisted alpha (w0 = 0) only; the others are rejected
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    tg = semidirect_table_group(g.space)
    alphas = order_two_automorphisms_inverting_center(g)
    untwisted = ~alphas.w0.any(axis=1)
    assert (len(alphas), untwisted.sum()) == (36, 12)
    for i, w0 in enumerate(alphas.w0.tolist()):
        if untwisted[i]:
            assert semidirect_involution_record(alphas, i).is_valid(tg)
        else:
            message = rf"^alpha must have w0 = 0; got w0 = \({w0[0]}, {w0[1]}\)$"
            with pytest.raises(ValueError, match=message):
                semidirect_involution_record(alphas, i)


def test_involution_record_validity(s3):
    inner = inner_involution(s3, 1)
    assert inner.is_valid(s3)
    transposition = next(a for a in range(1, 6) if s3.orders[a] == 2)
    other = next(a for a in range(1, 6) if a != transposition)
    swap = list(range(6))
    swap[transposition], swap[other] = other, transposition
    assert not InvolutionRecord(tuple(swap)).is_valid(s3)  # not multiplicative
    assert not InvolutionRecord((1, 2, 0, 3, 4, 5)).is_valid(s3)  # order 3
    assert not InvolutionRecord((0, 0, 2, 3, 4, 5)).is_valid(s3)  # not bijective
    with pytest.raises(ValueError, match="not an involutive automorphism"):
        k_orbit_labels(s3, range(6), InvolutionRecord(tuple(swap)))


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


def test_semidirect_table_and_heisenberg_beds_are_built_once_per_process(monkeypatch):
    """From cleared caches, Sp x| H is tabulated once (one
    :func:`semidirect_mul` call) and the Heisenberg beds are built once (one
    tau), however often the table, the beds and the mackey suite are read;
    each read hands out the same groups, reps and thetas, in a fresh list."""
    import heisweil.reps as reps_mod
    import heisweil.suites as suites_mod

    calls = {"semidirect_mul": 0, "heisenberg_rep": 0}
    for module, name in ((mk, "semidirect_mul"), (reps_mod, "heisenberg_rep")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    suites_mod._heisenberg_beds.cache_clear()
    mk.semidirect_table_group.cache_clear()
    space = SymplecticSpace(3, 1)
    tg = semidirect_table_group(space)
    first = heisenberg_mackey_configurations()
    for _ in range(2):
        assert semidirect_table_group(SymplecticSpace(3, 1)) is tg
        assert all(c.passed for c in SUITES["mackey"](RunConfig(p=5)))
        again = heisenberg_mackey_configurations()
        assert again is not first and again == first
    assert calls == {"semidirect_mul": 1, "heisenberg_rep": 1}
    assert first[2][1] is tg and tg.table.dtype == np.int16


def test_semidirect_table_and_heisenberg_beds_are_read_only():
    """Sp x| H's table and inverses, H(3, 1)'s, and the stacks of tau and
    of every kappa~ of the beds refuse writes."""
    import heisweil.suites as suites_mod

    configs, tildes = suites_mod._heisenberg_beds()
    tau = next(kappa for label, *_, kappa, _ in configs if label == "H3/G/tau/polar")
    arrays = [tau.num, tau.cols, *(tilde.num for tilde in tildes)]
    for tg in {id(tg): tg for _, tg, *_ in configs}.values():
        arrays += [tg.table, tg.inverse_of]
    assert len(arrays) == 2 + 3 + 4
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("p, ell", [(5, 1), (7, 1), (3, 2)])
def test_semidirect_table_is_guarded_to_p3(p, ell):
    """Past p = 3 the table would take 1.8 GB (p = 5); the guard names the
    limit and builds nothing."""
    from heisweil.symplectic import GuardError

    with pytest.raises(GuardError, match="ell = 1, p <= 3 only"):
        semidirect_table_group(SymplecticSpace(p, ell))


def test_weil_certificate_and_mackey_bed_read_one_semidirect_table(monkeypatch):
    """The weil suite's abstract-lift certificate runs on the very Sp x| H
    group of the mackey bed SpH3/H/tau/polar."""
    import heisweil.reps as reps_mod

    groups = []
    real = reps_mod.homomorphism_certificate

    def spy(group, *args):
        groups.append(group)
        return real(group, *args)

    monkeypatch.setattr(reps_mod, "homomorphism_certificate", spy)
    assert all(c.passed for c in SUITES["weil"](RunConfig(p=3)))
    sd = [g for g in groups if g.order == 648]
    configs = heisenberg_mackey_configurations()
    bed = next(tg for label, tg, *_ in configs if label == "SpH3/H/tau/polar")
    assert len(sd) == 1 and sd[0] is bed is semidirect_table_group(SymplecticSpace(3, 1))


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


# -- the batched oracle, the weighted kernel and the per-bed suite -----------------


def _suite_configurations():
    return standard_mackey_configurations() + heisenberg_mackey_configurations()


def _conjugates_in_k(g, k_sub, h_sub, x) -> list[int]:
    """K ^ xHx^-1, one product at a time."""
    return sorted({g.mul(g.mul(x, y), g.inv(x)) for y in h_sub} & set(k_sub))


def test_batched_oracle_and_sums_match_the_per_kappa_references():
    """On every test bed of the suite (the zoo, H(3, 1) and Sp x| H(3)),
    every kappa and kappa~ at once: the oracle equals the loop oracle, and
    the Mackey sum and the orbit multiplicity right side equal their
    summands as character sums over |K ^ xHx^-1|, one kappa at a time."""
    for bed in _test_beds(_suite_configurations()):
        label, tg, k_sub, _, theta = bed[0]
        kappas = [kappa for *_, kappa, _ in bed]
        kappas += [contragredient(kappa) for kappa in kappas]
        h_sub = sorted(fixed_subgroup(tg, theta))
        expected = [induced_hom_dim_by_loop(tg, k_sub, kap, h_sub) for kap in kappas]
        assert _oracle_values(tg, k_sub, kappas, h_sub) == expected, label

        def summed(subgroups):
            totals = []
            for kappa in kappas:
                terms = [character_sum(kappa, sub) / len(sub) for sub in subgroups]
                assert all(is_integer(term) for term in terms), label
                totals.append(sum(int(term.rational_value()) for term in terms))
            return totals

        reps = _reps(tg, k_sub, h_sub)
        conj = [_conjugates_in_k(tg, k_sub, h_sub, x) for x in reps]
        rows = mackey_hom_dim(tg, k_sub, h_sub, reps)
        assert summed_traces(kappas, [rows])[0] == summed(conj), label
        k_labels, cosets = _theta_cosets(tg, k_sub, theta)
        m, _ = m_K(tg, k_sub, theta, cosets)
        # K ^ G^theta' for theta' = a.theta, a the smallest of its K-orbit
        firsts = np.unique(k_labels, return_index=True)[1].tolist()
        moved = [conjugate_involution(tg, a, theta) for a in firsts]
        fixed = [sorted(fixed_subgroup(tg, t) & set(k_sub)) for t in moved]
        rhs = [m * total for total in summed(fixed)]
        (summands,) = summed_traces(kappas, [orbmult_rhs(tg, k_sub, theta, k_labels)])
        assert [m * summand for summand in summands] == rhs, label
        assert rhs == expected, label


def test_s_theta_matches_one_conjugation_per_representative():
    """The one gather splits the double cosets of theta and of a seeded
    g.theta (seeds 0 and 1) as one conjugate_involution per representative
    does, each x.(g.theta) placed in its K-orbit, in the same order."""
    rngs = [random.Random(seed) for seed in (0, 1)]
    for label, tg, k_sub, _, theta in _suite_configurations():
        k_labels = k_orbit_labels(tg, k_sub, theta)
        orbit_of = dict(zip(_conjugates(tg, theta), k_labels.tolist()))
        for a in (0, *(rng.randrange(tg.order) for rng in rngs)):
            moved = conjugate_involution(tg, a, theta)
            reps = _reps(tg, k_sub, fixed_subgroup(tg, moved))
            expected = [[] for _ in range(k_labels.max() + 1)]
            for x in reps:
                expected[orbit_of[conjugate_involution(tg, x, moved).perm]].append(x)
            assert mk.s_theta(tg, a, reps, k_labels) == expected, (label, a)


def test_m_K_matches_the_per_element_cocycles():
    """|Z^1| / |B^1| from the mask gathers against one product per central
    element, on every configuration."""
    for label, tg, k_sub, _, theta in _suite_configurations():
        center = tg.center()
        z1 = [z for z in center if theta.apply(z) == tg.inv(z)]
        b1 = {tg.mul(z, tg.inv(theta.apply(z))) for z in center}
        assert b1 <= set(z1) and len(z1) % len(b1) == 0, label
        m, bound = m_K(tg, k_sub, theta, _theta_cosets(tg, k_sub, theta)[1])
        assert bound == (len(z1) // len(b1) if center <= set(k_sub) else None), label


def test_m_K_rejects_a_coboundary_outside_z1():
    """x -> x + 1 on C3 is no automorphism: 0 - (0 + 1) = 2 is a coboundary,
    while Z^1 = {z : z + 1 = -z} = {1}."""
    c3 = cyclic_group(3)
    shift = InvolutionRecord((1, 2, 0))
    with pytest.raises(RuntimeError, match=r"= 2 of z = 0 is not in Z\^1"):
        m_K(c3, range(3), shift, [])


def _one_by_one(g, members, values, n):
    """The 1 x 1 'rep' with the given integer images on ``members``."""
    col = CycMatrix(n, [[v] for v in values])
    return MatrixRep(g, members, col.num[:, None], col.den, n)


def test_oracle_runtime_errors_name_their_cause():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    # K = {0, 1} is no subgroup of C3: the transversal is 0, 1, and
    # x_1 h = 1 + 1 = 2 lies in the coset of 0, as 2 + 1 = 0, but 2 - 0 = 2
    # is not in K
    kappa = _one_by_one(c3, [0, 1], [1, 1], 4)
    outside = r"x_i h x_j\^-1 = 2 not in K \(i = 1, h = 1\)"
    with pytest.raises(RuntimeError, match=outside):
        _oracle_values(c3, [0, 1], [kappa], range(3))
    # K = 1, H = C2: the trace is 2 zeta_3 / 2
    zeta = MatrixRep(c2, [0], CycMatrix(3, [[root_of_unity(3, 1)]]).num[:, None], 1, 3)
    with pytest.raises(RuntimeError, match="is not an integer"):
        _oracle_values(c2, [0], [zeta], range(2))
    # K = H = 1: the trace is 2 * (-1) / 1
    minus = _one_by_one(c2, [0], [-1], 4)
    negative = r"trace Cyc\(4; -2\) of weight row 0 is negative"
    with pytest.raises(RuntimeError, match=negative):
        _oracle_values(c2, [0], [minus], [0])


def test_oracle_guard_reads_the_largest_kappa():
    """(m d)^2 |H| with d the dimension the row is built for, the largest
    of the kappas to be summed: on C50 with K = 1 and H = G,
    (50 * 1)^2 * 50 = 125000 passes the guard and (50 * 2)^2 * 50 does
    not."""
    c50 = cyclic_group(50)
    one = _trivial_rep(c50, [0])
    two = MatrixRep(c50, [0], CycMatrix.identity(4, 2).num[None], 1, 4)
    assert _oracle_values(c50, [0], [one], range(50)) == [1]
    with pytest.raises(ValueError, match="<= 200000; got 500000"):
        _oracle_values(c50, [0], [one, two], range(50))
    with pytest.raises(ValueError, match="<= 200000; got 500000"):
        induced_hom_dim_oracle(c50, [0], range(50), 2)


def test_suite_builds_each_oracle_row_for_the_largest_kappa_of_its_bed(monkeypatch):
    """The suite hands the oracle the largest dimension among a bed's kappa
    and kappa~: 1 on the zoo's characters and the H(3, 1) character, 3 on
    the beds whose kappa is tau."""
    real, dims = mk.induced_hom_dim_oracle, []

    def spy(g, k_sub, h_sub, dim):
        dims.append(dim)
        return real(g, k_sub, h_sub, dim)

    monkeypatch.setattr(mk, "induced_hom_dim_oracle", spy)
    assert all(c.passed for c in SUITES["mackey"](RunConfig()))
    beds = _test_beds(_suite_configurations())
    expected = [max(kappa.dim for *_, kappa, _ in bed) for bed in beds]
    assert dims == expected and expected[-2:] == [3, 3] and set(expected[:-2]) == {1}


def test_oracle_sums_past_int64_are_exact():
    """Ind_1^C2 of a 'trace' of 2^62, averaged over H = 1: the diagonal
    weighs the identity twice, and 2 * 2^62 is past int64."""
    c2 = cyclic_group(2)
    kappa = _one_by_one(c2, [0], [2**62], 4)
    assert _oracle_values(c2, [0], [kappa], [0]) == [2**63]
    assert _oracle_values(c2, [0], [kappa], range(2)) == [2**62]


def _per_configuration_suite(cfg):
    """The mackey suite one configuration at a time, each with its own
    orbits, cosets, oracle calls and sums, through the module attributes."""
    import heisweil.suites as suites_mod

    rec = Recorder()
    zoo, _, zoo_tildes = suites_mod._mackey_zoo()
    heis = heisenberg_mackey_configurations()
    tildes = [*zoo_tildes, *(contragredient(kappa) for *_, kappa, _ in heis)]
    dcs = rec("mackey.double_coset_sum_equals_oracle")
    clauses = rec("mackey.twisted_coset_clauses")
    triangle = rec("mackey.triangle_bijection")
    bounded = rec("mackey.multiplicity_bound")
    orbmult = rec("mackey.orbit_multiplicity_formula")
    contr = rec("mackey.contragredient_multiplicity")
    rng = random.Random(cfg.seed)
    for (label, tg, k_sub, kappa, theta), tilde in zip([*zoo, *heis], tildes):
        k_labels = mk.k_orbit_labels(tg, k_sub, theta)
        g = rng.randrange(tg.order)
        firsts = suites_mod._first_conjugators(tg, theta)
        cosets = suites_mod._twisted_cosets(tg, k_sub, theta, [*firsts, g], k_labels)
        fixed, labels, reps, split = cosets[0]
        h_sub = sorted(fixed)
        dim = max(kappa.dim, tilde.dim)
        (oracle, tilde_oracle), (mackey, _), (summand, _) = mk.summed_traces(
            [kappa, tilde],
            [
                mk.induced_hom_dim_oracle(tg, k_sub, h_sub, dim),
                mk.mackey_hom_dim(tg, k_sub, h_sub, reps),
                mk.orbmult_rhs(tg, k_sub, theta, k_labels),
            ],
        )
        dcs(mackey == oracle, {"config": label, "mackey": mackey, "oracle": oracle})
        twists = suites_mod._twists(tg, k_sub, theta, labels)
        suites_mod._twisted_coset_checks(
            clauses, triangle, label, tg, g, cosets, k_labels, twists
        )
        m, bound = mk.m_K(tg, k_sub, theta, split[k_labels[0]])
        if bound is not None:
            bounded(m <= bound, {"config": label, "m_K": m, "h1_bound": bound})
        rhs = m * summand
        orbmult(oracle == rhs, {"config": label, "lhs": oracle, "rhs": rhs})
        contr(oracle == tilde_oracle, label)
    suites_mod._invstab_check(rec("mackey.involution_stabilizer"))
    return rec


def _report(checks):
    return [(c.check, c.checks, c.passed, c.witness) for c in checks]


@pytest.mark.parametrize("seed", [0, 1])
def test_per_bed_suite_equals_the_per_configuration_loop(seed, monkeypatch):
    """Names, counts, verdicts and witnesses, the 319 identities among
    them; and the same seeded g moves theta in each configuration, in
    configuration order."""
    import heisweil.suites as suites_mod

    real, moves = suites_mod._twisted_coset_checks, []

    def spy(c, triangle, label, tg, g, *rest):
        moves.append((label, g))
        return real(c, triangle, label, tg, g, *rest)

    monkeypatch.setattr(suites_mod, "_twisted_coset_checks", spy)
    cfg = RunConfig(seed=seed)
    expected = _report(_per_configuration_suite(cfg))
    expected_moves, moves[:] = list(moves), []
    assert _report(SUITES["mackey"](cfg)) == expected
    assert moves == expected_moves and len(moves) == 30
    assert sum(count for _, count, *_ in expected) == 319


def test_per_bed_suite_reports_a_corrupted_configuration_first(monkeypatch):
    """One configuration in the middle of a bed, S3/A3/chi1/theta0, gets a
    Mackey sum off by one: the per-bed suite and the per-configuration loop
    both record it, with that configuration's witness, and nothing else.
    Both sum the parts (oracle, Mackey, orbit multiplicity) in that order."""
    configs = standard_mackey_configurations()
    label, tg, k_sub, kappa, theta = configs[1]
    assert [c[0] for c in configs[:3]] == [f"S3/A3/chi{i}/theta0" for i in range(3)]
    real = mk.summed_traces

    def off_by_one_on_kappa(kappas, parts):
        oracle, mackey, rhs = real(kappas, parts)
        return oracle, [v + (rep is kappa) for v, rep in zip(mackey, kappas)], rhs

    monkeypatch.setattr(mk, "summed_traces", off_by_one_on_kappa)
    report = _report(SUITES["mackey"](RunConfig()))
    assert report == _report(_per_configuration_suite(RunConfig()))
    failing = [(name, count, witness) for name, count, ok, witness in report if not ok]
    h_sub = sorted(fixed_subgroup(tg, theta))
    right = induced_hom_dim_by_loop(tg, k_sub, kappa, h_sub)
    witness = {"config": label, "mackey": right + 1, "oracle": right}
    assert failing == [("mackey.double_coset_sum_equals_oracle", 30, witness)]


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_mackey_reports_at_p_3_5_7_differ_only_in_p(tmp_path, seed, capsys):
    """The suite reads no p: its checks, and its report bytes but for
    config.p, are the same at p = 3, 5 and 7."""
    reports, checks = [], []
    for p in (3, 5, 7):
        out = tmp_path / f"mackey_p{p}.json"
        argv = ["verify", "mackey", "--p", str(p), "--seed", str(seed)]
        assert run([*argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"].pop("p") == p
        reports.append(report)
        checks.append(_report(SUITES["mackey"](RunConfig(p=p, seed=seed))))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2] and reports[0]["checks"] == 319
    assert checks[0] == checks[1] == checks[2]
