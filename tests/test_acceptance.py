"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is exact arithmetic: matrix equalities are coefficientwise
identities in Q(zeta_N), dimensions are integers produced by projector
traces, and no tolerance appears anywhere.  Run with `pytest -s` to see
the per-criterion lines.
"""

import hashlib
import random
import time

import numpy as np
import pytest

import elimination_oracle as oracle
from group_oracles import fixed_subgroup, heisenberg_mackey_configurations, hom_dim
from heisweil import heisenberg as heis
from heisweil import mackey as mk
from heisweil import prounipotent as pro
from heisweil import reps as reps_mod
from heisweil import symplectic as sympl
from heisweil import weil as weil_mod
from heisweil.cli import run as cli_run
from heisweil.groups import double_coset_labels
from heisweil.linalg import CycMatrix
from heisweil.suites import (
    RunConfig,
    standard_mackey_configurations,
    suite_mackey,
)


def _report(num, text):
    print(f"\ncriterion {num:2d} PASS: {text}")


@pytest.fixture(scope="module")
def lifts():
    out = {}
    for p in (3, 5, 7):
        g = heis.HeisenbergGroup(sympl.SymplecticSpace(p, 1))
        tau = reps_mod.heisenberg_rep(g, 1, model="minus")
        out[p] = weil_mod.weil_lift(tau)
    return out


def test_criterion_01_sl23_crosscheck(lifts):
    start = time.time()
    ref = weil_mod.sl23_reference(lifts[3])
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
    tg = weil_mod.sp_table(lift.space)
    els = range(tg.order)
    assert len(els) == 24
    for s in els:
        assert (
            lift.image(ref.translate[s]).trace()
            == alpha.image(s)[0, 0] + beta.image(s).trace()
        )
    jel = int(sympl.sp_index(lift.space, sympl.weyl_element(lift.space)))
    m = weil_mod.lift_in_odd_even_basis(ref, tg.inv(jel))
    even = CycMatrix(12, [[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
    assert even == ref.beta_j_displayed
    m_at_j = weil_mod.lift_in_odd_even_basis(ref, jel)
    even_at_j = CycMatrix(
        12, [[m_at_j[1, 1], m_at_j[1, 2]], [m_at_j[2, 1], m_at_j[2, 2]]]
    )
    assert even_at_j == oracle.inverse(ref.beta_j_displayed)
    assert ref.displayed_j_reading == "inverse"
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(
        1,
        "Weil lift at p=3 has character alpha + beta on all 24 elements; "
        "the printed beta(j) matrix [[i/sqrt3, 2i/sqrt3], [i/sqrt3, -i/sqrt3]] "
        "is reproduced exactly as the even block at the INVERSE Weyl element "
        "(the printed Fourier operator represents j^-1; flagged, not "
        f"silently reconciled). {elapsed:.2f}s",
    )


def test_criterion_02_homomorphism_exhaustive(lifts):
    start = time.time()
    totals = {}
    for p, order in ((3, 24), (5, 120), (7, 336)):
        report = weil_mod.verify_homomorphism(lifts[p])
        assert report.passed
        # omega(1) = 1 and an edge (x, s) per generator x, which prove all pairs
        gens = weil_mod.sp_table(lifts[p].space).generators
        assert report.checks == len(gens) * order + 1
        totals[p] = report.checks
    elapsed = time.time() - start
    assert elapsed < 120
    _report(
        2,
        f"exact matrix equality on all pairs, proved on generator edges: "
        f"{totals[3]} + {totals[5]} + {totals[7]} identities verified in "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_trace_signs_and_parabolic_action(lifts):
    for p in (3, 5, 7):
        tr = weil_mod.trace_sign_on_M(lifts[p])
        assert tr.passed and tr.checks == p - 1
        g = lifts[p].group
        plus_lift = weil_mod.weil_lift(
            reps_mod.heisenberg_rep(g, 1, model="plus")
        )
        for lf in (lifts[p], plus_lift):
            pa = weil_mod.p_action_check(lf)
            assert pa.passed and pa.checks == p * (p - 1)
    _report(
        3,
        "traces on the Levi are real, nonzero, with sign chi^M, and the "
        "invariant form transforms under P by chi^P, for p in {3, 5, 7}, "
        "both induced models",
    )


def test_criterion_04_involutions_give_polarizations_and_homdim_one():
    start = time.time()
    counts = {}
    for p in (3, 5):
        g = heis.HeisenbergGroup(sympl.SymplecticSpace(p, 1))
        tau = reps_mod.heisenberg_rep(g, 1, model="minus")
        cotau = reps_mod.contragredient(tau)
        alphas = heis.order_two_automorphisms_inverting_center(g)
        assert len(alphas)
        counts[p] = len(alphas)
        plus, _ = heis.polarizations_from_involutions(alphas)  # validates
        for perm, fixed in zip(alphas.perm, plus):
            assert hom_dim(tau, np.flatnonzero(fixed)) == 1
            twisted = reps_mod.MatrixRep(
                g, tau.elements, tau.num[perm], tau.den, tau.conductor
            )
            els = g.elements()
            assert twisted.characters(els) == cotau.characters(els)
    elapsed = time.time() - start
    assert elapsed < 60
    _report(
        4,
        f"every central-inverting involution ({counts[3]} at p=3, "
        f"{counts[5]} at p=5) yields a polarization, a one-dimensional "
        f"invariant-form space, and tau o alpha ~ contragredient; {elapsed:.1f}s",
    )


def test_criterion_05_gelfand_pairs():
    start = time.time()
    for p in (3, 5):
        g = heis.HeisenbergGroup(sympl.SymplecticSpace(p, 1))
        irreps = reps_mod.irreducibles_of_H(g)
        alphas = heis.order_two_automorphisms_inverting_center(g)
        for perm in alphas.perm:
            hplus = np.flatnonzero(perm == np.arange(g.order))
            for rho in irreps:
                assert hom_dim(rho, hplus) <= 1
        # the double-coset identity behind the Gelfand property, elementwise
        for a in range(p):
            for b in range(p):
                for z in range(p):
                    lhs = g.mul(
                        g.mul(
                            g.from_w(((-a) % p, 0)),
                            g.element((a % p, (-b) % p), (-z) % p),
                        ),
                        g.from_w(((-a) % p, 0)),
                    )
                    assert lhs == g.element(((-a) % p, (-b) % p), (-z) % p)
    elapsed = time.time() - start
    _report(
        5,
        "every irreducible of H has at most one invariant form for every "
        f"central-inverting involution (p = 3 and 5); coset identity holds "
        f"elementwise; {elapsed:.1f}s",
    )


def test_criterion_06_fixed_forms_oracle_equivalence():
    start = time.time()
    g3 = heis.HeisenbergGroup(sympl.SymplecticSpace(3, 1))
    tau3 = reps_mod.heisenberg_rep(g3, 1, model="minus")
    subgroups3 = g3.all_subgroups()
    for sub, res in zip(subgroups3, reps_mod.fixed_forms(tau3, subgroups3)):
        assert res.certified
        assert oracle.spans_fixed_forms(tau3, sub, res.basis)
    center, plus = reps_mod.fixed_forms(tau3, [g3.center(), g3.plus_subgroup])
    assert center.dim == 0 and plus.dim == 1

    g5 = heis.HeisenbergGroup(sympl.SymplecticSpace(5, 1))
    tau5 = reps_mod.heisenberg_rep(g5, 1, model="minus")
    subgroups5 = g5.all_subgroups()
    for sub, res in zip(subgroups5, reps_mod.fixed_forms(tau5, subgroups5)):
        assert res.certified
        assert oracle.spans_fixed_forms(tau5, sub, res.basis)
    elapsed = time.time() - start
    assert elapsed < 60
    _report(
        6,
        f"certified double-coset forms span the oracle's nullspace on all "
        f"{len(subgroups3)} subgroups at p=3 and all {len(subgroups5)} at p=5; "
        f"center gives dimension 0, W+ gives dimension 1; {elapsed:.1f}s",
    )


def test_criterion_07_special_isomorphisms():
    start = time.time()
    g = heis.HeisenbergGroup(sympl.SymplecticSpace(3, 1))
    isos = heis.special_isos(g)
    expected = 3 ** 2  # p^(2l); the torsor is W itself
    assert len(isos) == expected
    pair_count = 0
    tests = heis.special_iso_equal_tests(isos)
    for i in range(len(isos)):
        for j in range(len(isos)):
            t = tuple(bool(a[i, j]) for a in tests)
            assert len(set(t)) == 1
            pair_count += 1
    assert pair_count == 81  # all ordered pairs

    base = heis.special_iso_from_split_polarization(
        g, g.plus_subgroup, g.minus_subgroup
    )
    assert base.w0.tolist() == [[0, 0]]
    masks = heis.split_polarization_from_iso(isos, g.plus_subgroup, g.minus_z_subgroup)
    for i, (mu, hminus) in enumerate(zip(isos.perm % 3, masks)):
        assert hminus.sum() == 3
        if all(mu[h] == 0 for h in np.flatnonzero(g.plus_subgroup)):
            back = heis.special_iso_from_split_polarization(g, g.plus_subgroup, hminus)
            assert back.w0[0].tolist() == isos.w0[i].tolist()
    elapsed = time.time() - start
    assert elapsed < 60
    _report(
        7,
        f"exactly p^(2l) = {expected} special isomorphisms (the stated "
        "figure 81 is the number of ordered pairs, all checked); the three "
        "equality tests agree on every pair; split-polarization round-trips "
        f"hold; {elapsed:.1f}s",
    )


def test_criterion_08_mackey_suite():
    start = time.time()
    configs = standard_mackey_configurations() + heisenberg_mackey_configurations()
    assert len(configs) >= 20
    for label, tg, k_members, kappa, theta in configs:
        h_members = tg.mask(fixed_subgroup(tg, theta))
        labels = double_coset_labels(tg, k_members, h_members)
        reps = np.unique(labels, return_index=True)[1].tolist()
        mackey, oracle = mk.summed_traces(
            [kappa],
            [
                mk.mackey_hom_dim(tg, k_members, h_members, reps),
                mk.induced_hom_dim_oracle(tg, k_members, h_members, kappa.dim),
            ],
        )
        assert mackey == oracle, label
    results = suite_mackey(RunConfig(p=3))
    for r in results:
        assert r.passed, (r.check, r.witness)
    elapsed = time.time() - start
    assert elapsed < 120
    _report(
        8,
        f"double-coset sums equal the explicit induced-representation oracle "
        f"on {len(configs)} configurations (zoo of order <= 48 plus H and "
        f"Sp x| H); twisted-coset clauses (1)-(4), the triangle bijection, "
        f"and the multiplicity bound all hold; {elapsed:.1f}s",
    )


def test_criterion_09_congruence_square_roots():
    start = time.time()
    g1 = pro.CongruenceGroup(1, 3, 4)
    root, levels = pro.sqrt_with_trace(g1, [[4]])
    assert int(root[0, 0]) == 79
    matches = [x for x in g1.enumerate() if (int(x[0, 0]) ** 2) % 81 == 4]
    assert len(matches) == 1 and int(matches[0][0, 0]) == 79

    g27 = pro.CongruenceGroup(2, 3, 3)
    alpha27 = pro.make_alpha(g27, "transpose_inverse")
    ok, details = pro.h1_alpha_trivial(g27, alpha27, mode="exhaustive")
    assert ok and details["z1"] == details["b1"]

    # uniqueness wherever the group has at most 10^4 elements
    for group in (pro.CongruenceGroup(2, 3, 3), pro.CongruenceGroup(1, 5, 5)):
        els = group.enumerate(guard=10_000)
        rng = random.Random(1)
        for _ in range(3):
            a = group.random_element(rng)
            roots = [x for x in els if np.array_equal(group.mul(x, x), a)]
            assert len(roots) == 1

    rng = random.Random(9)
    count = 0
    for n_size in (2, 3):
        group = pro.CongruenceGroup(n_size, 3, 4)
        perm = tuple(range(n_size - 1, -1, -1))
        alpha = pro.make_alpha(group, "transpose_inverse", perm=perm)
        from heisweil.suites import _cayley_fixed_points

        for c in _cayley_fixed_points(group, rng, 50):
            a, b = pro.alpha_factor(group, c, "upper", "lower", alpha)
            assert np.array_equal(group.mul(a, b), c)
            assert np.array_equal(alpha(a), a) and np.array_equal(alpha(b), b)
            count += 1
    elapsed = time.time() - start
    assert elapsed < 120
    _report(
        9,
        "unique square roots (79 example and exhaustive sweeps), twisted "
        "cohomology vanishes exhaustively on 1 + 3 M_2(Z/27), and "
        f"{count} alpha-fixed factorizations verified by multiplication; "
        f"{elapsed:.1f}s",
    )


# sha256 of the `verify all --p p --ell 1` report at seed 0; the reports are
# byte-identical for a fixed config, so any change to them shows here.
# Re-pinned when `verify --mode` and `RunConfig.mode` were deleted: for
# p = 3, 5, 7 at seeds 0 and 1, each report equals the previous one byte for
# byte once its five `"mode": "exhaustive",` lines (one per suite config)
# are removed with `grep -v`; nothing else changed.
# Re-pinned when the heisenberg suite moved its group-law identities to
# generator edges (Light's associativity test, the special isomorphisms,
# commutators, exists-s and Sp(W) closure): for p = 3, 5, 7 at seeds 0 and 1
# the reports differ from the previous ones only in the heisenberg suite's
# `checks` line (87 201 -> 10 207, 2 375 033 -> 58 111 and
# 46 352 733 -> 408 825).
# Re-pinned when generators_within dropped redundant generators (H(p, 1)
# from (1, p, p^2) to (p, p^2)) and the automorphism search read them: for
# p = 3, 5, 7 at seeds 0 and 1 the reports differ from the previous ones
# only in `checks` lines; at p = 7 heisenberg 408 825 -> 274 020, reps
# 43 679 -> 43 336, weil 1 445 -> 1 443 and mackey 321 -> 319.
# Re-pinned at p = 3 when the abstract lift's rep law became the
# homomorphism certificate on the generator edges of Sp x| H and the
# nu-independence check, which compared the Sp x H character table with
# itself, was deleted: at seeds 0 and 1 the reports differ from the
# previous ones only in the weil suite's `checks` line (7 252 -> 3 005);
# p = 5 and 7 run neither check and are unchanged.
# Re-pinned when the weil contragredient check became rho(x^-1)^T =
# conj rho(x) on the generators of Sp(W) and of H (4 identities at every p,
# in place of every (s, h) against a second lift, and no longer skipped at
# p = 7): for p = 3, 5, 7 at seeds 0 and 1 the reports differ from the
# previous ones only in the weil suite's `checks` line (3 005 -> 2 361,
# 15 533 -> 537 and 1 443 -> 1 447).
REPORT_SHA256 = {
    3: "65fe2b5e6bc299c0434217bcec02e5c0fbeaba704e487a6422ff39630fb3389b",
    5: "5e5359da38538557581f48b5cc8fd4e69107b3fe1e844fdd0aeb65a74f9f296a",
    7: "545a8b19dce4855390375712fba63e8fdfa94446e69324e110cd94997c6ee44c",
}
# The same reports at seed 1, which moves the sampled checks (field axioms,
# twisted-coset clauses, square roots).
REPORT_SHA256_SEED1 = {
    3: "1c0b8061e8b96e812508f2fb500ad07a6ef4e73aa26217e2ec17632b05429087",
    5: "4fcd681531f1653eb142a48af8697782d0a456b29e730ed12aca3fd1029f13d4",
    7: "d26b333857579d43ce543f1d3775167a19f86f86c2a2bf4bd9ad81b32f4244e7",
}


def test_criterion_10_full_cli_runs(tmp_path):
    start = time.time()
    for p in (3, 5, 7):
        path = str(tmp_path / f"heisweil_all_p{p}.json")
        code = cli_run(["verify", "all", "--p", str(p), "--ell", "1", "--out", path])
        assert code == 0, f"verify all failed at p = {p}"
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == REPORT_SHA256[p], f"report bytes changed at p = {p}"
    elapsed = time.time() - start
    assert elapsed < 600
    _report(
        10,
        f"`verify all` exits 0 for p = 3, 5, 7 in {elapsed:.1f}s total "
        "(budget 600s)",
    )


def test_seed_one_reports_match_their_pinned_digests(tmp_path):
    for p in (3, 5, 7):
        path = tmp_path / f"heisweil_all_p{p}_seed1.json"
        argv = ["verify", "all", "--p", str(p), "--ell", "1", "--seed", "1"]
        code = cli_run(argv + ["--out", str(path)])
        assert code == 0, f"verify all failed at p = {p}"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == REPORT_SHA256_SEED1[p], f"seed-1 report changed at p = {p}"
