import copy
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

import elimination_oracle as oracle
from group_oracles import character_sum, heisenberg_mackey_configurations
from heisweil import reps as reps_mod
from heisweil.checks import Check
from heisweil.groups import double_coset_labels
from heisweil.heisenberg import (
    HeisenbergGroup,
    involution_from_polarization,
    order_two_automorphisms_inverting_center,
    order_two_automorphisms_trivial_on_center,
    polarizations_from_involutions,
)
from heisweil.linalg import CycMatrix, batch_from_matrices, verify_multiplication_table
from heisweil.reps import (
    MatrixRep,
    character_table,
    contragredient,
    fixed_forms,
    fixed_forms_certificate,
    heisenberg_rep,
    hom_dim,
    hom_dims,
    irreducibles_of_H,
    projector_traces,
)
from heisweil.scalar import CycNumber, context, zeta_p
from heisweil.suites import (
    _trivial_rep,
    standard_mackey_configurations,
)
from heisweil.symplectic import SymplecticSpace, sp_table
from heisweil.weil import weil_lift


def same_character(rep1, rep2) -> bool:
    """Equal characters on every element: equivalent representations."""
    els = rep1.elements
    return rep1.characters(els) == rep2.characters(els)


@pytest.fixture(scope="module")
def h3():
    return HeisenbergGroup(SymplecticSpace(3, 1))


@pytest.fixture(scope="module")
def tau3(h3):
    return heisenberg_rep(h3, 1, model="minus")


@pytest.fixture(scope="module")
def h5():
    return HeisenbergGroup(SymplecticSpace(5, 1))


@pytest.fixture(scope="module")
def tau5(h5):
    return heisenberg_rep(h5, 1, model="minus")


def test_rejects_trivial_central_character(h3):
    with pytest.raises(ValueError):
        heisenberg_rep(h3, 0)


def test_minus_model_shift_and_phase(h3, tau3):
    n = tau3.conductor
    # W+ element (e1 here) acts by translation: a cyclic shift permutation
    shift = tau3.image(h3.from_w((1, 0)))
    labels = tau3.basis_labels
    for i, t in enumerate(labels):
        for j, s in enumerate(labels):
            expect = 1 if (s[0] - t[0]) % 3 == 1 else 0
            assert shift[i, j] == CycNumber.from_rational(n, expect)
    # central element acts by the scalar zeta_p
    central = tau3.image(h3.central(1))
    assert central == CycMatrix.identity(n, 3).scale(zeta_p(3, 1))


def test_homomorphism_exhaustive_p3(tau3):
    assert tau3.verify_homomorphism()


def test_homomorphism_failure_reports_the_first_bad_pair(h3, tau3):
    num = tau3.num.copy()
    num[5] *= -1
    check = Check("reps.homomorphism")
    assert not replace(tau3, num=num).verify_homomorphism(check)
    gens = h3.generators
    assert check.checks == 27 * len(gens) + 1
    # the identity is untouched; in the row of the first generator the
    # first edge reading the negated image is the first failure
    x = gens[0]
    first = min(b for b in h3.elements() if 5 in (b, h3.mul(x, b)))
    assert check.witness == (h3.names[x], h3.names[first])


def test_character_supported_on_center(h5, tau5):
    for h, (w, z) in enumerate(h5.names):
        tr = tau5.image(h).trace()
        if any(w):
            assert tr.is_zero()
        else:
            assert tr == 5 * zeta_p(5, z)


def test_plus_model_is_equivalent_homomorphism(h3):
    plus = heisenberg_rep(h3, 1, model="plus")
    assert plus.verify_homomorphism()
    minus = heisenberg_rep(h3, 1, model="minus")
    assert same_character(plus, minus)


def test_contragredient_properties(h3, tau3):
    cotau = contragredient(tau3)
    assert cotau.verify_homomorphism()
    assert cotau.image(h3.central(1))[0, 0] == zeta_p(3, -1)
    double = contragredient(cotau)
    assert same_character(double, tau3)
    # contragredient has the zeta^-1 induced model's character
    tau_inv = heisenberg_rep(h3, 2, model="minus")
    assert same_character(cotau, tau_inv)


@pytest.mark.parametrize("model", ["minus", "plus"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_monomial_data_rebuilds_the_images(p, model):
    """Row t of rep(h) holds zeta_p^root_exponents[h, t] in column
    cols[h, t]: for tau and for its contragredient, whose data is the
    transpose's, not tau's copied.  The contragredient is the zeta^-1
    model, stack and monomial data alike, which the reps suite's invariant
    pairing compares entry by entry."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    tau = heisenberg_rep(g, 1, model=model)
    tilde = contragredient(tau)
    assert not np.array_equal(tilde.root_exponents, tau.root_exponents)
    inverse_model = heisenberg_rep(g, p - 1, model=model)
    for stack in ("num", "cols", "root_exponents"):
        assert np.array_equal(getattr(tilde, stack), getattr(inverse_model, stack))
    assert tilde.den == inverse_model.den
    for rep in (tau, tilde):
        n = rep.conductor
        roots = context(n).power_table[(n // p) * rep.root_exponents]
        num = np.zeros((g.order, rep.dim, rep.dim, roots.shape[-1]), dtype=np.int64)
        h, t = np.indices(rep.cols.shape)
        num[h, t, rep.cols] = roots
        for x in g.elements():
            assert rep.image(x) == CycMatrix._packed(n, num[x], 1)


def test_invariant_pairing(h3, tau3):
    # <f1, f2> = sum_t f1(t) f2(t) pairs tau with the zeta^-1 model
    # H-invariantly: <tau(h) f1, tau'(h) f2> = <f1, f2> on every pair of basis
    # vectors, i.e. tau(h)^T tau'(h) = 1 for every h
    cotau_model = heisenberg_rep(h3, 2, model="minus")
    eye = CycMatrix.identity(tau3.conductor, tau3.dim)
    for h in h3.elements():
        assert tau3.image(h).transpose() @ cotau_model.image(h) == eye


def test_suite_invariant_pairing_names_the_first_bad_entry(monkeypatch, h3, tau3):
    """contragredient(tau) with one image negated: the reps suite's
    invariant pairing, the zeta^-1 model against it, fails at that image's
    first nonzero entry and still counts every entry of every image."""
    from heisweil.suites import RunConfig, suite_reps

    real = reps_mod.contragredient

    def corrupted(rep):
        tilde = real(rep)
        num = tilde.num.copy()
        num[5] *= -1
        return replace(tilde, num=num)

    monkeypatch.setattr(reps_mod, "contragredient", corrupted)
    (check,) = [c for c in suite_reps(RunConfig(p=3)) if c.check == "reps.invariant_pairing"]
    i, j = np.argwhere(real(tau3).num[5].any(axis=-1))[0].tolist()
    assert not check.passed and check.checks == h3.order * 3**2
    assert check.witness == (5, i, j)


def test_fixed_forms_center_kills_everything(h3, tau3):
    (res,) = fixed_forms(tau3, [h3.center()])
    assert res.dim == 0 and res.certified
    assert oracle.spans_fixed_forms(tau3, h3.center(), res.basis)


def test_fixed_forms_wplus_is_summation_form(h3, tau3):
    (res,) = fixed_forms(tau3, [h3.plus_subgroup])
    assert res.dim == 1 and res.certified
    assert oracle.spans_fixed_forms(tau3, h3.plus_subgroup, res.basis)
    lam = res.basis.rows[0]
    # lambda_1(phi) = sum over W+ of phi: all-ones row up to scale
    assert all(c == lam[0] for c in lam) and not lam[0].is_zero()


def test_fixed_forms_arbitrary_max_isotropic(h3, tau3):
    # W_0 spanned by e1 + e2: maximal totally isotropic, dimension one again
    w0 = h3.subgroup_generated([h3.from_w((1, 1))])
    (res,) = fixed_forms(tau3, [w0])
    assert res.dim == 1 and res.certified
    assert oracle.spans_fixed_forms(tau3, w0, res.basis)


def assert_certified_and_oracle_spans(group, tau, count):
    """On every subgroup: the certificate passes, and the certified rows
    span the nullspace the oracle's elimination finds."""
    subgroups = group.all_subgroups()
    assert len(subgroups) == count
    for sub, res in zip(subgroups, fixed_forms(tau, subgroups), strict=True):
        assert res.certified, f"certificate fails on a subgroup of order {len(sub)}"
        assert res.basis.nrows == res.dim
        assert oracle.spans_fixed_forms(
            tau, sub, res.basis
        ), f"span mismatch for subgroup of order {len(sub)}"
        if group.center() <= sub:
            assert res.dim == 0


@pytest.mark.parametrize("p", [3, 5])
def test_certificate_on_the_structural_generators_equals_generators_within(p):
    """fixed_forms with the generating sets all_subgroups builds from gives
    the bases and verdicts it gives with generators_within, which the
    suite's sweep then no longer calls."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    tau = heisenberg_rep(g, 1, model="minus")
    subgroups = g.all_subgroups()
    derived = fixed_forms(tau, subgroups)
    given = fixed_forms(tau, subgroups, g.subgroup_generators())
    for a, b in zip(derived, given, strict=True):
        assert (a.dim, a.basis, a.certified) == (b.dim, b.basis, True)


def test_the_reps_suite_derives_no_subgroup_generators(monkeypatch):
    """The reps suite proves the fixed forms of the listed subgroups on the
    generators they are built from; only the three examples (H+, the
    center and <(1, 1)>, of order 3 each at p = 3), which are not listed by
    structure, derive theirs."""
    from heisweil.suites import RunConfig, suite_reps

    derived = []
    real = reps_mod.generators_within

    def spy(g, members):
        derived.append(len(frozenset(members)))
        return real(g, members)

    monkeypatch.setattr(reps_mod, "generators_within", spy)
    assert all(c.passed for c in suite_reps(RunConfig(p=3)))
    assert derived == [3, 3, 3]


def test_fixed_forms_all_subgroups_p3(h3, tau3):
    assert_certified_and_oracle_spans(h3, tau3, 19)


def test_fixed_forms_all_subgroups_p5(h5, tau5):
    assert_certified_and_oracle_spans(h5, tau5, 39)


def test_fixed_forms_all_subgroups_p7():
    g = HeisenbergGroup(SymplecticSpace(7, 1))
    assert_certified_and_oracle_spans(g, heisenberg_rep(g, 1, model="minus"), 67)


def test_fixed_forms_runs_one_hom_dims_call_and_one_certificate_per_subgroup(
    h3, tau3, monkeypatch
):
    """The dimensions of every subgroup come from one hom_dims call, and each
    basis is proved by one certificate, in the order of the subgroups."""
    from heisweil import reps as reps_mod

    dims_calls, proved = [], []
    real_dims, real_certificate = reps_mod.hom_dims, reps_mod.fixed_forms_certificate

    def counted_dims(reps, subgroups):
        dims_calls.append(len(subgroups))
        return real_dims(reps, subgroups)

    def counted_certificate(rep, subgroup, basis, dim, check=None, generators=None):
        proved.append(subgroup)
        return real_certificate(rep, subgroup, basis, dim, check, generators)

    monkeypatch.setattr(reps_mod, "hom_dims", counted_dims)
    monkeypatch.setattr(reps_mod, "fixed_forms_certificate", counted_certificate)
    subgroups = h3.all_subgroups()
    results = fixed_forms(tau3, subgroups)
    assert dims_calls == [19] and len(results) == 19
    assert proved == [sorted(sub) for sub in subgroups]
    assert all(res.certified for res in results)


def fixed_forms_one_subgroup(rep, subgroup):
    """The reference: the double-coset basis of Hom_K(rep, 1) and its
    certificate for one K, one representative x at a time, as
    :func:`heisweil.reps.fixed_forms` built it before it took a list."""
    g = rep.group
    n, p, ell = rep.conductor, g.p, g.space.ell
    members = sorted(frozenset(subgroup))
    K = np.array(members, dtype=np.int64)
    labels = double_coset_labels(g, g.minus_z_subgroup, K)
    t, inv = g.table, g.inverse_of
    w_minus = np.array(sorted(g.minus_subgroup), dtype=np.int64)
    nontrivial_center = g.mask(g.center())
    nontrivial_center[0] = False
    digits = p ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    counts = []
    for x in np.unique(labels, return_index=True)[1].tolist():
        conj = t[t[x, K], inv[x]]
        if nontrivial_center[t[np.ix_(w_minus, conj)]].any():
            continue
        xk = t[x, K]
        u, v = g.w[xk, :ell], g.w[xk, ell:]
        exps = (g.z[xk] + g.half * (u * v).sum(axis=1)) % p
        count = np.zeros((rep.dim, p), dtype=np.int64)
        np.add.at(count, (u @ digits, exps), 1)
        counts.append(count)
    roots = context(n).power_table[(n // p) * (rep.zeta_exponent * np.arange(p) % p)]
    num = np.array(counts, dtype=np.int64).reshape(-1, rep.dim, p) @ roots
    basis = CycMatrix._packed(n, num, 1)
    dim = hom_dim(rep, members)
    return dim, basis, fixed_forms_certificate(rep, members, basis, dim)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fixed_forms_equals_the_per_subgroup_reference(p):
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    tau = heisenberg_rep(g, 1, model="minus")
    subgroups = g.all_subgroups()
    for sub, res in zip(subgroups, fixed_forms(tau, subgroups), strict=True):
        assert (res.dim, res.basis, res.certified) == fixed_forms_one_subgroup(tau, sub)


def test_a_corrupted_basis_is_the_suites_first_witness(monkeypatch):
    """Drop the last row of the basis of two subgroups with forms: the
    certificate fails on both, and the earlier one is the witness."""
    from heisweil.suites import RunConfig, suite_reps

    g = HeisenbergGroup(SymplecticSpace(3, 1))
    subgroups = g.all_subgroups()
    masks = [g.mask(sub) for sub in subgroups]
    dims = hom_dims([heisenberg_rep(g, 1)], masks)[0]
    with_forms = [sorted(sub) for sub, d in zip(subgroups, dims) if d]
    first, later = with_forms[len(with_forms) // 2], with_forms[-1]
    real = reps_mod.fixed_forms_certificate

    def corrupted(rep, subgroup, basis, dim, check=None, generators=None):
        if subgroup in (first, later):
            basis = basis[: basis.nrows - 1]
        return real(rep, subgroup, basis, dim, check, generators)

    monkeypatch.setattr(reps_mod, "fixed_forms_certificate", corrupted)
    (check,) = [
        c for c in suite_reps(RunConfig(p=3)) if c.check == "reps.fixed_forms_oracle_equivalence"
    ]
    assert not check.passed and check.witness == first


def certificate_witness(tau, sub, basis, dim):
    """The certificate on the given rows: its verdict and its witness."""
    check = Check("reps.fixed_forms")
    ok = fixed_forms_certificate(tau, sub, basis, dim, check)
    assert ok == check.passed and check.checks == 1
    return ok, check.witness


def test_certificate_fails_a_shifted_root_exponent(h3, tau3):
    """One entry of one row times zeta_p: still nonzero on the same support
    and as many rows as the trace, but no longer K-invariant."""
    n, tried, subgroups = tau3.conductor, 0, h3.all_subgroups()
    for sub, res in zip(subgroups, fixed_forms(tau3, subgroups)):
        rows = res.basis.rows
        support = [j for j, c in enumerate(rows[0] if rows else []) if not c.is_zero()]
        if len(support) < 2:  # a multiple of a one-entry row stays invariant
            continue
        rows[0][support[0]] = rows[0][support[0]] * zeta_p(3, 1, conductor=n)
        shifted = CycMatrix(n, rows)
        assert not oracle.spans_fixed_forms(tau3, sub, shifted)
        assert certificate_witness(tau3, sub, shifted, res.dim) == (False, sorted(sub))
        tried += 1
    assert tried >= 4


def test_certificate_fails_a_duplicated_row(h3, tau3):
    """A repeated row is K-invariant but overlaps its twin in support: the
    certificate fails against the trace, and also against one more."""
    tried, subgroups = 0, h3.all_subgroups()
    for sub, res in zip(subgroups, fixed_forms(tau3, subgroups)):
        if not res.dim:
            continue
        num = res.basis.num
        doubled = CycMatrix._packed(tau3.conductor, np.concatenate([num, num[:1]]), 1)
        for dim in (res.dim, res.dim + 1):
            assert certificate_witness(tau3, sub, doubled, dim) == (False, sorted(sub))
        tried += 1
    assert tried >= 4


def test_certificate_fails_a_dropped_row(h3, tau3):
    """All but the last row: invariant and disjoint, one short of the trace."""
    tried, subgroups = 0, h3.all_subgroups()
    for sub, res in zip(subgroups, fixed_forms(tau3, subgroups)):
        if not res.dim:
            continue
        fewer = res.basis[: res.dim - 1]
        assert not oracle.spans_fixed_forms(tau3, sub, fewer)
        assert certificate_witness(tau3, sub, fewer, res.dim) == (False, sorted(sub))
        tried += 1
    assert tried >= 4


def test_hom_dim_examples(h3, tau3):
    assert hom_dim(tau3, [0]) == 3  # p^l: the whole dual space
    plus, _ = polarizations_from_involutions(involution_from_polarization(h3))
    assert hom_dim(tau3, np.flatnonzero(plus[0])) == 1
    # order-two alpha trivial on the center: no invariant forms
    triv = order_two_automorphisms_trivial_on_center(h3).perm[0]
    assert hom_dim(tau3, np.flatnonzero(triv == np.arange(h3.order))) == 0


def test_hom_dim_rejects_a_non_integer_projector_trace(tau3):
    # {0, 3} is no subgroup: (tr tau(0) + tr tau(3)) / 2 = (3 + 0) / 2
    with pytest.raises(RuntimeError, match="is not an integer"):
        hom_dim(tau3, [0, 3])


def hom_dims_through_the_dense_indicator(reps, subgroups) -> np.ndarray:
    """The reference: the character table times the (elements, subgroups)
    0/1 indicator as a CycMatrix, one product of the packed kernel."""
    els = sorted(frozenset().union(*subgroups))
    ind = np.array([[x in k for k in subgroups] for x in els], dtype=np.int64)
    sums = character_table(reps, els) @ CycMatrix.from_roots(
        reps[0].conductor, 0 * ind, ind
    )
    assert not sums.num[..., 1:].any()
    return sums.num[..., 0] // (sums.den * ind.sum(axis=0))


@pytest.mark.parametrize("p", [3, 5])
def test_hom_dims_equals_the_dense_indicator_product(p):
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    irreps = irreducibles_of_H(g)
    reps = irreps + [heisenberg_rep(g, 1, model="plus"), contragredient(irreps[-1])]
    subgroups = g.all_subgroups()
    table = hom_dims(reps, [g.mask(sub) for sub in subgroups])
    assert np.array_equal(table, hom_dims_through_the_dense_indicator(reps, subgroups))
    assert table.dtype == np.int64 and (table >= 0).all()


def test_hom_dims_sums_past_int64_are_exact(h3):
    """Two traces of 2^62 fit int64, their sum does not: the bound moves the
    sum to Python ints.  A trace of 2^70 is an object array from the start."""
    for value, members in ((2**62, [0, 1]), (2**70, [0])):
        col = CycMatrix(12, [[value]] * len(members))
        rep = MatrixRep(h3, members, col.num[:, None], col.den, 12)
        assert hom_dims([rep], [h3.mask(members)])[0, 0] == value


def test_projector_traces_past_int64_are_exact(h3):
    """The bound is the row's total weight times max|num|: a weight of 2 on
    a trace of 2^62 sums to 2^63, past int64, on one element, where the 0/1
    bound (elements times max|num|) would have kept int64."""
    col = CycMatrix(12, [[2**62]])
    rep = MatrixRep(h3, [0], col.num[:, None], col.den, 12)
    weights = np.zeros((2, h3.order), dtype=np.int64)
    weights[:, 0] = (2, 4)
    assert projector_traces([rep], weights, [1, 8]).tolist() == [[2**63, 2**61]]


@pytest.mark.parametrize("value", [2**24 - 1, 2**24 + 1, 2**53 - 1, 2**53 + 1])
def test_projector_traces_at_the_float_tier_edges_are_exact(h3, value):
    """The sums take the packed kernel's tiers, float32 below 2^24, float64
    below 2^53 and Python ints past that: an odd trace just past an edge,
    which the narrower float would round, comes back exact."""
    col = CycMatrix(12, [[value]])
    rep = MatrixRep(h3, [0], col.num[:, None], col.den, 12)
    weights = np.zeros((1, h3.order), dtype=np.int64)
    weights[0, 0] = 1
    assert projector_traces([rep], weights, [1]).tolist() == [[value]]


@pytest.mark.parametrize("config", [1, 2], ids=["H(3, 1)", "Sp x| H(3)"])
def test_projector_traces_equal_character_sums_on_weighted_rows(config):
    """Rows that weigh subgroups of K by 1, 2, 3, 5 and 7 against one
    character sum per rep and row, its elements repeated by their weights:
    tau and tau~ (conductor 12) with the trivial rep (conductor 4) between
    them, in one call that keeps their order."""
    _, g, k_sub, kappa, _ = heisenberg_mackey_configurations()[config]
    subgroups = [g.subgroup_generated([a]) for a in k_sub[1:4]] + [k_sub]
    masks = np.array([g.mask(sub) for sub in subgroups], dtype=np.int64)
    weights = np.array([[1, 0, 0, 0], [2, 3, 0, 0], [0, 5, 7, 1]]) @ masks
    reps = [kappa, _trivial_rep(g, k_sub), contragredient(kappa)]
    assert [rep.conductor for rep in reps] == [12, 4, 12]
    got = projector_traces(reps, weights, [1, 1, 1])
    assert got.shape == (3, 3) and got.dtype == np.int64
    for rep, values in zip(reps, got.tolist()):
        for row, value in zip(weights, values):
            elements = np.repeat(np.arange(g.order), row).tolist()
            expected = character_sum(rep, elements)
            assert CycNumber.from_rational(rep.conductor, value) == expected


def test_hom_dims_rejects_an_irrational_projector_trace(h3, tau3):
    # {0, z} is no subgroup: (tr tau(0) + tr tau(z)) / 2 = (3 + 3 zeta_3) / 2
    with pytest.raises(RuntimeError, match="is not an integer"):
        hom_dims([tau3], [h3.mask([0, h3.central(1)])])


def test_hom_dims_table_equals_character_sums(h3):
    irreps = irreducibles_of_H(h3)
    subgroups = h3.all_subgroups()
    table = hom_dims(irreps, [h3.mask(sub) for sub in subgroups])
    assert table.shape == (len(irreps), len(subgroups))
    for i, rho in enumerate(irreps):
        for j, sub in enumerate(subgroups):
            total = int(table[i, j]) * len(sub)
            expect = CycNumber.from_rational(rho.conductor, total)
            assert character_sum(rho, sorted(sub)) == expect


def test_hom_dim_matches_fixed_forms(h3, tau3):
    subgroups = h3.all_subgroups()
    for sub, res in zip(subgroups, fixed_forms(tau3, subgroups)):
        assert hom_dim(tau3, sub) == res.dim


def test_heisthm_suite_p3_p5():
    for p in (3, 5):
        g = HeisenbergGroup(SymplecticSpace(p, 1))
        tau = heisenberg_rep(g, 1, model="minus")
        cotau = contragredient(tau)
        alphas = order_two_automorphisms_inverting_center(g)
        plus, _ = polarizations_from_involutions(alphas)
        for perm, fixed in zip(alphas.perm, plus):
            assert hom_dim(tau, np.flatnonzero(fixed)) == 1
            twisted = MatrixRep(g, tau.elements, tau.num[perm], tau.den, tau.conductor)
            assert same_character(twisted, cotau)


def test_gelfand_pair_p3_p5():
    for p in (3, 5):
        g = HeisenbergGroup(SymplecticSpace(p, 1))
        irreps = irreducibles_of_H(g)
        alphas = order_two_automorphisms_inverting_center(g)
        for perm in alphas.perm:
            hplus = np.flatnonzero(perm == np.arange(g.order))
            for rho in irreps:
                assert hom_dim(rho, hplus) <= 1


def test_gelfand_double_coset_identity():
    # (-w+, 0)(w+ - w-, -z)(-w+, 0) = (-w+ - w-, -z) for the standard split
    for p in (3, 5):
        g = HeisenbergGroup(SymplecticSpace(p, 1))
        for a in range(p):
            for b in range(p):
                for z in range(p):
                    wp, wm = (a, 0), (0, b)
                    lhs = g.mul(
                        g.mul(
                            g.from_w((-a % p, 0)),
                            g.element(((a - 0) % p, (-b) % p), -z % p),
                        ),
                        g.from_w((-a % p, 0)),
                    )
                    rhs = g.element(((-a) % p, (-b) % p), (-z) % p)
                    assert lhs == rhs


def test_irreducibles_of_H_counts(h3, h5):
    irreps3 = irreducibles_of_H(h3)
    assert sorted(r.dim for r in irreps3) == [1] * 9 + [3, 3]
    irreps5 = irreducibles_of_H(h5)
    assert sorted(r.dim for r in irreps5) == [1] * 25 + [5] * 4
    assert sum(r.dim**2 for r in irreps5) == 125


def test_irreducible_character_orthogonality(h3):
    # (1/|H|) sum_g chi_i(g) conj(chi_j(g)) = [i = j]: the Gram matrix of the
    # character rows is |H| times the identity
    irreps = irreducibles_of_H(h3)
    n = irreps[0].conductor
    table = character_table(irreps, h3.elements())
    gram = table @ table.conj().transpose()
    assert gram == CycMatrix.identity(n, len(irreps)).scale(h3.order)


def test_rep_equivalent_distinguishes_central_characters(h3):
    t1 = heisenberg_rep(h3, 1)
    t2 = heisenberg_rep(h3, 2)
    assert same_character(t1, t1)
    assert not same_character(t1, t2)


def test_hplusfixed_conjugation_identity(h3, tau3):
    # the graph {(w, <w, w0>)} over W+ is W+ x 0 conjugated by (w0, 0)
    rng = random.Random(7)
    for _ in range(10):
        w0 = (rng.randrange(3), rng.randrange(3))
        ws = [h3.names[h].w for h in h3.plus_subgroup]
        lift = frozenset(h3.element(w, h3.space.pair(w, w0)) for w in ws)
        assert h3.is_subgroup(lift)
        g0 = h3.from_w(w0)
        for h in h3.plus_subgroup:
            w = h3.names[h].w
            assert h3.mul(h3.mul(h3.inv(g0), h), g0) == h3.element(
                w, h3.space.pair(w, w0)
            )
        assert hom_dim(tau3, lift) == 1


# -- the homomorphism certificate on generator edges --------------------------------


@pytest.fixture(
    scope="module",
    params=[(p, name) for p in (3, 5) for name in ("tau", "minus", "plus")],
    ids=lambda param: f"{param[1]}-p{param[0]}",
)
def family(request):
    """(group, images in index order) of tau on H, or of the Weil lift of
    the minus or plus model on Sp(W)."""
    p, name = request.param
    space = SymplecticSpace(p, 1)
    g = HeisenbergGroup(space)
    if name == "tau":
        return g, [heisenberg_rep(g, 1).image(h) for h in g.elements()]
    tg, lift = sp_table(space), weil_lift(heisenberg_rep(g, 1, model=name))
    return tg, [lift.image(i) for i in range(tg.order)]


def certificate(group, images) -> Check:
    """MatrixRep.verify_homomorphism on g -> images[g], as its Check."""
    check = Check("certificate")
    num, den = batch_from_matrices(images, images[0].N)
    rep = MatrixRep(group, np.arange(group.order), num, den, images[0].N)
    rep.verify_homomorphism(check)
    return check


def exhaustive_oracle(group, images) -> bool:
    """F(1) = 1 and the whole table of |G|^2 pairs."""
    n = images[0].N
    num, den = batch_from_matrices(images, n)
    everything = np.arange(group.order)
    return images[0] == CycMatrix.identity(n, images[0].nrows) and bool(
        verify_multiplication_table(num, den, group.table, n, everything).all()
    )


def edge_touches(group, witness, s: int) -> bool:
    """The failing edge (x, g), by names, involves s as x, g or x g."""
    x, g = (group.names.index(name) for name in witness)
    return s in (x, g, group.mul(x, g))


def test_certificate_equals_the_exhaustive_oracle(family):
    """On the family and on corruptions of it (one image negated, two images
    swapped, the identity's image negated), the generator-edge certificate
    and the whole table give the same verdict."""
    group, images = family
    rng = random.Random(group.order)
    a, b = rng.sample(range(1, group.order), 2)
    corrupted = [list(images) for _ in range(3)]
    corrupted[0][a] = images[a].scale(-1)
    corrupted[1][a], corrupted[1][b] = images[b], images[a]
    corrupted[2][0] = images[0].scale(-1)
    for family in [images] + corrupted:
        check = certificate(group, family)
        assert check.checks == len(group.generators) * group.order + 1
        assert check.passed == exhaustive_oracle(group, family)
    assert certificate(group, images).passed


def test_every_sign_corruption_fails_the_certificate_on_an_edge_at_it(family):
    """F(s) -> -F(s) for each s != 1 in turn: the certificate fails, and its
    witness is an edge (x, g) with s among x, g and x g."""
    group, images = family
    for s in range(1, group.order):
        family = list(images)
        family[s] = images[s].scale(-1)
        check = certificate(group, family)
        assert not check.passed, s
        assert edge_touches(group, check.witness, s), (s, check.witness)


def test_a_non_generating_set_raises(family):
    """The group's generators replaced by one element (a cyclic, proper
    subgroup) or by none: the certificate raises before any identity."""
    group, images = family
    for gens in ((group.generators[0],), ()):
        narrowed = copy.copy(group)
        narrowed.generators = gens  # shadows the cached property
        with pytest.raises(ValueError, match="do not reach"):
            certificate(narrowed, images)


# -- one read-only stack of images ---------------------------------------------------


@pytest.fixture(scope="module")
def subgroup_reps():
    """label -> (group, kappa) of the p = 3 Heisenberg Mackey test beds."""
    return {
        label: (tg, kappa)
        for label, tg, _, kappa, _ in heisenberg_mackey_configurations()
    }


def test_rep_guard_verify_homomorphism_names_the_elements_covered(subgroup_reps):
    """A rep defined on a subgroup has no certificate on the whole group: the
    H^- kappa covers 9 of the 27 elements of H(3, 1) and kappa_sd, which
    shares tau's stack, 27 of the 648 of Sp x| H."""
    tau = subgroup_reps["H3/G/tau/polar"][1]
    for label, covered, order in (
        ("H3/HhatMinus/zeta/polar", 9, 27),
        ("SpH3/H/tau/polar", 27, 648),
    ):
        tg, kappa = subgroup_reps[label]
        assert tg.order == order and len(kappa.elements) == covered
        with pytest.raises(ValueError, match=f"covers {covered} of the {order} elements"):
            kappa.verify_homomorphism()
    kappa_sd = subgroup_reps["SpH3/H/tau/polar"][1]
    assert kappa_sd.num is tau.num and kappa_sd.elements is tau.elements


def test_rep_guard_characters_outside_the_elements_names_the_element(subgroup_reps):
    """characters() and image() of an element the rep is not defined on raise
    ValueError naming that element: inside the group, past its last element
    and negative."""
    tg, kappa = subgroup_reps["H3/HhatMinus/zeta/polar"]
    members = set(kappa.elements.tolist())
    outside = next(x for x in range(tg.order) if x not in members)
    for x in (outside, tg.order, -1):
        with pytest.raises(ValueError, match=f"element {x} is outside the 9 elements"):
            kappa.characters([kappa.elements[0], x])
        with pytest.raises(ValueError, match=f"element {x} is outside the 9 elements"):
            kappa.image(x)
    kappa_sd = subgroup_reps["SpH3/H/tau/polar"][1]
    with pytest.raises(ValueError, match="element 27 is outside the 27 elements"):
        kappa_sd.characters(range(28))


def test_rep_guard_rejects_elements_that_do_not_match_the_stack(h3, tau3):
    for elements in ([0, 1], tau3.elements[::-1], [0] * 27):
        with pytest.raises(ValueError, match="27 images need as many sorted elements"):
            MatrixRep(h3, elements, tau3.num, tau3.den, tau3.conductor)


@pytest.mark.parametrize("model", ["minus", "plus"])
@pytest.mark.parametrize("p", [3, 5])
def test_contragredient_oracle_on_both_models(p, model):
    """The stacked contragredient, one gather, is rep(g^-1)^T element by
    element."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    tau = heisenberg_rep(g, 1, model=model)
    tilde = contragredient(tau)
    assert np.array_equal(tilde.elements, tau.elements)
    for h in g.elements():
        assert tilde.image(h) == tau.image(g.inv(h)).transpose(), h


def test_contragredient_oracle_on_subgroup_reps():
    """Every kappa of the Mackey zoo and of the Heisenberg test beds, on its
    subgroup K: kappa~(k) = kappa(k^-1)^T for each k in K."""
    configs = [*standard_mackey_configurations(), *heisenberg_mackey_configurations()]
    assert any(len(k) < tg.order for _, tg, k, *_ in configs)
    for label, tg, k, kappa, _ in configs:
        tilde = contragredient(kappa)
        assert tilde.elements.tolist() == sorted(k), label
        for x in k:
            assert tilde.image(x) == kappa.image(tg.inv(x)).transpose(), (label, x)


def test_rep_stacks_are_read_only(h3, tau3, subgroup_reps):
    """Writing into the images or the elements of any rep raises: tau, its
    contragredient, an irreducible character (a view of one table), a
    certificate's edited copy and the subgroup reps."""
    reps = [tau3, contragredient(tau3), irreducibles_of_H(h3)[1]]
    num = tau3.num.copy()
    reps.append(replace(tau3, num=num))
    reps += [kappa for _, kappa in subgroup_reps.values()]
    for rep in reps:
        for stack in (rep.num, rep.elements):
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = stack[-1]
    assert not num.flags.writeable


@pytest.mark.parametrize("p", [3, 5])
def test_irreducible_character_rows_are_rows_of_the_character_table(p):
    """Character i of irreducibles_of_H is h -> zeta_p^<w0_i, w_h> with w0_i
    the i-th offset: its row, read from its stack of 1 x 1 images, is row i
    of the table of those values and of :func:`character_table`."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    irreps = irreducibles_of_H(g)
    els = g.elements()
    table = character_table(irreps, els)
    offsets = list(itertools.product(range(p), repeat=g.dim))
    assert [r.model for r in irreps] == ["char"] * len(offsets) + ["minus"] * (p - 1)
    for i, (rho, w0) in enumerate(zip(irreps, offsets)):
        values = [[zeta_p(p, g.space.pair(w0, g.names[h].w)) for h in els]]
        row = rho.characters(els)
        assert row == CycMatrix(rho.conductor, values) == table[i : i + 1], i


def test_character_table_rows_over_differing_denominators(h3, tau3):
    """A row over another denominator is rescaled to the common one, and
    every row equals the rep's own character row, repeats and subgroup
    reps included."""
    els = [5, 0, 5, 26, 13]
    members = [0, 5, 13, 26]
    num = np.zeros((len(members), 1, 1, tau3.num.shape[-1]), dtype=np.int64)
    num[..., 0] = [[[1]], [[3]], [[1]], [[5]]]
    halves = MatrixRep(h3, members, num, 2, tau3.conductor)  # not a rep: x / 2
    dual = contragredient(tau3)
    for reps in ([tau3, dual], [tau3, halves, dual], [halves]):
        table = character_table(reps, els)
        assert table.den == (2 if halves in reps else 1)
        for i, rep in enumerate(reps):
            assert table[i : i + 1] == rep.characters(els), i
