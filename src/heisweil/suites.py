"""Verification suites: every theorem-level check, packaged for the CLI.

Each suite function takes a :class:`RunConfig` and returns the
:class:`~heisweil.checks.Check` list its :class:`~heisweil.checks.Recorder`
collected: per check, the number of identities evaluated and the first
failing input.  All randomness flows through the config seed, and
iteration orders are deterministic, so a fixed config reproduces a
byte-identical report.

Coverage: a check evaluates every identity it names at every p the
:class:`RunConfig` guard admits (p <= 7), through table broadcasts and the
packed kernels; the SL(2, 3), H(3, 2) and abstract-lift checks run at
p = 3 only.  The homomorphism and intertwining checks, and every
group-law identity of the heisenberg suite (associativity by Light's test,
Sp(W) closure, the character chi_M, commutators against the form, the
special isomorphisms and exists-s), evaluate generator edges, and the
lemmas in their docstrings carry them to every pair or triple, so their
``checks`` count edges, not pairs.  What stays sampled:

- ``scalar.field_axioms``: 40 random triples, as the field is infinite;
- one weil p-gate: the contragredient check is skipped at p = 7, where it
  would be the largest step of ``verify weil --p 7`` (about 0.1 s warm on
  a 2-core VM);
- ``weil.abstract_lift_rep_law``: 40 random pairs per special isomorphism,
  each product read through the law of Sp x| H on index pairs
  (:meth:`~heisweil.weil.AbstractLift.verify_rep_on_pairs`);
- ``mackey.twisted_coset_clauses``: clauses 1 and 3 at one random g per
  configuration;
- the sqrt suite: random elements of congruence groups too large to sweep.

The mackey suite makes one pass per configuration (K, kappa, theta): the
orbits of theta, G^theta, the (K, G^theta) partition, its split
S(theta, Theta') by K-orbit, and the oracle's value for kappa and for
kappa~ are each computed once, and every check of the configuration reads
them.  The configurations of the zoo depend on neither p nor the seed:
they are built once per process (:func:`_mackey_zoo`), read-only, while
the Heisenberg ones, Sp x| H among them, are built per run.  The zoo
also keeps each kappa~ with its character row; only the Heisenberg
configurations build kappa~ per run, and the oracle on kappa~ runs every
time.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from heisweil import heisenberg as heis
from heisweil import mackey as mk
from heisweil import prounipotent as pro
from heisweil import reps as reps_mod
from heisweil import symplectic as sympl
from heisweil import weil as weil_mod
from heisweil.checks import Check, Recorder
from heisweil.groups import double_coset_labels, generators_within
from heisweil.linalg import CycMatrix, root_multiples, trace_table
from heisweil.scalar import (
    CycNumber,
    context,
    gauss_sum,
    legendre_symbol,
    run_conductor,
)

__all__ = [
    "RunConfig",
    "SUITES",
    "standard_mackey_configurations",
]


@dataclass(frozen=True)
class RunConfig:
    p: int = 3
    ell: int = 1
    precision: int = 4  # K for the congruence-subgroup suite
    seed: int = 0

    def validate_for(self, suite: str) -> str | None:
        """Return an error string when a guard rejects this config."""
        from heisweil.scalar import is_odd_prime

        guard = sympl.SP_ENUM_GUARD
        max_p, ell2_p = guard["ell1_max_p"], guard["ell2_p"]
        if not is_odd_prime(self.p):
            return f"p = {self.p} must be an odd prime"
        if self.ell not in (1, 2):
            return f"ell = {self.ell} unsupported (1, or 2 with p = {ell2_p})"
        if self.ell == 2 and self.p != ell2_p:
            return f"ell = 2 is supported only with p = {ell2_p}"
        if self.precision < 1:
            return f"precision = {self.precision} must be at least 1 (K >= k0 = 1)"
        if suite in ("reps", "all") and self.ell != 1:
            return "the reps suite runs at ell = 1 only"
        if suite in ("weil", "all") and self.ell == 1 and self.p > max_p:
            return f"the Weil lift is built only for p <= {max_p} at ell = 1"
        enumerated = suite in ("heisenberg", "reps", "all") and self.ell == 1
        if enumerated and self.p > max_p:
            return f"enumeration suites are guarded to p <= {max_p}"
        return None


# ---------------------------------------------------------------------------
# heisenberg suite: scalars, the symplectic layer, H itself, special isos
# ---------------------------------------------------------------------------


def suite_heisenberg(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed)
    p = cfg.p
    n = run_conductor(p)
    phi = context(n).phi
    rec = Recorder()

    # exact field arithmetic on random triples
    def rand_cyc():
        return CycNumber(
            n, [rng.randrange(-4, 5) for _ in range(phi)], rng.randrange(1, 4)
        )

    c = rec("scalar.field_axioms")
    for _ in range(40):
        a, b, x = rand_cyc(), rand_cyc(), rand_cyc()
        c((a + b) + x == a + (b + x), ("(a + b) + c", a, b, x))
        c((a * b) * x == a * (b * x), ("(a b) c", a, b, x))
        c(a * (b + x) == a * b + a * x, ("a (b + c)", a, b, x))
        if not a.is_zero():
            c(a * a.inverse() == CycNumber.one(n), ("a a^-1", a))

    g = gauss_sum(p)
    c = rec("scalar.gauss_sum")
    c(g * g.conj() == CycNumber.from_rational(n, p), "g conj(g) = p")
    c(g * g == CycNumber.from_rational(n, legendre_symbol(-1, p) * p), "g^2")

    space = sympl.SymplecticSpace(p, cfg.ell)
    if cfg.ell == 1:
        sp = sympl.sp_table(space)
        names, mats = sp.names, sp.matrices
        rec("symplectic.group_order")(len(mats) == p * (p * p - 1), len(mats))
        # x s is the listed matrix at t[x, s] on every generator edge; each y
        # is a word s_1 ... s_k in the generators, so x y = x s_1 ... s_k is
        # listed too, one edge at a time: Sp(W) is closed under products
        sp_gens = np.array(sp.generators)
        edges = mats[:, None] @ mats[sp_gens] % p == mats[sp.table[:, sp_gens]]
        rec("symplectic.closure").all(
            edges.all(axis=(-2, -1)), lambda i, j: (names[i], names[sp_gens[j]])
        )

        # chi_M(m s) = chi_M(m) chi_M(s) on the edges of M: chi_M raises off
        # M, so M s lies in M, and chi_M is multiplicative one edge at a time
        ms = sympl.enumerate_M(space)
        chi = sympl.chi_M(space, ms)
        m_index = sympl.sp_index(space, ms)
        m_gens = mats[generators_within(sp, m_index)]
        c = rec("symplectic.chi_M_order_two_homomorphism")
        c.all(
            sympl.chi_M(space, ms[:, None] @ m_gens % p)
            == chi[:, None] * sympl.chi_M(space, m_gens),
            lambda i, j: (sympl.sp_witness(ms[i]), sympl.sp_witness(m_gens[j])),
        )
        c(set(chi.tolist()) == {1, -1}, "image is {1, -1}")

        pol = space.standard_polarization()
        in_m = sp.mask(m_index.tolist())
        keeps = _keeps(mats, pol.plus_span(), p) & _keeps(mats, pol.minus_span(), p)
        rec("symplectic.M_is_polarization_stabilizer").all(
            keeps == in_m, lambda i: names[i]
        )

        c = rec("symplectic.eigen_polarization_of_involutions")
        anti = sympl.enumerate_antisymplectic(space)
        for s in anti[(anti @ anti % p == np.eye(2, dtype=np.int64)).all(axis=(1, 2))]:
            try:
                sympl.Polarization(space, *sympl.eigen_polarization(space, s))
            except ValueError:
                c(False, sympl.sp_witness(s, -1))
            else:
                c(True)

    group = heis.HeisenbergGroup(space)
    gens = group.generators
    rec("heisenberg.group_axioms").all(
        group.associativity_edges(), lambda x, i, y: (x, gens[i], y)
    )
    rec("heisenberg.commutator_equals_form").all(
        group.commutator_form_edges(), lambda x, i: (x, gens[i])
    )

    isos = heis.all_special_isos(group)
    rec("heisenberg.special_iso_count")(len(isos) == p ** (2 * cfg.ell), len(isos))
    if cfg.ell == 1:
        c = rec("heisenberg.special_iso_axioms")
        for nu in isos:
            nu.check_axioms(c)
        same_map, same_preimage, exists_s = heis.special_iso_equal_tests(isos)
        rec("heisenberg.special_iso_equal_tests_agree").all(
            (same_map == same_preimage) & (same_preimage == exists_s),
            lambda i, j: (isos[i], isos[j]),
        )

        c = rec("heisenberg.split_polarization_roundtrips")
        base = heis.special_iso_from_split_polarization(
            group, group.plus_subgroup(), group.minus_subgroup()
        )
        c(base.offset == (0,) * group.dim, base)
        g0 = group.element(tuple([1] + [0] * (group.dim - 1)), 0)
        hplus = frozenset(group.conjugate(g0, h) for h in group.plus_subgroup())
        hminus = frozenset(group.conjugate(g0, h) for h in group.minus_subgroup())
        nu2 = heis.special_iso_from_split_polarization(group, hplus, hminus)
        matching = [
            x
            for x in isos
            if all(x.mu[h] == 0 for h in hplus) and all(x.mu[h] == 0 for h in hminus)
        ]
        c(matching == [nu2], matching)
        for nu in isos:
            hminus_split = heis.split_polarization_from_iso(
                nu, group.plus_subgroup(), group.minus_z_subgroup()
            )
            c(len(hminus_split) == p**cfg.ell, nu)

        c = rec("heisenberg.order_two_trivial_center")
        center = sorted(group.center())
        for a in heis.order_two_automorphisms_trivial_on_center(group):
            c(a.is_order_two(), a)
            for z in center:
                c(a.apply(z) == z, (a, z))

    # H(3, 2) restricted to H(3, 1): the one check that builds the ell = 2
    # group, so it runs only where that group is in reach
    if p == 3 and cfg.ell == 1:
        _specisores_check(rec("heisenberg.special_iso_restriction"), group)
    return rec


def _keeps(mats, span, p: int) -> np.ndarray:
    """Whether each matrix of the stack maps the set of vectors ``span``
    into itself: s v for every s and v, as columns, found by their codes."""
    vecs = np.array(sorted(span), dtype=np.int64)[..., None]
    moved = mats[:, None] @ vecs % p
    return np.isin(sympl.codes(p, moved), sympl.codes(p, vecs)).all(axis=-1)


def _specisores_check(c: Check, small: heis.HeisenbergGroup) -> None:
    """Every special isomorphism of H(3, 2), restricted to H(3, 1) =
    ``small``, is one of H(3, 1)."""
    big = heis.HeisenbergGroup(sympl.SymplecticSpace(3, 2))
    # (w1, w2; z) -> (w1, 0, w2, 0; z) preserves the form
    embed = big.index_of(np.insert(small.w, [1, 2], 0, axis=1), small.z)

    for nu in heis.all_special_isos(big):
        heis.special_iso_axioms(small, nu.mu[embed], c)


# ---------------------------------------------------------------------------
# reps suite
# ---------------------------------------------------------------------------


def suite_reps(cfg: RunConfig) -> list[Check]:
    p = cfg.p
    rec = Recorder()
    group = heis.HeisenbergGroup(sympl.SymplecticSpace(p, 1))
    els = group.elements()
    n = run_conductor(p)
    tau = reps_mod.heisenberg_rep(group, 1, model="minus")
    tau.verify_homomorphism(rec("reps.heisenberg_rep_homomorphism"))

    # fixed forms: the double-coset basis and its certificate, on every subgroup
    c = rec("reps.fixed_forms_oracle_equivalence")
    for sub in group.all_subgroups():
        res = reps_mod.fixed_forms(tau, sub, c)
        if group.center() <= sub:
            c(res.dim == 0, sorted(sub))

    c = rec("reps.fixed_forms_examples")
    w0 = group.subgroup_generated([group.from_w(tuple([1] * group.dim))])
    for label, sub, dim in (
        ("H+", group.plus_subgroup(), 1),
        ("center", group.center(), 0),
        ("<(1, ..., 1)>", w0, 1),
    ):
        c(reps_mod.fixed_forms(tau, sub).dim == dim, label)

    # <tau(h) e_i, tau~(h) e_j> = <e_i, e_j> for every pair of basis vectors:
    # the pairing is the dot product, so tau(h)^T tau~(h) is the identity
    cotau_model = reps_mod.heisenberg_rep(group, p - 1, model="minus")
    eye = CycMatrix.identity(n, tau.dim)
    rec("reps.invariant_pairing").all(
        [
            (tau.image(h).transpose() @ cotau_model.image(h)).equal_entries(eye)
            for h in els
        ],
        lambda h, i, j: (h, i, j),
    )

    cotau_row = reps_mod.contragredient(tau).characters(els)
    alphas = heis.order_two_automorphisms_inverting_center(group)
    # H^alpha, the H^+ of the polarization attached to alpha
    plus = [heis.polarization_from_involution(alpha)[0] for alpha in alphas]
    c = rec("reps.involution_polarization_and_homdim")
    for alpha, dim in zip(alphas, reps_mod.hom_dims([tau], plus)[0]):
        c(dim == 1, alpha)
        # tau o alpha ~ tau~: the character of tau o alpha is tau's at alpha(h)
        c(tau.characters(alpha.perm) == cotau_row, alpha)

    irreps = reps_mod.irreducibles_of_H(group)
    rec("reps.gelfand_bound").all(
        reps_mod.hom_dims(irreps, plus).T <= 1, lambda a, i: (alphas[a], i)
    )
    _double_coset_identity(rec("reps.gelfand_coset_identity"), group)

    # the irreducibles are p^2 characters and p - 1 of dimension p, pairwise
    # orthogonal of norm 1: their Gram matrix is |H| times the identity
    c = rec("reps.irreducible_census")
    dims = sorted(r.dim for r in irreps)
    c(dims == [1] * p**2 + [p] * (p - 1), dims)
    chars = reps_mod.character_table(irreps, els)
    gram = chars @ chars.conj().transpose()
    c.all(gram.equal_entries(CycMatrix.identity(n, len(irreps)).scale(group.order)))

    c = rec("reps.central_trivial_involutions_have_no_forms")
    for a in heis.order_two_automorphisms_trivial_on_center(group):
        c(reps_mod.hom_dim(tau, a.fixed_points()) == 0, a)
    return rec


def _double_coset_identity(c: Check, group) -> None:
    """(-a, 0)(a, -b; -z)(-a, 0) = (-a, -b; -z) for every a, b, z in F_p."""
    a, b, z = np.indices((group.p,) * 3)
    t, x = group.table, group.index_of(np.stack([-a, 0 * a], axis=-1), 0)
    middle = group.index_of(np.stack([a, -b], axis=-1), -z)
    c.all(t[t[x, middle], x] == group.index_of(np.stack([-a, -b], axis=-1), -z))


# ---------------------------------------------------------------------------
# weil suite
# ---------------------------------------------------------------------------


def suite_weil(cfg: RunConfig) -> list[Check]:
    p = cfg.p
    rec = Recorder()
    if cfg.ell == 2:
        group = heis.HeisenbergGroup(sympl.SymplecticSpace(3, 2))
        lift = weil_mod.weil_lift(reps_mod.heisenberg_rep(group, 1, model="plus"))
        weil_mod.verify_homomorphism(lift, check=rec("weil.generator_relations"))
        weil_mod.verify_intertwining(lift, check=rec("weil.intertwining"))
        return rec

    group = heis.HeisenbergGroup(sympl.SymplecticSpace(p, 1))
    # the plus lift is dropped before the minus lift is built, so no
    # certificate runs while both are held; its checks join the report below
    lift_plus = weil_mod.weil_lift(reps_mod.heisenberg_rep(group, 1, model="plus"))
    hom_plus = weil_mod.verify_homomorphism(
        lift_plus, check=Check("weil.homomorphism_plus_model")
    )
    action_plus = weil_mod.p_action_check(
        lift_plus, check=Check("weil.parabolic_action_plus")
    )
    del lift_plus

    lift = weil_mod.weil_lift(reps_mod.heisenberg_rep(group, 1, model="minus"))
    norm = lift.normalization
    rec("weil.normalization_unitary")(
        norm * norm.conj() * p == CycNumber.one(norm.N), norm
    )
    weil_mod.verify_homomorphism(lift, check=rec("weil.homomorphism_exhaustive"))
    rec.append(hom_plus)
    weil_mod.verify_intertwining(lift, check=rec("weil.intertwining"))
    rec("weil.restriction_is_base")(lift.restriction_is_base())
    weil_mod.trace_sign_on_M(lift, check=rec("weil.trace_sign_on_levi"))
    weil_mod.p_action_check(lift, check=rec("weil.parabolic_action_minus"))
    rec.append(action_plus)

    # tr omega(s) tau(h) on Sp x H, read by the abstract-lift and the
    # contragredient checks
    table = _sp_h_table(lift) if p < 7 else None
    if p == 3:
        _sl23_checks(rec, lift)
        _abstract_lift_checks(rec, lift, table, cfg)
    else:
        ab = weil_mod.sp_abelianization_order(group.space)
        rec("weil.unique_extension_no_characters")(
            ab == 1, {"abelianization_order": ab}
        )
    if p < 7:  # a p-gate: see the module docstring
        _contragredient_check(rec, lift, table)
    return rec


def _sl23_checks(rec: Recorder, lift) -> None:
    alpha, beta, _, ref = weil_mod.sl23_reference(lift)
    tg, n = sympl.sp_table(lift.space), lift.base.conductor
    names, els = tg.names, np.arange(tg.order)
    target = alpha.characters(els) + beta.characters(els)
    lifted = trace_table(n, (lift.num[ref.translate], lift.den))
    rec("weil.sl23_character_is_alpha_plus_beta").all(
        lifted.equal_entries(target)[0], lambda i: names[i]
    )

    j = int(sympl.sp_index(lift.space, sympl.weyl_element(lift.space)))
    m = weil_mod.lift_in_odd_even_basis(ref, tg.inv(j))
    even = CycMatrix(12, [[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
    rec("weil.sl23_beta_j_matrix")(
        even == ref.beta_j_displayed,
        {
            "even_block": even,
            "displayed_reading": ref.displayed_j_reading,
            "note": "printed Fourier operator represents the inverse "
            "Weyl element; see README",
        },
    )
    # det beta(s) = ad - bc: tr of the row (a, b) of beta(x) times the column
    # (d, -c) of beta(y), one trace_table over beta's stack, at x = y
    rows = beta.num[:, :1]
    cols = (beta.num[:, 1, ::-1] * np.array([1, -1])[:, None])[..., None, :]
    table = trace_table(n, (cols, beta.den), (rows, beta.den))
    dets = CycMatrix._packed(n, table.num[els, els][None], table.den)
    rec("weil.sl23_det_beta_is_alpha").all(
        dets.equal_entries(alpha.characters(els))[0], lambda i: names[i]
    )

    exts = weil_mod.three_extensions_p3(lift)
    chars = [trace_table(n, (num, lift.den)) for num in exts]
    translated = [trace_table(n, (num[ref.translate], lift.den)) for num in exts]
    c = rec("weil.sl23_three_extensions_and_selection")
    c(len(set(chars)) == 3, {"distinct_characters": len(set(chars))})
    c(translated.count(target) == 1, {"selected": translated.count(target)})


def _sp_h_table(lift) -> CycMatrix:
    """tr(omega(s) tau(h)) for s in sp_table order and h in H: one trace_table."""
    base = lift.base
    return trace_table(base.conductor, (base.num, base.den), (lift.num, lift.den))


def _abstract_lift_checks(rec: Recorder, lift, table, cfg: RunConfig) -> None:
    rng = random.Random(cfg.seed)
    g = lift.group
    els = sympl.sp_table(g.space).names
    sps, xs = range(len(els)), g.elements()
    # entry (s, y) of the lift's Sp x H table is tr(omega(s) tau(y)); the
    # abstract lift through nu has character (s, h) -> entry (s, nu(h)), so
    # nu = 0 reads entry (s, x)
    reference = table[:, [heis.SpecialIso(g, (0,) * g.dim).image(x) for x in xs]]
    # images[h] = tau(h), and twisted[k, h] = zeta_p^k tau(h), both over one
    # denominator: one kernel call for every (k, h)
    images = lift.base.num
    twisted = root_multiples(lift.base.conductor, g.p, images)
    twist = rec("weil.abstract_lift_twist_relation")
    match = rec("weil.abstract_lift_characters_nu_independent")
    rep_law = rec("weil.abstract_lift_rep_law")
    for nu in heis.all_special_isos(g):
        ab = weil_mod.abstract_lift(lift, nu)
        # tau(nu(h)) = zeta_p^<w_h, w0> tau(h) for every h at once
        pairings = g.w @ g.space.form @ np.array(nu.offset) % g.p
        same = images[[nu.image(h) for h in xs]] == twisted[pairings, xs]
        twist.all(same.all(axis=(1, 2, 3)), lambda h: (nu, h))
        chars = table[:, [nu.image(nu.inverse_image(x)) for x in xs]]
        match.all(
            chars.equal_entries(reference), lambda i, j: (nu, els[i], xs[j])
        )
        pairs = [
            ((rng.choice(sps), rng.choice(g.elements())),
             (rng.choice(sps), rng.choice(g.elements())))
            for _ in range(40)
        ]
        ab.verify_rep_on_pairs(pairs, rep_law)


def _contragredient_check(rec: Recorder, lift, table) -> None:
    """tr(omega(s^-1) tau(s . h^-1)) = tr(omega~(s) tau~(h)) for every (s, h):
    the character of the contragredient of the lift, read off the lift's
    Sp x H table ``table``, against the lift of tau~."""
    g = lift.group
    lift_tilde = weil_mod.weil_lift(reps_mod.heisenberg_rep(g, g.p - 1, model="minus"))
    tg = sympl.sp_table(g.space)
    els = tg.names
    act = g.linear_action(tg.matrices)  # act[i, h] = s_i . h
    i, h = np.indices(act.shape)
    lhs = table[tg.inverse_of[i], act[i, g.inverse_of[h]]]
    rec("weil.contragredient_of_lift_is_lift_of_contragredient").all(
        lhs.equal_entries(_sp_h_table(lift_tilde)), lambda i, h: (els[i], h)
    )


# ---------------------------------------------------------------------------
# mackey suite
# ---------------------------------------------------------------------------


def _abelian_characters(tg: mk.TableGroup, members: list[int], conductor: int):
    """All characters of an abelian subgroup K with values in the N-th roots
    of unity, N = ``conductor``, as MatrixReps on the sorted members, in the
    order of their values on the generators S of K.

    A character is read as its root exponents c: K -> Z/N.  Every tuple of
    exponents N e / d on S (d the order of the generator, 0 <= e < d) is
    extended along the breadth-first layers of K, c(x a) = c(x) + c(a) on
    an edge that reaches x a, all tuples at once; the layer after the
    identity is S itself, so c keeps the tuple on S.  A tuple is kept where
    c(x a) = c(x) + c(a) on all K x S edges: by the generator lemma of
    :mod:`heisweil.groups` that makes c a character, and distinct tuples
    give distinct characters.
    """
    gens = generators_within(tg, members)
    orders = [tg.element_order(a) for a in gens]
    if any(conductor % d for d in orders):
        return []
    steps = [conductor // d * np.arange(d) for d in orders]
    exps = np.array(list(itertools.product(*steps)), dtype=np.int64)  # (tuples, |S|)
    c = np.full((len(exps), tg.order), -1, dtype=np.int64)  # -1: not reached yet
    c[:, 0] = 0
    for frontier, products in tg._layers(gens):
        x, j = np.nonzero(c[0, products] < 0)
        c[:, products[x, j]] = (c[:, frontier[x]] + exps[:, j]) % conductor
    k = np.array(sorted(members), dtype=np.int64)
    sums = (c[:, k, None] + exps[:, None]) % conductor
    kept = (c[:, tg.table[k[:, None], gens]] == sums).all(axis=(1, 2))
    chars = []
    for row in c[kept][:, k, None]:
        col = CycMatrix.from_roots(conductor, row, np.ones_like(row))
        chars.append(reps_mod.MatrixRep(tg, k, col.num[:, None], col.den, conductor))
    return chars


def _trivial_rep(tg: mk.TableGroup, members):
    members = sorted(members)
    one = CycMatrix.identity(4, 1).num[None]
    return reps_mod.MatrixRep(tg, members, one.repeat(len(members), axis=0), 1, 4)


def standard_mackey_configurations():
    """(label, group, K, kappa, theta) tuples covering >= 20 cases, as a
    fresh list over the one zoo :func:`_mackey_zoo` builds per process.

    Groups of order <= 48 from the zoo; involutions are enumerated
    automorphisms where the order permits and inner involutions otherwise.
    """
    return list(_mackey_zoo()[0])


@functools.cache
def _mackey_zoo():
    """(configurations, stabilizer cases, contragredients), built once per
    process, as none depends on p or the seed; a run reads them and
    evaluates every identity anew.  Each table and ``inverse_of`` is
    read-only, K is a sorted tuple and theta a frozen record, so no run can
    change what the next one reads.  The stabilizer cases are (label,
    group, theta) for S3, D4 and Q8 with their first nontrivial involution.
    The contragredients are kappa~ of each configuration, in order; every
    rep's stack of images is read-only."""
    configs = []

    def add(label, tg, k_members, theta, kappa=None):
        k_members = tuple(sorted(k_members))
        kappa = _trivial_rep(tg, k_members) if kappa is None else kappa
        configs.append((label, tg, k_members, kappa, theta))

    # symmetric groups
    s3 = mk.symmetric_group(3)
    a3, c2 = _cyclic_subgroup(s3, 3), _cyclic_subgroup(s3, 2)
    thetas3 = _nontrivial(mk.all_involutive_automorphisms(s3))
    for i, chi in enumerate(_abelian_characters(s3, a3, 3)):
        add(f"S3/A3/chi{i}/theta0", s3, a3, thetas3[0], chi)
    add("S3/C2/triv/theta0", s3, c2, thetas3[0])
    add("S3/G/triv/theta0", s3, range(6), thetas3[0])
    add("S3/A3/triv/theta1", s3, a3, thetas3[1])

    s4 = mk.symmetric_group(4)
    nontriv4 = _nontrivial(mk.inner_involutions(s4))
    # K = a copy of S3 inside S4 (stabilizer of the last point)
    s3_in_s4 = [i for i, name in enumerate(s4.names) if name[3] == 3]
    add("S4/S3/triv/inner", s4, s3_in_s4, nontriv4[0])
    v4 = [i for i, name in enumerate(s4.names) if _is_v4(name)]
    for i, chi in enumerate(_abelian_characters(s4, v4, 4)[:2]):
        add(f"S4/V4/chi{i}/inner", s4, v4, nontriv4[1], chi)

    # dihedral groups (orders 8, 10, 12: every involutive automorphism)
    for n in (4, 5, 6):
        dn = mk.dihedral_group(n)
        rot = _cyclic_subgroup(dn, n)
        thetas = _nontrivial(mk.all_involutive_automorphisms(dn))
        if n == 4:
            d4 = dn, thetas[0]
        for i, chi in enumerate(_abelian_characters(dn, rot, n)[: 2 if n > 4 else 3]):
            add(f"D{n}/C{n}/chi{i}/theta0", dn, rot, thetas[0], chi)
        if len(thetas) > 2:
            add(f"D{n}/C{n}/triv/theta2", dn, rot, thetas[2])

    # quaternion group
    q8 = mk.quaternion_group()
    thetas8 = _nontrivial(mk.all_involutive_automorphisms(q8))
    i_sub = sorted(q8.subgroup_generated([2]))
    for i, chi in enumerate(_abelian_characters(q8, i_sub, 4)[:3]):
        add(f"Q8/C4/chi{i}/theta0", q8, i_sub, thetas8[0], chi)
    add("Q8/C4/triv/theta1", q8, i_sub, thetas8[1])

    # S3 x C2 (order 12), K = C6
    s3c2 = mk.direct_product(mk.symmetric_group(3), mk.cyclic_group(2))
    c6 = _cyclic_subgroup(s3c2, 6)
    theta12 = _nontrivial(mk.all_involutive_automorphisms(s3c2))
    add("S3xC2/C6/triv/theta0", s3c2, c6, theta12[0])
    chars6 = _abelian_characters(s3c2, c6, 6)
    add("S3xC2/C6/chi1/theta0", s3c2, c6, theta12[0], chars6[1])

    # S4 x C2 (order 48), K = a cyclic 4-subgroup, inner involution
    s4c2 = mk.direct_product(mk.symmetric_group(4), mk.cyclic_group(2))
    c4 = _cyclic_subgroup(s4c2, 4)
    theta48 = _nontrivial(mk.inner_involutions(s4c2))[0]
    add("S4xC2/C4/triv/inner", s4c2, c4, theta48)
    chars4 = _abelian_characters(s4c2, c4, 4)
    add("S4xC2/C4/chi1/inner", s4c2, c4, theta48, chars4[1])

    for tg in {id(tg): tg for _, tg, *_ in configs}.values():
        for shared in (tg.table, tg.inverse_of):
            shared.flags.writeable = False
    tildes = tuple(reps_mod.contragredient(kappa) for *_, kappa, _ in configs)
    stabilizer = (("S3", s3, thetas3[0]), ("D4", *d4), ("Q8", q8, thetas8[0]))
    return tuple(configs), stabilizer, tildes


def _cyclic_subgroup(tg: mk.TableGroup, order: int) -> list[int]:
    """The first cyclic subgroup <a> of the given order, as sorted indices."""
    gen = (s for a in range(tg.order) if len(s := tg.subgroup_generated([a])) == order)
    return sorted(next(gen))


def _nontrivial(thetas) -> list:
    return [t for t in thetas if not t.is_identity()]


def _is_v4(perm) -> bool:
    # double transpositions and the identity (the Klein four-subgroup of S4)
    fixed = sum(1 for i, x in enumerate(perm) if i == x)
    return fixed == 4 or fixed == 0 and _order2(perm)


def _order2(perm) -> bool:
    return all(perm[perm[i]] == i for i in range(len(perm)))


def heisenberg_mackey_configurations():
    """The p = 3 Heisenberg group and Sp x| H as Mackey test beds."""
    configs = []
    sd, group = mk.semidirect_table_group(sympl.SymplecticSpace(3, 1))
    tau = reps_mod.heisenberg_rep(group, 1, model="minus")

    alpha = heis.involution_from_polarization(group)
    theta = mk.InvolutionRecord(tuple(alpha.perm.tolist()))
    k_members = sorted(group.minus_z_subgroup())
    # kappa(h) = zeta_3^z(h) on the members, as a stack of 1 x 1 images
    exps = 4 * group.z[k_members][:, None]
    zetas = CycMatrix.from_roots(12, exps, np.ones_like(exps))
    kappa = reps_mod.MatrixRep(group, k_members, zetas.num[:, None], zetas.den, 12)
    configs.append(("H3/HhatMinus/zeta/polar", group, k_members, kappa, theta))
    configs.append(
        ("H3/G/tau/polar", group, list(range(group.order)), tau, theta)
    )

    # {1} x H holds the indices h < |H|, as Sp(W) lists the identity first;
    # kappa there is omega(1) tau(h) = tau(h), as the lift sends 1 to 1
    h_members = list(range(group.order))
    kappa_sd = reps_mod.MatrixRep(sd, tau.elements, tau.num, tau.den, 12)
    theta_sd = mk.semidirect_involution_record(alpha)
    configs.append(("SpH3/H/tau/polar", sd, h_members, kappa_sd, theta_sd))
    return configs


def suite_mackey(cfg: RunConfig) -> list[Check]:
    rec = Recorder()
    zoo, _, zoo_tildes = _mackey_zoo()
    heis = heisenberg_mackey_configurations()
    configs = [*zoo, *heis]
    tildes = [
        *zoo_tildes,
        *(reps_mod.contragredient(kappa) for *_, kappa, _ in heis),
    ]
    dcs = rec("mackey.double_coset_sum_equals_oracle")
    clauses = rec("mackey.twisted_coset_clauses")
    triangle = rec("mackey.triangle_bijection")
    bounded = rec("mackey.multiplicity_bound")
    orbmult = rec("mackey.orbit_multiplicity_formula")
    contr = rec("mackey.contragredient_multiplicity")
    rng = random.Random(cfg.seed)
    for (label, tg, k_members, kappa, theta), tilde in zip(configs, tildes):
        orbit = mk.involution_orbits(tg, [theta], range(tg.order))[0]
        k_orbits = mk.involution_orbits(tg, orbit, k_members, validate=False)
        orbit_of = {t.perm: i for i, o in enumerate(k_orbits) for t in o}
        g = rng.randrange(tg.order)
        moved = mk.conjugate_involution(tg, g, theta)
        cosets = _twisted_cosets(tg, k_members, [*orbit[:3], moved], orbit_of)
        fixed, _, reps, split = cosets[theta.perm]
        h_members = sorted(fixed)
        oracle = mk.induced_hom_dim_oracle(tg, k_members, kappa, h_members)
        mackey = mk.mackey_hom_dim(tg, k_members, kappa, h_members, reps)
        dcs(mackey == oracle, {"config": label, "mackey": mackey, "oracle": oracle})
        _twisted_coset_checks(
            clauses, triangle, label, tg, k_members, theta, g, moved, cosets, orbit_of
        )
        m, bound = mk.m_K(tg, k_members, theta, split[orbit_of[theta.perm]])
        if bound is not None:
            bounded(m <= bound, {"config": label, "m_K": m, "h1_bound": bound})
        rhs = mk.orbmult_rhs(tg, k_members, kappa, k_orbits, m)
        orbmult(oracle == rhs, {"config": label, "lhs": oracle, "rhs": rhs})
        tilde_oracle = mk.induced_hom_dim_oracle(tg, k_members, tilde, h_members)
        contr(oracle == tilde_oracle, label)

    _invstab_check(rec("mackey.involution_stabilizer"))
    return rec


def _twisted_cosets(tg, k_members, involutions, orbit_of) -> dict:
    """Per involution t, by ``perm``: G^t, the (K, G^t) partition (the label
    of every element, the smallest member of each coset) and its split
    S(t, Theta') by K-orbit; one partition per distinct fixed subgroup."""
    partitions, cosets = {}, {}
    for t in involutions:
        if t.perm in cosets:
            continue
        fixed = mk.fixed_subgroup(tg, t)
        if fixed not in partitions:
            labels = double_coset_labels(tg, k_members, fixed)
            partitions[fixed] = labels, np.unique(labels, return_index=True)[1].tolist()
        labels, reps = partitions[fixed]
        cosets[t.perm] = fixed, labels, reps, mk.s_theta(tg, t, reps, orbit_of)
    return cosets


def _twisted_coset_checks(
    c: Check, triangle: Check, label, tg, k_members, theta, g, moved, cosets, orbit_of
) -> None:
    """Clauses 1-4 on S(theta, Theta') = {K x G^theta : x.theta in Theta'}
    and the coset/class triangle, for theta and moved = g.theta, read off
    the cosets of :func:`_twisted_cosets`."""
    _, labels, reps, split = cosets[theta.perm]
    _, labels_moved, _, split_moved = cosets[moved.perm]
    mine = orbit_of[theta.perm]
    s_base = split[mine]

    # x theta(x)^-1 for every x, and where it is central
    t = tg.table
    twist = t[np.arange(tg.order), tg.inverse_of[list(theta.perm)]]
    central = tg.mask(tg.center())[twist]
    first_central = {}  # coset label -> its smallest member with a central twist
    for x in np.flatnonzero(central).tolist():
        first_central.setdefault(labels[x], x)

    # clause 2: membership <-> a representative with g theta(g)^-1 central
    members = set(s_base)
    for x in reps:
        c(
            (x in members) == (labels[x] in first_central),
            {"config": label, "clause": 2, "x": x},
        )

    # clause 4: |S(t, Theta')| only depends on the G-orbit, for every t here
    sizes = {len(s) for *_, split_t in cosets.values() for s in split_t}
    c(len(sizes) == 1, {"config": label, "clause": 4, "sizes": sorted(sizes)})

    # clause 1: S(g.theta, Theta') = S(theta, Theta') g^-1
    expected = {labels_moved[t[x, tg.inv(g)]] for x in s_base}
    c(
        {labels_moved[x] for x in split_moved[mine]} == expected,
        {"config": label, "clause": 1, "g": g},
    )

    # clause 3: K g1 G^theta -> K (g g1 g^-1) G^(g.theta), using a central-twist
    # representative g1 in each member of S(theta, K.theta), is a bijection
    # onto S(g.theta, K.(g.theta))
    image_keys = {
        labels_moved[tg.conjugate(g, first_central[labels[x]])]
        for x in s_base
        if labels[x] in first_central
    }
    c(
        len(image_keys) == len(s_base)
        and image_keys == {labels_moved[x] for x in split_moved[orbit_of[moved.perm]]},
        {"config": label, "clause": 3, "g": g},
    )

    # the triangle: x -> x theta(x)^-1 maps the double cosets one-to-one onto
    # the twisted classes
    classes = mk.twisted_classes(tg, k_members, theta)
    class_of = {y: i for i, cl in enumerate(classes) for y in cl}
    hit = {class_of[twist[x]] for x in reps}
    triangle(len(reps) == len(classes) == len(hit), label)


def _invstab_check(c: Check) -> None:
    for label, tg, theta in _mackey_zoo()[1]:
        center = tg.center()
        for a in range(tg.order):
            stab = mk.conjugate_involution(tg, a, theta).perm == theta.perm
            central = tg.mul(a, tg.inv(theta.apply(a))) in center
            c(stab == central, {"group": label, "a": a})


# ---------------------------------------------------------------------------
# sqrt suite (congruence subgroups)
# ---------------------------------------------------------------------------


def suite_sqrt(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed)
    rec = Recorder()

    g1 = pro.CongruenceGroup(1, 3, 4)
    root, levels = pro.sqrt_with_trace(g1, [[4]])
    roots = [int(x[0, 0]) for x in g1.enumerate() if (int(x[0, 0]) ** 2) % 81 == 4]
    c = rec("sqrt.scalar_example")
    c(int(root[0, 0]) == 79, {"root": int(root[0, 0]), "levels": levels})
    c(roots == [79], {"roots_by_enumeration": roots})

    c = rec("sqrt.random_square_roots")
    for n_size, p, K in itertools.product((1, 2), (3, 5), (3, 4, 5, 6)):
        group = pro.CongruenceGroup(n_size, p, K)
        # 63 * 16 combinations > 1000 roots
        a = group.random_elements(rng, 63)
        x = pro.sqrt(group, a)
        c.all(np.all(group.mul(x, x) == a, axis=(-2, -1)), lambda i: (group, a[i]))

    c = rec("sqrt.uniqueness_exhaustive")
    for group in (
        pro.CongruenceGroup(2, 3, 3),
        pro.CongruenceGroup(1, 5, 5),
        pro.CongruenceGroup(2, 3, 2),
    ):
        els = group.enumerate(guard=10_000)
        squares = group.mul(els, els)
        a = group.random_elements(rng, 5)
        roots = pro.sqrt(group, a)
        # hits[i, j]: els[j] squares to a[i]
        hits = np.all(squares == a[:, None], axis=(-2, -1))
        for a_i, hit, root in zip(a, hits, roots):
            found = els[hit]
            c(len(found) == 1 and np.array_equal(found[0], root), (group, a_i))

    g27 = pro.CongruenceGroup(2, 3, 3)
    pro.h1_alpha_trivial(
        g27,
        pro.make_alpha(g27, "transpose_inverse"),
        mode="exhaustive",
        check=rec("sqrt.h1_exhaustive_transpose_inverse"),
    )
    g6 = pro.CongruenceGroup(2, 3, 6)
    pro.h1_alpha_trivial(
        g6,
        pro.make_alpha(g6, "transpose_inverse", perm=(1, 0)),
        mode="constructive",
        witnesses=100,
        seed=cfg.seed,
        check=rec("sqrt.h1_constructive_witnesses"),
    )

    c = rec("sqrt.alpha_factor_witnesses")
    labels = ("a b = c", "alpha(a) = a", "alpha(b) = b")
    for n_size in (2, 3):
        group = pro.CongruenceGroup(n_size, 3, cfg.precision)
        perm = tuple(range(n_size - 1, -1, -1))
        alpha = pro.make_alpha(group, "transpose_inverse", perm=perm)
        cm = _cayley_fixed_points(group, rng, 50)
        a, b = pro.alpha_factor(group, cm, "upper", "lower", alpha)
        # one row per sample, one column per label
        ok = np.stack(
            [group.mul(a, b) == cm, alpha(a) == a, alpha(b) == b], axis=1
        ).all(axis=(-2, -1))
        c.all(ok, lambda i, j: (labels[j], group, cm[i]))
    return rec


def _cayley_fixed_points(group: pro.CongruenceGroup, rng: random.Random, count: int):
    """``count`` alpha-fixed elements c = (1 - x)^-1 (1 + x) as one stack,
    for alpha = J0 (transpose inverse) J0 with the antidiagonal J0: x is
    (y - J0 y^T J0) / 2 for y = g - 1, g from
    :meth:`~heisweil.prounipotent.CongruenceGroup.random_elements`.  As
    x = 0 mod p^k0, 1 - x and 1 + x and so c lie in the group."""
    mod, one = group.modulus, group.identity()
    inv2 = pow(2, -1, mod)
    y = (group.random_elements(rng, count) - one) % mod
    # J0 y^T J0 for the antidiagonal J0; entries stay below mod^2 / 2
    x = ((y - y.swapaxes(-1, -2)[..., ::-1, ::-1]) % mod * inv2) % mod
    c = group.mul(group.inv((one - x) % mod), (one + x) % mod)
    if not np.all(group.contains(c)):
        raise RuntimeError("a Cayley transform left the congruence group")
    return c


SUITES = {
    "heisenberg": suite_heisenberg,
    "reps": suite_reps,
    "weil": suite_weil,
    "mackey": suite_mackey,
    "sqrt": suite_sqrt,
}
