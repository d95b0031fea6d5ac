import dataclasses
import operator
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

import elimination_oracle as oracle
import heisweil.linalg as linalg
import heisweil.weil as weil_mod
from heisweil.cli import run

from heisweil.checks import Check, Recorder
from heisweil.groups import extend_hom
from heisweil.heisenberg import HeisenbergGroup, SpecialIso, all_special_isos
from heisweil.linalg import CycMatrix, batch_from_matrices, packed_product_table
from heisweil.reps import MatrixRep, heisenberg_rep
from heisweil.scalar import CycNumber, root_of_unity, zeta_p
from heisweil.suites import SUITES, RunConfig, _abstract_lift_checks, _sp_h_table
from heisweil.symplectic import (
    GuardError,
    SymplecticSpace,
    chi_P,
    enumerate_P,
    m_element,
    n_element,
    sp_index,
    sp_witness,
    weyl_element,
)
from heisweil.weil import (
    NormalizationError,
    _intertwining_table,
    _inverse_2x2,
    abstract_lift,
    lift_in_odd_even_basis,
    p_action_check,
    sl23_reference,
    sp_abelianization_order,
    sp_table,
    three_extensions_p3,
    trace_sign_on_M,
    verify_homomorphism,
    verify_intertwining,
    weil_lift,
)


@pytest.fixture(scope="module")
def lift3():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    return weil_lift(heisenberg_rep(g, 1, model="minus"))


@pytest.fixture(scope="module")
def lift5():
    g = HeisenbergGroup(SymplecticSpace(5, 1))
    return weil_lift(heisenberg_rep(g, 1, model="minus"))


@pytest.fixture(scope="module")
def ref3(lift3):
    return sl23_reference(lift3)


def with_images(lift, replaced: dict):
    """The lift with the rows of its stack at the indices of ``replaced``
    swapped for the given images, over the lcm of all denominators."""
    den = lcm(lift.den, *(image.den for image in replaced.values()))
    num = lift.num * (den // lift.den)
    for i, image in replaced.items():
        num[i] = image.num * (den // image.den)
    return dataclasses.replace(lift, num=num, den=den)


def index_of(space, m) -> int:
    """The sp_table index of one matrix."""
    return int(sp_index(space, m))


def test_weil_lift_stack_is_read_only(lift3):
    """semidirect_family is cached from the stack: neither the images nor
    the elements can be written in place, and a replaced row makes a new
    lift with its own family."""
    family = lift3.semidirect_family
    for stack in (lift3.num, lift3.sp_elements):
        with pytest.raises(ValueError, match="read-only"):
            stack[1] = stack[0]
    bad = with_images(lift3, {1: lift3.image(0)})
    assert not bad.num.flags.writeable
    assert bad.semidirect_family is not family
    assert lift3.semidirect_family is family


def test_normalization_magnitude(lift3, lift5):
    for lift, p in ((lift3, 3), (lift5, 5)):
        c = lift.normalization
        assert c * c.conj() * p == CycNumber.one(c.N)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_homomorphism_exhaustive(p):
    """The certificate reads 1 + |S| |Sp| identities, and its oracle, the
    whole table of |Sp|^2 pairs, holds too."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model="minus"))
    report = verify_homomorphism(lift)
    tg, n = sp_table(lift.space), lift.base.conductor
    order = p * (p * p - 1)
    assert len(tg.generators) == 2
    assert report.checks == 2 * order + 1
    assert report.passed
    assert lift.sp_elements is tg.matrices
    assert linalg.verify_multiplication_table(lift.num, lift.den, tg.table, n) == []


def _fixed_space_dim(s, p: int) -> int:
    """dim ker(s - 1) over F_p for a 2x2 matrix s."""
    a, b, c, d = (int(x) for x in s.flat)
    m = ((a - 1) % p, b % p, c % p, (d - 1) % p)
    if not any(m):
        return 2
    return 1 if (m[0] * m[3] - m[1] * m[2]) % p == 0 else 0


@pytest.mark.parametrize("model", ["plus", "minus"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_character_norm_howe_gerardin(p, model):
    # |tr omega(g)|^2 = p^dim ker(g - 1) for every g in Sp(W) (Howe 1973,
    # Gerardin 1977): an O(|Sp|) oracle that uses no pair products.
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model=model))
    assert len(lift.num) == p * (p * p - 1)
    for i, s in enumerate(lift.sp_elements):
        tr = lift.image(i).trace()
        assert tr * tr.conj() == p ** _fixed_space_dim(s, p), s


def test_homomorphism_plus_model_and_other_characters():
    g = HeisenbergGroup(SymplecticSpace(5, 1))
    for k in (1, 2, 3):
        for model in ("plus", "minus"):
            lift = weil_lift(heisenberg_rep(g, k, model=model))
            assert verify_homomorphism(lift).passed
            assert verify_intertwining(lift).passed


def test_intertwining_exhaustive_p3(lift3):
    """The check reads the generator pairs of Sp x H; the identity holds on
    every (s, h), the oracle its lemma stands for."""
    report = verify_intertwining(lift3)
    assert report.checks == 2 * 3 and report.passed
    g = lift3.group
    every = list(range(len(lift3.num)))
    assert _intertwining_table(lift3, every, g.elements()).all()


def sp_generators(lift) -> list:
    """The sp_table indices of the generators of Sp(W)."""
    return list(sp_table(lift.space).generators)


def test_intertwining_witness_is_the_first_failing_pair(lift3):
    """A generator's image swapped for another: the count stays
    |S_Sp| |S_H| and the witness is the first (s, h) of the per-pair loop
    over generators that fails."""
    s = sp_generators(lift3)[1]
    bad = with_images(lift3, {s: lift3.image(9)})
    report = verify_intertwining(bad)
    g, tau, mat = bad.group, bad.base.image, bad.image(s)
    action = g.linear_action(bad.sp_elements[s])
    first = next(h for h in g.generators if mat @ tau(h) != tau(action[h]) @ mat)
    assert report.checks == 2 * 3 and not report.passed
    assert report.witness == (sp_witness(bad.sp_elements[s]), g.names[first])


def per_s_intertwining(lift, sps, hs) -> np.ndarray:
    """The reference: omega(s) tau(h) and tau(s.h) omega(s) as two packed
    product tables per s, against the tau images stacked over one
    denominator."""
    n, g, tau, k = lift.base.conductor, lift.group, lift.base.image, len(hs)
    ok = np.empty((len(sps), k), dtype=bool)
    for i, s in enumerate(sps):
        mat, moved = lift.image(s), g.linear_action(lift.sp_elements[s])[hs]
        taus, _ = batch_from_matrices([tau(h) for h in hs] + [tau(h) for h in moved], n)
        lhs = packed_product_table(n, mat.num[None], taus[:k])[0]
        rhs = packed_product_table(n, taus[k:], mat.num[None])[:, 0]
        ok[i] = (lhs == rhs).all(axis=(1, 2, 3))
    return ok


def corrupted_lift(lift, sps, seed: int):
    """The images omega(s), s in ``sps``, replaced by omega(s) tau(h), h
    non-central, so the identities of those s fail for the h that h does
    not commute with."""
    rng = random.Random(seed)
    g, images = lift.group, {}
    noncentral = [h for h in g.elements() if h not in g.center()]
    for s in sps:
        image = images.get(s, lift.image(s))
        images[s] = image @ lift.base.image(rng.choice(noncentral))
    return with_images(lift, images)


@pytest.mark.parametrize("model", ["minus", "plus"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_intertwining_gathers_equal_per_s_products(p, model):
    lift = weil_lift(heisenberg_rep(HeisenbergGroup(SymplecticSpace(p, 1)), 1, model=model))
    g, sps = lift.group, list(range(len(lift.num)))
    lift = corrupted_lift(lift, random.Random(p).sample(sps, 4) + sp_generators(lift), p)
    gens = list(g.generators)
    hs = g.elements() if p < 7 else gens + list(range(0, g.order, 17))
    ok = _intertwining_table(lift, sps, hs)
    assert not ok.all()
    assert np.array_equal(ok, per_s_intertwining(lift, sps, hs))
    gen_sps = sp_generators(lift)
    assert np.array_equal(
        _intertwining_table(lift, gen_sps, gens), per_s_intertwining(lift, gen_sps, gens)
    )


@pytest.mark.parametrize("model", ["minus", "plus"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_intertwining_corrupted_image_reports_the_first_failing_pair(p, model):
    """One generator's omega(s) replaced by omega(s) tau(h), h non-central:
    the check fails with the first (s, h) of the per-s products over the
    generators of Sp and of H."""
    lift = weil_lift(heisenberg_rep(HeisenbergGroup(SymplecticSpace(p, 1)), 1, model=model))
    g, sps = lift.group, sp_generators(lift)
    for s in sps:
        bad = corrupted_lift(lift, [s], 10 * p)
        report = verify_intertwining(bad)
        reference = per_s_intertwining(bad, sps, list(g.generators))
        i, j = np.argwhere(~reference)[0]
        assert report.checks == reference.size == 6 and not report.passed
        witness = (sp_witness(lift.sp_elements[sps[i]]), g.names[g.generators[j]])
        assert report.witness == witness and sps[i] == s


def test_verify_weil_p7_kernel_calls(monkeypatch, capsys):
    """The homomorphism certificates run on the generator rows, and
    intertwining and the parabolic action as stacked calls: the p = 7 weil
    suite makes at most 100 kernel calls (644 with a row per element of
    Sp(W), 1 531 with one call per element)."""
    calls = []
    kernel = linalg._packed_products

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(linalg, "_packed_products", counted)
    assert run(["verify", "weil", "--p", "7", "--seed", "1"]) == 0
    assert "checks=1445 failures=0" in capsys.readouterr().err
    assert len(calls) <= 100


def test_a_corrupted_non_generator_image_fails_the_weil_report(monkeypatch, tmp_path):
    """omega(s) negated for one s outside the generators of SL(2, 3): the
    certificate reads edges only at the generators, and still fails, with
    an edge at s as its witness, and the report fails."""
    import json

    import heisweil.weil as weil_mod

    tg = sp_table(SymplecticSpace(3, 1))
    s = next(i for i in range(1, tg.order) if i not in tg.generators)
    real = weil_mod.weil_lift

    def corrupted(tau):
        lift = real(tau)
        if tau.model != "minus":
            return lift
        return with_images(lift, {s: lift.image(s).scale(-1)})

    monkeypatch.setattr(weil_mod, "weil_lift", corrupted)
    check = next(
        c for c in run_suite("weil", 3) if c.check == "weil.homomorphism_exhaustive"
    )
    assert not check.passed and check.checks == 2 * tg.order + 1
    x, g = (tg.names.index(name) for name in check.witness)
    assert s in (x, g, tg.mul(x, g))
    out = tmp_path / "report.json"
    assert run(["verify", "weil", "--p", "3", "--out", str(out)]) == 1
    failed = [f["check"] for f in json.loads(out.read_text())["failures"]]
    assert "weil.homomorphism_exhaustive" in failed


def run_suite(name: str, p: int):
    from heisweil.suites import SUITES

    return SUITES[name](RunConfig(p=p))


# the suites of one verify-sweep pass, as argv of cli.run
SWEEP = (
    ["verify", "all", "--p", "3"],
    ["verify", "mackey", "--p", "5"],
    ["verify", "sqrt", "--p", "5"],
    ["verify", "weil", "--p", "7"],
)


def test_sp_table_second_sweep_pass_builds_none(capsys):
    """Sp(W) is built once per space and process: after one sweep pass the
    next one finds every table it reads in the cache."""
    import heisweil.symplectic as sympl

    assert all(run(argv) == 0 for argv in SWEEP)
    built = sympl.sp_table.cache_info()
    assert all(run(argv) == 0 for argv in SWEEP)
    again = sympl.sp_table.cache_info()
    assert again.misses == built.misses and again.hits > built.hits
    capsys.readouterr()


def test_sp_table_verify_all_p3_builds_one_semidirect_table_and_three_lifts(
    monkeypatch, capsys
):
    """verify all --p 3 builds Sp x| H once (the mackey configuration; the
    abstract lift reads the law on pairs) and three p = 3 Weil lifts: the
    plus, the minus and the contragredient's (the SL(2, 3) reference reads
    the minus lift, and the mackey configuration takes tau as it is)."""
    import heisweil.mackey as mk
    import heisweil.weil as weil_mod

    calls = {"semidirect_table_group": 0, "weil_lift": 0}
    for module, name in ((mk, "semidirect_table_group"), (weil_mod, "weil_lift")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    assert run(["verify", "all", "--p", "3"]) == 0
    assert calls == {"semidirect_table_group": 1, "weil_lift": 3}
    capsys.readouterr()


@pytest.mark.parametrize("model", ["minus", "plus"])
def test_p_action_corrupted_image_reports_the_first_element(model):
    """Two images of P negated: the stacked check counts |P| identities and
    reports the first failing element of a per-element loop."""
    g = HeisenbergGroup(SymplecticSpace(5, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model=model))
    space, n = lift.space, lift.base.conductor
    parabolic = enumerate_P(space)
    at = sp_index(space, parabolic).tolist()
    bad = with_images(lift, {x: lift.image(x).scale(-1) for x in (at[-3], at[7])})
    report = p_action_check(bad)
    lam = CycMatrix(n, [[1] * lift.base.dim]) if model == "minus" else None
    if lam is None:
        origin = lift.base.basis_labels.index((0,))
        lam = CycMatrix(n, [[int(t == origin) for t in range(lift.base.dim)]])
    first = next(
        i
        for i, x in enumerate(at)
        if lam @ bad.image(x) != lam.scale(int(chi_P(space, parabolic[i])))
    )
    assert report.checks == len(parabolic) and not report.passed
    assert report.witness == sp_witness(parabolic[first]) and first == 7


def test_restriction_to_identity_is_tau(lift3):
    assert lift3.restriction_is_base()


def test_trace_sign_on_M_for_all_p(lift3, lift5):
    for lift in (lift3, lift5):
        assert trace_sign_on_M(lift).passed
    g7 = HeisenbergGroup(SymplecticSpace(7, 1))
    lift7 = weil_lift(heisenberg_rep(g7, 1, model="minus"))
    assert trace_sign_on_M(lift7).passed


def test_trace_values_on_levi(lift5):
    # m(1) has trace p^l > 0; m(2) over F_5 has trace chi(2) * 1 = -1
    space = lift5.space
    assert lift5.image(index_of(space, m_element(space, [[1]]))).trace() == 5
    tr = lift5.image(index_of(space, m_element(space, [[2]]))).trace()
    assert tr.is_rational() and tr.rational_value() < 0


def test_p_action_in_both_models():
    for p in (3, 5, 7):
        g = HeisenbergGroup(SymplecticSpace(p, 1))
        for model in ("plus", "minus"):
            lift = weil_lift(heisenberg_rep(g, 1, model=model))
            assert p_action_check(lift).passed


def test_weil_guard_rejects_large_p():
    g = HeisenbergGroup(SymplecticSpace(11, 1))
    with pytest.raises(GuardError, match="guarded to ell=1, p<=7 or ell=2, p=3; got"):
        weil_lift(heisenberg_rep(g, 1))


# -- the SL(2,3) appendix model ---------------------------------------------------


def test_sl23_reference_rejects_other_lifts(lift5):
    g3, g32 = (HeisenbergGroup(SymplecticSpace(3, ell)) for ell in (1, 2))
    others = (
        lift5,
        weil_lift(heisenberg_rep(g3, 1, model="plus")),
        weil_lift(heisenberg_rep(g3, 2, model="minus")),
        weil_lift(heisenberg_rep(g32, 1, model="plus")),
    )
    for lift in others:
        with pytest.raises(ValueError, match="sl23_reference needs the lift"):
            sl23_reference(lift)


def test_sl23_alpha_values(ref3):
    alpha, beta, lift, ref = ref3
    space = lift.space
    assert alpha.image(index_of(space, weyl_element(space)))[0, 0] == CycNumber.one(12)
    assert alpha.image(index_of(space, n_element(space, [[1]])))[0, 0] == zeta_p(3, -1)
    scalar_minus = m_element(space, [[2]])  # diag(2, 2^-1) = diag(-1,-1) mod 3
    assert alpha.image(index_of(space, scalar_minus))[0, 0] == CycNumber.one(12)


def test_sl23_beta_det_is_alpha(ref3):
    alpha, beta, lift, ref = ref3
    for s in range(sp_table(lift.space).order):
        assert oracle.det(beta.image(s)) == alpha.image(s)[0, 0]


def test_sl23_character_decomposition(ref3):
    alpha, beta, lift, ref = ref3
    els = range(sp_table(lift.space).order)
    for s in els:
        lhs = lift.image(ref.translate[s]).trace()
        assert lhs == alpha.image(s)[0, 0] + beta.image(s).trace()


def test_sl23_displayed_beta_j_is_even_block_at_j_inverse(ref3):
    alpha, beta, lift, ref = ref3
    space = lift.space
    jel = index_of(space, weyl_element(space))
    m = lift_in_odd_even_basis(ref, sp_table(space).inv(jel))
    even = CycMatrix(12, [[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
    assert even == ref.beta_j_displayed
    # and the image at j itself is its inverse, i.e. the negative
    m2 = lift_in_odd_even_basis(ref, jel)
    even2 = CycMatrix(12, [[m2[1, 1], m2[1, 2]], [m2[2, 1], m2[2, 2]]])
    assert even2 == oracle.inverse(ref.beta_j_displayed)
    assert ref.displayed_j_reading == "inverse"


def test_sl23_only_the_inverse_reading_passes_the_certificate(ref3):
    """beta is extend_hom of beta(n(1)) and beta(j); with the displayed
    matrix read directly as beta(j) the extension fills SL(2, 3) but the
    homomorphism certificate refuses it, and alpha and beta pass it."""
    alpha, beta, lift, ref = ref3
    space, tg = lift.space, sp_table(lift.space)
    n1 = index_of(space, n_element(space, [[1]]))
    jel = index_of(space, weyl_element(space))
    gens = {n1: beta.image(n1), jel: ref.beta_j_displayed}
    images = extend_hom(tg, gens, operator.matmul, CycMatrix.identity(12, 2))
    num, den = batch_from_matrices([images[s] for s in range(tg.order)], 12)
    direct = MatrixRep(tg, np.arange(tg.order), num, den, 12)
    check = Check("direct reading")
    assert not direct.verify_homomorphism(check) and check.witness is not None
    assert beta.image(jel) == oracle.inverse(ref.beta_j_displayed)
    assert alpha.verify_homomorphism() and beta.verify_homomorphism()


def test_sl23_unipotent_and_scalar_operators_match_printed_formulas(ref3):
    alpha, beta, lift, ref = ref3
    space = lift.space
    n = 12
    # printed: n(b) acts on C[F_3] by the phase zeta(-b t^2); the appendix
    # n(b) is the lower unipotent [[1,0],[-b,1]] in the package basis
    for b in (1, 2):
        img = lift.image(ref.translate[index_of(space, n_element(space, [[b]]))])
        expected = CycMatrix(
            n,
            [
                [
                    zeta_p(3, -b * t * t) if s == t else 0
                    for s in range(3)
                ]
                for t in range(3)
            ],
        )
        expected = CycMatrix(
            n, [[expected[i, j] for j in range(3)] for i in range(3)]
        )
        assert img == expected
    # printed: diag(a, a) acts by chi(a) f(a t)
    for a in (1, 2):
        sc = m_element(space, [[a]]) if a == 1 else m_element(space, [[2]])
        img = lift.image(ref.translate[index_of(space, sc)])
        sign = 1 if a == 1 else -1
        rows = [[CycNumber.zero(n)] * 3 for _ in range(3)]
        for t in range(3):
            rows[t][(a * t) % 3] = CycNumber.from_rational(n, sign)
        assert img == CycMatrix(n, rows)


def test_sl23_odd_part_carries_alpha(ref3):
    alpha, beta, lift, ref = ref3
    els = range(sp_table(lift.space).order)
    for s in els:
        m = lift_in_odd_even_basis(ref, s)
        assert m[0, 0] == alpha.image(s)[0, 0]
        assert m[0, 1].is_zero() and m[1, 0].is_zero()


def test_sl23_alpha_and_beta_are_reps_on_sp_table(ref3):
    alpha, beta, lift, ref = ref3
    tg = sp_table(lift.space)
    for rep, dim in ((alpha, 1), (beta, 2)):
        assert rep.group is tg and rep.dim == dim
        assert np.array_equal(rep.elements, np.arange(24))
        assert rep.verify_homomorphism()
    assert ref.alpha is alpha and ref.beta is beta


def test_sl23_adjugate_inverse_equals_the_oracle_inverse(ref3):
    rng = random.Random(23)
    tried = 0
    for n in (12, 28):
        for _ in range(10):
            entry = lambda: rng.randint(-3, 3) * root_of_unity(n, rng.randrange(n))
            m = CycMatrix(n, [[entry(), entry()], [entry(), entry()]])
            if oracle.det(m).is_zero():
                with pytest.raises(ZeroDivisionError):
                    _inverse_2x2(m)
                continue
            assert _inverse_2x2(m) == oracle.inverse(m)
            tried += 1
    assert tried >= 10
    displayed = ref3[3].beta_j_displayed
    assert _inverse_2x2(displayed) == oracle.inverse(displayed)


def test_sl23_adjugate_not_over_the_determinant_raises(monkeypatch):
    m = CycMatrix(12, [[1, 2], [3, 4]])  # ad - bc = -2
    monkeypatch.setattr(CycMatrix, "scale", lambda self, c: self)
    with pytest.raises(RuntimeError, match="does not invert"):
        _inverse_2x2(m)


def test_sl23_even_basis_inverse_is_the_constant(ref3):
    ref = ref3[3]
    half = Fraction(1, 2)
    constant = CycMatrix(12, [[0, half, -half], [1, 0, 0], [0, half, half]])
    assert ref.even_basis_inverse == constant
    assert constant == oracle.inverse(ref.even_basis_change)


def test_sl23_wrong_even_basis_constant_raises(lift3, monkeypatch):
    monkeypatch.setattr(weil_mod, "Fraction", lambda a, b: Fraction(1, 3))
    with pytest.raises(RuntimeError, match="inverse of the even basis change"):
        sl23_reference(lift3)


def test_three_extensions_and_selection(lift3):
    n, den = lift3.base.conductor, lift3.den
    exts = [[CycMatrix._packed(n, x, den) for x in ext] for ext in three_extensions_p3(lift3)]
    assert len(exts) == 3
    tg = sp_table(lift3.space)
    els = range(tg.order)
    # each is a homomorphism on a sample of pairs
    rng = random.Random(3)
    for imgs in exts:
        for _ in range(60):
            s, t = rng.choice(els), rng.choice(els)
            assert imgs[s] @ imgs[t] == imgs[tg.mul(s, t)]
    chars = [tuple((imgs[s].trace()) for s in els) for imgs in exts]
    assert len(set(chars)) == 3
    # the selected lift is the one whose character matches alpha + beta
    alpha, beta, _, ref = sl23_reference(lift3)
    target = tuple(
        alpha.image(s)[0, 0] + beta.image(s).trace() for s in els
    )
    translated = [
        tuple(imgs[ref.translate[s]].trace() for s in els) for imgs in exts
    ]
    assert translated.count(target) == 1
    assert tuple(lift3.image(ref.translate[s]).trace() for s in els) == target


@pytest.mark.parametrize("p,expected", [(3, 3), (5, 1), (7, 1)])
def test_sp_abelianization(p, expected):
    assert sp_abelianization_order(SymplecticSpace(p, 1)) == expected


# -- contragredient compatibility -------------------------------------------------


def _semidirect_inverse(tg, g, s, h):
    w, z = g.names[g.inv(h)]
    return tg.inv(s), g.element(tg.matrices[s] @ np.array(w), z)


def test_contragredient_of_lift_is_lift_of_contragredient(lift3):
    g = lift3.group
    tau_tilde = heisenberg_rep(g, 2, model="minus")  # the zeta^-1 model
    lift_tilde = weil_lift(tau_tilde)
    tg = sp_table(g.space)
    for s in range(tg.order):
        for h in g.elements():
            si, hi = _semidirect_inverse(tg, g, s, h)
            # the character of the contragredient
            lhs = (lift3.image(si) @ lift3.base.image(hi)).trace()
            rhs = (lift_tilde.image(s) @ lift_tilde.base.image(h)).trace()
            assert lhs == rhs


# -- abstract lifts through special isomorphisms -----------------------------------


def test_abstract_lift_base_iso_is_plain_lift(lift3):
    g = lift3.group
    nu0 = SpecialIso(g, (0, 0))
    ab = abstract_lift(lift3, nu0)
    for h in g.elements():
        assert ab.h_image(h) == lift3.base.image(h)


def test_abstract_lift_twist_relation(lift3):
    g = lift3.group
    for nu in all_special_isos(g):
        ab = abstract_lift(lift3, nu)
        for h in g.elements():
            twist = zeta_p(3, g.space.pair(g.names[h].w, nu.offset))
            assert ab.h_image(h) == lift3.base.image(h).scale(twist)


def test_abstract_lift_twist_relation_on_a_corrupted_base_matches_reference(lift3):
    """The suite's stacked twist relation against one ``scale`` per (nu, h):
    same count, same first (nu, h) witness, on a base with one bad image."""
    g = lift3.group
    num = lift3.base.num.copy()
    num[4] *= -1
    base = dataclasses.replace(lift3.base, num=num)
    bad = dataclasses.replace(lift3, base=base)
    witness = None
    for nu in all_special_isos(g):
        for h in g.elements():
            twist = zeta_p(3, g.space.pair(g.names[h].w, nu.offset))
            if witness is None and base.image(nu.image(h)) != base.image(h).scale(twist):
                witness = (nu, h)
    rec = Recorder()
    _abstract_lift_checks(rec, bad, _sp_h_table(bad), RunConfig())
    (check,) = [c for c in rec if c.check == "weil.abstract_lift_twist_relation"]
    assert check.checks == 243 and not check.passed
    assert witness is not None and check.witness == witness

    rec = Recorder()
    _abstract_lift_checks(rec, lift3, _sp_h_table(lift3), RunConfig())
    (check,) = [c for c in rec if c.check == "weil.abstract_lift_twist_relation"]
    assert check.checks == 243 and check.passed


def test_abstract_lift_is_rep_of_twisted_product(lift3):
    g = lift3.group
    els = range(sp_table(g.space).order)
    rng = random.Random(11)
    hs = g.elements()
    for nu in all_special_isos(g):
        ab = abstract_lift(lift3, nu)
        pairs = [
            (
                (rng.choice(els), rng.choice(hs)),
                (rng.choice(els), rng.choice(hs)),
            )
            for _ in range(100)
        ]
        assert ab.verify_rep_on_pairs(pairs)


def test_abstract_lift_characters_nu_independent(lift3):
    """Matched through nu, every choice gives the same character function."""
    g = lift3.group
    els = range(sp_table(g.space).order)
    base = abstract_lift(lift3, SpecialIso(g, (0, 0)))
    reference = {
        (s, x): (lift3.image(s) @ base.h_image(x)).trace()
        for s in els
        for x in g.elements()
    }
    for nu in all_special_isos(g):
        ab = abstract_lift(lift3, nu)
        for s in els:
            for x in g.elements():
                h = nu.inverse_image(x)  # the element matching x
                image = lift3.image(s) @ ab.h_image(h)
                assert image.trace() == reference[(s, x)]


def _rep_law_per_pair(lift, nu, pairs):
    """The rep law of the abstract lift, one ``@`` per factor: the
    multiplication of Sp x|_nu H written out from its definition
    (s1, h1)(s2, h2) = (s1 s2, (s2^-1 ._nu h1) h2), with
    s ._nu h = nu^-1(s . nu(h)).  Returns (count, first failing witness)."""
    g, tg = lift.group, sp_table(lift.space)

    def image(s, h):
        return lift.image(s) @ lift.base.image(nu.image(h))

    def twisted_action(s, h):
        return nu.inverse_image(g.linear_action(tg.matrices[s])[nu.image(h)])

    witness = None
    for (s1, h1), (s2, h2) in pairs:
        prod = image(tg.mul(s1, s2), g.mul(twisted_action(tg.inv(s2), h1), h2))
        if witness is None and image(s1, h1) @ image(s2, h2) != prod:
            witness = (nu, (tg.names[s1], h1), (tg.names[s2], h2))
    return len(pairs), witness


def test_abstract_lift_rep_law_matches_per_pair_reference_on_a_corrupted_lift(lift3):
    g = lift3.group
    els = range(sp_table(g.space).order)
    s_bad = els[5]
    # no longer a homomorphism
    bad = with_images(lift3, {s_bad: lift3.image(s_bad).scale(zeta_p(3, 1))})
    rng = random.Random(5)
    hs = g.elements()
    failed = 0
    for nu in all_special_isos(g):
        pairs = [
            ((rng.choice(els), rng.choice(hs)), (rng.choice(els), rng.choice(hs)))
            for _ in range(40)
        ]
        pairs[7] = ((s_bad, hs[2]), (els[1], hs[4]))  # every nu meets s_bad
        check = Check("weil.abstract_lift_rep_law")
        passed = abstract_lift(bad, nu).verify_rep_on_pairs(pairs, check)
        count, witness = _rep_law_per_pair(bad, nu, pairs)
        assert check.checks == count == 40
        assert check.witness == witness
        assert passed == (witness is None)
        failed += not passed
    assert failed == len(all_special_isos(g))
    assert abstract_lift(lift3, all_special_isos(g)[1]).verify_rep_on_pairs(pairs)


def test_abstract_lift_rep_law_guards_p_above_3(lift5):
    g = lift5.group
    pairs = [((0, 0),) * 2]
    with pytest.raises(GuardError, match="p <= 3"):
        abstract_lift(lift5, SpecialIso(g, (0, 0))).verify_rep_on_pairs(pairs)


# -- ell = 2: generator relations --------------------------------------------------


def test_ell2_relation_mode():
    g = HeisenbergGroup(SymplecticSpace(3, 2))
    tau = heisenberg_rep(g, 1, model="plus")
    lift = weil_lift(tau)
    assert lift.generators_only
    rep = verify_homomorphism(lift)
    assert rep.check == "weil.generator_relations"
    assert rep.passed and rep.checks == 8
    assert verify_intertwining(lift).passed


def test_ell2_corrupted_generator_image_fails_the_suite(monkeypatch, tmp_path):
    """omega(j) negated at ell = 2: j^2 = m(-1) still holds, the braid
    relation does not, and the weil suite fails with no flag to pick the
    relation check."""
    import json

    import heisweil.weil as weil_mod

    real = weil_mod.weil_lift

    def corrupted(tau):
        lift = real(tau)
        is_j = (lift.sp_elements == weyl_element(lift.space)).all(axis=(1, 2))
        (j,) = np.flatnonzero(is_j)
        return with_images(lift, {j: lift.image(j).scale(-1)})

    monkeypatch.setattr(weil_mod, "weil_lift", corrupted)
    checks = {c.check: c for c in SUITES["weil"](RunConfig(p=3, ell=2))}
    relations = checks["weil.generator_relations"]
    assert not relations.passed and relations.checks == 8
    assert relations.witness == "(j n(I))^3 = 1"
    assert checks["weil.intertwining"].passed  # a scalar commutes with tau
    out = tmp_path / "report.json"
    assert run(["verify", "weil", "--p", "3", "--ell", "2", "--out", str(out)]) == 1
    failed = [f["check"] for f in json.loads(out.read_text())["failures"]]
    assert failed == ["weil.generator_relations"]


# -- failure witnesses name elements of Sp(W) by their matrices ---------------------


def test_a_corrupted_levi_image_reports_its_matrix(monkeypatch, tmp_path):
    """omega(m(2)) negated in the p = 5 minus lift: the Levi trace sign and
    the parabolic action fail at m(2), and the report writes each Sp(W)
    witness as {"matrix": rows, "sign": 1}."""
    import json

    import heisweil.weil as weil_mod

    real = weil_mod.weil_lift

    def corrupted(tau):
        lift = real(tau)
        if tau.model != "minus" or tau.zeta_exponent != 1:
            return lift
        m2 = index_of(lift.space, m_element(lift.space, [[2]]))
        return with_images(lift, {m2: lift.image(m2).scale(-1)})

    monkeypatch.setattr(weil_mod, "weil_lift", corrupted)
    out = tmp_path / "report.json"
    assert run(["verify", "weil", "--p", "5", "--out", str(out)]) == 1
    failures = {f["check"]: f["witness"] for f in json.loads(out.read_text())["failures"]}
    m2 = {"matrix": [[2, 0], [0, 3]], "sign": 1}
    trace = {"N": 20, "coeffs": [[1, 1]] + [[0, 1]] * 7}  # tr = +1, chi^M(2) = -1
    assert failures == {
        "weil.homomorphism_exhaustive": [
            {"matrix": [[0, 1], [4, 0]], "sign": 1},
            {"matrix": [[0, 2], [2, 0]], "sign": 1},
        ],
        "weil.trace_sign_on_levi": [m2, trace],
        "weil.parabolic_action_minus": m2,
        "weil.contragredient_of_lift_is_lift_of_contragredient": [
            {"matrix": [[3, 0], [0, 2]], "sign": 1},
            0,
        ],
    }
