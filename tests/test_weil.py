import dataclasses
import functools
import hashlib
import operator
import random
import runpy
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

import elimination_oracle as oracle
from group_oracles import form_pair, special_iso_inverse_image
import heisweil.linalg as linalg
import heisweil.weil as weil_mod
from heisweil.cli import run

from heisweil.checks import Check, Recorder
from heisweil.groups import extend_hom
from heisweil.heisenberg import HeisenbergGroup, special_isos
from heisweil.linalg import CycMatrix, batch_from_matrices, packed_product_table
from heisweil.reps import MatrixRep, heisenberg_rep
from heisweil.scalar import CycNumber, root_of_unity, zeta_p
from heisweil.suites import (
    SUITES,
    RunConfig,
    _abstract_lift_checks,
    _contragredient_check,
)
from heisweil.symplectic import (
    GuardError,
    SymplecticSpace,
    chi_P,
    enumerate_P,
    m_element,
    mat_inv,
    n_element,
    sp_index,
    sp_witness,
    weyl_element,
)
from heisweil.weil import (
    NormalizationError,
    _intertwining_table,
    _inverse_2x2,
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


def replace_images(lift, replaced: dict):
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
    bad = replace_images(lift3, {1: lift3.image(0)})
    assert not bad.num.flags.writeable
    assert bad.semidirect_family is not family
    assert lift3.semidirect_family is family


@pytest.mark.parametrize("p,ell,model", [(3, 1, "minus"), (5, 1, "plus"), (3, 2, "plus")])
def test_normalization_error_unless_exactly_one_candidate_passes(p, ell, model, monkeypatch):
    """Every candidate listed twice, the designated one passes the relations
    twice; with it left out, none does: either way the lift refuses to
    choose."""
    tau = heisenberg_rep(HeisenbergGroup(SymplecticSpace(p, ell)), 1, model=model)
    chosen = weil_lift(tau).normalization
    real = weil_mod._normalization_candidates
    monkeypatch.setattr(weil_mod, "_normalization_candidates", lambda *key: real(*key) * 2)
    with pytest.raises(NormalizationError, match="^2 candidates satisfied"):
        weil_lift(tau)
    monkeypatch.setattr(
        weil_mod,
        "_normalization_candidates",
        lambda *key: tuple(c for c in real(*key) if c != chosen),
    )
    with pytest.raises(NormalizationError, match="^0 candidates satisfied"):
        weil_lift(tau)


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
    ok = linalg.verify_multiplication_table(
        lift.num, lift.den, tg.table, n, np.arange(order)
    )
    assert ok.all()


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
    assert report.checks == 2 * 2 and report.passed
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
    bad = replace_images(lift3, {s: lift3.image(9)})
    report = verify_intertwining(bad)
    g, tau, mat = bad.group, bad.base.image, bad.image(s)
    action = g.linear_action(bad.sp_elements[s])
    first = next(h for h in g.generators if mat @ tau(h) != tau(action[h]) @ mat)
    assert report.checks == 2 * 2 and not report.passed
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
    noncentral = np.flatnonzero(~g.center()).tolist()
    for s in sps:
        image = images.get(s, lift.image(s))
        images[s] = image @ lift.base.image(rng.choice(noncentral))
    return replace_images(lift, images)


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
        assert report.checks == reference.size == 4 and not report.passed
        witness = (sp_witness(lift.sp_elements[sps[i]]), g.names[g.generators[j]])
        assert report.witness == witness and sps[i] == s


@pytest.mark.parametrize("p", [3, 5, 7])
def test_minus_lift_is_the_plus_lift_at_the_weyl_conjugate(p):
    """omega_minus(s) == omega_plus(j s j^-1) exactly, for every s of Sp(W)
    and every zeta exponent: the lemma of :func:`~heisweil.weil.weil_lift`
    by which the minus lift is the plus formula at the Weyl conjugates.
    Each model selects its own normalization, so this checks that the two
    selections agree and that the conjugated Bruhat words are read as the
    lemma says.  The two lifts are not independent: the oracle for each is
    :func:`weil_oracle.lift_images`, one matrix product per Bruhat factor
    (``tests/test_linalg.py``).  One denominator and equal numerator
    stacks, row j s j^-1 of the plus stack against row s of the minus
    stack."""
    space = SymplecticSpace(p, 1)
    g, mats = HeisenbergGroup(space), sp_table(space).matrices
    j = weyl_element(space)
    conjugated = sp_index(space, j @ mats @ mat_inv(j, p) % p)
    for k in range(1, p):
        plus = weil_lift(heisenberg_rep(g, k, model="plus"))
        minus = weil_lift(heisenberg_rep(g, k, model="minus"))
        assert np.array_equal(minus.sp_elements, mats)
        assert np.array_equal(plus.sp_elements, mats)
        assert minus.den == plus.den, k
        assert np.array_equal(minus.num, plus.num[conjugated]), k


@pytest.mark.parametrize("model", ["plus", "minus"])
def test_an_ell1_lift_makes_the_same_kernel_calls_at_every_p(model, monkeypatch):
    """An ell = 1 lift makes 6 calls of the packed kernel at p = 3, 5 and
    7: the four products of the powers of F, one table scaling them by
    every candidate, and one root_multiples call on c.  None is made per
    Bruhat cell, per y or per element."""
    calls, counts = [], []
    kernel = linalg._packed_products

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(linalg, "_packed_products", counted)
    for p in (3, 5, 7):
        tau = heisenberg_rep(HeisenbergGroup(SymplecticSpace(p, 1)), 1, model=model)
        del calls[:]
        weil_lift(tau)
        counts.append(len(calls))
    assert counts == [6, 6, 6]


def test_every_ell1_lift_is_in_lowest_terms():
    """gcd(den, every numerator) = 1 for every p <= 7, zeta and model: the
    lift reduces no stack, as its image of j holds c in lowest terms."""
    for p in (3, 5, 7):
        g = HeisenbergGroup(SymplecticSpace(p, 1))
        for model in ("plus", "minus"):
            for zeta in range(1, p):
                lift = weil_lift(heisenberg_rep(g, zeta, model=model))
                common = np.gcd.reduce(lift.num.ravel())
                assert gcd(lift.den, int(common)) == 1, (p, model, zeta)


def test_a_wrong_z_phase_in_the_closed_form_fails_verify_weil(monkeypatch, tmp_path):
    """The closed form built with the sign of the z-phase flipped on the big
    cell (bruhat_factor words with -z there) still sends 1 to 1, and
    ``verify weil --p 5`` fails the homomorphism certificate of each model,
    weil.homomorphism_exhaustive on the minus lift among them, each with a
    pair of elements as witness: the suite checks the formula rather than
    trusting it."""
    import json

    real = weil_mod.bruhat_factor

    def flipped(space, mats):
        big, x, y, z = real(space, mats)
        return big, x, y, np.where(big, -z % space.p, z)

    monkeypatch.setattr(weil_mod, "bruhat_factor", flipped)
    out = tmp_path / "report.json"
    assert run(["verify", "weil", "--p", "5", "--out", str(out)]) == 1
    failures = {f["check"]: f["witness"] for f in json.loads(out.read_text())["failures"]}
    for name in ("weil.homomorphism_exhaustive", "weil.homomorphism_plus_model"):
        witness = failures[name]
        assert len(witness) == 2 and all(len(w["matrix"]) == 2 for w in witness), name


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
    assert "checks=1447 failures=0" in capsys.readouterr().err
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
        return replace_images(lift, {s: lift.image(s).scale(-1)})

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


def test_sp_table_verify_all_p3_builds_one_semidirect_table_and_two_lifts(
    monkeypatch, capsys
):
    """verify all --p 3, run twice in one process from cleared caches,
    builds Sp x| H once: the weil suite's abstract-lift certificate and the
    mackey bed read the one table.  Each run builds H(3, 1) three times
    (the heisenberg, reps and weil suites) and the first run twice more,
    once for the mackey beds and once inside Sp x| H, both kept for the
    process; and each run builds two p = 3 Weil lifts, the plus and the
    minus (the SL(2, 3) reference and the contragredient check read the
    minus lift, and the mackey beds take tau as it is)."""
    import heisweil.mackey as mk
    import heisweil.suites as suites_mod

    suites_mod._heisenberg_beds.cache_clear()
    mk.semidirect_table_group.cache_clear()
    calls = {"semidirect_mul": 0, "weil_lift": 0}
    for module, name in ((mk, "semidirect_mul"), (weil_mod, "weil_lift")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    built = []
    real_init = HeisenbergGroup.__init__

    def init(self, space):
        built.append((space.p, space.ell))
        real_init(self, space)

    monkeypatch.setattr(HeisenbergGroup, "__init__", init)
    runs = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        built.clear()
        assert run(["verify", "all", "--p", "3"]) == 0
        runs.append((dict(calls), built.count((3, 1))))
    assert runs == [
        ({"semidirect_mul": 1, "weil_lift": 2}, 5),
        ({"semidirect_mul": 0, "weil_lift": 2}, 3),
    ]
    assert mk.semidirect_table_group.cache_info().misses == 1
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
    bad = replace_images(lift, {x: lift.image(x).scale(-1) for x in (at[-3], at[7])})
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


# sha256 of the stdout of scripts/explore_sl23.py, which prints the p = 3
# model (alpha, beta and the lift in odd/even coordinates); its output
# depends on nothing but the package, so any change to it shows here.
EXPLORE_SL23_SHA256 = "3c814b1754caffd9a2dae967b4462e52c8e107a8bf773a7eefb1a5b4df9fa19b"


def test_explore_sl23_script_prints_the_pinned_bytes(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "explore_sl23.py"
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == EXPLORE_SL23_SHA256


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
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
    space = lift.space
    assert alpha.image(index_of(space, weyl_element(space)))[0, 0] == CycNumber.one(12)
    assert alpha.image(index_of(space, n_element(space, [[1]])))[0, 0] == zeta_p(3, -1)
    scalar_minus = m_element(space, [[2]])  # diag(2, 2^-1) = diag(-1,-1) mod 3
    assert alpha.image(index_of(space, scalar_minus))[0, 0] == CycNumber.one(12)


def test_sl23_beta_det_is_alpha(ref3):
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
    for s in range(sp_table(lift.space).order):
        assert oracle.det(beta.image(s)) == alpha.image(s)[0, 0]


def test_sl23_character_decomposition(ref3):
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
    els = range(sp_table(lift.space).order)
    for s in els:
        lhs = lift.image(ref.translate[s]).trace()
        assert lhs == alpha.image(s)[0, 0] + beta.image(s).trace()


def test_sl23_displayed_beta_j_is_even_block_at_j_inverse(ref3):
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
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
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
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
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
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
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
    els = range(sp_table(lift.space).order)
    for s in els:
        m = lift_in_odd_even_basis(ref, s)
        assert m[0, 0] == alpha.image(s)[0, 0]
        assert m[0, 1].is_zero() and m[1, 0].is_zero()


def test_sl23_alpha_and_beta_are_reps_on_sp_table(ref3):
    ref = ref3
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
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
    displayed = ref3.beta_j_displayed
    assert _inverse_2x2(displayed) == oracle.inverse(displayed)


def test_sl23_adjugate_not_over_the_determinant_raises(monkeypatch):
    m = CycMatrix(12, [[1, 2], [3, 4]])  # ad - bc = -2
    monkeypatch.setattr(CycMatrix, "scale", lambda self, c: self)
    with pytest.raises(RuntimeError, match="does not invert"):
        _inverse_2x2(m)


def test_sl23_even_basis_inverse_is_the_constant(ref3):
    ref = ref3
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
    ref = sl23_reference(lift3)
    alpha, beta = ref.alpha, ref.beta
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


@pytest.mark.parametrize("model", ["minus", "plus"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_contragredient_identities_hold_on_every_element(p, model):
    """What the suite's generator check stands for, element by element:
    omega(s^-1)^T == conj omega(s) for every s, tau(h^-1)^T == conj tau(h)
    for every h, and the lift of tau~ (the zeta^-1 model) is conj omega on
    the whole stack."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model=model))
    lift_tilde = weil_lift(heisenberg_rep(g, p - 1, model=model))
    tg = sp_table(g.space)
    for s in range(tg.order):
        conj = lift.image(s).conj()
        assert lift.image(tg.inv(s)).transpose() == conj, s
        assert lift_tilde.image(s) == conj, s
    tau = lift.base
    for h in g.elements():
        assert tau.image(g.inv(h)).transpose() == tau.image(h).conj(), h


def contragredient_check(lift) -> Check:
    rec = Recorder()
    _contragredient_check(rec, lift)
    (check,) = rec
    return check


@pytest.mark.parametrize("p", [3, 7])
def test_contragredient_check_counts_four_generators_and_names_a_bad_one(p):
    """Two generators of Sp(W) and two of H, at every p.  omega negated at
    one generator of sp_table, or tau at one generator of H, fails the
    check with that generator's name: for Sp(W), its {"matrix", "sign"}
    record."""
    g = HeisenbergGroup(SymplecticSpace(p, 1))
    lift = weil_lift(heisenberg_rep(g, 1, model="minus"))
    good = contragredient_check(lift)
    assert good.passed and good.checks == 4
    tg = sp_table(g.space)
    for s in tg.generators:
        bad = contragredient_check(replace_images(lift, {s: lift.image(s).scale(-1)}))
        assert not bad.passed and bad.checks == 4
        assert bad.witness == tg.names[s] == sp_witness(tg.matrices[s])
    for h in g.generators:
        num = lift.base.num.copy()
        num[h] *= -1
        base = dataclasses.replace(lift.base, num=num)
        bad = contragredient_check(dataclasses.replace(lift, base=base))
        assert not bad.passed and bad.witness == g.names[h]


# -- abstract lifts through special isomorphisms -----------------------------------


def test_abstract_lift_base_iso_is_plain_lift(lift3):
    g = lift3.group
    isos = special_isos(g)
    assert isos.w0[0].tolist() == [0, 0]
    assert isos.perm[0].tolist() == list(g.elements())


def test_abstract_lift_twist_relation(lift3):
    g = lift3.group
    isos = special_isos(g)
    for perm, w0 in zip(isos.perm.tolist(), isos.w0.tolist()):
        for h in g.elements():
            twist = zeta_p(3, form_pair(g.space, w0, g.names[h].w))
            assert lift3.base.image(perm[h]) == lift3.base.image(h).scale(twist)


def test_abstract_lift_twist_relation_on_a_corrupted_base_matches_reference(lift3):
    """The suite's stacked twist relation against one ``scale`` per (nu, h):
    same count, same first (nu, h) witness, on a base with one bad image."""
    g = lift3.group
    num = lift3.base.num.copy()
    num[4] *= -1
    base = dataclasses.replace(lift3.base, num=num)
    bad = dataclasses.replace(lift3, base=base)
    isos = special_isos(g)
    witness = None
    for i, (perm, w0) in enumerate(zip(isos.perm.tolist(), isos.w0.tolist())):
        for h in g.elements():
            twist = zeta_p(3, form_pair(g.space, w0, g.names[h].w))
            if witness is None and base.image(perm[h]) != base.image(h).scale(twist):
                witness = (isos.witness(i), h)
    rec = Recorder()
    _abstract_lift_checks(rec, bad)
    (check,) = [c for c in rec if c.check == "weil.abstract_lift_twist_relation"]
    assert check.checks == 243 and not check.passed
    assert witness is not None and check.witness == witness

    rec = Recorder()
    _abstract_lift_checks(rec, lift3)
    (check,) = [c for c in rec if c.check == "weil.abstract_lift_twist_relation"]
    assert check.checks == 243 and check.passed


def _rep_law_per_pair(lift, isos, i, pairs):
    """The rep law of the abstract lift through nu, the i-th row of the
    special isomorphisms ``isos``, one ``@`` per factor: the multiplication
    of Sp x|_nu H written out from its definition
    (s1, h1)(s2, h2) = (s1 s2, (s2^-1 ._nu h1) h2), with
    s ._nu h = nu^-1(s . nu(h)).  Returns (count, first failing witness)."""
    g, tg, nu = lift.group, sp_table(lift.space), isos.perm[i]

    def image(s, h):
        return lift.image(s) @ lift.base.image(nu[h])

    def twisted_action(s, h):
        moved = g.linear_action(tg.matrices[s])[nu[h]]
        return special_iso_inverse_image(isos, i, moved)

    witness = None
    for (s1, h1), (s2, h2) in pairs:
        prod = image(tg.mul(s1, s2), g.mul(twisted_action(tg.inv(s2), h1), h2))
        if witness is None and image(s1, h1) @ image(s2, h2) != prod:
            witness = (i, (tg.names[s1], h1), (tg.names[s2], h2))
    return len(pairs), witness


def test_abstract_lift_is_rep_of_twisted_product(lift3):
    """Every abstract lift passes the per-pair rep law on random pairs of
    its own twisted product Sp x|_nu H."""
    g = lift3.group
    els = range(sp_table(g.space).order)
    rng = random.Random(11)
    hs = g.elements()
    isos = special_isos(g)
    for i in range(len(isos)):
        pairs = [
            ((rng.choice(els), rng.choice(hs)), (rng.choice(els), rng.choice(hs)))
            for _ in range(40)
        ]
        assert _rep_law_per_pair(lift3, isos, i, pairs) == (40, None)


def test_abstract_lift_rep_law_certificate_and_the_per_pair_reference(lift3):
    """The suite's rep law is the homomorphism certificate of omega(s) tau(h)
    on the generator edges of Sp x| H: 1 + 3 * 648 identities, all true on
    the lift.  With one image of Sp(W) scaled by zeta_3 it fails, and its
    witness (x, y), read back through each nu as (s, nu^-1(h)), is a pair
    on which the per-pair rep law of every abstract lift fails too."""
    g = lift3.group
    rec = Recorder()
    _abstract_lift_checks(rec, lift3)
    (check,) = [c for c in rec if c.check == "weil.abstract_lift_rep_law"]
    assert check.checks == 1 + 3 * 648 and check.passed

    s_bad = 5
    bad = replace_images(lift3, {s_bad: lift3.image(s_bad).scale(zeta_p(3, 1))})
    rec = Recorder()
    _abstract_lift_checks(rec, bad)
    (check,) = [c for c in rec if c.check == "weil.abstract_lift_rep_law"]
    assert check.checks == 1 + 3 * 648 and not check.passed
    (s1, h1), (s2, h2) = check.witness
    isos = special_isos(g)
    for i in range(len(isos)):
        inverse = functools.partial(special_iso_inverse_image, isos, i)
        pair = ((s1, inverse(h1)), (s2, inverse(h2)))
        count, witness = _rep_law_per_pair(bad, isos, i, [pair])
        assert count == 1 and witness is not None


def test_semidirect_family_guards_p_above_3(lift5):
    with pytest.raises(GuardError, match="p <= 3"):
        lift5.semidirect_family


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
        return replace_images(lift, {j: lift.image(j).scale(-1)})

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
    witness as {"matrix": rows, "sign": 1}.  Neither m(2) nor its inverse
    m(3) is a generator of Sp(W), so the contragredient check, read on
    generators, passes: the corruption reaches it only through its premise,
    the homomorphism certificate, which fails."""
    import json

    import heisweil.weil as weil_mod

    real = weil_mod.weil_lift

    def corrupted(tau):
        lift = real(tau)
        if tau.model != "minus" or tau.zeta_exponent != 1:
            return lift
        m2 = index_of(lift.space, m_element(lift.space, [[2]]))
        return replace_images(lift, {m2: lift.image(m2).scale(-1)})

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
    }
    space = SymplecticSpace(5, 1)
    levi = {index_of(space, m_element(space, [[y]])) for y in (2, 3)}
    assert not levi & set(sp_table(space).generators)
