"""The Weil lift of a Heisenberg representation to Sp(W) x| H.

Construction, in either induced model and for any nontrivial central
character zeta(z) = zeta_p^(k z):

- generators of the Siegel parabolic act by the explicit operators
  (Levi permutations scaled by the quadratic character chi^M, unipotent
  quadratic phases);
- the Weyl element j = [[0,1],[-1,0]] acts by c * F where F is the finite
  Fourier kernel zeta(k s t) on the transversal and c runs over the four
  exact candidates {+-g(p)^-1, +-i g(p)^-1};
- the unique candidate satisfying j^2 = m(-1) and the order-three braid
  relation as operators is selected (the extension with these parabolic
  operators is unique, so relation enforcement cannot be ambiguous).  As
  (cF)^2 = c^2 F^2 and (cF b)^3 = c^3 (F b)^3, the powers of F are taken
  once and one table call scales them by the square and the cube of every
  candidate;
- at ell = 1 every other image is written in closed form, with no matrix
  product: c times a root of unity entrywise on the big Bruhat cell, a
  signed monomial of roots on the small cell (Gerardin, J. Algebra 46,
  1977).  All of Sp(W) is one gather from one table of roots, and the
  minus model is the same formula at the Weyl conjugates; the formula and
  that lemma are in :func:`weil_lift`.

Every check reads the stack: characters, the homomorphism certificate,
intertwining and the parabolic action are one kernel call per family.
:meth:`WeilLift.image` wraps one row as a CycMatrix for entrywise readers.

Sp(W) is the one indexed group :func:`~heisweil.symplectic.sp_table`, built
once per space and shared, and at ell = 1 a lift's ``sp_elements`` are
its matrices in that order.  At p = 3 a lift also stacks omega(s) tau(h)
on all of Sp(W) x| H (:attr:`WeilLift.semidirect_family`), in the layout
of :func:`~heisweil.mackey.semidirect_table_group`, so the homomorphism
certificate proves that family on the generator edges of Sp(W) x| H.
That table, too, is built once per space and shared (read-only, in
int16), with the mackey suite's test bed on Sp(W) x| H, so its generators
are derived once per process.

Convention note: printed treatments of the p = 3 case often attach the
inverse Fourier transform to j.  The reference model built by
:func:`sl23_reference` records which reading of the printed generator
matrices assembles into an honest homomorphism; the comparison tests

    even-block of tauhat(j^-1)  ==  [[i/sqrt3, 2i/sqrt3], [i/sqrt3, -i/sqrt3]]

exactly, entry by entry, over Q(zeta_12).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from heisweil.checks import Check
from heisweil.groups import double_coset_labels, extend_hom
from heisweil.heisenberg import HeisenbergGroup
from heisweil.linalg import (
    CycMatrix,
    batch_from_matrices,
    packed_product_table,
    root_multiples,
    trace_table,
)
from heisweil.reps import MatrixRep, homomorphism_certificate
from heisweil.scalar import (
    CycNumber,
    context,
    gauss_sum,
    imaginary_unit,
    legendre_symbol,
    zeta_p,
)
from heisweil.symplectic import (
    GuardError,
    SymplecticSpace,
    bruhat_factor,
    chi_M,
    chi_P,
    enumerate_M,
    enumerate_P,
    enumerate_sp,
    m_element,
    mat_det,
    mat_inv,
    n_element,
    sp_guard,
    sp_index,
    sp_table,
    sp_witness,
    weyl_element,
)

__all__ = [
    "NormalizationError",
    "WeilLift",
    "p_action_check",
    "sl23_reference",
    "sp_abelianization_order",
    "three_extensions_p3",
    "trace_sign_on_M",
    "verify_homomorphism",
    "weil_lift",
]


class NormalizationError(RuntimeError):
    """No (or more than one) Fourier normalization satisfied the relations."""


SEMIDIRECT_FAMILY_MAX_P = 3


@dataclass
class WeilLift:
    """omega(``sp_elements[i]``) = ``num[i]`` / ``den``, one read-only stack
    (m, d, d, phi) over one denominator: all of ``sp_table(space).matrices``
    at ell = 1, and at ell = 2 the seven generators of
    :func:`_generator_images_ell2`."""

    base: MatrixRep
    sp_elements: np.ndarray
    num: np.ndarray
    den: int
    normalization: CycNumber

    def __post_init__(self):
        # semidirect_family is cached from num, so neither may change
        self.sp_elements.flags.writeable = False
        self.num.flags.writeable = False

    def image(self, i) -> CycMatrix:
        """omega(``sp_elements[i]``) as a canonical CycMatrix."""
        return CycMatrix._packed(self.base.conductor, self.num[i], self.den)

    @property
    def generators_only(self) -> bool:
        """Images exist on the generators of Sp(W) only: at ell = 2."""
        return self.space.ell == 2

    @property
    def group(self) -> HeisenbergGroup:
        return self.base.group

    @property
    def space(self) -> SymplecticSpace:
        return self.base.group.space

    @cached_property
    def semidirect_family(self):
        """(num, den): F(s, h) = omega(s) tau(h) for every (s, h) of Sp x| H,
        stacked as numerators over one denominator, (s, h) at s |H| + h with
        s in the order of :func:`~heisweil.symplectic.sp_table`: the layout
        of :func:`~heisweil.mackey.semidirect_table_group`.

        The abstract lift through a special isomorphism nu is
        (s, h) -> omega(s) tau(nu(h)) on Sp x|_nu H, the group whose law
        makes (s, h) -> (s, nu(h)) an isomorphism onto Sp x| H.  So it is F
        composed with that isomorphism, and it is a homomorphism for every
        nu as soon as F is one: the one homomorphism certificate of F on the
        generator edges of Sp x| H proves the rep law of every abstract lift.

        One :func:`~heisweil.linalg.packed_product_table` builds the family:
        187 KB at p = 3, but about 540 MB at p = 7, so it is guarded to p = 3.
        """
        p = self.space.p
        if p > SEMIDIRECT_FAMILY_MAX_P:
            raise GuardError(
                f"the Sp x| H image family is built for p <= "
                f"{SEMIDIRECT_FAMILY_MAX_P} only; got p = {p}"
            )
        base = self.base
        num = packed_product_table(base.conductor, self.num, base.num)
        return num.reshape(-1, *num.shape[2:]), self.den * base.den

    def restriction_is_base(self) -> bool:
        """omega(1) = 1, for a lift whose first element is the identity."""
        if not np.array_equal(self.sp_elements[0], np.eye(self.space.dim)):
            raise ValueError("the lift holds no image of the identity first")
        return self.image(0) == CycMatrix.identity(self.base.conductor, self.base.dim)


# -- generator operators --------------------------------------------------------


def _levi_stack(rep: MatrixRep, ys) -> np.ndarray:
    """m(y) for each l x l block y of the stack ``ys``: chi^M(y) times the
    permutation of transversal points, as numerators (m, d, d, phi) over 1.
    """
    g: HeisenbergGroup = rep.group
    p, ell, d = g.p, g.space.ell, rep.dim
    ys = np.asarray(ys, dtype=np.int64).reshape(-1, ell, ell) % p
    signs = [legendre_symbol(int(det), p) for det in mat_det(ys, p)]
    labels = np.array(rep.basis_labels, dtype=np.int64).reshape(d, ell)
    place = p ** np.arange(ell - 1, -1, -1)
    position = np.empty(p**ell, dtype=np.int64)  # of each point, by its code
    position[labels @ place] = np.arange(d)
    # row t holds the sign in the column of the point phi(t) is read at:
    # phi(ty t) in the plus model, phi(y^-1 t) in the minus model
    move = np.swapaxes(ys, 1, 2) if rep.model == "plus" else mat_inv(ys, p)
    src = labels @ np.swapaxes(move, 1, 2) % p  # (m, d, l): move @ t, each t
    num = np.zeros((len(ys), d, d, context(rep.conductor).phi), dtype=np.int64)
    rows = np.arange(len(ys))[:, None], np.arange(d), position[src @ place], 0
    num[rows] = np.array(signs)[:, None]
    return num


def _phase_stack(rep: MatrixRep, bs) -> np.ndarray:
    """The diagonal phi(t) *= zeta(k (1/2) t.b.t) for each symmetric l x l
    block b of the stack ``bs``, as numerators (m, d, d, phi) over 1.

    In the plus model it is the unipotent n(b).  In the minus model the
    lower unipotent of c acts by phi(t) *= zeta(-k (1/2) t.c.t), so it is
    the lower unipotent of -b.
    """
    g: HeisenbergGroup = rep.group
    p, n, d = g.p, rep.conductor, rep.dim
    bs = np.asarray(bs, dtype=np.int64).reshape(-1, g.space.ell, g.space.ell) % p
    labels = np.array(rep.basis_labels, dtype=np.int64).reshape(d, -1)
    q = np.einsum("ti,mij,tj->mt", labels, bs, labels)
    ctx = context(n)
    num = np.zeros((len(bs), d, d, ctx.phi), dtype=np.int64)
    num[:, np.arange(d), np.arange(d)] = ctx.power_table[
        (n // p) * (g.half * rep.zeta_exponent * q) % n
    ]
    return num


def _fourier_kernel(rep: MatrixRep) -> CycMatrix:
    """F[t, s] = zeta(k * s.t) on the transversal (unnormalized)."""
    g: HeisenbergGroup = rep.group
    p, n, k = g.p, rep.conductor, rep.zeta_exponent
    labels = np.array(rep.basis_labels, dtype=np.int64).reshape(rep.dim, -1)
    exponents = (n // p) * (k * (labels @ labels.T % p))
    return CycMatrix.from_roots(n, exponents, np.ones_like(exponents))


@functools.cache
def _normalization_candidates(p: int, ell: int, n: int) -> tuple[CycNumber, ...]:
    """The distinct c^ell for c in {+-g(p)^-1, +-i g(p)^-1}: for even ell
    the four collapse in pairs."""
    ginv = gauss_sum(p).inverse()
    i = imaginary_unit(n)
    return tuple(dict.fromkeys(c**ell for c in (ginv, -ginv, i * ginv, -(i * ginv))))


@functools.cache
def _squares_and_cubes(candidates: tuple[CycNumber, ...]) -> tuple[np.ndarray, int]:
    """(num, den): c^2 and c^3 of each candidate c as 1 x 1 matrices, one
    read-only stack over one denominator, rows 2 i and 2 i + 1 for
    ``candidates[i]``."""
    n = candidates[0].N
    powers = [CycMatrix(n, [[c**e]]) for c in candidates for e in (2, 3)]
    num, den = batch_from_matrices(powers, n)
    num.flags.writeable = False
    return num, den


def weil_lift(tau: MatrixRep) -> WeilLift:
    """Construct the designated extension of tau to Sp(W), as one stack.

    For ell = 1 every element of SL(2, p) receives an image; for
    (ell, p) = (2, 3) only the generators do, and the lift is checked by
    their relations.

    At ell = 1 the images are written in closed form.  Exponents count
    powers of zeta_n, with q = n/p, k the zeta exponent, h = 1/2 in F_p, chi
    the Legendre symbol and (x, y, z) the
    :func:`~heisweil.symplectic.bruhat_factor` word of s.  The plus model's
    n(b) is the diagonal zeta_n^(q k h b t^2), m(y) holds chi(y) at [t, y t]
    and j = c F with F[t, u] = zeta_n^(q k t u).  So on the big cell,
    s = n(x) j m(y) n(z), omega(s)[t, u] = c zeta_n^E with
    E = q k (h x t^2 + t y^-1 u + h z u^2) + (n/2) [chi(y) = -1]; on the
    small cell, s = m(y) n(z), row t holds chi(y) zeta_n^(q k h z (y t)^2)
    in column y t and 0 elsewhere.  Every entry is a row of one table (c
    zeta_n^e from one :func:`~heisweil.linalg.root_multiples` call, zeta_n^e
    and 0, over the denominator of c), gathered once.  The image of j holds
    c, in lowest terms, at [0, 0], so the stack is in lowest terms.

    Lemma: omega_-(s) = omega_+(j s j^-1), and j s j^-1 = j^-1 s j as
    j^2 = m(-1) is central.  The minus model's generators act as the plus
    model's operators at their conjugates: j n(b) j^-1 by the phase of
    n(b), m(y) by the operator of m(y^-1) = j m(y) j^-1, and j by c F, with
    the same c, as the selection reads the same m(-1), F and phase in both
    models.  Two homomorphisms equal on generators are equal.
    """
    g: HeisenbergGroup = tau.group
    space, p, ell = g.space, g.p, g.space.ell
    if tau.model not in ("plus", "minus"):
        raise ValueError("weil_lift needs an induced-model Heisenberg rep")
    sp_guard(space)
    if ell == 2 and tau.model != "plus":
        raise GuardError("the ell=2 lift is built for the plus model only")
    n = tau.conductor
    eye = np.eye(ell, dtype=np.int64)

    # the braid partner is n(1) in the plus model and the lower unipotent
    # of -1 in the minus model: the phase of 1 in both
    braid_partner = CycMatrix._packed(n, _phase_stack(tau, eye)[0], 1)
    minus_one = CycMatrix._packed(n, _levi_stack(tau, -eye)[0], 1)
    fourier = _fourier_kernel(tau)
    ident = CycMatrix.identity(n, tau.dim)

    # (cF)^2 = c^2 F^2 and (cF b)^3 = c^3 (F b)^3, so the two powers of F,
    # over 1 as F and b are, are taken once, and one kernel call scales them
    # by the square and the cube of every candidate
    square = fourier @ fourier
    braided = fourier @ braid_partner
    braided = braided @ braided @ braided
    candidates = _normalization_candidates(p, ell, n)
    powers, den = _squares_and_cubes(candidates)
    rows = np.stack([square.num, braided.num]).reshape(2, 1, -1, square.num.shape[-1])
    scaled = packed_product_table(n, powers, rows).reshape(-1, 2, *square.num.shape)
    # c^2 F^2 = m(-1) and c^3 (F b)^3 = 1, both sides over den
    targets = minus_one.num * den, ident.num * den
    winners = [
        c
        for c, sq, cube in zip(candidates, scaled[0::2, 0], scaled[1::2, 1])
        if np.array_equal(sq, targets[0]) and np.array_equal(cube, targets[1])
    ]
    if len(winners) != 1:
        raise NormalizationError(
            f"{len(winners)} candidates satisfied the relations (expected 1); "
            "this signals a convention bug, not a mathematical possibility"
        )
    c = winners[0]
    if ell == 2:
        return WeilLift(tau, *_generator_images_ell2(tau, fourier.scale(c)), c)

    # ell = 1: the closed form of the docstring, as one gather from one table
    mats = enumerate_sp(space)  # sp_table's matrices, without building its table
    j = weyl_element(space)
    words = mats if tau.model == "plus" else j @ mats @ j.T % p  # j^-1 = j^T
    big, x, y, z = (a[:, None, None] for a in bruhat_factor(space, words))
    field = np.arange(p)
    inverse = (field[:, None] * field % p == 1).argmax(axis=1)
    nonsquare = ~np.isin(field, field**2 % p)
    phase = (n // p) * tau.zeta_exponent  # zeta(k v) = zeta_n^(phase v)
    half = phase * g.half
    t = np.array(tau.basis_labels, dtype=np.int64).reshape(p, 1)
    u = t.T
    sign = (n // 2) * nonsquare[y]  # chi(y) = -1 as the root zeta_n^(n/2)
    big_cell = half * (x * t**2 + z * u**2) + phase * inverse[y] * (t * u) + sign
    small_cell = n + (half * z * (y * t) ** 2 + sign) % n
    at = np.where(big, big_cell % n, np.where(u == y * t % p, small_cell, 2 * n))
    # row e < n: c zeta_n^e; row n + e: zeta_n^e; row 2 n: 0; over c's denominator
    cm, roots = CycMatrix(n, [[c]]), context(n).power_table
    c_roots = root_multiples(n, n, cm.num[None]).reshape(n, -1)
    table = np.concatenate([c_roots, roots * cm.den, 0 * roots[:1]])
    lift = WeilLift(tau, mats, table[at], cm.den, normalization=c)
    if not lift.restriction_is_base():
        raise RuntimeError("the Weil lift does not send the identity to the identity")
    return lift


def _generator_images_ell2(tau, j_img) -> tuple[np.ndarray, np.ndarray, int]:
    """m(y) for two y, n(b) for four symmetric b, then j, with their images
    stacked over the denominator of j: (elements, num, den)."""
    space = tau.group.space
    ys = [[[1, 1], [0, 1]], [[2, 0], [0, 1]]]
    bs = [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]]
    elements = np.concatenate(
        [m_element(space, ys), n_element(space, bs), weyl_element(space)[None]]
    )
    num = np.concatenate([_levi_stack(tau, ys), _phase_stack(tau, bs)]) * j_img.den
    return elements, np.concatenate([num, j_img.num[None]]), j_img.den


# -- verification ----------------------------------------------------------------


def verify_homomorphism(lift: WeilLift, check: Check | None = None) -> Check:
    """Prove that s -> omega(s) is a homomorphism of Sp(W), exactly.

    A lift with images on all of Sp(W) (ell = 1) runs
    :func:`~heisweil.reps.homomorphism_certificate` on its stack, with the
    generators S of :func:`~heisweil.symplectic.sp_table`: omega(1) = 1 and
    omega(x s) = omega(x) omega(s) for x in S and every s prove every pair,
    by the lemma there, with 1 + |S| |Sp| identities (673 at p = 7).  A
    lift with images on the generators only (ell = 2) is checked by the
    generator relations.
    """
    if lift.generators_only:
        check = Check("weil.generator_relations") if check is None else check
        return _verify_relations(lift, check)
    check = Check("weil.homomorphism_exhaustive") if check is None else check
    tg = sp_table(lift.space)  # raises GuardError past ell = 1, p <= 7
    homomorphism_certificate(tg, lift.num, lift.den, lift.base.conductor, check)
    return check


def _verify_relations(lift: WeilLift, check: Check) -> Check:
    """The relations of the ell = 2 generators of :func:`_generator_images_ell2`."""
    els, n = lift.sp_elements, lift.base.conductor
    m1, m2, n1, n2, n3, n_eye, j = (lift.image(i) for i in range(len(els)))
    check(n1 @ n2 == n2 @ n1, "n-generators commute")
    check(n1 @ n3 == n3 @ n1, "n-generators commute (2)")
    # m-conjugation carries the phase of n(b) to that of n(y b ty); the Levi
    # image m is a signed permutation, so invertible, and m n m^-1 = n(y b ty)
    # is m n = n(y b ty) m
    for m_img, y in ((m1, els[0, :2, :2]), (m2, els[1, :2, :2])):
        for n_img, b in ((n1, els[2, :2, 2:]), (n2, els[3, :2, 2:])):
            rhs = CycMatrix._packed(n, _phase_stack(lift.base, y @ b @ y.T)[0], 1)
            where = f"y = {y.tolist()}, b = {b.tolist()}"
            check(m_img @ n_img == rhs @ m_img, f"m n = n(y b ty) m, {where}")
    jj = j @ j
    mm = CycMatrix._packed(n, _levi_stack(lift.base, -np.eye(2, dtype=np.int64))[0], 1)
    check(jj == mm, "j^2 = m(-1)")
    braided = j @ n_eye
    ident = CycMatrix.identity(n, lift.base.dim)
    check(braided @ braided @ braided == ident, "(j n(I))^3 = 1")
    return check


def verify_intertwining(lift: WeilLift, check: Check | None = None) -> Check:
    """omega(s) tau(h) == tau(s.h) omega(s), with s.(w,z) = (s.w, z),
    for s in the generators of Sp(W) and h in the generators of H; one
    identity per (s, h), evaluated by :func:`_intertwining_table`.

    Premises: omega and tau are homomorphisms, and s acts on H by
    automorphisms.  Then for fixed s, h -> omega(s) tau(h) omega(s)^-1 and
    h -> tau(s.h) are homomorphisms, equal once equal on generators of H;
    and the s where they are equal are closed under products, as
    omega(s t) tau(h) omega(s t)^-1 = omega(s) tau(t.h) omega(s)^-1 =
    tau(s t.h).  So generator pairs prove the identity on all of Sp x H; s
    runs over the generators of ``sp_table`` or of a generators-only lift.
    """
    g, els = lift.group, lift.sp_elements
    check = Check("weil.intertwining") if check is None else check
    gens = range(len(els)) if lift.generators_only else sp_table(lift.space).generators
    sps, hs = list(gens), list(g.generators)
    check.all(
        _intertwining_table(lift, sps, hs),
        lambda i, j: (sp_witness(els[sps[i]]), g.names[hs[j]]),
    )
    return check


def _intertwining_table(lift: WeilLift, sps, hs) -> np.ndarray:
    """ok[i, j]: omega(s) tau(h) == tau(s.h) omega(s) for s the element at
    index sps[i] of the lift and h = hs[j].

    tau is monomial: row t of tau(h) holds zeta_p^e[h, t] in column
    cols[h, t], the monomial data of the rep.  So with Z[j] = zeta_p^j
    omega(s), entry (i, cols[h, t]) of omega(s) tau(h) is Z[e[h, t], i, t],
    and that of tau(g) omega(s), g = s.h, is Z[e[g, i], cols[g, i],
    cols[h, t]]: both sides are gathers from Z, over one denominator.  Z
    comes from one :func:`~heisweil.linalg.root_multiples` call on the
    rows ``sps`` of the lift's stack, and s.h from the action of those s
    alone.
    """
    g, tau = lift.group, lift.base
    if tau.cols is None:
        raise ValueError("intertwining reads the monomial data of tau; it has none")
    n, p, d = tau.conductor, g.p, tau.dim
    cols_h, exps_h = tau.cols[hs], tau.root_exponents[hs]  # (len(hs), d)
    z = root_multiples(n, p, lift.num[sps])
    moved = g.linear_action(lift.sp_elements[sps])[:, hs]  # s . h
    a, i, t = np.arange(len(sps))[:, None, None], np.arange(d)[:, None], np.arange(d)
    ok = np.empty((len(sps), len(hs)), dtype=bool)
    for j in range(len(hs)):
        lhs = z[exps_h[j, t], a, i, t]
        gm = moved[:, j, None, None]
        rhs = z[tau.root_exponents[gm, i], a, tau.cols[gm, i], cols_h[j, t]]
        ok[:, j] = (lhs == rhs).all(axis=(1, 2, 3))
    return ok


def trace_sign_on_M(lift: WeilLift, check: Check | None = None) -> Check:
    """Traces on the Levi are rational, nonzero, with sign chi^M: every
    coordinate but the first of a trace in the power basis is zero, and
    the first is nonzero with the sign chi^M (den > 0).  One identity per
    element of M, all read off the one row of traces."""
    space, n = lift.space, lift.base.conductor
    check = Check("weil.trace_sign_on_levi") if check is None else check
    levi = enumerate_M(space)
    traces = trace_table(n, (lift.num[sp_index(space, levi)], lift.den))
    first, rest = traces.num[0, :, 0], traces.num[0, :, 1:]
    sign = np.where(first > 0, 1, -1)
    ok = ~rest.any(axis=1) & (first != 0) & (sign == chi_M(space, levi))
    check.all(ok, lambda i: (sp_witness(levi[i]), traces[0, i]))
    return check


def p_action_check(lift: WeilLift, check: Check | None = None) -> Check:
    """lambda(tauhat(g) phi) = chi^P(g) lambda(phi) for all g in P.

    In the plus model lambda is evaluation at the identity coset; in the
    minus model it is summation over the W+ transversal.  lambda times every
    image of P is one kernel call on the stacked images; chi^P is +-1, so
    the right side needs no product.
    """
    space = lift.space
    n, dim = lift.base.conductor, lift.base.dim
    if lift.base.model == "plus":
        lam = [CycNumber.zero(n)] * dim
        lam[lift.base.basis_labels.index((0,) * space.ell)] = CycNumber.one(n)
    else:
        lam = [CycNumber.one(n)] * dim
    lam = CycMatrix(n, [lam])
    check = Check("weil.parabolic_action") if check is None else check
    parabolic = enumerate_P(space)
    num, den = lift.num[sp_index(space, parabolic)], lift.den
    lhs = packed_product_table(n, lam.num[None], num)[0, :, 0]  # over lam.den * den
    chi = chi_P(space, parabolic).astype(object)
    rhs = chi[:, None, None] * (lam.num[0].astype(object) * den)
    check.all((lhs == rhs).all(axis=(1, 2)), lambda i: sp_witness(parabolic[i]))
    return check


# -- SL(2,3) reference model -----------------------------------------------------


@dataclass
class Sl23Reference:
    alpha: MatrixRep  # the character alpha on sp_table, appendix basis
    beta: MatrixRep  # the 2-dimensional beta on sp_table, appendix basis
    lift: WeilLift
    translate: np.ndarray  # appendix-basis index -> package-basis index
    beta_j_displayed: CycMatrix
    displayed_j_reading: str  # "direct" or "inverse"
    even_basis_change: CycMatrix
    even_basis_inverse: CycMatrix


def sl23_reference(lift: WeilLift) -> Sl23Reference:
    """The explicit p=3 model: the character alpha, the 2-dimensional beta,
    and the Weil lift, all over SL(2, 3) written in the basis with the first
    vector in W- and the second in W+ (translation = conjugation by j).
    Elements are :func:`~heisweil.symplectic.sp_table` indices: alpha and
    beta are reps on all 24 of them, each index read as an appendix-basis
    element, and ``translate[i]`` is the package-basis index of
    appendix-basis element i.

    ``lift`` is the Weil lift of the minus-model H(3, 1) rep with central
    character zeta_3^1; any other lift raises ValueError.  alpha and beta
    are :func:`~heisweil.groups.extend_hom` of their printed generator
    values, each proved a homomorphism by
    :func:`~heisweil.reps.homomorphism_certificate`.
    """
    space, base = lift.space, lift.base
    if (space.p, space.ell, base.model, base.zeta_exponent) != (3, 1, "minus", 1):
        raise ValueError(
            "sl23_reference needs the lift of the minus model at p = 3, ell = 1 "
            f"and zeta exponent 1; got p = {space.p}, ell = {space.ell}, "
            f"model {base.model!r}, zeta exponent {base.zeta_exponent}"
        )
    n, p = base.conductor, space.p
    tg = sp_table(space)

    xi = weyl_element(space)  # change of basis between the two conventions
    translate = sp_index(space, xi @ tg.matrices @ mat_inv(xi, p) % p)

    def extend(gens: dict, dim: int) -> MatrixRep | None:
        """The rep with these generator images, None unless the extension
        passes :func:`~heisweil.reps.homomorphism_certificate`."""
        images = extend_hom(tg, gens, operator.matmul, CycMatrix.identity(n, dim))
        num, den = batch_from_matrices([images[s] for s in range(tg.order)], n)
        rep = MatrixRep(tg, np.arange(tg.order), num, den, n)
        return rep if rep.verify_homomorphism() else None

    omega = zeta_p(3, 1, conductor=n)

    n1, jel = (int(sp_index(space, m)) for m in (n_element(space, [[1]]), xi))
    # alpha from the printed values: alpha(n(b)) = zeta(-b), alpha(j) = 1
    alpha = extend({n1: CycMatrix(n, [[omega.inverse()]]), jel: CycMatrix(n, [[1]])}, 1)
    if alpha is None:
        raise RuntimeError("printed alpha values must extend to a character")

    i = imaginary_unit(n)
    sqrt3 = gauss_sum(3) * i.inverse()  # sqrt(3) = g(3)/i under the embedding
    isq = i * sqrt3.inverse()  # i/sqrt(3)
    beta_j_displayed = CycMatrix(n, [[isq, 2 * isq], [isq, -isq]])
    beta_n1 = CycMatrix(n, [[1, 0], [0, omega.inverse()]])
    readings = {
        name: extend({n1: beta_n1, jel: jmat}, 2)
        for name, jmat in (
            ("direct", beta_j_displayed),
            ("inverse", _inverse_2x2(beta_j_displayed)),
        )
    }
    consistent = [name for name, rep in readings.items() if rep is not None]
    if len(consistent) != 1:
        raise RuntimeError(
            "exactly one reading of the printed beta(j) must assemble into a "
            f"homomorphism; got {consistent}"
        )
    reading = consistent[0]
    beta = readings[reading]

    # basis change to (odd; even) coordinates: xi1(t)=t, xi2=delta_0,
    # xi3 = delta_1 + delta_{-1} on transversal points (0,), (1,), (2,);
    # columns are xi1, xi2, xi3 in the delta basis (rows t = 0, 1, 2)
    u = CycMatrix(n, [[0, 1, 0], [1, 0, 1], [-1, 0, 1]])
    half = Fraction(1, 2)
    u_inv = CycMatrix(n, [[0, half, -half], [1, 0, 0], [0, half, half]])
    if u_inv @ u != CycMatrix.identity(n, 3):
        raise RuntimeError("the constant inverse of the even basis change is wrong")

    return Sl23Reference(
        alpha=alpha,
        beta=beta,
        lift=lift,
        translate=translate,
        beta_j_displayed=beta_j_displayed,
        displayed_j_reading=reading,
        even_basis_change=u,
        even_basis_inverse=u_inv,
    )


def _inverse_2x2(m: CycMatrix) -> CycMatrix:
    """The adjugate [[d, -b], [-c, a]] of m = [[a, b], [c, d]] over ad - bc;
    RuntimeError unless m times it is the identity."""
    (a, b), (c, d) = m.rows
    inv = CycMatrix(m.N, [[d, -b], [-c, a]]).scale((a * d - b * c).inverse())
    if m @ inv != CycMatrix.identity(m.N, 2):
        raise RuntimeError(f"the adjugate over ad - bc does not invert {m!r}")
    return inv


def lift_in_odd_even_basis(ref: Sl23Reference, s_app: int) -> CycMatrix:
    """The lift of the appendix-basis element with sp_table index s_app,
    written in (odd; even) coordinates."""
    mat = ref.lift.image(ref.translate[s_app])
    return ref.even_basis_inverse @ mat @ ref.even_basis_change


# -- extensions -------------------------------------------------------------------


def sp_abelianization_order(space: SymplecticSpace) -> int:
    tg = sp_table(space)
    return tg.order // len(tg.commutator_subgroup())


def _abelianization_exponents(space: SymplecticSpace) -> tuple[int, np.ndarray]:
    """(m, e): Sp / [Sp, Sp] is cyclic of order m, and each s, in
    :func:`~heisweil.symplectic.sp_table` order, lies in the coset of the
    e[s]-th power of one generator of it."""
    tg = sp_table(space)
    comm = tg.commutator_subgroup()
    m = tg.order // len(comm)
    labels = double_coset_labels(tg, [0], comm)  # the coset s.[G, G] of each s
    reps = np.unique(labels, return_index=True)[1].tolist()
    if len(reps) != m:
        raise RuntimeError(f"found {len(reps)} cosets of [G, G], expected {m}")
    powers = [0]  # coset 0 holds the identity; powers of coset 1 follow
    for _ in range(m - 1):
        powers.append(int(labels[tg.mul(reps[powers[-1]], reps[1])]))
    if len(set(powers)) != m:
        raise RuntimeError("abelianization is expected to be cyclic here")
    return m, np.argsort(powers)[labels]  # the inverse permutation of powers


def three_extensions_p3(lift: WeilLift) -> np.ndarray:
    """All extensions of tau at p = 3, the lift and its two character twists,
    as (3, |Sp|, d, d, phi) numerators over the lift's denominator: row k is
    s -> chi_k(s) omega(s) in sp_table order, chi_k the character that sends
    s to zeta_3^(k e[s]), with e from the abelianization (cyclic of order
    three), gathered from one root_multiples call."""
    space = lift.space
    if space.p != 3 or space.ell != 1:
        raise ValueError(
            f"three_extensions_p3 needs p = 3 and ell = 1; got {space!r}"
        )
    m, e = _abelianization_exponents(space)
    if m != 3:
        raise RuntimeError(f"SL(2,3) must have 3 characters; found {m}")
    z = root_multiples(lift.base.conductor, 3, lift.num)
    return z[np.arange(3)[:, None] * e % 3, np.arange(len(e))]
