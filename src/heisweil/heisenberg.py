"""The Heisenberg p-group W x| F_p and its special isomorphisms.

The group law on pairs (w, z) with w in F_p^(2l) and z in F_p is

    (w1, z1)(w2, z2) = (w1 + w2, z1 + z2 + (1/2)<w1, w2>),

where 1/2 means (p+1)/2 in F_p.  :class:`HeisenbergGroup` is a
:class:`~heisweil.groups.TableGroup`: an element is an index, (w, z) sits at
(w read in base p) * p + z, and the Cayley table is built once from the law
by numpy broadcasting.  Index order is the sorted order of the pairs, the
identity is 0 and the center {(0, z)} is 0..p-1.  The pair itself survives
only as ``names[i]``, an :class:`HElem` for dumps and failure witnesses;
``w[i]`` and ``z[i]`` hold the coordinates as arrays.  The center equals the
commutator subgroup, and the commutator pairing factors through W as the
symplectic form.

Special isomorphisms H -> W x| Z are stored by their torsor offset w0
relative to the base one mu0(w, z) = z, with the central coordinate as a
length-|H| array ``mu``; the set of them is a principal homogeneous space
of W.  Automorphisms of H carried here are the maps
(w, z) -> (s.w, eps*z + <w0, w>) with s a (2l, 2l) matrix of form
multiplier eps, the central sign, stored as permutation arrays of the
indices; every automorphism of order two lives in this family.  Such a map
squares to (s^2 w, z + <w0, (eps + s) w>), so it has order two exactly
when s^2 = 1, s w0 = -w0 (as s^T J = eps J s^-1) and (s, w0) != (1, 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from heisweil.checks import Check
from heisweil.groups import TableGroup
from heisweil.symplectic import (
    SP_ENUM_GUARD,
    GuardError,
    SymplecticSpace,
    enumerate_antisymplectic,
    enumerate_sp,
    is_antisymplectic,
    is_symplectic,
    mat_inv,
    mat_mod,
    polarization_to_involution,
    rref_mod,
    sp_table,
)

__all__ = [
    "HElem",
    "HeisenbergAutomorphism",
    "HeisenbergGroup",
    "SpecialIso",
    "all_special_isos",
    "involution_from_polarization",
    "order_two_automorphisms_inverting_center",
    "order_two_automorphisms_trivial_on_center",
    "polarization_from_involution",
    "special_iso_axioms",
    "special_iso_equal_tests",
    "special_iso_from_split_polarization",
    "split_polarization_from_iso",
]


class HElem(NamedTuple):
    """The name of an element: its coordinates (w, z)."""

    w: tuple[int, ...]
    z: int


class HeisenbergGroup(TableGroup):
    """W x| F_p for a fixed symplectic space W, on its Cayley table."""

    def __init__(self, space: SymplecticSpace):
        self.space = space
        self.p = p = space.p
        self.dim = dim = space.dim
        self.half = space.half
        self._digits = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        vecs = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
        # coordinates of every index
        self.w = np.repeat(vecs, p, axis=0)
        self.z = np.tile(np.arange(p, dtype=np.int64), len(vecs))
        w_part = ((vecs[:, None, :] + vecs[None, :, :]) % p) @ self._digits
        twist = self.half * (vecs @ space.form @ vecs.T % p)
        zs = np.arange(p)
        # table[(w1, z1), (w2, z2)] over the axes (w1, z1, w2, z2), built in
        # place: one table-sized array
        table = twist[:, None, :, None] + np.add.outer(zs, zs)[None, :, None, :]
        table %= p
        table += w_part[:, None, :, None] * p
        n = len(self.z)
        table = table.reshape(n, n)
        names = [HElem(tuple(w), z) for w, z in zip(self.w.tolist(), self.z.tolist())]
        super().__init__(table, names=names)

    # -- coordinates ----------------------------------------------------------

    def index_of(self, w, z):
        """Indices of the pairs (w, z); w has shape (..., 2l), and z broadcasts
        to the shape (...)."""
        return self._read_index(np.asarray(w, dtype=np.int64) % self.p, z)

    def _read_index(self, w, z):
        """index_of for w already reduced mod p."""
        index = w @ self._digits
        index *= self.p
        index += np.asarray(z, dtype=np.int64) % self.p
        return index

    def element(self, w, z: int) -> int:
        return int(self.index_of(w, z))

    def central(self, z: int) -> int:
        return self.element((0,) * self.dim, z)

    def from_w(self, w) -> int:
        return self.element(w, 0)

    def linear_action(self, mats) -> np.ndarray:
        """Index of (m w, z) for every index (w, z): shape (|H|,) for one
        matrix m, (k, |H|) for a stack of k matrices.  The (k, |H|, 2l)
        product is reduced in place, so no second copy of it is made."""
        moved = self.w @ np.swapaxes(np.asarray(mats, dtype=np.int64), -1, -2)
        moved %= self.p
        return self._read_index(moved, self.z)

    def commutator_form_edges(self) -> np.ndarray:
        """Whether [x, s] = x s x^-1 s^-1 is (0, <w_x, w_s>), which sits at
        index <w_x, w_s>, as an (|H|, |S|) boolean array over x in H and s
        the i-th of :attr:`generators`, read off the table.

        All True proves [x, y] = (0, <w_x, w_y>) for every pair: with each
        [x, s] central, [x, y s] = [x, y] y [x, s] y^-1 = [x, y] [x, s], so
        y -> [x, y] is a homomorphism H -> Z, as y -> <w_x, w_y> is one to
        F_p (w is additive by the law), and the two agree on generators.
        """
        t, inv, gens = self.table, self.inverse_of, np.array(self.generators)
        comm = t[t[:, gens], t[inv[:, None], inv[gens]]]
        return comm == self.w @ self.space.form @ self.w[gens].T % self.p

    # -- subgroups ----------------------------------------------------------

    def all_subgroups(self) -> list[frozenset[int]]:
        """Every subgroup, via closures of pairs: at ell = 1 every subgroup is
        2-generated (H itself, and the proper ones have order at most p^2).
        <a, b> depends only on <a> and <b>, so the pairs are taken over one
        generator per cyclic subgroup."""
        if self.space.ell != 1:
            raise GuardError(
                "subgroup sweep needs ell = 1 (2-generated subgroups); "
                f"got ell = {self.space.ell}"
            )
        cyclic: dict[frozenset[int], int] = {}
        for a in range(self.order):
            cyclic.setdefault(self.subgroup_generated([a]), a)
        gens = list(cyclic.values())
        seen = set(cyclic)
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                seen.add(self.subgroup_generated([a, b]))
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def image_in_w(self, subset) -> frozenset[tuple[int, ...]]:
        return frozenset(self.names[h].w for h in subset)

    # -- embedded subgroups of interest --------------------------------------

    def plus_subgroup(self) -> frozenset[int]:
        pol = self.space.standard_polarization()
        return frozenset(self.from_w(w) for w in pol.plus_span())

    def minus_subgroup(self) -> frozenset[int]:
        pol = self.space.standard_polarization()
        return frozenset(self.from_w(w) for w in pol.minus_span())

    def minus_z_subgroup(self) -> frozenset[int]:
        minus = self.space.standard_polarization().minus_span()
        return frozenset(self.element(w, z) for w in minus for z in range(self.p))

    def __repr__(self):
        return f"HeisenbergGroup(p={self.p}, ell={self.space.ell})"


# -- special isomorphisms -------------------------------------------------------


def special_iso_axioms(group: HeisenbergGroup, mu, check: Check | None = None) -> bool:
    """Whether mu is the central coordinate of a special isomorphism
    nu(w, z) = (w, mu(w, z)): mu(0, z) = z on the center, and nu is a
    homomorphism H -> W x| F_p, whose law is the law of H.

    By the generator lemma of :mod:`heisweil.groups`, nu(x s) = nu(x) nu(s)
    for every x in H and s in :attr:`~heisweil.groups.TableGroup.generators`
    makes nu multiplicative, so |H| |S| edges are checked, one gather of
    the generator columns.  On pairs this is mu(ab) = mu(a) + mu(b) +
    (1/2)<w_a, w_b>, as the w parts of both sides agree.
    """
    g, mu = group, np.asarray(mu)
    check = Check("heisenberg.special_iso_axioms") if check is None else check
    center = np.array(sorted(g.center()))
    check.all(
        mu[center] == g.z[center], lambda i: {"mu": mu, "center": int(center[i])}
    )
    gens, nu = np.array(g.generators), g.index_of(g.w, mu)  # nu(h) as an index
    edges = nu[g.table[:, gens]] == g.table[nu[:, None], nu[gens]]
    check.all(edges, lambda x, i: {"mu": mu, "a": x, "b": int(gens[i])})
    return check.passed


@dataclass(frozen=True)
class SpecialIso:
    """nu(w, z) = (w, z + <w, w0>), encoded by the torsor offset w0;
    ``mu[h]`` is the central coordinate of nu(h)."""

    group: HeisenbergGroup
    offset: tuple[int, ...]
    mu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.group
        offset = np.array(self.offset, dtype=np.int64)
        object.__setattr__(self, "mu", (g.z + g.w @ g.space.form @ offset) % g.p)

    def image(self, h) -> int:
        """nu(h) = (w, mu(h)), written as an index of the same layout as H."""
        return int(h - self.group.z[h] + self.mu[h])

    def inverse_image(self, x) -> int:
        """The h with nu(h) = x, for x = (w, z) written as an index: h has
        the same w and z_h = z - <w, w0> = 2 z - mu(x)."""
        zx = self.group.z[x]
        return int(x - zx + (2 * zx - self.mu[x]) % self.group.p)

    def preimage_of_w(self) -> frozenset[int]:
        """nu^-1(W x 1): the elements with trivial central coordinate."""
        return frozenset(np.flatnonzero(self.mu == 0).tolist())

    def check_axioms(self, check: Check | None = None) -> bool:
        """mu(z) = z on the center and the product twist rule everywhere."""
        return special_iso_axioms(self.group, self.mu, check)


def all_special_isos(group: HeisenbergGroup) -> list[SpecialIso]:
    return [
        SpecialIso(group, w)
        for w in itertools.product(range(group.p), repeat=group.dim)
    ]


def special_iso_from_split_polarization(
    group: HeisenbergGroup, hplus, hminus
) -> SpecialIso:
    """The unique nu sending both halves of a split polarization into W x 1.

    nu(h_+ h_- z) has central part z + (1/2)[h_+, h_-], with the |H|
    commutators [h_+, h_-] read off the table; the offset is then recovered
    from mu and validated against every element.
    """
    g, p, ell = group, group.p, group.space.ell
    hplus, hminus = frozenset(hplus), frozenset(hminus)
    _check_split_polarization(group, hplus, hminus)

    plus_basis = np.array(_basis_of(g, g.image_in_w(hplus)), dtype=np.int64)
    minus_basis = np.array(_basis_of(g, g.image_in_w(hminus)), dtype=np.int64)
    inv = mat_inv(np.concatenate([plus_basis, minus_basis]).T, p)
    # w = w+ + w- for every element, and the side elements over w+ and w-
    coords = g.w @ inv.T % p
    hp = _side_by_w(g, hplus)[g.index_of(coords[:, :ell] @ plus_basis, 0) // p]
    hm = _side_by_w(g, hminus)[g.index_of(coords[:, ell:] @ minus_basis, 0) // p]
    prod = g.table[hp, hm]
    bad = np.flatnonzero(prod // p != np.arange(g.order) // p)
    if bad.size:
        raise RuntimeError(
            f"h+ h- has w = {g.names[prod[bad[0]]].w}, not the decomposed "
            f"w = {g.names[bad[0]].w}"
        )
    comm = g.table[prod, g.table[g.inverse_of[hp], g.inverse_of[hm]]]  # [h+, h-]
    mu = (g.z - g.z[prod] + g.half * g.z[comm]) % p

    # offset from mu restricted to (w, 0): <w, w0> = mu((e_i, 0)) on basis
    rhs = mu[[g.from_w(g.space.basis_vector(i)) for i in range(g.dim)]]
    w0 = tuple(int(x) for x in (mat_inv(g.space.form, p) @ rhs) % p)
    nu = SpecialIso(group, w0)
    if not np.array_equal(nu.mu, mu):
        raise RuntimeError("split-polarization map is not in the offset torsor")
    return nu


def _side_by_w(g: HeisenbergGroup, side) -> np.ndarray:
    """Lookup from (w read in base p) to the element of ``side`` over w."""
    members = np.array(sorted(side), dtype=np.int64)
    lookup = np.full(g.order // g.p, -1, dtype=np.int64)
    lookup[members // g.p] = members
    return lookup


def _basis_of(group: HeisenbergGroup, vectors) -> list[tuple[int, ...]]:
    mat = np.array(sorted(vectors), dtype=np.int64)
    red, _, _ = rref_mod(mat, group.p)
    return [tuple(int(x) for x in row) for row in red]


def _check_lagrangian_images(g: HeisenbergGroup, hplus, hminus):
    """The images in W are complementary maximal totally isotropic subspaces."""
    images = [g.image_in_w(hplus), g.image_in_w(hminus)]
    if any(len(w) != g.p**g.space.ell for w in images):
        raise ValueError("images do not have maximal isotropic size")
    for w in images:
        v = np.array(sorted(w), dtype=np.int64)
        if (v @ g.space.form @ v.T % g.p).any():
            raise ValueError("image is not totally isotropic")
    if images[0] & images[1] != {(0,) * g.dim}:
        raise ValueError("images are not complementary")


def _check_split_polarization(group: HeisenbergGroup, hplus, hminus):
    g = group
    for side in (hplus, hminus):
        if not g.is_subgroup(side):
            raise ValueError("split polarization needs subgroups")
        if len(side & g.center()) > 1:
            raise ValueError("side meets the center nontrivially")
    _check_lagrangian_images(g, hplus, hminus)


def split_polarization_from_iso(nu: SpecialIso, hplus, hhat_minus):
    """H^- = Hhat^- intersect nu^-1(W x 1), the splitting attached to nu."""
    g = nu.group
    hplus, hhat_minus = frozenset(hplus), frozenset(hhat_minus)
    _check_polarization(g, hplus, hhat_minus)
    hminus = hhat_minus & nu.preimage_of_w()
    if not g.is_subgroup(hminus):
        raise RuntimeError("splitting is not a subgroup")
    if len(hminus & g.center()) != 1:
        raise RuntimeError("splitting meets the center nontrivially")
    if frozenset(g.mul(h, z) for h in hminus for z in g.center()) != hhat_minus:
        raise RuntimeError("splitting times the center is not Hhat^-")
    return hminus


def _check_polarization(g: HeisenbergGroup, hplus, hhat_minus):
    if not (g.is_subgroup(hplus) and g.is_subgroup(hhat_minus)):
        raise ValueError("polarization needs subgroups")
    if len(hplus & g.center()) != 1:
        raise ValueError("H^+ meets the center")
    if not g.center() <= hhat_minus:
        raise ValueError("Hhat^- must contain the center")
    _check_lagrangian_images(g, hplus, hhat_minus)


def special_iso_equal_tests(isos: list[SpecialIso]):
    """The three equivalence tests on every ordered pair (nu1, nu2) of
    ``isos``, as three len(isos) x len(isos) boolean arrays:

    (equal as maps,
     equal preimages of W x 1,
     exists s in Sp with nu2 = s o nu1).

    s o nu1 and nu2 are homomorphisms (:func:`special_iso_axioms`, and s
    acts by an automorphism), and two homomorphisms that agree on the
    generators of H are equal, so exists-s is read on the generator
    columns: |Sp| |isos|^2 |S| comparisons.
    """
    g = isos[0].group
    mu = np.stack([nu.mu for nu in isos])
    same_map = (mu[:, None] == mu[None]).all(axis=2)
    on_w = mu == 0  # row i: the preimage of W x 1 under isos[i]
    same_preimage = (on_w[:, None] == on_w[None]).all(axis=2)
    # act[s, h]: (w, z) -> (s w, z); on_gens[k, i] = nu_k(s_i) as an index
    act = g.linear_action(sp_table(g.space).matrices)
    gens = np.array(g.generators)
    on_gens = gens - g.z[gens] + mu[:, gens]
    exists_s = (act[:, on_gens][:, :, None] == on_gens).all(axis=-1).any(axis=0)
    return same_map, same_preimage, exists_s


# -- automorphisms ---------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergAutomorphism:
    """(w, z) -> (s.w, central_sign * z + <w0, w>), as the permutation
    ``perm`` of the indices.

    s is a (2l, 2l) matrix whose form multiplier is central_sign: symplectic
    s fix the center, antisymplectic s invert it.  Two automorphisms are
    equal, and hash alike, when their groups, entries of s, w0 and signs are.
    """

    group: HeisenbergGroup
    s: np.ndarray = field(compare=False)
    w0: tuple[int, ...]
    central_sign: int
    s_key: bytes = field(init=False, repr=False)
    perm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.central_sign not in (1, -1):
            raise ValueError("central_sign must be +-1")
        g = self.group
        s = mat_mod(self.s, g.p)
        form_test = is_symplectic if self.central_sign == 1 else is_antisymplectic
        if not form_test(g.space, s):
            raise ValueError("central sign must match the form multiplier of s")
        s.flags.writeable = False
        twist = g.w @ (np.array(self.w0, dtype=np.int64) @ g.space.form)
        moved = g.linear_action(s)  # (s.w, z)
        perm = moved - g.z + (self.central_sign * g.z + twist) % g.p
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "s_key", s.tobytes())
        object.__setattr__(self, "perm", perm)

    def apply(self, h) -> int:
        return int(self.perm[h])

    def is_automorphism(self) -> bool:
        return self.group.is_automorphism(self.perm)

    def is_order_two(self) -> bool:
        ident = np.arange(self.group.order)
        return bool(
            np.array_equal(self.perm[self.perm], ident)
            and not np.array_equal(self.perm, ident)
        )

    def fixed_points(self) -> frozenset[int]:
        return frozenset(
            np.flatnonzero(self.perm == np.arange(self.group.order)).tolist()
        )

    def inverted_points(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.perm == self.group.inverse_of).tolist())


def involution_from_polarization(group: HeisenbergGroup) -> HeisenbergAutomorphism:
    """alpha(w+ + w-, z) = (w+ - w-, -z) for the standard polarization;
    order two, inverts the center."""
    s = polarization_to_involution(group.space.standard_polarization())
    return HeisenbergAutomorphism(group, s, (0,) * group.dim, -1)


def polarization_from_involution(alpha: HeisenbergAutomorphism):
    """Fixed and inverted subgroups (H^+_a, Hhat^-_a) of an order-two alpha
    that inverts the center; they form a polarization of H."""
    g = alpha.group
    if alpha.central_sign != -1:
        raise ValueError("alpha must act nontrivially on the center")
    if not alpha.is_order_two():
        raise ValueError("alpha must have order two")
    hplus = alpha.fixed_points()
    hhat_minus = alpha.inverted_points()
    _check_polarization(g, hplus, hhat_minus)
    return hplus, hhat_minus


def _sweep_guard(g: HeisenbergGroup) -> None:
    """The (s, w0) sweeps below run over |Sp(W)| * |W| candidates."""
    max_p = SP_ENUM_GUARD["ell1_max_p"]
    if g.space.ell != 1 or g.p > max_p:
        raise GuardError(
            f"automorphism sweep guarded to ell = 1 and p <= {max_p}; "
            f"got ell = {g.space.ell}, p = {g.p}"
        )


def _order_two_sweep(g: HeisenbergGroup, mats, central_sign: int):
    """The order-two automorphisms (s, w0) with s in the stack ``mats`` of
    form multiplier central_sign, in the order of s and then of w0 read in
    base p: s^2 = 1 and s w0 = -w0 on the stack, (1, 0) left out (see the
    module docstring)."""
    p, eye = g.p, np.eye(g.dim, dtype=np.int64)
    mats = mats[(mats @ mats % p == eye).all(axis=(1, 2))]
    w0s = g.w[::p]  # every w, in the order of its index
    negated = ((w0s @ np.swapaxes(mats, 1, 2) + w0s) % p == 0).all(axis=-1)
    negated[:, 0] &= ~(mats == eye).all(axis=(1, 2))  # (1, 0) is the identity
    return [
        HeisenbergAutomorphism(g, mats[k], tuple(w0s[v].tolist()), central_sign)
        for k, v in np.argwhere(negated).tolist()
    ]


def order_two_automorphisms_trivial_on_center(
    group: HeisenbergGroup,
) -> list[HeisenbergAutomorphism]:
    """All order-two automorphisms fixing Z pointwise: nontrivial (s, w0)
    with s symplectic, s^2 = 1 and s.w0 = -w0."""
    _sweep_guard(group)
    return _order_two_sweep(group, enumerate_sp(group.space), 1)


def order_two_automorphisms_inverting_center(
    group: HeisenbergGroup,
) -> list[HeisenbergAutomorphism]:
    """All order-two automorphisms with alpha|Z = inversion: (s, w0) with s
    antisymplectic, s^2 = 1 and s.w0 = -w0."""
    _sweep_guard(group)
    return _order_two_sweep(group, enumerate_antisymplectic(group.space), -1)
