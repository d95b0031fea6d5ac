"""The Heisenberg p-group W x| F_p and its special isomorphisms.

Elements are pairs (w, z) with w in F_p^(2l) and z in F_p, multiplied by

    (w1, z1)(w2, z2) = (w1 + w2, z1 + z2 + (1/2)<w1, w2>),

where 1/2 means (p+1)/2 in F_p.  The center {(0, z)} equals the
commutator subgroup, and the commutator pairing factors through W as the
symplectic form.

Special isomorphisms H -> W x| Z are stored by their torsor offset w0
relative to the base one mu0(w, z) = z; the set of them is a principal
homogeneous space of W.  Automorphisms of H carried here are the maps
(w, z) -> (s.w, eps*z + <w0, w>) with s (anti)symplectic according to
the central sign eps; every automorphism of order two lives in this
family.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from heisweil.groups import closure, is_subgroup
from heisweil.symplectic import (
    GuardError,
    Polarization,
    SpElement,
    SymplecticSpace,
    enumerate_antisymplectic,
    enumerate_sp,
    mat_inv,
    polarization_to_involution,
    rref_mod,
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
    "special_iso_equal_tests",
    "special_iso_from_split_polarization",
    "split_polarization_from_iso",
]


class HElem(NamedTuple):
    w: tuple[int, ...]
    z: int


class HeisenbergGroup:
    """W x| F_p for a fixed symplectic space W."""

    def __init__(self, space: SymplecticSpace):
        self.space = space
        self.p = space.p
        self.dim = space.dim
        self.half = space.half

    # -- group structure ----------------------------------------------------

    def element(self, w, z: int) -> HElem:
        return HElem(tuple(int(x) % self.p for x in w), int(z) % self.p)

    def identity(self) -> HElem:
        return HElem((0,) * self.dim, 0)

    def mul(self, a: HElem, b: HElem) -> HElem:
        w = tuple((x + y) % self.p for x, y in zip(a.w, b.w))
        z = (a.z + b.z + self.half * self.space.pair(a.w, b.w)) % self.p
        return HElem(w, z)

    def inv(self, a: HElem) -> HElem:
        return HElem(tuple(-x % self.p for x in a.w), -a.z % self.p)

    def commutator(self, a: HElem, b: HElem) -> int:
        """[a, b] = a b a^-1 b^-1 as a central value; equals <w_a, w_b>."""
        prod = self.mul(
            self.mul(a, b), self.mul(self.inv(a), self.inv(b))
        )
        if any(prod.w):
            raise RuntimeError(
                f"commutator of {a} and {b} is not central: w = {prod.w}"
            )
        return prod.z

    def conjugate(self, g: HElem, h: HElem) -> HElem:
        return self.mul(self.mul(g, h), self.inv(g))

    def elements(self) -> list[HElem]:
        return [
            HElem(w, z)
            for w in itertools.product(range(self.p), repeat=self.dim)
            for z in range(self.p)
        ]

    def order(self) -> int:
        return self.p ** (self.dim + 1)

    def center(self) -> frozenset[HElem]:
        return frozenset(HElem((0,) * self.dim, z) for z in range(self.p))

    def central(self, z: int) -> HElem:
        return HElem((0,) * self.dim, z % self.p)

    def from_w(self, w) -> HElem:
        return self.element(w, 0)

    # -- subgroups ----------------------------------------------------------

    def subgroup_generated(self, gens) -> frozenset[HElem]:
        return frozenset(closure([self.identity()], gens, self.mul))

    def is_subgroup(self, subset) -> bool:
        return is_subgroup(subset, self.mul, self.identity())

    def all_subgroups(self) -> list[frozenset[HElem]]:
        """Every subgroup, via closures of pairs (subgroups here are 2-generated)."""
        if self.order() > 200:
            raise GuardError("subgroup sweep guarded to |H| <= 200")
        els = self.elements()
        seen = {frozenset([self.identity()])}
        for a in els:
            seen.add(self.subgroup_generated([a]))
            for b in els:
                seen.add(self.subgroup_generated([a, b]))
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def random_subgroup(self, rng: random.Random) -> frozenset[HElem]:
        els = self.elements()
        k = rng.choice([1, 1, 2, 2, 2])
        gens = [rng.choice(els) for _ in range(k)]
        if rng.random() < 0.3:
            gens.append(self.central(1))
        return self.subgroup_generated(gens)

    def image_in_w(self, subset) -> frozenset[tuple[int, ...]]:
        return frozenset(h.w for h in subset)

    # -- embedded subgroups of interest --------------------------------------

    def plus_subgroup(self, pol: Polarization | None = None) -> frozenset[HElem]:
        pol = pol or self.space.standard_polarization()
        return frozenset(self.from_w(w) for w in pol.plus_span())

    def minus_subgroup(self, pol: Polarization | None = None) -> frozenset[HElem]:
        pol = pol or self.space.standard_polarization()
        return frozenset(self.from_w(w) for w in pol.minus_span())

    def minus_z_subgroup(self, pol: Polarization | None = None) -> frozenset[HElem]:
        pol = pol or self.space.standard_polarization()
        return frozenset(
            HElem(w, z) for w in pol.minus_span() for z in range(self.p)
        )

    def __repr__(self):
        return f"HeisenbergGroup(p={self.p}, ell={self.space.ell})"


# -- special isomorphisms -------------------------------------------------------


@dataclass(frozen=True)
class SpecialIso:
    """nu(w, z) = (w, z + <w, w0>), encoded by the torsor offset w0."""

    group: HeisenbergGroup
    offset: tuple[int, ...]

    def mu(self, h: HElem) -> int:
        return (h.z + self.group.space.pair(h.w, self.offset)) % self.group.p

    def apply(self, h: HElem) -> tuple[tuple[int, ...], int]:
        return (h.w, self.mu(h))

    def preimage_of_w(self) -> frozenset[HElem]:
        """nu^-1(W x 1): the elements with trivial central coordinate."""
        g = self.group
        return frozenset(h for h in g.elements() if self.mu(h) == 0)

    def inverse_image(self, w, z: int) -> HElem:
        g = self.group
        zz = (z - g.space.pair(w, self.offset)) % g.p
        return g.element(w, zz)

    def check_axioms(self) -> bool:
        """mu(z) = z on the center and the product twist rule everywhere."""
        g = self.group
        for z in range(g.p):
            if self.mu(g.central(z)) != z:
                return False
        els = g.elements()
        for a in els:
            for b in els:
                lhs = self.mu(g.mul(a, b))
                rhs = (
                    self.mu(a) + self.mu(b) + g.half * g.commutator(a, b)
                ) % g.p
                if lhs != rhs:
                    return False
        return True


def all_special_isos(group: HeisenbergGroup) -> list[SpecialIso]:
    return [
        SpecialIso(group, w)
        for w in itertools.product(range(group.p), repeat=group.dim)
    ]


def special_iso_from_split_polarization(
    group: HeisenbergGroup, hplus, hminus
) -> SpecialIso:
    """The unique nu sending both halves of a split polarization into W x 1.

    nu(h_+ h_- z) has central part z + (1/2)[h_+, h_-]; the offset is then
    recovered from mu and validated against every element.
    """
    g, p = group, group.p
    hplus, hminus = frozenset(hplus), frozenset(hminus)
    _check_split_polarization(group, hplus, hminus)

    plus_by_w = {h.w: h for h in hplus}
    minus_by_w = {h.w: h for h in hminus}
    plus_basis = _basis_of(group, plus_by_w)
    minus_basis = _basis_of(group, minus_by_w)
    basis_mat = np.array(plus_basis + minus_basis, dtype=np.int64).T
    inv = mat_inv(basis_mat, p)
    ell = g.space.ell

    mu_table = {}
    for h in g.elements():
        coords = (inv @ np.array(h.w, dtype=np.int64)) % p
        wp = tuple(
            int(sum(c * b[i] for c, b in zip(coords[:ell], plus_basis)) % p)
            for i in range(g.dim)
        )
        wm = tuple(
            int(sum(c * b[i] for c, b in zip(coords[ell:], minus_basis)) % p)
            for i in range(g.dim)
        )
        hp, hm = plus_by_w[wp], minus_by_w[wm]
        prod = g.mul(hp, hm)
        if prod.w != h.w:
            raise RuntimeError(
                f"h+ h- has w = {prod.w}, not the decomposed w = {h.w}"
            )
        zc = (h.z - prod.z) % p
        mu_table[h] = (zc + g.half * g.commutator(hp, hm)) % p

    # offset from mu restricted to (w, 0): <w, w0> = mu((e_i, 0)) on basis
    rhs = np.array(
        [mu_table[g.from_w(g.space.basis_vector(i))] for i in range(g.dim)],
        dtype=np.int64,
    )
    w0 = tuple(int(x) for x in (mat_inv(g.space.form, p) @ rhs) % p)
    nu = SpecialIso(group, w0)
    for h, val in mu_table.items():
        if nu.mu(h) != val:
            raise AssertionError(
                "split-polarization map is not in the offset torsor"
            )
    return nu


def _basis_of(group: HeisenbergGroup, vectors) -> list[tuple[int, ...]]:
    mat = np.array(sorted(vectors), dtype=np.int64)
    red, _ = rref_mod(mat, group.p)
    return [tuple(int(x) for x in row) for row in red]


def _check_split_polarization(group: HeisenbergGroup, hplus, hminus):
    g = group
    for side in (hplus, hminus):
        if not g.is_subgroup(side):
            raise ValueError("split polarization needs subgroups")
        if len(side & g.center()) > 1:
            raise ValueError("side meets the center nontrivially")
    wplus, wminus = g.image_in_w(hplus), g.image_in_w(hminus)
    if len(wplus) != g.p**g.space.ell or len(wminus) != g.p**g.space.ell:
        raise ValueError("images do not have maximal isotropic size")
    for side in (wplus, wminus):
        vecs = list(side)
        for a in vecs:
            for b in vecs:
                if g.space.pair(a, b) != 0:
                    raise ValueError("image is not totally isotropic")
    if wplus & wminus != {(0,) * g.dim}:
        raise ValueError("images are not complementary")


def split_polarization_from_iso(nu: SpecialIso, hplus, hhat_minus):
    """H^- = Hhat^- intersect nu^-1(W x 1), the splitting attached to nu."""
    g = nu.group
    hplus, hhat_minus = frozenset(hplus), frozenset(hhat_minus)
    _check_polarization(g, hplus, hhat_minus)
    hminus = frozenset(h for h in hhat_minus if nu.mu(h) == 0)
    if not g.is_subgroup(hminus):
        raise AssertionError("splitting is not a subgroup")
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
    wplus, wminus = g.image_in_w(hplus), g.image_in_w(hhat_minus)
    ell = g.space.ell
    if len(wplus) != g.p**ell or len(wminus) != g.p**ell:
        raise ValueError("images are not maximal isotropic")
    for side in (wplus, wminus):
        for a in side:
            for b in side:
                if g.space.pair(a, b) != 0:
                    raise ValueError("image not isotropic")
    if wplus & wminus != {(0,) * g.dim}:
        raise ValueError("images are not complementary")


def special_iso_equal_tests(nu1: SpecialIso, nu2: SpecialIso):
    """The three equivalence-test booleans for a pair of special isomorphisms:

    (equal as maps,
     equal preimages of W x 1,
     exists s in Sp with nu2 = s o nu1).
    """
    g = nu1.group
    els = g.elements()
    same_map = all(nu1.apply(h) == nu2.apply(h) for h in els)
    same_preimage = nu1.preimage_of_w() == nu2.preimage_of_w()
    exists_s = False
    for s in enumerate_sp(g.space):
        if all((s.apply(h.w), nu1.mu(h)) == nu2.apply(h) for h in els):
            exists_s = True
            break
    return same_map, same_preimage, exists_s


# -- automorphisms ---------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergAutomorphism:
    """(w, z) -> (s.w, central_sign * z + <w0, w>).

    central_sign must match the form multiplier of s: symplectic s fix the
    center, antisymplectic s invert it.
    """

    group: HeisenbergGroup
    s: SpElement
    w0: tuple[int, ...]
    central_sign: int

    def __post_init__(self):
        if self.central_sign not in (1, -1):
            raise ValueError("central_sign must be +-1")
        if self.s.sign != self.central_sign:
            raise ValueError(
                "central sign must match the (anti)symplectic sign of s"
            )

    def apply(self, h: HElem) -> HElem:
        g = self.group
        w = self.s.apply(h.w)
        z = (self.central_sign * h.z + g.space.pair(self.w0, h.w)) % g.p
        return HElem(w, z)

    def is_automorphism(self) -> bool:
        g = self.group
        els = g.elements()
        return all(
            self.apply(g.mul(a, b)) == g.mul(self.apply(a), self.apply(b))
            for a in els
            for b in els
        )

    def is_order_two(self) -> bool:
        g = self.group
        ident = all(self.apply(self.apply(h)) == h for h in g.elements())
        nontrivial = any(self.apply(h) != h for h in g.elements())
        return ident and nontrivial

    def fixed_points(self) -> frozenset[HElem]:
        return frozenset(h for h in self.group.elements() if self.apply(h) == h)

    def inverted_points(self) -> frozenset[HElem]:
        g = self.group
        return frozenset(
            h for h in g.elements() if self.apply(h) == g.inv(h)
        )


def involution_from_polarization(
    group: HeisenbergGroup, pol: Polarization | None = None
) -> HeisenbergAutomorphism:
    """alpha(w+ + w-, z) = (w+ - w-, -z); order two, inverts the center."""
    pol = pol or group.space.standard_polarization()
    s = polarization_to_involution(pol)
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


def order_two_automorphisms_trivial_on_center(
    group: HeisenbergGroup,
) -> list[HeisenbergAutomorphism]:
    """All order-two automorphisms fixing Z pointwise: nontrivial (s, w0)
    with s symplectic, s^2 = 1 and s.w0 = -w0."""
    g = group
    if g.space.ell != 1 or g.p > 5:
        raise GuardError("automorphism sweep guarded to ell=1, p<=5")
    out = []
    for s in enumerate_sp(g.space):
        if not (s * s).is_identity():
            continue
        for w0 in itertools.product(range(g.p), repeat=g.dim):
            if s.is_identity() and not any(w0):
                continue  # the identity map
            if s.apply(w0) != tuple(-x % g.p for x in w0):
                continue
            out.append(HeisenbergAutomorphism(g, s, w0, 1))
    return out


def order_two_automorphisms_inverting_center(
    group: HeisenbergGroup,
) -> list[HeisenbergAutomorphism]:
    """All order-two automorphisms with alpha|Z = inversion."""
    g = group
    if g.space.ell != 1 or g.p > 5:
        raise GuardError("automorphism sweep guarded to ell=1, p<=5")
    out = []
    for s in enumerate_antisymplectic(g.space):
        if not (s * s).is_identity():
            continue
        for w0 in itertools.product(range(g.p), repeat=g.dim):
            alpha = HeisenbergAutomorphism(g, s, w0, -1)
            if alpha.is_order_two():
                out.append(alpha)
    return out


def graph_subgroup_offset(group: HeisenbergGroup, hplus) -> tuple[int, ...]:
    """For an abelian subgroup {(w, mu(w))} with isotropic maximal image and
    trivial central part, the w0 with mu(w) = <w, w0>; then conjugation by
    (w0, 0) carries W+ x 0 onto the subgroup."""
    g = group
    by_w = {h.w: h.z for h in hplus}
    basis = _basis_of(g, by_w.keys())
    # mu is linear on the image; solve <w, w0> = mu(w) on a basis, then extend
    rows = np.array(basis, dtype=np.int64) @ g.space.form % g.p
    rhs = np.array([by_w[b] for b in basis], dtype=np.int64)
    # underdetermined in general: solve via rref on [rows | rhs]
    aug = np.concatenate([rows, rhs[:, None]], axis=1)
    red, pivots = rref_mod(aug, g.p)
    if any(pc == g.dim for pc in pivots):
        raise ValueError("subgroup is not a graph of a linear map")
    w0 = np.zeros(g.dim, dtype=np.int64)
    for row, pc in zip(red, pivots):
        w0[pc] = row[g.dim]
    w0 = tuple(int(x) for x in w0)
    for w, z in by_w.items():
        if g.space.pair(w, w0) != z:
            raise AssertionError("offset reconstruction failed")
    return w0
