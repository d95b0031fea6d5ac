"""The Heisenberg p-group W x| F_p and its special isomorphisms.

The group law on pairs (w, z) with w in F_p^(2l) and z in F_p is

    (w1, z1)(w2, z2) = (w1 + w2, z1 + z2 + (1/2)<w1, w2>),

where 1/2 means (p+1)/2 in F_p.  :class:`HeisenbergGroup` is a
:class:`~heisweil.groups.TableGroup`: an element is an index, (w, z) sits at
(w read in base p) * p + z.  Index order is the sorted order of the pairs,
the identity is 0 and the center {(0, z)} is 0..p-1.  The pair itself
survives only as ``names[i]``, an :class:`HElem` for dumps and failure
witnesses; ``w[i]`` and ``z[i]`` hold the coordinates as arrays, set by the
constructor.  The Cayley table is built from the law by numpy broadcasting
and checked as every TableGroup's is, once, the first time the table,
``inverse_of``, the center or the generators are read: the Heisenberg
representations and the Weil lift read only the coordinates, so a dump of
their images builds no table.  The center equals the commutator subgroup,
and the commutator pairing factors through W as the symplectic form.

Subgroups are read off coordinates too, by :meth:`HeisenbergGroup.index_of`
broadcasts, as read-only boolean masks over the indices, the one encoding
of a subgroup in :mod:`heisweil.groups`: the p^2 + 2p + 4 subgroups of
H(p, 1) are one (k, |H|) array (:meth:`HeisenbergGroup.all_subgroups`,
from its structure, with no closure, and the generators each is built
from, :meth:`HeisenbergGroup.subgroup_generators`).

A polarization W = W^+ + W^- has one encoding in the package: subgroups of
H, as (|H|,) or (k, |H|) boolean masks over the indices, with their
images in W read off the w codes index // p.  The sides W^+ x 0, W^- x 0
and W^- x Z of the standard polarization are coordinate blocks,
{w[l:] = 0, z = 0}, {w[:l] = 0, z = 0} and {w[:l] = 0}, each built once
per group.  The polarization (H^+, Hhat^-) of an involution alpha is its
fixed and inverted points, and a whole stack of involutions is checked at
once on its permutations (:func:`polarization_faults`,
:func:`polarizations_from_involutions`).

Every map of H carried here is one :class:`Automorphisms` record: the
maps (w, z) -> (s.w, eps*z + <w0, w>) with s a (2l, 2l) matrix of form
multiplier eps, the central sign, stacked as the stacks of s and w0 and
the (k, |H|) permutations ``perm`` of the indices, built by one
:meth:`HeisenbergGroup.linear_action` and one broadcast of the twists
<w0, w>.  The special isomorphisms H -> W x| Z are the family s = 1,
eps = 1: nu_w0(w, z) = (w, z + <w0, w>), one per w0 of W, a principal
homogeneous space of W (:func:`special_isos`, w0 in the order of its
index); the central coordinate of nu(h) is ``perm % p``, and nu^-1(W x 1)
is ``perm % p == 0``.  Every automorphism of order two lives in the same
family: such a map squares to (s^2 w, z + <w0, (eps + s) w>), so it has
order two exactly when s^2 = 1, s w0 = -w0 (as s^T J = eps J s^-1) and
(s, w0) != (1, 0).  The checks read a stack by index gathers: fixed points
are ``perm == arange``, inverted points ``perm == inverse_of``, and
alpha(h) is ``perm[:, h]``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

import numpy as np

from heisweil.checks import Check
from heisweil.groups import TableGroup, read_only
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
    rref_mod,
    sp_table,
    sp_witness,
    standard_involution,
)

__all__ = [
    "Automorphisms",
    "HElem",
    "HeisenbergGroup",
    "involution_from_polarization",
    "order_two_automorphisms_inverting_center",
    "order_two_automorphisms_trivial_on_center",
    "polarization_faults",
    "polarizations_from_involutions",
    "special_iso_axioms",
    "special_iso_equal_tests",
    "special_iso_from_split_polarization",
    "special_isos",
    "split_polarization_from_iso",
]


class HElem(NamedTuple):
    """The name of an element: its coordinates (w, z)."""

    w: tuple[int, ...]
    z: int


class HeisenbergGroup(TableGroup):
    """W x| F_p for a fixed symplectic space W, on its Cayley table.

    The coordinates ``w``, ``z`` and ``names`` are set by the constructor;
    the table, and ``inverse_of`` and the center derived from it, are built
    from the law on the form the space had at construction, and checked by
    :meth:`TableGroup._adopt`, the first time one of them is read."""

    def __init__(self, space: SymplecticSpace):
        self.space = space
        self.p = p = space.p
        self.dim = dim = space.dim
        self.half = space.half
        self._form = np.array(space.form, dtype=np.int64)
        self._digits = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        vecs = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
        # coordinates of every index
        self.w = np.repeat(vecs, p, axis=0)
        self.z = np.tile(np.arange(p, dtype=np.int64), len(vecs))
        self.order = len(self.z)
        self.names = [HElem(tuple(w), z) for w, z in zip(self.w.tolist(), self.z.tolist())]

    def __getattr__(self, name):
        # reached only while the table is unbuilt: the attributes it sets
        if name not in ("table", "inverse_of", "_center"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._adopt(self._law_table())
        return self.__dict__[name]

    def _law_table(self) -> np.ndarray:
        """The (|H|, |H|) Cayley table of the law, by numpy broadcasting."""
        p, vecs = self.p, self.w[:: self.p]
        w_part = ((vecs[:, None, :] + vecs[None, :, :]) % p) @ self._digits
        twist = self.half * (vecs @ self._form @ vecs.T % p)
        zs = np.arange(p)
        # table[(w1, z1), (w2, z2)] over the axes (w1, z1, w2, z2), built in
        # place: one table-sized array
        table = twist[:, None, :, None] + np.add.outer(zs, zs)[None, :, None, :]
        table %= p
        table += w_part[:, None, :, None] * p
        return table.reshape(self.order, self.order)

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

    def all_subgroups(self) -> np.ndarray:
        """Every subgroup of H(p, 1), from its structure, with no closure,
        as one read-only (k, |H|) array of masks, in the order of (size,
        sorted members).

        H(p, 1) has order p^3 and exponent p: (w, z)^k = (k w, k z), as
        <w, w> = 0.  So a subgroup of order p is cyclic, <(w, z)> =
        {(k w, k z)}.  One of order p^2 has index p, so it is normal, meets
        the center Z (of order p) and contains it: it is the preimage of a
        line of W, and each of the p + 1 lines gives one.  With {1} and H,
        that makes p^2 + 2p + 4 subgroups.
        """
        return self._subgroup_structure[0]

    def subgroup_generators(self) -> list[tuple[int, ...]]:
        """A generating set of each subgroup of :meth:`all_subgroups`, in
        its order, read from how it is built: none for {1}; (w, z) for the
        cyclic <(w, z)>; (d, 0) and the center's (0, 1) for the preimage of
        the line spanned by d; (1, 0) and (0, 1) of W for H, whose
        commutator is the center."""
        return list(self._subgroup_structure[1])

    @cached_property
    def _subgroup_structure(self) -> tuple[np.ndarray, tuple]:
        """(subgroups, generating sets) of :meth:`all_subgroups` and
        :meth:`subgroup_generators`, built once per group."""
        if self.space.ell != 1:
            raise GuardError(
                "subgroup sweep needs ell = 1 (the subgroups of H(p, 1)); "
                f"got ell = {self.space.ell}"
            )
        p, k = self.p, np.arange(self.p)
        # column h: the powers (k w_h, k z_h) of h, one broadcast
        powers = self.index_of(k[:, None, None] * self.w, k[:, None] * self.z)
        cyclic, first = np.unique(
            np.sort(powers[:, 1:], axis=0).T, axis=0, return_index=True
        )
        # row d: the (k d, z) over the line spanned by d, (0, 1) or (1, c)
        dirs = np.array([(0, 1)] + [(1, c) for c in range(p)], dtype=np.int64)
        over = k[:, None, None] * dirs[:, None, None]  # (p + 1, p, 1, 2)
        lines = self.index_of(np.broadcast_to(over, (p + 1, p, p, 2)), k)
        lines, line_of = np.unique(
            np.sort(lines.reshape(p + 1, p * p), axis=1), axis=0, return_index=True
        )
        center = self.central(1)
        # row 0 is {1}, then the cyclic subgroups and the lines, then H
        subgroups = np.zeros((len(cyclic) + len(lines) + 2, self.order), dtype=bool)
        subgroups[0, 0] = subgroups[-1] = True
        for start, members in ((1, cyclic), (1 + len(cyclic), lines)):
            subgroups[start + np.arange(len(members))[:, None], members] = True
        gens = (
            (),
            *((h,) for h in (first + 1).tolist()),
            *((d, center) for d in self.index_of(dirs[line_of], 0).tolist()),
            tuple(self.index_of(np.eye(2, dtype=np.int64), 0).tolist()),
        )
        return read_only(subgroups), gens

    # -- embedded subgroups of interest --------------------------------------

    @cached_property
    def plus_subgroup(self) -> np.ndarray:
        """W^+ x {0} for the standard polarization, {w[l:] = 0, z = 0},
        built once per group."""
        return self._block(slice(self.space.ell, None), self.z == 0)

    @cached_property
    def minus_subgroup(self) -> np.ndarray:
        """W^- x {0} for the standard polarization, {w[:l] = 0, z = 0},
        built once per group."""
        return self._block(slice(None, self.space.ell), self.z == 0)

    @cached_property
    def minus_z_subgroup(self) -> np.ndarray:
        """W^- x Z for the standard polarization, {w[:l] = 0}, built once
        per group."""
        return self._block(slice(None, self.space.ell), True)

    def _block(self, vanishing: slice, keep) -> np.ndarray:
        """The read-only mask of the indices where the coordinates
        ``w[vanishing]`` are 0 and the mask ``keep`` holds."""
        return read_only(keep & ~self.w[:, vanishing].any(axis=1))

    def __repr__(self):
        return f"HeisenbergGroup(p={self.p}, ell={self.space.ell})"


# -- special isomorphisms -------------------------------------------------------


def special_isos(group: HeisenbergGroup) -> Automorphisms:
    """Every special isomorphism nu(w, z) = (w, z + <w0, w>), one per w0 of
    W in the order of its index, as one stack of s = 1 and sign 1."""
    w0, dim = group.w[:: group.p], group.dim
    eye = np.broadcast_to(np.eye(dim, dtype=np.int64), (len(w0), dim, dim))
    return Automorphisms(group, eye, w0, 1)


def special_iso_axioms(
    group: HeisenbergGroup, perms, check: Check | None = None, name=int
) -> np.ndarray:
    """Whether each row of the (k, |H|) stack ``perms`` gives a special
    isomorphism nu(w, z) = (w, mu(w, z)), with mu = ``perms % p`` (the w
    part of a row is not read, so a row may index a larger group): mu(0, z)
    = z on the center, and nu is a homomorphism H -> W x| F_p, whose law is
    the law of H.  One bool per row.

    By the generator lemma of :mod:`heisweil.groups`, nu(x s) = nu(x) nu(s)
    for every x in H and s in :attr:`~heisweil.groups.TableGroup.generators`
    makes nu multiplicative, so |H| |S| edges are checked, one gather of
    the generator columns.  On pairs this is mu(ab) = mu(a) + mu(b) +
    (1/2)<w_a, w_b>, as the w parts of both sides agree.  Each row records
    its p center identities, then its edges (x, s) in row-major order; a
    failure's witness names its row i as ``name(i)``.
    """
    g = group
    check = Check("heisenberg.special_iso_axioms") if check is None else check
    mu = np.asarray(perms) % g.p
    center, gens = np.flatnonzero(g.center()), np.array(g.generators)
    nu = mu + (np.arange(g.order) - g.z)  # nu(h) as an index
    edges = nu[:, g.table[:, gens]] == g.table[nu[:, :, None], nu[:, None, gens]]
    oks = np.concatenate([mu[:, center] == g.z[center], edges.reshape(len(nu), -1)], 1)

    def witness(i, j):
        if j < len(center):
            return {"nu": name(i), "center": int(center[j])}
        x, k = divmod(j - len(center), len(gens))
        return {"nu": name(i), "a": x, "b": int(gens[k])}

    check.all(oks, witness)
    return oks.all(axis=1)


def special_iso_from_split_polarization(
    group: HeisenbergGroup, hplus, hminus
) -> Automorphisms:
    """The unique nu sending both halves of a split polarization, the masks
    ``hplus`` and ``hminus``, into W x 1, as a stack of one.

    nu(h_+ h_- z) has central part z + (1/2)[h_+, h_-], with the |H|
    commutators [h_+, h_-] read off the table; w0 is then solved from mu on
    the basis, <w0, e_i> = mu(e_i, 0), and validated against every element.
    """
    g, p, ell = group, group.p, group.space.ell
    _check_split_polarization(group, hplus, hminus)

    plus_basis = rref_mod(g.w[hplus], p)[0]
    minus_basis = rref_mod(g.w[hminus], p)[0]
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

    # J^T w0 = (mu(e_i, 0))_i
    rhs = mu[g.index_of(np.eye(g.dim, dtype=np.int64), 0)]
    w0 = mat_inv(g._form.T, p) @ rhs % p
    nu = Automorphisms(group, np.eye(g.dim, dtype=np.int64)[None], w0[None], 1)
    if not np.array_equal(nu.perm[0] % p, mu):
        raise RuntimeError("split-polarization map is not in the offset torsor")
    return nu


def _side_by_w(g: HeisenbergGroup, side) -> np.ndarray:
    """Lookup from (w read in base p) to the element of the mask ``side``
    over w."""
    members = np.flatnonzero(side)
    lookup = np.full(g.order // g.p, -1, dtype=np.int64)
    lookup[members // g.p] = members
    return lookup


_LAGRANGIAN_FAULTS = (
    "images do not have maximal isotropic size",
    "image is not totally isotropic",
    "images are not complementary",
)
_POLARIZATION_FAULTS = (
    "polarization needs subgroups",
    "H^+ meets the center",
    "Hhat^- must contain the center",
    *_LAGRANGIAN_FAULTS,
)
_INVOLUTION_FAULTS = (
    "alpha must act nontrivially on the center",
    "alpha must have order two",
    *_POLARIZATION_FAULTS,
)


def _raise_first(faults, messages) -> None:
    """ValueError with the message of the first fault of the first row that
    has one; ``faults`` is a (rows, messages) boolean table."""
    if faults.any():
        raise ValueError(messages[np.argwhere(faults)[0, 1]])


def _lagrangian_faults(g: HeisenbergGroup, plus, minus) -> list[np.ndarray]:
    """The faults of :data:`_LAGRANGIAN_FAULTS` on each row of the (k, |H|)
    masks ``plus`` and ``minus``: their images in W are complementary
    maximal totally isotropic subspaces when no fault is set."""
    p, size = g.p, g.p**g.space.ell
    # the image in W of a mask, over the w codes index // p
    images = [m.reshape(len(m), -1, p).any(axis=2) for m in (plus, minus)]
    w = g.w[::p]
    nonzero_pairing = (w @ g.space.form @ w.T % p != 0).astype(np.int64)
    pairs_nonzero = [((im @ nonzero_pairing > 0) & im).any(axis=1) for im in images]
    both = images[0] & images[1]
    return [
        (images[0].sum(axis=1) != size) | (images[1].sum(axis=1) != size),
        pairs_nonzero[0] | pairs_nonzero[1],
        ~both[:, 0] | (both.sum(axis=1) != 1),
    ]


def _polarization_faults(g: HeisenbergGroup, plus, hhat_minus) -> list[np.ndarray]:
    """The faults of :data:`_POLARIZATION_FAULTS` on each row of the (k, |H|)
    masks ``plus`` (H^+) and ``hhat_minus`` (Hhat^-)."""
    center = g.center()
    return [
        ~(g.are_subgroups(plus) & g.are_subgroups(hhat_minus)),
        (plus & center).sum(axis=1) != 1,
        (center & ~hhat_minus).any(axis=1),
        *_lagrangian_faults(g, plus, hhat_minus),
    ]


def _check_split_polarization(g: HeisenbergGroup, hplus, hminus):
    center, sides = g.center(), (hplus[None], hminus[None])
    faults = []
    for side in sides:
        faults += [~g.are_subgroups(side), (side & center).sum(axis=1) > 1]
    messages = (
        "split polarization needs subgroups",
        "side meets the center nontrivially",
    ) * 2 + _LAGRANGIAN_FAULTS
    _raise_first(np.column_stack(faults + _lagrangian_faults(g, *sides)), messages)


_SPLITTING_FAULTS = (
    "splitting is not a subgroup",
    "splitting meets the center nontrivially",
    "splitting times the center is not Hhat^-",
)


def split_polarization_from_iso(isos: Automorphisms, hplus, hhat_minus) -> np.ndarray:
    """H^- = Hhat^- intersect nu^-1(W x 1), the splitting attached to each
    special isomorphism nu of the stack ``isos``, as (len(isos), |H|) masks.

    The polarization (H^+, Hhat^-), two masks, is checked once; every splitting must be
    a subgroup that meets the center trivially with H^- Z = Hhat^-, read on
    the w codes index // p.  The first row that fails raises RuntimeError
    naming its first fault and its w0.
    """
    g = isos.group
    _check_polarization(g, hplus, hhat_minus)
    hminus = hhat_minus & (isos.perm % g.p == 0)
    # H^- Z: every (w, z) with w the w of an element of H^-
    times_center = np.repeat(hminus.reshape(len(isos), -1, g.p).any(axis=2), g.p, axis=1)
    faults = np.column_stack([
        ~g.are_subgroups(hminus),
        (hminus & g.center()).sum(axis=1) != 1,
        (times_center != hhat_minus).any(axis=1),
    ])
    if faults.any():
        row, fault = np.argwhere(faults)[0]
        raise RuntimeError(f"{_SPLITTING_FAULTS[fault]} at w0 = {isos.w0[row].tolist()}")
    return hminus


def _check_polarization(g: HeisenbergGroup, hplus, hhat_minus):
    faults = _polarization_faults(g, hplus[None], hhat_minus[None])
    _raise_first(np.column_stack(faults), _POLARIZATION_FAULTS)


def special_iso_equal_tests(isos: Automorphisms):
    """The three equivalence tests on every ordered pair (nu1, nu2) of the
    special isomorphisms ``isos``, as three len(isos) x len(isos) boolean
    arrays:

    (equal as maps,
     equal preimages of W x 1,
     exists s in Sp with nu2 = s o nu1).

    s o nu1 and nu2 are homomorphisms (:func:`special_iso_axioms`, and s
    acts by an automorphism), and two homomorphisms that agree on the
    generators of H are equal, so exists-s is read on the generator
    columns: |Sp| |isos|^2 |S| comparisons.
    """
    g, perm = isos.group, isos.perm
    same_map = (perm[:, None] == perm[None]).all(axis=2)
    on_w = perm % g.p == 0  # row i: the preimage of W x 1 under nu_i
    same_preimage = (on_w[:, None] == on_w[None]).all(axis=2)
    # act[s, h]: (w, z) -> (s w, z); on_gens[k, i] = nu_k(s_i) as an index
    act = g.linear_action(sp_table(g.space).matrices)
    on_gens = perm[:, np.array(g.generators)]
    exists_s = (act[:, on_gens][:, :, None] == on_gens).all(axis=-1).any(axis=0)
    return same_map, same_preimage, exists_s


# -- automorphisms ---------------------------------------------------------------


class Automorphisms:
    """The automorphisms (w, z) -> (s_i w, sign * z + <w0_i, w>) of one
    group, i < k, as one stack: ``s`` of shape (k, 2l, 2l), ``w0`` of shape
    (k, 2l), one central ``sign`` and the read-only permutations ``perm``
    of the indices, shape (k, |H|).

    The form multiplier of every s must be the sign, tested once on the
    whole stack: symplectic s fix the center, antisymplectic s invert it.
    An s or a w0 of another shape, or another sign, raises ValueError.
    """

    def __init__(self, group: HeisenbergGroup, s, w0, sign: int):
        if sign not in (1, -1):
            raise ValueError("central sign must be +-1")
        g = group
        s, w0 = mat_mod(s, g.p), mat_mod(w0, g.p)
        if s.ndim != 3 or s.shape[1:] != (g.dim, g.dim):
            raise ValueError(f"s must have shape (k, {g.dim}, {g.dim}); got {s.shape}")
        if w0.shape != (len(s), g.dim):
            raise ValueError(f"w0 must have shape ({len(s)}, {g.dim}); got {w0.shape}")
        form_test = is_symplectic if sign == 1 else is_antisymplectic
        if not np.all(form_test(g.space, s)):
            raise ValueError("central sign must match the form multiplier of s")
        self.group, self.s, self.w0, self.sign = g, s, w0, sign
        twist = self.w0 @ g.space.form @ g.w.T  # <w0_i, w_h>
        perm = g.linear_action(s) - g.z  # (s w, 0)
        perm += (sign * g.z + twist) % g.p
        perm.flags.writeable = False
        self.perm = perm

    def __len__(self) -> int:
        return len(self.s)

    def order_two(self) -> np.ndarray:
        """Whether each automorphism has order two: alpha^2 = 1 != alpha."""
        perm, ident = self.perm, np.arange(self.group.order)
        squares = np.take_along_axis(perm, perm, axis=1)
        return (squares == ident).all(axis=1) & (perm != ident).any(axis=1)

    def witness(self, i: int) -> dict:
        """The i-th automorphism as a failure witness."""
        return {
            "s": sp_witness(self.s[i], self.sign),
            "w0": self.w0[i].tolist(),
            "sign": self.sign,
        }


def involution_from_polarization(group: HeisenbergGroup) -> Automorphisms:
    """alpha(w+ + w-, z) = (w+ - w-, -z) for the standard polarization, as a
    stack of one; order two, inverts the center."""
    s = standard_involution(group.space)
    return Automorphisms(group, s[None], np.zeros((1, group.dim)), -1)


def _fixed_and_inverted(alphas: Automorphisms) -> tuple[np.ndarray, np.ndarray]:
    """The (len(alphas), |H|) masks of the fixed and the inverted points."""
    g, perms = alphas.group, alphas.perm
    return perms == np.arange(g.order), perms == g.inverse_of


def polarization_faults(alphas: Automorphisms) -> np.ndarray:
    """The (len(alphas), len(_INVOLUTION_FAULTS)) boolean table of the faults
    of every alpha of ``alphas`` as an involution that induces a
    polarization: row i is clear when alpha_i has order two, inverts the
    center, and its fixed and inverted points (H^+, Hhat^-) are subgroups,
    H^+ meets the center trivially, Hhat^- contains it, and their images in
    W are complementary maximal totally isotropic subspaces.  Every alpha is
    checked at once, on the stacked permutations."""
    faults = [
        np.full(len(alphas), alphas.sign != -1),
        ~alphas.order_two(),
        *_polarization_faults(alphas.group, *_fixed_and_inverted(alphas)),
    ]
    return np.column_stack(faults)


def polarizations_from_involutions(
    alphas: Automorphisms,
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed and inverted subgroups (H^+_a, Hhat^-_a) of every alpha of
    ``alphas``, which must have order two and invert the center, as two
    (len(alphas), |H|) boolean masks; each pair forms a polarization of H.

    The first alpha with a fault of :func:`polarization_faults` raises
    ValueError naming the first condition it fails.
    """
    _raise_first(polarization_faults(alphas), _INVOLUTION_FAULTS)
    return _fixed_and_inverted(alphas)


def _sweep_guard(g: HeisenbergGroup) -> None:
    """The (s, w0) sweeps below run over |Sp(W)| * |W| candidates."""
    max_p = SP_ENUM_GUARD["ell1_max_p"]
    if g.space.ell != 1 or g.p > max_p:
        raise GuardError(
            f"automorphism sweep guarded to ell = 1 and p <= {max_p}; "
            f"got ell = {g.space.ell}, p = {g.p}"
        )


def _order_two_sweep(g: HeisenbergGroup, mats, sign: int) -> Automorphisms:
    """The order-two automorphisms (s, w0) with s in the stack ``mats`` of
    form multiplier sign, in the order of s and then of w0 read in base p:
    s^2 = 1 and s w0 = -w0 on the stack, (1, 0) left out (see the module
    docstring)."""
    p, eye = g.p, np.eye(g.dim, dtype=np.int64)
    mats = mats[(mats @ mats % p == eye).all(axis=(1, 2))]
    w0s = g.w[::p]  # every w, in the order of its index
    negated = ((w0s @ np.swapaxes(mats, 1, 2) + w0s) % p == 0).all(axis=-1)
    negated[:, 0] &= ~(mats == eye).all(axis=(1, 2))  # (1, 0) is the identity
    k, v = np.nonzero(negated)
    return Automorphisms(g, mats[k], w0s[v], sign)


def order_two_automorphisms_trivial_on_center(group: HeisenbergGroup) -> Automorphisms:
    """All order-two automorphisms fixing Z pointwise: nontrivial (s, w0)
    with s symplectic, s^2 = 1 and s.w0 = -w0."""
    _sweep_guard(group)
    return _order_two_sweep(group, enumerate_sp(group.space), 1)


def order_two_automorphisms_inverting_center(group: HeisenbergGroup) -> Automorphisms:
    """All order-two automorphisms with alpha|Z = inversion: (s, w0) with s
    antisymplectic, s^2 = 1 and s.w0 = -w0."""
    _sweep_guard(group)
    return _order_two_sweep(group, enumerate_antisymplectic(group.space), -1)
