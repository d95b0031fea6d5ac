"""Induced representations and twisted involution bookkeeping on finite groups.

Groups are multiplication tables (:class:`TableGroup` from
:mod:`heisweil.groups`), so everything here is generic: the same code runs
on symmetric / dihedral / quaternion test groups, on the Heisenberg group
W x| F_p (itself a TableGroup) and on Sp(W) x| H, whose table below is
the law on (sp index, h index) pairs, :func:`semidirect_mul`, on every pair,
built once per space at p = 3 and kept read-only in int16.  The test
groups are laws on index arrays too, each table one broadcast:
(i + j) % n for C_n, the (rotation, flip) law for D_n, the composition of
the stacked permutations for S_n (each product found by its base-n code),
the (unit, sign) law for Q8, and the two tables side by side for a direct
product.

:func:`all_involutive_automorphisms` extends every tuple of same-order
generator images (read off :attr:`~heisweil.groups.TableGroup.orders`) at
once and keeps the involutive automorphisms among the extensions with one
stacked :meth:`~heisweil.groups.TableGroup.is_automorphism` call.

The two Hom-dimension computations are deliberately independent in what
they sum, and share the one exact product that sums it.  Each, like the
orbit multiplicity sum, is a builder of weight rows over G, with one
divisor per row, and its value for a kappa is the sum of the kappa's
projector traces over the rows:

- :func:`mackey_hom_dim` sums dim Hom_{K ^ gHg^-1}(kappa, 1) over double
  cosets KgH, the double-coset decomposition of Hom_H(Ind kappa, 1): the
  0/1 rows of those subgroups, one divisor |K ^ gHg^-1| each;
- :func:`induced_hom_dim_oracle` reads Ind_K^G(kappa) as block-permutation
  matrices over its own right-coset transversal and takes the exact trace
  of the averaging projector over H, never mentioning double cosets: one
  row of weights, how often each x_i h x_i^-1 lies on the diagonal, with
  the divisor |H|;
- :func:`orbmult_rhs`, the sum of the orbit multiplicity formula, has one
  0/1 row per K-orbit.

:func:`summed_traces` evaluates any number of such parts for a list of
kappas in one :func:`~heisweil.reps.projector_traces` call, which
multiplies their character rows by the stacked weight rows; the mackey
suite makes that one call per test bed.  So the oracle's independence
lies in its transversal and its weights, not in a product of its own.

Their agreement on every configuration is the module-level theorem check.
The double-coset side takes the (K, G^theta) partition of
:func:`heisweil.groups.double_coset_labels` as an argument and never
builds one: a caller partitions G once per fixed subgroup, and
:func:`mackey_hom_dim`, :func:`s_theta` (the split of the double cosets
by the K-orbit of x.theta), :func:`m_K` (the size of one part of that
split) and the suites' twisted-coset clauses read that one partition and
that one split.  The oracle builds its own transversal and never sees the
partition.

The G-orbit Theta of an involution theta and its K-orbits are never
enumerated as involutions.  a.theta = Int(a theta(a)^-1) o theta, so
a.theta = theta exactly when the twist a theta(a)^-1 is central
(:func:`involution_stabilizer`, G_theta), and Theta is G/G_theta.  As
k.(a.theta) = (k a).theta, the K-orbit of a.theta is the double coset
K a G_theta: :func:`k_orbit_labels` is one
:func:`~heisweil.groups.double_coset_labels` call, and every reader
addresses a.theta by its conjugator a.  :func:`s_theta` reads the K-orbit
of x.(a.theta) = (x a).theta as the label of x a, and :func:`fixed_masks`
gives G^(a.theta) = a G^theta a^-1, one gather for any number of a.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from heisweil.groups import TableGroup, double_coset_labels, extend_hom
from heisweil.heisenberg import HeisenbergGroup
from heisweil.reps import MatrixRep, projector_traces
from heisweil.symplectic import GuardError, SymplecticSpace, mat_inv, sp_index, sp_table

__all__ = [
    "InvolutionRecord",
    "TableGroup",
    "all_involutive_automorphisms",
    "conjugate_involution",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "fixed_masks",
    "fixed_subgroup",
    "induced_hom_dim_oracle",
    "inner_involution",
    "inner_involutions",
    "involution_stabilizer",
    "k_orbit_labels",
    "m_K",
    "mackey_hom_dim",
    "orbmult_rhs",
    "quaternion_group",
    "s_theta",
    "semidirect_mul",
    "summed_traces",
    "symmetric_group",
    "twisted_classes",
]


# -- the test-group zoo ----------------------------------------------------------


def cyclic_group(n: int) -> TableGroup:
    """C_n on the residues 0..n-1: the table (i + j) % n."""
    i = np.arange(n)
    return TableGroup((i[:, None] + i) % n)


def dihedral_group(n: int) -> TableGroup:
    """Order 2n: elements (r, f) = rotation r, flip f in {0, 1}, (r, f) at
    index f n + r.  A flip conjugates rotations, so
    (r1, f1)(r2, f2) = ((r1 + (-1)^f1 r2) % n, f1 ^ f2)."""
    i = np.arange(2 * n)
    r, f = i % n, i // n
    table = (r[:, None] + (1 - 2 * f[:, None]) * r) % n + n * (f[:, None] ^ f)
    return TableGroup(table, names=list(zip(r.tolist(), f.tolist())))


def symmetric_group(n: int) -> TableGroup:
    """S_n on the permutations of 0..n-1 in lexicographic order, with
    (a b)(x) = a(b(x)): every product composed at once, and found among the
    permutations by its base-n code, as lexicographic order is code order."""
    names = list(itertools.permutations(range(n)))
    perms = np.array(names, dtype=np.int64).reshape(len(names), n)
    digits = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    products = perms[np.arange(len(perms))[:, None, None], perms]
    return TableGroup(np.searchsorted(perms @ digits, products @ digits), names=names)


# QUATERNION_SIGN[u1, u2] = 1 where the product of the units u1 u2 of
# 1, i, j, k is negative: i i, j j, k k, j i, k j and i k
QUATERNION_SIGN = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion_group() -> TableGroup:
    """Q8 = {+-1, +-i, +-j, +-k} with the usual relations, s u at index
    2 u + s for the unit u of 1, i, j, k and the sign bit s: the unit of a
    product is u1 ^ u2 (i j = k, and so on), its sign s1 ^ s2 ^
    :data:`QUATERNION_SIGN`[u1, u2]."""
    names = [sign + unit for unit in "1ijk" for sign in ("", "-")]
    u, s = np.divmod(np.arange(8), 2)
    sign = s[:, None] ^ s ^ QUATERNION_SIGN[u[:, None], u]
    return TableGroup(2 * (u[:, None] ^ u) + sign, names=names)


def direct_product(g1: TableGroup, g2: TableGroup) -> TableGroup:
    """G1 x G2 on the pairs (a, b), (a, b) at index a |G2| + b: the table is
    the two tables broadcast together, t1[a1, a2] |G2| + t2[b1, b2]."""
    n1, n2 = g1.order, g2.order
    t1, t2 = g1.table.astype(np.int64), g2.table.astype(np.int64)
    table = t1[:, None, :, None] * n2 + t2[None, :, None, :]
    names = [(a, b) for a in range(n1) for b in range(n2)]
    return TableGroup(table.reshape(n1 * n2, n1 * n2), names=names)


# -- involutions -----------------------------------------------------------------


# the largest group order, and the most generators, of the search
AUTOMORPHISM_SEARCH_GUARD = (24, 3)


@dataclass(frozen=True)
class InvolutionRecord:
    """An automorphism of order <= 2 stored as a permutation of indices."""

    perm: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.perm[x]

    def is_valid(self, g: TableGroup) -> bool:
        """Bijective, of order <= 2, and p(ab) = p(a)p(b) for all pairs
        (:meth:`~heisweil.groups.TableGroup.is_automorphism`)."""
        p, ident = np.asarray(self.perm), np.arange(g.order)
        return bool(g.is_automorphism(p[None])[0]) and np.array_equal(p[p], ident)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.perm))


def inner_involution(g: TableGroup, a: int) -> InvolutionRecord:
    """Int(a): x -> a x a^-1, one gather of row a of the table."""
    return InvolutionRecord(tuple(g.table[g.table[a], g.inverse_of[a]].tolist()))


def inner_involutions(g: TableGroup) -> list[InvolutionRecord]:
    """Int(a) of order <= 2, i.e. a^2 central, each once, in the order of
    the smallest such a: one gather of the rows of those a."""
    t = g.table
    a = np.flatnonzero(g.mask(g.center())[t.diagonal()])
    perms = t[t[a], g.inverse_of[a, None]]
    first = np.sort(np.unique(perms, axis=0, return_index=True)[1])
    return [InvolutionRecord(tuple(perm)) for perm in perms[first].tolist()]


def all_involutive_automorphisms(g: TableGroup) -> list[InvolutionRecord]:
    """Every automorphism of order <= 2, by generator-image search, sorted
    by ``perm``.

    Guarded by :data:`AUTOMORPHISM_SEARCH_GUARD`: the search tries every
    tuple of same-order images of :attr:`~heisweil.groups.TableGroup.generators`.
    """
    max_order, max_gens = AUTOMORPHISM_SEARCH_GUARD
    if g.order > max_order:
        raise ValueError(f"automorphism search guarded to order <= {max_order}")
    gens = g.generators
    if len(gens) > max_gens:
        raise ValueError(
            f"automorphism search guarded to <= {max_gens} generators; got {len(gens)}"
        )
    same_order = [np.flatnonzero(g.orders == g.orders[a]) for a in gens]
    candidates = np.array(list(itertools.product(*same_order)), dtype=np.int64)
    # every candidate tuple at once: phi[x] is the column of x's images
    t = g.table
    zero = np.zeros_like(candidates[:, 0])
    phi = extend_hom(g, dict(zip(gens, candidates.T)), lambda a, b: t[a, b], zero)
    perms = np.stack([phi[x] for x in range(g.order)], axis=1)
    # one stacked test proves each extension: bijective, multiplicative and
    # of order <= 2; np.unique sorts the rows
    squares = np.take_along_axis(perms, perms, axis=1)
    involutive = (squares == np.arange(g.order)).all(axis=1)
    kept = np.unique(perms[g.is_automorphism(perms) & involutive], axis=0)
    return [InvolutionRecord(tuple(perm)) for perm in kept.tolist()]


def fixed_subgroup(g: TableGroup, theta: InvolutionRecord) -> frozenset:
    """G^theta, the indices where theta's permutation is the identity."""
    fixed = np.asarray(theta.perm) == np.arange(g.order)
    return frozenset(np.flatnonzero(fixed).tolist())


def conjugate_involution(
    g: TableGroup, a: int, theta: InvolutionRecord
) -> InvolutionRecord:
    """a . theta = Int(a) o theta o Int(a^-1), on the whole table at once."""
    t, ainv = g.table, g.inv(a)
    perm = np.asarray(theta.perm)
    # x -> a theta(a^-1 x a) a^-1
    return InvolutionRecord(tuple(t[t[a, perm[t[t[ainv], a]]], ainv].tolist()))


def involution_stabilizer(g: TableGroup, theta: InvolutionRecord) -> np.ndarray:
    """G_theta = {a : a.theta = theta}, the stabilizer of theta under
    conjugation, as sorted indices.

    Lemma: a.theta = Int(a theta(a)^-1) o theta, as
    a theta(a^-1 x a) a^-1 = c theta(x) c^-1 with c = a theta(a)^-1.  So
    a.theta = theta exactly when a theta(a)^-1 lies in Z(G), and the
    G-orbit of theta is G/G_theta, a.theta being the coset a G_theta.  One
    gather of the twists a theta(a)^-1, read through the center mask."""
    t, perm = g.table, np.asarray(theta.perm)
    central = g.mask(g.center())[t[np.arange(g.order), g.inverse_of[perm]]]
    return np.flatnonzero(central)


def k_orbit_labels(g: TableGroup, k_sub, theta: InvolutionRecord) -> np.ndarray:
    """For every conjugator a, the number of the K-orbit of a.theta in the
    G-orbit of theta: the label of the double coset K a G_theta
    (:func:`~heisweil.groups.double_coset_labels`), as k.(a.theta) =
    (k a).theta and a.theta = b.theta exactly when a G_theta = b G_theta
    (:func:`involution_stabilizer`).  The K-orbits are numbered in the order
    of their smallest conjugators, theta's own (a = 1, index 0) first.  ValueError
    when theta is not an involutive automorphism, or K no subgroup."""
    if not theta.is_valid(g):
        raise ValueError("input is not an involutive automorphism")
    return double_coset_labels(g, k_sub, involution_stabilizer(g, theta))


def fixed_masks(g: TableGroup, theta: InvolutionRecord, conjugators) -> np.ndarray:
    """The masks of G^(a.theta) = a G^theta a^-1, one row per conjugator a,
    as y is fixed by a.theta exactly when a^-1 y a is fixed by theta: one
    gather."""
    t, a = g.table, np.asarray(conjugators, dtype=np.int64)[:, None]
    fixed = np.asarray(theta.perm) == np.arange(g.order)
    return fixed[t[t[g.inverse_of[a], np.arange(g.order)], a]]


# -- double cosets and Mackey sums -------------------------------------------------


# (m d)^2 |H| for an induced representation of dimension m d, averaged over H
ORACLE_GUARD = 200_000


def summed_traces(kappas: list[MatrixRep], parts) -> list[list[int]]:
    """For every part, a pair (weights, divisors) of the builders below,
    and every kappa, the sum of the kappa's projector traces over the rows
    of the part: one :func:`~heisweil.reps.projector_traces` call on the
    stacked rows of all parts, each sum in Python ints."""
    sizes = [len(divisors) for _, divisors in parts]
    weights = np.concatenate([np.asarray(w, dtype=np.int64) for w, _ in parts])
    traces = projector_traces(kappas, weights, np.concatenate([d for _, d in parts]))
    ends = np.cumsum(sizes).tolist()
    return [
        traces[:, end - size : end].astype(object).sum(axis=1).tolist()
        for size, end in zip(sizes, ends)
    ]


def mackey_hom_dim(g: TableGroup, k_sub, h_sub, reps) -> tuple[np.ndarray, np.ndarray]:
    """The weight rows of the sum over double cosets KxH of
    dim Hom_{K ^ xHx^-1}(kappa, 1): the mask of K ^ xHx^-1 for every x of
    ``reps``, one representative of each double coset as the (K, H)
    partition gives them, with its size as divisor; one stacked gather."""
    t, inv = g.table, g.inverse_of
    h = np.array(sorted(h_sub), dtype=np.int64)
    xs = np.asarray(reps, dtype=np.int64)
    masks = np.zeros((len(xs), g.order), dtype=bool)
    masks[np.arange(len(xs))[:, None], t[t[xs[:, None], h], inv[xs][:, None]]] = True
    masks &= g.mask(k_sub)
    return masks, masks.sum(axis=1)


def induced_hom_dim_oracle(
    g: TableGroup, k_sub, h_sub, dim: int
) -> tuple[np.ndarray, list[int]]:
    """The weight row of dim Hom_H(Ind_K^G kappa, 1) without Mackey theory,
    for kappas of dimension at most ``dim``.

    The value is the exact trace of the idempotent averaging projector over
    H on the induced representation, read off its block-permutation
    matrices: x_i h = k x_j puts kappa(k) in block (i, j), so only j = i
    adds to the trace, by trace kappa(x_i h x_i^-1).  So the row weighs
    each element by how often it lies on that diagonal, over the divisor
    |H|.  Guarded by :data:`ORACLE_GUARD` on (m d)^2 |H| with d = ``dim``.
    RuntimeError when some x_i h x_j^-1 lies outside K.
    """
    t, inv = g.table, g.inverse_of
    k = np.array(sorted(k_sub), dtype=np.int64)
    # right-coset transversal x_0 < x_1 < ... of K\G, the smallest member of
    # each coset Kx, and the coset of each element
    first = t[k].min(axis=0)
    xs = np.unique(first)
    coset_of = np.searchsorted(xs, first)
    h = np.array(sorted(h_sub), dtype=np.int64)
    size = (len(xs) * dim) ** 2 * len(h)
    if size > ORACLE_GUARD:
        raise ValueError(
            f"induced-representation oracle guarded to (m d)^2 |H| <= "
            f"{ORACLE_GUARD}; got {size}"
        )
    # x_i h = kk x_j for every (h, i)
    y = t[xs[None, :], h[:, None]]
    j = coset_of[y]
    kk = t[y, inv[xs[j]]]
    outside = np.argwhere(~g.mask(k)[kk])
    if outside.size:
        a, i = outside[0]
        raise RuntimeError(f"x_i h x_j^-1 = {kk[a, i]} not in K (i = {i}, h = {h[a]})")
    diagonal = np.bincount(kk[j == np.arange(len(xs))], minlength=g.order)
    return diagonal[None], [len(h)]


# -- twisted classes and multiplicity bookkeeping ----------------------------------


def s_theta(g: TableGroup, a: int, reps, k_labels) -> list[list[int]]:
    """S(a.theta, Theta') = {K x G^(a.theta) : x.(a.theta) in Theta'} for
    every K-orbit Theta' of the G-orbit of theta, as sublists of ``reps``
    (one member of each (K, G^(a.theta)) double coset), in the order of
    ``k_labels``, the K-orbits of :func:`k_orbit_labels`.  As
    x.(a.theta) = (x a).theta, the K-orbit of x is the label of x a: one
    gather, no conjugation."""
    split = [[] for _ in range(int(k_labels.max()) + 1)]
    parts = k_labels[g.table[np.asarray(reps, dtype=np.int64), a]]
    for x, part in zip(reps, parts.tolist()):
        split[part].append(x)
    return split


def twisted_classes(g: TableGroup, k_sub, theta: InvolutionRecord) -> np.ndarray:
    """For every x, the number of the twisted class of its twist
    x theta(x)^-1: the K-orbits on the twists under k . y = k y theta(k)^-1,
    numbered in the order of their smallest members.

    As k . (x theta(x)^-1) = (k x) theta(k x)^-1, the orbit of a twist holds
    only twists.  One (|K|, n) gather ``t[t[K], theta(K)^-1]`` gives the
    orbit of every y, column by column; its column minima, read at the
    twists, are the smallest members of their classes.
    """
    t, inv = g.table, g.inverse_of
    perm = np.asarray(theta.perm)
    k = np.array(sorted(k_sub), dtype=np.int64)
    least = t[t[k], inv[perm[k]][:, None]].min(axis=0)
    twist = t[np.arange(g.order), inv[perm]]
    return np.unique(least[twist], return_inverse=True)[1]


def m_K(g: TableGroup, k_sub, theta: InvolutionRecord, cosets):
    """(m_K(Theta), |H^1_Theta| or None) for the G-orbit Theta of theta.

    m_K(Theta) is the size of ``cosets`` = S(theta, K.theta) from
    :func:`s_theta`.  The bound |H^1| = |Z^1| / |B^1| uses the center and is
    only meaningful when Z <= K, so it is None otherwise; the caller
    compares the two.  Z^1 = {z central : theta(z) = z^-1} and B^1 =
    {z theta(z)^-1}; a coboundary outside Z^1 raises RuntimeError.
    """
    t, inv, perm = g.table, g.inverse_of, np.asarray(theta.perm)
    center = g.center()
    z = np.array(sorted(center), dtype=np.int64)
    z1 = g.mask(z) & (perm == inv)
    b1 = t[z, inv[perm[z]]]
    if (outside := np.flatnonzero(~z1[b1])).size:
        a = outside[0]
        raise RuntimeError(
            f"coboundary z theta(z)^-1 = {b1[a]} of z = {z[a]} is not in Z^1"
        )
    bound = int(z1.sum()) // len(np.unique(b1))
    return len(cosets), bound if center <= frozenset(k_sub) else None


def orbmult_rhs(
    g: TableGroup, k_sub, theta: InvolutionRecord, k_labels
) -> tuple[np.ndarray, np.ndarray]:
    """The weight rows of the right side of the orbit multiplicity formula

    dim Hom_{G^theta}(Ind kappa, 1)
        = m_K * sum over K-orbits Theta' in Theta of dim Hom_{K ^ G^theta'}(kappa, 1),

    the mask of K ^ a G^theta a^-1 for the smallest conjugator a of each
    K-orbit of ``k_labels`` (:func:`k_orbit_labels`), theta' = a.theta,
    with its size as divisor; the caller multiplies the summed traces by
    m_K(Theta).  The left side is the oracle's value.
    """
    firsts = np.unique(k_labels, return_index=True)[1]
    masks = fixed_masks(g, theta, firsts) & g.mask(k_sub)
    return masks, masks.sum(axis=1)


# -- Sp(W) x| H -------------------------------------------------------------------


def semidirect_mul(sp: TableGroup, h: TableGroup, act, a, u, b, v) -> np.ndarray:
    """The law of Sp(W) x| H on index pairs: the index of (a, u)(b, v) =
    (a b, (b^-1 . u) v) for index arrays a, b of ``sp`` and u, v of ``h``
    that broadcast together, with act[s, x] the index of s . x and (s, x)
    at index s |H| + x.  Open-mesh arrays (``np.ix_``) give the whole
    table with no temporary larger than |H| |Sp| |H|."""
    return sp.table[a, b] * h.order + h.table[act[sp.inverse_of[b], u], v]


# Sp x| H is tabulated at p = 3 only: 648 elements there, but 15 000 at
# p = 5, whose int64 table would take 1.8 GB
SEMIDIRECT_TABLE_MAX_P = 3


@functools.lru_cache(maxsize=None)
def semidirect_table_group(space: SymplecticSpace) -> TableGroup:
    """Sp(W) x| H(W) as a TableGroup, built once per space and shared, as
    :func:`~heisweil.symplectic.sp_table` is: :func:`semidirect_mul` on
    every pair; names are (sp index, h index) pairs, (s, h) at index
    s |H| + h, with H laid out as :class:`~heisweil.heisenberg.HeisenbergGroup`
    lays it out.  The table is kept in int16 (648 < 2^15), and it and
    ``inverse_of`` are read-only; what a reader adds to the group is its
    generators and the generating set of each subgroup it asks for, each
    derived once per process.  GuardError past ell = 1,
    p <= :data:`SEMIDIRECT_TABLE_MAX_P`."""
    if space.ell != 1 or space.p > SEMIDIRECT_TABLE_MAX_P:
        raise GuardError(
            f"Sp x| H is tabulated for ell = 1, p <= {SEMIDIRECT_TABLE_MAX_P} only "
            f"(at p = 5 its table would take 1.8 GB); "
            f"got p = {space.p}, ell = {space.ell}"
        )
    g, sp = HeisenbergGroup(space), sp_table(space)
    act = g.linear_action(sp.matrices)
    n = sp.order * g.order
    pairs = np.ix_(range(sp.order), range(g.order), range(sp.order), range(g.order))
    table = semidirect_mul(sp, g, act, *pairs).reshape(n, n).astype(np.int16)
    names = [(s, h) for s in range(sp.order) for h in range(g.order)]
    tg = TableGroup(table, names=names)
    for shared in (tg.table, tg.inverse_of):
        shared.flags.writeable = False
    return tg


def semidirect_involution_record(alphas, i: int) -> InvolutionRecord:
    """theta(s, h) = (abar s abar^-1, alpha(h)) on Sp(W) x| H, as
    :func:`semidirect_table_group` lays it out, for alpha the i-th of the
    :class:`~heisweil.heisenberg.Automorphisms` ``alphas``, central-inverting
    with w0 = 0: only for those is theta an automorphism."""
    w0 = tuple(alphas.w0[i].tolist())
    if any(w0):
        raise ValueError(f"alpha must have w0 = 0; got w0 = {w0}")
    space, abar = alphas.group.space, alphas.s[i]
    conjugated = abar @ sp_table(space).matrices @ mat_inv(abar, space.p) % space.p
    moved = sp_index(space, conjugated)
    perm = moved[:, None] * alphas.group.order + alphas.perm[i]
    return InvolutionRecord(tuple(perm.ravel().tolist()))
