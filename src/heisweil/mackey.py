"""Induced representations and twisted involution bookkeeping on finite groups.

Groups are multiplication tables (:class:`TableGroup` from
:mod:`heisweil.groups`), so everything here is generic: the same code runs
on symmetric / dihedral / quaternion test groups, on the Heisenberg group
W x| F_p (itself a TableGroup) and on Sp(W) x| H, whose table below is
the law on (sp index, h index) pairs, :func:`semidirect_mul`, on every pair,
built once per space at p = 3 and kept read-only in int16.

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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from heisweil.groups import (
    TableGroup,
    extend_hom,
    table_group_from_mul,
)
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
    "fixed_subgroup",
    "induced_hom_dim_oracle",
    "inner_involution",
    "inner_involutions",
    "involution_orbits",
    "m_K",
    "mackey_hom_dim",
    "orbmult_rhs",
    "quaternion_group",
    "s_theta",
    "semidirect_mul",
    "summed_traces",
    "symmetric_group",
    "table_group_from_mul",
    "twisted_classes",
]


# -- the test-group zoo ----------------------------------------------------------


def cyclic_group(n: int) -> TableGroup:
    return TableGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_group(n: int) -> TableGroup:
    """Order 2n: elements (r, f) = rotation r, flip f in {0, 1}."""
    els = [(r, f) for f in (0, 1) for r in range(n)]

    def mul(a, b):
        (r1, f1), (r2, f2) = a, b
        # (r1, f1)(r2, f2): flips conjugate rotations
        r = (r1 + (r2 if f1 == 0 else -r2)) % n
        return (r, (f1 + f2) % 2)

    return table_group_from_mul(els, mul, (0, 0))


def symmetric_group(n: int) -> TableGroup:
    els = list(itertools.permutations(range(n)))

    def mul(a, b):  # (a b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(n))

    return table_group_from_mul(els, mul, tuple(range(n)))


def quaternion_group() -> TableGroup:
    """Q8 = {+-1, +-i, +-j, +-k} with the usual relations."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def split(x):
        sign = -1 if x.startswith("-") else 1
        return sign, x.lstrip("-")

    basic = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def mul(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        s, u = basic[(ua, ub)]
        sign = sa * sb * s
        return u if sign == 1 else "-" + u

    return table_group_from_mul(names, mul, "1")


def direct_product(g1: TableGroup, g2: TableGroup) -> TableGroup:
    els = [(a, b) for a in range(g1.order) for b in range(g2.order)]

    def mul(x, y):
        return (g1.mul(x[0], y[0]), g2.mul(x[1], y[1]))

    return table_group_from_mul(els, mul, (0, 0))


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
        p = np.asarray(self.perm)
        return g.is_automorphism(p) and np.array_equal(p[p], np.arange(g.order))

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
    orders = np.array([g.element_order(a) for a in range(g.order)])
    same_order = [np.flatnonzero(orders == orders[a]).tolist() for a in gens]
    candidates = np.array(list(itertools.product(*same_order)), dtype=np.int64)
    # every candidate tuple at once: phi[x] is the column of x's images
    t = g.table
    zero = np.zeros_like(candidates[:, 0])
    phi = extend_hom(g, dict(zip(gens, candidates.T)), lambda a, b: t[a, b], zero)
    perms = np.stack([phi[x] for x in range(g.order)], axis=1).tolist()
    # is_valid proves each extension: bijective, of order <= 2, multiplicative
    recs = (InvolutionRecord(tuple(perm)) for perm in perms)
    return sorted((rec for rec in recs if rec.is_valid(g)), key=lambda rec: rec.perm)


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


def involution_orbits(
    g: TableGroup, thetas, actor, validate: bool = True
) -> list[list[InvolutionRecord]]:
    """Partition of the given involutions under conjugation by the actor
    subgroup, each orbit in breadth-first discovery order from a generating
    set of the actor: :attr:`~heisweil.groups.TableGroup.generators` when
    the actor is all of G, else
    :meth:`~heisweil.groups.TableGroup.generators_of` the actor, each
    derived once per group.

    a.theta = c_a o theta o c_a^-1 with c_a(x) = a x a^-1, so a layer of the
    search is one gather over (frontier x generators) on the stacked
    permutations.  A permutation is keyed by the bytes of its row, and an
    orbit member that is one of ``thetas`` is handed back as that record,
    not rebuilt.  ``validate`` checks that the first involution is one; a
    caller passing conjugates of a checked involution can skip it.
    """
    thetas = list(thetas)
    if validate and thetas and not thetas[0].is_valid(g):
        raise ValueError("input is not an involutive automorphism")
    t, actor = g.table, frozenset(actor)
    gens = g.generators if len(actor) == g.order else g.generators_of(actor)
    gens = np.array(gens, dtype=np.int64)
    # outer[j] = c_a and inner[j] = c_a^-1 for the generator a = gens[j]
    outer = t[t[gens], g.inverse_of[gens, None]]
    inner = t[t[g.inverse_of[gens]], gens[:, None]]
    which = np.arange(len(gens))[:, None]
    rows = np.array([theta.perm for theta in thetas], dtype=t.dtype)
    given = {row.tobytes(): theta for row, theta in zip(rows, thetas)}
    remaining = dict(given)
    orbits = []
    while remaining:
        key, seed = remaining.popitem()
        frontier = np.frombuffer(key, dtype=t.dtype)[None]
        found, seen = [seed], {key}
        while len(frontier):
            # candidate (x, j) is gens[j] . frontier[x], in row-major order
            nxt = []
            for row in outer[which, frontier[:, inner]].reshape(-1, g.order):
                if (key := row.tobytes()) not in seen:
                    seen.add(key)
                    nxt.append(row)
                    found.append(given.get(key) or InvolutionRecord(tuple(row.tolist())))
            frontier = np.array(nxt, dtype=t.dtype).reshape(len(nxt), g.order)
        for key in seen:
            remaining.pop(key, None)
        orbits.append(found)
    return orbits


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


def s_theta(g: TableGroup, theta: InvolutionRecord, reps, orbit_of) -> list[list[int]]:
    """S(theta, Theta') = {K x G^theta : x.theta in Theta'} for every K-orbit
    Theta' of the G-orbit of theta, as sublists of ``reps`` (one member of
    each (K, G^theta) double coset); ``orbit_of`` maps each involution of
    the G-orbit, by ``perm``, to the index of its K-orbit.  Every x.theta is
    one row of a stacked gather, as :func:`conjugate_involution` makes it."""
    t, perm = g.table, np.asarray(theta.perm)
    xs = np.asarray(reps, dtype=np.int64)
    xinv = g.inverse_of[xs]
    # row r: y -> x theta(x^-1 y x) x^-1 for x = reps[r]
    moved = t[t[xs[:, None], perm[t[t[xinv], xs[:, None]]]], xinv[:, None]]
    split = [[] for _ in range(max(orbit_of.values()) + 1)]
    for x, row in zip(reps, moved.tolist()):
        split[orbit_of[tuple(row)]].append(x)
    return split


def twisted_classes(g: TableGroup, k_sub, theta: InvolutionRecord):
    """K-orbits on {x theta(x)^-1} under k . y = k y theta(k)^-1, as sorted
    lists in the order of their smallest members.

    The orbit of y is one gather ``t[t[K, y], theta(K)^-1]`` from the table.
    """
    t, inv = g.table, g.inverse_of
    perm = np.asarray(theta.perm)
    k = np.array(sorted(k_sub), dtype=np.int64)
    twisted_inverse = inv[perm[k]]
    unseen = np.zeros(g.order, dtype=bool)
    unseen[t[np.arange(g.order), inv[perm]]] = True
    classes = []
    for y in np.flatnonzero(unseen).tolist():
        if unseen[y]:
            orbit = np.unique(t[t[k, y], twisted_inverse])
            unseen[orbit] = False
            classes.append(orbit.tolist())
    return classes


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


def orbmult_rhs(g: TableGroup, k_sub, k_orbits) -> tuple[np.ndarray, np.ndarray]:
    """The weight rows of the right side of the orbit multiplicity formula

    dim Hom_{G^theta}(Ind kappa, 1)
        = m_K * sum over K-orbits Theta' in Theta of dim Hom_{K ^ G^theta'}(kappa, 1),

    the mask of K ^ G^theta' for one involution theta' read from each
    K-orbit, with its size as divisor; the caller multiplies the summed
    traces by m_K(Theta).  The left side is the oracle's value.
    """
    perms = np.array([k_orbit[0].perm for k_orbit in k_orbits], dtype=np.int64)
    masks = (perms == np.arange(g.order)) & g.mask(k_sub)
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


def semidirect_involution_record(alpha) -> InvolutionRecord:
    """theta(s, h) = (abar s abar^-1, alpha(h)) on Sp(W) x| H, as
    :func:`semidirect_table_group` lays it out, for a central-inverting
    alpha with w0 = 0: only for those is theta an automorphism."""
    if any(alpha.w0):
        raise ValueError(f"alpha must have w0 = 0; got w0 = {alpha.w0}")
    space, abar = alpha.group.space, alpha.s
    conjugated = abar @ sp_table(space).matrices @ mat_inv(abar, space.p) % space.p
    moved = sp_index(space, conjugated)
    perm = moved[:, None] * alpha.group.order + alpha.perm[None, :]
    return InvolutionRecord(tuple(perm.ravel().tolist()))
