"""Induced representations and twisted involution bookkeeping on finite groups.

Groups are multiplication tables (:class:`TableGroup` from
:mod:`heisweil.groups`), so everything here is generic: the same code runs
on symmetric / dihedral / quaternion test groups, on the Heisenberg group
W x| F_p (itself a TableGroup) and on Sp(W) x| H, whose table below is
the law on (sp index, h index) pairs, :func:`semidirect_mul`, on every pair.

The two Hom-dimension computations are deliberately independent:

- :func:`mackey_hom_dim` sums dim Hom_{K ^ gHg^-1}(kappa, 1) over double
  cosets KgH, the double-coset decomposition of Hom_H(Ind kappa, 1), as one
  :func:`~heisweil.reps.hom_dims` call;
- :func:`induced_hom_dim_oracle` reads Ind_K^G(kappa) as block-permutation
  matrices over its own right-coset transversal and takes the exact trace
  of the averaging projector over H, never mentioning double cosets.

Both read kappa's character through its one row of traces
(:meth:`~heisweil.reps.MatrixRep.characters`), and the oracle sums that
row over the diagonal blocks itself rather than calling ``hom_dims``.

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

import itertools
from dataclasses import dataclass

import numpy as np

from heisweil.groups import (
    TableGroup,
    extend_hom,
    generators_within,
    table_group_from_mul,
)
from heisweil.heisenberg import HeisenbergGroup
from heisweil.reps import MatrixRep, hom_dims
from heisweil.symplectic import mat_inv, sp_index, sp_table

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


# the largest group order, and the most minimal generators, of the search
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


def _minimal_generators(g: TableGroup) -> list[int]:
    gens: list[int] = []
    generated = frozenset([0])
    while len(generated) < g.order:
        best = None
        for a in range(g.order):
            if a in generated:
                continue
            new = g.subgroup_generated(gens + [a])
            if best is None or len(new) > best[0]:
                best = (len(new), a, new)
        gens.append(best[1])
        generated = best[2]
    return gens


def all_involutive_automorphisms(g: TableGroup) -> list[InvolutionRecord]:
    """Every automorphism of order <= 2, by generator-image search.

    Guarded by :data:`AUTOMORPHISM_SEARCH_GUARD`: the search tries every
    tuple of same-order images of the minimal generators.
    """
    max_order, max_gens = AUTOMORPHISM_SEARCH_GUARD
    if g.order > max_order:
        raise ValueError(f"automorphism search guarded to order <= {max_order}")
    gens = _minimal_generators(g)
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
    return [rec for rec in recs if rec.is_valid(g)]


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
    the actor is all of G, derived once per group.

    a.theta = c_a o theta o c_a^-1 with c_a(x) = a x a^-1, so a layer of the
    search is one gather over (frontier x generators) on the stacked
    permutations.  ``validate`` checks that the first involution is one;
    a caller passing conjugates of a checked involution can skip it.
    """
    thetas = list(thetas)
    if validate and thetas and not thetas[0].is_valid(g):
        raise ValueError("input is not an involutive automorphism")
    t, actor = g.table, frozenset(actor)
    whole = len(actor) == g.order
    gens = g.generators if whole else generators_within(g, actor)
    gens = np.array(gens, dtype=np.int64)
    # outer[j] = c_a and inner[j] = c_a^-1 for the generator a = gens[j]
    outer = t[t[gens], g.inverse_of[gens, None]]
    inner = t[t[g.inverse_of[gens]], gens[:, None]]
    which = np.arange(len(gens))[:, None]
    remaining = {theta.perm: theta for theta in thetas}
    orbits = []
    while remaining:
        _, seed = remaining.popitem()
        frontier = np.array([seed.perm], dtype=t.dtype)
        found, seen = [seed], {frontier[0].tobytes()}
        while len(frontier):
            # candidate (x, j) is gens[j] . frontier[x], in row-major order
            nxt = []
            for row in outer[which, frontier[:, inner]].reshape(-1, g.order):
                if (key := row.tobytes()) not in seen:
                    seen.add(key)
                    nxt.append(row)
            found.extend(InvolutionRecord(tuple(row.tolist())) for row in nxt)
            frontier = np.array(nxt, dtype=t.dtype).reshape(len(nxt), g.order)
        for theta in found:
            remaining.pop(theta.perm, None)
        orbits.append(found)
    return orbits


# -- double cosets and Mackey sums -------------------------------------------------


# (m d)^2 |H| for an induced representation of dimension m d, averaged over H
ORACLE_GUARD = 200_000


def mackey_hom_dim(g: TableGroup, k_sub, kappa: MatrixRep, h_sub, reps) -> int:
    """Sum over double cosets KxH of dim Hom_{K ^ xHx^-1}(kappa, 1).

    ``reps`` holds one representative x of each double coset, as the
    (K, H) partition gives them; the summands are one :func:`hom_dims` call.
    """
    t, inv = g.table, g.inverse_of
    h = np.array(sorted(h_sub), dtype=np.int64)
    k_set = frozenset(k_sub)
    conj = [k_set & frozenset(t[t[x, h], inv[x]].tolist()) for x in reps]
    return int(hom_dims([kappa], conj).sum())


def induced_hom_dim_oracle(g: TableGroup, k_sub, kappa: MatrixRep, h_sub) -> int:
    """dim Hom_H(Ind_K^G kappa, 1) without Mackey theory.

    Returns the exact trace of the idempotent averaging projector over H on
    the induced representation, read off its block-permutation matrices:
    x_i h = k x_j puts kappa(k) in block (i, j), so only j = i adds to the
    trace, by trace kappa(x_i h x_i^-1): one sum over kappa's character row.
    Guarded by :data:`ORACLE_GUARD`.
    """
    t, inv = g.table, g.inverse_of
    k = np.array(sorted(k_sub), dtype=np.int64)
    # right-coset transversal x_0 < x_1 < ... of K\G, and the coset of each element
    coset_of = np.full(g.order, -1, dtype=np.int64)
    transversal = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[t[k, x]] = len(transversal)
            transversal.append(x)
    xs, h = np.array(transversal), np.array(sorted(h_sub), dtype=np.int64)
    size = (len(xs) * kappa.dim) ** 2 * len(h)
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
    diagonal = kk[j == np.arange(len(xs))].tolist()  # x_i h x_i^-1
    tr = kappa.character_sum(diagonal) / len(h)
    if not tr.is_integer():
        raise RuntimeError(f"projector trace {tr!r} is not a rational integer")
    val = int(tr.rational_value())
    if val < 0:
        raise RuntimeError(f"projector trace {val} is negative")
    return val


# -- twisted classes and multiplicity bookkeeping ----------------------------------


def s_theta(g: TableGroup, theta: InvolutionRecord, reps, orbit_of) -> list[list[int]]:
    """S(theta, Theta') = {K x G^theta : x.theta in Theta'} for every K-orbit
    Theta' of the G-orbit of theta, as sublists of ``reps`` (one member of
    each (K, G^theta) double coset); ``orbit_of`` maps each involution of
    the G-orbit, by ``perm``, to the index of its K-orbit."""
    split = [[] for _ in range(max(orbit_of.values()) + 1)]
    for x in reps:
        split[orbit_of[conjugate_involution(g, x, theta).perm]].append(x)
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
    :func:`s_theta`.  The bound |H^1| uses the center and is only meaningful
    when Z <= K, so it is None otherwise; the caller compares the two.
    """
    center = g.center()
    z1 = [z for z in center if theta.apply(z) == g.inv(z)]
    b1 = {g.mul(z, g.inv(theta.apply(z))) for z in center}
    return len(cosets), len(z1) // len(b1) if center <= frozenset(k_sub) else None


def orbmult_rhs(g: TableGroup, k_sub, kappa: MatrixRep, k_orbits, m: int) -> int:
    """The right side of the orbit multiplicity formula

    dim Hom_{G^theta}(Ind kappa, 1)
        = m_K * sum over K-orbits Theta' in Theta of dim Hom_{K ^ G^theta'}(kappa, 1),

    with ``m`` = m_K(Theta) and one involution theta' read from each K-orbit;
    the summands are one :func:`hom_dims` call.  The left side is the
    oracle's value.
    """
    k_set = frozenset(k_sub)
    fixed = [k_set & fixed_subgroup(g, k_orbit[0]) for k_orbit in k_orbits]
    return m * int(hom_dims([kappa], fixed).sum())


# -- Sp(W) x| H -------------------------------------------------------------------


def semidirect_mul(sp: TableGroup, h: TableGroup, act, a, u, b, v) -> np.ndarray:
    """The law of Sp(W) x| H on index pairs: the index of (a, u)(b, v) =
    (a b, (b^-1 . u) v) for index arrays a, b of ``sp`` and u, v of ``h``
    that broadcast together, with act[s, x] the index of s . x and (s, x)
    at index s |H| + x.  Open-mesh arrays (``np.ix_``) give the whole
    table with no temporary larger than |H| |Sp| |H|."""
    return sp.table[a, b] * h.order + h.table[act[sp.inverse_of[b], u], v]


def semidirect_table_group(space):
    """Sp(W) x| H as a TableGroup, :func:`semidirect_mul` on every pair;
    names are (sp index, h index) pairs, (s, h) at index s |H| + h."""
    g = HeisenbergGroup(space)
    sp = sp_table(space)
    act = g.linear_action(sp.matrices)
    n = sp.order * g.order
    pairs = np.ix_(range(sp.order), range(g.order), range(sp.order), range(g.order))
    table = semidirect_mul(sp, g, act, *pairs).reshape(n, n)
    names = [(s, h) for s in range(sp.order) for h in range(g.order)]
    return TableGroup(table, names=names), g


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
