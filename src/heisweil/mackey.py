"""Induced representations and twisted involution bookkeeping on finite groups.

Groups are multiplication tables (:class:`TableGroup` from
:mod:`heisweil.groups`), so everything here is generic: the same code runs
on symmetric / dihedral / quaternion test groups, on the Heisenberg group
W x| F_p (itself a TableGroup) and on Sp(W) x| H built below.

The two Hom-dimension computations are deliberately independent:

- :func:`mackey_hom_dim` sums dim Hom_{K ^ gHg^-1}(kappa, 1) over double
  cosets KgH, the double-coset decomposition of Hom_H(Ind kappa, 1);
- :func:`induced_hom_dim_oracle` reads Ind_K^G(kappa) as block-permutation
  matrices over its own right-coset transversal and takes the exact trace
  of the averaging projector over H, never mentioning double cosets.

Both read kappa's character through its one row of traces
(:meth:`~heisweil.reps.MatrixRep.characters`), and the oracle sums that
row over the diagonal blocks itself rather than calling :func:`hom_dim`.

Their agreement on every configuration is the module-level theorem check.
Every double coset on this side (:func:`double_cosets`, :func:`s_theta` and
the suites' twisted-coset clauses) comes from the one partition
:func:`heisweil.groups.double_coset_labels`; the oracle does not call it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from heisweil.groups import (
    TableGroup,
    closure,
    double_coset_labels,
    extend_hom,
    generators_within,
    table_group_from_mul,
)
from heisweil.reps import MatrixRep, hom_dim

__all__ = [
    "InvolutionRecord",
    "TableGroup",
    "all_involutive_automorphisms",
    "conjugate_involution",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "double_cosets",
    "fixed_subgroup",
    "induced_hom_dim_oracle",
    "inner_involution",
    "inner_involutions",
    "involution_orbits",
    "m_K",
    "mackey_hom_dim",
    "orbmult_check",
    "quaternion_group",
    "s_theta",
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


@dataclass(frozen=True)
class InvolutionRecord:
    """An automorphism of order <= 2 stored as a permutation of indices."""

    perm: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.perm[x]

    def is_valid(self, g: TableGroup) -> bool:
        """Bijective, of order <= 2, and p(ab) = p(a)p(b) for all pairs."""
        p = np.asarray(self.perm)
        return g.is_automorphism(p) and np.array_equal(p[p], np.arange(g.order))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.perm))


def inner_involution(g: TableGroup, a: int) -> InvolutionRecord:
    return InvolutionRecord(tuple(g.conjugate(a, x) for x in range(g.order)))


def inner_involutions(g: TableGroup) -> list[InvolutionRecord]:
    """Int(a) of order <= 2, i.e. a^2 central; deduplicated."""
    out = {}
    center = g.center()
    for a in range(g.order):
        if g.mul(a, a) in center:
            rec = inner_involution(g, a)
            out[rec.perm] = rec
    return list(out.values())


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

    Guarded to order <= 24 with at most 3 minimal generators.
    """
    if g.order > 24:
        raise ValueError("automorphism enumeration guarded to order <= 24")
    gens = _minimal_generators(g)
    if len(gens) > 3:
        raise ValueError("too many generators for the search")
    orders = {a: g.element_order(a) for a in range(g.order)}
    candidates = [
        [b for b in range(g.order) if orders[b] == orders[a]] for a in gens
    ]
    found = {}
    for images in itertools.product(*candidates):
        phi = extend_hom(g, dict(zip(gens, images)), g.mul, 0)
        if phi is None:
            continue
        rec = InvolutionRecord(tuple(phi[x] for x in range(g.order)))
        if rec.is_valid(g):  # bijective, of order <= 2, multiplicative
            found[rec.perm] = rec
    return list(found.values())


def fixed_subgroup(g: TableGroup, theta: InvolutionRecord) -> frozenset:
    return frozenset(x for x in range(g.order) if theta.apply(x) == x)


def conjugate_involution(
    g: TableGroup, a: int, theta: InvolutionRecord
) -> InvolutionRecord:
    """a . theta = Int(a) o theta o Int(a^-1), on the whole table at once."""
    t, ainv = g.table, g.inv(a)
    perm = np.asarray(theta.perm)
    # x -> a theta(a^-1 x a) a^-1
    return InvolutionRecord(tuple(t[t[a, perm[t[t[ainv], a]]], ainv].tolist()))


def involution_orbits(g: TableGroup, thetas, actor) -> list[list[InvolutionRecord]]:
    """Partition of the given involutions under conjugation by the actor
    subgroup (orbits are computed with a generating set of the actor)."""
    thetas = list(thetas)
    if thetas and not thetas[0].is_valid(g):
        raise ValueError("input is not an involutive automorphism")
    gens = generators_within(g, actor)
    remaining = {t.perm: t for t in thetas}
    orbits = []
    while remaining:
        _, seed = remaining.popitem()
        orbit = closure([seed], gens, lambda t, a: conjugate_involution(g, a, t))
        for t in orbit:
            remaining.pop(t.perm, None)
        orbits.append(orbit)
    return orbits


# -- double cosets and Mackey sums -------------------------------------------------


def double_cosets(g: TableGroup, k_sub, h_sub) -> list[int]:
    """One representative per double coset K g H, the smallest member of
    each, in increasing order; the cosets partition G."""
    labels = double_coset_labels(g, k_sub, h_sub)
    return np.unique(labels, return_index=True)[1].tolist()


def mackey_hom_dim(g: TableGroup, k_sub, kappa: MatrixRep, h_sub) -> int:
    """Sum over double cosets KgH of dim Hom_{K ^ gHg^-1}(kappa, 1)."""
    k_set = frozenset(k_sub)
    total = 0
    for x in double_cosets(g, sorted(k_set), sorted(h_sub)):
        conj = k_set & frozenset(g.conjugate(x, h) for h in h_sub)
        total += hom_dim(kappa, sorted(conj))
    return total


def induced_hom_dim_oracle(
    g: TableGroup, k_sub, kappa: MatrixRep, h_sub, guard: int = 200_000
) -> int:
    """dim Hom_H(Ind_K^G kappa, 1) without Mackey theory.

    Returns the exact trace of the idempotent averaging projector over H on
    the induced representation, read off its block-permutation matrices:
    x_i h = k x_j puts kappa(k) in block (i, j), so only j = i adds to the
    trace, by trace kappa(x_i h x_i^-1): one sum over kappa's character row.
    """
    k_set = frozenset(k_sub)
    d = kappa.dim
    # right-coset transversal of K\G
    remaining = set(range(g.order))
    transversal = []
    coset_of = {}
    while remaining:
        x = min(remaining)
        idx = len(transversal)
        transversal.append(x)
        for a in k_set:
            y = g.mul(a, x)
            coset_of[y] = idx
            remaining.discard(y)
    m = len(transversal)
    dim = m * d
    if dim * dim * len(list(h_sub)) > guard:
        raise ValueError("induced-representation oracle guard exceeded")

    diagonal = []  # x_i h x_i^-1 for every diagonal block (i, h)
    members = sorted(h_sub)
    for h in members:
        for i, xi in enumerate(transversal):
            y = g.mul(xi, h)
            j = coset_of[y]
            kk = g.mul(y, g.inv(transversal[j]))  # x_i h = kk x_j
            if kk not in k_set:
                raise RuntimeError(
                    f"x_i h x_j^-1 = {kk} is not in K (i = {i}, h = {h})"
                )
            if j == i:
                diagonal.append(kk)
    tr = kappa.character_sum(diagonal) / len(members)
    if not tr.is_integer():
        raise RuntimeError(f"projector trace {tr!r} is not a rational integer")
    val = int(tr.rational_value())
    if val < 0:
        raise RuntimeError(f"projector trace {val} is negative")
    return val


# -- twisted classes and multiplicity bookkeeping ----------------------------------


def s_theta(
    g: TableGroup,
    k_sub,
    theta: InvolutionRecord,
    theta_orbit_prime: list[InvolutionRecord],
) -> list[int]:
    """S(theta, Theta') = double cosets K g G^theta with g.theta in Theta'."""
    h_sub = sorted(fixed_subgroup(g, theta))
    prime_keys = {t.perm for t in theta_orbit_prime}
    out = []
    for x in double_cosets(g, sorted(k_sub), h_sub):
        if conjugate_involution(g, x, theta).perm in prime_keys:
            out.append(x)
    return out


def twisted_classes(g: TableGroup, k_sub, theta: InvolutionRecord):
    """K-orbits on {g theta(g)^-1} under k . x = k x theta(k)^-1."""
    s_set = {g.mul(x, g.inv(theta.apply(x))) for x in range(g.order)}
    k_list = sorted(k_sub)
    remaining = set(s_set)
    classes = []
    while remaining:
        orbit = closure(
            [min(remaining)],
            k_list,
            lambda y, k: g.mul(g.mul(k, y), g.inv(theta.apply(k))),
        )
        remaining -= set(orbit)
        classes.append(sorted(orbit))
    return classes


def m_K(g: TableGroup, k_sub, theta: InvolutionRecord, orbit=None, k_orbits=None):
    """(m_K(Theta), |H^1_Theta| or None) for the G-orbit of theta.

    The bound |H^1| uses the center and is only meaningful when Z <= K, so
    it is None otherwise; comparing m_K with it is left to the caller.
    ``orbit`` / ``k_orbits`` may be passed in when already computed.
    """
    k_set = frozenset(k_sub)
    if orbit is None:
        orbit = involution_orbits(g, [theta], range(g.order))[0]
    if k_orbits is None:
        k_orbits = involution_orbits(g, orbit, sorted(k_set))
    k_orbit = next(
        o for o in k_orbits if any(t.perm == theta.perm for t in o)
    )
    m = len(s_theta(g, sorted(k_set), theta, k_orbit))

    center = g.center()
    z1 = [z for z in center if theta.apply(z) == g.inv(z)]
    b1 = {g.mul(z, g.inv(theta.apply(z))) for z in center}
    return m, len(z1) // len(b1) if center <= k_set else None


# -- Sp(W) x| H -------------------------------------------------------------------


def semidirect_table_group(space):
    """Sp(W) x| H as a TableGroup; names are (SpElement, index in H) pairs.

    (s1, h1)(s2, h2) = (s1 s2, (s2^-1 . h1) h2); the element (s, h) has index
    s * |H| + h, and the table is assembled by numpy broadcasting.
    """
    from heisweil.heisenberg import HeisenbergGroup
    from heisweil.weil import sp_table

    g = HeisenbergGroup(space)
    sp = sp_table(space)
    nh = g.order
    # act[s, h] = index of s . h = (s.w, z)
    act = g.linear_action(np.stack([s.matrix for s in sp.names]))
    # h_part[h1, s2, h2] = index of (s2^-1 . h1) h2
    h_part = g.table[act[sp.inverse_of].T]
    table = (sp.table[:, None, :, None] * nh + h_part[None]).reshape(
        sp.order * nh, sp.order * nh
    )
    names = [(s, h) for s in sp.names for h in range(nh)]
    return TableGroup(table, names=names), g


def semidirect_involution_record(tg: TableGroup, alpha) -> InvolutionRecord:
    """theta(s, h) = (abar s abar^-1, alpha(h)) for a central-inverting alpha
    with w0 = 0: only for those is theta an automorphism of Sp(W) x| H."""
    if any(alpha.w0):
        raise ValueError(f"alpha must have w0 = 0; got w0 = {alpha.w0}")
    abar = alpha.s
    abar_inv = abar.inverse()
    nh = alpha.group.order
    sp_names = [s for s, _ in tg.names[::nh]]
    sp_index = {s: i for i, s in enumerate(sp_names)}
    moved = np.array([sp_index[abar * s * abar_inv] for s in sp_names])
    perm = moved[:, None] * nh + alpha.perm[None, :]
    return InvolutionRecord(tuple(perm.ravel().tolist()))


def orbmult_check(
    g: TableGroup,
    k_sub,
    kappa: MatrixRep,
    theta: InvolutionRecord,
    orbit=None,
    k_orbits=None,
):
    """Compare both sides of the orbit multiplicity formula:

    dim Hom_{G^theta}(Ind kappa, 1)
        = m_K * sum over K-orbits Theta' in Theta of dim Hom_{K ^ G^theta'}(kappa, 1).

    Returns (lhs, rhs, details).
    """
    lhs = induced_hom_dim_oracle(
        g, k_sub, kappa, sorted(fixed_subgroup(g, theta))
    )
    if orbit is None:
        orbit = involution_orbits(g, [theta], range(g.order))[0]
    if k_orbits is None:
        k_orbits = involution_orbits(g, orbit, sorted(k_sub))
    m, bound = m_K(g, k_sub, theta, orbit=orbit, k_orbits=k_orbits)
    total = 0
    for k_orbit in k_orbits:
        rep_theta = k_orbit[0]
        members = sorted(frozenset(k_sub) & fixed_subgroup(g, rep_theta))
        total += hom_dim(kappa, members)
    rhs = m * total
    return lhs, rhs, {"m_K": m, "h1_bound": bound, "k_orbits": len(k_orbits)}
