"""The one finite-group core: Cayley tables on indices and breadth-first search.

Every finite group the package works with is small (|Sp(W)| <= 336 and
|H| <= 343 at p = 7), so it can be a :class:`TableGroup`: a multiplication
table on the indices 0..n-1 with the identity at index 0.  Three traversal
routines do all the breadth-first work:

- :func:`closure` collects everything reachable from some start elements
  under a set of generators (orbits, and groups given by generators
  rather than a table);
- :meth:`TableGroup.subgroup_generated` is the one subgroup closure on a
  table, one gather of each layer's rows at the generator columns; it
  serves every subgroup sweep and [G, G];
- :func:`extend_hom` extends images of generators to a homomorphism on a
  whole table group, checking every (element, generator) edge.

:func:`double_coset_labels` is the one coset partition: it labels every
element with its double coset K x H, one table gather per coset, and serves
the Mackey sums, the twisted-coset bookkeeping, the Q\\H/K forms of
:func:`heisweil.reps.fixed_forms` and the abelianization of Sp(W) (as
{1} x [G, G]).

The Heisenberg group W x| F_p (:class:`heisweil.heisenberg.HeisenbergGroup`)
is a TableGroup subclass, so subgroup, commutator and automorphism checks
below serve it and the Mackey test groups alike.  Subgroups are handed out
as frozensets of indices and checked as sorted index arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TableGroup",
    "closure",
    "double_coset_labels",
    "extend_hom",
    "generators_within",
    "table_group_from_mul",
]


def closure(start, gens, act) -> list:
    """Everything reachable from ``start`` by x -> act(x, g), g in ``gens``,
    in breadth-first discovery order (the start elements first)."""
    gens = list(gens)
    found = list(dict.fromkeys(start))
    seen = set(found)
    frontier = list(found)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        found.extend(nxt)
        frontier = nxt
    return found


def extend_hom(tg: "TableGroup", gen_images: dict, mul, one):
    """Extend generator images {index: image} to a homomorphism on ``tg``.

    Returns {index: image} in discovery order, or None when two products
    give one element different images or the generators do not reach
    every element.  Checking every (element, generator) edge makes the
    result multiplicative: phi(x g) = phi(x) phi(g) for each generator g.
    """
    images = {0: one}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for a, image in gen_images.items():
                xa = tg.mul(x, a)
                value = mul(images[x], image)
                if xa not in images:
                    images[xa] = value
                    nxt.append(xa)
                elif images[xa] != value:
                    return None
        frontier = nxt
    if len(images) != tg.order:
        return None
    return images


class TableGroup:
    """A finite group given by its multiplication table on indices 0..n-1,
    with the identity at index 0."""

    def __init__(self, table, names=None):
        self.table = np.asarray(table, dtype=np.int64)
        n = self.table.shape[0]
        if self.table.shape != (n, n):
            raise ValueError(
                f"multiplication table must be square; got shape {self.table.shape}"
            )
        self.order = n
        self.names = names if names is not None else list(range(n))
        t, ident = self.table, np.arange(n)
        if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
            raise ValueError("index 0 must be the identity")
        is_one = t == 0
        self.inverse_of = is_one.argmax(axis=1)
        if not (is_one.sum(axis=1) == 1).all() or (t[self.inverse_of, ident] != 0).any():
            raise ValueError("table lacks two-sided inverses")
        # associativity spot check is O(n^3); keep it for n <= 64
        if n <= 64:
            for a in range(n):
                if not np.array_equal(t[t[a]], t[a][t]):
                    raise ValueError("table is not associative")
        self._center = frozenset(np.flatnonzero((t == t.T).all(axis=1)).tolist())

    # the group protocol: elements are the indices 0..n-1
    def elements(self):
        return list(range(self.order))

    def identity(self):
        return 0

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self.inverse_of[a])

    def conjugate(self, g, h):
        return self.mul(self.mul(g, h), self.inv(g))

    def center(self) -> frozenset:
        return self._center

    def subgroup_generated(self, gens) -> frozenset:
        """The subgroup generated by ``gens``, closed breadth-first from the
        identity: each layer is one gather of its rows at the generator
        columns."""
        t, gens = self.table, np.fromiter(gens, dtype=np.int64)
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            reached = np.unique(t[frontier[:, None], gens])
            frontier = reached[~seen[reached]]
            seen[frontier] = True
        return frozenset(np.flatnonzero(seen).tolist())

    def is_subgroup(self, subset) -> bool:
        """Nonempty and closed under products (in a finite group that makes
        a subgroup), tested as one membership test of the |K| x |K| block
        of the table."""
        k = np.array(sorted(set(subset)), dtype=np.int64)
        return k.size > 0 and bool(np.isin(self.table[np.ix_(k, k)], k).all())

    def is_automorphism(self, perm) -> bool:
        """A permutation of the indices with perm(ab) = perm(a) perm(b)."""
        perm = np.asarray(perm)
        if not np.array_equal(np.sort(perm), np.arange(self.order)):
            return False
        # blocks of rows: two whole-table temporaries (2 x 3.4 MB for the
        # 648-element Sp x| H) would set the peak memory of a verify run
        t, rows = self.table, 64
        return all(
            np.array_equal(perm[t[i : i + rows]], t[perm[i : i + rows]][:, perm])
            for i in range(0, self.order, rows)
        )

    def commutators(self) -> np.ndarray:
        """The (n, n) array of indices of a b a^-1 b^-1, read off the table."""
        t, inv = self.table, self.inverse_of
        return t[t, t[np.ix_(inv, inv)]]

    def commutator_subgroup(self) -> frozenset:
        """[G, G], generated by all commutators a b a^-1 b^-1 on the table."""
        return self.subgroup_generated(np.unique(self.commutators()))

    def element_order(self, a) -> int:
        x, k = a, 1
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def __repr__(self):
        return f"TableGroup(order={self.order})"


def double_coset_labels(g: TableGroup, k_sub, h_sub) -> np.ndarray:
    """For each element x, the number of its double coset K x H.

    Cosets are numbered in the order of their smallest members, so the first
    index of each label is its coset's smallest element.  Each coset is one
    gather ``t[t[K, x]][:, H]`` from the table.
    """
    k = np.array(sorted(set(k_sub)), dtype=np.int64)
    h = np.array(sorted(set(h_sub)), dtype=np.int64)
    if not (g.is_subgroup(k) and g.is_subgroup(h)):
        raise ValueError("double cosets need subgroups K and H")
    t = g.table
    labels = np.full(g.order, -1, dtype=np.int64)
    count = 0
    for x in range(g.order):
        if labels[x] >= 0:
            continue
        coset = t[t[k, x]][:, h]
        if (labels[coset] >= 0).any():
            raise RuntimeError(f"double coset of {x} meets an earlier one")
        labels[coset] = count
        count += 1
    return labels


def generators_within(g: TableGroup, members) -> list[int]:
    """A small generating set of the subgroup given by ``members``: each
    member, in index order, that the ones before it do not generate."""
    members = sorted(frozenset(members))
    target = frozenset(members)
    gens: list[int] = []
    generated = frozenset([0])
    for a in members:
        if a in generated:
            continue
        gens.append(a)
        generated = g.subgroup_generated(gens)
        if generated == target:
            break
    if generated != target:
        raise ValueError("members are not a subgroup")
    return gens


def table_group_from_mul(elements, mul, identity) -> TableGroup:
    """Build a TableGroup from abstract elements and a multiplication map."""
    elements = list(elements)
    elements.remove(identity)
    elements = [identity] + elements
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[mul(a, b)]
    return TableGroup(table, names=elements)
