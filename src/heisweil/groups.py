"""The one finite-group core: Cayley tables on indices and breadth-first search.

Every finite group the package tabulates is small (|Sp(W)| <= 336 and
|H| <= 343 at p = 7, and Sp x| H at p = 3 has 648 elements), so it can be
a :class:`TableGroup`: a multiplication table on the indices 0..n-1 with
the identity at index 0 (Sp(4, 3) is only listed, by
:func:`heisweil.symplectic.enumerate_sp`).  One breadth-first traversal
walks these tables: :meth:`TableGroup._layers` yields each layer of the
subgroup a set of generators reaches from the identity, with the layer's
products by the generators, one gather of its rows at the generator
columns.  :meth:`TableGroup.subgroup_generated` collects the layers; it
serves every subgroup sweep and [G, G].  :func:`extend_hom` reads the
same layers to give each element the image along the first edge that
reaches it; the caller proves the extension a homomorphism.

:func:`double_coset_labels` is the one coset partition: it labels every
element with its double coset K x H, one table gather per coset, and serves
the Mackey sums, the twisted-coset bookkeeping, the Q\\H/K forms of
:func:`heisweil.reps.fixed_forms` and the abelianization of Sp(W) (as
{1} x [G, G]).

Multiplicativity is checked on generators only, by the generator lemma
(Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2): if S
generates the finite group G and a map phi on G has phi(x s) = phi(x) phi(s)
for every x in G and s in S, then phi is multiplicative.  Each y in G is a
word s_1 ... s_k in S (S generates G as a monoid, G being finite), so
phi(x y) = phi(x s_1 ... s_(k-1)) phi(s_k) = ... = phi(x) phi(s_1) ...
phi(s_k); at x = 1, phi(1) = 1 (from phi(s) = phi(1) phi(s)) gives
phi(y) = phi(s_1) ... phi(s_k).  So |G| |S| identities prove what the
|G|^2 pairs prove: :meth:`TableGroup.is_automorphism` reads them as one
gather of the generator columns, and
:func:`heisweil.reps.homomorphism_certificate`, the special isomorphisms
and the Sp(W) closure of :mod:`heisweil.heisenberg` and the suites use the
same lemma.  Associativity has its own form of it, Light's test
(:meth:`TableGroup.associativity_edges`): |G|^2 |S| identities
(x s) y = x (s y) prove what the |G|^3 triples prove.  A table of at most
64 elements is checked by it when it is built; the heisenberg suite checks
H at every p.

The Heisenberg group W x| F_p (:class:`heisweil.heisenberg.HeisenbergGroup`)
is a TableGroup subclass, so subgroup, commutator and automorphism checks
below serve it and the Mackey test groups alike.  Subgroups are handed out
as frozensets of indices.  Membership is a boolean mask over the indices
(:meth:`TableGroup.mask`): the traversal scatters each layer into one, and a
subgroup, center or K test is one gather from one, never a sort.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "TableGroup",
    "double_coset_labels",
    "extend_hom",
    "generators_within",
    "table_group_from_mul",
]


def extend_hom(tg: "TableGroup", gen_images: dict, mul, one) -> dict:
    """Extend generator images {index: image} to every element of ``tg``.

    Returns {index: image}, the identity's image ``one``, filled layer by
    layer along :meth:`TableGroup._layers`: an element first reached by the
    edge x -> x a, the first in row order of its layer's products, gets
    mul(image of x, image of a).  The result is not yet proved a
    homomorphism, as no other edge is compared: the caller proves it with a
    generator-lemma certificate (module docstring) before reading it.
    Raises ValueError when the generators do not reach every element.
    """
    gens = list(gen_images)
    images = {0: one}
    for frontier, products in tg._layers(gens):
        reached, first = np.unique(products, return_index=True)
        for y, k in zip(reached.tolist(), first.tolist()):
            if y not in images:
                x, a = divmod(k, len(gens))
                images[y] = mul(images[int(frontier[x])], gen_images[gens[a]])
    if len(images) != tg.order:
        raise ValueError(
            f"generators {gens} reach {len(images)} of the {tg.order} elements"
        )
    return images


class TableGroup:
    """A finite group given by its multiplication table on indices 0..n-1,
    with the identity at index 0.  The constructor refuses, with a
    ValueError, an entry outside 0..n-1, a misplaced identity, a missing
    inverse and, up to 64 elements, a table that fails Light's test."""

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
        if t.min() < 0 or t.max() >= n:
            a, b = np.argwhere((t < 0) | (t >= n))[0]
            raise ValueError(f"table entry {t[a, b]} at ({a}, {b}) not in 0..{n - 1}")
        if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
            raise ValueError("index 0 must be the identity")
        is_one = t == 0
        self.inverse_of = is_one.argmax(axis=1)
        if not (is_one.sum(axis=1) == 1).all() or (t[self.inverse_of, ident] != 0).any():
            raise ValueError("table lacks two-sided inverses")
        # Light's test reads n^2 |S| entries: the Mackey zoo's tables, not
        # Sp x| H (648 elements, 5 generators), on every construction
        if n <= 64 and not (edges := self.associativity_edges()).all():
            x, i, y = np.argwhere(~edges)[0]
            s = self.generators[i]
            raise ValueError(f"non-associative table: ({x} {s}) {y} != {x} ({s} {y})")
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

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """:func:`generators_within` the whole group, derived once per group."""
        return tuple(generators_within(self, range(self.order)))

    def associativity_edges(self) -> np.ndarray:
        """Light's associativity test: the boolean (n, |S|, n) array of
        (x s) y == x (s y) for x, y in G and s the i-th of :attr:`generators`.

        Lemma (Clifford and Preston I, 1.2): the set A of the a with
        (x a) y = x (a y) for all x, y is closed under products, since
        (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y)
        for a, b in A.  A holds the identity and S, so it holds every product
        of generators, which is how :meth:`subgroup_generated` reaches each
        element; all True proves the table associative.  One gather of the
        rows t[x s] and one of the columns t[s y], for all generators at once.
        """
        t, gens = self.table, np.array(self.generators, dtype=np.int64)
        return t[t[:, gens]] == t[:, t[gens]]

    def mask(self, members) -> np.ndarray:
        """The boolean mask of ``members`` (indices) over 0..n-1."""
        idx = np.fromiter(members, dtype=np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < self.order):
            raise ValueError(f"group indices lie in 0..{self.order - 1}")
        mask = np.zeros(self.order, dtype=bool)
        mask[idx] = True
        return mask

    def _layers(self, gens):
        """The package's one breadth-first traversal of a table: the layers
        of the subgroup ``gens`` generates, as pairs (frontier, products)
        with products[i, j] = frontier[i] gens[j], one gather of the
        frontier's rows at the generator columns.  The first frontier is the
        identity; each next one is scattered into a mask: the elements of
        the products in no earlier frontier, in index order."""
        t, gens = self.table, np.fromiter(gens, dtype=np.int64)
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            products = t[frontier[:, None], gens]
            yield frontier, products
            reached = np.zeros(self.order, dtype=bool)
            reached[products] = True
            reached &= ~seen
            seen |= reached
            frontier = np.flatnonzero(reached)

    def subgroup_generated(self, gens) -> frozenset:
        """The subgroup generated by ``gens``: the union of the frontiers of
        :meth:`_layers`."""
        layers = [frontier for frontier, _ in self._layers(gens)]
        return frozenset(np.concatenate(layers).tolist())

    def is_subgroup(self, subset) -> bool:
        """Nonempty and closed under products (in a finite group that makes
        a subgroup), tested as one gather of the |K| x |K| block of the
        table from the mask of K."""
        inside = self.mask(subset)
        k = np.flatnonzero(inside)
        return k.size > 0 and bool(inside[self.table[np.ix_(k, k)]].all())

    def is_automorphism(self, perm) -> bool:
        """A permutation of the indices with perm(ab) = perm(a) perm(b).

        By the generator lemma of the module docstring, a bijection with
        perm(x s) = perm(x) perm(s) for every x and every s in
        :attr:`generators` is an automorphism, so only the |G| x |S|
        generator columns of the table are compared.
        """
        perm = np.asarray(perm)
        if not np.array_equal(np.sort(perm), np.arange(self.order)):
            return False
        t, gens = self.table, np.array(self.generators, dtype=np.int64)
        return np.array_equal(perm[t[:, gens]], t[perm[:, None], perm[gens]])

    def commutator_subgroup(self) -> frozenset:
        """[G, G], as the subgroup M generated by the |G| |S| commutators
        [x, s] = x s x^-1 s^-1, x in G and s in S = :attr:`generators`.

        Lemma: M = [G, G].  M is normal, as a [b, s] a^-1 = [a b, s] [a, s]^-1
        lies in M for every a and b in G.  In G/M every generator s commutes
        with every x, so the generators are central and G/M is abelian,
        which gives [G, G] <= M; and M <= [G, G] holds by definition.
        """
        t, inv = self.table, self.inverse_of
        gens = np.array(self.generators, dtype=np.int64)
        comms = t[t[:, gens], t[inv[:, None], inv[gens]]]
        return self.subgroup_generated(np.unique(comms))

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
