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
serves every closure of a set of generators, [G, G] among them (the
subgroups of H(p, 1) are listed from the group's structure instead, by
:meth:`heisweil.heisenberg.HeisenbergGroup.all_subgroups`).
:func:`extend_hom` reads the same layers to give each element the image
along the first edge that reaches it; the caller proves the extension a
homomorphism.

:func:`generators_within` is the one generating-set routine: every
generator-edge check below, the automorphism search and the character
sweeps of the suites read its sets, of a whole group
(:attr:`TableGroup.generators`) or of a subgroup
(:meth:`TableGroup.generators_of`), each derived once per group.  A set is
irredundant, so no check reads the edges of a generator the others
already generate: H(p, 1) gets (0, 1) and (1, 0) of W, not the center too.

:func:`double_coset_labels` is the one coset partition of a table: it
labels every element with its double coset K x H by two gathers, as the
least over k of min((k x) H) is the smallest member of K x H, the union
of the right cosets (k x) H.  It serves the Mackey sums, the
twisted-coset bookkeeping, the K-orbits of an involution's G-orbit (as
K\\G/G_theta, by :func:`heisweil.mackey.k_orbit_labels`) and the
abelianization of Sp(W) (as {1} x [G, G]).  The Q\\H/K of
:func:`heisweil.reps.fixed_forms` are read off coordinates instead, as Q
is normal in H with H/Q the W^+ block.

Multiplicativity is checked on generators only, by the generator lemma
(Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2): if S
generates the finite group G and a map phi on G has phi(x s) = phi(x) phi(s)
for every x in G and s in S, then phi is multiplicative.  Each y in G is a
word s_1 ... s_k in S (S generates G as a monoid, G being finite), so
phi(x y) = phi(x s_1 ... s_(k-1)) phi(s_k) = ... = phi(x) phi(s_1) ...
phi(s_k); at x = 1, phi(1) = 1 (from phi(s) = phi(1) phi(s)) gives
phi(y) = phi(s_1) ... phi(s_k).  So |G| |S| identities prove what the
|G|^2 pairs prove: :meth:`TableGroup.is_automorphism` reads them as one
gather of the generator columns for a whole stack of permutations, and
:func:`heisweil.reps.homomorphism_certificate`, the special isomorphisms
and the Sp(W) closure of :mod:`heisweil.heisenberg` and the suites use the
same lemma.  Associativity has its own form of it, Light's test
(:meth:`TableGroup.associativity_edges`): |G|^2 |S| identities
(x s) y = x (s y) prove what the |G|^3 triples prove.  A table of at most
64 elements is checked by it when it is built; the heisenberg suite checks
H at every p.

The Heisenberg group W x| F_p (:class:`heisweil.heisenberg.HeisenbergGroup`)
is a TableGroup subclass, so subgroup, commutator and automorphism checks
below serve it and the Mackey test groups alike.  It builds its table on
first read and hands it to :meth:`TableGroup._adopt`, which runs the
constructor's checks on every table a TableGroup keeps, and makes the
table, ``inverse_of`` and the center read-only.  A subgroup has one
encoding: a read-only (n,) boolean mask over the indices, and a family of
subgroups is a (k, n) array of masks.  The traversal scatters each layer
into the mask it returns, every subgroup argument is such a mask, and a
subgroup, center or K test is one gather from one, never a sort; indices
are read off a mask (``np.flatnonzero``) only where a gather needs them.
:meth:`TableGroup.mask` is the one way to build a mask from a list of
indices, and :meth:`TableGroup.are_subgroups` tests a stack of masks at
once.  Element orders are one power table, :attr:`TableGroup.orders`: every
element's powers are walked at once, one gather of the table per step,
until each has reached the identity.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "TableGroup",
    "double_coset_labels",
    "extend_hom",
    "generators_within",
    "read_only",
]


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only, as every mask and permutation the group core
    hands out is."""
    a.flags.writeable = False
    return a


def extend_hom(tg: "TableGroup", gen_images: dict, mul, one, within=None) -> dict:
    """Extend generator images {index: image} to every element of ``tg``,
    or of the subgroup with the mask ``within``.

    Returns {index: image}, the identity's image ``one``, filled layer by
    layer along :meth:`TableGroup._layers`: an element first reached by the
    edge x -> x a, the first in row order of its layer's products, gets
    mul(image of x, image of a).  The result is not yet proved a
    homomorphism, as no other edge is compared: the caller proves it with a
    generator-lemma certificate (module docstring) before reading it.
    Raises ValueError when the generators do not reach every element.
    """
    gens = list(gen_images)
    size = tg.order if within is None else int(within.sum())
    images = {0: one}
    for frontier, products, _ in tg._layers(gens):
        reached, first = np.unique(products, return_index=True)
        for y, k in zip(reached.tolist(), first.tolist()):
            if y not in images:
                x, a = divmod(k, len(gens))
                images[y] = mul(images[int(frontier[x])], gen_images[gens[a]])
    if len(images) != size:
        raise ValueError(
            f"generators {gens} reach {len(images)} of the {size} elements"
        )
    return images


class TableGroup:
    """A finite group given by its multiplication table on indices 0..n-1,
    with the identity at index 0.  The table is refused, with a ValueError,
    for an entry outside 0..n-1, a misplaced identity, a missing inverse
    and, up to 64 elements, a failure of Light's test.

    A signed-integer table keeps its dtype when that dtype holds every
    index 0..n-1, so Sp x| H(3) keeps its table in int16; any other integer
    table is cast to int64, and a table of another kind (float, bool) is
    refused with a ValueError naming its dtype.  The group keeps a
    read-only copy of the table.  Every reader gathers
    through the table, so a gather's result has the table's dtype; the
    indices it hands out are Python ints or the int64 (intp) arrays of
    ``inverse_of`` and the numpy index routines."""

    def __init__(self, table, names=None):
        table = np.array(table)
        if table.dtype.kind not in "iu":
            raise ValueError(
                f"multiplication table must hold integers; got dtype {table.dtype}"
            )
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(
                f"multiplication table must be square; got shape {table.shape}"
            )
        n = len(table)
        if table.dtype.kind == "u" or np.iinfo(table.dtype).max < n - 1:
            table = table.astype(np.int64)
        names = list(range(n)) if names is None else names
        if len(names) != n:
            raise ValueError(f"names must name the {n} elements; got {len(names)}")
        self.order, self.names = n, names
        self._adopt(table)

    def _adopt(self, table: np.ndarray) -> None:
        """Check the (n, n) ``table`` and keep it as the Cayley table, with
        ``inverse_of`` and the center mask, all three read-only: the checks
        of the class docstring, run by the constructor and by a subclass
        that builds its table on first read.  A table that fails a check is
        not kept."""
        n, ident = self.order, np.arange(self.order)
        if table.min() < 0 or table.max() >= n:
            a, b = np.argwhere((table < 0) | (table >= n))[0]
            raise ValueError(
                f"table entry {table[a, b]} at ({a}, {b}) not in 0..{n - 1}"
            )
        if not (np.array_equal(table[0], ident) and np.array_equal(table[:, 0], ident)):
            raise ValueError("index 0 must be the identity")
        is_one = table == 0
        inverse_of = is_one.argmax(axis=1)
        if not (is_one.sum(axis=1) == 1).all() or (table[inverse_of, ident] != 0).any():
            raise ValueError("table lacks two-sided inverses")
        self.table, self.inverse_of = read_only(table), read_only(inverse_of)
        # Light's test reads n^2 |S| entries: the Mackey zoo's tables and
        # H(3, 1), not Sp x| H (648 elements, 3 generators)
        if n <= 64 and not (edges := self.associativity_edges()).all():
            x, i, y = np.argwhere(~edges)[0]
            s = self.generators[i]
            del self.table, self.inverse_of, self.generators
            raise ValueError(f"non-associative table: ({x} {s}) {y} != {x} ({s} {y})")
        self._center = read_only((table == table.T).all(axis=1))

    # the group protocol: elements are the indices 0..n-1
    def elements(self):
        return list(range(self.order))

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self.inverse_of[a])

    def conjugate(self, g, h):
        return self.mul(self.mul(g, h), self.inv(g))

    def center(self) -> np.ndarray:
        return self._center

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """:func:`generators_within` the whole group, derived once per group."""
        return tuple(generators_within(self, np.ones(self.order, dtype=bool)))

    def generators_of(self, members: np.ndarray) -> tuple[int, ...]:
        """:func:`generators_within` the subgroup with the mask ``members``,
        derived once per group and subgroup and kept with the group, so a
        group built once per process, as the Mackey zoo's are, derives each
        set once."""
        key = members.tobytes()
        if key not in self._generating_sets:
            self._generating_sets[key] = tuple(generators_within(self, members))
        return self._generating_sets[key]

    @cached_property
    def _generating_sets(self) -> dict:
        return {}

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
        """The read-only boolean mask of ``members`` (indices) over 0..n-1."""
        idx = np.fromiter(members, dtype=np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < self.order):
            raise ValueError(f"group indices lie in 0..{self.order - 1}")
        mask = np.zeros(self.order, dtype=bool)
        mask[idx] = True
        return read_only(mask)

    def _layers(self, gens):
        """The package's one breadth-first traversal of a table: the layers
        of the subgroup ``gens`` generates, as triples (frontier, products,
        seen) with products[i, j] = frontier[i] gens[j], one gather of the
        frontier's rows at the generator columns, and ``seen`` the mask of
        the frontiers so far, one array the walk updates in place.  The
        first frontier is the identity; each next one is scattered into a
        mask: the elements of the products in no earlier frontier, in index
        order.  At the last layer ``seen`` is the subgroup."""
        t, gens = self.table, np.fromiter(gens, dtype=np.int64)
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            products = t[frontier[:, None], gens]
            yield frontier, products, seen
            reached = np.zeros(self.order, dtype=bool)
            reached[products] = True
            reached &= ~seen
            seen |= reached
            frontier = np.flatnonzero(reached)

    def subgroup_generated(self, gens) -> np.ndarray:
        """The mask of the subgroup generated by ``gens``: the ``seen`` mask
        of the last layer of :meth:`_layers`."""
        *_, (_, _, seen) = self._layers(gens)
        return read_only(seen)

    def is_subgroup(self, mask) -> bool:
        """Whether the boolean (n,) ``mask`` is nonempty and closed under
        products (in a finite group that makes a subgroup), tested as one
        gather of the |K| x |K| block of the table.  ValueError for an array
        of another dtype or shape."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.order,):
            raise ValueError(
                f"a subgroup is a bool mask of shape ({self.order},); "
                f"got {mask.dtype} of shape {mask.shape}"
            )
        k = np.flatnonzero(mask)
        return k.size > 0 and bool(mask[self.table[np.ix_(k, k)]].all())

    def are_subgroups(self, masks) -> np.ndarray:
        """:meth:`is_subgroup` for each row of a (k, n) boolean array of
        masks: the rows of one size share one gather of their |K| x |K|
        blocks of the table.  (One subset, as the Mackey sums test it on
        every call, takes the shorter path of :meth:`is_subgroup`.)"""
        masks = np.asarray(masks, dtype=bool)
        sizes = masks.sum(axis=1)
        closed = sizes > 0
        for size in set(sizes[closed].tolist()):
            rows = np.flatnonzero(sizes == size)
            k = np.nonzero(masks[rows])[1].reshape(len(rows), size)
            products = self.table[k[:, :, None], k[:, None, :]]
            closed[rows] = masks[rows[:, None, None], products].all(axis=(1, 2))
        return closed

    def is_automorphism(self, perms) -> np.ndarray:
        """For each row of the (k, n) stack ``perms``, whether it is a
        permutation of the indices with perm(ab) = perm(a) perm(b).

        By the generator lemma of the module docstring, a bijection with
        perm(x s) = perm(x) perm(s) for every x and every s in
        :attr:`generators` is an automorphism, so only the |G| x |S|
        generator columns of the table are compared, for the bijective
        rows at once.  Rows of another length than n are all False.
        """
        perms = np.asarray(perms)
        if perms.ndim != 2:
            raise ValueError(f"automorphisms come as a (k, n) stack; got {perms.shape}")
        if perms.shape[1] != self.order:
            return np.zeros(len(perms), dtype=bool)
        ok = (np.sort(perms, axis=1) == np.arange(self.order)).all(axis=1)
        t, gens, p = self.table, np.array(self.generators, dtype=np.int64), perms[ok]
        images = t[p[:, :, None], p[:, None, gens]]
        ok[ok] = (p[:, t[:, gens]] == images).all(axis=(1, 2))
        return ok

    def commutator_subgroup(self) -> np.ndarray:
        """The mask of [G, G], the subgroup M generated by the |G| |S| commutators
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

    @cached_property
    def orders(self) -> np.ndarray:
        """The read-only array of element orders: the order of a is the
        least k >= 1 with a^k = 1, read off the powers x -> x a of every
        element at once, one gather of the table per step."""
        t, a = self.table, np.arange(self.order)
        orders, x, k = np.zeros(self.order, dtype=np.int64), a, 1
        while not orders.all():
            orders[(x == 0) & (orders == 0)] = k
            x, k = t[x, a], k + 1
        orders.flags.writeable = False
        return orders

    def __repr__(self):
        return f"TableGroup(order={self.order})"


def double_coset_labels(
    g: TableGroup, k_sub: np.ndarray, h_sub: np.ndarray
) -> np.ndarray:
    """For each element x, the number of its double coset K x H, for the
    subgroups with the masks ``k_sub`` and ``h_sub``.

    Cosets are numbered in the order of their smallest members, so the first
    index of each label is its coset's smallest element.  Lemma: K x H is
    the union of the right cosets (k x) H, k in K, so its smallest member is
    the least over k of min((k x) H).  So two gathers give every coset's
    smallest member at once: the row minima of the columns H of the table,
    min(y H) for every y, then their least over the rows t[K].  Double
    cosets of subgroups partition G, so equal minima mean one coset.
    """
    if not (g.is_subgroup(k_sub) and g.is_subgroup(h_sub)):
        raise ValueError("double cosets need subgroups K and H")
    t, k, h = g.table, np.flatnonzero(k_sub), np.flatnonzero(h_sub)
    least = t[:, h].min(axis=1)[t[k]].min(axis=0)
    return np.unique(least, return_inverse=True)[1]


def generators_within(g: TableGroup, members: np.ndarray) -> list[int]:
    """An irredundant generating set of the subgroup with the mask
    ``members``.

    A greedy pass keeps each member, in index order, that the ones kept
    before it do not generate; then each kept generator, in index order, is
    dropped when the others left still generate the subgroup.  So no
    generator of the result lies in the subgroup the others generate.
    """
    gens: list[int] = []
    generated = g.mask([0])
    for a in np.flatnonzero(members).tolist():
        if generated[a]:
            continue
        gens.append(a)
        generated = g.subgroup_generated(gens)
        if np.array_equal(generated, members):
            break
    if not np.array_equal(generated, members):
        raise ValueError("members are not a subgroup")
    size = generated.sum()
    for a in list(gens):
        if g.subgroup_generated([b for b in gens if b != a]).sum() == size:
            gens.remove(a)
    return gens
