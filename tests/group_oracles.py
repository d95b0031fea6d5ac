"""Finite-group references the tests compare the package against.

The package walks a table by one breadth-first traversal
(:meth:`heisweil.groups.TableGroup._layers`) and proves every extension of
generator images with a certificate.  The references here work one element
or one edge at a time, with no table gathers:

- :func:`closure`: everything reachable from some start elements under a
  set of generators, breadth-first;
- :func:`checked_extend_hom`: generator images extended to a map that
  compares every (element, generator) edge as it goes;
- :func:`automorphisms_by_candidate`: the involutive automorphisms, one
  candidate tuple of generator images at a time;
- :func:`abelian_characters_by_subtable`: the characters of an abelian
  subgroup, each extended on a table of the subgroup of its own, from
  generators and orders that :func:`closure` finds;
- :func:`character_sum` and :func:`induced_hom_dim_by_loop`: the sum of a
  character over a list of elements, as its row times a ones column, and
  dim Hom_H(Ind_K^G kappa, 1) for one kappa from a right-coset transversal
  built one element at a time, summing kappa's character over the
  diagonal blocks with :func:`character_sum`;
- :func:`all_subgroups_by_closure`: every subgroup of H(p, 1) as the
  closures of one and of two cyclic generators, the sweep
  :meth:`heisweil.heisenberg.HeisenbergGroup.all_subgroups` made before it
  listed them from the structure of the group;
- :func:`polarization_fault_by_sets`: the conditions a polarization
  (H^+, Hhat^-) must meet, tested one subgroup at a time on frozensets, as
  the package tested them one involution at a time before every
  involution was checked at once on masks;
- :func:`heisenberg_law` and :func:`heisenberg_table_eager`: the law of
  W x| F_p on pairs, and its Cayley table built at once by broadcasting, as
  :class:`heisweil.heisenberg.HeisenbergGroup` built it in its constructor
  before the table was built on first read;
- :func:`automorphism_perm_by_element`: the permutation of the indices
  by an automorphism (w, z) -> (s w, sign z + <w0, w>), one element at a
  time on the names, against the stacked
  :class:`heisweil.heisenberg.Automorphisms`;
- :func:`is_integer` and :func:`special_iso_inverse_image`: whether a
  cyclotomic number is a rational integer, and nu^-1 of a special
  isomorphism nu, which only the tests read.

- :func:`table_group_from_mul`: a TableGroup from abstract elements and a
  multiplication map, one ``mul`` call per pair, and
  :func:`zoo_group_by_law`: the cyclic, dihedral, symmetric and quaternion
  groups built through it from their laws on names, as the package built
  them before it broadcast each law over index arrays.

:func:`zoo_groups` hands the tests the groups of the Mackey zoo, and
:func:`heisenberg_mackey_configurations` the H(3, 1) and Sp x| H(3) beds.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from heisweil.groups import TableGroup
from heisweil.heisenberg import HElem
from heisweil.linalg import CycMatrix
from heisweil.mackey import InvolutionRecord
from heisweil.reps import MatrixRep
from heisweil.scalar import CycNumber, root_of_unity
from heisweil.suites import _heisenberg_beds, standard_mackey_configurations


def zoo_groups() -> dict:
    """Every group of the Mackey zoo, by the first part of its label."""
    configs = standard_mackey_configurations()
    return {label.split("/")[0]: tg for label, tg, *_ in configs}


def heisenberg_mackey_configurations() -> list:
    """The p = 3 Heisenberg group and Sp x| H as Mackey test beds, as a
    fresh list over the one set :func:`heisweil.suites._heisenberg_beds`
    builds per process."""
    return list(_heisenberg_beds()[0])


def table_group_from_mul(elements, mul, identity) -> TableGroup:
    """A TableGroup on ``elements``, the identity moved to index 0, with the
    table filled one ``mul`` call per pair and the elements as names."""
    elements = list(elements)
    elements.remove(identity)
    elements = [identity] + elements
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return TableGroup(table, names=elements)


# the products of the units 1, i, j, k of Q8, as (sign, unit)
_QUATERNION_UNITS = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
    ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
    ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
    ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
    ("i", "k"): (-1, "j"),
}


def zoo_group_by_law(kind: str, n: int = 0) -> TableGroup:
    """C_n, D_n (order 2n), S_n or Q8 (``kind`` "C", "D", "S" or "Q", n
    unread) from its law on names through :func:`table_group_from_mul`:
    residues mod n;
    pairs (r, f) of a rotation and a flip, flips first by f; permutation
    tuples with (a b)(x) = a(b(x)); and the strings +-1, +-i, +-j, +-k."""
    if kind == "C":
        return table_group_from_mul(range(n), lambda a, b: (a + b) % n, 0)
    if kind == "D":

        def mul(a, b):
            (r1, f1), (r2, f2) = a, b
            return ((r1 + (r2 if f1 == 0 else -r2)) % n, (f1 + f2) % 2)

        return table_group_from_mul(
            [(r, f) for f in (0, 1) for r in range(n)], mul, (0, 0)
        )
    if kind == "S":
        return table_group_from_mul(
            itertools.permutations(range(n)),
            lambda a, b: tuple(a[b[x]] for x in range(n)),
            tuple(range(n)),
        )

    def quaternion_mul(a, b):
        sign, unit = _QUATERNION_UNITS[(a.lstrip("-"), b.lstrip("-"))]
        sign *= (-1) ** (a.startswith("-") + b.startswith("-"))
        return unit if sign == 1 else "-" + unit

    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return table_group_from_mul(names, quaternion_mul, "1")


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


def checked_extend_hom(tg: TableGroup, gen_images: dict, mul, one):
    """Generator images {index: image} extended to a homomorphism on ``tg``,
    {index: image}; None when two products give one element different
    images or the generators do not reach every element.  Every
    (element, generator) edge is compared, which makes the result
    multiplicative by the generator lemma."""
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


def automorphisms_by_candidate(g: TableGroup) -> list[InvolutionRecord]:
    """Every automorphism of order <= 2: each tuple of same-order images of
    the group's generators is extended by :func:`checked_extend_hom` on its
    own, and kept when the extension is an involutive bijection.  Element
    orders are the sizes of the cyclic subgroups :func:`closure` finds."""
    gens = g.generators
    orders = {a: len(closure([0], [a], g.mul)) for a in range(g.order)}
    candidates = [[b for b in range(g.order) if orders[b] == orders[a]] for a in gens]
    found = {}
    for images in itertools.product(*candidates):
        phi = checked_extend_hom(g, dict(zip(gens, images)), g.mul, 0)
        if phi is None:
            continue
        rec = InvolutionRecord(tuple(phi[x] for x in range(g.order)))
        if rec.is_valid(g):
            found[rec.perm] = rec
    return list(found.values())


def abelian_characters_by_subtable(tg: TableGroup, members, conductor: int):
    """All characters of the abelian subgroup ``members`` with values in the
    conductor-th roots of unity, as MatrixReps on the sorted members: each
    tuple of generator values extended by :func:`checked_extend_hom` on a
    TableGroup of the subgroup, built product by product, and deduplicated
    by character values.  The generators are the members outside the
    :func:`closure` of the ones taken before, in index order, and their
    orders the sizes of their cyclic closures."""
    mset = frozenset(members)
    gens = []
    for a in sorted(mset):
        if a not in closure([0], gens, tg.mul):
            gens.append(a)
    orders = [len(closure([0], [a], tg.mul)) for a in gens]
    sub_names = sorted(mset)
    sub_index = {x: i for i, x in enumerate(sub_names)}
    sub = TableGroup([[sub_index[tg.mul(a, b)] for b in sub_names] for a in sub_names])
    chars = []
    for exps in itertools.product(*[range(d) for d in orders]):
        gen_vals = {
            sub_index[a]: root_of_unity(conductor, (conductor // d) * e)
            for a, d, e in zip(gens, orders, exps)
            if conductor % d == 0
        }
        if len(gen_vals) != len(gens):
            continue
        values = checked_extend_hom(sub, gen_vals, operator.mul, CycNumber.one(conductor))
        if values is not None:
            col = CycMatrix(conductor, [[values[k]] for k in range(len(sub_names))])
            chars.append(MatrixRep(tg, sub_names, col.num[:, None], col.den, conductor))
    unique = {}
    for chi in chars:
        unique.setdefault(chi.characters(sub_names), chi)
    return list(unique.values())


def character_sum(rep: MatrixRep, elements) -> CycNumber:
    """The sum of tr rep(g) over ``elements``, repeats counted: the
    character row times a ones column."""
    ones = np.ones((len(elements), 1), dtype=np.int64)
    column = CycMatrix.from_roots(rep.conductor, 0 * ones, ones)
    return (rep.characters(elements) @ column)[0, 0]


def induced_hom_dim_by_loop(g: TableGroup, k_sub, kappa: MatrixRep, h_sub) -> int:
    """dim Hom_H(Ind_K^G kappa, 1) as the exact trace of the averaging
    projector over H on the block-permutation matrices of Ind kappa: the
    transversal x_0 < x_1 < ... of K\\G is each element not yet in a coset
    found, in index order; x_i h = k x_j puts kappa(k) in block (i, j), and
    the trace is the character sum over the blocks with j = i, over |H|."""
    t, inv = g.table, g.inverse_of
    k = np.array(sorted(k_sub), dtype=np.int64)
    coset_of = np.full(g.order, -1, dtype=np.int64)
    transversal = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[t[k, x]] = len(transversal)
            transversal.append(x)
    h = sorted(h_sub)
    diagonal = []
    for x in transversal:
        for y in h:
            xy = g.mul(x, y)
            if transversal[coset_of[xy]] == x:
                diagonal.append(g.mul(xy, inv[x]))
    tr = character_sum(kappa, diagonal) / len(h)
    if not is_integer(tr) or tr.rational_value() < 0:
        raise RuntimeError(f"projector trace {tr!r} is not an integer >= 0")
    return int(tr.rational_value())


def heisenberg_law(space):
    """(w1, z1)(w2, z2) = (w1 + w2, z1 + z2 + (1/2)<w1, w2>) on HElem tuples."""
    p, half, form = space.p, space.half, space.form.tolist()

    def mul(a, b):
        pair = sum(
            x * form[i][j] * y for i, x in enumerate(a.w) for j, y in enumerate(b.w)
        )
        w = tuple((x + y) % p for x, y in zip(a.w, b.w))
        return HElem(w, (a.z + b.z + half * pair) % p)

    return mul


def heisenberg_table_eager(space) -> np.ndarray:
    """The Cayley table of W x| F_p on the indices (w read in base p) * p + z,
    as one broadcast over (w1, z1, w2, z2)."""
    p, dim = space.p, space.dim
    digits = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    vecs = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
    w_part = ((vecs[:, None, :] + vecs[None, :, :]) % p) @ digits
    twist = space.half * (vecs @ space.form @ vecs.T % p)
    zs = np.arange(p)
    table = twist[:, None, :, None] + np.add.outer(zs, zs)[None, :, None, :]
    table = table % p + w_part[:, None, :, None] * p
    n = len(vecs) * p
    return table.reshape(n, n)


def all_subgroups_by_closure(g) -> list[frozenset[int]]:
    """Every subgroup of H(p, 1) by closures of pairs: every subgroup is
    2-generated (H itself, and the proper ones have order at most p^2), and
    <a, b> depends only on <a> and <b>, so the pairs are taken over one
    generator per cyclic subgroup.  Sorted by (size, sorted members)."""
    cyclic: dict[frozenset[int], int] = {}
    for a in range(g.order):
        cyclic.setdefault(g.subgroup_generated([a]), a)
    gens = list(cyclic.values())
    seen = set(cyclic)
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            seen.add(g.subgroup_generated([a, b]))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def polarization_fault_by_sets(g, hplus, hhat_minus) -> str | None:
    """The first condition (H^+, Hhat^-) fails as a polarization of H, by the
    message the package raises for it, or None: both subgroups, H^+ meets
    the center trivially, Hhat^- contains it, and the images in W are
    complementary maximal totally isotropic subspaces."""
    hplus, hhat_minus = frozenset(hplus), frozenset(hhat_minus)
    if not (g.is_subgroup(hplus) and g.is_subgroup(hhat_minus)):
        return "polarization needs subgroups"
    if len(hplus & g.center()) != 1:
        return "H^+ meets the center"
    if not g.center() <= hhat_minus:
        return "Hhat^- must contain the center"
    images = [g.image_in_w(hplus), g.image_in_w(hhat_minus)]
    if any(len(w) != g.p**g.space.ell for w in images):
        return "images do not have maximal isotropic size"
    for w in images:
        v = np.array(sorted(w), dtype=np.int64)
        if (v @ g.space.form @ v.T % g.p).any():
            return "image is not totally isotropic"
    if images[0] & images[1] != {(0,) * g.dim}:
        return "images are not complementary"
    return None


def is_integer(c: CycNumber) -> bool:
    """Whether c is a rational integer."""
    return c.is_rational() and c.rational_value().denominator == 1


def special_iso_inverse_image(nu, x) -> int:
    """The h with nu(h) = x, for x = (w, z) written as an index: h has the
    same w and z_h = z - <w, w0> = 2 z - mu(x)."""
    zx = nu.group.z[x]
    return int(x - zx + (2 * zx - nu.mu[x]) % nu.group.p)


def automorphism_perm_by_element(g, s, w0, sign: int) -> list[int]:
    """perm[h] = the index of (s w_h, sign z_h + <w0, w_h>) for every h of
    the Heisenberg group g, one element at a time: the matrix product, the
    twist by the form and the lookup of the image pair among the names."""
    p, form, s = g.p, g.space.form.tolist(), np.asarray(s).tolist()
    # <w0, w> = sum_j (w0^T J)_j w_j
    w0_form = [sum(u * form[i][j] for i, u in enumerate(w0)) for j in range(g.dim)]
    index_of = {name: h for h, name in enumerate(g.names)}
    perm = []
    for w, z in g.names:
        sw = tuple(sum(a * x for a, x in zip(row, w)) % p for row in s)
        twist = sum(a * x for a, x in zip(w0_form, w))
        perm.append(index_of[HElem(sw, (sign * z + twist) % p)])
    return perm
