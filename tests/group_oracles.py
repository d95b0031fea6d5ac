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
  isomorphism nu, which only the tests read;
- :func:`special_iso_mu_by_offset`, :func:`special_iso_axioms_by_offset`
  and :func:`split_polarization_by_offset`: one special isomorphism at a
  time, by its offset w0 and its central coordinate mu, one element or
  edge at a time, as the package checked them before every special
  isomorphism became a row of one
  :class:`heisweil.heisenberg.Automorphisms` stack.
- :func:`form_pair`, :func:`image_in_w`, :func:`nullspace_mod`,
  :func:`span_mod`, :func:`standard_bases`, :func:`eigen_polarization`,
  :func:`check_polarization`, :func:`eigen_polarization_holds` and
  :func:`polarization_to_involution`: a polarization as tuple bases of
  W+ and W-, spans listed one coefficient tuple at a time, eigenbases one
  free column at a time and isotropy one pair of vectors at a time, as
  the package carried polarizations before masks over H became their one
  encoding;
- :func:`hom_dim`, :func:`apply_involution`, :func:`inner_involution`,
  :func:`fixed_subgroup` and :func:`conjugate_involution`: one rep and
  one subgroup, or one involution, at a time, which only the tests read.
- :class:`InvolutionRecord`, :func:`as_set`, :func:`subgroup_by_closure`,
  :func:`center_by_pairs`, :func:`commutator_by_closure`,
  :func:`block_by_names`, :func:`stabilizer_by_conjugates` and
  :func:`inner_involutions_by_element`: the encodings the package handed
  out before every subgroup became a read-only boolean mask and every
  involution a read-only int64 permutation array: a subgroup as a
  frozenset of indices, closed one product at a time, and an involution as
  a tuple-backed record, checked one pair at a time.  The oracles here
  take a subgroup as a mask or as indices, and an involution as a record
  or as a permutation array.

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
from dataclasses import dataclass

import numpy as np

from heisweil.groups import TableGroup
from heisweil.heisenberg import HElem
from heisweil.linalg import CycMatrix
from heisweil.reps import MatrixRep, hom_dims
from heisweil.scalar import CycNumber, root_of_unity
from heisweil.suites import _heisenberg_beds, standard_mackey_configurations
from heisweil.symplectic import mat_det, mat_inv, rref_mod


@dataclass(frozen=True)
class InvolutionRecord:
    """An automorphism of order <= 2 stored as a tuple permutation of the
    indices, as the package stored one before its involutions became
    read-only int64 arrays."""

    perm: tuple[int, ...]

    def is_valid(self, g: TableGroup) -> bool:
        """Bijective, of order <= 2, and p(ab) = p(a) p(b) on all |G|^2
        pairs, one pair at a time."""
        p, n = self.perm, g.order
        if sorted(p) != list(range(n)) or any(p[p[x]] != x for x in range(n)):
            return False
        return all(p[g.mul(a, b)] == g.mul(p[a], p[b]) for a in range(n) for b in range(n))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.perm))


def record(theta) -> InvolutionRecord:
    """The tuple-backed record of a permutation array, or the record itself."""
    if isinstance(theta, InvolutionRecord):
        return theta
    return InvolutionRecord(tuple(np.asarray(theta).tolist()))


def as_set(sub) -> frozenset[int]:
    """The members of a subgroup given as a boolean mask, or as indices, as
    the frozenset the package handed out before its subgroups were masks."""
    if isinstance(sub, np.ndarray) and sub.dtype == bool:
        return frozenset(np.flatnonzero(sub).tolist())
    return frozenset(int(x) for x in sub)


def subgroup_by_closure(g: TableGroup, gens) -> frozenset[int]:
    """The subgroup generated by ``gens``, closed one product at a time."""
    return frozenset(closure([0], gens, g.mul))


def center_by_pairs(g: TableGroup) -> frozenset[int]:
    """Z(G): the a with a b = b a for every b, one pair at a time."""
    n = g.order
    return frozenset(a for a in range(n) if all(g.mul(a, b) == g.mul(b, a) for b in range(n)))


def commutator_by_closure(g: TableGroup) -> frozenset[int]:
    """[G, G]: every commutator a b a^-1 b^-1, closed one product at a time."""
    n = g.order
    comms = {g.mul(g.mul(a, b), g.mul(g.inv(a), g.inv(b))) for a in range(n) for b in range(n)}
    return subgroup_by_closure(g, sorted(comms))


def block_by_names(g, vanishing: slice, z_zero: bool) -> frozenset[int]:
    """The h of H whose coordinates w[vanishing] vanish, and with z = 0 when
    ``z_zero``, one name at a time."""
    return frozenset(
        h
        for h, (w, z) in enumerate(g.names)
        if not any(w[vanishing]) and (z == 0 or not z_zero)
    )


def stabilizer_by_conjugates(g: TableGroup, theta) -> frozenset[int]:
    """G_theta: the a with a.theta = theta, one conjugate at a time."""
    perm = record(theta).perm
    return frozenset(
        a for a in range(g.order) if conjugate_involution(g, a, theta).perm == perm
    )


def inner_involutions_by_element(g: TableGroup) -> list[InvolutionRecord]:
    """Int(a) for every a with a^2 central, each once, in the order of the
    smallest such a, one element at a time."""
    center = center_by_pairs(g)
    found = {}
    for a in range(g.order):
        if g.mul(a, a) in center:
            inner = inner_involution(g, a)
            found.setdefault(inner.perm, inner)
    return list(found.values())


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
        rec = InvolutionRecord(tuple(int(phi[x]) for x in range(g.order)))
        if rec.is_valid(g):
            found[rec.perm] = rec
    return list(found.values())


def abelian_characters_by_subtable(tg: TableGroup, members, conductor: int):
    """All characters of the abelian subgroup ``members`` (a mask or
    indices) with values in the conductor-th roots of unity, as MatrixReps
    on the sorted members: each
    tuple of generator values extended by :func:`checked_extend_hom` on a
    TableGroup of the subgroup, built product by product, and deduplicated
    by character values.  The generators are the members outside the
    :func:`closure` of the ones taken before, in index order, and their
    orders the sizes of their cyclic closures."""
    mset = as_set(members)
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
    k = np.array(sorted(as_set(k_sub)), dtype=np.int64)
    coset_of = np.full(g.order, -1, dtype=np.int64)
    transversal = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[t[k, x]] = len(transversal)
            transversal.append(x)
    h = sorted(as_set(h_sub))
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
        cyclic.setdefault(subgroup_by_closure(g, [a]), a)
    gens = list(cyclic.values())
    seen = set(cyclic)
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            seen.add(subgroup_by_closure(g, [a, b]))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def polarization_fault_by_sets(g, hplus, hhat_minus) -> str | None:
    """The first condition (H^+, Hhat^-) fails as a polarization of H, by the
    message the package raises for it, or None: both subgroups, H^+ meets
    the center trivially, Hhat^- contains it, and the images in W are
    complementary maximal totally isotropic subspaces."""
    hplus, hhat_minus, center = as_set(hplus), as_set(hhat_minus), as_set(g.center())
    if not (g.is_subgroup(g.mask(hplus)) and g.is_subgroup(g.mask(hhat_minus))):
        return "polarization needs subgroups"
    if len(hplus & center) != 1:
        return "H^+ meets the center"
    if not center <= hhat_minus:
        return "Hhat^- must contain the center"
    images = [image_in_w(g, hplus), image_in_w(g, hhat_minus)]
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


def special_iso_inverse_image(isos, i, x) -> int:
    """The h with nu(h) = x for nu the i-th row of the special isomorphisms
    ``isos`` and x = (w, z) written as an index: h has the same w and z_h =
    z - <w0, w> = 2 z - mu(x), with mu = perm % p."""
    zx, p = isos.group.z[x], isos.group.p
    return int(x - zx + (2 * zx - isos.perm[i, x]) % p)


def special_iso_mu_by_offset(g, w0) -> np.ndarray:
    """mu(w, z) = z + <w0, w>, the central coordinate of nu_w0, one element
    at a time on the names, with the form written out entry by entry."""
    form, dim = g.space.form.tolist(), g.dim
    pair = lambda w: sum(w0[i] * form[i][j] * w[j] for i in range(dim) for j in range(dim))
    return np.array([(z + pair(w)) % g.p for w, z in g.names], dtype=np.int64)


def special_iso_axioms_by_offset(g, mus, name=int) -> tuple[int, object]:
    """(count, first witness) of the special-isomorphism axioms on each
    central coordinate mu of ``mus``, one row at a time: mu(0, z) = z for
    each z of the center, then nu(x s) = nu(x) nu(s) for each element x and
    generator s, with nu(h) = (w_h, mu(h)) and products by ``g.mul``."""
    count, witness = 0, None
    center = sorted(as_set(g.center()))
    for i, mu in enumerate(mus):
        nu = lambda h: g.element(g.names[h].w, int(mu[h]))
        found = [(mu[c] == g.z[c], {"nu": name(i), "center": c}) for c in center]
        found += [
            (nu(g.mul(x, s)) == g.mul(nu(x), nu(s)), {"nu": name(i), "a": x, "b": s})
            for x in g.elements()
            for s in g.generators
        ]
        count += len(found)
        if witness is None:
            witness = next((w for ok, w in found if not ok), None)
    return count, witness


def split_polarization_by_offset(g, mu, hplus, hhat_minus):
    """H^- = Hhat^- intersect {mu = 0} for one special isomorphism with
    central coordinate mu, its conditions tested on frozensets, one product
    at a time: the splitting, or the message of the first condition it
    fails."""
    center, hhat_minus = as_set(g.center()), as_set(hhat_minus)
    hminus = frozenset(h for h in hhat_minus if mu[h] == 0)
    if not g.is_subgroup(g.mask(hminus)):
        return "splitting is not a subgroup"
    if len(hminus & center) != 1:
        return "splitting meets the center nontrivially"
    if frozenset(g.mul(h, z) for h in hminus for z in center) != hhat_minus:
        return "splitting times the center is not Hhat^-"
    return hminus


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


def form_pair(space, a, b) -> int:
    """<a, b> = a^T J b mod p for two vectors of the symplectic space."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    return int(a @ space.form @ b % space.p)


def image_in_w(g, subset) -> frozenset[tuple[int, ...]]:
    """The w coordinates of the members of ``subset``, as tuples."""
    return frozenset(g.names[h].w for h in as_set(subset))


def nullspace_mod(a, p: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a mod p, as tuples, one free column at a
    time."""
    a = np.atleast_2d(np.array(a, dtype=np.int64) % p)
    red, pivots, _ = rref_mod(a, p)
    ncols = a.shape[1]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = np.zeros(ncols, dtype=np.int64)
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(tuple(int(x) for x in v))
    return basis


def span_mod(vectors, p: int, dim: int) -> frozenset[tuple[int, ...]]:
    """All F_p-linear combinations of the given vectors, one coefficient
    tuple at a time."""
    vecs = [np.array(v, dtype=np.int64) % p for v in vectors]
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        w = np.zeros(dim, dtype=np.int64)
        for c, v in zip(coeffs, vecs):
            w = (w + c * v) % p
        out.add(tuple(int(x) for x in w))
    return frozenset(out)


def standard_bases(space) -> tuple[tuple, tuple]:
    """The bases (e_1..e_l) of W+ and (e_{l+1}..e_{2l}) of W-, as tuples."""
    eye = [tuple(int(x) for x in row) for row in np.eye(space.dim, dtype=np.int64)]
    return tuple(eye[: space.ell]), tuple(eye[space.ell :])


def eigen_polarization(space, s):
    """The bases (plus, minus) of the fixed and negated subspaces of an
    order-two matrix s, as the nullspaces of s - 1 and s + 1; ValueError
    when s does not have order dividing two or the two do not span W."""
    p = space.p
    s = np.array(s, dtype=np.int64) % p
    eye = np.eye(space.dim, dtype=np.int64)
    if not np.array_equal(s @ s % p, eye):
        raise ValueError("element must have order dividing two")
    plus = nullspace_mod((s - eye) % p, p)
    minus = nullspace_mod((s + eye) % p, p)
    if len(plus) + len(minus) != space.dim:
        raise ValueError("eigenspaces do not span W")
    return tuple(plus), tuple(minus)


def check_polarization(space, plus, minus) -> None:
    """ValueError unless the bases ``plus`` and ``minus`` give W = W+ + W-
    with both sides maximal totally isotropic, one pair of vectors at a
    time."""
    for side in (plus, minus):
        if len(side) != space.ell:
            raise ValueError("each side needs ell basis vectors")
        if any(form_pair(space, a, b) for a in side for b in side):
            raise ValueError("side is not totally isotropic")
    if mat_det(np.array(plus + minus, dtype=np.int64), space.p) == 0:
        raise ValueError("W+ and W- do not span W")


def eigen_polarization_holds(space, s) -> bool:
    """Whether the eigenspaces of s form a polarization, one involution at a
    time: :func:`eigen_polarization` and then :func:`check_polarization`."""
    try:
        check_polarization(space, *eigen_polarization(space, s))
    except ValueError:
        return False
    return True


def polarization_to_involution(space, plus, minus) -> np.ndarray:
    """The involution u diag(1_l, -1_l) u^-1 with the bases ``plus`` and
    ``minus`` as the columns of u: +1 on W+, -1 on W-."""
    p = space.p
    u = np.array(plus + minus, dtype=np.int64).T % p
    d = np.diag([1] * space.ell + [-1] * space.ell)
    return u @ d @ mat_inv(u, p) % p


def hom_dim(rep, subgroup) -> int:
    """dim Hom_K(rep, 1) for one rep and one subgroup, given by its
    members or its mask, as one row of :func:`heisweil.reps.hom_dims`."""
    return int(hom_dims([rep], [rep.group.mask(as_set(subgroup))])[0, 0])


def apply_involution(theta, x: int) -> int:
    """theta(x), read off its permutation."""
    return record(theta).perm[x]


def inner_involution(g: TableGroup, a: int) -> InvolutionRecord:
    """Int(a): x -> a x a^-1, one gather of row a of the table."""
    return InvolutionRecord(tuple(g.table[g.table[a], g.inverse_of[a]].tolist()))


def fixed_subgroup(g: TableGroup, theta) -> frozenset:
    """G^theta, the indices where theta's permutation is the identity."""
    return frozenset(x for x, y in enumerate(record(theta).perm) if x == y)


def conjugate_involution(g: TableGroup, a: int, theta) -> InvolutionRecord:
    """a . theta = Int(a) o theta o Int(a^-1), on the whole table at once."""
    t, ainv = g.table, g.inv(a)
    perm = np.asarray(record(theta).perm)
    # x -> a theta(a^-1 x a) a^-1
    return InvolutionRecord(tuple(t[t[a, perm[t[t[ainv], a]]], ainv].tolist()))
