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
  subgroup, each extended on a table of the subgroup of its own.

:func:`zoo_groups` hands the tests the groups of the Mackey zoo.
"""

from __future__ import annotations

import itertools
import operator

from heisweil.groups import TableGroup, generators_within
from heisweil.linalg import CycMatrix
from heisweil.mackey import InvolutionRecord, _minimal_generators
from heisweil.reps import MatrixRep
from heisweil.scalar import CycNumber, root_of_unity
from heisweil.suites import standard_mackey_configurations


def zoo_groups() -> dict:
    """Every group of the Mackey zoo, by the first part of its label."""
    configs = standard_mackey_configurations()
    return {label.split("/")[0]: tg for label, tg, *_ in configs}


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
    the minimal generators is extended by :func:`checked_extend_hom` on its
    own, and kept when the extension is an involutive bijection."""
    gens = _minimal_generators(g)
    orders = {a: g.element_order(a) for a in range(g.order)}
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
    by character values."""
    mset = frozenset(members)
    gens = generators_within(tg, mset)
    orders = [tg.element_order(a) for a in gens]
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
