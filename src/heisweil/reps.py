"""Matrix models of Heisenberg representations and Hom-space machinery.

The two induced models of the Heisenberg representation with central
character zeta(z) = zeta_p^(k z) are realized on C[F_p^l]:

- minus model: functions on the W+ transversal, coordinates t.
  tau(u, v; z) phi (t) = zeta(z + t.v + (1/2) v.u) phi(t + u),
  where u is the W+ block and v the W- block of the group element.
- plus model: functions on the W- transversal, coordinates y.
  tau(u, v; z) phi (y) = zeta(z - u.y - (1/2) u.v) phi(y + v).

A :class:`MatrixRep` holds its images as one read-only stack, which every
reader takes with no restack.  Every character read goes through one
routine: a rep computes its character once, as the row of traces that
:func:`~heisweil.linalg.trace_table` returns for its stack;
:func:`character_table` stacks such rows, and :func:`projector_traces`
(every rep against rows of integer weights over the group, of which
:func:`hom_dims`, every rep against every subgroup, is the 0/1 case)
multiplies them; equivalence and inner products of characters are products
of such rows.  Hom-space dimensions are exact:
the averaging operator over a subgroup is idempotent, so its rank equals its
trace, a rational integer computed with no tolerance anywhere.  A basis of
Hom_K(tau, 1) itself is read from the double cosets Q\\H/K, for a whole
list of subgroups K in one :func:`fixed_forms` call (one :func:`hom_dims`
call, and the forms of all representatives of a K at once), and
:func:`fixed_forms_certificate` proves each one with no elimination: the
rows are K-invariant, have disjoint supports, and number the exact trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from heisweil.checks import Check
from heisweil.groups import generators_within
from heisweil.heisenberg import HeisenbergGroup
from heisweil.linalg import (
    CycMatrix,
    _exact_dtype,
    batch_from_matrices,
    packed_product_table,
    trace_table,
    verify_multiplication_table,
)
from heisweil.scalar import CycNumber, context, run_conductor
from heisweil.symplectic import GuardError

__all__ = [
    "FixedForms",
    "MatrixRep",
    "character_table",
    "contragredient",
    "fixed_forms",
    "fixed_forms_certificate",
    "heisenberg_rep",
    "hom_dims",
    "homomorphism_certificate",
    "irreducibles_of_H",
    "projector_traces",
]


@dataclass(eq=False)
class MatrixRep:
    """A finite group, or a subgroup of it, mapped to exact invertible
    matrices over Q(zeta_N), N = ``conductor``: rep(``elements[i]``) =
    ``num[i]`` / ``den``, one read-only (m, dim, dim, phi) stack on the
    sorted indices ``elements`` of ``group``, a
    :class:`~heisweil.groups.TableGroup`.  :meth:`image` wraps one row as a
    CycMatrix; every other reader takes the stack.  Reps compare by
    identity.  A monomial rep (the induced models of :func:`heisenberg_rep`
    and their contragredients) also keeps its monomial data: row t of image
    i holds zeta_p^root_exponents[i, t] in column cols[i, t], zeros
    elsewhere, both (m, dim) integer arrays; other reps leave them None.
    """

    group: object
    elements: np.ndarray = field(repr=False)
    num: np.ndarray = field(repr=False)
    den: int
    conductor: int
    basis_labels: tuple = ()
    model: str | None = None
    zeta_exponent: int | None = None
    cols: np.ndarray | None = field(default=None, repr=False)
    root_exponents: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.int64)
        if len(self.elements) != len(self.num) or (np.diff(self.elements) <= 0).any():
            raise ValueError(f"{len(self.num)} images need as many sorted elements")
        # the character row is cached from the stack, so neither may change
        self.elements.flags.writeable = False
        self.num.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.num.shape[1]

    def _rows(self, elements) -> np.ndarray:
        """The stack row of each of ``elements``; ValueError names the first
        one the rep is not defined on."""
        els, m = np.asarray(elements, dtype=np.int64), len(self.elements)
        at = np.minimum(np.searchsorted(self.elements, els), m - 1)
        if (bad := els[self.elements[at] != els]).size:
            raise ValueError(f"element {bad[0]} is outside the {m} elements of the rep")
        return at

    def image(self, h) -> CycMatrix:
        """rep(h) as a canonical CycMatrix."""
        return CycMatrix._packed(self.conductor, self.num[self._rows(h)], self.den)

    @cached_property
    def _character(self) -> CycMatrix:
        """tr rep(g) for g in ``elements``, one 1 x m row; readers get copies."""
        return trace_table(self.conductor, (self.num, self.den))

    def characters(self, elements) -> CycMatrix:
        """tr rep(g) for each of ``elements``, repeats allowed, as a 1 x m row."""
        return self._character[:, self._rows(elements)]

    def verify_homomorphism(self, check: Check | None = None) -> bool:
        """:func:`homomorphism_certificate` on the stack, for a rep defined
        on every element of its group."""
        g, m = self.group, len(self.elements)
        if not np.array_equal(self.elements, np.arange(g.order)):
            raise ValueError(f"the rep covers {m} of the {g.order} elements of its group")
        check = Check("reps.homomorphism") if check is None else check
        return homomorphism_certificate(g, self.num, self.den, self.conductor, check)


def homomorphism_certificate(
    group, num: np.ndarray, den: int, n: int, check: Check
) -> bool:
    """The homomorphism certificate of g -> num[g] / den over Q(zeta_N):
    F(1) = 1, and F(x g) = F(x) F(g) for every x in S = ``group.generators``
    and every g.

    Lemma: if S generates G, F(1) = 1 and F(x g) = F(x) F(g) for every
    x in S and g in G, then F is a homomorphism.  Proof: write
    h = x_1 ... x_k with x_i in S (S generates the finite G as a monoid)
    and peel one generator at a time: F(h g) = F(x_1) F(x_2 ... x_k g)
    = ... = F(x_1) ... F(x_k) F(g), which at g = 1 is F(h).  So
    1 + |S| |G| identities prove what the |G|^2 pairs prove.

    Edges that do not reach every element raise ValueError.  The edges
    are the rows S of :func:`~heisweil.linalg.verify_multiplication_table`;
    a failing edge's witness is (x, g) by the group's names.
    """
    g, gens = group, list(group.generators)
    if not g.subgroup_generated(gens).all():
        raise ValueError(f"generators {gens} do not reach all {g.order} elements")
    identity = CycMatrix.identity(n, num.shape[1])
    check(CycMatrix._packed(n, num[0], den) == identity, "identity")
    ok = verify_multiplication_table(num, den, g.table[gens], n, gens)
    check.all(ok, lambda i, y: (g.names[gens[i]], g.names[y]))
    return check.passed


def heisenberg_rep(
    group: HeisenbergGroup, zeta_exponent: int, model: str = "minus"
) -> MatrixRep:
    """The p^l-dimensional Heisenberg representation in either induced model."""
    p, ell = group.p, group.space.ell
    k = zeta_exponent % p
    if k == 0:
        raise ValueError("central character must be nontrivial")
    if model not in ("minus", "plus"):
        raise ValueError("model must be 'minus' or 'plus'")
    n = run_conductor(p)
    points = list(itertools.product(range(p), repeat=ell))
    dim = len(points)
    pts = np.array(points, dtype=np.int64).reshape(dim, ell)
    place = p ** np.arange(ell - 1, -1, -1)  # position of a point in points

    # every element at once: axis 0 is h = (u, v; z), axis 1 the row t
    u, v, z = group.w[:, :ell], group.w[:, ell:], group.z[:, None]
    uv = group.half * (u * v).sum(axis=1, keepdims=True)
    if model == "minus":
        exp = z + v @ pts.T + uv
        src = pts + u[:, None]
    else:
        exp = z - u @ pts.T - uv
        src = pts + v[:, None]
    # row t of tau(h) holds zeta_p^(k exp) in the column of src, zeros elsewhere
    cols, root_exponents = (src % p) @ place, k * exp % p
    roots = context(n).power_table[(n // p) * root_exponents]
    # one zeroed stack: row t of image h takes its root in column cols[h, t]
    num = np.zeros((group.order, dim, dim, roots.shape[-1]), dtype=roots.dtype)
    num[np.arange(group.order)[:, None], np.arange(dim), cols] = roots
    return MatrixRep(
        group=group,
        elements=np.arange(group.order),
        num=num,
        den=1,
        conductor=n,
        basis_labels=tuple(points),
        model=model,
        zeta_exponent=k,
        cols=cols,
        root_exponents=root_exponents,
    )


def contragredient(rep: MatrixRep) -> MatrixRep:
    """g -> transpose(rep(g^-1)) on the elements of ``rep``, one gather of
    its stack, with the monomial data of that transpose."""
    g, k = rep.group, rep.zeta_exponent
    inv = rep._rows(g.inverse_of[rep.elements])  # the stack row of each g^-1
    monomial = {}
    if rep.cols is not None:
        # row t of rep(h^-1) holds its root in column cols[h^-1, t], so row r
        # of the transpose holds the root of the row t whose column is r
        cols = np.argsort(rep.cols[inv], axis=1)
        roots = np.take_along_axis(rep.root_exponents[inv], cols, axis=1)
        monomial = {"cols": cols, "root_exponents": roots}
    return replace(
        rep,
        num=rep.num[inv].swapaxes(1, 2),
        zeta_exponent=None if k is None else -k % g.p,
        **monomial,
    )


def projector_traces(reps: list[MatrixRep], weights, divisors) -> np.ndarray:
    """(1/d_j) sum_g w_j(g) tr rep(g) for every rep (rows) and every row w_j
    of non-negative integer ``weights`` over the group, with its divisor
    d_j (columns): the exact trace of an averaging projector, which must be
    an integer >= 0, or RuntimeError names it.

    The weight rows, on the elements some row weighs, multiply the stacked
    character numerators of the reps of each conductor, one power-basis
    coordinate at a time, on the coordinates those characters use, in the
    packed kernel's exact dtype for their bound
    (:func:`~heisweil.linalg._exact_dtype`).
    """
    weights = np.asarray(weights, dtype=np.int64)
    els = np.flatnonzero(weights.any(axis=0))
    w, divisors = weights[:, els], np.asarray(divisors, dtype=np.int64)
    parts, order = [], []
    for n in dict.fromkeys(rep.conductor for rep in reps):
        rows = [i for i, rep in enumerate(reps) if rep.conductor == n]
        chars = character_table([reps[i] for i in rows], els)
        used = chars.num.any(axis=(0, 1))
        used[0] = True  # sums[..., 0] is coordinate 0, the rational part
        num = chars.num[..., used]
        # every partial sum of a row's sum is at most its total weight times
        # max|num|, which picks the narrowest exact dtype
        bound = int(w.sum(axis=1).max(initial=0)) * int(np.abs(num).max(initial=0))
        dtype = _exact_dtype(bound)
        # sums[r, j]: the used coordinates of the sum by row j
        sums = w.astype(dtype) @ num.astype(dtype)
        if dtype is not object:
            sums = sums.astype(np.int64)
        sizes, const = chars.den * divisors, sums[..., 0]
        fractional = sums[..., 1:].any(axis=2) | (const % sizes != 0)
        faults = ((fractional, "is not an integer"), (const < 0, "is negative"))
        for bad, what in faults:
            if bad.any():
                r, j = np.argwhere(bad)[0]
                coords = np.zeros(len(used), dtype=object)
                coords[used] = sums[r, j]
                val = CycNumber(n, coords, int(sizes[j]))
                raise RuntimeError(f"projector trace {val!r} of weight row {j} {what}")
        parts.append(const // sizes)
        order += rows
    return np.concatenate(parts)[np.argsort(order)]


def hom_dims(reps: list[MatrixRep], masks) -> np.ndarray:
    """dim Hom_K(rep, 1) for every rep (rows) and subgroup K (columns), each
    K a row of the (k, |G|) boolean array ``masks``: the rank of the
    averaging projector over K, which being idempotent equals its exact
    trace (1/|K|) sum_k tr rep(k), the 0/1 case of :func:`projector_traces`."""
    masks = np.asarray(masks, dtype=bool)
    return projector_traces(reps, masks, masks.sum(axis=1))


def character_table(reps: list[MatrixRep], elements) -> CycMatrix:
    """Row i holds tr reps[i](g) for each of ``elements``: the character rows
    stacked over one denominator."""
    n = reps[0].conductor
    num, den = batch_from_matrices([r.characters(elements) for r in reps], n)
    return CycMatrix._packed(n, num[:, 0], den)


# -- fixed linear forms ----------------------------------------------------------


@dataclass
class FixedForms:
    """A basis of Hom_K(tau, 1) and its :func:`fixed_forms_certificate`."""

    dim: int  # the exact projector trace of hom_dims
    basis: CycMatrix  # one double-coset form lambda_x per row
    certified: bool


def fixed_forms(rep: MatrixRep, subgroups, generators=None) -> list[FixedForms]:
    """Basis of Hom_K(tau, 1) for the minus model, with its certificate,
    for every K of ``subgroups``, in their order: a (k, |H|) array of
    masks, or a list of masks.  ``generators``, when
    given, holds a generating set of each K, in the same order, for the
    certificate, as
    :meth:`~heisweil.heisenberg.HeisenbergGroup.subgroup_generators` gives
    them for :meth:`~heisweil.heisenberg.HeisenbergGroup.all_subgroups`.

    The rows are the double-coset sum forms lambda_x(phi) = sum_k phi(x k)
    over the cosets Q x K, Q = W^- Z, on which W^- x K x^-1 meets Z
    trivially, built for all representatives x of a K at once (the
    smallest element of each Q x K, read off the W^+ coordinates);
    :func:`fixed_forms_certificate` proves them a basis.  The dimensions
    are one :func:`hom_dims` call for all the subgroups.
    """
    if rep.model != "minus":
        raise ValueError("fixed_forms expects a minus-model Heisenberg rep")
    g: HeisenbergGroup = rep.group
    n, p, ell = rep.conductor, g.p, g.space.ell
    generators = [None] * len(subgroups) if generators is None else generators
    dims = hom_dims([rep], subgroups)[0].tolist()
    t, inv = g.table, g.inverse_of
    w_minus = np.flatnonzero(g.minus_subgroup)
    # the center without the identity, as a mask over the indices
    nontrivial_center = g.center() & (np.arange(g.order) != 0)
    digits = p ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    # (u, 0; 0) for every u of the W+ block, in index order
    u_rows = np.arange(p**ell) * p ** (ell + 1)
    # entry u of the row of x: sum over e of count[u, e] zeta_p^(k e)
    roots = context(n).power_table[(n // p) * (rep.zeta_exponent * np.arange(p) % p)]

    out = []
    for members, gens, dim in zip(subgroups, generators, dims, strict=True):
        K = np.flatnonzero(members)
        # Q\H/K: Q contains [H, H] = Z, so it is normal with H/Q the u's, and
        # Q x K is the h with u_h in u_x + U, U the u's of K; its smallest
        # element is (u, 0; 0), u the smallest of its coset of U
        cosets = (g.w[u_rows, None, :ell] + g.w[K, :ell]) % p @ digits
        xs = u_rows[np.unique(cosets.min(axis=1))]
        xk = t[xs[:, None], K]  # row i: x_i K
        conj = t[xk, inv[xs][:, None]]  # x_i K x_i^-1
        # no invariant form on Q x K where W^- x K x^-1 meets Z nontrivially
        meets = nontrivial_center[t[w_minus[:, None], conj[:, None]]].any(axis=(1, 2))
        xk = xk[~meets]
        # minus model: f(x k) = zeta(z + (1/2) v.u) phi(u) for x k = (u, v; z)
        u, v = g.w[xk, :ell], g.w[xk, ell:]
        exps = (g.z[xk] + g.half * (u * v).sum(axis=-1)) % p
        count = np.zeros((len(xk), rep.dim, p), dtype=np.int64)
        np.add.at(count, (np.arange(len(xk))[:, None], u @ digits, exps), 1)
        basis = CycMatrix._packed(n, count @ roots, 1)
        certified = fixed_forms_certificate(rep, members, basis, dim, generators=gens)
        out.append(FixedForms(dim, basis, certified))
    return out


def fixed_forms_certificate(
    rep: MatrixRep,
    subgroup,
    basis: CycMatrix,
    dim: int,
    check: Check | None = None,
    generators=None,
) -> bool:
    """Whether the rows of ``basis`` are a basis of Hom_K(rep, 1), K the
    subgroup with the mask ``subgroup``, whose dimension is ``dim`` (:func:`hom_dims`):

    (a) lambda rep(k) = lambda for every row lambda and every k of
        ``generators``, a generating set of K the caller read from how it
        built K, or when None of :func:`~heisweil.groups.generators_within`
        K; one packed product;
    (b) every row is nonzero and no two rows share a nonzero coordinate;
    (c) there are ``dim`` rows.

    (a) puts each row in Hom_K(rep, 1), as invariance under generators is
    invariance under K; (b) makes the rows independent; (c) counts them to
    the dimension of the space, so they span it.  No elimination is needed.
    The verdict is recorded in ``check``, when given, as one identity with
    the subgroup's indices as its witness.
    """
    if generators is None:
        generators = generators_within(rep.group, subgroup)
    gens = rep._rows(list(generators))
    # lambda rep(k) carries basis.den * rep.den, as lambda * rep.den does
    moved = packed_product_table(rep.conductor, basis.num[None], rep.num[gens])[0]
    support = basis.num.any(axis=2)
    ok = bool(
        (moved == basis.num * rep.den).all()
        and support.any(axis=1).all()
        and (support.sum(axis=0) <= 1).all()
        and basis.nrows == dim
    )
    if check is not None:
        check(ok, np.flatnonzero(subgroup).tolist())
    return ok


# -- irreducibles of H -----------------------------------------------------------


def irreducibles_of_H(group: HeisenbergGroup) -> list[MatrixRep]:
    """All irreducible representations: p^(2l) characters inflated from W
    plus p-1 Heisenberg representations, one per nontrivial central character."""
    g = group
    p = g.p
    if g.order > 3200:
        raise GuardError("irreducible sweep guarded to |H| <= 3200")
    n = run_conductor(p)
    offsets = np.array(list(itertools.product(range(p), repeat=g.dim)), dtype=np.int64)
    # entry (i, h): zeta_p^<w0_i, w_h>, all characters at once
    values = offsets @ g.space.form @ g.w.T % p
    table = CycMatrix.from_roots(n, (n // p) * values, np.ones_like(values))
    # character i is row i of the table, as a stack of |H| 1 x 1 images
    els, chars = np.arange(g.order), table.num[:, :, None, None]
    out = [MatrixRep(g, els, num, table.den, n, model="char") for num in chars]
    out += [heisenberg_rep(g, k, model="minus") for k in range(1, p)]
    total = sum(r.dim**2 for r in out)
    if total != g.order:
        raise RuntimeError(
            f"sum of squared dimensions {total} is not |H| = {g.order}"
        )
    return out
