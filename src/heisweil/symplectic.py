"""Symplectic spaces over F_p, polarizations, and Sp(W) as stacked matrices.

The basis convention is fixed globally: e_1..e_l span W+ and
e_{l+1}..e_{2l} span W-, and the form matrix in that basis is

    j = [[0, 1_l], [-1_l, 0]],

so <(x1,y1),(x2,y2)> = x1.y2 - y1.x2 with x the W+ block and y the W-
block.  All matrices anywhere in the package are written in this basis.

An element of Sp(W) is a (2l, 2l) int64 matrix with entries in 0..p-1,
and the helpers below take or return stacks (k, 2l, 2l) of them.
:func:`enumerate_sp` lists Sp(W) once per space as one read-only stack
and :func:`sp_table` indexes it: an element is a row of its ``matrices``
or that row's index, which :func:`sp_index` finds from the entries read
in base p (:func:`codes`).  Antisymplectic maps (form multiplier -1) are
matrices too; a witness writes either as :func:`sp_witness` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from heisweil.groups import TableGroup
from heisweil.scalar import is_odd_prime, legendre_symbol

__all__ = [
    "GuardError",
    "Polarization",
    "SymplecticSpace",
    "bruhat_factor",
    "chi_M",
    "chi_P",
    "codes",
    "eigen_polarization",
    "enumerate_antisymplectic",
    "enumerate_M",
    "enumerate_N",
    "enumerate_P",
    "enumerate_sp",
    "is_antisymplectic",
    "is_symplectic",
    "m_element",
    "n_element",
    "polarization_to_involution",
    "sp_guard",
    "sp_index",
    "sp_table",
    "sp_witness",
    "weyl_element",
]


class GuardError(ValueError):
    """An enumeration guard was exceeded; this is an error, never truncation."""


# -- F_p matrix helpers -------------------------------------------------------


def mat_mod(m, p: int) -> np.ndarray:
    return np.array(m, dtype=np.int64) % p


def rref_mod(a, p: int):
    """Reduced row echelon form mod p, the one pivot loop over F_p.

    Returns (nonzero rows, pivot columns, det), where det is the product of
    the pivots as they are found, negated at each row swap: the determinant
    mod p of a square matrix of full rank.
    """
    a = np.array(a, dtype=np.int64) % p
    if a.size == 0:
        return a, [], 1
    rows, cols = a.shape
    pivots, det = [], 1
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if a[k, c]), None)
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            det = -det
        det = det * int(a[r, c]) % p
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for k in range(rows):
            if k != r and a[k, c]:
                a[k] = (a[k] - a[k, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[: len(pivots)], pivots, det


def mat_inv(a, p: int) -> np.ndarray:
    """The inverse mod p of one matrix or of each of a stack (..., n, n)."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim > 2:
        flat = [mat_inv(m, p) for m in a.reshape(-1, *a.shape[-2:])]
        return np.array(flat, dtype=np.int64).reshape(a.shape)
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots, _ = rref_mod(aug, p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix mod p")
    return red[:, n:]


def mat_det(a, p: int):
    """det mod p, an exact integer from the pivots of :func:`rref_mod`: an
    int for one matrix, an int64 array for a stack (..., n, n)."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim > 2:
        flat = [mat_det(m, p) for m in a.reshape(-1, *a.shape[-2:])]
        return np.array(flat, dtype=np.int64).reshape(a.shape[:-2])
    _, pivots, det = rref_mod(a, p)
    return det if len(pivots) == a.shape[0] else 0


def nullspace_mod(a, p: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a mod p, as tuples."""
    a = np.atleast_2d(np.array(a, dtype=np.int64) % p)
    red, pivots, _ = rref_mod(a, p)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(tuple(int(x) for x in v))
    return basis


def span_mod(vectors, p: int, dim: int) -> frozenset[tuple[int, ...]]:
    """All F_p-linear combinations of the given vectors."""
    vecs = [np.array(v, dtype=np.int64) % p for v in vectors]
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        w = np.zeros(dim, dtype=np.int64)
        for c, v in zip(coeffs, vecs):
            w = (w + c * v) % p
        out.add(tuple(int(x) for x in w))
    return frozenset(out)


# -- the space ----------------------------------------------------------------


class SymplecticSpace:
    """F_p^(2l) with the form matrix j of the module docstring."""

    def __init__(self, p: int, ell: int):
        if not is_odd_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        if ell < 1:
            raise ValueError("ell must be positive")
        self.p = p
        self.ell = ell
        self.dim = 2 * ell
        self.form = np.zeros((self.dim, self.dim), dtype=np.int64)
        self.form[:ell, ell:] = np.eye(ell, dtype=np.int64)
        self.form[ell:, :ell] = (p - 1) * np.eye(ell, dtype=np.int64)
        self.form.flags.writeable = False  # spaces compare and hash by (p, ell)
        self.half = (p + 1) // 2  # 1/2 in F_p

    def pair(self, a, b) -> int:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return int(a @ self.form @ b % self.p)

    def basis_vector(self, i: int) -> tuple[int, ...]:
        v = [0] * self.dim
        v[i] = 1
        return tuple(v)

    def standard_polarization(self) -> "Polarization":
        plus = tuple(self.basis_vector(i) for i in range(self.ell))
        minus = tuple(self.basis_vector(self.ell + i) for i in range(self.ell))
        return Polarization(self, plus, minus)

    def __repr__(self):
        return f"SymplecticSpace(p={self.p}, ell={self.ell})"

    def __eq__(self, other):
        same_kind = isinstance(other, SymplecticSpace)
        return same_kind and (self.p, self.ell) == (other.p, other.ell)

    def __hash__(self):
        return hash((self.p, self.ell))


@dataclass(frozen=True)
class Polarization:
    """W = W+ + W- with both sides maximal totally isotropic."""

    space: SymplecticSpace
    plus: tuple[tuple[int, ...], ...]
    minus: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sp = self.space
        for side in (self.plus, self.minus):
            if len(side) != sp.ell:
                raise ValueError("each side needs ell basis vectors")
            for a in side:
                for b in side:
                    if sp.pair(a, b) != 0:
                        raise ValueError("side is not totally isotropic")
        stacked = np.array(self.plus + self.minus, dtype=np.int64)
        if mat_det(stacked, sp.p) == 0:
            raise ValueError("W+ and W- do not span W")

    def plus_span(self) -> frozenset:
        return span_mod(self.plus, self.space.p, self.space.dim)

    def minus_span(self) -> frozenset:
        return span_mod(self.minus, self.space.p, self.space.dim)


# -- form tests, codes and witnesses ---------------------------------------------


def _has_multiplier(space: SymplecticSpace, m, sign: int):
    """m^T J m = sign * J, for one matrix or each of a stack (..., 2l, 2l)."""
    m = mat_mod(m, space.p)
    if m.shape[-2:] != (space.dim, space.dim):
        raise ValueError("dimension mismatch with the space")
    pulled = np.swapaxes(m, -1, -2) @ space.form @ m % space.p
    return (pulled == sign * space.form % space.p).all(axis=(-2, -1))


def is_symplectic(space: SymplecticSpace, m):
    """m^T J m = J: a bool for one matrix, a bool array for a stack."""
    return _has_multiplier(space, m, 1)


def is_antisymplectic(space: SymplecticSpace, m):
    """m^T J m = -J: a bool for one matrix, a bool array for a stack."""
    return _has_multiplier(space, m, -1)


def _checked(space: SymplecticSpace, m, sign: int = 1) -> np.ndarray:
    """m reduced mod p, once every matrix of it has form multiplier sign."""
    m = mat_mod(m, space.p)
    if not np.all(_has_multiplier(space, m, sign)):
        raise ValueError(f"matrix does not have form multiplier {sign}")
    return m


def codes(p: int, mats) -> np.ndarray:
    """The entries of each matrix of a stack (..., r, c), row by row, read
    as one base-p number.  For entries in 0..p-1 the code is one-to-one and
    orders matrices as their entry lists do."""
    mats = np.asarray(mats, dtype=np.int64)
    k = mats.shape[-2] * mats.shape[-1]
    digits = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return mats.reshape(*mats.shape[:-2], k) @ digits


def sp_witness(m, sign: int = 1) -> dict:
    """A matrix of Sp(W) (sign 1) or of its antisymplectic coset (sign -1)
    as a failure witness: ``{"matrix": rows, "sign": sign}``."""
    return {"matrix": np.asarray(m).tolist(), "sign": sign}


_legendre = np.vectorize(legendre_symbol, otypes=[np.int64])  # entrywise


# -- the Siegel parabolic P = MN and its characters ------------------------------


def m_element(space: SymplecticSpace, y) -> np.ndarray:
    """diag(y, transpose(y)^-1) in the Levi M of P, for one l x l block y or
    each of a stack (..., l, l)."""
    p, ell = space.p, space.ell
    y = mat_mod(y, p)
    out = np.zeros(y.shape[:-2] + (2 * ell, 2 * ell), dtype=np.int64)
    out[..., :ell, :ell] = y
    out[..., ell:, ell:] = np.swapaxes(mat_inv(y, p), -1, -2)
    return _checked(space, out)


def n_element(space: SymplecticSpace, b) -> np.ndarray:
    """The unipotent [[1, b], [0, 1]] for one symmetric l x l block b or each
    of a stack (..., l, l)."""
    p, ell = space.p, space.ell
    b = mat_mod(b, p)
    if not np.array_equal(np.swapaxes(b, -1, -2), b):
        raise ValueError("n(b) needs a symmetric block")
    out = np.zeros(b.shape[:-2] + (2 * ell, 2 * ell), dtype=np.int64)
    out[...] = np.eye(2 * ell, dtype=np.int64)
    out[..., :ell, ell:] = b
    return _checked(space, out)


def weyl_element(space: SymplecticSpace) -> np.ndarray:
    """The form matrix j itself as an element of Sp(W)."""
    return _checked(space, space.form)


def chi_M(space: SymplecticSpace, mats) -> np.ndarray:
    """The order-two character of M on m(y), or on each of a stack: the
    Legendre symbol of det y as +-1.  Raises ValueError off M."""
    p, ell = space.p, space.ell
    mats = mat_mod(mats, p)
    y = mats[..., :ell, :ell]
    det = mat_det(y, p)
    if np.any(det == 0) or not np.array_equal(mats, m_element(space, y)):
        raise ValueError("element is not in the Levi M")
    return _legendre(det, p)


def chi_P(space: SymplecticSpace, mats) -> np.ndarray:
    """chi^P(m(y) n(x)) = chi^M(m(y)) on the Siegel parabolic P, for one
    element or each of a stack: y is the upper-left block, so this is the
    Legendre symbol of its determinant.  Raises ValueError off P."""
    p, ell = space.p, space.ell
    mats = mat_mod(mats, p)
    if np.any(mats[..., ell:, :ell]) or not np.all(is_symplectic(space, mats)):
        raise ValueError("element does not stabilize W+")
    return _legendre(mat_det(mats[..., :ell, :ell], p), p)


# -- involutions and polarizations ----------------------------------------------


def eigen_polarization(space: SymplecticSpace, s):
    """Fixed and negated subspaces of an order-two matrix s, via
    w = (w+sw)/2 + (w-sw)/2.

    Returns (plus_basis, minus_basis).  For antisymplectic s this is a
    polarization; the caller can wrap it in :class:`Polarization`.
    """
    p = space.p
    s = mat_mod(s, p)
    eye = np.eye(space.dim, dtype=np.int64)
    if not np.array_equal(s @ s % p, eye):
        raise ValueError("element must have order dividing two")
    plus = nullspace_mod((s - eye) % p, p)
    minus = nullspace_mod((s + eye) % p, p)
    if len(plus) + len(minus) != space.dim:
        # a failed check in the suite, which catches ValueError
        raise ValueError(
            f"eigenspaces of dimensions {len(plus)} + {len(minus)} "
            f"do not span W of dimension {space.dim}"
        )
    return tuple(plus), tuple(minus)


def polarization_to_involution(pol: Polarization) -> np.ndarray:
    """The unique antisymplectic involution with the polarization as eigenspaces."""
    space = pol.space
    p = space.p
    u = np.array(pol.plus + pol.minus, dtype=np.int64).T % p
    d = np.diag([1] * space.ell + [-1] * space.ell)
    return _checked(space, u @ d @ mat_inv(u, p), -1)


# -- enumeration ----------------------------------------------------------------


SP_ENUM_GUARD = {"ell1_max_p": 7, "ell2_p": 3}


def sp_guard(space: SymplecticSpace) -> None:
    """Raise GuardError unless Sp(W) is one the package enumerates or lifts:
    ell = 1 with p <= 7, or ell = 2, p = 3."""
    p, ell = space.p, space.ell
    max_p, ell2_p = SP_ENUM_GUARD["ell1_max_p"], SP_ENUM_GUARD["ell2_p"]
    if not (ell == 1 and p <= max_p or ell == 2 and p == ell2_p):
        raise GuardError(
            f"Sp(W) guarded to ell=1, p<={max_p} or ell=2, p={ell2_p}; "
            f"got ell={ell}, p={p}"
        )


@lru_cache(maxsize=None)
def enumerate_sp(space: SymplecticSpace) -> np.ndarray:
    """All of Sp(W) as one read-only stack (|Sp|, 2l, 2l), the identity
    first, built once per space; guarded to (ell=1, p<=7) and (ell=2, p=3).

    At ell = 1, Sp(W) = SL(2, p): the p^4 matrices, in the order of their
    entries, filtered by det = 1, with the identity moved to the front.  At
    ell = 2, a breadth-first search from the identity over six generators,
    one stacked product and one ``np.unique`` of base-p codes per layer;
    each layer's new matrices come in code order.  The form multiplier is
    tested once, on the whole stack.
    """
    sp_guard(space)
    p, ell = space.p, space.ell
    if ell == 1:
        entries = np.indices((p,) * 4, dtype=np.int64).reshape(4, -1).T
        a, b, c, d = entries.T
        keep = np.flatnonzero((a * d - b * c) % p == 1)
        ident = p**3 + 1  # the entries (1, 0, 0, 1)
        order = np.concatenate([[ident], keep[keep != ident]])
        mats = entries[order].reshape(-1, 2, 2)
    else:
        mats = _breadth_first(space)
    if not is_symplectic(space, mats).all():
        raise RuntimeError("the enumeration of Sp(W) holds a non-symplectic matrix")
    mats.flags.writeable = False
    return mats


def _breadth_first(space: SymplecticSpace) -> np.ndarray:
    """Sp(4, 3), breadth-first; ``seen`` holds the sorted codes found."""
    p = space.p
    gens = np.concatenate(
        [
            n_element(space, [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]]),
            weyl_element(space)[None],
            m_element(space, [[[1, 1], [0, 1]], [[2, 0], [0, 1]]]),
        ]
    )
    frontier = np.eye(space.dim, dtype=np.int64)[None]
    found, seen = [frontier], codes(p, frontier)
    while len(frontier):
        products = (frontier[:, None] @ gens % p).reshape(-1, space.dim, space.dim)
        layer, first = np.unique(codes(p, products), return_index=True)
        at = np.searchsorted(seen, layer)
        new = seen[np.minimum(at, len(seen) - 1)] != layer
        frontier = products[first[new]]
        found.append(frontier)
        seen = np.insert(seen, at[new], layer[new])
    return np.concatenate(found)


@lru_cache(maxsize=None)
def sp_table(space: SymplecticSpace) -> TableGroup:
    """Sp(W) as a TableGroup, built once per space and shared: ``matrices``
    is the stack :func:`enumerate_sp` lists, ``names`` their
    :func:`sp_witness` records, ``index`` maps a base-p code to its index
    (-1 off Sp(W)), and every array is read-only.  ell = 1 only: row i of
    the table is one broadcast product of s_i with the stacked 2x2
    matrices, each product found again through its code."""
    if space.ell != 1:
        raise GuardError(f"sp_table needs ell = 1; got ell={space.ell}")
    mats = enumerate_sp(space)
    p, m = space.p, len(mats)
    index = np.full(p**4, -1, dtype=np.int64)
    index[codes(p, mats)] = np.arange(m)
    table = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(mats):  # a row at a time: no (m, m, 2, 2) temporary
        table[i] = index[codes(p, a @ mats % p)]
    if (table < 0).any():
        raise RuntimeError("a product of two elements of Sp(W) left Sp(W)")
    tg = TableGroup(table, names=tuple(sp_witness(s) for s in mats))
    tg.matrices, tg.index = mats, index
    for shared in (tg.table, tg.inverse_of, tg.index):
        shared.flags.writeable = False
    return tg


def sp_index(space: SymplecticSpace, mats) -> np.ndarray:
    """The :func:`sp_table` index of one 2x2 matrix or of each of a stack;
    raises ValueError for a matrix outside Sp(W)."""
    mats = mat_mod(mats, space.p)
    if mats.shape[-2:] != (space.dim, space.dim):
        raise ValueError("dimension mismatch with the space")
    found = sp_table(space).index[codes(space.p, mats)]
    if np.any(found < 0):
        raise ValueError("matrix is not in Sp(W)")
    return found


def enumerate_antisymplectic(space: SymplecticSpace) -> np.ndarray:
    """The coset Sp(W) sigma, s sigma in the order of :func:`enumerate_sp`,
    with sigma = diag(1_l, -1_l) the involution of the standard polarization."""
    sigma = _checked(space, np.diag([1] * space.ell + [-1] * space.ell), -1)
    return enumerate_sp(space) @ sigma % space.p


def enumerate_M(space: SymplecticSpace) -> np.ndarray:
    """The stack of m(y) for every invertible y, in the order of its entries."""
    p, ell = space.p, space.ell
    ys = np.indices((p,) * (ell * ell), dtype=np.int64).reshape(ell * ell, -1).T.reshape(-1, ell, ell)
    return m_element(space, ys[mat_det(ys, p) != 0])


def enumerate_N(space: SymplecticSpace) -> np.ndarray:
    """The stack of n(b) for every symmetric b, in the order of the entries
    on and above its diagonal."""
    p, ell = space.p, space.ell
    i, j = np.triu_indices(ell)
    vals = np.indices((p,) * len(i), dtype=np.int64).reshape(len(i), -1).T
    b = np.zeros((len(vals), ell, ell), dtype=np.int64)
    b[:, i, j] = vals
    b[:, j, i] = vals
    return n_element(space, b)


def enumerate_P(space: SymplecticSpace) -> np.ndarray:
    """The stack of m n for m in M and n in N, m the outer loop."""
    prods = enumerate_M(space)[:, None] @ enumerate_N(space)[None] % space.p
    return prods.reshape(-1, space.dim, space.dim)


def bruhat_factor(space: SymplecticSpace, mats):
    """The Bruhat word of one element of SL(2, p) or of each of a stack
    (ell = 1 only), as four arrays (big, x, y, z) of the stack's shape.

    Where the lower-left entry c is nonzero (big),
    s = n(x) j m(y) n(z) with x = a/c, y = -c, z = d/c; elsewhere
    s = m(y) n(z) with y = a, z = b/a, and x = 0.
    """
    if space.ell != 1:
        raise GuardError("Bruhat factorization implemented for ell = 1 only")
    p = space.p
    mats = _checked(space, mats)
    a, b, c, d = (mats[..., i, k] for i in range(2) for k in range(2))
    big = c != 0
    inverse = np.array([0] + [pow(k, p - 2, p) for k in range(1, p)], dtype=np.int64)
    pivot = inverse[np.where(big, c, a)]  # a != 0 off the big cell: det = a d
    x = np.where(big, a * pivot % p, 0)
    y = np.where(big, -c % p, a)
    z = np.where(big, d, b) * pivot % p
    return big, x, y, z
