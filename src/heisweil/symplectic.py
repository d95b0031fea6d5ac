"""Symplectic spaces over F_p, polarizations, and the groups around Sp(W).

The basis convention is fixed globally: e_1..e_l span W+ and
e_{l+1}..e_{2l} span W-, and the form matrix in that basis is

    j = [[0, 1_l], [-1_l, 0]],

so <(x1,y1),(x2,y2)> = x1.y2 - y1.x2 with x the W+ block and y the W-
block.  All matrices anywhere in the package are written in this basis.
Antisymplectic maps (form multiplier -1) are carried with an explicit
sign so that the union Sp(W) u Sp(W)^- is a group.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from heisweil.groups import TableGroup, closure
from heisweil.scalar import is_odd_prime, legendre_symbol

__all__ = [
    "GuardError",
    "Polarization",
    "SpElement",
    "SymplecticSpace",
    "chi_M",
    "chi_P",
    "eigen_polarization",
    "enumerate_antisymplectic",
    "enumerate_M",
    "enumerate_N",
    "enumerate_P",
    "enumerate_sp",
    "is_antisymplectic",
    "is_symplectic",
    "polarization_to_involution",
    "sp_table",
]


class GuardError(ValueError):
    """An enumeration guard was exceeded; this is an error, never truncation."""


# -- F_p matrix helpers -------------------------------------------------------


def mat_mod(m, p: int) -> np.ndarray:
    return np.array(m, dtype=np.int64) % p


def mat_mul(a, b, p: int) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


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
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots, _ = rref_mod(aug, p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix mod p")
    return red[:, n:]


def mat_det(a, p: int) -> int:
    a = np.asarray(a, dtype=np.int64)
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
    """F_p^(2l) with an invertible antisymmetric form matrix."""

    def __init__(self, p: int, ell: int, form=None):
        if not is_odd_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        if ell < 1:
            raise ValueError("ell must be positive")
        self.p = p
        self.ell = ell
        self.dim = 2 * ell
        if form is None:
            form = np.zeros((self.dim, self.dim), dtype=np.int64)
            form[:ell, ell:] = np.eye(ell, dtype=np.int64)
            form[ell:, :ell] = -np.eye(ell, dtype=np.int64) % p
        self.form = mat_mod(form, p)
        if mat_det(self.form, p) == 0:
            raise ValueError("form is degenerate")
        if not np.array_equal((-self.form.T) % p, self.form):
            raise ValueError("form is not antisymmetric")
        self.half = (p + 1) // 2  # 1/2 in F_p

    def pair(self, a, b) -> int:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return int(a @ self.form @ b % self.p)

    def vectors(self) -> list[tuple[int, ...]]:
        return [
            tuple(v) for v in itertools.product(range(self.p), repeat=self.dim)
        ]

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
        return (
            isinstance(other, SymplecticSpace)
            and self.p == other.p
            and self.ell == other.ell
            and np.array_equal(self.form, other.form)
        )

    def __hash__(self):
        return hash((self.p, self.ell, self.form.tobytes()))


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


class SpElement:
    """A matrix acting on W, symplectic (sign +1) or antisymplectic (-1)."""

    __slots__ = ("space", "matrix", "sign", "_key")

    def __init__(self, space: SymplecticSpace, matrix, sign: int | None = None):
        self.space = space
        m = mat_mod(matrix, space.p)
        if m.shape != (space.dim, space.dim):
            raise ValueError(
                f"matrix must be {space.dim}x{space.dim} for this space"
            )
        self.matrix = m
        if sign is None:
            if is_symplectic(space, m):
                sign = 1
            elif is_antisymplectic(space, m):
                sign = -1
            else:
                raise ValueError("matrix is neither symplectic nor antisymplectic")
        else:
            expect = (
                is_symplectic(space, m) if sign == 1 else is_antisymplectic(space, m)
            )
            if not expect:
                raise ValueError(f"matrix does not have form multiplier {sign}")
        self.sign = sign
        self._key = (m.tobytes(), sign)

    def apply(self, w) -> tuple[int, ...]:
        v = (self.matrix @ np.asarray(w, dtype=np.int64)) % self.space.p
        return tuple(int(x) for x in v)

    def __mul__(self, other: "SpElement") -> "SpElement":
        return SpElement(
            self.space,
            mat_mul(self.matrix, other.matrix, self.space.p),
            self.sign * other.sign,
        )

    def inverse(self) -> "SpElement":
        return SpElement(self.space, mat_inv(self.matrix, self.space.p), self.sign)

    def is_identity(self) -> bool:
        return np.array_equal(self.matrix, np.eye(self.space.dim, dtype=np.int64))

    def order(self) -> int:
        acc = self
        for k in range(1, 4 * self.space.p**4 + 4):
            if acc.is_identity():
                return k
            acc = acc * self
        raise RuntimeError("order not found")

    def __eq__(self, other):
        return isinstance(other, SpElement) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        tag = "Sp" if self.sign == 1 else "Sp-"
        return f"{tag}({self.matrix.tolist()})"


# -- form tests and characters -------------------------------------------------


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


def m_element(space: SymplecticSpace, y) -> SpElement:
    """Block diagonal diag(y, transpose(y)^-1) in the Levi of P."""
    p, ell = space.p, space.ell
    y = mat_mod(y, p)
    out = np.zeros((2 * ell, 2 * ell), dtype=np.int64)
    out[:ell, :ell] = y
    out[ell:, ell:] = mat_inv(y, p).T
    return SpElement(space, out, 1)

def n_element(space: SymplecticSpace, b) -> SpElement:
    """Unipotent [[1, b], [0, 1]] with b symmetric."""
    p, ell = space.p, space.ell
    b = mat_mod(b, p)
    if not np.array_equal(b.T % p, b):
        raise ValueError("n(b) needs a symmetric block")
    out = np.eye(2 * ell, dtype=np.int64)
    out[:ell, ell:] = b
    return SpElement(space, out, 1)


def weyl_element(space: SymplecticSpace) -> SpElement:
    """The form matrix j itself as a group element."""
    return SpElement(space, space.form.copy(), 1)


def m_block(space: SymplecticSpace, s: SpElement) -> np.ndarray:
    """The GL_l block y of an element m(y) of M; raises if s is not in M."""
    ell = space.ell
    m = s.matrix
    if s.sign != 1 or np.any(m[:ell, ell:]) or np.any(m[ell:, :ell]):
        raise ValueError("element is not in the Levi M")
    y = m[:ell, :ell]
    if not np.array_equal(m[ell:, ell:], mat_inv(y, space.p).T):
        raise ValueError("element is not in the Levi M")
    return y


def chi_M(space: SymplecticSpace, s: SpElement) -> int:
    """The unique order-two character of M: (det y)^((p-1)/2) as +-1."""
    y = m_block(space, s)
    return legendre_symbol(mat_det(y, space.p), space.p)


def p_factor(space: SymplecticSpace, s: SpElement):
    """Factor an element of P = MN as (m(y), n(x)); raises when s not in P."""
    ell, p = space.ell, space.p
    m = s.matrix
    if s.sign != 1 or np.any(m[ell:, :ell]):
        raise ValueError("element does not stabilize W+")
    y = m[:ell, :ell]
    x = mat_mul(mat_inv(y, p), m[:ell, ell:], p)
    me, ne = m_element(space, y), n_element(space, x)
    if me * ne != s:
        raise RuntimeError("m(y) n(x) does not recover the element of P")
    return me, ne

def chi_P(space: SymplecticSpace, s: SpElement) -> int:
    """chi^P(mn) = chi^M(m) on the Siegel parabolic P."""
    me, _ = p_factor(space, s)
    return chi_M(space, me)


# -- involutions and polarizations ----------------------------------------------


def eigen_polarization(s: SpElement):
    """Fixed and negated subspaces of an order-two element, via w = (w+sw)/2 + (w-sw)/2.

    Returns (plus_basis, minus_basis).  For antisymplectic s this is a
    polarization; the caller can wrap it in :class:`Polarization`.
    """
    space = s.space
    p = space.p
    if not (s * s).is_identity():
        raise ValueError("element must have order dividing two")
    eye = np.eye(space.dim, dtype=np.int64)
    plus = nullspace_mod((s.matrix - eye) % p, p)
    minus = nullspace_mod((s.matrix + eye) % p, p)
    if len(plus) + len(minus) != space.dim:
        # a failed check in the suite, which catches ValueError
        raise ValueError(
            f"eigenspaces of dimensions {len(plus)} + {len(minus)} "
            f"do not span W of dimension {space.dim}"
        )
    return tuple(plus), tuple(minus)


def polarization_to_involution(pol: Polarization) -> SpElement:
    """The unique antisymplectic involution with the polarization as eigenspaces."""
    space = pol.space
    p = space.p
    u = np.array(pol.plus + pol.minus, dtype=np.int64).T % p
    d = np.diag([1] * space.ell + [-1] * space.ell)
    m = mat_mul(mat_mul(u, d, p), mat_inv(u, p), p)
    return SpElement(space, m, -1)


# -- enumeration ----------------------------------------------------------------


SP_ENUM_GUARD = {"ell1_max_p": 7, "ell2_p": 3}


@lru_cache(maxsize=None)
def _sp_elements_cached(space: SymplecticSpace):
    p, ell = space.p, space.ell
    if ell == 1:
        # Sp = SL(2, p) for every nondegenerate form on F_p^2: the identity
        # first, then the others in the order of their entries
        out = [SpElement(space, np.eye(2, dtype=np.int64), 1)]
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p == 1 and (a, b, c, d) != (1, 0, 0, 1):
                out.append(SpElement(space, [[a, b], [c, d]], 1))
        return tuple(out)
    # generator closure for ell = 2, p = 3 (standard form only)
    gens = [
        n_element(space, [[1, 0], [0, 0]]),
        n_element(space, [[0, 0], [0, 1]]),
        n_element(space, [[0, 1], [1, 0]]),
        weyl_element(space),
        m_element(space, [[1, 1], [0, 1]]),
        m_element(space, [[2, 0], [0, 1]]),
    ]
    ident = SpElement(space, np.eye(4, dtype=np.int64), 1)
    return tuple(closure([ident], gens, operator.mul))


def enumerate_sp(space: SymplecticSpace) -> list[SpElement]:
    """All of Sp(W), the identity first; guarded to (ell=1, p<=7) and
    (ell=2, p=3, standard form)."""
    if space.ell == 1 and space.p <= SP_ENUM_GUARD["ell1_max_p"]:
        pass
    elif space.ell == 2 and space.p == SP_ENUM_GUARD["ell2_p"]:
        if space != SymplecticSpace(space.p, space.ell):
            raise GuardError(
                "Sp enumeration at ell=2 supports only the standard form"
            )
    else:
        raise GuardError(
            f"Sp enumeration guarded to ell=1,p<=7 or ell=2,p=3; "
            f"got ell={space.ell}, p={space.p}"
        )
    return list(_sp_elements_cached(space))


@lru_cache(maxsize=None)
def sp_table(space: SymplecticSpace) -> TableGroup:
    """Sp(W) as a TableGroup, built once per space and shared: ``names`` is
    the tuple :func:`enumerate_sp` lists, ``matrices`` stacks their
    matrices, and every array is read-only.  ell = 1 only: row i of the
    table is one broadcast product of s_i with the stacked 2x2 matrices,
    each product found again through its entries read in base p."""
    if space.ell != 1:
        raise GuardError(f"sp_table needs ell = 1; got ell={space.ell}")
    els = tuple(enumerate_sp(space))
    p, m = space.p, len(els)
    mats = np.stack([s.matrix for s in els])
    digits = p ** np.arange(3, -1, -1, dtype=np.int64)
    index = np.full(p**4, -1, dtype=np.int64)
    index[mats.reshape(m, 4) @ digits] = np.arange(m)
    table = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(mats):  # a row at a time: no (m, m, 2, 2) temporary
        table[i] = index[(a @ mats % p).reshape(m, 4) @ digits]
    if (table < 0).any():
        raise RuntimeError("a product of two elements of Sp(W) left Sp(W)")
    tg = TableGroup(table, names=els)
    tg.matrices = mats
    for shared in (tg.table, tg.inverse_of, tg.matrices):
        shared.flags.writeable = False
    return tg


def antisymplectic_representative(space: SymplecticSpace) -> SpElement:
    """diag(1_l, -1_l), the involution attached to the standard polarization."""
    d = np.diag([1] * space.ell + [-1] * space.ell)
    return SpElement(space, d, -1)


def enumerate_antisymplectic(space: SymplecticSpace) -> list[SpElement]:
    sigma = antisymplectic_representative(space)
    return [s * sigma for s in enumerate_sp(space)]


def enumerate_M(space: SymplecticSpace) -> list[SpElement]:
    p, ell = space.p, space.ell
    out = []
    for entries in itertools.product(range(p), repeat=ell * ell):
        y = np.array(entries, dtype=np.int64).reshape(ell, ell)
        if mat_det(y, p) != 0:
            out.append(m_element(space, y))
    return out


def enumerate_N(space: SymplecticSpace) -> list[SpElement]:
    p, ell = space.p, space.ell
    coords = [(i, j) for i in range(ell) for j in range(i, ell)]
    out = []
    for vals in itertools.product(range(p), repeat=len(coords)):
        b = np.zeros((ell, ell), dtype=np.int64)
        for (i, j), v in zip(coords, vals):
            b[i, j] = v
            b[j, i] = v
        out.append(n_element(space, b))
    return out


def enumerate_P(space: SymplecticSpace) -> list[SpElement]:
    return [m * n for m in enumerate_M(space) for n in enumerate_N(space)]


def bruhat_factor(space: SymplecticSpace, s: SpElement):
    """Write s in SL(2,p) as a word in n(x), j, m(y) (ell = 1 only).

    Returns a list of ("n", x) / ("m", y) / ("j",) tokens whose product is s:
    lower-left entry zero gives m(a) n(b/a); otherwise
    s = n(a/c) j m(-c) n(d/c).
    """
    if space.ell != 1:
        raise GuardError("Bruhat factorization implemented for ell = 1 only")
    p = space.p
    [[a, b], [c, d]] = s.matrix.tolist()
    if c % p == 0:
        ainv = pow(a, p - 2, p)
        return [("m", a), ("n", ainv * b % p)]
    cinv = pow(c, p - 2, p)
    return [
        ("n", a * cinv % p),
        ("j",),
        ("m", (-c) % p),
        ("n", d * cinv % p),
    ]
