"""Exact linear algebra over cyclotomic fields.

Two layers:

- :class:`CycMatrix`, a small dense matrix of :class:`CycNumber` entries
  with trace, conjugation and exact inverse, determinant, rank and
  nullspace.  The last four all read one Gauss-Jordan elimination,
  :func:`_rref`, which returns the reduced rows, the pivot columns and
  the determinant.  Fine for dimensions up to a few dozen.

- one packed multiplication kernel behind both :meth:`CycMatrix.__matmul__`
  and :func:`verify_multiplication_table`.  A family of matrices is packed
  as power-basis numerators over a common denominator
  (:func:`batch_from_matrices`).  The left factor is folded with the
  (phi, phi, phi) reduction tensor of Q(zeta_N) into one
  (rows*phi) x (k*phi) integer operator, which multiplies the whole
  right-hand batch in a single float64 ``@``.  Before it runs, the
  magnitude bound k * phi^2 * max|T| * max|a| * max|b| on every partial
  sum is computed; when it is not below 2^53 the same kernel runs on
  Python ints (``dtype=object``) instead, so a result is never rounded or
  wrapped.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

import numpy as np

from heisweil.scalar import CycNumber, context

__all__ = [
    "CycMatrix",
    "batch_from_matrices",
    "nullspace",
    "row_space_rank",
    "same_row_space",
    "verify_multiplication_table",
]


class CycMatrix:
    """Dense matrix over Q(zeta_N) with exact arithmetic."""

    __slots__ = ("N", "rows")

    def __init__(self, n: int, rows):
        self.N = n
        self.rows = [list(r) for r in rows]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_entries(n: int, rows) -> "CycMatrix":
        conv = [
            [
                e if isinstance(e, CycNumber) else CycNumber.from_rational(n, e)
                for e in row
            ]
            for row in rows
        ]
        return CycMatrix(n, conv)

    @staticmethod
    def identity(n: int, dim: int) -> "CycMatrix":
        one, zero = CycNumber.one(n), CycNumber.zero(n)
        return CycMatrix(
            n, [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        )

    @staticmethod
    def zeros(n: int, nrows: int, ncols: int) -> "CycMatrix":
        zero = CycNumber.zero(n)
        return CycMatrix(n, [[zero] * ncols for _ in range(nrows)])

    # -- shape ---------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        return CycMatrix(
            self.N,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        return CycMatrix(
            self.N,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self) -> "CycMatrix":
        return CycMatrix(self.N, [[-a for a in r] for r in self.rows])

    def scale(self, c) -> "CycMatrix":
        if not isinstance(c, CycNumber):
            c = CycNumber.from_rational(self.N, c)
        return CycMatrix(self.N, [[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        if self.N != other.N:
            raise ValueError(f"conductor mismatch: {self.N} vs {other.N}")
        n, phi = self.N, context(self.N).phi
        r, k, c = self.nrows, self.ncols, other.ncols
        left, da, amax = _pack_entries(self.rows)
        right, db, bmax = _pack_entries(other.rows)
        dtype = _exact_dtype(n, k, amax, bmax)
        left = np.array(left, dtype=dtype).reshape(r, k, phi)
        right = np.array(right, dtype=dtype).reshape(k, c, phi)
        right = right.transpose(0, 2, 1).reshape(k * phi, c)
        nums = _packed_products(left, right, n).reshape(r, phi, c).transpose(0, 2, 1)
        if dtype is np.float64:
            nums = nums.astype(np.int64)
        den = da * db
        return CycMatrix(
            n, [[CycNumber(n, e, den) for e in row] for row in nums.tolist()]
        )

    def __pow__(self, k: int) -> "CycMatrix":
        if self.nrows != self.ncols:
            raise ValueError(
                f"power of a non-square {self.nrows}x{self.ncols} matrix"
            )
        if k < 0:
            return self.inverse() ** (-k)
        out = CycMatrix.identity(self.N, self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def transpose(self) -> "CycMatrix":
        return CycMatrix(self.N, [list(r) for r in zip(*self.rows)])

    def conj(self) -> "CycMatrix":
        return CycMatrix(self.N, [[a.conj() for a in r] for r in self.rows])

    def trace(self) -> CycNumber:
        acc = CycNumber.zero(self.N)
        for i in range(min(self.nrows, self.ncols)):
            acc = acc + self.rows[i][i]
        return acc

    def inverse(self) -> "CycMatrix":
        if self.nrows != self.ncols:
            raise ValueError(
                f"inverse of a non-square {self.nrows}x{self.ncols} matrix"
            )
        d = self.nrows
        one, zero = CycNumber.one(self.N), CycNumber.zero(self.N)
        aug = [
            list(r) + [one if i == j else zero for j in range(d)]
            for i, r in enumerate(self.rows)
        ]
        red, pivots, _ = _rref(aug)
        if pivots != list(range(d)):
            raise ZeroDivisionError("singular matrix")
        return CycMatrix(self.N, [row[d:] for row in red])

    def det(self) -> CycNumber:
        if self.nrows != self.ncols:
            raise ValueError(
                f"determinant of a non-square {self.nrows}x{self.ncols} matrix"
            )
        if not self.rows:
            return CycNumber.one(self.N)
        _, pivots, det = _rref(self.rows)
        return det if len(pivots) == self.nrows else CycNumber.zero(self.N)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.N == other.N and self.rows == other.rows

    def __hash__(self):
        return hash((self.N, tuple(tuple(r) for r in self.rows)))

    def __repr__(self) -> str:
        return f"CycMatrix({self.N}, {self.nrows}x{self.ncols})"

    def to_json(self):
        return [[a.to_json() for a in r] for r in self.rows]


# -- exact row reduction ------------------------------------------------------


def _rref(rows: list[list[CycNumber]]):
    """Reduced row echelon form over the field, the one pivot loop here.

    Returns (nonzero rows, pivot columns, det), where det is the product of
    the pivots as they are found, negated at each row swap: the determinant
    of a square matrix of full rank.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, det = [], 1
    for col in range(ncols):
        r0 = len(pivots)
        piv = next(
            (r for r in range(r0, len(rows)) if not rows[r][col].is_zero()), None
        )
        if piv is None:
            continue
        if piv != r0:
            rows[r0], rows[piv] = rows[piv], rows[r0]
            det = -det
        det = det * rows[r0][col]
        inv = rows[r0][col].inverse()
        rows[r0] = [inv * x for x in rows[r0]]
        for r in range(len(rows)):
            if r != r0 and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[r0])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots, det


def row_space_rank(rows: list[list[CycNumber]]) -> int:
    return len(_rref(rows)[1])


def same_row_space(rows_a, rows_b) -> bool:
    ra = row_space_rank(rows_a)
    rb = row_space_rank(rows_b)
    return ra == rb == row_space_rank(list(rows_a) + list(rows_b))


def nullspace(rows: list[list[CycNumber]], n: int, ncols: int):
    """Basis of {v : rows @ v = 0}, as column vectors (lists)."""
    red, pivots, _ = _rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [CycNumber.zero(n) for _ in range(ncols)]
        vec[j] = CycNumber.one(n)
        for r, pcol in zip(red, pivots):
            vec[pcol] = -r[j]
        basis.append(vec)
    return basis


# -- the packed multiplication kernel ------------------------------------------

# float64 represents every integer of absolute value below 2^53 exactly, so
# sums of such integers are exact in any order while they stay below it.
_FLOAT_EXACT = 2**53


def _pack_entries(rows):
    """(numerators as nested lists (r, c, phi), common denominator, max |numerator|)."""
    den = lcm(*(e.den for row in rows for e in row))
    nums = [
        [e.nums if e.den == den else [x * (den // e.den) for x in e.nums] for e in row]
        for row in rows
    ]
    flat = list(chain.from_iterable(e for row in nums for e in row))
    amax = max(max(flat), -min(flat)) if flat else 0
    return nums, den, amax


def _exact_dtype(n: int, k: int, amax: int, bmax: int):
    """float64 when every partial sum of a product is provably exact, else object.

    An entry of a product of a (., k) and a (k, .) matrix over Q(zeta_N) is,
    per power-basis coordinate, a sum of k * phi^2 terms T[u, v, w] a_u b_v;
    the bound below also covers the folded operator entries, which are sums
    of phi terms T * a.
    """
    ctx = context(n)
    tmax = int(np.abs(ctx.product_table).max())
    bound = k * ctx.phi**2 * tmax * max(amax, 1) * max(bmax, 1)
    return np.float64 if bound < _FLOAT_EXACT else object


def _packed_products(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """Numerators of the products left @ (each right-hand matrix), at once.

    ``left`` has shape (r, k, phi); ``right`` has shape (k*phi, cols), its
    row (l, v) holding coordinate v of row l of every right-hand matrix.
    Both share one dtype, chosen by :func:`_exact_dtype`.  The result has
    shape (r*phi, cols) with row (i, w) holding coordinate w of row i; its
    denominator is the product of the two input denominators.
    """
    r, k, phi = left.shape
    t = context(n).product_table.astype(left.dtype)
    # operator[(i, w), (l, v)] = sum_u left[i, l, u] * T[u, v, w]
    operator = np.tensordot(left, t, axes=([2], [0]))  # (r, k, v, w)
    operator = operator.transpose(0, 3, 1, 2).reshape(r * phi, k * phi)
    return operator @ right


def batch_from_matrices(mats: list[CycMatrix], n: int):
    """Pack matrices into (num, den): num of shape (m, r, c, phi).

    ``num`` is int64 when every numerator fits, and otherwise an object
    array of Python ints, so packing never wraps.
    """
    nums, den, amax = _pack_entries([row for m in mats for row in m.rows])
    dtype = np.int64 if amax < 2**63 else object
    shape = (len(mats), mats[0].nrows, mats[0].ncols, context(n).phi)
    return np.array(nums, dtype=dtype).reshape(shape), den


def verify_multiplication_table(
    num: np.ndarray, den: int, table: np.ndarray, n: int, max_failures: int = 5
):
    """Check num[s] @ num[t] == num[table[s, t]] exactly, for all pairs.

    ``num`` holds numerators of square matrices over the common denominator
    ``den``; a product of two entries carries den^2, so the expected side is
    scaled by den before comparing.  Row s runs as one kernel call against
    the whole family, so temporaries stay at a few blocks the size of
    ``num``; the exactness bound is taken once, from the largest numerator
    of the family, which bounds every row.  Returns a list of failing
    (s, t) pairs, empty when the family realizes the multiplication table
    exactly.
    """
    count, d, _, phi = num.shape
    amax = int(max(num.max(initial=0), -num.min(initial=0)))
    dtype = _exact_dtype(n, d, amax, amax)
    if max(amax, 1) * den >= _FLOAT_EXACT:  # the expected side, num * den
        dtype = object
    # rows (l, v) and columns (t, j): the kernel's right-hand layout, and
    # the layout of its result
    right = np.ascontiguousarray(num.transpose(1, 3, 0, 2), dtype=dtype)
    failures = []
    for s in range(count):
        prods = _packed_products(
            num[s].astype(dtype), right.reshape(d * phi, count * d), n
        ).reshape(d, phi, count, d)
        expected = right[:, :, table[s], :]
        expected *= den
        if not np.array_equal(prods, expected):
            bad = np.nonzero(np.any(prods != expected, axis=(0, 1, 3)))[0]
            failures.extend((s, int(t)) for t in bad[:max_failures])
            if len(failures) >= max_failures:
                return failures
        del prods, expected  # free this row's blocks before the next call
    return failures
