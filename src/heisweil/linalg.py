"""Exact linear algebra over cyclotomic fields.

A :class:`CycMatrix` is held in one layout, the one its products need:
power-basis numerators ``num`` of shape (rows, cols, phi) over one
positive denominator ``den``, reduced by their common gcd.  A family of
matrices is held the same way, as one stack: numerators of shape
(m, rows, cols, phi) over one common denominator.  The Weil lift is built
as such a stack; :func:`batch_from_matrices` stacks matrices that were
built one by one, once.  Every product runs through one packed
multiplication kernel, and every function on stacks is one call of it:
:func:`packed_product_table` gives the numerators of left[a] @ right[b]
for every pair of two families, :func:`root_multiples` those of zeta_k^j
times every matrix of a family, and :func:`trace_table` the traces of a
family, or the table tr(L_a R_b) of two families, as one CycMatrix over
one denominator, with no CycNumber per element.

The kernel multiplies only the power-basis coordinates its operands use.
The support of an operand is the set of coordinates where some numerator
is nonzero; the (phi, phi, phi) reduction tensor T of Q(zeta_N) is cut to
(support of a) x (support of b) x (the output coordinates those reach),
one cached table per conductor, support pair and dtype, and the result is
scattered back.  Every coordinate left out is exactly 0, so the product
stays exact.  Weil and Heisenberg images lie in Q(zeta_p), the even
coordinates of Q(zeta_4p), whose cut table is that of Q(zeta_2p): they
multiply with a quarter of the multiply-adds.  A rational factor uses
coordinate 0 alone, so a product with a rational right factor (the 0/1
indicators of :func:`heisweil.reps.hom_dims`, the ones column of a
character sum) is a plain per-coordinate product.  Operands whose
supports are full take the whole table, with no gather and no scatter.
The left factor is folded with the cut table into one
(rows*|out|) x (k*|support of b|) integer operator, which multiplies the
whole right-hand side in a single ``@``.  Before it runs, the magnitude
bound k * phi^2 * max|T| * max|a| * max|b| on every partial sum of the
whole-table product is computed, and picks the narrowest exact dtype:
float32 below 2^24, float64 below 2^53, Python ints (``dtype=object``)
otherwise, so a result is never rounded or wrapped.  A product on cut
coordinates sums a subset of the same terms, so the bound holds for it
too, and the tier does not depend on the supports.
:func:`verify_multiplication_table` runs the same kernel once per row of
a group table, on the support of the whole family; it computes the
den-scaled expected family once and writes each row's product, gather and
comparison into buffers allocated once.  On the rows of a generating set
it is the certificate of :func:`heisweil.reps.homomorphism_certificate`.

There is no elimination over Q(zeta_N) here: no inverse, determinant,
rank or nullspace, and ``**`` takes powers k >= 0 only.  The package proves
what it would read from one without it: Hom_K(tau, 1) by the certificate
of :func:`heisweil.reps.fixed_forms`, the SL(2, 3) inverse and determinants
by 2 x 2 closed forms, and the ell = 2 Weil relations in a form with no
inverse.  A Gauss-Jordan oracle stays in the tests, as the reference these
are compared against.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

import numpy as np

from heisweil.scalar import CycNumber, context

__all__ = [
    "CycMatrix",
    "batch_from_matrices",
    "packed_product_table",
    "root_multiples",
    "trace_table",
    "verify_multiplication_table",
]


class CycMatrix:
    """Dense matrix over Q(zeta_N): entry (i, j) is sum_u num[i, j, u] zeta^u / den.

    (num, den) is reduced by the gcd of all of num and den, so it is
    canonical.  ``num`` is int64 when every |numerator| < 2^63 and an
    object array of Python ints otherwise, so no numerator ever wraps.
    """

    __slots__ = ("N", "num", "den")

    def __init__(self, n: int, rows):
        """Matrix of the given rows of CycNumbers or rationals."""
        entries = [
            [
                e if isinstance(e, CycNumber) else CycNumber.from_rational(n, e)
                for e in row
            ]
            for row in rows
        ]
        den = lcm(*(e.den for row in entries for e in row))
        nums = [[[x * (den // e.den) for x in e.nums] for e in row] for row in entries]
        shape = (len(entries), len(entries[0]) if entries else 0, context(n).phi)
        self._set(n, np.array(nums, dtype=object).reshape(shape), den)

    def _set(self, n: int, num: np.ndarray, den: int) -> None:
        """Store (num, den) in the canonical form; ``num`` is exact integers."""
        if den != 1:
            g = gcd(den, int(np.gcd.reduce(num.ravel())))
            if g >= _INT64:  # num is all zero and g = den
                num = num.astype(object)
            if g > 1:  # else num is kept as given, as it is when den = 1
                num, den = num // g, den // g
        if num.dtype == object and _max_abs(num) < _INT64:
            num = num.astype(np.int64)
        self.N, self.num, self.den = n, num, den

    @classmethod
    def _packed(cls, n: int, num: np.ndarray, den: int) -> "CycMatrix":
        out = cls.__new__(cls)
        out._set(n, num, den)
        return out

    @staticmethod
    def identity(n: int, dim: int) -> "CycMatrix":
        num = np.zeros((dim, dim, context(n).phi), dtype=np.int64)
        num[np.arange(dim), np.arange(dim), 0] = 1
        return CycMatrix._packed(n, num, 1)

    @staticmethod
    def from_roots(n: int, exponents, coeffs) -> "CycMatrix":
        """Entry (i, j) = coeffs[i, j] * zeta_N^exponents[i, j], for integer coeffs.

        Each entry is a row of the power table scaled by its coefficient,
        so no CycNumber is built.
        """
        num = context(n).power_table[np.asarray(exponents) % n]
        coeffs = np.asarray(coeffs)
        if coeffs.dtype == object or _max_abs(coeffs) * _max_abs(num) >= _INT64:
            num, coeffs = num.astype(object), coeffs.astype(object)
        return CycMatrix._packed(n, num * coeffs[..., None], 1)

    # -- shape and entries ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.num.shape[0]

    @property
    def ncols(self) -> int:
        return self.num.shape[1]

    def __getitem__(self, index):
        """numpy indexing on the entries: one entry is a CycNumber, a 2-D
        selection of entries is a CycMatrix."""
        num = self.num[index]
        if num.ndim == 1:
            return CycNumber(self.N, num.tolist(), self.den)
        if num.ndim != 3:
            raise IndexError("select one entry or a 2-D block of entries")
        return CycMatrix._packed(self.N, num, self.den)

    @property
    def rows(self) -> list[list[CycNumber]]:
        """The entries as CycNumbers, built on each read."""
        n, den = self.N, self.den
        return [[CycNumber(n, e, den) for e in row] for row in self.num.tolist()]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        return self - CycMatrix._packed(other.N, -other.num, other.den)

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        if self.num.shape != other.num.shape or self.N != other.N:
            raise ValueError(f"cannot subtract {other!r} from {self!r}")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = self.num, other.num
        if max(_max_abs(a), 1) * fa + max(_max_abs(b), 1) * fb >= _INT64:
            a, b = a.astype(object), b.astype(object)
        return CycMatrix._packed(self.N, a * fa - b * fb, den)

    def scale(self, c) -> "CycMatrix":
        """c times every entry: one kernel call with c as a 1x1 left factor."""
        left, shape = CycMatrix(self.N, [[c]]), self.num.shape
        nums = _products(self.N, left.num, self.num.reshape(1, -1, shape[2]))
        return CycMatrix._packed(self.N, nums.reshape(shape), left.den * self.den)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        if self.N != other.N:
            raise ValueError(f"conductor mismatch: {self.N} vs {other.N}")
        nums = _products(self.N, self.num, other.num)
        return CycMatrix._packed(self.N, nums, self.den * other.den)

    def __pow__(self, k: int) -> "CycMatrix":
        if self.nrows != self.ncols:
            raise ValueError(
                f"power of a non-square {self.nrows}x{self.ncols} matrix"
            )
        if k < 0:
            raise ValueError(f"negative power {k}: CycMatrix has no inverse")
        if k == 0:
            return CycMatrix.identity(self.N, self.nrows)
        # square and multiply from the lowest bit; the product starts at the
        # first set bit, and the base is squared only while bits remain
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if not k:
                return out
            base = base @ base

    def transpose(self) -> "CycMatrix":
        return CycMatrix._packed(self.N, self.num.transpose(1, 0, 2), self.den)

    def conj(self) -> "CycMatrix":
        """Complex conjugation zeta -> zeta^-1 on every entry."""
        ctx = context(self.N)
        sigma = ctx.power_table[-np.arange(ctx.phi) % self.N]  # row j: zeta^-j
        # on Python ints: the sums of phi products are never bounded here
        num = self.num.astype(object) @ sigma.astype(object)
        return CycMatrix._packed(self.N, num, self.den)

    def trace(self) -> CycNumber:
        m = np.arange(min(self.nrows, self.ncols))
        return CycNumber(self.N, self.num[m, m].astype(object).sum(axis=0), self.den)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return (
            self.N == other.N
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def equal_entries(self, other: "CycMatrix") -> np.ndarray:
        """Boolean (rows, cols) array: entry (i, j) of self equals that of other."""
        return ~(self - other).num.any(axis=2)

    def __hash__(self):
        return hash((self.N, self.den, self.num.shape, tuple(self.num.ravel().tolist())))

    def __repr__(self) -> str:
        return f"CycMatrix({self.N}, {self.nrows}x{self.ncols})"

    def reduced_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry over its own lowest denominator, as CycNumber keeps it.

        Returns (a, d): entry (i, j) is sum_u a[i, j, u] zeta^u / d[i, j],
        with a of shape (rows, cols, phi), d of shape (rows, cols) and
        gcd(a[i, j, :], d[i, j]) = 1.  Both are int64 when num is and den
        fits, and object arrays of Python ints otherwise.
        """
        num, den = self.num, self.den
        if den >= _INT64:  # np.gcd would convert den to int64
            num = num.astype(object)
        g = np.gcd(np.gcd.reduce(num, axis=2), den)
        return num // g[..., None], den // g

    def to_json(self):
        """Each entry as CycNumber.to_json gives it: reduced by its own gcd."""
        n = self.N
        a, d = self.reduced_entries()
        return [
            [
                {"N": n, "coeffs": [[x, e_den] for x in e]}
                for e, e_den in zip(row, row_den)
            ]
            for row, row_den in zip(a.tolist(), d.tolist())
        ]


# -- the packed multiplication kernel ------------------------------------------

# float32 and float64 represent every integer of absolute value below 2^24
# and 2^53 exactly, so sums of such integers are exact in any order while
# they stay below that limit.
_FLOAT_TIERS = ((2**24, np.float32), (2**53, np.float64))


_INT64 = 2**63  # num is int64 exactly when every |numerator| is below this


def _max_abs(num: np.ndarray) -> int:
    return int(np.abs(num).max(initial=0))


def _coordinate_max(num: np.ndarray) -> np.ndarray:
    """The largest |numerator| of ``num`` at each power-basis coordinate
    (its last axis): its maximum bounds ``num``, and its nonzero entries
    are the support, the coordinates that ``num`` uses."""
    return np.abs(num).max(axis=tuple(range(num.ndim - 1)), initial=0)


def _product_bound(n: int, k: int, amax: int, bmax: int) -> int:
    """A bound on every partial sum of a product of a (., k) and a (k, .)
    matrix over Q(zeta_N) whose numerators are at most amax and bmax.

    An entry of the product is, per power-basis coordinate, a sum of
    k * phi^2 terms T[u, v, w] a_u b_v; the bound also covers the folded
    operator entries, which are sums of phi terms T * a.  A product on
    restricted coordinates sums a subset of those terms, so the bound
    covers it too.
    """
    return k * _table_bound(n) * max(amax, 1) * max(bmax, 1)


@lru_cache(maxsize=None)
def _table_bound(n: int) -> int:
    """phi^2 * max|T| for the product table T of Q(zeta_N)."""
    ctx = context(n)
    return ctx.phi**2 * int(np.abs(ctx.product_table).max())


def _exact_dtype(bound: int):
    """The narrowest dtype in which integers up to ``bound`` add exactly:
    float32 below 2^24, float64 below 2^53, Python ints (object) otherwise."""
    return next((dtype for limit, dtype in _FLOAT_TIERS if bound < limit), object)


@lru_cache(maxsize=256)
def _restricted_table(n: int, left_mask: bytes, right_mask: bytes, dtype):
    """(us, vs, ws, table): the product table T of Q(zeta_N) on the
    coordinates us x vs that two operands use (their masks, as bytes of
    booleans) and on the output coordinates ws that those reach; every other
    output coordinate of their product is exactly 0.  ``table`` is
    T[us][:, vs][:, :, ws] as ``dtype``, shaped (len(us), len(vs) * len(ws))
    for the kernel's fold."""
    us = np.flatnonzero(np.frombuffer(left_mask, dtype=bool))
    vs = np.flatnonzero(np.frombuffer(right_mask, dtype=bool))
    t = context(n).product_table[np.ix_(us, vs)]
    ws = np.flatnonzero(t.any(axis=(0, 1)))
    table = t[:, :, ws].astype(dtype).reshape(len(us), len(vs) * len(ws))
    for a in (us, vs, ws, table):
        a.flags.writeable = False
    return us, vs, ws, table


def _packed_products(
    left: np.ndarray,
    right: np.ndarray,
    coords: tuple,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Numerators of the products left @ (each right-hand matrix), at once,
    on the coordinates ``coords`` = (us, vs, ws, table) of
    :func:`_restricted_table`.

    ``left`` has shape (r, k, len(us)), coordinate u of each entry;
    ``right`` has shape (k*len(vs), cols), its row (l, v) holding coordinate
    v of row l of every right-hand matrix.  Both share the table's dtype,
    chosen by :func:`_exact_dtype`.  The result has shape (r*len(ws), cols)
    with row (i, w) holding coordinate w of row i; its denominator is the
    product of the two input denominators.  It is written to ``out`` when
    given, an array of that shape and dtype.
    """
    r, k, nu = left.shape
    _, vs, ws, table = coords
    # operator[(i, w), (l, v)] = sum_u left[i, l, u] * T[u, v, w]
    operator = (left.reshape(r * k, nu) @ table).reshape(r, k, len(vs), len(ws))
    operator = operator.transpose(0, 3, 1, 2).reshape(r * len(ws), k * len(vs))
    return np.matmul(operator, right, out=out)


def _products(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact numerators, shape (r, c, phi), of packed a (r, k, phi) times b (k, c, phi).

    Only the coordinates the operands use are multiplied: Weil and
    Heisenberg images lie in Q(zeta_p), the even coordinates of
    Q(zeta_4p), and a rational factor uses coordinate 0 alone.
    """
    (r, k, phi), c = a.shape, b.shape[1]
    acol, bcol = _coordinate_max(a), _coordinate_max(b)
    dtype = _exact_dtype(_product_bound(n, k, int(acol.max()), int(bcol.max())))
    coords = _restricted_table(n, (acol > 0).tobytes(), (bcol > 0).tobytes(), dtype)
    us, vs, ws, _ = coords
    if len(us) == len(vs) == len(ws) == phi:  # full supports: no gather, no scatter
        right = b.astype(dtype).transpose(0, 2, 1).reshape(k * phi, c)
        nums = _packed_products(a.astype(dtype), right, coords)
        if dtype is not object:
            nums = nums.astype(np.int64)
        return nums.reshape(r, phi, c).transpose(0, 2, 1)
    right = b.transpose(0, 2, 1)[:, vs].astype(dtype).reshape(k * len(vs), c)
    prods = _packed_products(a[..., us].astype(dtype), right, coords)
    nums = np.zeros((r, c, phi), dtype=object if dtype is object else np.int64)
    nums[..., ws] = prods.reshape(r, len(ws), c).transpose(0, 2, 1)
    return nums


def batch_from_matrices(mats: list[CycMatrix], n: int):
    """Stack matrices over their common denominator: (num, den) with num
    of shape (m, r, c, phi).

    ``num`` is int64 when every numerator fits, and otherwise an object
    array of Python ints, so stacking never wraps.
    """
    other = next((m.N for m in mats if m.N != n), n)
    if other != n:
        raise ValueError(f"conductor mismatch: {n} vs {other}")
    den = lcm(*(m.den for m in mats))
    factors = [den // m.den for m in mats]
    # a factor of 1 leaves num as it is stored, so only f > 1 can overflow
    if any(
        f > 1 and max(_max_abs(m.num), 1) * f >= _INT64 for m, f in zip(mats, factors)
    ):
        return np.stack([m.num.astype(object) * f for m, f in zip(mats, factors)]), den
    # np.stack copies, so num is stacked as stored when f = 1: no second copy
    nums = [m.num if f == 1 else m.num * f for m, f in zip(mats, factors)]
    return np.stack(nums), den


def trace_table(n: int, right: tuple, left: tuple | None = None) -> CycMatrix:
    """Entry (a, b) = tr(L_a @ R_b) of the stacked families ``left`` and
    ``right``, each (num, den) as :func:`batch_from_matrices` gives it, as
    one CycMatrix over one denominator; without ``left``, the 1 x m row of
    traces.  tr(L R) sums L[i, j] R[j, i], so the table is one kernel call.
    """
    rnum, rden = right
    if left is None:
        left = CycMatrix.identity(n, rnum.shape[1]).num[None], 1
    lnum, lden = left
    count, d, e, phi = lnum.shape
    if rnum.shape[1:3] != (e, d):
        r, c = rnum.shape[1:3]
        raise ValueError(f"cannot multiply {d}x{e} by {r}x{c}")
    # a[x, (i, j)] = L_x[i, j] and b[(i, j), y] = R_y[j, i]
    a = lnum.reshape(count, d * e, phi)
    b = rnum.transpose(2, 1, 0, 3).reshape(d * e, len(rnum), phi)
    return CycMatrix._packed(n, _products(n, a, b), lden * rden)


def packed_product_table(n: int, lnum: np.ndarray, rnum: np.ndarray) -> np.ndarray:
    """Numerators of every product of two stacked families, from one kernel call.

    ``lnum`` (count_l, d, e, phi) and ``rnum`` (count_r, e, c, phi) are
    stacks as :func:`batch_from_matrices` gives them; entry [a, b] of the
    result, shape (count_l, count_r, d, c, phi), is the numerator of
    left[a] @ right[b] over the product of the two denominators.  The rows
    of all left matrices form one left factor and the columns of all right
    matrices one right-hand side.  The kernel folds the left factor into
    an operator, so its temporaries grow with the left family: put the
    small family on the left.
    """
    count, d, e, phi = lnum.shape
    r, c = rnum.shape[1:3]
    if r != e:
        raise ValueError(f"cannot multiply {d}x{e} by {r}x{c}")
    # a[(x, i), l] = L_x[i, l] and b[l, (y, j)] = R_y[l, j]
    a = lnum.reshape(count * d, e, phi)
    b = rnum.transpose(1, 0, 2, 3).reshape(e, len(rnum) * c, phi)
    nums = _products(n, a, b).reshape(count, d, len(rnum), c, phi)
    return np.ascontiguousarray(nums.transpose(0, 2, 1, 3, 4))


def root_multiples(n: int, k: int, num: np.ndarray) -> np.ndarray:
    """zeta_k^j num[i] at [j, i], for every j < k and every i, from one
    kernel call: the k roots of unity, as 1 x 1 matrices, against every
    matrix of the stack ``num`` flattened to one row.  The result, shape
    (k, *num.shape), is over the denominator of ``num``."""
    if n % k:
        raise ValueError(f"Q(zeta_{n}) holds no primitive {k}-th root of unity")
    roots = context(n).power_table[(n // k) * np.arange(k)]
    rows = num.reshape(len(num), 1, -1, num.shape[-1])
    return packed_product_table(n, roots[:, None, None], rows).reshape(k, *num.shape)


def verify_multiplication_table(
    num: np.ndarray, den: int, table: np.ndarray, n: int, rows
) -> np.ndarray:
    """Check num[s] @ num[t] == num[table[i, t]] exactly, for s = rows[i]
    and every t; ``np.arange(count)`` as ``rows`` reads the whole table.

    ``num`` holds numerators of square matrices over the common denominator
    ``den``; a product of two entries carries den^2, so the expected side is
    the family scaled by den, computed once.  Row s runs as one kernel call
    of num[s] against the whole family, on the coordinates the family uses.
    The dtype is taken once, from the largest numerator of the family, which
    bounds every row, and from the largest expected numerator, so both sides
    are exact.  Each row's product, its gather of the expected side and the
    comparison mask are written into three buffers of the family's size,
    allocated once.  Returns the boolean (len(rows), count) array of the
    identities, True where the product is the one the table names.
    """
    count, d, _, phi = num.shape
    rows = np.asarray(rows, dtype=np.int64)
    table = np.asarray(table)
    if table.shape != (len(rows), count) or not all(
        ((0 <= a) & (a < count)).all() for a in (rows, table)
    ):
        raise ValueError(f"not a multiplication table of {count} elements")
    col = _coordinate_max(num)
    amax = int(col.max())
    dtype = _exact_dtype(max(_product_bound(n, d, amax, amax), max(amax, 1) * den))
    # the left factors also use coordinate 0, so the reached coordinates ws
    # hold the family's own: outside ws both sides are exactly 0
    left_mask = col > 0
    left_mask[0] = True
    coords = _restricted_table(n, left_mask.tobytes(), (col > 0).tobytes(), dtype)
    us, vs, ws, _ = coords
    # family[(t, j), (l, v)] = num[t, l, j, v]: its transpose is the kernel's
    # right-hand side, and the kernel's result, transposed, has its layout
    family = num.transpose(0, 2, 1, 3)
    expected = np.ascontiguousarray(family[..., ws], dtype=dtype)
    expected = expected.reshape(count, d * d * len(ws))
    expected *= den
    family = np.ascontiguousarray(family[..., vs], dtype=dtype)
    family = family.reshape(count * d, d * len(vs))
    prods = np.empty((count * d, d * len(ws)), dtype=dtype)
    gathered = np.empty_like(expected)
    same = np.empty(expected.shape, dtype=bool)
    ok = np.empty(table.shape, dtype=bool)
    for s, products, row_ok in zip(rows.tolist(), table, ok):
        _packed_products(num[s][..., us].astype(dtype), family.T, coords, out=prods.T)
        # the table was checked above; "clip" takes into out unbuffered
        np.take(expected, products, axis=0, out=gathered, mode="clip")
        np.equal(prods.reshape(expected.shape), gathered, out=same)
        same.all(axis=1, out=row_ok)
    return ok
