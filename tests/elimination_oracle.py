"""Gauss-Jordan elimination over Q(zeta_N): the tests' reference oracle.

The package proves its linear-algebra facts without elimination: the fixed
forms of :func:`heisweil.reps.fixed_forms` by a certificate, the SL(2, 3)
inverses and determinants by 2 x 2 closed forms.  This module is the
independent reference those are compared against.  Entries are read out as
:class:`CycNumber`; one pivot loop, :func:`rref`, serves the inverse, the
determinant, the rank and the nullspace.  Fine for dimensions up to a few
dozen.
"""

from __future__ import annotations

from heisweil.groups import generators_within
from heisweil.linalg import CycMatrix
from heisweil.scalar import CycNumber


def rref(rows: list[list[CycNumber]]):
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
    return len(rref(rows)[1])


def same_row_space(rows_a, rows_b) -> bool:
    ra = row_space_rank(rows_a)
    rb = row_space_rank(rows_b)
    return ra == rb == row_space_rank(list(rows_a) + list(rows_b))


def nullspace(rows: list[list[CycNumber]], n: int, ncols: int):
    """Basis of {v : rows @ v = 0}, as column vectors (lists)."""
    red, pivots, _ = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [CycNumber.zero(n) for _ in range(ncols)]
        vec[j] = CycNumber.one(n)
        for r, pcol in zip(red, pivots):
            vec[pcol] = -r[j]
        basis.append(vec)
    return basis


def inverse(m: CycMatrix) -> CycMatrix:
    if m.nrows != m.ncols:
        raise ValueError(f"inverse of a non-square {m.nrows}x{m.ncols} matrix")
    d = m.nrows
    aug = [r + e for r, e in zip(m.rows, CycMatrix.identity(m.N, d).rows)]
    red, pivots, _ = rref(aug)
    if pivots != list(range(d)):
        raise ZeroDivisionError("singular matrix")
    return CycMatrix(m.N, [row[d:] for row in red])


def det(m: CycMatrix) -> CycNumber:
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of a non-square {m.nrows}x{m.ncols} matrix")
    if not m.nrows:
        return CycNumber.one(m.N)
    _, pivots, d = rref(m.rows)
    return d if len(pivots) == m.nrows else CycNumber.zero(m.N)


def fixed_form_space(rep, generators) -> list[list[CycNumber]]:
    """Hom_K(rep, 1) as a nullspace: the rows lambda with
    lambda rep(k) = lambda for each k in ``generators`` of K."""
    n, eye = rep.conductor, CycMatrix.identity(rep.conductor, rep.dim)
    stacked = []
    for k in generators:
        stacked.extend((rep.image(k).transpose() - eye).rows)
    return nullspace(stacked, n, rep.dim)


def spans_fixed_forms(rep, subgroup, basis: CycMatrix) -> bool:
    """Whether the rows of ``basis`` are nonzero, independent, and span
    the nullspace Hom_K(rep, 1), K = ``subgroup``."""
    null = fixed_form_space(rep, generators_within(rep.group, subgroup))
    rows = basis.rows
    return (
        all(any(not c.is_zero() for c in r) for r in rows)
        and row_space_rank(rows) == len(rows) == len(null)
        and same_row_space(rows, null)
    )
