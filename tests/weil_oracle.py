"""The Weil lift one matrix at a time: the tests' reference oracle.

The package writes a lift in closed form (:func:`heisweil.weil.weil_lift`):
the normalization by one kernel call on the powers of the Fourier kernel,
then every image as one gather from a table of roots of unity, by the
quadratic-phase formula on the Bruhat cells, and the minus model as the
plus formula at the Weyl conjugates.  The reference here uses none of
that: it builds every operator of each model as its own CycMatrix, from
the point maps and phases of the transversal, selects the normalization
by evaluating the relations of each candidate, and multiplies out the
Bruhat word of every element of SL(2, p) one ``@`` per factor, with j^-1
from the elimination oracle (in the minus model n(x) is j times a lower
unipotent times j^-1).
"""

from __future__ import annotations

import numpy as np

import elimination_oracle as oracle
from heisweil.linalg import CycMatrix
from heisweil.reps import MatrixRep
from heisweil.scalar import gauss_sum, imaginary_unit, legendre_symbol
from heisweil.symplectic import (
    bruhat_factor,
    enumerate_sp,
    m_element,
    mat_det,
    mat_inv,
    n_element,
    weyl_element,
)


def levi_image(rep: MatrixRep, y) -> CycMatrix:
    """chi^M(y) times the permutation of transversal points."""
    p, n = rep.group.p, rep.conductor
    y = np.atleast_2d(np.array(y, dtype=np.int64)) % p
    sign = legendre_symbol(mat_det(y, p), p)
    labels = rep.basis_labels
    index = {t: i for i, t in enumerate(labels)}
    coeffs = np.zeros((rep.dim, rep.dim), dtype=np.int64)
    if rep.model == "plus":
        move = y.T % p  # phi(y) -> phi(tA y)
    else:
        move = mat_inv(y, p)  # phi(t) -> phi(A^-1 t)
    for t in labels:
        src = tuple(int(x) for x in (move @ np.array(t, dtype=np.int64)) % p)
        coeffs[index[t], index[src]] = sign
    return CycMatrix.from_roots(n, np.zeros_like(coeffs), coeffs)


def quadratic_phase_image(rep: MatrixRep, b, lower: bool) -> CycMatrix:
    """Diagonal phase operators for the unipotent radicals.

    plus model, n(b):        phi(y) *= zeta(k * (1/2) y.b.y)
    minus model, lower n(c): phi(t) *= zeta(k * -(1/2) t.c.t)
    """
    g = rep.group
    p, n, half = g.p, rep.conductor, g.half
    b = np.atleast_2d(np.array(b, dtype=np.int64)) % p
    labels = np.array(rep.basis_labels, dtype=np.int64).reshape(rep.dim, -1)
    q = np.einsum("ti,ij,tj->t", labels, b, labels) % p
    sign = -1 if lower else 1
    exponents = np.diag((n // p) * (sign * half * rep.zeta_exponent * q))
    return CycMatrix.from_roots(n, exponents, np.eye(rep.dim, dtype=np.int64))


def fourier_kernel(rep: MatrixRep) -> CycMatrix:
    """F[t, s] = zeta(k * s.t) on the transversal (unnormalized)."""
    g = rep.group
    p, n, k = g.p, rep.conductor, rep.zeta_exponent
    labels = np.array(rep.basis_labels, dtype=np.int64).reshape(rep.dim, -1)
    exponents = (n // p) * (k * (labels @ labels.T % p))
    return CycMatrix.from_roots(n, exponents, np.ones_like(exponents))


def normalization(tau: MatrixRep, candidates=None) -> list:
    """Every (c, j) with j = c F that satisfies j^2 = m(-1) and the braid
    relation (j b)^3 = 1, b = n(1) in the plus model and the lower
    unipotent of -1 in the minus model; c runs over ``candidates``, by
    default the distinct c^ell for c in {+-g(p)^-1, +-i g(p)^-1}."""
    p, ell, n = tau.group.p, tau.group.space.ell, tau.conductor
    eye = np.eye(ell, dtype=np.int64)
    if candidates is None:
        ginv, i = gauss_sum(p).inverse(), imaginary_unit(n)
        candidates = []
        for c in (ginv, -ginv, i * ginv, -(i * ginv)):
            if c**ell not in candidates:
                candidates.append(c**ell)
    if tau.model == "plus":
        partner = quadratic_phase_image(tau, eye, lower=False)
    else:
        partner = quadratic_phase_image(tau, -eye % p, lower=True)
    minus_one = levi_image(tau, -eye % p)
    ident = CycMatrix.identity(n, tau.dim)
    winners = []
    for c in candidates:
        j = fourier_kernel(tau).scale(c)
        braided = j @ partner
        if j @ j == minus_one and braided @ braided @ braided == ident:
            winners.append((c, j))
    return winners


def lift_images(tau: MatrixRep) -> tuple:
    """(c, images): the one normalization c of :func:`normalization`, and
    the image of every element of SL(2, p), in the order of enumerate_sp,
    as the product of the images of its Bruhat word.  Each word is checked
    to rebuild its element's matrix."""
    space = tau.group.space
    p, n = space.p, tau.conductor
    ((c, j),) = normalization(tau)
    if tau.model == "plus":
        n_img = {x: quadratic_phase_image(tau, [[x]], lower=False) for x in range(p)}
    else:
        j_inv = oracle.inverse(j)
        n_img = {
            x: j @ quadratic_phase_image(tau, [[(-x) % p]], lower=True) @ j_inv
            for x in range(p)
        }
    m_img = {y: levi_image(tau, [[y]]) for y in range(1, p)}
    images = []
    for s in enumerate_sp(space):
        big, x, y, z = (int(a) for a in bruhat_factor(space, s))
        word = [("n", x), ("j",), ("m", y), ("n", z)] if big else [("m", y), ("n", z)]
        acc, mat = CycMatrix.identity(n, tau.dim), np.eye(2, dtype=np.int64)
        for tok in word:
            if tok[0] == "j":
                acc, mat = acc @ j, mat @ weyl_element(space)
            elif tok[0] == "m":
                acc, mat = acc @ m_img[tok[1]], mat @ m_element(space, [[tok[1]]])
            else:
                acc, mat = acc @ n_img[tok[1]], mat @ n_element(space, [[tok[1]]])
        if not np.array_equal(mat % p, s):
            raise RuntimeError(f"the Bruhat word of {s.tolist()} rebuilds {mat.tolist()}")
        images.append(acc)
    return c, images
