"""Square roots and vanishing twisted cohomology in congruence subgroups.

The groups are G = 1 + p^k0 M_n(Z/p^K) inside GL_n(Z/p^K) for an odd
prime p, filtered by G_i = {g = 1 mod p^(k0+i)}.  Each layer
G_i/G_(i+1) is an elementary abelian p-group where doubling is
invertible, so the layer-by-layer iteration

    x <- x * (1 + p^c * (residual / 2))

terminates after K - k0 steps with the unique square root.  That drives
both H^1_alpha(G) = 1 (every alpha-inverted element is y alpha(y)^-1
with y its square root) and the fixed-point factorization
C^alpha = A^alpha B^alpha.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from heisweil.scalar import is_odd_prime

__all__ = [
    "CongruenceGroup",
    "alpha_factor",
    "h1_alpha_trivial",
    "make_alpha",
    "sqrt_with_trace",
    "sqrt",
]


@dataclass(frozen=True)
class CongruenceGroup:
    """1 + p^k0 M_n(Z/p^K), with exact matrix arithmetic mod p^K."""

    n: int
    p: int
    K: int
    k0: int = 1

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime")
        if not (1 <= self.k0 <= self.K):
            raise ValueError("need 1 <= k0 <= K")

    @property
    def modulus(self) -> int:
        return self.p**self.K

    def identity(self) -> np.ndarray:
        return np.eye(self.n, dtype=np.int64)

    def reduce(self, m) -> np.ndarray:
        return np.array(m, dtype=np.int64) % self.modulus

    def contains(self, m) -> bool:
        m = self.reduce(m)
        return bool(
            np.all((m - self.identity()) % self.p**self.k0 == 0)
        )

    def mul(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % self.modulus

    def inv(self, a) -> np.ndarray:
        """Geometric series: (1 + m)^-1 = sum (-m)^i, finite since m is
        nilpotent mod p^K."""
        a = self.reduce(a)
        m = (a - self.identity()) % self.modulus
        out = self.identity().copy()
        term = self.identity().copy()
        steps = -(-self.K // self.k0) + 1
        for _ in range(steps):
            term = (term @ (-m)) % self.modulus
            out = (out + term) % self.modulus
        assert np.array_equal(self.mul(a, out), self.identity())
        return out

    def random_element(self, rng: random.Random) -> np.ndarray:
        scale = self.p**self.k0
        bound = self.modulus // scale
        m = np.array(
            [[rng.randrange(bound) for _ in range(self.n)] for _ in range(self.n)],
            dtype=np.int64,
        )
        return (self.identity() + scale * m) % self.modulus

    def enumerate(self, guard: int = 20_000) -> list[np.ndarray]:
        bound = self.p ** (self.K - self.k0)
        count = bound ** (self.n * self.n)
        if count > guard:
            raise ValueError(f"enumeration of {count} elements exceeds the guard")
        scale = self.p**self.k0
        out = []
        for entries in itertools.product(range(bound), repeat=self.n * self.n):
            m = np.array(entries, dtype=np.int64).reshape(self.n, self.n)
            out.append((self.identity() + scale * m) % self.modulus)
        return out

    def key(self, m) -> bytes:
        return self.reduce(m).tobytes()


def sqrt_with_trace(group: CongruenceGroup, a) -> tuple[np.ndarray, list[int]]:
    """The unique square root of a, plus the residual congruence level
    reached after each layer step.

    Each step solves 2Y = residual in the abelian layer and multiplies the
    current approximation by 1 + p^c Y; the residual level must strictly
    ascend (this is asserted, step by step).
    """
    p, K, k0 = group.p, group.K, group.k0
    a = group.reduce(a)
    if not group.contains(a):
        raise ValueError("matrix is not in the congruence group")
    inv2 = pow(2, -1, p)
    x = group.identity().copy()
    levels = []
    for c in range(k0, K):
        r = group.mul(group.inv(group.mul(x, x)), a)
        delta = (r - group.identity()) % group.modulus
        assert np.all(delta % p**c == 0), "residual level failed to ascend"
        big_r = (delta // p**c) % p
        y = (group.identity() + p**c * ((big_r * inv2) % p)) % group.modulus
        x = group.mul(x, y)
        levels.append(c + 1)
    assert np.array_equal(group.mul(x, x), a)
    assert group.contains(x)
    return x, levels


def sqrt(group: CongruenceGroup, a) -> np.ndarray:
    return sqrt_with_trace(group, a)[0]


# -- involutions -------------------------------------------------------------------


def make_alpha(group: CongruenceGroup, kind: str, perm=None, m=None):
    """Build the automorphism map; perm permutes matrix indices entrywise
    (equivalently conjugation by a permutation matrix), and may be combined
    with transpose_inverse; m is an optional inner twist from the group."""
    if kind not in ("identity", "transpose_inverse", "permutation"):
        raise ValueError(f"unknown automorphism kind {kind!r}")
    if kind == "permutation" and perm is None:
        raise ValueError("permutation kind needs perm")
    perm_arr = np.array(perm, dtype=np.int64) if perm is not None else None
    if m is not None:
        m = group.reduce(m)
        if not group.contains(m):
            raise ValueError("twist element must lie in the group")
        m_inv = group.inv(m)

    def theta0(g):
        if kind == "identity":
            out = g
        elif kind == "transpose_inverse":
            out = group.inv(g).T % group.modulus
        else:
            out = g
        if perm_arr is not None:
            out = out[np.ix_(perm_arr, perm_arr)]
        return out

    if m is None:
        return theta0

    def alpha(g):
        return group.mul(group.mul(m, theta0(g)), m_inv)

    return alpha


def _is_involution(group: CongruenceGroup, alpha, rng: random.Random, trials=40):
    for _ in range(trials):
        g = group.random_element(rng)
        if not np.array_equal(alpha(alpha(g)), group.reduce(g)):
            return False
        if not group.contains(alpha(g)):
            return False
    g1, g2 = group.random_element(rng), group.random_element(rng)
    return np.array_equal(
        alpha(group.mul(g1, g2)), group.mul(alpha(g1), alpha(g2))
    )


def h1_alpha_trivial(
    group: CongruenceGroup,
    alpha,
    mode: str = "constructive",
    witnesses: int = 100,
    seed: int = 0,
):
    """Verify Z^1_alpha = B^1_alpha.

    exhaustive: enumerate the whole group and compare the two sets.
    constructive: for random alpha-inverted z, the square root y = sqrt(z)
    satisfies z = y alpha(y)^-1 exactly (alpha commutes with sqrt by
    uniqueness of square roots).
    Returns (ok, details).
    """
    rng = random.Random(seed)
    if not _is_involution(group, alpha, rng):
        raise ValueError("alpha is not an involutive automorphism of the group")
    if mode == "exhaustive":
        els = group.enumerate()
        z1 = [
            g for g in els if np.array_equal(alpha(g), group.inv(g))
        ]
        b1 = {group.key(group.mul(g, group.inv(alpha(g)))) for g in els}
        ok = {group.key(z) for z in z1} == b1
        return ok, {"z1": len(z1), "b1": len(b1)}
    if mode != "constructive":
        raise ValueError(f"unknown mode {mode!r}")
    checked = 0
    for _ in range(witnesses):
        g = group.random_element(rng)
        z = group.mul(g, group.inv(alpha(g)))  # a generic element of B^1 < Z^1
        assert np.array_equal(alpha(z), group.inv(z))
        y = sqrt(group, z)
        if not np.array_equal(group.mul(y, group.inv(alpha(y))), z):
            return False, {"witness": z.tolist()}
        checked += 1
    return True, {"witnesses": checked}


# -- fixed-point factorization -------------------------------------------------------


def _upper_mask(n: int) -> np.ndarray:
    return np.triu(np.ones((n, n), dtype=bool))


def _lower_mask(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=bool))


def in_pattern(group: CongruenceGroup, g, pattern: str) -> bool:
    g = group.reduce(g)
    if not group.contains(g):
        return False
    if pattern == "upper":
        return bool(np.all(g[~_upper_mask(group.n)] == 0))
    if pattern == "lower":
        return bool(np.all(g[~_lower_mask(group.n)] == 0))
    if pattern == "upper_unipotent":
        return bool(
            np.all(g[~_upper_mask(group.n)] == 0)
            and np.all(np.diag(g) == 1)
        )
    if pattern == "lower_unipotent":
        return bool(
            np.all(g[~_lower_mask(group.n)] == 0)
            and np.all(np.diag(g) == 1)
        )
    if pattern == "diagonal":
        return bool(np.all(g[~np.eye(group.n, dtype=bool)] == 0))
    raise ValueError(f"unknown block pattern {pattern!r}")


def _ul_decompose(group: CongruenceGroup, c):
    """c = u . l with u unit-upper-triangular and l lower-triangular.

    Exists for every congruence element because all the pivots are units.
    """
    mod = group.modulus
    u_acc = group.identity().copy()
    work = group.reduce(c).copy()
    n = group.n
    # clear strictly-upper entries of `work` by left-multiplying with
    # inverse unit-upper eliminations, accumulating u
    for col in range(n - 1, -1, -1):
        piv = int(work[col, col])
        piv_inv = pow(piv, -1, mod)
        for row in range(col):
            f = int(work[row, col]) * piv_inv % mod
            if f:
                # row_row -= f * row_col (makes entry (row, col) zero)
                work[row] = (work[row] - f * work[col]) % mod
                # record the inverse operation in u
                e = group.identity().copy()
                e[row, col] = f
                u_acc = group.mul(u_acc, e)
    l = work
    assert in_pattern(group, u_acc, "upper_unipotent")
    assert np.all(l[~_lower_mask(n)] == 0)
    assert np.array_equal(group.mul(u_acc, l), group.reduce(c))
    return u_acc, l


def alpha_factor(group: CongruenceGroup, c, a_pattern: str, b_pattern: str, alpha):
    """Split an alpha-fixed c in AB as c = a b with a, b alpha-fixed.

    Follows the constructive cohomology argument: pick any factorization
    c = a b, observe a^-1 alpha(a) = b alpha(b)^-1 lies in
    Z^1_alpha(A ^ B), take its square root y there, and move to
    (a y, y^-1 b).
    """
    c = group.reduce(c)
    if not np.array_equal(alpha(c), c):
        raise ValueError("c must be alpha-fixed")
    a, b = _ul_decompose(group, c)
    if not (in_pattern(group, a, a_pattern) and in_pattern(group, b, b_pattern)):
        raise ValueError("c does not factor through the requested patterns")
    delta = group.mul(group.inv(a), alpha(a))
    same = group.mul(b, group.inv(alpha(b)))
    assert np.array_equal(delta, same)
    assert np.array_equal(alpha(delta), group.inv(delta))
    y = sqrt(group, delta)
    a_fixed = group.mul(a, y)
    b_fixed = group.mul(group.inv(y), b)
    assert np.array_equal(alpha(a_fixed), a_fixed)
    assert np.array_equal(alpha(b_fixed), b_fixed)
    assert np.array_equal(group.mul(a_fixed, b_fixed), c)
    if not (
        in_pattern(group, a_fixed, a_pattern)
        and in_pattern(group, b_fixed, b_pattern)
    ):
        raise AssertionError("factors left the requested block patterns")
    return a_fixed, b_fixed
