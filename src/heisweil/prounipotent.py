"""Square roots and vanishing twisted cohomology in congruence subgroups.

The groups are G = 1 + p^k0 M_n(Z/p^K) inside GL_n(Z/p^K) for an odd
prime p.  Squaring is a bijection of G, and the unique square root of a is
x = a z with z = a^(-1/2), reached by the Newton iteration

    e = a z^2 - 1,    z <- z (1 - e / 2)

from z = 1.  If e = 0 mod p^m, the next residual is -3/4 e^2 + 1/4 e^3 = 0
mod p^(2m), so the precision doubles at each step and p^K is reached after
ceil(log2(K / k0)) steps of three products each.  That drives both
H^1_alpha(G) = 1 (every alpha-inverted element is y alpha(y)^-1 with y its
square root) and the fixed-point factorization C^alpha = A^alpha B^alpha,
which :func:`alpha_factor` computes for a whole stack of alpha-fixed c at
once: a UL elimination of n (n - 1) / 2 stacked steps, one stacked square
root, and checks over the whole stack.

Small groups are listed whole: :meth:`CongruenceGroup.enumerate` stacks
every element in the order of itertools.product over the entries of
(g - 1) / p^k0, each a digit below bound = p^(K - k0), and
:meth:`CongruenceGroup.enumeration_index` inverts it: the index of g is
sum_pos digit[pos] bound^(n^2 - 1 - pos), its digits read row by row.  Both
stop at the enumeration guard, so an index fits int64 in every dtype, and a
set of elements is a boolean mask over the indices, not a set of tuples.

Every operation takes one matrix (n, n) or a stack (..., n, n).  Reduced
entries lie in [0, p^K), so a product has entries below n (p^K - 1)^2.  A
group computes in int64 only when that bound is below 2^63 and in Python
ints (``dtype=object``) otherwise, so no product wraps.  A modulus must
print: int -> str refuses an int of more than sys.get_int_max_str_digits()
digits, so a group refuses p^K >= 10^limit (:data:`_MODULUS_BOUND`, taken
once per process; a limit of 0 means none).
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from heisweil.checks import Check
from heisweil.scalar import is_odd_prime

__all__ = [
    "CongruenceGroup",
    "alpha_factor",
    "h1_alpha_trivial",
    "make_alpha",
    "sqrt_with_trace",
    "sqrt",
]


_python_ints = np.frompyfunc(operator.index, 1, 1)
_ENUMERATION_GUARD = 20_000  # the most elements enumerate() lists by default
# the digits int -> str writes (0: no limit), and the least modulus it refuses
_MAX_DIGITS = sys.get_int_max_str_digits()
_MODULUS_BOUND = 10**_MAX_DIGITS if _MAX_DIGITS else math.inf


@dataclass(frozen=True)
class CongruenceGroup:
    """1 + p^k0 M_n(Z/p^K), with exact matrix arithmetic mod p^K."""

    n: int
    p: int
    K: int
    k0: int = 1
    modulus: int = field(init=False, repr=False, compare=False)
    dtype: type = field(init=False, repr=False, compare=False)
    _one: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n = {self.n}")
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got p = {self.p}")
        if not (1 <= self.k0 <= self.K):
            raise ValueError(f"need 1 <= k0 <= K, got k0 = {self.k0}, K = {self.K}")
        # p^K >= 3^K > 10^limit once K > 3 limit, refused before the power
        too_long = self.K > 3 * _MAX_DIGITS > 0
        if too_long or (modulus := self.p**self.K) >= _MODULUS_BOUND:
            raise ValueError(
                f"modulus p^K = {self.p}^{self.K} must stay below 10^{_MAX_DIGITS}, "
                f"as int -> str writes at most {_MAX_DIGITS} digits"
            )
        dtype = np.int64 if self.n * (modulus - 1) ** 2 < 2**63 else object
        one = np.eye(self.n, dtype=dtype)  # Python ints 0 and 1 in an object array
        one.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "_one", one)

    def identity(self) -> np.ndarray:
        """The identity matrix, shared and read-only."""
        return self._one

    def reduce(self, m) -> np.ndarray:
        """Integer matrix or stack m with entries mod p^K, in the group's dtype."""
        # nested lists are read as Python ints: numpy would read a mix of
        # int64- and uint64-sized ints as float64
        arr = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
        if arr.shape[-2:] != (self.n, self.n):
            raise ValueError(
                f"expected {self.n}x{self.n} matrices, got shape {arr.shape}"
            )
        if arr is not m:
            try:
                arr = _python_ints(arr)
            except TypeError:
                raise ValueError("entries must be integers") from None
        elif arr.dtype.kind not in "iuO":
            raise ValueError(f"entries must be integers, got dtype {arr.dtype}")
        if arr.dtype != self.dtype:
            # Python ints cannot wrap, whatever the size of the input
            return (arr.astype(object) % self.modulus).astype(self.dtype)
        return arr % self.modulus

    def contains(self, m):
        """Whether m = 1 mod p^k0; one bool per matrix of a stack."""
        m = self.reduce(m)
        inside = np.all((m - self._one) % self.p**self.k0 == 0, axis=(-2, -1))
        return bool(inside) if inside.ndim == 0 else inside

    def mul(self, a, b) -> np.ndarray:
        """a b mod p^K for reduced elements; stacks broadcast."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        return (a @ b) % self.modulus

    def inv(self, a) -> np.ndarray:
        """(1 + u)^-1 = (1 - u)(1 + u^2)(1 + u^4)..., finite since
        u = a - 1 is 0 mod p^k0 and so u^j = 0 once j k0 >= K."""
        a = self.reduce(a)
        if not np.all(self.contains(a)):
            raise ValueError("matrix is not in the congruence group")
        power = (self._one - a) % self.modulus
        out = (self._one + power) % self.modulus
        terms = 2  # out is the sum of (-u)^j for j < terms
        while terms * self.k0 < self.K:
            power = self.mul(power, power)
            out = self.mul(out, (self._one + power) % self.modulus)
            terms *= 2
        if not np.array_equal(self.mul(a, out), np.broadcast_to(self._one, a.shape)):
            raise RuntimeError("inverse check failed: a * a^-1 != 1 mod p^K")
        return out

    def random_elements(self, rng: random.Random, count: int) -> np.ndarray:
        """``count`` random elements as one (count, n, n) stack, by the
        entries of (g - 1) / p^k0 drawn with ``rng.randrange`` matrix by
        matrix, row by row: the draws of ``count`` :meth:`random_element`
        calls, in their order."""
        bound = self.p ** (self.K - self.k0)
        draws = [rng.randrange(bound) for _ in range(count * self.n * self.n)]
        m = np.array(draws, dtype=self.dtype).reshape(count, self.n, self.n)
        return (self._one + self.p**self.k0 * m) % self.modulus

    def random_element(self, rng: random.Random) -> np.ndarray:
        return self.random_elements(rng, 1)[0]

    def _enumeration_bound(self, guard: int) -> int:
        """The digit bound p^(K - k0); ValueError when the group has more
        than ``guard`` elements."""
        bound = self.p ** (self.K - self.k0)
        count = bound ** (self.n * self.n)
        if count > guard:
            raise ValueError(
                f"enumeration of {count} elements exceeds the guard of {guard}"
            )
        return bound

    def enumerate(self, guard: int = _ENUMERATION_GUARD) -> np.ndarray:
        """All elements as one (count, n, n) stack, ordered like
        itertools.product over the entries of (g - 1) / p^k0."""
        bound = self._enumeration_bound(guard)
        size = self.n * self.n
        digits = np.indices((bound,) * size).reshape(size, -1).T
        m = digits.reshape(-1, self.n, self.n).astype(self.dtype)
        return (self._one + self.p**self.k0 * m) % self.modulus

    def enumeration_index(self, g) -> np.ndarray:
        """The index in :meth:`enumerate` of g, or of each matrix of a
        stack, as int64: the digits of (g - 1) / p^k0 in base p^(K - k0),
        the first entry most significant.  ValueError past the default
        guard of :meth:`enumerate`, which keeps every index in int64."""
        bound = self._enumeration_bound(_ENUMERATION_GUARD)
        scale, size = self.p**self.k0, self.n * self.n
        e = (self.reduce(g) - self._one) % self.modulus
        if (e % scale).any():
            raise ValueError("matrix is not in the congruence group")
        digits = (e // scale).reshape(*e.shape[:-2], size).astype(np.int64)
        return digits @ bound ** np.arange(size - 1, -1, -1, dtype=np.int64)


def sqrt_with_trace(group: CongruenceGroup, a) -> tuple[np.ndarray, list[int]]:
    """The unique square root of a (or of each matrix of a stack), plus the
    congruence level of the residual a z^2 - 1 reached after each step.

    Every iterate z is a polynomial in a, so a, z and e = a z^2 - 1 commute,
    and z' = z (1 - e / 2) gives a z'^2 = (1 + e)(1 - e / 2)^2
    = 1 - 3/4 e^2 + 1/4 e^3.  So e = 0 mod p^m implies e' = 0 mod p^(2m):
    the levels double from k0 up to K, for example [2, 4, 8, 16, 19] for
    k0 = 1 and K = 19, and the trace is empty when K = k0.  Every step but
    the last checks that the residual it leaves is 0 mod p^(new level);
    the root is x = a z.
    """
    p, K, mod = group.p, group.K, group.modulus
    a = group.reduce(a)
    one = group.identity()
    z, e = one, (a - one) % mod  # the residual at z = 1 needs no product
    # membership on the reduced residual: p^k0 divides p^K, so e = a - 1
    # mod p^k0
    level = group.k0
    if (e % p**level).any():
        raise ValueError("matrix is not in the congruence group")
    half = (mod + 1) // 2  # 2^-1 mod p^K
    levels = []
    while level < K:
        # e and 2^-1 are below p^K, so their product fits the group's dtype
        z = group.mul(z, (one - e * half % mod) % mod)
        level = min(2 * level, K)
        levels.append(level)
        if level < K:
            e = (group.mul(a, group.mul(z, z)) - one) % mod
            if (e % p**level).any():
                raise RuntimeError(f"residual a z^2 - 1 is not 0 mod p^{level}")
    x = group.mul(a, z)
    if not np.array_equal(group.mul(x, x), a):
        raise RuntimeError("final check failed: root^2 != a mod p^K")
    if ((x - one) % p**group.k0).any():  # x is a product, so already reduced
        raise RuntimeError("final check failed: root is not 1 mod p^k0")
    return x, levels


def sqrt(group: CongruenceGroup, a) -> np.ndarray:
    return sqrt_with_trace(group, a)[0]


# -- involutions -------------------------------------------------------------------


def make_alpha(group: CongruenceGroup, kind: str, perm=None):
    """Build the automorphism map: the identity or the transpose inverse,
    followed by ``perm`` permuting matrix indices entrywise (equivalently
    conjugation by a permutation matrix) when given.  The map acts on one
    matrix or on a stack."""
    if kind not in ("identity", "transpose_inverse"):
        raise ValueError(f"unknown automorphism kind {kind!r}")
    perm_arr = np.array(perm, dtype=np.int64) if perm is not None else None

    def alpha(g):
        if kind == "transpose_inverse":
            g = group.inv(g).swapaxes(-1, -2)
        if perm_arr is not None:
            g = g[..., perm_arr, :][..., perm_arr]
        return g

    return alpha


def _is_involution(group: CongruenceGroup, alpha, gs, images) -> bool:
    """alpha(alpha(g)) = g with alpha(g) in the group for every g of the
    stack ``gs``, whose images under alpha are ``images``, and alpha(g h) =
    alpha(g) alpha(h) for each g and the h after it (the last with the
    first)."""
    after, images_after = np.roll(gs, -1, axis=0), np.roll(images, -1, axis=0)
    return (
        np.array_equal(alpha(images), gs)
        and bool(np.all(group.contains(images)))
        and np.array_equal(alpha(group.mul(gs, after)), group.mul(images, images_after))
    )


def _involution_on_enumeration(group: CongruenceGroup, els, images):
    """The :meth:`CongruenceGroup.enumeration_index` of alpha(g) for every g
    of ``els`` = ``group.enumerate()``, whose images under alpha are
    ``images``, when alpha passes :func:`_is_involution` on them; None
    otherwise.

    The index of alpha(g), with alpha(g) equal to the element at that index,
    proves alpha(g) in the group.  Then alpha(alpha(g)) is ``images`` at
    that index, and alpha(g h), for h the element after g, is ``images`` at
    the index of g h: both identities are gathers, and alpha is never
    applied again.
    """
    try:
        image_of = group.enumeration_index(images)
    except ValueError:
        return None
    if not np.array_equal(els[image_of], images):
        return None
    if not np.array_equal(image_of[image_of], np.arange(len(els))):
        return None
    after = np.roll(els, -1, axis=0)
    products = group.enumeration_index(group.mul(els, after))
    del after
    images_after = np.roll(images, -1, axis=0)
    if not np.array_equal(images[products], group.mul(images, images_after)):
        return None
    return image_of


def h1_alpha_trivial(
    group: CongruenceGroup,
    alpha,
    mode: str = "constructive",
    witnesses: int = 100,
    seed: int = 0,
    check: Check | None = None,
):
    """Verify Z^1_alpha = B^1_alpha.

    alpha must be an involutive automorphism, or ValueError is raised.  The
    guard checks alpha(alpha(g)) = g, alpha(g) in the group and alpha(g h) =
    alpha(g) alpha(h) for h the element after g: on every element of the
    group in exhaustive mode, with no random draw
    (:func:`_involution_on_enumeration`), and on 42 random ones otherwise
    (:func:`_is_involution`).

    exhaustive: enumerate the whole group as one stack, apply alpha and
    invert once each, and read everything else off the
    :meth:`CongruenceGroup.enumeration_index` of the results: z is a cocycle
    (z alpha(z) = 1) exactly when the index of alpha(z) is that of z^-1,
    and the coboundaries g alpha(g)^-1, one product with the inverses
    gathered at the indices of the alpha(g), are marked by their indices.
    The check is that the two marks agree on every element.
    constructive: for random alpha-inverted z, the square root
    y = sqrt(z) satisfies z = y alpha(y)^-1 exactly (alpha commutes with
    sqrt by uniqueness of square roots).
    Returns (ok, details); the identities go to ``check`` when one is given.
    """
    rng = random.Random(seed)
    check = Check(f"sqrt.h1_{mode}") if check is None else check
    not_involutive = "alpha is not an involutive automorphism of the group"
    if mode == "exhaustive":
        els = group.enumerate()
        image_of = _involution_on_enumeration(group, els, alpha(els))
        if image_of is None:
            raise ValueError(not_involutive)
        inverses = group.inv(els)
        in_z1 = image_of == group.enumeration_index(inverses)
        coboundaries = group.mul(els, inverses[image_of])
        del inverses
        in_b1 = np.zeros(len(els), dtype=bool)
        in_b1[group.enumeration_index(coboundaries)] = True
        check.all(in_z1 == in_b1, lambda i: els[i].tolist())
        return check.passed, {"z1": int(in_z1.sum()), "b1": int(in_b1.sum())}
    if mode != "constructive":
        raise ValueError(f"unknown mode {mode!r}")
    # the 42 draws fix the witnesses drawn after them from the same rng
    els = group.random_elements(rng, 42)
    if not _is_involution(group, alpha, els, alpha(els)):
        raise ValueError(not_involutive)
    if witnesses < 1:
        raise ValueError(f"need at least one witness, got {witnesses}")
    gs = group.random_elements(rng, witnesses)
    z = group.mul(gs, group.inv(alpha(gs)))  # generic elements of B^1 < Z^1
    if not np.array_equal(alpha(z), group.inv(z)):
        raise RuntimeError("g alpha(g)^-1 is not alpha-inverted")
    y = sqrt(group, z)
    good = np.all(group.mul(y, group.inv(alpha(y))) == z, axis=(-2, -1))
    check.all(good, lambda i: z[i].tolist())
    if not check.passed:
        return False, {"witness": check.witness}
    return True, {"witnesses": witnesses}


# -- fixed-point factorization -------------------------------------------------------


def _upper_mask(n: int) -> np.ndarray:
    return np.triu(np.ones((n, n), dtype=bool))


def _lower_mask(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=bool))


def in_pattern(group: CongruenceGroup, g, pattern: str):
    """Whether g lies in the group and in the block pattern; one bool per
    matrix of a stack."""
    n = group.n
    zero_masks = {
        "upper": ~_upper_mask(n),
        "lower": ~_lower_mask(n),
        "upper_unipotent": ~_upper_mask(n),
        "lower_unipotent": ~_lower_mask(n),
        "diagonal": ~np.eye(n, dtype=bool),
    }
    if pattern not in zero_masks:
        raise ValueError(f"unknown block pattern {pattern!r}")
    g = group.reduce(g)
    inside = group.contains(g) & np.all(g[..., zero_masks[pattern]] == 0, axis=-1)
    if pattern.endswith("_unipotent"):
        inside &= np.all(np.diagonal(g, axis1=-2, axis2=-1) == 1, axis=-1)
    return bool(inside) if np.ndim(inside) == 0 else inside


def _ul_decompose(group: CongruenceGroup, c):
    """c = u . l with u unit-upper-triangular and l lower-triangular, for one
    matrix or a stack.

    Exists for every congruence element because all the pivots are units.
    Each elimination step runs over the whole stack at once.
    """
    mod, n = group.modulus, group.n
    c = group.reduce(c)
    work = c.reshape(-1, n, n).copy()
    u = np.broadcast_to(group.identity(), work.shape).copy()
    inverse = np.frompyfunc(lambda x: pow(int(x), -1, mod), 1, 1)  # exact
    # clear strictly-upper entries of `work` by left-multiplying with
    # inverse unit-upper eliminations, accumulating u
    for col in range(n - 1, -1, -1):
        piv_inv = inverse(work[:, col, col]).astype(group.dtype)
        for row in range(col):
            f = (work[:, row, col] * piv_inv % mod)[:, None]
            # row_row -= f * row_col (makes entry (row, col) zero)
            work[:, row] = (work[:, row] - f * work[:, col]) % mod
            # record the inverse operation: u <- u (1 + f e_(row, col))
            u[:, :, col] = (u[:, :, col] + f * u[:, :, row]) % mod
    u, l = u.reshape(c.shape), work.reshape(c.shape)
    if not np.all(in_pattern(group, u, "upper_unipotent")):
        raise RuntimeError("UL decomposition: u is not unit upper triangular")
    if not np.all(l[..., ~_lower_mask(n)] == 0):
        raise RuntimeError("UL decomposition: l is not lower triangular")
    if not np.array_equal(group.mul(u, l), c):
        raise RuntimeError("UL decomposition: u l != c")
    return u, l


def alpha_factor(group: CongruenceGroup, c, a_pattern: str, b_pattern: str, alpha):
    """Split an alpha-fixed c in AB as c = a b with a, b alpha-fixed.

    Follows the constructive cohomology argument: pick any factorization
    c = a b, observe a^-1 alpha(a) = b alpha(b)^-1 lies in
    Z^1_alpha(A ^ B), take its square root y there, and move to
    (a y, y^-1 b).  A stack of c is split at once, every step and every
    check running over the whole stack; one bad matrix fails the call.
    """
    c = group.reduce(c)
    if not np.array_equal(alpha(c), c):
        raise ValueError("c must be alpha-fixed")
    a, b = _ul_decompose(group, c)
    if not np.all(in_pattern(group, a, a_pattern) & in_pattern(group, b, b_pattern)):
        raise ValueError("c does not factor through the requested patterns")
    delta = group.mul(group.inv(a), alpha(a))
    if not np.array_equal(delta, group.mul(b, group.inv(alpha(b)))):
        raise RuntimeError("a^-1 alpha(a) != b alpha(b)^-1")
    if not np.array_equal(alpha(delta), group.inv(delta)):
        raise RuntimeError("the cocycle a^-1 alpha(a) is not alpha-inverted")
    y = sqrt(group, delta)
    a_fixed = group.mul(a, y)
    b_fixed = group.mul(group.inv(y), b)
    if not np.array_equal(alpha(a_fixed), a_fixed):
        raise RuntimeError("factor a y is not alpha-fixed")
    if not np.array_equal(alpha(b_fixed), b_fixed):
        raise RuntimeError("factor y^-1 b is not alpha-fixed")
    if not np.array_equal(group.mul(a_fixed, b_fixed), c):
        raise RuntimeError("the fixed factors do not multiply to c")
    if not np.all(
        in_pattern(group, a_fixed, a_pattern) & in_pattern(group, b_fixed, b_pattern)
    ):
        raise RuntimeError("factors left the requested block patterns")
    return a_fixed, b_fixed
