"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`CycNumber` is stored by its coordinates in the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), as integer numerators over a
common positive denominator, always fully reduced modulo the N-th
cyclotomic polynomial and with gcd(numerators, denominator) = 1.  That
makes equality and hashing literal tuple comparisons.

The complex embedding zeta_N -> exp(2*pi*i/N) is fixed once and for all.
``galois(k)`` is the automorphism zeta -> zeta^k for a unit k mod N;
``conj`` is ``galois(-1)``, which matches complex conjugation under that
embedding, and ``inverse`` divides the product of the other conjugates by
the rational norm, so this module needs no elimination.  ``to_complex``
exists for diagnostics only and is never used in any assertion.

A run of the verification suites at an odd prime p works in N = lcm(4, p),
which contains zeta_p, i = zeta_N^p, and (through the quadratic Gauss sum)
the square root of p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

__all__ = [
    "CycContext",
    "CycNumber",
    "context",
    "cyclotomic_polynomial",
    "gauss_sum",
    "is_odd_prime",
    "legendre_symbol",
    "root_of_unity",
    "run_conductor",
]


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def legendre_symbol(t: int, p: int) -> int:
    """(t/p) in {-1, 0, 1} for an odd prime p."""
    t %= p
    if t == 0:
        return 0
    r = pow(t, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials; den must be monic.
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        c = num[-1]
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        while num and num[-1] == 0:
            num.pop()
        if not num:
            break
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the monic polynomial Phi_n."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise RuntimeError(f"Phi_{d} does not divide x^{n}-1 exactly")
            poly = q
            while poly and poly[-1] == 0:
                poly.pop()
    return tuple(poly)


class CycContext:
    """Precomputed reduction data for one conductor N."""

    def __init__(self, n: int):
        self.N = n
        phi_poly = cyclotomic_polynomial(n)
        self.phi = len(phi_poly) - 1
        self.poly = phi_poly
        # power_table[k] = coefficients of x^k mod Phi_N for 0 <= k < N,
        # as integer vectors of length phi.
        table = np.zeros((n, self.phi), dtype=np.int64)
        cur = [0] * self.phi
        cur[0] = 1
        for k in range(n):
            table[k] = cur
            # multiply by x and reduce by the monic Phi_N
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(self.phi):
                    cur[i] -= top * phi_poly[i]
        self.power_table = table
        # folded product table: x^u * x^v reduced, as [u, v, :] -> phi vector
        idx = (np.arange(self.phi)[:, None] + np.arange(self.phi)[None, :]) % n
        self.product_table = table[idx]  # shape (phi, phi, phi)
        # sparse view for scalar multiplication with arbitrary-precision ints
        self.product_sparse = [
            [
                [(w, int(c)) for w, c in enumerate(self.product_table[u, v]) if c]
                for v in range(self.phi)
            ]
            for u in range(self.phi)
        ]
        # Galois maps sigma_k: zeta -> zeta^k for each unit k mod N, as
        # sparse tables: galois_sparse[k][j] = sigma_k(x^j) on the power basis
        self.galois_sparse = {
            k: [
                [(w, int(c)) for w, c in enumerate(table[j * k % n]) if c]
                for j in range(self.phi)
            ]
            for k in range(n)
            if gcd(k, n) == 1
        }

    def reduce_power(self, k: int) -> np.ndarray:
        return self.power_table[k % self.N]


@lru_cache(maxsize=None)
def context(n: int) -> CycContext:
    if n < 1:
        raise ValueError("conductor must be >= 1")
    return CycContext(n)


def run_conductor(p: int) -> int:
    """Ambient conductor for a run at the odd prime p: lcm(4, p) = 4p."""
    if not is_odd_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    return lcm(4, p)


def _normalize(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        nums = [-a for a in nums]
        den = -den
    g = den
    for a in nums:
        g = gcd(g, a)
        if g == 1:
            break
    if g > 1:
        nums = [a // g for a in nums]
        den //= g
    return tuple(nums), den


class CycNumber:
    """An element of Q(zeta_N), exact and immutable."""

    __slots__ = ("N", "nums", "den", "_hash")

    def __init__(self, n: int, nums, den: int = 1):
        ctx = context(n)
        nums = [int(a) for a in nums]
        if len(nums) != ctx.phi:
            raise ValueError(f"need {ctx.phi} coordinates for conductor {n}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        self.N = n
        self.nums, self.den = _normalize(nums, int(den))
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(n: int, value) -> "CycNumber":
        q = Fraction(value)
        nums = [0] * context(n).phi
        nums[0] = q.numerator
        return CycNumber(n, nums, q.denominator)

    @staticmethod
    def zero(n: int) -> "CycNumber":
        return CycNumber.from_rational(n, 0)

    @staticmethod
    def one(n: int) -> "CycNumber":
        return CycNumber.from_rational(n, 1)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.N != self.N:
                if other.is_rational():
                    return CycNumber.from_rational(self.N, other.rational_value())
                if self.is_rational():
                    raise _ConductorClash(self, other)
                raise ValueError(
                    f"conductor mismatch: {self.N} vs {other.N}"
                )
            return other
        return CycNumber.from_rational(self.N, other)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "CycNumber":
        o = self._coerce(other)
        d = lcm(self.den, o.den)
        a, b = d // self.den, d // o.den
        return CycNumber(
            self.N, [a * x + b * y for x, y in zip(self.nums, o.nums)], d
        )

    __radd__ = __add__

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.N, [-a for a in self.nums], self.den)

    def __sub__(self, other) -> "CycNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CycNumber":
        return (-self) + other

    def __mul__(self, other) -> "CycNumber":
        o = self._coerce(other)
        ctx = context(self.N)
        out = [0] * ctx.phi
        sparse = ctx.product_sparse
        for u, au in enumerate(self.nums):
            if not au:
                continue
            row = sparse[u]
            for v, bv in enumerate(o.nums):
                if not bv:
                    continue
                c = au * bv
                for w, coef in row[v]:
                    out[w] += c * coef
        return CycNumber(self.N, out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """1/a = (product of the other Galois conjugates of a) / N(a).

        The norm N(a), the product of all conjugates, is rational, so no
        elimination is needed (Cohen, GTM 138, section 4.3).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            q = 1 / self.rational_value()
            return CycNumber.from_rational(self.N, q)
        others = CycNumber.one(self.N)
        for k in context(self.N).galois_sparse:
            if k != 1:
                others = others * self.galois(k)
        norm = (self * others).rational_value()
        return others * (1 / norm)

    def __truediv__(self, other) -> "CycNumber":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "CycNumber":
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "CycNumber":
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNumber.one(self.N)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, k: int) -> "CycNumber":
        """sigma_k(self) for the automorphism zeta -> zeta^k, k a unit mod N."""
        ctx = context(self.N)
        tables = ctx.galois_sparse.get(k % self.N)
        if tables is None:
            raise ValueError(f"{k} is not a unit mod {self.N}")
        out = [0] * ctx.phi
        for j, aj in enumerate(self.nums):
            if not aj:
                continue
            for w, coef in tables[j]:
                out[w] += aj * coef
        return CycNumber(self.N, out, self.den)

    def conj(self) -> "CycNumber":
        return self.galois(-1)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(self.N, other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        if other.N != self.N:
            try:
                other = self._coerce(other)
            except ValueError:
                return False
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.N, self.nums, self.den))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        terms = []
        for k, a in enumerate(self.nums):
            if a == 0:
                continue
            q = Fraction(a, self.den)
            if k == 0:
                terms.append(str(q))
            elif k == 1:
                terms.append(f"{q}*z")
            else:
                terms.append(f"{q}*z^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.N}; {body})"

    # -- embedding / serialization ------------------------------------------

    def to_complex(self) -> complex:
        """Float image under zeta_N -> exp(2*pi*i/N).  Diagnostics only."""
        z = np.exp(2j * np.pi / self.N)
        return sum(
            float(Fraction(a, self.den)) * z**k for k, a in enumerate(self.nums)
        )

    def to_json(self) -> dict:
        return {"N": self.N, "coeffs": [[a, self.den] for a in self.nums]}


class _ConductorClash(ValueError):
    def __init__(self, a, b):
        super().__init__(f"conductor mismatch: {a.N} vs {b.N}")


def root_of_unity(n: int, k: int) -> CycNumber:
    """zeta_N^k under the fixed embedding zeta_N = exp(2*pi*i/N)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    ctx = context(n)
    return CycNumber(n, ctx.reduce_power(k).tolist())


def zeta_p(p: int, exponent: int = 1, conductor: int | None = None) -> CycNumber:
    """zeta_p^exponent inside Q(zeta_conductor); conductor defaults to 4p."""
    n = conductor if conductor is not None else run_conductor(p)
    if n % p:
        raise ValueError(f"conductor {n} does not contain zeta_{p}")
    return root_of_unity(n, (n // p) * exponent)


def imaginary_unit(conductor: int) -> CycNumber:
    """i = zeta_N^(N/4); requires 4 | N."""
    if conductor % 4:
        raise ValueError(f"conductor {conductor} does not contain i")
    return root_of_unity(conductor, conductor // 4)


def gauss_sum(p: int, conductor: int | None = None) -> CycNumber:
    """The quadratic Gauss sum g(p) = sum over t of (t/p) * zeta_p^t.

    Satisfies g(p)^2 = (-1)^((p-1)/2) * p and g(p)*conj(g(p)) = p, so under
    the fixed embedding g(p) is sqrt(p) for p = 1 mod 4 and i*sqrt(p) for
    p = 3 mod 4.
    """
    if not is_odd_prime(p):
        raise ValueError(f"gauss_sum needs an odd prime, got {p}")
    n = conductor if conductor is not None else run_conductor(p)
    out = CycNumber.zero(n)
    for t in range(1, p):
        term = zeta_p(p, t, conductor=n)
        if legendre_symbol(t, p) == 1:
            out = out + term
        else:
            out = out - term
    return out
