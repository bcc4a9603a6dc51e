"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored over the power basis 1, z, ..., z^(phi(n)-1) of
Q(zeta_n), i.e. canonically reduced modulo the cyclotomic polynomial
Phi_n, and the conductor n is always minimal for the element.  That
makes the representation unique, so equality is plain coordinate
equality.  Coefficients are exact rationals; no floating point enters
the arithmetic (floats appear only in the complex-evaluation sanity
helper).

Reduction modulo Phi_n, lifts, descent rows and coordinates are all
sums of rows of one cached table per conductor n, the powers zeta_n^i
for 0 <= i < n.  Mixed arithmetic lifts to the lcm of the two
conductors, never to a fixed global conductor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intlin import solve_integer
from .permcore import CertificateError

__all__ = [
    "Cyclotomic",
    "zeta",
    "from_rational",
    "rational_coordinates",
    "integer_coordinates",
    "euler_phi",
    "prime_divisors",
    "cyclotomic_polynomial",
    "signed_sum",
]


@lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending, by trial division."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in prime_divisors(n):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first (integers, monic)."""
    # x^n - 1 divided by Phi_d for all proper divisors d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (lowest degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise CertificateError(f"{den} does not divide {num} over Z")
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise CertificateError(f"division by {den} leaves remainder {num}")
    return out


@lru_cache(maxsize=None)
def _powers(n: int):
    """Power-basis rows of zeta_n^i, 0 <= i < n, as the (index, integer)
    pairs of their nonzero entries: each row is the previous one times
    zeta, with zeta^phi(n) rewritten through Phi_n."""
    poly = cyclotomic_polynomial(n)
    row = [1] + [0] * (euler_phi(n) - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((k, x) for k, x in enumerate(row) if x))
        top, row = row[-1], [0] + row[:-1]
        row = [x - top * c for x, c in zip(row, poly)]
    return tuple(rows)


def _over(coeffs, n, m):
    """sum_i coeffs[i] * zeta_m^i over the power basis of zeta_n, m | n: a
    sum of _powers(n) rows in the coefficients' own type, so integers stay
    integers.  Exponents wrap at n, as zeta_n^n = 1."""
    out, rows, step = [0] * euler_phi(n), _powers(n), n // m
    for i, c in enumerate(coeffs):
        if c:
            for k, x in rows[step * i % n]:
                out[k] += c * x
    return out


def _reduce_mod_phi(coeffs, n):
    """Reduce a coefficient list (exponents of zeta_n) modulo Phi_n."""
    return _over(coeffs, n, n)


@lru_cache(maxsize=None)
def _descent_matrix(n: int, m: int):
    """Integer rows: power-basis coordinates over zeta_n of zeta_m^i, i < phi(m)."""
    return [_over([0] * i + [1], n, m) for i in range(euler_phi(m))]


class Cyclotomic:
    """An element of some Q(zeta_n), canonically reduced.

    The constructor reduces a coefficient list over the powers of zeta_n,
    of any length, modulo Phi_n and to the minimal conductor; with
    _reduced=True it stores already canonical data as given.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs, _reduced=False):
        if not _reduced:
            coeffs = _reduce_mod_phi(coeffs, n)
            n, coeffs = _canonicalize(n, coeffs)
        self.n = n
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def rational_value(self):
        if self.n != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, n):
        """Coefficient list of self over the power basis of zeta_n."""
        if n % self.n:
            raise CertificateError(f"zeta_{self.n} does not lie in Q(zeta_{n})")
        return _over(self.coeffs, n, self.n)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        n = self.n * other.n // gcd(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        return Cyclotomic(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-c for c in self.coeffs], _reduced=True)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, [c * other for c in self.coeffs], _reduced=True)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        n = self.n * other.n // gcd(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(n, prod)

    __rmul__ = __mul__

    def galois(self, t):
        """Image under zeta_n -> zeta_n^t; t must be coprime to the conductor."""
        if self.n == 1:
            return self
        if gcd(t, self.n) != 1:
            raise ValueError(f"galois exponent {t} not coprime to {self.n}")
        t %= self.n
        coeffs = [Fraction(0)] * self.n
        for i, c in enumerate(self.coeffs):
            coeffs[(i * t) % self.n] += c
        return Cyclotomic(self.n, coeffs)

    def conjugate(self):
        """Complex conjugation zeta_n^k -> zeta_n^(n-k)."""
        if self.n <= 2:
            return self
        return self.galois(self.n - 1)

    # -- display ------------------------------------------------------------

    def __str__(self):
        return signed_sum((c, f"E({self.n})^{i}" if i else "") for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self})"


def signed_sum(terms):
    """Text of a sum over (coefficient, name) terms, e.g. "2 - E(8)^1 +
    3*E(8)^2": zero terms are left out, a coefficient 1 is not written,
    and an empty name is the constant term.  No terms give "0"."""
    out = ""
    for c, name in terms:
        if not c:
            continue
        text = f"{abs(c)}*{name}" if name and abs(c) != 1 else name or str(abs(c))
        if out:
            out += (" - " if c < 0 else " + ") + text
        else:
            out = ("-" if c < 0 else "") + text
    return out or "0"


def _canonicalize(n, coeffs):
    """Minimal-conductor form of a reduced coefficient list.

    The value lies in Q(zeta_m), m = n/p, iff its coordinates, scaled by
    the lcm of their denominators, are an integer combination of the
    descent rows: Z[zeta_m] is the ring of integers of Q(zeta_m), so
    Q(zeta_m) meets Z[zeta_n] exactly in Z[zeta_m].
    """
    coeffs = [Fraction(c) for c in coeffs]
    while n > 1:
        scale = lcm(*(c.denominator for c in coeffs))
        target = [c.numerator * (scale // c.denominator) for c in coeffs]
        for p in prime_divisors(n):
            sol = solve_integer(_descent_matrix(n, n // p), target)
            if sol is not None:
                n, coeffs = n // p, [Fraction(x, scale) for x in sol]
                break
        else:
            break
    return n, coeffs


def zeta(n, k=1):
    """The root of unity e^(2 pi i k / n), canonically reduced."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic(n, [0] * (k % n) + [1])


def from_rational(x):
    return Cyclotomic(1, [Fraction(x)], _reduced=True)


def rational_coordinates(a, n):
    """Coordinates of `a` over the power basis of Q(zeta_n); the
    conductor of `a` must divide n."""
    if n % a.n != 0:
        raise ValueError(f"conductor {a.n} does not divide {n}")
    return a._lift(n)


def integer_coordinates(value, n):
    """Integer coordinates of `value` over the power basis of Z[zeta_n]."""
    if n % value.n or any(c.denominator != 1 for c in value.coeffs):
        raise CertificateError(f"character value {value} is not in Z[zeta_{n}]")
    return _over([c.numerator for c in value.coeffs], n, value.n)
