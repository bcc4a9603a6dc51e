import cmath
import random
from fractions import Fraction

import pytest

from fmrep.cyclonum import (
    Cyclotomic,
    euler_phi,
    cyclotomic_polynomial,
    from_rational,
    rational_coordinates,
    zeta,
)
from fmrep.cyclonum import _poly_div_exact, _powers, _reduce_mod_phi
from fmrep.permcore import CertificateError

from .oracles import fraction_descent, galois_trace, polynomial_reduce_mod_phi, to_complex


def from_coordinates(coords, n):
    """The element of Q(zeta_n) with the given power-basis coordinates."""
    return Cyclotomic(n, list(coords))


def random_element(rng, n, terms=3, span=4):
    x = from_rational(0)
    for _ in range(terms):
        x = x + rng.randrange(-span, span + 1) * zeta(n, rng.randrange(n))
    return x


def test_zeta_basics():
    assert zeta(1, 0) == 1
    assert zeta(4, 1) * zeta(4, 1) == -1
    assert zeta(3, 1) + zeta(3, 2) == -1
    assert zeta(6, 1) * zeta(6, 5) == 1
    assert zeta(8, 1).conjugate() == zeta(8, 7)
    with pytest.raises(ValueError):
        zeta(0)


def test_phi_and_cyclotomic_polynomials():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 8, 9, 12)] == [1, 1, 2, 2, 4, 6, 4]
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)


def test_minimal_conductor():
    assert zeta(6, 1).n == 3  # Q(zeta_6) = Q(zeta_3)
    assert (zeta(8, 1) + zeta(8, 7)).n == 8  # sqrt(2) needs conductor 8
    assert (zeta(5, 1) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)).n == 1
    assert (zeta(12, 3)).n == 4  # = i


def test_canonical_form_idempotent():
    rng = random.Random(2)
    for _ in range(60):
        x = random_element(rng, rng.randrange(1, 25))
        again = Cyclotomic(x.n, list(x.coeffs))
        assert again.n == x.n and again.coeffs == x.coeffs


@pytest.mark.parametrize("n", [8, 9, 12, 18, 24, 27, 36])
def test_canonical_form_matches_fraction_descent(n):
    """Coefficients with non-integral rationals placed on the powers of
    zeta_m for a divisor m of n: the canonical form must agree with the
    Fraction descent and with the same coefficients built over zeta_m."""
    rng = random.Random(n)
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    for _ in range(25):
        m = rng.choice(divisors)
        small = [
            Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6, 9)))
            for _ in range(rng.randrange(1, m + 1))
        ]
        coeffs = [Fraction(0)] * n
        for i, c in enumerate(small):
            coeffs[i * (n // m)] = c
        x = Cyclotomic(n, coeffs)
        assert (x.n, list(x.coeffs)) == fraction_descent(n, _reduce_mod_phi(coeffs, n))
        assert m % x.n == 0
        y = Cyclotomic(m, small)
        assert (y.n, y.coeffs) == (x.n, x.coeffs)


def test_power_table_rows_evaluate_to_the_powers():
    """Row i of the table of zeta_n is zeta_n^i over the power basis."""
    for n in range(1, 61):
        z = cmath.exp(2j * cmath.pi / n)
        rows = _powers(n)
        assert len(rows) == n
        for i, row in enumerate(rows):
            assert all(0 <= k < euler_phi(n) for k, _ in row)
            assert abs(sum(x * z**k for k, x in row) - z**i) < 1e-9


def test_reduce_mod_phi_matches_polynomial_division():
    """Integer and Fraction lists up to length 2n, exponents past n
    included; integer lists stay integer."""
    rng = random.Random(3)
    for n in range(1, 61):
        for _ in range(8):
            length = rng.randrange(2 * n + 1)
            ints = [rng.randrange(-9, 10) for _ in range(length)]
            fractions = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(length)]
            for coeffs in (ints, fractions):
                assert _reduce_mod_phi(coeffs, n) == polynomial_reduce_mod_phi(coeffs, n)
            assert all(type(c) is int for c in _reduce_mod_phi(ints, n))


def test_poly_div_exact_certificates():
    """A divisor that leaves a remainder is caught by either check: a
    leading coefficient that does not divide (x by 2x + 1), or a nonzero
    remainder left after the quotient (x + 1 by x)."""
    assert _poly_div_exact([-1, 0, 1], [-1, 1]) == [1, 1]
    with pytest.raises(CertificateError, match=r"\[1, 2\] does not divide \[0, 1\] over Z"):
        _poly_div_exact([0, 1], [1, 2])
    with pytest.raises(CertificateError, match=r"division by \[0, 1\] leaves remainder \[1, 0\]"):
        _poly_div_exact([1, 1], [0, 1])


def test_lift_certificate():
    """zeta_3 has no coordinates over zeta_4: a conductor that does not
    divide the target is refused, not wrapped round."""
    assert zeta(3, 1)._lift(6) == [-1, 1]  # zeta_6^2 = zeta_6 - 1
    with pytest.raises(CertificateError, match=r"zeta_3 does not lie in Q\(zeta_4\)"):
        zeta(3, 1)._lift(4)


def test_gauss_period_float_sanity():
    # the period zeta_9 + zeta_9^4 + zeta_9^7 collapses exactly
    x = zeta(9, 1) + zeta(9, 4) + zeta(9, 7)
    assert x == 0
    y = zeta(9, 1) + zeta(9, 8)
    target = 2 * cmath.cos(2 * cmath.pi / 9)
    assert abs(to_complex(y) - target) < 1e-9


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randrange(1, 25)
        a, b = random_element(rng, n), random_element(rng, n, terms=2)
        c = random_element(rng, rng.randrange(1, 25), terms=2)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a - a == 0


def test_field_axioms_exhaustive_small():
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        units = [zeta(n, k) for k in range(n)]
        for a in units:
            for b in units:
                assert a * b == b * a
                for c in (units[0], units[-1]):
                    assert (a + b) * c == a * c + b * c
                    assert (a * b) * c == a * (b * c)


def test_conjugation_is_involution_and_multiplicative():
    rng = random.Random(9)
    for _ in range(50):
        a = random_element(rng, rng.randrange(1, 25))
        b = random_element(rng, rng.randrange(1, 25), terms=2)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_norm_trace_nonnegative():
    rng = random.Random(13)
    for _ in range(40):
        a = random_element(rng, rng.randrange(1, 20))
        t = galois_trace(a * a.conjugate())
        assert t >= 0
        if a != 0:
            assert t > 0


def test_rational_coordinates_examples():
    assert rational_coordinates(from_rational(5), 3) == [Fraction(5), Fraction(0)]
    a = zeta(3, 1)
    coords = rational_coordinates(a, 3)
    assert from_coordinates(coords, 3) == a


def test_rational_coordinates_roundtrip_random():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randrange(1, 25)
        a = random_element(rng, n)
        m = n * rng.randrange(1, 25 // n + 1)
        coords = rational_coordinates(a, m)
        assert len(coords) == euler_phi(m)
        assert from_coordinates(coords, m) == a


def test_rational_coordinates_conductor_error():
    with pytest.raises(ValueError):
        rational_coordinates(zeta(8, 1), 12)  # 8 does not divide 12


def test_algebraic_integer_coordinates_are_integers():
    # sums of roots of unity stay inside Z[zeta_n]
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 20)
        a = from_rational(0)
        for _ in range(4):
            a = a + zeta(n, rng.randrange(n))
        coords = rational_coordinates(a, n)
        assert all(c.denominator == 1 for c in coords)


def test_serialization_shape():
    assert str(from_rational(Fraction(-1, 2))) == "-1/2"
    assert str(zeta(4, 1)) == "E(4)^1"
    assert str(2 * zeta(8, 1) - Fraction(1, 2) * zeta(8, 3)) == "2*E(8)^1 - 1/2*E(8)^3"
    assert str(from_rational(0)) == "0"
