"""
Exact arithmetic with square roots of 3 and 5
=============================================

"""

from fractions import Fraction

from hexphi import PHI, SQRT3, SQRT5, SQRT15, NotRepresentable, QuadExt, sqrt_exact, to_decimal

# numbers are a + b*sqrt(3) + c*sqrt(5) + d*sqrt(15) with Fraction coefficients
x = QuadExt(Fraction(1, 2), 1, 0, Fraction(-2, 3))
print("x =", x)
print("x * x =", x * x)

# the golden ratio lives in this field: (1 + sqrt(5)) / 2
print("phi =", PHI)
print("phi^2 == phi + 1:", PHI * PHI == PHI + 1)  # exact, not approximate
print("phi to 10 digits:", to_decimal(PHI, 10))
print("phi to 30 digits:", to_decimal(PHI, 30))

# comparisons are decided exactly, from the signs of integer polynomials
print("sqrt(3)*sqrt(5) == sqrt(15):", SQRT3 * SQRT5 == SQRT15)
print("phi < 1.62:", PHI < Fraction(162, 100))

# square roots of rationals exist in the field only for s^2, 3s^2, 5s^2, 15s^2
print("sqrt(75) =", sqrt_exact(75))  # 75 = 3 * 5^2
try:
    sqrt_exact(2)
except NotRepresentable as exc:
    print("sqrt(2):", exc)

# division stays exact as well
inverse = (SQRT3 + 1).inverse()
print("1/(1+sqrt(3)) =", inverse)
print("check:", (SQRT3 + 1) * inverse == 1)
