"""
Fibonacci ratios closing in on phi
==================================

"""

from hexphi import TRUNCATE, assess_nearest, convergent

print("F(50) =", convergent(50).fn)

# consecutive ratios F(n)/F(n-1) approach phi from alternating sides
print("n\tratio\t\tvariance from phi")
for n in range(2, 15):
    row = convergent(n)
    print(f"{n}\t{row.ratio_decimal(10, TRUNCATE)}\t{row.variance_decimal(10, TRUNCATE)}")

# one entry of that last column, on its own
print("variance at n=11:", convergent(11).variance_decimal(10, TRUNCATE))

# given a measured ratio, find the convergent it most resembles
for target in ("1.6181818181", "1.618", "1.5", "2.0"):
    nearest = assess_nearest(target)
    print(f"{target} is nearest to F({nearest.n})/F({nearest.n - 1}) = {nearest.ratio}")
