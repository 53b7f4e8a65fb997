"""Expected outputs derived without knotlab.

Every value here comes from published knot tables or from closed forms in
knot theory, evaluated with the benchmark's own integer arithmetic.  Nothing
in this module imports knotlab, so an oracle cannot inherit a defect of the
code it checks.
"""

from __future__ import annotations

from itertools import product

# Rolfsen-table values for the 15 bundled knots: Conway-normalised Alexander
# coefficients (lowest degree first), determinant, |signature|.
TEXTBOOK = {
    "3_1": ((1, -1, 1), 3, 2),
    "4_1": ((1, -3, 1), 5, 0),
    "5_1": ((1, -1, 1, -1, 1), 5, 4),
    "5_2": ((2, -3, 2), 7, 2),
    "6_1": ((2, -5, 2), 9, 0),
    "6_2": ((1, -3, 3, -3, 1), 11, 2),
    "6_3": ((1, -3, 5, -3, 1), 13, 0),
    "7_1": ((1, -1, 1, -1, 1, -1, 1), 7, 6),
    "7_2": ((3, -5, 3), 11, 2),
    "7_3": ((2, -3, 3, -3, 2), 13, 4),
    "7_4": ((4, -7, 4), 15, 2),
    "8_1": ((3, -7, 3), 13, 0),
    "8_9": ((1, -3, 5, -7, 5, -3, 1), 25, 0),
    "9_1": ((1, -1, 1, -1, 1, -1, 1, -1, 1), 9, 8),
    "10_1": ((4, -9, 4), 17, 0),
}


def normalise(coeffs):
    """Alexander coefficients up to the unit +-t^k: strip zeros, leading term positive."""
    c = list(coeffs)
    while c and c[0] == 0:
        c.pop(0)
    while c and c[-1] == 0:
        c.pop()
    if c and c[-1] < 0:
        c = [-x for x in c]
    return tuple(c)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def at_minus_one(coeffs):
    return sum(c * (-1) ** k for k, c in enumerate(coeffs))


def torus_alexander(n):
    """Delta of the (2, n) torus knot: 1 - t + t^2 - ... + t^(|n|-1)."""
    return normalise((-1) ** k for k in range(abs(n)))


def cable_alexander(companion, f):
    """Delta of the (2, f) cable: Delta_K(t^2) * Delta_T(2,f)(t)."""
    stretched = []
    for c in companion:
        stretched += [c, 0]
    return normalise(poly_mul(stretched[:-1], torus_alexander(f)))


def twist_form(m):
    """Delta of a Whitehead double with m full twists and a matching clasp."""
    return normalise((m, -(2 * m + 1), m))


def continuant(cf):
    """Numerator of the continued fraction: K(a1..an) = an*K(..a(n-1)) + K(..a(n-2))."""
    prev, cur = 1, cf[0]
    for a in cf[1:]:
        prev, cur = cur, a * cur + prev
    return cur


def grid_feasible(rows, n, top):
    """Brute force: some w in {1..top}^n with rows * w = 0?"""
    return any(
        all(sum(r[i] * w[i] for i in range(n)) == 0 for r in rows)
        for w in product(range(1, top + 1), repeat=n)
    )
