"""Integer Laurent polynomials in one variable t, with exact linear algebra.

Everything in here is exact: coefficients are Python ints, division only
happens where it is known to be exact (inverting unit pivots +-t^k, Bareiss
pivots).  No floating point.
"""

from __future__ import annotations


class LaurentPoly:
    """A Laurent polynomial sum c_k t^k with integer coefficients.

    Stored as (offset, coeffs) where coeffs[i] is the coefficient of
    t^(offset+i) and coeffs is trimmed at both ends.  The zero polynomial
    has empty coeffs and offset 0.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs=(), offset=0):
        if type(coeffs) is tuple and coeffs and coeffs[0] and coeffs[-1]:
            self.offset = offset  # already trimmed
            self.coeffs = coeffs
            return
        coeffs = tuple(coeffs)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.offset = 0
            self.coeffs = ()
        else:
            self.offset = offset + lo
            self.coeffs = coeffs[lo:hi]

    @classmethod
    def const(cls, c):
        return cls([c], 0)

    @classmethod
    def t_power(cls, k, c=1):
        return cls([c], k)

    def is_zero(self):
        return not self.coeffs

    @property
    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.offset

    @property
    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.offset + len(self.coeffs) - 1

    @property
    def span(self):
        """max exponent minus min exponent (0 for monomials)."""
        return len(self.coeffs) - 1 if self.coeffs else 0

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return LaurentPoly(tuple(-c for c in self.coeffs), self.offset)

    def _plus(self, other, s):
        """self + s * other for s = 1 or -1."""
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if s > 0 else -other
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += s * c
        return LaurentPoly(out, lo)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return LaurentPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly([c * other for c in self.coeffs], self.offset)
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return LaurentPoly(out, self.offset + other.offset)

    __rmul__ = __mul__

    def shifted(self, k):
        """Multiply by t^k."""
        return LaurentPoly(self.coeffs, self.offset + k)

    def exact_div(self, other):
        """Exact division; raises ArithmeticError if the remainder is nonzero."""
        if not other.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.coeffs:
            return LaurentPoly()
        num = list(self.coeffs)
        den = other.coeffs
        qlen = len(num) - len(den) + 1
        q = [0] * qlen
        lead = den[-1]
        for i in range(qlen - 1, -1, -1):
            c = num[i + len(den) - 1]
            if c % lead != 0:
                raise ArithmeticError("inexact Laurent division")
            qi = c // lead
            q[i] = qi
            if qi:
                for j, d in enumerate(den):
                    num[i + j] -= qi * d
        if any(num[: len(den) - 1]):
            raise ArithmeticError("inexact Laurent division")
        return LaurentPoly(q, self.offset - other.offset)

    __floordiv__ = exact_div  # so Bareiss divides exactly in both rings

    def evaluate(self, x):
        """Evaluate at an integer or Fraction x (x != 0 if offset < 0)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.offset > 0:
            acc = acc * x**self.offset
        elif self.offset < 0:
            from fractions import Fraction  # loads decimal: only a negative offset pays for it

            acc = acc * Fraction(x) ** self.offset
        return acc

    def canonical(self):
        """Normalize up to units +-t^k: minimal exponent 0, positive leading coefficient."""
        if not self.coeffs:
            return LaurentPoly()
        c = LaurentPoly(self.coeffs, 0)
        if c.coeffs[-1] < 0:
            c = -c
        return c

    def is_palindromic(self):
        """c_k == c_(span-k) for the canonical representative."""
        c = self.canonical().coeffs
        return c == tuple(reversed(c))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.offset + i
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{k}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


ONE = LaurentPoly.const(1)
T = LaurentPoly.t_power(1)


# ---------------------------------------------------------------------------
# exact determinants


def _require_square(rows):
    n = len(rows)
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"row {i} has {len(r)} entries in a {n}-row matrix")


def _bareiss(m, one):
    """Determinant of the square matrix m by fraction-free Bareiss elimination.

    Works over any integral domain whose `//` divides exactly, with `one` its
    unit: ints, and LaurentPoly (where `//` is exact_div).  Rows of m are
    overwritten.  Raises ValueError when m is not square.
    """
    _require_square(m)
    n = len(m)
    sign = 1
    prev = one
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return m[k][k]  # column k vanishes from row k down: the ring's zero
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        pkk = top[k]
        for i in range(k + 1, n):
            row = m[i]
            mik = row[k]
            for j in range(k + 1, n):
                row[j] = (pkk * row[j] - mik * top[j]) // prev
        prev = pkk
    d = m[n - 1][n - 1] if n else one
    return -d if sign < 0 else d


def det_int(rows):
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Raises ValueError when the matrix is not square.
    """
    return _bareiss([list(r) for r in rows], 1)


def det_laurent_bareiss(rows):
    """Determinant of a square LaurentPoly matrix by fraction-free Bareiss.

    All intermediate divisions are exact over Z[t, 1/t].  Cubic in the size
    with polynomial entries: det_laurent hands it only the block that unit
    pivots cannot reach, and the tests use it whole as the reference.
    Raises ValueError when the matrix is not square.
    """
    return _bareiss([[e * ONE for e in r] for r in rows], ONE)


def _unit_columns(row):
    """Columns of row's unit entries +-t^k, in the row's order."""
    return [c for c, e in row.items() if e.coeffs == (1,) or e.coeffs == (-1,)]


def _is_odd(perm):
    """True when the permutation i -> perm[i] of range(len(perm)) is odd."""
    seen = [False] * len(perm)
    parity = len(perm)  # a permutation's parity is that of n minus its cycle count
    for start in range(len(perm)):
        if not seen[start]:
            parity -= 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
    return parity % 2 == 1


def det_laurent(rows):
    """Determinant of a square LaurentPoly matrix, exact.

    Sparse elimination on unit pivots +-t^k, whose inverses are exact, chosen
    by the Markowitz least-fill rule: least (r-1)(c-1) over the live units,
    the first in row order and then in the row's own order on ties.  Every
    row of Alexander's region matrix and every Wirtinger Fox row has such
    entries.  Each live row keeps the columns of its units, recomputed only
    when an update touches the row.  The update
    row -= (row[j] / unit) * pivot row is one pass over coefficient lists per
    entry.  When no unit is left, the residual block goes to
    det_laurent_bareiss, its rows in order of span and its columns in order
    of total entry span, ties by index: Bareiss pivots down the diagonal, so
    low-degree pivots come first and keep the products small.  Once a
    pivot's column is cleared, Laplace expansion along it gives the pivot
    times its cofactor, so the determinant is the product of the pivots, the
    residual determinant, and the sign of the row and column orders that put
    the pivots first (the residual's order included), taken once at the end.
    Raises ValueError when the matrix is not square.
    """
    _require_square(rows)
    n = len(rows)
    live = []  # row index -> {column: nonzero entry}, None once pivoted
    cols = [set() for _ in range(n)]  # column -> live rows with an entry there
    for i, r in enumerate(rows):
        row = {j: e for j, e in enumerate(r) if e.coeffs}
        for j in row:
            cols[j].add(i)
        if not row:
            return LaurentPoly()
        live.append(row)
    units = [_unit_columns(row) for row in live]  # empty once pivoted
    row_order, col_order = [], []
    negative, shift = False, 0
    while True:
        best = None
        for i, us in enumerate(units):
            if not us:
                continue
            r = len(live[i]) - 1
            for j in us:
                cost = r * (len(cols[j]) - 1)
                if best is None or cost < best:
                    best, pi, pj = cost, i, j
            if best == 0:
                break  # nothing beats a pivot without fill-in
        if best is None:
            break
        row_order.append(pi)
        col_order.append(pj)
        prow = live[pi]
        live[pi] = None
        units[pi] = ()
        for c in prow:
            cols[c].discard(pi)
        unit = prow.pop(pj)
        flip = unit.coeffs[0] < 0
        negative ^= flip
        shift += unit.offset
        for k in cols[pj]:
            row = live[k]
            # row -= f * prow with f = row[pj] / unit, which clears column pj
            f = row.pop(pj)
            fc = tuple(-x for x in f.coeffs) if flip else f.coeffs
            fo = f.offset - unit.offset
            for c, e in prow.items():
                ec = e.coeffs
                lo = fo + e.offset
                size = len(fc) + len(ec) - 1
                v = row.get(c)
                if v is None:
                    out = [0] * size
                    base = 0
                else:
                    vo, vc = v.offset, v.coeffs
                    hi = max(vo + len(vc), lo + size)
                    base = lo - vo if lo > vo else 0
                    lo = min(lo, vo)
                    out = [0] * (hi - lo)
                    out[vo - lo : vo - lo + len(vc)] = vc
                for a, x in enumerate(fc):
                    for b, y in enumerate(ec):
                        out[base + a + b] -= x * y
                v = LaurentPoly(tuple(out), lo)
                if v.coeffs:
                    row[c] = v
                    cols[c].add(k)
                else:
                    del row[c]
                    cols[c].discard(k)
            if not row:
                return LaurentPoly()
            units[k] = _unit_columns(row)
    # sorted is stable: ties keep index order
    rest_rows = sorted(
        (i for i in range(n) if live[i] is not None),
        key=lambda i: max(e.offset + len(e.coeffs) - 1 for e in live[i].values())
        - min(e.offset for e in live[i].values()),
    )
    col_span = {}
    for i in rest_rows:
        for j, e in live[i].items():
            col_span[j] = col_span.get(j, 0) + len(e.coeffs) - 1
    pivoted = set(col_order)
    rest_cols = sorted((j for j in range(n) if j not in pivoted), key=lambda j: col_span.get(j, 0))
    zero = LaurentPoly()
    residual = [[live[i].get(j, zero) for j in rest_cols] for i in rest_rows]
    d = det_laurent_bareiss(residual).shifted(shift)
    # the sign of the Laplace expansions: A with its rows and columns put in
    # these orders has the pivots on its leading diagonal
    perm = [0] * n
    for i, j in zip(row_order + rest_rows, col_order + rest_cols):
        perm[i] = j
    return -d if negative != _is_odd(perm) else d


def _rescale(row, old, new):
    """Move a row of symmetric_signature from scale old to scale new, exactly."""
    if old != new:
        for c, e in row.items():
            row[c] = e * new // old


def symmetric_signature(rows):
    """Signature and determinant of a symmetric integer matrix, exact.

    The matrix comes as sparse rows: rows[i] is a dict {column: int} of row
    i's entries, where absent columns and zero values both read as 0.

    Sparse symmetric elimination (an LDL^T), on one dict per row that, by
    symmetry, is also its column, and that stores no zero.  Each step
    pivots on the nonzero diagonal entry whose row has the fewest entries,
    the first such row on ties.  When no diagonal is left, it takes the first
    off-diagonal pair (i, j) and adds row and column j to row and column i,
    a congruence of determinant 1 that makes a_ii = 2 a_ij nonzero; i then
    pivots.  By Sylvester's law of inertia the signature is the count of the
    pivots' signs; rank deficiency contributes zero.

    The elimination is fraction-free, after Bareiss (Math. Comp. 22, 1968),
    so every entry stays an int: a row's entries are its Schur complement
    entries times the scale D, the last pivot as stored, of the last step
    that touched the row.  A step with stored pivot p rescales each row it
    touches exactly, row * D // D_row, and updates a_kl to
    (p a_kl - a_k a_l) // D, which is exact by Sylvester's identity; rows it
    does not touch keep their scale.  The true pivot is p / D, so its sign
    is sign(p) sign(D).  The congruences keep the determinant, so it is the
    last stored pivot, and 0 when a row empties without pivoting.  det_int is
    the independent reference the tests hold this determinant to.

    Returns (signature, determinant).  Raises ValueError when a column is not
    an int in range(len(rows)), an entry's type is not int (bool included),
    or the rows are not symmetric.
    """
    n = len(rows)
    live = {}  # row index -> {column: nonzero int}; empty rows are dropped
    for i, r in enumerate(rows):
        if any(type(j) is not int or not 0 <= j < n for j in r):
            raise ValueError(f"row {i} has a column outside range({n})")
        if any(type(e) is not int for e in r.values()):
            raise ValueError(f"row {i} has an entry that is not an int")
        row = {j: e for j, e in r.items() if e}
        if row:
            live[i] = row
    for i, row in live.items():
        for j, e in row.items():
            if live.get(j, {}).get(i) != e:
                raise ValueError(f"entries ({i}, {j}) and ({j}, {i}) differ")
    scale = [1] * n  # per row, the stored pivot its entries are scaled by
    sig, rank, d = 0, 0, 1  # d: the last stored pivot, the scale of a touched row
    while live:
        best, size = None, n + 1
        for i, row in live.items():
            if i in row and len(row) < size:
                best, size = i, len(row)
                if size == 1:
                    break  # nothing beats a pivot without fill-in
        if best is None:
            # no diagonal left: add row and column j to row and column i = best,
            # rows i and j at scale d and each other row at its own
            best = next(iter(live))
            ri = live[best]
            j = min(ri)
            rj = live[j]
            for k in (best, j):
                _rescale(live[k], scale[k], d)
                scale[k] = d
            for k, e in rj.items():
                if k == best:
                    continue
                rk = live[k]
                v = ri.get(k, 0) + e
                if v:
                    ri[k] = v
                    rk[best] = rk.get(best, 0) + rk[j]
                else:
                    del ri[k]
                    del rk[best]
            ri[best] = 2 * ri[j]
        prow = live.pop(best)
        _rescale(prow, scale[best], d)
        p = prow.pop(best)
        sig += 1 if (p > 0) == (d > 0) else -1
        rank += 1
        touched = list(prow)
        # each touched row goes to scale p: an entry outside the pivot row's
        # columns is multiplied by p / D_row, one inside is first put at scale d
        for k in touched:
            row = live[k]
            del row[best]
            sk = scale[k]
            if sk != d or p != d:
                for c, e in row.items():
                    row[c] = e * d // sk if c in prow else e * p // sk
            scale[k] = p
        # a_kl = (p a_kl - a_k a_l) / d, each pair once, written to both triangles
        for a, k in enumerate(touched):
            row = live[k]
            f = prow[k]
            for l in touched[a:]:
                e = (p * row.get(l, 0) - f * prow[l]) // d
                if e:
                    row[l] = live[l][k] = e
                else:
                    del row[l]
                    live[l].pop(k, None)  # already gone when l == k
        for k in touched:
            if not live[k]:
                del live[k]
        d = p
    return sig, d if rank == n else 0
