"""Exact Laurent polynomial arithmetic and determinant backends."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotlab import laurent
from knotlab.constructions import DoubleSpec, cable2, rational_knot, torus_2n, whitehead_double
from knotlab.diagram import parse_pd
from knotlab.invariants import _goeritz, _region_minor, alexander_matrix
from knotlab.knotdb import bundled_table
from knotlab.moves import reidemeister_perturb
from knotlab.laurent import (
    LaurentPoly,
    det_int,
    det_laurent,
    det_laurent_bareiss,
    symmetric_signature,
)

coeff = st.integers(min_value=-9, max_value=9)
poly = st.builds(
    LaurentPoly,
    st.lists(coeff, min_size=0, max_size=6),
    st.integers(min_value=-4, max_value=4),
)


def _assert_trimmed(p):
    """Equal to the same terms built through trimming, so nonzero at both
    ends, and offset 0 when zero."""
    assert p == LaurentPoly(list(p.coeffs), p.offset), p


@given(poly, poly, st.integers(min_value=-4, max_value=4))
def test_results_are_trimmed(p, q, k):
    results = [p + q, p - q, p - p, p - 2, 2 - p, p * q, p * k, -p, p.shifted(k)]
    if q:
        results.append((p * q).exact_div(q))
    for r in results:
        _assert_trimmed(r)


@given(st.lists(coeff, max_size=6), st.integers(min_value=-4, max_value=4))
def test_tuple_input_is_trimmed_like_a_list(cs, k):
    p = LaurentPoly(tuple(cs), k)
    _assert_trimmed(p)
    assert p == LaurentPoly(cs, k)


@given(poly, poly)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(poly, poly, poly)
def test_mul_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(poly, poly, st.integers(min_value=-3, max_value=3))
def test_evaluate_is_a_homomorphism(p, q, x):
    if x == 0 and (p.offset < 0 or q.offset < 0):
        return  # negative powers undefined at 0
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


@given(poly, st.integers(min_value=-4, max_value=4))
def test_shift_multiplies_by_t_power(p, k):
    assert p.shifted(k) == p * LaurentPoly.t_power(k)


@given(poly)
def test_canonical_form(p):
    c = p.canonical()
    if not p.is_zero():
        assert c.min_exp == 0
        assert c.coeffs[-1] > 0
        assert c.canonical() == c


def test_palindromic():
    assert LaurentPoly([1, -3, 1]).is_palindromic()
    assert LaurentPoly([2, -5, 2], -1).is_palindromic()
    assert not LaurentPoly([1, -3, 2]).is_palindromic()


def test_exact_div():
    p = LaurentPoly([1, -1, 1], -1)
    q = LaurentPoly([2, 0, -2], 3)
    assert (p * q).exact_div(q) == p
    with pytest.raises(ArithmeticError):
        LaurentPoly([1, 1]).exact_div(LaurentPoly([1, 1, 1]))


def test_exact_div_refuses_a_remainder_and_a_zero_divisor():
    one_plus_t, one_plus_2t = LaurentPoly([1, 1]), LaurentPoly([1, 2])
    # a leading coefficient the divisor's does not divide, then a nonzero remainder
    for num, den in ((one_plus_t, one_plus_2t), (one_plus_2t, one_plus_t)):
        with pytest.raises(ArithmeticError, match="^inexact Laurent division$"):
            num.exact_div(den)
    with pytest.raises(ZeroDivisionError):
        one_plus_t.exact_div(LaurentPoly())


def _rand_int_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _det_fraction_gauss(rows):
    """Reference determinant by fraction-based Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    assert det.denominator == 1
    return int(det)


def test_det_int_matches_fraction_gauss():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 6)
        rows = _rand_int_matrix(rng, n)
        assert det_int(rows) == _det_fraction_gauss(rows), rows


def _rand_laurent_matrix(rng, n):
    def entry():
        return LaurentPoly(
            [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))], rng.randint(-2, 2)
        )

    return [[entry() for _ in range(n)] for _ in range(n)]


def _unit_rich_entry(rng):
    """Zero, a unit +-t^k, or a general polynomial, in roughly 3:4:3 proportion."""
    r = rng.random()
    if r < 0.3:
        return LaurentPoly()
    if r < 0.7:
        return LaurentPoly.t_power(rng.randint(-3, 3), rng.choice((1, -1)))
    return LaurentPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))], rng.randint(-2, 2))


def _even_entry(rng):
    """A polynomial with even coefficients (maybe zero), which no elimination makes a unit."""
    return LaurentPoly([2 * rng.randint(-2, 2) for _ in range(rng.randint(1, 3))], rng.randint(-2, 2))


def _permuted_block_matrix(rng, k, m):
    """[[U, X], [0, Y]] with unit-rich U and even X, Y, rows and columns shuffled.

    Every pivot lands in U and no pivot column meets the Y rows, so the
    Bareiss residual holds at least the m x m block Y.
    """
    n = k + m
    rows = [[_unit_rich_entry(rng) for _ in range(k)] + [_even_entry(rng) for _ in range(m)]
            for _ in range(k)]
    rows += [[LaurentPoly()] * k + [_even_entry(rng) for _ in range(m)] for _ in range(m)]
    row_order = rng.sample(range(n), n)
    col_order = rng.sample(range(n), n)
    return [[rows[i][j] for j in col_order] for i in row_order]


@pytest.fixture
def residuals(monkeypatch):
    """Sizes of the blocks det_laurent hands to Bareiss, in call order."""
    sizes = []

    def recording_bareiss(rows):
        sizes.append(len(rows))
        return det_laurent_bareiss(rows)

    monkeypatch.setattr(laurent, "det_laurent_bareiss", recording_bareiss)
    return sizes


def test_det_laurent_matches_bareiss_reference(residuals):
    """Unit-pivot elimination and plain fraction-free Bareiss must agree."""
    rng = random.Random(11)
    cases = [_rand_laurent_matrix(rng, rng.randint(1, 5)) for _ in range(40)]
    for _ in range(150):
        n = rng.randint(1, 6)
        cases.append([[_unit_rich_entry(rng) for _ in range(n)] for _ in range(n)])
    for _ in range(60):
        cases.append(_permuted_block_matrix(rng, rng.randint(1, 5), rng.randint(1, 3)))
    pd = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")
    for seed in range(4):
        fox = alexander_matrix(reidemeister_perturb(pd, moves=8, seed=seed))
        cases.append([row[1:] for row in fox[:-1]])
        cases.append([row[:-1] for row in fox[1:]])
    for trial, rows in enumerate(cases):
        assert det_laurent(rows) == det_laurent_bareiss(rows), (trial, rows)
    assert 0 in residuals and max(residuals) >= 3


def _fox_minor(pd):
    """A Fox minor of alexander_matrix: column 0 and the last row dropped."""
    return [row[1:] for row in alexander_matrix(pd)[:-1]]


@pytest.mark.parametrize(
    "build, residual",
    [
        (lambda: torus_2n(29), 1),
        (lambda: torus_2n(-29), 1),
        (lambda: rational_knot([3, 7, 11, 9, 20]), 1),
        (lambda: cable2(torus_2n(5), 9), 4),
        (lambda: whitehead_double(DoubleSpec(torus_2n(5), 7, 1)), 2),
    ],
    ids=["torus29", "torus-29", "rational50", "cable21", "double26"],
)
def test_det_laurent_at_benchmark_sizes(residuals, build, residual):
    """Benchmark-size Fox minors; the pinned residual size pins the pivot rule."""
    rows = _fox_minor(build())
    assert det_laurent(rows) == det_laurent_bareiss(rows)
    assert residuals == [residual]


def test_det_laurent_iterated_cable(residuals):
    """81 crossings; (2, 1) cables take Delta(t) to Delta(t^2), so the
    trefoil's 1 - t + t^2 becomes 1 - t^4 + t^8."""
    rows = _fox_minor(cable2(cable2(torus_2n(3), 1), 1))
    assert det_laurent(rows).canonical() == LaurentPoly([1, 0, 0, 0, -1, 0, 0, 0, 1])
    assert residuals == [7]


def test_det_laurent_triple_cable(residuals):
    """353 crossings; a third (2, 1) cable gives 1 - t^8 + t^16.  The
    15 x 15 residual goes to Bareiss in span order, and the exact unit,
    sign included, pins the parity that absorbs the reordering."""
    rows = _fox_minor(cable2(cable2(cable2(torus_2n(3), 1), 1), 1))
    d = det_laurent(rows)
    assert d.canonical() == LaurentPoly([1] + [0] * 7 + [-1] + [0] * 7 + [1])
    assert d == LaurentPoly([-1] + [0] * 7 + [1] + [0] * 7 + [-1], 175)
    assert residuals == [15]


@pytest.mark.parametrize(
    "folds, residual",
    [(2, 3), (3, 6)],
    ids=["double", "triple"],
)
def test_det_laurent_region_minor_of_cables(residuals, folds, residual):
    """Alexander's region matrix, the default Alexander route, has only unit
    entries on a diagram without nugatory crossings, so unit pivots leave a
    smaller Bareiss residual than the Fox minor's 7 and 15 on the same
    cables; the pinned size pins the deleted faces and the pivot rule
    together."""
    pd = torus_2n(3)
    for _ in range(folds):
        pd = cable2(pd, 1)
    stretch = 2 ** folds
    d = det_laurent(_region_minor(pd))
    assert d.canonical() == LaurentPoly([1] + [0] * (stretch - 1) + [-1] + [0] * (stretch - 1) + [1])
    assert residuals == [residual]


def test_det_laurent_known_values():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.const(1)
    assert det_laurent([[t]]) == t
    assert det_laurent([[t, one], [one, t]]) == t * t - one
    assert det_laurent([]) == one


@pytest.mark.parametrize(
    "det, rows, message",
    [
        (det_int, [[1, 2]], "row 0 has 2 entries in a 1-row matrix"),
        (det_int, [[1], [2, 3]], "row 0 has 1 entries in a 2-row matrix"),
        (det_laurent_bareiss, [[1, 2], [3]], "row 1 has 1 entries in a 2-row matrix"),
        (det_laurent_bareiss, [[1], [2]], "row 0 has 1 entries in a 2-row matrix"),
        (det_laurent, [[1, 2], [3]], "row 1 has 1 entries in a 2-row matrix"),
        (det_laurent, [[1], [2]], "row 0 has 1 entries in a 2-row matrix"),
        (det_laurent, [[0, 0], [1, 2, 3]], "row 1 has 3 entries in a 2-row matrix"),
    ],
)
def test_determinants_reject_non_square(det, rows, message):
    with pytest.raises(ValueError, match=message):
        det(rows)


def _sparse(rows):
    """The sparse rows symmetric_signature reads, from a dense matrix."""
    return [{j: e for j, e in enumerate(r) if e} for r in rows]


def test_symmetric_signature_known_forms():
    """(signature, determinant) of small forms."""
    assert symmetric_signature(_sparse([[1]])) == (1, 1)
    assert symmetric_signature(_sparse([[-1]])) == (-1, -1)
    assert symmetric_signature(_sparse([[2, 0], [0, -3]])) == (0, -6)
    # hyperbolic pair: zero diagonal, off-diagonal coupling
    assert symmetric_signature(_sparse([[0, 1], [1, 0]])) == (0, -1)
    assert symmetric_signature(_sparse([[0, 0], [0, 0]])) == (0, 0)
    assert symmetric_signature(_sparse([[2, 1], [1, 2]])) == (2, 3)
    # adding row 1 to row 0 cancels entry (0, 2)
    assert symmetric_signature(_sparse([[0, 1, 1], [1, 0, -1], [1, -1, 0]])) == (1, -2)
    assert symmetric_signature([]) == (0, 1)


def test_symmetric_signature_random_congruence():
    """Signature and determinant are invariant under congruence by
    unimodular matrices."""
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randint(1, 5)
        a = _rand_int_matrix(rng, n, -4, 4)
        sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        base = symmetric_signature(_sparse(sym))
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += c * u[j][k]
        m = [[sum(u[i][k] * sym[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
        m = [[sum(m[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
        assert symmetric_signature(_sparse(m)) == base, (trial, sym)


def _dense_signature(rows):
    """Reference signature by dense congruence diagonalization over Q."""
    n = len(rows)
    m = [[Fraction(e) for e in r] for r in rows]
    sig = 0
    for k in range(n):
        if m[k][k] == 0:
            # look for a later nonzero diagonal entry to swap in
            swapped = False
            for i in range(k + 1, n):
                if m[i][i] != 0:
                    m[k], m[i] = m[i], m[k]
                    for r in m:
                        r[k], r[i] = r[i], r[k]
                    swapped = True
                    break
            if not swapped:
                # all remaining diagonal entries vanish; use a hyperbolic pair
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if m[i][j] != 0:
                            found = (i, j)
                            break
                    if found:
                        break
                if not found:
                    break  # remaining block is zero
                i, j = found
                # basis change e_i <- e_i + e_j makes the (i,i) entry 2*m[i][j]
                for r in m:
                    r[i] += r[j]
                row_j = m[j]
                for col in range(n):
                    m[i][col] += row_j[col]
                if i != k:
                    m[k], m[i] = m[i], m[k]
                    for r in m:
                        r[k], r[i] = r[i], r[k]
        pivot = m[k][k]
        if pivot == 0:
            continue
        sig += 1 if pivot > 0 else -1
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
                for j in range(k, n):
                    m[j][i] -= f * m[j][k]
    return sig


def _rand_symmetric(rng, n):
    """Sparse symmetric integer matrix; two in three have a zero diagonal, so
    that elimination needs its congruence step, and some have an all-zero block."""
    zero_diagonal = rng.random() < 2 / 3
    dead = set(rng.sample(range(n), rng.randint(0, n // 2))) if n else set()
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or (i in dead and j in dead):
                continue
            if rng.random() < 0.4:
                m[i][j] = m[j][i] = rng.randint(-3, 3)
    return m


def test_symmetric_signature_matches_dense_reference():
    rng = random.Random(5)
    cases = [_rand_symmetric(rng, rng.randint(0, 9)) for _ in range(1500)]
    cases += [[[0] * 4 for _ in range(4)], [[1, 1], [1, 1]], [[0, 2, 0], [2, 0, 0], [0, 0, 0]]]
    # larger zero-diagonal forms, where the congruence step also runs after fill-in
    for _ in range(40):
        rows = _rand_symmetric(rng, rng.randint(10, 30))
        for i, row in enumerate(rows):
            row[i] = 0
        cases.append(rows)
    for rec in bundled_table():
        for seed in range(3):
            pd = reidemeister_perturb(rec.pd, moves=12, seed=seed)
            for color in ("white", "black"):
                form = _goeritz(pd, color)[0]
                cases.append([[r.get(j, 0) for j in range(len(form))] for r in form])
    for trial, rows in enumerate(cases):
        want = (_dense_signature(rows), det_int(rows))
        assert symmetric_signature(_sparse(rows)) == want, (trial, rows)


def test_symmetric_signature_rejects_malformed():
    with pytest.raises(ValueError, match="differ"):
        symmetric_signature(_sparse([[1, 2], [3, 1]]))
    with pytest.raises(ValueError, match="outside range"):
        symmetric_signature([{0: 1}, {2: 1}])
    with pytest.raises(ValueError, match="outside range"):
        symmetric_signature([{0: 1, "1": 2}, {0: 2}])
    # an entry must be an int: a float or a string used to give a wrong determinant
    for bad in (0.5, "1", True):
        with pytest.raises(ValueError, match="^row 1 has an entry that is not an int"):
            symmetric_signature([{0: 1}, {1: bad}])
    with pytest.raises(ValueError, match="^row 0 has an entry that is not an int"):
        symmetric_signature([{0: 0.5}])
    with pytest.raises(ValueError, match="^row 0 has an entry that is not an int"):
        symmetric_signature([{0: "1"}])
