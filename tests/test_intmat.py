import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import seeded
from oracles import (
    DependentBasis,
    column_echelon,
    invariant_factors,
    lattice_membership,
    reduces_to_zero,
    smith_normal_form,
)
from symtorus.intmat import (
    IntMatrix,
    elementary_symplectic,
    int_inverse,
    is_symplectic_matrix,
    j_form,
    quotient_factors,
)


def det(m):
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        minor = IntMatrix([row[:j] + row[j + 1:] for row in m.entries[1:]])
        total += (-1) ** j * m[0, j] * det(minor)
    return total


def minors_gcd_factors(m):
    """Invariant factors via gcds of k x k minors (independent oracle)."""
    rows, cols = m.rows, m.cols
    previous = 1
    factors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = IntMatrix([[m[i, j] for j in csel] for i in rsel])
                g = gcd(g, det(sub))
        if g == 0:
            factors.append(0)
            continue
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def check_decomposition(m):
    dec = smith_normal_form(m)
    assert dec.u * m * dec.v == dec.s
    assert abs(det(dec.u)) == 1
    assert abs(det(dec.v)) == 1
    diag = dec.invariant_factors()
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s[i, j] == 0
    return diag


def test_snf_relation_matrix_with_order_five_quotient():
    m = IntMatrix([[10, 0], [0, 15], [1, 1]])
    assert check_decomposition(m) == (1, 5)


def test_snf_identity():
    m = IntMatrix.identity(2)
    dec = smith_normal_form(m)
    assert dec.s == IntMatrix.identity(2)
    assert check_decomposition(m) == (1, 1)


def test_snf_diag_2_3():
    m = IntMatrix([[2, 0], [0, 3]])
    assert minors_gcd_factors(m) == (1, 6)
    assert check_decomposition(m) == (1, 6)


def test_snf_random_matches_minors_oracle():
    rng = seeded(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        assert check_decomposition(m) == minors_gcd_factors(m)


def test_snf_random_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = seeded(11)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.randint(-20, 20) for _ in range(cols)]
                   for _ in range(rows)]
        ours = [d for d in invariant_factors(IntMatrix(entries)) if d != 0]
        dm = sympy.polys.matrices.DomainMatrix.from_Matrix(
            sympy.Matrix(entries)).convert_to(sympy.ZZ)
        theirs = sorted(
            abs(int(x))
            for x in sympy.polys.matrices.normalforms.invariant_factors(dm)
            if x != 0)
        assert sorted(ours) == theirs


def test_is_symplectic_identity_and_j():
    assert is_symplectic_matrix(IntMatrix.identity(2), 1)
    assert is_symplectic_matrix(j_form(1), 1)
    assert is_symplectic_matrix(IntMatrix.identity(4), 2)


def test_is_symplectic_2x2_is_det_one():
    assert is_symplectic_matrix(IntMatrix([[1, 1], [0, 1]]), 1)
    # direct product check: for 2x2, A J A^t = det(A) J
    assert not is_symplectic_matrix(IntMatrix([[1, 0], [0, -1]]), 1)
    assert not is_symplectic_matrix(IntMatrix([[2, 0], [0, 1]]), 1)


def test_is_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        is_symplectic_matrix(IntMatrix.identity(3), 1)


def test_elementary_symplectic_transvection_case():
    assert elementary_symplectic(1, 2, 1) == IntMatrix([[1, 1], [0, 1]])
    assert elementary_symplectic(2, 1, 1) == IntMatrix([[1, 0], [1, 1]])


def test_elementary_symplectic_mixed_case_value():
    # Correction term sits at (s(j), s(i)); the transposed placement is
    # what satisfies the J identity (see the decomposition tests below).
    expected = IntMatrix([
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, -1, 0, 1],
    ])
    assert elementary_symplectic(1, 3, 2) == expected


def test_elementary_symplectic_all_satisfy_j_identity():
    for g in (1, 2, 3):
        for i, j in itertools.permutations(range(1, 2 * g + 1), 2):
            assert is_symplectic_matrix(elementary_symplectic(i, j, g), g)


def test_elementary_symplectic_bad_indices():
    with pytest.raises(ValueError):
        elementary_symplectic(1, 5, 2)
    with pytest.raises(ValueError):
        elementary_symplectic(2, 2, 2)


def test_random_generator_products_stay_symplectic():
    rng = seeded(3)
    for g in (1, 2):
        gens = [elementary_symplectic(i, j, g)
                for i, j in itertools.permutations(range(1, 2 * g + 1), 2)]
        gens += [int_inverse(m) for m in gens]
        for _ in range(25):
            word = IntMatrix.identity(2 * g)
            for _ in range(rng.randint(1, 10)):
                word = word * rng.choice(gens)
            assert is_symplectic_matrix(word, g)


def test_lattice_membership_examples():
    identity = [[1, 0], [0, 1]]
    assert lattice_membership([1, 1], identity)
    assert not lattice_membership([Fraction(1, 2), 0], identity)
    # columns (2,1) and (1,0): 2a + b = 3, a = 1  ->  a=1, b=1
    assert lattice_membership([3, 1], [[2, 1], [1, 0]])


def test_lattice_membership_dependent_basis():
    with pytest.raises(DependentBasis):
        lattice_membership([1, 1], [[1, 2], [2, 4]])


def test_lattice_membership_against_enumeration():
    rng = seeded(5)
    span = range(-5, 6)
    for _ in range(20):
        while True:
            basis = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(2)] for _ in range(2)]
            if basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0] != 0:
                break
        inside = set()
        for a in span:
            for b in span:
                v = (a * basis[0][0] + b * basis[0][1],
                     a * basis[1][0] + b * basis[1][1])
                inside.add(v)
        for v in list(inside)[:10]:
            assert lattice_membership(v, basis)
        # shifting by half of a basis column leaves the lattice
        half = (basis[0][0] / 2, basis[1][0] / 2)
        for v in list(inside)[:5]:
            shifted = (v[0] + half[0], v[1] + half[1])
            assert not lattice_membership(shifted, basis)


def test_column_echelon_and_integer_span():
    m = IntMatrix([[2, 4], [0, 6]])
    h, pivots = column_echelon(m)
    assert all(h[r][c] > 0 for r, c in pivots)
    assert all(h[r][j] == 0 for r, c in pivots for j in range(c + 1, m.cols))

    def in_span(vector, columns):
        return reduces_to_zero(vector,
                               *column_echelon(IntMatrix(zip(*columns))))

    assert in_span((2, 0), [(2, 0), (4, 6)])
    assert in_span((6, 6), [(2, 0), (4, 6)])
    assert not in_span((1, 0), [(2, 0), (4, 6)])
    # dependent columns allowed
    assert in_span((3, 3), [(1, 1), (2, 2)])
    assert not in_span((1, 0), [(1, 1), (2, 2)])


def test_int_inverse():
    m = IntMatrix([[1, 1], [0, 1]])
    assert int_inverse(m) == IntMatrix([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        int_inverse(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        int_inverse(IntMatrix([[1, 1], [1, 1]]))


@st.composite
def square_matrices(draw):
    """An n x n integer matrix, n <= 4: random entries, or unimodular as
    a product of row additions, swaps and negations."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        return IntMatrix(draw(st.lists(entries, min_size=n, max_size=n)))
    rows = [list(row) for row in IntMatrix.identity(n).entries]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(-5, 5))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_int_inverse_against_multiplication(m):
    d = det(m)
    if d == 0:
        with pytest.raises(ValueError, match="singular"):
            int_inverse(m)
    elif abs(d) != 1:
        with pytest.raises(ValueError, match="not invertible over the integ"):
            int_inverse(m)
    else:
        inv = int_inverse(m)
        identity = IntMatrix.identity(m.rows)
        assert m * inv == identity
        assert inv * m == identity


def test_int_inverse_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        int_inverse(IntMatrix([[1, 0, 0], [0, 1, 0]]))


def test_quotient_factors_match_smith_form_beside_modulus_identity():
    """Z^r / (m*Z^c + N*Z^r) is the cokernel of [m | N*I]."""
    rng = seeded(47)
    for _ in range(400):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        modulus = rng.randint(1, 72)
        m = IntMatrix([[rng.randint(-30, 30) if rng.random() < 0.6 else 0
                        for _ in range(c)] for _ in range(r)])
        beside = IntMatrix([list(row) + [modulus if k == i else 0
                                         for k in range(r)]
                            for i, row in enumerate(m.entries)])
        diag = smith_normal_form(beside).invariant_factors()
        assert quotient_factors(m, modulus) == tuple(
            d for d in diag if d >= 2), (m, modulus)


def test_quotient_factors_of_zero_and_unit_moduli():
    m = IntMatrix.zeros(3, 2)
    assert quotient_factors(m, 12) == (12, 12, 12)
    assert quotient_factors(m, 1) == ()
    with pytest.raises(ValueError):
        quotient_factors(m, 0)
