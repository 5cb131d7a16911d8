from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import lagrangian_oracle, lagrangian_pairs, seeded, stepwise_tau
from oracles import (
    fraction_extend_tau,
    fraction_holonomies_agree,
    fraction_same_lattice,
    fraction_tau_at,
    fraction_validate_cocycle,
    lattice_membership,
)
from symtorus.errors import PrerequisiteMismatch
from symtorus.lagrangian import (
    LagrangianFreeIngredients,
    NilElement,
    cocycle,
    extend_tau,
    group_law,
    holonomies_agree,
    holonomy_equivalent,
    iota,
    lagrangian_equal,
    same_lattice,
    model_form_eval,
    model_form_matrix,
    validate_cocycle,
)
from symtorus.torus import TorusElement

HALF = Fraction(1, 2)
ID_BASIS = ((1, 0), (0, 1))


def T(*coords):
    return TorusElement(coords)


def rand_frac(rng, den=6):
    return Fraction(rng.randint(-6, 6), rng.randint(1, den))


def make(p_basis=ID_BASIS, c=(0, 0), tau=None):
    if tau is None:
        tau = (T(0, 0), T(0, 0))
    return LagrangianFreeIngredients(p_basis, c, tau)


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        make(p_basis=((1, 2), (2, 4)))


def test_validate_cocycle_zero():
    assert validate_cocycle(make())


def test_validate_cocycle_integral_value():
    assert validate_cocycle(make(c=(1, 0)))


def test_validate_cocycle_rejects_half_integral():
    assert not validate_cocycle(make(c=(HALF, 0)))


def test_validate_cocycle_scales_with_basis_determinant():
    # det of basis (2,0),(0,1) is 2, so c = (1/2, 0) becomes integral on P
    assert validate_cocycle(make(p_basis=((2, 0), (0, 1)), c=(HALF, 0)))


def test_group_law_componentwise_when_cocycle_vanishes():
    x = NilElement(T(Fraction(1, 3), 0), (1, 2))
    y = NilElement(T(Fraction(1, 3), HALF), (3, 4))
    out = group_law(x, y, (0, 0))
    assert out.t == T(Fraction(2, 3), HALF)
    assert out.zeta == (Fraction(4), Fraction(6))


def test_group_law_coordinate_basis_example():
    x = NilElement(T(0, 0), (1, 0))
    y = NilElement(T(0, 0), (0, 1))
    out = group_law(x, y, (1, 0))
    assert out.t == T(HALF, 0)
    assert out.zeta == (Fraction(1), Fraction(1))


def test_group_law_commutator_defect_is_integral_on_lattice():
    rng = seeded(3)
    for _ in range(20):
        c_value = (rng.randint(-2, 2), rng.randint(-2, 2))
        zx = (rng.randint(-3, 3), rng.randint(-3, 3))
        zy = (rng.randint(-3, 3), rng.randint(-3, 3))
        x = NilElement(T(rand_frac(rng) % 1, rand_frac(rng) % 1), zx)
        y = NilElement(T(rand_frac(rng) % 1, rand_frac(rng) % 1), zy)
        xy = group_law(x, y, c_value)
        yx = group_law(y, x, c_value)
        assert xy.zeta == yx.zeta
        # defect exp(-c(zx, zy)) is the identity for integral c on Z^2
        assert xy.t == yx.t - TorusElement(cocycle(c_value, zx, zy))
        assert xy.t == yx.t


def test_group_law_associative_with_identity_and_inverse():
    rng = seeded(5)
    for _ in range(100):
        c_value = (rand_frac(rng), rand_frac(rng))
        elems = []
        for _ in range(3):
            elems.append(NilElement(
                T(rand_frac(rng) % 1, rand_frac(rng) % 1),
                (rand_frac(rng), rand_frac(rng))))
        x, y, z = elems
        left = group_law(group_law(x, y, c_value), z, c_value)
        right = group_law(x, group_law(y, z, c_value), c_value)
        assert left.t == right.t and left.zeta == right.zeta
        ident = NilElement(T(0, 0), (0, 0))
        assert group_law(x, ident, c_value).t == x.t
        inv = NilElement(-x.t, (-x.zeta[0], -x.zeta[1]))
        assert group_law(x, inv, c_value).t == T(0, 0)


def test_extend_tau_homomorphism_when_cocycle_vanishes():
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(tau=(t1, t2))
    for m in range(-3, 4):
        for k in range(-3, 4):
            assert extend_tau(ing, m, k) == m * t1 + k * t2


def test_extend_tau_twisted_example():
    # c(f2, f1) = (1, 0) on the standard lattice means c_value = (-1, 0)
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(c=(-1, 0), tau=(t1, t2))
    assert cocycle(ing.c_value, (0, 1), (1, 0)) == (1, 0)
    assert extend_tau(ing, 1, 1) == t1 + t2 + T(HALF, 0)


def test_extend_tau_satisfies_the_twisted_relation():
    rng = seeded(7)
    t1 = T(Fraction(1, 4), Fraction(2, 5))
    t2 = T(Fraction(3, 7), Fraction(1, 3))
    basis = ((2, 1), (1, 1))
    ing = make(p_basis=basis, c=(1, -1), tau=(t1, t2))
    assert validate_cocycle(ing)
    f1 = ing.basis_column(0)
    f2 = ing.basis_column(1)
    for m1 in range(-3, 4):
        for k1 in range(-3, 4):
            for m2, k2 in ((1, 0), (0, 1), (1, 1), (-1, 2)):
                za = (m1 * f1[0] + k1 * f2[0], m1 * f1[1] + k1 * f2[1])
                zb = (m2 * f1[0] + k2 * f2[0], m2 * f1[1] + k2 * f2[1])
                lhs = extend_tau(ing, m2, k2) + extend_tau(ing, m1, k1)
                rhs = extend_tau(ing, m1 + m2, k1 + k2) + TorusElement(
                    (cocycle(ing.c_value, zb, za)[0] / 2,
                     cocycle(ing.c_value, zb, za)[1] / 2))
                assert lhs == rhs, (m1, k1, m2, k2)


def test_extend_tau_path_independent():
    t1 = T(Fraction(1, 4), Fraction(2, 5))
    t2 = T(Fraction(3, 7), Fraction(1, 3))
    ing = make(c=(3, -2), tau=(t1, t2))
    f1 = ing.basis_column(0)
    f2 = ing.basis_column(1)
    for m in range(-3, 4):
        for k in range(-3, 4):
            # alternative bracketing: do the f2 steps first
            alt = extend_tau(ing, 0, k)
            pos = (k * f2[0], k * f2[1])
            step = f1 if m >= 0 else (-f1[0], -f1[1])
            tau_step = t1 if m >= 0 else -t1
            for _ in range(abs(m)):
                corr = cocycle(ing.c_value, step, pos)
                alt = tau_step + alt - TorusElement((corr[0] / 2, corr[1] / 2))
                pos = (pos[0] + step[0], pos[1] + step[1])
            assert alt == extend_tau(ing, m, k), (m, k)


def test_iota_examples():
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(tau=(t1, t2))
    origin = iota(ing, 0, 0)
    assert origin.t == T(0, 0) and origin.zeta == (0, 0)
    one = iota(ing, 1, 0)
    assert one.t == -t1 and one.zeta == (1, 0)
    twisted = make(c=(-1, 0), tau=(t1, t2))
    both = iota(twisted, 1, 1)
    assert both.t == -(t1 + t2 + T(HALF, 0))
    assert both.zeta == (1, 1)


def test_iota_lands_in_a_subgroup():
    # group_law(iota(u), iota(v)) differs from iota(u+v) by an integral
    # exponential, which is the identity in the torus
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(c=(-1, 0), tau=(t1, t2))
    for m1, k1, m2, k2 in ((1, 0, 0, 1), (1, 1, -1, 2), (2, -1, 1, 1)):
        prod = group_law(iota(ing, m1, k1), iota(ing, m2, k2), ing.c_value)
        direct = iota(ing, m1 + m2, k1 + k2)
        assert prod.zeta == direct.zeta
        assert prod.t == direct.t


def test_holonomy_equivalent_reflexive():
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(c=(-1, 0), tau=(t1, t2))
    assert holonomy_equivalent(ing, ing)


def test_holonomy_equivalent_symmetric_shift():
    rng = seeded(11)
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(tau=(t1, t2))
    for _ in range(25):
        a, b, c = rand_frac(rng), rand_frac(rng), rand_frac(rng)
        # symmetric matrix [[a, b], [b, c]] applied to f1 = e1, f2 = e2
        shifted = make(tau=(t1 + T(a % 1, b % 1), t2 + T(b % 1, c % 1)))
        assert holonomy_equivalent(ing, shifted)
        assert holonomy_equivalent(shifted, ing)


def test_holonomy_equivalent_detects_antisymmetric_shift():
    # P = Z^2, c = 0: the quotient by Sym|_P is 1-dimensional, spanned by
    # the antisymmetric direction; a shift by a third of it is nontrivial
    base = make(tau=(T(Fraction(1, 9), Fraction(2, 9)),
                     T(Fraction(4, 9), Fraction(5, 9))))
    shifted = make(tau=(T(Fraction(1, 9), Fraction(2, 9) + Fraction(1, 3)),
                        T(Fraction(4, 9) - Fraction(1, 3), Fraction(5, 9))))
    assert not holonomy_equivalent(base, shifted)


def test_holonomy_equivalent_transitive_on_samples():
    rng = seeded(13)
    base_tau = (T(Fraction(1, 5), 0), T(0, Fraction(1, 7)))
    sample = [make(tau=base_tau)]
    for _ in range(4):
        a, b, c = rand_frac(rng), rand_frac(rng), rand_frac(rng)
        sample.append(make(tau=(base_tau[0] + T(a % 1, b % 1),
                                base_tau[1] + T(b % 1, c % 1))))
    sample.append(make(tau=(base_tau[0] + T(0, Fraction(1, 3)),
                            base_tau[1] + T(Fraction(2, 3), 0))))
    for x in sample:
        for y in sample:
            assert holonomy_equivalent(x, y) == holonomy_equivalent(y, x)
            for z in sample:
                if holonomy_equivalent(x, y) and holonomy_equivalent(y, z):
                    assert holonomy_equivalent(x, z)


def test_holonomy_equivalent_matches_divisibility_oracle():
    # For P = Z^2 and c = 0 the shift subspace is exactly the symmetric
    # maps, so two holonomies are equivalent iff the antisymmetric part
    # of their difference, delta_y(f1) - delta_x(f2), is an integer.
    # That closed form independently decides every instance here.
    rng = seeded(19)
    base_tau = (T(Fraction(1, 5), 0), T(0, Fraction(1, 7)))
    base = make(tau=base_tau)
    for _ in range(40):
        shift1 = (rand_frac(rng) % 1, rand_frac(rng) % 1)
        shift2 = (rand_frac(rng) % 1, rand_frac(rng) % 1)
        shifted = make(tau=(base_tau[0] + T(*shift1),
                            base_tau[1] + T(*shift2)))
        expected = (shift1[1] - shift2[0]).denominator == 1
        assert holonomy_equivalent(base, shifted) is expected, (shift1, shift2)


def test_extend_tau_matches_closed_form():
    # tau(m f1 + k f2) = m tau1 + k tau2 - m*k*c(f2, f1)/2
    rng = seeded(23)
    for _ in range(10):
        c_value = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        t1 = T(rand_frac(rng) % 1, rand_frac(rng) % 1)
        t2 = T(rand_frac(rng) % 1, rand_frac(rng) % 1)
        ing = make(c=c_value, tau=(t1, t2))
        twist = cocycle(c_value, (0, 1), (1, 0))
        for m in range(-5, 6):
            for k in range(-5, 6):
                closed = m * t1 + k * t2 - TorusElement(
                    (m * k * twist[0] / 2, m * k * twist[1] / 2))
                assert extend_tau(ing, m, k) == closed, (m, k)


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def ingredients(draw):
    """Ingredients with a random nonsingular basis, a random cocycle
    value and random holonomy values (the cocycle need not be
    integral: the stepwise oracle does not use that)."""
    basis = draw(st.tuples(st.tuples(fractions, fractions),
                           st.tuples(fractions, fractions)).filter(
        lambda b: b[0][0] * b[1][1] != b[0][1] * b[1][0]))
    c_value = draw(st.tuples(fractions, fractions))
    tau = draw(st.tuples(st.tuples(fractions, fractions),
                         st.tuples(fractions, fractions)))
    return LagrangianFreeIngredients(basis, c_value,
                                     tuple(T(*t) for t in tau))


@settings(max_examples=200, deadline=None)
@given(ingredients(), st.integers(-7, 7), st.integers(-7, 7))
def test_closed_form_tau_matches_stepwise_oracle(ing, m, k):
    assert extend_tau(ing, m, k) == stepwise_tau(ing, m, k)


vectors = st.tuples(
    st.fractions(max_denominator=10 ** 6), st.fractions(max_denominator=10 ** 6))


@settings(max_examples=200, deadline=None)
@given(vectors, vectors, vectors, vectors)
def test_cyclic_cocycle_sum_vanishes_identically(x, y, z, c_value):
    # validate_cocycle checks only integrality because of this identity:
    # det(y, z) x + det(z, x) y + det(x, y) z = 0 for any x, y, z in Q^2,
    # so the cyclic sum of <., c(., .)> is zero for every cocycle value.
    def det(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for i in (0, 1):
        assert det(y, z) * x[i] + det(z, x) * y[i] + det(x, y) * z[i] == 0

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    assert (dot(x, cocycle(c_value, y, z)) + dot(y, cocycle(c_value, z, x))
            + dot(z, cocycle(c_value, x, y))) == 0


def test_holonomy_equivalent_mismatch_raises():
    a = make()
    b = make(p_basis=((2, 0), (0, 1)))
    with pytest.raises(PrerequisiteMismatch):
        holonomy_equivalent(a, b)
    c = make(c=(1, 0))
    with pytest.raises(PrerequisiteMismatch):
        holonomy_equivalent(a, c)


def test_holonomy_equivalent_across_basis_change():
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(c=(-1, 0), tau=(t1, t2))
    # same lattice with basis columns f1' = f1, f2' = f1 + f2
    other = LagrangianFreeIngredients(
        ((1, 1), (0, 1)), (-1, 0), (t1, fraction_tau_at(ing, (1, 1))))
    assert holonomy_equivalent(ing, other)
    assert lagrangian_equal(ing, other)


def test_lagrangian_equal_cases():
    t1, t2 = T(Fraction(1, 5), 0), T(0, Fraction(1, 7))
    ing = make(tau=(t1, t2))
    assert lagrangian_equal(ing, ing)
    shifted = make(tau=(t1 + T(Fraction(1, 3), 0), t2))  # sym shift E11/3
    assert lagrangian_equal(ing, shifted)
    sublattice = make(p_basis=((2, 0), (0, 1)), tau=(t1, t2))
    assert not lagrangian_equal(ing, sublattice)
    other_c = make(c=(1, 0), tau=(t1, t2))
    assert not lagrangian_equal(ing, other_c)


pairs = lagrangian_pairs(
    st.builds(Fraction, st.integers(-42, 42), st.integers(1, 7)),
    st.integers(-10 ** 12, 10 ** 12))


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_closed_forms_match_the_rational_oracle(pair):
    # The oracle projects onto the quotient by the nullspace of the
    # shift subspace, in sympy, as the rational route always did.
    ing1, ing2 = pair
    lattice, cocycle_match, holonomy = lagrangian_oracle(ing1, ing2)
    assert same_lattice(ing1, ing2) is lattice
    assert lagrangian_equal(ing1, ing2) is bool(holonomy)
    if holonomy is None:
        with pytest.raises(PrerequisiteMismatch):
            holonomy_equivalent(ing1, ing2)
    else:
        assert holonomies_agree(ing1, ing2) is holonomy
        assert holonomy_equivalent(ing1, ing2) is holonomy


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_same_lattice_matches_lattice_membership(pair):
    ing1, ing2 = pair
    expected = all(
        lattice_membership(b.basis_column(j), a.p_basis)
        for a, b in ((ing1, ing2), (ing2, ing1)) for j in (0, 1))
    assert same_lattice(ing1, ing2) is expected


# Entries over small and over large coprime denominators.
PRIMES = (999983, 1000003, 10 ** 12 + 39, 2 ** 61 - 1, 2 ** 89 - 1)
large_pairs = lagrangian_pairs(
    st.one_of(st.builds(Fraction, st.integers(-42, 42), st.integers(1, 7)),
              st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                        st.sampled_from(PRIMES))),
    st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(large_pairs, st.integers(-9, 9), st.integers(-9, 9))
def test_integer_decisions_match_the_fraction_oracles(pair, m, k):
    ing1, ing2 = pair
    for ing in pair:
        assert validate_cocycle(ing) is fraction_validate_cocycle(ing)
        assert extend_tau(ing, m, k) == fraction_extend_tau(ing, m, k)
    lattice = same_lattice(ing1, ing2)
    assert lattice is fraction_same_lattice(ing1, ing2)
    if lattice and ing1.c_value == ing2.c_value:
        assert holonomies_agree(ing1, ing2) is fraction_holonomies_agree(
            ing1, ing2)


def test_model_form_example_and_antisymmetry():
    db = ((1, 0), (0, 0))
    dpb = ((0, 0), (1, 0))
    assert model_form_eval(db, dpb) == -1
    assert model_form_eval(dpb, db) == 1
    assert model_form_eval(db, db) == 0


def test_model_form_bilinear():
    rng = seeded(17)
    for _ in range(40):
        u = ((rand_frac(rng), rand_frac(rng)), (rand_frac(rng), rand_frac(rng)))
        v = ((rand_frac(rng), rand_frac(rng)), (rand_frac(rng), rand_frac(rng)))
        w = ((rand_frac(rng), rand_frac(rng)), (rand_frac(rng), rand_frac(rng)))
        q = rand_frac(rng)
        scaled = ((q * u[0][0], q * u[0][1]), (q * u[1][0], q * u[1][1]))
        assert model_form_eval(scaled, v) == q * model_form_eval(u, v)
        summed = ((u[0][0] + w[0][0], u[0][1] + w[0][1]),
                  (u[1][0] + w[1][0], u[1][1] + w[1][1]))
        assert model_form_eval(summed, v) == (
            model_form_eval(u, v) + model_form_eval(w, v))
        assert model_form_eval(u, v) == -model_form_eval(v, u)


def test_model_form_matrix_nondegenerate():
    m = model_form_matrix()
    # 4x4 determinant by cofactor expansion
    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        return sum(
            (-1) ** j * mat[0][j] * det(
                [row[:j] + row[j + 1:] for row in mat[1:]])
            for j in range(len(mat)))
    rows = [list(r) for r in m]
    assert det(rows) != 0
    # and it reproduces the evaluation
    for a in range(4):
        for b in range(4):
            u = [0] * 4
            v = [0] * 4
            u[a] = 1
            v[b] = 1
            assert model_form_eval((u[:2], u[2:]), (v[:2], v[2:])) == m[a][b]
