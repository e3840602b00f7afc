"""Presentations, ideal handles, and the ideal-level invariants."""
from fractions import Fraction
import itertools
import random

import pytest

from singulant.errors import (
    PreconditionError,
    StructuralError,
    UnsupportedInputError,
)
from singulant.ideal_ops import (
    IdealHandle,
    RingPresentation,
    height,
    ideal_quotient,
    intersection,
    is_equidimensional,
    is_m_primary,
    krull_dimension,
    loewy_length,
    minimal_generators,
    minimal_primes_monomial,
    radical_equal,
    radical_membership,
    ring_dimension,
    socle,
)
from singulant.poly import PrimeField, QQ

import oracles
from util import fail_ring, ideal, presentation, embedded_point_ring


# -- presentations ---------------------------------------------------------------


def test_presentation_validation():
    with pytest.raises(StructuralError):
        RingPresentation(QQ, ("x", "x"))
    with pytest.raises(StructuralError):
        RingPresentation(QQ, ("x", "2y"))
    with pytest.raises(StructuralError):
        presentation(QQ, ("x",), lambda x: [x - x])  # zero generator
    other = presentation(QQ, ("a", "b", "c"), None)
    with pytest.raises(StructuralError):
        RingPresentation(QQ, ("x", "y"), (other.variable(0),))


def test_presentation_format_and_flags():
    R = embedded_point_ring()
    assert R.format() == "Q[x,y]/(x^2, x*y)"
    assert R.is_quotient() and R.is_graded()
    S = presentation(QQ, ("x", "y"), lambda x, y: [x * x + x])
    assert not S.is_graded()
    F = presentation(PrimeField(2), ("x", "y"), lambda x, y: [x * x])
    assert F.format() == "F2[x,y]/(x^2)"
    assert presentation(QQ, ("x",), None).format() == "Q[x]"


def test_defining_gb_is_reduced_and_cached():
    R = embedded_point_ring()
    x, y = R.variable(0), R.variable(1)
    assert R.defining_basis().polynomials() == (x * x, x * y)
    assert R.defining_basis() is R.defining_basis()
    assert R.ambient().defining == ()


# -- handles ---------------------------------------------------------------------


def test_reduced_generators_drop_a_redundant_normal_form():
    # over F3[x,y]/(x^3 - y^2) the preimage basis of (y) is {y, x^3}, whose
    # normal forms y and y^2 both survive; y^2 lies in (y) and is dropped
    R = presentation(PrimeField(3), ("x", "y"), lambda x, y: [x ** 3 - y * y])
    y = R.variable(1)
    handle = IdealHandle(R, [y])
    assert handle.reduced_generators() == (y,)
    assert handle.format() == "(y)"


def test_handle_membership_examples():
    R = embedded_point_ring().ambient()
    I = ideal(R, lambda x, y: [x * x, x * y])
    x, y = R.variable(0), R.variable(1)
    assert I.contains(x * x)
    assert not I.contains(y)
    assert I.contains(R.poly_ring.zero())


def test_handle_display_over_quotient():
    R = embedded_point_ring()
    x, y = R.variable(0), R.variable(1)
    I = IdealHandle(R, [x * x, x])
    assert I.reduced_generators() == (x,)
    assert I.format() == "(x)"
    zero = IdealHandle(R, [])
    assert zero.reduced_generators() == ()
    assert zero.format() == "(0)"


def test_same_ideal():
    R = embedded_point_ring().ambient()
    x, y = R.variable(0), R.variable(1)
    assert IdealHandle(R, [x + y, y]).same_ideal(IdealHandle(R, [x, y]))
    assert not IdealHandle(R, [x]).same_ideal(IdealHandle(R, [y]))
    S = embedded_point_ring()
    assert IdealHandle(S, [x + y, y]).same_ideal(S.maximal_ideal())
    with pytest.raises(StructuralError):
        IdealHandle(R, [x]).same_ideal(IdealHandle(S, [x]))


# -- radical membership ------------------------------------------------------------


def test_radical_membership_examples():
    P = embedded_point_ring().ambient()
    x, y = P.variable(0), P.variable(1)
    assert radical_membership(x, IdealHandle(P, [x * x]))
    # oracle: no power of y is divisible by x^2 or xy
    I = IdealHandle(P, [x * x, x * y])
    assert not oracles.monomial_member((0, 6), [(2, 0), (1, 1)])
    assert not radical_membership(y, I)

    F = fail_ring().ambient()
    xs = [F.variable(i) for i in range(4)]
    J = IdealHandle(F, [xs[0] ** 2, xs[1] * xs[2], xs[1] * xs[3]])
    assert not radical_membership(xs[1], J)
    assert radical_membership(xs[0], J)


def test_radical_membership_prime_field():
    F = presentation(PrimeField(2), ("x", "y"), None)
    x, y = F.variable(0), F.variable(1)
    assert radical_membership(x, IdealHandle(F, [x * x]))
    assert not radical_membership(y, IdealHandle(F, [x * x]))


def test_radical_membership_over_quotient():
    R = fail_ring()
    x = R.variable(0)
    assert radical_membership(x, IdealHandle(R, []))  # x^2 defines R


def test_radical_equal_examples():
    P = embedded_point_ring().ambient()
    x, y = P.variable(0), P.variable(1)
    assert radical_equal(IdealHandle(P, [x * x, x * y]), IdealHandle(P, [x]))
    I = IdealHandle(P, [x * x, x * y])
    assert radical_equal(I, I)

    F = fail_ring().ambient()
    xf, yf, zf, wf = [F.variable(i) for i in range(4)]
    m_lift = IdealHandle(F, [xf, yf, zf, wf])
    jac_lift = IdealHandle(F, [xf * yf, xf * zf, xf * wf, yf * yf])
    assert not radical_equal(m_lift, jac_lift)


# -- intersection and quotient -------------------------------------------------------


def test_intersection_examples():
    P = embedded_point_ring().ambient()
    x, y = P.variable(0), P.variable(1)
    assert intersection(IdealHandle(P, [x]), IdealHandle(P, [y])).same_ideal(
        IdealHandle(P, [x * y])
    )
    got = intersection(IdealHandle(P, [x * x, x * y]), IdealHandle(P, [y]))
    assert got.same_ideal(IdealHandle(P, [x * y]))
    # coprime principal ideals intersect in the product
    f, g = x, x + y * y
    assert intersection(IdealHandle(P, [f]), IdealHandle(P, [g])).same_ideal(
        IdealHandle(P, [f * g])
    )
    I = IdealHandle(P, [x * x, x * y])
    assert intersection(I, I).same_ideal(I)


def test_quotient_examples():
    P = embedded_point_ring().ambient()
    x, y = P.variable(0), P.variable(1)
    I = IdealHandle(P, [x * x, x * y])
    m = IdealHandle(P, [x, y])
    assert ideal_quotient(I, m).same_ideal(IdealHandle(P, [x]))
    assert ideal_quotient(I, IdealHandle(P, [P.poly_ring.one()])).same_ideal(I)
    assert ideal_quotient(
        IdealHandle(P, [x * y]), IdealHandle(P, [x])
    ).same_ideal(IdealHandle(P, [y]))


def test_quotient_over_quotient_presentation():
    # the annihilator of x in Q[x,y]/(x^2,xy) is the maximal ideal
    R = embedded_point_ring()
    x, y = R.variable(0), R.variable(1)
    ann = ideal_quotient(IdealHandle(R, []), IdealHandle(R, [x]))
    assert ann.same_ideal(R.maximal_ideal())


def _random_monomial_handle(rng, P, max_gens=3, max_degree=4):
    exps = []
    for _ in range(rng.randint(1, max_gens)):
        e = tuple(
            rng.randint(0, max_degree) for _ in range(P.nvars)
        )
        if sum(e) == 0:
            e = (1,) + e[1:]
        exps.append(e)
    gens = [P.poly_ring.monomial(e) for e in exps]
    return IdealHandle(P, gens), exps


@pytest.mark.parametrize("seed", [3, 17])
def test_intersection_and_quotient_match_monomial_oracle(seed):
    P = presentation(QQ, ("x", "y", "z"), None)
    rng = random.Random(seed)
    for _ in range(12):
        I, ei = _random_monomial_handle(rng, P)
        J, ej = _random_monomial_handle(rng, P)
        want_cap = oracles.monomial_intersection(ei, ej)
        got_cap = intersection(I, J)
        assert got_cap.same_ideal(
            IdealHandle(P, [P.poly_ring.monomial(e) for e in want_cap])
        )
        want_q = oracles.monomial_quotient_ideal(ei, ej)
        got_q = ideal_quotient(I, J)
        assert got_q.same_ideal(
            IdealHandle(P, [P.poly_ring.monomial(e) for e in want_q])
        )
        # containment invariants hold regardless of the oracle
        for f in got_q.generators:
            for g in J.generators:
                assert I.contains(f * g)


# -- dimension, height, minimal primes ------------------------------------------------


def test_dimension_and_height_paper_rings():
    Pf = fail_ring().ambient()
    xs = [Pf.variable(i) for i in range(4)]
    J = IdealHandle(Pf, [xs[0] ** 2, xs[1] * xs[2], xs[1] * xs[3]])
    assert krull_dimension(J) == 2
    assert height(J) == 2

    P4 = embedded_point_ring().ambient()
    x, y = P4.variable(0), P4.variable(1)
    I = IdealHandle(P4, [x * x, x * y])
    assert krull_dimension(I) == 1
    assert height(I) == 1

    assert ring_dimension(fail_ring()) == 2
    assert ring_dimension(embedded_point_ring()) == 1


def test_dimension_edge_cases():
    P = presentation(QQ, ("x", "y", "z"), None)
    assert krull_dimension(IdealHandle(P, [])) == 3
    unit = IdealHandle(P, [P.poly_ring.one()])
    assert krull_dimension(unit) == -1
    with pytest.raises(PreconditionError):
        height(unit)


@pytest.mark.parametrize("seed", [5, 23])
def test_dimension_matches_bruteforce_oracle(seed):
    P = presentation(QQ, ("x", "y", "z", "w"), None)
    rng = random.Random(seed)
    for _ in range(15):
        I, exps = _random_monomial_handle(rng, P, max_gens=4, max_degree=3)
        d = krull_dimension(I)
        assert d == oracles.monomial_dimension(exps, 4)
        assert height(I) + d == 4


def test_minimal_primes_paper_rings():
    Pf = fail_ring().ambient()
    xs = [Pf.variable(i) for i in range(4)]
    J = IdealHandle(Pf, [xs[0] ** 2, xs[1] * xs[2], xs[1] * xs[3]])
    primes = minimal_primes_monomial(J)
    got = [tuple(sorted(g.lead_monomial().support())[0] for g in p.generators)
           for p in primes]
    assert [sorted(set().union(*[g.support() for g in p.generators]))
            for p in primes] == [[0, 1], [0, 2, 3]]
    dims = [4 - len(p.generators) for p in primes]
    assert dims == [2, 1]

    P4 = embedded_point_ring().ambient()
    x, y = P4.variable(0), P4.variable(1)
    primes4 = minimal_primes_monomial(IdealHandle(P4, [x * x, x * y]))
    assert len(primes4) == 1 and primes4[0].same_ideal(IdealHandle(P4, [x]))

    pr = minimal_primes_monomial(IdealHandle(P4, [x * y]))
    assert [p.generators for p in pr] == [(x,), (y,)]


def test_minimal_primes_requires_monomials():
    P = embedded_point_ring().ambient()
    x, y = P.variable(0), P.variable(1)
    with pytest.raises(UnsupportedInputError):
        minimal_primes_monomial(IdealHandle(P, [x + y * y]))


@pytest.mark.parametrize("seed", [11, 29])
def test_minimal_primes_match_bruteforce_oracle(seed):
    P = presentation(QQ, ("x", "y", "z", "w"), None)
    rng = random.Random(seed)
    for _ in range(12):
        I, exps = _random_monomial_handle(rng, P, max_gens=4, max_degree=2)
        got = [
            frozenset().union(*[g.support() for g in p.generators])
            for p in minimal_primes_monomial(I)
        ]
        assert got == oracles.monomial_minimal_primes(exps, 4)


def test_equidimensionality():
    assert is_equidimensional(fail_ring()) is False
    assert is_equidimensional(embedded_point_ring()) is True
    assert is_equidimensional(presentation(QQ, ("x", "y"), None)) is True
    curvy = presentation(QQ, ("x", "y"), lambda x, y: [x * x + y])
    assert is_equidimensional(curvy) is None


# -- m-primary, socle, Loewy, generator counts -----------------------------------------


def test_is_m_primary():
    R = embedded_point_ring()
    x, y = R.variable(0), R.variable(1)
    assert is_m_primary(IdealHandle(R, [x, y]))
    assert is_m_primary(IdealHandle(R, [x, y * y]))
    F = fail_ring()
    xf, yf, zf, wf = [F.variable(i) for i in range(4)]
    jac_lift = IdealHandle(F, [xf * yf, xf * zf, xf * wf, yf * yf])
    assert not is_m_primary(jac_lift)


def test_unit_ideal_is_not_m_primary():
    R = embedded_point_ring()
    assert not is_m_primary(IdealHandle(R, [R.poly_ring.one()]))
    with pytest.raises(PreconditionError, match="unit ideal"):
        loewy_length(R, IdealHandle(R, [R.poly_ring.one()]))
    # 1 + x is a unit modulo (x^2, y^2): (1 + x)(1 - x) = 1 - x^2
    artinian = presentation(QQ, ("x", "y"), lambda x, y: [x * x, y * y])
    xa = artinian.variable(0)
    assert not is_m_primary(IdealHandle(artinian, [xa + artinian.poly_ring.one()]))
    assert is_m_primary(IdealHandle(artinian, [xa, artinian.variable(1)]))


def test_socle_embedded_point_ring():
    R = embedded_point_ring()
    x, _ = R.variable(0), R.variable(1)
    s = socle(R)
    assert s.reduced_generators() == (x,)
    # socle * m lands in the defining ideal
    for g in s.generators:
        for i in range(R.nvars):
            assert R.defining_ideal().contains(g * R.variable(i))


def test_socle_fail_ring_vanishes():
    # ((x^2,yz,yw) : m) equals the ideal itself, so the socle of R is zero
    assert oracles.monomial_socle(
        [(2, 0, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)], 4
    ) == oracles.monomial_minimalize([(2, 0, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)])
    s = socle(fail_ring())
    assert s.reduced_generators() == ()


def test_socle_small_rings():
    A = presentation(QQ, ("x",), lambda x: [x * x])
    assert socle(A).reduced_generators() == (A.variable(0),)
    P = presentation(QQ, ("x",), None)
    assert socle(P).reduced_generators() == ()


def test_loewy_length_examples():
    R = embedded_point_ring()
    x, y = R.variable(0), R.variable(1)
    assert loewy_length(R, IdealHandle(R, [x, y])) == 1
    assert loewy_length(R, IdealHandle(R, [x, y * y])) == 2
    A = presentation(QQ, ("x",), lambda x: [x ** 3])
    assert loewy_length(A, IdealHandle(A, [])) == 3
    with pytest.raises(PreconditionError):
        loewy_length(R, IdealHandle(R, [x]))


def test_loewy_length_against_monomial_oracle():
    assert oracles.monomial_loewy_length([(1, 0), (0, 2)], 2) == 2
    assert oracles.monomial_loewy_length([(1, 0), (0, 1)], 2) == 1
    assert oracles.monomial_loewy_length([(3,)], 1) == 3


def test_minimal_generator_counts():
    R = embedded_point_ring()
    x, y = R.variable(0), R.variable(1)
    assert minimal_generators(IdealHandle(R, [x, y])) == 2
    assert minimal_generators(IdealHandle(R, [x, x])) == 1
    assert minimal_generators(IdealHandle(R, [x, y * y])) == 2
    assert minimal_generators(IdealHandle(R, [])) == 0

    P = R.ambient()
    assert minimal_generators(IdealHandle(P, [x * x, x * y, y * y])) == 3
    assert minimal_generators(IdealHandle(P, [x, x + x * x])) == 1
