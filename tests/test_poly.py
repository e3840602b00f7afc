"""Exact arithmetic, monomial orders, and formatting."""
from fractions import Fraction
import random
import time

import pytest

from singulant.errors import StructuralError
from singulant.poly import (
    GREVLEX,
    LEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    _is_prime,
    elimination_order,
    exact_divide,
    format_polynomial,
)

from util import fring, qring, rand_monomial, rand_poly


# -- fields -------------------------------------------------------------------


def test_rational_field_normalizes():
    assert QQ.normalize(3) == Fraction(3)
    assert QQ.normalize(Fraction(4, 6)) == Fraction(2, 3)
    assert QQ.characteristic == 0


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.normalize(10) == 3
    assert F.normalize(-1) == 6
    assert F.mul(3, 5) == 1
    assert F.invert(3) == 5
    assert F.normalize(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_prime_field_rejects_composite():
    with pytest.raises(StructuralError):
        PrimeField(6)
    with pytest.raises(StructuralError):
        PrimeField(1)


def test_prime_check_is_fast_on_a_large_prime():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [
    561, 41041,                # Carmichael numbers
    2**61 + 1,                 # 3 * 768614336404564651
    3215031751,                # strong pseudoprime to bases 2, 3, 5 and 7
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
])
def test_prime_check_rejects_pseudoprimes(n):
    with pytest.raises(StructuralError, match="not prime"):
        PrimeField(n)


def test_prime_check_matches_trial_division_on_small_inputs():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert [n for n in range(5000) if _is_prime(n) != trial(n)] == []


def test_prime_check_refuses_past_its_exact_range():
    with pytest.raises(StructuralError, match="too large"):
        PrimeField(2**89 - 1)


# -- monomials ----------------------------------------------------------------


def test_monomial_basics():
    a = Monomial((2, 1, 0))
    b = Monomial((1, 0, 3))
    assert a.degree == 3
    assert (a * b).exps == (3, 1, 3)
    assert a.lcm(b).exps == (2, 1, 3)
    assert not a.divides(b)
    assert a.divides(a * b)
    assert (a * b).divide(a).exps == b.exps
    assert Monomial((0, 2, 0)).is_coprime(Monomial((3, 0, 1)))
    assert not a.is_coprime(b)
    assert a.support() == frozenset({0, 1})


def test_monomial_rejects_negative():
    with pytest.raises(StructuralError):
        Monomial((1, -1))


GREVLEX_DEG2_DESCENDING = [
    (2, 0, 0),  # x^2
    (1, 1, 0),  # xy
    (0, 2, 0),  # y^2
    (1, 0, 1),  # xz
    (0, 1, 1),  # yz
    (0, 0, 2),  # z^2
]

LEX_DEG2_DESCENDING = [
    (2, 0, 0),
    (1, 1, 0),
    (1, 0, 1),
    (0, 2, 0),
    (0, 1, 1),
    (0, 0, 2),
]


def test_grevlex_order_on_degree_two():
    monos = [Monomial(e) for e in GREVLEX_DEG2_DESCENDING]
    keyed = sorted(monos, key=GREVLEX.key, reverse=True)
    assert [m.exps for m in keyed] == GREVLEX_DEG2_DESCENDING


def test_lex_order_on_degree_two():
    monos = [Monomial(e) for e in LEX_DEG2_DESCENDING]
    keyed = sorted(monos, key=LEX.key, reverse=True)
    assert [m.exps for m in keyed] == LEX_DEG2_DESCENDING


def test_grevlex_vs_lex_disagree():
    # y^3 vs x^2: grevlex ranks by degree first, lex by the first variable
    a, b = Monomial((0, 3)), Monomial((2, 0))
    assert GREVLEX.key(a) > GREVLEX.key(b)
    assert LEX.key(a) < LEX.key(b)


def test_elimination_order_front_block_dominates():
    order = elimination_order((2,), (0, 1))
    t_small = Monomial((5, 5, 0))
    t_big = Monomial((0, 0, 1))
    assert order.key(t_big) > order.key(t_small)


def test_block_order_requires_partition():
    with pytest.raises(StructuralError):
        PolynomialRing(QQ, 3, MonomialOrder("block", ((0,), (0, 1, 2))))


@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order((3, 1), (0, 2))],
                         ids=["grevlex", "lex", "block"])
def test_packing_follows_the_order_and_monomial_arithmetic(order):
    rng = random.Random(43)
    bound = 12
    packing = order.packing(4, bound)
    assert packing.capacity >= bound
    terms = [(rng.randrange(3), rand_monomial(rng, 4, bound // 2)) for _ in range(60)]
    packed = [packing.pack(pos, m.exps) for pos, m in terms]
    for (pos, m), t in zip(terms, packed):
        assert packing.unpack(t) == (pos, m.exps, m.degree)
    for (ap, a), at in zip(terms, packed):
        ae = at & packing.exps_mask
        for (bp, b), bt in zip(terms, packed):
            be = bt & packing.exps_mask
            # a min-heap of packed terms pops the largest in position over term
            assert (at < bt) == ((-ap, order.key(a)) > (-bp, order.key(b)))
            assert packing.divides(ae, be) == a.divides(b)
            assert packing.lcm(ae, be) == packing.pack(0, a.lcm(b).exps) & packing.exps_mask
            assert packing.coprime(ae, be) == a.is_coprime(b)
            assert at + packing.lift(be) == packing.pack(ap, a.mul(b).exps)


@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order((3, 1), (0, 2))],
                         ids=["grevlex", "lex", "block"])
def test_bounds_of_one_width_share_one_packing(order):
    """A row packed once is valid in every table of its width: two degree
    bounds give the same instance exactly when their field widths agree,
    for an equal order built anew too."""
    packings = [order.packing(4, b) for b in range(130)]
    for a in packings:
        for b in packings:
            assert (a is b) == (a.width == b.width)
    assert len({p.width for p in packings}) == 8
    assert MonomialOrder(order.kind, order.blocks).packing(4, 9) is order.packing(4, 15)


# -- polynomial arithmetic ----------------------------------------------------


def test_constructor_merges_and_drops_zeros():
    P = qring(2)
    x, y = P.variables()
    f = Polynomial(P, [(Monomial((1, 0)), Fraction(1)),
                       (Monomial((1, 0)), Fraction(-1)),
                       (Monomial((0, 1)), Fraction(2))])
    assert f == y.scale(Fraction(2))
    assert Polynomial(P, []).is_zero()


def test_degree_conventions():
    P = qring(2)
    assert P.zero().total_degree() == -1
    assert P.one().total_degree() == 0
    x, y = P.variables()
    assert (x * x + y).total_degree() == 2


@pytest.mark.parametrize("build", [lambda: qring(3), lambda: fring(7, 3)])
def test_ring_axioms_randomized(build):
    ring = build()
    rng = random.Random(20260814)
    for _ in range(40):
        f = rand_poly(rng, ring, 4, 4)
        g = rand_poly(rng, ring, 4, 4)
        h = rand_poly(rng, ring, 4, 4)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == ring.zero()
        assert f * ring.one() == f
        assert f * ring.zero() == ring.zero()


@pytest.mark.parametrize("build", [lambda: qring(2), lambda: fring(5, 2)])
def test_leibniz_rule_randomized(build):
    ring = build()
    rng = random.Random(7)
    for _ in range(25):
        f = rand_poly(rng, ring, 4, 3)
        g = rand_poly(rng, ring, 4, 3)
        for i in range(ring.nvars):
            lhs = (f * g).partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs


def test_partial_derivative_characteristic_two():
    ring = fring(2, 1)
    (x,) = ring.variables()
    assert (x * x).partial_derivative(0).is_zero()
    assert (x * x * x).partial_derivative(0) == x * x


def test_power_matches_repeated_product():
    P = qring(2)
    x, y = P.variables()
    f = x + y.scale(Fraction(2)) + P.one()
    assert f ** 3 == f * f * f
    assert f ** 0 == P.one()


def test_exact_divide_roundtrip_and_failure():
    P = qring(3)
    x, y, z = P.variables()
    f = x * y - z * z.scale(Fraction(3, 2)) + P.one()
    g = x + y + z
    assert exact_divide(f * g, g) == f
    with pytest.raises(StructuralError):
        exact_divide(x * y + P.one(), x)


def test_lead_term_under_grevlex():
    P = qring(3)
    x, y, z = P.variables()
    f = x * y * z + y * y * y  # same degree: grevlex prefers xyz? no: y^3 vs xyz
    # keys: xyz=(1,1,1)->(3,(-1,-1,-1)); y^3=(0,3,0)->(3,(0,-3,0)); y^3 wins
    assert f.lead_monomial().exps == (0, 3, 0)


def test_homogeneity_detection():
    P = qring(2)
    x, y = P.variables()
    assert (x * x + x * y).is_homogeneous()
    assert not (x * x + y).is_homogeneous()
    assert P.zero().is_homogeneous()


def test_monic_and_scale():
    P = qring(2)
    x, y = P.variables()
    f = (x * y).scale(Fraction(-2, 3)) + y.scale(Fraction(4))
    m = f.monic()
    assert m.lead_coeff() == Fraction(1)
    assert f == m.scale(f.lead_coeff())


def test_eq_hash_consistency():
    P = qring(2)
    x, y = P.variables()
    a = x * y + y
    b = y + y * x
    assert a == b and hash(a) == hash(b)
    assert a != x * y


# -- formatting ---------------------------------------------------------------


def test_format_polynomial_examples():
    P = qring(3)
    x, y, z = P.variables()
    f = (x * x * y).scale(Fraction(1)) - x.scale(Fraction(2)) + P.one()
    assert format_polynomial(f, ["x", "y", "z"]) == "x^2*y - 2*x + 1"
    g = y.scale(Fraction(1, 2)) - z
    assert format_polynomial(g, ["x", "y", "z"]) == "1/2*y - z"
    assert format_polynomial(P.zero(), ["x", "y", "z"]) == "0"
    assert format_polynomial(P.one().scale(Fraction(-1)), ["x", "y", "z"]) == "-1"


def test_format_uses_default_names():
    P = qring(2)
    x, y = P.variables()
    assert format_polynomial(x + y) == "x0 + x1"
