"""Buchberger engine: reduced bases, normal forms, modules, syzygies."""
from fractions import Fraction
import random

import pytest

from singulant.errors import Budget, BudgetExceededError, StructuralError
from singulant.groebner import (
    GroebnerBasis,
    ModuleElement,
    buchberger,
    member,
    normal_form,
    syzygies,
)
from singulant.poly import (
    GREVLEX,
    LEX,
    Monomial,
    Polynomial,
    PolynomialRing,
    QQ,
    elimination_order,
)

import oracles
from util import fring, qring, rand_poly


# -- classic worked example (hand-checked reduced basis) ------------------------


def classic_pair(ring):
    x, y = ring.variables()
    f1 = x ** 3 - (x * y).scale(Fraction(2))
    f2 = x * x * y - (y * y).scale(Fraction(2)) + x
    return f1, f2


def test_reduced_basis_classic_example():
    P = qring(2)
    x, y = P.variables()
    gb = buchberger(list(classic_pair(P)))
    expected = (
        x * x,
        x * y,
        y * y - x.scale(Fraction(1, 2)),
    )
    assert gb.polynomials() == expected


def test_reduced_basis_deterministic_under_permutation_and_scaling():
    P = qring(2)
    f1, f2 = classic_pair(P)
    gb1 = buchberger([f1, f2])
    gb2 = buchberger([f2, f1])
    gb3 = buchberger([f1.scale(Fraction(-7, 3)), f2.scale(Fraction(5))])
    assert gb1.polynomials() == gb2.polynomials() == gb3.polynomials()


def test_reduced_basis_invariants():
    P = qring(3)
    x, y, z = P.variables()
    gb = buchberger([x * y - z * z, y * y - x * z, x * x * x - y * z * z])
    polys = gb.polynomials()
    leads = [p.lead_monomial() for p in polys]
    for p in polys:
        assert p.lead_coeff() == Fraction(1)
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not a.divides(b)
    for p in polys:
        for m, _ in p.terms[1:]:
            assert not any(l.divides(m) for l in leads)
    keys = [P.order.key(p.lead_monomial()) for p in polys]
    assert keys == sorted(keys, reverse=True)


def test_unit_and_zero_ideals():
    P = qring(2)
    x, y = P.variables()
    assert buchberger([x + P.one(), x]).is_unit_ideal()
    gb = buchberger([], ring=P)
    assert gb.is_zero()
    assert gb.polynomials() == ()
    assert buchberger([P.zero()], ring=P).is_zero()


def test_normal_form_is_canonical():
    P = qring(2)
    x, y = P.variables()
    gb = buchberger([x * x, x * y])
    assert normal_form(y * y, gb) == y * y
    assert normal_form(x * x * y, gb).is_zero()
    f = x * x + x * y + x + y
    assert normal_form(f, gb) == x + y
    assert member(x * x + x * y, gb)
    assert not member(x, gb)


# -- membership against the graded linear-algebra oracle ------------------------


def _random_homogeneous_ideal(rng, ring, max_gens=3, max_degree=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_degree)
        slots = oracles.monomials_of_degree(ring.nvars, d)
        if rng.random() < 0.5:
            exps = rng.choice(slots)
            gens.append(ring.monomial(exps))
        else:
            a, b = rng.sample(slots, 2)
            gens.append(ring.monomial(a) - ring.monomial(b))
    return gens


@pytest.mark.parametrize("build", [lambda: qring(3), lambda: fring(5, 3)])
def test_membership_matches_linear_algebra_oracle(build):
    ring = build()
    rng = random.Random(991)
    agree_in = agree_out = 0
    for _ in range(60):
        gens = _random_homogeneous_ideal(rng, ring)
        gb = buchberger(gens)
        # an obvious member: a random combination of the generators
        combo = ring.zero()
        for g in gens:
            combo = combo + g * rand_poly(rng, ring, 2, 2)
        assert normal_form(combo, gb).is_zero()
        # a random homogeneous probe, cross-checked both ways
        d = rng.randint(1, 4)
        probe = ring.zero()
        for exps in rng.sample(
            oracles.monomials_of_degree(ring.nvars, d),
            k=min(3, len(oracles.monomials_of_degree(ring.nvars, d))),
        ):
            c = rng.randint(1, 4)
            probe = probe + ring.monomial(exps).scale(ring.field.normalize(c))
        got = normal_form(probe, gb).is_zero()
        want = oracles.homogeneous_membership(probe, gens)
        assert got == want
        if want:
            agree_in += 1
        else:
            agree_out += 1
    # the sample should exercise both outcomes
    assert agree_out > 0


# -- module bases ---------------------------------------------------------------


def test_module_basis_position_over_term():
    P = qring(2)
    x, y = P.variables()
    e_xy = ModuleElement.unit(P, 2, 0, x)
    e_y1 = ModuleElement.unit(P, 2, 1, y)
    el = e_xy + e_y1  # x*e0 + y*e1
    pos, mono, coeff = el.lead()
    assert pos == 0 and mono.exps == (1, 0)

    gens = [el, ModuleElement.unit(P, 2, 0, y)]
    gb = buchberger(gens, rank=2)
    x_e0_y_e1 = el
    y_e0 = ModuleElement.unit(P, 2, 0, y)
    y2_e1 = ModuleElement.unit(P, 2, 1, y * y)
    assert list(gb.elements) == [x_e0_y_e1, y_e0, y2_e1]


def _lead_by_scan(el):
    """The lead as the largest (-pos, order key) over every term."""
    order = el.ring.order
    best = None
    for pos, c in enumerate(el.coords):
        for m, k in c.terms:
            key = (-pos, order.key(m))
            if best is None or key > best[0]:
                best = (key, (pos, m, k))
    return None if best is None else best[1]


@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order((2,), (0, 1))],
                         ids=["grevlex", "lex", "block"])
def test_cached_lead_matches_scan_over_all_terms(order):
    rng = random.Random(11)
    P = PolynomialRing(QQ, 3, order)
    zero = ModuleElement(P, [P.zero()] * 3)
    assert zero.lead() is None and zero.lead() is None and zero.is_zero()
    for _ in range(40):
        coords = [
            P.zero() if rng.random() < 0.4 else rand_poly(rng, P, 3, 3)
            for _ in range(3)
        ]
        a = ModuleElement(P, coords)
        b = ModuleElement(P, [rand_poly(rng, P, 2, 2), P.zero(), P.zero()])
        mono = Monomial([rng.randint(0, 2) for _ in range(3)])
        short = ModuleElement(P, coords[1:])
        for el in (a, a + b, a - a, a.scale(Fraction(-3, 2)),
                   a.mul_term(mono, 5), short.pad(3, 1), short.pad(4, 0),
                   ModuleElement.unit(P, 3, 2, coords[0]), a.monic()):
            first = el.lead()
            assert first == _lead_by_scan(el)
            assert el.lead() is first
            assert el.is_zero() == (first is None)


# -- syzygies --------------------------------------------------------------------


def test_syzygy_of_two_monomials_is_koszul_like():
    P = qring(2)
    x, y = P.variables()
    gens = [x * x, x * y]
    syz = syzygies(gens)
    assert len(syz) == 1
    assert list(syz[0].coords) == [y, -x]


def test_syzygy_includes_unit_for_zero_generator():
    P = qring(2)
    x, _ = P.variables()
    syz = syzygies([x, P.zero()])
    vectors = [tuple(s.coords) for s in syz]
    assert (P.zero(), P.one()) in vectors


def test_syzygies_over_quotient_ring():
    # relations of (x) in Q[x,y]/(x^2, xy): the whole maximal ideal
    P = qring(2)
    x, y = P.variables()
    defining = buchberger([x * x, x * y])
    syz = syzygies([x], defining=defining)
    assert {s.coords[0] for s in syz} == {x, y}


@pytest.mark.parametrize("build", [lambda: qring(3), lambda: fring(7, 3)])
def test_syzygies_sound_and_complete_on_random_homogeneous_input(build):
    ring = build()
    rng = random.Random(441)
    for _ in range(25):
        gens = _random_homogeneous_ideal(rng, ring, max_gens=3, max_degree=2)
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        syz = syzygies(gens)
        tuples = [list(s.coords) for s in syz]
        for coords in tuples:
            assert oracles.syzygy_applies(gens, coords).is_zero()
        for d in range(1, 5):
            assert oracles.syzygy_slice_nullity(gens, d) == \
                oracles.syzygy_span_slice_dim(gens, tuples, d)


# -- budgets ---------------------------------------------------------------------


def test_step_budget_exhaustion():
    P = qring(2)
    with pytest.raises(BudgetExceededError):
        buchberger(list(classic_pair(P)), budget=Budget(max_steps=3))


def test_degree_budget_exhaustion():
    P = qring(2)
    x, y = P.variables()
    with pytest.raises(BudgetExceededError):
        buchberger([x ** 5 + y ** 5, y ** 4], budget=Budget(max_degree=4))


def test_mixed_ring_input_rejected():
    P, Q2 = qring(2), qring(3)
    with pytest.raises(StructuralError):
        buchberger([P.variable(0), Q2.variable(0)])
