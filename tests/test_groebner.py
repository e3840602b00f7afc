"""Buchberger engine: reduced bases, normal forms, modules, syzygies."""
from fractions import Fraction
import random

import pytest

from singulant.errors import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    Meter,
    StructuralError,
    budget_scope,
)
from singulant.groebner import (
    GroebnerBasis,
    ModuleElement,
    _reduce,
    buchberger,
    normal_form,
    syzygies,
)
from singulant.poly import (
    GREVLEX,
    LEX,
    Monomial,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    elimination_order,
)

import oracles
from util import fring, qring, rand_coeff, rand_monomial, rand_poly


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
    assert normal_form(x * x + x * y, gb).is_zero()
    assert not normal_form(x, gb).is_zero()


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
        for el in (a, a + b, a - a, a.scale(Fraction(-3, 2)),
                   a.mul_term(mono, 5),
                   # leading and trailing zero coordinates
                   ModuleElement(P, [P.zero()] + coords[1:]),
                   ModuleElement(P, coords[1:] + [P.zero()] * 2),
                   ModuleElement.unit(P, 3, 2, coords[0]), a.monic()):
            first = el.lead()
            assert first == _lead_by_scan(el)
            assert el.lead() is first
            assert el.is_zero() == (first is None)


def _assert_canonical(el):
    """``terms`` strictly decreasing under position over term, with no zero
    coefficient, and the same element as the one built from its coordinates."""
    order, field = el.ring.order, el.ring.field
    keys = [(-pos, order.key(m)) for pos, m, _ in el.terms]
    assert all(a > b for a, b in zip(keys, keys[1:])), el
    assert all(0 <= pos < el.rank and k != field.zero for pos, _, k in el.terms)
    assert ModuleElement(el.ring, el.coords) == el
    assert el.lead() == (el.terms[0] if el.terms else None)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order((2,), (0, 1))],
                         ids=["grevlex", "lex", "block"])
def test_terms_stay_in_position_over_term_order(order, field):
    rng = random.Random(23)
    P = PolynomialRing(field, 3, order)
    x, y, z = P.variables()
    gb = buchberger([ModuleElement(P, [x * y, z, P.zero()]),
                     ModuleElement(P, [y * y, P.zero(), x - z]),
                     ModuleElement.unit(P, 3, 2, z * z)], rank=3)
    for el in gb:
        _assert_canonical(el)
    for _ in range(30):
        a = ModuleElement(P, [P.zero() if rng.random() < 0.3 else rand_poly(rng, P, 3, 4)
                              for _ in range(3)])
        b = ModuleElement(P, [rand_poly(rng, P, 2, 3) for _ in range(3)])
        mono = rand_monomial(rng, 3, 2)
        results = [a + b, a - b, a - a, -a, a.scale(rand_coeff(rng, field)),
                   a.mul_term(mono, rand_coeff(rng, field)),
                   a.mul_poly(rand_poly(rng, P, 2, 3)),
                   _reduce(a, gb.elements, Meter())]
        for el in results:
            _assert_canonical(el)
    pair = [x * y + z, y * z - x * x, x * z]
    syz = syzygies(pair)
    assert syz
    for el in syz:
        assert el.rank == len(pair)
        _assert_canonical(el)
    for el in syzygies([ModuleElement(P, [x, y, z]), ModuleElement(P, [y, z, x])],
                       defining=[x * x - y, z * z]):
        assert el.rank == 2
        _assert_canonical(el)


# -- heap division against the max-scan rule ------------------------------------


def _reduce_by_max_scan(el, basis, meter):
    """Division as it was before the heap: every step rescans all pending
    terms for the largest and subtracts the whole divisor, lead included."""
    ring = el.ring
    order = ring.order
    field = ring.field
    leads = [g.lead() for g in basis]
    work = {}
    for pos, c in enumerate(el.coords):
        for m, k in c.terms:
            work[(pos, m)] = k
    remainder = {}
    while work:
        pos, mono = max(work, key=lambda t: (-t[0], order.key(t[1])))
        coeff = work[(pos, mono)]
        meter.step()
        meter.check_degree(mono.degree)
        hit = None
        for g, (gp, gm, _) in zip(basis, leads):
            if gp == pos and gm.divides(mono):
                hit = (g, gm)
                break
        if hit is None:
            del work[(pos, mono)]
            remainder[(pos, mono)] = coeff
            continue
        g, gm = hit
        shift = mono.divide(gm)
        for gpos, gc in enumerate(g.coords):
            for m2, k2 in gc.terms:
                key = (gpos, m2.mul(shift))
                s = field.add(work.get(key, field.zero), field.neg(field.mul(k2, coeff)))
                if s == field.zero:
                    work.pop(key, None)
                else:
                    work[key] = s
    coords = [dict() for _ in range(el.rank)]
    for (pos, m), c in remainder.items():
        coords[pos][m] = c
    return ModuleElement(ring, [Polynomial(ring, d) for d in coords])


DIVISION_ORDERS = [GREVLEX, LEX, elimination_order((2,), (0, 1))]
DIVISION_ORDER_IDS = ["grevlex", "lex", "block"]


def _division_inputs(rng, P, rank):
    """Divisor lists, elements to divide, and the members among them.

    The divisors are random monic elements, which form no Groebner basis,
    the same list reversed, and the reduced basis they generate.  In rank 3
    the first coordinate is the original one and the last two are witness
    coordinates, one unit per generator, as ``syzygies`` sets them up.
    """
    if rank == 1:
        gens = [ModuleElement.wrap(rand_poly(rng, P, 3, 3)) for _ in range(4)]
    else:
        gens = [ModuleElement(P, [rand_poly(rng, P, 3, 3)]
                              + [P.one() if i == j else P.zero() for i in range(2)])
                for j in range(2)]
        gens.append(ModuleElement(P, [P.zero(), rand_poly(rng, P, 2, 2),
                                      rand_poly(rng, P, 2, 2)]))
    gens = [g.monic() for g in gens if not g.is_zero()]
    divisor_lists = [gens, gens[::-1], list(buchberger(gens).elements)]
    elements, members = [], []
    for _ in range(8):
        elements.append(ModuleElement(P, [rand_poly(rng, P, 5, 6) for _ in range(rank)]))
        combo = ModuleElement(P, [P.zero()] * rank)
        for g in gens:
            combo = combo + g.mul_poly(rand_poly(rng, P, 2, 2))
        members.append(combo)
    return divisor_lists, elements + members, members


def _both_ways(el, divisors, budget=None):
    """(remainder, steps) of heap division and of the max-scan rule."""
    heap_meter, scan_meter = Meter(budget), Meter(budget)
    heap = _reduce(el, divisors, heap_meter)
    scan = _reduce_by_max_scan(el, divisors, scan_meter)
    return (heap, heap_meter.steps), (scan, scan_meter.steps)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=DIVISION_ORDER_IDS)
def test_heap_division_matches_max_scan_rule(order, rank, field):
    rng = random.Random(17 * rank + field.characteristic)
    P = PolynomialRing(field, 3, order)
    divisor_lists, elements, members = _division_inputs(rng, P, rank)
    first_match_mattered = False
    for el in elements:
        results = []
        for divisors in divisor_lists:
            heap, scan = _both_ways(el, divisors)
            assert heap == scan
            for c in heap[0].coords:
                assert c.terms == Polynomial(P, dict(c.terms)).terms
                assert all(m.degree == sum(m.exps) for m, _ in c.terms)
            results.append(heap[0])
        # against the reduced basis the remainder is reduced, and zero on members
        assert _reduce(results[2], divisor_lists[2], Meter()) == results[2]
        if el in members:
            assert results[2].is_zero()
        first_match_mattered |= results[0] != results[1]
    assert first_match_mattered


def test_heap_division_hits_budgets_where_max_scan_does():
    # under lex, x -> y^4 raises the degree at every step: x^3, x^2*y^4,
    # x*y^8, y^12
    P = PolynomialRing(QQ, 2, LEX)
    x, y = P.variables()
    divisors = [ModuleElement.wrap(x - y ** 4)]
    el = ModuleElement.wrap(x ** 3)
    cases = [(el, divisors, Budget(max_degree=8)), (el, divisors, Budget(max_steps=2))]
    rng = random.Random(29)
    for order in DIVISION_ORDERS:
        P = PolynomialRing(QQ, 3, order)
        divisor_lists, elements, _ = _division_inputs(rng, P, 1)
        for el in elements[:4]:
            meter = Meter()
            _reduce_by_max_scan(el, divisor_lists[0], meter)
            top = max(c.total_degree() for c in el.coords)
            cases.append((el, divisor_lists[0], Budget(max_steps=meter.steps // 2)))
            cases.append((el, divisor_lists[0], Budget(max_degree=top - 1)))
    steps = []
    for el, divisors, budget in cases:
        heap_meter, scan_meter = Meter(budget), Meter(budget)
        with pytest.raises(BudgetExceededError) as heap_error:
            _reduce(el, divisors, heap_meter)
        with pytest.raises(BudgetExceededError) as scan_error:
            _reduce_by_max_scan(el, divisors, scan_meter)
        assert str(heap_error.value) == str(scan_error.value)
        assert heap_meter.steps == scan_meter.steps
        steps.append(heap_meter.steps)
    # both budgets stop the third step: x*y^8 has degree 9
    assert steps[:2] == [3, 3]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=DIVISION_ORDER_IDS)
def test_trusted_arithmetic_keeps_terms_canonical(order, field):
    rng = random.Random(5)
    P = PolynomialRing(field, 3, order)
    for _ in range(40):
        p = rand_poly(rng, P, 4, 6)
        mono = rand_monomial(rng, 3, 3)
        c = rand_coeff(rng, field)
        for q in (p.scale(c), p.mul_term(mono, c), -p):
            assert q.terms == Polynomial(P, dict(q.terms)).terms
            assert all(m.degree == sum(m.exps) for m, _ in q.terms)
        assert p.mul_term(mono, c) == Polynomial(
            P, [([a + b for a, b in zip(m.exps, mono.exps)], field.mul(k, c))
                for m, k in p.terms])
        assert p + (-p) == P.zero()
        other = rand_monomial(rng, 3, 3)
        prod = mono.mul(other)
        assert prod == Monomial([a + b for a, b in zip(mono.exps, other.exps)])
        assert prod.degree == mono.degree + other.degree
    zero = P.zero()
    assert zero.scale(3) is zero
    assert p.scale(field.characteristic).is_zero()
    assert p.mul_term(mono, field.characteristic).is_zero()


def test_term_products_reject_a_monomial_of_another_ring():
    P = qring(3)
    p = P.variable(0) + P.one()
    for wrong in (Monomial((1, 0)), Monomial((1, 0, 0, 0))):
        with pytest.raises(StructuralError):
            p.mul_term(wrong, 1)
        with pytest.raises(StructuralError):
            wrong.mul(Monomial((0, 1, 0)))
    with pytest.raises(StructuralError):
        p.mul_term((1, 0, 0), 1)


def test_monic_keeps_an_element_whose_lead_is_already_one():
    P = qring(2)
    x, y = P.variables()
    el = ModuleElement(P, [P.zero(), x + P.constant(2)])
    assert el.monic() is el
    scaled = ModuleElement(P, [P.zero(), x.scale(3) + y])
    assert scaled.monic() == ModuleElement(P, [P.zero(), x + y.scale(Fraction(1, 3))])


# -- differential test against sympy ----------------------------------------------


def _to_sympy(sympy, p, symbols):
    return sympy.Poly.from_dict(
        {m.exps: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms},
        *symbols,
    )


def _from_sympy(P, poly):
    if P.field.characteristic:
        terms = [(exps, int(c)) for exps, c in poly.terms()]
    else:
        terms = [(exps, Fraction(int(c.p), int(c.q))) for exps, c in poly.terms()]
    return Polynomial(P, terms).monic()


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("modulus", [0, 7, 101, 32003])
def test_buchberger_matches_sympy_on_random_ideals(modulus, order):
    sympy = pytest.importorskip("sympy")
    field = QQ if modulus == 0 else PrimeField(modulus)
    P = PolynomialRing(field, 3, order)
    symbols = sympy.symbols("x0:3")
    options = {"modulus": modulus} if modulus else {"domain": "QQ"}
    rng = random.Random(modulus + (1 if order is LEX else 0))
    # lex bases of five-term generators outgrow the default degree budget
    nterms = 5 if order is GREVLEX else 3
    for _ in range(10):
        gens = [rand_poly(rng, P, 3, nterms) for _ in range(3)]
        ours = buchberger(gens).polynomials()
        theirs = sympy.groebner([_to_sympy(sympy, g, symbols) for g in gens],
                                *symbols, order=order.name(), **options)
        want = sorted((_from_sympy(P, g) for g in theirs.polys),
                      key=lambda g: order.key(g.lead_monomial()), reverse=True)
        assert list(ours) == want


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
        with budget_scope(Budget(max_steps=3)):
            buchberger(list(classic_pair(P)))


def test_degree_budget_exhaustion():
    P = qring(2)
    x, y = P.variables()
    with pytest.raises(BudgetExceededError) as err:
        with budget_scope(Budget(max_degree=4)):
            buchberger([x ** 5 + y ** 5, y ** 4])
    assert err.value.scope is None


def test_nested_scope_steps_count_in_every_enclosing_scope():
    P = qring(2)
    gens = list(classic_pair(P))
    with budget_scope() as alone:
        buchberger(gens)
    assert alone.steps > 0
    with budget_scope() as outer:
        with budget_scope() as inner:
            buchberger(gens)
        assert inner.steps == outer.steps == alone.steps
        buchberger(gens)
    assert outer.steps == 2 * alone.steps
    with budget_scope(Budget(max_degree=4)):
        with budget_scope() as inner:
            assert inner.max_degree == 4


def test_exhaustion_names_the_scope_whose_limit_ran_out():
    P = qring(2)
    gens = list(classic_pair(P))
    with budget_scope() as outer:
        with budget_scope(Budget(max_steps=3)) as inner:
            with pytest.raises(BudgetExceededError) as err:
                buchberger(gens)
    assert err.value.scope is inner
    assert not err.value.escapes(inner) and err.value.escapes(outer)
    with budget_scope(Budget(max_steps=3)) as outer:
        with budget_scope() as inner:
            with pytest.raises(BudgetExceededError) as err:
                buchberger(gens)
    assert err.value.scope is outer
    assert err.value.escapes(inner)


def test_each_unscoped_call_gets_its_own_default_meter(monkeypatch):
    P = qring(2)
    gens = list(classic_pair(P))
    built = []
    init = Meter.__init__

    def counting(meter, *args, **kwargs):
        init(meter, *args, **kwargs)
        built.append(meter)

    monkeypatch.setattr(Meter, "__init__", counting)
    gb = buchberger(gens)
    normal_form(gens[0] * gens[1], gb)
    assert len(built) == 2
    assert all(m.budget == DEFAULT_BUDGET and m.parent is None for m in built)
    assert all(m.steps > 0 for m in built)
    with budget_scope():
        buchberger(gens)
    assert len(built) == 3


def test_mixed_ring_input_rejected():
    P, Q2 = qring(2), qring(3)
    with pytest.raises(StructuralError):
        buchberger([P.variable(0), Q2.variable(0)])
