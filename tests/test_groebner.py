"""Buchberger engine: reduced bases, normal forms, modules, syzygies."""
from fractions import Fraction
from math import gcd
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
from singulant import groebner
from singulant.groebner import (
    GroebnerBasis,
    ModuleElement,
    PairLoop,
    SignatureLoop,
    _DivisorTable,
    _interreduce,
    _reduce,
    _reduce_spair,
    buchberger,
    normal_form,
    syzygies,
)
from singulant.ideal_ops import RingPresentation
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
from singulant.resolve import seeded_loop

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
    el = ModuleElement(P, [x, y])  # x*e0 + y*e1
    pos, mono, coeff = el.lead()
    assert pos == 0 and mono.exps == (1, 0)

    gens = [el, ModuleElement.unit(P, 2, 0, y)]
    gb = buchberger(gens, rank=2)
    x_e0_y_e1 = el
    y_e0 = ModuleElement.unit(P, 2, 0, y)
    y2_e1 = ModuleElement.unit(P, 2, 1, y * y)
    assert list(gb.elements) == [x_e0_y_e1, y_e0, y2_e1]


def _combination(*parts):
    """The sum of coeff * mono * el over the (coeff, mono, el) parts, built
    term by term with ``from_terms``; mono None stands for 1."""
    el = parts[0][2]
    field = el.ring.field
    return ModuleElement.from_terms(el.ring, el.rank, [
        (p, m if mono is None else m.mul(mono), field.mul(k, field.normalize(c)))
        for c, mono, g in parts for p, m, k in g.terms])


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
        monic = a if a.is_zero() else _combination((1 / a.lead()[2], None, a))
        for el in (a, _combination((1, None, a), (1, None, b)),
                   _combination((1, None, a), (-1, None, a)),
                   _combination((Fraction(-3, 2), None, a)), _combination((5, mono, a)),
                   # leading and trailing zero coordinates
                   ModuleElement(P, [P.zero()] + coords[1:]),
                   ModuleElement(P, coords[1:] + [P.zero()] * 2),
                   ModuleElement.unit(P, 3, 2, coords[0]), monic):
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
        results = [_combination((1, None, a), (1, None, b)),
                   _combination((1, None, a), (-1, None, b)),
                   _combination((1, None, a), (-1, None, a)), _combination((-1, None, a)),
                   _combination((rand_coeff(rng, field), None, a)),
                   _combination((rand_coeff(rng, field), mono, a)),
                   a.mul_poly(rand_poly(rng, P, 2, 3)),
                   _reduce(a, _DivisorTable(P, gb.elements), Meter())]
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
    terms for the largest and subtracts the whole divisor, lead included,
    times the popped coefficient over the divisor's lead coefficient."""
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
        for g, (gp, gm, gk) in zip(basis, leads):
            if gp == pos and gm.divides(mono):
                hit = (g, gm, gk)
                break
        if hit is None:
            del work[(pos, mono)]
            remainder[(pos, mono)] = coeff
            continue
        g, gm, gk = hit
        shift = mono.divide(gm)
        factor = field.mul(coeff, field.invert(gk))
        for gpos, gc in enumerate(g.coords):
            for m2, k2 in gc.terms:
                key = (gpos, m2.mul(shift))
                s = field.add(work.get(key, field.zero), field.neg(field.mul(k2, factor)))
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


def _large(rng, el):
    """el with every coefficient times a random fraction of about 80 bits
    over about 80 bits."""
    return ModuleElement.from_terms(el.ring, el.rank, [
        (p, m, k * Fraction(rng.getrandbits(80) | 1, rng.getrandbits(80) | 1))
        for p, m, k in el.terms])


def _division_inputs(rng, P, rank, large=False):
    """Divisor lists, elements to divide, and the members among them.

    The divisors are random elements, neither monic nor a Groebner basis,
    the same list reversed, and the reduced basis they generate.  In rank 3
    the first coordinate is the original one and the last two are witness
    coordinates, one unit per generator, as ``syzygies`` sets them up.
    With ``large`` the generators and the elements get large coefficients,
    so the divisors have large denominators, no two alike.
    """
    if rank == 1:
        gens = [ModuleElement.wrap(rand_poly(rng, P, 3, 3)) for _ in range(4)]
    else:
        gens = [ModuleElement(P, [rand_poly(rng, P, 3, 3)]
                              + [P.one() if i == j else P.zero() for i in range(2)])
                for j in range(2)]
        gens.append(ModuleElement(P, [P.zero(), rand_poly(rng, P, 2, 2),
                                      rand_poly(rng, P, 2, 2)]))
    if large:
        gens = [_large(rng, g) for g in gens]
    gens = [g for g in gens if not g.is_zero()]
    divisor_lists = [gens, gens[::-1], list(buchberger(gens).elements)]
    elements, members = [], []
    for _ in range(8):
        el = ModuleElement(P, [rand_poly(rng, P, 5, 6) for _ in range(rank)])
        elements.append(_large(rng, el) if large else el)
        members.append(ModuleElement.from_terms(P, rank, [
            t for g in gens for t in g.mul_poly(rand_poly(rng, P, 2, 2)).terms]))
    return divisor_lists, elements + members, members


def _both_ways(el, divisors, budget=None):
    """(remainder, steps) of heap division and of the max-scan rule."""
    heap_meter, scan_meter = Meter(budget), Meter(budget)
    heap = _reduce(el, _DivisorTable(el.ring, divisors), heap_meter)
    scan = _reduce_by_max_scan(el, divisors, scan_meter)
    return (heap, heap_meter.steps), (scan, scan_meter.steps)


@pytest.mark.parametrize("field, large",
                         [(QQ, False), (PrimeField(7), False),
                          (QQ, True), (PrimeField(32003), False)],
                         ids=["Q", "F7", "Q-large", "F32003"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=DIVISION_ORDER_IDS)
def test_heap_division_matches_max_scan_rule(order, rank, field, large):
    rng = random.Random(17 * rank + field.characteristic + large)
    P = PolynomialRing(field, 3, order)
    divisor_lists, elements, members = _division_inputs(rng, P, rank, large)
    if large:
        dens = [row[2] for row in _DivisorTable(P, divisor_lists[0]).rows]
        assert len(set(dens)) == len(dens) and min(dens) > 2 ** 64
    first_match_mattered = False
    for el in elements:
        results = []
        for divisors in divisor_lists:
            heap, scan = _both_ways(el, divisors)
            assert heap == scan
            for c in heap[0].coords:
                assert c.terms == Polynomial(P, dict(c.terms)).terms
                assert all(m.degree == sum(m.exps) for m, _ in c.terms)
            if field is QQ:
                # format_polynomial reads the sign of a Fraction
                for _, _, k in heap[0].terms:
                    assert type(k) is Fraction and k.denominator > 0
                    assert gcd(k.numerator, k.denominator) == 1
            results.append(heap[0])
        # against the reduced basis the remainder is reduced, and zero on members
        assert _reduce(results[2], _DivisorTable(P, divisor_lists[2]), Meter()) == results[2]
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
            _reduce(el, _DivisorTable(el.ring, divisors), heap_meter)
        with pytest.raises(BudgetExceededError) as scan_error:
            _reduce_by_max_scan(el, divisors, scan_meter)
        assert str(heap_error.value) == str(scan_error.value)
        assert heap_meter.steps == scan_meter.steps
        steps.append(heap_meter.steps)
    # both budgets stop the third step: x*y^8 has degree 9
    assert steps[:2] == [3, 3]


def _hand_division(case, P):
    """(f, divisors, remainder, steps, integer and running denominator of
    each remainder term) of the hand-derived Q divisions, under grevlex."""
    x, y = P.variables()
    c = P.constant
    if case == "lowest-terms":
        # x^2y^2 -> xy^2/2 -> y^2/4 -> y/6 -> 1/9, and the remainder's step:
        # the denominator picks up 2, 2, 3, 3 and the numerator 2 * 2, so
        # 4/36 is brought to lowest terms once, at the end
        return (x ** 2 * y ** 2, [x - c(Fraction(1, 2)), y - c(Fraction(2, 3))],
                c(Fraction(1, 9)), 5, [(4, 36)])
    if case == "partial-gcd":
        # 2x^2 by 6x - 1 over 6: gcd(2, 6) = 2 leaves a factor 3 (x/3);
        # then gcd(1, 6) = 1 and the factor is 6 (1/18)
        return (c(2) * x ** 2, [x - c(Fraction(1, 6))], c(Fraction(1, 18)), 3, [(1, 18)])
    if case == "pending-scaled":
        # x^2 + y -> x/2 + y -> y + 1/4: each step doubles the denominator,
        # and y, pending throughout, with it
        return (x ** 2 + y, [x - c(Fraction(1, 2))], y + c(Fraction(1, 4)), 4,
                [(4, 4), (1, 4)])
    # every divisor is integral: x^3 + xy^2/2 -> 3xy + xy^2/2 -> 3xy + x^2 -
    # 5x/2 -> 3xy - 5x/2 + 3y, and the three remainder steps; the running
    # denominator stays the input's 2
    return (x ** 3 + c(Fraction(1, 2)) * x * y ** 2,
            [x ** 2 - c(3) * y, y ** 2 - c(2) * x + c(5)],
            c(3) * x * y - c(Fraction(5, 2)) * x + c(3) * y, 6, [(6, 2), (-5, 2), (6, 2)])


@pytest.mark.parametrize("case", ["lowest-terms", "partial-gcd", "pending-scaled",
                                  "integral"])
def test_q_division_under_one_running_denominator_by_hand(case, monkeypatch):
    P = qring(2)
    f, divisors, remainder, steps, popped = _hand_division(case, P)
    el, divisors = ModuleElement.wrap(f), [ModuleElement.wrap(g) for g in divisors]
    seen = []

    def fraction(a, d):
        seen.append((a, d))
        return Fraction(a, d)

    # the kernel hands each remainder term's integer and the running
    # denominator of its pop to Fraction
    monkeypatch.setattr(groebner, "Fraction", fraction)
    (heap, heap_steps), (scan, scan_steps) = _both_ways(el, divisors)
    assert heap == scan == ModuleElement.wrap(remainder)
    assert heap_steps == scan_steps == steps
    assert seen == popped


def _scaled_rows(case):
    """(multiples of one element, den, tail integers) of the hand-derived
    divisor rows, under grevlex."""
    if case == "F7":
        P = fring(7, 2)
        x, _ = P.variables()
        # 3x + 1 times 3^-1 = 5 is x + 5
        return [P.constant(3) * x + P.one(), x + P.constant(5)], 1, [5]
    P = qring(2)
    x, y = P.variables()
    c = P.constant
    if case == "linear":
        # the primitive vector of each is 2x - 1
        return [c(2) * x - c(1), x - c(Fraction(1, 2)), c(-4) * x + c(2)], 2, [-1]
    # content 2 out of 6x^2 + 4xy - 2, and the lead x^2 made positive
    f = c(6) * x ** 2 + c(4) * x * y - c(2)
    return [f, -f, x ** 2 + c(Fraction(2, 3)) * x * y - c(Fraction(1, 3))], 3, [2, -1]


@pytest.mark.parametrize("case", ["linear", "quadric", "F7"])
def test_divisor_rows_do_not_depend_on_scaling(case):
    multiples, den, tail = _scaled_rows(case)
    els = [ModuleElement.wrap(f) for f in multiples]
    table = _DivisorTable(els[0].ring, els)
    # one packing, as every multiple has the same terms
    assert len(set(table.rows)) == 1
    _, lead, row_den, row_tail = table.rows[0]
    assert lead == table.packing.pack(0, els[0].lead()[1].exps)
    assert (row_den, [k for _, k in row_tail]) == (den, tail)
    assert [t for t, _ in row_tail] == [table.packing.pack(0, m.exps)
                                        for _, m, _ in els[0].terms[1:]]
    # dividing by any of them is dividing by the monic element
    probe = ModuleElement.wrap(multiples[0].ring.variable(0) ** 3)
    for g in els:
        (heap, heap_steps), (scan, scan_steps) = _both_ways(probe, [g])
        assert heap == scan and heap_steps == scan_steps


def _spair_by_hand(f, g):
    """S-pair of two elements whose leads share a position, each made monic,
    built term by term."""
    (_, fm, fk), (_, gm, gk) = f.lead(), g.lead()
    both = Monomial(tuple(map(max, fm.exps, gm.exps)))
    field = f.ring.field
    return _combination((field.invert(fk), both.divide(fm), f),
                        (field.neg(field.invert(gk)), both.divide(gm), g))


@pytest.mark.parametrize("field, large", [(QQ, False), (QQ, True), (PrimeField(7), False)],
                         ids=["Q", "Q-large", "F7"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=DIVISION_ORDER_IDS)
def test_kernel_spairs_match_max_scan_of_the_built_spair(order, rank, field, large):
    rng = random.Random(41 * rank + field.characteristic + large)
    P = PolynomialRing(field, 3, order)
    checked = 0
    for _ in range(6):
        divisor_lists, _, _ = _division_inputs(rng, P, rank, large)
        for divisors in divisor_lists:
            for i in range(len(divisors)):
                for j in range(i + 1, len(divisors)):
                    if divisors[i].lead()[0] != divisors[j].lead()[0]:
                        continue
                    kernel_meter, scan_meter = Meter(), Meter()
                    kernel = _reduce_spair(_DivisorTable(P, divisors), i, j, kernel_meter)
                    scan = _reduce_by_max_scan(_spair_by_hand(divisors[i], divisors[j]),
                                               divisors, scan_meter)
                    assert kernel == scan
                    assert kernel_meter.steps == scan_meter.steps
                    checked += 1
    assert checked >= 20


def test_exponents_past_the_first_field_width_repack_the_table():
    wide = Budget(max_degree=2 ** 17)
    n = 2 ** 16
    cases = []
    for order in (GREVLEX, LEX):
        P = PolynomialRing(QQ, 2, order)
        x, y = P.variables()
        cases.append((x ** n, [x ** (n - 1) - y]))
        # a table of degree two first packs narrow fields; x^n*y re-packs it
        cases.append((x ** n * y, [x * y - P.one()]))
    # under lex every step pushes a term of higher degree than it pops:
    # x^3, x^2*y^(n/2), x*y^n, y^(3n/2)
    P = PolynomialRing(QQ, 2, LEX)
    x, y = P.variables()
    cases.append((x ** 3, [x - y ** (n // 2)]))
    for f, divisors in cases:
        el = ModuleElement.wrap(f)
        divisors = [ModuleElement.wrap(g) for g in divisors]
        (heap, heap_steps), (scan, scan_steps) = _both_ways(el, divisors, wide)
        assert heap == scan and heap_steps == scan_steps
        assert not heap.is_zero()
    assert max(m.degree for _, m, _ in heap.terms) == 3 * n // 2
    # an S-pair whose lcm and tail cross the width: y*f - x^(n-1)*g
    for order in (GREVLEX, LEX):
        P = PolynomialRing(PrimeField(7), 2, order)
        x, y = P.variables()
        divisors = [ModuleElement.wrap(x ** n - y), ModuleElement.wrap(x * y - P.one())]
        kernel_meter, scan_meter = Meter(wide), Meter(wide)
        kernel = _reduce_spair(_DivisorTable(P, divisors), 0, 1, kernel_meter)
        scan = _reduce_by_max_scan(_spair_by_hand(*divisors), divisors, scan_meter)
        assert kernel == scan and kernel_meter.steps == scan_meter.steps
        assert kernel == ModuleElement.wrap(x ** (n - 1) - y ** 2)


# -- divisor tables kept across divisions ---------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_pair_loop_keys_its_queue_again_when_the_table_repacks(seed):
    # w^20 is added unreduced, past the degree limit the table was packed
    # for, while pairs of the other generators wait; it is coprime to every
    # lead, so the run stays inside the limit
    rng = random.Random(seed)
    P = PolynomialRing(QQ, 4, GREVLEX)
    slots = [exps + (0,) for exps in oracles.monomials_of_degree(3, 2)]
    gens = [ModuleElement.wrap(Polynomial(P, [(exps, rand_coeff(rng, QQ))
                                              for exps in rng.sample(slots, 3)]))
            for _ in range(4)]
    runs = []
    for wide in (False, True):
        meter = Meter(Budget(max_degree=8))
        loop = PairLoop(P, 1, meter)
        if wide:
            loop.table.fit(meter.max_degree, 64)
        for g in gens[:2]:
            loop.add(loop.reduce(g))
        first = loop.table.packing
        loop.add(ModuleElement.wrap(P.variable(3) ** 20))
        for g in gens[2:]:
            loop.add(loop.reduce(g))
        loop.complete()
        runs.append((loop.basis, meter.steps, loop.table.packing is first))
    (narrow, steps, kept), (wide, wide_steps, wide_kept) = runs
    assert not kept and wide_kept
    assert narrow == wide and steps == wide_steps


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_pair_loop_divides_by_every_element_added(field):
    # the trim_generators pattern: reduce a column, add it, run the pairs
    rng = random.Random(31)
    P = PolynomialRing(field, 3, GREVLEX)
    loop = PairLoop(P, 1, Meter())
    probes = [ModuleElement.wrap(rand_poly(rng, P, 4, 6)) for _ in range(6)]
    added = 0
    for _ in range(5):
        # homogeneous, so the span never becomes the unit ideal
        slots = oracles.monomials_of_degree(3, rng.randint(2, 3))
        col = ModuleElement.wrap(Polynomial(
            P, [(exps, rand_coeff(rng, field)) for exps in rng.sample(slots, 3)]))
        nf = loop.reduce(col)
        if nf.is_zero():
            continue
        loop.add(nf)
        added += 1
        # a divisor as soon as it is added, before its pairs run
        assert loop.reduce(nf).is_zero()
        for el in probes:
            assert loop.reduce(el) == _reduce_by_max_scan(el, loop.basis, Meter())
        loop.complete()
        assert loop.reduce(col).is_zero()
    assert added >= 3


def test_basis_table_is_kept_and_ignored_by_equality():
    rng = random.Random(37)
    P = qring(3)
    gens = [rand_poly(rng, P, 2, 4) for _ in range(3)]
    gb, twin = buchberger(gens), buchberger(gens)
    assert gb == twin and hash(gb) == hash(twin)
    probes = [rand_poly(rng, P, 4, 6) for _ in range(6)]
    first = [normal_form(f, gb) for f in probes]
    # gb's table is built, twin's is not
    assert gb == twin and hash(gb) == hash(twin) and len({gb, twin}) == 1
    assert [normal_form(f, gb) for f in probes] == first
    assert [normal_form(f, twin) for f in probes] == first
    assert gb == twin and hash(gb) == hash(twin)
    assert first == [_reduce_by_max_scan(ModuleElement.wrap(f), gb.elements, Meter()).coords[0]
                     for f in probes]
    assert any(not nf.is_zero() for nf in first)


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
    return Polynomial(P, terms)


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
        want = sorted((_from_sympy(P, g).monic() for g in theirs.polys),
                      key=lambda g: order.key(g.lead_monomial()), reverse=True)
        assert list(ours) == want


def test_normal_forms_match_sympy_on_a_dense_ideal():
    # shaped like the groebner benchmark: four dense quadrics in four
    # variables over Q, whose reduced basis has denominators of hundreds of bits
    sympy = pytest.importorskip("sympy")
    P = qring(4)
    symbols = sympy.symbols("x0:4")
    rng = random.Random(4)
    nonzero = [c for c in range(-9, 10) if c]
    gens = [Polynomial(P, [(exps, rng.choice(nonzero)) for d in range(3)
                           for exps in oracles.monomials_of_degree(4, d)])
            for _ in range(4)]
    gb = buchberger(gens)
    theirs = sympy.groebner([_to_sympy(sympy, g, symbols) for g in gens],
                            *symbols, order="grevlex", domain="QQ")
    want = sorted((_from_sympy(P, g).monic() for g in theirs.polys),
                  key=lambda g: GREVLEX.key(g.lead_monomial()), reverse=True)
    assert list(gb.polynomials()) == want
    assert max(c.denominator for g in want for _, c in g.terms) > 2 ** 200
    # against a reduced basis the remainder of any division is the normal form
    for _ in range(8):
        f = rand_poly(rng, P, 4, 8)
        _, r = sympy.reduced(_to_sympy(sympy, f, symbols), theirs.polys, *symbols,
                             order="grevlex", domain="QQ")
        nf = normal_form(f, gb)
        assert not nf.is_zero()
        assert nf == _from_sympy(P, r)


# -- the defining basis packed once, placed by shifted rows ---------------------


def _random_defining(rng, ring):
    """Reduced basis of two or three homogeneous quadrics with seeded
    coefficients, so that over Q its rows have denominators and content."""
    slots = oracles.monomials_of_degree(ring.nvars, 2)
    gens = [Polynomial(ring, [(exps, rand_coeff(rng, ring.field))
                              for exps in rng.sample(slots, rng.randint(1, 3))])
            for _ in range(rng.randint(2, 3))]
    return buchberger(gens)


def _assert_rows_are_packed_rows(table):
    for g, row in zip(table.elements, table.rows):
        assert row == groebner._divisor_row(g, table.packing)
    assert [r[:4] for rows in table.by_pos.values() for r in rows] == sorted(
        table.rows, key=lambda r: r[1] >> table.packing.pos_shift)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)],
                         ids=["Q", "F7", "F32003"])
def test_seeded_rows_are_the_rows_of_their_elements(field):
    """Defining generators enter a loop as g's row shifted to its position,
    never packed themselves.  Every row must still be ``_divisor_row`` of
    its element in the loop's packing: in a ``seeded_loop``-style loop of
    ranks 1 to 4 with nonzero shifts, after its pairs run and after an
    element of degree 40 re-packs the table; and in ``from_seeds``, where
    the defining generators follow plain seeds and are divided first."""
    rng = random.Random(4099 + field.characteristic)
    ring = PolynomialRing(field, 3, GREVLEX)
    z = ring.variable(2)
    repacked = 0
    for rank in (1, 2, 3, 4):
        defining = _random_defining(rng, ring)
        shifts = [rng.randint(1, 3) for _ in range(rank)]
        gens = [ModuleElement(ring, [rand_poly(rng, ring, 2, 2) for _ in range(rank)])
                for _ in range(2)]
        loop = PairLoop(ring, rank, Meter(), shifts)
        loop.seed(defining, range(rank))
        assert all(origin is not None for origin in loop.table.origins)
        for el in gens:
            loop.add(loop.reduce(el))
        loop.complete()
        _assert_rows_are_packed_rows(loop.table)
        first = loop.table.packing
        loop.add(ModuleElement.unit(ring, rank, rank - 1, z ** 40))
        repacked += loop.table.packing is not first
        _assert_rows_are_packed_rows(loop.table)

        seeded = PairLoop.from_seeds(gens, (defining, rank), ring, rank, Meter())
        _assert_rows_are_packed_rows(seeded.table)
        assert _interreduce(seeded.table, Meter()) == list(buchberger(gens, defining=defining))
    assert repacked == 4


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)],
                         ids=["Q", "F7", "F32003"])
def test_normal_form_element_is_the_coordinatewise_normal_form(field):
    """One division modulo I * P^rank against the defining basis's table
    of that rank gives each coordinate's normal form, and the element
    itself when no step divides; the zero ring Q[x]/(x, 1) sends every
    element to zero."""
    rng = random.Random(613 + field.characteristic)
    P = PolynomialRing(field, 3, GREVLEX)
    rings = [RingPresentation(field, ("x", "y", "z"), _random_defining(rng, P).polynomials())
             for _ in range(4)]
    if field is QQ:
        x = qring(1).variable(0)
        rings.append(RingPresentation(QQ, ("x",), [x, x ** 0]))
    for R in rings:
        P = R.poly_ring
        for rank in (1, 2, 3, 4):
            for _ in range(6):
                el = ModuleElement(P, [rand_poly(rng, P, 3, rng.randint(0, 3))
                                       for _ in range(rank)])
                got = R.normal_form_element(el)
                want = ModuleElement(P, [R.normal_form(c) for c in el.coords])
                assert got == want
                assert (got is el) == (want == el)
        if R.defining_basis().is_unit_ideal():
            assert R.normal_form_element(ModuleElement(P, [P.one(), P.one()])).is_zero()


def test_seeding_packs_each_defining_row_once_per_packing(monkeypatch):
    """Seeding I * R^rank again, at any rank, packs no defining generator
    again: each row is packed once per packing, and no placed copy
    g * e_pos ever reaches ``_divisor_row``.  ``seeded_loop`` packs no copy
    at all; ``from_seeds`` reduces each copy that follows plain seeds, which
    packs its terms once for that division (``_integral``) and never for
    the table."""
    x, y, z = qring(3).variables()
    R = RingPresentation(QQ, ("x", "y", "z"),
                         [x * x - (y * z).scale(Fraction(1, 3)), y * y - 2 * x * z])
    basis = R.defining_basis()
    packed, integral = [], []
    row, whole = groebner._divisor_row, groebner._integral

    def counting_row(g, packing):
        packed.append((g, packing))
        return row(g, packing)

    def counting_integral(terms, pack, p):
        integral.append(terms)
        return whole(terms, pack, p)

    monkeypatch.setattr(groebner, "_divisor_row", counting_row)
    monkeypatch.setattr(groebner, "_integral", counting_integral)
    loops = [seeded_loop(R, rank) for rank in (3, 3, 5, 2)]
    assert all(any(g is e for e in basis.elements) for g, _ in packed)
    packings = {id(p) for _, p in packed}
    assert len(packed) == len(basis) * len(packings)
    assert len({(id(g), id(p)) for g, p in packed}) == len(packed)
    # over Q a row's integers come from the element's own terms
    assert integral == [g.terms for g, _ in packed]
    assert all(origin is not None for loop in loops for origin in loop.table.origins)

    P = R.poly_ring
    gens = [ModuleElement(P, [x, y * z]), ModuleElement(P, [y, x * x])]
    packed.clear()
    loop = PairLoop.from_seeds(gens, (basis, 2), P, 2, Meter())
    copies = [g for g, origin in zip(loop.basis, loop.table.origins) if origin is not None]
    assert copies
    assert not any(g is c for g, _ in packed for c in copies)
    assert all(sum(terms is c.terms for terms in integral) == 1 for c in copies)


def test_syzygies_over_a_quotient_complete_at_the_witness_rank(monkeypatch):
    """``syzygies(gens, defining=...)`` still runs ``_core`` once, at rank
    + len(gens), with the defining basis adjoined in the first rank
    positions; recorded through a wrapper, as the benchmark's tracer
    records ``groebner.rank_in.max``."""
    recorded = []
    core = groebner._core

    def counted_core(elements, ipart, ring, rank, meter):
        basis = core(elements, ipart, ring, rank, meter)
        recorded.append((len(elements), ipart, rank, len(basis)))
        return basis

    P = qring(3)
    x, y, z = P.variables()
    defining = buchberger([x * x, y * y])
    monkeypatch.setattr(groebner, "_core", counted_core)
    gens = [ModuleElement(P, [x, y]), ModuleElement(P, [y, z]), ModuleElement(P, [z, x])]
    syz = syzygies(gens, defining=defining)
    assert [r[:3] for r in recorded] == [(3, (defining, 2), 5)]
    assert recorded[0][3] >= len(syz) > 0


# -- signature-based completion ---------------------------------------------------


def _completed(loop_class, gens, defining=()):
    """Reduced basis of gens plus the defining basis through one loop
    class, or the BudgetExceededError text.  ``PairLoop`` gets the defining
    basis adjoined, as ``_core`` runs it, seeded after gens from the rows
    of one ``GroebnerBasis``; ``SignatureLoop`` takes nothing adjoined, so
    it gets the defining basis as plain seeds."""
    ring = gens[0].ring
    seeds = [ModuleElement.wrap(g) for g in gens]
    meter = Meter()
    try:
        if loop_class is PairLoop:
            basis = (GroebnerBasis(ring, 1, [ModuleElement.wrap(g) for g in defining])
                     if defining else None)
            loop = PairLoop.from_seeds(seeds, (basis, 1), ring, 1, meter)
        else:
            seeds += [ModuleElement.wrap(g) for g in defining]
            loop = SignatureLoop.from_seeds(seeds, ring, meter)
        return _interreduce(loop.table, meter)
    except BudgetExceededError as exc:
        return str(exc)


def _random_affine_ideal(rng, ring):
    """Two to four sparse polynomials of degree at most 5, or a seeded
    homogeneous ideal, which is never the unit ideal."""
    if rng.random() < 0.5:
        return _random_homogeneous_ideal(rng, ring, max_gens=4, max_degree=3)
    gens = [rand_poly(rng, ring, rng.randint(2, 5), rng.randint(2, 5))
            for _ in range(rng.randint(2, 4))]
    return [g for g in gens if not g.is_zero()] or [ring.variable(0)]


@pytest.mark.parametrize("with_defining", [False, True], ids=["plain", "defining"])
@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)],
                         ids=["Q", "F7", "F32003"])
def test_signature_loop_matches_pair_loop(field, with_defining):
    """The reduced basis is unique, so the signature loop and the pair loop
    give the same basis on every rank-one grevlex input, or run out of the
    default budget alike.  With a defining basis the signature loop takes
    it as plain seeds, and both must match ``buchberger(gens,
    defining=...)``, which runs the pair loop with it flagged."""
    rng = random.Random(7919 + field.characteristic + with_defining)
    proper = 0
    for _ in range(40):
        ring = PolynomialRing(field, rng.randint(2, 4), GREVLEX)
        gens = _random_affine_ideal(rng, ring)
        defining = ()
        if with_defining:
            defining = buchberger(_random_homogeneous_ideal(
                rng, ring, max_gens=3, max_degree=2)).polynomials()
        got = _completed(SignatureLoop, gens, defining)
        assert got == _completed(PairLoop, gens, defining)
        if not isinstance(got, str):
            assert buchberger(gens, defining=defining or None).elements == tuple(got)
            proper += not (len(got) == 1 and got[0].terms[0][1].degree == 0)
    assert proper >= 20


def test_signature_loop_keeps_singular_top_reducible_results():
    """Dropping a result whose lead an element divides at an equal
    multiplied signature loses x1^7 + ... from this basis."""
    P = qring(3)
    x0, x1, x2 = P.variables()
    gens = [6 * x0**3 * x1**3 * x2**3 + 6 * x0**2 * x1 * x2 + 4 * x0**3,
            2 * x0**3 + 5 * x0 * x1 * x2 + 3 * x1**2,
            4 * x0**3 * x1**3 * x2**3 + x0**3 * x1 * x2**2 + 2 * x1 * x2**3]
    got = _completed(SignatureLoop, gens)
    assert got == _completed(PairLoop, gens)
    assert Monomial((0, 7, 0)) in [el.terms[0][1] for el in got]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_no_spair_of_a_dense_regular_sequence_reduces_to_zero(monkeypatch, field):
    """Four dense quadrics in four variables with seeded coefficients: their
    top-degree forms are a regular sequence, so every syzygy is a Koszul
    one, whose signature the F5 criterion knows (Faugere 2002).  No
    S-pair reduces to zero; the pair loop reduces many to zero."""
    rng = random.Random(97)
    P = PolynomialRing(field, 4, GREVLEX)
    nonzero = [c for c in range(-9, 10) if c]
    gens = [Polynomial(P, [(exps, rng.choice(nonzero)) for d in range(3)
                           for exps in oracles.monomials_of_degree(4, d)])
            for _ in range(4)]
    zeros = []
    kernel = groebner._reduce_spair

    def counting(*args):
        r = kernel(*args)
        zeros.append(r.is_zero())
        return r

    monkeypatch.setattr(groebner, "_reduce_spair", counting)
    got = _completed(SignatureLoop, gens)
    assert zeros and not any(zeros)
    zeros.clear()
    assert _completed(PairLoop, gens) == got
    assert sum(zeros) > len(zeros) // 2


def test_only_rank_one_grevlex_input_takes_the_signature_loop(monkeypatch):
    runs = []
    for loop_class in (PairLoop, SignatureLoop):
        def counting(*args, _original=loop_class.from_seeds, _name=loop_class.__name__):
            runs.append(_name)
            return _original(*args)
        monkeypatch.setattr(loop_class, "from_seeds", staticmethod(counting))

    def loops(compute):
        runs.clear()
        compute()
        return set(runs)

    P = qring(3)
    x, y, z = P.variables()
    gens = [x * x - y * z, y * y - x * z]
    assert loops(lambda: buchberger(gens)) == {"SignatureLoop"}
    # an ideal of a quotient ring has flagged defining generators
    defining = buchberger(gens)
    assert loops(lambda: buchberger([x], defining=defining)) == {"PairLoop"}
    for order in (LEX, elimination_order((0,), (1, 2))):
        Q = PolynomialRing(QQ, 3, order)
        u, v, w = Q.variables()
        assert loops(lambda: buchberger([u * u - v * w, v * v - u * w])) == {"PairLoop"}
    assert loops(lambda: buchberger([ModuleElement(P, [x, y])], rank=2)) == {"PairLoop"}
    assert loops(lambda: syzygies(gens)) == {"PairLoop"}


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


def test_defining_seed_reduced_by_a_generator_keeps_its_pairs():
    # over Q[x,y]/(x^2, y^2) the relations of (x, y) are the r with rx and ry
    # in the defining ideal: (x, y^2) cap (x^2, y) = (x^2, xy, y^2).  The
    # seed x^2 e_0 reduces by (x, y) to -xy e_1 plus a witness part, which is
    # no defining generator and must still pair with y^2 e_1.
    P = qring(2)
    x, y = P.variables()
    defining = buchberger([x * x, y * y])
    syz = syzygies([ModuleElement(P, [x, y])], defining=defining)
    assert buchberger([s.coords[0] for s in syz]) == buchberger([x * x, x * y, y * y])


def _random_homogeneous_element(rng, ring, rank):
    """Nonzero element of ring^rank whose entry at position p has degree d + p."""
    d = rng.randint(1, 2)
    while True:
        coords = []
        for p in range(rank):
            slots = oracles.monomials_of_degree(ring.nvars, d + p)
            c = ring.zero()
            for exps in rng.sample(slots, min(len(slots), rng.randint(0, 2))):
                c = c + ring.monomial(exps).scale(rand_coeff(rng, ring.field))
            coords.append(c)
        el = ModuleElement(ring, coords)
        if not el.is_zero():
            return el


@pytest.mark.parametrize("build", [lambda: qring(3), lambda: fring(3, 2)])
def test_defining_flag_matches_plain_seeds(build):
    """``defining=`` against the same computation with D * e_p as plain seeds.

    The flag only lets the pair loop skip pairs of two unchanged defining
    generators, so the reduced basis must equal the one built from D * e_p
    added as ordinary generators, and the syzygies must span the module
    read off the plain syzygies of gens + D * e_p.
    """
    ring = build()
    rng = random.Random(2024)
    for _ in range(80):
        defining = buchberger(_random_homogeneous_ideal(rng, ring, max_gens=3, max_degree=2))
        rank = rng.randint(1, 2)
        gens = [_random_homogeneous_element(rng, ring, rank) for _ in range(rng.randint(1, 3))]
        plain = [ModuleElement.unit(ring, rank, p, g)
                 for g in defining.polynomials() for p in range(rank)]
        got = buchberger(gens, defining=defining)
        assert got == buchberger(gens + plain, ring=ring, rank=rank)
        m = len(gens)
        want = [ModuleElement(ring, s.coords[:m]) for s in syzygies(gens + plain)]
        assert (buchberger(syzygies(gens, defining=defining), ring=ring, rank=m)
                == buchberger(want, ring=ring, rank=m))


@pytest.mark.parametrize("build", [lambda: qring(3), lambda: fring(7, 3)], ids=["Q", "F7"])
def test_pair_loop_resumes_a_completion_that_ran_out(build):
    """A pair leaves the queue only once its reduction returns, so a
    completion stopped by a step cap and resumed under a fresh meter builds
    the uninterrupted basis, element by element, whatever the cap.  Ideals
    and modules of rank 2 over a quotient ring, with affine generators,
    seeded as ``seeded_loop`` seeds them: the defining basis in every
    position, from its rows (``PairLoop.seed``)."""
    ring = build()
    rng = random.Random(15)
    interrupted = {1: 0, 2: 0}  # by rank
    for _ in range(8):
        defining = buchberger(_random_homogeneous_ideal(rng, ring, max_gens=3, max_degree=2))
        rank = rng.randint(1, 2)
        gens = [ModuleElement(ring, [rand_poly(rng, ring, 4 - rank, 5 - rank)
                                     for _ in range(rank)]) for _ in range(rng.randint(2, 3))]

        def seeded():
            loop = PairLoop(ring, rank, Meter())
            loop.seed(defining, range(rank))
            for el in gens:
                loop.add(loop.reduce(el))
            loop.meter = Meter()
            return loop

        whole = seeded()
        whole.complete()
        for cap in range(1, whole.meter.steps):
            loop = seeded()
            loop.meter = Meter(Budget(max_steps=cap))
            with pytest.raises(BudgetExceededError):
                loop.complete()
            interrupted[rank] += 1
            loop.meter = Meter()
            loop.complete()
            assert loop.basis == whole.basis, cap
            assert loop.table.origins == whole.table.origins and not loop.pending
    assert interrupted[1] >= 40 and interrupted[2] >= 200


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
