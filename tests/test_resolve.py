"""Resolutions, syzygies, minimal presentations, and depth."""
from __future__ import annotations

import random
from math import comb

import pytest

from singulant.errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    budget_scope,
)
from singulant.groebner import buchberger, normal_form, ModuleElement
from singulant.homalg import default_corpus, ext_from_resolution
from singulant.ideal_ops import RingPresentation
from singulant.poly import QQ, Polynomial, PrimeField
from singulant import resolve as resolve_module
from singulant.resolve import (
    INFINITE,
    FinitelyPresentedModule,
    FreeResolution,
    check_complex,
    check_exactness,
    depth,
    free_resolution,
    minimal_presentation,
    projective_dimension_over_ambient,
    restrict_to_ambient,
    ring_depth,
    syzygy_module,
    trim_generators,
)

import oracles
from oracles import monomials_of_degree
from util import embedded_point_ring, fail_ring, presentation, rand_coeff, rand_poly


def rows_str(matrix):
    return [[str(e) for e in row] for row in matrix]


# ---------------------------------------------------------------------------
# an independent exactness oracle: graded slices are plain linear algebra


def assert_exact_by_slices(res: FreeResolution, max_degree: int):
    """Every differential graded of degree 0 against ``res.shifts``, and
    exact at every interior step in each degree up to max_degree, read off
    Macaulay matrices over P with no Groebner basis or syzygy
    (``oracles.exactness_defects``); a complete resolution also has no
    kernel at its last step."""
    ring = res.ring
    P = ring.poly_ring
    diffs = [res.differential(i) for i in range(1, res.length + 1)]
    assert oracles.exactness_defects(P, diffs, res.shifts, ring.defining, max_degree) == []
    if res.complete and res.length >= 1:
        i = res.length
        for d in range(max_degree + 1):
            assert oracles.slice_kernel_dim(P, diffs[-1], ring.defining, res.shifts[i],
                                            res.shifts[i - 1], d) == 0, (i, d)


# ---------------------------------------------------------------------------
# module containers


class TestModuleContainer:
    def test_validation(self):
        R = embedded_point_ring()
        x = R.variable(0)
        with pytest.raises(StructuralError):
            FinitelyPresentedModule(R, -1)
        with pytest.raises(StructuralError):
            FinitelyPresentedModule(R, 2, ((x,),))  # row count mismatch
        with pytest.raises(StructuralError):
            FinitelyPresentedModule(R, 2, ((x, x), (x,)))  # ragged
        other = RingPresentation(QQ, ("a", "b", "c"))
        with pytest.raises(StructuralError):
            FinitelyPresentedModule(R, 1, ((other.variable(0),),))

    def test_relations_are_reduced_and_zero_columns_dropped(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        M = FinitelyPresentedModule(R, 1, ((x * x, y, x * y),))
        # x^2 and x*y die in R, leaving the single relation y
        assert rows_str(M.rows) == [["x1"]]
        assert M.n_relations == 1

    def test_cyclic_and_free(self):
        R = embedded_point_ring()
        assert FinitelyPresentedModule.cyclic(R, []).is_free_presentation()
        free = FinitelyPresentedModule.free(R, 3)
        assert free.rank == 3 and free.shifts == (0, 0, 0)
        k = FinitelyPresentedModule.residue_field(R)
        assert k.rank == 1 and k.n_relations == 2

    def test_column_round_trip(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        rows = ((x, y), (y, x))
        M = FinitelyPresentedModule(R, 2, rows)
        again = FinitelyPresentedModule.from_columns(R, 2, M.columns)
        assert again.rows == M.rows


# ---------------------------------------------------------------------------
# minimal presentations


class TestMinimalPresentation:
    def test_unit_relation_kills_generator(self):
        R = embedded_point_ring()
        one = R.poly_ring.one()
        M = FinitelyPresentedModule(R, 1, ((one,),))
        assert minimal_presentation(M).is_zero_presentation()

    def test_identity_block_cancels(self):
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        one, zero = P.poly_ring.one(), P.poly_ring.zero()
        # coker [[1, x], [0, y]] = coker [y] after removing the unit pivot
        M = FinitelyPresentedModule(P, 2, ((one, x), (zero, y)))
        N = minimal_presentation(M)
        assert N.rank == 1
        assert rows_str(N.rows) == [["x1"]]

    def test_unit_pivot_resolves_to_the_minimal_resolution(self):
        # relation 2 gives e1 = -x*e2, so relation 1 becomes (y - x^2)*e2
        # and coker [[x, 1], [y, x]] is P/(y - x^2)
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        one = P.poly_ring.one()
        M = FinitelyPresentedModule(P, 2, ((x, one), (y, x)))
        res = free_resolution(M, 3)
        assert res.ranks == [1, 1]
        assert res.complete and res.minimal
        assert res.differential(1) in (((y - x * x,),), ((x * x - y,),))

    def test_unit_appears_only_after_reduction(self):
        # over Q[x]/(x^2 - 1) the relation x^2 reduces to the constant 1
        R = presentation(QQ, ("x",), lambda x: [x * x - x.ring.one()])
        x = R.variable(0)
        M = FinitelyPresentedModule(R, 1, ((x * x,),))
        assert minimal_presentation(M).is_zero_presentation()

    @pytest.mark.parametrize("builder", [
        lambda x, y: [x * x],
        lambda x, y: [x * x, x * y],
        lambda x, y: [x * x, y * y],
    ], ids=["x2", "A", "x2_y2"])
    def test_unit_that_is_not_constant_kills_the_module(self, builder):
        """x + 1 is a unit wherever x is nilpotent, (x + 1)(1 - x) = 1 - x^2,
        though no entry of coker [x + 1] is a constant."""
        R = presentation(QQ, ("x", "y"), builder)
        M = FinitelyPresentedModule.cyclic(R, [R.variable(0) + R.poly_ring.one()])
        assert minimal_presentation(M).is_zero_presentation()
        assert free_resolution(M, 3).betti() == [0]
        with pytest.raises(PreconditionError):
            depth(M)

    def test_unit_of_the_ring_kills_where_no_entry_is_constant(self):
        """Over Q[x,y]/(xy - 1), x is a unit and x - 1 is not; over the zero
        ring every module is zero."""
        R = presentation(QQ, ("x", "y"), lambda x, y: [x * y - x.ring.one()])
        x, one = R.variable(0), R.poly_ring.one()
        assert minimal_presentation(FinitelyPresentedModule.cyclic(R, [x])).is_zero_presentation()
        M = FinitelyPresentedModule.cyclic(R, [x - one])
        assert minimal_presentation(M) == M
        zero_ring = presentation(QQ, ("x",), lambda x: [x, x.ring.one()])
        free = FinitelyPresentedModule.free(zero_ring, 2)
        assert minimal_presentation(free).is_zero_presentation()

    def test_redundant_generator_trimmed(self):
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        M = FinitelyPresentedModule.cyclic(P, [x * x, x * x * x, x * x * y])
        N = minimal_presentation(M)
        assert rows_str(N.rows) == [["x0^2"]]

    def test_trim_respects_quotient(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        # over R, y*x is zero, and x^2 + x is just x... no: x^2 dies, x stays
        M = FinitelyPresentedModule.cyclic(R, [y * y, y * y * y, x])
        N = minimal_presentation(M)
        assert sorted(rows_str(N.rows)[0]) == ["x0", "x1^2"]


# ---------------------------------------------------------------------------
# every module keeps its relations as nonzero columns in normal form


COLUMN_RINGS = {
    "A": (("x", "y"), lambda x, y: [x * x, x * y]),
    "cubic": (("x", "y", "z"), lambda x, y, z: [x ** 3 + y ** 3 + z ** 3]),
    "cusp": (("x", "y"), lambda x, y: [x ** 3 - y * y]),
    "x2_y2": (("x", "y"), lambda x, y: [x * x, y * y]),
}


def assert_normal_columns(m: FinitelyPresentedModule):
    """Every column of m is a nonzero element of R^rank in normal form, and
    the rows constructor builds m again from its row view."""
    for col in m.columns:
        assert col.rank == m.rank and not col.is_zero()
        assert m.ring.normal_form_element(col) == col
    again = FinitelyPresentedModule(m.ring, m.rank, m.rows, m.shifts)
    assert again == m and again.shifts == m.shifts


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("key", sorted(COLUMN_RINGS))
def test_every_module_keeps_nonzero_normal_columns(key, field):
    """Seeded 2x3 matrices with entries of degree up to 3, not reduced
    modulo I and at times constant, through the rows constructor,
    ``minimal_presentation``, ``FreeResolution.syzygy`` and
    ``Subquotient.to_module`` (an Ext group's presentation)."""
    names, builder = COLUMN_RINGS[key]
    R = presentation(field, names, builder)
    P = R.poly_ring
    rng = random.Random(sorted(COLUMN_RINGS).index(key) * 10 + field.characteristic)
    k = minimal_presentation(FinitelyPresentedModule.residue_field(R))
    for _ in range(3):
        rows = [[rand_poly(rng, P, 3, 2) if rng.random() < 0.7 else P.zero()
                 for _ in range(3)] for _ in range(2)]
        M = FinitelyPresentedModule(R, 2, rows)
        res = free_resolution(M, 2, detect_periodicity=False)
        modules = [M, minimal_presentation(M)]
        modules += [res.syzygy(n) for n in range(res.length + 1)]
        modules += [ext_from_resolution(res, k, i).to_module()
                    for i in range(min(res.length, 1) + 1)]
        for m in modules:
            assert_normal_columns(m)


# ---------------------------------------------------------------------------
# trimming against one growing basis keeps what a fresh basis per candidate
# keeps


def _trim_from_scratch(ring, cols, rank, shifts):
    """Keep a column unless a fresh basis of the kept ones reduces it to 0."""
    def degree(col):
        return max((c.total_degree() + shifts[i]
                    for i, c in enumerate(col.coords) if not c.is_zero()),
                   default=-1)

    cols = [c for c in cols if not c.is_zero()]
    kept = []
    for j in sorted(range(len(cols)), key=lambda j: (degree(cols[j]), j)):
        if kept:
            gb = buchberger(kept, defining=ring.defining_basis(),
                            ring=ring.poly_ring, rank=rank)
            if normal_form(cols[j], gb).is_zero():
                continue
        kept.append(cols[j])
    return kept


def _trim_inputs(monkeypatch, run):
    """(ring, cols, rank, shifts) of every trim_generators call made by run()."""
    calls = []

    def record(ring, cols, rank, shifts=None):
        shifts = (0,) * rank if shifts is None else tuple(shifts)
        calls.append((ring, list(cols), rank, shifts))
        return trim_generators(ring, cols, rank, shifts)

    monkeypatch.setattr(resolve_module, "trim_generators", record)
    run()
    return calls


class TestIncrementalTrim:
    def assert_same_kept(self, calls):
        for ring, cols, rank, shifts in calls:
            assert (trim_generators(ring, cols, rank, shifts)
                    == _trim_from_scratch(ring, cols, rank, shifts))

    def test_syzygies_of_k_over_ring_a(self, monkeypatch):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        calls = _trim_inputs(monkeypatch, lambda: free_resolution(k, 4))
        assert [len(c[1]) for c in calls] == [2, 3, 5, 8, 13]
        self.assert_same_kept(calls)

    def test_seeded_cokernel_over_coordinate_axes(self, monkeypatch):
        R = presentation(QQ, ("x", "y", "z"),
                         lambda x, y, z: [x * y, y * z, x * z])
        P = R.poly_ring
        rng = random.Random(3)

        def linear_form():
            return sum((R.variable(i).scale(rng.randint(-2, 2))
                        for i in range(3)), P.zero())

        rows = tuple(tuple(linear_form() for _ in range(3)) for _ in range(2))
        M = FinitelyPresentedModule(R, 2, rows)
        calls = _trim_inputs(monkeypatch, lambda: free_resolution(M, 3))
        assert len(calls) == 4
        self.assert_same_kept(calls)
        # the columns followed by R-combinations of them: the combinations
        # are members only through S-pairs of the kept columns
        cols = list(M.columns)
        combos = []
        for _ in range(3):
            combos.append(ModuleElement.from_terms(P, 2, [
                t for c in cols for t in c.mul_poly(linear_form()).terms]))
        kept = trim_generators(R, cols + combos, 2)
        assert kept == cols
        assert kept == _trim_from_scratch(R, cols + combos, 2, (0, 0))

    def test_first_column_inside_the_defining_ideal_is_kept(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        zero = R.poly_ring.zero()
        cols = [
            ModuleElement(R.poly_ring, [x * x, zero]),  # in I * R^2
            ModuleElement(R.poly_ring, [y, x]),
            ModuleElement(R.poly_ring, [x, y]),
            # x*col1 - y*col2 = (0, x^2 - y^2), so this is a member
            ModuleElement(R.poly_ring, [zero, y * y]),
        ]
        shifts = (0, 1)
        kept = trim_generators(R, cols, 2, shifts)
        assert kept == cols[:3]
        assert kept == _trim_from_scratch(R, cols, 2, shifts)


# ---------------------------------------------------------------------------
# trim_generators against degree slices, an oracle that shares no code with
# the Groebner engine


TRIM_ORACLE_RINGS = {
    "Q": (QQ, lambda x, y, z: []),
    "Q/(xy,z^2)": (QQ, lambda x, y, z: [x * y, z * z]),
    "F7/(x^2-yz)": (PrimeField(7), lambda x, y, z: [x * x - y * z]),
    "F32003/(xz,yz)": (PrimeField(32003), lambda x, y, z: [x * z, y * z]),
}


def _graded_column(rng, R, shifts, degree):
    """A random column of ``degree`` under ``shifts``, in normal form
    modulo I: at position p up to two terms of degree ``degree - shifts[p]``,
    or zero when that is below 1."""
    P = R.poly_ring
    coords = []
    for s in shifts:
        slots = monomials_of_degree(R.nvars, degree - s) if degree - s >= 1 else []
        if not slots or rng.random() < 0.3:
            coords.append(P.zero())
            continue
        terms = [(e, rand_coeff(rng, P.field)) for e in rng.sample(slots, min(2, len(slots)))]
        coords.append(R.normal_form(Polynomial(P, terms)))
    return ModuleElement(P, coords)


def _spair(P, a, b):
    """The S-pair of two columns whose leads share a position: their leads
    cancel, so it is a member whose lead neither lead need divide."""
    (_, ma, ka), (_, mb, kb) = a.lead(), b.lead()
    both = ma.lcm(mb)
    return ModuleElement.from_terms(P, a.rank, (
        a.mul_poly(P.monomial(both.divide(ma).exps, kb)).terms
        + b.mul_poly(P.monomial(both.divide(mb).exps, P.field.neg(ka))).terms))


def _graded_trim_input(rng, R):
    """(cols, rank, shifts): three to five random columns of mixed degrees
    under nonzero shifts, then the S-pair of each two whose leads share a
    position, all shuffled."""
    P = R.poly_ring
    rank = rng.randint(1, 3)
    shifts = tuple(rng.randint(0, 2) for _ in range(rank))
    base = [_graded_column(rng, R, shifts, rng.randint(min(shifts) + 1, max(shifts) + 2))
            for _ in range(rng.randint(3, 5))]
    base = [c for c in base if not c.is_zero()]
    members = [R.normal_form_element(_spair(P, a, b))
               for i, a in enumerate(base) for b in base[i + 1:] if a.lead()[0] == b.lead()[0]]
    cols = base + [m for m in members if not m.is_zero()]
    rng.shuffle(cols)
    return cols, rank, shifts


@pytest.mark.parametrize("key", sorted(TRIM_ORACLE_RINGS))
def test_trim_is_exact_on_graded_input_by_degree_slices(key):
    """Every column trim_generators keeps lies outside the span of the
    other kept columns plus I * R^n, and every column it drops inside the
    span of the kept ones, by a Macaulay matrix in the column's degree.
    For homogeneous columns that makes the kept set minimal.  Some dropped
    columns have a lead that no kept lead and no lead of I divides: they
    are members only through S-pairs of the degree being tested."""
    field, builder = TRIM_ORACLE_RINGS[key]
    R = presentation(field, ("x", "y", "z"), builder)
    defining = list(R.defining)
    I_leads = [g.lead_monomial() for g in R.defining_basis().polynomials()]
    rng = random.Random(sum(map(ord, key)))
    through_pairs = 0
    for _ in range(16):
        cols, rank, shifts = _graded_trim_input(rng, R)
        kept = trim_generators(R, cols, rank, shifts)
        for c in kept:
            others = [k.coords for k in kept if k is not c]
            assert not oracles.graded_module_membership(c.coords, others, defining, shifts)
        for c in cols:
            if any(c is k for k in kept):
                continue
            assert oracles.graded_module_membership(
                c.coords, [k.coords for k in kept], defining, shifts)
            pos, lm, _ = c.lead()
            through_pairs += not any(
                k.lead()[0] == pos and k.lead()[1].divides(lm) for k in kept) and not any(
                l.divides(lm) for l in I_leads)
    assert through_pairs >= 3


def test_trim_on_non_homogeneous_input_completes_fully():
    """x - y^2 = y(x^2 - y) - x(xy - 1) has degree 2, but the pair that
    shows it has degree 3: a completion cut at the candidate's degree would
    keep it.  Seeded columns over the affine cusp and over Q[x,y,z], with
    terms of mixed degrees and R-combinations of one another, are trimmed
    as a fresh basis of the kept columns trims them."""
    Rxy = presentation(QQ, ("x", "y"))
    x, y = Rxy.variable(0), Rxy.variable(1)
    one = Rxy.poly_ring.one()
    cols = [ModuleElement.wrap(f) for f in (x * x - y, x * y - one, x - y * y)]
    assert trim_generators(Rxy, cols, 1) == cols[:2]
    cusp = presentation(QQ, ("x", "y"), lambda x, y: [x ** 3 - y * y])
    rng = random.Random(53)
    for R in (cusp, presentation(QQ, ("x", "y", "z")),
              presentation(PrimeField(7), ("x", "y", "z"))):
        P = R.poly_ring
        for _ in range(6):
            rank = rng.randint(1, 2)
            shifts = tuple(rng.randint(0, 1) for _ in range(rank))
            cols = [ModuleElement(P, [rand_poly(rng, P, 3, 2) for _ in range(rank)])
                    for _ in range(3)]
            cols += [ModuleElement.from_terms(P, rank, [
                t for c in cols for t in c.mul_poly(rand_poly(rng, P, 1, 2)).terms])]
            assert (trim_generators(R, cols, rank, shifts)
                    == _trim_from_scratch(R, cols, rank, shifts))


# ---------------------------------------------------------------------------
# the running resolution: k over Q[x,y]/(x^2, xy)


class TestResidueFieldResolution:
    def test_betti_numbers(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        assert res.betti() == [1, 2, 3, 5]
        assert res.minimal and res.is_minimal_certified()
        assert not res.complete
        assert res.projective_dimension() is None

    def test_differentials_frozen(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        assert rows_str(res.differential(1)) == [["x0", "x1"]]
        assert rows_str(res.differential(2)) == [
            ["x0", "x1", "0"],
            ["0", "0", "x0"],
        ]
        assert rows_str(res.differential(3)) == [
            ["x0", "x1", "0", "0", "0"],
            ["0", "0", "x0", "0", "0"],
            ["0", "0", "0", "x0", "x1"],
        ]

    def test_complex_and_exactness(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        assert check_complex(res)
        assert check_exactness(res)

    def test_exactness_by_graded_slices(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        assert_exact_by_slices(res, 6)

    def test_determinism(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        a = free_resolution(k, 3)
        b = free_resolution(k, 3)
        assert a.betti() == b.betti()
        assert a.differentials == b.differentials

    def test_quotients_by_x_and_power_of_y_share_the_betti_table(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        for n in (1, 2, 3):
            M = FinitelyPresentedModule.cyclic(R, [x, y ** n])
            res = free_resolution(M, 3)
            assert res.betti() == [1, 2, 3, 5], n
            assert res.minimal, n
            assert check_complex(res), n
            assert check_exactness(res), n


# ---------------------------------------------------------------------------
# Betti numbers of k over complete intersections: Tate's series as an oracle


def tate_betti(n: int, c: int, length: int):
    """The first ``length`` coefficients of (1+t)^n / (1-t^2)^c, the Poincare
    series of k over a complete intersection of c relations in m^2 in n
    variables (Tate 1957), in plain integers: the binomial coefficients,
    then c passes of the division by 1 - t^2, b_i += b_(i-2)."""
    betti = [comb(n, i) for i in range(length)]
    for _ in range(c):
        for i in range(2, length):
            betti[i] += betti[i - 2]
    return betti


@pytest.mark.parametrize("names, builder, expected", [
    (("x", "y"), lambda x, y: [x * x, y * y], [1, 2, 3, 4, 5, 6]),
    (("x", "y", "z"), lambda x, y, z: [x ** 3 + y ** 3 + z ** 3], [1, 3, 4, 4, 4, 4]),
    (("x", "y"), lambda x, y: [x ** 3 - y * y], [1, 2, 2, 2, 2, 2]),
    (("x", "y", "z"), lambda x, y, z: [x * x - y * z, x * y], [1, 3, 5, 7, 9, 11]),
], ids=["x2_y2", "cubic", "cusp", "x2-yz_xy"])
def test_residue_field_betti_numbers_follow_tate_series(names, builder, expected):
    """Each defining ideal is generated by a regular sequence in m^2: one
    nonzero element, or (x^2, y^2), or (x^2 - yz, xy), whose zero set
    x = y = 0 or x = z = 0 has codimension 2.  So b_i(k) is the
    coefficient of t^i in (1+t)^n / (1-t^2)^c."""
    R = presentation(QQ, names, builder)
    assert tate_betti(len(names), len(R.defining), 6) == expected
    k = FinitelyPresentedModule.residue_field(R)
    assert free_resolution(k, 5, detect_periodicity=False).betti() == expected


@pytest.mark.parametrize("names, builder, length", [
    (("x", "y"), lambda x, y: [x * x, x * y], 4),
    (("x", "y"), lambda x, y: [x * x, y * y], 4),
    (("x", "y", "z"), lambda x, y, z: [x ** 3 + y ** 3 + z ** 3], 3),
    (("x", "y", "z"), lambda x, y, z: [x * y, y * z, x * z], 3),
], ids=["A", "x2_y2", "cubic", "xy_yz_xz"])
def test_resolutions_are_exact_slice_by_slice(names, builder, length):
    """The resolutions of k and of a seeded cokernel of a 2x3 matrix of
    linear forms, [[a*u, b*v, 0], [0, c*u, d*v]] for two variables u and v,
    are exact at every interior step, by Macaulay matrices alone, in every
    degree up to one past the largest generator degree of their last
    module: a missing minimal generator would show in its own degree."""
    R = presentation(QQ, names, builder)
    rng = random.Random(len(names) * 100 + len(R.defining))
    u, v = (R.variable(i) for i in rng.sample(range(R.nvars), 2))
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    zero = R.poly_ring.zero()
    coker = FinitelyPresentedModule(R, 2, ((u * a, v * b, zero), (zero, u * c, v * d)))
    for M in (FinitelyPresentedModule.residue_field(R), coker):
        res = free_resolution(M, length, detect_periodicity=False)
        assert res.length == length or res.complete
        assert_exact_by_slices(res, max(res.shifts[-1]) + 1)


def test_exactness_oracle_reports_a_shift_its_differential_disagrees_with():
    """``oracles.exactness_defects`` checks the grading of every
    differential against the recorded shifts, the last one included: one
    generator degree raised by one, at each module in turn, is reported
    for the columns it gives and for those it receives."""
    R = presentation(QQ, ("x", "y"), lambda x, y: [x * x, x * y])
    res = free_resolution(FinitelyPresentedModule.residue_field(R), 3,
                          detect_periodicity=False)
    P = R.poly_ring
    diffs = [res.differential(i) for i in range(1, res.length + 1)]
    assert oracles.exactness_defects(P, diffs, res.shifts, R.defining, 3) == []
    for i in range(len(res.shifts)):
        shifts = list(res.shifts)
        shifts[i] = (shifts[i][0] + 1,) + tuple(shifts[i][1:])
        graded = [defect[:3] for defect in
                  oracles.exactness_defects(P, diffs, shifts, R.defining, 3)
                  if defect[0] == "graded"]
        if i > 0:
            assert ("graded", i, 0) in graded
        if i < res.length:
            assert any(defect[1] == i + 1 for defect in graded)


# ---------------------------------------------------------------------------
# syzygy modules


class TestSyzygyModules:
    def test_first_syzygy_of_k_is_the_maximal_ideal(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        omega = syzygy_module(k, 1)
        assert omega.rank == 2
        assert rows_str(omega.rows) == [["x0", "x1", "0"], ["0", "0", "x0"]]
        assert omega.shifts == (1, 1)

    def test_zeroth_syzygy_is_the_minimal_presentation(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        assert syzygy_module(k, 0) == minimal_presentation(k)

    def test_syzygy_of_cyclic_x_is_k(self):
        R = embedded_point_ring()
        x = R.variable(0)
        M = FinitelyPresentedModule.cyclic(R, [x])
        omega = syzygy_module(M, 1)
        # ann(x) = (x, y), so the syzygy of [x] is R/m
        assert omega.rank == 1
        assert rows_str(omega.rows) == [["x0", "x1"]]

    def test_syzygy_of_free_module_vanishes(self):
        R = embedded_point_ring()
        free = FinitelyPresentedModule.free(R, 2)
        assert syzygy_module(free, 1).is_zero_presentation()
        assert syzygy_module(free, 4).is_zero_presentation()

    def test_syzygy_past_finite_pd_vanishes(self):
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        M = FinitelyPresentedModule.cyclic(P, [x * x, x * y])
        assert syzygy_module(M, 2).is_free_presentation()
        assert syzygy_module(M, 3).is_zero_presentation()

    def test_negative_index_rejected(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        with pytest.raises(PreconditionError):
            syzygy_module(k, -1)

    def test_syzygy_past_a_truncated_resolution_is_refused(self):
        """Omega^n needs d_(n+1), which a resolution of length n holds in
        ``pending``: one that stops before step n, by its length or by the
        periodicity shortcut, does not determine it."""
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 1)
        assert res.syzygy(0) == minimal_presentation(k)
        assert res.syzygy(1) == free_resolution(k, 2).syzygy(1)
        with pytest.raises(PreconditionError):
            res.syzygy(2)
        with pytest.raises(PreconditionError):
            res.differential(3)
        F = fail_ring()
        periodic = free_resolution(FinitelyPresentedModule.cyclic(F, [F.variable(0)]), 6)
        assert periodic.periodic is not None and periodic.length < 6
        assert periodic.pending is None
        periodic.syzygy(periodic.length - 1)
        with pytest.raises(PreconditionError):
            periodic.syzygy(periodic.length)

    def test_complete_resolution_reaches_every_step(self):
        """Past the end of a complete resolution every differential and
        every syzygy is zero; Omega^pd is the last free module."""
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        res = free_resolution(FinitelyPresentedModule.cyclic(P, [x * x, x * y]), 4)
        assert res.complete and res.ranks == [1, 2, 1]
        assert res.differential(3) == ((),)
        assert res.differential(5) == ()
        assert res.syzygy(2) == FinitelyPresentedModule.free(P, 1)
        assert res.syzygy(5).is_zero_presentation()
        with pytest.raises(PreconditionError):
            res.differential(0)

    def test_x_annihilates_first_syzygies(self):
        """Multiplication by x lands in the relation span of each syzygy."""
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        k = FinitelyPresentedModule.residue_field(R)
        msq = FinitelyPresentedModule.cyclic(R, [x * x, x * y, y * y])
        rx = FinitelyPresentedModule.cyclic(R, [x])
        for M in (k, msq, rx):
            omega = syzygy_module(M, 1)
            if omega.is_zero_presentation():
                continue
            cols = list(omega.columns)
            gb = buchberger(cols, defining=R.defining_basis(),
                            ring=R.poly_ring, rank=omega.rank)
            for pos in range(omega.rank):
                probe = ModuleElement.unit(R.poly_ring, omega.rank, pos, x)
                assert normal_form(probe, gb).is_zero(), (M, pos)

    def test_periodicity_does_not_leak_into_syzygies(self):
        """Even on a periodic resolution, high syzygies come out right."""
        F = fail_ring()
        x = F.variable(0)
        M = FinitelyPresentedModule.cyclic(F, [x])
        for n in (1, 2, 3):
            omega = syzygy_module(M, n)
            assert omega.rank == 1, n
            assert rows_str(omega.rows) == [["x0"]], n


# ---------------------------------------------------------------------------
# resolutions over the polynomial ring, restriction, and depth


class TestAmbientAndDepth:
    def test_koszul_shape_for_two_monomials(self):
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        M = FinitelyPresentedModule.cyclic(P, [x * x, x * y])
        res = free_resolution(M, 5)
        assert res.betti() == [1, 2, 1]
        assert res.complete
        assert res.projective_dimension() == 2
        assert rows_str(res.differential(2)) == [["x1"], ["-x0"]]
        assert check_exactness(res)
        assert_exact_by_slices(res, 6)

    def test_restriction_adds_defining_relations(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        kP = restrict_to_ambient(k)
        assert not kP.ring.defining
        # x^2 and x*y are redundant next to x and y, so the matrix is [x y]
        assert minimal_presentation(kP).n_relations == 2

    def test_pd_table_over_ambient(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        k = FinitelyPresentedModule.residue_field(R)
        assert projective_dimension_over_ambient(k) == 2
        assert projective_dimension_over_ambient(
            FinitelyPresentedModule.cyclic(R, [])) == 2
        P = RingPresentation(QQ, ("x", "y"))
        assert projective_dimension_over_ambient(
            FinitelyPresentedModule.free(P, 2)) == 0

    def test_depth_table(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        assert depth(k) == 0
        assert ring_depth(R) == 0
        assert ring_depth(RingPresentation(QQ, ("x", "y"))) == 2
        assert ring_depth(RingPresentation(QQ, ("x", "y", "z"))) == 3
        assert ring_depth(presentation(QQ, ("x",), lambda x: [x * x])) == 0
        assert ring_depth(presentation(QQ, ("x", "y"), lambda x, y: [x * x])) == 1

    def test_fail_ring_depth_and_pd(self):
        F = fail_ring()
        assert ring_depth(F) == 1
        assert projective_dimension_over_ambient(
            FinitelyPresentedModule.cyclic(F, [])) == 3

    def test_depth_of_zero_module_rejected(self):
        R = embedded_point_ring()
        one = R.poly_ring.one()
        M = FinitelyPresentedModule(R, 1, ((one,),))
        with pytest.raises(PreconditionError):
            depth(M)

    def test_depth_over_prime_field(self):
        F = fail_ring(PrimeField(5))
        assert ring_depth(F) == 1


# ---------------------------------------------------------------------------
# infinite projective dimension and periodicity


class TestPeriodicity:
    def test_fail_ring_modulo_x_is_periodic(self):
        F = fail_ring()
        x = F.variable(0)
        M = FinitelyPresentedModule.cyclic(F, [x])
        res = free_resolution(M, 6)
        assert res.betti() == [1, 1, 1]
        assert res.periodic == (2, 1)
        assert res.projective_dimension() == INFINITE
        assert rows_str(res.differential(1)) == [["x0"]]
        assert rows_str(res.differential(2)) == [["x0"]]

    def test_detection_can_be_disabled(self):
        F = fail_ring()
        x = F.variable(0)
        M = FinitelyPresentedModule.cyclic(F, [x])
        res = free_resolution(M, 4, detect_periodicity=False)
        assert res.betti() == [1, 1, 1, 1, 1]
        assert res.periodic is None
        assert res.projective_dimension() is None

    def test_period_two(self):
        # over Q[x,y]/(xy) the quotients by x and y alternate
        R = presentation(QQ, ("x", "y"), lambda x, y: [x * y])
        x = R.variable(0)
        M = FinitelyPresentedModule.cyclic(R, [x])
        res = free_resolution(M, 8)
        assert res.periodic is not None
        assert res.periodic[1] == 2
        assert res.projective_dimension() == INFINITE


# ---------------------------------------------------------------------------
# failure detection and budgets


class TestChecksAndBudgets:
    def test_check_complex_catches_corruption(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        bad = [list(cols) for cols in res.columns]
        # y where 0 belongs, at row 0 of the third column of d2, breaks d1 d2 = 0
        col = bad[1][2]
        assert col.coords[0].is_zero()
        bad[1][2] = ModuleElement(R.poly_ring, (R.variable(1),) + col.coords[1:])
        broken = FreeResolution(R, res.ranks, bad, res.shifts, False,
                                res.complete, res.periodic)
        assert not check_complex(broken)
        assert not check_exactness(broken)

    def test_check_exactness_catches_dropped_column(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        d2 = res.columns_of(2)[:-1]
        ranks = [1, 2, 2, 5]
        # chop the last row of d3 to match: keep the complex property trivially broken
        d3 = [ModuleElement(R.poly_ring, col.coords[:-1]) for col in res.columns_of(3)]
        broken = FreeResolution(R, ranks, [res.columns_of(1), d2, d3],
                                res.shifts, False, False, None)
        assert not check_exactness(broken)

    def test_budget_exhaustion_propagates(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        with pytest.raises(BudgetExceededError):
            with budget_scope(Budget(max_steps=3)):
                free_resolution(k, 3)

    def test_negative_length_rejected(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        with pytest.raises(PreconditionError):
            free_resolution(k, -1)

    def test_zero_module_resolution(self):
        R = embedded_point_ring()
        one = R.poly_ring.one()
        M = FinitelyPresentedModule(R, 1, ((one,),))
        res = free_resolution(M, 3)
        assert res.betti() == [0]
        assert res.complete


# ---------------------------------------------------------------------------
# growing a resolution in place


def _cubic_cone():
    return presentation(QQ, ("x", "y", "z"), lambda x, y, z: [x ** 3 + y ** 3 + z ** 3])


GROW_RINGS = {"A": embedded_point_ring, "cubic": _cubic_cone}


def _grow_members():
    return [M for ring in GROW_RINGS.values() for M in default_corpus(ring(), 0)]


def _state(res):
    return (list(res.ranks), list(res.differentials), list(res.shifts), res.pending)


class TestGrow:
    @pytest.mark.parametrize("key, index", [
        (key, i) for key, ring in GROW_RINGS.items()
        for i in range(len(default_corpus(ring(), 0)))])
    def test_step_by_step_growth_matches_one_run(self, key, index):
        corpus = default_corpus(GROW_RINGS[key](), 0)
        whole = free_resolution(corpus[index], 5, detect_periodicity=False)
        res = free_resolution(corpus[index], 1, detect_periodicity=False)
        for length in range(2, 6):
            assert res.grow(length) is res
        assert res == whole
        assert (res.ranks, res.differentials, res.shifts) == (
            whole.ranks, whole.differentials, whole.shifts)
        assert (res.complete, res.minimal, res.pending) == (
            whole.complete, whole.minimal, whole.pending)

    def test_growing_a_complete_resolution_changes_nothing(self):
        done = [res for res in (free_resolution(M, 5, detect_periodicity=False)
                                for M in _grow_members()) if res.complete]
        # R over both rings; over the cubic cone the three R/(v), of pd 1,
        # and the seeded cokernel, of pd 2
        assert len(done) == 6
        for res in done:
            before = _state(res)
            res.grow(res.length + 3)
            assert _state(res) == before and res.complete

    def test_exhausted_growth_leaves_the_resolution_unchanged(self):
        """One step that runs out of its scope's last step appends nothing;
        carried on with budget to spare, it ends where one run ends."""
        for M in _grow_members():
            res = free_resolution(M, 1, detect_periodicity=False)
            if res.complete:
                continue
            probe = free_resolution(M, 1, detect_periodicity=False)
            with budget_scope() as meter:
                probe.grow(2)
            before = _state(res)
            with budget_scope(Budget(max_steps=meter.steps - 1)):
                with pytest.raises(BudgetExceededError):
                    res.grow(2)
            assert _state(res) == before and not res.complete
            res.grow(5)
            assert res == free_resolution(M, 5, detect_periodicity=False)
            assert res.pending == probe.grow(5).pending
