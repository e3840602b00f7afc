"""Resolutions, syzygies, minimal presentations, and depth."""
from __future__ import annotations

import random

import pytest

from singulant.errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    budget_scope,
)
from singulant.groebner import buchberger, normal_form, ModuleElement
from singulant.ideal_ops import RingPresentation
from singulant.poly import QQ, PrimeField
from singulant import resolve as resolve_module
from singulant.resolve import (
    INFINITE,
    FinitelyPresentedModule,
    FreeResolution,
    check_complex,
    check_exactness,
    depth,
    free_resolution,
    matrix_columns,
    minimal_presentation,
    projective_dimension_over_ambient,
    restrict_to_ambient,
    ring_depth,
    syzygy_module,
    trim_generators,
)

from oracles import _row_reduce, monomials_of_degree
from util import fail_ring, presentation, embedded_point_ring


def rows_str(matrix):
    return [[str(e) for e in row] for row in matrix]


# ---------------------------------------------------------------------------
# an independent exactness oracle: graded slices are plain linear algebra


def _standard_monomials(ring: RingPresentation, degree: int):
    """k-basis of the degree slice of R, as monomials of the ambient ring."""
    from singulant.poly import Monomial

    leads = [g.lead_monomial() for g in ring.defining_basis().polynomials()]
    out = []
    for exps in monomials_of_degree(ring.nvars, degree):
        m = Monomial(exps)
        if not any(l.divides(m) for l in leads):
            out.append(m)
    return out


def _slice_vectors(ring, vectors, cod_shifts, degree):
    """Coordinate dicts of normal forms, keyed by (slot, exponent tuple)."""
    gb = ring.defining_basis() if ring.defining else None
    rows = []
    for vec in vectors:
        row = {}
        for slot, p in enumerate(vec):
            q = normal_form(p, gb) if gb is not None else p
            for mono, coeff in q.terms:
                assert mono.degree + cod_shifts[slot] == degree
                row[(slot, mono.exps)] = coeff
        rows.append(row)
    return rows


def _slice_map_rank_nullity(ring, matrix, dom_shifts, cod_shifts, degree):
    """(rank, nullity) of a homogeneous matrix on one internal degree slice."""
    from singulant.poly import Polynomial

    field = ring.poly_ring.field
    images = []
    dim_domain = 0
    for j, s in enumerate(dom_shifts):
        for m in _standard_monomials(ring, degree - s):
            dim_domain += 1
            mono = Polynomial(ring.poly_ring, [(m, field.one)])
            images.append([row[j] * mono for row in matrix])
    rows = _slice_vectors(ring, images, cod_shifts, degree)
    rank = len(_row_reduce(rows, field))
    return rank, dim_domain - rank


def _slice_kernel_dim(ring, matrix, dom_shifts, cod_shifts, degree):
    return _slice_map_rank_nullity(ring, matrix, dom_shifts, cod_shifts, degree)[1]


def assert_exact_by_slices(res: FreeResolution, max_degree: int):
    """Degree-by-degree rank-nullity comparison, no syzygy machinery."""
    ring = res.ring
    for i in range(1, res.length):
        mat_i = res.differential(i)
        mat_next = res.differential(i + 1)
        for d in range(max_degree + 1):
            _, nullity = _slice_map_rank_nullity(
                ring, mat_i, res.shifts[i], res.shifts[i - 1], d)
            rank_next, _ = _slice_map_rank_nullity(
                ring, mat_next, res.shifts[i + 1], res.shifts[i], d)
            assert nullity == rank_next, (i, d, nullity, rank_next)
    if res.complete and res.length >= 1:
        i = res.length
        for d in range(max_degree + 1):
            _, nullity = _slice_map_rank_nullity(
                ring, res.differential(i), res.shifts[i], res.shifts[i - 1], d)
            assert nullity == 0, (i, d, nullity)


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
        again = FinitelyPresentedModule.from_columns(R, 2, M.relation_columns())
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
        cols = M.relation_columns()
        combos = []
        for _ in range(3):
            acc = ModuleElement(P, [P.zero(), P.zero()])
            for c in cols:
                acc = acc + c.mul_poly(linear_form())
            combos.append(acc)
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
            cols = omega.relation_columns()
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
        assert not kP.ring.is_quotient()
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
        bad = [list(list(row) for row in m) for m in res.differentials]
        bad[1][0][2] = R.variable(1)  # y where x belongs breaks d1 d2 = 0
        broken = FreeResolution(R, res.ranks, bad, res.shifts, False,
                                res.complete, res.periodic)
        assert not check_complex(broken)
        assert not check_exactness(broken)

    def test_check_exactness_catches_dropped_column(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        res = free_resolution(k, 3)
        d2 = [row[:-1] for row in res.differential(2)]
        ranks = [1, 2, 2, 5]
        # chop d3 rows to match: keep the complex property trivially broken
        d3 = [row for row in res.differential(3)][:-1]
        broken = FreeResolution(R, ranks, [res.differential(1), d2, d3],
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
