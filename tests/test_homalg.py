"""Ext modules, Koszul cohomology, and annihilation certificates."""
from __future__ import annotations

import pytest

from singulant.errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    budget_scope,
)
from singulant.groebner import normal_form
from singulant.homalg import (
    CaWitnessReport,
    ca_witness,
    annihilates_ext,
    default_corpus,
    ext_module,
    koszul_cohomology,
    koszul_complex,
    koszul_support_check,
    module_annihilator,
    module_k_dimension,
    stable_annihilation_test,
)
from singulant.ideal_ops import IdealHandle, RingPresentation
from singulant.poly import Monomial, Polynomial, QQ
from singulant.resolve import (
    FinitelyPresentedModule,
    free_resolution,
    minimal_presentation,
    syzygy_module,
)

from oracles import _row_reduce, monomials_of_degree
from util import fail_ring, presentation, embedded_point_ring


def rows_str(matrix):
    return [[str(e) for e in row] for row in matrix]


# ---------------------------------------------------------------------------
# brute-force Ext dimension oracle: graded slices, no Groebner machinery


def _column_degrees(rows, shifts):
    if not rows:
        return []
    out = []
    for c in range(len(rows[0])):
        degs = [shifts[s] + rows[s][c].total_degree()
                for s in range(len(rows)) if not rows[s][c].is_zero()]
        out.append(max(degs))
    return out


def _hom_labels(ring, block_shifts, sigma, d):
    labels = []
    for j, sj in enumerate(block_shifts):
        for slot, sg in enumerate(sigma):
            e = d + sj - sg
            if e < 0:
                continue
            for exps in monomials_of_degree(ring.nvars, e):
                labels.append((j, slot, exps))
    return labels


def _expand(label_block, slot, poly):
    """Row-dict contributions of poly placed at (block, slot)."""
    return {(label_block, slot, m.exps): c for m, c in poly.terms}


def _merge(target, extra, field):
    for key, val in extra.items():
        new = field.add(target.get(key, field.zero), val)
        if new == field.zero:
            target.pop(key, None)
        else:
            target[key] = new


def _u_rows(ring, block_shifts, Nmin, d):
    """Slice generators of the zero-hom submodule at internal degree d."""
    field = ring.poly_ring.field
    sigma = Nmin.shifts
    rows = []
    tau = _column_degrees(Nmin.rows, sigma)
    for j, sj in enumerate(block_shifts):
        for c, tc in enumerate(tau):
            e = d + sj - tc
            if e < 0:
                continue
            for exps in monomials_of_degree(ring.nvars, e):
                mono = Polynomial(ring.poly_ring, [(Monomial(exps), field.one)])
                row = {}
                for slot in range(Nmin.rank):
                    _merge(row, _expand(j, slot, Nmin.rows[slot][c] * mono),
                           field)
                rows.append(row)
        for g in ring.defining_basis().polynomials():
            for slot, sg in enumerate(sigma):
                e = d + sj - sg - g.total_degree()
                if e < 0:
                    continue
                for exps in monomials_of_degree(ring.nvars, e):
                    mono = Polynomial(ring.poly_ring,
                                      [(Monomial(exps), field.one)])
                    rows.append(_expand(j, slot, g * mono))
    return rows


def _dual_rows(ring, matrix, dom_shifts, cod_shifts, sigma, d):
    """Images of the degree-d Hom basis under composition with the matrix.

    ``matrix`` is d_next in row-major form (rows = domain blocks of the
    Hom side); basis element (j, slot, m) maps to sum over codomain
    blocks c of m * matrix[j][c] at (c, slot).
    """
    field = ring.poly_ring.field
    rows = []
    for j, slot, exps in _hom_labels(ring, dom_shifts, sigma, d):
        mono = Polynomial(ring.poly_ring, [(Monomial(exps), field.one)])
        row = {}
        for c in range(len(cod_shifts)):
            _merge(row, _expand(c, slot, matrix[j][c] * mono), field)
        rows.append(row)
    return rows


def ext_dimension_oracle(M, N, i, truncate=8):
    """Total k-dimension of Ext^i(M, N) by degreewise rank counting."""
    ring = M.ring
    field = ring.poly_ring.field
    res = free_resolution(M, i + 1, detect_periodicity=False)
    Nmin = minimal_presentation(N)
    if res.length < i or Nmin.rank == 0:
        return 0
    sigma = Nmin.shifts
    s_i = res.shifts[i]
    have_next = res.length >= i + 1
    total = 0
    for d in range(-truncate, truncate + 1):
        labels = _hom_labels(ring, s_i, sigma, d)
        dim_v = len(labels)
        if dim_v == 0:
            continue
        # cycles: kernel of the dual next differential modulo zero homs
        if have_next:
            s_next = res.shifts[i + 1]
            u_next = _u_rows(ring, s_next, Nmin, d)
            rank_u_next = len(_row_reduce(list(u_next), field))
            t_rows = _dual_rows(ring, res.differential(i + 1), s_i, s_next,
                                sigma, d)
            rank_mod = len(_row_reduce(t_rows + u_next, field)) - rank_u_next
        else:
            rank_mod = 0
        dim_z = dim_v - rank_mod
        # boundaries: image of the dual current differential plus zero homs
        brows = _u_rows(ring, s_i, Nmin, d)
        if i >= 1:
            s_prev = res.shifts[i - 1]
            brows = brows + _dual_rows(ring, res.differential(i), s_prev,
                                       s_i, sigma, d)
        dim_b = len(_row_reduce(brows, field))
        total += dim_z - dim_b
    return total


# ---------------------------------------------------------------------------
# Ext golden values


class TestExtModule:
    def test_ext2_of_k_has_dimension_three(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        E = ext_module(k, k, 2)
        assert not E.is_zero()
        assert E.k_dimension() == 3
        assert E.beta == 3 and E.target_rank == 1

    def test_boundaries_inside_cycles(self):
        """Every boundary lies in span(cycles) + I * R^n, checked directly."""
        R = embedded_point_ring()
        x = R.variable(0)
        k = FinitelyPresentedModule.residue_field(R)
        Rx = FinitelyPresentedModule.cyclic(R, [x])
        checked = 0
        for M, N, i in [(k, k, 1), (k, k, 2), (Rx, k, 2), (k, Rx, 2)]:
            E = ext_module(M, N, i)
            assert E.cycles, (M, N, i)
            span = R.module_basis(E.cycles, E.rank)
            for b in E.boundaries:
                assert normal_form(b, span).is_zero(), (M, N, i)
                checked += 1
        assert checked > 0

    def test_ext0_of_ring_is_the_target(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        free = FinitelyPresentedModule.cyclic(R, [])
        for N in (FinitelyPresentedModule.residue_field(R),
                  FinitelyPresentedModule.cyclic(R, [x]),
                  FinitelyPresentedModule.cyclic(R, [x * x, x * y, y * y])):
            got = ext_module(free, N, 0).to_module()
            assert got.rows == minimal_presentation(N).rows

    def test_ext_of_free_vanishes_positively(self):
        R = embedded_point_ring()
        free = FinitelyPresentedModule.free(R, 2)
        k = FinitelyPresentedModule.residue_field(R)
        for i in (1, 2, 3):
            assert ext_module(free, k, i).is_zero()

    def test_ext_with_zero_edges(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        zero = FinitelyPresentedModule(R, 0)
        assert ext_module(zero, k, 1).is_zero()
        assert ext_module(k, zero, 2).is_zero()

    def test_degree_and_ring_validation(self):
        R = embedded_point_ring()
        F = fail_ring()
        k = FinitelyPresentedModule.residue_field(R)
        kF = FinitelyPresentedModule.residue_field(F)
        with pytest.raises(PreconditionError):
            ext_module(k, k, -1)
        with pytest.raises(StructuralError):
            ext_module(k, kF, 1)

    def test_dimensions_match_brute_force_oracle(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        k = FinitelyPresentedModule.residue_field(R)
        Rx = FinitelyPresentedModule.cyclic(R, [x])
        msq = FinitelyPresentedModule.cyclic(R, [x * x, x * y, y * y])
        for M in (k, Rx, msq):
            for N in (k, msq):
                for i in (0, 1, 2):
                    engine = ext_module(M, N, i).k_dimension()
                    oracle = ext_dimension_oracle(M, N, i)
                    assert engine == oracle, (M, N, i, engine, oracle)


class TestAnnihilatesExt:
    def test_y_kills_ext2_of_the_cyclic_family(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        targets = (
            FinitelyPresentedModule.cyclic(R, []),
            FinitelyPresentedModule.residue_field(R),
            FinitelyPresentedModule.cyclic(R, [x]),
        )
        for n in (1, 2, 3):
            M = FinitelyPresentedModule.cyclic(R, [x, y ** n])
            for N in targets:
                assert annihilates_ext(y, M, N, 2), (n, N)

    def test_one_does_not_kill_ext2_kk(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        assert not annihilates_ext(R.poly_ring.one(), k, k, 2)

    def test_x_kills_high_ext_on_the_corpus(self):
        R = embedded_point_ring()
        x = R.variable(0)
        corpus = default_corpus(R, 0)
        for M in corpus:
            for N in corpus:
                for i in (2, 3):
                    assert annihilates_ext(x, M, N, i), (M, N, i)

    def test_wrong_ring_element_rejected(self):
        R = embedded_point_ring()
        F = fail_ring()
        k = FinitelyPresentedModule.residue_field(R)
        with pytest.raises(StructuralError):
            annihilates_ext(F.variable(0), k, k, 2)

    def test_syzygy_shift_consistency(self):
        """Degree-n annihilation agrees with degree-(n-1) on the syzygy."""
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        k = FinitelyPresentedModule.residue_field(R)
        Rx = FinitelyPresentedModule.cyclic(R, [x])
        msq = FinitelyPresentedModule.cyclic(R, [x * x, x * y, y * y])
        one = R.poly_ring.one()
        for M in (k, Rx, msq):
            omega = syzygy_module(M, 1)
            for N in (k, Rx):
                for r in (x, y, one):
                    for n in (2, 3):
                        lhs = annihilates_ext(r, M, N, n)
                        rhs = annihilates_ext(r, omega, N, n - 1)
                        assert lhs == rhs, (M, N, str(r), n)


class TestStableAnnihilation:
    def test_socle_and_second_variable_pass_on_k(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        k = FinitelyPresentedModule.residue_field(R)
        assert stable_annihilation_test(x, k)
        assert stable_annihilation_test(y, k)

    def test_identity_fails_on_k_for_a_singular_ring(self):
        R = presentation(QQ, ("x",), lambda x: [x * x])
        k = FinitelyPresentedModule.residue_field(R)
        assert not stable_annihilation_test(R.poly_ring.one(), k)

    def test_free_module_passes_everything(self):
        R = embedded_point_ring()
        y = R.variable(1)
        free = FinitelyPresentedModule.free(R, 2)
        assert stable_annihilation_test(y, free)
        assert stable_annihilation_test(R.poly_ring.one(), free)

    def test_zero_module_rejected(self):
        R = embedded_point_ring()
        zero = FinitelyPresentedModule(R, 0)
        with pytest.raises(PreconditionError):
            stable_annihilation_test(R.variable(0), zero)

    def test_fail_ring_y_squared_is_excluded_by_r_mod_x(self):
        F = fail_ring()
        x, y = F.variable(0), F.variable(1)
        M = FinitelyPresentedModule.cyclic(F, [x])
        assert not stable_annihilation_test(y * y, M)
        assert stable_annihilation_test(x, M)

    def test_fail_ring_jacobian_products_pass_on_r_mod_x(self):
        F = fail_ring()
        x, y, z, w = (F.variable(i) for i in range(4))
        M = FinitelyPresentedModule.cyclic(F, [x])
        for r in (x * y, x * z, x * w):
            assert stable_annihilation_test(r, M), str(r)


class TestCaWitness:
    def test_y_at_degree_three_is_clean_evidence(self):
        R = embedded_point_ring()
        y = R.variable(1)
        corpus = default_corpus(R, 0)
        report = ca_witness(y, 3, corpus)
        assert report.verdict == "evidence-in"
        assert len(report.entries) == len(corpus) ** 2
        assert not report.failures()

    def test_socle_element_at_degree_three(self):
        R = embedded_point_ring()
        x = R.variable(0)
        corpus = default_corpus(R, 0)
        assert ca_witness(x, 3, corpus).verdict == "evidence-in"

    def test_identity_is_proved_out_by_any_nonfree_module(self):
        R = embedded_point_ring()
        corpus = default_corpus(R, 0)
        report = ca_witness(R.poly_ring.one(), 1, corpus)
        assert report.verdict == "proved-not-in"
        assert report.failures()

    def test_budget_exhaustion_is_recorded_not_raised(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        report = ca_witness(R.poly_ring.one(), 3, [k],
                            pair_budget=Budget(max_steps=20))
        assert report.verdict == "budget-exhausted"
        assert report.entries[0].outcome == "budget-exhausted"

    def test_enclosing_budget_exhaustion_is_raised(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        with budget_scope(Budget(max_steps=20)) as outer:
            with pytest.raises(BudgetExceededError) as err:
                ca_witness(R.poly_ring.one(), 3, [k],
                           pair_budget=Budget(max_steps=1000))
        assert err.value.scope is outer

    def test_aggregation_is_index_ordered(self):
        R = embedded_point_ring()
        x = R.variable(0)
        corpus = default_corpus(R, 0)[:3]
        report = ca_witness(x, 2, corpus)
        assert [(e.source_index, e.target_index) for e in report.entries] == [
            (a, b) for a in range(3) for b in range(3)
        ]


class TestDefaultCorpus:
    def test_structure_and_determinism(self):
        R = embedded_point_ring()
        corpus = default_corpus(R, 0)
        again = default_corpus(R, 0)
        assert len(corpus) == 5 + R.nvars
        assert corpus[0].rows == FinitelyPresentedModule.residue_field(R).rows
        assert corpus[1].is_free_presentation()
        for a, b in zip(corpus, again):
            assert a.rows == b.rows and a.rank == b.rank

    def test_seed_changes_only_the_random_member(self):
        R = embedded_point_ring()
        base = default_corpus(R, 0)
        other = default_corpus(R, 99)
        for a, b in zip(base[:-1], other[:-1]):
            assert a.rows == b.rows


# ---------------------------------------------------------------------------
# module annihilators


class TestModuleAnnihilator:
    def test_annihilator_of_k_is_the_maximal_ideal(self):
        R = embedded_point_ring()
        k = FinitelyPresentedModule.residue_field(R)
        assert module_annihilator(k).same_ideal(R.maximal_ideal())

    def test_annihilator_of_cyclic_is_its_ideal(self):
        R = embedded_point_ring()
        x = R.variable(0)
        got = module_annihilator(FinitelyPresentedModule.cyclic(R, [x]))
        assert got.same_ideal(IdealHandle(R, [x]))

    def test_annihilator_of_first_syzygy(self):
        R = embedded_point_ring()
        x = R.variable(0)
        k = FinitelyPresentedModule.residue_field(R)
        omega = syzygy_module(k, 1)
        assert module_annihilator(omega).same_ideal(IdealHandle(R, [x]))

    def test_annihilator_edges(self):
        R = embedded_point_ring()
        free = FinitelyPresentedModule.cyclic(R, [])
        assert module_annihilator(free).is_zero()
        zero = FinitelyPresentedModule(R, 0)
        assert module_annihilator(zero).is_unit()

    def test_annihilator_actually_annihilates(self):
        from singulant.groebner import ModuleElement, buchberger, normal_form

        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        for M in (FinitelyPresentedModule.residue_field(R),
                  FinitelyPresentedModule.cyclic(R, [x * x, y * y]),
                  syzygy_module(FinitelyPresentedModule.residue_field(R), 1)):
            Mmin = minimal_presentation(M)
            ann = module_annihilator(M)
            cols = Mmin.relation_columns()
            if not cols:
                assert ann.is_zero()
                continue
            gb = buchberger(cols, defining=R.defining_basis(),
                            ring=R.poly_ring, rank=Mmin.rank)
            for g in ann.reduced_generators():
                for pos in range(Mmin.rank):
                    probe = ModuleElement.unit(R.poly_ring, Mmin.rank, pos, g)
                    assert normal_form(probe, gb).is_zero()

    def test_k_dimension_counting(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        k = FinitelyPresentedModule.residue_field(R)
        assert module_k_dimension(k) == 1
        msq = FinitelyPresentedModule.cyclic(R, [x * x, x * y, y * y])
        assert module_k_dimension(msq) == 3  # basis 1, x, y
        free = FinitelyPresentedModule.cyclic(R, [])
        assert module_k_dimension(free) is None  # R itself is infinite
        zero = FinitelyPresentedModule(R, 0)
        assert module_k_dimension(zero) == 0


# ---------------------------------------------------------------------------
# Koszul complexes


class TestKoszul:
    def test_regular_sequence_on_the_plane(self):
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        free = FinitelyPresentedModule.cyclic(P, [])
        assert koszul_cohomology([x, y], free, 0).is_zero_presentation()
        assert koszul_cohomology([x, y], free, 1).is_zero_presentation()
        top = koszul_cohomology([x, y], free, 2)
        assert rows_str(top.rows) == [["x0", "x1"]]

    def test_regular_sequence_in_three_variables(self):
        P = RingPresentation(QQ, ("x", "y", "z"))
        seq = [P.variable(i) for i in range(3)]
        free = FinitelyPresentedModule.cyclic(P, [])
        for i in (0, 1, 2):
            assert koszul_cohomology(seq, free, i).is_zero_presentation(), i
        top = koszul_cohomology(seq, free, 3)
        assert module_k_dimension(top) == 1

    def test_single_element_over_the_running_quotient(self):
        R = embedded_point_ring()
        x = R.variable(0)
        free = FinitelyPresentedModule.cyclic(R, [])
        h0 = koszul_cohomology([x], free, 0)
        assert rows_str(h0.rows) == [["x0", "x1", "0"], ["0", "0", "x0"]]
        h1 = koszul_cohomology([x], free, 1)
        assert rows_str(h1.rows) == [["x0"]]

    def test_zero_module_input(self):
        R = embedded_point_ring()
        x = R.variable(0)
        zero = FinitelyPresentedModule(R, 0)
        for i in (0, 1):
            assert koszul_cohomology([x], zero, i).is_zero_presentation()

    def test_complex_property(self):
        from singulant.resolve import matrix_columns
        from singulant.groebner import buchberger, normal_form

        P = RingPresentation(QQ, ("x", "y", "z"))
        x, y, z = (P.variable(i) for i in range(3))
        free = FinitelyPresentedModule.cyclic(P, [])
        K = koszul_complex([x * y, y - z, z * z], free)
        for i in range(K.length - 1):
            a = K.differential(i)
            b = K.differential(i + 1)
            for col in matrix_columns(P, a):
                # push each column of d_i through d_(i+1)
                out = [P.poly_ring.zero()] * len(b)
                for r in range(len(b)):
                    for t in range(len(col.coords)):
                        out[r] = out[r] + b[r][t] * col.coords[t]
                assert all(e.is_zero() for e in out), i

    def test_top_cohomology_is_the_quotient(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        free = FinitelyPresentedModule.cyclic(R, [])
        top = koszul_cohomology([x, y], free, 2)
        assert top.rows == minimal_presentation(
            FinitelyPresentedModule.cyclic(R, [x, y])).rows

    def test_self_annihilation_by_the_sequence_ideal(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        free = FinitelyPresentedModule.cyclic(R, [])
        K = koszul_complex([x, y], free)
        for r in (x, y, x + y):
            for i in range(K.length + 1):
                assert K.cohomology_subquotient(i).annihilated_by(r), (str(r), i)

    def test_out_of_range_degree_rejected(self):
        R = embedded_point_ring()
        x = R.variable(0)
        free = FinitelyPresentedModule.cyclic(R, [])
        with pytest.raises(PreconditionError):
            koszul_cohomology([x], free, 2)

    def test_support_check_examples(self):
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        free = FinitelyPresentedModule.cyclic(R, [])
        assert koszul_support_check([x], free)
        k = FinitelyPresentedModule.residue_field(R)
        assert koszul_support_check([x], k)  # (x) inside ann(k)
        P = RingPresentation(QQ, ("x", "y"))
        pfree = FinitelyPresentedModule.cyclic(P, [])
        assert koszul_support_check([P.variable(0), P.variable(1)], pfree)

    def test_sequence_ring_validation(self):
        R = embedded_point_ring()
        F = fail_ring()
        free = FinitelyPresentedModule.cyclic(R, [])
        with pytest.raises(StructuralError):
            koszul_complex([F.variable(0)], free)
