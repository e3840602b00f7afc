"""Ext modules, Koszul cohomology, and annihilation certificates."""
from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

from singulant.errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    budget_scope,
)
from singulant.groebner import ModuleElement, buchberger, normal_form
from singulant.homalg import (
    CaWitnessReport,
    StableSpan,
    ca_witness,
    annihilates_ext,
    corpus_labels,
    default_corpus,
    ext_from_resolution,
    ext_module,
    koszul_cohomology,
    koszul_complex,
    koszul_support_check,
    module_annihilator,
    module_k_dimension,
    stable_annihilation_test,
)
from singulant.ideal_ops import IdealHandle, RingPresentation
from singulant.poly import Monomial, Polynomial, PrimeField, QQ
from singulant.resolve import (
    FinitelyPresentedModule,
    free_resolution,
    minimal_presentation,
    syzygy_module,
)

import oracles
from oracles import _row_reduce, monomials_of_degree
from util import count_calls, fail_ring, presentation, embedded_point_ring


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
            span = buchberger(E.cycles, defining=R.defining_basis(), ring=R.poly_ring,
                              rank=E.rank)
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
        # Ext^1 needs d_2: a resolution of length 1 holds it in ``pending``,
        # one of length 0 lacks it
        with pytest.raises(PreconditionError):
            ext_from_resolution(free_resolution(k, 0), k, 1)
        with pytest.raises(StructuralError):
            ext_from_resolution(free_resolution(k, 1), kF, 1)

    def test_one_resolution_serves_every_target(self):
        """All 49 corpus pairs at degree 2: one resolution per source and one
        minimal presentation per target give ext_module's cycles and
        boundaries."""
        R = embedded_point_ring()
        corpus = default_corpus(R, 0)
        targets = [minimal_presentation(N) for N in corpus]
        for a, M in enumerate(corpus):
            res = free_resolution(M, 3, detect_periodicity=False)
            for b, (N, Nmin) in enumerate(zip(corpus, targets)):
                shared = ext_from_resolution(res, Nmin, 2)
                fresh = ext_module(M, N, 2)
                assert shared.cycles == fresh.cycles, (a, b)
                assert shared.boundaries == fresh.boundaries, (a, b)

    @pytest.mark.parametrize("ring", [
        embedded_point_ring(),
        presentation(QQ, ("x", "y", "z"), lambda x, y, z: [x ** 3 + y ** 3 + z ** 3]),
    ], ids=["A", "cubic"])
    def test_length_L_reaches_omega_L_and_ext_L(self, ring):
        """A resolution of length L gives the same Omega^L, and the same
        Ext^L cycles and boundaries against every minimal corpus target,
        as the resolution grown one step further; before that step it
        refuses Omega^(L+1) and Ext^(L+1)."""
        corpus = default_corpus(ring, 0)
        targets = [minimal_presentation(N) for N in corpus]

        def read(res, L):
            exts = [ext_from_resolution(res, N, L) for N in targets]
            return res.syzygy(L), [(e.cycles, e.boundaries, e.beta) for e in exts]

        for a, M in enumerate(corpus):
            res = free_resolution(M, 0, detect_periodicity=False)
            for L in range(4):
                assert res.length == L or res.complete, (a, L)
                short = read(res, L)
                if not res.complete:
                    with pytest.raises(PreconditionError):
                        res.syzygy(L + 1)
                    with pytest.raises(PreconditionError):
                        ext_from_resolution(res, targets[0], L + 1)
                assert read(res.grow(L + 1), L) == short, (a, L)

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


STABLE_ORACLE_RINGS = {
    "A": (QQ, ("x", "y"), lambda x, y: [x * x, x * y]),
    "x2y2": (QQ, ("x", "y"), lambda x, y: [x * x, y * y]),
    "xy_yz_xz": (QQ, ("x", "y", "z"), lambda x, y, z: [x * y, y * z, x * z]),
    "F7_xy-z2": (PrimeField(7), ("x", "y", "z"), lambda x, y, z: [x * y - z * z]),
}


def _span_products(mod):
    """The products d E_ji d = d[:, j] (x) d[i, :], flattened row by row."""
    rows, b0, b1 = mod.rows, mod.rank, mod.n_relations
    return [tuple(rows[a][j] * rows[i][b] for a in range(b0) for b in range(b1))
            for j in range(b1) for i in range(b0)]


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

    def test_span_over_the_dual_numbers_is_zero(self):
        """Over Q[x]/(x^2), k = coker(x): the one product d E d = x^2 is zero,
        so the span is I alone, and its loop holds x^2 only.  x * d = x^2
        lies in it and 1 * d = x does not: x passes and 1 fails."""
        R = presentation(QQ, ("x",), lambda x: [x * x])
        x = R.variable(0)
        k = FinitelyPresentedModule.residue_field(R)
        span = StableSpan(k)
        assert [el.coords for el in span.loop.basis] == [(x * x,)]
        assert span.factors(x) and stable_annihilation_test(x, k)
        assert not span.factors(R.poly_ring.one())
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

    def test_element_from_another_ring_rejected(self):
        """r is checked before any shortcut: R is free and Omega^1 k is not
        zero, and both refuse an element of Q[x,y,z]."""
        R = embedded_point_ring()
        z = presentation(QQ, ("x", "y", "z")).variable(2)
        for M in (FinitelyPresentedModule.cyclic(R, []),
                  FinitelyPresentedModule.residue_field(R)):
            with pytest.raises(StructuralError):
                stable_annihilation_test(z, M)

    @pytest.mark.parametrize("key", sorted(STABLE_ORACLE_RINGS))
    def test_span_matches_degree_slices(self, key):
        """factors(r) on every corpus member and its first syzygy agrees
        with one Macaulay matrix in deg r, for each variable, a seeded
        linear form and each degree-2 monomial: r * d against the products
        d E_ji d plus I * R^(b0*b1), position (a, b) graded by s_a - c_b."""
        field, names, builder = STABLE_ORACLE_RINGS[key]
        R = presentation(field, names, builder)
        P = R.poly_ring
        v = [R.variable(i) for i in range(R.nvars)]
        rng = random.Random(sum(map(ord, key)))
        linear = sum((g.scale(field.normalize(rng.randint(1, 5))) for g in v), P.zero())
        cands = v + [linear] + [a * b for a, b in combinations_with_replacement(v, 2)]
        verdicts = set()
        for M in default_corpus(R, 0):
            res = free_resolution(M, 1, detect_periodicity=False)
            for s in range(res.length + 1):
                mod = res.syzygy(s)
                if mod.is_zero_presentation() or mod.is_free_presentation():
                    continue
                degrees = _column_degrees(mod.rows, mod.shifts)
                shifts = [sa - c for sa in mod.shifts for c in degrees]
                products, span = _span_products(mod), StableSpan(mod)
                for r in cands:
                    rd = tuple(r * e for row in mod.rows for e in row)
                    got = span.factors(r)
                    assert got == oracles.graded_module_membership(
                        rd, products, list(R.defining), shifts), (str(M), s, str(r))
                    verdicts.add((r.total_degree(), got))
        assert verdicts >= {(1, True), (1, False), (2, True)}

    def test_span_on_non_homogeneous_input_completes_fully(self):
        """Over the affine cusp, and for x + y^2 over ring A, factors(r)
        agrees with the normal form of r * d against the span's whole
        reduced basis, on every corpus member and its first syzygy."""
        cusp = presentation(QQ, ("x", "y"), lambda x, y: [x ** 3 - y * y])
        for R in (cusp, embedded_point_ring()):
            x, y = R.variable(0), R.variable(1)
            one = R.poly_ring.one()
            for M in default_corpus(R, 0):
                res = free_resolution(M, 1, detect_periodicity=False)
                for s in range(res.length + 1):
                    mod = res.syzygy(s)
                    if mod.is_zero_presentation() or mod.is_free_presentation():
                        continue
                    d = ModuleElement(R.poly_ring, [e for row in mod.rows for e in row])
                    whole = buchberger([ModuleElement(R.poly_ring, p)
                                        for p in _span_products(mod)],
                                       defining=R.defining_basis(), ring=R.poly_ring,
                                       rank=d.rank)
                    span = StableSpan(mod)
                    for r in (x + y * y, x, y, x * y + one):
                        assert span.factors(r) == normal_form(d.mul_poly(r), whole).is_zero()

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

    def test_each_source_is_resolved_once(self, monkeypatch):
        R = embedded_point_ring()
        corpus = default_corpus(R, 0)
        calls = count_calls(monkeypatch, free_resolution)
        ca_witness(R.variable(0), 2, corpus)
        assert [args[0] for args in calls] == corpus

    # over Q[x,y]/(x^2, xy), with r = x at degree 2: resolving k to step 2
    # takes 62 steps, R/(y) 27 and the seeded cokernel 100; presenting k
    # takes 2, R/(y) 1 and the seeded cokernel 5; once both are given the
    # pairs (k, k) take 146, (k, R/(y)) 115, (R/(y), k) 57 and (R/(y), R/(y)) 45
    @pytest.mark.parametrize("members, max_steps, outcomes", [
        # k's resolution fits but both its pairs run out; R/(y)'s row fits
        (("k", "R/(y)"), 100, ["budget-exhausted"] * 2 + ["pass"] * 2),
        # the cokernel's column runs out on its presentation, and its row
        # on its resolution; the free module's pair with itself takes none
        (("R", "coker(2x3 seeded)"), 4, ["pass"] + ["budget-exhausted"] * 3),
        # k's row runs out on its resolution; R/(y)'s row still fits
        (("k", "R/(y)"), 60, ["budget-exhausted"] * 2 + ["pass"] * 2),
    ])
    def test_exhausted_source_or_target_marks_its_pairs(self, members, max_steps,
                                                        outcomes):
        R = embedded_point_ring()
        by_label = dict(zip(corpus_labels(R), default_corpus(R, 0)))
        report = ca_witness(R.variable(0), 2, [by_label[m] for m in members],
                            pair_budget=Budget(max_steps=max_steps))
        assert [e.outcome for e in report.entries] == outcomes
        assert report.verdict == "budget-exhausted"

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

    def test_annihilator_of_two_socle_relations(self):
        # over (x^2, y^2), r e_0 = s (x, y) forces s y = 0, so s in (y) and
        # r in (xy); xy e_0 = y (x, y) and xy e_1 = x (x, y) in R^2
        R = presentation(QQ, ("x", "y"), lambda x, y: [x * x, y * y])
        x, y = R.variable(0), R.variable(1)
        M = FinitelyPresentedModule(R, 2, ((x,), (y,)))
        assert module_annihilator(M).same_ideal(IdealHandle(R, [x * y]))

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
            cols = list(Mmin.columns)
            if not cols:
                assert ann.is_zero()
                continue
            gb = buchberger(cols, defining=R.defining_basis(),
                            ring=R.poly_ring, rank=Mmin.rank)
            for g in ann.reduced_generators():
                for pos in range(Mmin.rank):
                    probe = ModuleElement.unit(R.poly_ring, Mmin.rank, pos, g)
                    assert normal_form(probe, gb).is_zero()

    def test_invariants_of_a_presentation_that_is_not_minimal(self):
        """coker [[1, x], [0, y]] is R/(y): the first relation kills e_0 and
        the second then reads y e_1.  Over Q[x,y]/(x^2, xy) that is
        Q[x]/(x^2), with ann (y) and basis 1, x, read off this presentation
        as off R/(y) itself."""
        R = embedded_point_ring()
        x, y = R.variable(0), R.variable(1)
        one, zero = R.poly_ring.one(), R.poly_ring.zero()
        M = FinitelyPresentedModule(R, 2, ((one, x), (zero, y)))
        Ry = FinitelyPresentedModule.cyclic(R, [y])
        for module in (M, Ry):
            assert module_annihilator(module).same_ideal(IdealHandle(R, [y]))
            assert module_k_dimension(module) == 2

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
        P = RingPresentation(QQ, ("x", "y", "z"))
        x, y, z = (P.variable(i) for i in range(3))
        free = FinitelyPresentedModule.cyclic(P, [])
        K = koszul_complex([x * y, y - z, z * z], free)
        for i in range(K.length - 1):
            a = K.differential(i)
            b = K.differential(i + 1)
            assert len(a) == len(K.subsets(i))
            for col in a:
                # push each column of d_i through d_(i+1)
                assert col.rank == len(b) and not col.is_zero()
                out = ModuleElement.from_terms(P.poly_ring, b[0].rank, [
                    t for entry, image in zip(col.coords, b)
                    for t in image.mul_poly(entry).terms])
                assert out.is_zero(), i
        assert K.differential(K.length) == [] and K.differential(-1) == []

    @pytest.mark.parametrize("target, dims", [
        ("R", (0, 0, 1)),
        ("k", (1, 2, 1)),
        ("R/(x)", (0, 1, 1)),
    ])
    def test_agrees_with_ext_of_the_residue_field(self, target, dims):
        # over P = Q[x,y], K(x, y; N) = Hom(K(x, y), N) and K(x, y) resolves
        # k, so H^i(x, y; N) = Ext^i(k, N).  Ext^i(k, R) is k in degree 2
        # only; Ext^i(k, k) has dimension binom(2, i); N = R/(x) = Q[y] has
        # depth 1, so Ext^0 = 0, Ext^1 = (0 : x) in N/yN = k and
        # Ext^2 = N/(x, y)N = k
        P = RingPresentation(QQ, ("x", "y"))
        x, y = P.variable(0), P.variable(1)
        N = {"R": FinitelyPresentedModule.cyclic(P, []),
             "k": FinitelyPresentedModule.residue_field(P),
             "R/(x)": FinitelyPresentedModule.cyclic(P, [x])}[target]
        k = FinitelyPresentedModule.residue_field(P)
        ext = tuple(module_k_dimension(ext_module(k, N, i).to_module()) for i in range(3))
        kos = tuple(module_k_dimension(koszul_cohomology([x, y], N, i)) for i in range(3))
        assert ext == kos == dims

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

    def test_sequence_outside_normal_form(self):
        # x^2 = 0 in R = Q[x,y]/(x^2, xy), so x + x^2 is x there: the complex
        # keeps the normal form, and H^0 = ann(x) = (x, y), on generators x
        # and y with relations x*x, y*x and x*y, and H^1 = R/(x)
        R = embedded_point_ring()
        x = R.variable(0)
        free = FinitelyPresentedModule.cyclic(R, [])
        assert koszul_complex([x + x * x], free).sequence == [x]
        for i in (0, 1):
            h = koszul_cohomology([x + x * x], free, i)
            assert h.rows == koszul_cohomology([x], free, i).rows, i
        assert rows_str(koszul_cohomology([x + x * x], free, 0).rows) == [
            ["x0", "x1", "0"], ["0", "0", "x0"]]
        assert rows_str(koszul_cohomology([x + x * x], free, 1).rows) == [["x0"]]
        assert koszul_support_check([x + x * x], free)

    def test_sequence_ring_validation(self):
        R = embedded_point_ring()
        F = fail_ring()
        free = FinitelyPresentedModule.cyclic(R, [])
        with pytest.raises(StructuralError):
            koszul_complex([F.variable(0)], free)
