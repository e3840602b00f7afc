"""Certificate assembly: annihilator bounds, radical comparison, bound, ledger."""
import json
from pathlib import Path

import pytest

from singulant import report as rpt
from singulant.cli import parse_ring
from singulant.errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    budget_scope,
)
from singulant.homalg import default_corpus, stable_annihilation_test
from singulant.ideal_ops import IdealHandle, RingPresentation, socle
from singulant.jacobian import jacobian_ideal
from singulant.poly import QQ, PrimeField
from singulant.report import (
    annihilator_bounds,
    build_report,
    generation_time_bound,
    ledger_passed,
    radical_comparison_report,
    report_json,
    verify_paper_examples,
)

from util import fail_ring, ideal, presentation, embedded_point_ring


@pytest.fixture(scope="module")
def ring_a():
    return embedded_point_ring()


@pytest.fixture(scope="module")
def ring_b():
    return fail_ring()


@pytest.fixture(scope="module")
def bounds_a(ring_a):
    gens = jacobian_ideal(ring_a).reduced_generators()
    return annihilator_bounds(ring_a, extra_elements=gens)


@pytest.fixture(scope="module")
def bounds_b(ring_b):
    gens = jacobian_ideal(ring_b).reduced_generators()
    return annihilator_bounds(ring_b, extra_elements=gens)


# -- annihilator bounds -------------------------------------------------------


class TestAnnihilatorBounds:
    def test_lower_bound_two_variable_ring(self, ring_a, bounds_a):
        x, y = ring_a.variable(0), ring_a.variable(1)
        assert bounds_a.lower.same_ideal(IdealHandle(ring_a, [x, y]))

    def test_socle_generator_certified_by_ca_witness(self, bounds_a):
        methods = {bounds_a.ring.format_element(c.element): c.method
                   for c in bounds_a.certificates}
        assert methods["x"] == "socle-ca-witness"
        assert methods["y"] == "stable-annihilation"

    def test_shifted_certificate_recorded(self, bounds_a):
        # y needs one syzygy shift on R/m^2; the certificate names it
        y_cert = next(c for c in bounds_a.certificates
                      if bounds_a.ring.format_element(c.element) == "y")
        by_module = {o.module: o for o in y_cert.outcomes}
        assert by_module["R/m^2"].shift == 1
        assert all(o.status == "certified" for o in y_cert.outcomes)

    def test_every_lower_generator_has_certificate(self, bounds_a, bounds_b):
        for bounds in (bounds_a, bounds_b):
            certified = {bounds.ring.format_element(c.element)
                         for c in bounds.certificates}
            for g in bounds.lower.reduced_generators():
                assert bounds.ring.format_element(g) in certified

    def test_lower_and_exclusions_disjoint(self, bounds_a, bounds_b):
        for bounds in (bounds_a, bounds_b):
            for exc in bounds.exclusions:
                assert not bounds.lower.contains(exc.element)

    def test_fail_ring_lower_is_zero(self, bounds_b):
        assert bounds_b.lower.is_zero()

    def test_fail_ring_exclusion_witness(self, ring_b, bounds_b):
        witnesses = {(ring_b.format_element(e.element), e.module, e.target,
                      e.ext_degree) for e in bounds_b.exclusions}
        assert ("y^2", "R/(x)", "syz1(R/(x))", 1) in witnesses

    def test_fail_ring_inconclusive_candidates(self, ring_b, bounds_b):
        undecided = {ring_b.format_element(g) for g, _ in bounds_b.inconclusive}
        assert undecided == {"x*y", "x*z", "x*w"}
        for _, modules in bounds_b.inconclusive:
            assert modules == ["syz1(k)"]

    def test_socle_generators_pass_stable_test_on_full_corpus(self, ring_a):
        corpus = default_corpus(ring_a, 0)
        for g in socle(ring_a).reduced_generators():
            assert all(stable_annihilation_test(g, M) for M in corpus)

    def test_rejects_foreign_candidates(self, ring_a, ring_b):
        with pytest.raises(StructuralError):
            annihilator_bounds(ring_a, extra_elements=[ring_b.variable(0)])

    def test_payload_is_json_ready(self, bounds_b):
        doc = bounds_b.payload()
        json.dumps(doc)
        assert doc["lower_gens"] == []
        assert doc["corpus"][0] == "k"


# -- generation-time bound ----------------------------------------------------


class TestGenerationTimeBound:
    def test_maximal_ideal_golden(self, ring_a, bounds_a):
        result = generation_time_bound(ring_a, ring_a.maximal_ideal(),
                                       bounds=bounds_a)
        assert (result.nu, result.depth, result.loewy) == (2, 0, 1)
        assert result.bound == 3
        assert result.dim_bound == 2
        assert result.assumed is False

    def test_artinian_hypersurface(self):
        ring = presentation(QQ, ("x",), lambda x: [x * x])
        result = generation_time_bound(ring, ring.maximal_ideal())
        assert (result.nu, result.depth, result.loewy) == (1, 0, 1)
        assert (result.bound, result.dim_bound) == (2, 1)

    def test_larger_m_primary_ideal(self, ring_a):
        result = generation_time_bound(
            ring_a, ideal(ring_a, lambda x, y: [x, y * y]))
        assert (result.nu, result.loewy) == (2, 2)
        assert (result.bound, result.dim_bound) == (6, 5)

    def test_bound_monotone_under_enlarging_ideal(self, ring_a, bounds_a):
        small = generation_time_bound(
            ring_a, ideal(ring_a, lambda x, y: [x, y * y]))
        large = generation_time_bound(ring_a, ring_a.maximal_ideal(),
                                      bounds=bounds_a)
        assert large.loewy <= small.loewy
        assert large.bound == 3 and small.bound == 6

    def test_rejects_non_m_primary(self, ring_a):
        with pytest.raises(PreconditionError) as err:
            generation_time_bound(ring_a, ideal(ring_a, lambda x, y: [x]))
        assert "m-primary" in str(err.value)

    def test_uncertified_generator_named(self, ring_b, bounds_b):
        with pytest.raises(PreconditionError) as err:
            generation_time_bound(ring_b, ring_b.maximal_ideal(),
                                  bounds=bounds_b)
        assert "carries no annihilation certificate" in str(err.value)

    def test_assume_flag_recorded(self, ring_b):
        result = generation_time_bound(ring_b, ring_b.maximal_ideal(),
                                       assume_annihilates=True)
        assert result.assumed is True
        assert (result.nu, result.depth, result.loewy) == (4, 1, 1)
        assert result.bound == 4

    def test_rejects_foreign_ideal(self, ring_a, ring_b):
        with pytest.raises(StructuralError):
            generation_time_bound(ring_a, ring_b.maximal_ideal())


# -- radical comparison -------------------------------------------------------


class TestRadicalComparison:
    def test_two_variable_ring_equal(self, ring_a, bounds_a):
        comparison = radical_comparison_report(ring_a, bounds=bounds_a)
        assert comparison.verdict == "equal"
        assert comparison.jac_in_lower and comparison.lower_in_jac
        assert comparison.failures == []
        assert "corpus-evidence" in comparison.note

    def test_fail_ring_strictly_smaller(self, ring_b, bounds_b):
        comparison = radical_comparison_report(ring_b, bounds=bounds_b)
        assert comparison.verdict == "lower-strictly-smaller"
        assert not comparison.jac_in_lower
        assert comparison.lower_in_jac

    def test_fail_ring_failure_prime(self, ring_b, bounds_b):
        comparison = radical_comparison_report(ring_b, bounds=bounds_b)
        assert comparison.failures == [
            {"element": "y^2", "prime": ["x", "z", "w"]}
        ]

    def test_regular_ring_both_unit(self):
        ring = presentation(QQ, ("x", "y"))
        comparison = radical_comparison_report(ring)
        assert comparison.verdict == "equal"
        assert comparison.jac.is_unit()
        assert comparison.bounds.lower.is_unit()
        assert comparison.bounds.certificates[0].method == "regular-ring"


# -- full report ---------------------------------------------------------------


class TestBuildReport:
    def test_report_two_variable_ring(self, ring_a):
        doc = build_report(ring_a)
        assert doc["ring"] == "Q[x,y]/(x^2, x*y)"
        assert doc["field"] == "Q"
        assert (doc["dim"], doc["depth"]) == (1, 0)
        assert doc["jac"]["gens"] == ["x", "y"]
        assert doc["equidimensional"] is True
        assert doc["isolated"] is True
        assert doc["regular"] is False
        assert doc["socle"]["gens"] == ["x"]
        assert doc["ann_bounds"]["lower_gens"] == ["x", "y"]
        assert doc["radical_comparison"]["verdict"] == "equal"
        assert doc["bound"]["generation_time"] == 3
        assert doc["bound"]["dim_sg_bound"] == 2

    def test_report_fail_ring(self, ring_b):
        doc = build_report(ring_b)
        assert doc["equidimensional"] is False
        assert doc["isolated"] is None
        assert doc["bound"] is None
        assert doc["singular_locus"]["criterion"] == "unknown"
        assert doc["singular_locus"]["witness_primes"] == [["x", "z", "w"]]
        assert doc["radical_comparison"]["verdict"] == "lower-strictly-smaller"
        assert any("jacobian criterion not validated" in h
                   for h in doc["hypotheses"])

    def test_hypothesis_lines_always_present(self, ring_a):
        doc = build_report(ring_a)
        assert any("strong generation" in h for h in doc["hypotheses"])
        assert any("corpus evidence" in h for h in doc["hypotheses"])

    def test_reports_byte_identical(self, ring_a):
        first = report_json(build_report(ring_a))
        second = report_json(build_report(ring_a))
        assert first == second
        assert first.endswith("\n")

    def test_bound_block_respects_user_ideal(self, ring_a):
        doc = build_report(ring_a,
                           bound_ideal=ideal(ring_a, lambda x, y: [x, y * y]))
        assert sorted(doc["bound"]["I_gens"]) == ["x", "y^2"]
        assert doc["bound"]["generation_time"] == 6

    def test_assume_flag_becomes_hypothesis(self, ring_a):
        doc = build_report(ring_a, assume_annihilates=True)
        assert doc["bound"]["assume_annihilates"] is True
        assert any("assume-annihilates override" in h
                   for h in doc["hypotheses"])

    def test_non_m_primary_bound_ideal_demoted_to_hypothesis(self, ring_a):
        doc = build_report(ring_a, bound_ideal=ideal(ring_a, lambda x, y: [x]))
        assert doc["bound"] is None
        assert any("not m-primary" in h for h in doc["hypotheses"])

    def test_regular_report(self):
        ring = presentation(QQ, ("x",))
        doc = build_report(ring)
        assert doc["regular"] is True
        assert doc["isolated"] is False
        assert doc["radical_comparison"]["verdict"] == "equal"
        assert doc["ann_bounds"]["lower_gens"] == ["1"]

    def test_characteristic_three_cusp_displays_irredundant_generators(self):
        # in characteristic 3, d/dx(x^3 - y^2) = 3x^2 = 0 and d/dy = -2y = y,
        # so jac = (y), of height 1; y^2 = x^3 lies in (y) and is not shown
        doc = build_report(parse_ring("F3[x,y]/(x^3 - y^2)"))
        assert doc["jac"]["gens"] == ["y"]
        assert doc["ann_bounds"]["lower_gens"] == ["y"]


# -- budgets: one scope per command, capped steps inside the sweep -------------------


class TestSweepBudgets:
    def test_lowered_step_cap_degrades_to_inconclusive(self, monkeypatch):
        monkeypatch.setattr(rpt, "_CERT_MAX_STEPS", 200)
        doc = build_report(parse_ring(SNAPSHOT_RINGS["A"]))
        assert doc["ann_bounds"]["inconclusive"]

    def test_exhausted_command_budget_propagates_through_the_sweep(self):
        ring = parse_ring(SNAPSHOT_RINGS["A"])
        with budget_scope(Budget(max_steps=200)) as scope:
            with pytest.raises(BudgetExceededError) as err:
                build_report(ring)
        assert err.value.scope is scope

    def test_exhausted_command_budget_is_not_a_ledger_entry(self):
        with budget_scope(Budget(max_steps=10)):
            with pytest.raises(BudgetExceededError):
                verify_paper_examples()


# -- byte-identical report snapshots ------------------------------------------------

# Each file in tests/data is report_json(build_report(parse_ring(text))) for
# the ring below, written by the code it guards: a change meant to keep
# behaviour must keep these bytes.  The cusp and cubic files are expected to
# change when ROADMAP item 4 adds its equidimensionality certificates (their
# reports now lack the bound block).  A change that regenerates any file
# explains the diff in CHANGES.md.
SNAPSHOT_RINGS = {
    "A": "Q[x,y]/(x^2, x*y)",
    "B": "Q[x,y,z,w]/(x^2, y*z, y*w)",
    "x2y2": "Q[x,y]/(x^2, y^2)",
    "cubic": "Q[x,y,z]/(x^3 + y^3 + z^3)",
    "xy_yz_xz": "Q[x,y,z]/(x*y, y*z, x*z)",
    "cusp": "Q[x,y]/(x^3 - y^2)",
}


@pytest.mark.parametrize("key", sorted(SNAPSHOT_RINGS))
def test_report_matches_snapshot(key):
    path = Path(__file__).parent / "data" / f"report_{key}.json"
    got = report_json(build_report(parse_ring(SNAPSHOT_RINGS[key])))
    assert got.encode("utf-8") == path.read_bytes()


# -- golden-example ledger ------------------------------------------------------


class TestVerifyPaperExamples:
    def test_fresh_run_all_pass(self):
        entries = verify_paper_examples()
        assert ledger_passed(entries)
        assert all(e.status == "pass" for e in entries)
        assert len(entries) == 18

    def test_corrupted_jacobian_fails_only_jac_entries(self, monkeypatch):
        def corrupted(ring):
            return IdealHandle(ring, [ring.variable(0) ** 3])

        monkeypatch.setattr(rpt, "jacobian_ideal", corrupted)
        entries = rpt.verify_paper_examples()
        failing = {e.name for e in entries if e.status == "fail"}
        assert failing == {"jac/embedded-point-line", "jac/plane-line-union"}
        assert all(e.status == "pass" for e in entries
                   if e.name not in failing)

    def test_char_two_skips_with_reason(self):
        entries = verify_paper_examples(PrimeField(2))
        assert ledger_passed(entries)
        skipped = {e.name: e.detail for e in entries if e.status == "skipped"}
        assert set(skipped) == {
            "jac/plane-line-union",
            "isolated/plane-line-union",
            "radical-compare/plane-line-union",
        }
        for reason in skipped.values():
            assert "characteristic 2" in reason
