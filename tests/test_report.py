"""Certificate assembly: annihilator bounds, radical comparison, bound, ledger."""
import itertools
import json
import random
from pathlib import Path

import pytest

from singulant import report as rpt
from singulant.cli import main, parse_ideal, parse_ring
from singulant.errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    budget_scope,
    guarded,
)
from singulant.groebner import buchberger
from singulant.homalg import (
    ca_witness,
    ca_witness_from_resolutions,
    corpus_labels,
    default_corpus,
    ext_from_resolution,
    stable_annihilation_test,
)
from singulant.ideal_ops import (
    IdealHandle,
    RingPresentation,
    is_m_primary,
    minimal_primes_monomial,
    radical_membership,
    socle,
)
from singulant.jacobian import jacobian_ideal, singular_locus_certificate
from singulant.poly import GREVLEX, LEX, QQ, Polynomial, PrimeField
from singulant.report import (
    RingContext,
    annihilator_bounds,
    build_report,
    generation_time_bound,
    ledger_passed,
    radical_comparison_report,
    report_json,
    verify_paper_examples,
)
from singulant.resolve import (
    FinitelyPresentedModule,
    free_resolution,
    minimal_presentation,
    ring_depth,
    syzygy_module,
)

import oracles
from util import count_calls, fail_ring, ideal, presentation, embedded_point_ring


@pytest.fixture(scope="module")
def ring_a():
    return embedded_point_ring()


@pytest.fixture(scope="module")
def ring_b():
    return fail_ring()


@pytest.fixture(scope="module")
def ctx_a(ring_a):
    return RingContext(ring_a)


@pytest.fixture(scope="module")
def ctx_b(ring_b):
    return RingContext(ring_b)


@pytest.fixture(scope="module")
def bounds_a(ctx_a):
    return annihilator_bounds(ctx_a, jacobian_ideal(ctx_a.ring).reduced_generators())


@pytest.fixture(scope="module")
def bounds_b(ctx_b):
    return annihilator_bounds(ctx_b, jacobian_ideal(ctx_b.ring).reduced_generators())


# -- annihilator bounds -------------------------------------------------------


class TestAnnihilatorBounds:
    def test_lower_bound_two_variable_ring(self, ring_a, bounds_a):
        x, y = ring_a.variable(0), ring_a.variable(1)
        assert bounds_a.lower.same_ideal(IdealHandle(ring_a, [x, y]))

    def test_socle_generator_certified_by_the_syzygy_argument(self, bounds_a):
        # soc A = (x) by hand: x*x = x*y = 0, while y*y != 0; x needs no
        # corpus work, so its certificate lists no member outcomes
        certs = {bounds_a.ring.format_element(c.element): c
                 for c in bounds_a.certificates}
        assert certs["x"].method == "socle-kills-syzygy"
        assert certs["x"].outcomes == []
        assert certs["y"].method == "stable-annihilation"

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

    def test_fail_ring_lower_bound(self, ring_b, bounds_b):
        """soc B = 0, so every certificate is a stable one.  x*y, x*z and x*w
        pass on every member; y^2 stays excluded.  By hand on the cyclic
        members, where the stable test reads r in J + (0 : J) for R/J: on
        R/(w), (0 : w) = (y), and x*y passes at shift 0 while x*z passes on
        Omega^1 = wR = R/(y), where (0 : y) = (z, w)."""
        x, y, z, w = (ring_b.variable(i) for i in range(4))
        assert bounds_b.lower.same_ideal(IdealHandle(ring_b, [x * y, x * z, x * w]))
        assert all(c.method == "stable-annihilation" for c in bounds_b.certificates)

    def test_fail_ring_exclusion_witness(self, ring_b, bounds_b):
        witnesses = {(w["element"], w["module"], w["target"], w["ext_degree"])
                     for w in bounds_b.payload()["exclusions"]}
        assert ("y^2", "R/(x)", "syz1(R/(x))", 1) in witnesses

    def test_fail_ring_inconclusive_candidates(self, ring_b, bounds_b):
        """None: the stable span decides every candidate on every member,
        syz1(k) included."""
        assert bounds_b.inconclusive == []

    def test_socle_generators_pass_stable_test_on_full_corpus(self, ring_a):
        corpus = default_corpus(ring_a, 0)
        for g in socle(ring_a).reduced_generators():
            assert all(stable_annihilation_test(g, M) for M in corpus)

    def test_rejects_foreign_candidates(self, ring_a, ring_b):
        with pytest.raises(StructuralError):
            annihilator_bounds(RingContext(ring_a), extra_elements=[ring_b.variable(0)])

    def test_payload_is_json_ready(self, bounds_b):
        doc = bounds_b.payload()
        json.dumps(doc)
        assert doc["lower_gens"] == ["x*y", "x*z", "x*w"]
        assert doc["corpus"][0] == "k"


# -- generation-time bound ----------------------------------------------------


class TestGenerationTimeBound:
    def test_maximal_ideal_golden(self, ring_a, ctx_a):
        result = generation_time_bound(ctx_a, ring_a.maximal_ideal())
        assert (result.nu, result.depth, result.loewy) == (2, 0, 1)
        assert result.bound == 3
        assert result.dim_bound == 2
        assert result.assumed is False

    def test_artinian_hypersurface(self):
        ring = presentation(QQ, ("x",), lambda x: [x * x])
        result = generation_time_bound(RingContext(ring), ring.maximal_ideal())
        assert (result.nu, result.depth, result.loewy) == (1, 0, 1)
        assert (result.bound, result.dim_bound) == (2, 1)

    def test_larger_m_primary_ideal(self, ring_a, ctx_a):
        result = generation_time_bound(
            ctx_a, ideal(ring_a, lambda x, y: [x, y * y]))
        assert (result.nu, result.loewy) == (2, 2)
        assert (result.bound, result.dim_bound) == (6, 5)

    def test_bound_monotone_under_enlarging_ideal(self, ring_a, ctx_a):
        small = generation_time_bound(
            ctx_a, ideal(ring_a, lambda x, y: [x, y * y]))
        large = generation_time_bound(ctx_a, ring_a.maximal_ideal())
        assert large.loewy <= small.loewy
        assert large.bound == 3 and small.bound == 6

    def test_rejects_non_m_primary(self, ring_a, ctx_a):
        with pytest.raises(PreconditionError) as err:
            generation_time_bound(ctx_a, ideal(ring_a, lambda x, y: [x]))
        assert "m-primary" in str(err.value)

    def test_uncertified_generator_named(self, ring_b, ctx_b):
        with pytest.raises(PreconditionError) as err:
            generation_time_bound(ctx_b, ring_b.maximal_ideal())
        assert "carries no annihilation certificate" in str(err.value)

    def test_assume_flag_recorded(self, ring_b, ctx_b):
        result = generation_time_bound(ctx_b, ring_b.maximal_ideal(),
                                       assume_annihilates=True)
        assert result.assumed is True
        assert (result.nu, result.depth, result.loewy) == (4, 1, 1)
        assert result.bound == 4

    def test_rejects_foreign_ideal(self, ctx_a, ring_b):
        with pytest.raises(StructuralError):
            generation_time_bound(ctx_a, ring_b.maximal_ideal())


# -- radical comparison -------------------------------------------------------


class TestRadicalComparison:
    def test_two_variable_ring_equal(self, ctx_a):
        comparison = radical_comparison_report(ctx_a)
        assert comparison.verdict == "equal"
        assert comparison.jac_in_lower and comparison.lower_in_jac
        assert comparison.failures == []
        assert "corpus-evidence" in comparison.note

    def test_fail_ring_strictly_smaller(self, ctx_b):
        comparison = radical_comparison_report(ctx_b)
        assert comparison.verdict == "lower-strictly-smaller"
        assert not comparison.jac_in_lower
        assert comparison.lower_in_jac

    def test_fail_ring_failure_prime(self, ctx_b):
        comparison = radical_comparison_report(ctx_b)
        assert comparison.failures == [
            {"element": "y^2", "prime": ["x", "z", "w"]}
        ]

    def test_regular_ring_both_unit(self):
        ring = presentation(QQ, ("x", "y"))
        comparison = radical_comparison_report(RingContext(ring))
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
        # loewy_length is the one m-primary gate, and names the variable
        # outside the radical of (x): y, since y^n never lies in (x, x^2, x*y)
        doc = build_report(ring_a, bound_ideal=ideal(ring_a, lambda x, y: [x]))
        assert doc["bound"] is None
        assert ("bound omitted: ideal is not m-primary: variable(s) y escape "
                "the radical") in doc["hypotheses"]

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
        """On ring A, y's dearest guarded steps are the seeding of the
        seeded cokernel's stable span (21 steps), R/m^2's second link (12)
        and the seeding of syz1(k)'s span (9): a 200-step cap decides
        everything, and an 8-step cap leaves y undecided on all three
        modules."""
        for cap, inconclusive in ((200, []), (8, [
                {"element": "y", "modules": ["R/m^2", "syz1(k)", "coker(2x3 seeded)"]}])):
            monkeypatch.setattr(rpt, "_CERT_MAX_STEPS", cap)
            doc = build_report(parse_ring(SNAPSHOT_RINGS["A"]))
            assert doc["ann_bounds"]["inconclusive"] == inconclusive

    def test_each_resolution_step_runs_in_a_scope_of_its_own(self, monkeypatch):
        """Under a 14-step cap, each guarded step that fits serves its link:
        only the seeded cokernel, whose stable span takes 21 steps to seed,
        stays undecided, for y.  The span of syz1(k) takes 9 steps to seed,
        y's query on it 3 and its presentation 3, so one scope for the
        three would lose it too; R/m^2's second link takes 12.  Under a
        22-step cap the cokernel is decided as well, though its span (21)
        would overrun a scope it shared with its presentation (5) or with
        y's query on it (3).  The socle generator x is certified with no
        corpus work, so no cap reaches it."""
        for cap, inconclusive in ((14, [{"element": "y", "modules": ["coker(2x3 seeded)"]}]),
                                  (22, [])):
            monkeypatch.setattr(rpt, "_CERT_MAX_STEPS", cap)
            doc = build_report(parse_ring(SNAPSHOT_RINGS["A"]))
            assert doc["ann_bounds"]["inconclusive"] == inconclusive

    def test_a_span_whose_query_ran_out_is_resumed(self, monkeypatch):
        """Over Q[x,y], M = R/(x^2 - y^2, xy) at shift 0 alone.  R is a
        domain, so (0 : J) = 0 and r passes iff r lies in J = (x^2 - y^2,
        xy): x^3 = x(x^2 - y^2) + y(xy), y^3 = x(xy) - y(x^2 - y^2) and xy
        pass, x fails.  y^3 passes only through the S-pair of the products
        j_1 d and j_2 d, which reduces in 3 steps to -y^3 d.  A 2-step cap
        stops x^3's query inside that pair, so x^3 is inconclusive.  The
        pair stays queued, and with the full cap restored the next queries
        resume the span's completion and decide every candidate."""
        R = presentation(QQ, ("x", "y"))
        x, y = R.variable(0), R.variable(1)
        M = FinitelyPresentedModule.cyclic(R, [x * x - y * y, x * y])
        monkeypatch.setattr(rpt, "default_corpus", lambda ring, seed: [M])
        monkeypatch.setattr(rpt, "_MAX_SHIFT", 0)
        assert RingContext(R).certify(0, y ** 3)[0] == "certified"
        ctx = RingContext(R)
        assert ctx.certify(0, x)[0] == "failed"  # the span is seeded, complete to degree 1
        full, ctx.cap = ctx.cap, Budget(max_steps=2)
        assert ctx.certify(0, x ** 3)[0] == "inconclusive"
        ctx.cap = full
        assert [ctx.certify(0, r)[0] for r in (x ** 3, y ** 3, x * y, x)] == [
            "certified", "certified", "certified", "failed"]

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


@pytest.mark.parametrize("text, steps", [
    ("Q[x,y,z]/(x*y-z^2)", 2_500),
    ("Q[x,y,z]/(x^2+y^2+z^2)", 4_000),
])
def test_stable_spans_complete_only_as_far_as_their_queries(text, steps):
    """Every stable query on these quadric cones has degree 1, so each
    span is completed through degree 1 only: the whole report fits
    ``steps`` (it takes 1,749 and 2,727; 4,085 and 7,328 when every span
    was completed whole up front)."""
    with budget_scope(Budget(max_steps=steps)):
        build_report(parse_ring(text))


@pytest.mark.parametrize("text", [
    "Q[x,y,z,w]/(x*y-z*w)",
    "Q[x,y,z,w]/(x^2+y^2+z^2+w^2)",
    "Q[x,y,z]/(x^2+y^2+z^5)",
    "F5[x,y,z]/(x^2+y^2+z^3)",
])
def test_isolated_hypersurfaces_certify_their_whole_jacobian(text):
    """R = S/(f) with jac = (d_i f) m-primary: (x, y, z, w) for x*y - z*w,
    (2x, 2y, 2z, 2w) for the sum of squares, (2x, 2y, 5z^4) over Q and
    (2x, 2y, 3z^2) over F5, where 2 and 3 are units.  R is CM of positive
    dimension, so its socle is zero and the candidates are jac's
    generators.

    Each d_i f annihilates D_sg(R): an MCM module is coker A for a matrix
    factorization AB = BA = f (Eisenbud 1980), and differentiating gives
    (d_i A)B + A(d_i B) = d_i f, so d_i f is null-homotopic on the
    periodic resolution.  So no corpus module can exclude a generator,
    and on the link Omega^(dim R) M, which is MCM since R is CM, d_i f * id
    factors through a free module: every generator certifies by shift
    dim R <= 3, the last shift the sweep tries.  The lower bound is then
    jac itself, whose radical is m, so the verdict is ``equal``, with
    nothing excluded and nothing left inconclusive."""
    doc = build_report(parse_ring(text))
    assert doc["radical_comparison"]["verdict"] == "equal"
    assert doc["ann_bounds"]["inconclusive"] == []
    assert doc["ann_bounds"]["exclusions"] == []


# -- resolution reuse in the sweep ---------------------------------------------------


def test_sweep_reuses_resolutions(monkeypatch, ring_a):
    """One resolution per corpus member, started at length 0 on the raw
    member (its presentation is that resolution's scope) and grown in
    place, plus default_corpus's own syzygy_module(k, 1), a length-1
    resolution of k.  On ring A the socle generator x needs no member, and
    the stable test of the Jacobian candidate y reaches every member in
    corpus order: 1 + 7 = 8 calls (59 when every pair and every stable Ext
    test resolved its source afresh, 15 when each chain link had a
    resolution of its own).  Over the cubic cone the socle is zero and the
    first Jacobian candidate's stable test visits every member in corpus
    order at link 0: 1 + 8 = 9 calls (6 when a member was presented apart
    and resolved only past its presentation)."""
    for ring in (ring_a, parse_ring(SNAPSHOT_RINGS["cubic"])):
        corpus = default_corpus(ring, 0)
        gens = jacobian_ideal(ring).reduced_generators()
        calls = count_calls(monkeypatch, free_resolution)
        annihilator_bounds(RingContext(ring), extra_elements=gens)
        monkeypatch.undo()
        assert calls == [(corpus[0], 1)] + [(M, 0) for M in corpus]


def test_bound_ideal_reuses_the_comparison_sweep(monkeypatch, ring_a):
    """The bound block certifies the generators of I in the radical
    comparison's corpus context.  On ring A, I = m = (x, y) = jac, so every
    candidate was decided there: build_report(A, bound_ideal=m) makes the
    same resolutions as build_report(A) (8 more when the bound block swept
    a fresh context).  Neither runs a ca_witness sweep: the socle generator
    x is certified by the syzygy argument (one sweep per report when x was
    swept over every pair of members)."""
    seen = []
    for bound_ideal in (None, ring_a.maximal_ideal()):
        resolutions = count_calls(monkeypatch, free_resolution)
        socle_sweeps = count_calls(monkeypatch, ca_witness_from_resolutions)
        doc = build_report(ring_a, bound_ideal=bound_ideal)
        monkeypatch.undo()
        assert doc["bound"]["I_gens"] == ["x", "y"]
        assert socle_sweeps == []
        seen.append(resolutions)
    assert seen[0] == seen[1]


def test_ledger_shares_one_context_per_ring(monkeypatch):
    """verify_paper_examples over Q: each golden ring's corpus is resolved
    once, by its one context.  Derived by hand: ring A's context makes
    1 + 7 free_resolution calls (default_corpus's syzygy_module(k, 1), then
    each member once), the plane-line union's 1 + 9, the Betti family 3,
    the Ext^2-kill family 3, Ext^2(k, k) 1, and ring_depth 1 (ring A's
    context, read by the dim-depth entry and the bound): 26 (27 when both
    entries took the depth, 43 when the stable, ca^3 and comparison
    entries each resolved the corpus again)."""
    calls = count_calls(monkeypatch, free_resolution)
    entries = verify_paper_examples()
    monkeypatch.undo()
    assert all(e.status == "pass" for e in entries)
    assert len(calls) <= 26


@pytest.mark.parametrize("field, expected", [(QQ, 2), (PrimeField(2), 1)],
                         ids=["Q", "F2"])
def test_ledger_makes_one_certificate_per_ring(monkeypatch, field, expected):
    """verify_paper_examples builds one singular-locus certificate per
    golden ring, shared by its isolated and radical-compare entries: two
    over Q (4 when each entry built its own).  Over F2 the plane-line
    union's Jacobian entries are skipped, which leaves ring A's one (2
    when each entry built its own)."""
    calls = count_calls(monkeypatch, singular_locus_certificate)
    entries = verify_paper_examples(field)
    monkeypatch.undo()
    assert ledger_passed(entries)
    assert len(calls) == expected


def test_report_computes_depth_once(monkeypatch, ring_a):
    """The depth field reads the bound block's depth, which ring A has."""
    calls = count_calls(monkeypatch, ring_depth)
    doc = build_report(ring_a)
    assert doc["bound"]["depth"] == doc["depth"] == 0
    assert len(calls) == 1


def test_report_computes_ring_facts_once(monkeypatch):
    """Every piece of the report reads the singular-locus certificate,
    which carries the isolated verdict, and the socle from the report's
    one ring context (2 calls each when each piece computed its own).
    The isolated verdict decides that jac is m-primary, the bound block
    checks it again only through loewy_length's one pass over the
    variables: radical memberships are 2 for the verdict, 2 for that gate
    and 4 in the radical comparison (4 is_m_primary and 12
    radical_membership calls when each layer checked again).  The ring is
    fresh, and its defining generators go through Buchberger once, for
    the one handle of its defining ideal (3 times when each
    defining_ideal() call made a handle of its own)."""
    ring = embedded_point_ring()
    certs = count_calls(monkeypatch, singular_locus_certificate)
    socles = count_calls(monkeypatch, socle)
    primary = count_calls(monkeypatch, is_m_primary)
    radical = count_calls(monkeypatch, radical_membership)
    bases = count_calls(monkeypatch, buchberger)
    doc = build_report(ring)
    assert doc["socle"]["gens"] == ["x"]
    assert doc["bound"]["generation_time"] == 3
    assert (len(certs), len(socles)) == (1, 1)
    assert (len(primary), len(radical)) == (1, 8)
    assert sum(list(args[0]) == list(ring.defining) for args in bases) == 1


def test_radical_memberships_are_kept_per_handle(monkeypatch):
    """On ring A, is_m_primary(jac), loewy_length(jac), and the checks of
    jac against sqrt(lower) and of lower against sqrt(jac), make the 8
    radical_membership calls above, all asking whether x or y lies in the
    radical of (x, y), on two handles.  Each handle keeps its answers, so
    only the first question per handle and element runs an elimination:
    4 Buchberger runs over Q[x, y, t] (8 when each call ran its own)."""
    ring = embedded_point_ring()
    radical = count_calls(monkeypatch, radical_membership)
    bases = count_calls(monkeypatch, buchberger)
    build_report(ring)
    assert len(radical) == 8
    assert len({(f, id(handle)) for f, handle in radical}) == 4
    assert sum(bool(args[0]) and args[0][0].ring.nvars == ring.nvars + 1
               for args in bases) == 4


def test_zero_socle_reuses_the_defining_basis(monkeypatch):
    """The cusp's socle is zero: its handle's generators all reduce to zero
    modulo the defining basis, which is then its basis.  So the one
    Buchberger run whose generators add nothing to the defining ideal is
    the defining handle's own (2 when the socle's handle ran it again)."""
    ring = parse_ring("Q[x,y]/(x^3 - y^2)")
    bases = count_calls(monkeypatch, buchberger)
    doc = build_report(ring)
    assert doc["socle"]["gens"] == []
    inside = [args for args in bases if args[0] and all(
        isinstance(g, Polynomial) and g.ring == ring.poly_ring
        and ring.normal_form(g).is_zero() for g in args[0])]
    assert [list(args[0]) for args in inside] == [list(ring.defining)]


def test_report_computes_minimal_primes_once(monkeypatch):
    """B's singular-locus certificate carries the minimal primes of its
    monomial defining ideal: the equidimensionality test, the witness
    primes and the radical comparison's failure primes all read them (3
    calls when each computed its own)."""
    primes = count_calls(monkeypatch, minimal_primes_monomial)
    doc = build_report(fail_ring())
    assert doc["singular_locus"]["witness_primes"] == [["x", "z", "w"]]
    assert len(primes) == 1


def test_regular_report_builds_no_corpus(monkeypatch):
    """Q[x,y] is regular: the radical comparison short-circuits, so the
    report sweeps nothing and its context never builds the corpus."""
    corpora = count_calls(monkeypatch, default_corpus)
    doc = build_report(parse_ring("Q[x,y]"))
    assert doc["regular"] is True
    assert corpora == []


@pytest.mark.parametrize("argv", [
    None,
    ["report", "Q[x,y]/(x^2, x*y)", "--ideal", "(x, y^2)"],
    ["bound", "Q[x,y]/(x^2, x*y)"],
], ids=["build_report", "report-ideal", "bound"])
def test_each_command_builds_one_ring_context(monkeypatch, capsys, argv):
    """The report's comparison and bound block, and the bound command's
    one sweep, all read one context."""
    contexts = count_calls(monkeypatch, RingContext)
    if argv is None:
        build_report(embedded_point_ring())
    else:
        assert main(argv) == 0
    assert len(contexts) == 1


def test_a1_surface_certifies_the_jacobian():
    """Q[x,y,z]/(x*y - z^2): jac = (y, x, -2z) = m over Q, and the sweep
    certifies each variable on every member, R/m^2 included."""
    doc = build_report(parse_ring("Q[x,y,z]/(x*y - z^2)"))
    assert doc["jac"]["gens"] == ["x", "y", "z"]
    assert doc["ann_bounds"]["lower_gens"] == ["x", "y", "z"]
    assert doc["ann_bounds"]["inconclusive"] == []
    assert doc["radical_comparison"]["verdict"] == "equal"


# -- byte-identical report snapshots ------------------------------------------------

# Each file in tests/data is report_json(build_report(parse_ring(text))) for
# the ring below, written by the code it guards: a change meant to keep
# behaviour must keep these bytes.  The cusp and cubic files are expected to
# change when ROADMAP item 1 adds its equidimensionality certificates (their
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
def test_minimal_presentation_is_idempotent(key):
    """On each corpus member and its first syzygy: the sweep hands the
    minimal Omega^1 to Ext without trimming it again."""
    ring = parse_ring(SNAPSHOT_RINGS[key])
    for M in default_corpus(ring, 0):
        for module in (M, syzygy_module(M, 1)):
            once = minimal_presentation(module)
            twice = minimal_presentation(once)
            assert (twice.rows, twice.shifts) == (once.rows, once.shifts)


@pytest.mark.parametrize("key", sorted(SNAPSHOT_RINGS))
def test_syzygy_chain_is_read_off_one_resolution(key):
    """The sweep reads link s of a member's syzygy chain, Omega^s M, off
    one resolution of M.  The reference builds the chain link by link:
    the minimal presentation of the first syzygy of a fresh 2-step
    resolution of the link before.  Each link must be that resolution's
    syzygy, and its own 2-step resolution that resolution's tail."""
    ring = parse_ring(SNAPSHOT_RINGS[key])
    for M in default_corpus(ring, 0):
        res = free_resolution(M, 4, detect_periodicity=False)
        link = minimal_presentation(M)
        for s in range(3):
            omega = res.syzygy(s)
            assert (link, link.shifts) == (omega, omega.shifts)
            if link.is_zero_presentation():
                break
            two = free_resolution(link, 2, detect_periodicity=False)
            end = s + two.length
            assert (two.ranks, two.differentials, two.shifts) == (
                res.ranks[s:end + 1], res.differentials[s:end], res.shifts[s:end + 1])
            assert two.complete == (res.complete and res.length == end)
            link = minimal_presentation(two.syzygy(1))


@pytest.mark.parametrize("key", sorted(SNAPSHOT_RINGS))
def test_stable_span_agrees_with_the_ext_group(key):
    """The span test, r * d in the span of the products d E_ji d, against
    the whole group Ext^1(Omega^s M, Omega^(s+1) M), read as
    Ext^(s+1)(M, Omega^(s+1) M) off M's resolution.  Candidates are the
    Jacobian generators and the variables, at shifts 0 and 1 of every
    member.  A cell is skipped when its Hom system is large, n_relations *
    rank Omega^(s+1) past 32, or when its Ext runs out of 20,000 steps."""
    ring = parse_ring(SNAPSHOT_RINGS[key])
    candidates = dict.fromkeys([*jacobian_ideal(ring).reduced_generators(),
                                *(ring.variable(i) for i in range(ring.nvars))])
    checked = 0
    for M in default_corpus(ring, 0):
        res = free_resolution(M, 2, detect_periodicity=False)
        for s in (0, 1):
            mod, omega = res.syzygy(s), res.syzygy(s + 1)
            if mod.is_zero_presentation() or mod.n_relations * omega.rank > 32:
                continue
            ext = guarded(Budget(max_steps=20_000),
                          lambda: ext_from_resolution(res, omega, s + 1))
            if ext is None:
                continue
            for r in candidates:
                assert ext.annihilated_by(r) == stable_annihilation_test(r, mod), (
                    str(r), s, M)
                checked += 1
    assert checked


MONOMIAL_SNAPSHOTS = ("A", "B", "x2y2", "xy_yz_xz")


@pytest.mark.parametrize("key", MONOMIAL_SNAPSHOTS)
def test_socle_certificates_match_the_monomial_oracle(key):
    """The syzygy argument's hypothesis, g in (0 : m), checked without
    Groebner bases: on a monomial ring the socle-kills-syzygy elements are
    the monomials of (I : m) outside I."""
    ring = parse_ring(SNAPSHOT_RINGS[key])
    defining = [g.lead_monomial().exps for g in ring.defining]
    assert all(g.is_term() for g in ring.defining)
    expected = {m for m in oracles.monomial_socle(defining, ring.nvars)
                if not oracles.monomial_member(m, defining)}
    certified = set()
    for c in annihilator_bounds(RingContext(ring)).certificates:
        assert c.method == "socle-kills-syzygy"
        assert c.element.is_term() and c.element.lead_coeff() == 1
        certified.add(c.element.lead_monomial().exps)
    assert certified == expected


@pytest.mark.parametrize("key", ("A", "x2y2"))
def test_socle_generators_pass_an_independent_ca_witness_sweep(key):
    """homalg's own ca_witness sweep at Ext degree 2 over every pair of
    members, sharing no resolution with the report, backs each socle
    generator; proved-not-in would refute the syzygy argument."""
    ring = parse_ring(SNAPSHOT_RINGS[key])
    corpus = default_corpus(ring, 0)
    for g in socle(ring).reduced_generators():
        assert ca_witness(g, 2, corpus).verdict == "evidence-in"


# One file per branch of the singular-locus certificate that the report
# reads: the regular short-circuit, a unit jac whose criterion is unknown
# (not regular), monomial witness primes of a ring that is not
# equidimensional, and an F_p ring.  The last three are expected to change
# when ROADMAP items 1 and 5 decide equidimensionality and isolatedness
# there, as the cusp and cubic files will.
BRANCH_SNAPSHOT_RINGS = {
    "poly": "Q[x,y]",
    "unit_jac": "Q[x,y]/(x^2 + y)",
    "xz_yz": "Q[x,y,z]/(x*z, y*z)",
    "f3_cusp": "F3[x,y]/(x^3 - y^2)",
}


@pytest.mark.parametrize("key", sorted({**SNAPSHOT_RINGS, **BRANCH_SNAPSHOT_RINGS}))
def test_report_matches_snapshot(key):
    path = Path(__file__).parent / "data" / f"report_{key}.json"
    text = SNAPSHOT_RINGS.get(key) or BRANCH_SNAPSHOT_RINGS[key]
    got = report_json(build_report(parse_ring(text)))
    assert got.encode("utf-8") == path.read_bytes()


# -- invariance under renaming the variables and changing the order ------------

INVARIANCE_RINGS = [*SNAPSHOT_RINGS.values(), "Q[x,y,z]/(x*y - z^2)",
                    BRANCH_SNAPSHOT_RINGS["xz_yz"]]


def _renamed(p, perm, target):
    """p with variable i replaced by variable perm[i], in ``target``'s ring."""
    terms = []
    for mono, coeff in p.terms:
        exps = [0] * len(perm)
        for i, e in enumerate(mono.exps):
            exps[perm[i]] = e
        terms.append((exps, coeff))
    return Polynomial(target.poly_ring, terms)


def _report_ideal(doc_gens, ring, perm, target):
    """The ideal a report prints for ``ring``, renamed into ``target``."""
    gens = parse_ideal(f"({', '.join(doc_gens)})", ring).generators
    return IdealHandle(target, [_renamed(g, perm, target) for g in gens])


def _bound_numbers(doc):
    block = doc["bound"]
    return block and tuple(block[k] for k in ("nu", "loewy", "depth", "generation_time"))


@pytest.mark.parametrize("text", INVARIANCE_RINGS)
def test_report_invariant_under_permutations_and_lex(text):
    """Renaming the variables, listing the generators in another order or
    reading the ring in lex must not change what the report decides: the
    ring's facts, the radical verdict, the bound's numbers, and jac and
    the lower bound as ideals of the moved ring.  Four seeded permutations,
    each with the generators shuffled, and lex in place of grevlex.
    Linear changes of coordinates are left out: ROADMAP items 1 and 4
    record that 6 of 8 of them change the report today, because the
    equidimensionality test decides only monomial presentations."""
    ring = parse_ring(text)
    doc = build_report(ring)
    rng = random.Random(0)
    identity = tuple(range(ring.nvars))
    perms = [p for p in itertools.permutations(identity) if p != identity]
    rng.shuffle(perms)
    cases = []
    for i in range(4):
        gens = list(ring.defining)
        rng.shuffle(gens)
        cases.append((perms[i % len(perms)], gens, GREVLEX))
    cases.append((identity, list(ring.defining), LEX))
    for perm, gens, order in cases:
        ambient = RingPresentation(ring.field, ring.names, (), order)
        moved = RingPresentation(ring.field, ring.names,
                                 [_renamed(g, perm, ambient) for g in gens], order)
        got = build_report(moved)
        where = (text, perm, order.name())
        for key in ("dim", "depth", "equidimensional", "isolated", "regular"):
            assert got[key] == doc[key], (key, where)
        assert (got["radical_comparison"]["verdict"]
                == doc["radical_comparison"]["verdict"]), where
        assert _bound_numbers(got) == _bound_numbers(doc), where
        for gens_of in (lambda d: d["jac"]["gens"],
                        lambda d: d["ann_bounds"]["lower_gens"]):
            expected = _report_ideal(gens_of(doc), ring, perm, moved)
            assert expected.same_ideal(parse_ideal(
                f"({', '.join(gens_of(got))})", moved)), where


# -- golden-example ledger ------------------------------------------------------


class TestVerifyPaperExamples:
    # over F_p each divisor row is scaled by the inverse of its lead
    # coefficient, and every entry runs through such rows
    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)],
                             ids=["Q", "F3", "F32003"])
    def test_fresh_run_all_pass(self, field):
        entries = verify_paper_examples(field)
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
