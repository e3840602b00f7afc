"""Acceptance gate: one test per criterion, one summary line per criterion.

Each criterion records a PASS/FAIL line into the terminal summary (see
conftest.py) in addition to its pytest verdict.  Assertions state the
published golden values literally; nothing is weakened to force green.
"""
import random
import time
from contextlib import contextmanager

import pytest

import oracles
from conftest import record_acceptance
from singulant.groebner import buchberger, normal_form
from singulant.homalg import (
    annihilates_ext,
    ca_witness,
    corpus_labels,
    default_corpus,
    ext_module,
    koszul_cohomology,
    module_annihilator,
    stable_annihilation_test,
)
from singulant.ideal_ops import (
    IdealHandle,
    RingPresentation,
    height,
    is_equidimensional,
    is_m_primary,
    minimal_primes_monomial,
    ring_dimension,
)
from singulant.jacobian import jacobian_ideal, singular_locus_certificate
from singulant.poly import QQ
from singulant.report import RingContext, generation_time_bound
from singulant.resolve import (
    FinitelyPresentedModule,
    check_complex,
    check_exactness,
    depth,
    free_resolution,
    ring_depth,
    syzygy_module,
)

from util import fail_ring, fring, qring, rand_poly, embedded_point_ring

# resolutions produced anywhere in this suite, re-certified in criterion 9(d)
_RESOLUTIONS = []


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException as exc:
        note = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        record_acceptance(number, "FAIL", f"{summary} [{note}]")
        raise
    record_acceptance(number, "PASS", summary)


def test_criterion_1_jacobian_goldens():
    with criterion(1, "Jacobian ideals match both golden presentations"):
        ring_b = fail_ring()
        x, y, z, w = (ring_b.variable(i) for i in range(4))
        start = time.perf_counter()
        jac_b = jacobian_ideal(ring_b)
        expected_b = IdealHandle(ring_b, [x * y, x * z, x * w, y * y])
        assert jac_b.same_ideal(expected_b)
        assert all(expected_b.contains(g) for g in jac_b.reduced_generators())
        assert all(jac_b.contains(g) for g in expected_b.generators)
        assert time.perf_counter() - start < 1.0

        ring_a = embedded_point_ring()
        ax, ay = ring_a.variable(0), ring_a.variable(1)
        start = time.perf_counter()
        jac_a = jacobian_ideal(ring_a)
        expected_a = IdealHandle(ring_a, [ax, ay])
        assert jac_a.same_ideal(expected_a)
        assert all(expected_a.contains(g) for g in jac_a.reduced_generators())
        assert all(jac_a.contains(g) for g in expected_a.generators)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_height_dim_depth():
    with criterion(2, "height/dim/depth integers match"):
        ring_b = fail_ring()
        assert height(ring_b.defining_ideal()) == 2
        assert ring_dimension(ring_b) == 2
        ring_a = embedded_point_ring()
        assert ring_dimension(ring_a) == 1
        assert ring_depth(ring_a) == 0


def test_criterion_3_equidimensionality():
    with criterion(3, "equidimensionality and minimal primes match"):
        ring_b = fail_ring()
        assert is_equidimensional(ring_b) is False
        primes = minimal_primes_monomial(ring_b.defining_ideal())
        names = sorted(p.format() for p in primes)
        assert names == ["(x, y)", "(x, z, w)"]
        dims = sorted(ring_b.nvars - len(p.generators) for p in primes)
        assert dims == [1, 2]
        assert is_equidimensional(embedded_point_ring()) is True


def test_criterion_4_resolution_goldens():
    with criterion(4, "Betti numbers 1,2,3,5 with certified resolutions"):
        ring = embedded_point_ring()
        x, y = ring.variable(0), ring.variable(1)
        zero = ring.poly_ring.field.zero
        for n in (1, 2, 3):
            start = time.perf_counter()
            module = FinitelyPresentedModule.cyclic(ring, [x, y ** n])
            res = free_resolution(module, 3)
            assert res.ranks[:4] == [1, 2, 3, 5]
            assert res.minimal
            for i in range(1, len(res.ranks)):
                for row in res.differential(i):
                    for entry in row:
                        assert entry.constant_term() == zero
            assert check_complex(res)
            assert check_exactness(res)
            assert time.perf_counter() - start < 5.0
            _RESOLUTIONS.append(res)


def test_criterion_5_ext_annihilation():
    with criterion(5, "Ext annihilation certificates and Ext^2(k,k) rank"):
        ring = embedded_point_ring()
        x, y = ring.variable(0), ring.variable(1)
        k = FinitelyPresentedModule.residue_field(ring)
        targets = [
            FinitelyPresentedModule.cyclic(ring, []),
            k,
            FinitelyPresentedModule.cyclic(ring, [x]),
        ]
        for n in (1, 2, 3):
            module = FinitelyPresentedModule.cyclic(ring, [x, y ** n])
            for target in targets:
                assert annihilates_ext(y, module, target, 2)
        corpus = default_corpus(ring, 0)
        for degree in (2, 3):
            sweep = ca_witness(x, degree, corpus)
            assert sweep.verdict == "evidence-in"
            assert not sweep.failures()
        one = ring.poly_ring.one()
        assert annihilates_ext(one, k, k, 2) is False
        assert ext_module(k, k, 2).k_dimension() == 3


def test_criterion_6_stable_annihilation():
    with criterion(6, "x and y stably annihilate every corpus module, "
                      "y on R/m^2 after one syzygy shift"):
        ring = embedded_point_ring()
        x, y = ring.variable(0), ring.variable(1)
        corpus = default_corpus(ring, 0)
        labels = corpus_labels(ring)
        modules = dict(zip(labels, corpus))
        # shift 0: does r * id_M factor through a projective?
        failing = [
            (ring.format_element(r), label)
            for r in (x, y)
            for label, module in zip(labels, corpus)
            if not stable_annihilation_test(r, module)
        ]
        # Over R = Q[x,y]/(x^2, xy), R/m^2 = R/(y^2) and
        # Hom_R(R/(y^2), R) = (0 : y^2) = (x), so y * id factors through a
        # free module iff y lies in (x) + (y^2), which it does not.  Every
        # other cell factors at shift 0.
        assert failing == [("y", "R/m^2")], f"shift-0 failures {failing}"
        # In D_sg(R) a module is a shift of its syzygy, so annihilation may
        # be certified on Omega^1 M.  Omega^1(R/(y^2)) = (y^2) ~ R/(x), and
        # y lies in (x) + (0 : x) = (x, y): y passes one shift later.
        omega = syzygy_module(modules["R/m^2"], 1)
        assert omega.rank == 1
        assert [[ring.format_element(e) for e in row]
                for row in omega.rows] == [["x"]]
        assert stable_annihilation_test(y, omega)
        # negative control: k and Omega^1 k are nonzero in D_sg(R), so the
        # unit cannot annihilate them
        one = ring.poly_ring.one()
        k = modules["k"]
        assert stable_annihilation_test(one, k) is False
        assert stable_annihilation_test(one, syzygy_module(k, 1)) is False


def test_criterion_7_generation_time_bound():
    with criterion(7, "generation-time bound 3, dimension bound 2"):
        ring = embedded_point_ring()
        result = generation_time_bound(RingContext(ring), ring.maximal_ideal())
        assert result.bound == 3
        assert result.dim_bound == 2


def test_criterion_8_isolated_certificates():
    with criterion(8, "isolated verdicts with the singular witness prime"):
        ring_a = embedded_point_ring()
        cert_a = singular_locus_certificate(ring_a)
        assert cert_a.isolated is True
        assert is_m_primary(jacobian_ideal(ring_a))
        ring_b = fail_ring()
        cert_b = singular_locus_certificate(ring_b)
        assert cert_b.isolated is None
        witnesses = [p.format() for p in cert_b.witness_primes]
        assert witnesses == ["(x, z, w)"]
        prime = cert_b.witness_primes[0]
        jac_b = jacobian_ideal(ring_b)
        assert not all(prime.contains(g) for g in jac_b.reduced_generators())


# -- criterion 9: seeded property suites -----------------------------------------


def _random_monomial_or_binomial_ideal(rng, ring, max_gens=3, max_degree=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_degree)
        slots = oracles.monomials_of_degree(ring.nvars, d)
        if rng.random() < 0.5 or len(slots) < 2:
            gens.append(ring.monomial(rng.choice(slots)))
        else:
            a, b = rng.sample(slots, 2)
            gens.append(ring.monomial(a) - ring.monomial(b))
    return gens


def _suite_a_membership(rng):
    rings = [qring(2), qring(3), qring(4), fring(5, 3)]
    both = {True: 0, False: 0}
    for trial in range(200):
        ring = rings[trial % len(rings)]
        gens = _random_monomial_or_binomial_ideal(rng, ring)
        gb = buchberger(gens)
        d = rng.randint(1, 4)
        slots = oracles.monomials_of_degree(ring.nvars, d)
        probe = ring.zero()
        for exps in rng.sample(slots, k=min(3, len(slots))):
            probe = probe + ring.monomial(exps).scale(
                ring.field.normalize(rng.randint(1, 4)))
        got = normal_form(probe, gb).is_zero()
        want = oracles.homogeneous_membership(probe, gens)
        assert got == want
        both[want] += 1
    assert both[True] > 0 and both[False] > 0


def _suite_b_auslander_buchsbaum():
    for nvars in (2, 3):
        ring = RingPresentation(QQ, [f"x{i}" for i in range(nvars)])
        for module in default_corpus(ring, seed=1):
            res = free_resolution(module, nvars + 1)
            assert res.complete
            pd = res.projective_dimension()
            assert isinstance(pd, int)
            assert depth(module) + pd == nvars
            _RESOLUTIONS.append(res)


def _suite_c_koszul(rng):
    # regular-sequence vanishing: variables on a free module
    for trial in range(25):
        nvars = 2 + trial % 2
        ring = RingPresentation(QQ, [f"t{i}" for i in range(nvars)])
        size = rng.randint(1, nvars)
        seq = [ring.variable(i) for i in rng.sample(range(nvars), size)]
        free = FinitelyPresentedModule.cyclic(ring, [])
        for i in range(size):
            assert koszul_cohomology(seq, free, i).is_zero_presentation()
        assert not koszul_cohomology(seq, free, size).is_zero_presentation()
    # r in (f) implies r kills every cohomology module
    for trial in range(25):
        nvars = 2 + trial % 2
        ring = RingPresentation(QQ, [f"u{i}" for i in range(nvars)])
        seq = []
        for _ in range(rng.randint(1, 2)):
            p = rand_poly(rng, ring.poly_ring, max_degree=2, nterms=2)
            p = p - ring.poly_ring.constant(p.constant_term())
            if not p.is_zero():
                seq.append(p)
        if not seq:
            continue
        gens = [rand_poly(rng, ring.poly_ring, max_degree=2, nterms=2)
                for _ in range(rng.randint(0, 2))]
        module = FinitelyPresentedModule.cyclic(ring, [g for g in gens
                                                       if not g.is_zero()])
        r = ring.poly_ring.zero()
        for f in seq:
            r = r + f * rand_poly(rng, ring.poly_ring, max_degree=1, nterms=2)
        for i in range(len(seq) + 1):
            h = koszul_cohomology(seq, module, i)
            if h.is_zero_presentation():
                continue
            ann = module_annihilator(h)
            for f in seq:
                assert ann.contains(f)
            assert ann.contains(r)


def _suite_d_resolutions():
    assert _RESOLUTIONS, "earlier criteria must contribute resolutions"
    for res in _RESOLUTIONS:
        assert check_complex(res)
        assert check_exactness(res)


def test_criterion_9_property_suites():
    with criterion(9, "oracle-backed property suites within the time budget"):
        start = time.perf_counter()
        rng = random.Random(20260814)
        _suite_a_membership(rng)
        _suite_b_auslander_buchsbaum()
        _suite_c_koszul(rng)
        _suite_d_resolutions()
        assert time.perf_counter() - start < 60.0
