"""Tests of the benchmark itself: tracer counts, traced output, checks.

    python3 perfbench/test_perfbench.py
"""
from __future__ import annotations

import cProfile
import json
import pstats
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import singulant  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import RINGS  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

CUSP = RINGS["cusp"].text


def cusp_report():
    return workloads._report(singulant, CUSP, 0)


def original(mod_name, qual):
    obj = getattr(singulant, mod_name)
    for part in qual.split("."):
        obj = getattr(obj, part)
    return getattr(obj, "__wrapped__", obj)


class TracerTest(unittest.TestCase):
    def test_counts_match_cprofile_and_output_is_unchanged(self):
        untraced = cusp_report()

        profile = cProfile.Profile()
        profile.enable()
        profiled = cusp_report()
        profile.disable()
        stats = pstats.Stats(profile).stats

        def ncalls(fn):
            code = fn.__code__
            row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            return row[1] if row else 0

        with Tracer() as tracer:
            tracer.install(singulant)
            traced = cusp_report()
            tracer.end_op()
        self.assertEqual(tracer.missing, [])
        self.assertEqual(untraced, profiled)
        self.assertEqual(untraced, traced)

        summary = tracer.summary()
        checked = 0
        for mod_name, qual in TRACED:
            want = ncalls(original(mod_name, qual))
            self.assertEqual(summary[f"{mod_name}.{qual}"]["calls"], want, qual)
            checked += want > 0
        self.assertGreater(checked, 10)
        self.assertEqual(tracer.counts["poly.polynomials_built"],
                         ncalls(singulant.poly.Polynomial.__init__))
        self.assertEqual(tracer.counts["errors.meters"],
                         ncalls(singulant.errors.Meter.__init__))
        self.assertGreater(tracer.counts["errors.steps"], 0)

    def test_every_alias_is_rebound_and_restored(self):
        before = singulant.groebner.buchberger
        meter_init = vars(singulant.errors.Meter)["__init__"]
        with Tracer() as tracer:
            tracer.install(singulant)
            wrapped = singulant.groebner.buchberger
            self.assertIsNot(wrapped, before)
            for mod in (singulant, singulant.ideal_ops, singulant.resolve, singulant.homalg):
                self.assertIs(mod.buchberger, wrapped)
            self.assertIs(singulant.homalg.trim_generators, singulant.resolve.trim_generators)
        for mod in (singulant, singulant.groebner, singulant.ideal_ops,
                    singulant.resolve, singulant.homalg):
            self.assertIs(mod.buchberger, before)
        self.assertIs(vars(singulant.errors.Meter)["__init__"], meter_init)

    def test_self_time_excludes_children(self):
        with Tracer() as tracer:
            tracer.install(singulant)
            cusp_report()
        for name, row in tracer.summary().items():
            self.assertLessEqual(row["self_s"], row["busy_s"] + 1e-9, name)
        spans = tracer.span_rows()
        self.assertTrue(all(s[2] >= s[1] for s in spans))
        self.assertEqual(spans[0][3], -1)


class ChecksRejectWrongValues(unittest.TestCase):
    """Each check passes on the true value and fails on a wrong one."""

    @classmethod
    def setUpClass(cls):
        cls.cusp = json.loads(cusp_report())

    def test_ring_facts(self):
        facts = RINGS["cusp"]
        self.assertEqual(oracles.check_ring_facts(self.cusp, facts), [])
        for attr, wrong in (("dim", 2), ("depth", 0),
                            ("jac", {(1, 0)}), ("socle", {(0, 1)})):
            saved = getattr(facts, attr)
            setattr(facts, attr, wrong)
            try:
                self.assertNotEqual(oracles.check_ring_facts(self.cusp, facts), [], attr)
            finally:
                setattr(facts, attr, saved)

    def test_golden_ring_a(self):
        doc = {"ann_bounds": {"lower_gens": ["x", "y"]},
               "bound": {"generation_time": 3, "dim_sg_bound": 2}}
        self.assertEqual(oracles.check_golden_a(doc), [])
        self.assertNotEqual(oracles.check_golden_a(doc, lower_gens=("x",)), [])
        self.assertNotEqual(oracles.check_golden_a(doc, generation_time=4), [])
        self.assertNotEqual(oracles.check_golden_a(doc, dim_sg_bound=1), [])

    def test_poincare_series(self):
        self.assertEqual(RINGS["A"].poincare(7), [1, 2, 3, 5, 8, 13, 21])
        self.assertEqual(RINGS["B"].poincare(5), [1, 4, 9, 17, 30])
        self.assertEqual(RINGS["C"].poincare(5), [1, 2, 3, 4, 5])
        self.assertEqual(RINGS["cubic"].poincare(5), [1, 3, 4, 4, 4])
        self.assertEqual(RINGS["D"].poincare(5), [1, 3, 6, 12, 24])
        self.assertEqual(oracles.check_betti([1, 2, 3, 5], [1, 2, 3, 5], 3, False), [])
        self.assertNotEqual(oracles.check_betti([1, 2, 3, 5], [1, 2, 3, 4], 3, False), [])
        self.assertNotEqual(oracles.check_betti([1, 2, 3], [1, 2, 3, 5], 3, False), [])

    def test_resolve_checks(self):
        wl = workloads.resolve_workload(singulant, 0)
        picks = [i for i, (label, _) in enumerate(wl.ops)
                 if label in ("resolve k over A to 6", "Ext^2(k,k) over A")]
        outputs = [None] * len(wl.ops)
        for i in picks:
            outputs[i] = wl.ops[i][1]()
        plan_check = lambda outs: wl.check(
            [o if o is not None else _fallback(wl, j) for j, o in enumerate(outs)])[0]
        self.assertEqual({i: e for i, e in plan_check(outputs).items() if i in picks}, {})

        res, ext = picks
        wrong = json.loads(outputs[res])
        wrong["betti"][3] += 1
        bad = list(outputs)
        bad[res] = json.dumps(wrong)
        self.assertIn(res, plan_check(bad))

        wrong = json.loads(outputs[res])
        row = wrong["d"][1][0]
        row[0] = "x" if row[0] != "x" else "y"
        bad = list(outputs)
        bad[res] = json.dumps(wrong)
        self.assertIn(res, plan_check(bad))

        bad = list(outputs)
        bad[ext] = json.dumps({"dim": 4})
        self.assertIn(ext, plan_check(bad))

    def test_normal_form_and_sympy(self):
        self.assertEqual(oracles.check_zero_normal_form("0"), [])
        self.assertNotEqual(oracles.check_zero_normal_form("a + 1"), [])
        names = ("a", "b")
        gens = ["a^2 + b - 1", "b^2 - a"]
        for modulus, field in ((0, "Q"), (7, "F7")):
            basis = json.loads(_basis(gens, field))["basis"]
            result = oracles.check_against_sympy(gens, basis, names, modulus)
            if result is None:
                self.skipTest("sympy is not installed")
            self.assertEqual(result, [], field)
            self.assertNotEqual(oracles.check_against_sympy(gens, basis[1:], names, modulus), [])
            self.assertNotEqual(
                oracles.check_against_sympy(gens, basis[:-1] + [basis[-1] + " + 1"],
                                            names, modulus), [])


class ReferenceTest(unittest.TestCase):
    def test_worker_runs_the_same_op_and_stops(self):
        import run
        work = workloads.WORKLOADS["groebner"](singulant, 0)
        with run.Reference("groebner", 0) as reference:
            answer = reference.run(0)
        self.assertIsNotNone(reference.proc.poll())
        self.assertEqual(answer["sha"], run.sha(work.ops[0][1]()))
        self.assertGreater(answer["wall"], 0)


def _basis(gens, field):
    ring = singulant.cli.parse_ring(f"{field}[a,b]")
    gb = singulant.buchberger([singulant.cli.parse_element(g, ring) for g in gens])
    return json.dumps({"basis": [ring.format_element(p) for p in gb.polynomials()]})


def _fallback(wl, j):
    """A stand-in output that passes the check of op j without running it."""
    label = wl.ops[j][0]
    if label.startswith("Ext^"):
        i = int(label[4])
        key = label.rsplit(" ", 1)[1]
        return json.dumps({"dim": RINGS[key].poincare(i + 1)[i]})
    return json.dumps({"betti": [], "complete": True, "periodic": None, "d": []})


if __name__ == "__main__":
    unittest.main()
