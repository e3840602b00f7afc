"""The benchmark's workloads: inputs made from a seed, ops, and checks.

A workload is a list of ops run in order as one pass.  Each op is one
top-level call into singulant's public API and returns its canonical
output as text; ``check`` then judges those texts with the independent
checks of ``oracles`` and never with the program's own output as the
reference.  Ops parse their own copy of a ring, so no cache of one pass
survives into the next and every pass does the same work.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations_with_replacement

import oracles
from oracles import RINGS


class OpFailed(Exception):
    """An op returned a non-zero exit code."""


class Workload:
    def __init__(self, ops, check):
        self.ops = ops          # [(label, thunk)], thunk() -> canonical text
        self.check = check      # outputs -> ({op index: [message]}, notes)


# ---------------------------------------------------------------------------
# report: the user's command on the golden and probe rings

# golden ring A and the two probes whose verdicts are recorded; paired with
# the reference's, a pass of these takes 16 s to 22 s of a 36 s run, and
# ring B alone would take 22 s; B, C and D are resolved in `resolve` instead
REPORT_RINGS = ("A", "cubic", "cusp")
# one ring's report swings up to 2x with the seeded cokernel of the witness
# corpus, wider than any bound; every report therefore uses the CLI default
# corpus seed, at which the hand-derived values below are known to hold, and
# the workload seed sets the order of the requests
CORPUS_SEED = 0


def _report(pkg, ring_text, corpus_seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(["report", ring_text, "--seed", str(corpus_seed)])
    if code != 0:
        raise OpFailed(f"exit code {code}")
    return out.getvalue()


def report_workload(pkg, seed):
    plan = list(REPORT_RINGS)
    random.Random(seed).shuffle(plan)
    for key in plan:
        pkg.cli.parse_ring(RINGS[key].text)
    ops = [(f"report {key}",
            lambda text=RINGS[key].text: _report(pkg, text, CORPUS_SEED))
           for key in plan]

    def check(outputs):
        failures, notes = {}, {}
        for i, (key, text) in enumerate(zip(plan, outputs)):
            doc = json.loads(text)
            errors = oracles.check_ring_facts(doc, RINGS[key])
            if key == "A":
                errors += oracles.check_golden_a(doc)
            if key in ("cusp", "cubic"):
                # recorded, not checked: meant to change with new certificates
                notes[key] = {"isolated": doc.get("isolated"), "bound": doc.get("bound")}
            if errors:
                failures[i] = errors
        return failures, notes

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# resolve: minimal resolutions and Ext at growing rank, no corpus sweep

# ring A to 7 alone takes 6 s and D to 4 takes 3 s; a pass, paired with the
# reference's, must fit in a run several times
RESOLVE_LENGTHS = {"A": 6, "B": 3, "C": 10, "cubic": 8, "D": 3}
EXT_DEGREES = {"A": 4, "D": 2}
COKER_LENGTH = 3


def _resolution(pkg, ring_text, module_text, length):
    ring = pkg.cli.parse_ring(ring_text)
    res = pkg.resolve.free_resolution(pkg.cli.parse_module(module_text, ring), length)
    return json.dumps({
        "betti": res.betti(),
        "complete": res.complete,
        "periodic": res.periodic,
        "d": [[[ring.format_element(e) for e in row] for row in res.differential(i)]
              for i in range(1, res.length + 1)],
    }, sort_keys=True)


def _ext_dim(pkg, ring_text, i):
    ring = pkg.cli.parse_ring(ring_text)
    k = pkg.cli.parse_module("k", ring)
    return json.dumps({"dim": pkg.homalg.ext_module(k, k, i).k_dimension()})


def seeded_cokernel(names, rng):
    """coker [[a*u, b*v, 0], [0, c*u, d*v]] on the first two variables.

    The coefficients a..d come from the seed.  Scaling rows and columns
    shows every choice presents the same module, so the seed varies the
    printed input and output but not the amount of work; entries and zeros
    drawn at random made one op take anywhere from 0 s to 0.65 s.
    """
    u, v = names[:2]
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    return f"[[{a}*{u},{b}*{v},0],[0,{c}*{u},{d}*{v}]]"


def resolve_workload(pkg, seed):
    rng = random.Random(seed)
    plan = []   # (kind, ring key, argument, module text)
    for key, length in RESOLVE_LENGTHS.items():
        plan.append(("k", key, length, "k"))
    for key, top in EXT_DEGREES.items():
        for i in range(top + 1):
            plan.append(("ext", key, i, "k"))
    for key in RESOLVE_LENGTHS:
        plan.append(("coker", key, COKER_LENGTH, seeded_cokernel(RINGS[key].names, rng)))
    for _, key, _, module in plan:
        pkg.cli.parse_module(module, pkg.cli.parse_ring(RINGS[key].text))

    ops = []
    for kind, key, arg, module in plan:
        text = RINGS[key].text
        if kind == "ext":
            ops.append((f"Ext^{arg}(k,k) over {key}",
                        lambda text=text, i=arg: _ext_dim(pkg, text, i)))
        else:
            ops.append((f"resolve {module} over {key} to {arg}",
                        lambda text=text, m=module, n=arg: _resolution(pkg, text, m, n)))

    def check(outputs):
        failures = {}
        for i, ((kind, key, arg, _), text) in enumerate(zip(plan, outputs)):
            facts = RINGS[key]
            out = json.loads(text)
            if kind == "ext":
                want = facts.poincare(arg + 1)[arg]
                errors = [] if out["dim"] == want else [f"dim {out['dim']} != {want}"]
            else:
                errors = oracles.check_complex(out["d"], facts)
                if kind == "k":
                    stopped = out["complete"] or out["periodic"] is not None
                    errors += oracles.check_betti(out["betti"], facts.poincare(arg + 1),
                                                  arg, stopped)
            if errors:
                failures[i] = errors
        return failures, {}

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# groebner: dense zero-dimensional ideals, bases then normal-form queries

# (field, number of variables, generator degrees); each field takes about
# half of a pass
GB_SHAPES = (
    ("Q", 4, (2, 2, 2, 2)),
    ("Q", 4, (2, 2, 2, 3)),
    ("Q", 4, (2, 2, 3, 3)),
    ("F32003", 4, (2, 2, 3, 3)),
    ("F32003", 5, (2, 2, 2, 2, 2)),
    ("F32003", 4, (2, 3, 3, 3)),
)
NF_QUERIES = 20
NAMES = ("a", "b", "c", "d", "e")


def _monomials(nvars, degree):
    """Exponent tuples of every monomial of total degree <= degree."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def _term_text(coeff, exps, names):
    body = "*".join(nm if e == 1 else f"{nm}^{e}"
                    for nm, e in zip(names, exps) if e)
    return f"{coeff}*{body}" if body else str(coeff)


def _dense(rng, names, degree, bound):
    """Every monomial of degree <= degree, with a nonzero coefficient."""
    terms = []
    for exps in _monomials(len(names), degree):
        terms.append(_term_text(rng.choice([c for c in range(-bound, bound + 1) if c]),
                                exps, names))
    return " + ".join(terms)


def _multiplier(rng, names):
    """c1*x_i + c2, a small random multiplier of degree one."""
    return f"{rng.randint(1, 3)}*{rng.choice(names)} + {rng.randint(-3, 3)}"


def groebner_workload(pkg, seed):
    rng = random.Random(seed)
    ideals = []   # (field, names, generator texts, ring, generators, members)
    for field, n, degrees in GB_SHAPES:
        names = NAMES[:n]
        gens = [_dense(rng, names, d, 9) for d in degrees]
        ring = pkg.cli.parse_ring(f"{field}[{','.join(names)}]")
        parsed_gens = [pkg.cli.parse_element(g, ring) for g in gens]
        parsed_members = []
        for _ in range(NF_QUERIES):
            products = [pkg.cli.parse_element(_multiplier(rng, names), ring) * g
                        for g in parsed_gens]
            parsed_members.append(sum(products[1:], products[0]))
        ideals.append((field, names, gens, ring, parsed_gens, parsed_members))

    state = {}

    def basis(j):
        _, _, _, ring, gens, _ = ideals[j]
        gb = pkg.groebner.buchberger(gens)
        state[j] = gb
        return json.dumps({"basis": [ring.format_element(p) for p in gb.polynomials()]})

    def reduce(j, q):
        ring, members = ideals[j][3], ideals[j][5]
        return ring.format_element(pkg.groebner.normal_form(members[q], state[j]))

    ops, plan = [], []
    for j, (field, names, _, _, _, _) in enumerate(ideals):
        ops.append((f"basis {j} over {field}", lambda j=j: basis(j)))
        plan.append((j, None))
        for q in range(NF_QUERIES):
            ops.append((f"normal form {q} of ideal {j}", lambda j=j, q=q: reduce(j, q)))
            plan.append((j, q))

    def check(outputs):
        failures, notes = {}, {"sympy": "not installed"}
        for i, ((j, q), text) in enumerate(zip(plan, outputs)):
            field, names, gens = ideals[j][:3]
            if q is not None:
                errors = oracles.check_zero_normal_form(text)
            else:
                modulus = 0 if field == "Q" else int(field[1:])
                errors = oracles.check_against_sympy(
                    gens, json.loads(text)["basis"], names, modulus)
                if errors is None:
                    errors = []
                else:
                    notes["sympy"] = "compared"
            if errors:
                failures[i] = errors
        return failures, notes

    return Workload(ops, check)


WORKLOADS = {
    "report": report_workload,
    "resolve": resolve_workload,
    "groebner": groebner_workload,
}
