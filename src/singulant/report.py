"""Certificate assembly for singularity-category invariants.

This module turns the raw machinery (Jacobian ideals, resolutions, Ext
annihilation) into auditable verdicts: a certified two-sided sandwich for
the annihilator of the singularity category, the radical comparison of
that sandwich against the Jacobian ideal, the generation-time bound for
zero-dimensional annihilating ideals, and a golden-example ledger.

The annihilator of the singularity category is never printed as an exact
ideal.  The lower bound is generated only by elements carrying a
machine-checkable certificate; everything else is reported as an
exclusion (with a concrete failing Ext witness) or as inconclusive.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    Budget,
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    UnsupportedInputError,
    active_meter,
    budget_scope,
)
from .homalg import (
    annihilates_ext,
    ca_witness,
    default_corpus,
    ext_module,
    koszul_cohomology,
    koszul_support_check,
    module_annihilator,
    stable_annihilation_test,
)
from .ideal_ops import (
    IdealHandle,
    RingPresentation,
    height,
    is_equidimensional,
    is_m_primary,
    loewy_length,
    minimal_generators,
    minimal_primes_monomial,
    radical_membership,
    ring_dimension,
    socle,
)
from .jacobian import (
    JACOBIAN_CRITERION,
    is_isolated_singularity,
    jacobian_ideal,
    singular_locus_certificate,
)
from .poly import QQ, Polynomial, PrimeField
from .resolve import (
    FinitelyPresentedModule,
    check_complex,
    check_exactness,
    free_resolution,
    minimal_presentation,
    ring_depth,
    syzygy_module,
)

# each guarded step of a certification sweep runs in a budget scope of its own
# capped at _CERT_MAX_STEPS steps, and structural size caps apply, so that a
# single oversized Hom system or syzygy chain cannot stall the whole report;
# blown caps surface as "inconclusive", never as wrong answers
_CERT_MAX_STEPS = 20_000
_HOM_COLUMNS_CAP = 32
_ANN_SIZE_CAP = 24
_SYZ_SIZE_CAP = 48


def _presentation_size(module) -> int:
    return module.rank * max(1, module.n_relations)

HYPOTHESIS_STRONG_GENERATOR = (
    "strong generation: the bounded derived category is assumed to admit a "
    "strong generator for the accepted presentations; recorded, not re-verified"
)
HYPOTHESIS_CORPUS_EVIDENCE = (
    "annihilator lower bound rests on corpus evidence: certificates are "
    "machine-checked per witness module, while the defining quantifier runs "
    "over all finitely generated modules"
)
HYPOTHESIS_AFFINE_READING = (
    "non-homogeneous defining relations: graded-local invariants are read in "
    "the affine sense"
)
HYPOTHESIS_CRITERION_GAP = (
    "jacobian criterion not validated for this presentation: singular-locus "
    "conclusions relying on it are reported as unknown"
)


def field_token(fld) -> str:
    return "Q" if fld.characteristic == 0 else f"F{fld.characteristic}"


def corpus_labels(ring: RingPresentation):
    """Stable display names matching the default corpus order."""
    labels = ["k", "R"]
    labels += [f"R/({nm})" for nm in ring.names]
    labels += ["R/m^2", "syz1(k)", "coker(2x3 seeded)"]
    return labels


def _shift_label(label: str, s: int) -> str:
    return label if s == 0 else f"syz{s}({label})"


# ---------------------------------------------------------------------------
# certification context: shared syzygy chains and Ext groups per corpus member


class _CorpusContext:
    """Lazy per-member caches shared by every candidate in one sweep.

    For each corpus member the context maintains the chain of syzygy
    modules M, Omega^1 M, Omega^2 M, ...; for each link it can produce the
    annihilator (cheap certificate) and the Ext group of the stable test
    (decisive but potentially large).  Each heavy step runs in its own
    ``cap`` scope and degrades to "inconclusive" when that cap is hit.
    """

    def __init__(self, ring: RingPresentation, seed: int, max_shift: int):
        self.ring = ring
        self.cap = Budget(max_degree=active_meter().max_degree,
                          max_steps=_CERT_MAX_STEPS)
        self.max_shift = max_shift
        self.labels = corpus_labels(ring)
        self.members = default_corpus(ring, seed)
        self._levels = [[] for _ in self.members]

    def _guarded(self, thunk):
        """thunk() in a fresh ``cap`` scope; None when that scope runs out."""
        with budget_scope(self.cap) as meter:
            try:
                return thunk()
            except BudgetExceededError as exc:
                if exc.escapes(meter):
                    raise
                return None

    # -- chain construction ---------------------------------------------------

    def _level(self, idx: int, s: int):
        """Link s of member idx's syzygy chain; None once the chain breaks."""
        levels = self._levels[idx]
        while len(levels) <= s:
            if levels:
                base = levels[-1]["omega"]
            else:
                base = self._guarded(lambda: minimal_presentation(self.members[idx]))
            if base is None:
                return None
            lv = {"module": base}
            if base.is_zero_presentation() or base.is_free_presentation():
                lv.update(ann=None, omega=None, omega_ann=None)
            else:
                if levels and levels[-1]["omega_ann"] is not None:
                    lv["ann"] = levels[-1]["omega_ann"]
                else:
                    lv["ann"] = self._annihilator(base)
                om = None
                if _presentation_size(base) <= _SYZ_SIZE_CAP:
                    om = self._guarded(
                        lambda: minimal_presentation(syzygy_module(base, 1)))
                lv["omega"] = om
                if om is None or om.is_zero_presentation():
                    lv["omega_ann"] = None
                else:
                    lv["omega_ann"] = self._annihilator(om)
            levels.append(lv)
        return levels[s]

    def _annihilator(self, module):
        if module.rank == 1:
            return IdealHandle(self.ring, list(module.rows[0]) if module.rows else [])
        if _presentation_size(module) > _ANN_SIZE_CAP:
            return None
        return self._guarded(lambda: module_annihilator(module))

    def _ext(self, lv: dict):
        if "ext" not in lv:
            mod, om = lv["module"], lv["omega"]
            if om is None:
                lv["ext"] = "budget"
            elif mod.n_relations * om.rank > _HOM_COLUMNS_CAP:
                lv["ext"] = "too-large"
            else:
                ext = self._guarded(lambda: ext_module(mod, om, 1))
                lv["ext"] = "budget" if ext is None else ext
        return lv["ext"]

    # -- per-candidate certification -------------------------------------------

    def certify(self, idx: int, r: Polynomial):
        """Outcome of the stable-annihilation certificate on one member.

        Tries syzygy shifts 0..max_shift: a pass on Omega^s certifies the
        member (the shift is an isomorphism in the singularity category).
        Returns (status, route, shift, failed_shifts) with status one of
        "certified" | "failed" | "inconclusive".
        """
        fails = []
        guarded = False
        for s in range(self.max_shift + 1):
            lv = self._level(idx, s)
            if lv is None:
                guarded = True
                break
            mod = lv["module"]
            if mod.is_zero_presentation() or mod.is_free_presentation():
                return "certified", "zero-or-free", s, fails
            ann = lv["ann"]
            if ann is not None and ann.contains(r):
                return "certified", "annihilates-module", s, fails
            om = lv["omega"]
            if om is not None and om.is_zero_presentation():
                return "certified", "zero-syzygy", s, fails
            om_ann = lv["omega_ann"]
            if om_ann is not None and om_ann.contains(r):
                return "certified", "annihilates-syzygy", s, fails
            ext = self._ext(lv)
            if isinstance(ext, str):
                guarded = True
                continue
            if ext.annihilated_by(r):
                return "certified", "ext-vanishing", s, fails
            fails.append(s)
        if fails and not guarded:
            return "failed", None, None, fails
        return "inconclusive", None, None, fails


# ---------------------------------------------------------------------------
# annihilator bounds


@dataclass
class MemberOutcome:
    module: str
    status: str          # "certified" | "failed" | "inconclusive"
    route: str | None
    shift: int | None

    def payload(self) -> dict:
        out = {"module": self.module, "status": self.status}
        if self.route is not None:
            out["route"] = self.route
            out["shift"] = self.shift
        return out


@dataclass
class Certificate:
    element: Polynomial
    method: str          # "socle-ca-witness" | "stable-annihilation" | "regular-ring"
    detail: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)

    def payload(self, ring: RingPresentation) -> dict:
        out = {"element": ring.format_element(self.element), "method": self.method}
        if self.detail:
            out["detail"] = dict(self.detail)
        if self.outcomes:
            out["modules"] = [o.payload() for o in self.outcomes]
        return out


@dataclass
class Exclusion:
    """A concrete Ext witness showing a candidate carries no certificate."""

    element: Polynomial
    module: str
    target: str
    ext_degree: int

    def payload(self, ring: RingPresentation) -> dict:
        return {
            "element": ring.format_element(self.element),
            "module": self.module,
            "target": self.target,
            "ext_degree": self.ext_degree,
        }


@dataclass
class AnnihilatorBounds:
    """Certified sandwich for the singularity-category annihilator.

    ``lower`` is generated exactly by the certified elements; the upper
    side is reported as the exclusion list (elements with a failing Ext
    witness), never as an ideal.
    """

    ring: RingPresentation
    lower: IdealHandle
    certificates: list
    exclusions: list
    inconclusive: list   # (element, [module labels]) pairs
    corpus: list
    seed: int

    def payload(self) -> dict:
        ring = self.ring
        return {
            "lower_gens": [ring.format_element(g)
                           for g in self.lower.reduced_generators()],
            "certificates": [c.payload(ring) for c in self.certificates],
            "exclusions": [e.payload(ring) for e in self.exclusions],
            "inconclusive": [
                {"element": ring.format_element(g), "modules": list(mods)}
                for g, mods in self.inconclusive
            ],
            "corpus": list(self.corpus),
            "seed": self.seed,
        }


def annihilator_bounds(ring: RingPresentation, extra_elements=(), *,
                       seed: int = 0, ca_degree: int = 2,
                       max_shift: int = 3) -> AnnihilatorBounds:
    """Certify annihilator candidates over the default witness corpus.

    Socle generators are swept with ca_witness at the given Ext degree;
    every other candidate runs the stable-annihilation certificate on each
    corpus member, with syzygy shifts allowed (a pass on Omega^s M still
    certifies M, since the shift is invertible in the singularity
    category).  A guarded step that runs out of its own cap is recorded as
    inconclusive; running out of the enclosing budget scope aborts.
    """
    ctx = _CorpusContext(ring, seed, max_shift)
    candidates = []
    seen = set()
    for g in socle(ring).reduced_generators():
        candidates.append((g, "socle"))
        seen.add(g)
    for g in extra_elements:
        if not isinstance(g, Polynomial) or g.ring != ring.poly_ring:
            raise StructuralError("candidate from another ring")
        nf = ring.normal_form(g)
        if nf.is_zero() or nf in seen:
            continue
        seen.add(nf)
        candidates.append((nf, "given"))

    certificates, exclusions, inconclusive, lower_gens = [], [], [], []
    for g, origin in candidates:
        if origin == "socle":
            ok = _certify_socle_element(ctx, g, ca_degree,
                                        certificates, exclusions, inconclusive)
        else:
            ok = _certify_stable_element(ctx, g,
                                         certificates, exclusions, inconclusive)
        if ok:
            lower_gens.append(g)
    return AnnihilatorBounds(
        ring=ring,
        lower=IdealHandle(ring, lower_gens),
        certificates=certificates,
        exclusions=exclusions,
        inconclusive=inconclusive,
        corpus=ctx.labels,
        seed=seed,
    )


def _certify_socle_element(ctx, g, ca_degree, certificates, exclusions,
                           inconclusive) -> bool:
    report = ca_witness(g, ca_degree, ctx.members, pair_budget=ctx.cap)
    if report.verdict == "evidence-in":
        certificates.append(Certificate(
            element=g, method="socle-ca-witness",
            detail={"ext_degree": ca_degree, "pairs": len(report.entries)},
        ))
        return True
    if report.verdict == "proved-not-in":
        bad = report.failures()[0]
        exclusions.append(Exclusion(
            element=g,
            module=ctx.labels[bad.source_index],
            target=ctx.labels[bad.target_index],
            ext_degree=ca_degree,
        ))
        return False
    # budget-exhausted sweep: fall back to the stable certificate, which the
    # socle always satisfies when it completes (socle * Omega^1 M = 0)
    return _certify_stable_element(ctx, g, certificates, exclusions,
                                   inconclusive)


def _certify_stable_element(ctx, g, certificates, exclusions,
                            inconclusive) -> bool:
    outcomes = []
    first_failure = None
    undecided = []
    for idx, label in enumerate(ctx.labels):
        status, route, shift, fails = ctx.certify(idx, g)
        outcomes.append(MemberOutcome(label, status, route, shift))
        if status == "failed":
            s = fails[0]
            first_failure = Exclusion(
                element=g,
                module=_shift_label(label, s),
                target=_shift_label(label, s + 1),
                ext_degree=1,
            )
            break
        if status == "inconclusive":
            undecided.append(label)
    if first_failure is not None:
        exclusions.append(first_failure)
        return False
    if undecided:
        inconclusive.append((g, undecided))
        return False
    certificates.append(Certificate(
        element=g, method="stable-annihilation", outcomes=outcomes,
    ))
    return True


# ---------------------------------------------------------------------------
# generation-time bound


@dataclass
class GenerationTimeBound:
    ideal: IdealHandle
    nu: int
    loewy: int
    depth: int
    bound: int
    dim_bound: int
    assumed: bool

    def payload(self) -> dict:
        ring = self.ideal.ring
        return {
            "I_gens": [ring.format_element(g)
                       for g in self.ideal.reduced_generators()],
            "nu": self.nu,
            "loewy": self.loewy,
            "depth": self.depth,
            "generation_time": self.bound,
            "dim_sg_bound": self.dim_bound,
            "assume_annihilates": self.assumed,
        }


def generation_time_bound(ring: RingPresentation, ideal: IdealHandle, *,
                          assume_annihilates: bool = False, seed: int = 0,
                          bounds: AnnihilatorBounds | None = None
                          ) -> GenerationTimeBound:
    """(nu(I) - depth(R) + 1) * loewy(R/I), with dim bound one less.

    Preconditions checked separately: I must be m-primary, and every
    generator must lie in the certified annihilator lower bound — unless
    the caller overrides with assume_annihilates, which is then recorded
    in the result.
    """
    if ideal.ring != ring:
        raise StructuralError("ideal lives in a different presentation")
    if not is_m_primary(ideal):
        raise PreconditionError(
            f"generation-time bound needs an m-primary ideal; {ideal.format()} "
            "is not m-primary"
        )
    gens = ideal.reduced_generators()
    assumed = bool(assume_annihilates)
    if not assumed:
        if bounds is None:
            bounds = annihilator_bounds(ring, extra_elements=gens, seed=seed)
        missing = [g for g in gens if not bounds.lower.contains(g)]
        if missing:
            raise PreconditionError(
                f"generator {ring.format_element(missing[0])} of I carries no "
                "annihilation certificate; pass assume_annihilates=True to "
                "record the hypothesis instead"
            )
    nu = minimal_generators(ideal)
    ell = loewy_length(ring, ideal)
    dep = ring_depth(ring)
    bound = (nu - dep + 1) * ell
    return GenerationTimeBound(
        ideal=ideal, nu=nu, loewy=ell, depth=dep,
        bound=bound, dim_bound=bound - 1, assumed=assumed,
    )


# ---------------------------------------------------------------------------
# radical comparison


@dataclass
class RadicalComparison:
    ring: RingPresentation
    jac: IdealHandle
    bounds: AnnihilatorBounds
    verdict: str          # "equal" | "lower-strictly-smaller" | "incomparable-with-certificates"
    jac_in_lower: bool
    lower_in_jac: bool
    failures: list        # dicts: element, prime (variable names or None)
    note: str

    def payload(self) -> dict:
        return {
            "verdict": self.verdict,
            "jac_in_lower_radical": self.jac_in_lower,
            "lower_in_jac_radical": self.lower_in_jac,
            "failures": [dict(f) for f in self.failures],
            "note": self.note,
        }


_NOTE_CONDITIONAL = (
    "verdict is conditional on corpus-evidence lower-bound semantics"
)
_NOTE_REGULAR = (
    "regular presentation: the singularity category vanishes and both "
    "radicals are the unit ideal"
)


def radical_comparison_report(ring: RingPresentation, *, seed: int = 0,
                              bounds: AnnihilatorBounds | None = None
                              ) -> RadicalComparison:
    """Compare the radical of jac(R) against the certified lower bound.

    Regular presentations short-circuit: both sides are the unit ideal.
    When the Jacobian radical is not inside the lower bound's radical,
    each offending generator is reported together with a minimal prime of
    the defining ideal that contains the lower bound but misses the
    generator (computable for monomial presentations).
    """
    cert = singular_locus_certificate(ring)
    jac = cert.ideal
    if cert.valid == JACOBIAN_CRITERION and jac.is_unit():
        one = ring.poly_ring.one()
        regular_bounds = AnnihilatorBounds(
            ring=ring,
            lower=IdealHandle(ring, [one]),
            certificates=[Certificate(element=one, method="regular-ring")],
            exclusions=[],
            inconclusive=[],
            corpus=corpus_labels(ring),
            seed=seed,
        )
        return RadicalComparison(
            ring=ring, jac=jac, bounds=regular_bounds, verdict="equal",
            jac_in_lower=True, lower_in_jac=True, failures=[],
            note=_NOTE_REGULAR,
        )
    if bounds is None:
        bounds = annihilator_bounds(
            ring, extra_elements=jac.reduced_generators(), seed=seed
        )
    jac_gens = jac.reduced_generators()
    lower_gens = bounds.lower.reduced_generators()
    jac_in_lower = all(radical_membership(g, bounds.lower) for g in jac_gens)
    lower_in_jac = all(radical_membership(g, jac) for g in lower_gens)
    if jac_in_lower and lower_in_jac:
        verdict = "equal"
    elif lower_in_jac:
        verdict = "lower-strictly-smaller"
    else:
        verdict = "incomparable-with-certificates"
    failures = []
    if not jac_in_lower:
        primes = []
        if ring.defining:
            try:
                primes = minimal_primes_monomial(ring.defining_ideal())
            except UnsupportedInputError:
                primes = []
        for g in jac_gens:
            if radical_membership(g, bounds.lower):
                continue
            witness = None
            for p in primes:
                handle = p.image_in(ring)
                if not handle.contains(g) and all(
                    handle.contains(l) for l in lower_gens
                ):
                    witness = [ring.format_element(v) for v in p.generators]
                    break
            failures.append({
                "element": ring.format_element(g),
                "prime": witness,
            })
    return RadicalComparison(
        ring=ring, jac=jac, bounds=bounds, verdict=verdict,
        jac_in_lower=jac_in_lower, lower_in_jac=lower_in_jac,
        failures=failures, note=_NOTE_CONDITIONAL,
    )


# ---------------------------------------------------------------------------
# full report


def build_report(ring: RingPresentation, *, bound_ideal: IdealHandle | None = None,
                 assume_annihilates: bool = False, seed: int = 0) -> dict:
    """Assemble the full singularity report as a JSON-ready dictionary.

    The bound block appears only when the isolated verdict is true and the
    chosen ideal (the Jacobian ideal by default) is m-primary; failures of
    the certification precondition demote the block to a hypothesis line
    rather than aborting the report.
    """
    if bound_ideal is not None and bound_ideal.ring != ring:
        raise StructuralError("bound ideal lives in a different presentation")
    iso = is_isolated_singularity(ring)
    cert = iso.certificate
    comparison = radical_comparison_report(ring, seed=seed)
    bounds = comparison.bounds

    hypotheses = [HYPOTHESIS_STRONG_GENERATOR, HYPOTHESIS_CORPUS_EVIDENCE]
    if not ring.is_graded():
        hypotheses.append(HYPOTHESIS_AFFINE_READING)
    if cert.equidimensional is not True:
        hypotheses.append(HYPOTHESIS_CRITERION_GAP)

    bound_doc = None
    if iso.verdict is True:
        ideal = bound_ideal if bound_ideal is not None else cert.ideal
        try:
            if is_m_primary(ideal):
                reuse = bounds if bound_ideal is None else None
                result = generation_time_bound(
                    ring, ideal,
                    assume_annihilates=assume_annihilates,
                    seed=seed, bounds=reuse,
                )
                bound_doc = result.payload()
                if result.assumed:
                    hypotheses.append(
                        "generation-time bound computed under the "
                        f"assume-annihilates override for I = {ideal.format()}"
                    )
            else:
                hypotheses.append(
                    f"bound omitted: {ideal.format()} is not m-primary"
                )
        except PreconditionError as exc:
            hypotheses.append(f"bound omitted: {exc}")
        except BudgetExceededError as exc:
            if exc.escapes():
                raise
            hypotheses.append(f"bound omitted: budget exhausted ({exc})")

    return {
        "ring": ring.format(),
        "field": field_token(ring.field),
        "dim": ring_dimension(ring),
        "depth": ring_depth(ring),
        "jac": {"gens": [ring.format_element(g)
                         for g in cert.ideal.reduced_generators()]},
        "equidimensional": cert.equidimensional,
        "isolated": iso.verdict,
        "regular": iso.regular,
        "socle": {"gens": [ring.format_element(g)
                           for g in socle(ring).reduced_generators()]},
        "ann_bounds": bounds.payload(),
        "radical_comparison": comparison.payload(),
        "singular_locus": {
            "criterion": cert.valid,
            "witness_primes": [
                [ring.format_element(v) for v in p.generators]
                for p in iso.witness_primes
            ],
            "warnings": list(cert.warnings),
        },
        "bound": bound_doc,
        "hypotheses": hypotheses,
    }


def report_json(doc) -> str:
    """Canonical serialization: two runs on equal input are byte-identical."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# golden-example ledger


@dataclass
class LedgerEntry:
    name: str
    status: str   # "pass" | "fail" | "skipped"
    detail: str


def format_ledger(entries) -> str:
    width = max(len(e.name) for e in entries) if entries else 0
    lines = [f"[{e.status.upper():7s}] {e.name:<{width}}  {e.detail}"
             for e in entries]
    return "\n".join(lines)


def ledger_passed(entries) -> bool:
    return all(e.status != "fail" for e in entries)


def _embedded_point_line(fld) -> RingPresentation:
    amb = RingPresentation(fld, ("x", "y"))
    x, y = amb.variable(0), amb.variable(1)
    return RingPresentation(fld, ("x", "y"), (x * x, x * y))


def _plane_line_union(fld) -> RingPresentation:
    amb = RingPresentation(fld, ("x", "y", "z", "w"))
    x, y, z, w = (amb.variable(i) for i in range(4))
    return RingPresentation(fld, ("x", "y", "z", "w"), (x * x, y * z, y * w))


def verify_paper_examples(fld=None):
    """Re-run every golden claim and return one ledger entry per claim.

    Characteristic 2 collapses the derivative of x^2, so the goldens that
    depend on the four-variable Jacobian ideal are skipped there with a
    reason; everything else runs unchanged.
    """
    fld = fld if fld is not None else QQ
    char2 = fld.characteristic == 2
    entries = []

    def run(name, fn):
        try:
            ok, detail = fn()
            entries.append(LedgerEntry(name, "pass" if ok else "fail", detail))
        except Exception as exc:  # ledger entries, never exceptions
            # an exhausted budget scope bounds the whole run, not one entry
            if isinstance(exc, BudgetExceededError) and exc.escapes():
                raise
            entries.append(LedgerEntry(name, "fail", f"error: {exc!r}"))

    def skip(name, reason):
        entries.append(LedgerEntry(name, "skipped", reason))

    A = _embedded_point_line(fld)
    ax, ay = A.variable(0), A.variable(1)
    B = _plane_line_union(fld)
    bx, by, bz, bw = (B.variable(i) for i in range(4))
    k_A = FinitelyPresentedModule.residue_field(A)
    char2_reason = (
        "characteristic 2 collapses d(x^2) = 2x; this golden value is "
        "rational-only"
    )

    def jac_plane_line():
        jac = jacobian_ideal(B)
        expected = IdealHandle(B, [bx * by, bx * bz, bx * bw, by * by])
        return jac.same_ideal(expected), f"jac = {jac.format()}"

    def jac_embedded_point():
        jac = jacobian_ideal(A)
        expected = IdealHandle(A, [ax, ay])
        return jac.same_ideal(expected), f"jac = {jac.format()}"

    def height_dim_plane_line():
        h = height(B.defining_ideal())
        d = ring_dimension(B)
        return (h, d) == (2, 2), f"height = {h}, dim = {d}"

    def dim_depth_embedded_point():
        d = ring_dimension(A)
        dep = ring_depth(A)
        return (d, dep) == (1, 0), f"dim = {d}, depth = {dep}"

    def equidim_plane_line():
        flat = is_equidimensional(B)
        primes = minimal_primes_monomial(B.defining_ideal())
        names = sorted(p.format() for p in primes)
        dims = sorted(B.nvars - len(p.generators) for p in primes)
        ok = flat is False and names == ["(x, y)", "(x, z, w)"] and dims == [1, 2]
        return ok, f"equidimensional = {flat}, primes = {names}, dims = {dims}"

    def equidim_embedded_point():
        flat = is_equidimensional(A)
        return flat is True, f"equidimensional = {flat}"

    def betti_residue_family():
        for n in (1, 2, 3):
            module = FinitelyPresentedModule.cyclic(A, [ax, ay ** n])
            res = free_resolution(module, 3)
            if res.ranks[:4] != [1, 2, 3, 5]:
                return False, f"n = {n}: ranks {res.ranks[:4]}"
            if not (res.minimal and check_complex(res) and check_exactness(res)):
                return False, f"n = {n}: complex/exactness checks failed"
        return True, "ranks 1, 2, 3, 5 for n = 1, 2, 3; d^2 = 0; exact"

    def ext2_kill_family():
        targets = [
            FinitelyPresentedModule.cyclic(A, []),
            k_A,
            FinitelyPresentedModule.cyclic(A, [ax]),
        ]
        for n in (1, 2, 3):
            module = FinitelyPresentedModule.cyclic(A, [ax, ay ** n])
            for N in targets:
                if not annihilates_ext(ay, module, N, 2):
                    return False, f"y fails on Ext^2(R/(x,y^{n}), -)"
        return True, "y kills Ext^2(R/(x,y^n), N) for n = 1..3, N in {R, k, R/(x)}"

    def ext2_residue_self():
        ext = ext_module(k_A, k_A, 2)
        dim = ext.k_dimension()
        unit_ok = not annihilates_ext(A.poly_ring.one(), k_A, k_A, 2)
        return dim == 3 and unit_ok, f"dim_k Ext^2(k,k) = {dim}; 1 does not kill it"

    def stable_socle_element():
        corpus = default_corpus(A, 0)
        bad = [lbl for lbl, M in zip(corpus_labels(A), corpus)
               if not stable_annihilation_test(ax, M)]
        return not bad, ("x certifies on every corpus module" if not bad
                         else f"x fails on {bad}")

    def ca3_y_evidence():
        report = ca_witness(ay, 3, default_corpus(A, 0))
        return report.verdict == "evidence-in", f"verdict = {report.verdict}"

    def socle_embedded_point():
        soc = socle(A)
        return soc.same_ideal(IdealHandle(A, [ax])), f"socle = {soc.format()}"

    def isolated_embedded_point():
        verdict = is_isolated_singularity(A).verdict
        return verdict is True, f"isolated = {verdict}"

    def isolated_plane_line():
        iso = is_isolated_singularity(B)
        primes = sorted(p.format() for p in iso.witness_primes)
        ok = iso.verdict is None and primes == ["(x, z, w)"]
        return ok, f"isolated = {iso.verdict}, witness primes = {primes}"

    bounds_cache = {}

    def _bounds(ring):
        if ring.names not in bounds_cache:
            gens = singular_locus_certificate(ring).ideal.reduced_generators()
            bounds_cache[ring.names] = annihilator_bounds(
                ring, extra_elements=gens
            )
        return bounds_cache[ring.names]

    def radical_embedded_point():
        comparison = radical_comparison_report(A, bounds=_bounds(A))
        return comparison.verdict == "equal", f"verdict = {comparison.verdict}"

    def radical_plane_line():
        comparison = radical_comparison_report(B, bounds=_bounds(B))
        hit = [f for f in comparison.failures
               if f["prime"] == ["x", "z", "w"]]
        ok = not comparison.jac_in_lower and bool(hit)
        offenders = [f["element"] for f in comparison.failures]
        return ok, (f"jac not inside lower radical; offenders {offenders} "
                    "at prime (x, z, w)")

    def bound_maximal_ideal():
        result = generation_time_bound(A, A.maximal_ideal(), bounds=_bounds(A))
        got = (result.nu, result.loewy, result.depth,
               result.bound, result.dim_bound)
        return got == (2, 1, 0, 3, 2), f"(nu, loewy, depth, bound, dim) = {got}"

    def koszul_depth_detector():
        module = FinitelyPresentedModule.cyclic(A, [])
        h0 = koszul_cohomology([ax], module, 0)
        h1 = koszul_cohomology([ax], module, 1)
        ok = (
            not h0.is_zero_presentation()
            and h1.rank == 1 and list(h1.rows) == [(ax,)]
            and koszul_support_check([ax], module)
        )
        return ok, "H^0 = ann(x) != 0 and H^1 = R/(x); support check passes"

    run("jac/embedded-point-line", jac_embedded_point)
    if char2:
        skip("jac/plane-line-union", char2_reason)
    else:
        run("jac/plane-line-union", jac_plane_line)
    run("height-dim/plane-line-union", height_dim_plane_line)
    run("dim-depth/embedded-point-line", dim_depth_embedded_point)
    run("equidim/plane-line-union", equidim_plane_line)
    run("equidim/embedded-point-line", equidim_embedded_point)
    run("betti/residue-family", betti_residue_family)
    run("ext2-kill/y-family", ext2_kill_family)
    run("ext2/residue-self", ext2_residue_self)
    run("stable/socle-element", stable_socle_element)
    run("ca3/y-evidence", ca3_y_evidence)
    run("socle/embedded-point-line", socle_embedded_point)
    run("isolated/embedded-point-line", isolated_embedded_point)
    if char2:
        skip("isolated/plane-line-union", char2_reason)
    else:
        run("isolated/plane-line-union", isolated_plane_line)
    run("radical-compare/embedded-point-line", radical_embedded_point)
    if char2:
        skip("radical-compare/plane-line-union", char2_reason)
    else:
        run("radical-compare/plane-line-union", radical_plane_line)
    run("bound/maximal-ideal", bound_maximal_ideal)
    run("koszul/depth-detector", koszul_depth_detector)
    return entries
