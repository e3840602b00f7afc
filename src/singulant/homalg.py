"""Ext modules, Koszul cohomology, and element-annihilation tests.

Both constructions land in the same shape: a subquotient cycles/boundaries
inside a free module R^q, where membership of r * (cycle) in the boundary
span decides whether r annihilates the cohomology class.  Hom(F, N) for
F free of rank b and N = coker(B) of rank n0 is flattened to R^(b*n0),
block j holding the image of the j-th generator; the "zero homomorphisms"
B * e_(j) are part of every boundary module.
"""
from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .errors import (Budget, BudgetExceededError, PreconditionError, StructuralError,
                     active_meter, budget_scope)
# buchberger is unused here but stays importable from this module, where
# perfbench's tracer rebinds and checks every alias of it
from .groebner import ModuleElement, buchberger, normal_form, syzygies  # noqa: F401
from .ideal_ops import (
    IdealHandle,
    RingPresentation,
    intersection,
    radical_membership,
)
from .poly import Monomial, Polynomial
from .resolve import (
    FinitelyPresentedModule,
    free_resolution,
    matrix_columns,
    minimal_presentation,
    syzygy_module,
    trim_generators,
)


# ---------------------------------------------------------------------------
# subquotients cycles/boundaries inside a free module


class Subquotient:
    """Z/B for submodules B <= Z <= R^rank, kept as generator lists.

    Cycles are kept as given: nonzero and in normal form, as _minimal_kernel
    returns them.  Boundaries are normalized here and zero ones dropped.
    """

    def __init__(self, ring: RingPresentation, rank: int, cycles, boundaries):
        self.ring = ring
        self.rank = rank
        self.cycles = list(cycles)
        self.boundaries = [
            el for el in (ring.normal_form_element(b) for b in boundaries)
            if not el.is_zero()
        ]
        self._boundary_gb = None

    def boundary_gb(self):
        if self._boundary_gb is None and self.boundaries:
            self._boundary_gb = self.ring.module_basis(self.boundaries, self.rank)
        return self._boundary_gb

    def is_boundary(self, el: ModuleElement) -> bool:
        el = self.ring.normal_form_element(el)
        if el.is_zero():
            return True
        gb = self.boundary_gb()
        if gb is None:
            return False
        return normal_form(el, gb).is_zero()

    def is_zero(self) -> bool:
        return all(self.is_boundary(z) for z in self.cycles)

    def annihilated_by(self, r: Polynomial) -> bool:
        """Does r send every cycle generator into the boundary span?"""
        return all(self.is_boundary(z.mul_poly(r)) for z in self.cycles)

    def to_module(self) -> FinitelyPresentedModule:
        """Present Z/B as a cokernel on the cycle generators."""
        ring = self.ring
        if not self.cycles:
            return FinitelyPresentedModule(ring, 0)
        t = len(self.cycles)
        cols = _minimal_kernel(ring, t, self.cycles, self.boundaries)
        raw = FinitelyPresentedModule.from_columns(ring, t, cols)
        return minimal_presentation(raw)

    def k_dimension(self, *, max_degree: int | None = None):
        return module_k_dimension(self.to_module(), max_degree=max_degree)


def module_k_dimension(module: FinitelyPresentedModule, *,
                       max_degree: int | None = None):
    """Total dimension over the base field, or None when not finite.

    Counts standard module monomials against the combined leading-term
    module of the relations and the defining ideal, slot by slot; a slot
    whose count never reaches zero before the degree cap (by default the
    active budget scope's max_degree) makes the result None rather than a
    guess.
    """
    mod = minimal_presentation(module)
    ring = mod.ring
    if mod.rank == 0:
        return 0
    if max_degree is None:
        max_degree = active_meter().max_degree
    leads = {s: [g.lead_monomial() for g in ring.defining_basis().polynomials()]
             for s in range(mod.rank)}
    cols = mod.relation_columns()
    if cols:
        gb = ring.module_basis(cols, mod.rank)
        for el in gb.elements:
            pos, mono, _ = el.lead()
            leads[pos].append(mono)
    nvars = ring.nvars
    total = 0
    for s in range(mod.rank):
        slot_leads = leads[s]
        d = 0
        while True:
            count = 0
            for combo in combinations_with_replacement(range(nvars), d):
                exps = [0] * nvars
                for v in combo:
                    exps[v] += 1
                m = Monomial(exps)
                if not any(l.divides(m) for l in slot_leads):
                    count += 1
            if count == 0:
                break
            total += count
            d += 1
            if d > max_degree:
                return None
    return total


def module_annihilator(module: FinitelyPresentedModule) -> IdealHandle:
    """ann(M) = the intersection over slots of (relations : e_slot)."""
    mod = minimal_presentation(module)
    ring = mod.ring
    if mod.rank == 0:
        return IdealHandle(ring, [ring.poly_ring.one()])
    cols = mod.relation_columns()
    result = None
    for s in range(mod.rank):
        unit = ModuleElement.unit(ring.poly_ring, mod.rank, s)
        heads = _kernel_into(ring, 1, [unit], cols)
        handle = IdealHandle(ring, [h.coords[0] for h in heads])
        result = handle if result is None else intersection(result, handle)
    return result


# ---------------------------------------------------------------------------
# Ext via the dual of the minimal free resolution


class ExtModule(Subquotient):
    """Ext^i(M, N) as a certified subquotient of Hom(F_i, N) in R^rank,
    rank = beta * target_rank: beta is the rank of F_i and target_rank
    that of the minimal presentation of N."""

    def __init__(self, ring: RingPresentation, cycles, boundaries, *, degree: int,
                 source: FinitelyPresentedModule, target: FinitelyPresentedModule,
                 beta: int, target_rank: int):
        super().__init__(ring, beta * target_rank, cycles, boundaries)
        self.degree = degree
        self.source = source
        self.target = target
        self.beta = beta
        self.target_rank = target_rank


def _hom_basis_vector(ring, beta, n0, j, s, entries):
    """Vector in R^(beta*n0) with entries[c] at block c, coordinate s."""
    zero = ring.poly_ring.zero()
    coords = [zero] * (beta * n0)
    for c, value in entries:
        coords[c * n0 + s] = value
    return ModuleElement(ring.poly_ring, coords)


def _zero_hom_shifts(ring, beta, n0, relation_cols):
    """The homomorphisms that vanish into N: B-columns in every block."""
    return [
        ModuleElement.from_terms(ring.poly_ring, beta * n0,
                                 [(j * n0 + s, m, k) for s, m, k in col.terms])
        for j in range(beta) for col in relation_cols
    ]


def _kernel_into(ring, domain_rank, images, allowed):
    """Generators of {v in R^dom : sum v_t * images[t] in <allowed>}."""
    if not images or all(el.is_zero() for el in images):
        return [
            ModuleElement.unit(ring.poly_ring, domain_rank, t)
            for t in range(domain_rank)
        ]
    combined = list(images) + list(allowed)
    rels = syzygies(combined, defining=ring.defining_basis())
    out = []
    for rel in rels:
        head = ModuleElement.from_terms(ring.poly_ring, domain_rank,
                                        [t for t in rel.terms if t[0] < domain_rank])
        head = ring.normal_form_element(head)
        if not head.is_zero():
            out.append(head)
    return out


def _minimal_kernel(ring, domain_rank, images, allowed):
    """``_kernel_into`` trimmed to a minimal generating set, in column order."""
    cols = _kernel_into(ring, domain_rank, images, allowed)
    return ring.sort_columns(trim_generators(ring, cols, domain_rank))


def ext_module(M: FinitelyPresentedModule, N: FinitelyPresentedModule,
               i: int) -> ExtModule:
    """Ext^i_R(M, N) from the dualized minimal resolution of M."""
    if i < 0:
        raise PreconditionError("Ext degree must be nonnegative")
    if M.ring != N.ring:
        raise StructuralError("Ext arguments must share one ring presentation")
    ring = M.ring
    Nmin = minimal_presentation(N)
    n0 = Nmin.rank
    res = free_resolution(M, i + 1, detect_periodicity=False)
    if res.length < i or n0 == 0:
        return ExtModule(ring, [], [], degree=i, source=M, target=N,
                         beta=0, target_rank=n0)
    beta = res.ranks[i]
    dom = beta * n0
    b_cols = Nmin.relation_columns()

    # cycles: kernel of the dual of d_(i+1), into the zero-hom span; past
    # the end of the resolution there are no images, so every vector is a cycle
    images, allowed = [], []
    if res.length >= i + 1:
        d_next = res.differential(i + 1)
        beta_next = res.ranks[i + 1]
        for j in range(beta):
            for s in range(n0):
                images.append(_hom_basis_vector(
                    ring, beta_next, n0, j, s,
                    [(c, d_next[j][c]) for c in range(beta_next)]))
        allowed = _zero_hom_shifts(ring, beta_next, n0, b_cols)

    # boundaries: the image of the dual of d_i, plus the zero homs
    boundaries = _zero_hom_shifts(ring, beta, n0, b_cols)
    if i >= 1:
        d_cur = res.differential(i)
        beta_prev = res.ranks[i - 1]
        for jp in range(beta_prev):
            for s in range(n0):
                boundaries.append(_hom_basis_vector(
                    ring, beta, n0, jp, s,
                    [(j, d_cur[jp][j]) for j in range(beta)]))

    cycles = _minimal_kernel(ring, dom, images, allowed)
    return ExtModule(ring, cycles, boundaries, degree=i, source=M, target=N,
                     beta=beta, target_rank=n0)


def annihilates_ext(r: Polynomial, M: FinitelyPresentedModule,
                    N: FinitelyPresentedModule, i: int) -> bool:
    """True iff r * (every cycle generator) lies in the boundary span."""
    if not isinstance(r, Polynomial) or r.ring != M.ring.poly_ring:
        raise StructuralError("element must live in the presented ring")
    return ext_module(M, N, i).annihilated_by(r)


def stable_annihilation_test(r: Polynomial, M: FinitelyPresentedModule) -> bool:
    """Does r * id_M factor through a projective?

    Certified by r * Ext^1(M, Omega^1 M) = 0; a free module passes for
    every r outright.

    This is the shift-0 test.  In D_sg(R) a module is isomorphic to a
    shift of its syzygy Omega^s M, so r may annihilate M there while
    failing here; annihilator_bounds therefore also tries the syzygies up
    to its max_shift.  Over Q[x,y]/(x^2, xy), y fails on R/m^2 = R/(y^2),
    since Hom(R/(y^2), R) = (x) and y is not in (x) + (y^2), but passes on
    Omega^1(R/m^2) = (y^2), which is R/(x).
    """
    Mmin = minimal_presentation(M)
    if Mmin.is_zero_presentation():
        raise PreconditionError("the zero module has no stable identity")
    if Mmin.is_free_presentation():
        return True
    omega = syzygy_module(M, 1)
    if omega.is_zero_presentation():
        return True
    return annihilates_ext(r, M, omega, 1)


# ---------------------------------------------------------------------------
# ca^n evidence over a module corpus


@dataclass
class PairOutcome:
    source_index: int
    target_index: int
    outcome: str  # "pass" | "fail" | "budget-exhausted"


@dataclass
class CaWitnessReport:
    element: Polynomial
    degree: int
    entries: list
    verdict: str  # "proved-not-in" | "evidence-in" | "budget-exhausted"

    def failures(self):
        return [e for e in self.entries if e.outcome == "fail"]


def ca_witness(r: Polynomial, n: int, corpus, *,
               pair_budget: Budget | None = None) -> CaWitnessReport:
    """Annihilation evidence for r at Ext-degree n over all corpus pairs.

    A single failing pair proves r is not an annihilator at this degree;
    a clean sweep is evidence only, since the quantifier runs over all
    finitely generated modules.  With ``pair_budget`` each pair runs in a
    budget scope of its own.  A pair that runs out of that scope, or of a
    limit that names no scope, is recorded as budget-exhausted and the
    sweep goes on; running out of an enclosing scope's steps propagates.
    """
    corpus = list(corpus)
    entries = []
    for a, M in enumerate(corpus):
        for b, N in enumerate(corpus):
            scope = nullcontext() if pair_budget is None else budget_scope(pair_budget)
            with scope as meter:
                try:
                    ok = annihilates_ext(r, M, N, n)
                    entries.append(PairOutcome(a, b, "pass" if ok else "fail"))
                except BudgetExceededError as exc:
                    if exc.escapes(meter):
                        raise
                    entries.append(PairOutcome(a, b, "budget-exhausted"))
    if any(e.outcome == "fail" for e in entries):
        verdict = "proved-not-in"
    elif any(e.outcome == "budget-exhausted" for e in entries):
        verdict = "budget-exhausted"
    else:
        verdict = "evidence-in"
    return CaWitnessReport(r, n, entries, verdict)


def default_corpus(ring: RingPresentation, seed: int = 0):
    """The standard witness modules: cyclic staples plus one seeded matrix.

    Order: k, R, R/(x_i) in variable order, R/m^2, the first syzygy of k,
    and the cokernel of a sparse 2x3 matrix with degree-one entries drawn
    from the given seed.
    """
    k = FinitelyPresentedModule.residue_field(ring)
    out = [k, FinitelyPresentedModule.cyclic(ring, [])]
    variables = [ring.variable(i) for i in range(ring.nvars)]
    for v in variables:
        out.append(FinitelyPresentedModule.cyclic(ring, [v]))
    squares = [a * b for a, b in
               combinations_with_replacement(variables, 2)]
    out.append(FinitelyPresentedModule.cyclic(ring, squares))
    out.append(syzygy_module(k, 1))
    rng = random.Random(seed)
    zero = ring.poly_ring.zero()
    rows = []
    for _ in range(2):
        row = []
        for _ in range(3):
            if rng.random() < 0.5:
                row.append(zero)
            else:
                v = variables[rng.randrange(ring.nvars)]
                row.append(v.scale(ring.poly_ring.field.normalize(
                    rng.randint(1, 3))))
        rows.append(tuple(row))
    out.append(FinitelyPresentedModule(ring, 2, tuple(rows)))
    return out


# ---------------------------------------------------------------------------
# Koszul complexes and cohomology


class KoszulComplex:
    """K(f_1..f_l; M), cohomological, concentrated in degrees 0..l.

    The degree-i term is M^(l choose i) with basis e_S over i-subsets S in
    lexicographic order; the differential sends m e_S to the signed sum of
    f_j m e_(S + j) over j outside S, the sign counting inversions.
    """

    def __init__(self, ring: RingPresentation, sequence, module):
        sequence = list(sequence)
        for f in sequence:
            if not isinstance(f, Polynomial) or f.ring != ring.poly_ring:
                raise StructuralError("Koszul sequence from another ring")
        if module.ring != ring:
            raise StructuralError("Koszul module over another ring")
        self.ring = ring
        self.sequence = sequence
        self.base = minimal_presentation(module)

    @property
    def length(self) -> int:
        return len(self.sequence)

    def subsets(self, i: int):
        return list(combinations(range(self.length), i))

    def module_rank(self, i: int) -> int:
        if i < 0 or i > self.length:
            return 0
        return self.base.rank * len(self.subsets(i))

    def differential(self, i: int):
        """Flattened matrix of K^i -> K^(i+1); rows are codomain slots."""
        if i < 0 or i >= self.length:
            return ()
        ring = self.ring
        n0 = self.base.rank
        zero = ring.poly_ring.zero()
        dom = self.subsets(i)
        cod = self.subsets(i + 1)
        cod_index = {S: t for t, S in enumerate(cod)}
        rows = [[zero] * (n0 * len(dom)) for _ in range(n0 * len(cod))]
        for a, S in enumerate(dom):
            for j in range(self.length):
                if j in S:
                    continue
                T = tuple(sorted(S + (j,)))
                sign = sum(1 for s in S if s < j) % 2
                f = self.sequence[j]
                entry = f.scale(ring.poly_ring.field.normalize(-1)) if sign else f
                b = cod_index[T]
                for s in range(n0):
                    rows[b * n0 + s][a * n0 + s] = entry
        return tuple(tuple(r) for r in rows)

    def zero_hom_shifts(self, i: int):
        """Relations of M copied into every basis block of K^i."""
        n0 = self.base.rank
        blocks = len(self.subsets(i))
        return _zero_hom_shifts(self.ring, blocks, n0,
                                self.base.relation_columns())

    def cohomology_subquotient(self, i: int) -> Subquotient:
        if i < 0 or i > self.length:
            raise PreconditionError("Koszul degree out of range")
        ring = self.ring
        rank = self.module_rank(i)
        if rank == 0:
            return Subquotient(ring, 0, [], [])
        # at the top degree the differential is empty, so every vector is a cycle
        cycles = _minimal_kernel(ring, rank,
                                 matrix_columns(ring, self.differential(i)),
                                 self.zero_hom_shifts(i + 1))
        boundaries = self.zero_hom_shifts(i)
        if i >= 1:
            boundaries.extend(matrix_columns(ring, self.differential(i - 1)))
        return Subquotient(ring, rank, cycles, boundaries)


def koszul_complex(sequence, module: FinitelyPresentedModule) -> KoszulComplex:
    return KoszulComplex(module.ring, sequence, module)


def koszul_cohomology(sequence, module: FinitelyPresentedModule,
                      i: int) -> FinitelyPresentedModule:
    """H^i(K(f; M)) as a finitely presented module."""
    return koszul_complex(sequence, module).cohomology_subquotient(i).to_module()


def koszul_support_check(sequence, module: FinitelyPresentedModule) -> bool:
    """ann(M) + (f) lands in the radical of ann(H^i) for every i."""
    complex_ = koszul_complex(sequence, module)
    ann_m = module_annihilator(module)
    probes = list(ann_m.reduced_generators()) + [
        f for f in complex_.sequence if not f.is_zero()
    ]
    for i in range(complex_.length + 1):
        H = complex_.cohomology_subquotient(i).to_module()
        ann_h = module_annihilator(H)
        for g in probes:
            if not radical_membership(g, ann_h):
                return False
    return True
