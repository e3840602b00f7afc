"""Ext modules, Koszul cohomology, and element-annihilation tests.

Both are H^i of a cochain complex of free modules with coefficients in
N = coker(B) of rank n0: Ext^i(M, N) = H^i(Hom(F, N)) over a free
resolution F of M, and K(f; N) = K(f; R) (x) N.  ``_cohomology`` builds
either from the R-level maps into and out of the term C = R^b, which it
lays out as R^b (x) R^n0 = R^(b*n0), block j holding the image of the j-th
basis vector.  The maps become map (x) id_n0 and the "zero homomorphisms"
id_b (x) B, the relations of N in every block, are part of every boundary
module.  The cohomology is a subquotient cycles/boundaries of R^(b*n0),
where membership of r * (cycle) in the boundary span decides whether r
annihilates the cohomology class.

The stable test, r * Ext^1(M, Omega^1 M) = 0, builds no Ext group:
``StableSpan`` decides it by one membership test on a presentation of M.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import Budget, PreconditionError, StructuralError, active_meter, guarded
# buchberger and trim_generators are unused here but stay importable from
# this module, where perfbench's tracer rebinds and checks every alias of them
from .groebner import ModuleElement, buchberger  # noqa: F401
from .ideal_ops import IdealHandle, RingPresentation, radical_membership
from .poly import Monomial, Polynomial
from .resolve import (  # noqa: F401
    FinitelyPresentedModule,
    FreeResolution,
    column_degree,
    free_resolution,
    minimal_kernel,
    minimal_presentation,
    seeded_loop,
    syzygy_module,
    transpose,
    trim_generators,
)


# ---------------------------------------------------------------------------
# subquotients cycles/boundaries inside a free module


class Subquotient:
    """Z/B for submodules B <= Z <= R^rank, kept as generator lists.

    Both are kept as given, in normal form: cycles as minimal_kernel
    returns them, boundaries as ``_cohomology`` builds them, from
    normal-form entries times units.  Zero boundaries are dropped.
    """

    def __init__(self, ring: RingPresentation, rank: int, cycles, boundaries):
        self.ring = ring
        self.rank = rank
        self.cycles = list(cycles)
        self.boundaries = [b for b in boundaries if not b.is_zero()]
        self._loop = None

    def is_boundary(self, el: ModuleElement) -> bool:
        """Membership in the span of the boundaries and I * R^rank, one
        ``seeded_loop`` built on the first test and charged to the active
        budget scope.  An element its current elements already reduce to
        zero needs no completion."""
        if self._loop is None:
            self._loop = seeded_loop(self.ring, self.rank, gens=self.boundaries)
        self._loop.meter = active_meter()
        nf = self._loop.reduce(el)
        return nf.is_zero() or self._loop.normal_form(nf).is_zero()

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
        cols = minimal_kernel(ring, t, self.cycles, self.boundaries)
        raw = FinitelyPresentedModule.from_columns(ring, t, cols)
        return minimal_presentation(raw)

    def k_dimension(self):
        return module_k_dimension(self.to_module())


def _units(one: Polynomial, n: int):
    return [ModuleElement.unit(one.ring, n, t, one) for t in range(n)]


def _kron(a_cols, b_cols):
    """The columns a (x) b, a outer and b inner: coordinate c*q + s of
    a (x) b is a_c * b_s, where q is the rank of b."""
    return [ModuleElement.from_terms(a.ring, a.rank * b.rank, [
        (pa * b.rank + pb, ma.mul(mb), a.ring.field.mul(ka, kb))
        for pa, ma, ka in a.terms for pb, mb, kb in b.terms]) for a in a_cols for b in b_cols]


def _cohomology(ring: RingPresentation, into, out, rank: int, N: FinitelyPresentedModule):
    """(cycles, boundaries) of the cohomology at C = R^rank (x) N.

    ``into`` holds the R-level columns of the map into C, each in R^rank,
    and ``out`` the rank columns of the map out of C, or nothing for the
    zero map, when every vector is a cycle.  N must be a minimal
    presentation.  The cycles are the kernel of out (x) id_n0 into the zero
    homs of the next term, the boundaries the zero homs of C and then the
    image of into (x) id_n0.
    """
    one, n0, b_cols = ring.poly_ring.one(), N.rank, N.columns
    out_rank = out[0].rank if out else 0
    cycles = minimal_kernel(ring, rank * n0, _kron(out, _units(one, n0)),
                            _kron(_units(one, out_rank), b_cols))
    boundaries = _kron(_units(one, rank), b_cols) + _kron(into, _units(one, n0))
    return cycles, boundaries


def module_k_dimension(module: FinitelyPresentedModule):
    """Total dimension over the base field, or None when not finite.

    Counts standard module monomials, slot by slot, against the leads of a
    Groebner basis of the relations and I * R^rank, one ``seeded_loop``
    completed; a slot whose count never reaches zero before the active
    budget scope's max_degree makes the result None rather than a guess.
    The count is the same for every presentation of the module.
    """
    ring = module.ring
    if module.rank == 0:
        return 0
    max_degree = active_meter().max_degree
    loop = seeded_loop(ring, module.rank, gens=module.columns)
    loop.complete()
    leads = {s: [] for s in range(module.rank)}
    for el in loop.basis:
        pos, mono, _ = el.lead()
        leads[pos].append(mono)
    nvars = ring.nvars
    total = 0
    for s in range(module.rank):
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
    """ann(M) for M = coker(B) of rank n: the r with r e_s in the span of
    B for every s, one colon of the diagonal vector (e_0 | ... | e_(n-1))
    of R^(n*n) into B copied into each block.  Any presentation of M gives
    the same ideal; a minimal one gives the smallest colon."""
    ring = module.ring
    pring = ring.poly_ring
    n = module.rank
    if n == 0:
        return IdealHandle(ring, [pring.one()])
    diagonal = ModuleElement(pring, [pring.one() if t % (n + 1) == 0 else pring.zero()
                                     for t in range(n * n)])
    allowed = _kron(_units(pring.one(), n), module.columns)
    return IdealHandle(ring, [v.coords[0] for v in ring.kernel_into(1, [diagonal], allowed)])


# ---------------------------------------------------------------------------
# Ext via the dual of the minimal free resolution


class ExtModule(Subquotient):
    """Ext^i(M, N) as a certified subquotient of Hom(F_i, N) in R^rank,
    rank = beta * target_rank: beta is the rank of F_i and target_rank
    that of the minimal presentation of N."""

    def __init__(self, ring: RingPresentation, cycles, boundaries, *, degree: int,
                 beta: int, target_rank: int):
        super().__init__(ring, beta * target_rank, cycles, boundaries)
        self.degree = degree
        self.beta = beta
        self.target_rank = target_rank


def ext_module(M: FinitelyPresentedModule, N: FinitelyPresentedModule,
               i: int) -> ExtModule:
    """Ext^i_R(M, N): ``ext_from_resolution`` on the resolution of M out
    to step i, which reaches d_(i+1), and the minimal presentation of N."""
    if i < 0:
        raise PreconditionError("Ext degree must be nonnegative")
    Nmin = minimal_presentation(N)
    return ext_from_resolution(free_resolution(M, i, detect_periodicity=False), Nmin, i)


def ext_from_resolution(res: FreeResolution, N: FinitelyPresentedModule,
                        i: int) -> ExtModule:
    """Ext^i_R(M, N) from ``res``, a minimal resolution of M, dualized into N.

    N must already be a minimal presentation: its rank is the block size
    of Hom(F_i, N), and it is not trimmed again here.  ``res`` must reach
    step i, so that it determines d_(i+1), as ``free_resolution(M, i,
    detect_periodicity=False)`` always does; one resolution of M serves
    every target N.
    """
    if i < 0:
        raise PreconditionError("Ext degree must be nonnegative")
    if res.ring != N.ring:
        raise StructuralError("Ext arguments must share one ring presentation")
    d_out = res.columns_of(i + 1)
    ring = res.ring
    n0 = N.rank
    if res.length < i or n0 == 0:
        return ExtModule(ring, [], [], degree=i, beta=0, target_rank=n0)
    beta = res.ranks[i]
    # the columns of a dual map are the rows of d; a d with no columns ends
    # a complete resolution, and then every vector is a cycle
    into = transpose(ring, res.ranks[i - 1], res.columns_of(i)) if i else []
    out = transpose(ring, beta, d_out) if d_out else []
    cycles, boundaries = _cohomology(ring, into, out, beta, N)
    return ExtModule(ring, cycles, boundaries, degree=i, beta=beta, target_rank=n0)


def _check_element(r, ring: RingPresentation):
    if not isinstance(r, Polynomial) or r.ring != ring.poly_ring:
        raise StructuralError("element must live in the presented ring")


def annihilates_ext(r: Polynomial, M: FinitelyPresentedModule,
                    N: FinitelyPresentedModule, i: int) -> bool:
    """True iff r * (every cycle generator) lies in the boundary span."""
    _check_element(r, M.ring)
    return ext_module(M, N, i).annihilated_by(r)


def stable_annihilation_test(r: Polynomial, M: FinitelyPresentedModule) -> bool:
    """Does r * id_M factor through a projective?  ``StableSpan`` decides
    it on the minimal presentation of M, which also tells whether M is zero,
    or free, when every r passes.

    This is the shift-0 test.  In D_sg(R) a module is isomorphic to a
    shift of its syzygy Omega^s M, so r may annihilate M there while
    failing here; annihilator_bounds therefore also tries the syzygies up
    to its _MAX_SHIFT.  Over Q[x,y]/(x^2, xy), y fails on R/m^2 = R/(y^2),
    since Hom(R/(y^2), R) = (x) and y is not in (x) + (y^2), but passes on
    Omega^1(R/m^2) = (y^2), which is R/(x).
    """
    _check_element(r, M.ring)
    mod = minimal_presentation(M)
    if mod.is_zero_presentation():
        raise PreconditionError("the zero module has no stable identity")
    return mod.is_free_presentation() or StableSpan(mod).factors(r)


class StableSpan:
    """The stable test on a presentation M = coker(d) with relations,
    d: F_1 -> F_0 of size b0 x b1 over R = S/I.

    r * id_M factors through a projective iff it factors through the cover
    p: F_0 -> M, along which maps from projectives lift: iff p g = r * id
    for a g: M -> F_0, induced by some G = r + d Phi on F_0 and well defined
    iff (r + d Phi) d = 0.  So r passes iff r * d lies in the span of the
    products d E_ji d = d[:, j] (x) d[i, :], plus I * R^(b0*b1), flattened
    row by row: r * Ext^1(M, Omega^1 M) = 0 (Buchweitz 1986; Iyengar-
    Takahashi 2016).  On a cyclic M = R/J it reads r in J + (0 : J).

    The span is one ``PairLoop`` holding I * R^(b0*b1) (``seeded_loop``)
    and the products, completed only as far as a query needs.  Position (a, b)
    is shifted by s_a - c_b, s_a being row a's shift and c_b the degree of
    column b.  When d is homogeneous under those degrees, d has shifted
    degree 0, each product d E_ji d the degree c_j - s_i of the entry d_ij,
    and r * d the degree of r; ``factors(r)`` then completes the loop
    through deg r only.  A non-homogeneous r, column or defining ideal
    makes r * d or the loop non-homogeneous, and the loop completes fully.
    """

    def __init__(self, module: FinitelyPresentedModule):
        ring = module.ring
        pring = ring.poly_ring
        cols = module.columns
        degrees = [column_degree(c, module.shifts) for c in cols]
        rows = transpose(ring, module.rank, cols)
        self.d = ModuleElement(pring, [e for row in rows for e in row.coords])
        self.loop = seeded_loop(ring, self.d.rank,
                                [s - c for s in module.shifts for c in degrees],
                                _kron(cols, rows))

    def factors(self, r: Polynomial) -> bool:
        """Does r * d lie in the span, so r * id_M factor through F_0?  The
        loop's completion is charged to the active budget scope; a query
        that runs out leaves the loop where it stopped, and a later query
        resumes it."""
        self.loop.meter = active_meter()
        return self.loop.normal_form(self.d.mul_poly(r)).is_zero()


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
    """``ca_witness_from_resolutions`` over all pairs of ``corpus``, on each
    source's resolution out to step n and each target's minimal
    presentation, each taken in a ``pair_budget`` scope of its own."""
    corpus = list(corpus)
    for M in corpus:
        _check_element(r, M.ring)
    resolutions = [
        guarded(pair_budget, lambda: free_resolution(M, n, detect_periodicity=False))
        for M in corpus]
    targets = [guarded(pair_budget, lambda: minimal_presentation(N)) for N in corpus]
    return ca_witness_from_resolutions(r, n, resolutions, targets, pair_budget=pair_budget)


def ca_witness_from_resolutions(r: Polynomial, n: int, resolutions, targets, *,
                                pair_budget: Budget | None = None) -> CaWitnessReport:
    """Annihilation evidence for r at Ext-degree n over all pairs (M, N).

    A single failing pair proves r is not an annihilator at this degree;
    a clean sweep is evidence only, since the quantifier runs over all
    finitely generated modules.  ``resolutions`` holds a resolution of
    each source that reaches step n, which determines d_(n+1), ``targets``
    the minimal presentation of each target; a None in either, left by a step
    that ran out, makes each of its pairs budget-exhausted.  A pair only
    builds Ext^n(M, N) and tests r on it, in a ``pair_budget`` scope of
    its own.  Running out of that scope, or of a limit that names no
    scope, leaves the pair budget-exhausted and the sweep goes on; running
    out of an enclosing scope's steps propagates.
    """
    for res in filter(None, resolutions):
        _check_element(r, res.ring)
    entries = []
    for a, res in enumerate(resolutions):
        for b, N in enumerate(targets):
            ok = None if res is None or N is None else guarded(
                pair_budget, lambda: ext_from_resolution(res, N, n).annihilated_by(r))
            outcome = "budget-exhausted" if ok is None else "pass" if ok else "fail"
            entries.append(PairOutcome(a, b, outcome))
    if any(e.outcome == "fail" for e in entries):
        verdict = "proved-not-in"
    elif any(e.outcome == "budget-exhausted" for e in entries):
        verdict = "budget-exhausted"
    else:
        verdict = "evidence-in"
    return CaWitnessReport(r, n, entries, verdict)


def corpus_labels(ring: RingPresentation):
    """Stable display names matching the default corpus order."""
    labels = ["k", "R"]
    labels += [f"R/({nm})" for nm in ring.names]
    labels += ["R/m^2", "syz1(k)", "coker(2x3 seeded)"]
    return labels


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

    The degree-i term is K^i(f; R) (x) M = M^(l choose i), with basis e_S
    over i-subsets S in lexicographic order; the differential sends m e_S
    to the signed sum of f_j m e_(S + j) over j outside S, the sign
    counting inversions.  ``differential(i)`` gives that map on K(f; R)
    alone, one R-level column per S, and ``_cohomology`` tensors it with M.
    The sequence is kept in normal form, as the boundaries built from it
    must be.
    """

    def __init__(self, ring: RingPresentation, sequence, module):
        sequence = list(sequence)
        for f in sequence:
            if not isinstance(f, Polynomial) or f.ring != ring.poly_ring:
                raise StructuralError("Koszul sequence from another ring")
        if module.ring != ring:
            raise StructuralError("Koszul module over another ring")
        self.ring = ring
        self.sequence = [ring.normal_form(f) for f in sequence]
        self.base = minimal_presentation(module)

    @property
    def length(self) -> int:
        return len(self.sequence)

    def subsets(self, i: int):
        return list(combinations(range(self.length), i))

    def differential(self, i: int):
        """Columns of K^i(f; R) -> K^(i+1)(f; R), one per i-subset S: +-f_j
        at S + j for each j outside S; none outside degrees 0..l-1."""
        if i < 0 or i >= self.length:
            return []
        pring = self.ring.poly_ring
        fneg = pring.field.neg
        cod_index = {T: t for t, T in enumerate(self.subsets(i + 1))}
        cols = []
        for S in self.subsets(i):
            terms = []
            for j in range(self.length):
                if j in S:
                    continue
                pos = cod_index[tuple(sorted(S + (j,)))]
                odd = sum(1 for s in S if s < j) % 2
                terms.extend((pos, m, fneg(k) if odd else k)
                             for m, k in self.sequence[j].terms)
            cols.append(ModuleElement.from_terms(pring, len(cod_index), terms))
        return cols

    def cohomology_subquotient(self, i: int) -> Subquotient:
        if i < 0 or i > self.length:
            raise PreconditionError("Koszul degree out of range")
        ring, base, rank = self.ring, self.base, comb(self.length, i)
        if base.rank == 0:
            return Subquotient(ring, 0, [], [])
        cycles, boundaries = _cohomology(ring, self.differential(i - 1), self.differential(i),
                                         rank, base)
        return Subquotient(ring, rank * base.rank, cycles, boundaries)


def koszul_complex(sequence, module: FinitelyPresentedModule) -> KoszulComplex:
    return KoszulComplex(module.ring, sequence, module)


def koszul_cohomology(sequence, module: FinitelyPresentedModule,
                      i: int) -> FinitelyPresentedModule:
    """H^i(K(f; M)) as a finitely presented module."""
    return koszul_complex(sequence, module).cohomology_subquotient(i).to_module()


def koszul_support_check(sequence, module: FinitelyPresentedModule) -> bool:
    """ann(M) + (f) lands in the radical of ann(H^i) for every i."""
    complex_ = koszul_complex(sequence, module)
    ann_m = module_annihilator(complex_.base)
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
