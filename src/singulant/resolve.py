"""Free resolutions, minimal presentations, syzygy modules, and depth.

Modules are cokernels of polynomial matrices over a presentation R = P/I.
Resolutions are built by iterated syzygy computation over R; each step's
columns are trimmed to a minimal generating set, so for graded input the
resulting resolution is minimal (every differential entry lies in the
maximal ideal).  Depth comes from the Auslander-Buchsbaum identity
depth = nvars - pd_P applied to the restriction along P -> R, which is
always a finite computation.

A matrix, a module's relations or a resolution's differential, is stored
as its columns, elements of R^n in normal form modulo the defining ideal,
reduced once where they enter; its rows are a view (``transpose``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, PreconditionError, StructuralError, active_meter
from .groebner import ModuleElement, PairLoop, buchberger, normal_form, syzygies
from .ideal_ops import RingPresentation
from .poly import Polynomial

INFINITE = "infinite"


# ---------------------------------------------------------------------------
# matrices as columns


def transpose(ring: RingPresentation, rank: int, cols):
    """The rows of the matrix whose columns are ``cols``, elements of R^rank:
    row a is the element of R^len(cols) whose coordinate b is coordinate a
    of cols[b]."""
    terms = [[] for _ in range(rank)]
    for b, col in enumerate(cols):
        for a, m, k in col.terms:
            terms[a].append((b, m, k))
    return [ModuleElement.from_terms(ring.poly_ring, len(cols), t) for t in terms]


class FinitelyPresentedModule:
    """coker(d): R^rank divided by the span of ``columns``, the nonzero
    relations in normal form; ``rows`` is d row by row, () with no relations."""

    def __init__(self, ring: RingPresentation, rank: int, rows=(), shifts=None):
        if rank < 0:
            raise StructuralError("negative rank")
        rows = tuple(tuple(row) for row in rows)
        if rows and len(rows) != rank:
            raise StructuralError("row count must equal the rank")
        if len({len(row) for row in rows}) > 1:
            raise StructuralError("ragged matrix")
        for row in rows:
            for entry in row:
                if not isinstance(entry, Polynomial) or entry.ring != ring.poly_ring:
                    raise StructuralError("matrix entry from another ring")
        self.ring = ring
        self.rank = rank
        cols = (ring.normal_form_element(ModuleElement(ring.poly_ring, [row[j] for row in rows]))
                for j in range(len(rows[0]) if rows else 0))
        self.columns = tuple(c for c in cols if not c.is_zero())
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, ring: RingPresentation, rank: int, shifts=None):
        return cls(ring, rank, (), shifts)

    @classmethod
    def cyclic(cls, ring: RingPresentation, gens):
        """R/(gens) as a module: rank one, one relation column per generator."""
        gens = [g for g in gens if not g.is_zero()]
        return cls(ring, 1, (tuple(gens),) if gens else ())

    @classmethod
    def residue_field(cls, ring: RingPresentation):
        return cls.cyclic(ring, [ring.variable(i) for i in range(ring.nvars)])

    @classmethod
    def from_columns(cls, ring: RingPresentation, rank: int, cols, shifts=None):
        """coker of the columns ``cols``, elements of R^rank that are already
        in normal form modulo the defining ideal, as trim, ``kernel_into``,
        a pivot step and a resolution's pending kernel leave them; zero
        columns are dropped and nothing is reduced again."""
        module = cls(ring, rank, (), shifts)
        module.columns = tuple(c for c in cols if not c.is_zero())
        return module

    # -- views ----------------------------------------------------------------

    @property
    def rows(self):
        rows = tuple(row.coords for row in transpose(self.ring, self.rank, self.columns))
        return rows if self.columns else ()

    @property
    def n_relations(self) -> int:
        return len(self.columns)

    def is_free_presentation(self) -> bool:
        return self.n_relations == 0

    def is_zero_presentation(self) -> bool:
        return self.rank == 0

    def __eq__(self, other):
        return (
            isinstance(other, FinitelyPresentedModule)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.columns == other.columns
        )

    def __repr__(self):
        return (f"FinitelyPresentedModule(rank={self.rank}, "
                f"relations={self.n_relations})")


# ---------------------------------------------------------------------------
# minimal generating sets, read through the grading


def column_degree(col: ModuleElement, shifts) -> int:
    """The largest shifted degree deg m + shifts[pos] of col's terms, the
    degree of col when it is homogeneous; -1 for the zero column."""
    return max((m.degree + shifts[pos] for pos, m, _ in col.terms), default=-1)


def seeded_loop(ring: RingPresentation, rank: int, shifts=None, gens=()) -> PairLoop:
    """A ``PairLoop`` graded by ``shifts`` holding defining * R^rank, seeded
    from the rows of the ring's one defining basis (``PairLoop.seed``),
    then ``gens``, each reduced as it is added; it charges the active
    budget scope."""
    loop = PairLoop(ring.poly_ring, rank, active_meter(), shifts)
    loop.seed(ring.defining_basis(), range(rank))
    for el in gens:
        loop.add(loop.reduce(el))
    return loop


def trim_generators(ring: RingPresentation, cols, rank: int, shifts=None):
    """Greedy minimal generating subset, processed by ascending degree.

    Each candidate is tested against one ``PairLoop`` of the kept columns
    plus defining * R^rank, graded by ``shifts``, which grows as columns
    are kept.  The loop is completed just before each test, through the
    candidate's degree when the candidate and everything added are
    homogeneous, fully otherwise; either way the test is exact membership
    in the span of the columns kept so far.

    For graded input the result is a minimal generating set: if a kept
    element lay in the span of the other kept elements, the span witnesses
    would only involve elements of no larger degree, so the element would
    already have been rejected when it was tested.  For non-graded input
    the result still generates, but minimality is heuristic.  The first
    column is always kept.  The loop's steps count against the active
    budget scope.
    """
    if shifts is None:
        shifts = (0,) * rank
    cols = [c for c in cols if not c.is_zero()]
    order = sorted(range(len(cols)),
                   key=lambda j: (column_degree(cols[j], shifts), j))
    loop = seeded_loop(ring, rank, shifts)
    kept = []
    for j in order:
        nf = loop.normal_form(cols[j])
        if kept and nf.is_zero():
            continue
        kept.append(cols[j])
        loop.add(nf)
    return kept


def minimal_kernel(ring: RingPresentation, domain_rank: int, images, allowed,
                   shifts=None):
    """``ring.kernel_into`` trimmed to a minimal generating set (graded
    by ``shifts`` on the domain), in column order."""
    cols = ring.kernel_into(domain_rank, images, allowed)
    return ring.sort_columns(trim_generators(ring, cols, domain_rank, shifts))


def _has_constant_term(cols) -> bool:
    return any(m.degree == 0 for col in cols for _, m, _ in col.terms)


def minimal_presentation(module: FinitelyPresentedModule) -> FinitelyPresentedModule:
    """Isomorphic presentation with no constant pivots and no redundant
    columns, or the zero module.

    A column whose coordinate a is a nonzero constant, the first in
    row-major order, lets generator a be written in terms of the others:
    column operations clear row a, the generator and the column are
    deleted, and only the changed columns are put back in normal form.
    A unit that is not constant survives this (x + 1 over Q[x,y]/(x^2)),
    so while a column or defining generator has a constant term the
    module is zero exactly when its columns and I * R^rank span R^rank,
    one ``seeded_loop`` membership test per unit vector.  Otherwise every
    entry vanishes at the origin, a point of V(I), so M/mM = k^rank and M
    is not zero.  A unit that kills only some generators stays.  The
    remaining columns are trimmed to a minimal generating set.
    """
    ring = module.ring
    pring, field = ring.poly_ring, ring.poly_ring.field
    cols, rank, shifts = list(module.columns), module.rank, list(module.shifts)
    while True:
        # a degree-0 term is the last at its position, so the only one there
        # when the term before it lies at another position
        pivot = min(((a, b, k) for b, col in enumerate(cols)
                     for i, (a, m, k) in enumerate(col.terms)
                     if m.degree == 0 and (i == 0 or col.terms[i - 1][0] != a)), default=None)
        if pivot is None:
            break
        a, b, k = pivot
        pcol, scale = cols.pop(b), field.neg(field.invert(k))
        rank -= 1
        shifts.pop(a)
        cleared = []
        for col in cols:
            # col - (col_a / k) * pcol vanishes at a, which is deleted
            entry = [(m, c) for p, m, c in col.terms if p == a]
            col = ModuleElement.from_terms(pring, rank, [
                (p - (p > a), m, c) for p, m, c in col.terms + tuple(
                    (p, m.mul(em), field.mul(c, field.mul(ec, scale)))
                    for p, m, c in pcol.terms for em, ec in entry) if p != a])
            cleared.append(ring.normal_form_element(col) if entry else col)
        cols = [col for col in cleared if not col.is_zero()]

    if rank and (_has_constant_term(cols) or _has_constant_term(ring.defining_basis().elements)):
        loop = seeded_loop(ring, rank, shifts, cols)
        if all(loop.normal_form(ModuleElement.unit(pring, rank, t)).is_zero()
               for t in range(rank)):
            rank = 0
    if rank == 0:
        return FinitelyPresentedModule(ring, 0)
    cols = ring.sort_columns(trim_generators(ring, cols, rank, shifts))
    return FinitelyPresentedModule.from_columns(ring, rank, cols, shifts)


# ---------------------------------------------------------------------------
# free resolutions


@dataclass
class FreeResolution:
    """Chain of free modules F_0 <- F_1 <- ... <- F_L covering a module.

    ``ranks`` lists beta_0..beta_L; ``columns`` lists the columns of
    d_1..d_L, those of d_i elements of R^ranks[i-1] in normal form, one per
    basis vector of F_i; ``differentials`` is their row-major view.
    ``pending`` holds the columns of d_(L+1): the minimal generators of
    ker d_L, or at L = 0 the relations of the presentation; ``grow``
    appends them next.  ``complete`` records that they were computed and
    found zero, certifying pd = L.  ``periodic`` records a detected
    repetition (step, period) of differentials, certifying infinite
    projective dimension; ``pending`` is then None.

    So a resolution of length L determines d_1..d_(L+1), hence Omega^0 to
    Omega^L and Ext^0 to Ext^L, and every later step once it is complete,
    but only d_1..d_L when ``pending`` is None.  ``columns_of`` applies this.
    """

    ring: RingPresentation
    ranks: list
    columns: list
    shifts: list
    minimal: bool
    complete: bool
    periodic: object = None
    pending: list = field(default=None, repr=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def columns_of(self, i: int):
        """The columns of d_i (1-indexed, matching the subscripts); none
        past the end of a complete resolution, refused past its reach."""
        if i < 1:
            raise PreconditionError("resolution steps are numbered from 1")
        if i <= self.length:
            return self.columns[i - 1]
        if self.pending is None or (i > self.length + 1 and not self.complete):
            raise PreconditionError(f"resolution stops before step {i}")
        return self.pending if i == self.length + 1 else []

    def differential(self, i: int):
        """d_i as a row-major matrix of ranks[i-1] rows, () past the end
        of a complete resolution (``columns_of``)."""
        cols = self.columns_of(i)
        rank = self.ranks[i - 1] if i <= self.length + 1 else 0
        return tuple(row.coords for row in transpose(self.ring, rank, cols))

    @property
    def differentials(self):
        return [self.differential(i) for i in range(1, self.length + 1)]

    def betti(self):
        return list(self.ranks)

    def projective_dimension(self):
        """The certified value: an int, INFINITE, or None when truncated."""
        if self.periodic is not None:
            return INFINITE
        if self.complete:
            return self.length
        return None

    def is_minimal_certified(self) -> bool:
        """No column of d_1..d_L has a term of degree 0."""
        return not any(_has_constant_term(cols) for cols in self.columns)

    def syzygy(self, n: int) -> FinitelyPresentedModule:
        """Omega^n of the resolved module: coker of d_(n+1) on F_n, so any
        n up to the length, and zero past the end of a complete resolution."""
        cols = self.columns_of(n + 1)
        if n > self.length:
            return FinitelyPresentedModule(self.ring, 0)
        return FinitelyPresentedModule.from_columns(self.ring, self.ranks[n], cols,
                                                    self.shifts[n])

    def grow(self, length: int, *, detect_periodicity: bool = False) -> FreeResolution:
        """Carry the resolution on, in place, out to step ``length``.

        Stops early when the pending syzygies vanish (finite projective
        dimension, flagged complete).  With ``detect_periodicity`` it also
        stops when a differential repeats the previous one or the one
        before that: the construction is deterministic in the matrix
        alone, so an exact repeat proves the resolution continues
        periodically forever.  Each step computes its kernel before it
        appends anything, so a step that runs out of budget leaves the
        resolution as the step before left it.
        """
        while self.length < length and self.pending:
            cols = self.pending
            col_shifts = [column_degree(c, self.shifts[-1]) for c in cols]
            period = next((p for p in (1, 2) if detect_periodicity
                           and len(self.columns) >= p and self.columns[-p] == cols), None)
            kernel = None if period else minimal_kernel(self.ring, len(cols), cols, (),
                                                         col_shifts)
            self.columns.append(cols)
            self.ranks.append(len(cols))
            self.shifts.append(col_shifts)
            self.pending = kernel
            if period:
                self.periodic = (self.length, period)
        self.complete = self.pending == []
        self.minimal = self.is_minimal_certified()
        return self


def free_resolution(module: FinitelyPresentedModule, length: int, *,
                    detect_periodicity: bool = True) -> FreeResolution:
    """Resolution of coker(presentation) out to homological degree ``length``:
    its minimal presentation, carried on by ``FreeResolution.grow``.  It
    determines d_(length+1), so Omega^length and Ext^length are read off it."""
    if length < 0:
        raise PreconditionError("resolution length must be nonnegative")
    mod = minimal_presentation(module)
    res = FreeResolution(mod.ring, [mod.rank], [], [list(mod.shifts)], True, False,
                         pending=list(mod.columns))
    return res.grow(length, detect_periodicity=detect_periodicity)


def check_complex(res: FreeResolution) -> bool:
    """d_i o d_(i+1) = 0 over R, verified column by column."""
    ring = res.ring
    field = ring.poly_ring.field
    for i in range(1, res.length):
        a = res.columns_of(i)
        for col in res.columns_of(i + 1):
            image = ModuleElement.from_terms(ring.poly_ring, res.ranks[i - 1], [
                (p, m.mul(mk), field.mul(c, ck))
                for k, mk, ck in col.terms for p, m, c in a[k].terms])
            if not ring.normal_form_element(image).is_zero():
                return False
    return True


def check_exactness(res: FreeResolution) -> bool:
    """ker d_i = im d_(i+1) at every interior step.

    The inclusion of the image in the kernel is check_complex; for the
    converse a fresh syzygy run generates the kernel and each generator is
    reduced against the span of the next differential's columns.  The last
    step is only checked when the resolution is complete, in which case
    the kernel there must vanish.
    """
    ring = res.ring
    if not check_complex(res):
        return False
    for i in range(1, res.length + 1):
        if i == res.length and not res.complete:
            break
        cols = res.columns_of(i)
        if not cols:
            continue
        kernel = syzygies(cols, defining=ring.defining_basis())
        kernel = [ring.normal_form_element(el) for el in kernel]
        kernel = [el for el in kernel if not el.is_zero()]
        if not kernel:
            continue
        if i == res.length:
            return False
        nxt = res.columns_of(i + 1)
        if not nxt:
            return False
        gb = buchberger(nxt, defining=ring.defining_basis(), ring=ring.poly_ring,
                        rank=len(cols))
        for el in kernel:
            if not normal_form(el, gb).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# syzygy modules, projective dimension, depth


def syzygy_module(module: FinitelyPresentedModule, n: int) -> FinitelyPresentedModule:
    """The n-th syzygy in the minimal resolution: ``FreeResolution.syzygy``
    of the resolution out to step n, which reaches d_(n+1); Omega^0 is the
    minimal presentation.

    Periodicity detection is switched off so the resolution is always
    carried honestly out to step n (or until it stops by itself).  A
    caller that also needs the resolution, say for Ext^n(module, -), or
    more syzygies, keeps one resolution, reads each syzygy off it and
    carries it on with ``FreeResolution.grow``.
    """
    return free_resolution(module, n, detect_periodicity=False).syzygy(n)


def restrict_to_ambient(module: FinitelyPresentedModule) -> FinitelyPresentedModule:
    """The same underlying group as a module over the polynomial ring.

    The relations gain one column g * e_a for every defining generator g
    and every free position a.
    """
    ring = module.ring
    amb = ring.ambient()
    cols = list(module.columns)
    if ring.defining:
        cols += [ModuleElement.unit(amb.poly_ring, module.rank, a, g)
                 for g in ring.defining_basis().polynomials() for a in range(module.rank)]
    return FinitelyPresentedModule.from_columns(amb, module.rank, cols, module.shifts)


def projective_dimension_over_ambient(module: FinitelyPresentedModule) -> int:
    """pd over the polynomial ring; always finite, at most nvars."""
    restricted = restrict_to_ambient(module)
    bound = restricted.ring.nvars + 1
    res = free_resolution(restricted, bound, detect_periodicity=False)
    if not res.complete:
        raise BudgetExceededError(
            "resolution over the polynomial ring did not terminate within "
            f"{bound} steps")
    return res.length


def depth(module: FinitelyPresentedModule) -> int:
    """nvars minus the ambient projective dimension (Auslander-Buchsbaum)."""
    if minimal_presentation(module).is_zero_presentation():
        raise PreconditionError("depth of the zero module is undefined")
    return module.ring.nvars - projective_dimension_over_ambient(module)


def ring_depth(ring: RingPresentation) -> int:
    """Depth of R as a module over itself."""
    return depth(FinitelyPresentedModule.cyclic(ring, []))
