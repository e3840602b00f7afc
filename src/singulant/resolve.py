"""Free resolutions, minimal presentations, syzygy modules, and depth.

Modules are cokernels of polynomial matrices over a presentation R = P/I.
Resolutions are built by iterated syzygy computation over R; each step's
columns are trimmed to a minimal generating set, so for graded input the
resulting resolution is minimal (every differential entry lies in the
maximal ideal).  Depth comes from the Auslander-Buchsbaum identity
depth = nvars - pd_P applied to the restriction along P -> R, which is
always a finite computation.

Matrices are stored as tuples of rows; the columns of a differential
F_i -> F_{i-1} are the relation vectors, read as elements of R^(rank F_{i-1}).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, PreconditionError, StructuralError, active_meter
from .groebner import ModuleElement, PairLoop, buchberger, normal_form, syzygies
from .ideal_ops import RingPresentation
from .poly import Polynomial

INFINITE = "infinite"


# ---------------------------------------------------------------------------
# matrices as row tuples


def matrix_columns(ring: RingPresentation, rows):
    """Columns of a row-major matrix, as module elements of rank len(rows)."""
    if not rows:
        return []
    ncols = len(rows[0])
    return [
        ModuleElement(ring.poly_ring, [row[j] for row in rows])
        for j in range(ncols)
    ]


def columns_to_rows(rank: int, cols):
    """Row-major matrix of the given rank whose columns are ``cols``."""
    coords = [col.coords for col in cols]
    return tuple(tuple(c[i] for c in coords) for i in range(rank))


class FinitelyPresentedModule:
    """coker(matrix): R^rank divided by the span of the matrix columns."""

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
        if ring.defining and rows:
            rows = tuple(tuple(ring.normal_form(e) for e in row) for row in rows)
        # drop relation columns that are identically zero
        if rows:
            keep = [
                j for j in range(len(rows[0]))
                if any(not row[j].is_zero() for row in rows)
            ]
            rows = tuple(tuple(row[j] for j in keep) for row in rows)
            if rows and not rows[0]:
                rows = ()
        self.rows = rows
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
        return cls(ring, rank, columns_to_rows(rank, cols), shifts)

    # -- views ----------------------------------------------------------------

    @property
    def n_relations(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def relation_columns(self):
        return matrix_columns(self.ring, self.rows)

    def is_free_presentation(self) -> bool:
        return self.n_relations == 0

    def is_zero_presentation(self) -> bool:
        return self.rank == 0

    def __eq__(self, other):
        return (
            isinstance(other, FinitelyPresentedModule)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.rows == other.rows
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


def minimal_presentation(module: FinitelyPresentedModule) -> FinitelyPresentedModule:
    """Isomorphic presentation with no unit entries and no redundant columns.

    A relation entry that reduces to a nonzero constant lets one generator
    be rewritten in terms of the others; row/column reduction deletes that
    generator together with the relation.  Surviving columns are then
    trimmed to a minimal generating set of the relation module.
    """
    ring = module.ring
    rows = [list(r) for r in module.rows]
    rank = module.rank
    shifts = list(module.shifts)
    field = ring.poly_ring.field

    while rows and rows[0]:
        rows = [[ring.normal_form(e) for e in r] for r in rows]
        pivot = None
        for a in range(rank):
            for b in range(len(rows[a])):
                e = rows[a][b]
                if not e.is_zero() and e.is_constant():
                    pivot = (a, b)
                    break
            if pivot:
                break
        if pivot is None:
            break
        a, b = pivot
        inv = field.invert(rows[a][b].constant_term())
        ncols = len(rows[0])
        # column operations clear row a outside the pivot
        for j in range(ncols):
            if j != b and not rows[a][j].is_zero():
                factor = rows[a][j].scale(inv)
                for i in range(rank):
                    rows[i][j] = rows[i][j] - rows[i][b] * factor
        # row a is now zero off the pivot, so the row operations that clear
        # column b touch no other column; apply them by erasure
        for i in range(rank):
            if i != a:
                rows[i][b] = ring.poly_ring.zero()
        rows = [
            [e for j, e in enumerate(r) if j != b]
            for i, r in enumerate(rows) if i != a
        ]
        shifts = [s for i, s in enumerate(shifts) if i != a]
        rank -= 1

    # over the zero ring every module is zero
    if rank == 0 or (ring.defining and ring.defining_basis().is_unit_ideal()):
        return FinitelyPresentedModule(ring, 0)
    interim = FinitelyPresentedModule(ring, rank,
                                      tuple(tuple(r) for r in rows), shifts)
    cols = trim_generators(ring, interim.relation_columns(), rank, interim.shifts)
    cols = ring.sort_columns(cols)
    return FinitelyPresentedModule.from_columns(ring, rank, cols, shifts)


# ---------------------------------------------------------------------------
# free resolutions


@dataclass
class FreeResolution:
    """Chain of free modules F_0 <- F_1 <- ... <- F_L covering a module.

    ``ranks`` lists beta_0..beta_L; ``differentials`` lists d_1..d_L in
    row-major form, d_i having ranks[i-1] rows and ranks[i] columns.
    ``pending`` holds the columns of d_(L+1): the minimal generators of
    ker d_L, or at L = 0 the relations of the presentation; ``grow``
    appends them next.  ``complete`` records that they were computed and
    found zero, certifying pd = L.  ``periodic`` records a detected
    repetition (step, period) of differentials, certifying infinite
    projective dimension; ``pending`` is then None.

    So a resolution of length L determines d_1..d_(L+1), hence Omega^0 to
    Omega^L and Ext^0 to Ext^L, and every later step once it is complete,
    but only d_1..d_L when ``pending`` is None.  ``differential`` applies this.
    """

    ring: RingPresentation
    ranks: list
    differentials: list
    shifts: list
    minimal: bool
    complete: bool
    periodic: object = None
    pending: list = field(default=None, repr=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential(self, i: int):
        """d_i as a row-major matrix (1-indexed, matching the subscripts);
        zero past the end of a complete resolution, refused past its reach."""
        if i < 1:
            raise PreconditionError("resolution steps are numbered from 1")
        if i <= self.length:
            return self.differentials[i - 1]
        if self.pending is None or (i > self.length + 1 and not self.complete):
            raise PreconditionError(f"resolution stops before step {i}")
        return columns_to_rows(self.ranks[-1], self.pending) if i == self.length + 1 else ()

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
        zero = self.ring.poly_ring.field.zero
        return all(
            e.is_zero() or e.constant_term() == zero
            for m in self.differentials for row in m for e in row
        )

    def syzygy(self, n: int) -> FinitelyPresentedModule:
        """Omega^n of the resolved module: coker of d_(n+1) on F_n, so any
        n up to the length, and zero past the end of a complete resolution."""
        rows = self.differential(n + 1)
        if n > self.length:
            return FinitelyPresentedModule(self.ring, 0)
        return FinitelyPresentedModule(self.ring, self.ranks[n], rows, self.shifts[n])

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
            diff = columns_to_rows(self.ranks[-1], cols)
            period = next((p for p in (1, 2) if detect_periodicity
                           and len(self.differentials) >= p
                           and self.differentials[-p] == diff), None)
            kernel = None if period else minimal_kernel(self.ring, len(cols), cols, (),
                                                         col_shifts)
            self.differentials.append(diff)
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
                         pending=mod.ring.sort_columns(mod.relation_columns()))
    return res.grow(length, detect_periodicity=detect_periodicity)


def check_complex(res: FreeResolution) -> bool:
    """d_i o d_(i+1) = 0 over R, verified entry by entry."""
    ring = res.ring
    for i in range(1, res.length):
        a = res.differential(i)
        b = res.differential(i + 1)
        if not a or not b:
            continue
        for r in range(len(a)):
            for c in range(len(b[0])):
                acc = ring.poly_ring.zero()
                for k in range(len(b)):
                    acc = acc + a[r][k] * b[k][c]
                if not ring.normal_form(acc).is_zero():
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
        cols = matrix_columns(ring, res.differential(i))
        if not cols:
            continue
        kernel = syzygies(cols, defining=ring.defining_basis())
        kernel = [ring.normal_form_element(el) for el in kernel]
        kernel = [el for el in kernel if not el.is_zero()]
        if not kernel:
            continue
        if i == res.length:
            return False
        nxt = matrix_columns(ring, res.differential(i + 1))
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
    if not ring.defining:
        return FinitelyPresentedModule(amb, module.rank, module.rows,
                                       module.shifts)
    cols = module.relation_columns()
    for g in ring.defining_basis().polynomials():
        for a in range(module.rank):
            cols.append(ModuleElement.unit(amb.poly_ring, module.rank, a, g))
    return FinitelyPresentedModule.from_columns(amb, module.rank, cols,
                                                module.shifts)


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
