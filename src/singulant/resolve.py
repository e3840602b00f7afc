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

from dataclasses import dataclass

from .errors import BudgetExceededError, PreconditionError, StructuralError, active_meter
# buchberger is unused here but stays importable from this module, where
# perfbench's tracer rebinds and checks every alias of it
from .groebner import ModuleElement, PairLoop, buchberger, normal_form, syzygies  # noqa: F401
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


def _column_degree(col: ModuleElement, shifts) -> int:
    return max((m.degree + shifts[pos] for pos, m, _ in col.terms), default=-1)


def trim_generators(ring: RingPresentation, cols, rank: int, shifts=None):
    """Greedy minimal generating subset, processed by ascending degree.

    For graded input this is a genuinely minimal generating set: if a kept
    element lay in the span of the other kept elements, the span witnesses
    would only involve elements of no larger degree, so the element would
    already have been rejected when it was tested.  For non-graded input
    the result still generates, but minimality is heuristic.  The first
    column is always kept.

    Each candidate is tested against one Groebner basis of the kept columns
    plus defining * R^rank, which grows as columns are kept; its steps
    count against the active budget scope.
    """
    if shifts is None:
        shifts = (0,) * rank
    cols = [c for c in cols if not c.is_zero()]
    order = sorted(range(len(cols)),
                   key=lambda j: (_column_degree(cols[j], shifts), j))
    pring = ring.poly_ring
    loop = PairLoop(pring, rank, active_meter())
    for g in ring.defining_basis().polynomials():
        for pos in range(rank):
            loop.add(ModuleElement.unit(pring, rank, pos, g), True)
    kept = []
    for j in order:
        nf = loop.reduce(cols[j])
        if kept and nf.is_zero():
            continue
        kept.append(cols[j])
        loop.add(nf, False)
        loop.complete()
    return kept


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

    if rank == 0:
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
    ``complete`` records that the syzygies of the last differential were
    computed and found zero, certifying pd = L.  ``periodic`` records a
    detected repetition (step, period) of differentials, certifying
    infinite projective dimension.
    """

    ring: RingPresentation
    ranks: list
    differentials: list
    shifts: list
    minimal: bool
    complete: bool
    periodic: object = None

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential(self, i: int):
        """d_i as a row-major matrix (1-indexed, matching the subscripts)."""
        return self.differentials[i - 1]

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


def free_resolution(module: FinitelyPresentedModule, length: int, *,
                    detect_periodicity: bool = True) -> FreeResolution:
    """Resolution of coker(presentation) out to homological degree ``length``.

    Stops early when the syzygies vanish (finite projective dimension,
    flagged complete).  With ``detect_periodicity`` it also stops when a
    differential repeats the previous one or the one before that: the
    construction is deterministic in the matrix alone, so an exact repeat
    proves the resolution continues periodically forever.
    """
    if length < 0:
        raise PreconditionError("resolution length must be nonnegative")
    ring = module.ring
    mod = minimal_presentation(module)
    if mod.rank == 0:
        return FreeResolution(ring, [0], [], [[]], True, True)
    ranks = [mod.rank]
    shifts = [list(mod.shifts)]
    diffs = []
    periodic = None
    complete = False
    cols = ring.sort_columns(mod.relation_columns())
    rank = mod.rank
    cur_shifts = list(mod.shifts)
    step = 0
    while step < length:
        if not cols:
            complete = True
            break
        step += 1
        col_shifts = [_column_degree(c, cur_shifts) for c in cols]
        diffs.append(columns_to_rows(rank, cols))
        ranks.append(len(cols))
        shifts.append(col_shifts)
        if detect_periodicity and len(diffs) >= 2 and diffs[-1] == diffs[-2]:
            periodic = (step, 1)
            break
        if detect_periodicity and len(diffs) >= 3 and diffs[-1] == diffs[-3]:
            periodic = (step, 2)
            break
        syz = syzygies(cols, defining=ring.defining_basis())
        syz = [ring.normal_form_element(el) for el in syz]
        syz = trim_generators(ring, syz, len(cols), col_shifts)
        syz = ring.sort_columns(syz)
        rank = len(cols)
        cur_shifts = col_shifts
        cols = syz
    if periodic is None and not complete and not cols:
        complete = True
    res = FreeResolution(ring, ranks, diffs, shifts, False, complete, periodic)
    res.minimal = res.is_minimal_certified()
    return res


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
        gb = ring.module_basis(nxt, len(cols))
        for el in kernel:
            if not normal_form(el, gb).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# syzygy modules, projective dimension, depth


def syzygy_module(module: FinitelyPresentedModule, n: int) -> FinitelyPresentedModule:
    """The n-th syzygy in the minimal resolution: coker of d_(n+1).

    Periodicity detection is switched off so the resolution is always
    carried honestly out to step n+1 (or until it stops by itself).
    """
    if n < 0:
        raise PreconditionError("syzygy index must be nonnegative")
    if n == 0:
        return minimal_presentation(module)
    res = free_resolution(module, n + 1, detect_periodicity=False)
    if res.length < n:
        return FinitelyPresentedModule(module.ring, 0)
    rank = res.ranks[n]
    rows = res.differential(n + 1) if res.length >= n + 1 else ()
    return FinitelyPresentedModule(module.ring, rank, rows, res.shifts[n])


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
            f"{bound} steps", partial=res,
        )
    return res.length


def depth(module: FinitelyPresentedModule) -> int:
    """nvars minus the ambient projective dimension (Auslander-Buchsbaum)."""
    if minimal_presentation(module).is_zero_presentation():
        raise PreconditionError("depth of the zero module is undefined")
    return module.ring.nvars - projective_dimension_over_ambient(module)


def ring_depth(ring: RingPresentation) -> int:
    """Depth of R as a module over itself."""
    return depth(FinitelyPresentedModule.cyclic(ring, []))
