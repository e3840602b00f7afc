"""Buchberger engine for ideals and submodules of free modules.

Ideals are treated as rank-one free modules, so one reduction loop and one
pair loop serve polynomials, submodules of P^r, and computations over a
quotient P/I.  Quotient-ring work runs on preimages: the (already reduced)
Groebner basis of the defining ideal is adjoined in every coordinate, with
mutual pairs among those adjoined generators skipped since they reduce to
zero by assumption.

Free modules carry the position-over-term order with position 0 largest;
elements whose leading term sits in a trailing block of "witness"
coordinates therefore surface syzygies, which is how ``syzygies`` works.

Two loops complete a basis.  A rank-one input under grevlex with no
adjoined defining generators runs ``SignatureLoop``: F5's incremental
signatures, whose criteria drop every S-pair with the signature of a
known syzygy before it is reduced (the F5 criterion, Faugere 2002, ISSAC;
the syzygy and rewrite criteria, Eder and Faugere 2017, J. Symb. Comput.
80).  On a regular sequence no S-pair reduces to zero (Faugere 2002).
Every other input runs ``PairLoop``, Buchberger's loop with the coprime
and chain criteria: modules, where no Koszul criterion applies and most
signature reductions still go to zero; lex or block orders, where on
random ideals the two loops disagree on whether the default degree budget
runs out; and quotient rings, whose zero-divisor seeds have syzygies from
colon ideals that the F5 criterion cannot see.  The reduced basis is
unique, so both loops give the same one.

Bases are interreduced to the unique reduced form (monic leading
coefficients, no leading term dividing another, tails fully reduced), so
identical input always yields an identical basis regardless of internal
scheduling.

Inside the division kernel a term of P^rank is one int (``poly.Packing``),
for every monomial order alike: a min-heap of ints pops the largest term,
multiplying a term by a monomial is one addition, and lead divisibility is
one subtraction and mask.  A divisor table packs each element once, and
S-pairs are formed in the kernel's work dict from the two shifted packed
tails.  The field width comes from a bound on the degree of every term a
division can reach; a call that needs wider fields re-packs the table, so
no field ever carries into the next.  Exponent tuples are decoded only for
remainder terms.

No table packs the adjoined defining generators g * e_pos: a
``GroebnerBasis`` packs the rows of its elements once per packing, and
``poly.MonomialOrder.packing`` shares one packing per width, so the row
of g * e_pos is g's row shifted to position pos, one integer addition per
term.  A pair loop seeds I * P^rank this way (``PairLoop.seed``), and a
rank-one basis divides elements of any rank modulo I * P^rank against one
table of such shifted rows that it keeps per rank (``normal_form``).

Over Q the kernel divides integers: the work holds one integer per term
under a single running denominator, each divisor is stored as its
primitive integer vector, whose positive lead coefficient is the row's
denominator, and a step scales the pending integers by no more than that
denominator (pseudo-division over Z, as Monagan and Pearce run it in the
same heap).  A remainder term becomes a Fraction once, at the end.  The
divisor row is the one place a basis element is normalized: elements are
added as they come out of a division, and only the reduced basis is
emitted monic.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from .errors import Meter, StructuralError, active_meter
from .poly import Monomial, Polynomial, PolynomialRing


class ModuleElement:
    """Immutable element of a finite free module P^rank.

    ``terms`` holds every nonzero term once as (position, monomial, coeff),
    in decreasing position-over-term order: position 0 first, and within a
    position the monomials in decreasing order, so ``terms[0]`` is the lead.
    """

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring: PolynomialRing, coords):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, Polynomial) or (c.ring is not ring and c.ring != ring):
                raise StructuralError("module coordinates must share one ring")
        self.ring = ring
        self.rank = len(coords)
        self.terms = tuple((pos, m, k) for pos, c in enumerate(coords) for m, k in c.terms)

    @classmethod
    def _trusted(cls, ring: PolynomialRing, rank: int, terms: tuple) -> "ModuleElement":
        """Unchecked construction from terms already nonzero, distinct and
        in decreasing position-over-term order."""
        el = object.__new__(cls)
        el.ring = ring
        el.rank = rank
        el.terms = terms
        return el

    @classmethod
    def from_terms(cls, ring: PolynomialRing, rank: int, terms) -> "ModuleElement":
        """Element of P^rank from (position, monomial, coeff) terms in any
        order, coefficients in the field: equal monomials at one position
        merge and zero coefficients drop."""
        fadd, zero = ring.field.add, ring.field.zero
        acc = {}
        for t in terms:
            key = (t[0], t[1].exps)
            old = acc.get(key)
            acc[key] = t if old is None else (t[0], t[1], fadd(old[2], t[2]))
        key = ring.order.key
        return cls._trusted(ring, rank, tuple(sorted(
            (t for t in acc.values() if t[2] != zero),
            key=lambda t: (-t[0], key(t[1])), reverse=True)))

    @property
    def coords(self) -> tuple:
        """The coordinates as polynomials, built on each call."""
        rows = [[] for _ in range(self.rank)]
        for pos, m, k in self.terms:
            rows[pos].append((m, k))
        return tuple(Polynomial._trusted(self.ring, tuple(r)) for r in rows)

    @classmethod
    def wrap(cls, p: Polynomial) -> "ModuleElement":
        return cls._trusted(p.ring, 1, tuple((0, m, k) for m, k in p.terms))

    @classmethod
    def unit(cls, ring: PolynomialRing, rank: int, pos: int, p: Polynomial | None = None):
        if not 0 <= pos < rank:
            raise StructuralError(f"position {pos} outside rank {rank}")
        if p is None:
            p = ring.one()
        elif p.ring != ring:
            raise StructuralError("module coordinates must share one ring")
        return cls._trusted(ring, rank, tuple((pos, m, k) for m, k in p.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def lead(self):
        """(position, monomial, coeff) of the largest term, None if zero."""
        return self.terms[0] if self.terms else None

    def __eq__(self, other):
        return (isinstance(other, ModuleElement) and self.rank == other.rank
                and self.terms == other.terms and self.ring == other.ring)

    def __hash__(self):
        return hash((self.rank, self.terms))

    def mul_poly(self, q: Polynomial) -> "ModuleElement":
        if q.ring != self.ring:
            raise StructuralError("module coordinates must share one ring")
        mul = self.ring.field.mul
        return ModuleElement.from_terms(self.ring, self.rank, [
            (p, m.mul(qm), mul(k, qk)) for qm, qk in q.terms for p, m, k in self.terms])

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


def lead_key(el: ModuleElement):
    """Sort key of a nonzero element's lead under position over term."""
    pos, m, _ = el.lead()
    return (-pos, el.ring.order.key(m))


def _integral(terms, pack, p: int) -> tuple:
    """(den, work) for the (position, monomial, coeff) ``terms``: ``work``
    maps each packed term to an integer, and the true coefficient is that
    integer over den.  Over Q den is the lcm of the denominators, over F_p
    it is 1 and the integers are the coefficients."""
    if p:
        return 1, {pack(pos, m.exps): k for pos, m, k in terms}
    den = lcm(*[k.denominator for _, _, k in terms])
    if den == 1:
        return 1, {pack(pos, m.exps): k.numerator for pos, m, k in terms}
    return den, {pack(pos, m.exps): k.numerator * (den // k.denominator)
                 for pos, m, k in terms}


def _placed(g: ModuleElement, rank: int, pos: int) -> ModuleElement:
    """g * e_pos in P^rank for the rank-one g; g itself at position 0 of
    its own rank."""
    if pos == 0 and rank == g.rank:
        return g
    return ModuleElement._trusted(g.ring, rank, tuple([(pos, m, k) for _, m, k in g.terms]))


def _shifted(row: tuple, shift: int) -> tuple:
    """The divisor row ``row`` with every packed term moved by ``shift``, a
    position packed alone: the row of the same element at another
    position, as ``_divisor_row`` would build it."""
    if not shift:
        return row
    exps, lead, den, tail = row
    return exps, lead + shift, den, tuple([(t + shift, k) for t, k in tail])


class _Rows:
    """The divisor rows of a fixed tuple of elements, packed on the first
    call for each packing and kept.  A table that places the elements holds
    this rather than their basis, so a basis and the tables it keeps form
    no reference cycle and are freed as soon as they are dropped."""

    __slots__ = ("elements", "by_packing")

    def __init__(self, elements: tuple):
        self.elements = elements
        self.by_packing = {}

    def __call__(self, packing) -> tuple:
        rows = self.by_packing.get(packing)
        if rows is None:
            rows = self.by_packing[packing] = tuple(
                _divisor_row(g, packing) for g in self.elements)
        return rows


def _divisor_row(g: ModuleElement, packing) -> tuple:
    """Divisor-table row of the nonzero element g, packed once.

    The row is ``(lead exps, lead, den, tail)``: the lead's exponents packed
    alone, the packed lead, and den, the lead coefficient of an integral G
    with G/den = g made monic.  Over Q, G is g's primitive integer vector:
    the coefficients are brought onto the lcm of their denominators, their
    content is divided out, and the sign makes den positive.  Over F_p, G is
    g times the inverse of its lead coefficient, so den is 1.  Every nonzero
    multiple of g thus gets the same row.  ``tail`` holds G's terms after
    the lead as (packed term, integer coefficient).  That is the tail's
    integral work under den: a division step adds a multiple of it, and
    ``_interreduce`` divides it as it is.
    """
    terms = g.terms
    pos, lm, lc = terms[0]
    lead = packing.pack(pos, lm.exps)
    p = g.ring.field.characteristic
    if p:
        inv = pow(lc, -1, p)
        return (lead & packing.exps_mask, lead, 1,
                tuple((packing.pack(q, m.exps), k * inv % p) for q, m, k in terms[1:]))
    _, work = _integral(terms, packing.pack, 0)
    content = gcd(*work.values())
    if lc < 0:
        content = -content
    row = tuple((t, k // content) for t, k in work.items())
    return (lead & packing.exps_mask, lead, row[0][1], row[1:])


class _DivisorTable:
    """Nonzero elements as packed divisor rows, in the order they were added.

    ``rows[i]`` is ``_divisor_row(elements[i])``.  An element may come with
    an origin ``(rows, k, pos)``: it is then the element k of a basis placed
    at position pos, and ``rows`` is that basis's ``_Rows``, whose entry k
    in the table's packing, shifted to pos, is its row, so it is never
    packed or normalized here; ``origins[i]`` is it, or None.  An element
    may carry a signature, a (position, exponents) term of the free module
    over the seeds (see ``SignatureLoop``); ``sigs[i]`` is it packed, or
    None.  ``by_pos`` groups the rows by lead position, keeping that order,
    each extended by its packed signature.  ``top`` is the largest degree of
    any term or signature of the elements and ``reach`` the largest degree
    limit of a meter that divided by them.  A reduction pops only terms of
    degree at most reach, and divides by one of the elements, so every term
    it pushes, every term of an S-pair, and every signature multiplied by
    the quotient of a step, has degree at most top + max(top, reach);
    ``fit`` re-packs every row and signature when the packing cannot hold
    that bound, so no field ever carries into the next.
    """

    __slots__ = ("ring", "elements", "origins", "signatures", "rows", "sigs", "by_pos",
                 "top", "reach", "packing")

    def __init__(self, ring: PolynomialRing, elements=(), reach: int = 0):
        self.ring = ring
        self.elements = []
        self.origins = []
        self.signatures = []
        self.rows = []
        self.sigs = []
        self.by_pos = {}
        self.top = 0
        self.reach = reach
        self.packing = None
        for g in elements:
            self.add(g)

    def add(self, g: ModuleElement, signature=None, origin=None):
        """Append the nonzero element g, with its signature or its origin if
        it has one."""
        self.elements.append(g)
        self.origins.append(origin)
        self.signatures.append(signature)
        self.top = max(self.top, max(m.degree for _, m, _ in g.terms),
                       sum(signature[1]) if signature else 0)
        if not self.fit(self.reach):
            self._append(self.row(g, origin), signature)

    def row(self, g: ModuleElement, origin) -> tuple:
        """g's divisor row in the table's packing; g has the given origin."""
        if origin is None:
            return _divisor_row(g, self.packing)
        rows, k, pos = origin
        return _shifted(rows(self.packing)[k], pos << self.packing.pos_shift)

    def _append(self, row, signature=None):
        sig = None if signature is None else self.packing.pack(*signature)
        self.rows.append(row)
        self.sigs.append(sig)
        self.by_pos.setdefault(row[1] >> self.packing.pos_shift, []).append(row + (sig,))

    def fit(self, reach: int, low: int = 0) -> bool:
        """Raise ``reach``; re-pack if the bound, or ``low``, does not fit."""
        if reach > self.reach:
            self.reach = reach
        bound = max(2 * self.top, self.top + self.reach, low)
        if self.packing is not None and bound <= self.packing.capacity:
            return False
        self.packing = self.ring.order.packing(self.ring.nvars, bound)
        self.rows, self.sigs, self.by_pos = [], [], {}
        for g, origin, signature in zip(self.elements, self.origins, self.signatures):
            self._append(self.row(g, origin), signature)
        return True

    def keep(self, indices) -> "_DivisorTable":
        """A table of the elements at ``indices``, in that order, sharing
        this table's rows and packing, without signatures."""
        sub = _DivisorTable(self.ring, reach=self.reach)
        sub.top = self.top
        sub.packing = self.packing
        for i in indices:
            sub.elements.append(self.elements[i])
            sub.origins.append(self.origins[i])
            sub.signatures.append(None)
            sub._append(self.rows[i])
        return sub


def _reduce(el: ModuleElement, table: _DivisorTable, meter: Meter) -> ModuleElement:
    """Full normal form of el against the divisors of ``table``.

    The table is first fitted to the meter's degree limit and to el's
    degree (the width rule of ``_DivisorTable``); el's terms are then
    packed once, over Q as integers over the lcm of their denominators, and
    divided by ``_divide``, which returns el itself when no step divides.
    """
    table.fit(meter.max_degree, max((m.degree for _, m, _ in el.terms), default=0))
    den, work = _integral(el.terms, table.packing.pack, el.ring.field.characteristic)
    return _divide(work, den, table, meter, el.rank, source=el)


def _reduce_spair(table: _DivisorTable, i: int, j: int, meter: Meter,
                  bound: int | None = None) -> ModuleElement:
    """Full normal form of the S-pair of the elements i and j of ``table``,
    whose leads share a position, formed inside the kernel: the work starts
    as the two integral tails shifted onto the lcm of the leads, which
    cancel and are never added, each scaled onto the common denominator
    lcm(fden, gden).  With ``bound``, the packed signature of the pair in
    the table's packing, the division is regular (see ``_divide``)."""
    table.fit(meter.max_degree)
    packing = table.packing
    fexps, _, fden, ftail = table.rows[i]
    gexps, _, gden, gtail = table.rows[j]
    both = packing.lcm(fexps, gexps)
    fshift, gshift = packing.lift(both - fexps), packing.lift(both - gexps)
    p = table.ring.field.characteristic
    den = lcm(fden, gden)  # 1 over F_p
    fs, gs = den // fden, den // gden
    # tail terms are distinct, so only a g term can meet an f term
    work = {t + fshift: k * fs for t, k in ftail}
    for t, k in gtail:
        t += gshift
        s = work.get(t, 0) - k * gs
        if p:
            s %= p
        if s:
            work[t] = s
        else:
            del work[t]
    return _divide(work, den, table, meter, table.elements[i].rank, bound)


def _divide(work: dict, den: int, table: _DivisorTable, meter: Meter,
            rank: int, bound: int | None = None,
            source: ModuleElement | None = None) -> ModuleElement:
    """Full normal form of the packed terms ``work`` over ``den`` against
    ``table``.

    ``work`` maps packed terms to integers, the coefficient of a term being
    its integer over den (den is 1 over F_p), and ``table.fit`` has made
    room for every term the division can reach.  Every term of the result
    is divisible by no divisor's leading term.  The divisor chosen at each
    step is the first match in table order; the end result is independent
    of that choice once the divisors form a Groebner basis.

    With ``bound``, a packed signature, the division is regular: a divisor
    g qualifies for the term t only if the signature of (t / lead g) * g is
    smaller than bound, that is when sig(g) shifted by t - lead(g) packs to
    a larger int, and a term no divisor qualifies for goes to the
    remainder.  The table's signatures then all share the bound's packing.

    ``source`` is the element ``work`` was packed from, if any.  When no
    step divides, every term goes to the remainder unchanged, and source
    is returned as it is rather than rebuilt term by term.

    Heap division (Monagan-Pearce) on packed terms: a min-heap of the keys
    of ``work`` pops the largest term first.  A cancelled term keeps its
    heap entry, which is skipped when popped; no term equal to a popped one
    can appear later, as every term added by a division step is smaller
    than the term it divides.  A division step multiplies the divisor's
    tail by the quotient monomial with one integer addition per term.

    Over Q the work is pseudo-division over Z under one running
    denominator.  A step that pops the integer a divides by the row
    (gexps, glead, gden, gtail), where g = G/gden and G's lead coefficient
    is gden; it subtracts a/(den*gden) times the shifted G.  With h =
    gcd(a, gden) and lam = gden // h, every pending integer and den are
    multiplied by lam when lam != 1, and then -(a // h) times each tail
    integer is added at its shifted term.  A remainder term keeps the den
    of the moment it was popped and becomes a Fraction in lowest terms
    once, at the end.
    """
    ring = table.ring
    p = ring.field.characteristic
    packing = table.packing
    by_pos, pos_shift, guards = table.by_pos, packing.pos_shift, packing.guards
    cap, max_degree = packing.capacity, meter.max_degree
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = list(work)
    heapq.heapify(heap)
    remainder = []  # popped largest first, so already in term order
    divided = False
    while heap:
        t = heappop(heap)
        coeff = work.pop(t, None)
        if coeff is None:
            continue
        meter.step()
        if t & cap > max_degree:
            meter.check_degree(t & cap)
        e = t | guards
        for gexps, glead, gden, gtail, gsig in by_pos.get(t >> pos_shift, ()):
            if (e - gexps) & guards == guards and (bound is None or gsig + t - glead > bound):
                break
        else:
            remainder.append((t, coeff, den))
            continue
        # subtract coeff * shift * G/gden; its leading term cancels the
        # popped term and is not re-added
        divided = True
        shift = t - glead
        if p:
            c = p - coeff
            for m, tk in gtail:
                m += shift
                old = work.get(m)
                if old is None:
                    work[m] = tk * c % p
                    heappush(heap, m)
                else:
                    s = (old + tk * c) % p
                    if s:
                        work[m] = s
                    else:
                        del work[m]
            continue
        h = gcd(coeff, gden)
        if h != gden:
            lam = gden // h
            den *= lam
            work = {m: k * lam for m, k in work.items()}
        c = -(coeff // h)
        for m, tk in gtail:
            m += shift
            old = work.get(m)
            if old is None:
                work[m] = c * tk
                heappush(heap, m)
            else:
                s = old + c * tk
                if s:
                    work[m] = s
                else:
                    del work[m]
    if source is not None and not divided:
        return source
    unpack, trusted = packing.unpack, Monomial._trusted
    terms = []
    for t, coeff, d in remainder:
        pos, exps, deg = unpack(t)
        terms.append((pos, trusted(exps, deg), coeff if p else Fraction(coeff, d)))
    return ModuleElement._trusted(ring, rank, tuple(terms))


class GroebnerBasis:
    """A reduced Groebner basis plus the context it was computed in.

    For quotient-ring semantics the basis generates the preimage in P^rank,
    i.e. the input module together with defining * e_i for every coordinate.

    The basis keeps the divisor rows of its elements for each packing they
    were asked in (``rows``, a ``_Rows``), and the divisor tables that
    ``normal_form`` divides by, one per rank (``table``).  A rank-one basis
    of an ideal I has a table for every rank r asked, of I * P^r; its rows
    are the kept rows shifted to each position.  Equality and hashing
    ignore both.
    """

    __slots__ = ("ring", "rank", "elements", "rows", "_tables")

    def __init__(self, ring, rank, elements):
        self.ring = ring
        self.rank = rank
        self.elements = tuple(elements)
        self.rows = _Rows(self.elements)
        self._tables = {}  # rank -> the table of normal_form at that rank

    def table(self, rank: int, meter: Meter) -> _DivisorTable:
        """The divisor table of the span in P^rank, built on the first call
        for that rank and kept: the elements themselves at their own rank,
        and for a rank-one basis at any rank each element placed at every
        position in turn, so that each position holds the elements in basis
        order, each with its row shifted there."""
        table = self._tables.get(rank)
        if table is None:
            table = self._tables[rank] = _DivisorTable(self.ring, reach=meter.max_degree)
            positions = range(rank) if self.rank == 1 else (0,)
            for k, g in enumerate(self.elements):
                for pos in positions:
                    table.add(_placed(g, rank, pos), origin=(self.rows, k, pos))
        return table

    def polynomials(self):
        if self.rank != 1:
            raise StructuralError("not an ideal basis")
        return tuple(el.coords[0] for el in self.elements)

    def is_unit_ideal(self) -> bool:
        return self.rank == 1 and len(self.elements) == 1 and self.elements[0].coords[0].is_one()

    def is_zero(self) -> bool:
        return not self.elements

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.ring, self.rank, self.elements))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _as_elements(gens):
    """Uniform ModuleElement view; returns (elements, ring, rank)."""
    gens = list(gens)
    if not gens:
        raise StructuralError("cannot infer the ambient from an empty list")
    if isinstance(gens[0], Polynomial):
        ring = gens[0].ring
        els = []
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise StructuralError("generators from different rings")
            els.append(ModuleElement.wrap(g))
        return els, ring, 1
    ring = gens[0].ring
    rank = gens[0].rank
    for g in gens:
        if not isinstance(g, ModuleElement) or g.ring != ring or g.rank != rank:
            raise StructuralError("generators from different ambients")
    return list(gens), ring, rank


class PairLoop:
    """Buchberger's pair loop as a state that can keep growing.

    ``table`` holds the elements added so far as packed divisor rows, each
    normalized there once (``_divisor_row``), and ``basis`` is its list of
    the elements as they were added.  The adjoined defining generators
    g * e_pos enter only through ``seed``, as shifted copies of the defining
    basis's rows; the table's ``origins`` mark them, and their mutual pairs
    are skipped (sound because the defining list is itself a Groebner
    basis).  Every other element enters through ``add``.  ``meter`` is
    charged for every reduction; a caller that keeps the loop across budget
    scopes points it at the scope of each query.

    Position p carries the shift ``shifts[p]`` (0 by default), and a term
    m * e_p has the shifted degree deg m + shifts[p].  Pairs are queued by
    the shifted degree of their lcm, then the smaller lcm; the coprime
    criterion applies in rank one and the chain criterion is checked
    against pairs already off the queue.  The lcm, coprime and chain tests
    work on the packed leads, and each S-pair is formed inside the
    division kernel (``_reduce_spair``).  A queued pair's key holds its
    packed lcm, so when the table re-packs the queue is keyed again.

    ``complete(degree)`` runs the queued pairs of shifted degree at most
    ``degree``.  While every element added is homogeneous, so is every
    S-pair and every remainder, each of the degree of its pair, and a lead
    of degree above d divides no term of degree d or less.  Once every
    pair of degree at most d has reduced to zero, the elements form a
    d-truncated Groebner basis: a homogeneous element of the span of
    degree at most d reduces to zero against them, and no other element
    does (the truncated Buchberger algorithm; Kreuzer and Robbiano,
    Computational Commutative Algebra 2, 2005, Sect. 4.5).  ``graded``
    records that every element added so far is homogeneous; once one is
    not, every completion runs all pairs.  Completed without a degree the
    basis is a Groebner basis of everything added, not interreduced; later
    ``add`` calls queue the new pairs for the next run.  A pair leaves the
    queue only once its reduction has returned, so a completion that runs
    out of budget can be resumed, under a new meter, where it stopped.
    """

    __slots__ = ("rank", "meter", "shifts", "graded", "basis", "table", "at", "heap",
                 "pending", "keyed")

    def __init__(self, ring, rank, meter, shifts=None):
        self.rank = rank
        self.meter = meter
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        self.graded = True
        self.table = _DivisorTable(ring, reach=meter.max_degree)
        self.basis = self.table.elements
        self.at = {}  # lead position -> indices of the elements with it
        self.heap = []
        self.pending = set()
        self.keyed = None  # the packing the queued keys were made in

    @classmethod
    def from_seeds(cls, elements, ipart, ring, rank, meter) -> "PairLoop":
        """The completed loop of the seeds ``elements``, each reduced as it
        is added, then of the defining seeds that ``ipart`` names (see
        ``_core``), through ``seed``."""
        loop = cls(ring, rank, meter)
        for el in elements:
            loop.add(loop.reduce(el))
        defining, slots = ipart
        if defining is not None:
            loop.seed(defining, range(slots))
        loop.complete()
        return loop

    def seed(self, defining: GroebnerBasis, positions):
        """Add g * e_pos for each element g of the rank-one reduced basis
        ``defining`` and each pos in ``positions``, each g in every
        position in turn, as defining generators.

        Each one's row is g's row in the table's packing shifted to pos
        (``_DivisorTable.row``), so none is packed or normalized for the
        table.  Once the loop holds an element that is not a defining
        generator, each one is first reduced (``reduce``); one that a step
        divides is no longer a defining generator and is added as its
        remainder.  Before that nothing can divide one: the basis is
        reduced, so no lead of it divides a term of another element.
        """
        rank, table = self.rank, self.table
        divide = None in table.origins
        for k, g in enumerate(defining.elements):
            for pos in positions:
                el, origin = _placed(g, rank, pos), (defining.rows, k, pos)
                if divide:
                    nf = self.reduce(el)
                    if nf is not el:
                        self.add(nf)
                        continue
                self._insert(el, origin)

    def reduce(self, el: ModuleElement) -> ModuleElement:
        return _reduce(el, self.table, self.meter)

    def degree(self, el: ModuleElement):
        """The shifted degree of el's terms when they share one, else None."""
        shifts = self.shifts
        degrees = {m.degree + shifts[pos] for pos, m, _ in el.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def normal_form(self, el: ModuleElement) -> ModuleElement:
        """el reduced against the basis completed through el's degree, all
        of it when el is not homogeneous: zero exactly when el lies in the
        span."""
        self.complete(self.degree(el))
        return self.reduce(el)

    def _pair(self, i: int, j: int) -> tuple:
        """Queue entry of the pair (i, j): shifted lcm degree, then the
        larger lcm last."""
        packing, rows = self.table.packing, self.table.rows
        iexps, ilead = rows[i][0], rows[i][1]
        both = ilead + packing.lift(packing.lcm(iexps, rows[j][0]) - iexps)
        return ((both & packing.capacity) + self.shifts[both >> packing.pos_shift],
                -(both & packing.monomial_mask), i, j)

    def _rekey(self):
        if self.keyed is not self.table.packing:
            self.heap[:] = [self._pair(i, j) for i, j in self.pending]
            heapq.heapify(self.heap)
            self.keyed = self.table.packing

    def add(self, el: ModuleElement):
        """Append ``el``, already reduced against the basis, unless zero."""
        if not el.is_zero():
            self._insert(el, None)

    def _insert(self, el: ModuleElement, origin):
        """Append the nonzero el with its origin and queue its pairs."""
        if self.graded and self.degree(el) is None:
            self.graded = False
        self.table.add(el, origin=origin)
        self._rekey()
        origins = self.table.origins
        j = len(self.basis) - 1
        same = self.at.setdefault(el.terms[0][0], [])
        for i in same:
            if origin is not None and origins[i] is not None:
                continue
            heapq.heappush(self.heap, self._pair(i, j))
            self.pending.add((i, j))
        same.append(j)

    def complete(self, degree: int | None = None):
        """Run the queued pairs of shifted degree at most ``degree``, every
        pair when it is None or the loop is not graded."""
        heap, pending = self.heap, self.pending
        if not self.graded:
            degree = None
        while heap:
            self._rekey()
            if degree is not None and heap[0][0] > degree:
                return
            _, _, i, j = heap[0]
            # a reduction that runs out of budget leaves the pair queued; one
            # that returns may have re-packed the table, never the queue
            r = (_reduce_spair(self.table, i, j, self.meter)
                 if (i, j) in pending and not self._redundant(i, j) else None)
            pending.discard((i, j))
            heapq.heappop(heap)
            if r is not None:
                self.add(r)

    def _redundant(self, i: int, j: int) -> bool:
        """The coprime criterion in rank one, then the chain criterion
        against the pairs already off the queue."""
        packing, rows = self.table.packing, self.table.rows
        iexps, jexps = rows[i][0], rows[j][0]
        if self.rank == 1 and packing.coprime(iexps, jexps):
            return True
        both, pending = packing.lcm(iexps, jexps), self.pending
        for k in self.at[self.basis[i].terms[0][0]]:
            if (k != i and k != j and packing.divides(rows[k][0], both)
                    and ((i, k) if i < k else (k, i)) not in pending
                    and ((j, k) if j < k else (k, j)) not in pending):
                return True
        return False


class SignatureLoop:
    """Signature-based completion of a rank-one input, seed by seed.

    The seeds are the generators f_1..f_n, with no adjoined defining
    generators.  A basis element g carries a signature t * e_k: g is a
    combination of f_1..f_k whose f_k coefficient has leading monomial t.
    Signatures are compared position over term with the later index larger,
    F5's incremental order (Faugere 2002), and packed in the table's
    packing at position n - k, so that a larger signature packs to a
    smaller int, as a larger term does.

    ``add_seed`` brings in index k: f_k is reduced by every element so far
    and added with signature e_k, then the S-pairs of index k run in
    increasing signature until the elements form a Groebner basis of
    f_1..f_k.  Every reduction is regular, lead and tail alike
    (``_divide`` with a bound): an element of a lower index always
    qualifies, one of index k only when its multiplied signature is smaller
    than the pair's.  A pair whose two multiplied signatures are equal is
    never formed, and a pair is skipped when its signature t * e_k
    (Eder and Faugere 2017, J. Symb. Comput. 80):

    - F5: the lead of an element of a lower index divides t, so a
      principal syzygy has that signature;
    - syzygy: a recorded syzygy signature divides it.  Those come from pairs
      of index k with coprime leads, whose Koszul syzygy has the pair's
      signature, and from pairs whose regular reduction is zero;
    - rewrite: an element of index k added after the pair's top element,
      the one whose multiplied signature is the pair's, has a signature
      dividing it.

    These leave at most one S-pair per signature.  A nonzero result is
    always added, even when an element's lead divides its lead at an equal
    multiplied signature: with the rewrite rule above, dropping such an
    element can lose a basis element.  A queued pair's key holds its
    packed signature, so when the table re-packs the queue, and the
    recorded syzygies, are packed again.
    """

    __slots__ = ("meter", "table", "start", "heap", "syzygies", "keyed")

    def __init__(self, ring, meter):
        self.meter = meter
        self.table = _DivisorTable(ring, reach=meter.max_degree)
        self.start = 0  # the first element of the current index
        self.heap = []
        self.syzygies = []  # the current index's syzygy signatures, packed alone
        self.keyed = None  # the packing the keys and syzygies were made in

    @classmethod
    def from_seeds(cls, elements, ring, meter) -> "SignatureLoop":
        """The completed loop of the seeds, taken by increasing degree,
        F5's usual order, keeping seed order among equal degrees: the index
        order does not change the ideal, and a low-degree seed first keeps
        the intermediate bases of fewer seeds small."""
        loop = cls(ring, meter)
        seeds = sorted(elements, key=lambda el: el.terms[0][1].degree if el.terms else 0)
        for k, el in enumerate(seeds, 1):
            loop.add_seed(el, len(seeds) - k)
        return loop

    def add_seed(self, el: ModuleElement, pos: int):
        """Bring in the seed el, whose signature packs at position ``pos``."""
        table = self.table
        self.start = len(table.elements)
        self.syzygies = []
        nf = _reduce(el, table, self.meter)
        if not nf.is_zero():
            self._add(nf, (pos, (0,) * table.ring.nvars))
            self._complete()

    def _signature(self, top: int, other: int) -> int:
        """Packed signature of the top element's multiple in the pair."""
        packing, rows = self.table.packing, self.table.rows
        texps = rows[top][0]
        return self.table.sigs[top] + packing.lift(packing.lcm(texps, rows[other][0]) - texps)

    def _rekey(self):
        packing = self.table.packing
        if self.keyed is packing:
            return
        if self.keyed is not None:
            unpack, mask = self.keyed.unpack, packing.exps_mask
            self.syzygies = [packing.pack(0, unpack(s)[1]) & mask for s in self.syzygies]
        self.heap[:] = [(-self._signature(top, other), top, other)
                        for _, top, other in self.heap]
        heapq.heapify(self.heap)
        self.keyed = packing

    def _add(self, el: ModuleElement, signature):
        """Append the nonzero el of the current index and queue its pairs."""
        table = self.table
        table.add(el, signature)
        self._rekey()
        packing, rows, sigs = table.packing, table.rows, table.sigs
        j = len(rows) - 1
        jexps = rows[j][0]
        for i in range(j):
            iexps = rows[i][0]
            both = packing.lcm(iexps, jexps)
            top, sig = j, sigs[j] + packing.lift(both - jexps)
            if i >= self.start:
                other = sigs[i] + packing.lift(both - iexps)
                if other == sig:
                    continue
                if other < sig:
                    top, sig = i, other
                if packing.coprime(iexps, jexps):
                    self.syzygies.append(sig & packing.exps_mask)
                    continue
            heapq.heappush(self.heap, (-sig, top, i if top == j else j))

    def _complete(self):
        """Run the current index's pairs, smallest signature first."""
        heap, table, meter = self.heap, self.table, self.meter
        while heap:
            table.fit(meter.max_degree)
            self._rekey()
            key, top, other = heapq.heappop(heap)
            packing, rows, sigs = table.packing, table.rows, table.sigs
            sig, guards, mask = -key, packing.guards, packing.exps_mask
            e = (sig & mask) | guards
            if (any((e - rows[k][0]) & guards == guards for k in range(self.start))
                    or any((e - s) & guards == guards for s in self.syzygies)
                    or any((e - (sigs[k] & mask)) & guards == guards
                           for k in range(top + 1, len(sigs)))):
                continue
            r = _reduce_spair(table, top, other, meter, sig)
            if r.is_zero():
                self.syzygies.append(sig & mask)
            else:
                pos, exps, _ = packing.unpack(sig)
                self._add(r, (pos, exps))


def _core(elements, ipart, ring, rank, meter):
    """Reduced basis of the seeds ``elements`` and the adjoined defining
    generators.  ``ipart`` is ``(defining, slots)``: the rank-one reduced
    basis of the defining ideal, or None for none, and the number of
    leading positions it is adjoined in; g * e_pos for every g of it and
    pos < slots follow the seeds (``PairLoop.seed``).  A rank-one input
    under grevlex with nothing adjoined is completed by ``SignatureLoop``,
    every other input by ``PairLoop``."""
    if rank == 1 and ring.order.kind == "grevlex" and ipart[0] is None:
        loop = SignatureLoop.from_seeds(elements, ring, meter)
    else:
        loop = PairLoop.from_seeds(elements, ipart, ring, rank, meter)
    return _interreduce(loop.table, meter)


def _interreduce(table: _DivisorTable, meter: Meter) -> list:
    """The unique reduced basis of the table's elements: minimal leads,
    reduced tails.

    Every kept element's tail is reduced against one table of all kept
    elements.  In a global order a lead divides no term smaller than
    itself, so an element's own row never matches while its tail reduces,
    and the first match is the one a table of the others would give.  The
    row's tail over its den is the monic element's tail, and the lead is
    emitted with coefficient one; its step, which would go to the remainder
    untouched, is counted.
    """
    packing, rows = table.packing, table.rows
    kept = []
    leads = {}  # lead position -> the kept leads' exponents there
    # largest packed lead first: smallest lead, last position first
    for i in sorted(range(len(rows)), key=lambda i: rows[i][1], reverse=True):
        gexps = rows[i][0]
        same = leads.setdefault(rows[i][1] >> packing.pos_shift, [])
        if not any(packing.divides(k, gexps) for k in same):
            kept.append(i)
            same.append(gexps)
    table = table.keep(kept)
    table.fit(meter.max_degree)
    one = table.ring.field.one
    final = []
    for g, (_, _, den, tail) in zip(table.elements, table.rows):
        pos, lm, _ = g.terms[0]
        lead = (pos, lm, one)
        meter.step()
        meter.check_degree(lm.degree)
        final.append(ModuleElement._trusted(
            g.ring, g.rank, (lead,) + _divide(dict(tail), den, table, meter, g.rank).terms))
    final.reverse()
    return final


def _defining_basis(defining) -> GroebnerBasis | None:
    """The ``defining=`` argument as a rank-one ``GroebnerBasis``, None when
    it is empty.  A list of polynomials, a reduced basis, is wrapped."""
    if isinstance(defining, GroebnerBasis):
        if defining.rank != 1:
            raise StructuralError("not an ideal basis")
        return defining if defining.elements else None
    nonzero = [g for g in defining or () if not g.is_zero()]
    if not nonzero:
        return None
    els, ring, _ = _as_elements(nonzero)
    return GroebnerBasis(ring, 1, els)


def _seeded_core(seeds, defining, ring, rank, slots):
    """``_core`` on the seeds plus defining * e_pos for pos < slots."""
    if defining is not None and defining.ring != ring:
        raise StructuralError("defining ideal from another ring")
    return _core(seeds, (defining, slots), ring, rank, active_meter())


def buchberger(
    gens,
    *,
    defining=None,
    ring: PolynomialRing | None = None,
    rank: int = 1,
) -> GroebnerBasis:
    """Reduced Groebner basis of the module generated by ``gens``.

    ``gens`` is a list of Polynomials (ideal case) or ModuleElements of one
    rank.  ``defining`` is a reduced Groebner basis of a defining ideal I;
    when given, the result is the basis of the preimage of <gens> in P^rank,
    which realises computation over P/I.  Empty input yields the zero-module
    basis (``ring`` is then required to fix the ambient).
    """
    gens = list(gens)
    defining = _defining_basis(defining)
    if not gens:
        if defining is not None:
            ring = defining.ring
        if ring is None:
            raise StructuralError("cannot infer the ambient from an empty list")
        els = []
    else:
        els, ring, rank = _as_elements(gens)
    seeds = [el for el in els if not el.is_zero()]
    final = _seeded_core(seeds, defining, ring, rank, rank)
    return GroebnerBasis(ring, rank, final)


def normal_form(f, gb: GroebnerBasis):
    """Canonical remainder of f modulo the basis (same type in, same out),
    f itself when no step divides.

    A module element f is reduced modulo the span of the basis in its own
    rank, or, against a rank-one basis of an ideal I, modulo I * P^r for f
    of any rank r: one division against the table of I * P^r that the basis
    keeps (``GroebnerBasis.table``), whose divisors at each position are
    the basis elements in order, as a coordinate-wise reduction has them.
    """
    meter = active_meter()
    if isinstance(f, Polynomial):
        if gb.rank != 1:
            raise StructuralError("polynomial against a module basis")
        if f.ring != gb.ring:
            raise StructuralError("polynomial from another ring")
        el = ModuleElement.wrap(f)
        nf = _reduce(el, gb.table(1, meter), meter)
        return f if nf is el else nf.coords[0]
    if not isinstance(f, ModuleElement):
        raise StructuralError(f"cannot reduce {type(f).__name__}")
    if f.ring != gb.ring or (f.rank != gb.rank and gb.rank != 1):
        raise StructuralError("element from another ambient")
    return _reduce(f, gb.table(f.rank, meter), meter)


def syzygies(gens, *, defining=None):
    """Generators of the first syzygy module of ``gens``.

    Works over P, or over P/I when ``defining`` (a reduced basis of I) is
    given; in the quotient case a syzygy is a coefficient vector a with
    sum a_j gens_j lying in I * P^rank, which is exactly relations over the
    quotient.  Implementation: append one witness coordinate per generator,
    run Buchberger with the original coordinates dominating, and read off
    basis elements whose original part vanished.  Zero generators yield
    their unit witness directly through the same mechanism.
    """
    els, ring, rank = _as_elements(gens)
    m = len(els)
    one = ring.one().terms[0]
    seeds = [ModuleElement._trusted(ring, rank + m, el.terms + ((rank + j,) + one,))
             for j, el in enumerate(els)]
    basis = _seeded_core(seeds, _defining_basis(defining), ring, rank + m, rank)
    # position over term: an element whose lead lies past the original
    # coordinates has no original part left
    return [ModuleElement._trusted(ring, m, tuple((p - rank, mono, k) for p, mono, k in el.terms))
            for el in basis if el.terms[0][0] >= rank]
