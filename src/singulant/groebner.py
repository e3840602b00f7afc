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

Bases are interreduced to the unique reduced form (monic leading
coefficients, no leading term dividing another, tails fully reduced), so
identical input always yields an identical basis regardless of internal
scheduling.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import add, le, sub

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
        hkey = ring.order.heap_key()
        return cls._trusted(ring, rank, tuple(sorted(
            (t for t in acc.values() if t[2] != zero),
            key=lambda t: (t[0], hkey(t[1].exps, t[1].degree)))))

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

    def __add__(self, other):
        if self.ring != other.ring or self.rank != other.rank:
            raise StructuralError("module elements from different ambients")
        return ModuleElement.from_terms(self.ring, self.rank, self.terms + other.terms)

    def __neg__(self):
        fneg = self.ring.field.neg
        return ModuleElement._trusted(
            self.ring, self.rank, tuple((p, m, fneg(k)) for p, m, k in self.terms))

    def __sub__(self, other):
        return self + (-other)

    # a field has no zero divisors and a monomial order is multiplicative, so
    # scaling by a nonzero constant or multiplying by a term keeps the order

    def scale(self, c) -> "ModuleElement":
        ring = self.ring
        c = ring.field.normalize(c)
        if c == ring.field.zero:
            return ModuleElement._trusted(ring, self.rank, ())
        mul = ring.field.mul
        return ModuleElement._trusted(
            ring, self.rank, tuple((p, m, mul(k, c)) for p, m, k in self.terms))

    def mul_term(self, mono: Monomial, coeff) -> "ModuleElement":
        ring = self.ring
        if not isinstance(mono, Monomial) or len(mono.exps) != ring.nvars:
            raise StructuralError(f"{mono!r} is not a monomial of a {ring.nvars}-variable ring")
        c = ring.field.normalize(coeff)
        if c == ring.field.zero:
            return ModuleElement._trusted(ring, self.rank, ())
        mul, exps, degree, trusted = ring.field.mul, mono.exps, mono.degree, Monomial._trusted
        return ModuleElement._trusted(ring, self.rank, tuple(
            (p, trusted(tuple(map(add, m.exps, exps)), m.degree + degree), mul(k, c))
            for p, m, k in self.terms))

    def mul_poly(self, q: Polynomial) -> "ModuleElement":
        if q.ring != self.ring:
            raise StructuralError("module coordinates must share one ring")
        mul = self.ring.field.mul
        return ModuleElement.from_terms(self.ring, self.rank, [
            (p, m.mul(qm), mul(k, qk)) for qm, qk in q.terms for p, m, k in self.terms])

    def monic(self) -> "ModuleElement":
        lead = self.lead()
        field = self.ring.field
        if lead is None or lead[2] == field.one:
            return self
        return self.scale(field.invert(lead[2]))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


def lead_key(el: ModuleElement):
    """Sort key of a nonzero element's lead under position over term."""
    pos, m, _ = el.lead()
    return (-pos, el.ring.order.key(m))


def _divisor_row(g: ModuleElement):
    """``(position, row)`` of the monic element g for a divisor table.

    The row is ``(lead exps, lead degree, den, tail)`` with g = G/den and G
    integral: over Q, den is the lcm of g's denominators; over F_p, den is
    1.  ``tail`` holds G's terms after the lead, whose coefficient is den,
    as (position, exps, degree, integer coefficient).
    """
    terms = g.terms
    pos, lm, _ = terms[0]
    if g.ring.field.characteristic:
        den = 1
        tail = tuple((p, m.exps, m.degree, k) for p, m, k in islice(terms, 1, None))
    else:
        den = lcm(*(k.denominator for _, _, k in terms))
        tail = tuple((p, m.exps, m.degree, k.numerator * (den // k.denominator))
                     for p, m, k in islice(terms, 1, None))
    return pos, (lm.exps, lm.degree, den, tail)


def _group_rows(rows) -> dict:
    """Divisor table: position -> rows with their lead there, in input order."""
    table = {}
    for pos, row in rows:
        table.setdefault(pos, []).append(row)
    return table


def _divisor_table(basis) -> dict:
    """Divisor table of the monic elements of basis, in basis order."""
    return _group_rows(map(_divisor_row, basis))


def _reduce(el: ModuleElement, table: dict, meter: Meter) -> ModuleElement:
    """Full normal form of el against the divisors of ``table``.

    ``table`` is a divisor table (``_divisor_table``) of monic elements;
    ``PairLoop`` grows one as its basis grows and a ``GroebnerBasis`` builds
    one on its first ``normal_form``.  Every term of the result is divisible
    by no divisor's leading term.  The divisor chosen at each step is the
    first match in table order; the end result is independent of that choice
    once the divisors form a Groebner basis.

    Heap division (Monagan-Pearce): pending terms live in a dict keyed by
    (position, exps) and a min-heap of order keys pops the largest first.
    A cancelled term keeps its heap entry, which is skipped when popped;
    no term equal to a popped one can appear later, as every term added
    by a division step is smaller than the term it divides.

    Over Q a pending coefficient is an integer pair (numerator, positive
    denominator), not necessarily in lowest terms: a division step adds an
    integer multiple of the divisor's integral tail, and a pair is reduced
    only when popped.  Remainder terms are Fractions in lowest terms.
    """
    ring = el.ring
    p = ring.field.characteristic
    hkey = ring.order.heap_key()
    heappush, heappop = heapq.heappush, heapq.heappop
    if p:
        work = {(pos, m.exps): k for pos, m, k in el.terms}
    else:
        work = {(pos, m.exps): (k.numerator, k.denominator) for pos, m, k in el.terms}
    heap = [(pos, hkey(m.exps, m.degree), m.exps, m.degree) for pos, m, _ in el.terms]
    heapq.heapify(heap)
    remainder = []  # popped largest first, so already in term order
    while heap:
        pos, _, exps, deg = heappop(heap)
        coeff = work.pop((pos, exps), None)
        if coeff is None:
            continue
        meter.step()
        meter.check_degree(deg)
        for gexps, gdeg, gden, gtail in table.get(pos, ()):
            if gdeg <= deg and all(map(le, gexps, exps)):
                break
        else:
            remainder.append((pos, Monomial._trusted(exps, deg),
                              coeff if p else Fraction(*coeff)))
            continue
        # subtract coeff * shift * G/den; its leading term cancels the
        # popped term and is not re-added
        shift = tuple(map(sub, exps, gexps))
        sdeg = deg - gdeg
        if p:
            c = p - coeff
            for tpos, texps, tdeg, tk in gtail:
                m = tuple(map(add, texps, shift))
                key = (tpos, m)
                old = work.get(key)
                if old is None:
                    work[key] = tk * c % p
                    heappush(heap, (tpos, hkey(m, tdeg + sdeg), m, tdeg + sdeg))
                else:
                    s = (old + tk * c) % p
                    if s:
                        work[key] = s
                    else:
                        del work[key]
            continue
        num, den = coeff
        h = gcd(num, den)
        if h != 1:
            num //= h
            den //= h
        # one multiplier cnum/cden = -coeff/gden per step
        h = gcd(num, gden)
        cnum, cden = -num // h, den * (gden // h)
        for tpos, texps, tdeg, tk in gtail:
            m = tuple(map(add, texps, shift))
            key = (tpos, m)
            old = work.get(key)
            if old is None:
                work[key] = (cnum * tk, cden)
                heappush(heap, (tpos, hkey(m, tdeg + sdeg), m, tdeg + sdeg))
                continue
            onum, oden = old
            if oden == cden:
                s = onum + cnum * tk
            else:
                # common denominator: oden itself when cden divides it
                q, r = divmod(oden, cden)
                if r:
                    h = gcd(oden, cden)
                    s = onum * (cden // h) + cnum * tk * (oden // h)
                    oden = oden // h * cden
                else:
                    s = onum + cnum * tk * q
            if s:
                work[key] = (s, oden)
            else:
                del work[key]
    return ModuleElement._trusted(ring, el.rank, tuple(remainder))


def _spair(f: ModuleElement, g: ModuleElement) -> ModuleElement:
    fp, fm, _ = f.lead()
    gp, gm, _ = g.lead()
    if fp != gp:
        raise StructuralError("s-pair needs equal leading positions")
    lcm = fm.lcm(gm)
    one = f.ring.field.one
    return f.mul_term(lcm.divide(fm), one) - g.mul_term(lcm.divide(gm), one)


class GroebnerBasis:
    """A reduced Groebner basis plus the context it was computed in.

    For quotient-ring semantics the basis generates the preimage in P^rank,
    i.e. the input module together with defining * e_i for every coordinate.
    The divisor table of the elements is built on the first ``normal_form``
    and kept; equality and hashing ignore it.
    """

    __slots__ = ("ring", "rank", "elements", "_table")

    def __init__(self, ring, rank, elements):
        self.ring = ring
        self.rank = rank
        self.elements = tuple(elements)
        self._table = None

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

    ``basis`` holds the monic elements added so far, ``table`` the same
    elements as a divisor table that ``add`` appends to and ``reduce``
    divides by, and ``flags`` marks the adjoined defining generators, whose
    mutual pairs are skipped (sound because the defining list is itself a
    Groebner basis).  Pair selection is minimal lcm degree first; the
    coprime criterion applies in rank one and the chain criterion is
    checked against pairs already off the queue.  After ``complete`` the
    basis is a Groebner basis of everything added, not interreduced, so a
    normal form against it is zero exactly for the members; later ``add``
    calls queue the new pairs for the next run.
    """

    __slots__ = ("ring", "rank", "meter", "basis", "table", "flags", "heap", "pending")

    def __init__(self, ring, rank, meter):
        self.ring = ring
        self.rank = rank
        self.meter = meter
        self.basis = []
        self.table = {}
        self.flags = []
        self.heap = []
        self.pending = set()

    def reduce(self, el: ModuleElement) -> ModuleElement:
        return _reduce(el, self.table, self.meter)

    def add(self, el: ModuleElement, flag: bool):
        """Append ``el``, already reduced against the basis, unless zero."""
        if el.is_zero():
            return
        basis = self.basis
        basis.append(el.monic())
        pos, row = _divisor_row(basis[-1])
        self.table.setdefault(pos, []).append(row)
        self.flags.append(flag)
        j = len(basis) - 1
        pj, mj, _ = basis[j].lead()
        key = self.ring.order.key
        for i in range(j):
            if flag and self.flags[i]:
                continue
            pi, mi, _ = basis[i].lead()
            if pi != pj:
                continue
            lcm = mi.lcm(mj)
            heapq.heappush(self.heap, (lcm.degree, key(lcm), i, j))
            self.pending.add((i, j))

    def complete(self):
        """Run the queued pairs until the basis is a Groebner basis."""
        basis, heap, pending = self.basis, self.heap, self.pending
        while heap:
            _, _, i, j = heapq.heappop(heap)
            if (i, j) not in pending:
                continue
            pending.discard((i, j))
            pi, mi, _ = basis[i].lead()
            pj, mj, _ = basis[j].lead()
            if pi != pj:
                continue
            if self.rank == 1 and mi.is_coprime(mj):
                continue
            lcm = mi.lcm(mj)
            for k in range(len(basis)):
                if k in (i, j):
                    continue
                pk, mk, _ = basis[k].lead()
                if (pk == pi and mk.divides(lcm)
                        and (min(i, k), max(i, k)) not in pending
                        and (min(j, k), max(j, k)) not in pending):
                    break
            else:
                self.add(self.reduce(_spair(basis[i], basis[j])), False)


def _core(elements, ipart, ring, rank, meter):
    """Reduced basis of the seeds ``elements``; ``ipart`` flags the adjoined
    defining generators (see ``PairLoop``).  A flagged seed that the earlier
    seeds reduce is no longer a defining generator and loses its flag."""
    loop = PairLoop(ring, rank, meter)
    for el, flag in zip(elements, ipart):
        nf = loop.reduce(el)
        loop.add(nf, flag and nf == el)
    loop.complete()
    return _interreduce(loop.basis, meter)


def _interreduce(basis, meter):
    """Reduce to the unique reduced basis: minimal leads, reduced tails."""
    kept = []
    for g in sorted(basis, key=lead_key):
        gp, gm, _ = g.lead()
        if not any(hp == gp and hm.divides(gm) for hp, hm, _ in (h.lead() for h in kept)):
            kept.append(g)
    rows = [_divisor_row(g) for g in kept]
    final = []
    for i, g in enumerate(kept):
        table = _group_rows(rows[:i] + rows[i + 1 :])
        final.append(_reduce(g, table, meter).monic())
    final.sort(key=lead_key, reverse=True)
    return final


def _defining_list(defining):
    if isinstance(defining, GroebnerBasis):
        return list(defining.polynomials())
    return list(defining) if defining else []


def _seeded_core(seeds, defining, ring, rank, slots):
    """``_core`` on the seeds plus defining * e_pos for pos < slots."""
    ipart = [False] * len(seeds)
    for g in defining:
        if g.is_zero():
            continue
        if g.ring != ring:
            raise StructuralError("defining ideal from another ring")
        for pos in range(slots):
            seeds.append(ModuleElement.unit(ring, rank, pos, g))
            ipart.append(True)
    return _core(seeds, ipart, ring, rank, active_meter())


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
    defining = _defining_list(defining)
    if not gens:
        if defining:
            ring = defining[0].ring
        if ring is None:
            raise StructuralError("cannot infer the ambient from an empty list")
        els = []
    else:
        els, ring, rank = _as_elements(gens)
    seeds = [el for el in els if not el.is_zero()]
    final = _seeded_core(seeds, defining, ring, rank, rank)
    return GroebnerBasis(ring, rank, final)


def normal_form(f, gb: GroebnerBasis):
    """Canonical remainder of f modulo the basis (same type in, same out)."""
    meter = active_meter()
    if gb._table is None:
        gb._table = _divisor_table(gb.elements)
    if isinstance(f, Polynomial):
        if gb.rank != 1:
            raise StructuralError("polynomial against a module basis")
        if f.ring != gb.ring:
            raise StructuralError("polynomial from another ring")
        return _reduce(ModuleElement.wrap(f), gb._table, meter).coords[0]
    if not isinstance(f, ModuleElement):
        raise StructuralError(f"cannot reduce {type(f).__name__}")
    if f.ring != gb.ring or f.rank != gb.rank:
        raise StructuralError("element from another ambient")
    return _reduce(f, gb._table, meter)


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
    basis = _seeded_core(seeds, _defining_list(defining), ring, rank + m, rank)
    # position over term: an element whose lead lies past the original
    # coordinates has no original part left
    return [ModuleElement._trusted(ring, m, tuple((p - rank, mono, k) for p, mono, k in el.terms))
            for el in basis if el.terms[0][0] >= rank]
