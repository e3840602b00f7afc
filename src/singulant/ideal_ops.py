"""Ring presentations R = P/I, ideal handles, and ideal-level invariants.

A presentation owns the variable name table and the defining ideal; the
zero defining ideal presents the polynomial ring itself.  Ideal handles
carry generators plus a cached reduced Groebner basis of the preimage
(generators together with the defining ideal), which is the canonical form
used for membership and equality.

The "local ring" reading is the graded/affine proxy: for homogeneous input
the graded-local and complete-local answers agree, and non-homogeneous
input is accepted with an affine-reading caveat surfaced by callers.
"""
from __future__ import annotations

import itertools
import string

from .errors import (
    BudgetExceededError,
    PreconditionError,
    StructuralError,
    UnsupportedInputError,
    active_meter,
)
from .groebner import (GroebnerBasis, ModuleElement, buchberger, lead_key, normal_form,
                       syzygies)
from .poly import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    elimination_order,
    format_polynomial,
)

# the identifier rule of variable names and of the parser's tokenizer: an
# ASCII letter or underscore, then ASCII letters, digits and underscores
IDENT_START = frozenset(string.ascii_letters + "_")
IDENT_CHARS = IDENT_START | frozenset(string.digits)


def field_token(fld) -> str:
    """The field as the grammar writes it: Q or F<p>."""
    return "Q" if fld.characteristic == 0 else f"F{fld.characteristic}"


class RingPresentation:
    """R = field[names] / (defining), with caches for derived data."""

    def __init__(self, field, names, defining=(), order: MonomialOrder = GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise StructuralError("duplicate variable names")
        for nm in names:
            if not nm or nm[0] not in IDENT_START or not IDENT_CHARS.issuperset(nm):
                raise StructuralError(f"bad variable name {nm!r}")
        self.field = field
        self.names = names
        self.order = order
        self.poly_ring = PolynomialRing(field, len(names), order)
        defining = tuple(defining)
        for g in defining:
            if not isinstance(g, Polynomial) or g.ring != self.poly_ring:
                raise StructuralError("defining generators must live in the ambient ring")
            if g.is_zero():
                raise StructuralError("zero defining generator rejected")
        self.defining = defining
        self._defining_ideal = None
        self._ambient = None

    # -- basic views ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    def is_graded(self) -> bool:
        return all(g.is_homogeneous() for g in self.defining)

    def defining_basis(self) -> GroebnerBasis:
        """Reduced Groebner basis of the defining ideal: its one handle's."""
        return self.defining_ideal().groebner()

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of p modulo the defining ideal."""
        if not self.defining or p.is_zero():
            return p
        return normal_form(p, self.defining_basis())

    def normal_form_element(self, el: ModuleElement) -> ModuleElement:
        """el with every coordinate in normal form modulo the defining
        ideal: one division modulo I * P^rank against the defining basis
        (``groebner.normal_form``), el itself when no step divides."""
        if not self.defining or el.is_zero():
            return el
        return normal_form(el, self.defining_basis())

    def kernel_into(self, domain_rank: int, images, allowed):
        """Generators of {v in R^d : sum v_t * images[t] in <allowed>}.

        ``images`` holds the images in one R^n of the d = ``domain_rank``
        unit vectors, or nothing for the zero map, and ``allowed`` elements
        of the same R^n.  The kernel is read off one syzygy run over R on
        images + allowed, keeping each syzygy's first d coordinates in
        normal form (Greuel-Pfister ch. 2); colons, intersections and
        annihilators are all this one computation.  With no nonzero image
        every vector qualifies, and the unit vectors are returned.  The
        generators are not trimmed.
        """
        pring = self.poly_ring
        if all(el.is_zero() for el in images):
            return [ModuleElement.unit(pring, domain_rank, t) for t in range(domain_rank)]
        rels = syzygies(list(images) + list(allowed), defining=self.defining_basis())
        heads = (ModuleElement.from_terms(pring, domain_rank,
                                          [t for t in rel.terms if t[0] < domain_rank])
                 for rel in rels)
        return [h for h in map(self.normal_form_element, heads) if not h.is_zero()]

    @staticmethod
    def sort_columns(cols):
        """Deterministic column order: decreasing leading-term keys."""
        return sorted(cols, key=lead_key, reverse=True)

    def ambient(self) -> "RingPresentation":
        """The polynomial ring P underneath, as a trivial presentation."""
        if not self.defining:
            return self
        if self._ambient is None:
            self._ambient = RingPresentation(self.field, self.names, (), self.order)
        return self._ambient

    def same_ambient(self, other: "RingPresentation") -> bool:
        return (
            self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __eq__(self, other):
        return (
            isinstance(other, RingPresentation)
            and self.same_ambient(other)
            and self.defining == other.defining
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order, self.defining))

    # -- convenience ---------------------------------------------------------

    def variable(self, i: int) -> Polynomial:
        return self.poly_ring.variable(i)

    def variable_named(self, name: str) -> Polynomial:
        try:
            return self.variable(self.names.index(name))
        except ValueError:
            raise StructuralError(f"no variable named {name!r}") from None

    def maximal_ideal(self) -> "IdealHandle":
        return IdealHandle(self, [self.variable(i) for i in range(self.nvars)])

    def ideal(self, gens) -> "IdealHandle":
        return IdealHandle(self, gens)

    def defining_ideal(self) -> "IdealHandle":
        """The defining ideal as an ideal of the ambient polynomial ring;
        one handle per presentation, so its basis is computed once."""
        if self._defining_ideal is None:
            self._defining_ideal = IdealHandle(self.ambient(), list(self.defining))
        return self._defining_ideal

    def format_element(self, p: Polynomial) -> str:
        return format_polynomial(p, self.names)

    def format(self) -> str:
        base = f"{field_token(self.field)}[{','.join(self.names)}]"
        if not self.defining:
            return base
        gens = ", ".join(self.format_element(g) for g in self.defining)
        return f"{base}/({gens})"

    def __repr__(self):
        return f"RingPresentation({self.format()})"


class IdealHandle:
    """Generators of an ideal of R plus its cached preimage basis."""

    def __init__(self, ring: RingPresentation, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial) or g.ring != ring.poly_ring:
                raise StructuralError("ideal generators must live in the ambient ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb = None
        self._display = None
        self._radical = {}  # f -> is f in the radical, see radical_membership

    def groebner(self) -> GroebnerBasis:
        """Reduced basis of the preimage (generators + defining) in P.

        The defining ideal's basis is adjoined as ``defining=``, already a
        Groebner basis, and is this basis itself when every generator
        reduces to zero modulo it, as for a zero socle.
        """
        if self._gb is None:
            # with no defining ideal, its basis is this method's own result
            # on the empty ideal: asking for it would recurse
            defining = self.ring.defining_basis() if self.ring.defining else None
            if defining is not None and all(
                    normal_form(g, defining).is_zero() for g in self.generators):
                self._gb = defining
            else:
                self._gb = buchberger(list(self.generators), defining=defining,
                                      ring=self.ring.poly_ring)
        return self._gb

    def basis_polynomials(self):
        return self.groebner().polynomials()

    def reduced_generators(self):
        """Preimage basis elements surviving modulo the defining ideal.

        This is the display form of the ideal as an ideal of R: normal
        forms of the preimage basis, with members of the defining ideal
        dropped; then, in basis order, each one lying in the ideal of the
        others still listed is dropped too, so none is redundant.
        """
        if self._display is None:
            if not self.ring.defining:
                self._display = tuple(self.basis_polynomials())
            else:
                out = [nf for nf in map(self.ring.normal_form, self.basis_polynomials())
                       if not nf.is_zero()]
                for nf in list(out):
                    others = [g for g in out if g is not nf]
                    if others and IdealHandle(self.ring, others).contains(nf):
                        out.remove(nf)
                self._display = tuple(out)
        return self._display

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring.poly_ring:
            raise StructuralError("element from another ring")
        return normal_form(f, self.groebner()).is_zero()

    def is_unit(self) -> bool:
        return self.groebner().is_unit_ideal()

    def is_zero(self) -> bool:
        # zero as an ideal of R: every generator lies in the defining ideal
        return not self.reduced_generators()

    def same_ideal(self, other: "IdealHandle") -> bool:
        """Equality as ideals of the common presentation."""
        if not isinstance(other, IdealHandle) or self.ring != other.ring:
            raise StructuralError("ideals live in different presentations")
        return self.groebner() == other.groebner()

    def image_in(self, ring: RingPresentation) -> "IdealHandle":
        if not self.ring.same_ambient(ring):
            raise StructuralError("presentations share no ambient")
        return IdealHandle(ring, list(self.generators))

    def format(self) -> str:
        gens = self.reduced_generators()
        if not gens:
            return "(0)"
        return "(" + ", ".join(self.ring.format_element(g) for g in gens) + ")"

    def __repr__(self):
        return f"IdealHandle({self.format()})"


# ---------------------------------------------------------------------------
# membership and radicals


def radical_membership(f: Polynomial, ideal: IdealHandle) -> bool:
    """f in the radical of the ideal, decided with a fresh inverse variable.

    1 lies in the extended ideal (preimage, 1 - t*f) of P[t] iff f is in
    the radical; this holds over any coefficient field.  t is appended last,
    under a block order eliminating it.  The answer is kept on the handle,
    so each f costs one elimination per handle.
    """
    ring = ideal.ring
    if f.ring != ring.poly_ring:
        raise StructuralError("element from another ring")
    if f.is_zero():
        return True
    if f in ideal._radical:
        return ideal._radical[f]
    n = ring.nvars
    ext = PolynomialRing(ring.field, n + 1, elimination_order((n,), tuple(range(n))))

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(ext, [(Monomial(m.exps + (0,)), c) for m, c in p.terms])

    gens = [lift(g) for g in ideal.generators]
    gens += [lift(g) for g in ring.defining_basis().polynomials()]
    gens.append(ext.one() - ext.variable(n) * lift(f))
    ideal._radical[f] = buchberger(gens, ring=ext).is_unit_ideal()
    return ideal._radical[f]


# ---------------------------------------------------------------------------
# quotient and intersection


def intersection(i: IdealHandle, j: IdealHandle) -> IdealHandle:
    """I cap J over R: the colon of (1, 1) into I e_0 + J e_1.

    A ring element r lies in both ideals exactly when r * (1, 1) lies in
    the submodule I e_0 + J e_1 of R^2, so the intersection is one
    ``kernel_into`` of rank one.
    """
    if i.ring != j.ring:
        raise StructuralError("ideals live in different presentations")
    ring = i.ring
    pring = ring.poly_ring
    allowed = [ModuleElement.unit(pring, 2, 0, g) for g in i.generators]
    allowed += [ModuleElement.unit(pring, 2, 1, g) for g in j.generators]
    one = ModuleElement(pring, [pring.one(), pring.one()])
    return IdealHandle(ring, [v.coords[0] for v in ring.kernel_into(1, [one], allowed)])


def ideal_quotient(i: IdealHandle, j: IdealHandle) -> IdealHandle:
    """(I : J) over R: the colon of (g_1, ..., g_s) into I^s.

    With J = (g_1, ..., g_s), r g_k lies in I for every k exactly when
    r * (g_1, ..., g_s) lies in I e_1 + ... + I e_s, so the quotient is one
    ``kernel_into`` of rank one.  (I : 0) is the unit ideal.
    """
    if i.ring != j.ring:
        raise StructuralError("ideals live in different presentations")
    ring = i.ring
    pring = ring.poly_ring
    s = len(j.generators)
    allowed = [ModuleElement.unit(pring, s, k, g) for k in range(s) for g in i.generators]
    image = ModuleElement(pring, j.generators)
    return IdealHandle(ring, [v.coords[0] for v in ring.kernel_into(1, [image], allowed)])


# ---------------------------------------------------------------------------
# dimension theory on leading terms


def _lead_supports(ideal: IdealHandle):
    supports = []
    for p in ideal.basis_polynomials():
        supports.append(p.lead_monomial().support())
    return supports


def krull_dimension(ideal: IdealHandle) -> int:
    """dim of (ambient)/(preimage), from the leading-term ideal.

    The dimension equals the largest number of variables spanning a
    coordinate subspace that meets no leading-term support; the unit ideal
    reports -1.
    """
    if ideal.is_unit():
        return -1
    n = ideal.ring.nvars
    supports = [s for s in _lead_supports(ideal) if s]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if not any(s <= chosen for s in supports):
                return size
    return 0


def height(ideal: IdealHandle) -> int:
    """nvars minus the dimension; requires a proper ideal."""
    if ideal.is_unit():
        raise PreconditionError("height of the unit ideal is undefined")
    return ideal.ring.nvars - krull_dimension(ideal)


def ring_dimension(ring: RingPresentation) -> int:
    return krull_dimension(ring.defining_ideal())


# ---------------------------------------------------------------------------
# monomial minimal primes and equidimensionality


def _monomial_supports(ideal: IdealHandle):
    supports = []
    for g in list(ideal.generators) + list(ideal.ring.defining):
        if g.is_zero():
            continue
        if not g.is_term():
            raise UnsupportedInputError(
                "minimal primes are only computed for monomial ideals"
            )
        supports.append(sorted(g.lead_monomial().support()))
    return supports


def minimal_primes_monomial(ideal: IdealHandle):
    """Minimal primes of a monomial ideal, each a handle on variables."""
    supports = _monomial_supports(ideal)
    covers = {frozenset()}
    for sup in supports:
        grown = set()
        for c in covers:
            if any(v in c for v in sup):
                grown.add(c)
            else:
                for v in sup:
                    grown.add(c | {v})
        # keep only inclusion-minimal covers to tame growth
        covers = {c for c in grown if not any(d < c for d in grown)}
    minimal = sorted(
        covers, key=lambda c: (len(c), tuple(sorted(c)))
    )
    ring = ideal.ring
    return [
        IdealHandle(ring, [ring.variable(i) for i in sorted(c)]) for c in minimal
    ]


def is_equidimensional(ring: RingPresentation, primes=None):
    """True/False for monomial (or zero) defining ideals, None otherwise.
    ``primes``, when given, are the minimal primes of a monomial defining
    ideal, already computed."""
    if not ring.defining:
        return True
    if not all(g.is_term() for g in ring.defining):
        return None
    if primes is None:
        primes = minimal_primes_monomial(ring.defining_ideal())
    dims = {ring.nvars - len(p.generators) for p in primes}
    return len(dims) == 1


# ---------------------------------------------------------------------------
# zero-dimensionality, socle, Loewy length, minimal generators


def is_m_primary(ideal: IdealHandle) -> bool:
    """Every variable lies in the radical of (generators + defining), and
    the ideal is proper."""
    ring = ideal.ring
    return all(
        radical_membership(ring.variable(i), ideal) for i in range(ring.nvars)
    ) and not ideal.is_unit()


def socle(ring: RingPresentation) -> IdealHandle:
    """(0 : m) over R."""
    return ideal_quotient(IdealHandle(ring, []), ring.maximal_ideal())


def loewy_length(ring: RingPresentation, ideal: IdealHandle) -> int:
    """Least n with m^n inside (ideal + defining); needs an m-primary ideal."""
    if ideal.ring != ring:
        raise StructuralError("ideal lives in a different presentation")
    if ideal.is_unit():
        raise PreconditionError("ideal is the unit ideal, so it is not m-primary")
    missing = [ring.names[i] for i in range(ring.nvars)
               if not radical_membership(ring.variable(i), ideal)]
    if missing:
        raise PreconditionError(
            f"ideal is not m-primary: variable(s) {', '.join(missing)} escape the radical"
        )
    limit = active_meter().max_degree + 1
    for n in range(limit + 1):
        if all(
            ideal.contains(_monomial_power(ring, combo))
            for combo in itertools.combinations_with_replacement(range(ring.nvars), n)
        ):
            return n
    raise BudgetExceededError(f"Loewy length exceeds the degree budget {limit}")


def _monomial_power(ring: RingPresentation, combo) -> Polynomial:
    exps = [0] * ring.nvars
    for i in combo:
        exps[i] += 1
    return ring.poly_ring.monomial(exps)


def minimal_generators(ideal: IdealHandle) -> int:
    """Minimal number of generators: the k-rank of I modulo m*I.

    Computed by reducing the given generators modulo a basis of
    m*I + defining and Gaussian-eliminating the normal forms over the
    coefficient field.
    """
    ring = ideal.ring
    gens = [g for g in ideal.generators if not g.is_zero()]
    if not gens:
        return 0
    mI = [ring.variable(i) * g for i in range(ring.nvars) for g in gens]
    gb = buchberger(mI + list(ring.defining_basis().polynomials()), ring=ring.poly_ring)
    forms = [normal_form(g, gb) for g in gens]
    return _kspan_rank([f for f in forms if not f.is_zero()])


def _kspan_rank(polys) -> int:
    """Rank of a list of polynomials as vectors over the coefficient field."""
    pivots = {}
    rank = 0
    for p in polys:
        while not p.is_zero():
            lead = p.lead_monomial()
            if lead not in pivots:
                break
            p = p - pivots[lead].scale(p.lead_coeff())
        if p.is_zero():
            continue
        pivots[p.lead_monomial()] = p.monic()
        rank += 1
    return rank
