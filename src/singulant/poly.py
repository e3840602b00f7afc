"""Exact multivariate polynomial arithmetic over Q and prime fields.

The kernel is context-free: variables are identified by index only, and the
presentation layer owns the name table.  Every value here (field, monomial,
order, ring, polynomial) is immutable after construction, so instances can
be shared and cached freely.

Coefficients are Fraction over Q (always in lowest terms with positive
denominator) and plain ints in [0, p) over a prime field.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add, mul

from .errors import StructuralError


# ---------------------------------------------------------------------------
# coefficient fields


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the witnesses above is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; StructuralError at or past _PRIME_LIMIT."""
    if p >= _PRIME_LIMIT:
        raise StructuralError(f"{p} is too large to certify as prime")
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field Q with Fraction arithmetic."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise StructuralError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise StructuralError("division by zero in Q")
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class PrimeField:
    """The field F_p; residues are ints in [0, p)."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise StructuralError(f"{self.p} is not prime")

    @property
    def characteristic(self):
        return self.p

    def normalize(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise StructuralError(
                    f"denominator of {value} vanishes modulo {self.p}"
                )
            return value.numerator * pow(den, -1, self.p) % self.p
        raise StructuralError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise StructuralError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"


# ---------------------------------------------------------------------------
# monomials


class Monomial:
    """An exponent vector with its total degree cached."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        exps = tuple(exps)
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise StructuralError(f"bad exponent vector {exps}")
        self.exps = exps
        self.degree = sum(exps)

    @classmethod
    def _trusted(cls, exps: tuple, degree: int) -> "Monomial":
        """Unchecked construction from non-negative ints and their sum."""
        m = object.__new__(cls)
        m.exps = exps
        m.degree = degree
        return m

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial{self.exps}"

    def __len__(self):
        return len(self.exps)

    def is_constant(self) -> bool:
        return self.degree == 0

    def mul(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps):
            raise StructuralError("monomials from different rings")
        return Monomial._trusted(
            tuple(map(add, self.exps, other.exps)), self.degree + other.degree
        )

    __mul__ = mul

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def divide(self, other: "Monomial") -> "Monomial":
        # self / other, defined only when other divides self
        if not other.divides(self):
            raise StructuralError(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(a, b) for a, b in zip(self.exps, other.exps))

    def is_coprime(self, other: "Monomial") -> bool:
        return all(a == 0 or b == 0 for a, b in zip(self.exps, other.exps))

    def support(self) -> frozenset:
        return frozenset(i for i, e in enumerate(self.exps) if e > 0)


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: grevlex, lex, or a block elimination order.

    Block orders compare the projections to each block in turn, each block
    with grevlex, so monomials touching an earlier block dominate all
    monomials supported in later blocks only.
    """

    kind: str
    blocks: tuple = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise StructuralError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and not self.blocks:
            raise StructuralError("block order needs at least one block")

    def key(self, m: Monomial):
        """Sort key: key(a) < key(b) iff a < b in this order."""
        if self.kind == "grevlex":
            return (m.degree, tuple(-e for e in reversed(m.exps)))
        if self.kind == "lex":
            return m.exps
        pieces = []
        for block in self.blocks:
            bexps = tuple(m.exps[i] for i in block)
            pieces.append((sum(bexps), tuple(-e for e in reversed(bexps))))
        return tuple(pieces)

    def packing(self, nvars: int, bound: int) -> "Packing":
        """The ``Packing`` of this order for terms of degree at most
        ``bound``, with one spare bit per field so that a bound which less
        than doubles later still fits.  Bounds of one width share one
        instance, so a term or divisor row packed once is valid in every
        table of that width."""
        return self._packing(nvars, max(bound, 1).bit_length() + 1)

    @cache
    def _packing(self, nvars: int, width: int) -> "Packing":
        if self.kind == "grevlex":
            blocks = (tuple(range(nvars)),)
        elif self.kind == "lex":
            blocks = tuple((i,) for i in range(nvars))
        else:
            blocks = self.blocks
        return Packing(blocks, nvars, width)

    def name(self) -> str:
        if self.kind == "block":
            return "block" + "".join(f"[{','.join(map(str, b))}]" for b in self.blocks)
        return self.kind


class Packing:
    """Terms of P^rank as one int each, for one order, variable count and
    field width.

    The int is a row of fields of ``width + 1`` bits; the top bit of each
    is a guard, clear in every packed term.  From the most significant end:
    the position (unbounded); then, for each block of the order in turn,
    ``capacity - d`` for the term's degree d in the block followed by the
    block's exponents, last variable first; and at the bottom the total
    degree.  Grevlex is one block of all variables, lex one block per
    variable, so each block compares by degree and then reverse
    lexicographically, as ``MonomialOrder.key`` does.

    While every degree is at most ``capacity`` (2^width - 1) no field
    carries into the next, and:

    - ``pack(a) < pack(b)`` iff a > b in position over term, position 0
      largest, so a min-heap of packed terms pops the largest first;
    - multiplying a term by a monomial m adds ``lift(e)``, e being m's
      exponents packed alone (``pack(0, m) & exps_mask``);
    - g's monomial divides t's iff ``((t | guards) - g) & guards == guards``
      for g the divisor's exponents packed alone.
    """

    __slots__ = ("width", "capacity", "pos_shift", "base", "units", "offsets",
                 "exps_mask", "guards", "ones", "monomial_mask")

    def __init__(self, blocks, nvars: int, width: int):
        size = width + 1
        cap = (1 << width) - 1
        offsets = [0] * nvars
        units = [0] * nvars
        base = 0
        k = 1  # field 0 holds the total degree
        for block in reversed(blocks):
            for i in block:
                offsets[i] = k * size
                k += 1
            for i in block:
                units[i] = (1 << offsets[i]) - (1 << k * size) + 1
            base += cap << k * size
            k += 1
        self.width = width
        self.capacity = cap
        self.pos_shift = k * size
        self.base = base
        self.units = tuple(units)
        self.offsets = tuple(offsets)
        self.exps_mask = sum(cap << o for o in offsets)
        self.guards = sum(1 << o + width for o in offsets)
        self.ones = sum(1 << o for o in offsets)
        self.monomial_mask = (1 << self.pos_shift) - 1  # all but the position

    def pack(self, pos: int, exps: tuple) -> int:
        return (pos << self.pos_shift) + self.base + sum(map(mul, exps, self.units))

    def unpack(self, t: int):
        """(position, exponent tuple, degree) of a packed term."""
        cap = self.capacity
        return t >> self.pos_shift, tuple([(t >> o) & cap for o in self.offsets]), t & cap

    def lift(self, e: int) -> int:
        """What multiplying by the monomial with packed exponents e adds."""
        cap = self.capacity
        return sum([((e >> o) & cap) * u for o, u in zip(self.offsets, self.units)])

    def divides(self, g: int, e: int) -> bool:
        """Do the packed exponents g divide the packed exponents e?"""
        guards = self.guards
        return ((e | guards) - g) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum of packed exponents."""
        ge = ((a | self.guards) - b) & self.guards  # guard bit where a_i >= b_i
        return b ^ ((a ^ b) & (ge - (ge >> self.width)))

    def coprime(self, a: int, b: int) -> bool:
        """Do the packed exponents a and b share no variable?"""
        guards, ones = self.guards, self.ones
        return not ((a | guards) - ones) & ((b | guards) - ones) & guards


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(front: tuple, rest: tuple) -> MonomialOrder:
    """Block order making the ``front`` variables dominate the ``rest``."""
    return MonomialOrder("block", (tuple(front), tuple(rest)))


# ---------------------------------------------------------------------------
# polynomial rings and polynomials


@dataclass(frozen=True)
class PolynomialRing:
    """field, number of variables, and monomial order.  No variable names."""

    field: object
    nvars: int
    order: MonomialOrder = GREVLEX

    def __post_init__(self):
        if self.nvars < 0:
            raise StructuralError("negative variable count")
        if self.order.kind == "block":
            flat = sorted(i for b in self.order.blocks for i in b)
            if flat != list(range(self.nvars)):
                raise StructuralError("block order must partition the variables")

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {Monomial((0,) * self.nvars): c})

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise StructuralError(f"variable index {i} out of range")
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {Monomial(exps): self.field.one})

    def monomial(self, exps, coeff=None) -> "Polynomial":
        c = self.field.one if coeff is None else coeff
        return Polynomial(self, {Monomial(exps): c})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]


class Polynomial:
    """Immutable sparse polynomial; terms stored in decreasing order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        field = ring.field
        clean = {}
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            if len(mono) != ring.nvars:
                raise StructuralError(
                    f"monomial with {len(mono)} exponents in a {ring.nvars}-variable ring"
                )
            c = field.normalize(coeff)
            if c == field.zero:
                continue
            if mono in clean:
                c = field.add(clean[mono], c)
                if c == field.zero:
                    del clean[mono]
                    continue
            clean[mono] = c
        key = ring.order.key
        self.ring = ring
        self.terms = tuple(
            sorted(clean.items(), key=lambda it: key(it[0]), reverse=True)
        )

    @classmethod
    def _trusted(cls, ring: PolynomialRing, terms: tuple) -> "Polynomial":
        """Unchecked construction from terms already normalized, nonzero,
        distinct and in decreasing order."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- basic views ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self) -> int:
        # -1 for the zero polynomial
        return max((m.degree for m, _ in self.terms), default=-1)

    def is_constant(self) -> bool:
        return all(m.is_constant() for m, _ in self.terms)

    def constant_term(self):
        for m, c in self.terms:
            if m.is_constant():
                return c
        return self.ring.field.zero

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def is_one(self) -> bool:
        return (
            len(self.terms) == 1
            and self.terms[0][0].is_constant()
            and self.terms[0][1] == self.ring.field.one
        )

    def is_homogeneous(self) -> bool:
        return len({m.degree for m, _ in self.terms}) <= 1

    def support(self) -> frozenset:
        out = set()
        for m, _ in self.terms:
            out |= m.support()
        return frozenset(out)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise StructuralError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(self.ring, self.terms + other.terms)

    def __neg__(self):
        fneg = self.ring.field.neg
        return Polynomial._trusted(self.ring, tuple((m, fneg(c)) for m, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        mul = self.ring.field.mul
        return Polynomial(self.ring, [
            (m1.mul(m2), mul(c1, c2)) for m1, c1 in self.terms for m2, c2 in other.terms])

    def __rmul__(self, other):
        return self.scale(other)

    # a field has no zero divisors and a monomial order is multiplicative, so
    # scaling by a nonzero constant or multiplying by a term keeps the terms
    # nonzero, distinct and sorted

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(c)
        if not self.terms:
            return self
        if c == field.zero:
            return self.ring.zero()
        mul = field.mul
        return Polynomial._trusted(self.ring, tuple((m, mul(k, c)) for m, k in self.terms))

    def mul_term(self, mono: Monomial, coeff) -> "Polynomial":
        ring = self.ring
        if not isinstance(mono, Monomial) or len(mono.exps) != ring.nvars:
            raise StructuralError(f"{mono!r} is not a monomial of a {ring.nvars}-variable ring")
        field = ring.field
        c = field.normalize(coeff)
        if not self.terms:
            return self
        if c == field.zero:
            return ring.zero()
        mul, exps, degree, trusted = field.mul, mono.exps, mono.degree, Monomial._trusted
        return Polynomial._trusted(ring, tuple(
            (trusted(tuple(map(add, m.exps, exps)), m.degree + degree), mul(k, c))
            for m, k in self.terms
        ))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise StructuralError("polynomial powers take non-negative ints")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = self.ring.field.invert(self.lead_coeff())
        return self.scale(inv)

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, i: int) -> "Polynomial":
        if not 0 <= i < self.ring.nvars:
            raise StructuralError(f"variable index {i} out of range")
        # the constructor reduces e * c into the field and drops zeros
        return Polynomial(self.ring, [
            (Monomial._trusted(m.exps[:i] + (m.exps[i] - 1,) + m.exps[i + 1:], m.degree - 1),
             m.exps[i] * c)
            for m, c in self.terms if m.exps[i]])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return format_polynomial(self)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; StructuralError otherwise."""
    f._check(g)
    if g.is_zero():
        raise StructuralError("division by the zero polynomial")
    ring = f.ring
    field = ring.field
    quotient = {}
    rest = f
    while not rest.is_zero():
        lm, lc = rest.terms[0]
        gm, gc = g.terms[0]
        if not gm.divides(lm):
            raise StructuralError("not exactly divisible")
        mono = lm.divide(gm)
        coeff = field.mul(lc, field.invert(gc))
        quotient[mono] = coeff
        rest = rest - g.mul_term(mono, coeff)
    return Polynomial(ring, quotient)


# ---------------------------------------------------------------------------
# printing


def default_names(n: int):
    return [f"x{i}" for i in range(n)]


def _format_monomial(m: Monomial, names) -> str:
    parts = []
    for i, e in enumerate(m.exps):
        if e == 0:
            continue
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, names=None) -> str:
    """Render in the input grammar so printed output can be re-parsed."""
    if p.is_zero():
        return "0"
    if names is None:
        names = default_names(p.ring.nvars)
    field = p.ring.field
    out = []
    for i, (m, c) in enumerate(p.terms):
        neg = False
        if isinstance(c, Fraction) and c < 0:
            neg = True
            c = -c
        body = _format_monomial(m, names)
        cs = str(c)
        if not body:
            piece = cs
        elif c == field.one:
            piece = body
        else:
            piece = f"{cs}*{body}"
        if i == 0:
            out.append(f"-{piece}" if neg else piece)
        else:
            out.append(f"- {piece}" if neg else f"+ {piece}")
    return " ".join(out)
