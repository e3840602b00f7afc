"""Correctness checks that share no code with singulant.

Expected values come from closed forms in the literature or were derived
by hand; observed values are read back from the program's printed output
with the small parser below, never through singulant's own objects.

* Betti numbers of the residue field k, and dim_k Ext^i(k, k), follow from
  Poincare series: Tate's (1+t)^n / (1-t^2)^c for complete intersections,
  (1+t)^n / (1 - sum_i b_i t^(i+1)) for Golod rings (b_i the Betti numbers
  of R over the polynomial ring), and the product of the two series for a
  tensor product of rings.
* Every resolution is a complex: d_i * d_(i+1) vanishes modulo the
  defining ideal, reduced with the hand-written rewrite rules of RINGS.
"""
from __future__ import annotations

import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# power series


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a, n):
    out = [1]
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def series(num, den, terms):
    """First ``terms`` coefficients of num/den (den[0] == 1)."""
    out = []
    for k in range(terms):
        c = num[k] if k < len(num) else 0
        c -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(c)
    return out


def tate(nvars, codim, terms):
    """Poincare series of k over a complete intersection."""
    return series(_poly_pow([1, 1], nvars), _poly_pow([1, 0, -1], codim), terms)


def golod(nvars, betti, terms):
    """Poincare series of k over a Golod ring with the given Betti numbers."""
    den = [1, 0] + [-b for b in betti]
    return series(_poly_pow([1, 1], nvars), den, terms)


def product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}

_NUMBER = re.compile(r"^\d+(/\d+)?$")
_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(\^(\d+))?$")


def parse_poly(text, names):
    """Parse the printed form ``3*x^2*y - 1/2*z + 4`` into a term dict."""
    index = {nm: i for i, nm in enumerate(names)}
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for piece in text.replace(" - ", " + -").split(" + "):
        piece = piece.strip()
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in piece.split("*"):
            if _NUMBER.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None or m.group(1) not in index:
                raise ValueError(f"cannot read factor {factor!r} of {text!r}")
            exps[index[m.group(1)]] += int(m.group(3) or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
        if out[key] == 0:
            del out[key]
    return out


def mul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            k = tuple(i + j for i, j in zip(a, b))
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reduce_by(p, rules):
    """Rewrite with ``lead -> -tail`` until no term has a lead as a factor.

    Each rule is (lead exponents, tail dict) for a monic generator
    lead + tail whose tail terms come after the lead in the ring's order,
    and the generators form a Groebner basis, so the result is zero exactly
    when p lies in the ideal.
    """
    p = dict(p)
    while True:
        hit = None
        for mono in p:
            for lead, tail in rules:
                if _divides(lead, mono):
                    hit = (mono, lead, tail)
                    break
            if hit:
                break
        if hit is None:
            return p
        mono, lead, tail = hit
        coeff = p.pop(mono)
        quot = tuple(m - l for m, l in zip(mono, lead))
        for t, c in tail.items():
            k = tuple(i + j for i, j in zip(quot, t))
            p[k] = p.get(k, 0) - coeff * c
            if p[k] == 0:
                del p[k]


def minimal_monomials(monos):
    monos = set(monos)
    return {m for m in monos
            if not any(o != m and _divides(o, m) for o in monos)}


# ---------------------------------------------------------------------------
# the rings, with facts derived by hand


def _mono(names, text):
    return next(iter(parse_poly(text, names)))


class RingFacts:
    """A presentation with its hand-derived invariants.

    ``rules`` rewrite the defining ideal (a Groebner basis of it);
    ``defining_monomials`` is set when the ideal is monomial; ``jac`` and
    ``socle`` are monomial ideals given modulo the defining ideal;
    ``poincare`` gives the Betti numbers of k.
    """

    def __init__(self, text, names, rules, monomial, dim, depth, jac, socle,
                 poincare):
        self.text = text
        self.names = names
        self.rules = [(_mono(names, lead), parse_poly(tail, names))
                      for lead, tail in rules]
        self.defining_monomials = (
            {lead for lead, _ in self.rules} if monomial else set())
        self.dim = dim
        self.depth = depth
        self.jac = {_mono(names, m) for m in jac}
        self.socle = {_mono(names, m) for m in socle}
        self.poincare = poincare


XY, XYZ, XYZW = ("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w")

RINGS = {
    # golden ring A: Golod, R over S has Betti numbers 2, 1
    "A": RingFacts("Q[x,y]/(x^2,x*y)", XY,
                   [("x^2", "0"), ("x*y", "0")], True,
                   dim=1, depth=0, jac=["x", "y"], socle=["x"],
                   poincare=lambda n: golod(2, [2, 1], n)),
    # golden ring B = k[x]/(x^2) (x) k[y,z,w]/(yz,yw); components (x,y) of
    # dimension 2 and (x,z,w) of dimension 1; depth 0 + 1
    "B": RingFacts("Q[x,y,z,w]/(x^2,y*z,y*w)", XYZW,
                   [("x^2", "0"), ("y*z", "0"), ("y*w", "0")], True,
                   dim=2, depth=1,
                   jac=["x*y", "x*z", "x*w", "y^2"], socle=[],
                   poincare=lambda n: product(tate(1, 1, n), golod(3, [2, 1], n))),
    # complete intersection of codimension 2; Jacobian 4xy
    "C": RingFacts("Q[x,y]/(x^2,y^2)", XY,
                   [("x^2", "0"), ("y^2", "0")], True,
                   dim=0, depth=0, jac=["x*y"], socle=["x*y"],
                   poincare=lambda n: tate(2, 2, n)),
    # Cohen-Macaulay hypersurface; Jacobian (x^2, y^2, z^2) contains f
    "cubic": RingFacts("Q[x,y,z]/(x^3+y^3+z^3)", XYZ,
                       [("x^3", "y^3 + z^3")], False,
                       dim=2, depth=2, jac=["x^2", "y^2", "z^2"], socle=[],
                       poincare=lambda n: tate(3, 1, n)),
    # three coordinate axes: reduced of dimension 1, hence depth 1; Golod
    # with Hilbert-Burch Betti numbers 3, 2; 2x2 minors give m^2
    "D": RingFacts("Q[x,y,z]/(x*y,y*z,x*z)", XYZ,
                   [("x*y", "0"), ("y*z", "0"), ("x*z", "0")], True,
                   dim=1, depth=1,
                   jac=["x^2", "y^2", "z^2"], socle=[],
                   poincare=lambda n: golod(3, [3, 2], n)),
    # plane cusp: hypersurface of dimension 1; (3x^2, -2y) + (f) = (x^2, y)
    "cusp": RingFacts("Q[x,y]/(x^3-y^2)", XY,
                      [("x^3", "-y^2")], False,
                      dim=1, depth=1, jac=["x^2", "y"], socle=[],
                      poincare=lambda n: tate(2, 1, n)),
}


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages (empty when correct)


def _monomial_ideal(facts, gens):
    """Minimal generators of (gens) + defining ideal, or None if not monomial."""
    monos = set(facts.defining_monomials)
    for g in gens:
        p = parse_poly(g, facts.names)
        if len(p) != 1:
            return None
        monos.add(next(iter(p)))
    return minimal_monomials(monos)


def check_ring_facts(doc, facts):
    """dim, depth, Jacobian ideal and socle of one report document."""
    errors = []
    for key in ("dim", "depth"):
        if doc.get(key) != getattr(facts, key):
            errors.append(f"{key} {doc.get(key)!r} != {getattr(facts, key)!r}")
    for key in ("jac", "socle"):
        got = _monomial_ideal(facts, doc[key]["gens"])
        want = minimal_monomials(getattr(facts, key) | facts.defining_monomials)
        if got != want:
            errors.append(f"{key} {doc[key]['gens']} is not the expected ideal")
    return errors


def check_golden_a(doc, lower_gens=("x", "y"), generation_time=3, dim_sg_bound=2):
    """The README golden values for ring A."""
    errors = []
    got = doc["ann_bounds"]["lower_gens"]
    if sorted(got) != sorted(lower_gens):
        errors.append(f"lower_gens {got} != {list(lower_gens)}")
    bound = doc.get("bound") or {}
    if bound.get("generation_time") != generation_time:
        errors.append(f"generation_time {bound.get('generation_time')} != {generation_time}")
    if bound.get("dim_sg_bound") != dim_sg_bound:
        errors.append(f"dim_sg_bound {bound.get('dim_sg_bound')} != {dim_sg_bound}")
    return errors


def check_betti(betti, expected, length, stopped):
    """Betti numbers match the series; a short resolution must say why."""
    errors = []
    if betti != expected[:len(betti)]:
        errors.append(f"betti {betti} != {expected[:len(betti)]}")
    if len(betti) < length + 1 and not stopped:
        errors.append(f"resolution stopped at length {len(betti) - 1} < {length}")
    return errors


def check_complex(differentials, facts):
    """d_i * d_(i+1) is zero modulo the defining ideal, entry by entry."""
    mats = [[[parse_poly(e, facts.names) for e in row] for row in d]
            for d in differentials]
    for i in range(len(mats) - 1):
        left, right = mats[i], mats[i + 1]
        if not left or not right:
            continue
        if len(left[0]) != len(right):
            return [f"d{i + 1} and d{i + 2} do not compose"]
        for r in range(len(left)):
            for c in range(len(right[0])):
                acc = {}
                for k in range(len(right)):
                    acc = add(acc, mul(left[r][k], right[k][c]))
                if reduce_by(acc, facts.rules):
                    return [f"d{i + 1} * d{i + 2} is nonzero at ({r}, {c})"]
    return []


def check_zero_normal_form(text):
    return [] if text.strip() == "0" else [f"normal form {text!r} of a member is not 0"]


def _monic(terms, modulus):
    """Scale a term dict so that its largest exponent tuple has coefficient 1."""
    if modulus:
        terms = {k: v.numerator * pow(v.denominator, -1, modulus) % modulus
                 for k, v in terms.items()}
        terms = {k: v for k, v in terms.items() if v}
        inv = pow(terms[max(terms)], -1, modulus)
        return frozenset((k, v * inv % modulus) for k, v in terms.items())
    lead = terms[max(terms)]
    return frozenset((k, v / lead) for k, v in terms.items())


def check_against_sympy(gens, basis, names, modulus):
    """Compare a reduced basis with sympy's; None when sympy is absent."""
    try:
        import sympy
    except ImportError:
        return None
    symbols = sympy.symbols(names)
    exprs = [sympy.Poly.from_dict(
        {k: sympy.Rational(v.numerator, v.denominator)
         for k, v in parse_poly(g, names).items()}, *symbols).as_expr()
        for g in gens]
    opts = {"modulus": modulus} if modulus else {"domain": "QQ"}
    theirs = sympy.groebner(exprs, *symbols, order="grevlex", **opts)
    want = set()
    for expr in theirs.exprs:
        terms = sympy.Poly(expr, *symbols, domain="QQ").as_dict()
        want.add(_monic({k: Fraction(int(v.p), int(v.q)) for k, v in terms.items()},
                        modulus))
    ours = {_monic(parse_poly(b, names), modulus) for b in basis}
    if ours != want:
        return [f"basis of {len(basis)} elements differs from sympy's {len(want)}"]
    return []
