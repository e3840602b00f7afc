"""Independent cross-checks used by the test suite.

Everything here deliberately avoids the package's Groebner machinery:
membership, syzygy, and dimension questions are answered with graded
linear algebra over monomial bases, and monomial-ideal combinatorics is
done with divisibility arithmetic on exponent vectors.  Expected values
in the tests are frozen from these routines (or from hand calculation),
never from the code under test.
"""
from __future__ import annotations

import itertools

from singulant.poly import Monomial, Polynomial, PolynomialRing


# ---------------------------------------------------------------------------
# monomial bases and dense linear algebra over the coefficient field


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for head in range(degree + 1):
        for rest in monomials_of_degree(nvars - 1, degree - head):
            out.append((head,) + rest)
    return out


def monomials_up_to(nvars: int, degree: int):
    out = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


def _poly_vector(p: Polynomial) -> dict:
    return {m.exps: c for m, c in p.terms}


def _row_reduce(rows, field):
    """In-place style Gaussian elimination on dicts keyed by column label.

    Returns the list of (pivot_label, row) pairs; rows are dicts with
    nonzero field entries.
    """
    pivots = []
    for row in rows:
        row = dict(row)
        while row:
            label = min(row)
            hit = next((pr for pl, pr in pivots if pl == label), None)
            if hit is None:
                break
            factor = row[label]
            for col, val in hit.items():
                new = field.add(row.get(col, field.zero), field.neg(field.mul(factor, val)))
                if new == field.zero:
                    row.pop(col, None)
                else:
                    row[col] = new
        if row:
            label = min(row)
            inv = field.invert(row[label])
            row = {c: field.mul(inv, v) for c, v in row.items()}
            pivots.append((label, row))
    return pivots


def span_rank(polys) -> int:
    """Rank of polynomials as plain vectors over the coefficient field."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return 0
    field = polys[0].ring.field
    return len(_row_reduce([_poly_vector(p) for p in polys], field))


def in_span(f: Polynomial, polys) -> bool:
    """Is f a field-linear combination of the given polynomials?"""
    if f.is_zero():
        return True
    base = span_rank(polys)
    return span_rank(list(polys) + [f]) == base


def degree_slice_products(gens, degree: int):
    """All products generator * monomial landing in total degree == degree."""
    out = []
    for g in gens:
        if g.is_zero():
            continue
        d = g.total_degree()
        if d > degree:
            continue
        ring = g.ring
        for exps in monomials_of_degree(ring.nvars, degree - d):
            out.append(g.mul_term(Monomial(exps), ring.field.one))
    return out


def homogeneous_membership(f: Polynomial, gens, *, slack: int = 0) -> bool:
    """Exact ideal membership when every generator is homogeneous.

    Splits f into graded pieces and tests each against the span of the
    generator multiples in that degree.  `slack` widens nothing for
    homogeneous input and exists only for eyeballing near-homogeneous
    experiments.
    """
    assert all(g.is_homogeneous() for g in gens)
    if f.is_zero():
        return True
    ring = f.ring
    by_degree: dict[int, list] = {}
    for m, c in f.terms:
        by_degree.setdefault(m.degree, []).append((m, c))
    for d, terms in by_degree.items():
        piece = Polynomial(ring, terms)
        if not in_span(piece, degree_slice_products(gens, d + slack)):
            return False
    return True


def homogeneous_slice_dim(gens, degree: int) -> int:
    """Dimension of the degree-d part of the ideal generated by homogeneous gens."""
    return span_rank(degree_slice_products(gens, degree))


def quotient_slice_dim(ring: PolynomialRing, gens, degree: int) -> int:
    """dim_k of (P/I) in degree d for homogeneous I."""
    total = len(monomials_of_degree(ring.nvars, degree))
    return total - homogeneous_slice_dim(gens, degree)


def radical_membership_by_powers(f: Polynomial, gens, *, max_power: int = 8) -> bool:
    """f in sqrt(I) tested by raising f to small powers (homogeneous gens)."""
    p = f.ring.one()
    for _ in range(max_power):
        p = p * f
        if homogeneous_membership(p, gens):
            return True
    return False


# ---------------------------------------------------------------------------
# graded submodules of R^n = (P/I)^n, one degree slice at a time


def vector_degree(vector, shifts):
    """The shifted degree deg c + shifts[pos] shared by every term of the
    coordinates ``vector`` (a tuple of polynomials), or None when they do
    not share one; None for the zero vector too."""
    degrees = {m.degree + shifts[pos]
               for pos, c in enumerate(vector) for m, _ in c.terms}
    return degrees.pop() if len(degrees) == 1 else None


def _vector_row(vector) -> dict:
    return {(pos, m.exps): k for pos, c in enumerate(vector) for m, k in c.terms}


def module_slice_products(gens, defining, shifts, degree: int):
    """Rows spanning the degree-d slice of span(gens) + I * P^n over the
    field, as dicts keyed by (position, exponents): every monomial multiple
    landing in degree d of a generator, and of f * e_pos for each
    generator f of I.  Every one must be homogeneous under ``shifts``."""
    rank = len(shifts)
    units = [tuple(f if q == pos else f.ring.zero() for q in range(rank))
             for f in defining if not f.is_zero() for pos in range(rank)]
    rows = []
    for vector in list(gens) + units:
        nonzero = [c for c in vector if not c.is_zero()]
        if not nonzero:
            continue
        d = vector_degree(vector, shifts)
        if d is None:
            raise ValueError("a generator is not homogeneous under the shifts")
        ring = nonzero[0].ring
        for exps in monomials_of_degree(ring.nvars, degree - d) if d <= degree else ():
            mono = Monomial(exps)
            rows.append(_vector_row(tuple(c.mul_term(mono, ring.field.one) for c in vector)))
    return rows


def graded_module_membership(vector, gens, defining, shifts) -> bool:
    """Is the homogeneous ``vector`` (a tuple of polynomials) in span(gens)
    + I * P^n, the preimage of a graded submodule of R^n = (P/I)^n?  One
    Macaulay matrix in the vector's degree, row reduced."""
    nonzero = [c for c in vector if not c.is_zero()]
    if not nonzero:
        return True
    d = vector_degree(vector, shifts)
    if d is None:
        raise ValueError("the vector is not homogeneous under the shifts")
    field = nonzero[0].ring.field
    rows = module_slice_products(gens, defining, shifts, d)
    base = len(_row_reduce(rows, field))
    return len(_row_reduce(rows + [_vector_row(vector)], field)) == base


# ---------------------------------------------------------------------------
# exactness of graded complexes of free R-modules, one degree slice at a time


def _rank(rows, field) -> int:
    return len(_row_reduce(rows, field))


def _matrix_columns(matrix):
    """The columns of a row-major matrix, each a tuple of polynomials."""
    return [tuple(row[j] for row in matrix) for j in range(len(matrix[0]))] if matrix else []


def slice_kernel_dim(ring: PolynomialRing, matrix, defining, source_shifts, target_shifts,
                     degree: int) -> int:
    """dim_k of the degree-d slice of the kernel of the map R^n -> R^m, R =
    P/I with I generated by ``defining``, that the homogeneous row-major
    ``matrix`` defines, F_i having generators of degrees ``source_shifts``
    and F_(i-1) of degrees ``target_shifts``.  Lifted to P: the number of
    monomial multiples of the unit vectors of P^n in degree d, less the
    rank of their images modulo the slice of I * P^m, less the slice of I
    * P^n, which lies in the kernel of that map and is zero in R^n."""
    field = ring.field
    images = []
    for j, s in enumerate(source_shifts):
        for exps in monomials_of_degree(ring.nvars, degree - s) if s <= degree else ():
            mono = Monomial(exps)
            images.append(_vector_row(tuple(row[j].mul_term(mono, field.one) for row in matrix)))
    target = module_slice_products((), defining, target_shifts, degree)
    image = _rank(images + target, field) - _rank(target, field)
    return len(images) - image - _rank(module_slice_products((), defining, source_shifts,
                                                              degree), field)


def slice_image_dim(ring: PolynomialRing, matrix, defining, target_shifts, degree: int) -> int:
    """dim_k of the degree-d slice of the image of the homogeneous
    row-major ``matrix`` in R^m = (P/I)^m: the rank of its columns' slice
    together with that of I * P^m, less the latter's."""
    target = module_slice_products((), defining, target_shifts, degree)
    spanned = module_slice_products(_matrix_columns(matrix), defining, target_shifts, degree)
    return _rank(spanned, ring.field) - _rank(target, ring.field)


def exactness_defects(ring: PolynomialRing, differentials, shifts, defining,
                      max_degree: int):
    """Where the graded complex F_0 <- F_1 <- ... <- F_n over R = P/I fails
    to be exact at an interior F_i, 0 < i < n, in a degree d <= max_degree.

    ``differentials`` lists d_1..d_n as row-major matrices over P,
    ``shifts`` the generator degrees of F_0..F_n.  Every d_i, the last
    included, must be graded of degree 0: each nonzero column j is
    homogeneous of degree ``shifts[i][j]`` under ``shifts[i-1]``
    (``vector_degree``).  Each entry of d_i d_(i+1) must lie in I
    (``homogeneous_membership``), so that im d_(i+1) lies in ker d_i, and
    then dim ker(d_i)_d = dim im(d_(i+1))_d says they are equal in degree
    d.  Returns ("graded", i, column, its degree or None), ("complex", i,
    entry) or ("exact", i, d, kernel dim, image dim) for every failure, so
    [] for an exact complex."""
    defects = []
    for i, matrix in enumerate(differentials, 1):
        for j, column in enumerate(_matrix_columns(matrix)):
            if any(not c.is_zero() for c in column):
                degree = vector_degree(column, shifts[i - 1])
                if degree != shifts[i][j]:
                    defects.append(("graded", i, j, degree))
    for i in range(1, len(differentials)):
        first, second = differentials[i - 1], differentials[i]
        for r, row in enumerate(first):
            for c in range(len(second[0]) if second else 0):
                entry = ring.zero()
                for k, a in enumerate(row):
                    entry = entry + a * second[k][c]
                if not homogeneous_membership(entry, defining):
                    defects.append(("complex", i, (r, c)))
        for d in range(max_degree + 1):
            kernel = slice_kernel_dim(ring, first, defining, shifts[i], shifts[i - 1], d)
            image = slice_image_dim(ring, second, defining, shifts[i], d)
            if kernel != image:
                defects.append(("exact", i, d, kernel, image))
    return defects


# ---------------------------------------------------------------------------
# syzygy checks (homogeneous input)


def syzygy_applies(gens, syz_coords) -> Polynomial:
    """Sum of coordinate * generator; zero iff the tuple is a true relation."""
    ring = gens[0].ring
    acc = ring.zero()
    for g, s in zip(gens, syz_coords):
        acc = acc + g * s
    return acc


def syzygy_slice_nullity(gens, degree: int) -> int:
    """dim of the degree-d slice of Syz(gens) for homogeneous generators.

    The slice is the kernel of the k-linear map sending a tuple of
    monomial multiples to the combined product, so its dimension is the
    domain dimension minus the rank of the image.
    """
    ring = gens[0].ring
    domain = 0
    products = []
    for g in gens:
        d = g.total_degree()
        if d > degree or g.is_zero():
            continue
        slots = monomials_of_degree(ring.nvars, degree - d)
        domain += len(slots)
        for exps in slots:
            products.append(g.mul_term(Monomial(exps), ring.field.one))
    return domain - span_rank(products)


def syzygy_span_slice_dim(gens, syzygies, degree: int) -> int:
    """Degree-d dimension of the module generated by the given syzygies.

    A syzygy is a tuple of polynomials, one per generator; its degree is
    deg(coordinate) + deg(generator), constant across coordinates for
    homogeneous data.  Multiples are encoded as vectors keyed by
    (slot, exponent tuple) and ranked over the field.
    """
    if not syzygies:
        return 0
    ring = gens[0].ring
    field = ring.field
    rows = []
    for syz in syzygies:
        sdeg = None
        for g, c in zip(gens, syz):
            if not c.is_zero():
                sdeg = c.total_degree() + g.total_degree()
                break
        if sdeg is None or sdeg > degree:
            continue
        for exps in monomials_of_degree(ring.nvars, degree - sdeg):
            mono = Monomial(exps)
            row = {}
            for slot, c in enumerate(syz):
                shifted = c.mul_term(mono, field.one)
                for m, coeff in shifted.terms:
                    row[(slot, m.exps)] = coeff
            if row:
                rows.append(row)
    return len(_row_reduce(rows, field))


# ---------------------------------------------------------------------------
# monomial-ideal combinatorics on exponent tuples


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_minimalize(gens):
    """Inclusion-minimal monomial generating set, sorted."""
    gens = sorted(set(gens))
    return sorted(
        g for g in gens if not any(h != g and _divides(h, g) for h in gens)
    )


def monomial_member(m, gens) -> bool:
    return any(_divides(g, m) for g in gens)


def monomial_intersection(gens_a, gens_b):
    return monomial_minimalize([_lcm(a, b) for a in gens_a for b in gens_b])


def monomial_quotient(gens, m):
    """(I : m) for a single monomial m: generated by g / gcd(g, m)."""
    out = []
    for g in gens:
        out.append(tuple(max(x - y, 0) for x, y in zip(g, m)))
    return monomial_minimalize(out)


def monomial_quotient_ideal(gens, by_gens):
    """(I : J) for monomial J: intersection of the single-monomial quotients."""
    result = None
    for m in by_gens:
        q = monomial_quotient(gens, m)
        result = q if result is None else monomial_intersection(result, q)
    return monomial_minimalize(result or [])


def monomial_radical(gens):
    return monomial_minimalize(
        [tuple(1 if e > 0 else 0 for e in g) for g in gens]
    )


def monomial_dimension(gens, nvars: int) -> int:
    """dim P/I by brute force over coordinate subspaces."""
    supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in gens]
    if any(not s for s in supports):
        return -1  # a unit generator
    best = -1
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = set(subset)
            if not any(s <= chosen for s in supports):
                return size
    return best


def monomial_minimal_primes(gens, nvars: int):
    """Brute-force minimal primes: minimal variable sets meeting every support."""
    supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in gens]
    hits = []
    for size in range(nvars + 1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = frozenset(subset)
            if all(s & chosen for s in supports):
                if not any(h <= chosen for h in hits):
                    hits.append(chosen)
    return sorted(hits, key=lambda c: (len(c), tuple(sorted(c))))


def monomial_loewy_length(gens, nvars: int, max_n: int = 32) -> int:
    """Least n with every degree-n monomial in the ideal (m-primary input)."""
    for n in range(max_n + 1):
        if all(
            monomial_member(exps, gens)
            for exps in monomials_of_degree(nvars, n)
        ):
            return n
    raise AssertionError("not m-primary within the probe bound")


def monomial_socle(gens, nvars: int):
    """(I : m) as a monomial ideal: intersect the per-variable quotients."""
    variables = [tuple(1 if i == j else 0 for i in range(nvars)) for j in range(nvars)]
    return monomial_quotient_ideal(gens, variables)
