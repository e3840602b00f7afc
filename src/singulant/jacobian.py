"""Jacobian matrices, minors, the Jacobian ideal, and the singular-locus certificate.

The Jacobian ideal of R = P/(f_1..f_c) is generated by the h x h minors of
the matrix (df_i/dx_j), where h is the height of the defining ideal.  Over
a perfect field and an equidimensional ring this ideal cuts out the
singular locus.  ``singular_locus_certificate`` is the one record of it:
jac, whether the criterion holds, and the isolated-singularity verdict read
from them.  Outside the criterion's hypothesis the verdict is "unknown"
and, for monomial defining ideals, the minimal primes missed by the
Jacobian ideal are reported as explicit witnesses.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .ideal_ops import (
    IdealHandle,
    RingPresentation,
    height,
    is_equidimensional,
    is_m_primary,
    minimal_primes_monomial,
)
from .poly import Polynomial, exact_divide

JACOBIAN_CRITERION = "jacobian-criterion"
UNKNOWN = "unknown"


def jacobian_matrix(ring: RingPresentation):
    """c x n matrix with entry (i, j) = d f_i / d x_j."""
    return [
        [f.partial_derivative(j) for j in range(ring.nvars)]
        for f in ring.defining
    ]


def _submatrix(matrix, rows, cols):
    return [[matrix[a][b] for b in cols] for a in rows]


def _det_bareiss(matrix) -> Polynomial:
    """Fraction-free elimination; every division is exact by construction."""
    size = len(matrix)
    ring = matrix[0][0].ring
    m = [row[:] for row in matrix]
    sign = 1
    prev = ring.one()
    for k in range(size - 1):
        if m[k][k].is_zero():
            swap = next(
                (i for i in range(k + 1, size) if not m[i][k].is_zero()), None
            )
            if swap is None:
                return ring.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign > 0 else -det


def determinant(matrix) -> Polynomial:
    """Exact determinant of a nonempty square polynomial matrix."""
    size = len(matrix)
    if size == 0:
        raise PreconditionError("determinant of an empty matrix has no ring")
    if any(len(row) != size for row in matrix):
        raise PreconditionError("determinant requires a square matrix")
    return _det_bareiss(matrix)


def minors(matrix, size: int):
    """All size x size minors, ordered by (row set, column set) lex."""
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    if size > min(nrows, ncols):
        return []
    out = []
    for rows in itertools.combinations(range(nrows), size):
        for cols in itertools.combinations(range(ncols), size):
            out.append(determinant(_submatrix(matrix, rows, cols)))
    return out


def jacobian_ideal(ring: RingPresentation) -> IdealHandle:
    """The h x h minors of the Jacobian matrix, h the height of the
    defining ideal; the unit ideal when R is a polynomial ring.

    The minors always exist.  ``RingPresentation`` rejects zero
    generators, and the unit ideal raises here before its height is taken,
    so the defining ideal is proper and nonzero on c generators, and
    Krull's height theorem gives 1 <= h <= min(c, nvars).
    """
    if not ring.defining:
        return IdealHandle(ring, [ring.poly_ring.one()])
    defining = ring.defining_ideal()
    if defining.is_unit():
        raise PreconditionError("defining ideal is the unit ideal (zero ring)")
    return IdealHandle(ring, minors(jacobian_matrix(ring), height(defining)))


@dataclass
class SingularLocusCertificate:
    ideal: IdealHandle
    valid: str  # JACOBIAN_CRITERION or UNKNOWN
    equidimensional: object  # True | False | None
    isolated: object  # True | False | None (unknown)
    regular: bool
    witness_primes: list  # minimal primes the Jacobian ideal misses
    minimal_primes: list  # of a monomial defining ideal; empty otherwise


def singular_locus_certificate(ring: RingPresentation) -> SingularLocusCertificate:
    """jac(R), a flag stating whether V(jac) provably equals Sing(R), and
    the three-valued isolated-singularity verdict read from them.  For a
    monomial defining ideal it also carries the ideal's minimal primes,
    computed once here for the equidimensionality test, the witnesses and
    the radical comparison.

    The fields accepted here (Q, F_p) are perfect, so the criterion's only
    extra hypothesis is equidimensionality; when that is false or
    undecided, the flag is "unknown".  With a valid criterion, regular
    rings answer False (flagged regular), otherwise m-primariness of jac
    decides.  Without one the verdict is unknown; for monomial defining
    ideals the minimal primes not containing jac are attached — at such
    primes the Jacobian ideal claims regularity the criterion cannot back.
    """
    jac = jacobian_ideal(ring)
    primes = []
    if ring.defining and all(g.is_term() for g in ring.defining):
        primes = minimal_primes_monomial(ring.defining_ideal())
    equi = is_equidimensional(ring, primes)
    if equi is True:
        regular = jac.is_unit()
        isolated = False if regular else is_m_primary(jac)
        return SingularLocusCertificate(
            jac, JACOBIAN_CRITERION, equi, isolated, regular, [], primes)
    witnesses = []
    for prime in primes:
        handle = prime.image_in(ring)
        if not all(handle.contains(g) for g in jac.generators):
            witnesses.append(handle)
    return SingularLocusCertificate(jac, UNKNOWN, equi, None, False, witnesses, primes)
