"""Jacobian matrices, minors, the Jacobian ideal, and singularity certificates.

The Jacobian ideal of R = P/(f_1..f_c) is generated by the h x h minors of
the matrix (df_i/dx_j), where h is the height of the defining ideal.  Over
a perfect field and an equidimensional ring this ideal cuts out the
singular locus; outside that hypothesis the certificate is downgraded to
"unknown" and, for monomial defining ideals, the minimal primes missed by
the Jacobian ideal are reported as explicit witnesses.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


@dataclass
class JacobianData:
    matrix: list
    h: int
    minors: list
    jac_ideal: IdealHandle
    warnings: list = field(default_factory=list)


def jacobian_data(ring: RingPresentation) -> JacobianData:
    matrix = jacobian_matrix(ring)
    if not ring.defining:
        return JacobianData(matrix, 0, [], IdealHandle(ring, [ring.poly_ring.one()]))
    defining = ring.defining_ideal()
    if defining.is_unit():
        raise PreconditionError("defining ideal is the unit ideal (zero ring)")
    h = height(defining)
    if h == 0:
        # only the zero ideal has height 0; empty minors are 1 by convention
        return JacobianData(matrix, 0, [], IdealHandle(ring, [ring.poly_ring.one()]))
    warnings = []
    if h > min(len(ring.defining), ring.nvars):
        warnings.append(
            f"height {h} exceeds the matrix size; no minors exist — "
            "reporting the zero ideal"
        )
        return JacobianData(matrix, h, [], IdealHandle(ring, []), warnings)
    mins = minors(matrix, h)
    return JacobianData(matrix, h, mins, IdealHandle(ring, mins), warnings)


def jacobian_ideal(ring: RingPresentation) -> IdealHandle:
    return jacobian_data(ring).jac_ideal


@dataclass
class SingularLocusCertificate:
    ideal: IdealHandle
    valid: str  # JACOBIAN_CRITERION or UNKNOWN
    equidimensional: object  # True | False | None
    characteristic: int
    warnings: list = field(default_factory=list)


def singular_locus_certificate(ring: RingPresentation) -> SingularLocusCertificate:
    """jac(R) plus a flag stating whether V(jac) provably equals Sing(R).

    The fields accepted here (Q, F_p) are perfect, so the criterion's only
    extra hypothesis is equidimensionality; when that is false or
    undecided, the flag is "unknown".
    """
    data = jacobian_data(ring)
    equi = is_equidimensional(ring)
    valid = JACOBIAN_CRITERION if equi is True else UNKNOWN
    return SingularLocusCertificate(
        data.jac_ideal,
        valid,
        equi,
        ring.field.characteristic,
        data.warnings,
    )


@dataclass
class IsolatedVerdict:
    verdict: object  # True | False | None (unknown)
    regular: bool
    certificate: SingularLocusCertificate
    witness_primes: list  # minimal primes the Jacobian ideal misses


def is_isolated_singularity(ring: RingPresentation) -> IsolatedVerdict:
    """Three-valued isolated-singularity certificate.

    With a valid Jacobian criterion: regular rings answer False (flagged
    regular), otherwise m-primariness of jac decides.  Without a valid
    criterion the answer is unknown; for monomial defining ideals the
    minimal primes not containing jac are attached — at such primes the
    Jacobian ideal claims regularity the criterion cannot back.
    """
    cert = singular_locus_certificate(ring)
    if cert.valid == JACOBIAN_CRITERION:
        if cert.ideal.is_unit():
            return IsolatedVerdict(False, True, cert, [])
        return IsolatedVerdict(is_m_primary(cert.ideal), False, cert, [])
    witnesses = []
    if ring.defining and all(g.is_term() for g in ring.defining):
        for prime in minimal_primes_monomial(ring.defining_ideal()):
            handle = prime.image_in(ring)
            if not all(handle.contains(g) for g in cert.ideal.generators):
                witnesses.append(handle)
    return IsolatedVerdict(None, False, cert, witnesses)
