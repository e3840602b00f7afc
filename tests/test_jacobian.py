"""Jacobian matrices, minors, and the singularity certificates."""
from fractions import Fraction
import itertools
import random

import pytest

from singulant.errors import PreconditionError
from singulant.ideal_ops import IdealHandle, is_m_primary
from singulant.jacobian import (
    JACOBIAN_CRITERION,
    UNKNOWN,
    determinant,
    is_isolated_singularity,
    jacobian_ideal,
    jacobian_matrix,
    minors,
    singular_locus_certificate,
)
from singulant.poly import PrimeField, QQ

from util import fail_ring, ideal, presentation, qring, rand_poly, embedded_point_ring


def test_jacobian_matrix_entries():
    R = fail_ring()
    x, y, z, w = [R.variable(i) for i in range(4)]
    two = Fraction(2)
    assert jacobian_matrix(R) == [
        [x.scale(two), R.poly_ring.zero(), R.poly_ring.zero(), R.poly_ring.zero()],
        [R.poly_ring.zero(), z, y, R.poly_ring.zero()],
        [R.poly_ring.zero(), w, R.poly_ring.zero(), y],
    ]
    S = embedded_point_ring()
    xs, ys = S.variable(0), S.variable(1)
    assert jacobian_matrix(S) == [
        [xs.scale(two), S.poly_ring.zero()],
        [ys, xs],
    ]
    assert jacobian_matrix(presentation(QQ, ("x",), None)) == []


# -- determinants ------------------------------------------------------------------


def _permutation_determinant(matrix):
    """Leibniz-formula oracle, exponential but obviously correct."""
    size = len(matrix)
    ring = matrix[0][0].ring
    acc = ring.zero()
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size)
            if perm[a] > perm[b]
        )
        term = ring.one()
        for i in range(size):
            term = term * matrix[i][perm[i]]
        acc = acc + (term if inversions % 2 == 0 else -term)
    return acc


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_determinant_matches_permutation_oracle(size):
    ring = qring(2)
    rng = random.Random(size * 101)
    for _ in range(4):
        matrix = [
            [rand_poly(rng, ring, 2, 2) for _ in range(size)]
            for _ in range(size)
        ]
        assert determinant(matrix) == _permutation_determinant(matrix)


def test_determinant_singular_and_errors():
    ring = qring(2)
    x, y = ring.variables()
    zero_col = [[x, ring.zero()], [y, ring.zero()]]
    assert determinant(zero_col).is_zero()
    with pytest.raises(PreconditionError):
        determinant([[x, y]])
    with pytest.raises(PreconditionError):
        determinant([])


def test_determinant_bareiss_pivot_swap():
    # leading zero pivot forces a row swap and a sign flip
    ring = qring(4)
    x, y, z, w = ring.variables()
    one = ring.one()
    zero = ring.zero()
    matrix = [
        [zero, one, zero, zero],
        [one, zero, zero, zero],
        [zero, zero, x, y],
        [zero, zero, z, w],
    ]
    assert determinant(matrix) == -(x * w - y * z)
    assert determinant([[zero, x], [y, zero]]) == -(x * y)
    # zero (1,1) entry: the 3x3 case swaps rows too
    assert determinant([[zero, x, y], [one, zero, z], [w, one, zero]]) == x * z * w + y
    # no nonzero entry below a zero pivot: the determinant is 0
    assert determinant([[zero, x], [zero, y]]).is_zero()


def test_minor_enumeration_order():
    ring = qring(2)
    x, y = ring.variables()
    matrix = [[x, y], [y, x]]
    assert minors(matrix, 1) == [x, y, y, x]
    assert minors(matrix, 2) == [x * x - y * y]
    assert minors(matrix, 3) == []


# -- jacobian ideals -----------------------------------------------------------------


def test_jacobian_ideal_embedded_point_ring():
    R = embedded_point_ring()
    jac = jacobian_ideal(R)
    assert jac.same_ideal(R.maximal_ideal())
    assert jac.reduced_generators() == (R.variable(0), R.variable(1))


def test_jacobian_ideal_fail_ring():
    R = fail_ring()
    x, y, z, w = [R.variable(i) for i in range(4)]
    jac = jacobian_ideal(R)
    assert jac.same_ideal(IdealHandle(R, [x * y, x * z, x * w, y * y]))
    assert set(jac.reduced_generators()) == {x * y, x * z, x * w, y * y}


def test_jacobian_ideal_trivial_cases():
    hyper = presentation(QQ, ("x",), lambda x: [x])
    assert jacobian_ideal(hyper).is_unit()
    poly_ring = presentation(QQ, ("x", "y"), None)
    assert jacobian_ideal(poly_ring).is_unit()


def test_jacobian_ideal_smooth_hypersurface_family():
    # a squarefree one-variable polynomial has empty singular locus: jac = (1)
    def squarefree(x):
        one = x.ring.one()
        return [x * (x - one) * (x + one.scale(Fraction(2)))]

    R = presentation(QQ, ("x",), squarefree)
    assert jacobian_ideal(R).is_unit()


def test_certificate_flags():
    cert = singular_locus_certificate(embedded_point_ring())
    assert cert.valid == JACOBIAN_CRITERION
    assert cert.equidimensional is True
    assert cert.characteristic == 0

    cert_fail = singular_locus_certificate(fail_ring())
    assert cert_fail.valid == UNKNOWN
    assert cert_fail.equidimensional is False

    cert_reg = singular_locus_certificate(presentation(QQ, ("x", "y"), None))
    assert cert_reg.valid == JACOBIAN_CRITERION
    assert cert_reg.ideal.is_unit()


def test_isolated_singularity_verdicts():
    v = is_isolated_singularity(embedded_point_ring())
    assert v.verdict is True and not v.regular

    reg = is_isolated_singularity(presentation(QQ, ("x", "y"), None))
    assert reg.verdict is False and reg.regular

    unknown = is_isolated_singularity(fail_ring())
    assert unknown.verdict is None
    assert len(unknown.witness_primes) == 1
    witness = unknown.witness_primes[0]
    F = fail_ring()
    x, _, z, w = [F.variable(i) for i in range(4)]
    assert witness.same_ideal(IdealHandle(F, [x, z, w]))


def test_isolated_non_isolated_example():
    # a curve of singularities: R = Q[x,y]/(x^2); jac = (2x) = (x), not m-primary
    R = presentation(QQ, ("x", "y"), lambda x, y: [x * x])
    v = is_isolated_singularity(R)
    assert v.verdict is False and not v.regular
    assert not is_m_primary(jacobian_ideal(R))


def test_characteristic_two_degeneration():
    # d(x^2)/dx = 2x = 0 in F2: the criterion runs but the ideal collapses
    R = presentation(PrimeField(2), ("x", "y"), lambda x, y: [x * x])
    jac = jacobian_ideal(R)
    assert jac.reduced_generators() == ()
    cert = singular_locus_certificate(R)
    assert cert.valid == JACOBIAN_CRITERION  # F2 is perfect; equidimensional
    assert cert.characteristic == 2
