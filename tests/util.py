"""Builders shared across test modules."""
from __future__ import annotations

from fractions import Fraction
import random
import sys

from singulant.poly import (
    GREVLEX,
    Monomial,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
)
from singulant.ideal_ops import IdealHandle, RingPresentation


def qring(n: int, order=GREVLEX) -> PolynomialRing:
    return PolynomialRing(QQ, n, order)


def fring(p: int, n: int, order=GREVLEX) -> PolynomialRing:
    return PolynomialRing(PrimeField(p), n, order)


def rand_monomial(rng: random.Random, nvars: int, max_degree: int) -> Monomial:
    total = rng.randint(0, max_degree)
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return Monomial(exps)


def rand_coeff(rng: random.Random, field):
    if field.characteristic == 0:
        num = rng.randint(-9, 9) or 1
        den = rng.randint(1, 5)
        return Fraction(num, den)
    return rng.randint(1, field.characteristic - 1)


def rand_poly(rng: random.Random, ring: PolynomialRing, max_degree: int,
              nterms: int) -> Polynomial:
    terms = []
    for _ in range(nterms):
        terms.append((rand_monomial(rng, ring.nvars, max_degree),
                      rand_coeff(rng, ring.field)))
    return Polynomial(ring, terms)


def presentation(field, names, defining_builder=None, **kw) -> RingPresentation:
    """RingPresentation whose defining gens come from a builder on the variables."""
    plain = RingPresentation(field, names, (), **kw)
    if defining_builder is None:
        return plain
    gens = defining_builder(*[plain.variable(i) for i in range(len(names))])
    return RingPresentation(field, names, gens, **kw)


def embedded_point_ring() -> RingPresentation:
    """Q[x,y]/(x^2, xy): the running one-dimensional non-regular example."""
    return presentation(QQ, ("x", "y"), lambda x, y: [x * x, x * y])


def fail_ring(field=QQ) -> RingPresentation:
    """k[x,y,z,w]/(x^2, yz, yw): non-equidimensional, two minimal primes."""
    return presentation(
        field, ("x", "y", "z", "w"), lambda x, y, z, w: [x * x, y * z, y * w]
    )


def ideal(ring: RingPresentation, builder) -> IdealHandle:
    gens = builder(*[ring.variable(i) for i in range(ring.nvars)])
    return IdealHandle(ring, gens)


def count_calls(monkeypatch, fn):
    """Record the arguments of every call of fn made through any singulant
    module's binding of it; monkeypatch restores the bindings."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("singulant") and vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, counting)
    return calls
