"""Szlenk index formulas and Dirac-set derivations.

The index of C(K) for countable compact K is omega to the least exponent xi
with cb_index(K) <= omega^xi, so it follows from the Cantor-Bendixson index
alone.  For an interval [0, z] with z >= omega the exponent collapses to
tower_index(z) + 1.  This module uses only the ordinal and topology layers;
the constructive upper bound at finite height lives in ordspace.extract.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    add,
    format_ordinal,
    leading_exponent,
    omega_pow,
    predecessor,
    to_json as ordinal_to_json,
    tower_index,
)
from .topology import ClosedSet, cb_index, interval, is_empty, iterated_derivative

Rational = Fraction | int | str


class SzlenkResult(namedtuple("SzlenkResult", "index exponent cb")):
    """Sz(C(K)) = w^exponent, and the cb index it came from."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "index": ordinal_to_json(self.index),
            "exponent": ordinal_to_json(self.exponent),
            "cb": ordinal_to_json(self.cb),
            "indexText": format_ordinal(self.index),
            "cbText": format_ordinal(self.cb),
        }


def index_of_CK(space: ClosedSet) -> SzlenkResult:
    """Index of C(K): omega to the least exponent xi with cb_index <= omega^xi."""
    if is_empty(space):
        raise ValueError("the space must be non-empty")
    cb = cb_index(space)
    if cb <= ONE:
        exponent = ZERO
    else:
        lam = predecessor(cb)
        exponent = add(leading_exponent(lam), ONE)
    return SzlenkResult(index=omega_pow(exponent), exponent=exponent, cb=cb)


def index_of_interval(z: Ordinal) -> SzlenkResult:
    """Index of C([0, z]) for infinite z, via the double leading exponent."""
    if z < omega_pow(ONE):
        raise ValueError("z must be at least w; use index_of_CK for finite intervals")
    exponent = add(tower_index(z), ONE)
    return SzlenkResult(
        index=omega_pow(exponent), exponent=exponent, cb=cb_index(interval(z))
    )


def dirac_derivative(space: ClosedSet, eps: Rational, xi: Ordinal) -> ClosedSet:
    """Derive the set of point evaluations {delta_p : p in space} xi times.

    Distinct point evaluations are at distance exactly 2 in C(K)*, so for
    0 < eps < 2 a point evaluation survives one derivation exactly when its
    base point is a limit point of the space, and the derivation collapses to
    the topological derivative.  For eps >= 2 nothing survives even one step.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if xi.is_zero():
        return space
    if eps >= 2:
        return ClosedSet(space.ambient, ())
    return iterated_derivative(space, xi)


def __getattr__(name: str):  # PEP 562: moved to ordspace.extract; old imports still work
    if name != "extract_small_combination":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .extract import extract_small_combination

    return extract_small_combination
