"""Szlenk index formulas, Dirac-set derivations, and small convex combinations.

The index of C(K) for countable compact K is omega to the least exponent xi
with cb_index(K) <= omega^xi.  For an interval [0, z] with z >= omega the
exponent collapses to tower_index(z) + 1.

extract_small_combination runs the constructive recursion that witnesses the
upper bound in the finite-height case: walk down a branch of the implicit
tree of child-index paths, at each stage adding one family function that is
tiny on the critical set of the running sum, and certify exact rational norm
bounds at every stage.  Heights with critical sets beyond finite are out of
scope here and rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import reduce

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
from .topology import (
    ClosedSet,
    cb_index,
    interval,
    is_empty,
    iterated_derivative,
)
from .grasberg import (
    StepFunction,
    _sup_num,
    argmax_on,
    constant,
    grasberg_norm,
    params,
    phi,
    step_add,
    step_scale,
    sup_on,
)
from .trees import FamilyContractError, WeaklyNullFamily

Rational = Fraction | int | str


@dataclass(frozen=True)
class SzlenkResult:
    index: Ordinal
    exponent: Ordinal
    cb: Ordinal

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


# ---- extraction -------------------------------------------------------------


class CertificateError(ValueError):
    """An extraction certificate failed re-verification."""


def _leaves_unit_ball(f: StepFunction, space: ClosedSet) -> bool:
    # a sup over a subset is at most the max, so only a |value| > 1 (|num| > den) needs the sup
    return (max(f.nums) > f.den or -min(f.nums) > f.den) and sup_on(f, space) > 1


def _small_on(f: StepFunction, critical: ClosedSet, threshold: Fraction) -> bool:
    """sup_on(f, critical) < threshold, decided on integers with no Fraction built."""
    return _sup_num(f, critical) * threshold.denominator < threshold.numerator * f.den


@dataclass(frozen=True)
class ExtractionCertificate:
    """Transcript of one extraction run; every field is exact.

    branch[m] is the path after stage m+1; blocks[m] the function added
    there; stage_norms[m] the Grasberg norm of the running scaled sum.
    """

    branch: tuple[tuple[int, ...], ...]
    blocks: tuple[StepFunction, ...]
    stage_norms: tuple[Fraction, ...]
    eps: Fraction
    n: int
    final: StepFunction
    final_norm: Fraction
    delta: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eps": str(self.eps),
            "branch": [list(path) for path in self.branch],
            "stageNorms": [str(x) for x in self.stage_norms],
            "finalNorm": str(self.final_norm),
        }

    def verify(self, space: ClosedSet) -> bool:
        """Replay the stored branch and blocks through the stage loop, then
        compare every field with the recomputed certificate; raise on any mismatch."""
        if not params(space).o.is_zero():
            raise CertificateError("certificate requires a space of finite height")
        if not isinstance(self.delta, Fraction):
            raise CertificateError("delta must be a Fraction")
        if self.delta <= 0:
            raise CertificateError("delta must be positive")

        def replay(m, path, critical, threshold):
            if m >= len(self.branch) or len(self.branch) != len(self.blocks):
                raise CertificateError("stage count mismatch")
            return self.branch[m], self.blocks[m]

        again = _stages(space, self.delta, replay)
        differ = [f.name for f in fields(self) if getattr(self, f.name) != getattr(again, f.name)]
        if differ:
            raise CertificateError(f"fields do not recompute: {', '.join(differ)}")
        return True


def _stages(space: ClosedSet, delta: Fraction, choose) -> ExtractionCertificate:
    """The stage recurrence: building (extract_small_combination) and checking
    (ExtractionCertificate.verify) differ only in choose(m, path, critical,
    threshold), which gives stage m's path and block.  Every link of the
    chain of bounds in extract_small_combination is checked on exact values.
    """
    b = params(space).b
    n = int(Fraction(2 ** (2 + b)) / delta) + 1
    eps = Fraction(1, 2 * n)
    if (1 + eps) ** n >= 2:
        raise CertificateError("(1+eps)^n must stay below 2")
    threshold = eps / 2**b
    scale = Fraction(1, 2 ** (1 + b))

    running = constant(space.ambient, 0)
    growth = Fraction(1)  # (1+eps)^m, as a running product
    path: tuple[int, ...] = ()
    branch: list[tuple[int, ...]] = []
    blocks: list[StepFunction] = []
    stage_norms: list[Fraction] = []

    for m in range(n):
        critical = phi(running, space, eps)
        step, block = choose(m, path, critical, threshold)
        if len(step) != m + 1 or step[:m] != path:
            raise CertificateError("branch is not a chain of extending paths")
        if block.ambient != space.ambient:
            raise CertificateError(f"block {m + 1} lives on a different ambient interval")
        if _leaves_unit_ball(block, space):
            raise CertificateError(f"block {m + 1} leaves the unit ball")
        if not _small_on(block, critical, threshold):
            raise CertificateError(f"block {m + 1} is not small on the critical set")
        path = step
        running = step_add(running, step_scale(block, scale))
        norm = grasberg_norm(running, space)
        if norm > growth:
            raise CertificateError(f"stage bound fails at stage {m + 1}")
        growth *= 1 + eps
        branch.append(path)
        blocks.append(block)
        stage_norms.append(norm)

    final = step_scale(reduce(step_add, blocks), Fraction(1, n))
    final_norm = grasberg_norm(final, space)
    if final_norm != Fraction(2 ** (1 + b), n) * stage_norms[-1]:
        raise CertificateError("homogeneity identity fails")
    if final_norm >= delta:
        raise CertificateError("final norm is not below delta")
    return ExtractionCertificate(
        branch=tuple(branch),
        blocks=tuple(blocks),
        stage_norms=tuple(stage_norms),
        eps=eps,
        n=n,
        final=final,
        final_norm=final_norm,
        delta=delta,
    )


def extract_small_combination(
    space: ClosedSet,
    family: WeaklyNullFamily,
    delta: Rational,
    max_probes: int = 10**6,
) -> ExtractionCertificate:
    """Walk one branch, adding family functions small on each critical set.

    At stage m the running sum g carries the previously chosen blocks with
    weight 1/2^(1+b); its critical set is finite (the king bound at finite
    height, checked as cb_index <= 1 without listing the points), so children
    of the current node are probed in index order until one is below eps/2^b
    everywhere on it.  The average of the chosen blocks then has Grasberg
    norm below delta, by the exact chain
    |final| = (2^(1+b)/n)|g| <= 2^(1+b)(1+eps)^(n-1)/n < 2^(2+b)/n < delta.

    A probe is one sup over the atoms of the critical set.  With a family
    such as marching_indicators, where stage k settles after about k probes,
    a run costs about n^2 probes.  Only when the probe budget runs out is a
    witness point computed for the error: the first point of the critical set
    where the last candidate is largest, found from the candidate's pieces
    without listing points.  The certificate is built by the same stage loop
    that verify(space) replays, which checks (1+eps)^n < 2 and every bound.
    """
    if max_probes < 0:
        raise ValueError("max_probes must be >= 0")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if family.space != space:
        raise ValueError("family is declared on a different space")
    p = params(space)
    if not p.o.is_zero():
        raise ValueError(
            "extraction supports only spaces of finite height "
            f"(cb a finite successor); this space has o = {format_ordinal(p.o)}"
        )
    budget = max_probes if family.search_limit is None else min(max_probes, family.search_limit)

    def probe(m, path, critical, threshold):
        if cb_index(critical) > ONE:
            raise AssertionError("critical set must be finite at finite height")
        candidate = None
        for k in range(budget):
            candidate = family.at(path + (k,))
            if candidate.ambient != space.ambient:
                raise FamilyContractError(
                    path + (k,), None, "function lives on a different ambient interval"
                )
            if _leaves_unit_ball(candidate, space):
                raise FamilyContractError(path + (k,), None, "function exceeds the unit ball")
            if _small_on(candidate, critical, threshold):
                return path + (k,), candidate
        raise FamilyContractError(
            path,
            None if candidate is None else argmax_on(candidate, critical),
            f"no child fell below {threshold} on the critical set "
            f"within {budget} probes",
        )

    return _stages(space, delta, probe)
