"""Exact evaluation of the Grasberg norm on step functions.

For an infinite space K with Cantor-Bendixson index cb (always a successor),
the parameters are o = the unique ordinal with w^o < cb <= w^(o+1) and
b = max{n < w : the (w^o * n)-th derivative of K is non-empty}.  The norm of
f is max over 0 <= n <= b of 2^n times the sup of |f| on the (w^o * n)-th
derivative, with the sup over the empty set taken as 0.

All values are exact rationals; no floating point enters any comparison here,
since the queen inequality can be attained with equality.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd, lcm

from .ordinal import (
    ONE,
    Ordinal,
    format_ordinal,
    from_json as ordinal_from_json,
    mul_nat,
    omega_pow,
    predecessor,
    to_json as ordinal_to_json,
)
from .topology import (
    Atom,
    ClosedSet,
    Singleton,
    _field,
    _unvalidated,
    cb_index,
    clip_atom,
    iterated_derivative,
    to_json as closed_set_to_json,
)

Rational = Fraction | int | str
_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _rational(x: Rational, what: str) -> Fraction:
    """The one door for exact numbers: a Fraction as is, an int that is not a bool,
    or a str in the p/q grammar of _RATIONAL.  Anything else, a float included,
    raises before any large integer is built."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except ValueError:  # past the int-to-string digit limit
            pass
    raise ValueError(f"{what} must be a rational like 1/2, got {x!r}")


class GrasbergParams(namedtuple("GrasbergParams", "o b cb")):
    """The ordinal o, the natural b and the cb index of the space."""

    __slots__ = ()


@lru_cache(maxsize=256)
def params(space: ClosedSet) -> GrasbergParams:
    """Norm parameters of an infinite space; errors on finite spaces."""
    cb = cb_index(space)
    if cb <= ONE:
        raise ValueError("Grasberg parameters need an infinite space (cb index >= 2)")
    o, b = predecessor(cb)[0]  # the leading term: cb = w^o * b + (lower terms) + 1
    return GrasbergParams(o=o, b=b, cb=cb)


@lru_cache(maxsize=256)
def level_sets(space: ClosedSet) -> tuple[ClosedSet, ...]:
    """The derived sets K^(w^o * n) for n = 0..b."""
    p = params(space)
    levels = [space]
    for n in range(1, p.b + 1):
        levels.append(iterated_derivative(space, mul_nat(omega_pow(p.o), n)))
    return tuple(levels)


# ---- step functions ---------------------------------------------------------


class StepFunction(namedtuple("StepFunction", "ambient breakpoints nums den")):
    """A function on [0, ambient] constant on finitely many clopen pieces.

    breakpoints b0 < b1 < ... < bk = ambient cut the space into the pieces
    [0, b0], (b0, b1], ..., (b_{k-1}, bk]; values[i] = nums[i]/den is the value
    on piece i.  Every such piece is clopen in the order topology (a jump can
    only sit at a successor), so the function is continuous.  The tuple
    (ambient, breakpoints, nums, den) is canonical: adjacent equal values
    merged, den > 0, gcd(den, *nums) == 1; so tuple == is equality.  ``+``,
    ``*``, ``<`` and ``in`` raise TypeError.  This constructor, which copy and
    pickle go through, validates its input and reads each value through
    _rational; internal producers use _step.
    """

    __slots__ = ()

    def __new__(cls, ambient: Ordinal, breakpoints: Sequence[Ordinal], values: Sequence[Rational]):
        if not breakpoints:
            raise ValueError("a step function needs at least one piece")
        if len(breakpoints) != len(values):
            raise ValueError("breakpoints and values must have equal length")
        if breakpoints[-1] != ambient:
            raise ValueError("last breakpoint must equal the ambient ordinal")
        for x, y in zip(breakpoints, breakpoints[1:]):
            if x >= y:
                raise ValueError("breakpoints must be strictly increasing")
        values = [_rational(v, "value") for v in values]
        den = reduce(lcm, (v.denominator for v in values), 1)
        return _step(ambient, breakpoints, [v.numerator * (den // v.denominator) for v in values], den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _no_operator(self, other):
        raise TypeError("step functions have no operators: use step_add() and step_scale()")

    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _no_operator
    __contains__ = None
    _replace = _make = _unvalidated

    def __reduce__(self):
        return StepFunction, (self.ambient, self.breakpoints, self.values)

    def __repr__(self) -> str:
        body = ", ".join(
            f"(..{format_ordinal(b)}]={v}" for b, v in zip(self.breakpoints, self.values)
        )
        return f"StepFunction({body})"


def _step(ambient, breakpoints, nums, den) -> StepFunction:
    """The step function nums[i]/den on trusted breakpoints and den > 0: merges equal
    neighbours, then divides out gcd(den, *nums) pairwise (star-args would build
    a tuple per call)."""
    bps, ns = [], []
    for bp, x in zip(breakpoints, nums):
        if ns and ns[-1] == x:
            bps[-1] = bp
        else:
            bps.append(bp)
            ns.append(x)
    g = reduce(gcd, ns, den)
    if g > 1:
        ns = [x // g for x in ns]
        den //= g
    return tuple.__new__(StepFunction, (ambient, tuple(bps), tuple(ns), den))


def constant(ambient: Ordinal, value: Rational) -> StepFunction:
    value = _rational(value, "value")
    return _step(ambient, (ambient,), (value.numerator,), value.denominator)


def indicator(ambient: Ordinal, lo: Ordinal, hi: Ordinal) -> StepFunction:
    """The indicator of the window (lo, hi] inside [0, ambient]; of [0, hi] when lo = 0."""
    if hi > ambient or lo > hi:
        raise ValueError("indicator window must satisfy lo <= hi <= ambient")
    if lo == hi:
        return constant(ambient, 0)
    i, j = (1 if lo.is_zero() else 0), (3 if hi < ambient else 2)  # drop empty pieces
    return _step(ambient, (lo, hi, ambient)[i:j], (0, 1, 0)[i:j], 1)


def value_at(f: StepFunction, point: Ordinal) -> Fraction:
    if point > f.ambient:
        raise ValueError(f"point {point} outside [0, {f.ambient}]")
    return Fraction(f.nums[bisect_left(f.breakpoints, point)], f.den)


def step_add(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise sum, by one merge of the two sorted breakpoint tuples, on
    numerators over lcm(f.den, g.den).

    Both tuples end at the ambient, so the merge exhausts them together.
    """
    if f.ambient != g.ambient:
        raise ValueError("step functions live on different ambient intervals")
    fb, fn, gb, gn = f.breakpoints, f.nums, g.breakpoints, g.nums
    den = lcm(f.den, g.den)
    fs, gs = den // f.den, den // g.den
    bps, nums = [], []
    i = j = 0
    while i < len(fb):
        x, y = fb[i], gb[j]
        nums.append(fn[i] * fs + gn[j] * gs)
        if x == y:
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            x = y
            j += 1
        bps.append(x)
    return _step(f.ambient, bps, nums, den)


def step_sum(fs: Sequence[StepFunction]) -> StepFunction:
    """Pointwise sum of one or more step functions on one ambient, on numerators
    over the lcm of their denominators, with one sort of their cut points and
    one _step.  Each function adds its value on [0, b0] to the first piece and
    its jump just above each of its cuts to that cut; a running total over the
    sorted cuts gives the pieces.  For two functions step_add's merge is faster."""
    if not fs:
        raise ValueError("step_sum needs at least one step function")
    ambient = fs[0].ambient
    den = reduce(lcm, (f.den for f in fs), 1)
    first, jumps = 0, {}
    for f in fs:
        if f.ambient != ambient:
            raise ValueError("step functions live on different ambient intervals")
        scale, nums = den // f.den, f.nums
        first += nums[0] * scale
        for bp, x, y in zip(f.breakpoints, nums, nums[1:]):
            jumps[bp] = jumps.get(bp, 0) + (y - x) * scale
    cuts = sorted(jumps)
    nums = list(accumulate(map(jumps.__getitem__, cuts), initial=first))
    cuts.append(ambient)
    return _step(ambient, cuts, nums, den)


def step_scale(f: StepFunction, c: Rational) -> StepFunction:
    c = _rational(c, "c")
    return _step(f.ambient, f.breakpoints, [c.numerator * x for x in f.nums], c.denominator * f.den)


def step_convex(coeffs: Sequence[Rational], fs: Sequence[StepFunction]) -> StepFunction:
    """sum of coeffs[i] * fs[i] for non-negative coefficients that sum to 1, scaled
    one by one and added in one step_sum."""
    coeffs = [_rational(c, "coefficient") for c in coeffs]
    if len(coeffs) != len(fs):
        raise ValueError("one coefficient per function required")
    if any(c < 0 for c in coeffs) or sum(coeffs, Fraction(0)) != 1:
        raise ValueError("coefficients must be non-negative and sum to 1")
    return step_sum([step_scale(f, c) for c, f in zip(coeffs, fs)])


# ---- sup and norm -----------------------------------------------------------


def _pieces_of(f: StepFunction, atom: Atom) -> range:
    """Indices of the pieces of f whose window meets the atom's, by bisection:
    piece i is (bps[i-1], bps[i]] ([0, bps[0]] for i = 0), so a singleton p lies in
    piece bisect_left(bps, p) and a stratum (lo, hi] meets the contiguous pieces
    bisect_right(bps, lo) .. bisect_left(bps, hi)."""
    bps = f.breakpoints
    if isinstance(atom, Singleton):
        i = bisect_left(bps, atom.point)
        return range(i, i + 1)
    return range(bisect_right(bps, atom.lo), bisect_left(bps, atom.hi) + 1)


def _sup_num(f: StepFunction, space: ClosedSet, floor: int = 0) -> int:
    """Max of floor and |num| over the pieces of f that meet the set, so with
    floor 0 the sup of |f| there is this over den, and 0 on the empty set.

    Costs about atoms * log(pieces) comparisons.  A singleton's point lies in
    the piece bisect_left gives, and every piece that meets a mu = 0 stratum
    holds a point of it, since every ordinal is a multiple of w^0.  Only a
    stratum with mu > 0 clips, and only the pieces whose |num| beats the best
    so far, which starts at floor."""
    if f.ambient != space.ambient:
        raise ValueError("function and set live on different ambient intervals")
    bps, nums = f.breakpoints, f.nums
    best = floor
    for atom in space.atoms:
        if isinstance(atom, Singleton):
            x = abs(nums[bisect_left(bps, atom.point)])
        elif atom.mu.is_zero():
            pieces = _pieces_of(f, atom)
            x = max(map(abs, nums[pieces.start : pieces.stop]))
        else:
            for i in _pieces_of(f, atom):
                x = abs(nums[i])
                if x > best and clip_atom(atom, bps[i - 1] if i else None, bps[i], least=True) is not None:
                    best = x
            continue
        if x > best:
            best = x
    return best


def sup_on(f: StepFunction, space: ClosedSet) -> Fraction:
    """Max of |f| over the set; 0 on the empty set."""
    return Fraction(_sup_num(f, space), f.den)


def argmax_on(f: StepFunction, space: ClosedSet) -> Ordinal | None:
    """The least point of the set where |f| attains its max there; None on the empty set.

    Symbolic: pieces are ordered, so the point is the least point of the set
    inside the first piece that meets the set with |value| equal to the sup.
    """
    top = _sup_num(f, space)
    bps, nums = f.breakpoints, f.nums
    points = (
        clip_atom(atom, bps[i - 1] if i else None, bps[i], least=True)
        for atom in space.atoms
        for i in _pieces_of(f, atom)
        if abs(nums[i]) == top
    )
    return min((q for q in points if q is not None), default=None)


def _norm_num(f: StepFunction, space: ClosedSet) -> int:
    """The norm of f over den: max over n of 2^n * _sup_num(f, level n).  The
    levels are walked from b down to 0, each with the best so far as its floor:
    2^n * x beats best exactly when x > best >> n, so a lower level clips only
    the pieces that could still win."""
    levels = level_sets(space)
    best = 0
    for n in range(len(levels) - 1, -1, -1):
        best = max(best, _sup_num(f, levels[n], best >> n) << n)
    return best


def grasberg_norm(f: StepFunction, space: ClosedSet) -> Fraction:
    """max over 0 <= n <= b of 2^n * sup of |f| on the (w^o * n)-th derivative."""
    return Fraction(_norm_num(f, space), f.den)


# (f, space, eps, (critical, norm)) of the last build: one entry of immutable
# values, read and replaced whole, so a concurrent caller can at worst miss it
_last_phi = None


def _phi(f: StepFunction, space: ClosedSet, eps: Rational) -> tuple[ClosedSet, Fraction]:
    """phi(f, space, eps) and the norm |f| that it needs, from one _norm_num:
    check_queen and each stage of extraction read both, so a function's
    critical set and norm cost b+1 level sups, not 2(b+1).

    Each piece is clipped only at its first hot level k, the least n with
    2^(n+1)|v| > |f| + eps: a point of level m in it gives 2^m|v| <= |f| <
    2^(k+1)|v|, so m <= k and every later clip is empty; the levels above the
    highest first hot level are not scanned.  The last answer is
    kept as one entry: a call with the same f and space objects (``is``) and
    an equal eps returns it, and a call that raises keeps nothing."""
    global _last_phi
    eps = _rational(eps, "eps")
    if eps <= 0:
        raise ValueError("eps must be positive")
    last = _last_phi
    if last is not None and last[0] is f and last[1] is space and last[2] == eps:
        return last[3]
    norm = _norm_num(f, space)
    # |x|/den > (norm/den + en/ed) / 2^(n+1)  <=>  |x|*ed * 2^(n+1) > norm*ed + en*den,
    # first true at n + 1 = max(1, (cut // (|x|*ed)).bit_length()); never for x = 0
    ed = eps.denominator
    cut = norm * ed + eps.numerator * f.den
    first_hot = [max((cut // (abs(x) * ed)).bit_length() - 1, 0) if x else -1 for x in f.nums]
    bps, atoms = f.breakpoints, []
    for n, level in enumerate(level_sets(space)[: max(first_hot) + 1]):
        for atom in level.atoms:
            for i in _pieces_of(f, atom):
                if first_hot[i] == n:
                    clipped = clip_atom(atom, bps[i - 1] if i else None, bps[i])
                    if clipped is not None:
                        atoms.append(clipped)
    result = ClosedSet(space.ambient, atoms), Fraction(norm, f.den)
    _last_phi = (f, space, eps, result)
    return result


def phi(f: StepFunction, space: ClosedSet, eps: Rational) -> ClosedSet:
    """The critical set: at each level n, the points where 2^(n+1)|f| > |f| + eps.

    Costs, per level, about atoms * log(pieces) comparisons to find each
    atom's pieces, plus a clip for each piece whose first hot level is n.
    The threshold is tested on integers, with no Fraction per piece.  A
    repeat with the same f and space objects and an equal eps is free (_phi)."""
    return _phi(f, space, eps)[0]


# ---- lemma checkers ---------------------------------------------------------


class KingReport(namedtuple("KingReport", "phi cb_phi bound passed")):
    """Critical sets stay small: cb index of phi never exceeds w^o."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "phi": closed_set_to_json(self.phi),
            "cbPhi": ordinal_to_json(self.cb_phi),
            "bound": ordinal_to_json(self.bound),
            "pass": self.passed,
        }


def check_king(f: StepFunction, space: ClosedSet, eps: Rational) -> KingReport:
    p = params(space)
    critical = phi(f, space, eps)
    cb_phi = cb_index(critical)
    bound = omega_pow(p.o)
    return KingReport(
        phi=critical, cb_phi=cb_phi, bound=bound, passed=cb_phi <= bound
    )


class QueenReport(
    namedtuple(
        "QueenReport", "lhs rhs hypothesis_lhs hypothesis_rhs hypothesis_ok passed"
    )
):
    """Perturbation bound: if g is small on phi(f, eps), then
    |f+g| <= max(|f| + eps, |f|/2 + eps/2 + |g|)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "hypothesisLhs": str(self.hypothesis_lhs),
            "hypothesisRhs": str(self.hypothesis_rhs),
            "hypothesisOk": self.hypothesis_ok,
            "pass": self.passed,
        }


def check_queen(
    f: StepFunction, g: StepFunction, space: ClosedSet, eps: Rational
) -> QueenReport:
    eps = _rational(eps, "eps")
    p = params(space)
    critical, nf = _phi(f, space, eps)
    hyp_lhs = sup_on(g, critical)
    hyp_rhs = eps / 2**p.b
    hypothesis_ok = hyp_lhs <= hyp_rhs
    lhs = grasberg_norm(step_add(f, g), space)
    ng = grasberg_norm(g, space)
    rhs = max(nf + eps, nf / 2 + eps / 2 + ng)
    return QueenReport(
        lhs=lhs,
        rhs=rhs,
        hypothesis_lhs=hyp_lhs,
        hypothesis_rhs=hyp_rhs,
        hypothesis_ok=hypothesis_ok,
        passed=(not hypothesis_ok) or lhs <= rhs,
    )


# ---- serialization ----------------------------------------------------------


def step_function_to_json(f: StepFunction) -> dict:
    return {
        "ambient": ordinal_to_json(f.ambient),
        "pieces": [
            {"upTo": ordinal_to_json(b), "value": str(v)}
            for b, v in zip(f.breakpoints, f.values)
        ],
    }


def step_function_from_json(data: dict) -> StepFunction:
    """Decode the v1 step-function JSON; values must be strings that _rational reads."""
    if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
        raise ValueError("step function JSON must be an object with a pieces array")
    ambient = ordinal_from_json(_field(data, "ambient", "step function JSON"))
    bps, vals = [], []
    for piece in data["pieces"]:
        value = _field(piece, "value", "step function pieces")
        if not isinstance(value, str):
            raise ValueError(f"piece value must be a string like \"-3/4\", got {value!r}")
        vals.append(_rational(value, "piece value"))
        bps.append(ordinal_from_json(_field(piece, "upTo", "step function pieces")))
    return StepFunction(ambient, bps, vals)


def __getattr__(name: str):  # PEP 562: moved to ordspace.fuzz; old imports still work
    if name not in ("random_ordinal", "random_step_function"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fuzz

    return getattr(fuzz, name)
