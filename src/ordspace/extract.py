"""Weakly-null families, and certified small convex combinations of them.

extract_small_combination walks one branch of a family's tree of child-index
paths, adding at each stage a child that is tiny on the critical set of the
running sum; its ExtractionCertificate is replayed by verify through the same
stage loop.  Only spaces of finite height (o = 0) are in scope.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields
from fractions import Fraction

from .ordinal import ONE, Ordinal, format_ordinal, mul_nat
from .topology import ClosedSet, Singleton, _known, is_finite, roundup
from .grasberg import (
    Rational,
    StepFunction,
    _add,
    _phi,
    _rational,
    _sup_num,
    argmax_on,
    constant,
    grasberg_norm,
    indicator,
    params,
    step_function_from_json,
    step_scale,
    step_sum,
    sup_on,
)


# ---- weakly null families ---------------------------------------------------


class FamilyContractError(ValueError):
    """A family broke its contract: a bad child, a bad first_small answer, or no small child."""

    def __init__(self, path: tuple[int, ...], point, message: str):
        self.path = tuple(path)
        self.point = point
        detail = f"family contract violated at node {list(self.path)}"
        if point is not None:
            detail += f", witness point {point}"
        super().__init__(f"{detail}: {message}")


class WeaklyNullFamily(
    namedtuple("WeaklyNullFamily", "space at search_limit first_small", defaults=(None, None))
):
    """Step functions indexed by paths of child indices.

    Contract: each function is bounded by 1 in sup norm on the space, and at
    every node the children's values die out pointwise, i.e. for each point of
    the space and each positive threshold, all but finitely many children stay
    below the threshold there.  The second half cannot be certified by any
    finite amount of evaluation, so extraction searches children up to a
    budget, the family's own, and reports a contract violation when it runs out.

    Fields: space, the closed set the family lives on; at, the map from a
    path (a tuple of child indices) to its step function; search_limit, the
    child search's budget, an int >= 0 (unset: MAX_PROBES, which also caps
    it); first_small, an optional
    first_small(path, critical, threshold, budget) giving the least k < budget
    whose child at(path + (k,)) is below threshold on critical, or None.  It
    stands in for extraction's probe loop, so it must name the child that loop
    would find; an answer outside range(budget) is a FamilyContractError, and
    a child that is not small fails the stage loop.
    """

    __slots__ = ()


def marching_indicators(space: ClosedSet, step: Ordinal = ONE) -> WeaklyNullFamily:
    """Indicators of the consecutive windows (step*(k+1), step*(k+2)].

    The window marches right as the child index k grows, so on any fixed
    finite point set the children are eventually zero.  Windows are clamped
    to the ambient interval; the path's last index alone decides the window.

    Its first_small works from the atoms of the critical set, never listing
    points: a point p lies in the window of child index(p) - 2, where index(p)
    is the least j with step*j >= p, and an atom's points block one run of
    consecutive children, from its least point's child to its greatest's.
    """
    if step.is_zero():
        raise ValueError("ladder step must be a positive ordinal")
    ambient = space.ambient
    (e, c), r = step[0], step[1:]

    def clamp(x: Ordinal) -> Ordinal:
        return x if x <= ambient else ambient

    def at(path: tuple[int, ...]) -> StepFunction:
        if not path:
            return constant(ambient, 0)
        k = path[-1]
        return indicator(ambient, clamp(mul_nat(step, k + 1)), clamp(mul_nat(step, k + 2)))

    def index(x: tuple) -> int | None:
        """Least j >= 0 with step*j >= x, or None when x >= step*w.  With
        step = w^e*c + r and x = w^ex*d + xt, step*j = w^e*(c*j) + r for j >= 1."""
        if not x:
            return 0
        (ex, d), xt = x[0], x[1:]
        if ex != e:
            return 1 if ex < e else None
        j = -(-d // c)
        return j + 1 if c * j == d and r < xt else j

    def first_small(path, critical: ClosedSet, threshold: Fraction, budget: int) -> int | None:
        if threshold.numerator > threshold.denominator:  # every child is 0 or 1, so every child is small
            return 0 if budget else None
        blocked = []  # per atom, the run of children whose windows meet it; last = budget: no end
        for atom in critical.atoms:
            if isinstance(atom, Singleton):
                least = greatest = atom.point
            else:  # the multiples of w^mu in (lo, hi]: least above lo, greatest hi's prefix
                least = roundup(atom.lo, atom.mu)
                greatest = atom.hi if atom.hi[-1][0] >= atom.mu else tuple(t for t in atom.hi if t[0] >= atom.mu)
            first = index(least)
            if first is not None:
                last = index(greatest)
                blocked.append((first - 2, budget if last is None else last - 2))
        k = 0
        for first, last in sorted(blocked):
            if first > k:
                break
            k = max(k, last + 1)
        return k if k < budget else None

    return WeaklyNullFamily(space=space, at=at, first_small=first_small)


def family_from_table(space: ClosedSet, table: dict) -> WeaklyNullFamily:
    """Family given by a finite table {path -> step function}.

    The table is an object {"cutoff": n, "entries": [{"path": [k, ...], "fn":
    f}, ...], "default": f or null}: a required integer cutoff >= 1, paths of
    integers >= 0, each listed once, and v1 step-function JSON for every f.
    Listed paths map to their functions; unlisted paths fall back to the
    default, else to zero.  The cutoff is the family's search_limit, since a
    finite table cannot promise anything beyond it.  A malformed table raises
    a ValueError that names the field.
    """

    def decode(data, field: str) -> StepFunction:
        try:
            fn = step_function_from_json(data)
        except ValueError as exc:
            raise ValueError(f"family table {field}: {exc}") from None
        if fn.ambient != space.ambient:
            raise ValueError(f"family table {field} lives on a different ambient interval")
        return fn

    if not isinstance(table, dict):
        raise ValueError("family table must be a JSON object")
    _known(table, ("cutoff", "entries", "default"), "family table")
    if "cutoff" not in table:
        raise ValueError("family table requires an explicit 'cutoff'")
    cutoff = table["cutoff"]
    if type(cutoff) is not int or cutoff < 1:
        raise ValueError(f"family table cutoff must be an integer >= 1, got {cutoff!r}")
    items = table.get("entries", [])
    if not isinstance(items, list):
        raise ValueError("family table entries must be an array")
    entries: dict[tuple[int, ...], StepFunction] = {}
    for i, item in enumerate(items):
        if not (isinstance(item, dict) and "path" in item and "fn" in item):
            raise ValueError(f"family table entries[{i}] must be an object with path and fn keys")
        _known(item, ("path", "fn"), f"family table entries[{i}]")
        path = item["path"]
        if not (isinstance(path, list) and all(type(k) is int and k >= 0 for k in path)):
            raise ValueError(f"family table entries[{i}].path must be an array of integers >= 0")
        if tuple(path) in entries:
            raise ValueError(f"family table entries[{i}].path repeats the path {path}")
        entries[tuple(path)] = decode(item["fn"], f"entries[{i}].fn")
    default = None if table.get("default") is None else decode(table["default"], "default")
    zero = constant(space.ambient, 0)

    def at(path: tuple[int, ...]) -> StepFunction:
        fn = entries.get(tuple(path))
        if fn is not None:
            return fn
        return default if default is not None else zero

    return WeaklyNullFamily(space=space, at=at, search_limit=cutoff)


# ---- extraction -------------------------------------------------------------


class CertificateError(ValueError):
    """A rule of the stage loop failed; extraction raises it as well as verify."""


# A run stores its branch once, so memory is linear: n = 8193 on [0, w^(5)] takes
# 0.52-0.56 s of CPU and 21 MB (in process, three runs, Python 3.11, a 2-vCPU host).
# The cap holds --json, whose v1 certificate lists all n paths, to 193 MB of output
# and 647 MB of peak RSS; each doubling of n quadruples both.  A larger n is refused
# before any stage runs.
MAX_STAGES = 8193
MAX_PROBES = 10**6  # the child search's budget unless search_limit sets a smaller one


def _leaves_unit_ball(f: StepFunction, space: ClosedSet) -> bool:
    # a sup over a subset is at most the max, so only a |value| > 1 (|num| > den) needs the sup
    return (max(f.nums) > f.den or -min(f.nums) > f.den) and sup_on(f, space) > 1


def _small_on(f: StepFunction, critical: ClosedSet, threshold: Fraction) -> bool:
    """sup_on(f, critical) < threshold, decided on integers with no Fraction built."""
    return _sup_num(f, critical) * threshold.denominator < threshold.numerator * f.den


@dataclass(frozen=True, eq=False)
class _Branch(Sequence):
    """A run's n paths kept as the last one, item m being path[:m+1]; equal to a
    _Branch of the same path and to a tuple of the same n paths, whose hash it takes."""

    path: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.path)

    def __getitem__(self, m):
        if isinstance(m, slice):
            return tuple(self.path[: i + 1] for i in range(len(self.path))[m])
        return self.path[: range(len(self.path))[m] + 1]

    def __eq__(self, other):
        if isinstance(other, _Branch):
            return self.path == other.path
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class ExtractionCertificate:
    """Transcript of one extraction run; every field is exact.

    branch[m] is the path after stage m+1, blocks[m] the function added there,
    stage_norms[m] the Grasberg norm of the running scaled sum.  The branch is
    kept as its last path; one given as n paths must be a chain, checked here only.
    """

    branch: _Branch
    blocks: tuple[StepFunction, ...]
    stage_norms: tuple[Fraction, ...]
    eps: Fraction
    n: int
    final: StepFunction
    final_norm: Fraction
    delta: Fraction

    def __post_init__(self):
        if not isinstance(self.branch, _Branch):
            branch = _Branch(tuple(self.branch[-1]) if self.branch else ())
            if branch != tuple(self.branch):
                raise CertificateError("branch is not a chain of extending paths")
            object.__setattr__(self, "branch", branch)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eps": str(self.eps),
            "branch": [list(path) for path in self.branch],
            "stageNorms": [str(x) for x in self.stage_norms],
            "finalNorm": str(self.final_norm),
        }

    def verify(self, space: ClosedSet) -> bool:
        """Replay the stored branch and blocks through the stage loop, which checks
        every rule, then compare every field with the recomputed certificate."""

        def replay(m, path, critical, threshold):
            if m >= len(self.branch) or len(self.branch) != len(self.blocks):
                raise CertificateError("stage count mismatch")
            return self.branch.path[m], self.blocks[m]

        again = _stages(space, self.delta, replay)
        differ = [f.name for f in fields(self) if getattr(self, f.name) != getattr(again, f.name)]
        if differ:
            raise CertificateError(f"fields do not recompute: {', '.join(differ)}")
        return True


def _stages(space: ClosedSet, delta: Fraction, choose) -> ExtractionCertificate:
    """The stage recurrence: building (extract_small_combination) and checking
    (ExtractionCertificate.verify) differ only in choose(m, path, critical,
    threshold), which gives stage m's child index k and block.  It owns every
    rule the two share, from delta and the space to each exact link of the chain
    of bounds.  The one path grows by k per stage, a chain by construction.

    One _phi per running sum gives both its norm, which the stage bound reads,
    and the next stage's critical set (is_finite decides its finiteness); after
    the last stage only the norm is taken.  So n stages take n + 2 norms, the
    final one included.  Each block enters the running sum over 2^(1+b) in one
    merge (_add), and the blocks are summed by one step_sum."""
    if not isinstance(delta, Fraction):
        raise CertificateError("delta must be a Fraction")
    if delta <= 0:
        raise CertificateError("delta must be positive")
    p = None if is_finite(space) else params(space)
    if p is None or not p.o.is_zero():
        has = "is finite" if p is None else f"has o = {format_ordinal(p.o)}"
        raise CertificateError(f"extraction requires an infinite space of finite height; this space {has}")
    b = p.b
    n = 2 ** (2 + b) * delta.denominator // delta.numerator + 1
    if n > MAX_STAGES:
        count = n if n.bit_length() <= 64 else f"about 2^{n.bit_length() - 1}"  # str(n) has a digit limit
        raise CertificateError(
            f"delta = {delta} with b = {b} needs n = {count} stages, above the limit of {MAX_STAGES}"
        )
    # (1+eps)^m with eps = 1/(2n) is the coprime pair (2n+1)^m / (2n)^m, kept as two ints
    eps = Fraction(1, 2 * n)
    if (2 * n + 1) ** n >= 2 * (2 * n) ** n:
        raise CertificateError("(1+eps)^n must stay below 2")
    threshold, scale = eps / 2**b, 2 ** (1 + b)  # the running sum holds each block over 2^(1+b)

    running = constant(space.ambient, 0)
    critical = _phi(running, space, eps)[0]
    grow_num = grow_den = 1
    path: tuple[int, ...] = ()
    blocks: list[StepFunction] = []
    stage_norms: list[Fraction] = []

    for m in range(n):
        if not is_finite(critical):
            raise CertificateError(f"critical set at stage {m + 1} is infinite")
        k, block = choose(m, path, critical, threshold)
        if block.ambient != space.ambient:
            raise CertificateError(f"block {m + 1} lives on a different ambient interval")
        if _leaves_unit_ball(block, space):
            raise CertificateError(f"block {m + 1} leaves the unit ball")
        if not _small_on(block, critical, threshold):
            raise CertificateError(f"block {m + 1} is not small on the critical set")
        path += (k,)
        running = _add(running, block, scale)
        if m + 1 < n:
            critical, norm = _phi(running, space, eps)
        else:
            norm = grasberg_norm(running, space)
        if norm.numerator * grow_den > grow_num * norm.denominator:
            raise CertificateError(f"stage bound fails at stage {m + 1}")
        grow_num *= 2 * n + 1
        grow_den *= 2 * n
        blocks.append(block)
        stage_norms.append(norm)

    final = step_scale(step_sum(blocks), Fraction(1, n))
    final_norm = grasberg_norm(final, space)
    if final_norm != Fraction(2 ** (1 + b), n) * stage_norms[-1]:
        raise CertificateError("homogeneity identity fails")
    if final_norm >= delta:
        raise CertificateError("final norm is not below delta")
    return ExtractionCertificate(
        branch=_Branch(path),
        blocks=tuple(blocks),
        stage_norms=tuple(stage_norms),
        eps=eps,
        n=n,
        final=final,
        final_norm=final_norm,
        delta=delta,
    )


def extract_small_combination(space: ClosedSet, family: WeaklyNullFamily, delta: Rational) -> ExtractionCertificate:
    """Walk one branch, adding family functions small on each critical set.

    At stage m the running sum g carries the previously chosen blocks with
    weight 1/2^(1+b); its critical set is finite (the king bound at finite
    height, checked by is_finite without listing the points), so the least
    child of the current node that is below eps/2^b everywhere on it is
    chosen.  The average of the chosen blocks then has Grasberg
    norm below delta, by the exact chain
    |final| = (2^(1+b)/n)|g| <= 2^(1+b)(1+eps)^(n-1)/n < 2^(2+b)/n < delta.

    Each stage asks one search for its child, the family's first_small or
    else a probe loop over children 0, 1, 2, ... (one sup over the critical
    set's atoms each, about n^2/2 probes a run); marching_indicators's
    first_small makes a run n searches.  Both stop at the family's budget,
    search_limit capped at MAX_PROBES; the chosen child is then built and
    checked against the contract.  Only when the budget runs out is a witness
    point computed: the first point of the critical set where child budget - 1
    is largest, found from its pieces without listing points.  Here only
    family.space == space and search_limit are checked; every other rule is
    the stage loop's, shared with verify, and raises CertificateError.
    """
    if family.space != space:
        raise ValueError("family is declared on a different space")
    budget = MAX_PROBES if family.search_limit is None else family.search_limit
    if type(budget) is not int or budget < 0:
        raise ValueError(f"search_limit must be an integer >= 0, got {budget!r}")
    budget = min(budget, MAX_PROBES)

    def child(path):
        candidate = family.at(path)
        if candidate.ambient != space.ambient:
            raise FamilyContractError(path, None, "function lives on a different ambient interval")
        if _leaves_unit_ball(candidate, space):
            raise FamilyContractError(path, None, "function exceeds the unit ball")
        return candidate

    def probing(path, critical, threshold, budget):
        return next((k for k in range(budget) if _small_on(child(path + (k,)), critical, threshold)), None)

    def probe(m, path, critical, threshold):
        k = (family.first_small or probing)(path, critical, threshold, budget)
        if k is None:
            raise FamilyContractError(
                path,
                argmax_on(family.at(path + (budget - 1,)), critical) if budget else None,
                f"no child fell below {threshold} on the critical set within {budget} probes",
            )
        if type(k) is not int or not 0 <= k < budget:
            raise FamilyContractError(path, None, f"first_small answered {k!r}, not a child index in [0, {budget})")
        return k, child(path + (k,))

    return _stages(space, _rational(delta, "delta"), probe)
