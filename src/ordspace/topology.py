"""Compact ordinal spaces [0, z] and their closed subsets.

A closed set is a finite union of atoms: singletons and strata.  The
stratum with window (lo, hi] and level mu denotes the multiples of w^mu
inside (lo, hi].  This algebra is closed under the Cantor-Bendixson
derivative: a singleton is isolated and vanishes, while the derivative of
a stratum is the same window one level up (mu + 1), because a multiple of
w^mu is a limit of smaller multiples exactly when it is a multiple of
w^(mu+1).  Iterating, the xi-th derivative of a stratum is the stratum at
level mu + xi, with set intersections realizing the limit stages exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    _trusted,
    add,
    format_ordinal,
    from_json as ordinal_from_json,
    left_subtract,
    omega_pow,
    to_json as ordinal_to_json,
)


class Singleton(namedtuple("Singleton", "point")):
    __slots__ = ()


def _unvalidated(*args, **kwargs):
    """namedtuple's _replace and _make, closed: they would skip the validating constructor."""
    raise TypeError("_replace and _make skip validation: call the constructor")


class Stratum(namedtuple("Stratum", "lo hi mu")):
    """Multiples of w^mu in the window (lo, hi]; requires lo < hi."""

    __slots__ = ()

    def __new__(cls, lo: Ordinal, hi: Ordinal, mu: Ordinal):
        if lo >= hi:
            raise ValueError("stratum window needs lo < hi")
        return tuple.__new__(cls, (lo, hi, mu))

    _replace = _make = _unvalidated

    def __reduce__(self):
        return Stratum, tuple(self)


Atom = Singleton | Stratum


def roundup(lo: Ordinal, nu: Ordinal) -> Ordinal:
    """Least multiple of w^nu strictly greater than lo: w^nu * (q + 1) for lo = w^nu * q + r.

    The terms of lo with exponent >= nu form a CNF prefix, which is w^nu * q.
    Adding w^nu to it adds 1 to its last coefficient if that term's exponent
    is nu, and appends the term (nu, 1) otherwise."""
    for i, (e, c) in enumerate(lo):
        if e <= nu:  # the prefix is lo[:i], or lo[:i + 1] when e == nu
            return _trusted(lo[:i] + ((nu, c + 1 if e == nu else 1),))
    return _trusted(lo[:] + ((nu, 1),))


def stratum_nonempty(lo: Ordinal, hi: Ordinal, mu: Ordinal) -> bool:
    """Whether (lo, hi] holds a multiple of w^mu, read where lo and hi first differ: no ordinal built."""
    return lo < hi and max_stratum_exponent(lo, hi) >= mu


def max_stratum_exponent(lo: Ordinal, hi: Ordinal) -> Ordinal:
    """Largest nu such that (lo, hi] contains a multiple of w^nu.

    The valid nu are downward closed (multiples of w^(nu+1) are multiples
    of w^nu), so the maximum is well defined.  Computed by stripping the
    common CNF prefix of lo and hi; once they first differ, the leading
    exponent of the remaining part of hi is the answer.
    """
    if lo >= hi:
        raise ValueError("max_stratum_exponent needs lo < hi")
    i = 0
    while i < len(lo) and lo[i] == hi[i]:
        i += 1
    return hi[i][0]


def clip_atom(
    atom: Atom, lower: Ordinal | None, upper: Ordinal, least: bool = False
) -> Atom | Ordinal | None:
    """Cut the atom down to the piece (lower, upper], or [0, upper] when lower is None.

    Returns the clipped atom, or None when its window is empty; a clipped
    stratum may still hold no multiple of w^mu.  With least=True returns
    instead the least point of the clipped atom, or None when it has none.
    """
    if isinstance(atom, Singleton):
        p = atom.point
        if p > upper or (lower is not None and lower >= p):
            return None
        return p if least else atom
    lo = atom.lo if lower is None or atom.lo >= lower else lower
    hi = atom.hi if atom.hi <= upper else upper
    if lo >= hi:
        return None
    if not least:
        return tuple.__new__(Stratum, (lo, hi, atom.mu))  # lo < hi holds
    first = roundup(lo, atom.mu)
    return first if first <= hi else None


def _stratum_contains(s: Stratum, g: Ordinal) -> bool:
    """Whether g is a multiple of w^mu in (lo, hi].  The terms of g with exponent
    >= mu form a prefix that is a multiple of w^mu, and the rest is below w^mu;
    so a g > lo, which is not 0, is a multiple exactly when its last exponent is >= mu."""
    return s.lo < g <= s.hi and g[-1][0] >= s.mu


class ClosedSet(namedtuple("ClosedSet", "ambient atoms")):
    """A closed subset of [0, ambient]: the pair (ambient, atoms), normalized at
    construction, which copy and pickle go through.

    Normalization drops empty strata, merges same-level strata whose
    windows overlap or abut, drops atoms contained in another stratum,
    and rewrites one-point strata as singletons, so that equal
    construction paths produce identical tuples.  ``in``, ``+``, ``*``
    and ``<`` raise TypeError: membership goes through :func:`contains`.
    """

    __slots__ = ()

    def __new__(cls, ambient: Ordinal, atoms: Iterable[Atom] = ()):
        return tuple.__new__(cls, (ambient, _normalize(ambient, atoms)))

    def _no_operator(self, other):
        raise TypeError("closed sets have no operators: use contains() for membership")

    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _no_operator
    __contains__ = None
    _replace = _make = _unvalidated

    def __reduce__(self):
        return ClosedSet, (self.ambient, self.atoms)

    def __repr__(self) -> str:
        return f"ClosedSet(ambient={format_ordinal(self.ambient)}, {format_closed_set(self)})"


def _holder(run: list[Stratum], g: Ordinal) -> Stratum | None:
    """The window of a run (disjoint windows sorted by lo) with lo < g <= hi, if any."""
    i = bisect_left(run, g, key=lambda s: s.lo) - 1
    return run[i] if i >= 0 and g <= run[i].hi else None


def _check_window(ambient: Ordinal, s: Stratum) -> None:
    if s.lo >= s.hi:
        raise ValueError("stratum requires lo < hi")
    if s.hi > ambient:
        raise ValueError(f"stratum reaches {s.hi}, outside [0, {ambient}]")


def _normalize(ambient: Ordinal, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """The canonical atoms of the union.  A list or tuple of one stratum, as an
    extraction stage's critical set often is, skips the sweeps: it is checked as
    any stratum is, then becomes (), its one point as a singleton, or itself."""
    if isinstance(atoms, (list, tuple)) and len(atoms) == 1 and isinstance(atoms[0], Stratum):
        s = atoms[0]
        _check_window(ambient, s)
        first = roundup(s.lo, s.mu)  # a stratum with first + w^mu > hi is the one point first
        return () if first > s.hi else (Singleton(first),) if roundup(first, s.mu) > s.hi else (s,)
    singles: set[Ordinal] = set()
    strata: list[Stratum] = []
    for atom in atoms:
        if isinstance(atom, Singleton):
            if atom.point > ambient:
                raise ValueError(f"point {atom.point} outside [0, {ambient}]")
            singles.add(atom.point)
        elif isinstance(atom, Stratum):
            _check_window(ambient, atom)
            if stratum_nonempty(atom.lo, atom.hi, atom.mu):
                strata.append(atom)
        else:
            raise TypeError(f"not an atom: {atom!r}")

    # merge same-level strata whose windows overlap or abut, one sweep per level
    strata.sort(key=lambda s: (s.mu, s.lo))
    runs: list[list[Stratum]] = []  # per level: disjoint windows sorted by lo
    for s in strata:
        last = runs[-1][-1] if runs else None
        if last is None or last.mu != s.mu:
            runs.append([s])
        elif s.lo > last.hi:
            runs[-1].append(s)
        elif s.hi > last.hi:
            runs[-1][-1] = Stratum(last.lo, s.hi, s.mu)

    # drop strata whose window lies in a window of a strictly coarser level
    kept: list[Stratum] = []
    for depth, run in enumerate(runs):
        for s in run:
            holders = (_holder(coarser, s.hi) for coarser in runs[:depth])
            if not any(o is not None and o.lo <= s.lo for o in holders):
                kept.append(s)

    # rewrite one-point strata as singletons
    final_strata: list[Stratum] = []
    for s in kept:
        first = roundup(s.lo, s.mu)
        if add(first, omega_pow(s.mu)) > s.hi:
            singles.add(first)
        else:
            final_strata.append(s)

    points = [p for p in singles if not any(_stratum_contains(s, p) for s in final_strata)]
    result: list[Atom] = [Singleton(p) for p in points]
    result.extend(final_strata)
    result.sort()  # tuple order: by point or lo, {p} before a stratum (p, hi], then hi and mu
    return tuple(result)


def interval(z: Ordinal) -> ClosedSet:
    """The full space [0, z]."""
    if z.is_zero():
        return ClosedSet(z, (Singleton(ZERO),))
    return ClosedSet(z, (Singleton(ZERO), Stratum(ZERO, z, ZERO)))


def contains(space: ClosedSet, g: Ordinal) -> bool:
    if g > space.ambient:
        raise ValueError(f"point {g} outside [0, {space.ambient}]")
    for atom in space.atoms:
        if isinstance(atom, Singleton):
            if atom.point == g:
                return True
        elif _stratum_contains(atom, g):
            return True
    return False


def is_empty(space: ClosedSet) -> bool:
    return not space.atoms


def derivative(space: ClosedSet) -> ClosedSet:
    """Cantor-Bendixson derivative: the points that are limits of the set."""
    return iterated_derivative(space, ONE)


def iterated_derivative(space: ClosedSet, xi: Ordinal) -> ClosedSet:
    """The xi-th derivative, in closed form (limit stages included)."""
    if xi.is_zero():
        return space
    atoms = [
        Stratum(a.lo, a.hi, add(a.mu, xi))
        for a in space.atoms
        if isinstance(a, Stratum)
    ]
    return ClosedSet(space.ambient, atoms)


def atom_height(atom: Atom) -> Ordinal:
    """Least xi wiping out the atom under iterated derivatives."""
    if isinstance(atom, Singleton):
        return ONE
    top = max_stratum_exponent(atom.lo, atom.hi)
    return add(left_subtract(atom.mu, top), ONE)


def cb_index(space: ClosedSet) -> Ordinal:
    """Least xi with the xi-th derivative empty; 0 for the empty set."""
    return max((atom_height(atom) for atom in space.atoms), default=ZERO)


def is_finite(space: ClosedSet) -> bool:
    """Whether the set is finite, i.e. cb_index(space) <= 1, without listing it:
    a stratum is infinite exactly when its window holds a multiple of w^(mu+1): max_stratum_exponent > mu."""
    for atom in space.atoms:
        if isinstance(atom, Stratum) and max_stratum_exponent(atom.lo, atom.hi) > atom.mu:
            return False
    return True


def finite_points(space: ClosedSet) -> tuple[Ordinal, ...] | None:
    """All points of the set if it is finite, else None."""
    if not is_finite(space):
        return None
    points: set[Ordinal] = set()
    for atom in space.atoms:
        if isinstance(atom, Singleton):
            points.add(atom.point)
            continue
        step = omega_pow(atom.mu)
        m = roundup(atom.lo, atom.mu)
        while m <= atom.hi:
            points.add(m)
            m = add(m, step)
    return tuple(sorted(points))


# ---- serialization ----------------------------------------------------------


def format_closed_set(space: ClosedSet) -> str:
    if not space.atoms:
        return "{}"
    parts = []
    for atom in space.atoms:
        if isinstance(atom, Singleton):
            parts.append(f"{{{format_ordinal(atom.point)}}}")
        else:
            parts.append(
                f"mult(w^({format_ordinal(atom.mu)})) in "
                f"({format_ordinal(atom.lo)}, {format_ordinal(atom.hi)}]"
            )
    return " u ".join(parts)


def to_json(space: ClosedSet) -> dict:
    atoms = []
    for atom in space.atoms:
        if isinstance(atom, Singleton):
            atoms.append({"singleton": ordinal_to_json(atom.point)})
        else:
            atoms.append(
                {
                    "lo": ordinal_to_json(atom.lo),
                    "hi": ordinal_to_json(atom.hi),
                    "mu": ordinal_to_json(atom.mu),
                }
            )
    return {"ambient": ordinal_to_json(space.ambient), "atoms": atoms}


def _field(data: dict, key: str, what: str):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{what}: expected an object with the field {key!r}")
    return data[key]


def _known(data: dict, keys: tuple[str, ...], what: str) -> None:
    for key in data:
        if key not in keys:
            raise ValueError(f"{what} has an unknown field {key!r}")


def from_json(data: dict) -> ClosedSet:
    """Decode the v1 closed-set JSON; malformed input, an unknown key included, raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
        raise ValueError("closed set JSON must be an object with an atoms array")
    _known(data, ("ambient", "atoms"), "closed set JSON")
    ambient = ordinal_from_json(_field(data, "ambient", "closed set JSON"))
    atoms: list[Atom] = []
    for item in data["atoms"]:
        if isinstance(item, dict) and "singleton" in item:
            _known(item, ("singleton",), "closed set singleton atom")
            atoms.append(Singleton(ordinal_from_json(item["singleton"])))
        else:
            fields = [_field(item, key, "closed set atoms") for key in ("lo", "hi", "mu")]
            _known(item, ("lo", "hi", "mu"), "closed set atom")
            atoms.append(Stratum(*map(ordinal_from_json, fields)))
    return ClosedSet(ambient, atoms)
