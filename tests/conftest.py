"""Shared strategies, fixtures, and independent oracles for the test suite."""

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ordspace.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    from_int,
    mul_nat,
    omega_pow,
)
from ordspace.fuzz import random_ordinal
from ordspace.topology import ClosedSet, Singleton, Stratum, interval, roundup
from ordspace.trees import FiniteTree

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


def assemble(pairs):
    """Fold (exponent, coefficient) pairs into an ordinal, largest exponent first.

    Sorting before summing keeps left absorption from discarding terms, so the
    strategy below actually reaches ordinals with several distinct exponents.
    """
    total = ZERO
    for exponent, coeff in sorted(pairs, key=lambda p: p[0], reverse=True):
        total = add(total, mul_nat(omega_pow(exponent), coeff))
    return total


def ordinal_strategy(max_depth: int = 3) -> st.SearchStrategy:
    """Ordinals built by recursively nesting exponents up to max_depth levels."""
    strategy = st.integers(min_value=0, max_value=7).map(from_int)
    for _ in range(max_depth):
        pairs = st.lists(
            st.tuples(strategy, st.integers(min_value=1, max_value=4)),
            min_size=1,
            max_size=3,
        )
        strategy = st.one_of(
            st.integers(min_value=0, max_value=7).map(from_int),
            pairs.map(assemble),
        )
    return strategy


small_ordinals = ordinal_strategy(2)
ordinals = ordinal_strategy(3)
positive_ordinals = ordinals.filter(lambda z: not z.is_zero())


@st.composite
def closed_set_strategy(draw, max_atoms: int = 3):
    """Arbitrary closed sets: a few singletons and strata under a shared ambient."""
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_atoms))):
        if draw(st.booleans()):
            atoms.append(Singleton(draw(small_ordinals)))
        else:
            lo = draw(small_ordinals)
            width = draw(small_ordinals.filter(lambda z: not z.is_zero()))
            mu = draw(
                st.one_of(
                    st.integers(min_value=0, max_value=2).map(from_int),
                    st.just(OMEGA),
                )
            )
            atoms.append(Stratum(lo, add(lo, width), mu))
    ambient = draw(small_ordinals)
    for atom in atoms:
        upper = atom.point if isinstance(atom, Singleton) else atom.hi
        if ambient < upper:
            ambient = upper
    return ClosedSet(ambient, atoms)


closed_sets = closed_set_strategy()


def random_tree(rng: random.Random, size: int, floor_chance: float = 0.2) -> FiniteTree:
    """Random attachment tree: each node picks an earlier parent or the floor."""
    parent = {}
    for i in range(size):
        if i == 0 or rng.random() < floor_chance:
            parent[i] = None
        else:
            parent[i] = rng.randrange(i)
    return FiniteTree(parent)


def longest_chain(tree: FiniteTree) -> int:
    """Rank oracle independent of the library's height bookkeeping.

    Walks every node's parent chain with memoised depths; the longest chain in
    the order is the maximum depth reached.
    """
    depth: dict = {}
    for node in tree.nodes:
        trail = []
        cursor = node
        while cursor is not None and cursor not in depth:
            trail.append(cursor)
            cursor = tree.parent(cursor)
        base = 0 if cursor is None else depth[cursor]
        for offset, entry in enumerate(reversed(trail), start=1):
            depth[entry] = base + offset
    return max(depth.values(), default=0)


def landmark_points(space: ClosedSet) -> list:
    """Ordinals worth probing for membership: atom endpoints and first hits."""
    points = []
    for atom in space.atoms:
        if isinstance(atom, Singleton):
            points.append(atom.point)
        else:
            points.append(atom.hi)
            first = roundup(atom.lo, atom.mu)
            points.append(first)
            points.append(add(first, ONE))
    points.append(space.ambient)
    points.append(ZERO)
    return points


def random_closed_set(rng: random.Random, max_atoms: int = 3) -> ClosedSet:
    """Plain-random counterpart of the hypothesis strategy, for counted sweeps."""
    bound = omega_pow(from_int(3))
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        if rng.random() < 0.4:
            atoms.append(Singleton(random_ordinal(rng, bound)))
        else:
            lo = random_ordinal(rng, bound)
            width = random_ordinal(rng, bound)
            if width.is_zero():
                width = ONE
            mu = from_int(rng.randint(0, 2)) if rng.random() < 0.8 else OMEGA
            atoms.append(Stratum(lo, add(lo, width), mu))
    ambient = random_ordinal(rng, bound)
    for atom in atoms:
        upper = atom.point if isinstance(atom, Singleton) else atom.hi
        if ambient < upper:
            ambient = upper
    return ClosedSet(ambient, atoms)


def display_member(gamma: Ordinal, alpha: Ordinal, beta: Ordinal) -> bool:
    """Membership oracle for the beta-th derived set of [1, omega^alpha].

    The set consists of the top point omega^alpha (as long as beta <= alpha)
    together with every finite sum omega^(e1) + ... + omega^(en) whose
    exponents satisfy alpha > e1 >= ... >= en >= beta. In CNF terms the sums
    are exactly the nonzero ordinals all of whose exponents lie in
    [beta, alpha), with arbitrary coefficients standing in for repetition.
    """
    top = omega_pow(alpha)
    if gamma == top:
        return beta <= alpha
    if gamma.is_zero():
        return False
    return all(beta <= exp < alpha for exp, _ in gamma.terms)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def spaces():
    """The three interval spaces most of the norm tests exercise."""
    return [
        interval(OMEGA),
        interval(omega_pow(from_int(2))),
        interval(omega_pow(OMEGA)),
    ]


@pytest.fixture
def phi_builds(monkeypatch):
    """The critical sets built so far: each build makes one grasberg.ClosedSet."""
    import ordspace.grasberg

    builds = []

    def counting(*args):
        builds.append(args)
        return ClosedSet(*args)

    monkeypatch.setattr(ordspace.grasberg, "ClosedSet", counting)
    return builds
