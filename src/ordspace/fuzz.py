"""Seeded fuzz inputs for the king and queen lemmas, and the shrinker for failures.

Every generator is deterministic per seed.  A trial builder turns one trial
seed into a lemma's arguments; shrink_step_function minimizes a failing one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .ordinal import ZERO, Ordinal, _trusted
from .topology import ClosedSet, Singleton, roundup
from .grasberg import StepFunction, _step, level_sets, params, phi, step_scale, sup_on


# ---- generators and trials --------------------------------------------------


def random_ordinal(rng: random.Random, bound: Ordinal) -> Ordinal:
    """A structurally random ordinal in [0, bound]; deterministic per rng state.

    Builds the CNF term list in one pass: each exponent is drawn at most
    equal to its predecessor, a repeated exponent adds its coefficient to
    the last term and a smaller one appends a term.  Then clamps to the bound.
    """
    if not bound:
        return ZERO
    roll = rng.random()
    if roll < 0.08:
        return ZERO
    if roll < 0.16:
        return bound
    exp_bound = bound[0][0]
    terms: list[tuple[Ordinal, int]] = []
    for _ in range(rng.randint(1, 3)):
        e = random_ordinal(rng, exp_bound)
        k = rng.randint(1, 9)
        if terms and terms[-1][0] == e:
            k += terms.pop()[1]
        terms.append((e, k))
        if not e:
            break
        exp_bound = e
    return min(_trusted(tuple(terms)), bound)


@lru_cache(maxsize=256)
def _landmarks(space: ClosedSet) -> frozenset[Ordinal]:
    """Each level's singletons and first two multiples of w^mu in each stratum."""
    pool: set[Ordinal] = set()
    try:
        levels = level_sets(space)
    except ValueError:
        levels = (space,)
    for level in levels:
        for atom in level.atoms:
            if isinstance(atom, Singleton):
                pool.add(atom.point)
            else:
                first = roundup(atom.lo, atom.mu)
                pool.add(first)
                second = roundup(first, atom.mu)
                if second <= atom.hi:
                    pool.add(second)
    return frozenset(pool)


def random_step_function(space: ClosedSet, seed: int, max_pieces: int = 6) -> StepFunction:
    """Deterministic fuzz generator.

    Breakpoints are drawn from random CNF points below the ambient plus the
    landmark multiples at each derivative level, so that cut points land on
    derived sets often enough to make the norm levels matter.  Each piece's
    value is -1 + 2k/den for a drawn den in 1..8 and k in 0..den.
    """
    if max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    rng = random.Random(seed)
    ambient = space.ambient
    pool = _landmarks(space).union(random_ordinal(rng, ambient) for _ in range(3 * max_pieces + 4))
    candidates = sorted(x for x in pool if x < ambient)

    count = rng.randint(1, max_pieces)
    chosen = rng.sample(candidates, min(count - 1, len(candidates)))
    breakpoints = sorted(set(chosen)) + [ambient]
    nums = []  # over 840, a common multiple of every den <= 8
    for _ in breakpoints:
        den = rng.randint(1, 8)
        nums.append(2 * rng.randint(0, den) * (840 // den) - 840)
    return _step(ambient, breakpoints, nums, 840)


def _trial_eps(trial_seed: int):
    rng = random.Random(3 * trial_seed + 2)
    return Fraction(rng.randint(1, 40), 20)


def _check_king_trial(space, trial_seed: int, max_pieces: int):
    f = random_step_function(space, 3 * trial_seed, max_pieces=max_pieces)
    return (f,), _trial_eps(trial_seed)


def _check_queen_trial(space, trial_seed: int, max_pieces: int):
    f = random_step_function(space, 3 * trial_seed, max_pieces=max_pieces)
    g = random_step_function(space, 3 * trial_seed + 1, max_pieces=max_pieces)
    eps = _trial_eps(trial_seed)
    cap = eps / 2 ** params(space).b
    spread = sup_on(g, phi(f, space, eps))
    if spread > cap:
        g = step_scale(g, cap / spread)
    return (f, g), eps


# ---- shrinking --------------------------------------------------------------


MAX_SHRINK_STEPS = 200


def shrink_step_function(f: StepFunction, still_failing) -> StepFunction:
    """Deterministically minimize a failing example.

    First reduce the piece count (halving, then single drops), then simplify
    values toward 0 (zeroing, integer truncation, halving up to the input's
    largest denominator), keeping every change only while the failure
    persists.  At most MAX_SHRINK_STEPS (200) changes are kept over both phases.
    """
    top = max(v.denominator for v in f.values)

    def piece_drops(f):
        k = len(f.breakpoints)
        kept = [[*range(1, k - 1, 2), k - 1]] if k > 2 else []
        kept += [[j for j in range(k) if j != i] for i in range(k - 1)]
        for keep in kept:
            cand = StepFunction(
                f.ambient, tuple(f.breakpoints[j] for j in keep), tuple(f.values[j] for j in keep)
            )
            if len(cand.breakpoints) < k:
                yield cand

    def value_simplifications(f):
        for i, v in enumerate(f.values):
            for repl in (Fraction(0), Fraction(int(v)), v / 2):
                if repl != v and repl.denominator <= top:
                    yield StepFunction(
                        f.ambient, f.breakpoints, f.values[:i] + (repl,) + f.values[i + 1 :]
                    )

    steps = 0
    for candidates in (piece_drops, value_simplifications):
        while steps < MAX_SHRINK_STEPS:
            better = next((c for c in candidates(f) if still_failing(c)), None)
            if better is None:
                break
            f = better
            steps += 1
    return f
