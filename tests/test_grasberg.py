"""Tests for norm parameters, step functions, critical sets, and the two lemma checkers."""

import copy
import hashlib
import json
import pickle
import random
import re
import time
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ordspace.grasberg
import ordspace.topology
from ordspace.grasberg import (
    StepFunction,
    _add,
    _norm_num,
    _phi,
    _step,
    _sup_num,
    argmax_on,
    check_king,
    check_queen,
    constant,
    grasberg_norm,
    indicator,
    level_sets,
    params,
    phi,
    step_add,
    step_convex,
    step_scale,
    step_sum,
    sup_on,
    value_at,
    step_function_from_json,
    step_function_to_json,
)
from ordspace.extract import extract_small_combination, marching_indicators
from ordspace.fuzz import random_ordinal, random_step_function
from ordspace.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    from_int,
    leading_exponent,
    mul_nat,
    omega_pow,
    parse,
)
from ordspace.szlenk import dirac_derivative
from ordspace.topology import (
    ClosedSet,
    Singleton,
    Stratum,
    cb_index,
    clip_atom,
    finite_points,
    format_closed_set,
    interval,
    is_empty,
    iterated_derivative,
    roundup,
)

from conftest import assemble, closed_sets, derivative, landmark_points, validate

TWO = from_int(2)
OMEGA_SQ = omega_pow(TWO)
OMEGA_OMEGA = omega_pow(OMEGA)

SPACES = [interval(OMEGA), interval(OMEGA_SQ), interval(OMEGA_OMEGA)]


def ranged(f, lo, hi):
    """f's values v in [-1, 1] moved onto [lo, hi]: lo + (hi - lo)(v + 1)/2."""
    return step_add(step_scale(f, Fraction(hi - lo, 2)), constant(f.ambient, Fraction(hi + lo, 2)))


def one_then_zero(ambient, cut=from_int(5)):
    """1 on [0, cut], 0 on (cut, ambient]."""
    return StepFunction(ambient, (cut, ambient), (Fraction(1), Fraction(0)))


# --- params ------------------------------------------------------------------


def test_params_omega():
    p = params(interval(OMEGA))
    assert (p.o, p.b, p.cb) == (ZERO, 1, TWO)


def test_params_omega_squared():
    p = params(interval(OMEGA_SQ))
    assert (p.o, p.b, p.cb) == (ZERO, 2, from_int(3))


def test_params_omega_omega():
    p = params(interval(OMEGA_OMEGA))
    assert (p.o, p.b, p.cb) == (ONE, 1, parse("w+1"))


def test_params_of_a_set_whose_cb_minus_one_has_two_terms():
    # the multiples of w^0 in (0, w^(w+2)]: cb = w+3, so cb - 1 = w+2 and o, b = 1, 1
    space = ClosedSet(parse("w^(w+3)"), [Stratum(ZERO, parse("w^(w+2)"), ZERO)])
    p = params(space)
    assert (p.o, p.b, p.cb) == (ONE, 1, parse("w+3"))


def test_params_rejects_finite_space():
    with pytest.raises(ValueError):
        params(interval(from_int(5)))
    with pytest.raises(ValueError):
        params(ClosedSet(OMEGA, []))


@pytest.mark.parametrize(
    "z",
    ["w", "w^(2)", "w^(3)*2", "w^(w)", "w^(w)*3+w^(2)", "w^(w^(2))", "w^(2)*2"],
)
def test_params_bracketing_invariants(z):
    space = interval(parse(z))
    p = params(space)
    assert omega_pow(p.o) < p.cb <= omega_pow(add(p.o, ONE))
    lower = mul_nat(omega_pow(p.o), p.b)
    upper = mul_nat(omega_pow(p.o), p.b + 1)
    assert lower < p.cb <= upper
    # b is the last non-empty level
    assert not is_empty(iterated_derivative(space, lower))
    assert is_empty(iterated_derivative(space, upper)) or p.cb <= upper


# --- sup_on ------------------------------------------------------------------


def test_sup_on_constant():
    assert sup_on(constant(OMEGA, 1), interval(OMEGA)) == 1


def test_sup_on_ignores_pieces_missing_the_set():
    f = one_then_zero(OMEGA)
    assert sup_on(f, derivative(interval(OMEGA))) == 0


def test_sup_on_empty_set_is_zero():
    f = one_then_zero(OMEGA)
    assert sup_on(f, ClosedSet(OMEGA, [])) == 0


def test_sup_on_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        sup_on(constant(OMEGA, 1), interval(OMEGA_SQ))


# --- grasberg_norm -----------------------------------------------------------


@pytest.mark.parametrize("value", [0, "1/2", -3, Fraction(7, 9)])
def test_constant_equals_its_validated_rebuild(value):
    for ambient in (ZERO, OMEGA):
        f = constant(ambient, value)
        assert f == StepFunction(ambient, f.breakpoints, f.values)
        assert f == StepFunction(ambient, (ambient,), (value,))
        assert f.values == (Fraction(value),) and type(f.values[0]) is Fraction


def test_norm_constant_on_omega():
    assert grasberg_norm(constant(OMEGA, 1), interval(OMEGA)) == 2


def test_norm_drops_to_sup_when_high_levels_vanish():
    assert grasberg_norm(one_then_zero(OMEGA), interval(OMEGA)) == 1


def test_norm_constant_on_omega_squared():
    assert grasberg_norm(constant(OMEGA_SQ, 1), interval(OMEGA_SQ)) == 4


# --- phi ---------------------------------------------------------------------


def test_phi_constant_keeps_only_top_level():
    got = phi(constant(OMEGA, 1), interval(OMEGA), Fraction(1, 2))
    assert got == ClosedSet(OMEGA, [Stratum(ZERO, OMEGA, ONE)])


def test_phi_empty_when_predicate_never_fires():
    f = StepFunction(OMEGA, (from_int(5), OMEGA), (Fraction(1), Fraction(1, 2)))
    # |f| = 2 (level 1 sees 1/2 doubled... level 0 sees 1): pick eps large
    assert is_empty(phi(f, interval(OMEGA), Fraction(5)))


def test_phi_level_zero_window():
    got = phi(one_then_zero(OMEGA), interval(OMEGA), Fraction(1, 2))
    want = ClosedSet(OMEGA, [Singleton(ZERO), Stratum(ZERO, from_int(5), ZERO)])
    assert got == want


def test_phi_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        phi(constant(OMEGA, 1), interval(OMEGA), Fraction(0))


# --- check_king --------------------------------------------------------------


def test_king_constant_on_omega():
    report = check_king(constant(OMEGA, 1), interval(OMEGA), Fraction(1, 2))
    assert report.cb_phi == ONE
    assert report.bound == ONE
    assert report.passed


def test_king_on_omega_omega():
    report = check_king(constant(OMEGA_OMEGA, 1), interval(OMEGA_OMEGA), Fraction(1, 2))
    assert report.bound == OMEGA
    assert report.cb_phi <= OMEGA
    assert report.passed


def test_king_finite_phi():
    report = check_king(one_then_zero(OMEGA), interval(OMEGA), Fraction(1, 2))
    assert report.cb_phi == ONE
    assert report.passed


@pytest.mark.parametrize("space_text", ["w", "w^(2)", "w^(3)", "w^(w)"])
def test_king_fuzz_small(space_text):
    space = interval(parse(space_text))
    for seed in range(300):
        f = random_step_function(space, seed)
        eps = Fraction(seed % 7 + 1, 4)
        assert check_king(f, space, eps).passed


# --- check_queen -------------------------------------------------------------


def test_queen_tight_case():
    space = interval(OMEGA)
    f = constant(OMEGA, 1)
    g = constant(OMEGA, Fraction(1, 5))
    eps = Fraction(2, 5)
    report = check_queen(f, g, space, eps)
    assert report.hypothesis_ok
    assert report.hypothesis_lhs == Fraction(1, 5)
    assert report.hypothesis_rhs == Fraction(1, 5)
    assert report.lhs == Fraction(12, 5)
    assert report.rhs == Fraction(12, 5)
    assert report.passed


def test_queen_zero_perturbation():
    space = interval(OMEGA)
    f = one_then_zero(OMEGA)
    report = check_queen(f, constant(OMEGA, 0), space, Fraction(1, 3))
    assert report.hypothesis_ok
    assert report.lhs == grasberg_norm(f, space)
    assert report.passed


def test_queen_zero_base():
    space = interval(OMEGA)
    g = constant(OMEGA, Fraction(7, 2))
    report = check_queen(constant(OMEGA, 0), g, space, Fraction(1, 4))
    assert report.hypothesis_ok  # phi of the zero function is empty
    assert report.lhs == grasberg_norm(g, space)
    assert report.passed


def rescale_to_hypothesis(f, g, space, eps):
    """Scale g down until it satisfies the queen hypothesis on phi(f, eps)."""
    cap = eps / 2 ** params(space).b
    spread = sup_on(g, phi(f, space, eps))
    if spread > cap:
        g = step_scale(g, cap / spread)
    return g


@pytest.mark.parametrize("space_text", ["w", "w^(2)", "w^(w)"])
def test_queen_fuzz_small(space_text):
    space = interval(parse(space_text))
    for seed in range(200):
        f = random_step_function(space, 2 * seed)
        g = random_step_function(space, 2 * seed + 1)
        eps = Fraction(seed % 5 + 1, 3)
        g = rescale_to_hypothesis(f, g, space, eps)
        report = check_queen(f, g, space, eps)
        assert report.hypothesis_ok
        assert report.passed


# --- step function arithmetic --------------------------------------------------


def test_step_function_merges_equal_adjacent_values():
    f = StepFunction(OMEGA, (from_int(5), OMEGA), (Fraction(1), Fraction(1)))
    assert f == constant(OMEGA, 1)


def test_step_function_validates_breakpoints():
    with pytest.raises(ValueError):
        StepFunction(OMEGA, (from_int(5),), (Fraction(1),))  # last must be ambient
    with pytest.raises(ValueError):
        StepFunction(OMEGA, (from_int(5), from_int(3), OMEGA), (1, 2, 3))


def test_value_at():
    f = one_then_zero(OMEGA)
    assert value_at(f, ZERO) == 1
    assert value_at(f, from_int(5)) == 1
    assert value_at(f, from_int(6)) == 0
    assert value_at(f, OMEGA) == 0


def test_step_add_constants():
    got = step_add(constant(OMEGA, 1), constant(OMEGA, 1))
    assert got == constant(OMEGA, 2)


def test_step_convex_identity():
    f = one_then_zero(OMEGA)
    assert step_convex([Fraction(1)], [f]) == f


def test_step_convex_halves():
    f = one_then_zero(OMEGA)
    g = step_add(constant(OMEGA, 1), step_scale(f, -1))  # the complementary indicator
    got = step_convex([Fraction(1, 2), Fraction(1, 2)], [f, g])
    assert got == constant(OMEGA, Fraction(1, 2))


def reference_step_convex(coeffs, fs):
    """Sum of c*f evaluated with value_at on the sorted union of all breakpoints."""
    bps = sorted({bp for f in fs for bp in f.breakpoints})
    values = [sum((Fraction(c) * value_at(f, b) for c, f in zip(coeffs, fs)), Fraction(0)) for b in bps]
    return StepFunction(fs[0].ambient, bps, values)


FUZZ_SPACES = [interval(parse(text)) for text in ("w", "w*3+2", "w^(2)*2+w", "w^(w)+5")]


@given(
    st.sampled_from(FUZZ_SPACES),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
)
def test_step_add_matches_value_at_reference(space, seed_a, seed_b, max_pieces):
    f = random_step_function(space, seed_a, max_pieces=max_pieces)
    g = random_step_function(space, seed_b, max_pieces=max_pieces)
    assert step_add(f, g) == reference_step_convex([1, 1], [f, g])
    assert step_add(f, g) == step_add(g, f)


@pytest.mark.lock
@given(
    st.sampled_from(FUZZ_SPACES),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([1, 2, 3, 4, 8, 16]),
    st.sampled_from([Fraction(1, 130), Fraction(1, 2), Fraction(3)]),
)
def test_adding_a_block_over_q_is_step_add_of_its_scaling(space, seed_a, seed_b, max_pieces, q, eps):
    """The stage loop adds block/2^(1+b) in one merge, _add(running, block, q): the
    same canonical tuple as step_add(running, step_scale(block, 1/q)), and so the
    same norm and critical set."""
    f = random_step_function(space, seed_a, max_pieces=max_pieces)
    g = random_step_function(space, seed_b, max_pieces=max_pieces)
    want = step_add(f, step_scale(g, Fraction(1, q)))
    got = _add(f, g, q)
    assert type(got) is StepFunction and got == want
    assert got == StepFunction(got.ambient, got.breakpoints, got.values)
    assert _phi(got, space, eps) == _phi(want, space, eps)


@given(
    st.sampled_from(FUZZ_SPACES),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
)
def test_step_convex_matches_value_at_reference(space, seeds, weights):
    fs = [random_step_function(space, seed, max_pieces=8) for seed in seeds]
    weights = weights[: len(fs)]
    if sum(weights) == 0:
        weights[0] = 1
    coeffs = [Fraction(w, sum(weights)) for w in weights]
    assert step_convex(coeffs, fs) == reference_step_convex(coeffs, fs)


@given(
    st.sampled_from(FUZZ_SPACES),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 7), Fraction(5, 2)]),
)
def test_trusted_step_functions_match_the_validating_constructor(space, seed_a, seed_b, c):
    """Outputs built without validation equal their validated rebuild."""
    f = random_step_function(space, seed_a, max_pieces=8)
    g = random_step_function(space, seed_b, max_pieces=8)
    outputs = [f, step_add(f, g), step_scale(f, c), step_scale(f, -c)]
    outputs.append(step_convex([c / (1 + c), 1 / (1 + c)], [f, g]))
    for h in outputs:
        rebuilt = StepFunction(h.ambient, h.breakpoints, h.values)
        assert rebuilt == h
        assert rebuilt.breakpoints == h.breakpoints and rebuilt.values == h.values
        assert all(type(v) is Fraction for v in h.values)


def assert_canonical(h):
    assert h.den > 0 and gcd(h.den, *h.nums) == 1
    assert all(a != b for a, b in zip(h.nums, h.nums[1:]))
    assert type(h.values) is tuple and all(type(v) is Fraction for v in h.values)
    assert all(gcd(v.numerator, v.denominator) == 1 for v in h.values)
    assert h.values == tuple(Fraction(x, h.den) for x in h.nums)


@given(
    st.sampled_from(FUZZ_SPACES),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 7), Fraction(-5, 2)]),
    st.integers(min_value=2, max_value=6),
)
def test_step_functions_have_one_canonical_form(space, seed_a, seed_b, c, m):
    """Every way of building the same function gives the same (nums, den), == and hash."""
    f = ranged(random_step_function(space, seed_a, max_pieces=8), -2, Fraction(3, 2))
    g = random_step_function(space, seed_b, max_pieces=8)
    outputs = [f, step_add(f, g), step_scale(f, c), step_add(f, step_scale(f, -1))]
    outputs += [step_convex([Fraction(1, m), 1 - Fraction(1, m)], [f, g]), indicator(space.ambient, ONE, OMEGA)]
    for h in outputs:
        assert_canonical(h)
        finer = sorted(set(h.breakpoints) | set(f.breakpoints) | set(g.breakpoints))
        unreduced = [f"{v.numerator * m}/{v.denominator * m}" for v in h.values]  # like "2/4"
        others = [
            StepFunction(h.ambient, h.breakpoints, unreduced),
            StepFunction(h.ambient, finer, [value_at(h, b) for b in finer]),  # merged back
            pickle.loads(pickle.dumps(h)),
            step_scale(step_scale(h, m), Fraction(1, m)),
            step_add(h, constant(h.ambient, 0)),
        ]
        for other in others:
            assert_canonical(other)
            assert other == h and hash(other) == hash(h)
            assert (other.breakpoints, other.nums, other.den) == (h.breakpoints, h.nums, h.den)
        assert (step_scale(h, Fraction(1, 2)) == h) == (not any(h.nums))  # den counts in ==


def test_copy_and_pickle_rebuild_through_the_validating_constructor():
    # round trips: tests/test_trees.py::test_immutable_types_copy_and_pickle
    forged = tuple.__new__(StepFunction, (OMEGA, (from_int(3),), (1,), 1))  # stops short of w
    with pytest.raises(ValueError):
        copy.copy(forged)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged, protocol))
    valid = StepFunction(OMEGA, (from_int(3), OMEGA), (Fraction(-1, 2), Fraction(4, 5)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(valid, protocol))
        assert back == valid and type(back) is StepFunction and back.nums == (-5, 8)


def test_step_add_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        step_add(constant(OMEGA, 1), constant(OMEGA_SQ, 1))
    with pytest.raises(ValueError):
        step_convex([Fraction(1, 2), Fraction(1, 2)], [constant(OMEGA, 1), constant(OMEGA_SQ, 1)])


def test_argmax_on_takes_first_largest_piece_and_its_least_point():
    f = StepFunction(
        OMEGA,
        (from_int(1), from_int(3), from_int(6), OMEGA),
        (Fraction(1, 10), Fraction(-1), Fraction(1), Fraction(0)),
    )
    space = ClosedSet(OMEGA, [Singleton(from_int(1)), Stratum(from_int(1), from_int(9), ZERO)])
    assert argmax_on(f, space) == from_int(2)
    assert argmax_on(f, ClosedSet(OMEGA, [Singleton(from_int(5))])) == from_int(5)
    assert argmax_on(f, ClosedSet(OMEGA, [])) is None


@given(closed_sets, st.integers(min_value=0, max_value=10**6))
def test_argmax_on_matches_listing_the_points(space, seed):
    points = finite_points(space)
    if not points:
        return
    f = random_step_function(space, seed, max_pieces=8)
    assert argmax_on(f, space) == max(points, key=lambda q: abs(value_at(f, q)))


# --- bisection against the pieces x atoms scans ---------------------------------


def reference_pieces(f):
    """(lower, upper, value) per piece; lower None means the piece [0, upper]."""
    return zip((None,) + f.breakpoints[:-1], f.breakpoints, f.values)


def reference_sup_on(f, space):
    """The old sup_on: every piece against every atom of the set."""
    best = Fraction(0)
    for lower, upper, v in reference_pieces(f):
        if abs(v) > best and any(
            clip_atom(atom, lower, upper, least=True) is not None for atom in space.atoms
        ):
            best = abs(v)
    return best


def reference_argmax_on(f, space):
    """The old argmax_on: the least hit of the first piece with the largest |value|."""
    best = point = None
    for lower, upper, v in reference_pieces(f):
        if best is not None and abs(v) <= best:
            continue
        hits = [
            q for atom in space.atoms if (q := clip_atom(atom, lower, upper, least=True)) is not None
        ]
        if hits:
            best, point = abs(v), min(hits)
    return point


def reference_phi(f, space, eps):
    """The old phi: per level, every critical piece against every atom."""
    levels = level_sets(space)
    norm = max(2**n * reference_sup_on(f, level) for n, level in enumerate(levels))
    atoms = []
    for n, level in enumerate(levels):
        for lower, upper, v in reference_pieces(f):
            if 2 ** (n + 1) * abs(v) > norm + eps:
                for atom in level.atoms:
                    if (clipped := clip_atom(atom, lower, upper)) is not None:
                        atoms.append(clipped)
    return ClosedSet(space.ambient, atoms)


def reference_value_at(f, point):
    """The old value_at: the first piece whose upper end reaches the point."""
    for bp, v in zip(f.breakpoints, f.values):
        if point <= bp:
            return v


BISECT_AMBIENT = mul_nat(OMEGA_SQ, 3)
# w^2*a + w*b + c below the ambient: successors, limits and their neighbours
BISECT_POOL = sorted(
    assemble([(e, k) for e, k in ((TWO, a), (ONE, b), (ZERO, c)) if k])
    for a in range(3)
    for b in range(5)
    for c in range(5)
)
# few magnitudes, both signs: many pieces tie in |value|
TIE_VALUES = [Fraction(v) for v in ("-1", "-1/2", "0", "1/2", "1")]
# numerators or denominators above 10**30, so that sup_on's integer
# cross-products |num| * bd > bn * den run past 100 bits; the listed ones tie
# in |value| or sit 1/10**40 from a tie
BIG = 10**40
BIG_VALUES = [Fraction(v) for v in (BIG + 1, -BIG - 1, 10**31)] + [
    Fraction(n, d) for n, d in ((BIG + 1, BIG), (-BIG - 1, BIG), (BIG - 1, BIG), (-(10**31), 10**31 + 7))
]
STEP_VALUES = st.one_of(
    st.sampled_from(TIE_VALUES),
    st.sampled_from(BIG_VALUES),
    st.builds(Fraction, st.integers(min_value=-BIG, max_value=BIG), st.integers(min_value=1, max_value=BIG)),
)


@st.composite
def step_functions_and_sets(draw):
    """A step function of up to 40 pieces and a closed set built around its
    breakpoints: singletons on, just below and just above them, and strata of
    several levels with a breakpoint as lo or hi."""
    size = draw(st.integers(min_value=0, max_value=39))
    cuts = draw(st.lists(st.sampled_from(BISECT_POOL), min_size=size, max_size=size, unique=True))
    bps = sorted(cuts) + [BISECT_AMBIENT]
    values = draw(st.lists(STEP_VALUES, min_size=len(bps), max_size=len(bps)))
    f = StepFunction(BISECT_AMBIENT, bps, values)
    ends = BISECT_POOL + [BISECT_AMBIENT]
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        bp = draw(st.sampled_from(f.breakpoints))
        kind = draw(st.sampled_from(["on", "below", "above", "stratum", "stratum", "stratum"]))
        if kind == "on":
            atoms.append(Singleton(bp))
        elif kind == "below" and not bp.is_zero():
            atoms.append(Singleton(max(q for q in BISECT_POOL if q < bp)))
        elif kind == "above" and bp < BISECT_AMBIENT:
            atoms.append(Singleton(add(bp, ONE)))
        elif kind == "stratum":
            other = draw(st.sampled_from(ends))
            if other != bp:
                mu = from_int(draw(st.integers(min_value=0, max_value=2)))
                atoms.append(Stratum(min(bp, other), max(bp, other), mu))
    return f, ClosedSet(BISECT_AMBIENT, atoms)


@given(step_functions_and_sets(), st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(2)]))
def test_bisection_matches_the_pieces_by_atoms_scans(f_and_set, eps):
    f, space = f_and_set
    assert sup_on(f, space) == reference_sup_on(f, space)
    assert argmax_on(f, space) == reference_argmax_on(f, space)
    for point in BISECT_POOL + [BISECT_AMBIENT]:
        assert value_at(f, point) == reference_value_at(f, point)
    if cb_index(space) > ONE:
        got = phi(f, space, eps)
        assert got == reference_phi(f, space, eps)
        assert repr(got.atoms) == repr(reference_phi(f, space, eps).atoms)


@st.composite
def functions_on_infinite_sets(draw, count=st.just(1)):
    """A closed set of cb index >= 2 and step functions on its ambient: the cut
    points of random_step_function there, with tie values and numerators or
    denominators above 10**30 in place of its values."""
    space = draw(closed_sets)
    assume(cb_index(space) > ONE)
    fs = []
    for _ in range(draw(count)):
        cuts = random_step_function(space, draw(st.integers(min_value=0, max_value=10**6)), 12).breakpoints
        values = draw(st.lists(STEP_VALUES, min_size=len(cuts), max_size=len(cuts)))
        fs.append(StepFunction(space.ambient, cuts, values))
    return space, fs


@given(functions_on_infinite_sets())
def test_pruned_norm_matches_the_every_level_max(space_and_fs):
    """_norm_num walks the levels top down with the best so far as a floor."""
    space, (f,) = space_and_fs
    unpruned = max(_sup_num(f, level) << n for n, level in enumerate(level_sets(space)))
    assert _norm_num(f, space) == unpruned
    assert grasberg_norm(f, space) == Fraction(unpruned, f.den)


@given(functions_on_infinite_sets(), st.data())
def test_sup_num_with_a_floor_is_the_max_of_floor_and_sup(space_and_fs, data):
    space, (f,) = space_and_fs
    for s in (space,) + level_sets(space):
        sup = reference_sup_on(f, s) * f.den
        assert sup.denominator == 1
        sup = sup.numerator
        floors = [0, sup, sup + 1, max(sup - 1, 0), sup // 2, data.draw(st.integers(min_value=0, max_value=BIG**2))]
        for floor in floors:
            assert _sup_num(f, s, floor) == max(floor, sup)


def staircase(k):
    """k pieces on [0, w^(3)], cut at the successors w^(2)*a+w*b+1 for (a, b) =
    divmod(i, 10), with values 1/k, ..., (k-1)/k and 0 on the last piece: each
    |value| beats the one before, and every tenth piece holds a multiple of w^2."""
    cuts = [
        assemble([(e, c) for e, c in ((TWO, a), (ONE, b), (ZERO, 1)) if c])
        for a, b in (divmod(i, 10) for i in range(k - 1))
    ]
    ambient = omega_pow(from_int(3))
    return StepFunction(ambient, cuts + [ambient], [Fraction(i, k) for i in range(1, k)] + [0])


def test_the_norm_builds_no_ordinal_per_piece(monkeypatch):
    """Catches a per-piece clip in the level sups: building each candidate piece's
    least multiple of w^mu (roundup) costs one ordinal for each of the k - 1
    pieces that beat the best so far at level 2, where reading the window's
    ends builds none, so the count would double with k."""
    space = interval(omega_pow(from_int(3)))
    level_sets(space)  # the levels are built once per space, outside the count
    calls = []
    monkeypatch.setattr(ordspace.topology, "roundup", lambda *args: calls.append(args) or roundup(*args))
    norms, counts = {}, {}
    for k in (100, 200):
        f = staircase(k)
        calls.clear()
        norms[k] = grasberg_norm(f, space)
        counts[k] = len(calls)
    assert norms == {100: Fraction(91, 25), 200: Fraction(191, 50)}
    print(f"complexity lock: grasberg_norm roundup calls on the k-piece staircase: {counts[100]} at k = 100, {counts[200]} at k = 200")
    assert counts[200] == counts[100], f"roundup calls by k: {counts}"


def test_step_sum_builds_one_step_function(monkeypatch):
    """Catches a pairwise sum: reduce(step_add, fs) builds each of its k - 1
    running sums through _step, so the count would double with k, where one
    sort of the cut points builds only the result."""
    ambient = omega_pow(from_int(3))
    built = []
    monkeypatch.setattr(ordspace.grasberg, "_step", lambda *args: built.append(args) or _step(*args))
    counts = {}
    for k in (100, 200):
        fs = [indicator(ambient, mul_nat(OMEGA, i), mul_nat(OMEGA, i + 1)) for i in range(1, k + 1)]
        built.clear()
        total = step_sum(fs)
        counts[k] = len(built)
        assert total == indicator(ambient, OMEGA, mul_nat(OMEGA, k + 1))
    print(f"complexity lock: step_sum _step calls on k indicators: {counts[100]} at k = 100, {counts[200]} at k = 200")
    assert counts[200] == counts[100], f"_step calls by k: {counts}"


@given(functions_on_infinite_sets(count=st.integers(min_value=1, max_value=9)))
def test_step_sum_matches_pairwise_step_add(space_and_fs):
    _, fs = space_and_fs
    assert step_sum(fs) == reduce(step_add, fs)


def test_step_sum_rejects_no_functions_and_mixed_ambients():
    with pytest.raises(ValueError, match="at least one"):
        step_sum([])
    with pytest.raises(ValueError, match="different ambient"):
        step_sum([constant(OMEGA, 1), constant(OMEGA, 2), constant(OMEGA_SQ, 1)])


def test_step_convex_rejects_bad_weights():
    f = constant(OMEGA, 1)
    with pytest.raises(ValueError):
        step_convex([Fraction(1, 2)], [f])
    with pytest.raises(ValueError):
        step_convex([Fraction(3, 2), Fraction(-1, 2)], [f, f])


def test_indicator_window():
    f = indicator(OMEGA, from_int(2), from_int(4))
    assert value_at(f, from_int(2)) == 0
    assert value_at(f, from_int(3)) == 1
    assert value_at(f, from_int(4)) == 1
    assert value_at(f, from_int(5)) == 0


def test_indicator_edges():
    # (lo, hi] leaves lo out, except that lo = 0 gives [0, hi]
    three = from_int(3)
    assert value_at(indicator(OMEGA, ZERO, three), ZERO) == 1
    assert value_at(indicator(OMEGA, ONE, three), ONE) == 0


# --- random generator ----------------------------------------------------------


def test_random_single_piece_is_constant():
    f = random_step_function(interval(OMEGA), seed=1, max_pieces=1)
    assert len(f.breakpoints) == 1


def test_random_deterministic():
    a = random_step_function(interval(OMEGA_SQ), seed=7, max_pieces=5)
    b = random_step_function(interval(OMEGA_SQ), seed=7, max_pieces=5)
    assert a == b


def test_random_generator_contract():
    space = interval(OMEGA_SQ)
    for seed in range(100):
        f = random_step_function(space, seed, max_pieces=5)
        assert f.ambient == OMEGA_SQ
        assert 1 <= len(f.breakpoints) <= 5
        assert all(-1 <= v <= 1 for v in f.values)
        assert sup_on(f, space) <= 1


def reference_random_ordinal(rng, bound):
    """The generator as it was first written: every term joined through add."""
    if bound.is_zero():
        return ZERO
    roll = rng.random()
    if roll < 0.08:
        return ZERO
    if roll < 0.16:
        return bound
    exp_bound = leading_exponent(bound)
    acc = ZERO
    for _ in range(rng.randint(1, 3)):
        e = reference_random_ordinal(rng, exp_bound)
        acc = add(acc, mul_nat(omega_pow(e), rng.randint(1, 9)))
        if e.is_zero():
            break
        exp_bound = e
    return acc if acc <= bound else bound


def reference_random_step_function(space, seed, max_pieces=6):
    """random_step_function with its landmark pool rebuilt on every call."""
    rng = random.Random(seed)
    ambient = space.ambient
    pool = set()
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
                second = add(first, omega_pow(atom.mu))
                if second <= atom.hi:
                    pool.add(second)
    for _ in range(3 * max_pieces + 4):
        pool.add(reference_random_ordinal(rng, ambient))
    candidates = sorted(x for x in pool if x < ambient)
    count = rng.randint(1, max_pieces)
    chosen = rng.sample(candidates, min(count - 1, len(candidates)))
    breakpoints = sorted(set(chosen)) + [ambient]
    values = []
    for _ in breakpoints:
        den = rng.randint(1, 8)
        values.append(-1 + 2 * Fraction(rng.randint(0, den), den))
    return StepFunction(ambient, breakpoints, values)


GENERATOR_BOUNDS = ["0", "5", "w", "w^(2)*2+w*3+5", "w^(w)", "w^(w^(2))"]


@pytest.mark.parametrize("text", GENERATOR_BOUNDS)
def test_random_ordinal_matches_the_add_reference(text):
    bound = parse(text)
    for seed in range(400):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_ordinal(rng, bound)
        assert got == reference_random_ordinal(ref_rng, bound)
        assert got <= bound and type(got) is Ordinal
        validate(got)
        assert rng.getstate() == ref_rng.getstate()  # the same draws, in the same order


@pytest.mark.parametrize(
    "text", ["w", "w^(2)", "w^(3)", "w^(w)", "w^(2)*2+w*3+5", "7"]
)  # the benchmark's five fuzz spaces, and a finite one without norm levels
def test_random_step_function_matches_the_uncached_reference(text):
    space = interval(parse(text))
    for seed in range(150):
        for max_pieces in (5, 12):
            got = random_step_function(space, seed, max_pieces)
            assert got == reference_random_step_function(space, seed, max_pieces)


# --- norm laws -----------------------------------------------------------------


@pytest.mark.parametrize("space", SPACES, ids=["w", "w2", "ww"])
def test_norm_sandwich_fuzz(space):
    p = params(space)
    for seed in range(300):
        f = random_step_function(space, seed)
        sup = sup_on(f, space)
        norm = grasberg_norm(f, space)
        assert sup <= norm <= 2**p.b * sup


@given(st.integers(min_value=0, max_value=10**6), st.fractions())
def test_norm_homogeneous(seed, c):
    space = interval(OMEGA_SQ)
    f = random_step_function(space, seed)
    assert grasberg_norm(step_scale(f, c), space) == abs(c) * grasberg_norm(f, space)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_norm_triangle(seed_a, seed_b):
    space = interval(OMEGA_SQ)
    f = random_step_function(space, seed_a)
    g = random_step_function(space, seed_b)
    assert grasberg_norm(step_add(f, g), space) <= grasberg_norm(
        f, space
    ) + grasberg_norm(g, space)


def test_phi_monotone_in_eps():
    space = interval(OMEGA_SQ)
    for seed in range(100):
        f = random_step_function(space, seed)
        small = phi(f, space, Fraction(1, 4))
        large = phi(f, space, Fraction(3, 4))
        from ordspace.topology import contains

        for point in landmark_points(large):
            if point <= space.ambient and contains(large, point):
                assert contains(small, point)


# {0}, every point of (0, w^2+w], and the multiples of w in (w^2+w, w^2*2]:
# strata at two levels, so pieces meet atoms of different heights
MIXED_LEVELS = ClosedSet(
    mul_nat(OMEGA_SQ, 2),
    [
        Singleton(ZERO),
        Stratum(ZERO, add(OMEGA_SQ, OMEGA), ZERO),
        Stratum(add(OMEGA_SQ, OMEGA), mul_nat(OMEGA_SQ, 2), ONE),
    ],
)


@pytest.mark.lock
@pytest.mark.parametrize(
    "space", SPACES + [interval(parse("w^(3)")), MIXED_LEVELS], ids=["w", "w2", "ww", "w3", "mixed"]
)
def test_phi_integer_threshold_matches_the_fraction_rule(space):
    """reference_phi tests 2^(n+1)|v| > |f| + eps on Fractions; include its ties."""
    levels = len(level_sets(space))
    ties = 0
    for seed in range(60):
        f = ranged(random_step_function(space, seed, max_pieces=12), -3, Fraction(5, 2))
        norm = grasberg_norm(f, space)
        # eps where some |v| equals the cut / 2^(n+1) exactly, and eps around them
        tied = {2 ** (n + 1) * abs(v) - norm for v in f.values for n in range(levels)}
        tied = {eps for eps in tied if eps > 0}
        ties += len(tied)
        for eps in tied | {e + Fraction(1, 97) for e in tied} | {Fraction(seed % 7 + 1, 6)}:
            got = phi(f, space, eps)
            want = reference_phi(f, space, eps)
            assert got == want and repr(got.atoms) == repr(want.atoms)
    assert ties >= 60  # the tie case is exercised, not just possible


def assert_phi_matches_reference(f, space, eps):
    got, want = phi(f, space, eps), reference_phi(f, space, eps)
    assert got == want and repr(got.atoms) == repr(want.atoms)


@pytest.mark.lock
@given(
    closed_sets,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(7, 6), Fraction(3)]),
)
def test_phi_matches_the_every_level_reference_on_any_closed_set(space, seed, max_pieces, eps):
    """reference_phi clips each critical piece at every level; phi only at its first hot one."""
    assume(cb_index(space) > ONE)
    f = ranged(random_step_function(space, seed, max_pieces), -3, Fraction(5, 2))
    assert_phi_matches_reference(f, space, eps)


@pytest.mark.lock
def test_king_phi_and_queen_on_one_trial_build_one_critical_set(phi_builds):
    space = interval(OMEGA_SQ)
    f = random_step_function(space, 7, max_pieces=12)
    g = ranged(random_step_function(space, 8, max_pieces=12), Fraction(-1, 50), Fraction(1, 50))
    eps = Fraction(1, 3)
    king = check_king(f, space, eps)
    assert phi(f, space, "1/3") is king.phi
    check_queen(f, g, space, eps)
    assert len(phi_builds) == 1
    assert king.phi == reference_phi(f, space, eps)


@pytest.mark.lock
def test_the_phi_memo_answers_only_the_same_objects_and_eps(phi_builds):
    space = interval(OMEGA_SQ)
    f = random_step_function(space, 3, max_pieces=12)
    eps = Fraction(1, 4)
    phi(f, space, eps)
    twin = StepFunction(f.ambient, f.breakpoints, f.values)  # equal, not the same object
    other_space = ClosedSet(space.ambient, space.atoms)
    calls = [(twin, space, eps), (f, other_space, eps), (f, space, Fraction(3, 4)), (f, space, eps)]
    for k, (h, s, e) in enumerate(calls, start=2):
        assert_phi_matches_reference(h, s, e)
        assert len(phi_builds) == k


@pytest.mark.lock
def test_a_phi_call_that_raises_leaves_no_stale_answer(phi_builds):
    space, narrow = interval(OMEGA_SQ), interval(OMEGA)
    f = random_step_function(space, 5, max_pieces=12)
    g = random_step_function(narrow, 5, max_pieces=12)
    assert_phi_matches_reference(f, space, Fraction(1, 2))
    with pytest.raises(ValueError, match="eps must be positive"):
        phi(f, space, 0)
    with pytest.raises(ValueError, match="different ambient"):
        phi(f, narrow, Fraction(1, 2))
    assert_phi_matches_reference(g, narrow, Fraction(1, 2))
    with pytest.raises(ValueError, match="different ambient"):
        phi(g, space, Fraction(1, 2))
    assert_phi_matches_reference(f, space, Fraction(1, 2))
    assert len(phi_builds) == 3


def test_everything_stays_rational():
    space = interval(OMEGA_SQ)
    f = random_step_function(space, 11)
    assert all(isinstance(v, Fraction) for v in f.values)
    assert isinstance(grasberg_norm(f, space), Fraction)
    assert isinstance(sup_on(f, space), Fraction)


def one_then_value(x):
    """one_then_zero's JSON with the first piece's value replaced by x, decoded."""
    data = step_function_to_json(one_then_zero(OMEGA))
    data["pieces"][0]["value"] = x
    return step_function_from_json(data)


_W = interval(OMEGA)
# entry point -> (the argument its errors name, a call that passes x as that argument)
EXACT_INPUTS = {
    "StepFunction": ("value", lambda x: StepFunction(OMEGA, (ONE, OMEGA), (x, 0))),
    "constant": ("value", lambda x: constant(OMEGA, x)),
    "step_scale": ("c", lambda x: step_scale(one_then_zero(OMEGA), x)),
    "step_convex": ("coefficient", lambda x: step_convex([x, x], [one_then_zero(OMEGA), constant(OMEGA, 1)])),
    "phi": ("eps", lambda x: phi(one_then_zero(OMEGA), _W, x)),
    "check_king": ("eps", lambda x: check_king(one_then_zero(OMEGA), _W, x)),
    "check_queen": ("eps", lambda x: check_queen(one_then_zero(OMEGA), constant(OMEGA, 0), _W, x)),
    "extract_small_combination": ("delta", lambda x: extract_small_combination(_W, marching_indicators(_W), x)),
    "dirac_derivative": ("eps", lambda x: dirac_derivative(_W, x, ONE)),
    "step_function_from_json": ("piece value", one_then_value),
}


def outcome(call, x):
    try:
        return call(x)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("x", [0.1, True, "0.5", "1e-3", " 1/2", "+1/2", "1_0/2", "1e-999999999"])
@pytest.mark.parametrize("entry", EXACT_INPUTS)
def test_exact_inputs_refuse_floats_bools_and_other_grammars(entry, x):
    """One door (grasberg._rational) reads every exact number, and refuses the rest
    before any large integer is built."""
    what, call = EXACT_INPUTS[entry]
    kind = "a rational like 1/2"
    if entry == "step_function_from_json" and not isinstance(x, str):
        kind = 'a string like "-3/4"'  # JSON's own check, before the door
    start = time.process_time()
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be {kind}, got {x!r}')}$"):
        call(x)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("x", [2, Fraction(1, 2), "1/2", "-3/4"])
@pytest.mark.parametrize("entry", EXACT_INPUTS)
def test_exact_inputs_take_ints_fractions_and_p_over_q(entry, x):
    """An int, a Fraction or a p/q string gives what its Fraction gives, a result
    or a domain error; JSON pieces take only the string."""
    call = EXACT_INPUTS[entry][1]
    if entry == "step_function_from_json":
        want = outcome(lambda q: StepFunction(OMEGA, (from_int(5), OMEGA), (q, 0)), Fraction(x))
        x = str(x)
    else:
        want = outcome(call, Fraction(x))
    got = outcome(call, x)
    assert got == want
    assert "must be a rational" not in repr(got)


# --- JSON ----------------------------------------------------------------------


def test_step_function_json_shape():
    f = one_then_zero(OMEGA)
    data = step_function_to_json(f)
    assert set(data) == {"ambient", "pieces"}
    assert data["pieces"][0] == {"upTo": [[[], 5]], "value": "1"}


@pytest.mark.parametrize(
    "on_object, on_piece, message",
    [
        ({"colour": "red"}, {}, "step function JSON has an unknown field 'colour'"),
        ({}, {"note": 1}, "step function piece has an unknown field 'note'"),
    ],
    ids=["object", "piece"],
)
def test_step_function_json_refuses_keys_the_schema_does_not_name(on_object, on_piece, message):
    data = step_function_to_json(one_then_zero(OMEGA))
    data.update(on_object)
    data["pieces"][1].update(on_piece)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        step_function_from_json(data)


def test_step_function_json_round_trip():
    for seed in range(50):
        f = random_step_function(interval(OMEGA_SQ), seed)
        assert step_function_from_json(step_function_to_json(f)) == f


# --- behaviour lock -----------------------------------------------------------------


DIGEST_SPACES = ["w", "w*3+2", "w^(2)", "w^(2)*2+3", "w^(3)", "w^(w)", "w^(w)*2", "w^(5)"]


def grasberg_digest():
    """One sha256 over the lemma reports, phi, sup_on, argmax_on and the norm
    for 150 seeded (f, g, eps) triples on each digest space."""
    digest = hashlib.sha256()
    small = (Fraction(-1, 50), Fraction(1, 50))
    for text in DIGEST_SPACES:
        space = interval(parse(text))
        for seed in range(150):
            eps = Fraction(1, 1 + seed % 9)
            f = random_step_function(space, seed, max_pieces=12)
            g = ranged(random_step_function(space, seed + 1000, max_pieces=12), *small)
            critical = phi(f, space, eps)
            record = [
                check_king(f, space, eps).to_json(),
                check_queen(f, g, space, eps).to_json(),
                format_closed_set(critical),
                repr(critical.atoms),
                str(sup_on(g, critical)),
                repr(argmax_on(f, critical)),
                str(grasberg_norm(f, space)),
            ]
            digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.lock
def test_grasberg_digest_locked():
    assert grasberg_digest() == "6b82d36618fd3ad83f30867fe2ccc985135752b3bced48f647b7831ac62491d8"
