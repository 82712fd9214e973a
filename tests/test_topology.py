"""Tests for the closed-set algebra and Cantor-Bendixson computations."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordspace.fuzz import random_ordinal
from ordspace.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    from_int,
    last_exponent,
    leading_exponent,
    mul_nat,
    omega_pow,
    parse,
    successor,
)
from ordspace.topology import (
    ClosedSet,
    Singleton,
    Stratum,
    cb_index,
    clip_atom,
    contains,
    finite_points,
    format_closed_set,
    from_json,
    interval,
    is_empty,
    is_finite,
    iterated_derivative,
    max_stratum_exponent,
    roundup,
    stratum_nonempty,
    to_json,
    _normalize,
    _stratum_contains,
)

from conftest import (
    closed_sets,
    derivative,
    display_member,
    divide_by_omega_pow,
    landmark_points,
    omega_mul,
    ordinals,
    positive_ordinals,
    small_ordinals,
    validate,
)

TWO = from_int(2)
THREE = from_int(3)


def restriction_above_zero(z):
    """The set [1, z]: the interval with the isolated point 0 removed."""
    return ClosedSet(z, [Stratum(ZERO, z, ZERO)])


# --- interval ----------------------------------------------------------------


def test_interval_zero():
    assert interval(ZERO).atoms == (Singleton(ZERO),)


def test_interval_omega():
    assert interval(OMEGA).atoms == (Singleton(ZERO), Stratum(ZERO, OMEGA, ZERO))


def test_interval_omega_omega():
    top = omega_pow(OMEGA)
    assert interval(top).atoms == (Singleton(ZERO), Stratum(ZERO, top, ZERO))


# --- contains ----------------------------------------------------------------


def test_contains_whole_interval():
    assert contains(interval(omega_pow(TWO)), mul_nat(OMEGA, 3))


def test_contains_derivative_limit_point():
    d = derivative(interval(omega_pow(TWO)))
    assert contains(d, mul_nat(OMEGA, 3))


def test_contains_derivative_drops_isolated():
    d = derivative(interval(omega_pow(TWO)))
    assert not contains(d, from_int(5))


def test_contains_rejects_point_outside_ambient():
    with pytest.raises(ValueError):
        contains(interval(OMEGA), omega_pow(OMEGA))


# --- derivative --------------------------------------------------------------


def test_derivative_of_interval_omega():
    d = derivative(interval(OMEGA))
    assert d == ClosedSet(OMEGA, [Stratum(ZERO, OMEGA, ONE)])
    assert format_closed_set(d) == "{w}"


def test_derivative_of_restriction_is_omega_multiples():
    d = derivative(restriction_above_zero(omega_pow(TWO)))
    assert d.atoms == (Stratum(ZERO, omega_pow(TWO), ONE),)
    for k in range(1, 8):
        assert contains(d, omega_mul(ONE, from_int(k)))
        assert not contains(d, add(mul_nat(OMEGA, k), ONE))
    assert contains(d, omega_pow(TWO))


def test_derivative_of_singleton_is_empty():
    assert is_empty(derivative(ClosedSet(from_int(5), [Singleton(from_int(5))])))


# --- iterated_derivative -----------------------------------------------------


def test_iterated_derivative_limit_stage():
    top = omega_pow(OMEGA)
    got = iterated_derivative(interval(top), OMEGA)
    assert got == ClosedSet(top, [Stratum(ZERO, top, OMEGA)])
    assert finite_points(got) == (top,)


def test_iterated_derivative_zero_is_identity():
    s = interval(parse("w^(2)*2+3"))
    assert iterated_derivative(s, ZERO) == s


def test_iterated_derivative_two_steps():
    s = interval(parse("w^(2)*2+3"))
    got = iterated_derivative(s, TWO)
    assert got == derivative(derivative(s))
    assert finite_points(got) == (omega_pow(TWO), parse("w^(2)*2"))


@given(closed_sets)
def test_iterated_derivative_one_is_derivative(s):
    assert iterated_derivative(s, ONE) == derivative(s)


@given(closed_sets, small_ordinals, small_ordinals)
def test_iterated_derivative_adds_up(s, a, b):
    assert iterated_derivative(s, add(a, b)) == iterated_derivative(
        iterated_derivative(s, a), b
    )


# --- roundup -----------------------------------------------------------------


def test_roundup_examples():
    assert roundup(ZERO, ONE) == OMEGA
    assert roundup(parse("w*3+5"), ONE) == parse("w*4")
    assert roundup(omega_pow(TWO), TWO) == parse("w^(2)*2")


@given(ordinals, small_ordinals)
def test_roundup_certificate(lo, nu):
    up = roundup(lo, nu)
    assert up > lo
    _, remainder = divide_by_omega_pow(up, nu)
    assert remainder == ZERO
    # minimality: the previous multiple is not above lo
    quotient, _ = divide_by_omega_pow(up, nu)
    assert quotient > ZERO
    # recompose oracle: rounding lo's own quotient up by one step gives up
    lo_q, lo_r = divide_by_omega_pow(lo, nu)
    expected = omega_mul(nu, add(lo_q, ONE))
    assert up == expected


# exponents up to w^(2)+3, so that levels w, w+1 and w^(2) fall inside, between and at terms
DEEP_BOUND = parse("w^(w^(2)+3)*3+w^(w^(2))*2+w^(w+1)*2+w^(w)+w*5+7")
DEEP_LEVELS = [parse(text) for text in ("0", "1", "w", "w+1", "w^(2)")]


def reference_roundup(lo, nu):
    """roundup as first written: w^nu * (q + 1), with lo = w^nu * q + r."""
    quotient, _ = divide_by_omega_pow(lo, nu)
    return omega_mul(nu, add(quotient, ONE))


def test_roundup_and_stratum_membership_match_the_division_reference():
    rng = random.Random(2026)
    outcomes = set()
    for _ in range(2000):
        lo, hi, g = (random_ordinal(rng, DEEP_BOUND) for _ in range(3))
        for nu in DEEP_LEVELS:
            up = roundup(lo, nu)
            again = roundup(up, nu)  # from a multiple: its last exponent is nu or above
            assert (up, again) == (reference_roundup(lo, nu), reference_roundup(up, nu))
            assert type(up) is type(again) is Ordinal
            validate(up)
            validate(again)
            if lo < hi:
                s = Stratum(lo, hi, nu)
                for point in (g, up, add(up, omega_pow(nu)), add(up, ONE)):
                    member = lo < point <= hi and divide_by_omega_pow(point, nu)[1] == ZERO
                    assert _stratum_contains(s, point) == member
                    outcomes.add(member)
    assert outcomes == {False, True}


# --- max_stratum_exponent / is_empty ------------------------------------------


@given(positive_ordinals)
def test_max_stratum_exponent_from_zero(z):
    assert max_stratum_exponent(ZERO, z) == leading_exponent(z)


def test_max_stratum_exponent_window():
    lo = omega_pow(TWO)
    hi = add(lo, mul_nat(OMEGA, 5))
    nu = max_stratum_exponent(lo, hi)
    assert nu == ONE
    assert roundup(lo, nu) <= hi
    assert roundup(lo, successor(nu)) > hi


@given(ordinals, positive_ordinals)
def test_max_stratum_exponent_certificate(lo, width):
    hi = add(lo, width)
    nu = max_stratum_exponent(lo, hi)
    assert roundup(lo, nu) <= hi
    assert roundup(lo, successor(nu)) > hi


@st.composite
def stratum_windows(draw):
    """(lo, hi, mu) with lo < hi: lo a proper prefix of hi, lo and hi with equal
    leading terms (p + a < p + b), or any two ordinals; mu at or just above an
    exponent of hi, 0, or any small ordinal."""
    shape = draw(st.sampled_from(("prefix", "shared", "any")))
    if shape == "prefix":
        hi = draw(positive_ordinals)
        lo = Ordinal(hi[: draw(st.integers(min_value=0, max_value=len(hi) - 1))])
    else:
        head = draw(ordinals) if shape == "shared" else ZERO
        a, b = sorted(draw(st.lists(ordinals, min_size=2, max_size=2, unique=True)))
        lo, hi = add(head, a), add(head, b)
    exponent = draw(st.sampled_from([e for e, _ in hi]))
    mu = draw(st.sampled_from((exponent, successor(exponent), ZERO)) | small_ordinals)
    return lo, hi, mu


@settings(max_examples=300)
@given(stratum_windows())
def test_stratum_nonempty_matches_roundup(window):
    """The window rule, read where lo and hi first differ, against the earlier
    test that builds the least multiple of w^mu above lo."""
    lo, hi, mu = window
    assert stratum_nonempty(lo, hi, mu) == (roundup(lo, mu) <= hi)
    assert not stratum_nonempty(hi, lo, mu) and not stratum_nonempty(hi, hi, mu)


def test_clip_atom_to_piece():
    five, nine = from_int(5), from_int(9)
    single = Singleton(five)
    assert clip_atom(single, None, five) == single
    assert clip_atom(single, from_int(4), OMEGA, least=True) == five
    assert clip_atom(single, five, OMEGA) is None
    assert clip_atom(single, None, from_int(4), least=True) is None
    multiples = Stratum(ZERO, mul_nat(OMEGA, 3), ONE)  # w, w*2, w*3
    assert clip_atom(multiples, five, nine) == Stratum(five, nine, ONE)  # a window without points
    assert clip_atom(multiples, five, nine, least=True) is None
    assert clip_atom(multiples, five, mul_nat(OMEGA, 2), least=True) == OMEGA
    assert clip_atom(multiples, OMEGA, OMEGA) is None
    assert clip_atom(multiples, None, parse("w^(2)")) == multiples


def test_empty_stratum_is_normalized_away():
    s = ClosedSet(parse("w+5"), [Stratum(OMEGA, parse("w+5"), ONE)])
    assert is_empty(s)
    assert s.atoms == ()


# --- cb_index ----------------------------------------------------------------


def test_cb_examples():
    assert cb_index(interval(OMEGA)) == TWO
    assert cb_index(interval(omega_pow(OMEGA))) == parse("w+1")
    s = interval(parse("w^(2)*3+5"))
    assert cb_index(s) == THREE
    twice = derivative(derivative(s))
    assert finite_points(twice) == (
        omega_pow(TWO),
        parse("w^(2)*2"),
        parse("w^(2)*3"),
    )
    assert is_empty(derivative(twice))


def test_cb_of_empty_is_zero():
    assert cb_index(ClosedSet(OMEGA, [])) == ZERO


@given(positive_ordinals)
def test_cb_closed_form(z):
    assert cb_index(interval(z)) == successor(leading_exponent(z))


@given(positive_ordinals, small_ordinals)
def test_cb_is_least_emptying_exponent(z, xi):
    s = interval(z)
    cb = cb_index(s)
    assert is_empty(iterated_derivative(s, cb))
    if xi < cb:
        assert not is_empty(iterated_derivative(s, xi))


@given(positive_ordinals, small_ordinals)
def test_cb_never_limit_after_derivatives(z, xi):
    s = iterated_derivative(interval(z), xi)
    if not is_empty(s):
        cb = cb_index(s)
        assert last_exponent(cb) == ZERO  # a successor ordinal


@given(closed_sets, st.integers(min_value=0, max_value=6))
def test_cb_monotone_under_atom_subsets(s, mask):
    kept = [atom for i, atom in enumerate(s.atoms) if mask & (1 << i)]
    sub = ClosedSet(s.ambient, kept)
    assert cb_index(sub) <= cb_index(s)


# --- derivative membership coherence -------------------------------------------


@given(closed_sets)
def test_derivative_membership_coherence(s):
    d = derivative(s)
    probe = random.Random(2024)
    points = landmark_points(d) + landmark_points(s)
    for gamma in points:
        if gamma > s.ambient:
            continue
        expected = False
        for atom in s.atoms:
            if isinstance(atom, Stratum):
                if atom.lo < gamma <= atom.hi:
                    _, rem = divide_by_omega_pow(gamma, successor(atom.mu))
                    if rem == ZERO and not gamma.is_zero():
                        expected = True
        assert contains(d, gamma) == expected


# --- display check (small version; the acceptance suite runs the full sweep) ---


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_display_membership_sample(alpha, beta):
    from ordspace.fuzz import random_ordinal

    alpha_o, beta_o = from_int(alpha), from_int(beta)
    top = omega_pow(alpha_o)
    derived = iterated_derivative(restriction_above_zero(top), beta_o)
    rng = random.Random(alpha * 10 + beta)
    points = [top, ZERO, ONE] + [random_ordinal(rng, top) for _ in range(200)]
    for gamma in points:
        assert contains(derived, gamma) == display_member(gamma, alpha_o, beta_o)


# --- normalization -----------------------------------------------------------


def test_one_point_stratum_becomes_singleton():
    s = ClosedSet(OMEGA, [Stratum(ZERO, OMEGA, ONE)])
    assert finite_points(s) == (OMEGA,)


def test_same_window_strata_keep_minimal_mu():
    coarse = Stratum(ZERO, omega_pow(TWO), TWO)
    fine = Stratum(ZERO, omega_pow(TWO), ZERO)
    s = ClosedSet(omega_pow(TWO), [coarse, fine])
    assert s.atoms == (fine,)


def test_covered_singleton_dropped():
    s = ClosedSet(OMEGA, [Singleton(from_int(3)), Stratum(ZERO, OMEGA, ZERO)])
    assert s.atoms == (Stratum(ZERO, OMEGA, ZERO),)


def test_stratum_requires_lo_below_hi():
    with pytest.raises(ValueError):
        Stratum(OMEGA, OMEGA, ZERO)


def test_atoms_must_fit_ambient():
    with pytest.raises(ValueError):
        ClosedSet(ONE, [Singleton(OMEGA)])


def reference_normalize(ambient, atoms):
    """The earlier normalization: a merge that restarts after every merge, then
    an all-pairs cover scan.  Kept as the reference the sort-and-sweep must match."""

    def sort_key(atom):
        if isinstance(atom, Singleton):
            return (atom.point, atom.point, ZERO, 0)
        return (atom.lo, atom.hi, atom.mu, 1)

    def stratum_contains(s, g):
        if compare(g, s.lo) <= 0 or compare(g, s.hi) > 0:
            return False
        return divide_by_omega_pow(g, s.mu)[1].is_zero()

    singles = set()
    strata = []
    for atom in atoms:
        if isinstance(atom, Singleton):
            singles.add(atom.point)
        elif roundup(atom.lo, atom.mu) <= atom.hi:  # the earlier emptiness test
            strata.append(atom)

    changed = True
    while changed:
        changed = False
        for i in range(len(strata)):
            for j in range(i + 1, len(strata)):
                a, b = strata[i], strata[j]
                if a.mu != b.mu:
                    continue
                if compare(a.hi, b.lo) < 0 or compare(b.hi, a.lo) < 0:
                    continue
                lo = a.lo if compare(a.lo, b.lo) <= 0 else b.lo
                hi = a.hi if compare(a.hi, b.hi) >= 0 else b.hi
                strata[i] = Stratum(lo, hi, a.mu)
                del strata[j]
                changed = True
                break
            if changed:
                break

    kept = []
    for i, s in enumerate(strata):
        covered = any(
            k != i
            and compare(o.lo, s.lo) <= 0
            and compare(s.hi, o.hi) <= 0
            and compare(o.mu, s.mu) <= 0
            and not (o.lo == s.lo and o.hi == s.hi and o.mu == s.mu and k > i)
            for k, o in enumerate(strata)
            if k != i
        )
        if not covered:
            kept.append(s)

    final_strata = []
    for s in kept:
        first = roundup(s.lo, s.mu)
        if compare(add(first, omega_pow(s.mu)), s.hi) > 0:
            singles.add(first)
        else:
            final_strata.append(s)

    points = [p for p in singles if not any(stratum_contains(s, p) for s in final_strata)]
    result = [Singleton(p) for p in points]
    result.extend(final_strata)
    result.sort(key=sort_key)
    return tuple(result)


# Window endpoints from a small pool, so that drawn windows overlap, abut and
# nest; levels 0, 1, 2 and w; singletons on the pool and off it (3, w+7,
# w*2+5), some inside strata and some outside.
ENDPOINTS = [
    parse(t)
    for t in (
        "0", "1", "2", "5", "w", "w+1", "w+2", "w*2", "w*2+1", "w*3",
        "w^(2)", "w^(2)+w", "w^(2)*2", "w^(2)*2+w", "w^(w)",
    )
]
LEVELS = [ZERO, ONE, TWO, OMEGA]
POOL_AMBIENT = ENDPOINTS[-1]
POINTS = ENDPOINTS + [parse(t) for t in ("3", "w+7", "w*2+5")]


@st.composite
def pooled_stratum(draw):
    indices = st.integers(min_value=0, max_value=len(ENDPOINTS) - 1)
    i, j = sorted(draw(st.lists(indices, min_size=2, max_size=2, unique=True)))
    return Stratum(ENDPOINTS[i], ENDPOINTS[j], draw(st.sampled_from(LEVELS)))


raw_atom_lists = st.lists(
    st.one_of(pooled_stratum(), st.sampled_from(POINTS).map(Singleton)),
    max_size=12,
)


@settings(max_examples=500)
@given(raw_atom_lists)
def test_normalize_matches_reference(atoms):
    assert ClosedSet(POOL_AMBIENT, atoms).atoms == reference_normalize(POOL_AMBIENT, atoms)


@given(raw_atom_lists, st.data())
def test_normalize_ignores_input_order(atoms, data):
    shuffled = data.draw(st.permutations(atoms))
    assert ClosedSet(POOL_AMBIENT, shuffled).atoms == ClosedSet(POOL_AMBIENT, atoms).atoms


def normalized_or_error(ambient, atoms):
    try:
        return _normalize(ambient, atoms)
    except ValueError as exc:
        return str(exc)


@pytest.mark.lock
@settings(max_examples=300)
@given(
    st.sampled_from(ENDPOINTS),
    st.sampled_from(ENDPOINTS),
    st.sampled_from(ENDPOINTS),
    st.sampled_from(LEVELS),
)
def test_one_stratum_takes_the_general_normal_form(ambient, lo, hi, mu):
    """The one-stratum fast path against the general sweeps (a doubled stratum, a
    generator): the same tuple, or the same ValueError for a window that is not
    lo < hi (forged past the constructor) or leaves [0, ambient]."""
    s = tuple.__new__(Stratum, (lo, hi, mu))
    fast = normalized_or_error(ambient, [s])
    assert fast == normalized_or_error(ambient, (s,))
    assert fast == normalized_or_error(ambient, [s, s]) == normalized_or_error(ambient, iter([s]))
    if lo < hi <= ambient:
        assert fast == reference_normalize(ambient, [s])
        assert all(type(atom) in (Singleton, Stratum) for atom in fast)


@pytest.mark.lock
@settings(max_examples=300)
@given(st.one_of(closed_sets, raw_atom_lists.map(lambda atoms: ClosedSet(POOL_AMBIENT, atoms))))
def test_is_finite_is_cb_index_at_most_one(s):
    assert is_finite(s) == (cb_index(s) <= ONE)
    assert (finite_points(s) is None) == (not is_finite(s))


@settings(max_examples=300)
@given(st.one_of(closed_sets, raw_atom_lists.map(lambda atoms: ClosedSet(POOL_AMBIENT, atoms))))
def test_is_finite_matches_roundup(s):
    """is_finite against the earlier test: a stratum is infinite when the least
    multiple of w^(mu+1) above lo is at most hi."""
    strata = [a for a in s.atoms if isinstance(a, Stratum)]
    assert is_finite(s) == (not any(roundup(a.lo, add(a.mu, ONE)) <= a.hi for a in strata))


@given(raw_atom_lists)
def test_normalize_is_idempotent(atoms):
    s = ClosedSet(POOL_AMBIENT, atoms)
    assert ClosedSet(s.ambient, s.atoms).atoms == s.atoms


# --- JSON --------------------------------------------------------------------


def test_json_shape():
    data = to_json(interval(OMEGA))
    assert set(data) == {"ambient", "atoms"}
    assert data["atoms"][0] == {"singleton": []}
    assert set(data["atoms"][1]) == {"lo", "hi", "mu"}


@given(closed_sets)
def test_json_round_trip(s):
    assert from_json(to_json(s)) == s


W_JSON = [[[[[], 1]], 1]]


@pytest.mark.parametrize(
    "data, field",
    [
        ({}, "atoms"),
        ({"atoms": []}, "ambient"),
        ({"ambient": [], "atoms": [{"lo": []}]}, "hi"),
        ({"ambient": [], "atoms": 5}, "atoms"),
        ({"ambient": [], "atoms": [7]}, "atoms: expected an object"),
        ([], "object"),
        ({"ambient": [], "atoms": [], "colour": 1}, "^closed set JSON has an unknown field 'colour'$"),
        ({"ambient": [], "atoms": [{"singleton": [], "note": 1}]}, "^closed set singleton atom has an unknown field 'note'$"),
        ({"ambient": W_JSON, "atoms": [{"lo": [], "hi": W_JSON, "mu": [], "mu2": []}]}, "^closed set atom has an unknown field 'mu2'$"),
        ({"ambient": [], "atoms": [{"singleton": [], "lo": []}]}, "^closed set singleton atom has an unknown field 'lo'$"),
        ({"ambient": W_JSON, "atoms": [{"singleton": [], "lo": [], "hi": W_JSON, "mu": []}]}, "^closed set singleton atom has an unknown field 'lo'$"),
    ],
)
def test_json_decoder_names_the_malformed_field(data, field):
    with pytest.raises(ValueError, match=field):
        from_json(data)


def test_copy_and_pickle_rebuild_through_the_normalizing_constructor():
    # round trips: tests/test_trees.py::test_immutable_types_copy_and_pickle
    forged = tuple.__new__(ClosedSet, (ONE, (Singleton(OMEGA),)))  # a point outside [0, 1]
    with pytest.raises(ValueError):
        copy.copy(forged)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged, protocol))
    atoms = (Singleton(from_int(3)), Stratum(OMEGA, parse("w^(2)"), ONE))
    valid = ClosedSet(parse("w^(2)+5"), atoms)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(valid, protocol))
        assert back == valid and type(back) is ClosedSet and type(back.atoms[0]) is Singleton
