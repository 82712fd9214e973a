"""Tests for the index formulas, Dirac derivations, and the extraction recursion."""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordspace.extract
import ordspace.fuzz
import ordspace.grasberg
import ordspace.szlenk
import ordspace.topology
import ordspace.trees
from ordspace.extract import (
    CertificateError,
    ExtractionCertificate,
    FamilyContractError,
    WeaklyNullFamily,
    _leaves_unit_ball,
    _small_on,
    extract_small_combination,
    family_from_table,
    marching_indicators,
)
from ordspace.fuzz import random_ordinal, random_step_function
from ordspace.grasberg import (
    StepFunction,
    _phi,
    constant,
    grasberg_norm,
    indicator,
    level_sets,
    params,
    phi,
    step_add,
    step_function_to_json,
    step_scale,
    sup_on,
    value_at,
)
from ordspace.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    add,
    compare,
    from_int,
    mul_nat,
    omega_pow,
    parse,
    predecessor,
    successor,
    tower_index,
)
from ordspace.topology import (
    ClosedSet,
    Stratum,
    cb_index,
    contains,
    finite_points,
    interval,
    is_empty,
    is_finite,
    iterated_derivative,
)
from ordspace.szlenk import SzlenkResult, dirac_derivative, index_of_CK, index_of_interval

from conftest import closed_sets, ordinals, small_ordinals, zero_family

TWO = from_int(2)
THREE = from_int(3)


# --- index_of_CK ---------------------------------------------------------------


def test_index_finite_space():
    result = index_of_CK(interval(from_int(5)))
    assert result.index == ONE
    assert result.exponent == ZERO
    assert result.cb == ONE


def test_index_omega():
    result = index_of_CK(interval(OMEGA))
    assert result.index == OMEGA
    assert result.exponent == ONE
    assert result.cb == TWO


def test_index_omega_omega():
    result = index_of_CK(interval(omega_pow(OMEGA)))
    assert result.index == omega_pow(TWO)
    assert result.exponent == TWO
    assert result.cb == parse("w+1")


def test_index_rejects_empty_space():
    with pytest.raises(ValueError):
        index_of_CK(ClosedSet(OMEGA, []))


@given(closed_sets)
def test_index_shape_and_minimality(space):
    if is_empty(space):
        return
    result = index_of_CK(space)
    assert result.index == omega_pow(result.exponent)
    # minimality certificate for the exponent
    assert result.cb <= omega_pow(result.exponent)
    if not result.exponent.is_zero():
        below = predecessor(result.exponent) if result.exponent.terms[-1][0].is_zero() else None
        if below is not None:
            assert result.cb > omega_pow(below)


@given(closed_sets)
def test_index_dominates_cb(space):
    if is_empty(space):
        return
    result = index_of_CK(space)
    assert compare(result.index, result.cb) >= 0


def test_exponent_minimal_against_compare_loop():
    for text in ["w", "w^(2)*3+5", "w^(w)", "w^(w)*5+w", "w^(w^(2))", "w^(w*2+1)*2"]:
        space = interval(parse(text))
        result = index_of_CK(space)
        cb = cb_index(space)
        # walk candidate exponents upward; the first that dominates cb must match
        candidates = [ZERO, ONE, TWO, THREE, OMEGA, add(OMEGA, ONE), add(OMEGA, TWO),
                      mul_nat(OMEGA, 2), omega_pow(TWO), omega_pow(THREE)]
        winner = None
        for xi in candidates:
            if compare(cb, omega_pow(xi)) <= 0:
                winner = xi
                break
        assert winner == result.exponent


# --- index_of_interval ----------------------------------------------------------


def test_interval_index_omega():
    result = index_of_interval(OMEGA)
    assert result.index == OMEGA
    assert tower_index(OMEGA) == ZERO


def test_interval_index_tower_two():
    z = omega_pow(parse("w^(2)*3"))
    result = index_of_interval(z)
    assert result.index == omega_pow(THREE)
    assert omega_pow(omega_pow(TWO)) <= z < omega_pow(omega_pow(THREE))


def test_interval_index_agrees_with_direct_computation():
    z = parse("w^(w)*5+w")
    result = index_of_interval(z)
    assert result.index == omega_pow(TWO)
    direct = index_of_CK(interval(z))
    assert (result.index, result.exponent, result.cb) == (
        direct.index,
        direct.exponent,
        direct.cb,
    )


def test_interval_index_rejects_finite():
    with pytest.raises(ValueError):
        index_of_interval(from_int(7))


@given(ordinals)
def test_interval_index_agreement_fuzz(z):
    if z < OMEGA:
        return
    via_tower = index_of_interval(z)
    via_cb = index_of_CK(interval(z))
    assert via_tower.index == via_cb.index
    assert via_tower.index == omega_pow(successor(tower_index(z)))


def test_result_json_fields():
    data = index_of_CK(interval(OMEGA)).to_json()
    assert data["indexText"] == "w"
    assert data["cbText"] == "2"


def test_result_survives_pickle_and_keeps_its_json():
    result = index_of_CK(interval(omega_pow(OMEGA)))
    again = pickle.loads(pickle.dumps(result))
    assert type(again) is SzlenkResult and again == result
    assert again.to_json() == {
        "index": [[[[[], 2]], 1]],
        "exponent": [[[], 2]],
        "cb": [[[[[], 1]], 1], [[], 1]],
        "indexText": "w^(2)",
        "cbText": "w+1",
    }


# --- dirac_derivative -----------------------------------------------------------


def test_dirac_matches_cb_derivative():
    got = dirac_derivative(interval(OMEGA), Fraction(1), ONE)
    assert got == iterated_derivative(interval(OMEGA), ONE)
    assert contains(got, OMEGA)


def test_dirac_empties_at_two():
    assert is_empty(dirac_derivative(interval(OMEGA), Fraction(2), ONE))


def test_dirac_zeroth_is_identity():
    space = interval(parse("w^(2)+3"))
    assert dirac_derivative(space, Fraction(1), ZERO) == space


def test_dirac_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        dirac_derivative(interval(OMEGA), Fraction(0), ONE)


@given(closed_sets, small_ordinals)
def test_dirac_equivalence_fuzz(space, xi):
    reference = iterated_derivative(space, xi)
    for eps in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        got = dirac_derivative(space, eps, xi)
        assert got == reference
    if not xi.is_zero():
        assert is_empty(dirac_derivative(space, Fraction(2), xi))


# --- extraction ------------------------------------------------------------------


def test_extraction_on_omega():
    space = interval(OMEGA)
    cert = extract_small_combination(space, marching_indicators(space), Fraction(1, 2))
    assert cert.n == 17  # least n with n/2 > 2^3
    assert cert.eps == Fraction(1, 34)
    assert len(cert.branch) == 17
    assert len(cert.blocks) == 17
    assert cert.final_norm < Fraction(1, 2)
    assert cert.final_norm == grasberg_norm(cert.final, space)
    for m, norm in enumerate(cert.stage_norms, start=1):
        assert norm <= (1 + cert.eps) ** (m - 1)
    # the branch is a strictly extending path
    for first, second in zip(cert.branch, cert.branch[1:]):
        assert second[: len(first)] == first
        assert len(second) == len(first) + 1
    assert cert.verify(space)


def test_extraction_minimal_n():
    space = interval(OMEGA)
    for delta in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
        cert = extract_small_combination(space, marching_indicators(space), delta)
        b = params(space).b
        assert cert.n * delta > 2 ** (2 + b)
        assert (cert.n - 1) * delta <= 2 ** (2 + b)


def test_extraction_zero_family():
    space = interval(OMEGA)
    cert = extract_small_combination(space, zero_family(space), Fraction(1, 2))
    assert cert.final_norm == 0
    assert cert.verify(space)


def test_extraction_rejects_tall_spaces():
    space = interval(omega_pow(OMEGA))
    with pytest.raises(ValueError) as info:
        extract_small_combination(space, zero_family(space), Fraction(1, 2))
    assert "o = 1" in str(info.value)


@pytest.mark.parametrize("limit", [-1, True, 2.5], ids=["negative", "bool", "float"])
def test_extraction_refuses_a_search_limit_that_is_not_a_natural(limit):
    space = interval(OMEGA)
    family = marching_indicators(space)._replace(search_limit=limit)
    with pytest.raises(ValueError) as info:
        extract_small_combination(space, family, Fraction(1, 2))
    assert info.type is ValueError
    assert str(info.value) == f"search_limit must be an integer >= 0, got {limit!r}"


def test_extraction_rejects_negative_probe_budget():
    # The budget is checked once, where extraction starts: no family member
    # is asked for before a negative search_limit is refused.
    space = interval(OMEGA)

    def never(path):
        raise AssertionError(f"family member {path} asked for")

    family = WeaklyNullFamily(space=space, at=never, search_limit=-1)
    with pytest.raises(ValueError, match=r"^search_limit must be an integer >= 0, got -1$"):
        extract_small_combination(space, family, Fraction(1, 2))


def test_a_zero_search_limit_gives_no_witness():
    space = interval(OMEGA)
    with pytest.raises(FamilyContractError) as info:
        extract_small_combination(space, marching_indicators(space)._replace(search_limit=0), Fraction(1, 2))
    assert (info.value.path, info.value.point) == ((), None)
    assert str(info.value).endswith("within 0 probes")


@pytest.mark.parametrize("limit", [None, 10])
def test_max_probes_caps_every_search(monkeypatch, limit):
    space = interval(OMEGA)
    stubborn = WeaklyNullFamily(space=space, at=lambda path: constant(OMEGA, 1), search_limit=limit)
    monkeypatch.setattr(ordspace.extract, "MAX_PROBES", 3)
    with pytest.raises(FamilyContractError, match="within 3 probes$"):
        extract_small_combination(space, stubborn, Fraction(1, 2))


def test_extraction_contract_violation():
    space = interval(OMEGA)
    stubborn = WeaklyNullFamily(
        space=space,
        at=lambda path: constant(OMEGA, 1),
        search_limit=50,
    )
    with pytest.raises(FamilyContractError) as info:
        extract_small_combination(space, stubborn, Fraction(1, 2))
    err = info.value
    assert err.path
    assert err.point is not None


def test_extraction_budget_witness_is_first_largest_critical_point():
    # Stage 1 picks the table entry, the indicator of [0, 3]; its critical set
    # at stage 2 is {0, 1, 2, 3}.  Every stage-2 child is the default, which
    # is 1/10 on [0, 1] and 1 on (1, 3], so the witness is 2, not 0.
    space = interval(OMEGA)
    first = indicator(OMEGA, ZERO, THREE)
    default = StepFunction(OMEGA, (ONE, THREE, OMEGA), (Fraction(1, 10), Fraction(1), Fraction(0)))
    table = {
        "cutoff": 5,
        "entries": [{"path": [0], "fn": step_function_to_json(first)}],
        "default": step_function_to_json(default),
    }
    with pytest.raises(FamilyContractError) as info:
        extract_small_combination(space, family_from_table(space, table), Fraction(1, 2))
    err = info.value
    assert err.path == (0,)
    # reference: list the critical set and take the first point where
    # |default| is largest
    critical = phi(step_scale(first, Fraction(1, 4)), space, Fraction(1, 34))
    points = finite_points(critical)
    expected = max(points, key=lambda q: abs(value_at(default, q)))
    assert points == (ZERO, ONE, TWO, THREE)
    assert expected == TWO != points[0]
    assert err.point == expected


@pytest.mark.parametrize("cut, exceeds", [(5, False), (6, True)])
def test_extraction_checks_the_unit_ball_on_the_space_only(cut, exceeds):
    # The space is {6, 7, ..., w}.  Every child is 3 on [0, cut] and 0 after
    # it, so it leaves the unit ball only when the cut reaches the space.
    space = ClosedSet(OMEGA, [Stratum(from_int(5), OMEGA, ZERO)])
    default = StepFunction(OMEGA, (from_int(cut), OMEGA), (Fraction(3), Fraction(0)))
    family = family_from_table(space, {"cutoff": 5, "default": step_function_to_json(default)})
    if exceeds:
        with pytest.raises(FamilyContractError, match=r"node \[0\]: function exceeds the unit ball"):
            extract_small_combination(space, family, Fraction(1, 2))
    else:
        cert = extract_small_combination(space, family, Fraction(1, 2))
        assert cert.blocks == (default,) * cert.n and cert.final_norm == 0


OVER = 1 + Fraction(1, 10**40)
# (value on the space, value off it, leaves the ball, needs the whole-space sup)
UNIT_BALL_BOUNDARY = [
    (Fraction(1), 0, False, False),
    (Fraction(-1), 0, False, False),
    (OVER, 0, True, True),
    (-OVER, 0, True, True),
    (Fraction(-999, 1000), 0, False, False),
    (Fraction(1), 3, False, True),
    (Fraction(-999, 1000), -OVER, False, True),
]


@pytest.mark.parametrize("value, outside, leaves, needs_sup", UNIT_BALL_BOUNDARY)
def test_unit_ball_boundary(monkeypatch, value, outside, leaves, needs_sup):
    # The space is {5, 6, ..., w}.  The child at [0] is outside on [0, 4] and
    # value on {6}, 0 elsewhere; every other child is zero.  |value| = 1 stays
    # in the ball, and only a |value| > 1 anywhere asks for the sup over the
    # whole space.
    space = ClosedSet(OMEGA, [Stratum(from_int(4), OMEGA, ZERO)])
    block = StepFunction(OMEGA, (from_int(4), from_int(5), from_int(6), OMEGA), (outside, 0, value, 0))
    family = family_from_table(
        space, {"cutoff": 5, "entries": [{"path": [0], "fn": step_function_to_json(block)}]}
    )
    whole_space_sups = []

    def recording_sup_on(f, subset):
        if subset == space:
            whole_space_sups.append(f)
        return sup_on(f, subset)

    monkeypatch.setattr(ordspace.extract, "sup_on", recording_sup_on)
    if leaves:
        with pytest.raises(FamilyContractError, match=r"node \[0\]: function exceeds the unit ball"):
            extract_small_combination(space, family, Fraction(1, 2))
    else:
        cert = extract_small_combination(space, family, Fraction(1, 2))
        assert cert.blocks[0] == block
    assert set(whole_space_sups) == ({block} if needs_sup else set())
    if not leaves:
        assert cert.verify(space)


@pytest.mark.parametrize("text", ["w", "w*3+2", "w^(2)*2+w", "w^(3)"])
def test_integer_decisions_match_the_fraction_rules(text):
    """_small_on is sup_on(f, critical) < threshold and _leaves_unit_ball is
    sup_on(f, space) > 1, ties at the threshold and values of exactly +-1 included."""
    space = interval(parse(text))
    ties = unit_values = leaves = 0
    for seed in range(40):
        f = step_scale(random_step_function(space, 2 * seed, max_pieces=10), 1 + seed % 2)
        g = random_step_function(space, 2 * seed + 1, max_pieces=10)
        criticals = [phi(g, space, Fraction(seed % 5 + 1, 4)), *level_sets(space), ClosedSet(space.ambient, ())]
        unit_values += sum(abs(v) == 1 for v in f.values)
        for critical in criticals:
            sup = sup_on(f, critical)
            ties += sup > 0
            for threshold in {sup, sup + Fraction(1, 97), sup - Fraction(1, 97), Fraction(1, 2 ** (seed % 9))}:
                if threshold > 0:
                    assert _small_on(f, critical, threshold) == (sup < threshold)
            assert _leaves_unit_ball(f, critical) == (sup > 1)
            leaves += sup > 1
    assert ties >= 40 and unit_values >= 40 and leaves >= 10  # each case is exercised


def test_extraction_never_lists_the_critical_set(monkeypatch):
    def refuse(space):
        raise AssertionError("finite_points called during extraction")

    for module in (
        ordspace.topology,
        ordspace.grasberg,
        ordspace.szlenk,
        ordspace.trees,
        ordspace.extract,
        ordspace.fuzz,
    ):
        monkeypatch.setattr(module, "finite_points", refuse, raising=False)
    for text, delta in (("w", "1/2"), ("w^(2)*2", "1/2")):
        space = interval(parse(text))
        cert = extract_small_combination(space, marching_indicators(space), Fraction(delta))
        assert cert.verify(space)


LADDER_STEPS = ["1", "2", "w", "w+1", "w^(2)*3"]
PROBE_LIMIT = 96  # the reference loop's budget; the cases below find their child well inside it


def first_small_by_probing(family, path, critical, threshold, budget):
    """The generic probe loop's answer: the first k < budget whose child is small."""
    return next(
        (k for k in range(budget) if _small_on(family.at(path + (k,)), critical, threshold)),
        None,
    )


def assert_first_small_agrees(family, path, critical, threshold):
    """first_small matches the probe loop at PROBE_LIMIT, and at budgets 0, k and k + 1."""
    k = first_small_by_probing(family, path, critical, threshold, PROBE_LIMIT)
    assert family.first_small(path, critical, threshold, PROBE_LIMIT) == k
    assert family.first_small(path, critical, threshold, 0) is None
    if k is not None:
        assert family.first_small(path, critical, threshold, k) is None
        assert family.first_small(path, critical, threshold, k + 1) == k
    return k


@pytest.mark.parametrize("ladder", LADDER_STEPS)
def test_first_small_agrees_with_the_probe_loop(ladder):
    """On the critical sets of real stages, and on phi of random step functions,
    at the stage threshold, at exactly 1 (an indicator is never below it) and above 1."""
    rng = random.Random(LADDER_STEPS.index(ladder))
    texts = ["w", "w*3+500", "w^(2)+w*5", "w^(3)", "w+10000"]
    spaces = [interval(parse(text)) for text in texts]
    spaces += [interval(add(OMEGA, random_ordinal(rng, parse("w^(3)*3+20")))) for _ in range(4)]
    found = []
    for space in spaces:
        family = marching_indicators(space, step=parse(ladder))
        stages = []

        def recording(path, critical, threshold, budget):
            stages.append((path, critical, threshold))
            return family.first_small(path, critical, threshold, budget)

        extract_small_combination(space, family._replace(first_small=recording), Fraction(1))
        for seed in range(6):
            f = random_step_function(space, rng.randrange(10**6), max_pieces=8)
            stages.append(((seed,), phi(f, space, Fraction(seed % 3 + 1, 8)), Fraction(1, 130)))
        for path, critical, threshold in stages:
            found.append(assert_first_small_agrees(family, path, critical, threshold))
        path, critical, _ = stages[-1]
        assert assert_first_small_agrees(family, path, critical, Fraction(1)) == found[-1]
        assert assert_first_small_agrees(family, path, critical, Fraction(3, 2)) == 0
    # both kinds of answer are exercised: child 0 and a later child
    assert 0 in found and any(k is not None and k > 0 for k in found)


@given(st.sampled_from(LADDER_STEPS), closed_sets)
def test_first_small_agrees_with_the_probe_loop_on_any_closed_set(ladder, critical):
    family = marching_indicators(interval(critical.ambient), step=parse(ladder))
    assert_first_small_agrees(family, (), critical, Fraction(1, 130))


def black_box(family):
    """The same children and budget behind a bare at, so extraction falls back to probing."""
    return WeaklyNullFamily(space=family.space, at=family.at, search_limit=family.search_limit)


@pytest.mark.parametrize(
    "text, ladder, delta",
    [("w", "1", "1/2"), ("w^(2)*2", "w+1", "1/2"), ("w*3+500", "2", "1/4"), ("w+10000", "100", "1/2")],
)
def test_first_small_gives_the_probe_loops_certificate_and_errors(text, ladder, delta):
    space = interval(parse(text))
    family = marching_indicators(space, step=parse(ladder))
    for budget in (0, 1, 3):
        errors = []
        for fam in (family._replace(search_limit=budget), black_box(family._replace(search_limit=budget))):
            with pytest.raises(FamilyContractError) as info:
                extract_small_combination(space, fam, Fraction(delta))
            errors.append((info.value.path, info.value.point, str(info.value)))
        assert errors[0] == errors[1]
        assert (errors[0][1] is None) == (budget == 0)
    fast = extract_small_combination(space, family, Fraction(delta))
    assert fast == extract_small_combination(space, black_box(family), Fraction(delta))


def test_first_small_builds_only_the_chosen_children():
    space = interval(parse("w^(2)*2"))
    family = marching_indicators(space)
    calls = []

    def counting_at(path):
        calls.append(path)
        return family.at(path)

    cert = extract_small_combination(space, family._replace(at=counting_at), Fraction(1, 4))
    assert calls == list(cert.branch) and len(calls) == cert.n == 65


@pytest.mark.parametrize("answer", [-1, 7, True], ids=["negative", "budget", "bool"])
def test_a_first_small_answer_outside_the_budget_is_a_contract_error(answer):
    space = interval(OMEGA)
    lying = marching_indicators(space)._replace(
        search_limit=7, first_small=lambda path, critical, threshold, budget: answer
    )
    with pytest.raises(FamilyContractError) as info:
        extract_small_combination(space, lying, Fraction(1, 2))
    assert (info.value.path, info.value.point) == ((), None)
    assert str(info.value).endswith(f"node []: first_small answered {answer!r}, not a child index in [0, 7)")


def test_a_first_small_answer_that_is_not_small_fails_the_stage_loop():
    # stage 1's critical set, phi of the zero function, is empty, so every
    # block 1 is small; child 0 of this family is 1 everywhere, so block 2 is not
    space = interval(OMEGA)
    lying = WeaklyNullFamily(space=space, at=lambda path: constant(OMEGA, 1), first_small=lambda *args: 0)
    with pytest.raises(CertificateError, match="^block 2 is not small on the critical set$"):
        extract_small_combination(space, lying, Fraction(1, 2))


def test_the_stage_loop_refuses_an_infinite_critical_set(monkeypatch):
    """Extraction and verify share the per-stage check that the critical set is finite."""
    space = interval(OMEGA)
    cert = extract_small_combination(space, marching_indicators(space), Fraction(1, 2))
    monkeypatch.setattr(ordspace.extract, "_phi", lambda f, space, eps: (interval(space.ambient), Fraction(0)))
    for run in (
        lambda: extract_small_combination(space, marching_indicators(space), Fraction(1, 2)),
        lambda: cert.verify(space),
    ):
        with pytest.raises(CertificateError, match=r"^critical set at stage 1 is infinite$"):
            run()


def test_stage_count_is_capped_before_any_stage(monkeypatch):
    space = interval(OMEGA)
    monkeypatch.setattr(ordspace.extract, "MAX_STAGES", 17)
    assert extract_small_combination(space, marching_indicators(space), Fraction(1, 2)).n == 17
    monkeypatch.setattr(ordspace.extract, "_phi", None)  # the first stage's critical set would call it
    with pytest.raises(CertificateError, match=r"^delta = 1/3 with b = 1 needs n = 25 stages, above the limit of 17$"):
        extract_small_combination(space, marching_indicators(space), Fraction(1, 3))


def test_extraction_sandwich():
    space = interval(OMEGA)
    cert = extract_small_combination(space, marching_indicators(space), Fraction(1, 2))
    assert sup_on(cert.final, space) <= cert.final_norm


# --- certificate ------------------------------------------------------------------


def test_certificate_json_keys():
    space = interval(OMEGA)
    cert = extract_small_combination(space, marching_indicators(space), Fraction(1, 2))
    data = cert.to_json()
    assert set(data) == {"n", "eps", "branch", "stageNorms", "finalNorm"}
    assert data["n"] == 17
    assert data["eps"] == "1/34"
    assert all(isinstance(path, list) for path in data["branch"])


def _block(m, block):
    return lambda c: {"blocks": c.blocks[:m] + (block,) + c.blocks[m + 1 :]}


def _both_longer(c):
    return {"branch": tuple(c.branch) + (c.branch[-1] + (0,),), "blocks": c.blocks + (c.blocks[-1],)}


# (id, fields to replace in the w, 1/2 certificate, message the replay must give)
TAMPERING = [
    ("n", lambda c: {"n": c.n + 1}, "do not recompute: n$"),
    ("eps", lambda c: {"eps": Fraction(1, 35)}, "do not recompute: eps$"),
    (
        "stage_norms",
        lambda c: {"stage_norms": c.stage_norms[:-1] + (Fraction(99),)},
        "do not recompute: stage_norms$",
    ),
    ("final", lambda c: {"final": constant(OMEGA, 0)}, "do not recompute: final$"),
    ("final_norm", lambda c: {"final_norm": Fraction(1, 1000)}, "do not recompute: final_norm$"),
    ("delta-changes-n", lambda c: {"delta": Fraction(1, 4)}, "stage count mismatch"),
    ("delta-zero", lambda c: {"delta": Fraction(0)}, "delta must be positive"),
    ("delta-negative", lambda c: {"delta": Fraction(-1, 2)}, "delta must be positive"),
    ("delta-float", lambda c: {"delta": 0.5}, "delta must be a Fraction"),
    ("branch-shorter", lambda c: {"branch": c.branch[:-1]}, "stage count mismatch"),
    ("blocks-shorter", lambda c: {"blocks": c.blocks[:-1]}, "stage count mismatch"),
    ("both-longer", _both_longer, "do not recompute: branch, blocks$"),
    ("block-not-small", _block(1, constant(OMEGA, 1)), "block 2 is not small on the critical set"),
    (
        "block-first-one",
        _block(0, constant(OMEGA, 1)),
        "do not recompute: stage_norms, final, final_norm$",
    ),
    ("block-too-big", _block(0, constant(OMEGA, 2)), "block 1 leaves the unit ball"),
    (
        "block-other-ambient",
        _block(0, constant(parse("w+1"), 0)),
        "block 1 lives on a different ambient interval",
    ),
]


@pytest.mark.parametrize(
    "changes, message", [row[1:] for row in TAMPERING], ids=[row[0] for row in TAMPERING]
)
def test_certificate_detects_tampering(changes, message):
    space = interval(OMEGA)
    cert = extract_small_combination(space, marching_indicators(space), Fraction(1, 2))
    forged = dataclasses.replace(cert, **changes(cert))
    with pytest.raises(CertificateError, match=message):
        forged.verify(space)


def omega_certificate():
    space = interval(OMEGA)
    return space, extract_small_combination(space, marching_indicators(space), Fraction(1, 2))


def test_the_branch_reads_as_its_prefixes():
    _, cert = omega_certificate()
    path = tuple(range(17))
    paths = tuple(path[: m + 1] for m in range(17))
    assert len(cert.branch) == 17 and cert.branch.path == path
    assert [cert.branch[m] for m in range(17)] == list(paths)
    assert cert.branch[-1] == path and cert.branch[-17] == (0,)
    for m in (17, -18):
        with pytest.raises(IndexError):
            cert.branch[m]
    for cut in (slice(None), slice(2, 5), slice(None, -1), slice(None, None, -3), slice(40, None)):
        assert cert.branch[cut] == paths[cut] and type(cert.branch[cut]) is tuple
    assert tuple(cert.branch) == paths and tuple(reversed(cert.branch)) == paths[::-1]
    assert paths[3] in cert.branch and (1,) not in cert.branch and cert.branch.index((0, 1)) == 1
    assert cert.branch == paths and paths == cert.branch and hash(cert.branch) == hash(paths)
    assert cert.branch != paths[:-1] and cert.branch != paths + ((0,) * 18,) and cert.branch != list(paths)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_copied_or_pickled_certificate_is_equal_and_verifies(protocol):
    space, cert = omega_certificate()
    for twin in (pickle.loads(pickle.dumps(cert, protocol)), copy.copy(cert), copy.deepcopy(cert)):
        assert twin == cert and hash(twin) == hash(cert) and twin.verify(space)
        assert twin.branch == cert.branch and type(twin.branch) is type(cert.branch)


def test_a_branch_given_as_its_paths_is_stored_once_and_verifies():
    space, cert = omega_certificate()
    paths = tuple(cert.branch)
    given = ExtractionCertificate(
        branch=paths,
        blocks=cert.blocks,
        stage_norms=cert.stage_norms,
        eps=cert.eps,
        n=cert.n,
        final=cert.final,
        final_norm=cert.final_norm,
        delta=cert.delta,
    )
    assert type(given.branch) is type(cert.branch) and given.branch.path == tuple(range(17))
    assert given == cert and hash(given) == hash(cert) and given.verify(space)
    assert dataclasses.replace(cert, branch=list(paths)) == cert


def _broken_path(c):
    broken = (c.branch[0][0] + 1,) + c.branch[1][1:]
    return (c.branch[0], broken) + c.branch[2:]


# (id, a branch given as paths that is not a chain of extending paths)
BROKEN_BRANCHES = [
    ("broken-path", _broken_path),
    ("skips-a-stage", lambda c: c.branch[:1] + c.branch[2:]),
    ("starts-at-two", lambda c: c.branch[1:]),
    ("repeats-a-path", lambda c: c.branch[:1] + c.branch[:-1]),
    ("paths-as-lists", lambda c: tuple(map(list, c.branch))),
    ("ends-longer", lambda c: c.branch[:-1] + (c.branch[-1] + (0,),)),
]


@pytest.mark.parametrize("broken", [row[1] for row in BROKEN_BRANCHES], ids=[row[0] for row in BROKEN_BRANCHES])
def test_a_branch_that_is_not_a_chain_is_refused_at_the_door(broken):
    _, cert = omega_certificate()
    given = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
    for build in (
        lambda: ExtractionCertificate(**{**given, "branch": broken(cert)}),
        lambda: dataclasses.replace(cert, branch=broken(cert)),
    ):
        with pytest.raises(CertificateError, match="^branch is not a chain of extending paths$"):
            build()


NOT_FINITE_HEIGHT = "extraction requires an infinite space of finite height; this space "
# (id, space, delta, the one message that extraction and verify both give)
DOMAIN_ERRORS = [
    ("delta-zero", interval(OMEGA), Fraction(0), "delta must be positive"),
    ("delta-negative", interval(OMEGA), Fraction(-1, 2), "delta must be positive"),
    ("finite", interval(from_int(5)), Fraction(1, 2), NOT_FINITE_HEIGHT + "is finite"),
    ("tall", interval(omega_pow(OMEGA)), Fraction(1, 2), NOT_FINITE_HEIGHT + "has o = 1"),
    ("empty", ClosedSet(OMEGA, []), Fraction(1, 2), NOT_FINITE_HEIGHT + "is finite"),
]


@pytest.mark.parametrize(
    "space, delta, message", [row[1:] for row in DOMAIN_ERRORS], ids=[row[0] for row in DOMAIN_ERRORS]
)
def test_extraction_and_verify_refuse_a_domain_error_alike(space, delta, message):
    omega = interval(OMEGA)
    cert = extract_small_combination(omega, marching_indicators(omega), Fraction(1, 2))
    messages = []
    for run in (
        lambda: extract_small_combination(space, marching_indicators(space), delta),
        lambda: dataclasses.replace(cert, delta=delta).verify(space),
    ):
        with pytest.raises(CertificateError) as info:
            run()
        messages.append(str(info.value))
    assert messages == [message, message]


def test_extraction_and_verify_refuse_a_float_delta():
    """Extraction reads delta through grasberg._rational; a certificate must store a Fraction."""
    space = interval(OMEGA)
    with pytest.raises(ValueError, match=r"^delta must be a rational like 1/2, got 0\.5$"):
        extract_small_combination(space, marching_indicators(space), 0.5)
    cert = extract_small_combination(space, marching_indicators(space), Fraction(1, 2))
    with pytest.raises(CertificateError, match="^delta must be a Fraction$"):
        dataclasses.replace(cert, delta=0.5).verify(space)


def test_extraction_applies_the_stage_bound(monkeypatch):
    # extraction does not call verify; the stage loop it shares with verify checks the bounds.
    # Stage 1's norm comes with stage 2's critical set, from the second _phi call.
    def phi_and_big_norm(f, space, eps):
        return _phi(f, space, eps)[0], Fraction(3)

    monkeypatch.setattr(ordspace.extract, "_phi", phi_and_big_norm)
    space = interval(OMEGA)
    with pytest.raises(CertificateError, match="stage bound fails at stage 1"):
        extract_small_combination(space, marching_indicators(space), Fraction(1, 2))


def test_extraction_checks_the_homogeneity_identity(monkeypatch):
    calls = []

    def norm(f, space):
        calls.append(f)  # the last stage's norm is right, the final one is doubled
        return grasberg_norm(f, space) * (2 if len(calls) == 2 else 1)

    monkeypatch.setattr(ordspace.extract, "grasberg_norm", norm)
    space = interval(OMEGA)
    with pytest.raises(CertificateError, match="homogeneity identity fails"):
        extract_small_combination(space, marching_indicators(space), Fraction(1, 2))


@pytest.mark.parametrize("text, delta, n", [("w", "1/2", 17), ("w^(2)*2", "1/4", 65)])
def test_each_running_sum_takes_one_norm(monkeypatch, text, delta, n):
    """n + 1 running sums, the zero one included, and the final average: one norm each,
    in extraction and in verify alike."""
    calls = []
    norm_num = ordspace.grasberg._norm_num

    def counting(f, space):
        calls.append(f)
        return norm_num(f, space)

    monkeypatch.setattr(ordspace.grasberg, "_norm_num", counting)
    space = interval(parse(text))
    cert = extract_small_combination(space, marching_indicators(space), Fraction(delta))
    assert cert.n == n and len(calls) == n + 2
    calls.clear()
    assert cert.verify(space) and len(calls) == n + 2


@pytest.mark.parametrize(
    "table, message",
    [
        ({"cutoff": 3, "entires": []}, "family table has an unknown field 'entires'"),
        ({"cutoff": 3, "defualt": None}, "family table has an unknown field 'defualt'"),
        (
            {"cutoff": 3, "entries": [{"path": [0], "fn": step_function_to_json(constant(OMEGA, 0)), "note": "x"}]},
            "family table entries[0] has an unknown field 'note'",
        ),
    ],
    ids=["entires", "defualt", "entry-note"],
)
def test_family_tables_refuse_keys_they_do_not_name(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        family_from_table(interval(OMEGA), table)


# --- complexity lock ----------------------------------------------------------------


def extraction_peak(space, delta):
    """The tracemalloc peak of one extraction with marching_indicators, in bytes."""
    family = marching_indicators(space)
    tracemalloc.start()
    try:
        extract_small_combination(space, family, delta)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_memory_grows_linearly_in_n():
    """Catches paths copied per stage: keeping the n paths of a branch, about
    n^2/2 ints, makes the peak at n = 2049 over n = 1025 about 3.8, and storing
    the branch once as its last path makes it about 2.  A ratio of two sizes,
    not bytes, so it holds on any host and on every CI Python."""
    space = interval(parse("w^(5)"))
    extraction_peak(space, Fraction(1, 2))  # the space's caches, outside the two measured runs
    small, large = extraction_peak(space, Fraction(1, 8)), extraction_peak(space, Fraction(1, 16))
    print(f"complexity lock: extraction tracemalloc peak: {large} B at n = 2049 over {small} B at n = 1025, ratio {large / small:.2f}")
    assert large / small <= 2.5, f"peak {large} at n = 2049 over {small} at n = 1025"


# --- behaviour lock -----------------------------------------------------------------


def certificate_digest(cert):
    payload = {
        "certificate": cert.to_json(),
        "final": step_function_to_json(cert.final),
        "blocks": [step_function_to_json(block) for block in cert.blocks],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# (space, delta, ladder step, n, sha256 of the certificate JSON, final and
# blocks); computed with the witness on every failed probe and step_add over the
# sorted union of breakpoints, so any faster path must give the same bytes
LOCKED_CERTIFICATES = [
    ("w", "1/2", "1", 17, "6db47e695f753104497f055d57ed3c49e4cdec447f4240eddc198ce5c76bc7df"),
    ("w^(2)*2", "1/2", "1", 33, "db5a363f3bb1be7f77dbd572b63fae0aa9e3478fcd75168464b03046a5086f31"),
    ("w", "1/8", "1", 65, "4b0dc92cbbb67e340346ba99b971bf28a028b9fc4d9a30b14ee23de476984ca0"),
    ("w^(2)*2", "1/4", "1", 65, "d5e9ec76bdf0977d9b1971850b19d99d09bc3ce1a0f2b916bd3c24432a7c2b9f"),
    ("w^(3)", "1/2", "1", 65, "67dc9fa7a12e794bbf91e053ec2bd8a4d14c53e16ab0fe11437fd32c7fbec152"),
    ("w+10000", "1/2", "100", 17, "2a101e6b28ebf3284839cffd9d6c19b738d48763ee4dea1bd51e34b34b3af379"),
]


@pytest.mark.lock
@pytest.mark.parametrize(
    "text, delta, ladder, n, digest",
    LOCKED_CERTIFICATES,
    ids=[f"{text}-{delta}" for text, delta, *_ in LOCKED_CERTIFICATES],
)
def test_certificate_digest_locked(text, delta, ladder, n, digest):
    space = interval(parse(text))
    family = marching_indicators(space, step=parse(ladder))
    cert = extract_small_combination(space, family, Fraction(delta))
    assert cert.n == n
    assert certificate_digest(cert) == digest
    assert cert.verify(space)


@pytest.mark.lock
@pytest.mark.parametrize(
    "text, delta, ladder, n, digest",
    LOCKED_CERTIFICATES,
    ids=[f"{text}-{delta}" for text, delta, *_ in LOCKED_CERTIFICATES],
)
def test_stages_match_step_add_of_the_scaled_block(monkeypatch, text, delta, ladder, n, digest):
    """The stage loop's running sums, critical sets and stage norms are those of
    step_add(running, step_scale(block, 1/2^(1+b))) with every finiteness decided
    by cb_index, in extraction and in verify."""
    space = interval(parse(text))
    seen = []

    def recording(f, space, eps):
        seen.append((f, _phi(f, space, eps)))
        return seen[-1][1]

    monkeypatch.setattr(ordspace.extract, "_phi", recording)
    cert = extract_small_combination(space, marching_indicators(space, step=parse(ladder)), Fraction(delta))
    scale = Fraction(1, 2 ** (1 + params(space).b))
    sums = [constant(space.ambient, 0)]
    for block in cert.blocks:
        sums.append(step_add(sums[-1], step_scale(block, scale)))
    assert [f for f, _ in seen] == sums[:n]  # the last sum takes grasberg_norm, not _phi
    for f, (critical, norm) in seen:
        assert (critical, norm) == (phi(step_add(f, constant(f.ambient, 0)), space, cert.eps), grasberg_norm(f, space))
        assert is_finite(critical) and cb_index(critical) <= ONE
    assert cert.stage_norms == tuple(grasberg_norm(f, space) for f in sums[1:])
    seen.clear()
    assert cert.verify(space) and [f for f, _ in seen] == sums[:n]
