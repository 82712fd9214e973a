"""Unit and property tests for exact CNF ordinal arithmetic."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordspace.ordinal import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    ParseError,
    add,
    compare,
    format_ordinal,
    from_int,
    from_json,
    last_exponent,
    leading_exponent,
    left_subtract,
    mul_nat,
    omega_pow,
    parse,
    predecessor,
    successor,
    to_json,
    tower_index,
)

from conftest import divide_by_omega_pow, omega_mul, ordinals, positive_ordinals, validate

TWO = from_int(2)
THREE = from_int(3)


# --- parsing -----------------------------------------------------------------


def test_parse_zero():
    assert parse("0") is ZERO or parse("0") == ZERO


def test_parse_multi_term():
    got = parse("w^(w)*2 + w^(2) + 3")
    assert got.terms == ((OMEGA, 2), (TWO, 1), (ZERO, 3))


def test_parse_nested_exponent():
    got = parse("w^(w^(2))")
    assert got.terms == ((omega_pow(TWO), 1),)


def test_parse_bare_w_is_omega():
    assert parse("w") == OMEGA
    assert parse("w*3") == mul_nat(OMEGA, 3)


def test_parse_whitespace_insignificant():
    assert parse("  w^( 2 ) * 4 + 1 ") == parse("w^(2)*4+1")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "w^(",
        "w^(2",
        "07",
        "w*0",
        "w^(2)*0",
        "1+w",  # exponents 0 then 1: not strictly decreasing
        "5+3",  # equal exponents must be merged by the writer, not the parser
        "w+w",
        "x",
        "w^(2)+",
        "3 5",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("w^(2]")
    assert info.value.position == 4


@given(ordinals)
def test_parse_format_round_trip(a):
    assert parse(format_ordinal(a)) == a


@given(ordinals)
def test_format_reparses_to_identical_text(a):
    text = format_ordinal(a)
    assert format_ordinal(parse(text)) == text


# --- compare -----------------------------------------------------------------


def test_compare_equal():
    assert compare(OMEGA, OMEGA) == 0


def test_compare_less_consistent_with_add():
    a = parse("w*2+1")
    b = parse("w^(2)")
    assert compare(a, b) < 0
    # a < b exactly when adding onto a can reach b
    assert add(a, b) == b


def test_compare_greater():
    assert compare(omega_pow(OMEGA), parse("w^(3)")) > 0


@given(ordinals, ordinals)
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)


@given(ordinals, ordinals, ordinals)
def test_compare_transitive(a, b, c):
    lo, mid, hi = sorted([a, b, c])
    assert lo <= mid <= hi
    assert compare(lo, hi) <= 0


# --- add ---------------------------------------------------------------------


def test_add_successor():
    assert add(OMEGA, ONE) == parse("w+1")


def test_add_absorbs_finite_head():
    assert add(ONE, OMEGA) == OMEGA


def test_add_absorbs_lower_terms():
    assert add(parse("w*3+2"), parse("w^(2)+w")) == parse("w^(2)+w")


@given(ordinals, ordinals, ordinals)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(ordinals, ordinals, ordinals)
def test_add_strictly_monotone_right(a, b, c):
    if b < c:
        assert add(a, b) < add(a, c)


@given(ordinals, ordinals, ordinals)
def test_add_weakly_monotone_left(a, b, c):
    if a <= b:
        assert add(a, c) <= add(b, c)


@given(positive_ordinals, positive_ordinals)
def test_add_absorption(a, b):
    if leading_exponent(b) > leading_exponent(a):
        assert add(a, b) == b


@given(ordinals, ordinals)
def test_add_output_normalized(a, b):
    validate(add(a, b))


# --- mul_nat -----------------------------------------------------------------


def test_mul_nat_omega():
    assert mul_nat(OMEGA, 3) == parse("w*3")


def test_mul_nat_matches_repeated_add():
    a = parse("w^(2)+w")
    total = ZERO
    for _ in range(2):
        total = add(total, a)
    assert mul_nat(a, 2) == total == parse("w^(2)*2+w")


def test_mul_nat_finite():
    assert mul_nat(from_int(5), 4) == from_int(20)


@given(ordinals, st.integers(min_value=1, max_value=6))
def test_mul_nat_is_repeated_add(a, k):
    total = ZERO
    for _ in range(k):
        total = add(total, a)
    assert mul_nat(a, k) == total
    validate(mul_nat(a, k))


def test_mul_nat_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        mul_nat(OMEGA, 0)


# --- omega_pow / exponents ---------------------------------------------------


def test_omega_pow_examples():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(OMEGA) == parse("w^(w)")
    assert omega_pow(parse("w^(2)*2")) == parse("w^(w^(2)*2)")


def test_exponent_examples():
    a = parse("w^(2)*2+w")
    assert leading_exponent(a) == TWO
    assert last_exponent(a) == ONE
    assert leading_exponent(from_int(7)) == ZERO
    assert last_exponent(from_int(7)) == ZERO
    assert leading_exponent(omega_pow(OMEGA)) == OMEGA
    assert last_exponent(omega_pow(OMEGA)) == OMEGA


def test_exponents_reject_zero():
    with pytest.raises(ValueError):
        leading_exponent(ZERO)
    with pytest.raises(ValueError):
        last_exponent(ZERO)


# --- left_subtract -----------------------------------------------------------


def test_left_subtract_examples():
    assert left_subtract(OMEGA, parse("w*2")) == OMEGA
    assert add(OMEGA, OMEGA) == parse("w*2")
    assert left_subtract(parse("w^(w)"), parse("w^(w)")) == ZERO
    diff = left_subtract(THREE, parse("w^(2)+5"))
    assert diff == parse("w^(2)+5")
    assert add(THREE, diff) == parse("w^(2)+5")


def test_left_subtract_rejects_larger_first_argument():
    with pytest.raises(ValueError):
        left_subtract(OMEGA, ONE)


@given(ordinals, ordinals)
def test_left_subtract_round_trip(a, b):
    if a <= b:
        diff = left_subtract(a, b)
        validate(diff)
        assert add(a, diff) == b


# --- divide_by_omega_pow -----------------------------------------------------


def test_divide_examples():
    q, r = divide_by_omega_pow(parse("w^(2)*3+w+5"), ONE)
    assert (q, r) == (parse("w*3+1"), from_int(5))
    assert add(omega_mul(ONE, q), r) == parse("w^(2)*3+w+5")

    assert divide_by_omega_pow(parse("w^(2)"), TWO) == (ONE, ZERO)
    assert divide_by_omega_pow(from_int(5), ONE) == (ZERO, from_int(5))


@given(ordinals, ordinals)
def test_divide_round_trip(g, mu):
    q, r = divide_by_omega_pow(g, mu)
    validate(q)
    validate(r)
    assert add(omega_mul(mu, q), r) == g
    assert r < omega_pow(mu)


# --- tower_index -------------------------------------------------------------


def test_tower_index_examples():
    assert tower_index(OMEGA) == ZERO
    assert tower_index(omega_pow(OMEGA)) == ONE
    z = omega_pow(parse("w^(2)*3+1"))
    assert tower_index(z) == TWO
    assert omega_pow(omega_pow(TWO)) <= z < omega_pow(omega_pow(THREE))


def test_tower_index_rejects_finite():
    with pytest.raises(ValueError):
        tower_index(from_int(9))


@given(ordinals)
def test_tower_index_certificate(z):
    if z < OMEGA:
        return
    xi = tower_index(z)
    assert omega_pow(omega_pow(xi)) <= z
    assert z < omega_pow(omega_pow(successor(xi)))


# --- successor / predecessor -------------------------------------------------


@given(ordinals)
def test_successor_predecessor_round_trip(a):
    assert predecessor(successor(a)) == a
    assert successor(a) == add(a, ONE)


def test_predecessor_rejects_limits():
    with pytest.raises(ValueError):
        predecessor(OMEGA)
    with pytest.raises(ValueError):
        predecessor(ZERO)


# --- embedding of the naturals -----------------------------------------------


def test_natural_embedding_exhaustive():
    values = [from_int(i) for i in range(200)]
    for i in range(200):
        for j in range(200):
            assert add(values[i], values[j]) == from_int(i + j)
            got = compare(values[i], values[j])
            want = (i > j) - (i < j)
            assert got == want
    for i in range(1, 200, 7):
        for k in range(1, 20):
            assert mul_nat(values[i], k) == from_int(i * k)


# --- JSON --------------------------------------------------------------------


def test_json_encoding_shape():
    assert to_json(ZERO) == []
    one_json = [[[], 1]]
    omega_json = [[one_json, 1]]
    assert to_json(ONE) == one_json
    assert to_json(OMEGA) == omega_json
    assert to_json(parse("w^(w)*2+3")) == [[omega_json, 2], [[], 3]]


@given(ordinals)
def test_json_round_trip(a):
    assert from_json(to_json(a)) == a


def test_from_json_rejects_denormalized():
    with pytest.raises(ValueError):
        from_json([[[], 1], [[], 1]])  # duplicate exponent 0
    with pytest.raises(ValueError):
        from_json([[[], 0]])  # zero coefficient
    with pytest.raises(ValueError):
        from_json([[[], True]])  # a bool is not a coefficient


def test_nesting_depth_is_bounded():
    depth = MAX_NESTING
    assert parse("w^(" * depth + "2" + ")" * depth) is not None
    too_deep = "w^(" * (depth + 1) + "2" + ")" * (depth + 1)
    with pytest.raises(ParseError, match=f"position {3 * (depth + 1)}"):
        parse(too_deep)
    deepest = parse("w^(" * depth + "w" + ")" * depth)
    assert from_json(to_json(deepest)) == deepest
    with pytest.raises(ValueError, match="nested deeper"):
        from_json(to_json(omega_pow(deepest)))


# --- trusted constructors ----------------------------------------------------


@given(ordinals, ordinals, st.integers(min_value=1, max_value=5))
def test_trusted_results_are_canonical(a, b, k):
    results = [add(a, b), mul_nat(a, k), omega_mul(a, b), *divide_by_omega_pow(a, b)]
    if compare(a, b) <= 0:
        results.append(left_subtract(a, b))
    if a.is_successor():
        results.append(predecessor(a))
    for result in results:
        validate(result)
        assert Ordinal(result.terms) == result


def test_small_naturals_are_shared():
    for n in (1, 2, 7, 255):
        assert from_int(n) is from_int(n)
        assert add(from_int(n - 1), ONE) is from_int(n)
    assert parse("w^(2)").terms[0][0] is from_int(2)
    assert from_json([[[], 3]]) is from_int(3)
    assert predecessor(from_int(4)) is from_int(3)
    assert from_int(256) == Ordinal(((ZERO, 256),))


def test_constructors_reject_non_int_naturals():
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            from_int(bad)
        with pytest.raises(TypeError):
            mul_nat(ONE, bad)
        with pytest.raises(TypeError):
            Ordinal(((ZERO, bad),))


# --- the tuple representation --------------------------------------------------


def reference_compare(a, b):
    """The recursive CNF compare that tuple order replaced, kept as an oracle."""
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb:
            c = reference_compare(ea, eb)
            if c != 0:
                return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


class _Hashed:
    """Stands in for an exponent whose hash is given."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def reference_hash(a):
    """The hash of the term tuple with every exponent hashed the same way, as
    a hash cached from the terms gave it: hashes, and so set and dict orders
    and digests, stay as they were."""
    return hash(tuple((_Hashed(reference_hash(e)), c) for e, c in a.terms))


@given(ordinals, ordinals)
def test_tuple_order_is_the_cnf_order(a, b):
    want = reference_compare(a, b)
    assert compare(a, b) == want
    assert (a < b, a <= b, a == b) == (want < 0, want <= 0, want == 0)
    assert (tuple(a) < tuple(b), tuple(a) <= tuple(b)) == (want < 0, want <= 0)
    assert a == tuple(a) and hash(a) == hash(tuple(a)) == reference_hash(a)
    if want == 0:
        assert hash(a) == hash(b)


def test_tuple_view():
    a = parse("w^(2)*3+w+5")
    assert len(a) == 3 and list(a) == [(TWO, 3), (ONE, 1), (ZERO, 5)]
    assert a.terms is a and a == ((TWO, 3), (ONE, 1), (ZERO, 5))
    assert ZERO == () and len(ZERO) == 0 and not ZERO and OMEGA


@pytest.mark.parametrize(
    "operation",
    [
        lambda: OMEGA + ONE,
        lambda: OMEGA * 2,
        lambda: 2 * OMEGA,
        lambda: ZERO + (),
        lambda: OMEGA * OMEGA,
    ],
    ids=["add", "mul", "rmul", "add-tuple", "mul-ordinal"],
)
def test_tuple_arithmetic_raises(operation):
    with pytest.raises(TypeError):
        operation()


def test_ordinal_is_immutable():
    a = parse("w+1")
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        a.anything = 1
    assert a == parse("w+1")


@pytest.mark.parametrize(
    "terms, error",
    [
        (((ZERO, 1), (ONE, 1)), ValueError),  # increasing exponents
        (((ONE, 1), (ONE, 2)), ValueError),  # equal exponents
        (((ONE, 0),), ValueError),  # zero coefficient
        (((1, 1),), TypeError),  # exponent not an Ordinal
        ((((), 1),), TypeError),  # a plain tuple is not an Ordinal
    ],
)
def test_constructor_rejects_non_cnf_terms(terms, error):
    with pytest.raises(error):
        Ordinal(terms)


def test_copy_and_pickle_rebuild_through_the_validating_constructor():
    # round trips of valid ordinals: tests/test_trees.py::test_immutable_types_copy_and_pickle
    forged = tuple.__new__(Ordinal, ((ZERO, 1), (ONE, 1)))
    with pytest.raises(ValueError):
        copy.copy(forged)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged, protocol))
    valid = parse("w^(w^(2)*3+w)*4+w*2+7")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(valid, protocol))
        assert back == valid and type(back) is Ordinal and type(back[0][0]) is Ordinal
