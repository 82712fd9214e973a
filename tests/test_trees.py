"""Tests for finite tree machinery and the weakly-null family contract."""

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordspace.trees as trees_module

from ordspace.extract import family_from_table, marching_indicators, zero_family
from ordspace.fuzz import random_step_function
from ordspace.grasberg import StepFunction, constant, step_function_to_json, sup_on, value_at
from ordspace.ordinal import OMEGA, ONE, ZERO, from_int, mul_nat, parse
from ordspace.topology import ClosedSet, Stratum, interval
from ordspace.trees import (
    EMPTY_TREE,
    FactReport,
    FiniteTree,
    Node,
    check_fact_i,
    check_fact_ii,
    rank,
    tree_from_json,
    tree_from_text,
    tree_to_json,
    tree_to_text,
    _check_k,
    _peel,
)

from conftest import longest_chain, random_tree


def chain(n):
    return FiniteTree({i: (i - 1 if i else None) for i in range(n)})


def spoked_star(leaves=3):
    parent = {"center": None}
    for i in range(leaves):
        parent[f"leaf{i}"] = "center"
    return FiniteTree(parent)


def flat_star(n=3):
    return FiniteTree({i: None for i in range(n)})


def full_binary(depth):
    """Complete binary tree with a real root node; chains have depth+1 nodes."""
    parent = {(): None}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for bit in (0, 1):
                child = node + (bit,)
                parent[child] = node
                nxt.append(child)
        frontier = nxt
    return FiniteTree(parent)


# --- construction ------------------------------------------------------------


def test_rejects_cycles():
    with pytest.raises(ValueError):
        FiniteTree({"a": "b", "b": "a"})


def test_rejects_unknown_parent():
    with pytest.raises(ValueError):
        FiniteTree({"a": "ghost"})


def test_empty_tree():
    assert rank(EMPTY_TREE) == 0
    assert max_nodes(EMPTY_TREE) == ()


# --- prune -------------------------------------------------------------------


def test_prune_chain():
    t = tree_from_text("a -\nb a\nc b")
    got = prune(t)
    assert set(got.nodes) == {"a", "b"}


def test_prune_single_node():
    assert set(prune(FiniteTree({"a": None})).nodes) == set()


def test_prune_empty():
    assert set(prune(EMPTY_TREE).nodes) == set()


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=60))
def test_prune_removes_exactly_maximal_nodes(seed, size):
    t = random_tree(random.Random(seed), size)
    pruned = set(prune(t).nodes)
    children = {n: list(t.children(n)) for n in t.nodes}
    for node in t.nodes:
        if children[node]:
            assert node in pruned
        else:
            assert node not in pruned


# --- rank --------------------------------------------------------------------


@pytest.mark.parametrize("n", range(21))
def test_rank_of_chain_by_brute_pruning(n):
    t = chain(n)
    assert rank(t) == n
    steps = 0
    while set(t.nodes):
        t = prune(t)
        steps += 1
    assert steps == n


def test_rank_single_node():
    assert rank(FiniteTree({"a": None})) == 1


@pytest.mark.parametrize("depth", range(5))
def test_rank_full_binary(depth):
    assert rank(full_binary(depth)) == depth + 1


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=80))
def test_rank_matches_longest_chain_oracle(seed, size):
    t = random_tree(random.Random(seed), size)
    assert rank(t) == longest_chain(t)


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_iterated_prune_adds_up(seed, size, a, b):
    t = random_tree(random.Random(seed), size)
    assert set(iterated_prune(t, a + b).nodes) == set(
        iterated_prune(iterated_prune(t, a), b).nodes
    )


# --- strip -------------------------------------------------------------------


def test_strip_keeps_leafmost_slice():
    t = chain(5)
    got = strip(t, 3)
    assert set(got.nodes) == {2, 3, 4}
    assert rank(got) == 3


def test_strip_zero_is_empty():
    assert set(strip(chain(4), 0).nodes) == set()


def test_strip_full_rank_is_identity():
    t = spoked_star()
    got = strip(t, rank(t))
    assert set(got.nodes) == set(t.nodes)


def test_strip_rejects_k_beyond_rank():
    with pytest.raises(ValueError):
        strip(chain(3), 4)


# --- subtree_above -----------------------------------------------------------


def test_subtree_above_chain():
    t = chain(4)
    got = subtree_above(t, 0)
    assert set(got.nodes) == {1, 2, 3}
    assert rank(got) == 3
    assert got.parent(1) is None


def test_subtree_above_maximal_node_is_empty():
    t = chain(3)
    assert set(subtree_above(t, 2).nodes) == set()


def test_subtree_above_in_flat_star_is_empty():
    t = flat_star()
    for node in t.nodes:
        assert set(subtree_above(t, node).nodes) == set()


def test_subtree_above_rejects_foreign_node():
    with pytest.raises(ValueError):
        subtree_above(chain(2), "nope")


# --- facts -------------------------------------------------------------------


def test_fact_i_chain():
    report = check_fact_i(chain(5), 2)
    assert report.passed
    assert rank(strip(chain(5), 2)) == 2


def test_fact_ii_spoked_star():
    t = spoked_star(3)
    assert set(iterated_prune(t, 1).nodes) == {"center"}
    report = check_fact_ii(t, 1)
    assert report.passed
    assert rank(subtree_above(t, "center")) == 1


@given(st.integers(min_value=0, max_value=150), st.integers(min_value=1, max_value=60))
def test_facts_fuzzed(seed, size):
    t = random_tree(random.Random(seed), size)
    for k in range(rank(t) + 1):
        assert check_fact_i(t, k).passed
        assert check_fact_ii(t, k).passed


@given(st.integers(min_value=0, max_value=150), st.integers(min_value=1, max_value=60))
def test_prune_maximal_nodes_are_the_nodes_of_the_next_height(seed, size):
    # fact ii walks the nodes of height k + 1 instead of building the k-th prune
    t = random_tree(random.Random(seed), size, floor_chance=0.1)
    for k in range(rank(t) + 1):
        assert max_nodes(iterated_prune(t, k)) == tuple(n for n in t.nodes if t.height(n) == k + 1)


# --- the fact reference: prune, strip and subtree_above ---------------------
# Reference only: the fact table is checked against these.  Each derived tree
# goes through the one validating constructor, peel included, so its heights
# are never copied from the tree it came from.


def max_nodes(tree: FiniteTree) -> tuple[Node, ...]:
    """The maximal nodes: those without children."""
    return tuple(n for n in tree.nodes if not tree.children(n))


def _restricted(tree: FiniteTree, keep: set) -> dict[Node, Node | None]:
    """The parent map of the kept nodes; a node whose parent goes hangs off the root."""
    return {n: p if p in keep else None for n, p in tree._parent.items() if n in keep}


def prune(tree: FiniteTree) -> FiniteTree:
    return iterated_prune(tree, 1)


def iterated_prune(tree: FiniteTree, k: int) -> FiniteTree:
    """Remove maximal nodes k times; the survivors are the nodes of height > k."""
    if k < 0:
        raise ValueError("prune count must be non-negative")
    keep = {n for n, h in tree._height.items() if h > k}
    return FiniteTree(_restricted(tree, keep))


def _stripped(tree: FiniteTree, k: int) -> dict[Node, Node | None]:
    _check_k(tree, k)
    return _restricted(tree, {n for n, h in tree._height.items() if h <= k})


def strip(tree: FiniteTree, k: int) -> FiniteTree:
    """The part pruning would remove first: tree minus iterated_prune(tree, k)."""
    return FiniteTree(_stripped(tree, k))


def _above(tree: FiniteTree, s: Node) -> dict[Node, Node | None]:
    """The parent map of the nodes strictly above s, with s's children top-level."""
    if s not in tree:
        raise ValueError(f"{s!r} is not a node of the tree")
    parent: dict[Node, Node | None] = {}
    children = tree._children
    stack = [(child, None) for child in reversed(children[s])]
    while stack:
        node, par = stack.pop()
        parent[node] = par
        stack.extend([(child, node) for child in reversed(children[node])])
    return parent


def subtree_above(tree: FiniteTree, s: Node) -> FiniteTree:
    """The nodes strictly above s, re-rooted so s's children become top-level."""
    return FiniteTree(_above(tree, s))


def reference_fact_reports(t, k):
    """Facts i and ii through the derived trees: strip, iterated_prune, subtree_above."""
    actual = rank(strip(t, k))
    fact_i = FactReport("i", k, actual == k, () if actual == k else ((None, actual),))
    failures = tuple(
        (s, rank(subtree_above(t, s)))
        for s in max_nodes(iterated_prune(t, k))
        if rank(subtree_above(t, s)) != k
    )
    return fact_i, FactReport("ii", k, not failures, failures)


@given(st.integers(min_value=0, max_value=150), st.integers(min_value=1, max_value=60))
def test_fact_checks_match_the_derived_tree_reference(seed, size):
    t = random_tree(random.Random(seed), size, floor_chance=0.1)
    for k in range(rank(t) + 1):
        assert (check_fact_i(t, k), check_fact_ii(t, k)) == reference_fact_reports(t, k)
    for check in (check_fact_i, check_fact_ii):
        with pytest.raises(ValueError):
            check(t, rank(t) + 1)


def peel_fact_reports(t, k):
    """Facts i and ii as the library checked them before its fact table: per k,
    peel the stripped map, and peel the subtree above each node of height k + 1."""
    actual = _peel(_stripped(t, k))[1]
    fact_i = FactReport("i", k, actual == k, () if actual == k else ((None, actual),))
    failures = []
    for s in [n for n in t._parent if t._height[n] == k + 1]:
        above = _peel(_above(t, s))[1]
        if above != k:
            failures.append((s, above))
    return fact_i, FactReport("ii", k, not failures, tuple(failures))


@pytest.mark.lock
@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=60),
    st.sampled_from([0.02, 0.1, 0.5]),
    st.integers(min_value=0, max_value=60),
)
def test_fact_table_matches_the_per_k_peel_also_on_corrupted_heights(seed, size, floor, overwrites):
    # heights overwritten before the first check make facts fail: the table
    # must report the same failures, in the same order, as the per-k peel
    rng = random.Random(seed)
    t = random_tree(rng, size, floor_chance=floor)
    if overwrites:
        height = dict(t._height)
        for node in rng.sample(t.nodes, min(overwrites, size)):
            height[node] = rng.randint(-1, rank(t) + 1)
        object.__setattr__(t, "_height", height)
    for k in range(rank(t) + 1):
        got = (check_fact_i(t, k), check_fact_ii(t, k))
        want = peel_fact_reports(t, k)
        assert got == want
        assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
    for check in (check_fact_i, check_fact_ii):
        for k in (-1, rank(t) + 1):
            with pytest.raises(ValueError) as info:
                check(t, k)
            assert str(info.value) == f"k must lie in [0, rank] = [0, {rank(t)}]"


def test_fact_checks_and_strip_refuse_a_k_that_is_not_an_integer():
    for check in (check_fact_i, check_fact_ii, strip):
        with pytest.raises(TypeError, match="k must be an integer, got 1.5"):
            check(chain(3), 1.5)


def test_corrupted_heights_fail_both_facts_as_the_peel_does():
    t = chain(4)  # true heights 4, 3, 2, 1 from the root up
    object.__setattr__(t, "_height", {0: 4, 1: 1, 2: 2, 3: 1})
    reports = [r for k in range(5) for r in (check_fact_i(t, k), check_fact_ii(t, k))]
    assert reports == [r for k in range(5) for r in peel_fact_reports(t, k)]
    # node 1 claims height 1 with two nodes above it; at k = 2 node 2 joins
    # below node 1, which is in already, and the stripped chain 1-2-3 has rank 3
    assert [(r.fact, r.k, r.failures) for r in reports if not r.passed] == [
        ("ii", 0, ((1, 2),)),
        ("i", 2, ((None, 3),)),
    ]


def test_checking_every_k_builds_one_table_and_peels_nothing(monkeypatch):
    t = random_tree(random.Random(5), 2000, floor_chance=0.02)
    builds = []  # one entry per table lookup: True when the slot was still empty
    lookup = trees_module._facts
    monkeypatch.setattr(trees_module, "_facts", lambda tree, k: builds.append(tree._facts is None) or lookup(tree, k))

    def refuse(*args):
        raise AssertionError("a fact check peeled")

    monkeypatch.setattr(trees_module, "_peel", refuse)
    for _ in range(2):
        for k in range(rank(t) + 1):
            assert check_fact_i(t, k).passed and check_fact_ii(t, k).passed
    assert builds == [True] + [False] * (4 * (rank(t) + 1) - 1)


def test_every_k_on_a_20000_node_chain_finishes():
    # the per-k peel took the sum of all subtree sizes, 2 * 10**8 node visits here
    t = chain(20000)
    assert all(check_fact_i(t, k).passed and check_fact_ii(t, k).passed for k in range(rank(t) + 1))


def fact_ii_peak(tree):
    """The tracemalloc peak, in bytes, of check_fact_ii at every 97th k."""
    tracemalloc.start()
    try:
        for k in range(0, rank(tree) + 1, 97):
            check_fact_ii(tree, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tree_facts_memory_grows_linearly():
    """Catches a per-k peel or copy that is kept: the stripped tree of each k
    checked holds about n^2 / 194 nodes on an n-node chain, which lifts the
    peak at 4,000 nodes over 2,000 to about 3.9, where one table per tree makes
    it about 2.  A peel dropped after each k costs time, not peak memory: the
    20,000-node chain test catches that.  A ratio of two sizes, not bytes, so
    it holds on any host and on every CI Python."""
    small, large = fact_ii_peak(chain(2000)), fact_ii_peak(chain(4000))
    assert large / small <= 2.5, f"peak {large} at 4,000 nodes over {small} at 2,000"


def test_the_fact_table_is_not_part_of_the_tree():
    t = full_binary(3)
    fresh = validated_twin(t)
    assert check_fact_ii(t, 2).passed and t._facts is not None
    assert t == fresh and hash(t) == hash(fresh)
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and twin._facts is None


@given(st.integers(min_value=0, max_value=150), st.integers(min_value=1, max_value=50))
def test_successor_set_identity(seed, size):
    # stripping commutes with pruning: (T minus T^k)^m = T^m minus T^k
    t = random_tree(random.Random(seed), size)
    for k in range(rank(t) + 1):
        stripped = strip(t, k)
        for m in range(k + 1):
            lhs = set(iterated_prune(stripped, m).nodes)
            rhs = set(iterated_prune(t, m).nodes) - set(iterated_prune(t, k).nodes)
            assert lhs == rhs


# --- derived trees -------------------------------------------------------------


def validated_twin(tree):
    """The same parent map rebuilt through the validating constructor."""
    return FiniteTree({node: tree.parent(node) for node in tree.nodes})


@given(st.integers(min_value=0, max_value=150), st.integers(min_value=1, max_value=60))
def test_derived_trees_peel_fresh_heights(seed, size):
    # a derived tree's heights must be its own, never the source tree's: else
    # rank(strip(tree, k)) == k, fact i, would hold by construction
    t = random_tree(random.Random(seed), size)
    derived = [subtree_above(t, s) for s in t.nodes]
    for k in range(rank(t) + 1):
        derived += [strip(t, k), iterated_prune(t, k)]
    for d in derived:
        twin = validated_twin(d)
        assert d == twin
        assert [d.height(n) for n in d.nodes] == [twin.height(n) for n in twin.nodes]
        assert rank(d) == rank(twin) == longest_chain(d)


def test_pickled_derived_tree_rebuilds_through_the_validating_constructor():
    derived = strip(full_binary(3), 2)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(derived, protocol))
        assert back == derived and rank(back) == 2
    forged = subtree_above(chain(4), 0)
    object.__setattr__(forged, "_parent", {1: None, 2: "ghost"})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged, protocol))


# --- text and JSON formats ------------------------------------------------------


def test_text_round_trip():
    text = "a -\nb a\nc a\nd b"
    t = tree_from_text(text)
    assert tree_from_text(tree_to_text(t)) == t


def test_text_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        tree_from_text("a -\na -")


def test_text_rejects_malformed_line():
    with pytest.raises(ValueError):
        tree_from_text("a")


def test_text_refuses_a_node_named_dash():
    # '-' in the parent column means no parent, so as an id it would not read back
    with pytest.raises(ValueError, match=r"^line 1: '-' means no parent"):
        tree_from_text("- -\nx -")
    with pytest.raises(ValueError, match=r"^line 2: "):
        tree_from_text("x -\n- x")


@pytest.mark.parametrize(
    "node", ["-", "", "a b", "a\tb", "a\n", "\x1c", 1, pytest.param({1: None, "1": None}, id="1-and-'1'")]
)
def test_text_refuses_to_write_an_id_that_would_not_read_back(node):
    # an id that is not a str reads back as a str: 1 as '1', and 1 with '1' as a duplicate
    parents = [node] if isinstance(node, dict) else [{node: None}, {"root": None, node: "root"}]
    for parent in parents:
        with pytest.raises(ValueError, match="has no tree text form"):
            tree_to_text(FiniteTree(parent))


def test_json_round_trip():
    t = spoked_star(4)
    data = tree_to_json(t)
    assert set(data) == {"nodes"}
    assert tree_from_json(data) == t


def test_immutable_types_copy_and_pickle():
    space = interval(parse("w^(2)*2+3"))
    f = random_step_function(space, 7)
    values = [
        parse("w^(w+1)*3+w+5"),
        Stratum(ZERO, OMEGA, ONE),
        space,
        f,
        FiniteTree({"a": None, 1: "a", 2: 1}),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
        if isinstance(value, tuple):
            assert hash(value) == hash(tuple(value))
    # closed sets and step functions are tuples, yet do not join, repeat, order or contain
    for value, hint in ((space, "contains"), (f, "step_add")):
        with pytest.raises(AttributeError):
            value.ambient = ZERO
        for op in (lambda x: x + x, lambda x: x * 2, lambda x: 2 * x, lambda x: x < x):
            with pytest.raises(TypeError, match=hint):
                op(value)
        with pytest.raises(TypeError, match="not a container"):
            ZERO in value
    # no door skips the validating constructors: _replace and _make refuse, pickle re-checks
    forgeries = (
        lambda: interval(OMEGA)._replace(ambient=ONE),
        lambda: constant(OMEGA, 1)._replace(den=0),
        lambda: Stratum(ZERO, ONE, ZERO)._replace(hi=ZERO),
        lambda: Stratum._make((ONE, ZERO, ZERO)),
        lambda: ClosedSet._make((ONE, interval(OMEGA).atoms)),
        lambda: StepFunction._make((OMEGA, (OMEGA,), (1,), 0)),
    )
    for forge in forgeries:
        with pytest.raises(TypeError, match="skip validation"):
            forge()
    forged = tuple.__new__(Stratum, (ONE, ZERO, ZERO))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match="lo < hi"):
            pickle.loads(pickle.dumps(forged, protocol))


# --- weakly-null families --------------------------------------------------------


def test_marching_indicators_windows():
    fam = marching_indicators(interval(OMEGA))
    f = fam.at((0,))
    assert value_at(f, from_int(1)) == 0
    assert value_at(f, from_int(2)) == 1
    assert value_at(f, from_int(3)) == 0
    assert value_at(fam.at(()), from_int(2)) == 0


def test_marching_indicators_eventually_zero_on_finite_sets():
    fam = marching_indicators(interval(OMEGA))
    probes = [from_int(3), from_int(10)]
    assert all(value_at(fam.at((50,)), p) == 0 for p in probes)


def test_marching_indicators_clamped_at_ambient():
    fam = marching_indicators(interval(from_int(3)))
    f = fam.at((99,))
    assert sup_on(f, interval(from_int(3))) == 0


def test_marching_indicators_reject_zero_step():
    with pytest.raises(ValueError):
        marching_indicators(interval(OMEGA), step=ZERO)


def test_marching_indicators_larger_step():
    fam = marching_indicators(interval(mul_nat(OMEGA, 3)), step=OMEGA)
    f = fam.at((0,))
    assert value_at(f, mul_nat(OMEGA, 2)) == 1
    assert value_at(f, OMEGA) == 0


def test_zero_family():
    fam = zero_family(interval(OMEGA))
    assert fam.at((1, 2, 3)) == constant(OMEGA, 0)


def test_family_table_requires_cutoff():
    with pytest.raises(ValueError):
        family_from_table(interval(OMEGA), {})


def test_family_table_lookup_and_default():
    space = interval(OMEGA)
    one = constant(OMEGA, Fraction(1, 2))
    table = {
        "cutoff": 4,
        "entries": [{"path": [0], "fn": step_function_to_json(one)}],
    }
    fam = family_from_table(space, table)
    assert fam.at((0,)) == one
    assert fam.at((1,)) == constant(OMEGA, 0)
    assert fam.search_limit == 4


def test_family_table_rejects_ambient_mismatch():
    wrong = constant(mul_nat(OMEGA, 2), Fraction(1, 2))
    table = {"cutoff": 2, "entries": [{"path": [0], "fn": step_function_to_json(wrong)}]}
    with pytest.raises(ValueError):
        family_from_table(interval(OMEGA), table)
