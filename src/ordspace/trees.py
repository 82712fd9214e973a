"""Finite well-founded trees and the weakly-null family contract.

A tree is a finite set of nodes with a partial parent map; nodes without a
parent hang off an implicit root that is never itself a member.  Pruning
removes the maximal nodes (those without children), rank is the number of
prunings needed to empty the tree, and stripping keeps what pruning would
eventually remove.  Heights are computed once by peeling leaves level by
level, so none of this recurses on tree depth.  Derived trees skip validation
but not the peel: their heights are never copied from the tree they came from.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Hashable, Mapping

from .ordinal import ONE, Ordinal, mul_nat

Node = Hashable


class FiniteTree:
    """Immutable finite tree; construct from a node -> parent mapping.

    A parent of None marks a child of the implicit root.  The mapping's
    insertion order is kept for deterministic iteration and serialization.
    """

    __slots__ = ("_parent", "_children", "_height", "_rank")

    def __init__(self, parent: Mapping[Node, Node | None], _trusted: bool = False):
        parent_map = parent if _trusted else dict(parent)
        if not _trusted:
            for node, par in parent_map.items():
                if node is None:
                    raise ValueError("None is reserved for the implicit root")
                if par is not None and par not in parent_map:
                    raise ValueError(f"parent {par!r} of {node!r} is not a node")
        children: dict[Node, list[Node]] = {node: [] for node in parent_map}
        for node, par in parent_map.items():
            if par is not None:
                children[par].append(node)
        height, top = _peel(parent_map)
        object.__setattr__(self, "_parent", parent_map)
        object.__setattr__(self, "_children", {n: tuple(k) for n, k in children.items()})
        object.__setattr__(self, "_height", height)
        object.__setattr__(self, "_rank", top)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteTree is immutable")

    def __reduce__(self):
        return FiniteTree, (self._parent,)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._parent)

    def parent(self, node: Node) -> Node | None:
        return self._parent[node]

    def children(self, node: Node) -> tuple[Node, ...]:
        return self._children[node]

    def height(self, node: Node) -> int:
        """1 for maximal nodes, else 1 + max height among children."""
        return self._height[node]

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: Node) -> bool:
        return node in self._parent

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteTree):
            return NotImplemented
        return self._parent == other._parent

    def __hash__(self) -> int:
        return hash(frozenset(self._parent.items()))

    def __repr__(self) -> str:
        return f"FiniteTree({len(self)} nodes, rank {rank(self)})"


def _peel(parent: Mapping[Node, Node | None]) -> tuple[dict[Node, int], int]:
    """Heights, found by peeling the maximal nodes level by level, and the rank."""
    pending = dict(Counter(parent.values()))  # children per node; a plain dict indexes faster
    frontier = [node for node in parent if node not in pending]
    height, level = {}, 0
    while frontier:
        level += 1
        nxt = []
        for node in frontier:
            height[node] = level
            par = parent[node]
            if par is not None:
                pending[par] -= 1
                if not pending[par]:
                    nxt.append(par)
        frontier = nxt
    if len(height) != len(parent):
        raise ValueError("parent links contain a cycle")
    return height, level


EMPTY_TREE = FiniteTree({})


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
    return FiniteTree(_restricted(tree, keep), _trusted=True)


def rank(tree: FiniteTree) -> int:
    """Least k with iterated_prune(tree, k) empty; the longest chain length."""
    return tree._rank


def _stripped(tree: FiniteTree, k: int) -> dict[Node, Node | None]:
    if k < 0 or k > rank(tree):
        raise ValueError(f"k must lie in [0, rank] = [0, {rank(tree)}]")
    return _restricted(tree, {n for n, h in tree._height.items() if h <= k})


def strip(tree: FiniteTree, k: int) -> FiniteTree:
    """The part pruning would remove first: tree minus iterated_prune(tree, k)."""
    return FiniteTree(_stripped(tree, k), _trusted=True)


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
    return FiniteTree(_above(tree, s), _trusted=True)


class FactReport(namedtuple("FactReport", "fact k passed failures")):
    """Fact "i" or "ii" at k; failures holds (witness node or None, actual rank) pairs."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "fact": self.fact,
            "k": self.k,
            "pass": self.passed,
            "failures": [
                {"witness": None if w is None else _node_to_json(w), "rank": r}
                for w, r in self.failures
            ],
        }


def check_fact_i(tree: FiniteTree, k: int) -> FactReport:
    """Stripping at k leaves a tree of rank exactly k."""
    actual = _peel(_stripped(tree, k))[1]
    failures = () if actual == k else ((None, actual),)
    return FactReport(fact="i", k=k, passed=actual == k, failures=failures)


def check_fact_ii(tree: FiniteTree, k: int) -> FactReport:
    """Every maximal node of the k-th prune, a node of height k + 1, carries a
    rank-k subtree above it; each rank is peeled afresh from a parent map."""
    if k < 0 or k > rank(tree):
        raise ValueError(f"k must lie in [0, rank] = [0, {rank(tree)}]")
    failures = []
    for s in [n for n in tree._parent if tree._height[n] == k + 1]:
        actual = _peel(_above(tree, s))[1]
        if actual != k:
            failures.append((s, actual))
    return FactReport(fact="ii", k=k, passed=not failures, failures=tuple(failures))


# ---- serialization ----------------------------------------------------------


def tree_to_text(tree: FiniteTree) -> str:
    lines = []
    for node in tree.nodes:
        par = tree.parent(node)
        lines.append(f"{node} {'-' if par is None else par}")
    return "\n".join(lines) + ("\n" if lines else "")


def tree_from_text(text: str) -> FiniteTree:
    entries: dict[str, str | None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'id parent-id' or 'id -'")
        node, par = parts
        if node in entries:
            raise ValueError(f"line {lineno}: duplicate node {node!r}")
        entries[node] = None if par == "-" else par
    return FiniteTree(entries)


def _node_to_json(node: Node):
    if isinstance(node, (str, int)):
        return node
    return str(node)


def tree_to_json(tree: FiniteTree) -> dict:
    return {
        "nodes": [
            {
                "id": _node_to_json(n),
                "parent": None if tree.parent(n) is None else _node_to_json(tree.parent(n)),
            }
            for n in tree.nodes
        ]
    }


def _is_node_id(value) -> bool:
    return isinstance(value, str) or type(value) is int


def tree_from_json(data: dict) -> FiniteTree:
    """Decode the v1 tree JSON: {"nodes": [{"id": ..., "parent": ...}, ...]}, no other keys.

    Ids are strings or integers, parents ids or null.
    """
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValueError("tree JSON must be an object with a nodes array")
    if len(data) != 1:
        raise ValueError(f"tree JSON has keys other than nodes: {sorted(data)}")
    entries: dict[Node, Node | None] = {}
    for item in data["nodes"]:
        if not isinstance(item, dict) or item.keys() != {"id", "parent"}:
            raise ValueError(f"tree nodes must be objects with keys id and parent, got {item!r}")
        node, par = item["id"], item["parent"]
        if not _is_node_id(node):
            raise ValueError(f"node id must be a string or an integer, got {node!r}")
        if par is not None and not _is_node_id(par):
            raise ValueError(f"parent of {node!r} must be a node id or null, got {par!r}")
        if node in entries:
            raise ValueError(f"duplicate node {node!r}")
        entries[node] = par
    return FiniteTree(entries)


# ---- weakly null families ---------------------------------------------------


class FamilyContractError(RuntimeError):
    """A family failed its pointwise-null or norm-bound contract."""

    def __init__(self, path: tuple[int, ...], point, message: str):
        self.path = tuple(path)
        self.point = point
        detail = f"family contract violated at node {list(self.path)}"
        if point is not None:
            detail += f", witness point {point}"
        super().__init__(f"{detail}: {message}")


class WeaklyNullFamily(
    namedtuple("WeaklyNullFamily", "space at search_limit", defaults=(None,))
):
    """Step functions indexed by paths of child indices.

    Contract: each function is bounded by 1 in sup norm on the space, and at
    every node the children's values die out pointwise, i.e. for each point of
    the space and each positive threshold, all but finitely many children stay
    below the threshold there.  The second half cannot be certified by any
    finite amount of evaluation, so extraction searches children up to a
    budget (search_limit if set, else the caller's) and reports a contract
    violation when the budget runs out.

    Fields: space, the closed set the family lives on; at, the map from a
    path (a tuple of child indices) to its step function; search_limit, an
    optional cap on the child search.
    """

    __slots__ = ()


def marching_indicators(space: ClosedSet, step: Ordinal = ONE) -> WeaklyNullFamily:
    """Indicators of the consecutive windows (step*(k+1), step*(k+2)].

    The window marches right as the child index k grows, so on any fixed
    finite point set the children are eventually zero.  Windows are clamped
    to the ambient interval; the path's last index alone decides the window.
    """
    from .grasberg import constant, indicator

    if step.is_zero():
        raise ValueError("ladder step must be a positive ordinal")
    ambient = space.ambient

    def clamp(x: Ordinal) -> Ordinal:
        return x if x <= ambient else ambient

    def at(path: tuple[int, ...]) -> StepFunction:
        if not path:
            return constant(ambient, 0)
        k = path[-1]
        return indicator(ambient, clamp(mul_nat(step, k + 1)), clamp(mul_nat(step, k + 2)))

    return WeaklyNullFamily(space=space, at=at)


def zero_family(space: ClosedSet) -> WeaklyNullFamily:
    from .grasberg import constant

    zero = constant(space.ambient, 0)
    return WeaklyNullFamily(space=space, at=lambda path: zero)


def family_from_table(space: ClosedSet, table: dict) -> WeaklyNullFamily:
    """Family given by a finite table {path -> step function}.

    The table is an object {"cutoff": n, "entries": [{"path": [k, ...], "fn":
    f}, ...], "default": f or null}: a required integer cutoff >= 1, paths of
    integers >= 0, and v1 step-function JSON for every f.  Listed paths map
    to their functions; unlisted paths fall back to the default, else to
    zero.  The cutoff caps the child search, since a finite table cannot
    promise anything beyond it.  A malformed table raises a ValueError that
    names the field.
    """
    from .grasberg import constant, step_function_from_json

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
        path = item["path"]
        if not (isinstance(path, list) and all(type(k) is int and k >= 0 for k in path)):
            raise ValueError(f"family table entries[{i}].path must be an array of integers >= 0")
        entries[tuple(path)] = decode(item["fn"], f"entries[{i}].fn")
    default = None if table.get("default") is None else decode(table["default"], "default")
    zero = constant(space.ambient, 0)

    def at(path: tuple[int, ...]) -> StepFunction:
        fn = entries.get(tuple(path))
        if fn is not None:
            return fn
        return default if default is not None else zero

    return WeaklyNullFamily(space=space, at=at, search_limit=cutoff)
