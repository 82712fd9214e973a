"""Finite well-founded trees: rank and the two rank facts.

A tree is a finite set of nodes with a partial parent map; nodes without a
parent hang off an implicit root that is never itself a member.  Pruning
removes the maximal nodes (those without children), rank is the number of
prunings needed to empty the tree, and stripping at k keeps what the first k
prunings remove.  Heights are computed once by peeling leaves level by level,
so none of this recurses on tree depth.  The two rank facts, about the
stripped tree and the subtrees above the nodes of height k + 1, are checked
for every k from one table per tree, built on first use without the peel and
without building a derived tree, so a corrupted height shows up as a failure.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Hashable, Mapping

Node = Hashable


class FiniteTree:
    """Immutable finite tree; construct from a node -> parent mapping.

    A parent of None marks a child of the implicit root.  The mapping's
    insertion order is kept for deterministic iteration and serialization.
    """

    __slots__ = ("_parent", "_children", "_height", "_rank", "_facts")

    def __init__(self, parent: Mapping[Node, Node | None]):
        parent_map = dict(parent)
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
        object.__setattr__(self, "_facts", None)  # see _facts; not part of ==, hash or pickle

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


def rank(tree: FiniteTree) -> int:
    """The number of prunings that empty the tree; the longest chain length."""
    return tree._rank


def _check_k(tree: FiniteTree, k: int) -> None:
    if not isinstance(k, int):  # the fact table is indexed by k
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 0 or k > rank(tree):
        raise ValueError(f"k must lie in [0, rank] = [0, {rank(tree)}]")


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


def _find(up: dict, offset: dict, node: Node) -> tuple[Node, int]:
    """The top of node's component and node's depth below it (the top's is 1);
    relinks the path straight to the top, each node keeping its depth below its link."""
    path = []
    while node in up:
        path.append(node)
        node = up[node]
    depth = 1
    for step in reversed(path):
        depth += offset[step]
        up[step], offset[step] = node, depth - 1
    return node, depth


def _facts(tree: FiniteTree, k: int) -> tuple[list[int], dict[int, list]]:
    """For k in [0, rank], the tree's fact table, built on first use: the rank of
    the stripped tree at each k, and fact ii's (node, rank above it) failures by k.

    Fact i adds the nodes in order of height and keeps each joined component, a
    subtree, under its top node with its longest chain, which runs down from the
    top.  Only a corrupted height lets a node join below a parent that is in
    already, at the parent's depth, which a union-find keeps.  Fact ii takes each
    node's longest chain strictly above it from its children, children first.
    """
    _check_k(tree, k)
    if tree._facts is not None:
        return tree._facts
    parent, children, height = tree._parent, tree._children, tree._height
    up, offset, longest = {}, {}, {}  # link to the top, depth below the link, a top's longest chain
    order = sorted(parent, key=height.__getitem__)
    stripped_rank, best, i = [], 0, 0
    for level in range(tree._rank + 1):
        while i < len(order) and height[order[i]] <= level:
            node, chain = order[i], 1
            i += 1
            for child in children[node]:
                if child in longest:  # in already, so the top of its component
                    up[child], offset[child] = node, 1
                    chain = max(chain, 1 + longest.pop(child))
            par = parent[node]
            if par in longest or par in up:
                top, depth = _find(up, offset, par)
                up[node], offset[node] = top, depth
                chain = longest[top] = max(longest[top], depth + chain)
            else:
                longest[node] = chain
            best = max(best, chain)
        stripped_rank.append(best)

    order = [node for node, par in parent.items() if par is None]
    for node in order:  # breadth first, so reversed it puts children first
        order.extend(children[node])
    above = dict.fromkeys(parent, 0)
    for node in reversed(order):
        par = parent[node]
        if par is not None and above[par] <= above[node]:
            above[par] = above[node] + 1
    failures: dict[int, list] = {}
    for node in parent:
        if above[node] != height[node] - 1:
            failures.setdefault(height[node] - 1, []).append((node, above[node]))
    object.__setattr__(tree, "_facts", (stripped_rank, failures))
    return tree._facts


def check_fact_i(tree: FiniteTree, k: int) -> FactReport:
    """Stripping at k leaves a tree of rank exactly k; read off the tree's fact table."""
    actual = _facts(tree, k)[0][k]
    failures = () if actual == k else ((None, actual),)
    return FactReport(fact="i", k=k, passed=actual == k, failures=failures)


def check_fact_ii(tree: FiniteTree, k: int) -> FactReport:
    """Every maximal node of the k-th prune, a node of height k + 1, carries a
    rank-k subtree above it; the failures are read off the tree's fact table,
    in node order."""
    failures = tuple(_facts(tree, k)[1].get(k, ()))
    return FactReport(fact="ii", k=k, passed=not failures, failures=failures)


# ---- serialization ----------------------------------------------------------


def tree_to_text(tree: FiniteTree) -> str:
    """One 'id parent-id' or 'id -' line per node; an id that would not read back,
    such as one that is not a str, is refused."""
    lines = []
    for node in tree.nodes:
        if not isinstance(node, str) or node.split() != [node] or node == "-":
            raise ValueError(f"node {node!r} has no tree text form: an id is one word of text, not '-'")
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
        if node == "-":
            raise ValueError(f"line {lineno}: '-' means no parent and cannot be a node id")
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


def __getattr__(name: str):  # PEP 562: moved to ordspace.extract; old imports still work
    if name != "marching_indicators":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .extract import marching_indicators

    return marching_indicators
