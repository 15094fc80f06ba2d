"""Guard compilation to reduced ordered decision diagrams.

A guard formula is compiled once into a reduced ordered binary decision
diagram (Bryant 1986) over one variable order, the vocabulary's, with
variable 0 at the top. Every decision node is made in one place, the
unique table of a `DiagramTable`, which hash-conses the nodes of many
diagrams (at most MAX_NODES of them) and builds them bottom-up with
negation and conjunction memoized on node ids only (Bryant's apply). So
the guards of one automaton, and the conjunctions and disjunctions that
validate it, share one table and each node operation is computed once. A
`CompiledGuard` is one diagram extracted from a table. Its node 0 is the
constant false and node 1 the constant true; every other node is a
decision (var, hi, lo), worth hi where var is true and lo where it is
false. The probability of the guard under independent per-variable
probabilities is then one bottom-up pass, p·hi + (1 − p)·lo per node, and
its gradient one top-down pass, both linear in the diagram. The diagram
is canonical for the order, so validity (the root is node 1),
satisfiability (the root is not node 0) and a witness (one walk from the
root) are exact at any number of variables and need no arithmetic.

`Plan` is read straight from the table that validated the guards of one
automaton: `DiagramTable.extract` renumbers the nodes below their roots,
and the plan levelizes them by height, so that evaluating every guard on
a block of probability rows, and the reverse pass for its gradient, cost
a few numpy calls per level instead of interpreting each guard node by
node (the layered evaluation of KLay, Maene et al. 2024). `wmc`/`wmc_batch`
interpret one guard; tests use them as the reference for the plan.

Circuits and plans are immutable after construction; evaluation
allocates only local buffers and is safe to run concurrently from
multiple threads. A DiagramTable grows as it builds, so each caller
makes its own.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CircuitSizeError
from .logic import And, Const, Formula, Interpretation, Not, Var

MAX_NODES = 1_000_000

# nodes[0] and nodes[1] are ("const", 0) and ("const", 1); every other
# node is a decision (var, hi, lo), which `dump` writes as the CLI documents.
KIND_CONST = "const"
# Only perfbench/layers.py::reachable_nodes reads these two, and no node has
# either kind; they go when ROADMAP item 1 part A rewrites it, as the
# `# noqa: F401` imports go with their trace targets.
KIND_SUM = "sum"
KIND_PROD = "prod"


@dataclass(frozen=True)
class CompiledGuard:
    """Reduced ordered decision diagram of one guard.

    `nodes[0]` and `nodes[1]` are the constants. Every other node is a
    decision (var, hi, lo) with hi != lo, children at smaller ids and
    variables later in the order; no node is stored twice, and every
    decision node is reachable from `root`.
    """

    nodes: tuple[tuple, ...]
    root: int
    num_vars: int

    def dump(self, names: Sequence[str]) -> str:
        """One node per line, children first and the root last: `0 false`,
        `1 true`, then `<id> <name of var> <hi> <lo>` for each decision node.
        A constant guard is its one line alone."""
        if self.root < 2:
            return ("0 false", "1 true")[self.root]
        nodes = enumerate(self.nodes[2:], 2)
        decisions = [f"{i} {names[var]} {hi} {lo}" for i, (var, hi, lo) in nodes]
        return "\n".join(["0 false", "1 true", *decisions])


@dataclass
class WmcResult:
    """Probability of the guard and, on request, its gradient w.r.t. p."""

    value: float
    gradient: np.ndarray | None = None


class DiagramTable:
    """Hash-consed decision nodes shared by many diagrams over `num_vars` variables.

    Node 0 is false and node 1 true; every other node is (var, hi, lo), its
    level being its variable, with hi != lo and both children constant
    (level `num_vars`) or testing later variables. Equal functions get equal
    ids, so validity is `u == 1`, satisfiability `u != 0` and disjointness
    `conj(u, v) == 0`. Negation and conjunction are memoized on node ids
    only (Bryant's apply), and disjunction goes through De Morgan, so a
    table shared by the guards of one automaton computes each negation and
    each pair once. `build` keeps no memo of its own: hashing a formula
    walks all of it, while building a subformula again is a chain of memo
    hits that adds no node. `_node` is the one place a decision node is
    made, and `MAX_NODES` bounds each table, constants included.

    The operations recurse once per level; callers turn a RecursionError
    into CircuitSizeError with `too_deep_is_size_error`, and `extract` does
    so itself.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        # the constants sit below every level
        self._nodes: list[tuple[int, int, int]] = [(num_vars, 0, 0), (num_vars, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._neg = {0: 1, 1: 0}
        self._and: dict[tuple[int, int], int] = {}

    def drop_memos(self) -> None:
        """Forget the negation and conjunction memos. The nodes and `_unique`
        stay, so ids stay canonical and later operations, recomputed, still
        give equal functions equal ids."""
        self._neg = {0: 1, 1: 0}
        self._and = {}

    def _node(self, level: int, hi: int, lo: int) -> int:
        # p·x + (1 − p)·x == x, so equal branches are no decision
        if hi == lo:
            return hi
        key = (level, hi, lo)
        found = self._unique.get(key)
        if found is None:
            if len(self._nodes) >= MAX_NODES:
                raise CircuitSizeError(f"circuit exceeds the {MAX_NODES}-node budget")
            found = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return found

    def neg(self, u: int) -> int:
        """Negation; remembered both ways, so negating twice is a lookup."""
        found = self._neg.get(u)
        if found is None:
            level, hi, lo = self._nodes[u]
            found = self._node(level, self.neg(hi), self.neg(lo))
            self._neg[u] = found
            self._neg[found] = u
        return found

    def _and2(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if u <= 1:  # a constant: the ids 0 and 1 are the smallest
            return v if u else 0
        if u == v:
            return u
        found = self._and.get((u, v))
        if found is None:
            lu, hu, lou = self._nodes[u]
            lv, hv, lov = self._nodes[v]
            level = min(lu, lv)
            if lu != level:
                hu = lou = u
            if lv != level:
                hv = lov = v
            found = self._node(level, self._and2(hu, hv), self._and2(lou, lov))
            self._and[(u, v)] = found
        return found

    def conj(self, *ids: int) -> int:
        """Conjunction, folded from the deepest top level up, so that a wide
        conjunction adds one level per operand."""
        acc = 1
        for u in sorted(ids, key=lambda u: self._nodes[u][0], reverse=True):
            acc = self._and2(u, acc)
        return acc

    def disj(self, *ids: int) -> int:
        """Disjunction, by De Morgan."""
        return self.neg(self.conj(*map(self.neg, ids)))

    def build(self, f: Formula) -> int:
        """Node of formula `f`, made bottom-up with `neg`, `conj` and `disj`.

        It recurses once per level of formula nesting. Validation calls it
        once per declared guard; completion and the checks then combine
        those nodes, so each declared guard is built once.
        """
        if isinstance(f, Var):
            return self._node(f.index, 1, 0)
        if isinstance(f, Const):
            return int(f.value)
        if isinstance(f, Not):
            return self.neg(self.build(f.child))
        if isinstance(f, And):
            return self.conj(*map(self.build, f.children))
        return self.disj(*map(self.build, f.children))

    def extract(self, roots: Sequence[int]) -> tuple[list[tuple], list[int]]:
        """The nodes below `roots` on their own, and each root's id among them.

        Nodes 0 and 1 are the constants, as in a CompiledGuard. The decision
        nodes are numbered from 2 in hi-first post-order, one root after the
        other, and a node below several roots is numbered once. That is the
        order in which Shannon expansion along the variable order creates
        them, so equal functions give equal diagrams whatever else the
        table holds. Nothing is added to the table.
        """
        ids = {0: 0, 1: 1}
        nodes: list[tuple] = [(KIND_CONST, 0), (KIND_CONST, 1)]

        def visit(u: int) -> int:
            found = ids.get(u)
            if found is None:
                var, hi, lo = self._nodes[u]
                node = (var, visit(hi), visit(lo))
                found = ids[u] = len(nodes)
                nodes.append(node)
            return found

        with too_deep_is_size_error():
            return nodes, [visit(u) for u in roots]

    def guard(self, root: int) -> CompiledGuard:
        """The diagram below `root` on its own: `extract` of one root."""
        nodes, (root,) = self.extract([root])
        return CompiledGuard(tuple(nodes), root, self.num_vars)


@contextmanager
def too_deep_is_size_error():
    """Report a diagram too deep for Python's recursion limit as CircuitSizeError.

    Every table operation recurses once per level of the diagrams it
    walks, and `build` once per level of formula nesting.
    """
    try:
        yield
    except RecursionError:
        raise CircuitSizeError(
            "guard is too deep to compile: its decision paths and formula nesting "
            f"exceed Python's recursion limit of {sys.getrecursionlimit()} frames"
        ) from None


def compile_guard(f: Formula, num_vars: int) -> CompiledGuard:
    """Compile `f` (over `num_vars` variables) to its reduced ordered diagram.

    Raises CircuitSizeError if the diagram needs more than MAX_NODES
    nodes, or if it is too deep for the recursive operations (about 1,000
    variables along one path). Validation recurses as deep, and `dump` not
    at all, so whatever validates also dumps.
    """
    with too_deep_is_size_error():
        table = DiagramTable(num_vars)
        return table.guard(table.build(f))


def _values(g: CompiledGuard, p: np.ndarray) -> list:
    """Bottom-up node values for p of shape (..., num_vars)."""
    out: list = [np.zeros(p.shape[:-1]), np.ones(p.shape[:-1])]
    for var, hi, lo in g.nodes[2:]:
        pv = p[..., var]
        out.append(pv * out[hi] + (1.0 - pv) * out[lo])
    return out


def _gradient(g: CompiledGuard, p: np.ndarray, vals: list) -> np.ndarray:
    """Top-down adjoint pass; returns dvalue/dp with p's shape."""
    adj: list = [0.0] * len(g.nodes)
    adj[g.root] = 1.0
    grad = np.zeros(p.shape)
    for i in range(len(g.nodes) - 1, 1, -1):
        var, hi, lo = g.nodes[i]
        a, pv = adj[i], p[..., var]
        grad[..., var] += a * (vals[hi] - vals[lo])
        adj[hi] = adj[hi] + a * pv
        adj[lo] = adj[lo] + a * (1.0 - pv)
    return grad


def wmc_batch(g: CompiledGuard, p: np.ndarray, want_gradient: bool = False):
    """Weighted model count for a batch of probability vectors.

    p has shape (..., num_vars); the value has shape (...,) and the
    gradient, when requested, p's shape.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != g.num_vars:
        raise ValueError(
            f"probability vector has {p.shape[-1]} entries, circuit expects {g.num_vars}"
        )
    vals = _values(g, p)
    value = np.asarray(vals[g.root], dtype=np.float64)
    if not want_gradient:
        return value, None
    return value, _gradient(g, p, vals)


def wmc(g: CompiledGuard, p, want_gradient: bool = False) -> WmcResult:
    """Probability of the compiled guard under per-variable probabilities p."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("wmc expects a single probability vector; see wmc_batch")
    value, grad = wmc_batch(g, p, want_gradient)
    return WmcResult(float(value), grad)


@dataclass(frozen=True)
class _Level:
    """Decision nodes start..stop-1 of a Plan, all of one height.

    Node k tests var[k] and takes value lo + p[var]·(hi − lo). For the
    reverse pass, edge e brings adjoint row edge_src[e] times weight row
    edge_weight[e] into the level, and the 0/1 matrix `edge_sum` (nodes ×
    edges) adds up each node's incoming edges.
    """

    start: int
    stop: int
    var: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    edge_src: np.ndarray
    edge_weight: np.ndarray
    edge_sum: np.ndarray


class Plan:
    """Levelized decision diagram of several guards over one vocabulary.

    It is read straight from the table that validated the guards:
    `table.extract(roots)` numbers the nodes below every root once, so a
    subdiagram shared by several guards is stored once, and the table's
    MAX_NODES already bounds them. The nodes are grouped into levels by
    height above the constants. Evaluating p of shape (num_vars, rows)
    then costs a few numpy calls per level, not per node or per guard, and
    a reverse pass over the same levels yields the gradient of any
    weighted sum of roots.

    Node 0 is the constant 0, node 1 the constant 1; `self.roots[k]` is
    the node of the k-th given root. Plans are immutable; evaluation
    allocates only local buffers and is safe to run concurrently.
    """

    def __init__(self, table: DiagramTable, roots: Sequence[int]):
        self.num_vars = num_vars = table.num_vars
        nodes, roots = table.extract(roots)
        heights = [0, 0]
        for _, hi, lo in nodes[2:]:
            heights.append(1 + max(heights[hi], heights[lo]))
        heights = np.array(heights)

        # renumber by height, ties by id, so that each level is one
        # contiguous slice; the constants, of height 0, stay nodes 0 and 1
        by_height = heights.argsort(kind="stable")
        height = heights[by_height]
        n = self.num_nodes = len(heights)
        renum = np.empty(n, dtype=np.intp)
        renum[by_height] = np.arange(n)
        self.roots = renum[roots]
        triples = [(num_vars, 0, 0), (num_vars, 1, 1)] + nodes[2:]
        var, hi, lo = np.array(triples, dtype=np.intp)[by_height].T.copy()
        hi, lo = renum[hi], renum[lo]

        # adjoint edges (receiving node, source row, weight row), each node's
        # hi edge then its lo edge, then the roots': a hi child receives
        # adj·p[var], a lo child adj·(1 − p[var]), root j its seed row n + j
        k = len(roots)
        receiver = np.concatenate([np.array([hi[2:], lo[2:]]).T.ravel(), self.roots])
        source = np.concatenate([np.arange(2, n).repeat(2), n + np.arange(k)])
        weight = np.concatenate([(var[2:, None] + [0, num_vars]).ravel(), np.full(k, 2 * num_vars)])
        receiver_height = height[receiver]

        # heights run 1..max with no gap: a node's highest child is one below
        self.levels: list[_Level] = []
        bounds = height.searchsorted(np.arange(1, height[-1] + 2)).tolist()
        for h, (start, stop) in enumerate(zip(bounds, bounds[1:]), start=1):
            into = receiver_height == h
            edge_sum = np.zeros((stop - start, np.count_nonzero(into)))
            edge_sum[receiver[into] - start, np.arange(edge_sum.shape[1])] = 1.0
            at = slice(start, stop)
            lev = _Level(start, stop, var[at], hi[at], lo[at], source[into], weight[into], edge_sum)
            self.levels.append(lev)

        # 0/1 (num_vars × decision nodes) matrix summing dvalue/dp per variable
        self._var_sum = np.zeros((num_vars, self.num_nodes - 2))
        self._var_sum[var[2:], range(self.num_nodes - 2)] = 1.0

    def forward(self, p: np.ndarray, keep: bool = False):
        """Root values (num_roots, rows) for p of shape (num_vars, rows).

        With `keep`, also returns the tape `backward` needs: every node's
        hi − lo difference.
        """
        rows = p.shape[1]
        vals = np.empty((self.num_nodes, rows))
        vals[0] = 0.0
        vals[1] = 1.0
        diff = np.empty_like(vals) if keep else None
        for lev in self.levels:
            hi = vals.take(lev.hi, axis=0)
            lo = vals.take(lev.lo, axis=0)
            d = np.subtract(hi, lo, out=diff[lev.start : lev.stop] if keep else hi)
            out = vals[lev.start : lev.stop]
            np.multiply(d, p.take(lev.var, axis=0), out=out)
            out += lo
        roots = vals.take(self.roots, axis=0)
        return (roots, diff) if keep else roots

    def backward(self, p: np.ndarray, tape, root_adjoints: np.ndarray) -> np.ndarray:
        """Gradient of sum(root_adjoints · roots) w.r.t. p, shape (num_vars, rows).

        `tape` comes from `forward(p, keep=True)`; `root_adjoints` has the
        roots' shape.
        """
        n, v = self.num_nodes, self.num_vars
        rows = p.shape[1]
        adj = np.empty((n + len(self.roots), rows))
        adj[n:] = root_adjoints
        weights = np.empty((2 * v + 1, rows))
        weights[:v] = p
        np.subtract(1.0, p, out=weights[v : 2 * v])
        weights[2 * v] = 1.0
        for lev in reversed(self.levels):
            contrib = adj.take(lev.edge_src, axis=0)
            contrib *= weights.take(lev.edge_weight, axis=0)
            np.matmul(lev.edge_sum, contrib, out=adj[lev.start : lev.stop])
        # d(lo + p·(hi − lo))/dp = hi − lo; the tape itself is left as it is
        per_node = adj[2:n]
        per_node *= tape[2:]
        return self._var_sum @ per_node


def is_satisfiable(g: CompiledGuard) -> bool:
    """True iff the guard has at least one model: only false reduces to node 0."""
    return g.root != 0


def is_valid(g: CompiledGuard) -> bool:
    """True iff every interpretation is a model: only true reduces to node 1."""
    return g.root == 1


def witness(g: CompiledGuard, value: bool = True) -> Interpretation | None:
    """An interpretation on which the guard is `value`, or None if there is none.

    One walk from the root, at most one step per variable. Every decision
    node of a reduced diagram reaches both constants, so the walk takes
    the lo branch unless lo is the wrong constant. Variables the walk does
    not set are false.
    """
    target = 1 if value else 0
    i, mask = g.root, 0
    while i >= 2:
        var, hi, lo = g.nodes[i]
        if lo == 1 - target:
            mask |= 1 << var
            i = hi
        else:
            i = lo
    return Interpretation(mask, g.num_vars) if i == target else None
