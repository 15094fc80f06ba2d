"""Guard compilation to tractable arithmetic circuits.

A guard formula is compiled once, by Shannon expansion along a variable
order with memoization on the residual subformula, into a circuit whose
sum nodes are deterministic (children have disjoint models) and whose
product nodes are decomposable (children mention disjoint variables).
On that form the probability of the guard under independent per-variable
probabilities is a single bottom-up pass, and its gradient a single
top-down pass, both linear in circuit size.

The circuits are ordered decision diagrams. `Plan` merges the guards of
one automaton into a single hash-consed diagram, levelized by height, so
that evaluating every guard on a block of probability rows, and the
reverse pass for its gradient, cost a few numpy calls per level instead
of interpreting each guard node by node (the layered evaluation of KLay,
Maene et al. 2024). `wmc`/`wmc_batch` still interpret one guard and answer
the satisfiability and validity checks.

Circuits and plans are immutable after construction; evaluation
allocates only local buffers and is safe to run concurrently from
multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import CircuitSizeError
from .logic import Const, Formula, restrict, support

DEFAULT_MAX_NODES = 1_000_000

# Node encodings: ("const", 0|1) | ("leaf", var, positive) |
# ("sum", children) | ("prod", children). Children always precede parents
# in the node array, so array order is a topological order.
KIND_CONST = "const"
KIND_LEAF = "leaf"
KIND_SUM = "sum"
KIND_PROD = "prod"


@dataclass(frozen=True)
class CompiledGuard:
    """Deterministic, decomposable arithmetic circuit for one guard."""

    nodes: tuple[tuple, ...]
    root: int
    num_vars: int

    def __len__(self) -> int:
        return len(self.nodes)

    def dump(self) -> str:
        """One node per line, `<id> <kind> <args...>`, topologically sorted.

        Only nodes reachable from the root are emitted, renumbered in a
        deterministic post-order; the last line is always the root.
        """
        order: list[int] = []
        marks = set()

        def visit(i: int):
            if i in marks:
                return
            marks.add(i)
            node = self.nodes[i]
            if node[0] in (KIND_SUM, KIND_PROD):
                for c in node[1]:
                    visit(c)
            order.append(i)

        visit(self.root)
        renum = {old: new for new, old in enumerate(order)}
        lines = []
        for old in order:
            node = self.nodes[old]
            if node[0] == KIND_CONST:
                lines.append(f"{renum[old]} const {node[1]}")
            elif node[0] == KIND_LEAF:
                sign = "+" if node[2] else "-"
                lines.append(f"{renum[old]} leaf {node[1]} {sign}")
            else:
                args = " ".join(str(renum[c]) for c in node[1])
                lines.append(f"{renum[old]} {node[0]} {args}")
        return "\n".join(lines)


@dataclass
class WmcResult:
    """Probability of the guard and, on request, its gradient w.r.t. p."""

    value: float
    gradient: np.ndarray | None = None


class _Builder:
    """Hash-consing circuit builder with a node budget."""

    def __init__(self, num_vars: int, max_nodes: int):
        self.num_vars = num_vars
        self.max_nodes = max_nodes
        self.nodes: list[tuple] = []
        self.unique: dict[tuple, int] = {}

    def intern(self, node: tuple) -> int:
        found = self.unique.get(node)
        if found is not None:
            return found
        if len(self.nodes) >= self.max_nodes:
            raise CircuitSizeError(
                f"circuit exceeds the {self.max_nodes}-node budget"
            )
        self.nodes.append(node)
        self.unique[node] = len(self.nodes) - 1
        return len(self.nodes) - 1

    def const(self, value: int) -> int:
        return self.intern((KIND_CONST, value))

    def leaf(self, var: int, positive: bool) -> int:
        return self.intern((KIND_LEAF, var, positive))

    def is_const(self, i: int, value: int) -> bool:
        node = self.nodes[i]
        return node[0] == KIND_CONST and node[1] == value

    def product(self, a: int, b: int) -> int:
        if self.is_const(a, 0) or self.is_const(b, 0):
            return self.const(0)
        if self.is_const(a, 1):
            return b
        if self.is_const(b, 1):
            return a
        return self.intern((KIND_PROD, (a, b)))

    def sum(self, a: int, b: int) -> int:
        if self.is_const(a, 0):
            return b
        if self.is_const(b, 0):
            return a
        return self.intern((KIND_SUM, (a, b)))

    def decision(self, var: int, hi: int, lo: int) -> int:
        # p*x + (1-p)*x == x, so equal branches collapse without touching
        # the weighted count.
        if hi == lo:
            return hi
        if self.is_const(hi, 1) and self.is_const(lo, 0):
            return self.leaf(var, True)
        if self.is_const(hi, 0) and self.is_const(lo, 1):
            return self.leaf(var, False)
        return self.sum(
            self.product(self.leaf(var, True), hi),
            self.product(self.leaf(var, False), lo),
        )


def compile_guard(
    f: Formula,
    num_vars: int,
    order: list[int] | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> CompiledGuard:
    """Compile `f` (over `num_vars` variables) by ordered Shannon expansion.

    `order` defaults to vocabulary declaration order. Raises
    CircuitSizeError if the node budget is exceeded.
    """
    if order is None:
        order = list(range(num_vars))
    else:
        order = list(order)
        if sorted(order) != list(range(num_vars)):
            raise ValueError(f"order must be a permutation of 0..{num_vars - 1}")

    builder = _Builder(num_vars, max_nodes)
    position = {var: depth for depth, var in enumerate(order)}
    # the node of a residual formula depends on the formula alone: it
    # branches on its earliest support variable in the order
    memo: dict[Formula, int] = {}

    def shannon(g: Formula) -> int:
        if isinstance(g, Const):
            return builder.const(1 if g.value else 0)
        found = memo.get(g)
        if found is not None:
            return found
        var = order[min(position[v] for v in support(g))]
        hi = shannon(restrict(g, var, True))
        lo = shannon(restrict(g, var, False))
        out = memo[g] = builder.decision(var, hi, lo)
        return out

    root = shannon(f)
    return CompiledGuard(tuple(builder.nodes), root, num_vars)


def _values(g: CompiledGuard, p: np.ndarray) -> list:
    """Bottom-up node values for p of shape (..., num_vars)."""
    out: list = [None] * len(g.nodes)
    for i, node in enumerate(g.nodes):
        kind = node[0]
        if kind == KIND_LEAF:
            out[i] = p[..., node[1]] if node[2] else 1.0 - p[..., node[1]]
        elif kind == KIND_CONST:
            out[i] = np.broadcast_to(np.float64(node[1]), p.shape[:-1])
        else:
            acc = out[node[1][0]]
            for c in node[1][1:]:
                acc = acc + out[c] if kind == KIND_SUM else acc * out[c]
            out[i] = acc
    return out


def _gradient(g: CompiledGuard, p: np.ndarray, vals: list) -> np.ndarray:
    """Top-down adjoint pass; returns dvalue/dp with p's shape."""
    base = p.shape[:-1]
    adj: list = [None] * len(g.nodes)
    adj[g.root] = np.ones(base)
    grad = np.zeros(p.shape)
    for i in range(len(g.nodes) - 1, -1, -1):
        a = adj[i]
        if a is None:
            continue
        node = g.nodes[i]
        kind = node[0]
        if kind == KIND_LEAF:
            if node[2]:
                grad[..., node[1]] += a
            else:
                grad[..., node[1]] -= a
        elif kind == KIND_SUM:
            for c in node[1]:
                adj[c] = a if adj[c] is None else adj[c] + a
        elif kind == KIND_PROD:
            cs = node[1]
            # prefix/suffix products keep the pass exact when child values
            # are zero (plain division would not)
            prefix = [np.ones(base)]
            for c in cs[:-1]:
                prefix.append(prefix[-1] * vals[c])
            suffix = np.ones(base)
            for k in range(len(cs) - 1, -1, -1):
                contrib = a * prefix[k] * suffix
                c = cs[k]
                adj[c] = contrib if adj[c] is None else adj[c] + contrib
                suffix = suffix * vals[c]
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
    """Merged, levelized decision diagram of several guards over one vocabulary.

    compile_guard emits ordered decision diagrams in three node shapes: a
    leaf, prod(leaf, x) and sum(prod(leaf+, hi), prod(leaf−, lo)), where a
    missing prod stands for a constant-1 branch. The plan decodes each
    reachable node into a decision node (var, hi, lo), hash-conses the
    decision nodes of all guards into one array (unreachable nodes are
    never visited), and groups them into levels by height above the
    constants. Evaluating p of shape (num_vars, rows) then costs a few
    numpy calls per level, not per node or per guard, and a reverse pass
    over the same levels yields the gradient of any weighted sum of roots.

    Node 0 is the constant 0, node 1 the constant 1; `roots[k]` is the
    node of guard k. Plans are immutable; evaluation allocates only local
    buffers and is safe to run concurrently.
    """

    def __init__(self, guards: Sequence[CompiledGuard], num_vars: int):
        if any(g.num_vars != num_vars for g in guards):
            raise ValueError(f"every guard must range over {num_vars} variables")
        self.num_vars = num_vars
        decisions: list[tuple[int, int, int]] = []  # (var, hi, lo), merged ids
        unique: dict[tuple[int, int, int], int] = {}
        heights = [0, 0]

        def intern(var: int, hi: int, lo: int) -> int:
            key = (var, hi, lo)
            found = unique.get(key)
            if found is None:
                found = unique[key] = len(decisions) + 2
                decisions.append(key)
                heights.append(1 + max(heights[hi], heights[lo]))
            return found

        roots = []
        for g in guards:
            memo: dict[int, int] = {}

            def literal(i: int) -> tuple[int, bool]:
                node = g.nodes[i]
                if node[0] != KIND_LEAF:
                    raise ValueError("guard circuit is not an ordered decision diagram")
                return node[1], node[2]

            def branch(i: int) -> tuple[int, bool, int]:
                """(var, sign, merged child) of one side of a decision."""
                if g.nodes[i][0] == KIND_PROD:
                    lit, child = g.nodes[i][1]
                    return (*literal(lit), merge(child))
                return (*literal(i), 1)

            def merge(i: int) -> int:
                found = memo.get(i)
                if found is not None:
                    return found
                node = g.nodes[i]
                if node[0] == KIND_CONST:
                    out = node[1]
                elif node[0] == KIND_SUM:
                    var, pos, hi = branch(node[1][0])
                    var_lo, neg, lo = branch(node[1][1])
                    if var_lo != var or not pos or neg:
                        raise ValueError("guard circuit is not an ordered decision diagram")
                    out = intern(var, hi, lo)
                else:
                    var, pos, child = branch(i)
                    out = intern(var, child, 0) if pos else intern(var, 0, child)
                memo[i] = out
                return out

            roots.append(merge(g.root))

        # renumber by height so that each level is one contiguous slice
        order = sorted(range(2, len(heights)), key=lambda i: (heights[i], i))
        renum = {0: 0, 1: 1}
        renum.update({old: new for new, old in enumerate(order, start=2)})
        self.num_nodes = len(heights)
        self.roots = np.array([renum[r] for r in roots], dtype=np.intp)
        var = np.zeros(self.num_nodes, dtype=np.intp)
        hi = np.zeros(self.num_nodes, dtype=np.intp)
        lo = np.zeros(self.num_nodes, dtype=np.intp)
        for old in order:
            v, h, l = decisions[old - 2]
            var[renum[old]], hi[renum[old]], lo[renum[old]] = v, renum[h], renum[l]

        # adjoint edges (receiving node, source row, weight row): a hi child
        # receives adj·p[var], a lo child adj·(1 − p[var]), a root its seed
        # row num_nodes + k with weight 1
        edges = []
        for n in range(2, self.num_nodes):
            edges.append((hi[n], n, var[n]))
            edges.append((lo[n], n, num_vars + var[n]))
        edges.extend((r, self.num_nodes + k, 2 * num_vars) for k, r in enumerate(self.roots))
        edges = [e for e in edges if e[0] >= 2]

        self.levels: list[_Level] = []
        start = 2
        for _, same_height in groupby(heights[old] for old in order):
            stop = start + len(list(same_height))
            into = [e for e in edges if start <= e[0] < stop]
            edge_sum = np.zeros((stop - start, len(into)))
            edge_sum[[e[0] - start for e in into], range(len(into))] = 1.0
            self.levels.append(
                _Level(
                    start,
                    stop,
                    var[start:stop],
                    hi[start:stop],
                    lo[start:stop],
                    np.array([e[1] for e in into], dtype=np.intp),
                    np.array([e[2] for e in into], dtype=np.intp),
                    edge_sum,
                )
            )
            start = stop

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
        diff = tape
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
        # d(lo + p·(hi − lo))/dp = hi − lo
        per_node = diff[2:]
        per_node *= adj[2:n]
        return self._var_sum @ per_node


def is_satisfiable(g: CompiledGuard) -> bool:
    """True iff the guard has at least one model.

    At p = 1/2 every node value is a dyadic rational, so the weighted count
    equals model_count / 2^n exactly and the zero test needs no tolerance.
    """
    value, _ = wmc_batch(g, np.full(g.num_vars, 0.5))
    return float(value) > 0.0


def is_valid(g: CompiledGuard) -> bool:
    """True iff every interpretation is a model (count == 2^n, exactly)."""
    value, _ = wmc_batch(g, np.full(g.num_vars, 0.5))
    return float(value) == 1.0
