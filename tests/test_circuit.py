"""Compiled guards: weighted counts, gradients, structure, sat/validity."""

import random

import numpy as np
import pytest

from symfa import (
    Interpretation,
    Vocabulary,
    circuit,
    compile_guard,
    evaluate,
    is_satisfiable,
    is_valid,
    wmc,
)
from symfa.circuit import KIND_CONST, DiagramTable, wmc_batch, witness
from symfa.errors import CircuitSizeError
from symfa.logic import (
    FALSE,
    TRUE,
    And,
    Const,
    Not,
    Var,
    all_interpretations,
    f_and,
    f_not,
    f_or,
    parse_formula,
)

from conftest import random_formula, wmc_by_enumeration


@pytest.fixture(scope="module")
def worked_example(tbf_vocab):
    f = parse_formula("!fast & (tired | blocked)", tbf_vocab)
    return compile_guard(f, 3)


class TestWmcValues:
    def test_worked_example_value(self, worked_example):
        result = wmc(worked_example, [0.8, 0.3, 0.6])
        assert abs(result.value - 0.344) <= 1e-12

    def test_true_compiles_to_constant_one(self):
        g = compile_guard(TRUE, 3)
        assert g.nodes[g.root] == (KIND_CONST, 1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert wmc(g, rng.uniform(size=3)).value == 1.0

    def test_matches_enumeration_oracle(self):
        rng = random.Random(11)
        nprng = np.random.default_rng(11)
        for _ in range(150):
            num_vars = rng.randint(1, 6)
            f = random_formula(rng, num_vars)
            g = compile_guard(f, num_vars)
            p = nprng.uniform(size=num_vars)
            expected = wmc_by_enumeration(f, num_vars, p)
            assert abs(wmc(g, p).value - expected) <= 1e-12

    def test_degenerate_probabilities_evaluate_the_formula(self, tbf_vocab):
        rng = random.Random(5)
        for _ in range(50):
            f = random_formula(rng, 3)
            g = compile_guard(f, 3)
            for omega in all_interpretations(3):
                p = [1.0 if omega.truth(i) else 0.0 for i in range(3)]
                assert wmc(g, p).value == float(evaluate(f, omega))

    def test_value_stays_in_unit_interval(self):
        rng = random.Random(23)
        nprng = np.random.default_rng(23)
        for _ in range(100):
            f = random_formula(rng, 5)
            g = compile_guard(f, 5)
            value = wmc(g, nprng.uniform(size=5)).value
            assert 0.0 <= value <= 1.0

    def test_complement_identity(self):
        rng = random.Random(29)
        nprng = np.random.default_rng(29)
        for _ in range(100):
            f = random_formula(rng, 4)
            p = nprng.uniform(size=4)
            total = wmc(compile_guard(f, 4), p).value + wmc(compile_guard(f_not(f), 4), p).value
            assert abs(total - 1.0) <= 1e-12

    def test_batched_evaluation_matches_single(self, worked_example):
        rng = np.random.default_rng(1)
        ps = rng.uniform(size=(4, 7, 3))
        values, grads = wmc_batch(worked_example, ps, want_gradient=True)
        for i in range(4):
            for t in range(7):
                single = wmc(worked_example, ps[i, t], want_gradient=True)
                assert abs(values[i, t] - single.value) == 0.0
                assert np.array_equal(grads[i, t], single.gradient)

    def test_dimension_mismatch(self, worked_example):
        with pytest.raises(ValueError):
            wmc(worked_example, [0.5, 0.5])


class TestGradients:
    def test_worked_example_gradient(self, worked_example):
        # d/dp of (1-p_f) * (1 - (1-p_t)(1-p_b)) at [0.8, 0.3, 0.6]
        result = wmc(worked_example, [0.8, 0.3, 0.6], want_gradient=True)
        assert np.allclose(result.gradient, [0.28, 0.08, -0.86], atol=1e-12)

    def test_matches_central_finite_differences(self):
        rng = random.Random(17)
        nprng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            f = random_formula(rng, num_vars)
            g = compile_guard(f, num_vars)
            p = nprng.uniform(0.05, 0.95, size=num_vars)
            grad = wmc(g, p, want_gradient=True).gradient
            for i in range(num_vars):
                up, down = p.copy(), p.copy()
                up[i] += h
                down[i] -= h
                fd = (wmc(g, up).value - wmc(g, down).value) / (2 * h)
                scale = max(abs(fd), abs(grad[i]), 1.0)
                assert abs(grad[i] - fd) <= 1e-5 * scale


def in_order(f, order):
    """`f` with variable order[k] renamed k.

    Its diagram is the one `f` has when the variables are tested in
    `order`, with each variable renamed by its place in `order`.
    """
    if isinstance(f, Var):
        return Var(order.index(f.index))
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return f_not(in_order(f.child, order))
    children = [in_order(c, order) for c in f.children]
    return f_and(*children) if isinstance(f, And) else f_or(*children)


def random_guard(rng, num_vars=None):
    """(formula, guard) over a random vocabulary size, with its variables
    renamed by a random permutation."""
    num_vars = num_vars or rng.randint(1, 6)
    order = rng.sample(range(num_vars), num_vars)
    f = in_order(random_formula(rng, num_vars, depth=4), order)
    return f, compile_guard(f, num_vars)


def truth_table(f, num_vars):
    return tuple(evaluate(f, omega) for omega in all_interpretations(num_vars))


class TestCircuitStructure:
    """Every guard is a reduced ordered decision diagram, canonical for the
    vocabulary's variable order."""

    def test_children_precede_parents(self):
        rng = random.Random(43)
        for _ in range(100):
            _, g = random_guard(rng)
            assert g.nodes[:2] == ((KIND_CONST, 0), (KIND_CONST, 1))
            for i, (_, hi, lo) in enumerate(g.nodes[2:], start=2):
                assert hi < i and lo < i

    def test_variable_order_increases_along_every_edge(self):
        rng = random.Random(41)
        for _ in range(200):
            _, g = random_guard(rng)
            for var, hi, lo in g.nodes[2:]:
                for child in (hi, lo):
                    if child >= 2:
                        assert g.nodes[child][0] > var

    def test_no_redundant_or_duplicate_nodes(self):
        rng = random.Random(47)
        for _ in range(200):
            _, g = random_guard(rng)
            decisions = g.nodes[2:]
            assert all(hi != lo for _, hi, lo in decisions)
            assert len(set(decisions)) == len(decisions)

    def test_every_stored_node_is_reachable(self):
        rng = random.Random(53)
        for _ in range(200):
            _, g = random_guard(rng)
            seen, stack = {0, 1}, [g.root]
            while stack:
                i = stack.pop()
                if i not in seen:
                    seen.add(i)
                    stack.extend(g.nodes[i][1:])
            assert seen == set(range(len(g.nodes)))

    def test_canonical_exactly_for_equivalent_formulas(self):
        rng = random.Random(59)
        equivalent_pairs = 0
        for num_vars in range(1, 6):
            order = rng.sample(range(num_vars), num_vars)
            compiled = []
            for _ in range(60):
                f = random_formula(rng, num_vars, depth=rng.randint(1, 4))
                g = compile_guard(in_order(f, order), num_vars)
                compiled.append((f, truth_table(f, num_vars), (g.nodes, g.root)))
            for k, (f, table, diagram) in enumerate(compiled):
                for f2, table2, diagram2 in compiled[:k]:
                    assert (diagram == diagram2) == (table == table2)
                    equivalent_pairs += f != f2 and table == table2
        assert equivalent_pairs > 100  # the iff is exercised on distinct formulas

    def test_guard_from_a_shared_table_equals_compile_guard(self):
        rng = random.Random(67)
        for _ in range(150):
            num_vars = rng.randint(1, 6)
            order = rng.sample(range(num_vars), num_vars)
            formulas = [
                in_order(random_formula(rng, num_vars, depth=rng.randint(1, 4)), order)
                for _ in range(6)
            ]
            table = DiagramTable(num_vars)
            roots = {}
            for k in rng.sample(range(len(formulas)), len(formulas)):
                roots[k] = table.build(formulas[k])
                table.conj(*roots.values())
                table.disj(*roots.values())
            for k, f in enumerate(formulas):
                alone = compile_guard(f, num_vars)
                shared = table.guard(roots[k])
                assert (shared.nodes, shared.root) == (alone.nodes, alone.root)
                assert shared.dump() == alone.dump()

    def test_building_again_returns_the_same_node_and_adds_none(self):
        rng = random.Random(71)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            order = rng.sample(range(num_vars), num_vars)
            table = DiagramTable(num_vars)
            formulas = [
                in_order(random_formula(rng, num_vars, depth=rng.randint(1, 4)), order)
                for _ in range(4)
            ]
            # a completed self-loop holds the other guards again, negated
            formulas.append(f_or(formulas[0], f_not(f_or(*formulas[1:]))))
            roots = [table.build(f) for f in formulas]
            size = len(table._nodes)
            for k in rng.sample(range(len(formulas)), len(formulas)):
                assert table.build(formulas[k]) == roots[k]
            assert len(table._nodes) == size

    def test_nodes_numbered_in_hi_first_post_order(self):
        # the numbering of Shannon expansion along the order: the hi child's
        # diagram first, then the lo child's, then the node itself
        vocab = Vocabulary.of("a", "b", "c")
        g = compile_guard(parse_formula("a & b | !a & c", vocab), 3)
        assert g.nodes[2:] == ((1, 1, 0), (2, 1, 0), (0, 2, 3))
        assert g.root == 4
        # the same guard over the reversed order: a and c swap names
        g = compile_guard(parse_formula("c & b | !c & a", vocab), 3)
        assert g.nodes[2:] == ((2, 0, 1), (1, 1, 2), (2, 1, 0), (1, 4, 0), (0, 3, 5))
        assert g.root == 6

    def test_node_budget_is_enforced(self, monkeypatch):
        f = f_and(f_or(Var(0), Var(1)), f_or(Var(2), Var(3)), f_or(Var(4), Var(5)))
        monkeypatch.setattr(circuit, "MAX_NODES", 4)
        with pytest.raises(CircuitSizeError):
            compile_guard(f, 6)

    def test_dump_golden(self):
        vocab = Vocabulary.of("a", "b")
        f = parse_formula("a & !b", vocab)
        g = compile_guard(f, 2)
        assert g.dump() == "0 leaf 0 +\n1 leaf 1 -\n2 prod 0 1"


class TestSatValid:
    def test_false_unsat(self):
        assert not is_satisfiable(compile_guard(FALSE, 2))

    def test_excluded_middle_valid(self, tbf_vocab):
        f = parse_formula("tired | !tired", tbf_vocab)
        assert is_valid(compile_guard(f, 3))

    def test_outgoing_guards_of_initial_state_cover_everything(self, tbf_vocab):
        stay = parse_formula("!tired & !blocked", tbf_vocab)
        go = parse_formula("tired | blocked", tbf_vocab)
        assert is_valid(compile_guard(f_or(stay, go), 3))
        assert not is_satisfiable(compile_guard(f_and(stay, go), 3))

    def test_sat_but_not_valid(self, tbf_vocab):
        g = compile_guard(parse_formula("tired", tbf_vocab), 3)
        assert is_satisfiable(g)
        assert not is_valid(g)

    def test_witness_takes_the_value_and_sets_only_what_it_must(self):
        rng = random.Random(61)
        for _ in range(300):
            f, g = random_guard(rng)
            for value in (True, False):
                w = witness(g, value)
                models = [o for o in all_interpretations(g.num_vars) if evaluate(f, o) == value]
                if not models:
                    assert w is None
                    continue
                assert evaluate(f, w) == value
                # the walk sets a variable only where its lo branch is the
                # wrong constant, so clearing any one of them flips the value
                for var in range(g.num_vars):
                    if w.truth(var):
                        cleared = Interpretation(w.mask & ~(1 << var), g.num_vars)
                        assert evaluate(f, cleared) != value

    def test_witness_of_constants(self):
        assert witness(compile_guard(TRUE, 3), True) == Interpretation(0, 3)
        assert witness(compile_guard(TRUE, 3), False) is None
        assert witness(compile_guard(FALSE, 3), True) is None
