"""Validation decided on decision diagrams: exact at any width, never exponential.

Each guard compiles to a reduced ordered decision diagram, on which
validity and satisfiability are a look at the root. A floating-point
count at p = 1/2 misjudges `!(x0 & ... & x59)` (its count 1 − 2^-60
rounds to 1), and a search over all assignments of a wide guard's
support takes time exponential in its width.
"""

import random
import sys
import time

import numpy as np
import pytest

from symfa import (
    Sfa,
    Vocabulary,
    acceptance,
    cli,
    compile_guard,
    format_sfa,
    is_valid,
    load_sfa,
    parse_sfa,
    validate_and_compile,
)
from symfa.bench import random_pattern
from symfa.circuit import DiagramTable
from symfa.cli import main
from symfa.errors import CircuitSizeError, IncompleteError
from symfa.logic import Var, f_and, f_not

from conftest import deadline

WIDE = 60


def all_but_one_interpretation():
    """`!(x0 & ... & x59)`: false only where every variable is true."""
    return f_not(f_and(*(Var(i) for i in range(WIDE))))


def test_sixty_variable_non_tautology_is_not_valid():
    assert not is_valid(compile_guard(all_but_one_interpretation(), WIDE))


def test_sixty_variable_gap_raises_incomplete_without_completion():
    vocab = Vocabulary(tuple(f"x{i}" for i in range(WIDE)))
    sfa = Sfa(vocab, ("q",), 0, {(0, 0): all_but_one_interpretation()}, frozenset({0}))
    with pytest.raises(IncompleteError) as err:
        validate_and_compile(sfa, complete=False)
    assert err.value.witness == "{" + ", ".join(vocab.names) + "}"


def wide_spec(width: int) -> str:
    """q0 splits on a conjunction of one literal per variable and its negation;
    q1 is partial and gets a synthesized self-loop."""
    names = [f"v{i}" for i in range(width)]
    wide = " & ".join(v if k % 2 == 0 else "!" + v for k, v in enumerate(names))
    return "\n".join(
        [
            "vars: " + ", ".join(names),
            "states: q0, q1, q2",
            "initial: q0",
            "accepting: q1",
            f"q0 -> q1 : {wide}",
            f"q0 -> q0 : !({wide})",
            "q1 -> q2 : v3 & !v17",
            "q2 -> q0 : v5 | !v29",
            "q2 -> q2 : !(v5 | !v29)",
        ]
    )


def test_thirty_variable_wide_support_validates_in_under_a_second():
    sfa = parse_sfa(wide_spec(30))
    start = time.perf_counter()
    with deadline(1.0):
        compiled = validate_and_compile(sfa)
    assert time.perf_counter() - start < 1.0
    assert compiled.completed_states == ("q1",)


def with_gaps(sfa: Sfa, rng: random.Random) -> Sfa:
    """`sfa` with one outgoing guard of each state dropped or narrowed to a
    literal, so that completion has gaps to fill, beside a declared
    self-loop or in place of one."""
    transitions = dict(sfa.transitions)
    for q in range(sfa.num_states):
        pair = rng.choice([pair for pair in transitions if pair[0] == q])
        if rng.random() < 0.5:
            del transitions[pair]
        else:
            transitions[pair] = f_and(transitions[pair], Var(rng.randrange(len(sfa.vocab))))
    return Sfa(sfa.vocab, sfa.states, sfa.initial, transitions, sfa.accepting)


def test_every_guard_compiles_like_its_completed_formula(events):
    # synthesized self-loops are made from node ids, not built from their
    # formulas; the diagram is canonical, so both must give the same guard
    rng = random.Random(5)
    automata = [events.sfa, parse_sfa(wide_spec(30))]
    for k in range(40):
        pattern = random_pattern(rng.randint(2, 5), rng.randint(1, 4), seed=3000 + k)
        automata.append(with_gaps(pattern.sfa, rng))
    declared_loop = set()
    for sfa in automata:
        compiled = validate_and_compile(sfa)
        for pair, f in compiled.sfa.transitions.items():
            assert compiled.guards[pair] == compile_guard(f, len(sfa.vocab))
        for name in compiled.completed_states:
            q = sfa.states.index(name)
            declared_loop.add((q, q) in sfa.transitions)
    assert declared_loop == {True, False}


@pytest.mark.parametrize("name", ["driving", "events", "wide"])
def test_validation_builds_each_declared_guard_once(name, request, monkeypatch):
    sfa = parse_sfa(wide_spec(30)) if name == "wide" else request.getfixturevalue(name).sfa
    built, depth = [], [0]
    build = DiagramTable.build

    def outermost_builds(table, f):
        if not depth[0]:
            built.append(f)
        depth[0] += 1
        try:
            return build(table, f)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(DiagramTable, "build", outermost_builds)
    validate_and_compile(sfa)
    assert built == list(sfa.transitions.values())


@pytest.mark.parametrize("name", ["driving", "events", "wide"])
def test_validation_extracts_no_guard(name, request, monkeypatch, tmp_path):
    # `symfa validate` reads only the roots: no guard is extracted from the
    # table, and neither the guards nor the plan is cached on the automaton
    spec = tmp_path / "spec.sfa"
    sfa = parse_sfa(wide_spec(30)) if name == "wide" else request.getfixturevalue(name).sfa
    spec.write_text(format_sfa(sfa))

    def refuse(*args):
        raise AssertionError("validation extracted a guard")

    monkeypatch.setattr(DiagramTable, "extract", refuse)
    monkeypatch.setattr(DiagramTable, "guard", refuse)
    validated = [validate_and_compile(load_sfa(spec))]

    def keep(*args, **kwargs):
        validated.append(validate_and_compile(*args, **kwargs))
        return validated[-1]

    monkeypatch.setattr(cli, "validate_and_compile", keep)
    assert main(["validate", str(spec)]) == 0
    assert len(validated) == 2
    for c in validated:
        assert "guards" not in vars(c) and "_plan" not in vars(c)


def conjunction_spec(path, width: int) -> str:
    """Two states; a moves to b on the conjunction of all `width` variables."""
    names = [f"v{i}" for i in range(width)]
    path.write_text(
        "\n".join(
            [
                "vars: " + ", ".join(names),
                "states: a, b",
                "initial: a",
                "accepting: b",
                "a -> b : " + " & ".join(names),
            ]
        )
    )
    return str(path)


def test_wide_conjunction_compiles_and_validates_in_linear_time(tmp_path, capsys):
    # each operand of the conjunction adds one level on top of the others,
    # and completion negates the whole chain once
    width = 900
    spec = conjunction_spec(tmp_path / "wide.sfa", width)
    with deadline(0.5):
        g = compile_guard(f_and(*(Var(i) for i in range(width))), width)
        assert main(["validate", spec]) == 0
    assert len(g.nodes) == width + 2
    assert capsys.readouterr().out.startswith("valid: 2 states, 3 transitions")


def test_wide_conjunction_validates_and_scores_at_the_default_recursion_limit(tmp_path):
    # the plan build's walk down the 900-level diagram is the deepest
    # recursion from the spec to a score
    assert sys.getrecursionlimit() == 1000
    width = 900
    c = validate_and_compile(load_sfa(conjunction_spec(tmp_path / "wide.sfa", width)))
    # a moves to b only where every variable is true
    ps = np.ones((1, width))
    assert acceptance(c, ps) == 1.0
    ps[0, width // 2] = 0.0
    assert acceptance(c, ps) == 0.0


def test_guard_deeper_than_the_recursion_limit_is_a_domain_error(tmp_path, capsys):
    # extracting a guard from the table recurses once per level; a lowered
    # limit keeps the test small
    limit = sys.getrecursionlimit()
    width = 600
    spec = conjunction_spec(tmp_path / "deep.sfa", width)
    sys.setrecursionlimit(400)
    try:
        with pytest.raises(CircuitSizeError, match="too deep"):
            compile_guard(f_and(*(Var(i) for i in range(width))), width)
        assert main(["validate", spec]) == 1
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().err.startswith("error: guard is too deep")


def test_wide_conjunction_compiles_at_the_default_recursion_limit(tmp_path, capsys):
    # the dump does not recurse, so `compile` reaches as deep as `validate`
    assert sys.getrecursionlimit() == 1000
    width = 900
    assert main(["compile", conjunction_spec(tmp_path / "wide.sfa", width)]) == 0
    a_to_b = capsys.readouterr().out.split("# a -> b\n")[1].split("#")[0].splitlines()
    assert len(a_to_b) == width + 2
    assert a_to_b[2] == f"2 v{width - 1} 1 0" and a_to_b[-1] == f"{width + 1} v0 {width} 0"


@pytest.mark.parametrize("to_file", [False, True])
def test_compile_of_a_guard_too_deep_writes_nothing(tmp_path, capsys, to_file):
    # every guard is extracted before any output; a lowered limit keeps the
    # test small
    limit = sys.getrecursionlimit()
    spec = conjunction_spec(tmp_path / "deep.sfa", 600)
    out = tmp_path / "deep.txt"
    sys.setrecursionlimit(400)
    try:
        assert main(["compile", spec, *(["--out", str(out)] if to_file else [])]) == 1
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert captured.err.startswith("error: guard is too deep")
    assert captured.out == "" and not out.exists()
