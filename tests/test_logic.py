"""Formula parsing, evaluation, and the exhaustive model enumerator."""

import random

import pytest

from symfa import Interpretation, Vocabulary, enumerate_models, evaluate
from symfa.errors import (
    GuardSyntaxError,
    UndeclaredVariableError,
    VocabularyTooLargeError,
)
from symfa.logic import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Const,
    Var,
    all_interpretations,
    f_and,
    f_not,
    f_or,
    format_formula,
    parse_formula,
)

from conftest import deadline, random_formula, true_of


class TestParser:
    def test_guard_with_precedence_and_parens(self, tbf_vocab):
        f = parse_formula("!fast & (tired | blocked)", tbf_vocab)
        assert f == And((Not(Var(2)), Or((Var(0), Var(1)))))

    def test_constants(self, tbf_vocab):
        assert parse_formula("true", tbf_vocab) == TRUE
        assert parse_formula("false", tbf_vocab) == FALSE

    def test_implication_desugars(self):
        vocab = Vocabulary.of("a", "b")
        assert parse_formula("a -> b", vocab) == Or((Not(Var(0)), Var(1)))

    def test_not_binds_tighter_than_and(self, tbf_vocab):
        f = parse_formula("!tired & blocked", tbf_vocab)
        assert f == And((Not(Var(0)), Var(1)))

    def test_and_binds_tighter_than_or(self, tbf_vocab):
        f = parse_formula("tired & blocked | fast", tbf_vocab)
        assert f == Or((And((Var(0), Var(1))), Var(2)))

    def test_nary_flattening(self, tbf_vocab):
        f = parse_formula("tired & blocked & fast", tbf_vocab)
        assert f == And((Var(0), Var(1), Var(2)))

    def test_wide_conjunction_parses_in_linear_time(self):
        # each identifier is one dict lookup, not a scan of the vocabulary
        names = [f"v{i}" for i in range(20_000)]
        vocab = Vocabulary(tuple(names))
        with deadline(1.0):
            f = parse_formula(" & ".join(names), vocab)
        assert f == And(tuple(Var(i) for i in range(20_000)))

    def test_double_negation_collapses(self, tbf_vocab):
        assert parse_formula("!!tired", tbf_vocab) == Var(0)

    def test_syntax_error_carries_position(self, tbf_vocab):
        with pytest.raises(GuardSyntaxError) as err:
            parse_formula("tired & & fast", tbf_vocab)
        assert err.value.position == 8

    def test_unbalanced_parens(self, tbf_vocab):
        with pytest.raises(GuardSyntaxError):
            parse_formula("(tired | blocked", tbf_vocab)

    def test_trailing_garbage(self, tbf_vocab):
        with pytest.raises(GuardSyntaxError):
            parse_formula("tired blocked", tbf_vocab)

    def test_undeclared_variable_named(self, tbf_vocab):
        with pytest.raises(UndeclaredVariableError) as err:
            parse_formula("tired | sleepy", tbf_vocab)
        assert err.value.name == "sleepy"

    def test_chained_implication_rejected(self):
        vocab = Vocabulary.of("a", "b", "c")
        with pytest.raises(GuardSyntaxError):
            parse_formula("a -> b -> c", vocab)


# Every guard-parser error over the vocabulary (a, b, c): the text, the
# error class and its full message. The first unexpected character anywhere
# in the text wins over every other error.
GUARD_ERRORS = [
    ("a $ b", GuardSyntaxError, "unexpected character '$' (at position 2)"),
    ("a b $", GuardSyntaxError, "unexpected character '$' (at position 4)"),
    ("zz $", GuardSyntaxError, "unexpected character '$' (at position 3)"),
    ("1a", GuardSyntaxError, "unexpected character '1' (at position 0)"),
    ("a - b", GuardSyntaxError, "unexpected character '-' (at position 2)"),
    ("a > b", GuardSyntaxError, "unexpected character '>' (at position 2)"),
    ("é", GuardSyntaxError, "unexpected character 'é' (at position 0)"),
    ("a b", GuardSyntaxError, "unexpected token 'b' (at position 2)"),
    ("a & & b", GuardSyntaxError, "unexpected token '&' (at position 4)"),
    (")", GuardSyntaxError, "unexpected token ')' (at position 0)"),
    ("()", GuardSyntaxError, "unexpected token ')' (at position 1)"),
    ("(a))", GuardSyntaxError, "unexpected token ')' (at position 3)"),
    ("a & (b | c) d", GuardSyntaxError, "unexpected token 'd' (at position 12)"),
    ("a -> b -> c", GuardSyntaxError, "unexpected token '->' (at position 7)"),
    ("(a | b", GuardSyntaxError, "expected ')' (at position 6)"),
    ("(a b", GuardSyntaxError, "expected ')' (at position 3)"),
    ("((a)", GuardSyntaxError, "expected ')' (at position 4)"),
    ("a -> (b", GuardSyntaxError, "expected ')' (at position 7)"),
    ("", GuardSyntaxError, "unexpected end of expression (at position 0)"),
    ("   ", GuardSyntaxError, "unexpected end of expression (at position 3)"),
    ("a &", GuardSyntaxError, "unexpected end of expression (at position 3)"),
    ("a | ", GuardSyntaxError, "unexpected end of expression (at position 4)"),
    ("!!", GuardSyntaxError, "unexpected end of expression (at position 2)"),
    ("a->", GuardSyntaxError, "unexpected end of expression (at position 3)"),
    ("true &", GuardSyntaxError, "unexpected end of expression (at position 6)"),
    ("zz", UndeclaredVariableError, "undeclared variable 'zz' (at position 0)"),
    ("zz b", UndeclaredVariableError, "undeclared variable 'zz' (at position 0)"),
    ("a | zz", UndeclaredVariableError, "undeclared variable 'zz' (at position 4)"),
    ("!(a & zz)", UndeclaredVariableError, "undeclared variable 'zz' (at position 6)"),
    ("a & b9", UndeclaredVariableError, "undeclared variable 'b9' (at position 4)"),
    ("_x", UndeclaredVariableError, "undeclared variable '_x' (at position 0)"),
]


@pytest.mark.parametrize("text,error,message", GUARD_ERRORS)
def test_guard_errors_keep_message_and_position(text, error, message):
    with pytest.raises(error) as err:
        parse_formula(text, Vocabulary.of("a", "b", "c"))
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.position == int(message.rsplit(" ", 1)[1][:-1])


def test_constants_and_operators_are_never_variables():
    # a vocabulary may name `true` or `)`; the parser still reads them as
    # the constant and the parenthesis
    vocab = Vocabulary.of("true", ")", "a")
    assert parse_formula("true & a", vocab) == Var(2)
    with pytest.raises(GuardSyntaxError, match=r"unexpected token '\)' \(at position 4\)"):
        parse_formula("a & )", vocab)


class TestRoundTrip:
    def test_format_then_parse_is_identity(self, tbf_vocab):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, len(tbf_vocab))
            assert parse_formula(format_formula(f, tbf_vocab), tbf_vocab) == f

    def test_bundled_style_guards(self, tbf_vocab):
        for text in ("!tired & !blocked", "tired | blocked", "!fast & (tired | blocked)"):
            f = parse_formula(text, tbf_vocab)
            assert parse_formula(format_formula(f, tbf_vocab), tbf_vocab) == f


_A, _B, _C = Var(0), Var(1), Not(Var(2))


class TestSmartConstructors:
    @pytest.mark.parametrize(
        "build,args,expected",
        [
            (f_and, (), TRUE),
            (f_or, (), FALSE),
            (f_and, (_A,), _A),
            (f_or, (_C,), _C),
            (f_and, (TRUE, _A, TRUE), _A),
            (f_or, (FALSE, _A, FALSE), _A),
            (f_and, (TRUE, TRUE), TRUE),
            (f_or, (FALSE, FALSE), FALSE),
            (f_and, (_A, FALSE, _B), FALSE),
            (f_or, (_A, TRUE, _B), TRUE),
            (f_and, (_A, Const(False)), FALSE),
            (f_or, (Const(True), _A), TRUE),
            (f_and, (_A, TRUE, _B), And((_A, _B))),
            (f_or, (_A, FALSE, _C), Or((_A, _C))),
            (f_and, (And((_A, _B)), _C), And((_A, _B, _C))),
            (f_or, (_A, Or((_B, _C))), Or((_A, _B, _C))),
            (f_and, (Or((_A, _B)), _C), And((Or((_A, _B)), _C))),
            (f_or, (And((_A, _B)), _C), Or((And((_A, _B)), _C))),
        ],
    )
    def test_fold_and_flatten(self, build, args, expected):
        got = build(*args)
        assert got == expected
        if isinstance(expected, Const):
            assert got is (TRUE if expected.value else FALSE)


class TestEvaluate:
    def test_disjunct_satisfied(self, tbf_vocab):
        f = parse_formula("tired | blocked", tbf_vocab)
        assert evaluate(f, true_of(tbf_vocab, ["tired"]))

    def test_violated_conjunct(self, tbf_vocab):
        f = parse_formula("!fast & (tired | blocked)", tbf_vocab)
        assert not evaluate(f, true_of(tbf_vocab, ["fast", "tired"]))

    def test_self_loop_guard_on_empty_interpretation(self, tbf_vocab):
        f = parse_formula("!tired & !blocked", tbf_vocab)
        assert evaluate(f, Interpretation(0, len(tbf_vocab)))

    def test_size_mismatch_rejected(self, tbf_vocab):
        f = parse_formula("fast", tbf_vocab)
        with pytest.raises(ValueError):
            evaluate(f, Interpretation(0, 2))

    def test_de_morgan(self):
        vocab = Vocabulary.of("a", "b")
        lhs = f_not(f_and(Var(0), Var(1)))
        rhs = f_or(f_not(Var(0)), f_not(Var(1)))
        for omega in all_interpretations(2):
            assert evaluate(lhs, omega) == evaluate(rhs, omega)


class TestEnumerateModels:
    def test_worked_example_has_three_models(self, tbf_vocab):
        f = parse_formula("!fast & (tired | blocked)", tbf_vocab)
        models = enumerate_models(f, 3)
        names = {m.true_names(tbf_vocab) for m in models}
        assert names == {("tired",), ("blocked",), ("tired", "blocked")}

    def test_false_has_no_models(self):
        assert enumerate_models(FALSE, 3) == set()

    def test_matches_truth_table_on_random_formulas(self):
        rng = random.Random(3)
        for _ in range(100):
            f = random_formula(rng, 3)
            models = enumerate_models(f, 3)
            for omega in all_interpretations(3):
                assert (omega in models) == evaluate(f, omega)

    def test_vocabulary_size_guard(self):
        with pytest.raises(VocabularyTooLargeError):
            enumerate_models(Var(0), 25)


class TestVocabulary:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.of("a", "b", "a")

    def test_variables_carry_indices(self, tbf_vocab):
        assert [(v.name, v.index) for v in tbf_vocab] == [
            ("tired", 0),
            ("blocked", 1),
            ("fast", 2),
        ]

    def test_interpretation_shorthand(self, tbf_vocab):
        omega = Interpretation(0b011, len(tbf_vocab))
        assert omega.true_names(tbf_vocab) == ("tired", "blocked")
        assert omega.describe(tbf_vocab) == "{tired, blocked}"
