"""Symbolic finite automata with probabilistic guard semantics.

Guards are propositional formulas compiled to tractable circuits; runs
over sequences of per-symbol probabilities are exact, differentiable, and
cheap. The package covers the full loop: parse and validate an automaton,
infer acceptance or per-step state distributions, train a feature-to-symbol
extractor from weak labels, and benchmark against a propositionalizing
baseline.
"""

from .automaton import (
    CompiledSfa,
    Sfa,
    acceptance,
    acceptance_batch,
    accepts_trace,
    complete_self_loops,
    format_sfa,
    forward,
    load_sfa,
    parse_sfa,
    transition_matrix,
    validate_and_compile,
)
from .circuit import CompiledGuard, WmcResult, compile_guard, is_satisfiable, is_valid, wmc
from .errors import (
    CircuitSizeError,
    ConsistencyError,
    DivergenceError,
    GuardSyntaxError,
    IncompleteError,
    InputError,
    NonDeterministicError,
    SfaFileError,
    SymfaError,
    UndeclaredVariableError,
    UnsatisfiablePatternError,
    VocabularyTooLargeError,
)
from .learn import (
    LabeledSequence,
    LinearExtractor,
    TrainConfig,
    TrainResult,
    load_extractor,
    save_extractor,
    sequence_loss,
    tagging_loss,
    train,
)
from .logic import (
    Formula,
    Interpretation,
    Variable,
    Vocabulary,
    enumerate_models,
    evaluate,
    format_formula,
    parse_formula,
)

__version__ = "0.1.0"
