"""Exception hierarchy for the symfa package.

Everything raised on purpose derives from SymfaError so callers (and the
CLI) can separate domain failures from programming errors. Input-format
problems (guard syntax, automaton files) derive from InputError; the CLI
maps those to exit code 2 and all other SymfaErrors to exit code 1.
"""

from __future__ import annotations


class SymfaError(Exception):
    """Base class for all domain errors raised by symfa."""


class InputError(SymfaError):
    """A file or expression could not be parsed."""


class GuardSyntaxError(InputError):
    """Syntax error in a guard expression. Carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariableError(InputError):
    """A guard expression references a variable not in the vocabulary."""

    def __init__(self, name: str, position: int):
        super().__init__(f"undeclared variable '{name}' (at position {position})")
        self.name = name
        self.position = position


class SfaFileError(InputError):
    """An automaton description file is malformed. Carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class VocabularyTooLargeError(SymfaError):
    """Exhaustive model enumeration was requested over too many variables."""


class CircuitSizeError(SymfaError):
    """Guard compilation exceeded the configured node budget."""


class NonDeterministicError(SymfaError):
    """Two outgoing guards of one state are jointly satisfiable."""

    def __init__(self, state: str, targets: tuple[str, str], witness):
        self.state = state
        self.targets = targets
        self.witness = witness
        super().__init__(
            f"state '{state}': guards to '{targets[0]}' and '{targets[1]}' "
            f"overlap on {witness}"
        )


class IncompleteError(SymfaError):
    """Some interpretation satisfies no outgoing guard of a state."""

    def __init__(self, state: str, witness):
        self.state = state
        self.witness = witness
        super().__init__(f"state '{state}': no outgoing guard is satisfied by {witness}")


class ConsistencyError(SymfaError):
    """An internal invariant (e.g. transition-matrix row sums) was violated."""


class DivergenceError(SymfaError):
    """Training produced a non-finite loss or non-finite parameters."""


class LogitOverflowError(SymfaError, ValueError):
    """An extractor's logit is not finite. A ValueError, so that `symfa
    infer` names the record; training raises DivergenceError for it."""


class UnsatisfiablePatternError(SymfaError):
    """No trace of the requested length and class exists for the pattern."""
