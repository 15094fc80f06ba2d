"""Propositional guard formulas over a fixed vocabulary.

Formulas are immutable ASTs (shareable across threads) over variables
identified by their position in a Vocabulary. Interpretations are total
truth assignments stored as bitmasks, so "the set {tired}" always means
every other variable is false.

The module also hosts the exhaustive model enumerator, exponential on
purpose. It serves dataset generation, the enumerative baseline and the
tests' oracles; witnesses come from the decision diagram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    GuardSyntaxError,
    InputError,
    UndeclaredVariableError,
    VocabularyTooLargeError,
)

# Exhaustive enumeration walks 2^|V| interpretations; cap it well before
# that becomes an accidental denial of service.
MAX_ENUM_VARS = 24


@dataclass(frozen=True)
class Variable:
    """A named propositional variable at a fixed vocabulary position."""

    name: str
    index: int


@dataclass(frozen=True)
class Vocabulary:
    """Ordered, duplicate-free collection of variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in vocabulary: {self.names}")
        # identifier -> its formula, built once: parsing looks up every
        # identifier with one get. `true` and `false` are the constants
        # whatever the names; a name that is no identifier is never a token.
        # Not a field, so equality and hashing still compare names only.
        atoms = {name: Var(i) for i, name in enumerate(self.names) if name.isidentifier()}
        object.__setattr__(self, "_atoms", {**atoms, "true": TRUE, "false": FALSE})

    @classmethod
    def of(cls, *names: str) -> "Vocabulary":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[Variable]:
        for i, name in enumerate(self.names):
            yield Variable(name, i)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True)
class Interpretation:
    """Total truth assignment: bit i of `mask` is the value of variable i."""

    mask: int
    size: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.size:
            raise ValueError(f"mask {self.mask} out of range for {self.size} variables")

    def truth(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def true_names(self, vocab: Vocabulary) -> tuple[str, ...]:
        return tuple(v.name for v in vocab if self.truth(v.index))

    def describe(self, vocab: Vocabulary) -> str:
        return "{" + ", ".join(self.true_names(vocab)) + "}"


def all_interpretations(size: int) -> Iterator[Interpretation]:
    """Yield every interpretation over `size` variables, mask-ascending."""
    if size > MAX_ENUM_VARS:
        raise VocabularyTooLargeError(
            f"refusing to enumerate 2^{size} interpretations (limit {MAX_ENUM_VARS} variables)"
        )
    for mask in range(1 << size):
        yield Interpretation(mask, size)


# --- formula AST -----------------------------------------------------------

class Formula:
    """Base class; concrete nodes below. All nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    index: int


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or requires at least two children")


@dataclass(frozen=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


def f_not(f: Formula) -> Formula:
    if isinstance(f, Const):
        return FALSE if f.value else TRUE
    if isinstance(f, Not):
        return f.child
    return Not(f)


def _fold(node: type, absorbing: Const, fs) -> Formula:
    """Flatten nested `node`s and fold constants: `absorbing` decides the
    whole result, the other constant (the identity) drops out."""
    flat: list[Formula] = []
    for f in fs:
        if isinstance(f, Const):
            if f.value == absorbing.value:
                return absorbing
            continue
        if isinstance(f, node):
            flat.extend(f.children)
        else:
            flat.append(f)
    if not flat:
        return f_not(absorbing)
    if len(flat) == 1:
        return flat[0]
    return node(tuple(flat))


def f_and(*fs: Formula) -> Formula:
    """N-ary conjunction with constant folding and associativity flattening."""
    return _fold(And, FALSE, fs)


def f_or(*fs: Formula) -> Formula:
    """N-ary disjunction with constant folding and associativity flattening."""
    return _fold(Or, TRUE, fs)


def f_implies(a: Formula, b: Formula) -> Formula:
    return f_or(f_not(a), b)


def evaluate(f: Formula, omega: Interpretation) -> bool:
    """Standard boolean semantics of `f` under the total assignment `omega`."""
    if isinstance(f, Var):
        if f.index >= omega.size:
            raise ValueError(
                f"variable index {f.index} out of range for interpretation of size {omega.size}"
            )
        return omega.truth(f.index)
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.child, omega)
    if isinstance(f, And):
        return all(evaluate(c, omega) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(c, omega) for c in f.children)
    raise TypeError(f"not a formula node: {f!r}")


def enumerate_models(f: Formula, vocab_size: int) -> set[Interpretation]:
    """All interpretations satisfying `f`, over the full vocabulary.

    Exponential in vocab_size; guarded at MAX_ENUM_VARS variables. It
    serves dataset generation, the enumerative baseline and the tests.
    """
    return {w for w in all_interpretations(vocab_size) if evaluate(f, w)}


# --- concrete syntax -------------------------------------------------------
#
# expr := impl
# impl := or ("->" or)?
# or   := and ("|" and)*
# and  := not ("&" not)*
# not  := "!" not | atom
# atom := ident | "true" | "false" | "(" expr ")"
#
# Precedence: ! > & > | > ->, with "a -> b" read as "!a | b".

# A token, or any other visible character: findall gives '' for those, and
# the error path reports them first, at their position.
_TOKEN_RE = re.compile(r"(->|[()!&|]|[A-Za-z_][A-Za-z0-9_]*)|\S")


class _Parser:
    """Recursive descent over the token list, which ends in None.

    `at` indexes the next token. Token positions are computed only when an
    error is raised.
    """

    def __init__(self, text: str, vocab: Vocabulary):
        self.text = text
        self.atoms = vocab._atoms
        self.tokens = _TOKEN_RE.findall(text) + [None]
        self.at = 0

    def error(self, cls: type, arg: str) -> InputError:
        """`cls(arg, position)` at token `at`; but if the text holds an
        unexpected character, that error at the first one."""
        starts = []
        for m in _TOKEN_RE.finditer(self.text):
            if m.group(1) is None:
                return GuardSyntaxError(f"unexpected character {m.group()!r}", m.start())
            starts.append(m.start())
        starts.append(len(self.text))
        return cls(arg, starts[self.at])

    def parse(self) -> Formula:
        f = self.impl()
        tok = self.tokens[self.at]
        if tok is not None:
            raise self.error(GuardSyntaxError, f"unexpected token {tok!r}")
        return f

    def impl(self) -> Formula:
        left = self.disjunction()
        if self.tokens[self.at] == "->":
            self.at += 1
            return f_implies(left, self.disjunction())
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.tokens[self.at] == "|":
            self.at += 1
            parts.append(self.conjunction())
        return f_or(*parts) if len(parts) > 1 else parts[0]

    def conjunction(self) -> Formula:
        parts = [self.negation()]
        while self.tokens[self.at] == "&":
            self.at += 1
            parts.append(self.negation())
        return f_and(*parts) if len(parts) > 1 else parts[0]

    def negation(self) -> Formula:
        # a run of `!` in one loop: f_not twice gives back what it made
        odd = False
        while self.tokens[self.at] == "!":
            self.at += 1
            odd = not odd
        return f_not(self.atom()) if odd else self.atom()

    def atom(self) -> Formula:
        tok = self.tokens[self.at]
        f = self.atoms.get(tok)
        if f is not None:
            self.at += 1
            return f
        if tok == "(":
            self.at += 1
            inner = self.impl()
            if self.tokens[self.at] != ")":
                raise self.error(GuardSyntaxError, "expected ')'")
            self.at += 1
            return inner
        if tok is None:
            raise self.error(GuardSyntaxError, "unexpected end of expression")
        if tok in ("->", ")", "&", "|"):
            raise self.error(GuardSyntaxError, f"unexpected token {tok!r}")
        # an identifier, or '' for a character that is no token, which
        # `error` reports in its place
        raise self.error(UndeclaredVariableError, tok)


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """Parse a guard expression; raises GuardSyntaxError / UndeclaredVariableError.

    Parentheses nested too deep for the recursion (about 190 levels at
    Python's default limit) are a GuardSyntaxError."""
    parser = _Parser(text, vocab)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error(GuardSyntaxError, "parentheses nest too deeply") from None


def format_formula(f: Formula, vocab: Vocabulary) -> str:
    """Render `f` in the concrete syntax; parse(format(f)) == f structurally."""

    def render(g: Formula, parent: str) -> str:
        if isinstance(g, Const):
            return "true" if g.value else "false"
        if isinstance(g, Var):
            return vocab.names[g.index]
        if isinstance(g, Not):
            return "!" + render(g.child, "not")
        if isinstance(g, And):
            body = " & ".join(render(c, "and") for c in g.children)
            return f"({body})" if parent in ("not",) else body
        body = " | ".join(render(c, "or") for c in g.children)
        return f"({body})" if parent in ("not", "and") else body

    return render(f, "top")
