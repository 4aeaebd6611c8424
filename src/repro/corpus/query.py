"""Boolean search queries over a corpus.

Database searches are the entry point of an SMS ("(workflow OR pipeline)
AND (HPC OR cloud) AND NOT survey").  This module implements a small query
language with a recursive-descent parser, an explicit AST, and an
evaluator over :class:`~repro.corpus.publication.Publication` text:

Grammar::

    expr    := or
    or      := and ("OR" and)*
    and     := not ("AND" not)*      # juxtaposition also means AND
    not     := "NOT" not | atom
    atom    := "(" expr ")" | '"phrase"' | term

Terms match whole words case-insensitively; quoted phrases match
contiguously; ``term*`` performs prefix matching.  Parentheses and
``NOT`` may nest at most :data:`MAX_QUERY_DEPTH` levels deep.

The parser builds an AST (:class:`TermNode`, :class:`PhraseNode`,
:class:`AndNode`, :class:`OrNode`, :class:`NotNode`) that a
:class:`Query` compiles into matcher closures.  Keeping the AST around —
rather than compiling straight to closures — is what lets the persistent
store (:mod:`repro.corpus.store`) plan candidate sets from its inverted
term index instead of scanning every record.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Union

from repro.errors import QueryError

__all__ = [
    "MAX_QUERY_DEPTH",
    "Query",
    "QueryNode",
    "TermNode",
    "PhraseNode",
    "AndNode",
    "OrNode",
    "NotNode",
]

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\() |
        (?P<rparen>\)) |
        (?P<phrase>"[^"]*") |
        (?P<word>[\w*+.-]+)
    )""",
    re.VERBOSE,
)

Matcher = Callable[[str], bool]

#: Deepest nesting of ``(`` and ``NOT`` a query may use.  The parser, the
#: matcher compiler and the store's candidate planner all recurse once
#: per level, so the bound keeps a hostile query (``((((...``) a
#: :class:`~repro.errors.QueryError` instead of a ``RecursionError``.
#: Flat ``OR``/``AND`` chains of any length parse iteratively.
MAX_QUERY_DEPTH = 100


def _tokenize_query(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise QueryError(f"cannot tokenize query near {remainder[:20]!r}")
        pos = match.end()
        for group in ("lparen", "rparen", "phrase", "word"):
            value = match.group(group)
            if value is not None:
                tokens.append(value)
                break
    return tokens


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TermNode:
    """A single search term, optionally a ``term*`` prefix wildcard.

    Attributes
    ----------
    term:
        The lowercased term text (without the trailing ``*``).
    prefix:
        True for ``term*`` prefix matching.
    """

    term: str
    prefix: bool = False


@dataclass(frozen=True, slots=True)
class PhraseNode:
    """A quoted phrase that must match contiguously (lowercased)."""

    phrase: str


@dataclass(frozen=True, slots=True)
class NotNode:
    """Negation of one operand."""

    operand: "QueryNode"


@dataclass(frozen=True, slots=True)
class AndNode:
    """Conjunction of two or more operands."""

    operands: tuple["QueryNode", ...]


@dataclass(frozen=True, slots=True)
class OrNode:
    """Disjunction of two or more operands."""

    operands: tuple["QueryNode", ...]


QueryNode = Union[TermNode, PhraseNode, NotNode, AndNode, OrNode]


# -- parsing -----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_QUERY_DEPTH:
            raise QueryError(
                f"query nests deeper than {MAX_QUERY_DEPTH} levels"
            )

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> QueryNode:
        node = self.parse_or()
        if self.peek() is not None:
            raise QueryError(f"unexpected token {self.peek()!r}")
        return node

    def parse_or(self) -> QueryNode:
        parts = [self.parse_and()]
        while self.peek() is not None and self.peek().upper() == "OR":
            self.advance()
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return OrNode(tuple(parts))

    def parse_and(self) -> QueryNode:
        parts = [self.parse_not()]
        while True:
            token = self.peek()
            if token is None or token == ")" or token.upper() == "OR":
                break
            if token.upper() == "AND":
                self.advance()
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        return AndNode(tuple(parts))

    def parse_not(self) -> QueryNode:
        token = self.peek()
        if token is not None and token.upper() == "NOT":
            self.advance()
            self.descend()
            node = NotNode(self.parse_not())
            self.depth -= 1
            return node
        return self.parse_atom()

    def parse_atom(self) -> QueryNode:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        if token == "(":
            self.advance()
            self.descend()
            inner = self.parse_or()
            if self.peek() != ")":
                raise QueryError("missing closing parenthesis")
            self.advance()
            self.depth -= 1
            return inner
        if token == ")":
            raise QueryError("unexpected ')'")
        self.advance()
        if token.startswith('"'):
            phrase = token[1:-1].strip().lower()
            if not phrase:
                raise QueryError("empty phrase")
            return PhraseNode(phrase)
        if token.upper() in ("AND", "OR", "NOT"):
            raise QueryError(f"operator {token!r} used as a term")
        term = token.lower()
        if term.endswith("*"):
            prefix = term[:-1]
            if not prefix:
                raise QueryError("bare '*' is not a valid term")
            return TermNode(prefix, prefix=True)
        return TermNode(term)


# -- compilation -------------------------------------------------------------


def _compile(node: QueryNode) -> Matcher:
    """Compile an AST node into a matcher closure over lowercased text."""
    if isinstance(node, PhraseNode):
        pattern = re.compile(
            r"\b" + re.escape(node.phrase).replace(r"\ ", r"\s+") + r"\b"
        )
        return lambda text: bool(pattern.search(text))
    if isinstance(node, TermNode):
        if node.prefix:
            pattern = re.compile(r"\b" + re.escape(node.term) + r"\w*")
        else:
            pattern = re.compile(r"\b" + re.escape(node.term) + r"\b")
        return lambda text: bool(pattern.search(text))
    if isinstance(node, NotNode):
        inner = _compile(node.operand)
        return lambda text: not inner(text)
    if isinstance(node, AndNode):
        parts = [_compile(part) for part in node.operands]
        return lambda text: all(part(text) for part in parts)
    if isinstance(node, OrNode):
        parts = [_compile(part) for part in node.operands]
        return lambda text: any(part(text) for part in parts)
    raise QueryError(f"unknown query node {node!r}")  # pragma: no cover


class Query:
    """A compiled boolean search query.

    >>> q = Query('(workflow OR pipeline) AND NOT survey')
    >>> q.matches_text("A workflow management system")
    True
    >>> q.matches_text("A survey of workflow systems")
    False

    Attributes
    ----------
    source:
        The original query text.
    ast:
        The parsed :data:`QueryNode` tree — index-aware evaluators
        (:meth:`repro.corpus.store.CorpusStore.search`) walk it to
        resolve candidate sets without a full scan.
    """

    def __init__(self, source: str) -> None:
        if not source or not source.strip():
            raise QueryError("query must be non-empty")
        self.source = source
        tokens = _tokenize_query(source)
        if not tokens:
            raise QueryError("query has no terms")
        self.ast: QueryNode = _Parser(tokens).parse()
        self._matcher = _compile(self.ast)

    def matches_text(self, text: str) -> bool:
        """Whether the query matches a raw text."""
        return self._matcher(text.lower())

    def matches(self, publication) -> bool:
        """Whether the query matches a publication's searchable text."""
        return self.matches_text(publication.searchable_text())

    def filter(self, publications: Iterable) -> list:
        """Publications matching the query, preserving input order."""
        return [pub for pub in publications if self.matches(pub)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({self.source!r})"
