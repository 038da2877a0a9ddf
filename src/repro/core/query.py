"""Query algebra: unions of intersection sets of (optionally negated) terms.

This is the exact query class the hardware supports (Equation 1):

    (not A and B and C) or (not D and not E and F and G)

A :class:`Query` is a union of :class:`IntersectionSet`; each intersection
set is a conjunction of :class:`Term`, where a term is a token that must
(or, when ``negative``, must not) appear in the log line, wherever it
stands in the line: the FT-tree template queries of the evaluation
(Section 7.1) are position-free, so Section 4.3's column field is not
modelled.

The module also provides :func:`parse_query`, a parser for a textual
boolean form (``"failed" AND NOT "pbs_mom:"``, with ``OR`` and
parentheses). Arbitrary boolean expressions are normalised into the
union-of-intersections form by De Morgan rewriting and distribution, which
is how host software would prepare a query for offload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from repro.errors import QueryError, QueryParseError

#: Cap on DNF blowup during parsing; hardware supports 8 intersection sets,
#: software fallback somewhat more, but unbounded distribution is a bug.
MAX_INTERSECTIONS = 256

TokenLike = Union[str, bytes]


def _as_token(token: TokenLike) -> bytes:
    if isinstance(token, str):
        token = token.encode("utf-8")
    if not isinstance(token, bytes):
        raise QueryError(f"token must be str or bytes, got {type(token).__name__}")
    if not token:
        raise QueryError("empty token is not a valid query term")
    if b" " in token or b"\t" in token or b"\n" in token:
        raise QueryError(
            f"token {token!r} contains a delimiter; tokens are single words"
        )
    return token


@dataclass(frozen=True)
class Term:
    """One query term: a token and an optional negation."""

    token: bytes
    negative: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "token", _as_token(self.token))

    def negated(self) -> "Term":
        return Term(token=self.token, negative=not self.negative)

    def __str__(self) -> str:
        """The term as :func:`parse_query` reads it back: the token in
        double quotes, or in single quotes when it holds a double quote.
        A token holding both quote kinds, or bytes that are not UTF-8,
        has no text form that parses back to it."""
        text = self.token.decode("utf-8", "replace")
        prefix = "NOT " if self.negative else ""
        quote = "'" if '"' in text else '"'
        return f"{prefix}{quote}{text}{quote}"


@dataclass(frozen=True)
class IntersectionSet:
    """A conjunction of terms; all must hold for a line to match."""

    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("an intersection set needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def of(cls, *terms: Union[Term, TokenLike]) -> "IntersectionSet":
        """Convenience constructor: bare tokens become positive terms."""
        built = tuple(
            t if isinstance(t, Term) else Term(token=t) for t in terms
        )
        return cls(terms=built)

    @cached_property
    def positives(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if not t.negative)

    @cached_property
    def negatives(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.negative)

    @cached_property
    def is_contradictory(self) -> bool:
        """True when some token appears both positive and negative, making
        the set unsatisfiable."""
        seen = {t.token for t in self.positives}
        return any(t.token in seen for t in self.negatives)

    def matches_tokens(self, tokens: Sequence[bytes]) -> bool:
        """Reference (software) semantics against a tokenized line."""
        for term in self.terms:
            if (term.token in tokens) == term.negative:
                return False
        return True

    def __str__(self) -> str:
        return "(" + " AND ".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class Query:
    """A union of intersection sets; any matching set matches the line.

    A query with zero intersection sets matches nothing (it arises when
    every branch of a parsed expression is contradictory).
    """

    intersections: tuple[IntersectionSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intersections", tuple(self.intersections))
        if len(self.intersections) > MAX_INTERSECTIONS:
            raise QueryError(
                f"query has {len(self.intersections)} intersection sets; "
                f"the limit is {MAX_INTERSECTIONS}"
            )

    @classmethod
    def of(cls, *intersections: IntersectionSet) -> "Query":
        return cls(intersections=tuple(intersections))

    @classmethod
    def single(cls, *terms: Union[Term, TokenLike]) -> "Query":
        """One-intersection query from tokens/terms."""
        return cls(intersections=(IntersectionSet.of(*terms),))

    def simplified(self) -> "Query":
        """Drop contradictory intersection sets and duplicate terms."""
        kept = []
        seen: set[tuple[Term, ...]] = set()
        for iset in self.intersections:
            if iset.is_contradictory:
                continue
            unique = tuple(dict.fromkeys(iset.terms))
            if unique in seen:
                continue
            seen.add(unique)
            kept.append(IntersectionSet(terms=unique))
        return Query(intersections=tuple(kept))

    @cached_property
    def all_tokens(self) -> frozenset[bytes]:
        return frozenset(
            t.token for iset in self.intersections for t in iset.terms
        )

    @cached_property
    def positive_tokens(self) -> frozenset[bytes]:
        return frozenset(
            t.token
            for iset in self.intersections
            for t in iset.positives
        )

    def matches_tokens(self, tokens: Sequence[bytes]) -> bool:
        return any(iset.matches_tokens(tokens) for iset in self.intersections)

    def matches_line(self, line: bytes) -> bool:
        """Reference semantics against a raw log line."""
        from repro.core.tokenizer import split_tokens

        return self.matches_tokens(split_tokens(line))

    def union(self, other: "Query") -> "Query":
        """Join two queries for concurrent execution (Section 4's OR-join)."""
        return Query(intersections=self.intersections + other.intersections)

    def __or__(self, other: "Query") -> "Query":
        return self.union(other)

    def __str__(self) -> str:
        return " OR ".join(str(i) for i in self.intersections)


# ---------------------------------------------------------------------------
# Parser: boolean expression text -> Query (DNF)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<quoted>"[^"]*"|'[^']*')
      | (?P<word>[^\s()]+)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT"}


class _Lexer:
    def __init__(self, text: str) -> None:
        self.tokens = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        idx = 0
        while idx < len(text):
            match = _TOKEN_RE.match(text, idx)
            if match is None:
                break
            idx = match.end()
            if match.lastgroup == "lparen":
                out.append(("(", "("))
            elif match.lastgroup == "rparen":
                out.append((")", ")"))
            elif match.lastgroup == "quoted":
                out.append(("token", match.group("quoted")[1:-1]))
            else:
                word = match.group("word")
                if word.upper() in _KEYWORDS:
                    out.append((word.upper(), word))
                else:
                    out.append(("token", word))
        if text[idx:].strip():
            raise QueryParseError(f"cannot lex query near {text[idx:]!r}")
        return out

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise QueryParseError("unexpected end of query")
        self.pos += 1
        return token


# AST nodes: ("term", Term) | ("and", [nodes]) | ("or", [nodes]) | ("not", node)
_Node = tuple


def _parse_or(lexer: _Lexer) -> _Node:
    left = _parse_and(lexer)
    branches = [left]
    while lexer.peek() is not None and lexer.peek()[0] == "OR":
        lexer.next()
        branches.append(_parse_and(lexer))
    return ("or", branches) if len(branches) > 1 else left


def _parse_and(lexer: _Lexer) -> _Node:
    left = _parse_not(lexer)
    branches = [left]
    while lexer.peek() is not None and lexer.peek()[0] == "AND":
        lexer.next()
        branches.append(_parse_not(lexer))
    return ("and", branches) if len(branches) > 1 else left


def _parse_not(lexer: _Lexer) -> _Node:
    token = lexer.peek()
    if token is not None and token[0] == "NOT":
        lexer.next()
        return ("not", _parse_not(lexer))
    return _parse_atom(lexer)


def _parse_atom(lexer: _Lexer) -> _Node:
    kind, value = lexer.next()
    if kind == "(":
        node = _parse_or(lexer)
        closing = lexer.next()
        if closing[0] != ")":
            raise QueryParseError("expected ')'")
        return node
    if kind == "token":
        return ("term", Term(token=value))
    raise QueryParseError(f"unexpected {value!r} in query")


def _push_negations(node: _Node, negate: bool = False) -> _Node:
    kind = node[0]
    if kind == "term":
        return ("term", node[1].negated() if negate else node[1])
    if kind == "not":
        return _push_negations(node[1], not negate)
    children = [_push_negations(child, negate) for child in node[1]]
    if kind == "and":
        return ("or" if negate else "and", children)
    if kind == "or":
        return ("and" if negate else "or", children)
    raise QueryParseError(f"unknown node kind {kind!r}")


def _to_dnf(node: _Node) -> list[list[Term]]:
    kind = node[0]
    if kind == "term":
        return [[node[1]]]
    if kind == "or":
        out: list[list[Term]] = []
        for child in node[1]:
            out.extend(_to_dnf(child))
            if len(out) > MAX_INTERSECTIONS:
                raise QueryParseError("query explodes past the DNF size limit")
        return out
    if kind == "and":
        product: list[list[Term]] = [[]]
        for child in node[1]:
            branches = _to_dnf(child)
            product = [p + b for p in product for b in branches]
            if len(product) > MAX_INTERSECTIONS:
                raise QueryParseError("query explodes past the DNF size limit")
        return product
    raise QueryParseError(f"unknown node kind {kind!r}")


def parse_query(text: str) -> Query:
    """Parse a textual boolean query into union-of-intersections form.

    >>> q = parse_query('("failed" AND NOT "pbs_mom:") OR ciod')
    >>> len(q.intersections)
    2
    """
    lexer = _Lexer(text)
    if lexer.peek() is None:
        raise QueryParseError("empty query")
    node = _parse_or(lexer)
    if lexer.peek() is not None:
        raise QueryParseError(f"trailing input at {lexer.peek()[1]!r}")
    node = _push_negations(node)
    conjunctions = _to_dnf(node)
    intersections = tuple(
        IntersectionSet(terms=tuple(terms)) for terms in conjunctions
    )
    return Query(intersections=intersections).simplified()
