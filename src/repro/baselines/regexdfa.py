"""A HARE-like regular-expression engine (Section 7.4.3's comparator).

HAWK/HARE [13, 68] accelerate unstructured log queries with parallel
finite state machines compiled from regular expressions — the
general-purpose approach MithriLog's token filter is measured against.
To make that comparison concrete rather than purely arithmetic, this
module implements the same machinery in software, from scratch:

- a regex parser for the classic core: literals, ``.``, character
  classes (``[a-z0-9_]``, negated ``[^...]``), grouping, alternation
  ``|``, and the ``* + ?`` repetitions;
- Thompson construction to an NFA;
- subset construction to a DFA, the form HARE lays onto hardware (one
  state transition per input character per cycle);
- unanchored line search, plus conjunctive/negated combinations so that
  any offloadable token query has a regex equivalent.

The companion throughput/area model carries HARE's published numbers
(400 MB/s in ~55K logic elements on FPGA); the functional engine lets
tests prove both approaches compute the same answers where their query
classes overlap — and that regexes answer substring queries the token
filter cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import QueryParseError

_BYTE_RANGE = range(256)


# ---------------------------------------------------------------------------
# Parsing: pattern text -> AST
# ---------------------------------------------------------------------------

# AST nodes: ("char", frozenset[int]) | ("concat", [n]) | ("alt", [n])
#            | ("star", n) | ("plus", n) | ("opt", n) | ("empty",)


class _Parser:
    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.pos = 0

    def error(self, message: str) -> QueryParseError:
        return QueryParseError(
            f"regex error at {self.pos} in {self.pattern!r}: {message}"
        )

    def peek(self) -> Optional[str]:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise self.error("unexpected end of pattern")
        self.pos += 1
        return ch

    def parse(self):
        node = self._alternation()
        if self.pos != len(self.pattern):
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def _alternation(self):
        branches = [self._concat()]
        while self.peek() == "|":
            self.take()
            branches.append(self._concat())
        return branches[0] if len(branches) == 1 else ("alt", branches)

    def _concat(self):
        parts = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self._repeat())
        if not parts:
            return ("empty",)
        return parts[0] if len(parts) == 1 else ("concat", parts)

    def _repeat(self):
        node = self._atom()
        while self.peek() in ("*", "+", "?"):
            op = self.take()
            kind = {"*": "star", "+": "plus", "?": "opt"}[op]
            node = (kind, node)
        return node

    def _atom(self):
        ch = self.take()
        if ch == "(":
            node = self._alternation()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return node
        if ch == "[":
            return ("char", self._char_class())
        if ch == ".":
            return ("char", frozenset(b for b in _BYTE_RANGE if b != 0x0A))
        if ch == "\\":
            return ("char", self._escape(self.take()))
        if ch in ")|*+?":
            raise self.error(f"misplaced {ch!r}")
        return ("char", frozenset({ord(ch)}))

    def _escape(self, ch: str) -> frozenset[int]:
        classes = {
            "d": frozenset(range(ord("0"), ord("9") + 1)),
            "w": frozenset(
                set(range(ord("a"), ord("z") + 1))
                | set(range(ord("A"), ord("Z") + 1))
                | set(range(ord("0"), ord("9") + 1))
                | {ord("_")}
            ),
            "s": frozenset({0x20, 0x09}),
        }
        if ch in classes:
            return classes[ch]
        return frozenset({ord(ch)})

    def _char_class(self) -> frozenset[int]:
        negate = False
        if self.peek() == "^":
            self.take()
            negate = True
        members: set[int] = set()
        if self.peek() == "]":  # a literal ']' first
            members.add(ord(self.take()))
        while self.peek() != "]":
            ch = self.take()
            if ch == "\\":
                members |= self._escape(self.take())
                continue
            lo = ord(ch)
            if self.peek() == "-" and self.pattern[self.pos + 1 : self.pos + 2] != "]":
                self.take()
                hi = ord(self.take())
                if hi < lo:
                    raise self.error("inverted range")
                members |= set(range(lo, hi + 1))
            else:
                members.add(lo)
        self.take()  # closing ']'
        if negate:
            return frozenset(set(_BYTE_RANGE) - members)
        if not members:
            raise self.error("empty character class")
        return frozenset(members)


# ---------------------------------------------------------------------------
# Thompson NFA
# ---------------------------------------------------------------------------


@dataclass
class _NFA:
    start: int
    accept: int
    # transitions[state] = list of (byteset | None, target); None = epsilon
    transitions: list[list[tuple[Optional[frozenset[int]], int]]] = field(
        default_factory=list
    )

    def new_state(self) -> int:
        self.transitions.append([])
        return len(self.transitions) - 1


def _build_nfa(node) -> _NFA:
    nfa = _NFA(start=0, accept=0, transitions=[])

    def build(n) -> tuple[int, int]:
        kind = n[0]
        if kind == "empty":
            s = nfa.new_state()
            t = nfa.new_state()
            nfa.transitions[s].append((None, t))
            return s, t
        if kind == "char":
            s = nfa.new_state()
            t = nfa.new_state()
            nfa.transitions[s].append((n[1], t))
            return s, t
        if kind == "concat":
            first_s, prev_t = build(n[1][0])
            for part in n[1][1:]:
                s, t = build(part)
                nfa.transitions[prev_t].append((None, s))
                prev_t = t
            return first_s, prev_t
        if kind == "alt":
            s = nfa.new_state()
            t = nfa.new_state()
            for branch in n[1]:
                bs, bt = build(branch)
                nfa.transitions[s].append((None, bs))
                nfa.transitions[bt].append((None, t))
            return s, t
        if kind in ("star", "plus", "opt"):
            inner_s, inner_t = build(n[1])
            s = nfa.new_state()
            t = nfa.new_state()
            nfa.transitions[s].append((None, inner_s))
            if kind in ("star", "opt"):
                nfa.transitions[s].append((None, t))
            nfa.transitions[inner_t].append((None, t))
            if kind in ("star", "plus"):
                nfa.transitions[inner_t].append((None, inner_s))
            return s, t
        raise QueryParseError(f"unknown regex node {kind!r}")

    start, accept = build(node)
    nfa.start, nfa.accept = start, accept
    return nfa


# ---------------------------------------------------------------------------
# Subset construction -> DFA
# ---------------------------------------------------------------------------


class RegexMatcher:
    """A DFA-backed matcher for one pattern (unanchored search).

    The DFA is built eagerly with an alphabet compressed to the byte
    classes the pattern distinguishes — the same trick hardware regex
    engines use to keep transition tables small.
    """

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        ast = _Parser(pattern).parse()
        nfa = _build_nfa(ast)
        self._nfa = nfa
        self._byte_class, num_classes = self._compress_alphabet(nfa)
        self._table, self._accepting = self._determinise(nfa, num_classes)

    # -- alphabet compression -------------------------------------------

    @staticmethod
    def _compress_alphabet(nfa: _NFA) -> tuple[list[int], int]:
        signatures: dict[int, list[int]] = {b: [] for b in _BYTE_RANGE}
        for state, edges in enumerate(nfa.transitions):
            for index, (byteset, _t) in enumerate(edges):
                if byteset is None:
                    continue
                for b in byteset:
                    signatures[b].append((state, index))
        classes: dict[tuple, int] = {}
        byte_class = [0] * 256
        for b in _BYTE_RANGE:
            key = tuple(signatures[b])
            if key not in classes:
                classes[key] = len(classes)
            byte_class[b] = classes[key]
        return byte_class, len(classes)

    # -- determinisation --------------------------------------------------

    def _epsilon_closure(self, states: frozenset[int]) -> frozenset[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for byteset, target in self._nfa.transitions[state]:
                if byteset is None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def _determinise(self, nfa: _NFA, num_classes: int):
        # unanchored search: stay in the start closure on every byte
        start = self._epsilon_closure(frozenset({nfa.start}))
        # representative byte per class
        reps: dict[int, int] = {}
        for b in _BYTE_RANGE:
            reps.setdefault(self._byte_class[b], b)
        table: list[list[int]] = []
        accepting: list[bool] = []
        index: dict[frozenset[int], int] = {}

        def intern(states: frozenset[int]) -> int:
            if states not in index:
                index[states] = len(table)
                table.append([0] * num_classes)
                accepting.append(nfa.accept in states)
            return index[states]

        start_id = intern(start)
        work = [start]
        done = set()
        while work:
            current = work.pop()
            if current in done:
                continue
            done.add(current)
            cur_id = index[current]
            for cls, rep in reps.items():
                targets = set()
                for state in current:
                    for byteset, target in nfa.transitions[state]:
                        if byteset is not None and rep in byteset:
                            targets.add(target)
                nxt = self._epsilon_closure(frozenset(targets) | frozenset({nfa.start}))
                nxt_id = intern(nxt)
                table[cur_id][cls] = nxt_id
                if nxt not in done:
                    work.append(nxt)
        assert index[start] == start_id
        return table, accepting

    # -- matching ----------------------------------------------------------

    @property
    def dfa_states(self) -> int:
        return len(self._table)

    def search(self, data: bytes) -> bool:
        """True when the pattern occurs anywhere in ``data``."""
        state = 0
        if self._accepting[state]:
            return True
        table = self._table
        classes = self._byte_class
        accepting = self._accepting
        for byte in data:
            state = table[state][classes[byte]]
            if accepting[state]:
                return True
        return False


@dataclass(frozen=True)
class RegexPredicate:
    """A conjunction of (optionally negated) regex patterns over a line.

    This is how HARE-style engines express the paper's query class: each
    token becomes a word-boundary-free substring pattern, negations
    invert the verdict. Substring patterns are strictly more general than
    the token filter (they also match inside tokens).
    """

    positives: tuple[RegexMatcher, ...]
    negatives: tuple[RegexMatcher, ...] = ()

    @classmethod
    def of(
        cls, positives: Iterable[str], negatives: Iterable[str] = ()
    ) -> "RegexPredicate":
        return cls(
            positives=tuple(RegexMatcher(p) for p in positives),
            negatives=tuple(RegexMatcher(p) for p in negatives),
        )

    def matches(self, line: bytes) -> bool:
        return all(m.search(line) for m in self.positives) and not any(
            m.search(line) for m in self.negatives
        )


def escape_token(token: bytes) -> str:
    """Escape a literal token for use as a regex pattern."""
    special = set("[]().|*+?\\^")
    return "".join(
        "\\" + chr(b) if chr(b) in special else chr(b) for b in token
    )


# ---------------------------------------------------------------------------
# HARE throughput/area model (published figures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HareModel:
    """HARE's published FPGA operating point [13]."""

    bytes_per_sec: float = 400e6  # FPGA prototype: 400 MB/s
    kluts: float = 55.0  # ~12% of an Arria V ~ 55K LEs
    asic_bytes_per_sec: float = 32e9  # projected 1 GHz ASIC

    @property
    def kluts_per_gbps(self) -> float:
        return self.kluts / (self.bytes_per_sec / 1e9)

    def scan_seconds(self, nbytes: int) -> float:
        return nbytes / self.bytes_per_sec
