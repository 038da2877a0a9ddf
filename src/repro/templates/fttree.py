"""FT-tree: frequency-tree template extraction (Zhang et al. [84, 85]).

The method, as the paper uses it:

1. Count the global frequency of every token in the corpus.
2. For each line, take its *unique* tokens sorted by descending global
   frequency (position in the line is ignored), truncated to a maximum
   depth, and insert that list as a path into a tree. More-frequent
   tokens therefore sit closer to the root.
3. Prune: a node whose child count exceeds a threshold has its children
   collapsed into a single wildcard — those children are variable fields
   (IP addresses, PIDs, ...), not message structure.
4. Every remaining root-to-leaf path is a template; its non-wildcard
   tokens are the template's keywords.

Section 4.3's observation makes these templates offloadable: a line
belongs to the template whose path its sorted tokens trace, and tracing
is equivalent to requiring all path tokens present plus the *negation of
every higher-frequency sibling* at each branch (lower-frequency siblings
cannot divert the sorted walk). :meth:`FTTree.template_query` implements
exactly that rule, reproducing the paper's
``(A and B)`` / ``(A and C and not B and D and E)`` example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.query import IntersectionSet, Query, Term
from repro.core.tokenizer import split_tokens, stored_lines
from repro.errors import QueryError

#: Marker token for pruned variable fields.
WILDCARD = b"\x00*"


@dataclass(frozen=True)
class FTTreeParams:
    """FT-tree construction parameters (defaults follow [84]'s spirit:
    shallow trees, small fan-out thresholds).

    ``max_doc_frequency`` below 1.0 drops near-universal tokens
    (log-format boilerplate such as month names appearing on every line)
    before path construction — the detagging step log parsers apply so
    that template paths consist of *message* structure, not header
    structure. The default of 1.0 disables it, matching the base
    algorithm; corpora with syslog headers should set ~0.9.
    """

    max_depth: int = 6
    prune_threshold: int = 8
    min_support: int = 2
    max_doc_frequency: float = 1.0

    def __post_init__(self) -> None:
        if self.max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if self.prune_threshold <= 1:
            raise ValueError("prune_threshold must exceed 1")
        if self.min_support <= 0:
            raise ValueError("min_support must be positive")
        if not 0 < self.max_doc_frequency <= 1:
            raise ValueError("max_doc_frequency must be in (0, 1]")


@dataclass
class FTNode:
    """One tree node: a token with its subtree and line support.

    ``count`` is the number of lines whose path passes through this node;
    ``end_count`` the number whose path ends exactly here — templates can
    be prefixes of longer templates, so ends matter, not just leaves.
    """

    token: bytes
    count: int = 0
    end_count: int = 0
    children: dict[bytes, "FTNode"] = field(default_factory=dict)

    @property
    def is_wildcard(self) -> bool:
        return self.token == WILDCARD


@dataclass(frozen=True)
class Template:
    """An extracted template: its keyword path and line support."""

    template_id: int
    tokens: tuple[bytes, ...]
    support: int

    def __str__(self) -> str:
        path = " ".join(t.decode("utf-8", "replace") for t in self.tokens)
        return f"T{self.template_id}<{path}> (x{self.support})"


class FTTree:
    """A built frequency tree with its extracted templates."""

    def __init__(
        self,
        root: FTNode,
        frequencies: Counter,
        params: FTTreeParams,
        stopwords: frozenset[bytes] = frozenset(),
    ) -> None:
        self.root = root
        self.frequencies = frequencies
        self.params = params
        self.stopwords = stopwords
        self.templates: list[Template] = self._extract_templates()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_lines(
        cls, lines: Iterable[bytes], params: Optional[FTTreeParams] = None
    ) -> "FTTree":
        """Build the tree from raw log lines (two passes).

        A line holding a line end is mined as the lines a stored page
        holds for it, so every template's tokens share one stored line.
        """
        params = params if params is not None else FTTreeParams()
        materialised = [
            split_tokens(stored) for line in lines for stored in stored_lines(line)
        ]
        frequencies: Counter = Counter()
        for tokens in materialised:
            frequencies.update(set(tokens))
        if params.max_doc_frequency < 1.0:
            cutoff = params.max_doc_frequency * len(materialised)
            stopwords = frozenset(
                token for token, count in frequencies.items() if count > cutoff
            )
        else:
            stopwords = frozenset()
        root = FTNode(token=b"")
        for tokens in materialised:
            path = cls._sorted_path(
                tokens, frequencies, params.max_depth, stopwords
            )
            cls._insert_path(root, path)
        cls._prune(root, params.prune_threshold)
        return cls(
            root=root, frequencies=frequencies, params=params, stopwords=stopwords
        )

    @staticmethod
    def _sorted_path(
        tokens: Sequence[bytes],
        frequencies: Counter,
        max_depth: int,
        stopwords: frozenset[bytes] = frozenset(),
    ) -> list[bytes]:
        unique = sorted(
            set(tokens) - stopwords, key=lambda t: (-frequencies[t], t)
        )
        return unique[:max_depth]

    @staticmethod
    def _insert_path(root: FTNode, path: Sequence[bytes]) -> None:
        node = root
        node.count += 1
        for token in path:
            child = node.children.get(token)
            if child is None:
                child = FTNode(token=token)
                node.children[token] = child
            node = child
            node.count += 1
        node.end_count += 1

    @classmethod
    def _prune(cls, node: FTNode, threshold: int) -> None:
        if len(node.children) > threshold:
            # high fan-out: these children are a variable field
            wildcard = FTNode(token=WILDCARD)
            wildcard.count = sum(c.count for c in node.children.values())
            wildcard.end_count = sum(c.end_count for c in node.children.values())
            # merge grandchildren under the wildcard so deeper structure,
            # if consistent, survives the collapse
            for child in node.children.values():
                for token, grandchild in child.children.items():
                    kept = wildcard.children.get(token)
                    if kept is None:
                        wildcard.children[token] = grandchild
                    else:
                        cls._merge(kept, grandchild)
            node.children = {WILDCARD: wildcard}
        for child in node.children.values():
            cls._prune(child, threshold)

    @classmethod
    def _merge(cls, into: FTNode, other: FTNode) -> None:
        into.count += other.count
        into.end_count += other.end_count
        for token, child in other.children.items():
            kept = into.children.get(token)
            if kept is None:
                into.children[token] = child
            else:
                cls._merge(kept, child)

    # -- template extraction ----------------------------------------------

    def _extract_templates(self) -> list[Template]:
        # templates are paths where lines *end*; a wildcard end folds into
        # its parent's keyword path, so collect into a dict to merge
        collected: dict[tuple[bytes, ...], int] = {}

        def walk(node: FTNode, path: tuple[bytes, ...]) -> None:
            here = (
                path
                if node.is_wildcard or node.token == b""
                else path + (node.token,)
            )
            if node.end_count and here:
                collected[here] = collected.get(here, 0) + node.end_count
            for child in node.children.values():
                walk(child, here)

        walk(self.root, ())
        survivors = [
            (tokens, support)
            for tokens, support in collected.items()
            if support >= self.params.min_support
        ]
        # deterministic order: by support descending, then path
        survivors.sort(key=lambda item: (-item[1], item[0]))
        return [
            Template(template_id=i, tokens=tokens, support=support)
            for i, (tokens, support) in enumerate(survivors)
        ]

    # -- template -> query compilation (Section 4.3) -----------------------

    def template_query(self, template: Template) -> Query:
        """Compile one template into an offloadable intersection set.

        Path tokens become positive terms; at each branch, siblings with
        *higher* global frequency than the taken edge become negative
        terms (a line containing one would have routed down that sibling
        instead).
        """
        def sort_key(token: bytes) -> tuple[int, bytes]:
            # must be the exact order _sorted_path uses, ties included
            return (-self.frequencies[token], token)

        terms: list[Term] = []
        seen_positive: set[bytes] = set()
        negations: set[bytes] = set()
        node = self.root
        for token in template.tokens:
            child = self._descend(node, token)
            for sibling_token in node.children:
                if sibling_token in (token, WILDCARD):
                    continue
                # a sibling ordered before this token would divert the
                # sorted walk if present, so its absence is required
                if sort_key(sibling_token) < sort_key(token):
                    negations.add(sibling_token)
            seen_positive.add(token)
            terms.append(Term(token))
            node = child
        for neg in sorted(negations - seen_positive):
            terms.append(Term(neg, negative=True))
        if not terms:
            raise QueryError(f"template {template.template_id} has no keywords")
        return Query.of(IntersectionSet(terms=tuple(terms)))

    def _descend(self, node: FTNode, token: bytes) -> FTNode:
        child = node.children.get(token)
        if child is not None:
            return child
        wildcard = node.children.get(WILDCARD)
        if wildcard is not None:
            inner = wildcard.children.get(token)
            if inner is not None:
                return inner
            return wildcard
        raise QueryError(f"template token {token!r} not found in tree")

    # -- classification -----------------------------------------------------

    def classify_line(self, line: bytes) -> Optional[Template]:
        """Find the template a line belongs to by tracing the sorted walk.

        Returns ``None`` when the line's path leaves the tree (no
        template has enough support) — the paper's systems would treat
        such lines as unparsed. A line holding a line end is traced by
        the tokens of its stored lines.
        """
        path = self._sorted_path(
            [token for stored in stored_lines(line) for token in split_tokens(stored)],
            self.frequencies,
            self.params.max_depth,
            self.stopwords,
        )
        node = self.root
        keywords: list[bytes] = []
        for token in path:
            child = node.children.get(token)
            if child is None:
                child = node.children.get(WILDCARD)
                if child is None:
                    break
                node = child
                continue
            node = child
            keywords.append(token)
        wanted = tuple(keywords)
        for template in self.templates:
            if template.tokens == wanted:
                return template
        return None
