"""The token filtering engine — MithriLog's primary contribution (Section 4).

Dataflow (Figure 3): decompressed log text is scattered line-by-line,
round-robin, across an array of tokenizers; tokens are gathered in the
same order by cuckoo-hash filters that evaluate them against a compiled
query; each line yields a keep/drop bit.

Public surface:

- :mod:`repro.core.query` — the union-of-intersections query algebra
  (Equation 1) with a boolean-expression parser and DNF conversion.
- :mod:`repro.core.tokenizer` — the hardware tokenizer model (Figure 4).
- :mod:`repro.core.cuckoo` — the query-encoding cuckoo hash (Figure 5).
- :mod:`repro.core.hashfilter` — bitmap-based evaluation (Figure 6);
  ``Tokenizer.tokenize_line`` → ``HashFilter.evaluate_words`` is the
  bit-faithful word model of one line through a pipeline.
- :mod:`repro.core.engine` — query compilation for the pipelines, with
  concurrent-query support and software fallback.
- :mod:`repro.core.backend` — scan kernel selection (the numpy
  ``vectorized`` kernel vs the pure-Python ``reference`` kernel).
- :mod:`repro.core.vectokenizer` — the offset-array tokenizer feeding
  the vectorized scan kernel.
"""

from repro.core.backend import (
    BackendUnavailableError,
    resolve_kernel,
)
from repro.core.engine import TokenFilterEngine
from repro.core.query import IntersectionSet, Query, Term, parse_query
from repro.core.tokenizer import Tokenizer, TokenWord, split_tokens
from repro.core.vectokenizer import PageTokens, tokenize_page_offsets

__all__ = [
    "BackendUnavailableError",
    "IntersectionSet",
    "PageTokens",
    "Query",
    "Term",
    "TokenFilterEngine",
    "TokenWord",
    "Tokenizer",
    "parse_query",
    "resolve_kernel",
    "split_tokens",
    "tokenize_page_offsets",
]
