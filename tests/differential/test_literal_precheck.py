"""Tests for the scan kernel's literal pre-check.

Before a run is tokenized, a pass of at most ``executor._PRECHECK_SETS``
intersection sets looks for each set's ``executor._PRECHECK_TOKENS``
longest positive tokens as substrings of each page's text; a page where
every set misses one is neither tokenized nor filtered and adds only its
line count to ``lines_seen``. The check runs in both kernels. That every
route's answer stays grep's — facts that occur only inside longer
tokens, pure negations (check off), passes where only some sets can be
ruled out — is :mod:`tests.differential.test_routes`; this file counts
stages: a page the check rules out reaches neither the tokenizer nor the
filter, and the stage profile stays the kernel's — ``filter`` counts
every page and line decided, ``tokenize`` the ones tokenized.
"""

import pytest

from repro.compression.lzah import LZAHCompressor
from repro.core.backend import numpy_or_none
from repro.core.hashfilter import HashFilter
from repro.core.query import Query, Term
from repro.core.softmatch import SoftwareBatchMatcher
from repro.datasets.synthetic import generator_for
from repro.exec import executor
from repro.exec.executor import ScanProgramSpec, _partition_kernel
from repro.params import CuckooParams, LZAHParams
from repro.system.mithrilog import MithriLogSystem

KERNELS = ["reference"] + (["vectorized"] if numpy_or_none() is not None else [])

# ---------------------------------------------------------------------------
# counts: a ruled-out page reaches neither the tokenizer nor the filter
# ---------------------------------------------------------------------------

LINES = generator_for("Liberty2", seed=11).generate(1290)
#: 86-line pages, the size the ingest path packs (~11 KB)
PAGES = [b"".join(line + b"\n" for line in LINES[i : i + 86]) for i in range(0, 1290, 86)]
#: the one page that holds the fact; a \r page, so both line counts run
NEEDLE = b"rare sentinel here\r\nsentinel rare\rnoise\n"
SCAN = PAGES[:7] + [NEEDLE] + PAGES[7:]
RARE = Query.single(b"sentinel", b"rare")
#: never stored: a set holding it is ruled out on every page
ABSENT = b"zz"
#: the pre-check is off for a pure negation and past _PRECHECK_SETS sets
NEGATION = Query.single(Term(b"sentinel", negative=True))
WIDE = tuple(
    Query.single(b"sentinel", b"w%d" % i) for i in range(executor._PRECHECK_SETS + 1)
)


def _spec(queries, offloaded, kernel):
    return ScanProgramSpec(
        queries=tuple(queries), cuckoo_params=CuckooParams(), seed=0,
        offloaded=offloaded, lzah_params=LZAHParams(), kernel=kernel,
    )


def _items(pages):
    codec = LZAHCompressor()
    return [(False, codec.compress(page)) for page in pages]


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of each kernel's tokenizer and filter: ``{stage: [lines]}``."""
    calls = {"tokenize": [], "filter": []}

    def count(owner, name, stage, lines_of):
        raw = getattr(owner, name)

        def counted(*args):
            result = raw(*args)
            calls[stage].append(lines_of(args, result))
            return result

        monkeypatch.setattr(owner, name, counted)

    count(executor, "tokenize_page", "tokenize", lambda a, r: len(r[0]))
    count(HashFilter, "evaluate_token_lists", "filter", lambda a, r: len(r))
    if numpy_or_none() is not None:
        from repro.core import vectokenizer

        count(vectokenizer, "tokenize_page_offsets", "tokenize", lambda a, r: r.num_lines)
        count(HashFilter, "evaluate_token_arrays", "filter", lambda a, r: len(r))
        count(SoftwareBatchMatcher, "evaluate", "filter", lambda a, r: len(r))
    return calls


def _lines(text: bytes) -> int:
    return len(text.splitlines())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("offloaded", [True, False], ids=["offloaded", "software"])
def test_a_ruled_out_page_is_never_tokenized(kernel, offloaded, stage_calls):
    result = _partition_kernel(_spec([RARE], offloaded, kernel), _items(SCAN))
    assert result.data == b"rare sentinel here\nsentinel rare\n"
    assert result.per_query_counts == (2,)
    # one page was tokenized, once; the filter saw its lines alone
    assert stage_calls["tokenize"] == [_lines(NEEDLE)]
    if kernel == "vectorized" or offloaded:
        assert stage_calls["filter"] == [_lines(NEEDLE)]
    # lines_seen and filter units are every line decided; tokenize units
    # are the lines tokenized; calls count pages
    every_line = sum(map(_lines, SCAN))
    assert result.lines_seen == every_line
    assert {stage: (s["calls"], s["units"]) for stage, s in result.stages.items()} == {
        "decompress": (len(SCAN), sum(map(len, SCAN))),
        "tokenize": (1, _lines(NEEDLE)),
        "filter": (len(SCAN), every_line),
    }


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_pass_ruled_out_everywhere_tokenizes_nothing(kernel, stage_calls):
    result = _partition_kernel(_spec([RARE], True, kernel), _items(PAGES))
    assert (result.data, result.lines_kept) == (b"", 0)
    assert stage_calls == {"tokenize": [], "filter": []}
    assert "tokenize" not in result.stages
    assert result.stages["filter"]["units"] == result.lines_seen == sum(map(_lines, PAGES))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "queries", [(NEGATION,), WIDE], ids=["pure-negation", "past-the-set-cap"]
)
def test_the_check_is_off_for_negations_and_wide_passes(kernel, queries, stage_calls):
    assert executor._literal_sets(queries) is None
    result = _partition_kernel(_spec(queries, False, kernel), _items(SCAN))
    tokenized = sum(stage_calls["tokenize"])
    assert tokenized == result.lines_seen == sum(map(_lines, SCAN))
    assert result.stages["tokenize"]["calls"] == len(SCAN)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_set_past_the_token_cap_is_searched_for_its_longest_tokens(kernel, stage_calls):
    # five positive tokens; only the shortest is absent from every page
    query = Query.single(b"sentinel", b"here", b"rare", b"noise", ABSENT)
    assert executor._PRECHECK_TOKENS == 3
    assert executor._literal_sets([query]) == ((b"sentinel", b"noise", b"here"),)
    result = _partition_kernel(_spec([query], True, kernel), _items(SCAN))
    # the needle's page holds the three searched tokens, so it is tokenized
    # and the filter rejects each of its lines; the other pages lack them
    assert stage_calls["tokenize"] == [_lines(NEEDLE)]
    assert (result.data, result.per_query_counts) == (b"", (0,))
    assert result.lines_seen == sum(map(_lines, SCAN))
    system = MithriLogSystem(seed=1, scan_kernel=kernel, cache_pages=0)
    system.ingest([b"sentinel noise here rare"])  # a page lacking only zz
    system.ingest([b"sentinel noise here rare zz"])
    for use_index in (False, True):
        outcome = system.query(query, use_index=use_index)
        assert outcome.matched_lines == [b"sentinel noise here rare zz"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_the_system_profile_tells_tokenized_lines_from_decided_ones(kernel):
    system = MithriLogSystem(seed=1, scan_kernel=kernel, cache_pages=0)
    system.ingest(LINES)
    system.ingest([b"rare sentinel", b"other line"])
    stats = system.query(RARE, use_index=False).stats
    host = stats.host_profile
    assert host["filter"]["units"] == stats.lines_seen
    assert host["filter"]["calls"] == stats.pages_read
    assert 0 < host["tokenize"]["units"] < stats.lines_seen
    assert host["tokenize"]["calls"] < stats.pages_read
    # the device model tokenizes every line at wire speed
    assert stats.profile["tokenize"] == {"calls": stats.pages_read, "units": stats.lines_seen}
