"""Differential tests for the streaming tail: pending ≡ flushed.

``StreamingIngestor.query`` answers from the persisted pages *and* the
lines still waiting in the arrival buffer. The pending lines go through
the scan kernel as the one decoded text a flush would store, under the
program the persisted pass compiled, so asking before :meth:`flush` and
asking after it must give the same answer: the matched lines in order,
the per-query counts and ``lines_kept``. Lines carry carriage returns,
tabs, NUL and 0xff bytes and may be empty — a ``\\r`` inside a line
splits it in the stored text, and the pending route must split it the
same way. Checked on both kernels, for hardware programs and for a
program too large for the hardware that runs in software.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.backend import numpy_or_none
from repro.core.query import parse_query
from repro.errors import QueryError
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor

KERNELS = ["reference"] + (["vectorized"] if numpy_or_none() is not None else [])

PIECES = [
    b"login", b"failed", b"sshd", b"node1", b"log",
    b" ", b" ", b"\t", b"\r", b"\x00", b"\xff",
]
line_strategy = st.lists(st.sampled_from(PIECES), max_size=7).map(b"".join)

ONE = ["login AND failed"]
THREE = ["login AND failed", "login", "sshd AND NOT node1"]
#: nine one-set queries: more than the hardware's eight flag pairs
NINE = [
    "login", "failed", "sshd", "node1", "log", "login AND failed",
    "sshd AND NOT failed", "node1 AND login", "failed AND NOT login",
]
PROGRAMS = {"one": ONE, "three": THREE, "nine-software": NINE}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@settings(max_examples=60, deadline=None)
@given(
    persisted=st.lists(line_strategy, min_size=1, max_size=6),
    pending=st.lists(line_strategy, min_size=1, max_size=12),
)
@example(
    persisted=[b"node1 sshd"],
    pending=[b"node2 sshd\rlogin failed", b"node3 login\r", b"node1 kernel: ok"],
)
def test_pending_answer_equals_flushed_answer(kernel, program, persisted, pending):
    queries = [parse_query(text) for text in PROGRAMS[program]]
    ingestor = StreamingIngestor(
        MithriLogSystem(scan_kernel=kernel), batch_lines=10_000
    )
    ingestor.extend(persisted)
    ingestor.flush()
    ingestor.extend(pending)

    before = ingestor.query(*queries)
    stored_only = ingestor.query(*queries, include_pending=False)
    assert before.stats.offloaded is (program != "nine-software")
    text = b"\n".join(pending) + b"\n"
    assert before.stats.lines_seen - stored_only.stats.lines_seen == len(
        text.splitlines()
    )

    ingestor.flush()
    after = ingestor.query(*queries)
    assert before.matched_lines == after.matched_lines
    assert before.per_query_counts == after.per_query_counts
    assert before.stats.lines_kept == after.stats.lines_kept


def test_query_before_anything_is_persisted_rejected():
    system = MithriLogSystem()
    ingestor = StreamingIngestor(system, batch_lines=10_000)
    ingestor.extend([b"node2 sshd login failed"])
    with pytest.raises(QueryError):
        system.query(parse_query("login"))
    with pytest.raises(QueryError):
        ingestor.query(parse_query("login"))
