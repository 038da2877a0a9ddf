"""Real-time monitoring: the operational layer end to end.

A monitoring agent's life, minute by minute: log lines stream in with
WAL durability, snapshots fire on a time cadence, standing queries run
mid-stream (covering the un-persisted tail), and each era's match count
is printed. At the end, a simulated crash and recovery shows nothing
acknowledged was lost.

Run with::

    python examples/realtime_monitoring.py
"""

import tempfile
from pathlib import Path

from repro import parse_query
from repro.datasets import generator_for
from repro.system.streaming import StreamingIngestor
from repro.system.wal import JournaledMithriLog


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="mithrilog-monitor-"))
    print(f"store: {workdir}")

    print("starting the collector (WAL-durable, snapshot every ~2 min)...")
    journaled = JournaledMithriLog(workdir)
    ingestor = StreamingIngestor(
        journaled.system, batch_lines=300, snapshot_every_s=120.0
    )
    alert_query = parse_query('"Failed" AND "password"')

    lines = generator_for("Liberty2").generate(12_000)
    epochs = [float(line.split()[1]) for line in lines]

    era = len(lines) // 3
    for round_number in range(3):
        chunk = slice(round_number * era, (round_number + 1) * era)
        journaled.wal.append(lines[chunk], epochs[chunk])
        ingestor.extend(lines[chunk], epochs[chunk])
        outcome = ingestor.query(alert_query)  # includes the pending tail
        print(
            f"era {round_number + 1}: {journaled.system.total_lines:,} lines "
            f"persisted, {ingestor.pending_lines} pending, "
            f"{len(outcome.matched_lines):,} alert lines so far"
        )

    ingestor.flush()
    print("\nsimulating a crash (no checkpoint was ever taken)...")
    recovered = JournaledMithriLog.recover(workdir)
    outcome = recovered.query(alert_query)
    print(
        f"recovered store answers identically: "
        f"{len(outcome.matched_lines):,} alert lines over "
        f"{recovered.system.total_lines:,} lines"
    )
    recovered.checkpoint()
    print(f"checkpointed; WAL now {recovered.wal.size_bytes} bytes")


if __name__ == "__main__":
    main()
