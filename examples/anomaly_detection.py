"""Finding an error storm with time-bounded queries and template tagging.

An operator's view of a fault storm, end to end:

1. stream a Spirit2-like corpus with an *injected fault storm* into
   MithriLog, with an index snapshot every 20 seconds of log time so
   queries can be time-bounded,
2. ask the store how many ``error`` lines each 20-second window holds:
   one time-bounded query per window, which reads only the pages the
   snapshots around that window bound,
3. flag the windows whose count stands far above the quiet prefix,
4. extract the template library with FT-tree, tag the flagged windows'
   error lines with the wire-speed tagger, and name the storm's template.

Run with::

    python examples/anomaly_detection.py
"""

import math
import statistics

from repro import MithriLogSystem, parse_query
from repro.core.tagger import TemplateTagger
from repro.datasets import generator_for
from repro.system.streaming import StreamingIngestor
from repro.templates import FTTree, FTTreeParams


def build_corpus() -> tuple[list[bytes], list[float], float]:
    """Normal traffic with a 2-minute EXT3 error storm injected."""
    lines = generator_for("Spirit2").generate(9_000)
    epochs = [float(line.split()[1]) for line in lines]
    storm_start = epochs[len(epochs) * 2 // 3]
    storm_lines = []
    storm_epochs = []
    for i in range(700):
        ts = storm_start + (120 * i / 700)
        storm_epochs.append(ts)
        storm_lines.append(
            (
                f"EXT3 {int(ts)} 2005.06.10 sn144 Jun 10 04:11:{i % 60:02d} "
                f"sn144/sn144 kernel: EXT3-fs error (device sd(8,{i % 16})): "
                f"ext3_find_entry: reading directory #{5000 + i} offset {i}"
            ).encode()
        )
    # splice the storm in at its time position
    cut = len(epochs) * 2 // 3
    lines = lines[:cut] + storm_lines + lines[cut:]
    epochs = epochs[:cut] + storm_epochs + epochs[cut:]
    order = sorted(range(len(epochs)), key=epochs.__getitem__)
    return [lines[i] for i in order], [epochs[i] for i in order], storm_start


def main() -> None:
    print("building a corpus with an injected EXT3 error storm...")
    lines, epochs, storm_start = build_corpus()

    window_s = 20.0
    system = MithriLogSystem()
    ingestor = StreamingIngestor(system, batch_lines=256, snapshot_every_s=window_s)
    ingestor.extend(lines, epochs)
    ingestor.flush()
    print(f"ingested {len(lines):,} lines into {len(system.index.data_pages)} pages")
    first = epochs[0]
    num_windows = math.floor((epochs[-1] - first) / window_s) + 1
    storm_window = math.floor((storm_start - first) / window_s)
    print(f"\ncounting error lines per {window_s:.0f}-second window "
          f"({num_windows} windows, storm begins in window {storm_window}):")
    errors = parse_query("error")
    counts, matched, pages_read = [], [], 0
    for w in range(num_windows):
        start = first + w * window_s
        outcome = system.query(errors, time_range=(start, start + window_s))
        pages_read += outcome.stats.candidate_pages
        # snapshots bound pages, not lines: a page may straddle the window
        in_window = [
            line for line in outcome.matched_lines
            if start <= float(line.split()[1]) < start + window_s
        ]
        counts.append(len(in_window))
        matched.append(in_window)
    print(f"  {counts}")
    print(f"  {pages_read / num_windows:.1f} pages read per window query")

    # the quiet prefix sets the baseline, as a detector trained before
    # the incident would see it
    quiet = counts[:storm_window]
    threshold = statistics.mean(quiet) + 3 * statistics.pstdev(quiet)
    flagged = [w for w, count in enumerate(counts) if count > threshold]
    print(f"  threshold {threshold:.1f} error lines; flagged windows: {flagged}")
    assert any(w >= storm_window for w in flagged), "the storm must be flagged"
    precision = sum(1 for w in flagged if w >= storm_window) / len(flagged)
    print(f"  {100 * precision:.0f}% of flags fall inside the storm era")

    print("\nextracting templates and tagging the flagged error lines...")
    tree = FTTree.from_lines(
        lines, FTTreeParams(max_depth=10, prune_threshold=32, max_doc_frequency=0.9)
    )
    tagger = TemplateTagger.from_tree(tree)
    tagged = sum(1 for line in lines if tagger.tag_line(line) is not None)
    print(
        f"  {len(tree.templates)} templates, {tagger.num_passes} accelerator "
        f"passes, {100 * tagged / len(lines):.0f}% of lines tagged"
    )
    histogram = tagger.histogram([line for w in flagged for line in matched[w]])
    storm_tag, storm_count = max(
        ((tag, count) for tag, count in histogram.items() if tag is not None),
        key=lambda item: item[1],
    )
    storm_template = tree.templates[storm_tag]
    print(f"  {storm_count:,} of the flagged lines carry {storm_template}")
    assert b"ext3_find_entry:" in storm_template.tokens, "the storm's template"
    print(f"  its query: {tree.template_query(storm_template)}")
    print("\nstorm detected and named.")


if __name__ == "__main__":
    main()
