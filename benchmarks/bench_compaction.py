"""Compaction memory benchmark for the single-program explorer.

``tracemalloc`` peaks of one mid-size registry exploration with the
dedupe memo storing compact visit records (``compact=True``, the
default) vs pinning whole configurations (``compact=False``).
Compaction must strictly lower the peak: the ``seen`` memo used to pin
every Config it ever saw, so resident memory tracked the whole visited
graph instead of the frontier.  Both runs must agree on the verdict and
the configuration count.  Artifact: ``benchmarks/out/compaction.json``.
"""

from __future__ import annotations

import tracemalloc

from repro.analysis.scenarios import PAPER_SCENARIOS, run_scenario

from conftest import emit, emit_json

#: Two pair-snapshot readers racing a writer under two interference steps.
SCENARIO = "Pair snapshot/rp||wx"


def test_compaction_lowers_peak_memory(out_dir):
    scenario = next(s for s in PAPER_SCENARIOS if s.key == SCENARIO)
    # Untraced warm-up: the first run also allocates one-time state
    # (lazy imports, module-level caches) that would inflate whichever
    # mode is traced first.
    run_scenario(scenario)
    peaks, explored = {}, {}
    for compact in (True, False):
        tracemalloc.start()
        result = run_scenario(scenario, compact=compact)
        __, peaks[compact] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.ok
        explored[compact] = result.explored
    assert explored[True] == explored[False]
    assert peaks[True] < peaks[False], (
        f"compaction did not lower the traced peak: "
        f"{peaks[True]} vs {peaks[False]} bytes"
    )
    payload = {
        "scenario": scenario.key,
        "configs": explored[True],
        "peak_bytes_compact": peaks[True],
        "peak_bytes_pinned": peaks[False],
        "saving": 1 - peaks[True] / peaks[False],
    }
    emit_json(out_dir, "compaction.json", payload)
    emit(
        out_dir,
        "compaction.txt",
        f"compaction  {scenario.key} ({payload['configs']} configs): peak "
        f"{payload['peak_bytes_compact']} B vs {payload['peak_bytes_pinned']} B "
        f"pinned, saving {payload['saving']:.1%}",
    )
