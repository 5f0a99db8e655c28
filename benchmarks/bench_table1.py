"""Table 1 — per-program verification statistics (§6).

One benchmark per Table 1 row: each measures the wall time of the
program's *entire* verification (the analogue of the paper's Coq build
time) and records its obligation counts per category (the analogue of the
per-category proof line counts).  The final test assembles the rows into
the rendered table, side by side with the paper's numbers, and asserts
the shape claims (who has "-" entries, who dominates, who is slowest).
"""

from __future__ import annotations

import pytest

from repro.eval.table1 import PAPER_TABLE1, Table1Row, check_shape, render
from repro.eval.loc import modules_loc
from repro.structures.registry import all_programs

from conftest import emit

_ROWS: dict[str, Table1Row] = {}


def _run(info) -> Table1Row:
    report = info.run_verifier()
    assert report.ok, report.pretty()
    row = Table1Row(
        name=info.name,
        obligations=report.counts_by_category(),
        loc=modules_loc(info.modules),
        seconds=report.seconds,
        ok=report.ok,
    )
    _ROWS[info.name] = row
    return row


@pytest.mark.parametrize("info", all_programs(), ids=lambda i: i.name.replace(" ", "-"))
def test_table1_row(benchmark, info):
    benchmark.pedantic(lambda: _run(info), rounds=1, iterations=1)


def test_table1_render_and_shape(benchmark, out_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Fill in any rows not produced in this session (e.g. single-bench runs).
    for info in all_programs():
        if info.name not in _ROWS:
            _run(info)
    rows = [_ROWS[info.name] for info in all_programs()]
    emit(out_dir, "table1.txt", render(rows))
    issues = check_shape(rows)
    assert not issues, issues
    # Paper-relative ordering spot checks.
    seconds = {row.name: row.seconds for row in rows}
    assert seconds["Flat combiner"] == max(seconds.values())
    assert seconds["Ticketed lock"] > seconds["CAS-lock"]
    paper_seconds = {name: vals[6] for name, vals in PAPER_TABLE1.items()}
    assert paper_seconds["Flat combiner"] == max(paper_seconds.values())
