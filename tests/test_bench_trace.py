"""The benchmark's per-layer trace still finds the call sites it patches.

perfbench/bench_trace.py wraps gridcast functions at the module attributes
their callers look them up by. A refactor that renames or bypasses one of
those attributes would silently drop its span from the benchmark's trace.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench_trace  # noqa: E402
from gridcast.cli import main  # noqa: E402


def test_trace_records_every_layer(tmp_path):
    tracer = bench_trace.Tracer()
    doc = str(tmp_path / "best.json")
    with bench_trace.installed(tracer), redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        construct = ["construct", "--m", "12", "--n", "6", "--t", "4", "--best", "--out", doc]
        assert main(construct) == 0
        assert main(["exact", "--m", "5", "--n", "5", "--t", "3", "--r", "2"]) == 0
        assert main(["verify", doc]) == 0
    names = {span[0] for span in tracer.spans}
    assert {
        "construct.best_anchor",
        "construct.anchor_sweep",
        "construct.letterbox",
        "lattice.towers_in_window",
        "grid.check_broadcast",
        "solver.search",
        "document.serialize",
        "document.parse",
    } <= names
    assert tracer.counts["construct.anchors_scanned"] == 36
    assert tracer.counts["lattice.towers_emitted"] == 7


def test_deficiency_counter_counts_deficient_vertices(tmp_path):
    tracer = bench_trace.Tracer()
    out = StringIO()
    with bench_trace.installed(tracer), redirect_stdout(out), redirect_stderr(StringIO()):
        assert main(["construct", "--m", "40", "--n", "37", "--t", "3"]) == 0
        payload = json.loads(out.getvalue())
        payload["towers"] = payload["towers"][::2]
        half = tmp_path / "half.json"
        half.write_text(json.dumps(payload), encoding="utf-8")
        # the traced construct above verified its own output: no deficiencies
        assert tracer.counts["grid.deficiencies_reported"] == 0
        out.truncate(0)
        out.seek(0)
        assert main(["verify", str(half)]) == 1
    deficient = int(out.getvalue().split()[1])
    assert deficient > 10
    assert tracer.counts["grid.deficiencies_reported"] == deficient
