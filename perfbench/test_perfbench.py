"""Tests of the benchmark itself: seeded inputs, reference answers, checks."""

import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_reference as ref  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from gridcast import (  # noqa: E402
    BroadcastParams,
    Coord,
    GridDims,
    anchor_raw_counts,
    best_anchor_construct,
    exact_gamma,
    signal_field,
    upper_t2,
)
from gridcast.cli import main  # noqa: E402
from gridcast.solver import SolveResult  # noqa: E402


def cli(*argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_same_seed_same_inputs(name):
    cases = bw.WORKLOADS[name].cases
    assert cases(7) == cases(7)
    assert len(cases(7)) == 9


@pytest.mark.parametrize("name", ["construct-dense", "construct-sparse", "verify-docs"])
def test_seed_changes_inputs_but_not_shapes(name):
    first, second = bw.WORKLOADS[name].cases(1), bw.WORKLOADS[name].cases(2)
    assert first != second
    assert sorted(c.t for c in first) == sorted(c.t for c in second)


def test_corruption_is_seeded():
    payload = {"m": 9, "n": 9, "t": 3, "r": 2, "towers": [[x, 0] for x in range(40)]}
    few = bw.corrupt(payload, "few", random.Random("a"))
    assert few == bw.corrupt(payload, "few", random.Random("a"))
    assert len(few["towers"]) == 40 - bw.FEW_REMOVED
    assert len(bw.corrupt(payload, "half", random.Random("a"))["towers"]) == 20
    assert bw.corrupt(payload, "valid", random.Random("a")) is payload


@pytest.mark.parametrize("m,n,t", [(12, 6, 4), (2, 2, 3), (17, 23, 3), (40, 31, 5), (9, 50, 7)])
def test_reference_best_anchor_matches_the_library(m, n, t):
    counts = anchor_raw_counts(GridDims(m, n), t)
    ax, ay, size = ref.best_anchor(m, n, t)
    assert min(counts, key=lambda a: (counts[a], a)) == Coord(ax, ay)
    assert counts[Coord(ax, ay)] == size
    assert ref.upper_t2(m, n, t) == upper_t2(m, n, t)


def test_reference_best_anchor_pinned():
    # The README's example: 12x6, t=4 gives 7 towers at anchor (0,2).
    assert ref.best_anchor(12, 6, 4) == (0, 2, 7)
    result = best_anchor_construct(GridDims(12, 6), 4)
    assert (result.anchor, len(result.towers)) == (Coord(0, 2), 7)


@pytest.mark.parametrize("m,n,t,k", [(30, 20, 3, 60), (25, 40, 4, 5), (60, 50, 12, 8)])
def test_reference_signal_field_matches_the_library(m, n, t, k):
    rng = np.random.default_rng(k)
    towers = np.unique(np.stack([rng.integers(-t, m + t, k), rng.integers(-t, n + t, k)], 1), axis=0)
    mine = ref.signal_field(m, n, t, towers)
    theirs = signal_field(GridDims(m, n), t, [Coord(int(x), int(y)) for x, y in towers]).values
    assert np.array_equal(mine, theirs)


def test_stamp_cells_counts_clipped_stamps():
    # One tower in the corner of a 4x4 grid at t=3: a 5x5 stamp clipped to 3x3.
    assert ref.stamp_cells(4, 4, 3, [(0, 0)]) == 9
    assert ref.stamp_cells(10, 10, 3, [(5, 5), (9, 0)]) == 25 + 9


def construct_case(m, n, t):
    ax, ay, size = ref.best_anchor(m, n, t)
    return bw.ConstructCase(m, n, t, size, (ax, ay))


def test_construct_check_accepts_output_and_rejects_tampering():
    case = construct_case(30, 22, 3)
    rc, out, err = cli("construct", "--m", "30", "--n", "22", "--t", "3", "--best")
    assert bw.check_construct(case, rc, out, err, None) is None

    payload = json.loads(out)
    dropped = {**payload, "towers": payload["towers"][1:]}
    assert bw.check_construct(case, rc, json.dumps(dropped), err, None)
    # Same size and order rules, but the corner loses its only tower.
    assert payload["towers"][0] == [0, 0]
    moved = {**payload, "towers": sorted(payload["towers"][1:] + [[15, 11]])}
    assert [15, 11] not in payload["towers"]
    assert "less than 2" in bw.check_construct(case, rc, json.dumps(moved), err, None)
    assert bw.check_construct(case, 1, out, err, None)
    assert bw.check_construct(bw.ConstructCase(30, 22, 3, case.size, (1, 1)), rc, out, err, None)


def test_exact_check_accepts_output_and_rejects_tampering():
    case = bw.ExactCase(5, 5, 3, 3, 7)
    result = exact_gamma(GridDims(5, 5), BroadcastParams(3, 3))
    rc, out, err = cli("exact", "--m", "5", "--n", "5", "--t", "3", "--r", "3")
    assert bw.check_exact(case, rc, out, err, result) is None

    assert bw.check_exact(bw.ExactCase(5, 5, 3, 3, 6), rc, out, err, result)
    short = SolveResult("optimal", result.gamma, type(result.witness)(list(result.witness)[1:]),
                        result.nodes_expanded)
    assert bw.check_exact(case, rc, out, err, short)
    assert bw.check_exact(case, rc, out, err, None)


def test_verify_check_rejects_tampering(tmp_path):
    rc, out, _ = cli("construct", "--m", "20", "--n", "15", "--t", "3")
    payload = bw.corrupt(json.loads(out), "few", random.Random(3))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    expect = bw.expected_verify_output(payload)
    rc, out, err = cli("verify", str(path))
    assert expect[0] == 1
    assert bw.check_verify(expect, rc, out, err, None) is None
    assert bw.check_verify(expect, 0, out, err, None)
    assert bw.check_verify(expect, rc, out.replace("signal=", "signal=9"), err, None)


def test_tampered_output_counts_as_failed():
    case = construct_case(14, 9, 3)
    rc, out, err = cli("construct", "--m", "14", "--n", "9", "--t", "3", "--best")
    payload = json.loads(out)
    tampered = json.dumps({**payload, "towers": payload["towers"][:-1]})

    def tampering_main(argv):
        sys.stdout.write(tampered)
        sys.stderr.write(err)
        return 0

    def raising_main(argv):
        raise RuntimeError("boom")

    op = bw.construct_ops(None, [case], None, 0)[0]
    capture = run.SolveCapture(SimpleNamespace(exact_gamma=None))
    tally = run.Tally()
    for fn in (main, tampering_main, raising_main):
        elapsed, failure = run.run_op(fn, op, capture)
        tally.record(op, failure)
    assert tally.attempted == 3
    assert len(tally.failures) == 2


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert run.percentile(values, 75) == 30
    assert run.percentile([5.0], 75) == 5.0
