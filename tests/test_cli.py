"""Command-line surface: flows, golden lines, exit codes, renderers."""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridcast import Coord, TowerSet, cli, grid, parse_document, render, solver
from gridcast.cli import main
from gridcast.document import BroadcastDocument, serialize_document
from gridcast.render import render_ascii, render_svg
from naive_oracle import signal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(serialize_document(doc), encoding="utf-8")
    return str(path)


class TestConstructCommand:
    def test_path_document(self, capsys, tmp_path):
        out_path = tmp_path / "path17.json"
        code, out, _ = run_cli(
            capsys, "construct", "--m", "17", "--n", "1", "--t", "4", "--out", str(out_path)
        )
        assert code == 0
        assert out.strip() == "size=3 bound=5"
        doc = parse_document(out_path.read_text(encoding="utf-8"))
        assert doc.towers == TowerSet([Coord(2, 0), Coord(8, 0), Coord(14, 0)])

    def test_forced_anchor_letterbox(self, capsys, tmp_path):
        out_path = tmp_path / "forced.json"
        code, out, _ = run_cli(
            capsys, "construct", "--m", "12", "--n", "6", "--t", "4",
            "--anchor", "1,4", "--out", str(out_path),
        )
        assert code == 0
        assert out.strip() == "size=12 bound=8 anchor=(1,4)"
        doc = parse_document(out_path.read_text(encoding="utf-8"))
        assert len(doc.towers) == 12
        assert doc.metadata["raw_count"] == 12

    def test_best_anchor(self, capsys, tmp_path):
        out_path = tmp_path / "best.json"
        code, out, _ = run_cli(
            capsys, "construct", "--m", "12", "--n", "6", "--t", "4",
            "--best", "--out", str(out_path),
        )
        assert code == 0
        assert out.strip() == "size=7 bound=8 anchor=(0,2)"

    def test_document_to_stdout_when_no_out_path(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--m", "5", "--n", "1", "--t", "4")
        assert code == 0
        assert parse_document(out).towers == TowerSet([Coord(2, 0)])
        assert "size=1" in err

    def test_flag_conflicts_are_usage_errors(self, capsys):
        code, _, _ = run_cli(
            capsys, "construct", "--m", "6", "--n", "6", "--t", "4",
            "--anchor", "0,0", "--best",
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys, "construct", "--m", "6", "--n", "6", "--t", "4", "--shear", "2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("construct --m 1 --n 5 --t 2", "strength t must be in [3, 10000], got 2"),
            ("construct --m 5 --n 5 --t 2", "strength t must be in [3, 10000], got 2"),
            ("construct --m 6 --n 6 --t 2", "strength t must be in [3, 10000], got 2"),
            ("sweep --m-range 2:3 --n-range 2:3 --t 2", "strength t must be in [3, 10000], got 2"),
            ("construct --m 1 --n 5 --t 10001", "strength t must be in [3, 10000], got 10001"),
            ("construct --m 5 --n 5 --t 10001", "strength t must be in [3, 10000], got 10001"),
            ("sweep --m-range 2:3 --n-range 2:3 --t 10001",
             "strength t must be in [3, 10000], got 10001"),
            ("construct --m 5 --n 5 --t 2 --anchor 0,0",
             "strength t must be in [3, 10000], got 2"),
            ("construct --m 5 --n 5 --t 10001 --anchor 0,0",
             "strength t must be in [3, 10000], got 10001"),
            ("density --t 2 --side 8", "strength t must be in [3, 10000], got 2"),
            ("density --t 10001 --side 8", "strength t must be in [3, 10000], got 10001"),
            ("exact --m 3 --n 3 --t 0 --r 2", "strength t must be in [1, 10000], got 0"),
            ("exact --m 3 --n 3 --t 10001 --r 2", "strength t must be in [1, 10000], got 10001"),
            ("verify {doc}", "strength t must be in [1, 10000], got 10001"),
            ("render {doc}", "strength t must be in [1, 10000], got 10001"),
            ("bounds --m 3 --n 3 --t 2", "(t,2) bounds require t >= 3, got 2"),
        ],
    )
    def test_strength_refusal_bytes(self, capsys, tmp_path, argv, message):
        # {doc} is a 3x3 document at t=10001, one past the strength cap.
        doc = tmp_path / "strong.json"
        doc.write_text('{"m":3,"n":3,"t":10001,"r":2,"towers":[]}', encoding="utf-8")
        argv = [str(doc) if arg == "{doc}" else arg for arg in argv.split()]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_failed_internal_verification_exits_1(self, capsys):
        # valid sheared pattern whose halo does not dominate this grid
        code, _, err = run_cli(
            capsys, "construct", "--m", "9", "--n", "13", "--t", "5",
            "--anchor", "0,0", "--shear", "2",
        )
        assert code == 1
        assert "failed verification" in err

    def test_replacement_collision_exits_1(self, capsys, monkeypatch):
        # Two halo towers that clamp onto one vertex of the grid.
        construct_module = importlib.import_module("gridcast.construct")
        colliding = TowerSet([Coord(-1, 0), Coord(0, 0)])
        monkeypatch.setattr(construct_module, "towers_in_window", lambda *_: colliding)
        argv = ["construct", "--m", "12", "--n", "6", "--t", "4", "--anchor", "1,4"]
        assert run_cli(capsys, *argv) == (
            1, "", "error: replacement collision letterboxing 12x6, t=4, "
            "anchor=Coord(x=1, y=4)\n",
        )

    def test_result_over_the_bound_exits_1(self, capsys, monkeypatch):
        construct_module = importlib.import_module("gridcast.construct")
        # The best 12x6 t=4 broadcast has 7 towers; report the bound as 6.
        monkeypatch.setattr(construct_module, "upper_t2", lambda m, n, t: 6)
        argv = ["construct", "--m", "12", "--n", "6", "--t", "4", "--best"]
        assert run_cli(capsys, *argv) == (
            1, "", "error: best-anchor result size 7 exceeds bound 6 on 12x6, t=4\n",
        )

    def test_sheared_construct_when_it_works(self, capsys, tmp_path):
        out_path = tmp_path / "sheared.json"
        code, out, _ = run_cli(
            capsys, "construct", "--m", "6", "--n", "6", "--t", "5",
            "--anchor", "0,0", "--shear", "2", "--out", str(out_path),
        )
        assert code == 0
        doc = parse_document(out_path.read_text(encoding="utf-8"))
        assert doc.metadata["shear"] == 2
        assert main(["verify", str(out_path)]) == 0
        capsys.readouterr()


# (argv after "construct", exit code, stdout, stderr), frozen byte for byte.
CONSTRUCT_GOLDEN = [
    (
        "--m 17 --n 1 --t 4", 0,
        '{"m":17,"n":1,"t":4,"r":2,"towers":[[2,0],[8,0],[14,0]],'
        '"metadata":{"generator":"path","tool_version":"0.1.0"}}\n',
        "size=3 bound=5\n",
    ),
    (
        "--m 1 --n 17 --t 4", 0,
        '{"m":1,"n":17,"t":4,"r":2,"towers":[[0,2],[0,8],[0,14]],'
        '"metadata":{"generator":"path","tool_version":"0.1.0"}}\n',
        "size=3 bound=5\n",
    ),
    (
        "--m 12 --n 6 --t 4 --best", 0,
        '{"m":12,"n":6,"t":4,"r":2,"towers":[[0,2],[3,0],[3,5],[6,2],[9,0],[9,5],[11,2]],'
        '"metadata":{"anchor":[0,2],"raw_count":7,"generator":"best-anchor",'
        '"tool_version":"0.1.0"}}\n',
        "size=7 bound=8 anchor=(0,2)\n",
    ),
    (
        "--m 12 --n 6 --t 4", 0,
        '{"m":12,"n":6,"t":4,"r":2,"towers":[[0,2],[3,0],[3,5],[6,2],[9,0],[9,5],[11,2]],'
        '"metadata":{"anchor":[0,2],"raw_count":7,"generator":"best-anchor",'
        '"tool_version":"0.1.0"}}\n',
        "size=7 bound=8 anchor=(0,2)\n",
    ),
    (
        "--m 12 --n 6 --t 4 --anchor 1,4", 0,
        '{"m":12,"n":6,"t":4,"r":2,"towers":[[0,1],[0,5],[1,0],[1,4],[4,1],[4,5],[7,0],'
        '[7,4],[10,1],[10,5],[11,0],[11,4]],"metadata":{"anchor":[1,4],"raw_count":12,'
        '"generator":"letterbox","tool_version":"0.1.0"}}\n',
        "size=12 bound=8 anchor=(1,4)\n",
    ),
    (
        "--m 6 --n 6 --t 5 --anchor 0,0 --shear 2", 0,
        '{"m":6,"n":6,"t":5,"r":2,"towers":[[0,0],[0,5],[4,4],[5,0],[5,5]],'
        '"metadata":{"anchor":[0,0],"raw_count":5,"shear":2,"generator":"letterbox",'
        '"tool_version":"0.1.0"}}\n',
        "size=5 bound=4 anchor=(0,0)\n",
    ),
    (
        "--m 9 --n 13 --t 5 --anchor 0,0 --shear 2", 1,
        "",
        "error: letterbox result failed verification on 9x13, t=5, "
        "anchor=Coord(x=0, y=0); first deficiency (Coord(x=0, y=12), 1)\n",
    ),
]


@pytest.mark.parametrize(
    "argv,code,out,err", CONSTRUCT_GOLDEN, ids=[case[0] for case in CONSTRUCT_GOLDEN]
)
def test_construct_golden(capsys, argv, code, out, err):
    assert run_cli(capsys, "construct", *argv.split()) == (code, out, err)


# sha256 of stdout + stderr of `construct --best`, frozen from the
# implementation that kept towers as sorted tuples of Coord objects.
CONSTRUCT_DIGESTS = [
    ("220", "223", "3", "23912170e76849a90be878c16c855eaf777b0af20c149309e4c2c7dbdea5bee8"),
    ("500", "497", "3", "b6e0ce0fa1dab72cd8af288d71be9884026f6bfc43656da1bdae2ab76ee87ef2"),
    ("720", "715", "4", "c572c9db5c959f8e1e16008f061b35cc4241601f1fc323dba12682e92bb9b48c"),
    ("1300", "1290", "48", "9d3964c7c9eda541c4fddbc8a4318982e22dbcf7432463e6d27e5988f8c7bd7c"),
]


def digest(out, err):
    return hashlib.sha256((out + err).encode()).hexdigest()


@pytest.mark.parametrize("m,n,t,expected", CONSTRUCT_DIGESTS, ids=lambda v: str(v)[:8])
def test_construct_digest(capsys, m, n, t, expected):
    code, out, err = run_cli(capsys, "construct", "--m", m, "--n", n, "--t", t, "--best")
    assert code == 0
    assert digest(out, err) == expected


# sha256 of the stdout document alone, frozen from the writer that formatted
# one tower per Python call; the tower counts run from 684 to 42 340.
DOCUMENT_DIGESTS = [
    ("520", "4", "14b86c4a18e3b3e6db477a1cbed70753177e73761a5b780286f56d4089844dee"),
    ("580", "3", "c8b77381fb86e0778d10bdebda71afd8bd21201dda70840a82241010f2c28594"),
    ("1950", "56", "9458a1e7331e31ef769877be37202b7c0b41aaa03c2355b1b4f390e812ffbdd0"),
]


@pytest.mark.parametrize("side,t,expected", DOCUMENT_DIGESTS, ids=lambda v: str(v)[:8])
def test_construct_document_digest(capsys, side, t, expected):
    code, out, _ = run_cli(capsys, "construct", "--m", side, "--n", side, "--t", t, "--best")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# sha256 of the stdout document of `construct` on both orientations of a
# 100 003-vertex path, frozen from the implementation that built one Coord
# per path tower.
PATH_DIGESTS = [
    ("1", "100003", "3718f47611fd4f320189647733750def2a338e1ce4338972fced62560938693d"),
    ("100003", "1", "d54115694daf62e70cb8ae0b978df42ce0b2df31f234bd1b2608d90ed93e792e"),
]


@pytest.mark.parametrize("m,n,expected", PATH_DIGESTS, ids=lambda v: str(v)[:8])
def test_construct_path_digest(capsys, m, n, expected):
    code, out, err = run_cli(capsys, "construct", "--m", m, "--n", n, "--t", "5")
    assert (code, err) == (0, "size=12501 bound=21876\n")
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_cached_parser_keeps_no_state_between_calls(capsys):
    best = ("construct", "--m", "12", "--n", "6", "--t", "4", "--best")
    cli._build_parser.cache_clear()
    fresh = run_cli(capsys, *best)
    cli._build_parser.cache_clear()
    sheared = run_cli(
        capsys, "construct", "--m", "12", "--n", "6", "--t", "4", "--anchor", "1,1",
        "--shear", "2",
    )
    assert sheared[0] == 0 and '"shear":2' in sheared[1]
    # The second call reuses the first's parser and must not see its flags.
    assert run_cli(capsys, *best) == fresh


def test_verify_half_removed_digest(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--m", "300", "--n", "297", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    payload["towers"] = payload["towers"][::2]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("INVALID: 44586 deficient vertices\n")
    assert digest(out, err) == "eec9bffe05d1f666ac1dffa0cce9ff1c3f6b4a5b5e99344a6245c760d5f6916c"


class TestCellCap:
    """Requests one vertex over MAX_CELLS exit 2 before any per-vertex work."""

    # 2**25 + 1 = 3 * 11184811
    M, N = 3, (grid.MAX_CELLS + 1) // 3

    @pytest.fixture(autouse=True)
    def no_grid_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-vertex work started on an oversized grid")

        construct_module = importlib.import_module("gridcast.construct")
        monkeypatch.setattr(grid.np, "zeros", refuse)
        for module, name in (
            (construct_module, "towers_in_window"),
            (construct_module, "path_construct"),
            (construct_module, "anchor_raw_counts"),
            (solver, "check_broadcast"),
        ):
            monkeypatch.setattr(module, name, refuse)

    def assert_refused(self, capsys, m, n, *argv):
        assert m * n == grid.MAX_CELLS + 1
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: grid {m}x{n} has {grid.MAX_CELLS + 1} vertices, "
            f"more than the supported {grid.MAX_CELLS}\n"
        )

    def test_verify(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            f'{{"m":{self.M},"n":{self.N},"t":3,"r":2,"towers":[[0,0]]}}\n', encoding="utf-8"
        )
        self.assert_refused(capsys, self.M, self.N, "verify", str(path))

    @pytest.mark.parametrize("extra", [[], ["--anchor", "0,0"]], ids=["best", "anchor"])
    def test_construct(self, capsys, extra):
        argv = ["construct", "--m", str(self.M), "--n", str(self.N), "--t", "3", *extra]
        self.assert_refused(capsys, self.M, self.N, *argv)

    def test_construct_path(self, capsys):
        m = grid.MAX_CELLS + 1
        self.assert_refused(capsys, m, 1, "construct", "--m", str(m), "--n", "1", "--t", "3")

    def test_exact(self, capsys):
        argv = ["exact", "--m", str(self.M), "--n", str(self.N), "--t", "3", "--r", "2"]
        self.assert_refused(capsys, self.M, self.N, *argv)

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_render(self, capsys, tmp_path, fmt):
        path = tmp_path / "huge.json"
        path.write_text(
            f'{{"m":{self.M},"n":{self.N},"t":3,"r":2,"towers":[[0,0]]}}\n', encoding="utf-8"
        )
        self.assert_refused(capsys, self.M, self.N, "render", str(path), "--format", fmt)


def test_out_of_memory_is_exit_2(capsys, monkeypatch, tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(grid, "signal_field", exhausted)
    path = tmp_path / "doc.json"
    path.write_text('{"m":5,"n":1,"t":4,"r":2,"towers":[[2,0]]}\n', encoding="utf-8")
    assert run_cli(capsys, "verify", str(path)) == (2, "", "error: out of memory\n")


class TestVerifyCommand:
    def test_valid_document(self, capsys, tmp_path):
        doc = BroadcastDocument(
            m=5, n=1, t=4, r=2, towers=TowerSet([Coord(2, 0)])
        )
        code, out, _ = run_cli(capsys, "verify", write_doc(tmp_path, doc))
        assert code == 0
        assert out.strip() == "VALID"

    def test_deficient_document(self, capsys, tmp_path):
        doc = BroadcastDocument(m=5, n=1, t=4, r=2, towers=TowerSet([Coord(0, 0)]))
        code, out, _ = run_cli(capsys, "verify", write_doc(tmp_path, doc))
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "INVALID: 2 deficient vertices"
        assert lines[1] == "(3,0) signal=1"
        assert lines[2] == "(4,0) signal=0"

    def test_at_most_ten_deficiencies_listed(self, capsys, tmp_path):
        doc = BroadcastDocument(m=40, n=1, t=3, r=2, towers=TowerSet([Coord(0, 0)]))
        code, out, _ = run_cli(capsys, "verify", write_doc(tmp_path, doc))
        assert code == 1
        assert len(out.strip().splitlines()) == 11

    def test_outside_tower_warning(self, capsys, tmp_path):
        doc = BroadcastDocument(m=3, n=1, t=4, r=2, towers=TowerSet([Coord(1, 0)]))
        path = write_doc(tmp_path, doc)
        # hand-edit the tower outside the grid
        text = open(path).read().replace("[1,0]", "[-1,0]")
        open(path, "w").write(text)
        code, out, err = run_cli(capsys, "verify", path)
        assert "warning" in err and "(-1,0)" in err

    def test_truncated_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"m":5,"n":1,', encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "error" in err

    def test_ill_typed_metadata_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "typed.json"
        path.write_text(
            '{"m":5,"n":1,"t":4,"r":2,"towers":[[2,0]],"metadata":{"raw_count":[1,{"a":null}],'
            '"generator":7,"shear":true,"tool_version":1.5}}\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: metadata raw_count must be of type int")

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "template",
        [
            '{"m":5,"n":1,"t":4,"r":2,"towers":%s}',
            '{"m":5,"n":1,"t":4,"r":2,"towers":[],"metadata":{"raw_count":%s}}',
        ],
    )
    def test_deep_nesting_is_usage_error(self, capsys, tmp_path, template):
        depth = 200_000
        path = tmp_path / "deep.json"
        path.write_text(template % ("[" * depth + "]" * depth) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err) == (2, "", "error: not valid JSON: nesting too deep\n")

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"m":3,"n":3,"t":3,"r":2,"towers":[[1,1]],"m":4}', "m"),
            ('{"m":3,"n":3,"t":3,"r":2,"towers":[],"metadata":{"shear":1,"shear":2}}', "shear"),
        ],
    )
    def test_duplicate_key_is_usage_error(self, capsys, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err) == (2, "", f"error: duplicate key: {key!r}\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "document must be a JSON object"),
            ('{"m":3,"n":3,"t":3,"r":2,"towers":{"x":1}}', "towers must be a list of [x, y] pairs"),
            ('{"m":3,"n":3,"t":3,"r":2,"towers":"[[1,1]]"}', "towers must be a list of [x, y] pairs"),
        ],
    )
    def test_document_shape_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "shape.json"
        path.write_text(text + "\n", encoding="utf-8")
        assert run_cli(capsys, "verify", str(path)) == (2, "", f"error: {message}\n")


class TestExactCommand:
    def test_solved_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--m", "5", "--n", "1", "--t", "4", "--r", "2"
        )
        assert code == 0
        assert out.startswith("gamma=1 nodes=")

    def test_pair_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--m", "3", "--n", "3", "--t", "3", "--r", "2"
        )
        assert code == 0
        assert out.startswith("gamma=2 ")

    def test_single_vertex(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--m", "1", "--n", "1", "--t", "3", "--r", "2"
        )
        assert code == 0
        assert out.startswith("gamma=1 ")

    def test_budget_exhaustion_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--m", "3", "--n", "3", "--t", "3", "--r", "2",
            "--budget", "2",
        )
        assert code == 3
        # The swap search had not finished: the upper bound is unknown.
        assert out == "UNSOLVED lower=2 upper=? nodes=2\n"

    def test_unsolved_prints_the_bracket(self, capsys):
        # On 6x6, t=3, r=3 the swap search reaches 9 in 55 nodes, one above
        # the LP bound 8, and refuting level 8 takes more than the 45 left.
        argv = ["exact", "--m", "6", "--n", "6", "--t", "3", "--r", "3", "--budget", "100"]
        assert run_cli(capsys, *argv) == (3, "UNSOLVED lower=8 upper=9 nodes=100\n", "")

    def test_weighted_prune_refutes_within_a_small_budget(self, capsys):
        # The same instance: the LP-weighted deficit refutes level 8 in 308
        # nodes, so a budget of 1000 proves gamma = 9.
        argv = ["exact", "--m", "6", "--n", "6", "--t", "3", "--r", "3", "--budget", "1000"]
        assert run_cli(capsys, *argv) == (0, "gamma=9 nodes=363\n", "")

    def test_unsolved_upper_is_the_smallest_verified_broadcast(self, capsys):
        # The swap search stops at 26; levels 25 and 24 find broadcasts of
        # 25 and 24 towers, and level 23 runs out: the bracket's upper end
        # is the 24-tower witness, not the swap search's 26.
        argv = ["exact", "--m", "7", "--n", "8", "--t", "2", "--r", "2", "--budget", "20000"]
        assert run_cli(capsys, *argv) == (3, "UNSOLVED lower=21 upper=24 nodes=20000\n", "")

    def test_lp_bound_closes_the_solve_within_a_small_budget(self, capsys):
        # The swap search reaches the LP bound 12, so no level is searched.
        argv = ["exact", "--m", "9", "--n", "9", "--t", "3", "--r", "2", "--budget", "100"]
        assert run_cli(capsys, *argv) == (0, "gamma=12 nodes=29\n", "")

    def test_large_grid_setup_stays_within_the_budget(self, capsys):
        argv = ["exact", "--m", "300", "--n", "300", "--t", "6", "--r", "2", "--budget", "1"]
        assert run_cli(capsys, *argv) == (3, "UNSOLVED lower=1765 upper=? nodes=1\n", "")

    def test_max_seconds_caps_the_solve(self, capsys, monkeypatch):
        # A clock that advances 1 s per reading: 1.5 s runs out before any node.
        clock = SimpleNamespace(now=0.0)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        argv = ["exact", "--m", "3", "--n", "3", "--t", "3", "--r", "2"]
        assert run_cli(capsys, *argv, "--max-seconds", "1.5") == (
            3, "UNSOLVED lower=2 upper=? nodes=0\n", ""
        )
        assert run_cli(capsys, *argv, "--max-seconds", "1e9")[:2] == (0, "gamma=2 nodes=5\n")

    def test_deep_search_exhausts_the_budget(self, capsys):
        # The greedy placements of the upper bound are nodes: a broadcast of
        # thousands of towers spends the budget before any level is searched.
        argv = ["exact", "--m", "150", "--n", "150", "--t", "3", "--r", "2", "--budget", "3000"]
        assert run_cli(capsys, *argv) == (3, "UNSOLVED lower=2500 upper=? nodes=3000\n", "")

    def test_invalid_upper_bound_is_exit_1(self, capsys, monkeypatch):
        def claimed(self, lower):
            self.best = [0]

        monkeypatch.setattr(solver._UpperBound, "run", claimed)
        argv = ["exact", "--m", "6", "--n", "8", "--t", "3", "--r", "2"]
        assert run_cli(capsys, *argv) == (
            1,
            "",
            "error: the upper-bound search's 1-tower set on 6x8 is not a (3,2) broadcast\n",
        )

    def test_large_strength_stays_small_under_an_address_limit(self):
        # One node of budget at 120x120, t=120: the upper bound's first
        # placement works on one int64 field and its prefix sums, so the
        # process stays near its import footprint (about 33 MiB). The child
        # runs under an address limit (ulimit -v 3000000) and reports its own
        # peak, VmHWM, which a forked child's ru_maxrss would not give: that
        # counts the pages it shared with this process before exec.
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024,) * 2); "
            "from gridcast.cli import main; code = main(sys.argv[1:]); "
            "status = open('/proc/self/status').read(); "
            "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr); sys.exit(code)"
        )
        argv = ["exact", "--m", "120", "--n", "120", "--t", "120", "--r", "2", "--budget", "1"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, "UNSOLVED lower=2 upper=? nodes=1\n")
        assert int(proc.stderr) < 64 * 1024  # KiB

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    def test_max_seconds_must_be_finite_and_positive(self, capsys, seconds):
        code, out, err = run_cli(
            capsys, "exact", "--m", "3", "--n", "3", "--t", "3", "--r", "2",
            "--max-seconds", seconds,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: max_seconds must be finite and > 0")


class TestBoundsCommand:
    def test_golden_row(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--m", "12", "--n", "6", "--t", "3")
        assert code == 0
        assert out == "m,n,t,lower,upper,ratio\n12,6,3,9,14,1.555556\n"

    def test_unit_grid(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--m", "1", "--n", "1", "--t", "3")
        assert out.splitlines()[1] == "1,1,3,1,1,1.000000"

    def test_large_grid_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--m", "512", "--n", "512", "--t", "3")
        ratio = float(out.splitlines()[1].split(",")[5])
        assert ratio < 1.01


class TestSweepCommand:
    def test_exact_sandwich_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-range", "2:6", "--n-range", "2:6", "--t", "3", "--exact"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,t,construct_size,upper,lower,exact,gap"
        assert len(lines) == 26
        for line in lines[1:]:
            m, n, t, size, upper, lower, exact, gap = line.split(",")
            assert int(lower) <= int(exact) <= int(size) <= int(upper)
            assert int(gap) == int(upper) - int(size)

    def test_exhausted_cell_is_marked(self, capsys):
        # The 2x2 and 2x3 cells solve within two nodes; 3x3 runs out.
        code, out, _ = run_cli(
            capsys, "sweep", "--m-range", "2,3", "--n-range", "2,3", "--t", "3",
            "--exact", "--budget", "2",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "2,2,3,2,2,1,2,0", "2,3,3,2,2,1,2,0", "3,2,3,2,2,1,2,0", "3,3,3,2,3,2,?,1",
        ]

    def test_deep_exhausted_cell_is_marked(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--m-range", "150", "--n-range", "150", "--t", "3",
            "--exact", "--budget", "3000",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[6] == "?"

    def test_max_seconds_reaches_every_cell(self, capsys, monkeypatch):
        clock = SimpleNamespace(now=0.0)

        def tick():
            clock.now += 1.0
            return clock.now

        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=tick))
        code, out, _ = run_cli(
            capsys, "sweep", "--m-range", "3", "--n-range", "3:4", "--t", "3",
            "--exact", "--max-seconds", "1.5",
        )
        assert code == 0
        assert [line.split(",")[6] for line in out.splitlines()[1:]] == ["?", "?"]

    def test_deterministic_row_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-range", "8,16", "--n-range", "3", "--t", "3"
        )
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [["8", "3"], ["16", "3"]]

    def test_diagonal_ratio_decreases(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-range", "8,16,32", "--n-range", "8,16,32", "--t", "3"
        )
        assert code == 0
        ratios = []
        for line in out.strip().splitlines()[1:]:
            m, n, _, _, upper, lower, _, _ = line.split(",")
            if m == n:
                ratios.append(int(upper) / int(lower))
        assert len(ratios) == 3
        assert ratios[0] > ratios[1] > ratios[2]

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--m-range", "6:2", "--n-range", "2:3", "--t", "3"
        )
        assert code == 2
        assert "empty range" in err

    def test_wide_range_is_refused_without_being_expanded(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "sweep", "--m-range", "1:5000000", "--n-range", "0", "--t", "3"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (2, "error: range values must be positive: '0'\n")
        assert peak < 2**20

    def test_empty_parts_are_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-range", "6:2,3,", "--n-range", "0:-4,2", "--t", "3"
        )
        assert (code, out.splitlines()[1:]) == (0, ["3,2,3,2,2,1,,0"])

    def test_csv_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--m-range", "2:3", "--n-range", "2", "--t", "3",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8").startswith("m,n,t,")


EXACT_ARGV = ["exact", "--m", "3", "--n", "3", "--t", "3", "--r", "2"]
SWEEP_EXACT_ARGV = ["sweep", "--m-range", "3", "--n-range", "3", "--t", "3", "--exact"]


class TestBudgetDefault:
    """--budget defaults to None; the solve still gets DEFAULT_MAX_NODES."""

    @pytest.mark.parametrize("argv", [EXACT_ARGV, SWEEP_EXACT_ARGV], ids=["exact", "sweep"])
    def test_no_budget_gives_the_default_cap(self, capsys, monkeypatch, argv):
        budgets = []

        def record(dims, params, budget):
            budgets.append(budget)
            return solver.exact_gamma(dims, params, budget)

        monkeypatch.setattr(cli, "exact_gamma", record)
        assert run_cli(capsys, *argv)[0] == 0
        assert budgets == [solver.SearchBudget(max_nodes=solver.DEFAULT_MAX_NODES)]

    @pytest.mark.parametrize("argv", [EXACT_ARGV, SWEEP_EXACT_ARGV], ids=["exact", "sweep"])
    def test_zero_budget_is_exit_2(self, capsys, argv):
        assert run_cli(capsys, *argv, "--budget", "0") == (
            2, "", "error: max_nodes must be >= 1, got 0\n"
        )


class TestDensityCommand:
    def test_rectilinear(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--t", "3", "--side", "8")
        assert (code, out.strip()) == (0, "1/8")

    def test_anchored_unit_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--t", "3", "--side", "1", "--anchor", "0,0"
        )
        assert out.strip() == "1"

    def test_sheared(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--t", "3", "--side", "8", "--shear", "3"
        )
        assert out.strip() == "1/8"

    def test_huge_side_counts_per_period(self, capsys):
        # The t=3 rectilinear pattern is {(2i, 2j) : i = j mod 2}; with
        # k = ceil(side / 2) candidate values per axis it holds
        # ceil(k/2)^2 + floor(k/2)^2 towers of the window.
        side = 10**9 + 3
        k = (side + 1) // 2
        expected = Fraction(((k + 1) // 2) ** 2 + (k // 2) ** 2, side * side)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "density", "--t", "3", "--side", str(side))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, f"{expected}\n", "")

    def test_strength_over_the_cap_is_usage_error(self, capsys):
        t = str(grid.MAX_STRENGTH + 1)
        code, out, err = run_cli(capsys, "density", "--t", t, "--side", "8")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRenderCommand:
    def test_ascii_path(self, capsys, tmp_path):
        doc = BroadcastDocument(m=5, n=1, t=4, r=2, towers=TowerSet([Coord(2, 0)]))
        code, out, _ = run_cli(capsys, "render", write_doc(tmp_path, doc))
        assert code == 0
        assert out == "..T..\n"

    def test_ascii_marks_match_verifier(self, capsys, tmp_path):
        doc = BroadcastDocument(m=5, n=1, t=4, r=2, towers=TowerSet([Coord(0, 0)]))
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, "render", path)
        assert out == "T..!!\n"
        code, verify_out, _ = run_cli(capsys, "verify", path)
        listed = {line.split(" ")[0] for line in verify_out.strip().splitlines()[1:]}
        assert listed == {"(3,0)", "(4,0)"}

    def test_svg_diamond_count(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "construct", "--m", "12", "--n", "6", "--t", "4",
            "--anchor", "1,4", "--out", str(tmp_path / "forced.json"),
        )
        code, out, _ = run_cli(
            capsys, "render", str(tmp_path / "forced.json"), "--format", "svg"
        )
        assert code == 0
        assert out.count("<polygon") == 12

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        code, _, _ = run_cli(capsys, "render", str(path))
        assert code == 2


def write_raw(tmp_path, payload):
    # Bypass TowerSet so towers outside the grid reach the document as written.
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    return str(path)


def test_render_ascii_golden(capsys, tmp_path):
    # r > t, so the lone towers at (6,1) and (4,4) stand on deficient vertices;
    # the tower at (-1,2) lies outside and lifts (0,1) and (0,3) to exactly r.
    payload = {"m": 8, "n": 5, "t": 3, "r": 4, "towers": [[-1, 2], [0, 2], [1, 2], [6, 1], [4, 4]]}
    assert run_cli(capsys, "render", write_raw(tmp_path, payload)) == (
        0, "!!!!!!!!\n.!!!!!!!\nTT!!!!!!\n.!!!!!!!\n!!!!!!!!\n", ""
    )


def constructed_payload(capsys, tmp_path, m, n, t, keep_every=1):
    path = tmp_path / "built.json"
    code, _, _ = run_cli(capsys, "construct", "--m", m, "--n", n, "--t", t, "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["towers"] = payload["towers"][::keep_every]
    return payload


# The documents of RENDER_DIGESTS: `construct` arguments plus the stride of
# the towers kept, or a payload written as it stands.
RENDER_DOCUMENTS = {
    "best-12x6": ("12", "6", "4", 1),
    "path-17x1": ("17", "1", "4", 1),
    # Every other tower removed, so deficient '!' cells appear.
    "halved-40x31": ("40", "31", "5", 2),
    "outside": {
        "m": 6, "n": 4, "t": 3, "r": 2, "towers": [[-2, 1], [1, 1], [7, 3], [2**62, -(2**62)]]
    },
    "empty": {"m": 5, "n": 3, "t": 3, "r": 2, "towers": []},
    # A strength far beyond MAX_STRENGTH, which both views refuse.
    "huge-t": {"m": 3, "n": 2, "t": 10**30, "r": 2, "towers": [[1, 1]]},
}


def render_document(capsys, tmp_path, name):
    spec = RENDER_DOCUMENTS[name]
    payload = spec if isinstance(spec, dict) else constructed_payload(capsys, tmp_path, *spec)
    return write_raw(tmp_path, payload)


# sha256 of `render` stdout, frozen from the renderer that formatted every
# vertex, grid line and tower with its own f-string.
RENDER_DIGESTS = [
    ("best-12x6", "ascii", "0928448e7557d597ebadd30b22f1f004e9fb6385cda214b05261f181ef147afe"),
    ("best-12x6", "svg", "33c6165adcd1ef738ccdd77c54742b84e81e4d88e71fdf60fe69174eeaf89003"),
    ("path-17x1", "ascii", "2af2d01572c079512fc9826bad5dd57dd1ae1bbf62f6a516a6ebb6beff4acd5b"),
    ("path-17x1", "svg", "a86d81980f2fcca641768f9641de4c75872254a499860c10eab201ac7474ab2a"),
    ("halved-40x31", "ascii", "638742d3ce1f03cdfbf6157b1bd0cfc2889e62cd97f33abbd3a18cc9ad8c5434"),
    ("halved-40x31", "svg", "f5f5e0922e83913bdab66a0ca703ca0823e471cdb39e01771ca4a0f3a5b08e5b"),
    ("outside", "ascii", "2b9fe586a2826bb3325f022c976860ba74acf6501b2f9d1d59cc98cedf9dddf4"),
    ("outside", "svg", "6e33902533d826a3bd07a94c22949c5c0713dd45e161aa1416f530001734dac4"),
    ("empty", "ascii", "92cfded6ad6f2bbceb1c7dde858f117a7575159d1c125c9eb11d34bb9cc14865"),
    ("empty", "svg", "177b8908617a4b1f53bd0050be84bf02638e597d4afaa8b81708f89b887e1637"),
]


@pytest.mark.parametrize("name,fmt,expected", RENDER_DIGESTS, ids=lambda v: str(v)[:12])
def test_render_digest(capsys, tmp_path, name, fmt, expected):
    path = render_document(capsys, tmp_path, name)
    code, out, err = run_cli(capsys, "render", path, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == expected
    if name == "halved-40x31" and fmt == "ascii":
        assert "!" in out


def test_render_ascii_refuses_huge_strength(capsys, tmp_path):
    code, out, err = run_cli(capsys, "render", render_document(capsys, tmp_path, "huge-t"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_render_svg_refuses_huge_strength(capsys, tmp_path):
    path = render_document(capsys, tmp_path, "huge-t")
    assert run_cli(capsys, "render", path, "--format", "svg") == (
        2, "", f"error: strength t must be in [1, 10000], got {10**30}\n"
    )


def test_render_svg_allocates_little_beyond_its_output(capsys, tmp_path):
    payload = constructed_payload(capsys, tmp_path, "400", "400", "3")
    doc = parse_document(json.dumps(payload))
    tracemalloc.start()
    try:
        text = render_svg(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


def test_render_svg_refuses_more_than_2_20_vertices(capsys, monkeypatch, tmp_path):
    def unreachable(*args):
        raise AssertionError("svg fill reached")

    monkeypatch.setattr(render, "fill", unreachable)
    path = write_raw(tmp_path, {"m": 1, "n": 2**20 + 1, "t": 3, "r": 2, "towers": []})
    code, out, err = run_cli(capsys, "render", path, "--format", "svg")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # At the cap itself the svg is drawn.
    doc = parse_document(json.dumps({"m": 1, "n": 2**20, "t": 3, "r": 2, "towers": []}))
    with pytest.raises(AssertionError, match="svg fill reached"):
        render_svg(doc)


def test_verify_golden(capsys, tmp_path):
    payload = {"m": 6, "n": 5, "t": 3, "r": 2, "towers": [[-2, 0], [2, 2], [7, 4]]}
    assert run_cli(capsys, "verify", write_raw(tmp_path, payload)) == (
        1,
        "INVALID: 25 deficient vertices\n"
        "(0,0) signal=1\n(0,1) signal=0\n(0,2) signal=1\n(0,3) signal=0\n(0,4) signal=0\n"
        "(1,0) signal=0\n(1,1) signal=1\n(1,3) signal=1\n(1,4) signal=0\n(2,0) signal=1\n",
        "warning: tower (-2,0) lies outside the 6x5 grid\n"
        "warning: tower (7,4) lies outside the 6x5 grid\n",
    )


def test_verify_at_max_strength_on_a_small_grid(capsys, tmp_path):
    payload = {"m": 3, "n": 3, "t": 10_000, "r": 2, "towers": [[1, 1]]}
    assert run_cli(capsys, "verify", write_raw(tmp_path, payload)) == (0, "VALID\n", "")


def readme_command_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("gridcast ")]


@pytest.mark.parametrize("command", ["exact", "bounds", "density"])
def test_readme_example_prints_its_comment(capsys, command):
    # The comment holds the printed lines, joined by " / ".
    (line,) = [line for line in readme_command_lines() if line.split()[1] == command]
    argv, comment = line.split("#", 1)
    code, out, err = run_cli(capsys, *argv.split()[1:])
    assert (code, err) == (0, "")
    assert " / ".join(out.splitlines()) == comment.strip()


class TestHostileInputs:
    """Whatever integers arrive, the CLI exits 0, 1, 2 or 3 and raises nothing.

    Grids stay small. Sides whose product is over MAX_CELLS probe the size
    cap, which refuses them before any per-vertex work.
    """

    SIDE = st.integers(-2, 20)
    STRENGTH = st.one_of(
        st.integers(-2, 9),
        st.integers(grid.MAX_STRENGTH - 3, grid.MAX_STRENGTH + 2),
    )

    @staticmethod
    def exit_code(*argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([str(arg) for arg in argv])
        assert code in (0, 1, 2, 3)
        event(f"exit {code}")
        return code

    @staticmethod
    def write_payload(tmp_path_factory, **payload):
        path = tmp_path_factory.mktemp("hostile") / "doc.json"
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        return path

    @given(
        m=SIDE,
        n=SIDE,
        t=STRENGTH,
        anchor=st.none() | st.tuples(st.integers(-3, 9), st.integers(-3, 9)),
    )
    @settings(max_examples=60, deadline=None)
    def test_construct(self, m, n, t, anchor):
        extra = () if anchor is None else ("--anchor", f"{anchor[0]},{anchor[1]}")
        self.exit_code("construct", "--m", m, "--n", n, "--t", t, *extra)

    @given(m=SIDE, n=SIDE, t=STRENGTH, r=st.integers(-2, 6), budget=st.integers(-1, 30))
    @settings(max_examples=40, deadline=None)
    def test_exact(self, m, n, t, r, budget):
        self.exit_code("exact", "--m", m, "--n", n, "--t", t, "--r", r, "--budget", budget)

    @given(
        m=st.integers(-3, 10**12),
        n=st.integers(-3, 10**12),
        t=st.one_of(st.integers(-3, 9), st.integers(10, 10**12)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, m, n, t):
        self.exit_code("bounds", "--m", m, "--n", n, "--t", t)

    @given(
        m=SIDE,
        n=SIDE,
        t=STRENGTH,
        r=st.one_of(st.integers(-2, 6), st.integers(7, 10**6)),
        towers=st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_verify(self, tmp_path_factory, m, n, t, r, towers):
        path = self.write_payload(tmp_path_factory, m=m, n=n, t=t, r=r, towers=towers)
        self.exit_code("verify", path)

    @given(
        m=st.integers(6000, 10**7),
        n=st.integers(6000, 10**7),
        huge=st.integers(2**63, 2**70),
    )
    @settings(max_examples=20, deadline=None)
    def test_out_of_range_is_refused(self, tmp_path_factory, m, n, huge):
        assert self.exit_code("construct", "--m", m, "--n", n, "--t", 3) == 2
        assert self.exit_code("exact", "--m", m, "--n", n, "--t", 3, "--r", 2) == 2
        path = self.write_payload(tmp_path_factory, m=m, n=n, t=3, r=2, towers=[[0, 0]])
        assert self.exit_code("verify", path) == 2
        path = self.write_payload(tmp_path_factory, m=3, n=3, t=3, r=2, towers=[[huge, 0]])
        assert self.exit_code("verify", path) == 2


class TestRendererFunctions:
    def test_orientation_puts_high_y_first(self):
        doc = BroadcastDocument(m=2, n=3, t=3, r=2, towers=TowerSet([Coord(0, 0), Coord(1, 2)]))
        assert render_ascii(doc) == ".T\n..\nT.\n"

    @given(
        m=st.integers(1, 7),
        n=st.integers(1, 7),
        t=st.integers(1, 4),
        r=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ascii_matches_per_cell_reference(self, m, n, t, r, data):
        near = st.builds(Coord, st.integers(-2, m + 1), st.integers(-2, n + 1))
        towers = TowerSet(data.draw(st.lists(near, max_size=6)))
        doc = BroadcastDocument(m=m, n=n, t=t, r=r, towers=towers)

        def mark(v):
            if sum(signal(t, u, v) for u in towers) < r:
                return "!"
            return "T" if v in towers else "."

        rows = ("".join(mark(Coord(x, y)) for x in range(m)) for y in reversed(range(n)))
        assert render_ascii(doc) == "".join(row + "\n" for row in rows)

    def test_svg_is_well_formed_enough(self):
        doc = BroadcastDocument(m=3, n=3, t=3, r=2, towers=TowerSet([Coord(1, 1)]))
        text = render_svg(doc)
        assert text.startswith("<?xml")
        assert text.count("<svg") == text.count("</svg>") == 1


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["bounds", "--m", "4", "--n", "4"]) == 2

    def test_bad_anchor_format(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--m", "6", "--n", "6", "--t", "3", "--anchor", "oops"
        )
        assert code == 2


def test_module_entry_point_smoke():
    # The package may be uninstalled (pytest finds it through pythonpath).
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "gridcast", "bounds", "--m", "12", "--n", "6", "--t", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "12,6,3,9,14,1.555556"
