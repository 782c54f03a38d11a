"""Command-line surface: flows, golden lines, exit codes, renderers."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import Coord, TowerSet, grid, parse_document, signal, solver
from gridcast.cli import main
from gridcast.document import BroadcastDocument, serialize_document
from gridcast.render import render_ascii, render_svg


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

    def test_small_t_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--m", "6", "--n", "6", "--t", "2")
        assert code == 2

    def test_failed_internal_verification_exits_1(self, capsys):
        # valid sheared pattern whose halo does not dominate this grid
        code, _, err = run_cli(
            capsys, "construct", "--m", "9", "--n", "13", "--t", "5",
            "--anchor", "0,0", "--shear", "2",
        )
        assert code == 1
        assert "failed verification" in err

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
        assert out.startswith("UNSOLVED nodes=")


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

    def test_csv_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--m-range", "2:3", "--n-range", "2", "--t", "3",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8").startswith("m,n,t,")


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
