"""The gridcast benchmark's workloads.

Each workload is a fixed catalog of nine input shapes, run in catalog order.
The seed jitters grid sides by up to 1% and picks which towers a corrupted
document loses; it never changes which shapes run or their order, so runs
with different seeds measure the same mix and allocate memory in the same
sequence. Every pass runs the whole catalog once, and each operation is one
in-process ``gridcast`` command whose output is checked against
``bench_reference`` outside the timed region.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

import numpy as np

import bench_reference as ref

JITTER = 0.01

# With whole passes over nine inputs, the median and p75 fall on the 5th and
# 7th cheapest input. No two sides in a catalog are within 2% of each other,
# so jitter never reorders the sizes of the big allocations, which decide
# glibc's heap-or-mmap choice and so peak RSS.

# (side, t): t in {3, 4}, so the sweep scans at most 36 anchors and the time
# goes to tower enumeration, TowerSet sorting, the signal field and the
# document.
DENSE_SHAPES = ((220, 3), (280, 3), (440, 3), (500, 3), (580, 3),
                (260, 4), (350, 4), (520, 4), (720, 4))

# (side, t): t in [20, 60], so the sweep scans (2(t-1))^2 = 1.4k..14k anchors
# and each construction emits hundreds to a few thousand towers. Sides stay
# below 2048 after jitter: an int64 field of 2048^2 cells is glibc's largest
# dynamic mmap threshold (32 MiB), and grids on both sides of it make peak
# RSS erratic.
SPARSE_SHAPES = ((1340, 20), (980, 24), (1200, 28), (800, 32), (900, 44),
                 (1300, 48), (840, 52), (1950, 56), (1900, 60))

# (m, n, t, r, gamma): every instance solves well within the default budget;
# gamma is the pinned optimum. 8x10 t=3 (2.1 s) and 12x12 t=5 (1.0 s) are
# left out so that a 20 s run times each input at least five times.
EXACT_CATALOG = ((6, 8, 3, 2, 8), (7, 7, 3, 2, 8), (5, 7, 3, 3, 8),
                 (7, 9, 3, 2, 10), (9, 9, 4, 2, 7), (6, 6, 3, 3, 9),
                 (8, 8, 3, 2, 10), (10, 10, 4, 2, 8), (9, 9, 3, 2, 12))

# (side, t, variant): four valid construct outputs, two with five towers
# removed, three with half of their towers removed. The three half-removed
# documents are the slowest, so p75 falls on deficiency reporting.
VERIFY_SHAPES = ((300, 3, "valid"), (340, 3, "valid"), (420, 4, "valid"),
                 (760, 4, "valid"), (410, 3, "few"), (480, 4, "few"),
                 (430, 3, "half"), (500, 3, "half"), (520, 4, "half"))
FEW_REMOVED = 5


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its output."""

    label: str
    argv: tuple[str, ...]
    # check(rc, stdout, stderr, solve_result) -> None if correct, else why not.
    check: Callable[[int, str, str, object], str | None]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    # cases(seed) -> the pass's input specs, deterministic in the seed.
    cases: Callable[[int], list]
    # warm_up(main, cases, workdir): the first calls that fill gridcast's caches.
    warm_up: Callable[[Callable, list, Path], None]
    # prepare(main, cases, workdir, seed) -> the pass's operations, untimed.
    prepare: Callable[[Callable, list, Path, int], list[Op]]


def _rng(workload: str, seed: int, *salt: object) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + salt)))


def _jitter(rng: random.Random, side: int) -> int:
    return round(side * (1 + rng.uniform(-JITTER, JITTER)))


def _run(main: Callable, argv: list[str]) -> int:
    # Warm-up and preparation calls; their output is not part of a result.
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(argv)


def _towers(payload: dict) -> np.ndarray:
    return np.array(payload["towers"], dtype=np.int64).reshape(-1, 2)


def _in_grid_sorted_unique(towers: np.ndarray, m: int, n: int) -> bool:
    xs, ys = towers[:, 0], towers[:, 1]
    if ((xs < 0) | (xs >= m) | (ys < 0) | (ys >= n)).any():
        return False
    keys = xs * n + ys
    return bool((np.diff(keys) > 0).all())


# -- construct ------------------------------------------------------------


@dataclass(frozen=True)
class ConstructCase:
    m: int
    n: int
    t: int
    size: int
    anchor: tuple[int, int]


def construct_cases(name: str, shapes, seed: int) -> list[ConstructCase]:
    rng = _rng(name, seed)
    cases = []
    for side, t in shapes:
        m, n = _jitter(rng, side), _jitter(rng, side)
        ax, ay, size = ref.best_anchor(m, n, t)
        cases.append(ConstructCase(m, n, t, size, (ax, ay)))
    return cases


def check_construct(case: ConstructCase, rc: int, out: str, err: str, _result) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(out)
    if (payload["m"], payload["n"], payload["t"], payload["r"]) != (case.m, case.n, case.t, 2):
        return "document header does not match the request"
    towers = _towers(payload)
    bound = ref.upper_t2(case.m, case.n, case.t)
    if len(towers) > bound:
        return f"{len(towers)} towers exceed the upper bound {bound}"
    if len(towers) != case.size:
        return f"{len(towers)} towers, expected {case.size}"
    meta = payload.get("metadata", {})
    if tuple(meta.get("anchor", ())) != case.anchor or meta.get("raw_count") != case.size:
        return f"anchor {meta.get('anchor')} raw_count {meta.get('raw_count')}, expected {case.anchor} {case.size}"
    if not _in_grid_sorted_unique(towers, case.m, case.n):
        return "towers are not distinct, sorted and inside the grid"
    field = ref.signal_field(case.m, case.n, case.t, towers)
    if field.min() < 2:
        return f"{int((field < 2).sum())} vertices receive less than 2"
    summary = f"size={case.size} bound={bound} anchor=({case.anchor[0]},{case.anchor[1]})"
    if err.strip() != summary:
        return f"summary {err.strip()!r}, expected {summary!r}"
    return None


def construct_warm_up(main: Callable, cases: list[ConstructCase], _workdir: Path) -> None:
    # One small call per strength fills the pattern-validity and kernel caches.
    for t in sorted({c.t for c in cases}):
        if _run(main, ["construct", "--m", "4", "--n", "4", "--t", str(t), "--anchor", "0,0"]):
            raise RuntimeError(f"warm-up construct failed for t={t}")


def construct_ops(_main, cases: list[ConstructCase], _workdir: Path, _seed: int) -> list[Op]:
    return [
        Op(f"{c.m}x{c.n} t={c.t}",
           ("construct", "--m", str(c.m), "--n", str(c.n), "--t", str(c.t), "--best"),
           lambda rc, out, err, res, c=c: check_construct(c, rc, out, err, res))
        for c in cases
    ]


# -- exact ----------------------------------------------------------------


@dataclass(frozen=True)
class ExactCase:
    m: int
    n: int
    t: int
    r: int
    gamma: int


def exact_cases(seed: int) -> list[ExactCase]:
    # The instances are pinned, so the seed changes nothing here.
    return [ExactCase(*row) for row in EXACT_CATALOG]


def check_exact(case: ExactCase, rc: int, out: str, _err: str, result) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if result is None or result.status != "optimal":
        return "no optimal result was returned"
    if result.gamma != case.gamma:
        return f"gamma {result.gamma}, pinned {case.gamma}"
    if out != f"gamma={case.gamma} nodes={result.nodes_expanded}\n":
        return f"unexpected output {out!r}"
    witness = np.array([(c.x, c.y) for c in result.witness], dtype=np.int64).reshape(-1, 2)
    if len(witness) != case.gamma or not _in_grid_sorted_unique(witness, case.m, case.n):
        return "witness is not gamma distinct towers inside the grid"
    if ref.signal_field(case.m, case.n, case.t, witness).min() < case.r:
        return "witness is not a broadcast"
    return None


def exact_warm_up(main: Callable, _cases, _workdir: Path) -> None:
    if _run(main, ["exact", "--m", "4", "--n", "4", "--t", "3", "--r", "2"]):
        raise RuntimeError("warm-up exact failed")


def exact_ops(_main, cases: list[ExactCase], _workdir: Path, _seed: int) -> list[Op]:
    return [
        Op(f"{c.m}x{c.n} t={c.t} r={c.r}",
           ("exact", "--m", str(c.m), "--n", str(c.n), "--t", str(c.t), "--r", str(c.r)),
           lambda rc, out, err, res, c=c: check_exact(c, rc, out, err, res))
        for c in cases
    ]


# -- verify ---------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCase:
    m: int
    n: int
    t: int
    variant: str
    index: int


def verify_cases(seed: int) -> list[VerifyCase]:
    rng = _rng("verify-docs", seed)
    return [
        VerifyCase(_jitter(rng, side), _jitter(rng, side), t, variant, i)
        for i, (side, t, variant) in enumerate(VERIFY_SHAPES)
    ]


def corrupt(payload: dict, variant: str, rng: random.Random) -> dict:
    """The document with towers removed: none, FEW_REMOVED, or half of them."""
    towers = payload["towers"]
    if variant == "valid":
        return payload
    drop = FEW_REMOVED if variant == "few" else len(towers) // 2
    removed = set(rng.sample(range(len(towers)), drop))
    return {**payload, "towers": [p for i, p in enumerate(towers) if i not in removed]}


def expected_verify_output(payload: dict) -> tuple[int, str]:
    """Exit code and stdout that ``gridcast verify`` must produce."""
    m, n, t, r = payload["m"], payload["n"], payload["t"], payload["r"]
    field = ref.signal_field(m, n, t, _towers(payload))
    short = np.argwhere(field < r)
    if not len(short):
        return 0, "VALID\n"
    lines = [f"INVALID: {len(short)} deficient vertices"]
    lines += [f"({x},{y}) signal={field[x, y]}" for x, y in short[:10]]
    return 1, "\n".join(lines) + "\n"


def check_verify(expect: tuple[int, str], rc: int, out: str, err: str, _result) -> str | None:
    if rc != expect[0]:
        return f"exit code {rc}, expected {expect[0]}"
    if out != expect[1]:
        return f"output {out[:80]!r}, expected {expect[1][:80]!r}"
    if err:
        return f"unexpected stderr {err[:80]!r}"
    return None


def verify_warm_up(main: Callable, cases: list[VerifyCase], workdir: Path) -> None:
    # verify_ops has written the tiny documents this reads.
    for t in sorted({c.t for c in cases}):
        path = workdir / f"warm-{t}.json"
        if _run(main, ["verify", str(path)]):
            raise RuntimeError(f"warm-up verify failed for t={t}")


def write_warm_up_docs(cases: list[VerifyCase], workdir: Path) -> None:
    # Towers on every vertex of a 3x3 grid: valid for any t >= 2.
    towers = [[x, y] for x in range(3) for y in range(3)]
    for t in sorted({c.t for c in cases}):
        doc = {"m": 3, "n": 3, "t": t, "r": 2, "towers": towers}
        (workdir / f"warm-{t}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def verify_ops(main: Callable, cases: list[VerifyCase], workdir: Path, seed: int) -> list[Op]:
    write_warm_up_docs(cases, workdir)
    ops = []
    for c in cases:
        built = workdir / f"built-{c.index}.json"
        argv = ["construct", "--m", str(c.m), "--n", str(c.n), "--t", str(c.t), "--out", str(built)]
        if _run(main, argv):
            raise RuntimeError(f"preparing {c}: construct failed")
        payload = corrupt(json.loads(built.read_text()), c.variant,
                          _rng("verify-docs", seed, "corrupt", c.index))
        path = workdir / f"doc-{c.index}.json"
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        expect = expected_verify_output(payload)
        ops.append(Op(f"{c.m}x{c.n} t={c.t} {c.variant}", ("verify", str(path)),
                      lambda rc, out, err, res, e=expect: check_verify(e, rc, out, err, res)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("construct-dense", lambda seed: construct_cases("construct-dense", DENSE_SHAPES, seed),
                 construct_warm_up, construct_ops),
        Workload("construct-sparse", lambda seed: construct_cases("construct-sparse", SPARSE_SHAPES, seed),
                 construct_warm_up, construct_ops),
        Workload("exact-search", exact_cases, exact_warm_up, exact_ops),
        Workload("verify-docs", verify_cases, verify_warm_up, verify_ops),
    )
}
