"""Broadcast document serialization.

A document is one flat JSON object with keys in fixed order (m, n, t, r,
towers, metadata), towers sorted lexicographically, UTF-8, one line. The
byte-exact output makes golden-file tests possible; parse(serialize(d)) == d.

The tower list is written by one printf-style ``%`` pass: fill() repeats a
"[%d,%d]" template once per tower and fills it from the row-major coordinate
array, so no Python-level call is made per tower. The SVG renderer writes its
grid lines, vertex dots and towers through the same fill. The metadata is
kept in the fixed key order and written by one ``json.dumps``.

On reading, the tower list is checked in whole-list passes (every entry a
list, every length 2, every coordinate an int and not a bool). Only when a
pass fails are the pairs walked one by one, to name the first bad one. A
repeated key in any object, or nesting too deep for the JSON decoder, is a
DocumentError.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .grid import TowerSet

_METADATA_KEYS = ("anchor", "raw_count", "shear", "generator", "tool_version")
# Value type of every metadata key but anchor, which is an integer pair.
_METADATA_TYPES = {"raw_count": int, "shear": int, "generator": str, "tool_version": str}


class DocumentError(ValueError):
    """The input is not a well-formed broadcast document."""


@dataclass(frozen=True)
class BroadcastDocument:
    m: int
    n: int
    t: int
    r: int
    towers: TowerSet
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Refuse what parse_document refuses, so parse(serialize(d)) == d.

        Towers given as Coords or a (k, 2) integer array are kept as their
        TowerSet; a TowerSet is kept as it is. The metadata is kept as a copy
        in the fixed key order, with the anchor as a tuple; its keys are
        checked in the caller's order, so a parse reports the first bad one.
        """
        _check_dimensions(self.m, self.n, self.t, self.r)
        if not isinstance(self.towers, TowerSet):
            try:
                object.__setattr__(self, "towers", TowerSet(self.towers))
            except (AttributeError, TypeError, ValueError) as exc:
                raise DocumentError(
                    f"towers must be Coords or a (k, 2) integer array: {exc}"
                ) from exc
        if not isinstance(self.metadata, dict):
            raise DocumentError("metadata must be an object")
        metadata = {}
        for key, value in self.metadata.items():
            if key not in _METADATA_KEYS:
                raise DocumentError(f"unknown metadata key: {key!r}")
            if key == "anchor":
                value = _int_pair(value, "metadata anchor")
            elif not isinstance(value, _METADATA_TYPES[key]) or isinstance(value, bool):
                expected = _METADATA_TYPES[key].__name__
                raise DocumentError(f"metadata {key} must be of type {expected}, got {value!r}")
            metadata[key] = value
        ordered = {key: metadata[key] for key in _METADATA_KEYS if key in metadata}
        object.__setattr__(self, "metadata", ordered)


def _check_dimensions(*values: object) -> None:
    for name, value in zip(("m", "n", "t", "r"), values):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DocumentError(f"{name} must be a positive integer, got {value!r}")


def fill(template: str, sep: str, count: int, values: Iterable) -> str:
    """``count`` copies of a printf-style template joined by ``sep``, filled in one ``%``."""
    return sep.join([template] * count) % tuple(values)


def serialize_document(doc: BroadcastDocument) -> str:
    header = json.dumps({"m": doc.m, "n": doc.n, "t": doc.t, "r": doc.r}, separators=(",", ":"))
    xy = doc.towers.xy
    text = f'{header[:-1]},"towers":[{fill("[%d,%d]", ",", len(xy), xy.ravel().tolist())}]'
    if doc.metadata:
        text += ',"metadata":' + json.dumps(doc.metadata, separators=(",", ":"))
    return text + "}\n"


def _int_pair(value, what: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in value)
    ):
        raise DocumentError(f"{what} must be a pair of integers, got {value!r}")
    return value[0], value[1]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of repeated keys; a document may not repeat one.
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"duplicate key: {key!r}")
        obj[key] = value
    return obj


def _tower_array(towers: list) -> np.ndarray:
    """The (k, 2) int64 array of a list of [x, y] pairs, checked in whole-list passes."""
    flat: list = []
    if set(map(type, towers)) <= {list} and set(map(len, towers)) <= {2}:
        flat = list(chain.from_iterable(towers))
    # numpy would truncate 2.5 to 2 and read true as 1, so the type pass stays.
    if len(flat) != 2 * len(towers) or not set(map(type, flat)) <= {int}:
        flat = [c for pair in towers for c in _int_pair(pair, "tower")]
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise DocumentError("tower coordinates must fit in 64-bit integers") from None


def parse_document(text: str) -> BroadcastDocument:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("not valid JSON: nesting too deep") from None
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    required = {"m", "n", "t", "r", "towers"}
    missing = required - set(payload)
    if missing:
        raise DocumentError(f"missing keys: {sorted(missing)}")
    extra = set(payload) - required - {"metadata"}
    if extra:
        raise DocumentError(f"unknown keys: {sorted(extra)}")
    _check_dimensions(*(payload[name] for name in ("m", "n", "t", "r")))
    if not isinstance(payload["towers"], list):
        raise DocumentError("towers must be a list of [x, y] pairs")
    towers = TowerSet(_tower_array(payload["towers"]))

    return BroadcastDocument(
        m=payload["m"], n=payload["n"], t=payload["t"], r=payload["r"],
        towers=towers, metadata=payload.get("metadata", {}),
    )


def load_document(path: str) -> BroadcastDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_document(handle.read())
