"""Broadcast document serialization.

A document is one flat JSON object with keys in fixed order (m, n, t, r,
towers, metadata), towers sorted lexicographically, UTF-8, one line. The
byte-exact output makes golden-file tests possible; parse(serialize(d)) == d.

The tower list is written as fixed-width records, so no Python-level call
is made per tower or per coordinate. Each tower is one row "[x,y]," of a
zero-filled uint8 array, its numbers right-aligned in fields as wide as the
widest magnitude (one more when some coordinate is negative). Each digit
place is one vectorised pass over the (2, k) magnitudes, uint32 when they
allow and uint64 otherwise (so -2**63 is written), with two column stores;
digits before a number's first are masked to NUL. Signs are set by index,
and one ``bytes.replace`` drops the NUL padding. The metadata is kept in
the fixed key order and written by one ``json.dumps``.

On reading, a canonical tower list, as serialize_document writes it after
the header it writes, is read by a numpy byte reader. The list is one uint8
buffer; its numbers are the runs of digits and "-", the bytes between them
must be exactly "[[", ",", "],[" and "]]" in turn, and each digit place is
converted in one vectorised pass. json.loads then reads the document with
that list blanked to "[", spaces and "]", so the header and metadata checks,
repeated keys and the positions in JSON errors are exactly those of a whole
read. Any other text (other key orders, whitespace, 19-digit coordinates,
anything malformed) is read whole by json.loads, and its tower list is
checked in whole-list passes (every entry a list, every length 2, every
coordinate an int and not a bool). Only when a pass fails are the pairs
walked one by one, to name the first bad one. A repeated key in any object,
or nesting too deep for the JSON decoder, is a DocumentError.
"""

from __future__ import annotations

import json
import re
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


# 10, 100, ..., 10**18: a magnitude, at most 2**63 < 10**19, has 1 + the
# number of these <= it digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.uint64)


def _tower_list(xy: np.ndarray) -> str:
    """'[[x,y],...]' for a (k, 2) int64 array, written as fixed-width records.

    Tower i is the record "[x,y]," in row i of one zero-filled uint8 array.
    Each axis has its own field, right-aligned and as wide as that axis's
    widest magnitude, plus one for a sign when that axis has a negative
    value. The NUL bytes before the shorter numbers, and in place of the
    last ",", are dropped once the records are joined between the list's
    "[" and "]".
    """
    k = len(xy)
    # Column by column: numpy reduces a (k, 2) array over axis 0 two
    # elements at a time, about 30x slower.
    columns = xy[:, 0], xy[:, 1]
    lo = [int(c.min(initial=0)) for c in columns]
    widest = [max(int(c.max(initial=0)), -low) for c, low in zip(columns, lo)]
    digits = [len(str(w)) for w in widest]
    fx, fy = (d + (low < 0) for d, low in zip(digits, lo))
    buf = np.zeros(k * (fx + fy + 4) + 2, dtype=np.uint8)
    buf[0], buf[-1] = ord("["), ord("]")
    records = buf[1:-1].reshape(k, fx + fy + 4)
    records[:, 0], records[:, fx + 1] = ord("["), ord(",")
    records[:, -2], records[:-1, -1] = ord("]"), ord(",")
    # x's last digit goes in column fx, y's in fx + fy + 1.
    last = [fx, fx + fy + 1]
    # mag[0] and mag[1] are the x and y magnitudes: a negative v cast to the
    # unsigned type and negated there is -v, -2**63 included.
    mag = xy.T.astype(np.uint32 if max(widest) < 2**32 else np.uint64, order="C")
    if min(lo) < 0:
        at = np.flatnonzero(xy < 0)
        tower, axis = at >> 1, at & 1
        mag[axis, tower] = -mag[axis, tower]
        # Each "-" goes just before its number's first digit, once the digit
        # passes below have masked that column to NUL.
        sign = np.array(last)[axis] - 1
        sign -= np.searchsorted(_POWERS_OF_TEN, mag[axis, tower], side="right")
    # One pass per digit place, last digits first, over the axes that have
    # that many digits. Past a number's first digit its quotient is 0, and
    # the digit is masked to NUL.
    for place in range(max(digits)):
        if place == min(digits):
            # Only the axis with more digits goes on.
            longer = int(digits[1] > digits[0])
            mag, last = mag[longer : longer + 1], last[longer : longer + 1]
        quotient = mag // 10
        # The last digit, mag - 10 * quotient, computed modulo 256.
        digit = mag.astype(np.uint8)
        digit -= quotient.astype(np.uint8) * np.uint8(10)
        digit += ord("0")
        if place:
            digit *= mag != 0
        # Rows of digit indexed, not iterated: iterating costs more.
        for row, column in enumerate(last):
            records[:, column - place] = digit[row]
        mag = quotient
    if min(lo) < 0:
        records[tower, sign] = ord("-")
    del mag, quotient, digit
    return buf.tobytes().replace(b"\0", b"").decode("ascii")


def serialize_document(doc: BroadcastDocument) -> str:
    header = json.dumps({"m": doc.m, "n": doc.n, "t": doc.t, "r": doc.r}, separators=(",", ":"))
    parts = [header[:-1], ',"towers":', _tower_list(doc.towers.xy), "}\n"]
    if doc.metadata:
        parts.insert(3, ',"metadata":' + json.dumps(doc.metadata, separators=(",", ":")))
    return "".join(parts)


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


# What serialize_document writes before the tower list.
_CANONICAL_HEAD = re.compile(r'\{"m":[0-9]+,"n":[0-9]+,"t":[0-9]+,"r":[0-9]+,"towers":\[')
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63, so every such number fits in int64


def _read_tower_list(text: str) -> tuple[int, int, np.ndarray] | None:
    """Where the canonical tower list of ``text`` starts and ends, and its array.

    The text must start as serialize_document writes it, up to the list. A
    canonical list is ``[]`` or ``[[x,y],...,[x,y]]`` with no whitespace,
    each number an optional ``-`` and 1 to 18 digits without a leading zero;
    it ends at its first ``]]``. Anything else gives None. Arrays with one
    entry per byte are bool or uint8, int64 ones have one entry per number,
    and each is dropped once used, which keeps the peak of a large list low.
    """
    head = _CANONICAL_HEAD.match(text)
    if not head:
        return None
    start = head.end() - 1
    if text.startswith("[]", start):
        return start, start + 2, np.empty((0, 2), dtype=np.int64)
    # A non-ASCII character becomes "?", which no canonical list holds.
    rest = np.frombuffer(text[start:].encode("ascii", "replace"), dtype=np.uint8)
    close = rest == ord("]")
    pair = close[:-1] & close[1:]
    if not pair.any():
        return None
    size = int(pair.argmax()) + 2
    del close, pair
    buf = rest[:size]
    number = buf == ord("-")
    minus_count = np.count_nonzero(number)
    number |= buf - np.uint8(ord("0")) < 10
    # The numbers are the runs of digits and "-". buf starts and ends with a
    # bracket, so the edges of the runs pair up as (first, stop).
    edges = np.flatnonzero(number[1:] != number[:-1])
    edges += 1
    del number
    first, stop = edges[::2], edges[1::2]
    if not len(edges) or len(edges) % 4:
        return None
    # Between the numbers lie "[[" x "," y "],[" x "," y ... "]]": buf[0] is
    # the "[" before the list and buf[-2:] the "]]" after it.
    gap = first[1:] - stop[:-1]
    if not (
        first[0] == 2
        and stop[-1] == size - 2
        and (gap[::2] == 1).all()
        and (gap[1::2] == 3).all()
        and (buf[first[::2] - 1] == ord("[")).all()
        and (buf[stop[::2]] == ord(",")).all()
        and (buf[stop[1::2]] == ord("]")).all()
        and (buf[stop[1:-1:2] + 1] == ord(",")).all()
    ):
        return None
    del gap
    negative = buf[first] == ord("-")
    width = stop - first
    width -= negative
    if (
        minus_count != np.count_nonzero(negative)
        or width.min() < 1
        or width.max() > _MAX_DIGITS
        or ((width > 1) & (buf[stop - width] == ord("0"))).any()
    ):
        return None
    width = width.astype(np.uint8)
    at = stop - 1
    del edges, first, stop
    digit = buf - np.uint8(ord("0"))
    del buf, rest
    # One pass per digit place, last digits first. Before a number's first
    # digit the mask is False; take clips the indices that run off the front.
    value = digit[at].astype(np.int64)
    for place in range(1, int(width.max())):
        at -= 1
        shown = np.take(digit, at, mode="clip") * (width > place)
        value += shown * np.int64(10**place)
    np.negative(value, out=value, where=negative)
    return start, start + size, value.reshape(-1, 2)


def parse_document(text: str) -> BroadcastDocument:
    # A canonical tower list is read by _read_tower_list; json.loads then reads
    # the document with that list blanked to "[", spaces and "]", so every
    # other check, and every error's position, is the one of the JSON path.
    read = _read_tower_list(text)
    if read is not None:
        start, end, xy = read
        text = f"{text[:start]}[{' ' * (end - start - 2)}]{text[end:]}"
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
    towers = TowerSet(xy if read is not None else _tower_array(payload["towers"]))

    return BroadcastDocument(
        m=payload["m"], n=payload["n"], t=payload["t"], r=payload["r"],
        towers=towers, metadata=payload.get("metadata", {}),
    )


def load_document(path: str) -> BroadcastDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_document(handle.read())
