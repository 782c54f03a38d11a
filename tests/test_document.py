"""Document format: byte-exact serialization and strict parsing."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcast import (
    BroadcastDocument,
    Coord,
    DocumentError,
    GridDims,
    TowerSet,
    parse_document,
    path_construct,
    serialize_document,
)
from gridcast import document


def make_doc(**overrides):
    fields = dict(
        m=5,
        n=1,
        t=4,
        r=2,
        towers=TowerSet([Coord(2, 0)]),
        metadata={"generator": "path", "tool_version": "0.1.0"},
    )
    fields.update(overrides)
    return BroadcastDocument(**fields)


class TestSerialization:
    def test_golden_bytes(self):
        text = serialize_document(make_doc())
        assert text == (
            '{"m":5,"n":1,"t":4,"r":2,"towers":[[2,0]],'
            '"metadata":{"generator":"path","tool_version":"0.1.0"}}\n'
        )

    def test_metadata_keys_emitted_in_fixed_order(self):
        doc = make_doc(metadata={"generator": "letterbox", "anchor": (1, 4), "raw_count": 12})
        text = serialize_document(doc)
        assert '"metadata":{"anchor":[1,4],"raw_count":12,"generator":"letterbox"}' in text

    def test_towers_sorted(self):
        doc = make_doc(m=3, n=3, towers=TowerSet([Coord(2, 1), Coord(0, 1)]), metadata={})
        assert '"towers":[[0,1],[2,1]]' in serialize_document(doc)

    def test_coord_list_is_kept_as_its_tower_set(self):
        towers = [Coord(2, 1), Coord(0, 1), Coord(2, 1)]
        tower_set = TowerSet(towers)
        listed = make_doc(m=3, n=3, towers=towers, metadata={})
        assert serialize_document(listed) == serialize_document(
            make_doc(m=3, n=3, towers=tower_set, metadata={})
        )
        assert make_doc(m=3, n=3, towers=tower_set).towers is tower_set

    def test_empty_tower_set(self):
        doc = make_doc(towers=TowerSet(), metadata={})
        assert serialize_document(doc) == '{"m":5,"n":1,"t":4,"r":2,"towers":[]}\n'

    def test_digit_widths_and_int64_extremes(self):
        # Every digit-count boundary the writer places, and both int64 ends.
        towers = [(-(2**63), 2**63 - 1), (-1, 0), (9, 10), (99, 100)]
        doc = make_doc(m=3, n=3, towers=np.array(towers, dtype=np.int64), metadata={})
        assert serialize_document(doc) == (
            '{"m":3,"n":3,"t":4,"r":2,"towers":[[-9223372036854775808,9223372036854775807],'
            '[-1,0],[9,10],[99,100]]}\n'
        )

    def test_towers_far_outside_the_grid(self):
        doc = make_doc(m=6, n=4, t=3, towers=[Coord(-2, 1), Coord(2**62, -(2**62))], metadata={})
        assert serialize_document(doc) == (
            '{"m":6,"n":4,"t":3,"r":2,"towers":[[-2,1],'
            '[4611686018427387904,-4611686018427387904]]}\n'
        )

    def test_round_trip_identity(self):
        doc = make_doc(metadata={"anchor": (0, 2), "raw_count": 7, "generator": "best-anchor"})
        assert parse_document(serialize_document(doc)) == doc

    @given(
        m=st.integers(1, 20),
        n=st.integers(1, 20),
        t=st.integers(1, 9),
        r=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_randomized(self, m, n, t, r, data):
        coords = st.builds(Coord, st.integers(0, m - 1), st.integers(0, n - 1))
        towers = TowerSet(data.draw(st.lists(coords, max_size=8)))
        metadata = data.draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "anchor": st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    "raw_count": st.integers(0, 99),
                    "generator": st.sampled_from(["path", "letterbox", "best-anchor"]),
                    "tool_version": st.just("0.1.0"),
                },
            )
        )
        doc = BroadcastDocument(m=m, n=n, t=t, r=r, towers=towers, metadata=metadata)
        assert parse_document(serialize_document(doc)) == doc


ANY_VALUE = st.one_of(
    st.integers(-5, 2**70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.booleans()),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    st.lists(st.integers(-5, 5), max_size=3),
)


class TestConstructionRefusesWhatParsingRefuses:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"m": True},
            {"r": False},
            {"metadata": {"raw_count": True}},
            {"metadata": {"shear": "x"}},
            {"metadata": {"generator": 5}},
            {"metadata": {"anchor": (1, 2, 3)}},
            {"metadata": {"anchor": (1, True)}},
            {"metadata": {"color": "red"}},
            {"metadata": [("generator", "path")]},
            {"towers": [(0, 0)]},
            {"towers": np.array([[0.5, 0.0]])},
        ],
    )
    def test_refuses_what_would_not_parse_back(self, overrides):
        with pytest.raises(DocumentError):
            make_doc(**overrides)

    def test_refuses_uint64_towers_past_int64(self):
        towers = np.array([[2**63, 0]], dtype=np.uint64)
        with pytest.raises(DocumentError, match="must fit in 64-bit integers$"):
            make_doc(towers=towers)
        in_range = np.array([[2, 0]], dtype=np.uint64)
        assert make_doc(towers=in_range) == make_doc()

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 1)], ids=["2x3", "4", "2x2x1"])
    def test_refuses_tower_arrays_not_of_pairs(self, shape):
        towers = np.zeros(shape, dtype=np.int64)
        with pytest.raises(DocumentError, match=r"must have shape \(k, 2\), got "):
            make_doc(towers=towers)
        assert make_doc(towers=np.empty((0, 2), dtype=np.int64)).towers == TowerSet()

    def test_keeps_the_anchor_as_a_tuple(self):
        doc = make_doc(metadata={"anchor": [3, -1]})
        assert doc.metadata == {"anchor": (3, -1)}
        assert parse_document(serialize_document(doc)) == doc

    @given(
        dims=st.tuples(*[st.one_of(st.integers(-1, 2**40), st.booleans())] * 4),
        metadata=st.dictionaries(
            st.sampled_from(["anchor", "raw_count", "shear", "generator", "tool_version", "x"]),
            ANY_VALUE,
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_constructed_document_round_trips(self, dims, metadata):
        m, n, t, r = dims
        try:
            doc = BroadcastDocument(m, n, t, r, TowerSet([Coord(0, 0)]), metadata)
        except DocumentError:
            return
        assert parse_document(serialize_document(doc)) == doc


class TestParsing:
    def test_rejects_truncated_input(self):
        with pytest.raises(DocumentError):
            parse_document('{"m":5,"n":1,')

    def test_rejects_missing_keys(self):
        with pytest.raises(DocumentError, match="missing"):
            parse_document('{"m":5,"n":1,"t":4,"towers":[]}')

    def test_rejects_unknown_keys(self):
        with pytest.raises(DocumentError, match="unknown"):
            parse_document('{"m":5,"n":1,"t":4,"r":2,"towers":[],"extra":1}')

    def test_rejects_bad_tower_pairs(self):
        with pytest.raises(DocumentError):
            parse_document('{"m":5,"n":1,"t":4,"r":2,"towers":[[1]]}')
        with pytest.raises(DocumentError):
            parse_document('{"m":5,"n":1,"t":4,"r":2,"towers":[[1,"a"]]}')

    def test_rejects_towers_beyond_int64(self):
        with pytest.raises(DocumentError, match="64-bit"):
            parse_document('{"m":5,"n":1,"t":4,"r":2,"towers":[[0,0],[9223372036854775808,0]]}')
        far = parse_document('{"m":5,"n":1,"t":4,"r":2,"towers":[[-9223372036854775808,0]]}')
        assert far.towers.towers == (Coord(-(2**63), 0),)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(DocumentError):
            parse_document('{"m":0,"n":1,"t":4,"r":2,"towers":[]}')
        with pytest.raises(DocumentError):
            parse_document('{"m":5,"n":1,"t":4,"r":true,"towers":[]}')

    @pytest.mark.parametrize(
        "key,value",
        [
            ("raw_count", '[1,{"a":null}]'),
            ("raw_count", "true"),
            ("raw_count", "1.5"),
            ("raw_count", '"7"'),
            ("shear", "true"),
            ("shear", "2.0"),
            ("shear", "null"),
            ("generator", "7"),
            ("generator", '["path"]'),
            ("generator", "null"),
            ("tool_version", "1.5"),
            ("tool_version", "false"),
            ("anchor", "[0,true]"),
        ],
    )
    def test_rejects_ill_typed_metadata(self, key, value):
        text = '{"m":5,"n":1,"t":4,"r":2,"towers":[],"metadata":{"%s":%s}}' % (key, value)
        with pytest.raises(DocumentError, match=key):
            parse_document(text)

    def test_accepts_well_typed_metadata(self):
        text = (
            '{"m":5,"n":1,"t":4,"r":2,"towers":[],"metadata":{"anchor":[0,-1],'
            '"raw_count":0,"shear":-3,"generator":"letterbox","tool_version":"x"}}\n'
        )
        assert serialize_document(parse_document(text)) == text

    def test_rejects_unknown_metadata(self):
        with pytest.raises(DocumentError, match="metadata"):
            parse_document(
                '{"m":5,"n":1,"t":4,"r":2,"towers":[],"metadata":{"color":"red"}}'
            )

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"m":3,"n":3,"t":3,"r":2,"towers":[],"m":4}', "m"),
            ('{"m":3,"n":3,"t":3,"r":2,"towers":[[0,0]],"towers":[]}', "towers"),
            ('{"m":3,"n":3,"t":3,"r":2,"towers":[],"metadata":{"shear":1,"shear":1}}', "shear"),
        ],
    )
    def test_rejects_duplicate_keys(self, text, key):
        with pytest.raises(DocumentError, match=f"^duplicate key: {key!r}$"):
            parse_document(text)


INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, -(2**64)]


def reference_towers(towers):
    """The per-pair tower check that whole-list passes replace."""
    for pair in towers:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in pair)
        ):
            raise DocumentError(f"tower must be a pair of integers, got {pair!r}")
    try:
        return TowerSet(np.array(towers, dtype=np.int64).reshape(-1, 2))
    except OverflowError:
        raise DocumentError("tower coordinates must fit in 64-bit integers") from None


def reference_serialize(doc):
    """The document bytes written through one json.dumps of the whole payload."""
    payload = {"m": doc.m, "n": doc.n, "t": doc.t, "r": doc.r, "towers": doc.towers.xy.tolist()}
    if doc.metadata:
        payload["metadata"] = {
            key: list(doc.metadata[key]) if key == "anchor" else doc.metadata[key]
            for key in ("anchor", "raw_count", "shear", "generator", "tool_version")
            if key in doc.metadata
        }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except DocumentError as exc:
        return "error", str(exc)


coordinates = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(INT64_EDGES),
    st.integers(-(2**70), 2**70),
)
# Where the writer changes: 2**32 is the least magnitude it holds as uint64,
# and 10**k the least with k + 1 digits.
WRITER_EDGES = [2**32 - 1, 2**32] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
int64s = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([2**63 - 1, -(2**63)] + WRITER_EDGES + [-v for v in WRITER_EDGES]),
    st.integers(-(2**63), 2**63 - 1),
)
junk = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# Pairs of integers appear twice, so that many lists are valid throughout.
entries = st.one_of(
    st.lists(coordinates, min_size=2, max_size=2),
    st.lists(coordinates, min_size=2, max_size=2),
    st.lists(st.one_of(coordinates, junk), min_size=2, max_size=2),
    st.lists(coordinates, max_size=4),
    junk,
    coordinates,
    st.lists(st.lists(coordinates, max_size=2), min_size=2, max_size=2),
)


class TestWholeListPasses:
    @given(towers=st.lists(entries, max_size=12))
    @example(towers=[[1, 2, 3], [4]])  # as many coordinates as two pairs hold
    @example(towers=[[0, 0], [2.5, 1], [True, 0]])
    @settings(max_examples=400, deadline=None)
    def test_parse_matches_per_pair_reference(self, towers):
        # Compact separators write the canonical header, so the byte reader
        # sees every list that it accepts.
        payload = {"m": 3, "n": 3, "t": 3, "r": 2, "towers": towers}
        for separators in (None, (",", ":")):
            text = json.dumps(payload, separators=separators)
            expected = outcome(reference_towers, json.loads(text)["towers"])
            got = outcome(parse_document, text)
            if got[0] == "ok":
                got = ("ok", got[1].towers)
            assert got == expected

    @given(
        xy=st.lists(st.tuples(int64s, int64s), max_size=12),
        metadata=st.fixed_dictionaries(
            {},
            optional={
                "anchor": st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                "raw_count": st.integers(0, 2**63),
                "shear": st.integers(-9, 9),
                "generator": st.text(max_size=4),
                "tool_version": st.just("0.1.0"),
            },
        ),
        dims=st.tuples(*[st.integers(1, 2**40)] * 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_serialize_matches_one_json_dumps(self, xy, metadata, dims):
        towers = TowerSet(np.array(xy, dtype=np.int64).reshape(-1, 2))
        m, n, t, r = dims
        doc = BroadcastDocument(m=m, n=n, t=t, r=r, towers=towers, metadata=metadata)
        assert serialize_document(doc) == reference_serialize(doc)


class TestFixedWidthWriter:
    @staticmethod
    def assert_one_json_dumps(xy):
        doc = make_doc(m=3, n=3, towers=np.array(xy, dtype=np.int64).reshape(-1, 2), metadata={})
        assert serialize_document(doc) == reference_serialize(doc)

    @pytest.mark.parametrize("edge", WRITER_EDGES)
    def test_edges(self, edge):
        # Alone, beside shorter numbers (which the writer pads) and negated.
        self.assert_one_json_dumps([(edge, 0)])
        self.assert_one_json_dumps([(0, edge), (7, 10), (edge, edge)])
        self.assert_one_json_dumps([(-edge, 3), (1, -edge), (edge, -1)])

    @pytest.mark.parametrize(
        "xy",
        [
            [(-3, -1), (-12, -100), (-(2**63), -5), (-(2**32), -(10**18))],
            [(-(2**63), 0), (1, 2), (10**18, 5), (2**63 - 1, 2**32)],
            [(7, 9)],
            [(0, 0), (0, 7), (0, 10**8), (0, 99_999_999), (0, 12_345)],
            [(-5, 3), (-123_456, 7), (42, 0), (-1, 10**6)],
            [(3, -5), (7, -123_456), (0, 42), (10**6, -1)],
            [(2**32, 1), (-(2**40), 2), (2**63 - 1, 0), (5, 9)],
        ],
        ids=[
            "all-negative",
            "only-int64-min-negative",
            "one-tower",
            "x-zero-y-to-1e8",
            "negatives-only-in-x",
            "negatives-only-in-y",
            "x-past-2**32-small-y",
        ],
    )
    def test_lists(self, xy):
        self.assert_one_json_dumps(xy)

    def test_path_shape(self):
        # A 1 x n path: x is always 0, so its field is one column wide.
        xy = path_construct(GridDims(1, 40_000), 3).towers.xy
        assert (xy[:, 0] == 0).all()
        self.assert_one_json_dumps(xy)


def json_path_outcome(text):
    """parse_document's outcome with the byte reader turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "_read_tower_list", lambda text: None)
        return outcome(parse_document, text)


# 18 digits is the byte reader's limit; 10**18 and beyond take the JSON path.
wide_coordinates = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**18) + 1, 10**18 - 1),
    st.sampled_from([10**17, 10**18 - 1, -(10**18 - 1), 10**18, -(10**18)]),
    int64s,
)
metadatas = st.fixed_dictionaries(
    {},
    optional={
        "anchor": st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        "raw_count": st.integers(0, 99),
        "generator": st.text(max_size=4),
        "tool_version": st.just("0.1.0"),
    },
)


def documents(coordinates):
    return st.builds(
        lambda dims, xy, metadata: BroadcastDocument(
            *dims, towers=np.array(xy, dtype=np.int64).reshape(-1, 2), metadata=metadata
        ),
        st.tuples(*[st.integers(1, 2**40)] * 4),
        st.lists(st.tuples(coordinates, coordinates), max_size=8),
        metadatas,
    )


HEAD = '{"m":3,"n":3,"t":3,"r":2,"towers":'
NOT_JSON = "not valid JSON"
AT_38, AT_42 = "line 1 column 38 (char 37)", "line 1 column 42 (char 41)"
BEYOND_INT64 = "tower coordinates must fit in 64-bit integers"


class TestByteReader:
    @given(doc=documents(wide_coordinates), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_one_byte_mutation_matches_the_json_path(self, doc, data):
        text = serialize_document(doc)
        # One branch puts the mutation in the tower list, from its "[" to its "]".
        start = text.index("[")
        stop = text.find("]]") + 2 if doc.towers.xy.size else start + 2
        at = data.draw(st.integers(0, len(text) - 1) | st.integers(start, stop - 1))
        byte = data.draw(st.sampled_from('0123456789-,[] "'))
        keep = data.draw(st.sampled_from([at, at + 1]))  # insert, or flip the byte at `at`
        mutated = text[:at] + byte + text[keep:]
        assert outcome(parse_document, mutated) == json_path_outcome(mutated)

    @pytest.mark.parametrize(
        "rest,expected",
        [
            ("[[-0,5]]}", ("ok", [(0, 5)])),
            ("[[01,2]]}", ("error", f"{NOT_JSON}: Expecting ',' delimiter: {AT_38}")),
            ("[[999999999999999999,-999999999999999999]]}", ("ok", [(10**18 - 1, 1 - 10**18)])),
            ("[[1000000000000000000,0]]}", ("ok", [(10**18, 0)])),
            ("[[10000000000000000000,0]]}", ("error", BEYOND_INT64)),
            ("[[9223372036854775808,0]]}", ("error", BEYOND_INT64)),
            ("[[-9223372036854775808,0]]}", ("ok", [(-(2**63), 0)])),
            ("[]}", ("ok", [])),
            ("[[1]]}", ("error", "tower must be a pair of integers, got [1]")),
            ("[[0,0]]]}", ("error", f"{NOT_JSON}: Expecting ',' delimiter: {AT_42}")),
            ('[[0,0]],"towers":[[1,1]]}', ("error", "duplicate key: 'towers'")),
            ('[[0,0]],"metadata":{"generator":"é✓"}}', ("ok", [(0, 0)])),
        ],
    )
    def test_pinned_cases_match_the_json_path(self, rest, expected):
        text = HEAD + rest
        got = outcome(parse_document, text)
        assert got == json_path_outcome(text)
        if got[0] == "ok":
            got = ("ok", [(c.x, c.y) for c in got[1].towers])
        assert got == expected

    @pytest.mark.parametrize(
        "rest",
        [
            "[[1-2,3]]}",
            "[[--1,2]]}",
            "[[1,-]]}",
            "[[1,2]3,[4,5]]}",
            "[1[,2],[3,4]]}",
            "[[1,2],[[3,4]]}",
            "[[1,2], [3,4]]}",
            "[[1, 2]]}",
            "[[1,,2]]}",
            "[[1,2,3]]}",
            "[[1,2],[3]]}",
            "[[[1,2]]]}",
            "[[1,2],]]}",
            "[[1,2]]",
            "[[1,2]",
            "[[1",
            "[",
        ],
    )
    def test_misplaced_bytes_match_the_json_path(self, rest):
        assert outcome(parse_document, HEAD + rest) == json_path_outcome(HEAD + rest)

    @given(doc=documents(st.integers(-(10**18) + 1, 10**18 - 1)))
    @settings(max_examples=200, deadline=None)
    def test_only_other_layouts_reach_the_list_checks(self, doc):
        # A canonical document never falls back to the slow path; the same
        # document pretty-printed always takes it.
        calls = []
        real = document._tower_array

        def spy(towers):
            calls.append(len(towers))
            return real(towers)

        text = serialize_document(doc)
        pretty = json.dumps(json.loads(text), indent=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(document, "_tower_array", spy)
            assert parse_document(text) == doc
            assert calls == []
            assert parse_document(pretty) == doc
        assert calls == [len(doc.towers)]


def whole_read_error(text):
    """The DocumentError text of one json.loads of the whole text."""
    try:
        json.loads(text, object_pairs_hook=document._unique_keys)
    except json.JSONDecodeError as exc:
        return f"{NOT_JSON}: {exc}"
    except DocumentError as exc:
        return str(exc)
    raise AssertionError("the whole text is a JSON document")


class TestCorruptedCanonicalDocuments:
    # The byte reader reads the list of each; json.loads reads the rest with
    # the list replaced by "[]", and a JSON error is raised by a whole read.
    TEXT = serialize_document(
        make_doc(m=1, n=400, t=3, towers=path_construct(GridDims(1, 400), 3).towers)
    )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text.replace('"generator":"', '"generator":x"'),
            lambda text: text.replace("}}\n", "}\n"),
            lambda text: text.replace("]],", ']],"m":1,', 1),
        ],
        ids=["bad-metadata-byte", "missing-closing-brace", "repeated-key-after-the-list"],
    )
    def test_errors_are_those_of_a_whole_read(self, corrupt):
        text = corrupt(self.TEXT)
        assert text != self.TEXT
        assert document._read_tower_list(text) is not None
        expected = whole_read_error(text)
        with pytest.raises(DocumentError) as raised:
            parse_document(text)
        assert str(raised.value) == expected
        assert outcome(parse_document, text) == json_path_outcome(text)
