"""Document format: byte-exact serialization and strict parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import (
    BroadcastDocument,
    Coord,
    DocumentError,
    TowerSet,
    parse_document,
    serialize_document,
)


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
