import json

import pytest
from hypothesis import given, settings, strategies as st

from conley.dynamics import (BasicSetSpec, StructureMatrix, SystemSpec,
                             VertexShiftSpec)
from conley.errors import ValidationError
from conley.linalg import RationalMatrix
from conley.system_io import parse_system, system_from_dict, system_to_dict


def test_horseshoe_fixture(fixture_path):
    system = parse_system(fixture_path("horseshoe.json"))
    assert len(system.basic_sets) == 1
    basic = system.basic_sets[0]
    assert basic.name == "horseshoe"
    assert basic.index_u == 1
    assert basic.structure.matrix == \
        RationalMatrix.from_rows([[1, -1], [1, -1]])
    assert basic.shift is not None
    assert system.ambient_dim == 2


def test_torus_fixture(fixture_path):
    system = parse_system(fixture_path("torus.json"))
    assert [b.name for b in system.sorted_sets()] == \
        ["infinity", "lambda", "p"]
    assert system.ambient_dim == 2
    assert sorted(system.ambient_maps) == [0, 1, 2]
    assert system.ambient_maps[1] == \
        RationalMatrix.from_rows([[0, 1], [-1, 1]])
    assert system.split_at == 1


def test_empty_basic_sets():
    system = system_from_dict({"basic_sets": []})
    assert system.basic_sets == ()
    assert system.ambient_dim is None


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        parse_system(str(tmp_path / "nope.json"))


def test_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_system(str(path))


def _doc(**overrides):
    doc = {"basic_sets": [{"name": "s", "index": 1,
                           "matrix": [[1, 0], [0, 1]]}]}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("mutate, location", [
    (lambda d: d["basic_sets"][0].pop("name"), "/basic_sets/0"),
    (lambda d: d["basic_sets"][0].update(matrix=[[1, 0]]),
     "/basic_sets/0/matrix/0"),
    (lambda d: d["basic_sets"][0].update(matrix=[[1, "x"], [0, 1]]),
     "/basic_sets/0/matrix/0/1"),
    (lambda d: d["basic_sets"][0].update(index=-1), "/basic_sets/0/index"),
    (lambda d: d["basic_sets"][0].update(extra=1), "/basic_sets/0"),
    (lambda d: d.update(unknown=3), ""),
])
def test_schema_violations_carry_locations(mutate, location):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert err.value.location == location


def test_matrix_and_graph_are_exclusive():
    doc = _doc()
    doc["basic_sets"][0]["graph"] = {"adjacency": [[1]], "orientation": [1]}
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert "exactly one" in str(err.value)


def test_neither_matrix_nor_graph():
    with pytest.raises(ValidationError):
        system_from_dict({"basic_sets": [{"name": "s", "index": 0}]})


def test_duplicate_names_located():
    doc = {"basic_sets": [
        {"name": "s", "index": 0, "matrix": [[1]]},
        {"name": "s", "index": 0, "matrix": [[1]]},
    ]}
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert err.value.location == "/basic_sets/1/name"


def test_graph_validation():
    doc = {"basic_sets": [{"name": "s", "index": 0, "graph": {
        "adjacency": [[2]], "orientation": [1]}}]}
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert err.value.location == "/basic_sets/0/graph/adjacency/0/0"

    doc = {"basic_sets": [{"name": "s", "index": 0, "graph": {
        "adjacency": [[1]], "orientation": [0]}}]}
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert err.value.location == "/basic_sets/0/graph/orientation/0"


def test_booleans_are_not_integers():
    doc = {"basic_sets": [{"name": "s", "index": 0, "matrix": [[True]]}]}
    with pytest.raises(ValidationError):
        system_from_dict(doc)


def test_ambient_validation():
    base = {"basic_sets": [], "ambient": {"dim": 2, "homology_maps":
                                          {"3": [[1]]}}}
    with pytest.raises(ValidationError) as err:
        system_from_dict(base)
    assert err.value.location == "/ambient/homology_maps/3"

    with pytest.raises(ValidationError):
        system_from_dict({"basic_sets": [],
                          "ambient": {"dim": 1, "split_at": 2}})

    with pytest.raises(ValidationError) as err:
        system_from_dict({"basic_sets": [
            {"name": "s", "index": 3, "matrix": [[1]]}],
            "ambient": {"dim": 2}})
    assert err.value.location == "/basic_sets/0/index"


HUGE = 10 ** 5000       # past the interpreter's int-to-str digit limit


def _shift_doc(entry):
    return {"basic_sets": [{"name": "s", "index": 0, "graph": {
        "adjacency": [[entry]], "orientation": [1]}}]}


@pytest.mark.parametrize("doc, location, shown", [
    (_shift_doc(HUGE), "/basic_sets/0/graph/adjacency/0/0",
     "entry <integer of 16610 bits> not in [0, 1]"),
    ({"basic_sets": [], "ambient": {"dim": 1, "split_at": HUGE}},
     "/ambient/split_at", "split_at <integer of 16610 bits> outside 0..1"),
    ({"basic_sets": [], "ambient": {"dim": HUGE, "split_at": -1}},
     "/ambient/split_at", "split_at -1 outside 0..<integer of 16610 bits>"),
    ({"basic_sets": [], "ambient": {"dim": 1, "homology_maps":
                                    {"9" * 30: [[1]]}}},
     "/ambient/homology_maps/" + "9" * 30,
     "degree <integer of 100 bits> exceeds dim 1"),
    ({"basic_sets": [{"name": "s", "index": HUGE, "matrix": [[1]]}],
      "ambient": {"dim": 2}},
     "/basic_sets/0/index", "index <integer of 16610 bits> exceeds "
     "ambient dim 2"),
], ids=["adjacency-entry", "split_at", "dim", "degree", "index"])
def test_huge_integers_in_messages_are_abbreviated(doc, location, shown):
    with pytest.raises(ValidationError) as err:
        system_from_dict(doc)
    assert err.value.location == location
    assert str(err.value) == f"{location}: {shown}"


def _one_set(**fields):
    entry = {"name": "s", "index": 0, "matrix": [[1]]}
    entry.update(fields)
    return {"basic_sets": [entry]}


def _graph_set(adjacency, orientation):
    return {"basic_sets": [{"name": "s", "index": 0, "graph": {
        "adjacency": adjacency, "orientation": orientation}}]}


def _ambient(**fields):
    return {"basic_sets": [], "ambient": {"dim": 2, **fields}}


def _basic(name="s", index=0):
    return BasicSetSpec(name, StructureMatrix.from_rows([[1]]), index)


FORGED = "x\n   forged line"     # would forge a line of a text report

# Every check on a value of the input, each raised twice: by a document,
# at its pointer into the file, and by the library constructor, at its
# pointer into the system_to_dict form of the object it builds.
VIOLATIONS = {
    "negative-index": (_one_set(index=-1), "/basic_sets/0/index",
                       lambda: _basic(index=-1), "/index"),
    "index-type": (_one_set(index=1.5), "/basic_sets/0/index",
                   lambda: _basic(index=1.5), "/index"),
    "name-not-text": (_one_set(name=3), "/basic_sets/0/name",
                      lambda: _basic(3), "/name"),
    "empty-name": (_one_set(name=""), "/basic_sets/0/name",
                   lambda: _basic(""), "/name"),
    "newline-name": (_one_set(name=FORGED), "/basic_sets/0/name",
                     lambda: _basic(FORGED), "/name"),
    "surrogate-name": (_one_set(name="a\ud800"), "/basic_sets/0/name",
                       lambda: _basic("a\ud800"), "/name"),
    "adjacency-entry": (_graph_set([[1, 2], [0, 0]], [1, 1]),
                        "/basic_sets/0/graph/adjacency/0/1",
                        lambda: VertexShiftSpec.from_lists(
                            [[1, 2], [0, 0]], [1, 1]), "/adjacency/0/1"),
    "orientation-sign": (_graph_set([[1, 1], [1, 1]], [1, 0]),
                         "/basic_sets/0/graph/orientation/1",
                         lambda: VertexShiftSpec.from_lists(
                             [[1, 1], [1, 1]], [1, 0]), "/orientation/1"),
    "orientation-type": (_graph_set([[1]], ["x"]),
                         "/basic_sets/0/graph/orientation/0",
                         lambda: VertexShiftSpec.from_lists([[1]], ["x"]),
                         "/orientation/0"),
    "orientation-length": (_graph_set([[1]], [1, 1]),
                           "/basic_sets/0/graph/orientation",
                           lambda: VertexShiftSpec.from_lists([[1]], [1, 1]),
                           "/orientation"),
    "duplicate-name": ({"basic_sets": _one_set()["basic_sets"] * 2},
                       "/basic_sets/1/name",
                       lambda: SystemSpec((_basic(), _basic())),
                       "/basic_sets/1/name"),
    "index-above-dim": (dict(_one_set(index=3), ambient={"dim": 2}),
                        "/basic_sets/0/index",
                        lambda: SystemSpec((_basic(index=3),), 2),
                        "/basic_sets/0/index"),
    "negative-dim": ({"basic_sets": [], "ambient": {"dim": -1}},
                     "/ambient/dim", lambda: SystemSpec((), -1),
                     "/ambient/dim"),
    "dim-type": ({"basic_sets": [], "ambient": {"dim": 2.5}},
                 "/ambient/dim", lambda: SystemSpec((), 2.5), "/ambient/dim"),
    "degree-above-dim": (_ambient(homology_maps={"3": [[1]]}),
                         "/ambient/homology_maps/3",
                         lambda: SystemSpec(
                             (), 2, {3: RationalMatrix.from_rows([[1]])}),
                         "/ambient/homology_maps/3"),
    "split-above-dim": (_ambient(split_at=3), "/ambient/split_at",
                        lambda: SystemSpec((), 2, split_at=3),
                        "/ambient/split_at"),
    "negative-split": (_ambient(split_at=-1), "/ambient/split_at",
                       lambda: SystemSpec((), 2, split_at=-1),
                       "/ambient/split_at"),
    "split-type": (_ambient(split_at=1.5), "/ambient/split_at",
                   lambda: SystemSpec((), 2, split_at=1.5),
                   "/ambient/split_at"),
}


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_file_and_library_raise_one_located_message(case):
    doc, pointer, build, own_pointer = VIOLATIONS[case]
    with pytest.raises(ValidationError) as from_file:
        system_from_dict(doc)
    with pytest.raises(ValidationError) as from_library:
        build()
    assert from_file.value.location == pointer
    assert from_library.value.location == own_pointer
    message = str(from_file.value).removeprefix(f"{pointer}: ")
    assert str(from_library.value) == f"{own_pointer}: {message}"
    assert message.isprintable()


def test_zero_by_zero_matrix_is_legal():
    system = system_from_dict(
        {"basic_sets": [{"name": "void", "index": 0, "matrix": []}]})
    assert system.basic_sets[0].structure.matrix.rows == 0


@pytest.mark.parametrize("name", ["horseshoe.json", "torus.json",
                                  "fourhandle.json"])
def test_round_trip(fixture_path, name):
    system = parse_system(fixture_path(name))
    doc = system_to_dict(system)
    again = system_from_dict(doc)
    assert again == system
    assert system_to_dict(again) == doc
    # and the document is pure JSON
    json.dumps(doc)


# Keys of the schema are drawn often, so documents get past the first
# checks and reach the nested ones.
_KEYS = st.sampled_from(["basic_sets", "ambient", "name", "index", "matrix",
                         "graph", "adjacency", "orientation", "dim",
                         "homology_maps", "split_at"]) | st.text(max_size=4)
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=30)
_OBJECTS = st.dictionaries(_KEYS, _JSON, max_size=5)
_SHAPED = st.fixed_dictionaries(
    {"basic_sets": st.lists(_OBJECTS, max_size=1),
     "ambient": st.fixed_dictionaries(
        {"dim": st.integers(0, 3)},
        optional={"homology_maps": st.dictionaries(
            st.sampled_from(["0", "1", "01", "x", "\u00b2", "\u0661"]),
            st.sampled_from([[], [[1]], [[0, 1], [-1, 1]]]) | _JSON,
            max_size=3),
                  "split_at": _JSON})})


# Graph-shaped sets, so the shift's and the set's own checks meet raw JSON
# values: rows of mixed scalars, orientation lists of scalars, and names of
# any text, control characters and lone surrogates included.
_GRAPH_SET = st.fixed_dictionaries({
    "name": st.text(st.characters(exclude_categories=()), max_size=4),
    "index": st.integers(-1, 3),
    "graph": st.integers(0, 3).flatmap(lambda n: st.fixed_dictionaries({
        "adjacency": st.lists(st.lists(st.integers(0, 1) | st.integers()
                                       | _SCALARS, min_size=n, max_size=n),
                              min_size=n, max_size=n),
        "orientation": st.lists(st.sampled_from([1, -1]) | _SCALARS,
                                min_size=n, max_size=n)
        | st.lists(_SCALARS, max_size=4)}))})
_GRAPHS = st.fixed_dictionaries({"basic_sets": st.lists(_GRAPH_SET,
                                                        max_size=2)})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON | _SHAPED | _GRAPHS)
def test_any_json_value_is_a_system_or_a_validation_error(doc):
    try:
        system = system_from_dict(doc)
    except ValidationError:
        return
    assert isinstance(system, SystemSpec)
