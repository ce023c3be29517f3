"""Reading and writing system description files.

The on-disk format is JSON: a ``basic_sets`` array where each set carries a
name, a Morse index and exactly one of ``matrix`` (square integer matrix,
row j / column k oriented so that column k carries the orientation sign of
symbol k) or ``graph`` (0/1 ``adjacency`` plus ``orientation`` signs), and
an optional ``ambient`` object with the manifold dimension, integer
homology maps per degree and a user-asserted ``split_at`` degree.

This module checks only the document's JSON shape: types, keys, square
integer matrices, homology-key syntax and repeats, and matrix-xor-graph.
It tests an integer where the file reads it, with the one integer check,
``dynamics._require_int``, so a file's first error keeps its place.
Every check on the values (signs, ranges, names) belongs to the spec
dataclasses in ``dynamics``; their errors are relocated under the basic
set's pointer here, so every error names a JSON pointer into the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .dynamics import (BasicSetSpec, StructureMatrix, SystemSpec,
                       VertexShiftSpec, _check_entries, _require_int,
                       build_structure_matrix)
from .errors import ValidationError, _shown
from .linalg import RationalMatrix


def _require_object(value, path, required, optional=()):
    if not isinstance(value, dict):
        raise ValidationError("expected an object", path)
    for key in required:
        if key not in value:
            raise ValidationError(f"missing required key {key!r}", path)
    allowed = set(required) | set(optional)
    for key in value:
        if key not in allowed:
            raise ValidationError(f"unknown key {_shown(key)}", path)


def _require_int_matrix(value, path):
    """value, checked to be a square list of int rows."""
    if not isinstance(value, list):
        raise ValidationError("expected an array of arrays", path)
    n = len(value)
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ValidationError("expected an array", f"{path}/{i}")
        if len(row) != n:
            raise ValidationError(
                f"row has {len(row)} entries, expected {n} (matrix must "
                "be square)", f"{path}/{i}")
        _check_entries(row, f"{path}/{i}")
    return value


@contextmanager
def _within(path):
    """Relocate a ValidationError that a spec raises, located in the spec's
    own document form, to ``path`` in the file."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(exc._message, path + exc.location) from None


def _parse_basic_set(obj, path):
    _require_object(obj, path, required=("name", "index"),
                    optional=("matrix", "graph"))
    index = _require_int(obj["index"], f"{path}/index")
    if ("matrix" in obj) == ("graph" in obj):
        raise ValidationError(
            "exactly one of 'matrix' and 'graph' is required", path)
    if "matrix" in obj:
        rows = _require_int_matrix(obj["matrix"], f"{path}/matrix")
        structure = StructureMatrix(
            RationalMatrix._from_scaled(rows, len(rows), 1), raw=True)
        shift = None
    else:
        gpath = f"{path}/graph"
        graph = obj["graph"]
        _require_object(graph, gpath, required=("adjacency", "orientation"))
        adjacency = _require_int_matrix(graph["adjacency"],
                                        f"{gpath}/adjacency")
        if not isinstance(graph["orientation"], list):
            raise ValidationError("expected an array",
                                  f"{gpath}/orientation")
        with _within(gpath):
            shift = VertexShiftSpec.from_lists(adjacency,
                                               graph["orientation"])
        structure = build_structure_matrix(shift)
    with _within(path):
        return BasicSetSpec(name=obj["name"], structure=structure,
                            index_u=index, shift=shift)


def _parse_ambient(obj, path):
    _require_object(obj, path, required=("dim",),
                    optional=("homology_maps", "split_at"))
    dim = _require_int(obj["dim"], f"{path}/dim")
    maps = {}
    raw_maps = obj.get("homology_maps", {})
    mpath = f"{path}/homology_maps"
    if not isinstance(raw_maps, dict):
        raise ValidationError("expected an object keyed by degree", mpath)
    for key, value in raw_maps.items():
        # A rejected key is located at its object, and shown if printable.
        if not (key.isascii() and key.isdigit()):
            shown = f" {_shown(key)}" if key.isprintable() else ""
            raise ValidationError(f"degree key{shown} is not a "
                                  "nonnegative integer", mpath)
        try:
            degree = int(key)
        except ValueError as exc:
            raise ValidationError("degree key has too many digits",
                                  mpath) from exc
        if degree in maps:
            raise ValidationError(f"degree {_shown(degree)} given twice",
                                  mpath)
        rows = _require_int_matrix(value, f"{mpath}/{key}")
        maps[degree] = RationalMatrix._from_scaled(rows, len(rows), 1)
    split_at = None
    if "split_at" in obj:
        split_at = _require_int(obj["split_at"], f"{path}/split_at")
    return dim, maps, split_at


def system_from_dict(doc):
    """Check a decoded system document's JSON shape and build the
    SystemSpec, whose constructors check the values."""
    _require_object(doc, "", required=("basic_sets",), optional=("ambient",))
    raw_sets = doc["basic_sets"]
    if not isinstance(raw_sets, list):
        raise ValidationError("expected an array", "/basic_sets")
    sets = tuple(_parse_basic_set(obj, f"/basic_sets/{i}")
                 for i, obj in enumerate(raw_sets))
    dim, maps, split_at = None, {}, None
    if "ambient" in doc:
        dim, maps, split_at = _parse_ambient(doc["ambient"], "/ambient")
    return SystemSpec(basic_sets=sets, ambient_dim=dim, ambient_maps=maps,
                      split_at=split_at)


def parse_system(path):
    """Read and validate a system description file.

    Undecodable bytes, malformed JSON, integers past the interpreter's
    digit limit and nesting past its recursion limit are all reported as
    a ValidationError located at the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8 text: {exc}",
                                  str(path)) from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"not valid JSON: {exc}", str(path)) from exc
    except RecursionError as exc:
        raise ValidationError("not valid JSON: nested too deeply",
                              str(path)) from exc
    return system_from_dict(doc)


def system_to_dict(system):
    """Serialise a SystemSpec back to the document form; parsing the
    result reproduces the SystemSpec exactly."""
    sets = []
    for basic in system.basic_sets:
        entry = {"name": basic.name, "index": basic.index_u}
        if basic.shift is not None:
            entry["graph"] = {
                "adjacency": [list(r) for r in basic.shift.adjacency],
                "orientation": list(basic.shift.orientation),
            }
        else:
            entry["matrix"] = basic.structure.matrix.to_int_rows()
        sets.append(entry)
    doc = {"basic_sets": sets}
    if system.ambient_dim is not None:
        ambient = {"dim": system.ambient_dim}
        if system.ambient_maps:
            ambient["homology_maps"] = {
                str(k): system.ambient_maps[k].to_int_rows()
                for k in sorted(system.ambient_maps)}
        if system.split_at is not None:
            ambient["split_at"] = system.split_at
        doc["ambient"] = ambient
    return doc
