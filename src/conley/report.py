"""Deterministic report construction and rendering.

Builders produce plain dicts (JSON-ready: integers, strings, lists) with a
fixed key order; renderers turn them into text or JSON.  Basic sets are
always listed sorted by name, polynomials as ascending integer coefficient
arrays, and rational matrix entries as integers or "p/q" strings, so the
same input yields byte-identical output on every run.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import gcd

from .dynamics import (BasicSetAnalysis, StepBudget, _power_traces,
                       _require_int, conley_index, count_periodic,
                       enumerate_periodic_oracle, lefschetz_series,
                       morse_split_check, zeta_basic_set, zeta_via_index)
from .errors import ResourceError, ValidationError, _decimal, _shown
from .poly import IntPolynomial
from .spectral import generalized_kernel, jordan_profile


def encode_matrix(m):
    """Integer rows, with a rational entry x / D of the stored form written
    "p/q" in lowest terms, one gcd each."""
    denom, rows = m._scaled_int_rows()
    if denom == 1:
        return [list(row) for row in rows]
    return [[_ratio(x, denom) for x in row] for row in rows]


def _ratio(x, denom):
    g = gcd(x, denom)
    if g == denom:
        return x // g
    return f"{_decimal(x // g)}/{_decimal(denom // g)}"


def encode_poly(p):
    return list(p.coeffs)


def encode_ratfunc(f):
    return {"numerator": encode_poly(f.num),
            "denominator": encode_poly(f.den),
            "display": str(f)}


def _set_header(basic):
    return {"name": basic.name, "index": basic.index_u,
            "matrix": encode_matrix(basic.structure.matrix),
            "from_graph": basic.shift is not None}


def build_index_report(system):
    dim = system.effective_dim()
    sets = []
    for basic in system.sorted_sets():
        section = _set_header(basic)
        index = conley_index(basic, dim)
        if index.is_trivial:
            section["conley_index"] = {"nontrivial_degree": None}
        else:
            degree = index.degrees()[0]
            entry = index.entry(degree)
            section["conley_index"] = {
                "nontrivial_degree": degree,
                "dim": entry.dim,
                "map": encode_matrix(entry.matrix),
                "invariant_factors": [encode_poly(f)
                                      for f in entry.invariant_factors],
            }
        sets.append(section)
    return {"command": "index", "ambient_dim": system.ambient_dim,
            "basic_sets": sets}


def _encode_profile(profile):
    return [{"factor": encode_poly(e.factor),
             "factor_display": str(e.factor),
             "kind": e.kind,
             "block_sizes": list(e.block_sizes),
             "algebraic_multiplicity": e.algebraic_multiplicity,
             "geometric_multiplicity": e.geometric_multiplicity}
            for e in profile.entries]


def build_jordan_report(system):
    sets = []
    for basic in system.sorted_sets():
        section = _set_header(basic)
        profile = jordan_profile(basic.structure.matrix)
        section["jordan_profile"] = _encode_profile(profile)
        section["nonzero_profile"] = _encode_profile(
            profile.without_zero_class())
        sets.append(section)
    return {"command": "jordan", "ambient_dim": system.ambient_dim,
            "basic_sets": sets}


def build_zeta_report(system):
    dim = system.effective_dim()
    sets = []
    product = None
    for basic in system.sorted_sets():
        section = _set_header(basic)
        zeta = zeta_basic_set(basic, dim)
        section["zeta"] = encode_ratfunc(zeta)
        product = zeta if product is None else product * zeta
        sets.append(section)
    report = {"command": "zeta", "ambient_dim": system.ambient_dim,
              "basic_sets": sets}
    if product is not None:
        report["product"] = encode_ratfunc(product)
    return report


def build_morse_report(system, q):
    result = morse_split_check(system, q)
    return {"command": "morse", "q": q,
            "split_asserted_at": result.split_asserted_at,
            "lhs": encode_ratfunc(result.lhs_product),
            "rhs": encode_ratfunc(result.rhs_product),
            "p": encode_ratfunc(result.p_of_t),
            "is_integer_polynomial": result.is_integer_polynomial}


def _check(name, check, status, detail):
    return {"basic_set": name, "check": check, "status": status,
            "detail": detail}


def _periodic_check(shift, max_enum):
    """Status and detail of ``periodic_counts``: the trace formula against
    brute-force words for periods 1..max_enum, on one StepBudget."""
    budget = StepBudget()
    try:
        for period in range(1, max_enum + 1):
            counted = count_periodic(shift, period)
            enumerated = enumerate_periodic_oracle(shift, period, budget)
            if counted != enumerated:
                return "fail", (f"n = {period}: trace gives {counted}, "
                                f"enumeration gives {enumerated}")
    except ResourceError as exc:
        return "skipped", str(exc)
    return "pass", f"trace formula matches enumeration for n = 1..{max_enum}"


def build_verify_report(system, max_enum=6):
    """Run the cross-check oracles on every basic set.

    Each check pits two routes against each other: brute-force periodic
    words vs the trace formula (``periodic_counts``, graphs only, all
    periods of one basic set sharing one StepBudget), the zeta function
    through the Conley index vs directly from the structure matrix
    (``zeta_routes``), the dimensions of the eventual kernel and image
    against n (``kernel_image_split``), A+ against its defining
    identities (``induced_map``) and the traces of A^k against those of
    A+^k for k = 1..4 (``trace_tail``; the nilpotent part of A adds
    trace 0 to every power).  A+ comes from one BasicSetAnalysis per basic
    set, so it is computed once and read by every check that needs it.
    """
    if _require_int(max_enum, "max_enum") < 1:
        raise ValidationError(
            f"max_enum must be at least 1, got {_shown(max_enum)}")
    dim = system.effective_dim()
    checks = []
    for basic in system.sorted_sets():
        name = basic.name
        a = basic.structure.matrix
        n = a.rows
        facts = BasicSetAnalysis(basic)

        if basic.shift is not None:
            checks.append(_check(name, "periodic_counts",
                                 *_periodic_check(basic.shift, max_enum)))

        direct = zeta_basic_set(facts, dim)
        via_index = zeta_via_index(facts, dim)
        checks.append(_check(name, "zeta_routes",
                             "pass" if direct == via_index else "fail",
                             f"direct {direct} vs index route {via_index}"))

        induced = facts.induced
        split_ok = generalized_kernel(a).dim + induced.image_basis.dim == n
        checks.append(_check(name, "kernel_image_split",
                             "pass" if split_ok else "fail",
                             f"dim gKer + dim gIm = {n}" if split_ok
                             else "dimension count failed"))

        try:
            induced.verify()
            status, detail = "pass", "intertwines its basis and is invertible"
        except Exception as exc:    # noqa: BLE001 - reported, not raised
            status, detail = "fail", str(exc)
        checks.append(_check(name, "induced_map", status, detail))

        tail_ok = lefschetz_series(basic, dim, 4) == \
            _power_traces(induced.matrix, 4)
        checks.append(_check(name, "trace_tail",
                             "pass" if tail_ok else "fail",
                             "trace(A^k) = trace(A+^k) for k = 1..4"
                             if tail_ok else "trace tails differ"))

    ok = all(c["status"] != "fail" for c in checks)
    return {"command": "verify", "ambient_dim": system.ambient_dim,
            "checks": checks, "ok": ok}


# ---------------------------------------------------------------------------
# rendering

def render_json(report):
    return _json(report, "") + "\n"


def _json(x, indent):
    """json.dumps(x, indent=2) for x nested at ``indent``, with its ints
    written by ``_decimal`` (json writes them with int.__repr__) and its
    strings, keys included, by the encoder json.dumps uses for them."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return _decimal(x)
    if not x or not isinstance(x, (dict, list, tuple)):
        return json.dumps(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in x.items()]
        brackets = "{}"
    else:
        items = [_json(v, inner) for v in x]
        brackets = "[]"
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def _text_set_header(section, lines):
    lines.append(f"basic set '{section['name']}' "
                 f"(index {section['index']})")
    lines.append("  structure matrix"
                 + (" (from graph):" if section["from_graph"] else ":"))
    for row in _decoded_matrix_lines(section["matrix"]):
        lines.append(f"    {row}")


def _decoded_matrix_lines(rows):
    if not rows or not rows[0]:
        return [f"[] ({len(rows)}x{len(rows[0]) if rows else 0})"]
    n = len(rows[0])
    cells = [x if type(x) is str else _decimal(x)
             for row in rows for x in row]
    width = max(map(len, cells))
    cells = [s.rjust(width) for s in cells]
    return ["[" + " ".join(cells[i:i + n]) + "]"
            for i in range(0, len(cells), n)]


def _poly_display(coeffs):
    return str(IntPolynomial(coeffs))


def _text_index(report, lines):
    for section in report["basic_sets"]:
        _text_set_header(section, lines)
        info = section["conley_index"]
        if info["nontrivial_degree"] is None:
            lines.append("  Conley index: (0, 0) in every degree")
        else:
            lines.append(f"  Conley index: degree "
                         f"{info['nontrivial_degree']}, dimension "
                         f"{info['dim']}; (0, 0) in every other degree")
            lines.append("    automorphism:")
            for row in _decoded_matrix_lines(info["map"]):
                lines.append(f"      {row}")
            factors = ", ".join(_poly_display(f)
                                for f in info["invariant_factors"])
            lines.append(f"    invariant factors: {factors}")
        lines.append("")


def _text_profile(entries, lines, indent):
    if not entries:
        lines.append(f"{indent}(empty)")
        return
    for e in entries:
        sizes = ", ".join(str(s) for s in e["block_sizes"])
        lines.append(
            f"{indent}{e['factor_display']}  [{e['kind']}]  "
            f"blocks ({sizes})  algebraic {e['algebraic_multiplicity']}, "
            f"geometric {e['geometric_multiplicity']}")


def _text_jordan(report, lines):
    for section in report["basic_sets"]:
        _text_set_header(section, lines)
        lines.append("  block profile:")
        _text_profile(section["jordan_profile"], lines, "    ")
        lines.append("  after removing the zero class:")
        _text_profile(section["nonzero_profile"], lines, "    ")
        lines.append("")


def _text_zeta(report, lines):
    for section in report["basic_sets"]:
        _text_set_header(section, lines)
        lines.append(f"  zeta function: {section['zeta']['display']}")
        lines.append("")
    if "product" in report:
        lines.append(f"product over all basic sets: "
                     f"{report['product']['display']}")


def _text_morse(report, lines):
    lines.append(f"Morse polynomial check at q = {report['q']}")
    asserted = report["split_asserted_at"]
    lines.append("  splitting asserted at: "
                 + ("(not asserted)" if asserted is None else str(asserted)))
    lines.append(f"  lhs (zeta product over indices <= q): "
                 f"{report['lhs']['display']}")
    lines.append(f"  rhs (ambient homology product):       "
                 f"{report['rhs']['display']}")
    lines.append(f"  P(t) = {report['p']['display']}")
    lines.append(f"  integer polynomial: "
                 f"{'yes' if report['is_integer_polynomial'] else 'no'}")


def _text_verify(report, lines):
    for c in report["checks"]:
        lines.append(f"{c['status']:>7}  {c['basic_set']}: {c['check']} "
                     f"({c['detail']})")
    lines.append("")
    lines.append("all checks passed" if report["ok"]
                 else "CHECK FAILURES DETECTED")


_TEXT = {"index": _text_index, "jordan": _text_jordan, "zeta": _text_zeta,
         "morse": _text_morse, "verify": _text_verify}


def render_text(report):
    lines = []
    _TEXT[report["command"]](report, lines)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
