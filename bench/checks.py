"""Known-answer checks on the CLI's ``--format json`` output.

Everything here is independent of the library: determinants and ranks go
through the benchmark's own integer elimination, and polynomial identities
are checked by evaluating both sides exactly at a few integer points.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import MORSE_Q, bareiss_det

POINTS = (2, 3, 5, 7, -2)


def poly_at(coeffs, t):
    out = 0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def int_rank(rows):
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def eventual_rank(rows):
    """rank(A^n), the dimension of the eventual image."""
    n = len(rows)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = int_matmul(power, rows)
    return int_rank(power)


def char_at(rows, t):
    """det(t I - A)."""
    n = len(rows)
    return bareiss_det([[(t if i == j else 0) - rows[i][j]
                         for j in range(n)] for i in range(n)])


def rev_char_at(rows, t):
    """det(I - t A)."""
    n = len(rows)
    return bareiss_det([[(1 if i == j else 0) - t * rows[i][j]
                         for j in range(n)] for i in range(n)])


def zeta_at(rows, index, t):
    """The zeta function det(I - t A)^((-1)^(index+1)) at t, or None when
    it has a pole there."""
    p = rev_char_at(rows, t)
    if index % 2 == 1:
        return Fraction(p)
    return None if p == 0 else Fraction(1, p)


def ratfunc_at(encoded, t):
    den = poly_at(encoded["denominator"], t)
    if den == 0:
        return None
    return Fraction(poly_at(encoded["numerator"], t), den)


def _profile_dict(entries):
    return {tuple(e["factor"]): (e["kind"], e["block_sizes"])
            for e in entries}


def check_index(report, case, problems):
    known = {name: (u, rows) for name, u, rows in case.matrices()}
    for section in report["basic_sets"]:
        name = section["name"]
        u, rows = known[name]
        n = len(rows)
        dim = eventual_rank(rows)
        info = section["conley_index"]
        if dim == 0:
            if info["nontrivial_degree"] is not None:
                problems.append(f"{name}: nilpotent set has a nontrivial "
                                "index")
            continue
        if info["nontrivial_degree"] != u or info["dim"] != dim:
            problems.append(f"{name}: index dim {info.get('dim')} in degree "
                            f"{info['nontrivial_degree']}, expected {dim} "
                            f"in degree {u}")
            continue
        factors = info["invariant_factors"]
        if name in case.factors:
            if factors != case.factors[name]:
                problems.append(f"{name}: invariant factors {factors}, "
                                f"planted {case.factors[name]}")
            continue
        if sum(len(f) - 1 for f in factors) != dim:
            problems.append(f"{name}: invariant factor degrees do not sum "
                            f"to {dim}")
        for t in POINTS[:2]:
            value = t ** (n - dim)
            for f in factors:
                value *= poly_at(f, t)
            if value != char_at(rows, t):
                problems.append(f"{name}: invariant factors disagree with "
                                f"det(tI - A) at t = {t}")


def check_jordan(report, case, problems):
    known = {name: rows for name, _, rows in case.matrices()}
    for section in report["basic_sets"]:
        name = section["name"]
        rows = known[name]
        entries = section["jordan_profile"]
        for e in entries:
            if (sum(e["block_sizes"]) != e["algebraic_multiplicity"]
                    or len(e["block_sizes"]) != e["geometric_multiplicity"]):
                problems.append(f"{name}: inconsistent multiplicities for "
                                f"{e['factor_display']}")
        profile = _profile_dict(entries)
        nonzero = dict(profile)
        nonzero.pop((0, 1), None)
        if _profile_dict(section["nonzero_profile"]) != nonzero:
            problems.append(f"{name}: nonzero profile is not the profile "
                            "without the zero class")
        if name in case.planted:
            expected = case.planted[name]
            if profile != expected:
                problems.append(f"{name}: profile {sorted(profile.items())}"
                                f", planted {sorted(expected.items())}")
            continue
        if sum((len(e["factor"]) - 1) * e["algebraic_multiplicity"]
               for e in entries) != len(rows):
            problems.append(f"{name}: profile does not fill the space")
        for t in POINTS[:2]:
            value = 1
            for e in entries:
                value *= poly_at(e["factor"], t) ** e["algebraic_multiplicity"]
            if value != char_at(rows, t):
                problems.append(f"{name}: profile factors disagree with "
                                f"det(tI - A) at t = {t}")


def _points_without_poles(values_at):
    """The first two evaluation points where every value exists and is
    nonzero, with the values there."""
    chosen = []
    for t in POINTS:
        vals = values_at(t)
        if all(v is not None and v != 0 for v in vals):
            chosen.append((t, vals))
        if len(chosen) == 2:
            break
    return chosen


def check_zeta(report, case, problems):
    known = {name: (u, rows) for name, u, rows in case.matrices()}
    sections = report["basic_sets"]
    for section in sections:
        u, rows = known[section["name"]]
        for t in POINTS[:2]:
            p = rev_char_at(rows, t)
            num = poly_at(section["zeta"]["numerator"], t)
            den = poly_at(section["zeta"]["denominator"], t)
            ok = num == p * den if u % 2 == 1 else num * p == den
            if not ok:
                problems.append(f"{section['name']}: zeta disagrees with "
                                f"det(I - tA) at t = {t}")
    if "product" not in report:
        return

    def values(t):
        vals = [ratfunc_at(s["zeta"], t) for s in sections]
        return vals + [ratfunc_at(report["product"], t)]

    for t, vals in _points_without_poles(values):
        expected = Fraction(1)
        for v in vals[:-1]:
            expected *= v
        if vals[-1] != expected:
            problems.append(f"zeta product is wrong at t = {t}")


def check_morse(report, case, problems):
    q = report["q"]
    sets = [(u, rows) for _, u, rows in case.matrices() if u <= q]
    maps = case.doc["ambient"]["homology_maps"]

    def values(t):
        vals = [zeta_at(rows, u, t) for u, rows in sets]
        for k in range(q + 1):
            vals.append(Fraction(rev_char_at(maps[str(k)], t)))
        return vals + [ratfunc_at(report[key], t)
                       for key in ("lhs", "rhs", "p")]

    chosen = _points_without_poles(values)
    if not chosen:
        problems.append("morse: no evaluation point without poles")
    for t, vals in chosen:
        lhs = Fraction(1)
        for v in vals[:len(sets)]:
            lhs *= v
        rhs = Fraction(1)
        for k, v in enumerate(vals[len(sets):len(sets) + q + 1]):
            rhs *= v ** ((-1) ** (k + 1))
        got_lhs, got_rhs, got_p = vals[-3:]
        if got_lhs != lhs or got_rhs != rhs:
            problems.append(f"morse: products disagree at t = {t}")
        if got_p ** ((-1) ** q) * lhs != rhs:
            problems.append(f"morse: P fails the identity at t = {t}")
    if report["is_integer_polynomial"] != (report["p"]["denominator"] == [1]):
        problems.append("morse: integrality verdict disagrees with P")


def check_verify(report, case, problems):
    if report["ok"] is not True:
        problems.append("verify: ok is not true")
    for c in report["checks"]:
        if c["status"] == "fail":
            problems.append(f"verify: {c['basic_set']} {c['check']} failed")


CHECKS = {"index": check_index, "jordan": check_jordan, "zeta": check_zeta,
          "morse": check_morse, "verify": check_verify}


def check_output(command, stdout, case):
    """Problems found in one command's JSON output (empty when correct)."""
    problems = []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{command}: output is not JSON: {exc}"]
    if report.get("command") != command:
        return [f"{command}: report is for {report.get('command')!r}"]
    if command == "morse" and report["q"] != MORSE_Q:
        return [f"morse: report is for q = {report['q']}"]
    CHECKS[command](report, case, problems)
    return problems
