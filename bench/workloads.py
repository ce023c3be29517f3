"""Seeded input generators for the conley benchmark, with known answers.

Every workload is a set of system files plus, for each CLI command, the
files that command runs on.  The three pinned fixtures run in every
workload, so every command and every traced layer is exercised everywhere;
on the workloads that do not target a command, its time is a small control
that an optimisation aimed elsewhere should leave alone.

All randomness comes from ``random.Random(seed)``: one seed always gives
byte-identical files.  Known answers (planted block sizes, planted
invariant factors) are recorded next to each basic set; ``checks.py``
compares them with the CLI's JSON output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

COMMANDS = ("index", "jordan", "zeta", "morse", "verify")

# Complex-pair quadratics t^2 + b t + c with b^2 < 4c, ascending coefficients.
COMPLEX_PAIRS = ([1, 0, 1], [1, 1, 1], [1, -1, 1], [2, 0, 1], [2, 1, 1],
                 [2, -1, 1], [2, 2, 1], [2, -2, 1])

FIXTURES = {
    "horseshoe": {
        "basic_sets": [{"name": "horseshoe", "index": 1,
                        "graph": {"adjacency": [[1, 1], [1, 1]],
                                  "orientation": [1, -1]}}],
        "ambient": {"dim": 2}},
    "fourhandle": {
        "basic_sets": [{"name": "four-handle", "index": 1,
                        "matrix": [[1, 0, -1, -1], [0, 1, 0, 0],
                                   [0, 1, 0, 0], [0, 1, 0, 0]]}],
        "ambient": {"dim": 2}},
    "torus": {
        "basic_sets": [{"name": "p", "index": 0, "matrix": [[1]]},
                       {"name": "lambda", "index": 1,
                        "matrix": [[0, 1], [-1, 1]]},
                       {"name": "infinity", "index": 2, "matrix": [[1]]}],
        "ambient": {"dim": 2,
                    "homology_maps": {"0": [[1]], "1": [[0, 1], [-1, 1]],
                                      "2": [[1]]},
                    "split_at": 1}},
}
FIXTURE_COMMANDS = {"index": ("horseshoe", "fourhandle", "torus"),
                    "jordan": ("horseshoe", "fourhandle", "torus"),
                    "zeta": ("horseshoe", "fourhandle", "torus"),
                    "morse": ("torus",),
                    "verify": ("horseshoe", "fourhandle", "torus")}
# A command that runs on the fixtures alone repeats them this many times
# per pass, so its few-millisecond time is measured over enough work to
# be steady.
FIXTURE_REPEATS = 20
MORSE_Q = 1


@dataclass
class Case:
    """One system file and what is known about its basic sets.

    ``planted`` maps a basic-set name to its known block profile, a dict
    from ascending factor coefficients (tuple) to (kind, block sizes);
    ``factors`` maps a name to its known invariant factors.
    """

    name: str
    doc: dict
    planted: dict = field(default_factory=dict)
    factors: dict = field(default_factory=dict)

    def matrices(self):
        """(name, index, integer rows) of every basic set."""
        out = []
        for s in self.doc["basic_sets"]:
            if "matrix" in s:
                rows = s["matrix"]
            else:
                g = s["graph"]
                n = len(g["adjacency"])
                rows = [[g["orientation"][k] * g["adjacency"][j][k]
                         for k in range(n)] for j in range(n)]
            out.append((s["name"], s["index"], rows))
        return out

    def text(self):
        return json.dumps(self.doc, indent=1, sort_keys=True) + "\n"


@dataclass
class Workload:
    name: str
    why: str
    cases: dict
    # command -> (case names, repeats per pass)
    plan: dict

    def ops(self):
        """(command, case name) pairs in pass order."""
        return [(cmd, c) for cmd in COMMANDS for c in self.plan[cmd][0]]


# ---------------------------------------------------------------------------
# integer matrix and polynomial helpers

def zeros(n):
    return [[0] * n for _ in range(n)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = zeros(n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def companion(coeffs):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    d = len(coeffs) - 1
    m = zeros(d)
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = -coeffs[i]
    return m


def jordan_block(lam, k):
    m = zeros(k)
    for i in range(k):
        m[i][i] = lam
        if i + 1 < k:
            m[i][i + 1] = 1
    return m


def quadratic_block(coeffs, k):
    """Block with companion(q) on the diagonal and identities above it; a
    single elementary divisor q^k because q'(C) is invertible."""
    c = companion(coeffs)
    m = zeros(2 * k)
    for b in range(k):
        for i in range(2):
            for j in range(2):
                m[2 * b + i][2 * b + j] = c[i][j]
        if b + 1 < k:
            m[2 * b][2 * b + 2] = 1
            m[2 * b + 1][2 * b + 3] = 1
    return m


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def conjugate(rng, m, ops, bound, density=0.0):
    """U m U^-1 for a random unimodular U: elementary operations (row i +=
    s * row j, then column j -= s * column i) that keep every entry within
    ``bound``, at least ``ops`` of them and then more until the share of
    nonzero entries reaches ``density``.  The cost of the minors and rank
    loops follows the zero pattern, so a fixed density keeps it steady
    from seed to seed."""
    n = len(m)
    m = [row[:] for row in m]
    if n < 2:
        return m
    done = 0
    for _ in range(200 * n * n):
        if done >= ops and sum(1 for row in m for x in row if x) \
                >= density * n * n:
            break
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        trial = [row[:] for row in m]
        for k in range(n):
            trial[i][k] += s * trial[j][k]
        for k in range(n):
            trial[k][j] -= s * trial[k][i]
        if max(abs(x) for row in trial for x in row) <= bound:
            m = trial
            done += 1
    return m


def bareiss_det(rows):
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[c][c] * m[i][j] - m[i][c] * m[c][j]) // prev
            m[i][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def profile_of(linear, quadratic, nilpotent):
    """Expected block profile: ``linear`` maps an integer eigenvalue to
    its block sizes, ``quadratic`` is (coefficients, sizes)."""
    out = {(-lam, 1): ("rational_eigenvalue", sorted(sizes, reverse=True))
           for lam, sizes in linear.items()}
    out[(0, 1)] = ("rational_eigenvalue", sorted(nilpotent, reverse=True))
    coeffs, sizes = quadratic
    out[tuple(coeffs)] = ("complex_pair", sorted(sizes, reverse=True))
    return out


def planted_matrix(linear, quadratic, nilpotent):
    blocks = [jordan_block(lam, k)
              for lam, sizes in linear.items() for k in sizes]
    blocks += [quadratic_block(quadratic[0], k) for k in quadratic[1]]
    blocks += [jordan_block(0, k) for k in nilpotent]
    return block_diag(blocks)


def random_matrix(rng, n, lo=-2, hi=2):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _set(name, index, rows):
    return {"name": name, "index": index, "matrix": rows}


def _single(name, index, rows):
    return {"basic_sets": [_set(name, index, rows)], "ambient": {"dim": 2}}


def fixture_cases():
    return {name: Case(name, doc) for name, doc in FIXTURES.items()}


# ---------------------------------------------------------------------------
# workloads

def _row_regular_shift(rng, n, d):
    """Adjacency with exactly d successors per symbol, so the periodic-word
    oracle enumerates n * d^(p-1) paths for period p; random signs."""
    adjacency = []
    for _ in range(n):
        row = [0] * n
        for k in rng.sample(range(n), d):
            row[k] = 1
        adjacency.append(row)
    return adjacency, [rng.choice((1, -1)) for _ in range(n)]


def _catalog_template():
    """The catalog's basic sets before the seed is applied, drawn once from
    a fixed stream: row-regular signed shifts, raw matrices in [-2, 2],
    nilpotent and singular matrices (n <= 5), each with a fixed index."""
    rng = random.Random("catalog-template")
    sets = []
    shapes = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2),
              (5, 3), (5, 4), (3, 2))
    for i, (n, d) in enumerate(shapes):
        sets.append(("shift", f"shift{i:02d}", i % 3,
                     _row_regular_shift(rng, n, d)))
    for i, n in enumerate((2, 3, 3, 4, 4, 5, 5, 5)):
        sets.append(("matrix", f"raw{i:02d}", (i + 1) % 3,
                     random_matrix(rng, n)))
    for i, n in enumerate((2, 3, 4, 5)):
        upper = zeros(n)
        for r in range(n):
            for c in range(r + 1, n):
                upper[r][c] = rng.randint(-2, 2)
        sets.append(("matrix", f"nilpotent{i:02d}", i % 3, upper))
    for i, n in enumerate((3, 4, 4, 5)):
        rank = n - 1 - i % 2
        inner = random_matrix(rng, rank)
        sets.append(("matrix", f"singular{i:02d}", (i + 2) % 3,
                     block_diag([inner, zeros(n - rank)])))
    return sets


def catalog(seed):
    """One file of 31 small basic sets (n <= 5) with the torus homology
    maps.  The seed relabels the symbols of each shift and conjugates each
    matrix unimodularly; spectra stay those of the fixed template, so the
    running zeta and Morse products (whose cost swings threefold with the
    spectra) cost the same for every seed while every presentation
    differs."""
    rng = random.Random(f"catalog-{seed}")
    sets = []
    for kind, name, index, data in _catalog_template():
        if kind == "shift":
            adjacency, orientation = data
            perm = list(range(len(adjacency)))
            rng.shuffle(perm)
            sets.append({"name": name, "index": index, "graph": {
                "adjacency": [[adjacency[perm[i]][perm[j]] for j in perm]
                              for i in perm],
                "orientation": [orientation[perm[i]] for i in perm]}})
        else:
            sets.append(_set(name, index,
                             conjugate(rng, data, 2 * len(data), 4)))
    for doc in FIXTURES.values():
        sets.extend(doc["basic_sets"])
    doc = {"basic_sets": sets, "ambient": FIXTURES["torus"]["ambient"]}
    cases = fixture_cases()
    cases["catalog"] = Case("catalog", doc)
    plan = {cmd: (("catalog",), 1) for cmd in COMMANDS}
    return Workload("catalog", WHY["catalog"], cases, plan)


# Divisibility chains f1 | f2 | ... of companion blocks, written with
# q (a quadratic with roots on the unit circle, so powers of the index map
# stay small), l (a linear factor) and c = l q, plus nilpotent padding.
# The factors are fixed: their coefficients set the cost of the minors
# loop, so the seed only varies the conjugation.
DEROGATORY_TEMPLATES = (
    (("q", "c", "c"), [1, 1, 1], [-2, 1], (1,)),
    (("q", "q", "q"), [1, -1, 1], [1, 1], (2,)),
    (("l", "c", "c"), [1, 0, 1], [2, 1], (1,)),
    (("c", "c"), [1, 1, 1], [-1, 1], (2, 1)),
    (("q", "c", "c"), [1, 0, 1], [1, 1], (1,)),
)


def derogatory(seed):
    """Unimodular conjugates of block-diagonal matrices whose invariant
    factors repeat, padded with nilpotent Jordan blocks, for ``index`` and
    ``verify``; plus one dense nonderogatory matrix for ``index``, where
    the minors loop exits early."""
    rng = random.Random(f"derogatory-{seed}")
    cases = fixture_cases()
    names = []
    for t, (symbols, q, lin, nilpotent) in enumerate(DEROGATORY_TEMPLATES):
        factor = {"q": q, "l": lin, "c": poly_mul(lin, q)}
        chain = [factor[s] for s in symbols]
        blocks = [companion(f) for f in chain]
        blocks += [jordan_block(0, k) for k in nilpotent]
        base = block_diag(blocks)
        n = len(base)
        rows = conjugate(rng, base, 2 * n, 10, 0.95)
        name = f"derog{t:02d}"
        case = Case(name, _single(name, 1, rows))
        case.factors[name] = [list(f) for f in chain]
        cases[name] = case
        names.append(name)
    n = 12
    while True:
        rows = random_matrix(rng, n, -1, 1)
        if bareiss_det(rows):
            break
    cases["nonderog"] = Case("nonderog", _single("nonderog", 1, rows))
    plan = _with_fixtures({"index": names + ["nonderog"], "verify": names})
    return Workload("derogatory", WHY["derogatory"], cases, plan)


DENSE_PLANTED = (
    # n = 16
    ({0: (3, 2), 1: (2, 1, 1)}, (2,), (2, 1)),
    # n = 18
    ({0: (3, 1), 1: (2, 2)}, (2, 1), (2, 1, 1)),
)
DENSE_RANDOM = (16, 18)
EIGENVALUES = (-2, -1, 1, 2, 3)


def dense(seed):
    """Structure matrices at n = 16..18: random entries in [-2, 2], and
    planted profiles with repeated integer eigenvalues, one complex pair
    and nilpotent blocks, conjugated unimodularly."""
    rng = random.Random(f"dense-{seed}")
    cases = fixture_cases()
    names = []
    for t, n in enumerate(DENSE_RANDOM):
        name = f"random{t:02d}"
        cases[name] = Case(name, _single(name, 1 + t % 2,
                                         random_matrix(rng, n)))
        names.append(name)
    for t, (linear_shape, quad_sizes, nilpotent) in enumerate(DENSE_PLANTED):
        lams = rng.sample(EIGENVALUES, len(linear_shape))
        linear = {lams[k]: sizes for k, sizes in linear_shape.items()}
        quadratic = (rng.choice(COMPLEX_PAIRS), quad_sizes)
        base = planted_matrix(linear, quadratic, nilpotent)
        n = len(base)
        rows = conjugate(rng, base, 2 * n, 6, 0.9)
        name = f"planted{t:02d}"
        case = Case(name, _single(name, 1 + t % 2, rows))
        case.planted[name] = profile_of(linear, quadratic, nilpotent)
        cases[name] = case
        names.append(name)
    plan = _with_fixtures({"jordan": names, "zeta": names})
    return Workload("dense", WHY["dense"], cases, plan)


def _with_fixtures(main):
    """Each command runs on the workload's own files when it has some,
    else on the fixtures alone, repeated FIXTURE_REPEATS times."""
    plan = {}
    for cmd in COMMANDS:
        if cmd in main:
            plan[cmd] = (tuple(main[cmd]) + FIXTURE_COMMANDS[cmd], 1)
        else:
            plan[cmd] = (FIXTURE_COMMANDS[cmd], FIXTURE_REPEATS)
    return plan


WHY = {
    "catalog": "many small mixed basic sets through all five commands: "
               "parsing, rendering, the periodic oracle and the running "
               "zeta/Morse product carry the time",
    "derogatory": "index and verify on conjugated block matrices with "
                  "repeated invariant factors, n 8-9, and one nonderogatory "
                  "n=12: the minors route of invariant_factors dominates",
    "dense": "jordan and zeta at n 16-18, random and planted profiles: "
             "charpoly, matrix products and the rank-of-powers loop "
             "dominate",
}

WORKLOADS = {"catalog": catalog, "derogatory": derogatory, "dense": dense}


def probe_case():
    """The known-defect reproducer: a companion(t^2 - 2) block of size 2
    plus two companion(t^2 - 3) blocks.  The correct profile has t^2 - 2
    with one block of size 2 and t^2 - 3 with two blocks of size 1."""
    rows = block_diag([quadratic_block([-2, 0, 1], 2),
                       companion([-3, 0, 1]), companion([-3, 0, 1])])
    case = Case("probe", _single("probe", 1, rows))
    case.planted["probe"] = {(-2, 0, 1): ("unresolved", [2]),
                             (-3, 0, 1): ("unresolved", [1, 1])}
    return case


def write_cases(workload, directory):
    """Write every case file of a workload; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, case in sorted(workload.cases.items()):
        path = directory / f"{name}.json"
        path.write_text(case.text(), encoding="utf-8")
        paths[name] = path
    return paths
