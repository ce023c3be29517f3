"""Spans and size counters around the public functions of each conley
module, recorded from outside the library.

``Tracer.installed()`` replaces every boundary function (and the three
boundary methods) with a wrapper wherever the package's modules refer to
it, and restores the originals on exit.  Each call becomes a span with its
name, parent span, operation id and start and end times; spans stay in
memory until ``summary()`` folds them into per-boundary calls, total time
and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

MODULES = ("system_io", "report", "dynamics", "spectral", "linalg", "poly")

BOUNDARIES = (
    "system_io.parse_system",
    "report.build_index_report", "report.build_jordan_report",
    "report.build_zeta_report", "report.build_morse_report",
    "report.build_verify_report", "report.render_text",
    "report.render_json",
    "dynamics.conley_index", "dynamics.zeta_basic_set",
    "dynamics.zeta_via_index", "dynamics.morse_split_check",
    "dynamics.lefschetz_series", "dynamics.count_periodic",
    "dynamics.enumerate_periodic_oracle",
    "spectral.invariant_factors", "spectral.generalized_image",
    "spectral.generalized_kernel", "spectral.nonnilpotent_part",
    "spectral.jordan_profile",
    "linalg.charpoly", "linalg.mat_mul", "linalg.rank",
    "linalg.column_space", "linalg.kernel_basis", "linalg.solve_columns",
    "linalg.char_reversed",
    "poly.poly_gcd", "poly.squarefree_decomposition", "poly.exact_div",
    "poly.RationalFunction",
)

# Boundaries that are methods: the module-level ``rank`` only forwards to
# the method, and RationalFunction normalises (with a gcd) on construction.
METHODS = {"linalg.charpoly": ("RationalMatrix", "charpoly"),
           "linalg.rank": ("RationalMatrix", "rank"),
           "poly.RationalFunction": ("RationalFunction", "__init__")}

# Size counters: matrix dimension and entry bit length on spectral and
# linalg inputs, degree and coefficient bit length on poly_gcd inputs.
MATRIX_SIZED = ("spectral", "linalg")
POLY_SIZED = ("poly.poly_gcd",)

def _matrix_size(args):
    dim = bits = 0
    for a in args:
        entries = getattr(a, "_e", None)
        if entries is None:
            continue
        dim = max(dim, a.rows, a.cols)
        for x in entries:
            bits = max(bits, x.numerator.bit_length(),
                       x.denominator.bit_length())
    return dim, bits


def _poly_size(args):
    degree = bits = 0
    for p in args:
        coeffs = getattr(p, "coeffs", None)
        if coeffs is None:
            continue
        degree = max(degree, len(coeffs) - 1)
        for c in coeffs:
            bits = max(bits, c.bit_length())
    return degree, bits


class Tracer:
    """Collects spans for the operations run while it is installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        if name.split(".")[0] in MATRIX_SIZED:
            sizer = _matrix_size
        elif name in POLY_SIZED:
            sizer = _poly_size
        else:
            sizer = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            size = sizer(args) if sizer else (0, 0)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (name, parent, self.op, start, end) + size

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        mods = [importlib.import_module("conley")]
        mods += [importlib.import_module(f"conley.{m}")
                 for m in MODULES + ("cli",)]
        restore = []
        try:
            for name in BOUNDARIES:
                module, attr = name.split(".")
                mod = importlib.import_module(f"conley.{module}")
                if name in METHODS:
                    cls_name, method = METHODS[name]
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[method]
                    restore.append((cls, method, orig))
                    setattr(cls, method, self._wrap(name, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(name, orig)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            restore.append((m, key, orig))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for obj, key, orig in reversed(restore):
                setattr(obj, key, orig)

    def summary(self):
        """Per-boundary calls, total_s, self_s and size maxima (max_size is
        the matrix dimension, or the degree for poly_gcd; max_bits the
        entry or coefficient bit length), per-module self time, nested
        counts, and the span-level self times."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "max_size": 0, "max_bits": 0}
                 for name in BOUNDARIES}
        self_times = []
        for span_id, s in enumerate(self.spans):
            if s is None:
                continue
            name, _, _, start, end, size, bits = s
            own = (end - start) - child[span_id]
            self_times.append(own)
            st = stats[name]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += own
            st["max_size"] = max(st["max_size"], size)
            st["max_bits"] = max(st["max_bits"], bits)
        modules = {m: sum(st["self_s"] for n, st in stats.items()
                          if n.startswith(m + "."))
                   for m in MODULES}
        # Rank calls below a jordan_profile span: its rank-sequence length.
        rank_under_jordan = 0
        for s in spans:
            if s[0] != "linalg.rank":
                continue
            parent = s[1]
            while parent is not None:
                if self.spans[parent][0] == "spectral.jordan_profile":
                    rank_under_jordan += 1
                    break
                parent = self.spans[parent][1]
        nested = {"linalg.rank.calls_under_jordan_profile": rank_under_jordan}
        return {"boundaries": stats, "modules": modules, "nested": nested,
                "span_self_s": self_times}
