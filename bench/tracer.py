"""Span and counter tracing of the invsub package from outside it.

`install` replaces the package's public functions with wrappers, at
every binding the package holds them under (for instance
`fplinalg.kernel` and `finite_oracle.kernel`, or `laurent.determinant`
and `pauli.determinant`), so a call is traced whichever module makes
it. Each wrapped call records a span: name, start, end, parent span and
the invocation it belongs to. A few hot methods are counted instead of
spanned. Nothing under the package changes on disk; the wrappers live
only in the worker process that installs them.

Self time of a span is its duration minus the durations of its direct
child spans; calls are single-threaded, so children never overlap.
Inclusive busy time of a function adds up only its outermost spans, so
a function reached again below itself is not counted twice.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, function): spanned. Hooks below add counts from arguments
# and results.
SPANNED = {
    "specio": ("resolve_spec",),
    "laurent": ("determinantal_profile", "minors", "matrix_inverse",
                "determinant"),
    "groebner": ("buchberger",),
    "pauli": ("check_invertible", "build_projector", "commutant_generators"),
    "qca": ("lift_to_qca", "qca_inverse"),
    "fplinalg": ("rref", "kernel", "row_space_intersection",
                 "coordinate_restriction", "solve", "row_basis",
                 "row_space_equal"),
    "finite_oracle": ("instantiate_spec", "check_invertible_finite",
                      "check_vs", "center_at_boundary_distance",
                      "instantiate_qca", "boundary_algebra_finite",
                      "verify_blend", "symplectic_complement"),
    "anyon_lab": ("build_hamiltonian", "topological_spin", "leg_string",
                  "gauss_sum_phase"),
    "weyl": ("dist_bounded", "unitary_distance"),
}

# (module, class, method) -> counter name: counted, not spanned, because
# they run millions of times.
COUNTED_METHODS = {
    ("laurent", "LaurentPoly", "__init__"): "laurent.LaurentPoly.constructed",
    ("weyl", "PhasedPauli", "__mul__"): "weyl.PhasedPauli.mul.calls",
}
COUNTED_FUNCTIONS = {
    ("groebner", "normal_form"): "groebner.normal_form.calls",
}


def _hooks():
    def rref(counts, args, out):
        shape = np.shape(args[0])
        rows, cols = (1, shape[0]) if len(shape) == 1 else shape[:2]
        counts["fplinalg.rref.cells"] += rows * cols
        counts["fplinalg.rref.max_cols"] = max(
            counts["fplinalg.rref.max_cols"], cols)

    def minors(counts, args, out):
        counts["laurent.minors.enumerated"] += len(out)

    def profile(counts, args, out):
        if out.rank:
            counts["laurent.minors.distinct"] += len(out.ideal.generators)

    def buchberger(counts, args, out):
        counts["groebner.buchberger.basis_size"] += len(out)

    def solve(counts, args, out):
        if out is None:
            counts["fplinalg.solve.infeasible"] += 1

    def instantiate_qca(counts, args, out):
        n = args[1].symplectic_len
        counts["finite_oracle.instantiate_qca.n"] = max(
            counts["finite_oracle.instantiate_qca.n"], n)

    def hamiltonian(counts, args, out):
        counts["anyon_lab.build_hamiltonian.terms"] += len(out.entries)

    return {
        "laurent.minors": minors,
        "laurent.determinantal_profile": profile,
        "groebner.buchberger": buchberger,
        "fplinalg.rref": rref,
        "fplinalg.solve": solve,
        "finite_oracle.instantiate_qca": instantiate_qca,
        "anyon_lab.build_hamiltonian": hamiltonian,
    }


class Tracer:
    """Spans kept in memory as [name, start, end, parent, invocation]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.invocation = -1

    def _span_wrapper(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, tracer.invocation])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each of its bindings in the
        already-imported package."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "invsub" or name.startswith("invsub.")]
        hooks = _hooks()

        def rebind(orig, wrapper):
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

        for modname, names in SPANNED.items():
            mod = sys.modules[f"invsub.{modname}"]
            for fname in names:
                key = f"{modname}.{fname}"
                orig = getattr(mod, fname)
                rebind(orig, self._span_wrapper(key, orig, hooks.get(key)))
        for (modname, fname), counter in COUNTED_FUNCTIONS.items():
            mod = sys.modules[f"invsub.{modname}"]
            orig = getattr(mod, fname)
            rebind(orig, self._count_wrapper(counter, orig))
        for (modname, cls, meth), counter in COUNTED_METHODS.items():
            klass = getattr(sys.modules[f"invsub.{modname}"], cls)
            setattr(klass, meth,
                    self._count_wrapper(counter, getattr(klass, meth)))

    def summary(self) -> dict:
        """Per-name calls, inclusive busy seconds and self seconds, plus
        counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                busy[name] += end - start
        vs_sites = sum(
            1 for name, _, _, parent, _ in spans
            if name == "fplinalg.coordinate_restriction" and parent >= 0
            and spans[parent][0] == "finite_oracle.check_vs")
        return {"calls": dict(calls), "busy_s": dict(busy),
                "self_s": dict(self_s), "counts": dict(self.counts),
                "check_vs_sites": vs_sites, "n_spans": len(spans)}
