"""Span tracer that wraps sweedler's layer boundaries from outside.

`install()` replaces each boundary function in every namespace that holds
it (modules bind names with `from .graded import tensor_space`, so patching
the defining module alone would miss most calls) and each boundary method
on its class.  `uninstall()` puts the originals back.

A span is (boundary, start, end, parent) and stays in memory until
`collect()`, which reduces the spans of one pass to per-boundary calls,
raised calls, total time and self time.  Self time is a span's duration
minus the time covered by its child spans; the kernel is single-threaded,
so children never overlap.  Counted boundaries take no span, only a call
count, because they run millions of times per pass.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT = "job"

# (module, attribute): a span per call.
SPANS = (
    ("graded", "tensor_space"),
    ("coalgebras", "tensor_coalgebra"),
    ("coalgebras", "coextend_coderivation"),
    ("coalgebras", "coshuffle_comult"),
    ("algebras", "normal_forms"),
    ("algebras", "free_word_space"),
    ("algebras", "extend_derivation"),
    ("linalg", "RowSpace.add"),
    ("linalg", "RowSpace.reduce"),
    ("linalg", "kernel_basis"),
    ("linalg", "rank_of_columns"),
    ("linalg", "solve_membership"),
    ("complexes", "homology"),
    ("complexes", "check_square_zero"),
    ("barcobar", "bar"),
    ("barcobar", "cobar"),
    ("barcobar", "anticommutator_issues"),
    ("barcobar", "bialgebra_compat_issues"),
    ("sweedler_ops", "sweedler_product"),
    ("sweedler_ops", "example_construction"),
    ("sweedler_ops", "verify_measuring"),
    ("presets", "load_preset"),
    ("presentation", "PresentationFile.build"),
    ("presentation", "parse_text"),
    ("cli", "main"),
)

# (module, attribute): a call count only.
COUNTED = (
    ("graded", "GradedSpace.add"),
    ("scalars", "Field.add"),
    ("scalars", "Field.mul"),
    ("scalars", "Field.inv"),
)

# boundary -> (count name, amount taken from the call's result)
RESULT_COUNTS = {
    "graded.tensor_space": ("labels", lambda space: space.total_dim()),
    "algebras.free_word_space": ("words", lambda space: space.total_dim()),
    "linalg.RowSpace.add": ("zero", lambda row: row is None),
}


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m}.{a}" for m, a in SPANS]
        self.counted = [f"{m}.{a}" for m, a in COUNTED]
        # span columns, cleared in place by collect()
        self.kind: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.current = -1
        self.raised = [0] * len(self.names)
        self.result_counts = {name: 0 for name in RESULT_COUNTS}
        self.calls = [0] * len(self.counted)
        self._patches: list = []   # (owner, attribute, original)

    # -- spans ------------------------------------------------------------------
    def _open(self, kind: int) -> int:
        i = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.current = self.parent[i]

    def run_root(self, fn):
        """Run fn() inside a root span; returns its result."""
        i = self._open(0)
        try:
            return fn()
        except BaseException:
            self.raised[0] += 1
            raise
        finally:
            self._close(i)

    def _span_wrapper(self, kind: int, fn):
        name = self.names[kind]
        counter = RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(kind)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(i)
                tracer.raised[kind] += 1
                raise
            tracer._close(i)
            if counter is not None:
                tracer.result_counts[name] += counter[1](result)
            return result
        return wrapper

    def _count_wrapper(self, slot: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[slot] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------------
    def _namespaces(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "sweedler"
                                      or name.startswith("sweedler."))]

    def _patch(self, module: str, attr: str, make):
        mod = sys.modules[f"sweedler.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kind, (module, attr) in enumerate(SPANS, start=1):
            self._patch(module, attr,
                        lambda fn, k=kind: self._span_wrapper(k, fn))
        for slot, (module, attr) in enumerate(COUNTED):
            self._patch(module, attr,
                        lambda fn, s=slot: self._count_wrapper(s, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------------
    def collect(self) -> dict:
        """Per-boundary totals of the spans so far; then forget them."""
        n = len(self.kind)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "raised": self.raised[k], "total_s": 0.0,
                        "self_s": 0.0}
                 for k, name in enumerate(self.names)}
        for i in range(n):
            row = table[self.names[self.kind[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        for name, (count, _) in RESULT_COUNTS.items():
            table[name][count] = self.result_counts[name]
        for slot, name in enumerate(self.counted):
            table[name] = {"calls": self.calls[slot]}
        for col in (self.kind, self.start, self.end, self.parent):
            col.clear()
        self.raised = [0] * len(self.names)
        self.result_counts = dict.fromkeys(self.result_counts, 0)
        self.calls[:] = [0] * len(self.counted)
        return table
