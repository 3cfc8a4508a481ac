"""Spans around the public functions of each epsclass layer.

`Tracer.install` replaces every boundary in BOUNDARIES by a wrapper that
records a span (name, parent span, start, end) and adds the call's self
time, its duration minus the time of the traced calls nested in it.  The
modules import each other's names with ``from .x import y``, so a
function is rebound in every epsclass module that holds it; methods and
constructors are replaced on their class.  Spans stay in memory until
`write` saves them.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# module -> public boundaries; "Class" alone traces construction.
BOUNDARIES = {
    "quadforms": ["compose", "reduce_imaginary", "reduced_forms_imaginary",
                  "reduce_indefinite", "cycle_indefinite", "TrackedIdeal.mul",
                  "TrackedIdeal.reduce", "TrackedIdeal.principal_generator"],
    "quadclass": ["imaginary_presentation", "narrow_presentation",
                  "class_number_bsgs", "ClassGroupPresentation.adjoin",
                  "ClassGroupPresentation.structure", "prime_form",
                  "batch_prime", "scan_arrays", "scan_local_maxima"],
    "arith": ["kronecker", "factor", "is_prime"],
    "zlin": ["solve_lattice", "hnf_columns", "kernel_columns",
             "solution_lattice", "smith_diagonal"],
    "abgroup": ["AbelianGroupStructure.from_relation_matrix"],
    "pram": ["ResidueUnits", "ResidueUnits.dlog", "ray_class_group",
             "tor_report", "full_imaginary_presentation", "fundamental_unit",
             "s_class_group"],
    "filtration": ["synthesize", "direct_sum", "filtration",
                   "filtration_iterated", "fixed_subgroup", "module_order"],
}

SPAN_NAMES = [f"{mod}.{name}" for mod, names in BOUNDARIES.items()
              for name in names]


def layer_metric_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit, in a fixed order."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "calls/item"
        out[f"{name}.self_ms"] = "ms/item"
    out["filtration.synthesize.attempts"] = "sums/module"
    out["trace.overhead_pct"] = "%"
    return out


class Tracer:
    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []      # [span index, nested seconds]
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans
    def _wrap(self, nid: int, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                calls[nid] += 1
                self_s[nid] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------- rebinding
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name, names in BOUNDARIES.items():
            mod = importlib.import_module(f"epsclass.{mod_name}")
            for name in names:
                nid = SPAN_NAMES.index(f"{mod_name}.{name}")
                if "." in name:
                    cls_name, meth = name.split(".")
                    self._wrap_method(nid, getattr(mod, cls_name), meth)
                elif isinstance(getattr(mod, name), type):
                    self._wrap_method(nid, getattr(mod, name), "__init__")
                else:
                    self._wrap_function(nid, getattr(mod, name))

    def _wrap_method(self, nid: int, cls, meth: str) -> None:
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(nid, raw.__func__))
        else:
            new = self._wrap(nid, raw)
        setattr(cls, meth, new)
        self._undo.append((cls, meth, raw))

    def _wrap_function(self, nid: int, fn) -> None:
        new = self._wrap(nid, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "epsclass" and not mod_name.startswith("epsclass."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # --------------------------------------------------------- results
    def layer_metrics(self, items: int, scale: float = 1.0) -> dict[str, float]:
        """Calls and self milliseconds per item, for every boundary; `scale`
        converts measured seconds to the caller's reference seconds."""
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[nid] / items
            out[f"{name}.self_ms"] = 1e3 * scale * self.self_s[nid] / items
        synth = self.calls[SPAN_NAMES.index("filtration.synthesize")]
        sums = self._nested_calls("filtration.direct_sum",
                                  "filtration.synthesize")
        out["filtration.synthesize.attempts"] = sums / synth if synth else 0.0
        return out

    def _nested_calls(self, child: str, parent: str) -> int:
        cid, pid = SPAN_NAMES.index(child), SPAN_NAMES.index(parent)
        names, parents = self.span_name, self.span_parent
        return sum(1 for i, nid in enumerate(names)
                   if nid == cid and parents[i] >= 0
                   and names[parents[i]] == pid)

    def write(self, path: Path) -> None:
        """Save the spans as .npz: the span names plus one column per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(SPAN_NAMES),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
