"""Spans around polydc's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function with a wrapper that records
a span: name, start, end (in process CPU time) and parent.  `model`, `structure` and `dca`
import `lp_solve`, `lp_feasible` and `max_slack` by name, so a function is
rebound under every alias any polydc module (and the package) holds;
methods are replaced on their class.  Spans stay in memory, in flat
arrays, until the run ends.  Self time is a span's duration minus the time
its child spans cover; the tracer's own bookkeeping after a call (the
attribute hooks below) is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Optional


def _lp_attrs(args, kwargs, out) -> dict:
    """Computed, not measured: tableau inputs and result sizes of one LP."""
    lp = args[0] if args else kwargs["lp"]
    bits = 0
    numbers = list(out.point or ()) + ([out.value] if out.value is not None else [])
    for x in numbers:
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {
        "rows": len(lp.equalities) + len(lp.inequalities),
        "rows_max": len(lp.equalities) + len(lp.inequalities),
        "dim_max": lp.dimension,
        "infeasible": int(out.status.value == "infeasible"),
        "bits_max": bits,
    }


def _pieces_attrs(args, kwargs, out) -> dict:
    prob = args[0] if args else kwargs["prob"]
    return {"kept": len(out), "tried": 2 ** len(prob.h.pieces) - 1}


def _run_attrs(args, kwargs, out) -> dict:
    return {"iterations": len(out.iterates)}


# (module, qualified name, attribute hook) of every traced function
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("exactlp", "lp_solve", _lp_attrs),
    ("exactlp", "lp_feasible", None),
    ("exactlp", "max_slack", None),
    ("model", "PolyhedralSet.normal_cone", None),
    ("model", "ConvexBody.issubset", None),
    ("model", "ConvexBody.intersection_witness", None),
    ("model", "MaxAffine.subdifferential", None),
    ("model", "MaxAffine.conjugate_value", None),
    ("optimality", "classify", None),
    ("optimality", "is_critical", None),
    ("optimality", "is_stationary", None),
    ("structure", "solution_structure", None),
    ("structure", "global_solutions", None),
    ("structure", "local_pieces", _pieces_attrs),
    ("structure", "components", None),
    ("structure", "pieces_adjacent", None),
    ("dca", "run", _run_attrs),
    ("dca", "solve_subproblem", None),
    ("duality", "dual_objective", None),
    ("duality", "toland_singer_check", None),
    ("cli", "parse_problem", None),
    ("cli", "serialize_problem", None),
)

LAYERS = tuple(f"{module}.{name}" for module, name, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer_end = array("d")  # end plus the tracer's after-call work
        self.attrs: dict[int, dict] = {}  # span index -> hook values
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack = self._stack
        name_of, parent, start, end, outer_end = (
            self.name_of, self.parent, self.start, self.end, self.outer_end
        )
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            outer_end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index] = t0
                end[index] = outer_end[index] = t1
            if hook is not None:
                self.attrs[index] = hook(args, kwargs, out)
                outer_end[index] = clock()
            return out

        return traced

    def install(self) -> None:
        """Wrap every target of the polydc modules currently imported."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "polydc" or key.startswith("polydc.")
        ]
        for name_id, (module_name, qualname, hook) in enumerate(TARGETS):
            module = sys.modules[f"polydc.{module_name}"]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(name_id, original, hook))
                self._undo.append((owner, method, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name_id, original, hook)
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, alias, wrapper)
                        self._undo.append((m, alias, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self, lo: int, hi: int, scale: float = 1.0) -> dict[str, dict]:
        """Per-layer totals over spans [lo, hi), seconds multiplied by `scale`.

        For each layer: calls, total and self seconds, summed (or, for
        keys ending in `_max`, maximal) hook values, and `lp_calls`, the
        lp_solve spans nested anywhere below the layer's spans.
        """
        layers = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "lp_calls": 0}
            for name in LAYERS
        }
        covered = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                covered[p] = covered.get(p, 0.0) + self.outer_end[i] - self.start[i]
        lp_id = LAYERS.index("exactlp.lp_solve")
        for i in range(lo, hi):
            layer = layers[LAYERS[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            layer["calls"] += 1
            layer["total_s"] += scale * duration
            layer["self_s"] += scale * (duration - covered.get(i, 0.0))
            for key, value in self.attrs.get(i, {}).items():
                if key.endswith("_max"):
                    layer[key] = max(layer.get(key, 0), value)
                else:
                    layer[key] = layer.get(key, 0) + value
            if self.name_of[i] == lp_id:
                seen = set()
                p = self.parent[i]
                while p >= lo:
                    name_id = self.name_of[p]
                    if name_id not in seen:
                        seen.add(name_id)
                        layers[LAYERS[name_id]]["lp_calls"] += 1
                    p = self.parent[p]
        return layers
