"""Layer spans and counters, recorded from outside the program.

``Tracer.install()`` replaces chosen public functions and methods of
permstab's modules with wrappers, on every module that binds them, and puts
the originals back on exit.  A wrapper either opens a span (name, start,
end, parent, item id; kept in memory until the run ends) or, for calls made
millions of times, only bumps counters.  Wrapping changes no argument and no
return value.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# span name -> (module, attribute path) of every callable timed under it
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "groups.sl2_mod": [("groups", "sl2_mod")],
    "groups.closure": [("groups", "FinGroup.closure")],
    "groups.coset_reps": [("groups", "left_coset_reps")],
    "groups.perm_closure": [("groups", "group_from_perm_generators")],
    "groups.verify": [("groups", "GroupHom.verify"), ("groups", "PermAction.verify")],
    "groups.regular": [("groups", "left_regular"), ("groups", "right_regular")],
    "groups.direct_product": [("groups", "direct_product")],
    "families.flagship_family": [("families", "flagship_family")],
    "families.bitranslation": [("families", "build_bitranslation")],
    "families.swap_search": [("families", "build_swap_family")],
    "families.defect_report": [("families", "defect_report")],
    "spectral.kazhdan_bracket": [("spectral", "kazhdan_bracket")],
    "spectral.eigensolve": [("spectral", "_lambda1")],
    "spectral.kazhdan_exact": [("spectral", "kazhdan_abelian_exact")],
    "almost_invariant.round_to_invariant": [("almost_invariant", "round_to_invariant")],
    "rounding.nearest_right_translation": [("rounding", "nearest_right_translation")],
    "rounding.extract_conjugacy": [("rounding", "extract_conjugacy")],
    "rounding.commuting_extension": [("rounding", "commuting_extension")],
    "rounding.rigidity_pipeline": [("rounding", "rigidity_pipeline")],
    "rounding.certified_kappa": [("rounding", "certified_kappa_lower")],
    "oracle.nearest_hom": [("oracle", "nearest_homomorphism_bruteforce")],
    "experiment.run_instance": [("experiment", "run_instance")],
    "experiment.artifacts": [("experiment", "run_experiment")],
    "cli.main": [("cli", "main")],
}

_GROUP_CLASSES = ("FinGroup", "TableGroup", "CyclicGroup", "DirectProductGroup", "SL2Group", "PermGroup")

# counter name -> callables counted (no span: these run up to millions of times)
COUNTS: Dict[str, List[Tuple[str, str]]] = {
    "groups.mul": [("groups", f"{c}.mul") for c in ("FinGroup", "PermGroup")],
    "groups.mul_many": [("groups", f"{c}.mul_many") for c in _GROUP_CLASSES[1:]],
    "groups.left_perm": [("groups", "FinGroup.left_perm")],
    "perms.compose": [("perms", "compose")],
    "perms.hamming": [("perms", "hamming")],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]


class Tracer:
    """Spans and counters of one traced run, all in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.item: Optional[str] = None
        self.innermost: Optional[str] = None  # name of the innermost open span
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(len(self.spans) - 1)
        self.innermost = name
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()
        self.innermost = self.spans[self._stack[-1]].name if self._stack else None

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return self._observe(name, fn, args, kwargs)
            finally:
                self.close(index)

        return wrapper

    def _observe(self, name: str, fn: Callable, args, kwargs):
        if name == "spectral.eigensolve":
            # _lambda1 returns (lambda, iterations); its LOBPCG warnings are
            # counted here instead of reaching stderr
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            self.counts["spectral.solver_iterations"] += int(out[1])
            self.counts["spectral.solver_warnings"] += len(caught)
            return out
        out = fn(*args, **kwargs)
        if name == "oracle.nearest_hom":
            self.counts["oracle.candidates"] += int(out.search_space_size)
        return out

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        if name == "groups.mul_many":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                size = out.size  # arrays and numpy scalars alike
                counts["groups.mul_many.calls"] += 1
                counts["groups.mul_many.elems"] += size
                if self.innermost == "families.swap_search":
                    counts["families.swap_search.products"] += size
                return out

            return wrapper

        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Installed":
        """Wrap every target on every permstab module that binds it."""
        undo = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == "permstab" or k.startswith("permstab.")]
        for table, make in ((SPANS, self._spanned), (COUNTS, self._counted)):
            for name, targets in table.items():
                for module, path in targets:
                    owner = sys.modules[f"permstab.{module}"]
                    *cls_path, attr = path.split(".")
                    for part in cls_path:
                        owner = getattr(owner, part)
                    if cls_path:  # a method: patch the class that defines it
                        original = owner.__dict__[attr]
                        undo.append((owner, attr, original))
                        setattr(owner, attr, make(name, original))
                        continue
                    original = getattr(owner, attr)
                    wrapped = make(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, key, original))
                                setattr(mod, key, wrapped)
        return Installed(undo)


class Installed:
    """Context manager that restores the original callables."""

    def __init__(self, undo):
        self.undo = undo

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so children never overlap each other.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Self time per span name (``<name>.s``), the counters, and span coverage."""
    out: Dict[str, float] = {f"{name}.s": 0.0 for name in SPANS}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{span.name}.s"] = out.get(f"{span.name}.s", 0.0) + own
    out.update(tracer.counts)
    covered = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
