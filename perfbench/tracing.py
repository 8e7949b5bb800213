"""Per-layer tracing of leveldecay from outside the package.

``Tracer.install`` replaces the public function of each layer, at every
module attribute of the package that refers to it, with a wrapper that
records a span (name, start, end, parent span, item id) and the work counters
that the result carries.  |V|^2 evaluations are counted at ``coupling_sq``
without a span of their own, since they number in the millions.  Spans are
kept in flat arrays in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, function, span name): the public entry point of each layer.
LAYERS = (
    ("leveldecay.cli", "main", "cli"),
    ("leveldecay.spectrum", "threshold_check", "spectrum.threshold"),
    ("leveldecay.spectrum", "find_eigenvalue", "spectrum.eigenvalue"),
    ("leveldecay.spectrum", "eigen_weight", "spectrum.weight"),
    ("leveldecay.spectrum", "build_spectral_data", "spectrum.density"),
    ("leveldecay.quadrature", "k_regular", "quadrature.k_regular"),
    ("leveldecay.quadrature", "k_pv", "quadrature.k_pv"),
    ("leveldecay.evolution", "amplitude_spectral", "evolution.transform"),
    ("leveldecay.volterra", "solve_ide", "volterra.solve"),
    ("leveldecay.volterra", "build_kernel_table", "volterra.kernel"),
    ("leveldecay.artifacts", "write_density_csv", "artifacts"),
    ("leveldecay.artifacts", "write_spectral_json", "artifacts"),
    ("leveldecay.artifacts", "write_series_csv", "artifacts"),
    ("leveldecay.artifacts", "write_decay_json", "artifacts"),
    ("leveldecay.artifacts", "write_sweep_csv", "artifacts"),
)
_K_SPANS = ("quadrature.k_pv", "quadrature.k_regular")

# Counters that are a pure function of the inputs: they must repeat exactly.
# Every ``*.calls`` counter is deterministic as well.
DETERMINISTIC = (
    "coupling.v2_nodes", "spectrum.rho_evals", "spectrum.segments",
    "volterra.steps", "evolution.times", "cli.items", "artifacts.bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.k_nodes = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _observe(self, name: str, result) -> None:
        c = self.counters
        if name == "spectrum.density":
            c["spectrum.rho_evals"] += result.grid.size
            c["spectrum.segments"] += result.segment_mass.size
            c["spectrum.norm_defect_max"] = max(
                c["spectrum.norm_defect_max"], result.normalization_defect
            )
        elif name == "evolution.transform":
            c["evolution.times"] += result.times.size
        elif name == "volterra.solve":
            n = result.times.size - 1
            c["volterra.steps"] += n
            c["volterra.n_sq"] += float(n) * n

    def _span(self, fn, name: str):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self.item_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def _counting_coupling(self, fn):
        k_ids = {self._name_id(n) for n in _K_SPANS}

        @functools.wraps(fn)
        def wrapper(model, x):
            out = fn(model, x)
            n = getattr(out, "size", 1)
            self.counters["coupling.v2_nodes"] += n
            if self._stack and self.name_of[self._stack[-1]] in k_ids:
                self.k_nodes += n
            return out

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("leveldecay"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, fn_name, span in LAYERS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self._replace_everywhere(original, self._span(original, span))
        coupling = sys.modules["leveldecay.coupling"]
        self._replace_everywhere(
            coupling.coupling_sq, self._counting_coupling(coupling.coupling_sq)
        )

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost only), self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != self.name_of[i]:
                p = self.parent[p]
            if p < 0:
                row["s"] += dur[i]
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: item, name, start, end, parent index."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("item\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.item[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
