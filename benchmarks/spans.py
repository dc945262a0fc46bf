"""Span tracer that wraps qsd's public functions from the outside.

A span is (name, start, end, parent).  Spans are kept in memory and written
out once, at the end of a traced run.  A function's self time is its span
minus the time its direct child spans cover.  Nothing in `src/qsd` changes:
each listed function is replaced, for the duration of a traced pass, in
every qsd module namespace that binds it, so calls made through
`from .phase_rand import truncation_photon_number` are seen as well.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path
from time import perf_counter

#: Traced functions per module, the layers of the per-layer metrics.
LAYERS = {
    "fock": ("enumerate_subspace", "subspace_amplitudes", "hermitian_eig",
             "matrix_function"),
    "symmetric": ("subspace_states", "gram_matrix", "circulant_eigenvalues",
                  "srm_success_from_gram"),
    "oracle": ("srm", "helstrom_two", "block_srm", "whole_matrix_srm",
               "srm_success_pure", "span_orthonormal_basis", "verify_appendix_b"),
    "phase_rand": ("truncation_photon_number", "poisson_weights", "decompose",
                   "subspace_state_blocks", "mixed_state_matrix",
                   "phase_randomized_state", "subspace_symmetry_unitary"),
    "discrimination": ("family_pcorr", "family_p1bit", "family_bot", "delta_pcorr",
                       "four_mode_unambiguous", "three_mode_mixed_pcorr",
                       "phase_encoded_mixed_pcorr", "delta_pcorr_max",
                       "phase_encoded_ot_crossover"),
    "optics": ("apply_circuit", "click_statistics", "min_error_via_circuit"),
    "verify": ("suite_fock", "suite_gram", "suite_families", "suite_appendix_a",
               "suite_appendix_b", "suite_circuit"),
}


def _first(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


def _count_dimension(counters: dict, name: str, dim: int) -> None:
    counters[f"{name}.sum_d3"] += dim**3
    counters[f"{name}.dim_max"] = max(counters[f"{name}.dim_max"], dim)


def _observe_enumerate(counters, seen, args, kwargs, result, exc):
    modes = _first(args, kwargs, "modes")
    photons = args[1] if len(args) > 1 else kwargs["photons"]
    seen.add((modes, photons))
    counters["fock.enumerate_subspace.distinct"] = len(seen)


def _observe_eig(counters, seen, args, kwargs, result, exc):
    _count_dimension(counters, "fock.hermitian_eig", len(_first(args, kwargs, "m")))


def _observe_srm(counters, seen, args, kwargs, result, exc):
    _count_dimension(counters, "oracle.srm", len(_first(args, kwargs, "states")[0]))


def _observe_helstrom(counters, seen, args, kwargs, result, exc):
    _count_dimension(counters, "oracle.helstrom_two", len(_first(args, kwargs, "rho0")))


def _observe_truncation(counters, seen, args, kwargs, result, exc):
    if exc is None:
        counters["phase_rand.truncation_photon_number.terms"] += result + 1
    elif type(exc).__name__ == "CapacityError":
        counters["phase_rand.truncation_photon_number.capacity_errors"] += 1


#: Counts beyond calls and self time, with the hook that takes them.
COUNTERS = {
    "fock.enumerate_subspace": (("distinct",), _observe_enumerate),
    "fock.hermitian_eig": (("sum_d3", "dim_max"), _observe_eig),
    "oracle.srm": (("sum_d3", "dim_max"), _observe_srm),
    "oracle.helstrom_two": (("sum_d3", "dim_max"), _observe_helstrom),
    "phase_rand.truncation_photon_number": (("terms", "capacity_errors"),
                                            _observe_truncation),
}

#: Metrics that describe the traced run itself.
TRACE_METRICS = (
    ("trace.wall_s", "s"),       # traced unit of work, spans included
    ("trace.outside_s", "s"),    # part of trace.wall_s inside no span
    ("trace.overhead_s", "s"),   # traced minus untraced wall time
)


def layer_metric_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, functions in LAYERS.items():
        for function in functions:
            name = f"{module}.{function}"
            if module == "verify":
                out += [(f"{name}.s", "s"), (f"{name}.self_s", "s")]
                continue
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            extra, _hook = COUNTERS.get(name, ((), None))
            out += [(f"{name}.{stat}", "count") for stat in extra]
    out += [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
            ("cli.out_bytes", "B")]
    return out + list(TRACE_METRICS)


class Tracer:
    """Collects spans and per-function totals across traced units of work."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.root_s = 0.0
        self._open: list[list] = []  # [span index, seconds covered by children]
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id -> (original, traced)

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        stats, hook = COUNTERS.get(name, ((), None))
        for stat in stats:
            self.counters.setdefault(f"{name}.{stat}", 0)
        seen: set = set()
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1][0] if open_spans else -1
            spans.append(None)
            frame = [index, 0.0]
            open_spans.append(frame)
            exc = result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                open_spans.pop()
                duration = end - start
                spans[index] = (name_id, start - self.t0, end - self.t0, parent)
                self.calls[name_id] += 1
                self.total_s[name_id] += duration
                self.self_s[name_id] += duration - frame[1]
                if open_spans:
                    open_spans[-1][1] += duration
                else:
                    self.root_s += duration
                if hook is not None:
                    hook(self.counters, seen, args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        """Replace every LAYERS function in every qsd module that binds it."""
        if not self._wrappers:
            for module, functions in LAYERS.items():
                for function in functions:
                    original = getattr(sys.modules[f"qsd.{module}"], function)
                    traced = self.wrap(f"{module}.{function}", original)
                    self._wrappers[id(original)] = (original, traced)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qsd" and not mod_name.startswith("qsd."):
                continue
            for attr, value in list(vars(mod).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self._installed:
            setattr(mod, attr, original)
        self._installed.clear()

    def layer_values(self, units: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced units of work."""
        out = {}
        for name_id, name in enumerate(self.names):
            if name.startswith("verify."):
                out[f"{name}.s"] = self.total_s[name_id] / units
            else:
                out[f"{name}.calls"] = self.calls[name_id] / units
            out[f"{name}.self_s"] = self.self_s[name_id] / units
        for key, value in self.counters.items():
            out[key] = value if key.endswith((".dim_max", ".distinct")) else value / units
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: names first, then one
        [name index, start_s, end_s, parent span index or -1] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"names": self.names,
                                     "fields": ["name", "start_s", "end_s", "parent"]}))
            handle.write("\n")
            handle.writelines(f"[{n},{start:.9f},{end:.9f},{parent}]\n"
                              for n, start, end, parent in self.spans)
