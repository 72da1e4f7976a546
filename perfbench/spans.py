"""Layer spans for the traced benchmark run.

`install()` replaces the named functions and methods of geodlab with
wrappers that record one span per call (name, start, end, parent span) and
bump per-layer counters computed from the call's arguments and result.
Spans stay in memory; `Tracer.write` dumps them at the end and
`Tracer.layer_metrics` turns them into self times and counts.

Only calls that do a batch of work are wrapped.  Per-element helpers such
as `MatrixIndex.find` or the hypgeom kernels run once per scalar inside
`_conjugation_orbit`, so wrapping them would cost more than they do.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _size(x):
    return int(np.size(x))


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# (module, attribute path, span name, counter function or None).  A counter
# function maps (args, kwargs, result) to {counter name: increment}; method
# args include self.  Several entries may share one span name.
WRAPPED = [
    ("geodlab.cli", "cached_spectrum", "cli.cached_spectrum",
     lambda a, k, r: {"cli.cache_hits": int(r[2]),
                      "cli.cache_misses": int(not r[2])}),
    ("geodlab.cli", "_file_sha256", "cli.file_sha256", None),
    ("geodlab.fuchsian", "enumerate_ball", "fuchsian.enumerate_ball",
     lambda a, k, r: {"fuchsian.ball_elements": len(r.a)}),
    ("geodlab.fuchsian", "brute_force_ball", "fuchsian.brute_force_ball", None),
    ("geodlab.fuchsian", "build_spectrum", "fuchsian.build_spectrum", None),
    ("geodlab.fuchsian", "conjugacy_classes", "fuchsian.conjugacy_classes",
     lambda a, k, r: {"fuchsian.classes": len(r[0])}),
    ("geodlab.fuchsian", "_conjugation_orbit", "fuchsian.conjugation_orbit",
     lambda a, k, r: {"fuchsian.conjugation_orbit_calls": 1}),
    ("geodlab.fuchsian", "_mark_iterates", "fuchsian.mark_iterates", None),
    ("geodlab.fuchsian", "_cross_validate_words", "fuchsian.cross_validate",
     None),
    ("geodlab.fuchsian", "MatrixIndex.insert_new", "fuchsian.insert_new",
     lambda a, k, r: {"fuchsian.insert_new_rows": len(_first(a[1:], k, "k")),
                      "fuchsian.insert_new_kept": len(r)}),
    ("geodlab.fuchsian", "SpectrumTable.save", "fuchsian.table_save", None),
    ("geodlab.fuchsian", "SpectrumTable.load", "fuchsian.table_load", None),
    ("geodlab.fuchsian", "SpectrumTable.count_P", "fuchsian.count", None),
    ("geodlab.fuchsian", "SpectrumTable.count_window", "fuchsian.count", None),
    ("geodlab.density", "ps_density", "density.ps_density",
     lambda a, k, r: {"density.atoms": len(r.atom_u)}),
    ("geodlab.mme", "knieper_normalization", "mme.knieper_normalization",
     None),
    ("geodlab.mme", "knieper_measure", "mme.knieper_measure", None),
    ("geodlab.mme", "_trace_weighted_length", "mme.trace_weighted_length",
     lambda a, k, r: {"mme.trace_pairs": len(r),
                      "mme.trace_pairs_hit": int(np.count_nonzero(r))}),
    ("geodlab.mme", "_sample_pairs", "mme.sample_pairs",
     lambda a, k, r: {"mme.pairs_discarded": int(r[2])}),
    ("geodlab.mme", "_pair_weights", "mme.pair_weights", None),
    ("geodlab.mme", "liouville_measure", "mme.liouville", None),
    ("geodlab.mme", "domain_area", "mme.domain_area", None),
    ("geodlab.quotient", "FundamentalDomain.__init__", "quotient.domain_init",
     None),
    ("geodlab.quotient", "FundamentalDomain.contains_z", "quotient.contains_z",
     lambda a, k, r: {"quotient.contains_z_points": _size(r)}),
    ("geodlab.quotient", "FundamentalDomain.reduce_z", "quotient.reduce_z",
     lambda a, k, r: {"quotient.reduce_z_points": _size(r[0])}),
    ("geodlab.dynlab", "_flow_z", "dynlab.flow_z",
     lambda a, k, r: {"dynlab.flowed_points": _size(r[0])}),
    ("geodlab.dynlab", "mixing_correlation", "dynlab.mixing", None),
    ("geodlab.dynlab", "realize_geodesic", "dynlab.realize_geodesic",
     lambda a, k, r: {"dynlab.realized_classes": 1,
                      "dynlab.realized_points": r.n}),
    ("geodlab.dynlab", "equidistribution_profile", "dynlab.equidistribution",
     None),
    ("geodlab.jacobi", "rank_suite", "jacobi.rank_suite", None),
    ("geodlab.jacobi", "_integrate_batch", "jacobi.integrate_batch",
     lambda a, k, r: {"jacobi.rk4_steps": (len(r[0]) - 1) * r[1].shape[2]}),
    ("geodlab.jacobi", "_riccati_along", "jacobi.riccati_along", None),
    ("geodlab.jacobi", "riccati_subspaces", "jacobi.riccati_subspaces",
     lambda a, k, r: {"jacobi.riccati_subspaces_calls": 1}),
    ("geodlab.jacobi", "dump_trajectory_csv", "jacobi.dump_trajectory",
     lambda a, k, r: {"jacobi.trajectory_rows":
                      _data_rows(_first(a[4:], k, "path"))}),
]


def _data_rows(path):
    with open(path) as f:
        return sum(1 for _ in f) - 1


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.counters = {}
        self.absent = []
        self._stack = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1,
                    name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            return result
        return wrapper

    def span(self, fn, name):
        """fn wrapped to record a span named name for each call."""
        return self._wrap(fn, name, None)

    def install(self):
        """Wrap every entry of WRAPPED; record names that do not exist."""
        for module_name, path, name, count in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = (vars(owner).get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, count))
            else:
                wrapped = self._wrap(raw, name, count)
            setattr(owner, attr, wrapped)

    def self_times(self):
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def layer_metrics(self, names):
        """Values for the per-layer metric names: `<span>_s` is a self time
        in seconds, any other name a counter.  Unused layers read 0."""
        times = self.self_times()
        out = {}
        for name in names:
            if name.endswith("_s"):
                out[name] = times.get(name[:-2], 0.0)
            else:
                out[name] = self.counters.get(name, 0)
        return out

    def write(self, path):
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
            f.write(json.dumps({"counters": self.counters,
                                "absent": self.absent}) + "\n")
