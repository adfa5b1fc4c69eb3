"""Spans around calls into eventspec's layers, and their per-op aggregation.

A span records name, start, end, parent span and op id. Wrappers are
installed from outside the program: a function is replaced in every
eventspec module that bound it by name (``studies``, ``cli`` and
``inference`` import functions that way), and a method is replaced on its
class. Spans stay in memory until the run ends.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans written by a child process line up with the
parent's op span.
"""

from __future__ import annotations

import functools
import marshal
import sys
import time


def _events(args, kwargs, result):
    return {"events": int(result.counts().sum())}


def _kernel_pairs(args, kwargs, result):
    n = args[0].n_points
    return {"pairs": n * n}


def _wavelet_values(args, kwargs, result):
    return {"values": int(result.shape[0] * result.shape[1]),
            "n_retained": int(result.shape[1])}


def _field_points(args, kwargs, result):
    return {"points": int(result.meta["n_valid"])}


# (span name, "module" + ".function" or ":Class.method", attributes of a call)
LAYERS = [
    ("pointproc.simulate_hawkes", "eventspec.pointproc.simulate_hawkes", _events),
    ("pointproc.simulate_poisson", "eventspec.pointproc.simulate_poisson", _events),
    ("pointproc.load_csv", "eventspec.pointproc.load_csv", _events),
    ("wavelets.Wavelet", "eventspec.wavelets:Wavelet.__init__", None),
    ("wavelets.central_frequency", "eventspec.wavelets.central_frequency", None),
    ("kernels.SmoothedKernel", "eventspec.kernels:SmoothedKernel.__init__", _kernel_pairs),
    ("eigensys.nystrom_decompose", "eventspec.eigensys.nystrom_decompose", None),
    ("eigensys.eigensystem_cached", "eventspec.eigensys.eigensystem_cached", None),
    ("eigensys.eigen_wavelets_at", "eventspec.eigensys:EigenSystem.eigen_wavelets_at",
     _wavelet_values),
    ("spectra.field", "eventspec.spectra.field", _field_points),
    ("spectra.smoothed_periodogram_eigen", "eventspec.spectra.smoothed_periodogram_eigen",
     None),
    ("spectra.coherence", "eventspec.spectra.coherence", None),
    ("spectra.to_csv", "eventspec.spectra:SpectralField.to_csv", None),
    ("inference.stationarity_test", "eventspec.inference.stationarity_test", None),
    ("inference.lrt_statistic", "eventspec.inference.lrt_statistic", None),
    ("inference.resolve_system", "eventspec.inference:StationarityConfig.resolve_system",
     None),
    ("inference.cdf_grid", "eventspec.inference:CoherenceDistribution.cdf_grid", None),
    ("inference.null_percentile", "eventspec.inference.null_percentile", None),
    ("studies.run_study", "eventspec.studies.run_study", None),
    ("cli.main", "eventspec.cli.main", None),
]

# Recorded by the CLI child around ``import eventspec.cli``, and around the
# child process's start-up and exit.
CLI_IMPORT = "cli.import"
PROC_START = "proc.start"
PROC_EXIT = "proc.exit"
OP = "op"
LAYER_NAMES = [name for name, _, _ in LAYERS] + [CLI_IMPORT, PROC_START, PROC_EXIT]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "op": self.op, "attrs": {}})
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record a finished span that the recorder did not open."""
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent,
                           "op": self.op, "attrs": {}})

    def adopt_child(self, path, parent: int) -> None:
        """Add the spans a child process wrote with ``dump`` under span ``parent``.

        The gaps before the child's first and after its last timestamp
        become ``proc.start`` (interpreter start-up) and ``proc.exit``
        (writing the spans and interpreter exit).
        """
        with open(path, "rb") as fh:
            first, last, rows = marshal.load(fh)
        op = self.spans[parent]
        self.add(PROC_START, op["start"], first, parent)
        base = len(self.spans)
        for name, start, end, child_parent, attrs in rows:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent if child_parent is None else child_parent + base,
                               "op": self.op, "attrs": attrs})
        self.add(PROC_EXIT, last, op["end"], parent)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if attrs is not None:
                self.spans[idx]["attrs"] = attrs(args, kwargs, result)
            return result
        return traced

    def dump(self, path, first: float) -> None:
        """Write the spans for ``adopt_child``; ``first`` is the process's first timestamp."""
        rows = [(s["name"], s["start"], s["end"], s["parent"], s["attrs"]) for s in self.spans]
        last = time.perf_counter()
        with open(path, "wb") as fh:
            marshal.dump((first, last, rows), fh)


def _resolve(target: str):
    """(owner, attribute) of a layer target, or None if its module is not loaded."""
    if ":" in target:
        module, rest = target.split(":")
        cls_name, attr = rest.split(".")
    else:
        module, attr = target.rsplit(".", 1)
        cls_name = None
    if module not in sys.modules:
        return None
    owner = sys.modules[module]
    return (owner if cls_name is None else getattr(owner, cls_name)), attr


def install(tracer: Tracer):
    """Wrap every layer of the loaded eventspec modules.

    Returns a callable that restores the originals.
    """
    undo = []
    for name, target, attrs in LAYERS:
        resolved = _resolve(target)
        if resolved is None:
            continue
        owner, attr = resolved
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, attrs)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eventspec" and not mod_name.startswith("eventspec."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return restore


# -- aggregation ----------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def _ancestors(spans, idx):
    parent = spans[idx]["parent"]
    while parent is not None:
        yield parent
        parent = spans[parent]["parent"]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of the ops in ``spans``, averaged over ops.

    For each layer: ``.s`` is its inclusive time per op, ``.pct`` and
    ``.self_pct`` its inclusive and self time as a share of op time,
    ``.calls`` its calls per op. A span nested in a span of the same name is
    not counted again in ``.s`` and ``.pct``. A layer that the ops never
    call reads 0.
    """
    selfs = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s["name"] == OP]
    if not ops:
        raise ValueError("no op spans recorded")
    op_time = sum(spans[i]["end"] - spans[i]["start"] for i in ops)
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    n_retained = 0
    built = set()
    for idx, s in enumerate(spans):
        if s["name"] == "eigensys.nystrom_decompose":
            built.update(_ancestors(spans, idx))
    for idx, s in enumerate(spans):
        name = s["name"]
        if name == OP:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[idx]
        if all(spans[a]["name"] != name for a in _ancestors(spans, idx)):
            incl[name] = incl.get(name, 0.0) + s["end"] - s["start"]
        for key, value in s["attrs"].items():
            if key == "n_retained":
                n_retained = max(n_retained, value)
            else:
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0.0) + value
    n_ops = len(ops)

    def pct(x):
        return 100.0 * x / op_time

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.s"] = incl.get(name, 0.0) / n_ops
        out[f"{name}.pct"] = pct(incl.get(name, 0.0))
        out[f"{name}.self_pct"] = pct(self_s.get(name, 0.0))
        out[f"{name}.calls"] = calls.get(name, 0) / n_ops
    events = sum(attrs.get(f"pointproc.{f}.events", 0.0)
                 for f in ("simulate_hawkes", "simulate_poisson", "load_csv"))
    hawkes_events = attrs.get("pointproc.simulate_hawkes.events", 0.0)
    pairs = attrs.get("kernels.SmoothedKernel.pairs", 0.0)
    values = attrs.get("eigensys.eigen_wavelets_at.values", 0.0)
    points = attrs.get("spectra.field.points", 0.0)
    lookups = [i for i, s in enumerate(spans) if s["name"] == "eigensys.eigensystem_cached"]
    resolves = [i for i, s in enumerate(spans) if s["name"] == "inference.resolve_system"]
    unattributed = sum(selfs[i] for i in ops)
    out.update({
        "op.s": op_time / n_ops,
        "op.unattributed_pct": pct(unattributed),
        "pointproc.events": events / n_ops,
        "pointproc.simulate_hawkes.events": hawkes_events / n_ops,
        "pointproc.simulate_hawkes.events_per_s":
            rate(hawkes_events, incl.get("pointproc.simulate_hawkes", 0.0)),
        "kernels.SmoothedKernel.pairs": pairs / n_ops,
        "kernels.pairs_per_s": rate(pairs, incl.get("kernels.SmoothedKernel", 0.0)),
        "eigensys.cache_lookups": len(lookups) / n_ops,
        "eigensys.cache_hit_pct": (100.0 * sum(i not in built for i in lookups) / len(lookups)
                                   if lookups else 0.0),
        "eigensys.n_retained": n_retained,
        "eigensys.eigen_wavelets_at.values": values / n_ops,
        "eigensys.values_per_s": rate(values, incl.get("eigensys.eigen_wavelets_at", 0.0)),
        "spectra.field.points": points / n_ops,
        "spectra.field.points_per_s": rate(points, incl.get("spectra.field", 0.0)),
        "inference.resolve_system.builds": sum(i in built for i in resolves) / n_ops,
    })
    return out
