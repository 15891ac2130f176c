"""In-memory span tracing of topospec's layer calls, installed from outside.

``install()`` wraps the public entry points of each module listed in
``PATCHES``. It rebinds every name under which a ``topospec`` module holds
the original function, so calls through ``from x import f`` bindings are
traced as well as calls through ``module.f``. Spans are kept in memory as
``[name, start, end, parent]`` and written out once by the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (home module, function, span name); the span name's prefix is the layer
PATCHES = (
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "lyapunov_max", "dynamics.lyapunov"),
    ("embedding", "delay_embed", "embedding.delay_embed"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "_pipeline_stage", "sweep.pipeline"),
    ("sweep", "_farthest_point_indices", "sweep.fps"),
    ("sweep", "correlation_report", "sweep.correlation_report"),
    ("persistence", "rips_filtration", "persistence.rips"),
    ("persistence", "compute_persistence", "persistence.reduce"),
    ("selection", "select_representatives", "selection.select"),
    ("topograph", "build_graph", "topograph.build"),
    ("hodge", "verify_gap_persistence_bound", "hodge.verify_bound"),
    ("hodge", "laplacian_at", "hodge.laplacian_at"),
    ("hodge", "spectrum", "hodge.spectrum"),
    ("hodge", "empirical_lipschitz", "hodge.lipschitz"),
    ("susy", "susy_hamiltonian", "susy.hamiltonian"),
    ("susy", "onehot_hamiltonian", "susy.onehot"),
    ("susy", "verify_block_equivalence", "susy.equivalence"),
    ("qcompile", "controlled_evolution", "qcompile.compile"),
    ("qcompile", "simulate", "qcompile.simulate"),
    ("qcompile", "baseline_qpe_cost", "qcompile.baseline"),
    ("probe", "uniform_edge_state", "probe.prepare"),
    ("probe", "w_state_vector", "probe.prepare"),
    ("probe", "diagonal_ensemble_weights", "probe.prepare"),
    ("probe", "dicke_weights", "probe.prepare"),
    ("probe", "dicke_state", "probe.prepare"),
    ("spectro", "correlator_exact", "spectro.correlator"),
    ("spectro", "correlator_hadamard", "spectro.correlator"),
    ("spectro", "estimate", "spectro.estimate"),
)


def _rk4_integrate(a, res):
    return {"dynamics.rk4_steps": round(a["t_total"] / a["dt"])}


def _rk4_lyapunov(a, res):
    per = a["renorm_every"]
    blocks = round(a["t_warm"] / a["dt"]) // per + round(a["t_total"] / a["dt"]) // per
    return {"dynamics.rk4_steps": blocks * per}


def _graph_sizes(a, res):
    return {"topograph.edges": len(res.edges), "topograph.triangles": len(res.triangles)}


def _simulated(a, res):
    circ = a["circ"]
    return {"qcompile.gates_simulated": len(circ.gates), "max:qcompile.qubits": circ.n_qubits}


# size counts read off a call's bound arguments and result; a "max:" prefix
# keeps the largest value instead of the sum
COUNTS = {
    "dynamics.integrate": _rk4_integrate,
    "dynamics.lyapunov": _rk4_lyapunov,
    "sweep.fps": lambda a, res: {"embedding.cloud_points": len(a["pts"])},
    "sweep.pipeline": lambda a, res: {"sweep.pipeline_runs": 1},
    "persistence.rips": lambda a, res: {"persistence.simplices": len(res.simplices)},
    "persistence.reduce": lambda a, res: {"persistence.calls": 1},
    "topograph.build": _graph_sizes,
    "hodge.verify_bound": lambda a, res: {"hodge.bound_pairs": len(res)},
    "susy.hamiltonian": lambda a, res: {"susy.terms": len(res.terms)},
    "qcompile.compile": lambda a, res: {"qcompile.trotter_steps": a["steps"]},
    "qcompile.simulate": _simulated,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.first: dict[str, float] = {}  # span name -> duration of its first call
        self.missing: list[str] = []
        self.hook_errors = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def count(self, updates: dict) -> None:
        for key, val in updates.items():
            if key.startswith("max:"):
                key = key[4:]
                self.counts[key] = max(self.counts.get(key, 0), val)
            else:
                self.counts[key] = self.counts.get(key, 0) + val

    def wrap(self, fn, name: str):
        hook = COUNTS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
            start, end = self.spans[idx][1:3]
            self.first.setdefault(name, end - start)
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.count(hook(bound.arguments, res))
                except Exception:  # a changed signature must not break the run
                    self.hook_errors += 1
            return res

        return traced

    def result(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "first": self.first,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
        }


def _rebind(original, replacement) -> None:
    """Point every topospec module attribute bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "topospec" or mod_name.startswith("topospec.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    import importlib

    for mod_name, attr, span in PATCHES:
        mod = importlib.import_module(f"topospec.{mod_name}")
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        _rebind(fn, tracer.wrap(fn, span))


def capture_hadamard_instance(sink: dict) -> None:
    """Record the edge Laplacian handed to ``onehot_hamiltonian`` and the
    ``alpha`` handed to ``correlator_hadamard``; used to pin the exact
    reference correlator of the hadamard-point workload."""
    import topospec.spectro as spectro
    import topospec.susy as susy

    onehot = susy.onehot_hamiltonian
    hadamard = spectro.correlator_hadamard
    alpha_of = inspect.signature(hadamard)

    def onehot_capture(M, *args, **kwargs):
        sink["l1"] = [[float(v) for v in row] for row in M]
        return onehot(M, *args, **kwargs)

    def hadamard_capture(*args, **kwargs):
        bound = alpha_of.bind(*args, **kwargs)
        bound.apply_defaults()
        sink["alpha"] = float(bound.arguments["alpha"])
        return hadamard(*args, **kwargs)

    _rebind(onehot, onehot_capture)
    _rebind(hadamard, hadamard_capture)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the summed duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out
