"""topospec benchmark: fresh CLI processes, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next ``topospec`` command
starts when the previous one has exited. The seed picks one config from the
workload's pinned input table (``reference/<workload>.json``), and every
iteration's artifacts are checked against that input's pinned reference.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced iterations and prints the per-layer
metrics (self time and sizes per layer) and the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from tracer import self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUNS = BENCH / "runs"
REFERENCE = BENCH / "reference"

# nproc, the BLAS thread count the CLI gets by default; set explicitly so
# that both sides of a comparison on one machine use the same value
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # extra set-up-only processes per untraced run
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    observe: Callable[[list[Path], dict], dict]
    config: tuple[str, ...] = ()


WORKLOADS = {
    "sweep-exact": Workload(
        commands=(("sweep", "--grid", "36:42:1"),),
        observe=lambda outs, pinned: checks.observe_sweep(outs),
    ),
    "hadamard-point": Workload(
        commands=(("qpe", "--rho", "40", "--mode", "hadamard", "--shots", "0"),),
        observe=checks.observe_hadamard,
        config=("sweep.m_samples = 12",),
    ),
    "bound-check": Workload(
        commands=(("bound-check", "--clouds", "200", "--points", "10"),),
        observe=lambda outs, pinned: checks.observe_bound(outs),
    ),
    "stage-commands": Workload(
        commands=(
            ("graph", "--rho", "40"),
            ("susy", "--rho", "40"),
            ("qpe", "--rho", "40"),
            ("compile-report", "--rho", "40"),
        ),
        observe=lambda outs, pinned: checks.observe_files(outs),
    ),
}

# per-layer metrics: (name, unit, better, source). A source "span:X" is the
# summed self time of span X; "count:X" a size count; other sources are
# computed in layer_metrics(). The end-to-end metric and workload each
# should move are listed in perfbench/README.md.
PER_LAYER = (
    ("dynamics.integrate_s", "s", "lower", "span:dynamics.integrate"),
    ("dynamics.lyapunov_s", "s", "lower", "span:dynamics.lyapunov"),
    ("dynamics.rk4_steps", "count", "lower", "count:dynamics.rk4_steps"),
    ("embedding.delay_embed_s", "s", "lower", "span:embedding.delay_embed"),
    ("embedding.cloud_points", "count", "lower", "count:embedding.cloud_points"),
    ("sweep.fps_s", "s", "lower", "span:sweep.fps"),
    ("sweep.correlation_report_s", "s", "lower", "span:sweep.correlation_report"),
    ("sweep.pipeline_runs", "count", "lower", "count:sweep.pipeline_runs"),
    ("persistence.rips_s", "s", "lower", "span:persistence.rips"),
    ("persistence.reduce_s", "s", "lower", "span:persistence.reduce"),
    ("persistence.simplices", "count", "lower", "count:persistence.simplices"),
    ("persistence.calls", "count", "lower", "count:persistence.calls"),
    ("selection.select_s", "s", "lower", "span:selection.select"),
    ("topograph.build_s", "s", "lower", "span:topograph.build"),
    ("topograph.edges", "count", "lower", "count:topograph.edges"),
    ("topograph.triangles", "count", "lower", "count:topograph.triangles"),
    ("hodge.verify_bound_s", "s", "lower", "span:hodge.verify_bound"),
    ("hodge.laplacian_at_s", "s", "lower", "span:hodge.laplacian_at"),
    ("hodge.spectrum_s", "s", "lower", "span:hodge.spectrum"),
    ("hodge.lipschitz_s", "s", "lower", "span:hodge.lipschitz"),
    ("hodge.bound_pairs", "count", "lower", "count:hodge.bound_pairs"),
    ("susy.hamiltonian_s", "s", "lower", "span:susy.hamiltonian"),
    ("susy.onehot_s", "s", "lower", "span:susy.onehot"),
    ("susy.equivalence_s", "s", "lower", "span:susy.equivalence"),
    ("susy.terms", "count", "lower", "count:susy.terms"),
    ("qcompile.compile_s", "s", "lower", "span:qcompile.compile"),
    ("qcompile.simulate_s", "s", "lower", "span:qcompile.simulate"),
    ("qcompile.baseline_s", "s", "lower", "span:qcompile.baseline"),
    ("qcompile.gates_simulated", "count", "lower", "count:qcompile.gates_simulated"),
    ("qcompile.trotter_steps", "count", "lower", "count:qcompile.trotter_steps"),
    ("qcompile.qubits", "count", "lower", "count:qcompile.qubits"),
    ("qcompile.sim_gates_per_s", "1/s", "higher", "sim_rate"),
    ("probe.prepare_s", "s", "lower", "span:probe.prepare"),
    ("spectro.correlator_s", "s", "lower", "span:spectro.correlator"),
    ("spectro.estimate_s", "s", "lower", "span:spectro.estimate"),
    ("spectro.estimate_first_s", "s", "lower", "first:spectro.estimate"),
    ("spectro.corr_max_err", "1", "lower", "corr_max_err"),
    ("cli.self_s", "s", "lower", "span:cli.main"),
    ("cli.setup_s", "s", "lower", "setup"),
    ("trace.run_s", "s", "lower", "traced_run"),
    ("trace.overhead_s", "s", "lower", "overhead"),
    ("trace.spans", "count", "lower", "spans"),
)
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up process writes src bytecode
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    return env


def spawn(mode: str, argv: list[str], work: Path, tag: str) -> dict:
    """Run child.py once; time set-up and command, read the child's max RSS."""
    report, log = work / f"{tag}.report.json", work / f"{tag}.log"
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(report), mode, *argv],
            stdout=fh,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rep = json.loads(report.read_text()) if report.exists() else {}
    out = {
        "rc": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": log.read_text(errors="replace"),
        "trace": rep.get("trace"),
        "capture": rep.get("capture"),
    }
    if "t_setup" in rep:
        out["setup_s"] = rep["t_setup"] - t0
    if "t_end" in rep:
        out["run_s"] = rep["t_end"] - rep["t_setup"]
    return out


def probe_setup(work: Path, tag: str) -> float | None:
    return spawn("probe", ["--config", str(work / "config.txt")], work, tag).get("setup_s")


def new_workdir(name: str, config_lines: list[str]) -> Path:
    RUNS.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    (work / "config.txt").write_text("\n".join(config_lines) + "\n")
    return work


def config_lines(wl: Workload, input_seed: int) -> list[str]:
    return [f"run.seed = {input_seed}", *wl.config]


def iteration(name: str, input_seed: int, mode: str, pinned: dict | None) -> dict:
    """One closed-loop pass over the workload's commands, each in a fresh
    process with a fresh --out directory, followed by the output check."""
    wl = WORKLOADS[name]
    work = new_workdir(name, config_lines(wl, input_seed))
    procs, outs, errors = [], [], []
    for i, cmd in enumerate(wl.commands):
        out = work / f"out{i}"  # does not exist yet
        res = spawn(mode, [*cmd, "--config", str(work / "config.txt"), "--out", str(out)], work, f"cmd{i}")
        procs.append(res)
        outs.append(out)
        if res["rc"] != 0 or "run_s" not in res:
            errors.append(f"{' '.join(cmd)}: exit code {res['rc']}\n{res['stdout'][-2000:]}")
        if checks.SKIP_LINE in res["stdout"]:
            errors.append(f"{' '.join(cmd)}: skipped as already complete")
    observed = None
    if not errors:
        try:
            observed = wl.observe(outs, pinned)
        except (OSError, KeyError, ValueError) as exc:
            errors.append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
        if pinned is not None and observed is not None:
            errors += checks.check(name, observed, pinned)
    return {
        "work": work,
        "procs": procs,
        "errors": errors,
        "observed": observed,
        "run_s": sum(p.get("run_s", 0.0) for p in procs),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_self_times(it: dict) -> dict[str, float]:
    """Self time per span name of one traced iteration, summed over its processes."""
    selfs: dict[str, float] = {}
    for p in it["procs"]:
        for k, v in self_times((p["trace"] or {}).get("spans", [])).items():
            selfs[k] = selfs.get(k, 0.0) + v
    return selfs


def layer_metrics(it: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its processes."""
    selfs = pass_self_times(it)
    counts: dict[str, float] = {}
    first: dict[str, float] = {}
    n_spans = 0
    for p in it["procs"]:
        tr = p["trace"] or {"spans": [], "counts": {}, "first": {}}
        n_spans += len(tr["spans"])
        for k, v in tr["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "qcompile.qubits" else counts.get(k, 0) + v
        for k, v in tr["first"].items():
            first[k] = first.get(k, 0.0) + v
    out: dict[str, float] = {}
    for name, _, _, src in PER_LAYER:
        kind, _, key = src.partition(":")
        if kind == "span":
            out[name] = selfs.get(key, 0.0)
        elif kind == "count":
            out[name] = counts.get(key, 0)
        elif kind == "first":
            out[name] = first.get(key, 0.0)
    sim = selfs.get("qcompile.simulate", 0.0)
    out["qcompile.sim_gates_per_s"] = counts.get("qcompile.gates_simulated", 0) / sim if sim > 0 else 0.0
    out["spectro.corr_max_err"] = (it["observed"] or {}).get("corr_max_err", 0.0)
    out["cli.setup_s"] = sum(p.get("setup_s", 0.0) for p in it["procs"])
    out["trace.run_s"] = it["run_s"]
    out["trace.spans"] = n_spans
    return out


def layer_costs(traced: list[dict]) -> dict[str, float]:
    """Self time per layer (a span name's prefix), median over the traced
    passes; set-up (import and config parse, summed over a pass's
    processes) is counted as the layer "setup"."""
    per_pass = []
    for it in traced:
        cost: dict[str, float] = {"setup": sum(p.get("setup_s", 0.0) for p in it["procs"])}
        for span, t in pass_self_times(it).items():
            layer = span.split(".")[0]
            cost[layer] = cost.get(layer, 0.0) + t
        per_pass.append(cost)
    layers = dict.fromkeys(k for cost in per_pass for k in cost)
    return {k: statistics.median(cost.get(k, 0.0) for cost in per_pass) for k in layers}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # a plain checkout has no .git; packed refs are not followed
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: str(BLAS_THREADS) for k in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference(name)
    input_seed = ref["inputs"][seed % len(ref["inputs"])]
    pinned = ref["pinned"][str(input_seed)]
    wl = WORKLOADS[name]

    warm = new_workdir(f"{name}-warm", config_lines(wl, input_seed))
    probe_setup(warm, "warm")  # fills the file cache and writes bytecode; untimed

    t_start = time.monotonic()
    setups: list[float] = []
    if not trace:
        setups += [s for i in range(SETUP_PROBES) if (s := probe_setup(warm, f"probe{i}")) is not None]
    plain, traced = [], []
    t_loop = time.monotonic()
    while True:  # whole passes only, while the next one fits in the window
        plain.append(iteration(name, input_seed, "run", pinned))
        if trace:
            traced.append(iteration(name, input_seed, "trace", pinned))
        now = time.monotonic()
        if now - t_start + (now - t_loop) / len(plain) > seconds:
            break

    iters = plain + traced
    attempted = sum(len(it["procs"]) for it in iters)
    failed = sum(len(it["procs"]) for it in iters if it["errors"])
    for it in iters:
        for err in it["errors"]:
            print(f"FAILED [{it['work'].name}] {err}", file=sys.stderr)
    setups += [p["setup_s"] for it in plain for p in it["procs"] if "setup_s" in p]
    run_times = [it["run_s"] for it in plain]

    if not trace:
        metrics = {
            "run_s": statistics.median(run_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["rss_mb"] for it in plain for p in it["procs"]),
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
        samples = {"run_s": len(run_times), "setup_s": len(setups), "peak_rss_mb": attempted, "ops_ok_frac": attempted}
    else:
        per_iter = [layer_metrics(it) for it in traced]
        metrics = {n: statistics.median(m[n] for m in per_iter) for n, _, _, _ in PER_LAYER if n in per_iter[0]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(run_times)
        units = {n: u for n, u, _, _ in PER_LAYER}
        samples = {n: len(per_iter) for n in metrics}
    return {
        "workload": name,
        "seed": seed,
        "input_seed": input_seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "samples": samples,
        "layer_self_s": layer_costs(traced) if trace else None,
        "trace_gaps": sorted(
            {m for it in traced for p in it["procs"] for m in (p["trace"] or {}).get("missing", [])}
            | {"signature changes" for it in traced for p in it["procs"] if (p["trace"] or {}).get("hook_errors")}
        ),
        "elapsed_s": time.monotonic() - t_start,
        "env": environment(),
        "work_dirs": [str(it["work"].relative_to(ROOT)) for it in iters],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "topospec" / "cli.py").is_file():
        print(f"error: no topospec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (RUNS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print(f"workload {result['workload']} (input seed {result['input_seed']}), "
          f"{result['attempted']} commands, {result['failed']} failed, {result['elapsed_s']:.1f} s")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for n, m in result["metrics"].items():
        print(f"  {n:<30} {m['value']:>14.6g} {m['unit']:<6} n={result['samples'][n]}")
    if result["layer_self_s"]:
        costs = sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("  self time per layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in costs))
    if result["trace_gaps"]:
        print(f"  not traced (counted as 0): {', '.join(result['trace_gaps'])}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
