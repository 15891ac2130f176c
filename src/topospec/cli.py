"""Command-line orchestration: run configs, seeds, and artifact emission.

Configs are flat ordered ``section.key = value`` documents; the sha-256
digest of the canonicalized text is stamped into every output. Exit codes:
0 pass, 1 assertion failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, dynamics, persistence, probe, spectro, sweep
from .errors import ConfigError, TopospecError
from .fixtures import FIVE_POINT_BETTI1, FIVE_POINT_CLOUD, FIVE_POINT_RADII
from .hodge import BOUND_MAX_POINTS, BoundReport, FiltrationLaplacians, spectrum, verify_gap_persistence_bound
from .qcompile import baseline_qpe_cost
from .serialize import digest_text, write_csv, write_json
from .susy import onehot_hamiltonian, susy_hamiltonian, verify_block_equivalence
from .sweep import SweepConfig, run_sweep


@dataclass
class RunConfig:
    """Run-level switches plus the checked stage settings; run.mode and
    run.shots are held by ``sweep`` as its readout mode and shots."""

    seed: int = 0
    out: Path = Path("runs/out")
    sweep: SweepConfig = field(default_factory=SweepConfig)
    probe_spec: probe.ProbeSpec = field(default_factory=probe.ProbeSpec)

    def __post_init__(self):
        # the Hadamard test reads the pure probe, so dephasing draws would be ignored
        samples = self.probe_spec.dephase_samples
        if samples and self.sweep.mode != "exact":
            raise ConfigError(f"probe.dephase_samples = {samples}: only run.mode = exact reads it")

    def digest(self) -> str:
        return digest_text(self.canonical_text())

    def canonical_text(self) -> str:
        lines = [
            f"run.seed = {self.seed}",
            f"run.mode = {self.sweep.mode}",
            f"run.shots = {self.sweep.shots}",
        ]
        for f in sorted(fields(probe.ProbeSpec), key=lambda f: f.name):
            lines.append(f"probe.{f.name} = {getattr(self.probe_spec, f.name)}")
        for f in sorted(fields(SweepConfig), key=lambda f: f.name):
            lines.append(f"sweep.{f.name} = {getattr(self.sweep, f.name)}")
        return "\n".join(lines)


# the keys each config section may set; the readout mode and shots are
# run-level settings (run.mode, run.shots), held by the sweep
_SECTION_KEYS = {
    "run": ("seed", "out", "mode", "shots"),
    "sweep": tuple(f.name for f in fields(SweepConfig) if f.name not in ("mode", "shots")),
    "probe": tuple(f.name for f in fields(probe.ProbeSpec)),
}


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    if raw.lower() in ("none", ""):
        return None
    if raw.startswith("(") or raw.startswith("["):
        inner = raw.strip("()[]")
        return tuple(_parse_value(p) for p in inner.split(",") if p.strip())
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _run_count(run_kv: dict, key: str) -> int:
    """run.seed / run.shots as a nonnegative integer; 3.0 is accepted, 1.5,
    true and text are rejected."""
    val = run_kv.get(key, 0)
    if (
        isinstance(val, bool)
        or not isinstance(val, (int, float))
        or (isinstance(val, float) and not val.is_integer())
        or val < 0
    ):
        raise ConfigError(f"run.{key} must be a nonnegative integer, got {val!r}")
    return int(val)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Flat ``section.key = value`` file; unknown keys are rejected."""
    kv: dict[str, dict] = {section: {} for section in _SECTION_KEYS}
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, raw = (p.strip() for p in line.split("=", 1))
            section, dot, name = key.partition(".")
            if not dot or section not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section in {key}")
            if name not in _SECTION_KEYS[section]:
                raise ConfigError(f"line {lineno}: unknown key {key}")
            kv[section][name] = _parse_value(raw)
    run_kv, sweep_kv = kv["run"], kv["sweep"]
    if overrides:
        run_kv.update({k: v for k, v in overrides.items() if v is not None})
    seed = _run_count(run_kv, "seed")
    sweep_kv.setdefault("seed", seed)
    return RunConfig(
        seed=seed,
        out=Path(str(run_kv.get("out", "runs/out"))),
        sweep=SweepConfig(**sweep_kv, mode=run_kv.get("mode", "exact"), shots=_run_count(run_kv, "shots")),
        probe_spec=probe.ProbeSpec(**kv["probe"]),
    )


def _stamped(digest: str, **fields) -> dict:
    """A JSON artifact: the config digest and package version, then ``fields``
    in the order given."""
    return {"digest": digest, "version": __version__, **fields}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write_readout(out: Path, prefix: str, tag: str, series: spectro.CorrelatorSeries) -> None:
    """A correlator series and its (omega, power) periodogram, as
    ``<prefix>_correlator_<tag>.csv`` and ``<prefix>_spectrum_<tag>.csv``."""
    series.to_csv(out / f"{prefix}_correlator_{tag}.csv")
    write_csv(out / f"{prefix}_spectrum_{tag}.csv", ("omega", "power"), zip(*spectro.periodogram(series)))


def cmd_validate_fivepoint(cfg: RunConfig, eta: float = 0.05) -> int:
    """Run the committed five-point fixture across its three radii; assert the
    Betti sequence and the radius-0.8 gap against the classical eigenvalues.

    The check reads the fixture exactly; a hadamard run.mode is rejected
    rather than ignored."""
    if cfg.sweep.mode != "exact":
        raise ConfigError(
            f"validate-fivepoint reads the fixture exactly; run.mode = {cfg.sweep.mode} is not supported"
        )
    digest = cfg.digest()
    dt, m = 0.25, 256
    laps = FiltrationLaplacians(persistence.rips_filtration(FIVE_POINT_CLOUD))
    l1s = [laps.laplacian(eps, 1)[0] for eps in FIVE_POINT_RADII]
    alpha = spectro.calibrated_alpha(l1s, dt)
    results = []
    all_pass = True
    for eps, beta_expect, l1 in zip(FIVE_POINT_RADII, FIVE_POINT_BETTI1, l1s):
        classical = spectrum(l1)
        series, _, _ = spectro.edge_readout(l1, dt, m, alpha)
        est = spectro.estimate(series, ensemble_dim=len(l1))
        gap_ok = True
        if classical.gap is not None and est.gap_hat is not None:
            gap_ok = abs(est.gap_hat - classical.gap) / classical.gap <= eta
        elif (classical.gap is None) != (est.gap_hat is None):
            gap_ok = False
        beta_ok = est.beta1_hat == beta_expect == classical.beta_k
        all_pass &= gap_ok and beta_ok
        results.append(
            {
                "eps": eps,
                "beta1_expected": beta_expect,
                "beta1_classical": classical.beta_k,
                "beta1_hat": est.beta1_hat,
                "gap_classical": classical.gap,
                "gap_hat": est.gap_hat,
                "zero_mode_ratio": est.zero_mode_ratio,
                "pass": bool(gap_ok and beta_ok),
            }
        )
        _write_readout(cfg.out, "fivepoint", f"eps{eps}", series)
    write_json(
        cfg.out / "fivepoint_report.json",
        _stamped(digest, eta=eta, results=results),
    )
    for r in results:
        print(
            f"eps={r['eps']}: beta1 {r['beta1_hat']} (expect {r['beta1_expected']}), "
            f"gap {r['gap_hat']} vs {r['gap_classical']} -> {'PASS' if r['pass'] else 'FAIL'}"
        )
    return 0 if all_pass else 1


def _run_is_complete(out: Path, digest: str, grid: list[float]) -> bool:
    """True when out holds the records of a run with the same digest, grid
    and package version. alpha, the curvature and the correlations span the
    grid, so a sub-grid is a different run: a matching run is skipped
    verbatim, anything else is recomputed. The manifest's ``stages``
    telemetry differs from run to run and is not read."""
    man_path = out / "manifest.json"
    if not (out / "sweep_records.csv").exists() or not man_path.exists():
        return False
    try:
        manifest = json.loads(man_path.read_text())
    except json.JSONDecodeError:
        return False
    return (
        manifest.get("digest") == digest
        and manifest.get("version") == __version__
        and sorted(manifest.get("grid", ())) == sorted(grid)
    )


def _read_hardware_csv(path: str) -> dict[float, float]:
    """rho -> gap from imported hardware values: a header line, then
    ``rho,gap`` rows; a row with fewer cells or an empty gap is skipped. A
    missing file or a non-numeric cell is a ConfigError naming the file and
    line."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"--hardware-csv {path}: {exc.strerror}") from None
    hw: dict[float, float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) >= 2 and parts[1].strip():
            try:
                hw[float(parts[0])] = float(parts[1])
            except ValueError:
                raise ConfigError(f"--hardware-csv {path}, line {lineno}: not a number: {line!r}") from None
    return hw


def _hardware_correlation(records, hw: dict[float, float]) -> dict:
    """Join imported hardware gap values on rho and correlate with the
    classical persistence and the simulator gap (import slot only; there is
    no execution path to a device). As in ``correlation_report``, a constant
    column gives None, not NaN."""
    joined = [
        (r.ell_max_h1, r.delta1_susy_sim, hw[r.rho])
        for r in records
        if r.rho in hw and r.ell_max_h1 is not None and r.delta1_susy_sim is not None
    ]
    out: dict = {"n_joined": len(joined)}
    if len(joined) >= 3:
        ell, sim, dev = (np.array(col) for col in zip(*joined))
        if np.ptp(dev) != 0:
            for key, col in (("pearson_h1_hw", ell), ("pearson_sim_hw", sim)):
                out[key] = float(sweep._pearson_rows(col, dev)) if np.ptp(col) != 0 else None
            out["mae_sim_hw"] = float(np.mean(np.abs(sim - dev)))
    return out


def cmd_sweep(cfg: RunConfig, grid: list[float], hardware_csv: str | None = None) -> int:
    out = cfg.out
    hw = _read_hardware_csv(hardware_csv) if hardware_csv else None
    if not grid:
        print("warning: empty grid, nothing to do")
        write_csv(out / "sweep_records.csv", sweep.SweepRecord.header(), [])
        write_json(out / "sweep_correlations.json", {"n_pairs": 0})
        return 0
    digest = cfg.digest()
    # a hardware CSV adds a block to the report, so a run given one is never skipped
    if hw is None and _run_is_complete(out, digest, grid):
        print("sweep already complete for this config digest; skipping")
        return 0
    records, report = run_sweep(grid, cfg.sweep)
    write_csv(out / "sweep_records.csv", sweep.SweepRecord.header(), [r.as_row() for r in records])
    smooth = sweep.smoothed_columns(records)
    write_csv(
        out / "sweep_smoothed.csv",
        ("rho",) + tuple(smooth),
        [
            (records[i].rho,) + tuple(float(smooth[c][i]) for c in smooth)
            for i in range(len(records))
        ],
    )
    if hw is not None:
        report = {**report, "hardware": _hardware_correlation(records, hw)}
    write_json(out / "sweep_correlations.json", report)
    # where each rho's time went, how big its layers were, and why it failed
    stages = [
        {"rho": r.rho, "seconds": r.seconds, "sizes": r.sizes, "error": r.error} for r in records
    ]
    write_json(
        out / "manifest.json",
        _stamped(digest, grid=list(grid), seed=cfg.seed, mode=cfg.sweep.mode, stages=stages),
    )
    for r in records:
        status = f"pipeline failed at {r.failed_stage}: {r.error}" if r.failed_stage else "ok"
        print(f"rho={r.rho}: ell_max={r.ell_max_h1}, gap={r.delta1_susy_sim} [{status}]")
    print(f"pearson r = {report.get('pearson_r')}")
    failed = [r for r in records if r.failed_stage]
    return 1 if failed else 0


# clouds per bound-check task: each task stacks the birth spectra of its
# clouds, and a larger stack holds more Laplacians in memory at once
BOUND_TASK_CLOUDS = 8


def _bound_task(clouds: list[np.ndarray]) -> tuple[list[BoundReport], dict[str, float], dict[str, int]]:
    """The bound check of one task's clouds, with its stage seconds and
    sizes. The checker is looked up at call time, so a rebinding of it
    reaches forked workers too."""
    seconds: dict[str, float] = {}
    sizes: dict[str, int] = {}
    return verify_gap_persistence_bound(clouds, 1, seconds, sizes), seconds, sizes


def cmd_bound_check(cfg: RunConfig, n_clouds: int, n_points: int) -> int:
    """Check the gap-persistence bound on n_clouds uniform clouds, drawn here
    in order from the seeded rng and checked in tasks of
    ``BOUND_TASK_CLOUDS`` clouds by ``sweep.pool_map``."""
    rng = np.random.default_rng(cfg.seed)
    clouds = [rng.uniform(0, 1, size=(n_points, 3)) for _ in range(n_clouds)]
    starts = range(0, n_clouds, BOUND_TASK_CLOUDS)
    tasks = [(clouds[i : i + BOUND_TASK_CLOUDS],) for i in starts]
    header = tuple(f.name for f in fields(BoundReport))
    rows = []
    violations = 0
    seconds: dict[str, float] = {}
    solves = 0
    for start, (reports, task_seconds, task_sizes) in zip(starts, sweep.pool_map(_bound_task, tasks)):
        for rep in reports:
            violations += not rep.holds
            rows.append((start + rep.cloud,) + tuple(getattr(rep, k) for k in header[1:]))
        for name, t in task_seconds.items():
            seconds[name] = seconds.get(name, 0.0) + t
        solves += task_sizes["solves"]
    checked = len(rows)
    write_csv(cfg.out / "bound_check.csv", header, rows)
    write_json(
        cfg.out / "bound_summary.json",
        _stamped(
            cfg.digest(),
            clouds=n_clouds,
            points=n_points,
            pairs_checked=checked,
            violations=violations,
            # where the time went, summed over tasks, and how big the run was
            stages={
                "seconds": seconds,
                "sizes": {
                    "pairs": checked,
                    "solves": solves,
                    "tasks": len(tasks),
                    "workers": sweep.pool_workers(len(tasks)),
                },
            },
        ),
    )
    print(f"checked {checked} H1 pairs over {n_clouds} clouds: {violations} violations")
    return 0 if violations == 0 else 1


def cmd_lorenz(cfg: RunConfig, rho: float) -> int:
    """The trajectory and its Lyapunov exponent at one rho; both are computed
    before either file is written, so a diverging run leaves neither."""
    sw = cfg.sweep
    params = dynamics.LorenzParams(rho=rho)
    traj = dynamics.integrate(params, sw.x0, sw.dt, sw.t_trans, sw.t_total)
    lyap = dynamics.lyapunov_max(params, sw.x0, sw.lyap_dt, sw.lyap_t_total, sw.lyap_renorm)
    traj.to_csv(cfg.out / f"lorenz_rho{rho}.csv")
    write_json(cfg.out / f"lyapunov_rho{rho}.json", _stamped(cfg.digest(), rho=rho, lambda_max=lyap.lambda_max))
    print(f"rho={rho}: lambda_max = {lyap.lambda_max:.4f}")
    return 0


# the pipeline commands below only write: ``main`` hands each the pipeline's
# result at its rho, stopped after the stage it is registered with


def cmd_compile_report(cfg: RunConfig, stage: sweep._StageResult, phase_bits: int = 6) -> int:
    """Compile-versus-baseline gate accounting on the pipeline's edge-register
    instance."""
    stats = baseline_qpe_cost(onehot_hamiltonian(stage.l1), phase_bits)
    write_json(cfg.out / "compile_report.json", _stamped(cfg.digest(), **asdict(stats)))
    print(
        f"compiled 2q = {stats.two_qubit_count}, baseline = {stats.baseline_two_qubit_count}, "
        f"ratio = {stats.ratio:.1f}"
    )
    return 0


def cmd_embed(cfg: RunConfig, stage: sweep._StageResult) -> int:
    stage.cloud.to_csv(cfg.out / f"cloud_rho{stage.rho}.csv")
    print(f"rho={stage.rho}: tau={stage.tau}, cloud {stage.cloud.n} x {stage.cloud.dim}")
    return 0


def cmd_ph(cfg: RunConfig, stage: sweep._StageResult) -> int:
    stage.diagram.to_csv(cfg.out / f"diagram_rho{stage.rho}.csv")
    print(f"rho={stage.rho}: ell_max_H1 = {stage.ell_max:.4f}")
    return 0


def cmd_select(cfg: RunConfig, stage: sweep._StageResult) -> int:
    stage.reps.to_json(cfg.out / f"representatives_rho{stage.rho}.json")
    print(f"rho={stage.rho}: selected {list(stage.reps.indices)}")
    return 0


def cmd_graph(cfg: RunConfig, stage: sweep._StageResult) -> int:
    out, rho, graph = cfg.out, stage.rho, stage.graph
    graph.to_json(out / f"graph_rho{rho}.json")
    graph.incidence_to_csv(out / f"b1_rho{rho}.csv", out / f"b2_rho{rho}.csv")
    print(
        f"rho={rho}: |V|={graph.n_vertices}, |E|={len(graph.edges)}, "
        f"|T|={len(graph.triangles)}, beta1={spectrum(stage.l1).beta_k}"
    )
    return 0


def cmd_susy(cfg: RunConfig, stage: sweep._StageResult) -> int:
    rho = stage.rho
    rep = verify_block_equivalence(stage.graph, k_max=3)
    ham = rep.hamiltonian
    ham.to_jsonl(cfg.out / f"susy_rho{rho}.jsonl")
    write_json(
        cfg.out / f"susy_equivalence_rho{rho}.json",
        _stamped(cfg.digest(), passed=rep.passed, max_deviation=rep.max_deviation),
    )
    print(f"rho={rho}: {len(ham.terms)} terms, block equivalence {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def cmd_qpe(cfg: RunConfig, stage: sweep._StageResult) -> int:
    """Spectroscopy of the rho instance: edge-register Laplacian readout by
    default, or the full SUSY Hamiltonian under a Dicke-weighted probe."""
    out, rho = cfg.out, stage.rho
    sw = cfg.sweep
    spec = cfg.probe_spec
    if spec.kind == "dicke_weighted":
        graph = stage.graph
        weights = probe.dicke_weights(graph, spec.alpha_bias, spec.beta_bias)
        psi = probe.dicke_state(graph.n_vertices, weights).astype(complex)
        series = spectro.state_readout(
            susy_hamiltonian(graph), psi, sw.dt_corr, sw.m_samples, sw.mode, sw.shots, sw.seed,
            spec.dephase_samples,
        )
        probe_kind, dim = spec.kind, None
    else:
        alpha = spectro.calibrated_alpha([stage.l1], sw.dt_corr, sw.mode)
        series, psi, probe_kind = spectro.edge_readout(
            stage.l1, sw.dt_corr, sw.m_samples, alpha, sw.mode, sw.shots, sw.seed
        )
        dim = stage.l1.shape[0]
    probe.state_to_csv(out / f"qpe_probe_rho{rho}.csv", psi)
    est = spectro.estimate(series, ensemble_dim=dim, bootstrap=True)
    _write_readout(out, "qpe", f"rho{rho}", series)
    write_json(
        out / f"qpe_estimate_rho{rho}.json",
        _stamped(cfg.digest(), probe=probe_kind, mode=sw.mode, **asdict(est)),
    )
    print(f"rho={rho}: beta1_hat={est.beta1_hat}, gap_hat={est.gap_hat}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _float_grid(spec_str: str) -> list[float]:
    """``lo:hi:step`` (inclusive, step > 0, hi >= lo) or a comma list of
    numbers; an empty string is an empty grid. Every value follows the
    ``--rho`` rule."""
    ranged = ":" in spec_str
    parts = spec_str.split(":") if ranged else [p for p in spec_str.split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--grid {spec_str!r}: not a number") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"--grid {spec_str!r}: values must be finite")
    if ranged:
        if len(vals) != 3:
            raise ConfigError(f"--grid {spec_str!r}: expected lo:hi:step")
        lo, hi, step = vals
        if step <= 0 or hi < lo:
            raise ConfigError(f"--grid {spec_str!r}: need step > 0 and hi >= lo")
        # the last point may not pass hi; the tolerance keeps a grid whose
        # step divides hi - lo up to rounding (0.1:0.3:0.1) at its full count
        vals = [lo + i * step for i in range(math.floor((hi - lo) / step + 1e-9) + 1)]
    rule, ok = _OPTION_RULES["rho"]
    if not all(map(ok, vals)):
        raise ConfigError(f"--grid {spec_str!r}: every rho must be {rule}")
    return vals


# numeric subcommand options, checked before any stage runs
_OPTION_RULES = {
    "points": (f"in 1..{BOUND_MAX_POINTS}", lambda v: 1 <= v <= BOUND_MAX_POINTS),
    "clouds": (">= 1", lambda v: v >= 1),
    "phase_bits": (">= 1", lambda v: v >= 1),
    "eta": ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
    "rho": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
}


def main(argv: list[str] | None = None) -> int:
    # SUPPRESS keeps a subcommand's unprovided options from clobbering values
    # parsed before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--mode", choices=("exact", "hadamard"), default=argparse.SUPPRESS)
    common.add_argument("--shots", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="topospec", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand carries its handler as ``run(cfg, args)``; a pipeline
    # command carries instead the sweep.STAGES stage it stops at as ``until``
    # and ``write(cfg, stage, args)``, which writes the pipeline's result
    p = sub.add_parser("validate-fivepoint", parents=[common])
    p.add_argument("--eta", type=float, default=0.05)
    p.set_defaults(run=lambda cfg, a: cmd_validate_fivepoint(cfg, eta=a.eta))
    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--grid", default="36:42:1", help="lo:hi:step or comma list")
    p.add_argument("--hardware-csv", default=None, help="rho,gap pairs to correlate")
    p.set_defaults(run=lambda cfg, a: cmd_sweep(cfg, _float_grid(a.grid), a.hardware_csv))
    p = sub.add_parser("bound-check", parents=[common])
    p.add_argument("--clouds", type=int, default=200)
    p.add_argument("--points", type=int, default=8)
    p.set_defaults(run=lambda cfg, a: cmd_bound_check(cfg, a.clouds, a.points))
    p = sub.add_parser("compile-report", parents=[common])
    p.add_argument("--phase-bits", type=int, default=6)
    p.add_argument("--rho", type=float, default=40.0)
    p.set_defaults(until="graph", write=lambda cfg, stage, a: cmd_compile_report(cfg, stage, a.phase_bits))
    p = sub.add_parser("lorenz", parents=[common])
    p.add_argument("--rho", type=float, default=28.0)
    p.set_defaults(run=lambda cfg, a: cmd_lorenz(cfg, a.rho))
    for name, until, cmd in (
        ("embed", "cloud", cmd_embed), ("ph", "persistence", cmd_ph), ("select", "selection", cmd_select),
        ("graph", "graph", cmd_graph), ("susy", "graph", cmd_susy), ("qpe", "graph", cmd_qpe),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--rho", type=float, default=28.0)
        p.set_defaults(until=until, write=lambda cfg, stage, a, cmd=cmd: cmd(cfg, stage))

    args = parser.parse_args(argv)
    opt = vars(args)
    try:
        for name, (rule, ok) in _OPTION_RULES.items():
            if name in opt and not ok(opt[name]):
                raise ConfigError(f"--{name.replace('_', '-')} = {opt[name]}: must be {rule}")
        cfg = load_config(
            opt.get("config"),
            {k: opt.get(k) for k in ("seed", "out", "mode", "shots")},
        )
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if "until" not in opt:
            return args.run(cfg, args)
        stage = sweep._pipeline_stage(args.rho, cfg.sweep, until=args.until)
        if stage.failed_stage:
            print(f"pipeline failed at {stage.failed_stage}: {stage.error}")
            return 1
        return args.write(cfg, stage, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TopospecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
