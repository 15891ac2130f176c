"""The benchmark tracer's view of the package: every function it wraps
exists, and its step-count hooks read the arguments under the names the
dynamics functions give them. The tracer is loaded from its file and read
only; a renamed target or parameter would otherwise show up only as a
missing span or a hook error in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from topospec import dynamics, sweep
from topospec.sweep import SweepConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_patch_target_resolves(tracer):
    for mod_name, attr, span in tracer.PATCHES:
        fn = getattr(importlib.import_module(f"topospec.{mod_name}"), attr, None)
        assert callable(fn), f"{span}: topospec.{mod_name}.{attr} is gone"


def _bound(fn, *args) -> dict:
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    return bound.arguments


def test_rk4_step_hooks_count_the_default_sweep(tracer):
    # the arguments sweep._pipeline_stage passes for one rho
    cfg = SweepConfig()
    params = dynamics.LorenzParams(rho=40.0)
    flow = _bound(dynamics.integrate, params, cfg.x0, cfg.dt, cfg.t_trans, cfg.t_total)
    lyap = _bound(dynamics.lyapunov_max, params, cfg.x0, cfg.lyap_dt, cfg.lyap_t_total, cfg.lyap_renorm)
    assert tracer._rk4_integrate(flow, None) == {"dynamics.rk4_steps": 17_000}
    assert tracer._rk4_lyapunov(lyap, None) == {"dynamics.rk4_steps": 90_000}


def test_correlation_report_patch_reaches_the_call_in_run_sweep(tracer, monkeypatch):
    # rebind the report the way install() does and check that run_sweep's
    # call lands in the replacement; the stubbed stages fail at once
    assert ("sweep", "correlation_report") in {(mod, attr) for mod, attr, _ in tracer.PATCHES}
    real = sweep.correlation_report
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def failed(rho, cfg):
        return sweep._StageResult(rho=rho, failed_stage="dynamics", error="stub")

    monkeypatch.setattr(sweep, "_pipeline_stage", failed)
    tracer._rebind(real, spy)
    try:
        sweep.run_sweep([36.0, 37.0, 38.0], SweepConfig())
    finally:
        tracer._rebind(spy, real)
    assert sweep.correlation_report is real
    assert [len(records) for records, in calls] == [3]
