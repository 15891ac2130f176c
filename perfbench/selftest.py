"""Self-test of the benchmark's checks: a perturbed reference must fail.

    python3 perfbench/selftest.py

For every workload this runs one pass on its first pinned input, requires
the check to pass against the pinned reference, then perturbs that
reference and requires the check to fail. It also requires a repeated sweep
into a used --out directory to be flagged as skipped, and BENCHMARK.json to
list the metrics and workloads that run.py reports. Exits non-zero on the
first broken expectation.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
from run import END_TO_END, PER_LAYER, ROOT, WORKLOADS, iteration, load_reference, new_workdir, spawn


def perturbed(name: str, pinned: dict) -> list[tuple[str, dict]]:
    out = []
    bad = copy.deepcopy(pinned)
    if name == "hadamard-point":
        bad["l1"][0][0] += 1e-2
        out.append(("edge Laplacian entry moved by 1e-2", bad))
        tight = copy.deepcopy(pinned)
        tight["corr_max_err"] *= 0.5
        out.append(("pinned error halved", tight))
    elif name == "bound-check":
        row = bad["rows"][0].split(",")
        row[2] = repr(float(row[2]) * (1 + 1e-12))
        bad["rows"][0] = ",".join(row)
        out.append(("death of one H1 pair moved by 1e-12", bad))
        scaled = copy.deepcopy(pinned)
        row = scaled["rows"][0].split(",")
        row[3] = repr(float(row[3]) * (1 + 1e-6))  # lambda_at_birth
        scaled["rows"][0] = ",".join(row)
        out.append(("lambda_at_birth of one H1 pair moved by 1e-6", scaled))
    elif name == "sweep-exact":
        bad["files"]["sweep_records.csv"]["delta1_susy_sim"] = "0" * 16
        out.append(("digest of sweep_records.csv[delta1_susy_sim] changed", bad))
    else:
        fname = sorted(bad)[0]
        key = sorted(bad[fname])[0]
        bad[fname][key] = "0" * 16
        out.append((f"digest of {fname}[{key}] changed", bad))
    return out


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["per_layer"]] == [m[0] for m in PER_LAYER], "per_layer metrics match run.py")
    expect([m["name"] for m in spec["end_to_end"]] == [m[0] for m in END_TO_END], "end_to_end metrics match run.py")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workloads match run.py")

    for name in WORKLOADS:
        ref = load_reference(name)
        seed = ref["inputs"][0]
        pinned = ref["pinned"][str(seed)]
        it = iteration(name, seed, "run", pinned)
        expect(not it["errors"], f"{name}: input {seed} matches its pinned reference {it['errors']}")
        outs = [it["work"] / f"out{i}" for i in range(len(WORKLOADS[name].commands))]
        for what, bad in perturbed(name, pinned):
            errors = checks.check(name, WORKLOADS[name].observe(outs, bad), bad)
            expect(bool(errors), f"{name}: check fails when the {what} ({errors[:1]})")

    work = new_workdir("selftest-skip", ["run.seed = 0"])
    argv = ["sweep", "--grid", "40:40:1", "--config", str(work / "config.txt"), "--out", str(work / "out")]
    first, second = (spawn("run", argv, work, f"sweep{i}") for i in range(2))
    expect(checks.SKIP_LINE not in first["stdout"], "first sweep into a fresh --out runs")
    expect(checks.SKIP_LINE in second["stdout"], "repeated sweep into the same --out is detected as skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
