"""Pin the reference outputs the benchmark checks every run against.

    python3 perfbench/pin.py

For every workload this runs one untraced pass per input config and writes
``reference/<workload>.json``: the input table (config seeds) and, per
input, the observation its check compares with. Run it only on a commit
whose outputs are the accepted ones; re-pinning redefines correctness.

hadamard-point keeps only inputs whose rho-40 instance has 10 edges
(12 qubits with work qubit and ancilla), so every input costs the same
circuit size; its reference also stores that instance's edge Laplacian and
alpha, from which the exact correlator is recomputed on every check.
"""

from __future__ import annotations

import json
import sys

import checks
from run import REFERENCE, WORKLOADS, iteration

N_INPUTS = 12  # configs per workload; the run seed picks one
HADAMARD_EDGES = 10


def pin(name: str) -> dict:
    inputs: list[int] = []
    pinned: dict[str, dict] = {}
    skipped: dict[str, str] = {}
    seed = 0
    while len(inputs) < N_INPUTS:
        if name == "hadamard-point":
            it = iteration(name, seed, "capture", None)
            cap = it["procs"][0]["capture"] or {}
            if not it["errors"] and len(cap.get("l1", ())) != HADAMARD_EDGES:
                skipped[str(seed)] = f"instance has {len(cap.get('l1', ()))} edges"
                seed += 1
                continue
            entry = {"l1": cap.get("l1"), "alpha": cap.get("alpha")}
            if not it["errors"]:
                entry.update(checks.observe_hadamard([it["work"] / "out0"], entry))
        else:
            it = iteration(name, seed, "run", None)
            entry = it["observed"]
        if it["errors"]:
            raise SystemExit(f"{name} input {seed} failed: {it['errors']}")
        inputs.append(seed)
        pinned[str(seed)] = entry
        print(f"{name}: pinned input {seed} ({it['run_s']:.1f} s)", flush=True)
        seed += 1
    ref = {"workload": name, "inputs": inputs, "pinned": pinned}
    if skipped:
        ref["skipped"] = skipped
    return ref


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        ref = pin(name)
        (REFERENCE / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
