"""Output checks against the pinned reference.

``observe_<workload>`` reduces one iteration's artifacts to the values the
reference pins; ``check`` compares an observation with the pinned one and
returns the list of mismatches (empty when the outputs are correct).

Artifact digests ignore the identity stamps ``digest``, ``version`` and
``config_digest``: they change with the config schema or the package
version, not with the results. A JSON artifact is compared key by key and a
CSV artifact column by column, so a later change may add keys or columns
(timings, say) without failing the check; every pinned key and column must
stay byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

IDENTITY = {"digest", "version", "config_digest"}
SKIP_LINE = "already complete"
# hadamard-point: the Hadamard-test correlator may be at most this factor
# less accurate than the pinned (seed-commit) error on the same instance
CORR_ERR_SLACK = 1.25
# bound-check: the hodge values pinned per nonzero-length H1 row, kept to
# BOUND_DIGITS significant digits and compared within BOUND_RTOL
BOUND_VALUES = ("lambda_at_birth", "lipschitz", "d_p_max_cofacets", "d_p_max_faces")
BOUND_DIGITS = 12
BOUND_RTOL = 1e-9


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def artifact_digests(path: Path) -> dict[str, str]:
    text = path.read_text()
    if path.suffix == ".json":
        obj = json.loads(text)
        if isinstance(obj, dict):
            return {
                k: _sha(json.dumps(v, sort_keys=True)) for k, v in obj.items() if k not in IDENTITY
            }
    elif path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        return {
            col: _sha("\n".join(r[i] for r in body))
            for i, col in enumerate(header)
            if col not in IDENTITY
        }
    return {"": _sha(text)}


def _dir_digests(out: Path) -> dict:
    return {p.name: artifact_digests(p) for p in sorted(out.iterdir()) if p.is_file()}


def observe_files(outs: list[Path]) -> dict:
    """Digests of every artifact, keyed by command index and file name."""
    return {f"{i}/{name}": d for i, out in enumerate(outs) for name, d in _dir_digests(out).items()}


def observe_sweep(outs: list[Path]) -> dict:
    (out,) = outs
    files = {
        name: artifact_digests(out / name)
        for name in ("sweep_records.csv", "sweep_correlations.json", "sweep_smoothed.csv")
    }
    with open(out / "sweep_records.csv") as fh:
        failed = [r["rho"] for r in csv.DictReader(fh) if r["failed_stage"]]
    return {"files": files, "failed_rho": failed}


def observe_bound(outs: list[Path]) -> dict:
    """Violations, plus every nonzero-length H1 row: (cloud, birth, death) as
    written and the hodge values the bound is made of. Zero-length pairs are
    left out because a persistence rewrite may drop them."""
    (out,) = outs
    summary = json.loads((out / "bound_summary.json").read_text())
    with open(out / "bound_check.csv") as fh:
        rows = sorted(
            ",".join([r["cloud"], r["birth"], r["death"], *(f"{float(r[c]):.{BOUND_DIGITS}g}" for c in BOUND_VALUES)])
            for r in csv.DictReader(fh)
            if float(r["death"]) > float(r["birth"])
        )
    return {"violations": summary["violations"], "rows": rows}


def check_bound_rows(got: list[str], want: list[str]) -> list[str]:
    """The (cloud, birth, death) rows must be identical; the hodge values
    must agree within BOUND_RTOL."""
    if len(got) != len(want):
        return [f"{len(got)} nonzero-length H1 rows != pinned {len(want)}"]
    bad = []
    for g, w in zip(got, want):
        g, w = g.split(","), w.split(",")
        if g[:3] != w[:3]:
            bad.append(f"H1 row {','.join(g[:3])} != pinned {','.join(w[:3])}")
            continue
        for col, gv, wv in zip(BOUND_VALUES, g[3:], w[3:]):
            if not math.isclose(float(gv), float(wv), rel_tol=BOUND_RTOL, abs_tol=BOUND_RTOL):
                bad.append(f"cloud {g[0]} birth {g[1]}: {col} {gv} != pinned {wv}")
    return bad


def exact_correlator(l1, alpha: float, t_grid):
    """<W| exp(-i H t / alpha) |W> by dense matrix exponentials on the
    one-hot sector, where the one-hot Hamiltonian of ``l1`` acts as ``l1``
    and the W probe is the uniform edge vector."""
    import numpy as np
    import scipy.linalg

    l1 = np.asarray(l1, dtype=float)
    w = np.full(len(l1), 1.0 / np.sqrt(len(l1)))
    return np.array([w @ scipy.linalg.expm(-1j * l1 * (t / alpha)) @ w for t in t_grid])


def corr_max_err(out: Path, l1, alpha: float) -> float:
    import numpy as np

    (path,) = out.glob("qpe_correlator_rho*.csv")
    with open(path) as fh:
        rows = [(float(r["t"]), complex(float(r["re"]), float(r["im"]))) for r in csv.DictReader(fh)]
    t_grid = [t for t, _ in rows]
    had = np.array([c for _, c in rows])
    return float(np.abs(had - exact_correlator(l1, alpha, t_grid)).max())


def observe_hadamard(outs: list[Path], pinned: dict | None) -> dict:
    """The correlator error against the exact reference; the instance
    (``l1``, ``alpha``) comes from the pinned entry."""
    if pinned is None:
        return {}
    (out,) = outs
    return {"corr_max_err": corr_max_err(out, pinned["l1"], pinned["alpha"])}


def check(workload: str, observed: dict, pinned: dict) -> list[str]:
    bad: list[str] = []
    if workload == "hadamard-point":
        limit = CORR_ERR_SLACK * pinned["corr_max_err"]
        if not observed["corr_max_err"] <= limit:
            bad.append(f"corr_max_err {observed['corr_max_err']:.6g} > bound {limit:.6g}")
        return bad
    if workload == "bound-check":
        if observed["violations"] != 0:
            bad.append(f"{observed['violations']} bound violations")
        return bad + check_bound_rows(observed["rows"], pinned["rows"])
    if workload == "sweep-exact":
        if observed["failed_rho"]:
            bad.append(f"records with failed_stage at rho {observed['failed_rho']}")
        got_files, want_files = observed["files"], pinned["files"]
    else:
        got_files, want_files = observed, pinned
    for name, want in want_files.items():
        got = got_files.get(name)
        if got is None:
            bad.append(f"{name}: missing")
            continue
        for key, digest in want.items():
            if got.get(key) != digest:
                bad.append(f"{name}[{key}]: differs from the pinned reference")
    return bad
