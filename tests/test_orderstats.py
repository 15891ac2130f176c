"""The order-statistic helpers against the numpy calls they replace, bit for
bit, and the stage commands' processes without numpy.ma."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from topospec import orderstats

SRC = Path(__file__).resolve().parents[1] / "src"

# few distinct values, so ties and repeats are common; signed zeros and NaN
# are drawn too, since the helpers repeat numpy's partition and NaN rules
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.25, 1e-300, 7.0, 0.1, np.nan])
REAL_LISTS = st.lists(st.one_of(VALUES, st.floats(-1e6, 1e6)), min_size=1, max_size=40)
FRACTIONS = st.floats(0.0, 1.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(REAL_LISTS, st.integers(1, 4))
def test_median_is_numpy_median(values, rows):
    flat = np.array(values)
    assert same_bits(orderstats.median(flat), np.median(flat))
    assert same_bits(orderstats.median(list(values)), np.median(list(values)))
    # the row-wise form of the peak threshold
    block = np.resize(flat, (rows, len(flat)))
    block[0] = flat[::-1]
    assert same_bits(orderstats.median(block, axis=1), np.median(block, axis=1))


@settings(max_examples=300, deadline=None)
@given(REAL_LISTS, FRACTIONS, st.lists(FRACTIONS, min_size=1, max_size=3))
def test_quantile_is_numpy_quantile(values, q, qs):
    a = np.array(values)
    assert same_bits(orderstats.quantile(a, q), np.quantile(a, q))
    assert same_bits(orderstats.quantile(a, qs), np.quantile(a, qs))
    assert same_bits(orderstats.quantile(a, np.array(q)), np.quantile(a, np.array(q)))
    mine, theirs = a.copy(), a.copy()
    assert same_bits(
        orderstats.quantile(mine, q, overwrite_input=True), np.quantile(theirs, q, overwrite_input=True)
    )
    assert same_bits(mine, theirs)  # the same partition left behind


@settings(max_examples=300, deadline=None)
@given(REAL_LISTS, st.floats(0.0, 100.0), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3))
def test_percentile_is_numpy_percentile(values, p, ps):
    assert same_bits(orderstats.percentile(values, p), np.percentile(values, p))
    assert same_bits(orderstats.percentile(values, ps), np.percentile(values, ps))
    assert same_bits(orderstats.percentile(values, [2.5, 97.5]), np.percentile(values, [2.5, 97.5]))


@settings(max_examples=300, deadline=None)
@given(REAL_LISTS, st.lists(st.integers(-5, 5), min_size=0, max_size=40))
def test_unique_is_numpy_unique(values, ints):
    assert same_bits(orderstats.unique(np.array(values)), np.unique(np.array(values)))
    for dtype in (np.intp, np.int64):
        a = np.array(ints, dtype=dtype)
        assert same_bits(orderstats.unique(a), np.unique(a))


def test_lengths_one_and_two():
    for values in ([3.0], [2.0, -1.0], [1.0, 1.0], [-0.0, 0.0], [0.0, -0.0]):
        a = np.array(values)
        assert same_bits(orderstats.median(a), np.median(a))
        assert same_bits(orderstats.quantile(a, 0.1), np.quantile(a, 0.1))
        assert same_bits(orderstats.percentile(a, [2.5, 97.5]), np.percentile(a, [2.5, 97.5]))
        assert same_bits(orderstats.unique(a), np.unique(a))


def test_stage_commands_never_import_numpy_ma(tmp_path):
    """graph, susy, qpe (exact, and hadamard at the fast config) and
    compile-report at rho 40, in one fresh interpreter."""
    script = """
import sys
from topospec.cli import main
out = sys.argv[1]
for i, argv in enumerate((
    ["graph", "--rho", "40"],
    ["susy", "--rho", "40"],
    ["qpe", "--rho", "40"],
    ["--config", out + "/fast.cfg", "--mode", "hadamard", "qpe", "--rho", "40"],
    ["compile-report", "--rho", "40"],
)):
    assert main(["--out", f"{out}/{i}", *argv]) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""
    # the fast config of tests/test_cli.py
    (tmp_path / "fast.cfg").write_text(
        "run.seed = 0\nsweep.t_total = 70.0\nsweep.n_fps = 40\nsweep.m_samples = 128\nsweep.lyap_t_total = 120.0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
