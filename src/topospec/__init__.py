"""Classical desk-scale pipeline for quantum-topological spectroscopy.

From a Lorenz time series to a simplicial graph, its Hodge/SUSY Laplacian,
a compiled controlled-evolution circuit, a simulated one-ancilla phase
readout, and extracted Betti numbers and spectral gaps.
"""

from . import (
    dynamics,
    embedding,
    persistence,
    selection,
    topograph,
    hodge,
    susy,
    qcompile,
    probe,
    spectro,
    sweep,
)

__version__ = "0.2.0"

__all__ = [
    "dynamics",
    "embedding",
    "persistence",
    "selection",
    "topograph",
    "hodge",
    "susy",
    "qcompile",
    "probe",
    "spectro",
    "sweep",
]
