"""Probe states: uniform edge superposition and its one-hot W state,
topology-weighted Dicke mixing, and randomized-phase dephasing for
mixed-state emulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, TopospecError, typed
from .topograph import TopoGraph


@dataclass(frozen=True)
class ProbeSpec:
    # uniform_edge: the edge-register readout (spectro.edge_readout);
    # dicke_weighted: the full SUSY Hamiltonian under a weighted Dicke probe
    kind: str = "uniform_edge"
    alpha_bias: float = 0.0
    beta_bias: float = 0.0
    dephase_samples: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform_edge", "dicke_weighted"):
            raise ConfigError(f"probe.kind = {self.kind!r}: unknown probe kind")
        for f in fields(self):
            if f.name == "kind":
                continue
            val = getattr(self, f.name)
            if not (typed(val, f.type) and val >= 0):
                raise ConfigError(f"probe.{f.name} = {val!r}: expected a finite {f.type} >= 0")
            # the edge readout's probe is fixed, so a Dicke setting would be ignored
            if self.kind == "uniform_edge" and val != f.default:
                raise ConfigError(f"probe.{f.name} = {val!r}: only probe.kind = dicke_weighted reads it")


def uniform_edge_state(E: int) -> np.ndarray:
    """Equal real amplitudes 1/sqrt(E) over the E edge-basis states."""
    if E < 1:
        raise TopospecError("empty complex: no edges to superpose")
    return np.full(E, 1.0 / math.sqrt(E))


def dicke_weights(graph: TopoGraph, alpha_bias: float, beta_bias: float) -> np.ndarray:
    """Sector weights w_k, k = 0..n, biased by ring-edge endpoint labels and
    the degree histogram, normalized so the squared weights sum to 1.

    The endpoint sums index sectors by vertex label and the degree sums by
    degree value, both taken literally; k therefore ranges over 0..n.
    """
    n = graph.n_vertices
    w = np.ones(n + 1)
    for (u, v) in graph.ring_edges():
        w[u] += alpha_bias
        w[v] += alpha_bias
    for d in graph.degrees():
        w[d] += beta_bias
    return w / math.sqrt(float((w**2).sum()))


def dicke_state(n: int, weights: np.ndarray) -> np.ndarray:
    """Normalized sum_k w_k |D_k^(n)> as a dense 2^n vector.

    Exact amplitude initialization stands in for variational loading; each
    weight-k sector gets amplitude w_k / sqrt(C(n,k)) on its basis states.
    """
    if len(weights) != n + 1:
        raise ValueError("need one weight per excitation sector (n+1 values)")
    psi = np.zeros(1 << n)
    for idx in range(1 << n):
        k = bin(idx).count("1")
        psi[idx] = weights[k] / math.sqrt(math.comb(n, k))
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("all sector weights are zero")
    return psi / nrm


def w_state_vector(n: int) -> np.ndarray:
    """The uniform edge state written on the one-hot register of n qubits:
    amplitude 1/sqrt(n) at each basis index 1 << q and exactly 0 elsewhere,
    so it lies in the one-excitation sector. As for the Dicke state, exact
    amplitude initialization stands in for a preparation circuit."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[1 << np.arange(n)] = uniform_edge_state(n)
    return psi


def dephased_probes(psi: np.ndarray, samples: int, seed: int = 0) -> np.ndarray:
    """``samples`` random-phase draws of psi as columns, one independent phase
    per basis component, each renormalized; cross terms between distinct
    basis states average to zero over the draws, so their ensemble converges
    to the diagonal ensemble of |psi_k|^2.
    """
    if samples < 1:
        raise ValueError("need at least one dephasing sample")
    rng = np.random.default_rng(seed)
    draws = psi * np.exp(-1j * rng.uniform(0, 2 * math.pi, size=(samples, len(psi))))
    return (draws / np.linalg.norm(draws, axis=1, keepdims=True)).T


def diagonal_ensemble_weights(evecs: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Eigenweights a_j = mean_k |<E_j|probe_k>|^2 of an ensemble of probe
    columns, from the eigenvector columns E_j of ``evecs``."""
    overlaps = np.abs(evecs.conj().T @ probes) ** 2
    return overlaps.mean(axis=1)


def state_to_csv(path, amplitudes: np.ndarray) -> None:
    """Dump prepared-state amplitudes for debugging."""
    from .serialize import write_csv

    amps = np.asarray(amplitudes, dtype=complex)
    rows = [(k, a.real, a.imag) for k, a in enumerate(amps)]
    write_csv(path, ("basis_index", "re", "im"), rows)
