"""Projector-augmented Pauli representation of the supercharge and SUSY
Hamiltonian on one qubit per vertex, with sector-wise Hodge equivalence.

Letters act per qubit. Besides the diagonal predicates z = (I+Z)/2 and
o = (I-Z)/2, the alphabet carries the excitation flips '+' = |1><0| and
'-' = |0><1|: a term that hops an excitation between two qubits cannot be
written with one letter per site over {I,X,Z,z,o} alone without breaking
excitation-number conservation, so hop terms are stored as adjoint pairs of
+/- strings and compiled jointly (see qcompile).

The supercharge at vertex i raises qubit i through the Jordan-Wigner string,
gated by z-projectors on every non-neighbor, and with its action on the
all-zero state removed so that the k-excitation block of {Q, Qdag} equals the
clique-complex Hodge Laplacian L_{k-1} exactly (the vacuum otherwise couples
to the vertex sector and shifts the k=1 block).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ResourceLimitError
from .topograph import TopoGraph
from .hodge import FiltrationLaplacians, spectrum
from .persistence import Filtration, upper_adjacency

ALPHABET = "IXZzo+-"
COEFF_TOL = 1e-12  # coefficients at or below this drop out; z/o pairs this close merge

_MATS = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
    "z": np.diag([1.0, 0.0]),
    "o": np.diag([0.0, 1.0]),
    "+": np.array([[0.0, 0.0], [1.0, 0.0]]),
    "-": np.array([[0.0, 1.0], [0.0, 0.0]]),
}

# single-site product table: (a, b) -> (scalar, letter); products arising from
# supercharge algebra stay inside the alphabet (X*Z never occurs there)
_PRODUCT: dict[tuple[str, str], tuple[float, str]] = {}


def _init_product_table() -> None:
    for a, b in itertools.product(ALPHABET, repeat=2):
        P = _MATS[a] @ _MATS[b]
        if np.abs(P).max() < 1e-15:
            _PRODUCT[(a, b)] = (0.0, "I")
            continue
        for c, M in _MATS.items():
            nz = np.abs(M) > 1e-15
            if not nz.any() or not np.allclose(P[~nz], 0.0):
                continue
            vals = P[nz] / M[nz]
            if np.allclose(vals, vals.flat[0]):
                _PRODUCT[(a, b)] = (float(vals.flat[0]), c)
                break


_init_product_table()


@dataclass(frozen=True)
class PauliTerm:
    coefficient: float
    letters: str

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        bad = set(self.letters) - set(ALPHABET)
        if bad:
            raise ValueError(f"unknown letters {bad}")

    @property
    def n(self) -> int:
        return len(self.letters)

    def adjoint(self) -> "PauliTerm":
        swap = {"+": "-", "-": "+"}
        return PauliTerm(
            self.coefficient, "".join(swap.get(c, c) for c in self.letters)
        )

    def dense(self) -> np.ndarray:
        out = np.array([[self.coefficient]])
        for c in self.letters:  # qubit q occupies bit q of the basis index
            out = np.kron(_MATS[c], out)
        return out

    def multiply(self, other: "PauliTerm") -> "PauliTerm | None":
        """Site-wise product self*other; None when any site annihilates."""
        coeff = self.coefficient * other.coefficient
        letters = []
        for a, b in zip(self.letters, other.letters):
            s, c = _PRODUCT[(a, b)]
            coeff *= s
            if coeff == 0.0:
                return None
            letters.append(c)
        return PauliTerm(coeff, "".join(letters))


@dataclass(frozen=True)
class PauliHamiltonian:
    terms: tuple[PauliTerm, ...]
    n: int
    identity_offset: float = 0.0

    def __post_init__(self):
        for t in self.terms:
            if t.n != self.n:
                raise ValueError("term length does not match qubit count")

    def dense(self) -> np.ndarray:
        if self.n > 13:
            raise ResourceLimitError(f"dense form of {self.n} qubits exceeds memory budget")
        dim = 2**self.n
        H = self.identity_offset * np.eye(dim)
        for t in self.terms:
            H += t.dense()
        return H

    def gershgorin_bound(self) -> float:
        """Upper bound on the spectral norm: |c_I| + sum of |coefficients|."""
        return abs(self.identity_offset) + float(sum(abs(t.coefficient) for t in self.terms))

    def to_jsonl(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"n": self.n, "c_I": self.identity_offset})]
        for t in self.terms:
            lines.append(json.dumps({"coeff": t.coefficient, "letters": t.letters}))
        Path(path).write_text("\n".join(lines) + "\n")


def _merge_predicates(acc: dict[str, float], n: int) -> None:
    """Collapse matched z/o predicate pairs in place.

    Strings differing only at one site with letters z and o combine exactly:
    equal coefficients give the identity letter, opposite ones give Z. This is
    the control-merging pass that keeps the term count sparse.
    """
    changed = True
    while changed:
        changed = False
        for i in range(n):
            groups: dict[tuple[str, str], str] = {}
            for letters in list(acc):
                if letters[i] not in "zo":
                    continue
                key = (letters[:i], letters[i + 1 :])
                partner = groups.pop(key, None)
                if partner is None:
                    groups[key] = letters
                    continue
                cz, co = (
                    (acc[partner], acc[letters])
                    if partner[i] == "z"
                    else (acc[letters], acc[partner])
                )
                merged = None
                if abs(cz - co) <= COEFF_TOL:
                    merged, coeff = key[0] + "I" + key[1], cz
                elif abs(cz + co) <= COEFF_TOL:
                    merged, coeff = key[0] + "Z" + key[1], cz
                if merged is not None:
                    del acc[partner]
                    del acc[letters]
                    acc[merged] = acc.get(merged, 0.0) + coeff
                    changed = True


def _combine(terms: list[PauliTerm], n: int) -> PauliHamiltonian:
    acc: dict[str, float] = {}
    for t in terms:
        acc[t.letters] = acc.get(t.letters, 0.0) + t.coefficient
    acc = {s: c for s, c in acc.items() if abs(c) > COEFF_TOL}
    _merge_predicates(acc, n)
    c_i = acc.pop("I" * n, 0.0)
    kept = tuple(
        PauliTerm(c, s) for s, c in sorted(acc.items()) if abs(c) > COEFF_TOL
    )
    return PauliHamiltonian(terms=kept, n=n, identity_offset=c_i)


def supercharge(graph: TopoGraph) -> list[PauliTerm]:
    """Degree-raising supercharge terms; the dense sum is exactly nilpotent.

    Per vertex i: the Jordan-Wigner raising flip on qubit i, gated by z on
    every non-neighbor, minus the all-zero-source branch. Nilpotency is
    verified symbolically on construction (exact cancellation of Q*Q).
    """
    n = graph.n_vertices
    if n > 14:
        raise ValueError("desk-scale supercharge limited to n <= 14")
    upper = upper_adjacency(n, graph.edges)
    near = upper | upper.T
    terms: list[PauliTerm] = []
    for i in range(n):
        letters = []
        for q in range(n):
            if q == i:
                letters.append("+")
            elif not near[i, q]:
                letters.append("z")  # complement projector; absorbs the JW Z
            elif q < i:
                letters.append("Z")  # JW string on excited-side neighbors
            else:
                letters.append("I")
        terms.append(PauliTerm(1.0, "".join(letters)))
        # vacuum-source branch: raising out of |00...0> maps the empty simplex
        # into the vertex sector, which is not part of the clique complex
        vac = ["z"] * n
        vac[i] = "+"
        terms.append(PauliTerm(-1.0, "".join(vac)))

    sq: dict[str, float] = {}
    for a, b in itertools.product(terms, repeat=2):
        p = a.multiply(b)
        if p is not None:
            sq[p.letters] = sq.get(p.letters, 0.0) + p.coefficient
    residual = max((abs(c) for c in sq.values()), default=0.0)
    if residual > 1e-10:
        raise AssertionError(f"supercharge nilpotency violated: |Q^2| = {residual}")
    return terms


def susy_hamiltonian(graph: TopoGraph) -> PauliHamiltonian:
    """H = {Q, Qdag}, assembled symbolically; commutes with excitation number.

    Diagonal terms keep z/o as predicates; hop terms appear as adjoint pairs
    of +/- strings with equal real coefficients. The identity component is
    split off into identity_offset.
    """
    q_terms = supercharge(graph)
    qdag = [t.adjoint() for t in q_terms]
    prods: list[PauliTerm] = []
    for a in q_terms:
        for b in qdag:
            p = a.multiply(b)
            if p is not None:
                prods.append(p)
            p = b.multiply(a)
            if p is not None:
                prods.append(p)
    ham = _combine(prods, graph.n_vertices)
    for t in ham.terms:
        if ("+" in t.letters) or ("-" in t.letters):
            partner = t.adjoint()
            match = [u for u in ham.terms if u.letters == partner.letters]
            if not match or abs(match[0].coefficient - t.coefficient) > 1e-10:
                raise AssertionError("non-Hermitian residual in assembled Hamiltonian")
    return ham


def onehot_hamiltonian(M: np.ndarray) -> PauliHamiltonian:
    """Encode a symmetric matrix as a one-qubit-per-basis-state operator.

    The 1-excitation sector of the result equals M: diagonal entries become
    o-predicates, off-diagonal entries become +/- hop pairs. This is the
    edge-register encoding used for the spectroscopy circuits.
    """
    M = np.asarray(M, dtype=float)
    n = len(M)
    if np.abs(M - M.T).max() > 1e-10:
        raise ValueError("matrix must be symmetric")
    terms: list[PauliTerm] = []
    for e in range(n):
        if M[e, e] != 0.0:
            letters = ["I"] * n
            letters[e] = "o"
            terms.append(PauliTerm(float(M[e, e]), "".join(letters)))
    for a, b in itertools.combinations(range(n), 2):
        if M[a, b] != 0.0:
            letters = ["I"] * n
            letters[a] = "+"
            letters[b] = "-"
            terms.append(PauliTerm(float(M[a, b]), "".join(letters)))
            letters[a], letters[b] = "-", "+"
            terms.append(PauliTerm(float(M[a, b]), "".join(letters)))
    return _combine(terms, n)


# ---------------------------------------------------------------------------
# sector restriction and block equivalence
# ---------------------------------------------------------------------------


def sector_block(dense: np.ndarray, k: int, graph: TopoGraph) -> np.ndarray:
    """Restriction of the dense operator on the graph's qubits to k-excitation
    basis states whose excited sets are (k-1)-cliques, ordered
    lexicographically."""
    if k > graph.n_vertices:
        raise ValueError("excitation count exceeds qubit count")
    idx = (1 << graph.cliques(k)[k - 1]).sum(axis=1)
    return dense[np.ix_(idx, idx)] if len(idx) else np.zeros((0, 0))


def clique_laplacian(graph: TopoGraph, k: int) -> np.ndarray:
    """Hodge Laplacian L_k of the clique complex of the graph, read off the
    boundaries of its cliques of up to k + 2 vertices as a zero-radius
    Filtration: the reference the SUSY sector blocks are checked against."""
    cells = graph.cliques(k + 2)
    filt = Filtration(cells=cells, radii=tuple(np.zeros(len(c)) for c in cells))
    return FiltrationLaplacians(filt).laplacian(0.0, k)[0]


@dataclass(frozen=True)
class EquivalenceReport:
    hamiltonian: PauliHamiltonian  # the H = {Q, Qdag} whose sectors were checked
    max_deviation: dict[int, float]
    passed: bool
    tolerance: float


def verify_block_equivalence(graph: TopoGraph, k_max: int, tol: float = 1e-9) -> EquivalenceReport:
    """Sorted sector spectra of the graph's SUSY Hamiltonian, whose dense
    form is built once, against clique-complex Laplacian spectra. A graph of
    more than 10 vertices raises ``ResourceLimitError``."""
    if graph.n_vertices > 10:
        raise ResourceLimitError("dense equivalence check limited to n <= 10")
    H = susy_hamiltonian(graph)
    dense = H.dense()
    devs: dict[int, float] = {}
    ok = True
    for k in range(1, min(k_max, graph.n_vertices) + 1):
        blk = sector_block(dense, k, graph)
        L = clique_laplacian(graph, k - 1)
        if blk.shape != L.shape:
            devs[k] = np.inf
            ok = False
            continue
        if blk.size == 0:
            devs[k] = 0.0
            continue
        dev = float(np.abs(spectrum(blk).eigenvalues - spectrum(L).eigenvalues).max())
        devs[k] = dev
        ok &= dev <= tol
    return EquivalenceReport(hamiltonian=H, max_deviation=devs, passed=ok, tolerance=tol)
