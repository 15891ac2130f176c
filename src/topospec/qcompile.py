"""Compile ancilla-controlled evolution of a Pauli Hamiltonian to a gate IR,
fuse runs of narrow gates into dense blocks, simulate it on a (batched) dense
statevector, and account gate costs.

Per term: basis rotations align X to Z, a CNOT ladder gathers parity onto the
rightmost active qubit, z/o letters become polarity controls (0-controls are
unified by X conjugation), the control conjunction is computed into the work
qubit with an MCX, and a controlled RZ applies the phase; everything is then
uncomputed. Excitation-hop terms (adjoint +/- pairs) are conjugated by one
CNOT into an X-with-predicate generator first, so the compiled unitary is
excitation-preserving by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CompileConfigError, ResourceLimitError
from .susy import PauliHamiltonian, PauliTerm


@dataclass(frozen=True)
class Gate:
    kind: str  # H | X | SDG | RX | RZ | CNOT | MCX | CRZ | U
    target: int
    theta: float | None = None
    controls: tuple[tuple[int, int], ...] = ()  # (qubit, polarity) for CNOT/MCX/CRZ
    # a fused U block: its qubits (ascending; qubits[i] is bit i of the
    # matrix index) and its 2^k x 2^k matrix, left out of equality and hash
    qubits: tuple[int, ...] = ()
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("gate angle must be finite")

    def inverse_of(self, other: "Gate") -> bool:
        """True when self cancels other exactly (self-inverse kinds only)."""
        if self.kind != other.kind:
            return False
        if self.kind in ("H", "X"):
            return self.target == other.target
        if self.kind in ("CNOT", "MCX"):
            return self.target == other.target and self.controls == other.controls
        return False

    def two_qubit_cost(self) -> int:
        if self.kind == "U":
            raise ValueError("a fused U block has no two-qubit cost; count the circuit before fuse")
        if self.kind == "CRZ":
            return 2 * len(self.controls)
        if self.kind in ("CNOT", "MCX"):
            c = len(self.controls)
            if c <= 1:
                return 1
            if c == 2:
                return 6  # Toffoli
            return 6 * (2 * c - 3)  # V-chain lowering, work qubits assumed
        return 0


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def two_qubit_count(self) -> int:
        return sum(g.two_qubit_cost() for g in self.gates)

    def toggle_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "X")


@dataclass(frozen=True)
class CompileStats:
    two_qubit_count: int
    control_toggle_count: int
    baseline_two_qubit_count: int
    ratio: float


# ---------------------------------------------------------------------------
# statevector backend
# ---------------------------------------------------------------------------

_RX = lambda t: np.array(
    [[math.cos(t / 2), -1j * math.sin(t / 2)], [-1j * math.sin(t / 2), math.cos(t / 2)]]
)
_SINGLE = {
    "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "SDG": np.diag([1, -1j]),
}


MAX_QUBITS = 16  # the dense statevector budget of ``simulate``
FUSE_WIDTH = 5  # widest run of gates that ``fuse`` turns into one U block
# columns per U-block matrix product: a 32 x 32 block times 32 columns stays
# below OpenBLAS's threshold for threading a product (65536 multiply-adds);
# on a 2-vCPU host each threaded product of this size took about 16 ms for the
# first second of a process, against about 30 us on one thread
_BLOCK_COLS = 32


def _half(n: int, q: int, bit: int, controls=()) -> tuple:
    """Index into the (-1,)+(2,)*n view that fixes qubit q to bit and each
    control qubit to its polarity; every other axis stays a full slice, so
    the result is a view into the state."""
    idx = [slice(None)] * (n + 1)
    for c, pol in controls:
        idx[n - c] = pol
    idx[n - q] = bit
    return tuple(idx)


def simulate(circ: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the gate list to a dense amplitude vector (<= MAX_QUBITS), or to
    each row of a batch of them.

    Qubit q is bit q of the amplitude index, and the state's last axis holds
    the 2^n amplitudes; any leading axes are a batch, each row evolved alone.
    Gates act in place on a (-1,)+(2,)*n view of a copy of the state, the
    first axis running over the batch: single-qubit matrices mix the two
    halves along the target axis, controlled gates index their control axes
    to the polarities and then swap (CNOT, MCX) or phase (CRZ) the two
    target halves, and a fused U block multiplies its matrix into its
    qubits' axes.
    """
    if circ.n_qubits > MAX_QUBITS:
        raise ResourceLimitError(f"{circ.n_qubits} qubits exceed the dense budget of {MAX_QUBITS}")
    n = circ.n_qubits
    if np.shape(state)[-1:] != (1 << n,):
        raise ValueError("state dimension does not match qubit count")
    psi = np.asarray(state, dtype=complex).copy()
    # the leading batch axis keeps every half an array view, never a scalar
    view = psi.reshape((-1,) + (2,) * n)
    for g in circ.gates:
        if g.kind in _SINGLE or g.kind == "RX":
            mat = _SINGLE[g.kind] if g.kind in _SINGLE else _RX(g.theta)
            i0, i1 = _half(n, g.target, 0), _half(n, g.target, 1)
            a0, a1 = view[i0], view[i1]
            out0 = mat[0, 0] * a0 + mat[0, 1] * a1
            view[i1] = mat[1, 0] * a0 + mat[1, 1] * a1
            view[i0] = out0
        elif g.kind in ("CNOT", "MCX"):
            i0, i1 = _half(n, g.target, 0, g.controls), _half(n, g.target, 1, g.controls)
            a0 = view[i0].copy()
            view[i0] = view[i1]
            view[i1] = a0
        elif g.kind in ("RZ", "CRZ"):
            # the same phase values as exp(-i theta/2 (1 - 2 bit)) per amplitude;
            # products are formed out of place, since numpy rounds an in-place
            # product into a one-element view differently from its array loop
            phase = np.exp(-1j * g.theta / 2 * np.array([1, -1]))
            for bit in (0, 1):
                half = view[_half(n, g.target, bit, g.controls)]
                half[...] = half * phase[bit]
        elif g.kind == "U":
            # the block's axes, highest qubit first as in its matrix index,
            # move next to the batch axis; the other amplitudes are cut into
            # sets of at most _BLOCK_COLS columns, one matrix product per set
            k = len(g.qubits)
            axes = [n - q for q in reversed(g.qubits)]
            moved = np.moveaxis(view, axes, range(1, k + 1))
            rest = 1 << (n - k)
            cols = min(rest, _BLOCK_COLS)
            amps = moved.reshape(len(view), 1 << k, rest // cols, cols).swapaxes(1, 2)
            out = (g.matrix @ amps).swapaxes(1, 2).reshape(moved.shape)
            view[...] = np.moveaxis(out, range(1, k + 1), axes)
        else:
            raise ValueError(f"unknown gate kind {g.kind}")
    return psi


def fuse(circ: Circuit) -> Circuit:
    """The same circuit with each run of consecutive gates on at most
    FUSE_WIDTH qubits merged into one U block.

    A block's matrix comes from one batched ``simulate`` of its run on the
    k-qubit identity. A run of one gate stays as it is, and so does every
    gate wider than FUSE_WIDTH, which ends the run before it. Gates are
    never reordered, so the fused circuit is the same unitary up to rounding.
    """
    out: list[Gate] = []
    run: list[Gate] = []
    qubits: set[int] = set()

    def flush() -> None:
        if len(run) == 1:
            out.append(run[0])
        elif run:
            qs = tuple(sorted(qubits))
            local = {q: i for i, q in enumerate(qs)}
            block = Circuit(
                len(qs),
                tuple(
                    replace(
                        g,
                        target=local[g.target],
                        controls=tuple((local[q], pol) for q, pol in g.controls),
                        qubits=tuple(local[q] for q in g.qubits),
                    )
                    for g in run
                ),
            )
            # row j is the run applied to basis state j, so the matrix is its transpose
            mat = simulate(block, np.eye(1 << len(qs), dtype=complex)).T
            out.append(Gate("U", qs[0], qubits=qs, matrix=mat))
        run.clear()
        qubits.clear()

    for g in circ.gates:
        gq = set(g.qubits) if g.kind == "U" else {g.target, *(q for q, _ in g.controls)}
        if len(gq) > FUSE_WIDTH:
            flush()
            out.append(g)
            continue
        if len(qubits | gq) > FUSE_WIDTH:
            flush()
        run.append(g)
        qubits |= gq
    flush()
    return Circuit(circ.n_qubits, tuple(out))


# ---------------------------------------------------------------------------
# term compilation
# ---------------------------------------------------------------------------


def _sites(term: PauliTerm, letters: str) -> list[int]:
    return [q for q, c in enumerate(term.letters) if c in letters]


def _compile_active(
    theta_t: float,
    x_sites: list[int],
    z_sites: list[int],
    zpred: list[int],
    opred: list[int],
    ancilla: int,
    work: int,
) -> list[Gate]:
    """exp(-i theta_t * X..Z..*predicates), controlled on the ancilla."""
    actives = sorted(x_sites + z_sites)
    r = actives[-1]
    pre: list[Gate] = [Gate("H", q) for q in sorted(x_sites)]
    pre += [Gate("CNOT", target=r, controls=((q, 1),)) for q in actives if q != r]
    gates = list(pre)
    if zpred or opred:
        toggles = [Gate("X", q) for q in sorted(zpred)]
        ctrl_sites = tuple((q, 1) for q in sorted(zpred + opred)) + ((ancilla, 1),)
        gates += toggles
        gates.append(Gate("MCX", target=work, controls=ctrl_sites))
        gates.append(Gate("CRZ", target=r, theta=2 * theta_t, controls=((work, 1),)))
        gates.append(Gate("MCX", target=work, controls=ctrl_sites))
        gates += list(reversed(toggles))
    else:
        gates.append(Gate("CRZ", target=r, theta=2 * theta_t, controls=((ancilla, 1),)))
    gates += reversed(pre)
    return gates


def _compile_projector(
    theta_t: float,
    zpred: list[int],
    opred: list[int],
    ancilla: int,
    work: int,
) -> list[Gate]:
    """exp(-i theta_t * projector product), controlled on the ancilla.

    Peels one predicate letter per recursion via z,o = (I +- Z)/2, producing a
    Z-active term plus a smaller projector; the terminal identity phase lands
    on the ancilla branch through an RZ on the (known |0>) work qubit.
    """
    if not zpred and not opred:
        return [Gate("CRZ", target=work, theta=2 * theta_t, controls=((ancilla, 1),))]
    sites = sorted(zpred + opred)
    s = sites[-1]
    sign = 1.0 if s in zpred else -1.0
    rest_z = [q for q in zpred if q != s]
    rest_o = [q for q in opred if q != s]
    gates = _compile_active(sign * theta_t / 2, [], [s], rest_z, rest_o, ancilla, work)
    gates += _compile_projector(theta_t / 2, rest_z, rest_o, ancilla, work)
    return gates


def compile_term(term: PauliTerm, t: float, ancilla: int, work: int) -> list[Gate]:
    """Gate list for the ancilla-controlled exp(-i*coeff*t*term).

    A term containing '+'/'-' letters stands for the Hermitian pair
    term + adjoint(term) (one excitation hop); it is conjugated by a CNOT
    into an X-with-o-predicate generator and compiled through the standard
    path. Identity terms are no-ops (they belong in the identity offset).
    """
    theta_t = term.coefficient * t
    x_sites = _sites(term, "X")
    z_sites = _sites(term, "Z")
    zpred = _sites(term, "z")
    opred = _sites(term, "o")
    plus = _sites(term, "+")
    minus = _sites(term, "-")
    if plus or minus:
        if len(plus) != 1 or len(minus) != 1:
            raise ValueError("hop terms must carry exactly one '+' and one '-'")
        u, v = plus[0], minus[0]
        sandwich = Gate("CNOT", target=v, controls=((u, 1),))
        inner = _compile_active(
            theta_t, [u], z_sites, zpred, sorted(opred + [v]), ancilla, work
        )
        return [sandwich] + inner + [sandwich]
    if not (x_sites or z_sites or zpred or opred):
        warnings.warn("identity term compiled as no-op; fold it into the offset")
        return []
    if x_sites or z_sites:
        return _compile_active(theta_t, x_sites, z_sites, zpred, opred, ancilla, work)
    return _compile_projector(theta_t, zpred, opred, ancilla, work)


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


def _mask_bits(term: PauliTerm) -> tuple[tuple[int, ...], int]:
    """Predicate sites (sorted) and the polarity mask (bit 1 for 'o')."""
    sites = tuple(sorted(_sites(term, "zo")))
    mask = 0
    for b, q in enumerate(sites):
        if term.letters[q] == "o":
            mask |= 1 << b
    return sites, mask


def _pattern_key(term: PauliTerm) -> tuple[str, int, tuple[int, ...]]:
    blanked = "".join("." if c in "zo" else c for c in term.letters)
    actives = [q for q, c in enumerate(term.letters) if c in "XZ+-"]
    ref = max(actives) if actives else -1
    sites, _ = _mask_bits(term)
    return blanked, ref, sites


def gray_sequence(bits: int) -> list[int]:
    """Binary-reflected Gray order of all masks on the given bit count."""
    return [i ^ (i >> 1) for i in range(1 << bits)]


def _greedy_from(start: int, uniq: list[int]) -> list[int]:
    order = [start]
    remaining = set(uniq) - {start}
    while remaining:
        cur = order[-1]
        nxt = min(remaining, key=lambda m: (bin(m ^ cur).count("1"), m))
        order.append(nxt)
        remaining.discard(nxt)
    return order


def _order_masks(masks: list[int], bits: int) -> list[int]:
    """Exact Gray traversal when the masks fill the hypercube on their varying
    bits; otherwise the cheapest greedy nearest-neighbor tour over all starts
    (ties break toward the lexicographically smaller tour)."""
    uniq = sorted(set(masks))
    if len(uniq) == 1:
        return uniq
    varying = 0
    for b in range(bits):
        if len({(m >> b) & 1 for m in uniq}) > 1:
            varying |= 1 << b
    var_bits = [b for b in range(bits) if (varying >> b) & 1]
    fixed = uniq[0] & ~varying
    if len(uniq) == (1 << len(var_bits)):
        order = []
        for g in gray_sequence(len(var_bits)):
            m = fixed
            for pos, b in enumerate(var_bits):
                if (g >> pos) & 1:
                    m |= 1 << b
            order.append(m)
        return order
    tours = [_greedy_from(s, uniq) for s in uniq]
    return min(tours, key=lambda o: (_toggle_sum(o), tuple(o)))


def _toggle_sum(order: list[int]) -> int:
    return sum(bin(a ^ b).count("1") for a, b in zip(order, order[1:]))


def schedule_gray(terms: list[PauliTerm]) -> list[PauliTerm]:
    """The terms grouped by (letter pattern, reference qubit), each group's
    control masks traversed in Gray order (exact on full hypercubes, greedy
    nearest-neighbor otherwise, deterministic tie-breaks).

    A group falls back to its input mask order when the heuristic traversal
    would toggle more, so the schedule never costs more than the input order
    in Hamming toggles between consecutive masks of a group (``_toggle_sum``).
    """
    groups: dict[tuple, list[PauliTerm]] = {}
    for t in terms:
        groups.setdefault(_pattern_key(t), []).append(t)
    ordered: list[PauliTerm] = []
    for key in sorted(groups, key=str):
        group = groups[key]
        sites = key[2]
        by_mask: dict[int, list[PauliTerm]] = {}
        input_masks: list[int] = []
        for t in group:
            _, m = _mask_bits(t)
            by_mask.setdefault(m, []).append(t)
            if m not in input_masks:
                input_masks.append(m)
        candidates = [_order_masks(sorted(by_mask), len(sites)), input_masks, sorted(by_mask)]
        order = min(candidates, key=lambda o: (_toggle_sum(o), tuple(o)))
        for m in order:
            ordered += sorted(by_mask[m], key=lambda u: u.letters)
    return ordered


# ---------------------------------------------------------------------------
# controlled evolution
# ---------------------------------------------------------------------------


def trotter_units(ham: PauliHamiltonian) -> list[PauliTerm]:
    """Terms to exponentiate: each +/- adjoint pair collapses to one canonical
    hop unit ('+' site before '-' site) consumed once."""
    units: list[PauliTerm] = []
    seen: set[str] = set()
    for t in ham.terms:
        if "+" in t.letters or "-" in t.letters:
            if t.letters in seen:
                continue
            partner = t.adjoint()
            seen.add(t.letters)
            seen.add(partner.letters)
            canon = t if t.letters.index("+") < t.letters.index("-") else partner
            units.append(canon)
        else:
            units.append(t)
    return units


def peephole(gates: list[Gate]) -> list[Gate]:
    """Cancel adjacent self-inverse pairs, then merge consecutive CRZ gates
    with identical controls and target by angle addition."""
    changed = True
    out = list(gates)
    while changed:
        changed = False
        nxt: list[Gate] = []
        i = 0
        while i < len(out):
            if i + 1 < len(out) and out[i].inverse_of(out[i + 1]):
                i += 2
                changed = True
                continue
            if (
                nxt
                and out[i].kind == "CRZ"
                and nxt[-1].kind == "CRZ"
                and nxt[-1].target == out[i].target
                and nxt[-1].controls == out[i].controls
            ):
                merged = Gate(
                    "CRZ",
                    target=out[i].target,
                    theta=nxt[-1].theta + out[i].theta,
                    controls=out[i].controls,
                )
                nxt[-1] = merged
                i += 1
                changed = True
                continue
            nxt.append(out[i])
            i += 1
        out = nxt
    return out


def controlled_evolution(
    ham: PauliHamiltonian,
    t: float,
    order: int = 2,
    steps: int = 1,
    alpha: float = 1.0,
    optimize: bool = True,
) -> Circuit:
    """Circuit for the ancilla-controlled exp(-i (H/alpha) t).

    Qubit layout: system 0..n-1, work qubit n (predicate conjunction),
    ancilla n+1. The identity offset becomes a phase on the ancilla branch.
    Raises when the per-step rescaled norm bound reaches pi (suggesting a
    sufficient step count).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = ham.n
    work, ancilla = n, n + 1
    norm_bound = ham.gershgorin_bound() / alpha
    if norm_bound * abs(t) / steps >= math.pi and norm_bound > 0:
        need = math.ceil(norm_bound * abs(t) / math.pi) + 1
        raise CompileConfigError(
            f"per-step norm bound {norm_bound * abs(t) / steps:.3g} >= pi; "
            f"use steps >= {need} or increase alpha"
        )
    units = schedule_gray(trotter_units(ham))
    dt = t / steps
    # every step is the same gate list, so one is compiled and repeated; second
    # order runs the terms forward and back, each over half the step
    step: list[Gate] = []
    for u in units if order == 1 else units + units[::-1]:
        step += compile_term(u, dt / alpha / order, ancilla, work)
    gates = step * steps
    if ham.identity_offset != 0.0:
        gates.append(
            Gate(
                "CRZ",
                target=work,
                theta=2 * ham.identity_offset * t / alpha,
                controls=((ancilla, 1),),
            )
        )
    if optimize:
        gates = peephole(gates)
    return Circuit(n_qubits=n + 2, gates=tuple(gates))


def baseline_qpe_cost(ham: PauliHamiltonian, phase_bits: int) -> CompileStats:
    """Two-qubit cost of a textbook inverse-QFT QPE at matching resolution.

    The baseline repeats the per-step controlled evolution 2^j times for each
    of phase_bits register qubits and adds the inverse-QFT controlled
    rotations; the compiled side runs one controlled evolution per sample.
    """
    if phase_bits < 1:
        raise ValueError("phase_bits must be >= 1")
    unit = controlled_evolution(ham, t=1.0, order=1, steps=1, alpha=max(
        1.0, ham.gershgorin_bound()
    ))
    unit_cost = unit.two_qubit_count()
    reps = (1 << phase_bits) - 1
    qft_cost = phase_bits * (phase_bits - 1) // 2 * 2  # CRZ with one control
    baseline = reps * unit_cost + qft_cost
    ratio = baseline / unit_cost if unit_cost else float("inf")
    return CompileStats(
        two_qubit_count=unit_cost,
        control_toggle_count=unit.toggle_count(),
        baseline_two_qubit_count=baseline,
        ratio=ratio,
    )
