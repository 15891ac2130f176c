import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from topospec.errors import CompileConfigError, ResourceLimitError
from topospec.qcompile import (
    FUSE_WIDTH,
    Circuit,
    Gate,
    baseline_qpe_cost,
    compile_term,
    controlled_evolution,
    fuse,
    simulate,
)
from topospec.susy import PauliHamiltonian, PauliTerm, onehot_hamiltonian
from helpers import circuit_unitary, graph_from_edges


def random_pauli_ham(rng, n=3, n_terms=4):
    terms = []
    for _ in range(n_terms):
        letters = "".join(rng.choice(list("IXZzo"), size=n))
        if set(letters) == {"I"}:
            letters = "X" + letters[1:]
        terms.append(PauliTerm(float(rng.normal()), letters))
    return PauliHamiltonian(terms=tuple(terms), n=n)


def controlled_block(circ, ham_dim):
    """(anc0 block, anc1 system block) on the work=0 subspace."""
    U = circuit_unitary(circ)
    n = circ.n_qubits
    anc, work = 1 << (n - 1), 1 << (n - 2)
    idx0 = [i for i in range(1 << n) if not (i & anc) and not (i & work) and (i & ~(anc | work)) < ham_dim]
    idx1 = [i | anc for i in idx0]
    return U[np.ix_(idx0, idx0)], U[np.ix_(idx1, idx1)]


def test_single_z_term_no_ladder():
    term = PauliTerm(0.8, "IZI")
    gates = compile_term(term, 0.5, ancilla=4, work=3)
    kinds = [g.kind for g in gates]
    assert kinds == ["CRZ"]
    assert gates[0].controls == ((4, 1),)
    assert gates[0].theta == pytest.approx(2 * 0.8 * 0.5)


def test_xz_term_matches_dense_exponential():
    term = PauliTerm(0.6, "XZ")
    t = 0.9
    gates = compile_term(term, t, ancilla=3, work=2)
    circ = Circuit(4, tuple(gates))
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1, -1]).astype(complex)
    gen = 0.6 * np.kron(Z, X)  # qubit 0 is the low bit
    exact = scipy.linalg.expm(-1j * gen * t)
    blk0, blk1 = controlled_block(circ, 4)
    assert np.abs(blk0 - np.eye(4)).max() < 1e-10
    assert np.abs(blk1 - exact).max() < 1e-10


def test_predicate_blocks_failing_subspace():
    term = PauliTerm(0.7, "XzI")
    t = 0.5
    circ = Circuit(5, tuple(compile_term(term, t, ancilla=4, work=3)))
    _, blk1 = controlled_block(circ, 8)
    # qubit1 excited (predicate z fails): identity there
    failing = [i for i in range(8) if (i >> 1) & 1]
    passing = [i for i in range(8) if not (i >> 1) & 1]
    sub_fail = blk1[np.ix_(failing, failing)]
    assert np.abs(sub_fail - np.eye(4)).max() < 1e-10
    assert np.abs(blk1[np.ix_(failing, passing)]).max() < 1e-12
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    exact = scipy.linalg.expm(-1j * 0.7 * t * X)
    sub_pass = blk1[np.ix_(passing, passing)]
    expect = np.kron(np.eye(2), exact)  # qubit2 free, qubit0 rotated
    assert np.abs(sub_pass - expect).max() < 1e-10


def test_hop_term_preserves_excitation_and_matches_flipflop():
    term = PauliTerm(0.45, "+-I")
    t = 1.1
    circ = Circuit(5, tuple(compile_term(term, t, ancilla=4, work=3)))
    _, blk1 = controlled_block(circ, 8)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    flip = np.kron(np.eye(2), np.kron(sp.T, sp)) + np.kron(np.eye(2), np.kron(sp, sp.T))
    exact = scipy.linalg.expm(-1j * 0.45 * t * flip)
    assert np.abs(blk1 - exact).max() < 1e-10


def test_projector_only_term_compiles_exactly():
    term = PauliTerm(1.3, "zoI")
    t = 0.8
    circ = Circuit(5, tuple(compile_term(term, t, ancilla=4, work=3)))
    blk0, blk1 = controlled_block(circ, 8)
    z = np.diag([1.0, 0.0]).astype(complex)
    o = np.diag([0.0, 1.0]).astype(complex)
    gen = 1.3 * np.kron(np.eye(2), np.kron(o, z))
    exact = scipy.linalg.expm(-1j * gen * t)
    assert np.abs(blk0 - np.eye(8)).max() < 1e-10
    assert np.abs(blk1 - exact).max() < 1e-10


def test_identity_term_noop_warns():
    with pytest.warns(UserWarning):
        gates = compile_term(PauliTerm(1.0, "III"), 1.0, ancilla=4, work=3)
    assert gates == []


# ---------------------------------------------------------------------------
# controlled evolution
# ---------------------------------------------------------------------------


def test_single_z_exact_any_steps():
    ham = PauliHamiltonian(terms=(PauliTerm(0.9, "ZI"),), n=2)
    t = 2.2
    exact = scipy.linalg.expm(-1j * ham.dense() * t)
    for steps in (1, 3):
        circ = controlled_evolution(ham, t, order=1, steps=steps)
        _, blk1 = controlled_block(circ, 4)
        assert np.abs(blk1 - exact).max() < 1e-10


def _order_fit(ham, order, t_values, steps=1):
    errs = []
    exact_h = ham.dense()
    for t in t_values:
        circ = controlled_evolution(ham, t, order=order, steps=steps, optimize=False)
        _, blk1 = controlled_block(circ, exact_h.shape[0])
        exact = scipy.linalg.expm(-1j * exact_h * t)
        errs.append(np.abs(blk1 - exact).max())
    slope = np.polyfit(np.log(t_values), np.log(errs), 1)[0]
    return slope


def test_trotter_order_scaling():
    rng = np.random.default_rng(0)
    t_values = np.array([0.4, 0.2, 0.1, 0.05])
    slopes1, slopes2 = [], []
    for _ in range(3):
        ham = random_pauli_ham(rng, n=3, n_terms=4)
        slopes1.append(_order_fit(ham, 1, t_values))
        slopes2.append(_order_fit(ham, 2, t_values))
    for s in slopes1:
        assert 1.8 <= s <= 2.2
    for s in slopes2:
        assert 2.8 <= s <= 3.2


def test_simulate_empty_and_involution():
    circ = Circuit(2, ())
    state = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    assert np.array_equal(simulate(circ, state), state)
    xx = Circuit(2, (Gate("X", 0), Gate("X", 0)))
    assert np.allclose(simulate(xx, state), state)


def test_simulate_norm_preserved():
    rng = np.random.default_rng(1)
    ham = random_pauli_ham(rng, 3, 5)
    circ = controlled_evolution(ham, 0.8, order=2, steps=4)
    state = rng.normal(size=1 << circ.n_qubits) + 1j * rng.normal(size=1 << circ.n_qubits)
    state /= np.linalg.norm(state)
    out = simulate(circ, state)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_simulate_qubit_budget():
    with pytest.raises(ResourceLimitError):
        simulate(Circuit(17, ()), np.zeros(1 << 17, dtype=complex))


_DENSE_1Q = {
    "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]]),
    "SDG": np.diag([1, -1j]),
    "RX": lambda t: np.array(
        [[math.cos(t / 2), -1j * math.sin(t / 2)], [-1j * math.sin(t / 2), math.cos(t / 2)]]
    ),
    "RZ": lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
}


def _kron_op(n, factors):
    """Kronecker product over qubits n-1..0 (qubit q is bit q of the index)."""
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def _dense_gate(g, n):
    if g.kind in ("H", "X", "SDG"):
        return _kron_op(n, {g.target: _DENSE_1Q[g.kind]})
    if g.kind in ("RX", "RZ"):
        return _kron_op(n, {g.target: _DENSE_1Q[g.kind](g.theta)})
    proj = {q: np.diag([1 - pol, pol]) for q, pol in g.controls}
    target = _DENSE_1Q["X"] if g.kind in ("CNOT", "MCX") else _DENSE_1Q["RZ"](g.theta)
    # identity off the control condition, the target operator on it
    return np.eye(1 << n) - _kron_op(n, proj) + _kron_op(n, {**proj, g.target: target})


def _simulate_by_index_masks(circ, state):
    """The index-mask simulator the in-place one replaced: every gate gathers
    its halves through integer index arrays into copies. Same arithmetic, so
    the results must agree bit for bit."""
    dim = 1 << circ.n_qubits
    idx = np.arange(dim)
    psi = np.asarray(state, dtype=complex).copy()
    for g in circ.gates:
        if g.kind in ("H", "X", "SDG", "RX"):
            mat = _DENSE_1Q[g.kind](g.theta) if g.kind == "RX" else _DENSE_1Q[g.kind]
            mat = mat.astype(complex) if g.kind == "X" else mat
            i0 = idx[(idx >> g.target) & 1 == 0]
            i1 = i0 | (1 << g.target)
            a0, a1 = psi[i0], psi[i1]
            psi = psi.copy()
            psi[i0] = mat[0, 0] * a0 + mat[0, 1] * a1
            psi[i1] = mat[1, 0] * a0 + mat[1, 1] * a1
            continue
        sel = np.ones(dim, dtype=bool)
        for q, pol in g.controls:
            sel &= ((idx >> q) & 1) == pol
        out = psi.copy()
        if g.kind in ("CNOT", "MCX"):
            out[idx[sel]] = psi[idx[sel] ^ (1 << g.target)]
        else:
            phase = np.exp(-1j * g.theta / 2 * (1 - 2 * ((idx >> g.target) & 1)))
            out[sel] = psi[sel] * phase[sel]
        psi = out
    return psi


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(1, 5))
    kinds = ["H", "X", "SDG", "RX", "RZ"] + (["CNOT", "MCX", "CRZ"] if n >= 2 else [])
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        qs = draw(st.permutations(range(n)))
        theta = draw(st.floats(-2 * math.pi, 2 * math.pi))
        if kind in ("H", "X", "SDG"):
            gates.append(Gate(kind, qs[0]))
        elif kind in ("RX", "RZ"):
            gates.append(Gate(kind, qs[0], theta=theta))
        elif kind == "CNOT":
            gates.append(Gate(kind, qs[0], controls=((qs[1], 1),)))
        else:
            k = draw(st.integers(1, n - 1))
            pols = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
            gates.append(
                Gate(
                    kind,
                    qs[0],
                    theta=theta if kind == "CRZ" else None,
                    controls=tuple(zip(qs[1 : k + 1], pols)),
                )
            )
    return Circuit(n, tuple(gates))


@settings(max_examples=200, deadline=None)
@given(circ=_random_circuits(), seed=st.integers(0, 10_000))
def test_simulate_matches_dense_kronecker_reference(circ, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << circ.n_qubits
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    expect = state.astype(complex)
    for g in circ.gates:
        expect = _dense_gate(g, circ.n_qubits) @ expect
    before = state.copy()
    out = simulate(circ, state)
    assert np.allclose(out, expect, rtol=0, atol=1e-12 * np.abs(state).sum())
    assert np.array_equal(out, _simulate_by_index_masks(circ, state))
    assert np.array_equal(state, before)  # gates act in place on a copy only


def test_simulate_bitwise_equal_to_index_masks_on_compiled_circuits():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(6, 6))
    circ = controlled_evolution(onehot_hamiltonian((A + A.T) / 2), 0.4, order=2, steps=4)
    state = rng.normal(size=1 << circ.n_qubits) + 1j * rng.normal(size=1 << circ.n_qubits)
    out = simulate(circ, state)
    assert np.array_equal(out.view(np.uint64), _simulate_by_index_masks(circ, state).view(np.uint64))


def _width(g):
    return len(g.qubits) if g.kind == "U" else 1 + len(g.controls)


@st.composite
def _fusable_circuits(draw):
    """2-8 qubits, every gate kind, MCX gates up to n qubits wide (so wider
    than FUSE_WIDTH from 6 qubits on) and runs cut short by them."""
    n = draw(st.integers(2, 8))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["H", "X", "SDG", "RX", "RZ", "CNOT", "MCX", "CRZ"]))
        qs = draw(st.permutations(range(n)))
        theta = draw(st.floats(-2 * math.pi, 2 * math.pi))
        if kind in ("H", "X", "SDG"):
            gates.append(Gate(kind, qs[0]))
        elif kind in ("RX", "RZ"):
            gates.append(Gate(kind, qs[0], theta=theta))
        elif kind == "CNOT":
            gates.append(Gate(kind, qs[0], controls=((qs[1], 1),)))
        else:
            k = draw(st.integers(1, n - 1 if kind == "MCX" else min(n - 1, 2)))
            pols = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
            gates.append(
                Gate(kind, qs[0], theta=theta if kind == "CRZ" else None, controls=tuple(zip(qs[1 : k + 1], pols)))
            )
    return Circuit(n, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(circ=_fusable_circuits(), seed=st.integers(0, 10_000), batch=st.integers(1, 3))
def test_fused_circuit_is_the_gate_by_gate_simulation(circ, seed, batch):
    rng = np.random.default_rng(seed)
    dim = 1 << circ.n_qubits
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    fused = fuse(circ)
    assert len(fused.gates) <= len(circ.gates)
    assert all(_width(g) <= FUSE_WIDTH for g in fused.gates if g.kind == "U")
    # gates wider than a block are kept, in order
    wide = [g for g in circ.gates if _width(g) > FUSE_WIDTH]
    assert [g for g in fused.gates if _width(g) > FUSE_WIDTH] == wide
    # every gate left unfused is wide or stood alone in its run
    assert all(g in circ.gates for g in fused.gates if g.kind != "U")
    expect = simulate(circ, states)
    assert np.abs(simulate(fused, states) - expect).max(initial=0.0) <= 1e-12
    assert np.abs(simulate(fuse(fused), states) - expect).max(initial=0.0) <= 1e-12
    # a batch is evolved row by row: each row bit for bit its single-state call
    for c in (circ, fused):
        out = simulate(c, states)
        assert out.shape == states.shape
        for row, state in zip(out, states):
            assert np.array_equal(row.view(np.uint64), simulate(c, state).view(np.uint64))


def test_fuse_keeps_single_gate_runs_and_wide_gates():
    wide = Gate("MCX", 7, controls=tuple((q, 1) for q in range(6)))
    circ = Circuit(
        8,
        (
            Gate("H", 0),
            Gate("CNOT", 1, controls=((0, 1),)),
            wide,
            Gate("X", 3),  # alone between two wide gates
            wide,
            Gate("RZ", 2, theta=0.3),
            Gate("RX", 2, theta=0.7),
            Gate("CRZ", 2, theta=1.1, controls=((3, 0),)),
        ),
    )
    fused = fuse(circ)
    assert [g.kind for g in fused.gates] == ["U", "MCX", "X", "MCX", "U"]
    assert [g.qubits for g in fused.gates] == [(0, 1), (), (), (), (2, 3)]
    first = fused.gates[0].matrix
    expect = circuit_unitary(Circuit(2, circ.gates[:2]))
    assert first.shape == (4, 4) and np.abs(first - expect).max() < 1e-15


def test_fused_circuits_have_no_two_qubit_cost():
    rng = np.random.default_rng(8)
    circ = controlled_evolution(random_pauli_ham(rng, 3, 4), 0.5, order=2, steps=2)
    assert circ.two_qubit_count() > 0
    # a U block hides its gates, so counting it as 0 would undercount the circuit
    with pytest.raises(ValueError, match="fused U block"):
        fuse(circ).two_qubit_count()


def test_simulate_checks_the_amplitude_axis():
    circ = Circuit(2, (Gate("H", 0),))
    # four rows of two amplitudes: as long as a 2-qubit state, but not one
    with pytest.raises(ValueError, match="state dimension"):
        simulate(circ, np.ones((4, 2), dtype=complex))
    rows = np.eye(4, dtype=complex)[:3]
    assert np.array_equal(simulate(circ, rows), np.stack([simulate(circ, r) for r in rows]))


def test_compiled_fidelity_with_enough_steps():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5))
    M = (A + A.T) / 2
    ham = onehot_hamiltonian(M)
    t = 0.6
    circ = controlled_evolution(ham, t, order=2, steps=600)
    psi = np.zeros(1 << ham.n, dtype=complex)
    idx = [1 << q for q in range(5)]
    psi[idx] = 1 / math.sqrt(5)
    full = np.zeros(1 << circ.n_qubits, dtype=complex)
    full[: 1 << ham.n] = psi
    # put ancilla into |1> so the system branch evolves
    anc = circ.n_qubits - 1
    full = simulate(Circuit(circ.n_qubits, (Gate("X", anc),)), full)
    out = simulate(circ, full)
    exact_sys = scipy.linalg.expm(-1j * ham.dense() * t) @ psi
    expect = simulate(Circuit(circ.n_qubits, (Gate("X", anc),)), np.concatenate([exact_sys, np.zeros((1 << circ.n_qubits) - (1 << ham.n))]).astype(complex))
    # compare up to the ancilla-branch bookkeeping: project back
    fid = abs(np.vdot(expect, out)) ** 2
    assert fid >= 1 - 1e-8


def test_unitarity_of_compiled_circuits():
    rng = np.random.default_rng(3)
    for _ in range(3):
        ham = random_pauli_ham(rng, 3, 4)
        circ = controlled_evolution(ham, 0.5, order=2, steps=2)
        U = circuit_unitary(circ)
        assert np.abs(U.conj().T @ U - np.eye(len(U))).max() <= 1e-10


def test_excitation_sector_preservation():
    from topospec.susy import susy_hamiltonian

    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ham = susy_hamiltonian(g)
    circ = controlled_evolution(ham, 0.7, order=2, steps=8)
    rng = np.random.default_rng(4)
    # start in the 2-excitation sector (edges of C4), ancilla |1>
    dim = 1 << circ.n_qubits
    state = np.zeros(dim, dtype=complex)
    anc = 1 << (circ.n_qubits - 1)
    sector_idx = [0b0011, 0b0110, 0b1100, 0b1001]
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    for i, a in zip(sector_idx, amps):
        state[i | anc] = a
    out = simulate(circ, state)
    keep = [i | anc for i in sector_idx]
    leak = np.delete(np.abs(out) ** 2, keep).sum()
    assert leak <= 1e-10


def test_step_budget_error_suggests_steps():
    ham = PauliHamiltonian(terms=(PauliTerm(5.0, "XX"),), n=2)
    with pytest.raises(CompileConfigError) as exc:
        controlled_evolution(ham, 10.0, order=1, steps=1)
    assert "steps" in str(exc.value)


def test_rotation_merge_rule():
    # consecutive CRZ with identical controls and target merge by angle addition
    ham = PauliHamiltonian(terms=(PauliTerm(0.3, "ZI"), PauliTerm(0.4, "ZI")), n=2)
    circ = controlled_evolution(ham, 1.0, order=1, steps=1)
    crz = [g for g in circ.gates if g.kind == "CRZ"]
    assert len(crz) == 1
    assert crz[0].theta == pytest.approx(2 * 0.7)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------


def test_baseline_degenerate_register():
    ham = PauliHamiltonian(terms=(PauliTerm(1.0, "ZII"),), n=3)
    stats = baseline_qpe_cost(ham, phase_bits=1)
    assert stats.baseline_two_qubit_count == stats.two_qubit_count
    assert stats.ratio == pytest.approx(1.0)


def test_baseline_single_term_ratio_is_repetition_factor():
    # one-term H: the ratio collapses to the phase-register repetition count
    # plus the (small) inverse-QFT share
    ham = PauliHamiltonian(terms=(PauliTerm(1.0, "ZII"),), n=3)
    for bits in (3, 5):
        stats = baseline_qpe_cost(ham, phase_bits=bits)
        reps = (1 << bits) - 1
        qft = bits * (bits - 1)  # CRZ with one control costs two CNOTs
        assert stats.ratio == pytest.approx(reps + qft / stats.two_qubit_count)


def test_baseline_doubles_with_phase_bits():
    rng = np.random.default_rng(5)
    ham = random_pauli_ham(rng, 3, 4)
    s6 = baseline_qpe_cost(ham, phase_bits=6)
    s7 = baseline_qpe_cost(ham, phase_bits=7)
    assert s7.baseline_two_qubit_count / s6.baseline_two_qubit_count == pytest.approx(2.0, rel=0.05)


def test_compiled_cost_linear_in_steps():
    rng = np.random.default_rng(6)
    ham = random_pauli_ham(rng, 3, 4)
    c1 = controlled_evolution(ham, 0.3, order=1, steps=1, optimize=False)
    c2 = controlled_evolution(ham, 0.3, order=1, steps=2, optimize=False)
    assert c2.two_qubit_count() == 2 * c1.two_qubit_count()
    # with no identity phase, steps = s is the one-step list at t / s, s times over
    assert ham.identity_offset == 0.0
    for order in (1, 2):
        for s in (1, 2, 3):
            one = controlled_evolution(ham, 0.3 / s, order=order, steps=1, optimize=False)
            many = controlled_evolution(ham, 0.3, order=order, steps=s, optimize=False)
            assert many.gates == one.gates * s
