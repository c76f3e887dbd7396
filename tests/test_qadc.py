"""Digitization chain: quantization, arithmetic permutation, the QADC composition."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim import invariants
from qknn_sim.qadc import (
    PrecisionConfig,
    arithmetic_map,
    arithmetic_table,
    fidelity_qadc_circuit,
    quantize_array,
)
from qknn_sim.statevec import (
    RegisterLayout,
    SimulationError,
    StateVector,
    hadamard,
    pauli_x,
)
from qknn_sim.subroutines import build_G, make_V, make_W, qpe_circuit

RNG = np.random.default_rng(1234)


def haar(n, rng=RNG):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def fidelity_layout(m, n, b):
    return RegisterLayout.from_sizes([
        ("index", m), ("train", n), ("test", n), ("B", 1), ("phase", b), ("fid", b)])


def test_precision_config_bounds():
    assert PrecisionConfig(4).b == 4
    with pytest.raises(SimulationError):
        PrecisionConfig(1)
    assert PrecisionConfig(np.int64(3)).b == 3


def test_precision_config_refuses_fractional_bits():
    """b = 2.5 used to digitize to the codes 0..4: [0.1, 0.5, 0.9, 1.0] -> [1, 3, 4, 4]."""
    with pytest.raises(SimulationError, match="precision bits must be an integer, got 2.5"):
        PrecisionConfig(2.5)


@pytest.mark.parametrize("build", [
    lambda V, W, layout, cfg: fidelity_qadc_circuit(V, W, layout, cfg),
    lambda V, W, layout, cfg: arithmetic_map(cfg, layout),
    lambda V, W, layout, cfg: qpe_circuit(build_G(V, W, layout).gate, layout.qubits("phase")),
], ids=["fidelity_qadc_circuit", "arithmetic_map", "qpe_circuit"])
def test_qadc_builders_refuse_what_does_not_fit_before_allocating(build):
    """At b = 13 the arithmetic permutation and the inverse QFT hold 2**26
    entries, past the memory cap: each builder refuses before allocating them."""
    rng = np.random.default_rng(13)
    layout, cfg = fidelity_layout(1, 1, 13), PrecisionConfig(13)
    V = make_V(haar(1, rng), layout, register="test")
    W = make_W(np.stack([haar(1, rng), haar(1, rng)]), layout)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match=r"at most 2\*\*24"):
            build(V, W, layout, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@given(st.integers(2, 16), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=200, deadline=None)
def test_quantized_value_round_trip(b, bits):
    bits %= 2 ** b
    assert quantize_array([bits / 2 ** b], b).tolist() == [bits]


def test_quantize_array_ties_to_even_and_saturates():
    # 0.125 * 4 = 0.5 -> even 0; 1.5 -> even 2; 1.1 saturates
    assert quantize_array([0.5 / 4, 1.5 / 4], 2).tolist() == [0, 2]
    assert quantize_array([1.1], 3).tolist() == [7]


def test_fidelity_saturation_and_dot_offset():
    assert quantize_array([1.0, 0.0], 3).tolist() == [7, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("measure", ["fidelity"])
def test_quantize_array_refuses_non_finite_values(bad, measure):
    """A NaN would cast to the int64 minimum and an infinity would saturate;
    both are refused, naming the value."""
    with pytest.raises(SimulationError, match=f"non-finite {measure} values, got {bad}"):
        quantize_array([0.5, bad], 3)


def test_arithmetic_table_values():
    cfg = PrecisionConfig(3)
    table = arithmetic_table(cfg)
    assert table[2] == 0          # theta = 1/4 -> F = 0
    assert table[4] == 7          # theta = 1/2 -> F = 1, saturated
    cfg8 = PrecisionConfig(8)
    t_near_third = round(2 ** 8 / 3)
    value = arithmetic_table(cfg8)[t_near_third] / 2 ** 8
    assert abs(value - 0.5) < 0.02  # sin^2(pi/3) = 3/4 -> F = 1/2


def _reference_phase_value(t, b):
    """g(t) per phase value with math.sin and Python's round (ties to even)."""
    v = 2.0 * math.sin(math.pi * min(t, 2 ** b - t) / 2 ** b) ** 2 - 1.0
    return _reference_code(min(max(v, 0.0), 1.0), b)


@pytest.mark.parametrize("measure", ["fidelity"])
def test_arithmetic_table_matches_per_phase_reference(measure):
    for b in range(2, 9):
        assert arithmetic_table(PrecisionConfig(b)).tolist() == [
            _reference_phase_value(t, b) for t in range(2 ** b)]


def test_arithmetic_folding_exhaustive():
    assert invariants.arithmetic_folding(range(2, 9)) == 0


def test_arithmetic_map_is_self_inverse_xor_completion():
    cfg = PrecisionConfig(3)
    layout = RegisterLayout.from_sizes([("phase", 3), ("fid", 3)])
    gate = arithmetic_map(cfg, layout)
    rng = np.random.default_rng(5)
    state = StateVector(6, haar(6, rng), layout)
    twice = state.apply(gate).apply(gate)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


def _dyadic_instance(b):
    """Train states whose swap-test phases are exact b-bit fractions."""
    psi = np.array([1, 0], dtype=complex)
    phis = np.array([[1, 0], [0, 1]], dtype=complex)  # F = [1, 0]
    layout = fidelity_layout(1, 1, b)
    V = make_V(psi, layout, register="test")
    W = make_W(phis, layout)
    return layout, V, W


def _apply_F(state, layout, V, W, cfg):
    return state.apply_circuit(fidelity_qadc_circuit(V, W, layout, cfg))


def fid_distribution(state, j):
    """Distribution of the fid register in index branch j."""
    probs = state.measure_probs(["index", "fid"]).reshape(-1, 2 ** state.layout.size("index"))
    return probs[:, j] / probs[:, j].sum()


def test_E_amp_matches_directly_constructed_state():
    """The E^amp half (G.amp_circuit) gives sum_j c_j |j>|Psi_j> in closed form."""
    rng = np.random.default_rng(8)
    layout = fidelity_layout(1, 1, 2)
    psi = haar(1, rng)
    phis = np.stack([haar(1, rng) for _ in range(2)])
    V = make_V(psi, layout, register="test")
    W = make_W(phis, layout)
    state = StateVector.zero_state(layout).apply(hadamard(0))
    out = state.apply_circuit(build_G(V, W, layout).amp_circuit)
    expected = np.zeros(2 ** layout.num_qubits, dtype=complex)
    for j in range(2):
        sym = np.kron(psi, phis[j]) + np.kron(phis[j], psi)   # test on high bits
        anti = np.kron(psi, phis[j]) - np.kron(phis[j], psi)
        psi_j = np.concatenate([sym, anti]) / 2.0
        for w, amp in enumerate(psi_j):
            expected[j + 2 * w] = amp / math.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)


def test_E_amp_uniform_superposition_marginal():
    rng = np.random.default_rng(9)
    layout = fidelity_layout(1, 1, 2)
    psi = haar(1, rng)
    phis = np.stack([haar(1, rng) for _ in range(2)])
    F = [abs(np.vdot(psi, p)) ** 2 for p in phis]
    V = make_V(psi, layout, register="test")
    W = make_W(phis, layout)
    out = StateVector.zero_state(layout).apply(hadamard(0)).apply_circuit(
        build_G(V, W, layout).amp_circuit)
    assert abs(out.measure_probs("B")[0] - (2 + F[0] + F[1]) / 4) < 1e-10


@pytest.mark.parametrize("j,expected_bits", [(0, None), (1, 0)])
def test_apply_F_dyadic_is_deterministic(j, expected_bits):
    """F=1 saturates to the all-ones string, F=0 reads out as zero."""
    b = 3
    layout, V, W = _dyadic_instance(b)
    if expected_bits is None:
        expected_bits = 2 ** b - 1
    state = StateVector.zero_state(layout)
    if j:
        state = state.apply(pauli_x(0))
    out = _apply_F(state, layout, V, W, PrecisionConfig(b))
    dist = fid_distribution(out, j)
    assert abs(dist[expected_bits] - 1.0) < 1e-9


def test_apply_F_superposed_branches_match_single_runs():
    b = 2
    layout, V, W = _dyadic_instance(b)
    out = _apply_F(StateVector.zero_state(layout).apply(hadamard(0)), layout, V, W,
                   PrecisionConfig(b))
    assert abs(fid_distribution(out, 0)[3] - 1.0) < 1e-9
    assert abs(fid_distribution(out, 1)[0] - 1.0) < 1e-9


def _reduced_density_matrix(state, registers):
    """rho over ``registers`` (given in layout order) with the rest traced out."""
    qubits = state.layout.qubits_of(registers)
    n, k = state.num_qubits, len(qubits)
    moved = np.moveaxis(state.amplitudes.reshape((2,) * n), [n - 1 - q for q in qubits],
                        [k - 1 - i for i in range(k)])
    mat = moved.reshape(2 ** k, -1)
    return mat @ mat.conj().T


def test_apply_F_uncompute_cleanliness():
    """Ancilla registers return to |0..0> within trace distance 1e-6 (dyadic)."""
    b = 2
    layout, V, W = _dyadic_instance(b)
    out = _apply_F(StateVector.zero_state(layout).apply(hadamard(0)), layout, V, W,
                   PrecisionConfig(b))
    rho = _reduced_density_matrix(out, ["train", "test", "B", "phase"])
    target = np.zeros_like(rho)
    target[0, 0] = 1.0
    eigs = np.linalg.eigvalsh(rho - target)
    assert 0.5 * np.abs(eigs).sum() < 1e-6


def test_apply_F_then_inverse_then_F_is_idempotent_on_content():
    b = 2
    layout, V, W = _dyadic_instance(b)
    circ = fidelity_qadc_circuit(V, W, layout, PrecisionConfig(b))
    state = StateVector.zero_state(layout)
    once = state.apply_circuit(circ)
    thrice = state.apply_circuit(circ).apply_circuit(circ.inverse()).apply_circuit(circ)
    np.testing.assert_allclose(
        once.measure_probs(["index", "fid"]), thrice.measure_probs(["index", "fid"]),
        atol=1e-10)


def test_apply_E_dig_uses_reflection_operator():
    b = 2
    layout, V, W = _dyadic_instance(b)
    out = StateVector.zero_state(layout).apply_circuit(
        fidelity_qadc_circuit(V, W, layout, PrecisionConfig(b)))
    assert abs(fid_distribution(out, 0)[3] - 1.0) < 1e-9


def test_apply_F_accuracy_random_instances():
    """Most probable digitized fidelity within pi * 2**(2-b) of the true value."""
    rng = np.random.default_rng(555)
    b = 5
    bound = math.pi * 2 ** (2 - b)
    layout = fidelity_layout(1, 1, b)
    cfg = PrecisionConfig(b)
    for _ in range(50):
        psi = haar(1, rng)
        phis = np.stack([haar(1, rng) for _ in range(2)])
        V = make_V(psi, layout, register="test")
        W = make_W(phis, layout)
        out = _apply_F(StateVector.zero_state(layout).apply(hadamard(0)), layout, V, W, cfg)
        for j in range(2):
            F = abs(np.vdot(psi, phis[j])) ** 2
            best = int(np.argmax(fid_distribution(out, j)))
            assert abs(best / 2 ** b - F) <= bound


def _reference_code(x, b):
    """Nearest b-bit code of x in [0, 1] by Python's round (ties to even), saturated."""
    return min(max(round(x * 2 ** b), 0), 2 ** b - 1)


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.random(100), [0.0, 1.0, 0.5, -0.25, 1.25]])
    for b in (2, 5, 12):
        np.testing.assert_array_equal(
            quantize_array(xs, b), [_reference_code(min(max(x, 0.0), 1.0), b) for x in xs])
