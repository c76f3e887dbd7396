"""Digitization chain: quantization, arithmetic permutation, the QADC composition."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim import invariants
from qknn_sim.qadc import (
    PrecisionConfig,
    abs_qadc,
    apply_qadc,
    arithmetic_map,
    arithmetic_table,
    fid_distribution,
    fidelity_qadc_circuit,
    quantize_array,
    quantize_dot,
    quantize_fidelity,
    round_bits,
)
from qknn_sim.statevec import (
    RegisterLayout,
    SimulationError,
    StateVector,
    hadamard,
    pauli_x,
)
from qknn_sim.subroutines import build_G, build_H_dot, make_V, make_W

RNG = np.random.default_rng(1234)


def haar(n, rng=RNG):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def fidelity_layout(m, n, b):
    return RegisterLayout.from_sizes([
        ("index", m), ("train", n), ("test", n), ("B", 1), ("phase", b), ("fid", b)])


def test_precision_config_bounds():
    assert PrecisionConfig(4).epsilon == 1 / 16
    with pytest.raises(SimulationError):
        PrecisionConfig(1)
    with pytest.raises(SimulationError):
        PrecisionConfig(12).require_circuit_scale()


@given(st.integers(2, 16), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=200, deadline=None)
def test_quantized_value_round_trip(b, bits):
    bits %= 2 ** b
    assert round_bits(bits / 2 ** b, b) == bits


def test_round_bits_ties_to_even():
    assert round_bits(0.5 / 4, 2) == 0   # 0.125 * 4 = 0.5 -> even 0
    assert round_bits(1.5 / 4, 2) == 2   # 1.5 -> even 2
    assert round_bits(1.1, 3) == 7       # saturates


def test_fidelity_saturation_and_dot_offset():
    assert quantize_fidelity(1.0, 3) == 7
    assert quantize_fidelity(0.0, 3) == 0
    assert quantize_dot(1.0, 3) == 7
    assert quantize_dot(-1.0, 3) == 0
    assert quantize_dot(0.0, 3) == 4


def test_arithmetic_table_values():
    cfg = PrecisionConfig(3)
    table = arithmetic_table(cfg)
    assert table[2] == 0          # theta = 1/4 -> F = 0
    assert table[4] == 7          # theta = 1/2 -> F = 1, saturated
    cfg8 = PrecisionConfig(8)
    t_near_third = round(2 ** 8 / 3)
    value = arithmetic_table(cfg8)[t_near_third] / 2 ** 8
    assert abs(value - 0.5) < 0.02  # sin^2(pi/3) = 3/4 -> F = 1/2


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
    return apply_qadc(state, build_G(V, W, layout), layout, cfg)


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


def test_E_amp_rejects_dirty_ancilla():
    layout, V, W = _dyadic_instance(2)
    dirty = StateVector.zero_state(layout).apply(pauli_x(layout.qubits("B")[0]))
    with pytest.raises(SimulationError, match="'B' is not fresh"):
        apply_qadc(dirty, build_G(V, W, layout), layout, PrecisionConfig(2))


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
    G = build_G(V, W, layout)
    out = apply_qadc(StateVector.zero_state(layout), G, layout, PrecisionConfig(b))
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


def _dot_layout(m, n, b):
    return RegisterLayout.from_sizes([
        ("index", m), ("data", n), ("B", 1), ("phase", b), ("fid", b)])


@pytest.mark.parametrize("u,expected_over_8", [
    (np.array([1.0, 0.0]), 7),                       # X = 1 saturates
    (np.array([0.0, 1.0]), 4),                       # X = 0 -> offset 1/2
    (np.array([1.0, 1.0]) / math.sqrt(2), 7),        # X = 1/sqrt2, theta = 3/8 dyadic
])
def test_apply_X_dot_known_values(u, expected_over_8):
    b = 3
    v = np.array([1.0, 0.0])
    layout = _dot_layout(1, 1, b)
    V = make_V(v.astype(complex), layout, register="data")
    W = make_W(np.stack([u, u]).astype(complex), layout, index="index", train="data")
    H = build_H_dot(V, W, layout)
    out = apply_qadc(StateVector.zero_state(layout), H, layout, PrecisionConfig(b))
    dist = fid_distribution(out, 0)
    assert abs(dist[expected_over_8] - 1.0) < 1e-9


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.random(100), [0.0, 1.0, 0.5]])
    for b in (2, 5, 12):
        np.testing.assert_array_equal(
            quantize_array(xs, b), [quantize_fidelity(float(x), b) for x in xs])
        np.testing.assert_array_equal(
            quantize_array(2 * xs - 1, b, "dot"),
            [quantize_dot(float(2 * x - 1), b) for x in xs])


def test_abs_qadc_identity_preparation():
    res = abs_qadc(np.eye(2), PrecisionConfig(3))
    assert abs(res.branch_distributions[0][7] - 1.0) < 1e-9   # |c_0| = 1
    assert abs(res.branch_distributions[1][0] - 1.0) < 1e-9   # |c_1| = 0
    np.testing.assert_allclose(res.state.measure_probs("index"), [0.5, 0.5], atol=1e-9)


def test_abs_qadc_uniform_amplitudes():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    b = 5
    res = abs_qadc(h, PrecisionConfig(b))
    for branch in res.branch_distributions:
        best = int(np.argmax(branch))
        assert abs(best / 2 ** b - 1 / math.sqrt(2)) <= 2 ** -4


def test_abs_qadc_random_real_state_mass_near_truth():
    """Per branch, mass >= 0.8 within 2**-4 of |c_i| for a random real state.

    Holds for moderate amplitudes; near |c| = 0 the phase-to-amplitude map
    has unbounded slope (theta -> 1/4 square-root singularity) and the b-bit
    phase grid cannot resolve |c_i| this finely, so the instance is frozen
    from a derivation run with both amplitudes away from the singular zone.
    """
    rng = np.random.default_rng(32)
    c = rng.normal(size=2)
    c /= np.linalg.norm(c)
    from qknn_sim.subroutines import unitary_with_first_column
    b = 5
    res = abs_qadc(unitary_with_first_column(c.astype(complex)), PrecisionConfig(b))
    for i, branch in enumerate(res.branch_distributions):
        values = np.arange(2 ** b) / 2 ** b
        mass = branch[np.abs(values - abs(c[i])) <= 2 ** -4].sum()
        assert mass >= 0.8


def test_abs_qadc_small_amplitude_resolution_limit():
    """Branches with |c_i| near zero collapse onto the 0 bin: the square-root
    arithmetic is singular at theta = 1/4, so tiny amplitudes digitize to 0."""
    c = np.array([0.15, math.sqrt(1 - 0.15 ** 2)])
    from qknn_sim.subroutines import unitary_with_first_column
    res = abs_qadc(unitary_with_first_column(c.astype(complex)), PrecisionConfig(5))
    assert res.branch_distributions[0][0] > 0.5


@pytest.mark.parametrize("prep,match", [
    (np.eye(16), "d = 16"),          # 13-qubit reflection operator, over the dense cap
    (np.eye(4)[:, :2], r"shape \(4, 2\)"),
    (np.eye(3), r"shape \(3, 3\)"),
])
def test_abs_qadc_rejects_unsupported_preparation(prep, match):
    """abs_qadc refuses, before building anything, what its dense G cannot hold."""
    with pytest.raises(SimulationError, match=match):
        abs_qadc(prep, PrecisionConfig(2))
