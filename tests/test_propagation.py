import numpy as np
import pytest

from hologate import (
    EigenvalueCrossingError,
    LoopSequence,
    NonAbelianDegeneracyError,
    PulseParams,
    ValidationError,
    build_eigenframe,
    eigenframe_propagator,
    loop_params,
    named_gate,
    ode_propagator,
    phases,
    sequence_propagator,
    single_qubit_loop_gate,
    unitary_exp,
    unitary_fidelity,
    zero_dynamical_phase_amplitude,
)
from hologate.linalg import PAULI_1Q
from hologate.model import hamiltonian_path
from hologate.propagation import (
    DEFAULT_FRAME_POINTS,
    DEFAULT_ODE_POINTS,
    _require_abelian,
    _transport,
    ode_trajectory,
)
from hologate.synthesis import SEARCH_POINTS_PER_PERIOD, _search_grid
from conftest import random_cyclic_params

TWO_PI = 2.0 * np.pi
SX, SZ = PAULI_1Q["X"], PAULI_1Q["Z"]


def circle_distance(a, b):
    return np.abs(np.exp(1j * np.asarray(a)) - np.exp(1j * np.asarray(b))).max()


class TestBuildEigenframe:
    def test_drive_off_constant_basis(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(3.0,), phase=(0.0,),
                        detuning=(1.0,), duration=TWO_PI / 3.0)
        frame = build_eigenframe(p, 1024)
        # detuning - omega < 0, so |0> is the low eigenvector at every sample
        assert abs(frame.vectors[:, 0, 0]).min() > 1 - 1e-12
        assert abs(frame.vectors[:, 1, 1]).min() > 1 - 1e-12

    def test_cone_angle_precession(self):
        omega, delta, phi = 3.0, 1.0, 0.8
        amp = zero_dynamical_phase_amplitude(omega, delta)
        p = PulseParams(n=1, omega_drive=(amp,), omega_rot=(omega,), phase=(phi,),
                        detuning=(delta,), duration=TWO_PI / omega)
        frame = build_eigenframe(p, 2048)
        theta = np.arctan2(amp, delta - omega)  # in (pi/2, pi)
        for idx in (0, 512, 1333, 2048):
            t = frame.times[idx]
            v = frame.vectors[idx][:, 1]  # aligned with the invariant axis
            bloch = np.array([
                (v.conj() @ PAULI_1Q[a] @ v).real for a in "XYZ"
            ])
            expected = np.array([
                np.sin(theta) * np.cos(omega * t + phi),
                np.sin(theta) * np.sin(omega * t + phi),
                np.cos(theta),
            ])
            np.testing.assert_allclose(bloch, expected, atol=1e-9)

    def test_continuity_and_closure(self, rng):
        p = random_cyclic_params(rng, 2)
        frame = build_eigenframe(p)
        assert frame.min_step_overlap() > 0.999
        assert frame.closure_defect() < 1e-9

    def test_grid_floor(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        with pytest.raises(ValidationError):
            build_eigenframe(p, 128)

    def test_one_period_segment_gets_one_period_grids(self):
        # |w| * (2pi / w) / 2pi evaluates to 1.0000000000000002 for this w
        w = 1.302
        p = PulseParams(n=1, omega_drive=(0.5,), omega_rot=(w,), phase=(0.0,),
                        detuning=(1.0,), duration=TWO_PI / w)
        assert p.cycle_counts()[0] > 1.0
        assert build_eigenframe(p).times.size == DEFAULT_FRAME_POINTS + 1
        assert build_eigenframe(p, 256).times.size == 257
        assert _search_grid(p) == SEARCH_POINTS_PER_PERIOD
        np.testing.assert_array_equal(ode_propagator(p), ode_propagator(p, DEFAULT_ODE_POINTS))

    def test_crossing_detection_on_synthetic_swap(self):
        # two samples whose dominant eigenvectors trade places
        v0 = np.eye(2, dtype=complex)
        v1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        vectors = np.stack([v0, v1])
        h_path = np.zeros((2, 2, 2), dtype=complex)
        with pytest.raises(EigenvalueCrossingError):
            _transport(np.array([-1.0, 1.0]), vectors, h_path)

    def test_non_abelian_rejection_on_synthetic_block(self):
        # degenerate pair coupled by H in the transported basis
        vectors = np.stack([np.eye(2, dtype=complex)] * 3)
        h_path = np.stack([PAULI_1Q["X"]] * 3)
        with pytest.raises(NonAbelianDegeneracyError):
            _require_abelian(np.array([1.0, 1.0]), vectors, h_path,
                             [slice(0, 2)])


class TestEigenframePropagator:
    def test_commuting_case_exact(self):
        delta, omega = 1.3, 4.0
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(omega,), phase=(0.0,),
                        detuning=(delta,), duration=TWO_PI / omega)
        u = eigenframe_propagator(p, 1024)
        np.testing.assert_allclose(u, unitary_exp(SZ, delta * p.duration / 2), atol=1e-9)

    def test_not_gate_two_loops(self):
        seq = LoopSequence((
            loop_ratio_params(1.591, 2.253),
            loop_ratio_params(1.755, 4.180),
        ))
        u = sequence_propagator(seq)
        assert unitary_fidelity(named_gate("X"), u) >= 0.999

    def test_oracle_equivalence_samples(self, rng):
        for n in (1, 2):
            for _ in range(3):
                p = random_cyclic_params(rng, n)
                uf = eigenframe_propagator(p)
                uo = ode_propagator(p)
                assert np.linalg.norm(uf - uo) < 1e-6

    def test_requires_cyclic(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=1.0)
        with pytest.raises(ValidationError):
            eigenframe_propagator(p)

    def test_unitarity(self, rng):
        p = random_cyclic_params(rng, 2)
        u = eigenframe_propagator(p)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-8

    def test_degenerate_coupling_free_pair(self):
        # zero coupling with equal invariant magnitudes -> degenerate middle pair
        p = PulseParams(n=2, omega_drive=(1.5, 1.5), omega_rot=(4.0, 4.0),
                        phase=(0.2, 1.0), detuning=(1.0, 1.0),
                        couplings={(0, 1): 0.0}, duration=TWO_PI / 4.0)
        uf = eigenframe_propagator(p, 4096)
        uo = ode_propagator(p, 8192)
        assert np.linalg.norm(uf - uo) < 1e-6


def loop_ratio_params(ratio: float, phi: float) -> PulseParams:
    return PulseParams(
        n=1,
        omega_drive=(zero_dynamical_phase_amplitude(ratio, 1.0),),
        omega_rot=(ratio,),
        phase=(phi,),
        detuning=(1.0,),
        duration=TWO_PI / ratio,
    )


class TestOdePropagator:
    def test_constant_hamiltonian(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(0.8,), duration=np.pi)
        u = ode_propagator(p, 2048)
        np.testing.assert_allclose(u, unitary_exp(SZ, 0.8 * np.pi / 2), atol=1e-12)

    def test_second_order_convergence(self, rng):
        p = random_cyclic_params(rng, 2)
        ref = ode_propagator(p, 65536)
        e1 = np.linalg.norm(ode_propagator(p, 2048) - ref)
        e2 = np.linalg.norm(ode_propagator(p, 4096) - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_unitarity(self, rng):
        p = random_cyclic_params(rng, 2)
        u = ode_propagator(p)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-9

    def test_transitionless_in_invariant_frame(self, rng):
        p = random_cyclic_params(rng, 2)
        frame = build_eigenframe(p, 8192)
        times, us = ode_trajectory(p, 8192, n_samples=8)
        for t, u in zip(times, us):
            idx = int(round(t / p.duration * 8192))
            m = frame.vectors[idx].conj().T @ u @ frame.vectors[0]
            off = m - np.diag(np.diag(m))
            assert np.abs(off).max() < 1e-6


class TestPhases:
    def test_drive_off_no_geometric_phase(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(3.0,), phase=(0.0,),
                        detuning=(1.0,), duration=TWO_PI / 3.0)
        rec = phases(p, 1024)
        assert max(abs(g) for g in rec.gamma_geometric) < 1e-9

    def test_zero_dynamical_phase_condition(self):
        rec = phases(loop_ratio_params(1.591, 2.253))
        assert max(abs(g) for g in rec.gamma_dynamical) < 1e-6

    @pytest.mark.parametrize("ratio", [1.3, 1.755, 3.757])
    def test_geometric_phase_solid_angle(self, ratio):
        rec = phases(loop_ratio_params(ratio, 0.7))
        cos_theta = -np.sqrt((ratio - 1.0) / ratio)
        expected = np.pi * (1.0 - abs(cos_theta))
        for g in rec.gamma_geometric:
            assert abs(abs(g) - expected) < 1e-4

    def test_decomposition_closes(self, rng):
        for n in (1, 2):
            p = random_cyclic_params(rng, n)
            rec = phases(p)
            lhs = np.asarray(rec.alpha_total)
            rhs = np.asarray(rec.gamma_geometric) + np.asarray(rec.gamma_dynamical)
            assert circle_distance(lhs, rhs) < 1e-6

    def test_degenerate_pair_phases(self):
        p = PulseParams(n=2, omega_drive=(1.5, 1.5), omega_rot=(4.0, 4.0),
                        phase=(0.2, 1.0), detuning=(1.0, 1.0),
                        couplings={(0, 1): 0.0}, duration=TWO_PI / 4.0)
        rec = phases(p, 4096)
        lhs = np.asarray(rec.alpha_total)
        rhs = np.asarray(rec.gamma_geometric) + np.asarray(rec.gamma_dynamical)
        assert circle_distance(lhs, rhs) < 1e-6


class TestSingleQubitLoopGate:
    def test_equatorial_loop_is_global_phase(self):
        u = single_qubit_loop_gate(np.pi / 2, 1.234)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    def test_phase_periodicity(self):
        a = single_qubit_loop_gate(2.0, 0.4)
        b = single_qubit_loop_gate(2.0, 0.4 + TWO_PI)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("theta,phi", [(2.2, 0.7), (1.9, 4.0), (2.8, 2.2)])
    def test_matches_propagator_upper_branch(self, theta, phi):
        u_closed = single_qubit_loop_gate(theta, phi)
        u_frame = eigenframe_propagator(loop_params(theta, phi))
        assert np.linalg.norm(u_closed - u_frame) < 1e-6

    @pytest.mark.parametrize("theta,phi", [(0.9, 1.3), (0.5, 5.5)])
    def test_matches_propagator_lower_branch(self, theta, phi):
        # cone angles below pi/2 require reversed precession
        u_closed = single_qubit_loop_gate(theta, phi)
        u_frame = eigenframe_propagator(loop_params(theta, phi))
        assert np.linalg.norm(u_closed - u_frame) < 1e-6

    def test_not_gate_composition(self):
        # same two-loop NOT realization, through the closed form
        def theta_of(ratio):
            return np.pi - np.arcsin(1.0 / np.sqrt(ratio))

        u = single_qubit_loop_gate(theta_of(1.755), 4.180) @ single_qubit_loop_gate(
            theta_of(1.591), 2.253
        )
        assert unitary_fidelity(named_gate("X"), u) >= 0.999

    def test_degenerate_cone_rejected(self):
        for theta in (0.0, np.pi, -0.2, 3.5):
            with pytest.raises(ValidationError):
                single_qubit_loop_gate(theta, 0.0)
        with pytest.raises(ValidationError):
            loop_params(0.0, 0.0)


def test_sequence_propagator_order(rng):
    a = loop_ratio_params(1.591, 2.253)
    b = loop_ratio_params(1.755, 4.180)
    seq = LoopSequence((a, b))
    ua = eigenframe_propagator(a)
    ub = eigenframe_propagator(b)
    np.testing.assert_allclose(sequence_propagator(seq), ub @ ua, atol=1e-12)
