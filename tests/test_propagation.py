import dataclasses

import numpy as np
import pytest
import scipy.linalg

from hologate import (
    LoopSequence,
    PulseParams,
    ValidationError,
    eigenframe_propagator,
    loop_params,
    named_gate,
    ode_propagator,
    phases,
    sequence_evolution,
    sequence_propagator,
    single_qubit_loop_gate,
    unitary_exp,
    unitary_fidelity,
    zero_dynamical_phase_amplitude,
)
from hologate import model, propagation
from hologate.linalg import PAULI_1Q
from hologate.model import frame_frequencies, hamiltonian_path
from hologate.propagation import (
    ODE_STEPS_PER_PERIOD,
    _TAYLOR_NORM,
    _evolve,
    _loop_quaternion,
    _ode_steps,
    _stacks,
    _step_exponentials,
    segment_evolution,
)
from hologate.synthesis import TWO_QUBIT_BOUNDS, two_qubit_sequence_from_vector
from conftest import random_cyclic_params
from reference import (
    DEFAULT_FRAME_POINTS,
    EigenvalueCrossingError,
    NonAbelianDegeneracyError,
    _require_abelian,
    _transport,
    build_eigenframe,
    ode_propagator_eigh,
)

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
        assert _ode_steps(p) == ODE_STEPS_PER_PERIOD
        np.testing.assert_array_equal(ode_propagator(p), ode_propagator(p, ODE_STEPS_PER_PERIOD))

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
        u = eigenframe_propagator(p)
        np.testing.assert_allclose(u, unitary_exp(SZ, delta * p.duration / 2), atol=1e-12)

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
        uf = eigenframe_propagator(p)
        uo = ode_propagator(p)
        assert np.linalg.norm(uf - uo) < 1e-8

    def test_undriven_qubit_off_period(self):
        # qubit 0 is undriven and completes 1.3 Zeeman-frame turns, so
        # R(tau) is not +-I; the closed form still matches the oracle
        p = PulseParams(n=2, omega_drive=(0.0, 1.2), omega_rot=(5.2, 4.0),
                        phase=(0.0, 0.4), detuning=(0.7, 1.5),
                        couplings={(0, 1): 0.8}, duration=TWO_PI / 4.0)
        assert p.is_cyclic()
        uo = ode_propagator(p)
        assert np.linalg.norm(eigenframe_propagator(p) - uo) < 1e-8
        vecs = _evolve(*_stacks((p,)))[0][0]
        rec = phases(p)
        alpha = np.angle(np.einsum("ik,ij,jk->k", vecs.conj(), uo, vecs))
        total = np.asarray(rec.gamma_geometric) + np.asarray(rec.gamma_dynamical)
        assert circle_distance(alpha, total) < 1e-8


class TestStackedEvolve:
    def test_matches_one_segment_path(self, rng):
        # degenerate H_eff pairs in the stack: an undriven loop with equal
        # detunings, a coupling-free driven pair, and (not a pulse segment)
        # a random degenerate H_eff whose eigh basis leaves H(0) undiagonal
        undriven = PulseParams(n=2, omega_drive=(0.0, 0.0), omega_rot=(3.0, 3.0),
                               phase=(0.4, 1.1), detuning=(0.7, 0.7),
                               couplings={(0, 1): 0.9}, duration=TWO_PI / 3.0)
        free_pair = PulseParams(n=2, omega_drive=(1.5, 1.5), omega_rot=(4.0, 4.0),
                                phase=(0.2, 1.0), detuning=(1.0, 1.0),
                                couplings={(0, 1): 0.0}, duration=TWO_PI / 4.0)
        segs = [random_cyclic_params(rng, 2) for _ in range(4)]
        segs[1:1] = [undriven]
        segs[4:4] = [free_pair]
        h0, z, tau = _stacks(segs)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        z_mixed = np.array([2.0, 0.5, -0.7, -1.8])
        h_mixed = q @ np.diag([-1.0, 0.3, 0.3, 1.2]) @ q.conj().T + np.diag(0.5 * z_mixed)
        h0, z, tau = np.concatenate([h0, [h_mixed]]), np.vstack([z, z_mixed]), np.append(tau, 1.3)
        stacked = _evolve(h0, z, tau)
        for k in range(len(tau)):
            for a, b in zip(stacked, _evolve(h0[k:k + 1], z[k:k + 1], tau[k:k + 1])):
                np.testing.assert_allclose(a[k], b[0], rtol=0, atol=1e-14)
        for k in (1, 4, 6):
            # the Abelian representative: inside the degenerate H_eff pair the
            # returned basis diagonalizes H(0)
            vecs = stacked[0][k]
            e = np.diag(vecs.conj().T @ (h0[k] - np.diag(0.5 * z[k])) @ vecs).real
            pair = np.abs(e[:, None] - e[None, :]) < 1e-9
            np.fill_diagonal(pair, False)
            assert pair.any()
            assert np.abs((vecs.conj().T @ h0[k] @ vecs)[pair]).max() < 1e-12


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

    def test_fourth_order_convergence(self, rng):
        p = random_cyclic_params(rng, 2)
        exact = eigenframe_propagator(p)
        errs = [np.linalg.norm(ode_propagator(p, n) - exact) for n in (32, 64, 128, 256)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 12.0

    def test_default_steps_at_the_bound_corner(self):
        # largest amplitudes and detunings at the lowest drive frequency of
        # the two-qubit search box: the step count follows tau ||H||
        x = [hi if k in (0, 1, 5, 6) else lo for k, (lo, hi) in enumerate(TWO_QUBIT_BOUNDS)]
        x[3], x[4] = 0.3, 1.1
        p = two_qubit_sequence_from_vector(x).segments[0]
        assert _ode_steps(p) > ODE_STEPS_PER_PERIOD
        assert np.linalg.norm(ode_propagator(p) - eigenframe_propagator(p)) < 1e-8

    def test_rejects_too_few_steps(self, rng):
        with pytest.raises(ValidationError):
            ode_propagator(random_cyclic_params(rng, 1), 8)

    @pytest.mark.parametrize("n_t", [16.9, 32.0, "32", float("nan"), float("inf"), True])
    def test_rejects_non_integer_step_counts(self, rng, n_t):
        with pytest.raises(ValidationError):
            ode_propagator(random_cyclic_params(rng, 1), n_t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("n_t", [None, 16, 2048])
    def test_matches_the_eigh_reference(self, rng, n, n_t):
        p = PulseParams(
            n=n,
            omega_drive=tuple(rng.uniform(0.2, 4.0, n)),
            omega_rot=tuple(rng.uniform(1.0, 4.0, n)),
            phase=tuple(rng.uniform(0.0, TWO_PI, n)),
            detuning=tuple(rng.uniform(-2.0, 4.0, n)),
            couplings={pair: rng.uniform(0.3, 2.0) for pair in model._PAIRS[n]},
            duration=rng.uniform(1.0, 2.0 * TWO_PI),
        )
        assert np.abs(ode_propagator(p, n_t) - ode_propagator_eigh(p, n_t)).max() <= 1e-11

    def test_reads_no_invariant(self, rng, monkeypatch):
        p = random_cyclic_params(rng, 2)
        expected = ode_propagator(p)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not read the invariant frame")

        for mod, name in ((propagation, "frame_frequencies"), (propagation, "_evolve"),
                          (model, "frame_frequencies"), (model, "invariant_path")):
            monkeypatch.setattr(mod, name, refuse)
        np.testing.assert_array_equal(ode_propagator(p), expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_undriven_segment_gives_the_identity_exactly(self, n):
        # every step generator is zero: no division by th = 0, no log2 of a
        # zero norm, and each factor is I exactly
        p = PulseParams(n=n, omega_drive=(0.0,) * n, omega_rot=(1.0,) * n, phase=(0.3,) * n,
                        detuning=(0.0,) * n, duration=TWO_PI)
        with np.errstate(all="raise"):
            u = ode_propagator(p)
        np.testing.assert_array_equal(u, np.eye(2**n))

    def test_unitarity(self, rng):
        p = random_cyclic_params(rng, 2)
        u = ode_propagator(p)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-9

    def test_transitionless_in_invariant_frame(self, rng):
        # the oracle, run on the segment cut off at t, keeps each invariant
        # eigenstate R(0)|u_n> on its own closed-form frame vector R(t)|u_n>
        p = random_cyclic_params(rng, 2)
        vecs = _evolve(*_stacks((p,)))[0][0]
        z = frame_frequencies(p)
        for t in np.linspace(0.0, p.duration, 9)[1:]:
            u = ode_propagator(dataclasses.replace(p, duration=t))
            frame_t = np.exp(-0.5j * t * z)[:, None] * vecs
            m = frame_t.conj().T @ u @ vecs
            off = m - np.diag(np.diag(m))
            assert np.abs(off).max() < 1e-8


def embedded(u):
    """The real embedding [[Re U, -Im U], [Im U, Re U]] of a stack of U."""
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


class TestStepExponentials:
    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("scale", [0.0, 1e-6, 1e-2, 0.3, 2.0, 20.0])
    def test_against_expm(self, rng, d, scale):
        a = rng.normal(size=(16, d, d)) + 1j * rng.normal(size=(16, d, d))
        g = a + a.conj().transpose(0, 2, 1)
        if d == 2:  # the one-qubit closed form takes traceless generators, as H(t) is
            g -= 0.5 * np.trace(g, axis1=1, axis2=2)[:, None, None] * np.eye(2)
        g *= scale / np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
        with np.errstate(all="raise"):
            e = _step_exponentials(g)
        expected = embedded(np.stack([scipy.linalg.expm(-1j * x) for x in g]))
        assert np.abs(e - expected).max() <= 1e-13
        if d > 2 and scale >= 2.0:  # the scaling and squaring ran
            assert np.abs(embedded(-1j * g)).sum(axis=-2).max() > _TAYLOR_NORM


class TestPhases:
    def test_drive_off_no_geometric_phase(self):
        p = PulseParams(n=1, omega_drive=(0.0,), omega_rot=(3.0,), phase=(0.0,),
                        detuning=(1.0,), duration=TWO_PI / 3.0)
        rec = phases(p)
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

    def test_geometric_phase_is_the_grid_holonomy(self, rng):
        # discrete Berry holonomy arg <v(0)|v(tau)> of the parallel-transported
        # grid frame; its gap to the closed form is grid error, O(dt^2)
        for n in (1, 2):
            p = random_cyclic_params(rng, n)
            gg = np.asarray(phases(p).gamma_geometric)
            gaps = []
            for points in (DEFAULT_FRAME_POINTS, 4 * DEFAULT_FRAME_POINTS):
                frame = build_eigenframe(p, points * int(p.period_count()))
                berry = np.angle(np.einsum("ik,ik->k", frame.vectors[0].conj(),
                                           frame.vectors[-1]))
                gaps.append(circle_distance(berry, gg))
            assert gaps[0] < 1e-6
            assert gaps[0] / gaps[1] >= 8.0

    def test_dynamical_phase_is_the_grid_quadrature(self, rng):
        p = random_cyclic_params(rng, 2)
        frame = build_eigenframe(p)
        h_path = hamiltonian_path(p, frame.times)
        expect = np.einsum("tik,tij,tjk->tk", frame.vectors.conj(), h_path, frame.vectors).real
        quadrature = -np.trapezoid(expect, frame.times, axis=0)
        np.testing.assert_allclose(phases(p).gamma_dynamical, quadrature, atol=1e-9)

    def test_degenerate_pair_grid_holonomy(self):
        # inside the degenerate pair both the grid transport and the closed
        # form pick the basis that diagonalizes H(0)
        for kind in ("equal", "unequal"):
            p = degenerate_pair(kind)
            frame = build_eigenframe(p)
            assert frame.closure_defect() < 1e-9
            berry = np.diag(frame.vectors[0].conj().T @ frame.vectors[-1])
            assert circle_distance(np.angle(berry), phases(p).gamma_geometric) < 1e-6

    def test_degenerate_pair_phases(self):
        # U(tau) is a multiple of I on the degenerate pair, so alpha is the same
        # in every basis of the pair but the split into gg and gd is not: gd
        # must be the grid quadrature in the transported frame
        for kind in ("equal", "unequal"):
            p = degenerate_pair(kind)
            rec = phases(p)
            lhs = np.asarray(rec.alpha_total)
            rhs = np.asarray(rec.gamma_geometric) + np.asarray(rec.gamma_dynamical)
            assert circle_distance(lhs, rhs) < 1e-6
            frame = build_eigenframe(p)
            h_path = hamiltonian_path(p, frame.times)
            expect = np.einsum("tik,tij,tjk->tk", frame.vectors.conj(), h_path, frame.vectors).real
            quadrature = -np.trapezoid(expect, frame.times, axis=0)
            np.testing.assert_allclose(rec.gamma_dynamical, quadrature, atol=1e-9)

    def test_unequal_degenerate_pair_h0_block(self):
        # the H(0) block of the unequal pair is not a multiple of I, so only
        # the rotated basis diagonalizes it
        h0, z, tau = _stacks((degenerate_pair("unequal"),))
        vecs = _evolve(h0, z, tau)[0][0]
        block = (vecs.conj().T @ h0[0] @ vecs)[1:3, 1:3]  # H_eff levels -5, 0, 0, 5
        assert abs(block[0, 1]) < 1e-12
        assert abs(block[0, 0] - block[1, 1]) > 1.0


def degenerate_pair(kind: str) -> PulseParams:
    """A coupling-free pair with equal H_eff gaps, so H_eff has a degenerate
    middle pair. "equal": W1 = W2 and D1 = D2, so the H(0) block of that pair
    is 0. "unequal": W1 != W2 with W_j^2 + (D_j - w)^2 = 25 for both, so the
    block is diag(-2.8, 2.8) in the product basis."""
    drive, detuning = {"equal": ((1.5, 1.5), (1.0, 1.0)),
                       "unequal": ((4.0, 3.0), (1.0, 8.0))}[kind]
    return PulseParams(n=2, omega_drive=drive, omega_rot=(4.0, 4.0), phase=(0.2, 1.0),
                       detuning=detuning, couplings={(0, 1): 0.0}, duration=TWO_PI / 4.0)


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

    @pytest.mark.parametrize("theta,phi", [(2.2, 0.7), (np.pi / 2, 1.0), (0.5, 5.5)])
    def test_matrix_is_the_quaternion(self, theta, phi):
        w, vx, vy, vz = _loop_quaternion(theta, phi)
        expected = w * PAULI_1Q["I"] + 1j * (
            vx * PAULI_1Q["X"] + vy * PAULI_1Q["Y"] + vz * PAULI_1Q["Z"]
        )
        np.testing.assert_array_equal(single_qubit_loop_gate(theta, phi), expected)

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


def test_sequence_evolution_is_the_segment_loop(rng):
    seq = LoopSequence(tuple(random_cyclic_params(rng, 2) for _ in range(3)))
    u, gd = sequence_evolution(seq)
    u_loop, gd_loop = np.eye(4, dtype=complex), []
    for seg in seq:
        useg, g = segment_evolution(seg)
        u_loop = useg @ u_loop
        gd_loop.append(g)
    np.testing.assert_array_equal(u, u_loop)
    np.testing.assert_array_equal(gd, np.stack(gd_loop))
    assert gd.shape == (3, 4)
    np.testing.assert_array_equal(sequence_propagator(seq), u)
