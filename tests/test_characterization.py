import dataclasses
import functools
import itertools
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hologate import (
    ChannelSequence,
    DepolarizingChannel,
    LoopSequence,
    RBRecord,
    TransferMatrix,
    UnitaryChannel,
    ValidationError,
    fit_decay,
    named_gate,
    pauli_transfer,
    process_fidelity,
    qpt_setting_count,
    rb_gate_fidelity,
    rb_run,
    sequence_propagator,
    simulate_qpt,
)
from hologate import linalg, synthesis, tables
from hologate.characterization import (
    CLIFFORD_1Q_ROTATIONS, FLAT_SPAN, RB_MAX_CLIFFORDS, SLOWEST_RATE)
from hologate.linalg import PAULI_1Q, pauli_basis
from reference import (
    CLIFFORD_1Q, CLIFFORD_1Q_GROUP_PTM, depolarizing_map, map_transfer, rb_transfer_chain,
    sequence_map, unitary_exp, unitary_map)

SX, SZ = PAULI_1Q["X"], PAULI_1Q["Z"]


def brute_force_transfer(u: np.ndarray) -> np.ndarray:
    """Element-by-element reconstruction used as the independent oracle."""
    n = int(np.log2(u.shape[0]))
    _, basis = pauli_basis(n)
    d = 2 ** n
    out = np.zeros((4 ** n, 4 ** n))
    for i in range(4 ** n):
        rho = u @ basis[i] @ u.conj().T
        for j in range(4 ** n):
            out[i, j] = np.trace(basis[j] @ rho).real / d
    return out


@functools.cache
def clifford_group() -> list[np.ndarray]:
    """A unitary of each element of `CLIFFORD_1Q_ROTATIONS`, in its order,
    found among the words of three textbook generators by the rotation
    blocks of brute-force transfer matrices (every element is such a word,
    since the identity is a generator)."""
    gens = [u for _, u in CLIFFORD_1Q]
    words = [a @ b @ c for a, b, c in itertools.product(gens, repeat=3)]
    blocks = [brute_force_transfer(u)[1:, 1:] for u in words]
    return [next(u for u, o in zip(words, blocks) if np.allclose(o, g, rtol=0, atol=1e-14))
            for g in CLIFFORD_1Q_ROTATIONS]


def density_matrix_rb(impl, ideal, eps_clifford, eps_target, m_values, n_sequences,
                      seed, interleave):
    """Per-m mean and standard error of the Z survival, evolving explicit
    density matrices through the channel of each seeded sequence. One
    generator per (seed, variant, m) draws the sequences row by row."""
    cliffords = clifford_group()
    means, errs = [], []
    for mi, m in enumerate(m_values):
        vals = []
        rng = np.random.default_rng([seed, int(interleave), mi])
        for _ in range(n_sequences):
            maps, net = [], np.eye(2, dtype=complex)
            for k in rng.integers(0, len(cliffords), size=m):
                maps += [unitary_map(cliffords[k]), depolarizing_map(eps_clifford)]
                net = cliffords[k] @ net
                if interleave:
                    maps += [unitary_map(impl), depolarizing_map(eps_target)]
                    net = ideal @ net
            maps += [unitary_map(net.conj().T), depolarizing_map(eps_clifford)]
            rho = sequence_map(maps)(SZ)
            vals.append(np.trace(SZ @ rho).real / 2.0)
        means.append(np.mean(vals))
        errs.append(np.std(vals, ddof=1) / np.sqrt(n_sequences))
    return np.array(means), np.array(errs)


class TestPauliTransfer:
    def test_basis_built_once_per_qubit_count(self, monkeypatch):
        _, basis = pauli_basis(2)
        assert pauli_basis(2)[1] is basis and synthesis._PAULI_STACK_2Q is basis
        assert not basis.flags.writeable
        pauli_transfer(SX)

        def no_kron(*ops):
            raise AssertionError("Pauli basis rebuilt")

        monkeypatch.setattr(linalg, "kron", no_kron)
        pauli_transfer(SX)
        pauli_transfer(named_gate("CNOT"))

    def test_identity_channel(self):
        t = pauli_transfer(np.eye(2, dtype=complex))
        np.testing.assert_allclose(t.matrix, np.eye(4), atol=1e-14)

    def test_x_conjugation_signs(self):
        t = pauli_transfer(SX)
        np.testing.assert_allclose(t.matrix, np.diag([1, 1, -1, -1]), atol=1e-14)

    def test_identity_row_trace_preserving(self):
        channel = ChannelSequence([
            UnitaryChannel(named_gate("H")),
            DepolarizingChannel(0.13, 1),
        ])
        t = pauli_transfer(channel)
        np.testing.assert_allclose(t.matrix[0], [1, 0, 0, 0], atol=1e-14)
        reference = map_transfer(
            sequence_map([unitary_map(named_gate("H")), depolarizing_map(0.13)]), 1)
        np.testing.assert_allclose(t.matrix, reference, rtol=0, atol=1e-15)

    def test_cnot_against_brute_force(self):
        t = pauli_transfer(named_gate("CNOT"))
        np.testing.assert_allclose(t.matrix, brute_force_transfer(named_gate("CNOT")),
                                   atol=1e-12)

    def test_synthesized_cnot_close_to_ideal(self):
        from hologate import sequence_propagator

        u = sequence_propagator(tables.cnot_sequence())
        t = pauli_transfer(u)
        ideal = brute_force_transfer(named_gate("CNOT"))
        assert np.abs(t.matrix - ideal).max() < 0.02

    def test_unitary_channel_is_orthogonal(self, rng):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = unitary_exp(h + h.conj().T, 0.7)
        t = pauli_transfer(u).matrix
        np.testing.assert_allclose(t.T @ t, np.eye(16), atol=1e-10)

    def test_composition_order(self, rng):
        h1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u1 = unitary_exp(h1 + h1.conj().T, 0.9)
        chans = [UnitaryChannel(u1), DepolarizingChannel(0.05, 1),
                 UnitaryChannel(named_gate("H"))]
        composed = pauli_transfer(ChannelSequence(chans)).matrix
        # the density-matrix maps applied in turn, the first acting first
        maps = [unitary_map(u1), depolarizing_map(0.05), unitary_map(named_gate("H"))]
        np.testing.assert_allclose(composed, map_transfer(sequence_map(maps), 1),
                                   rtol=0, atol=1e-14)
        # a raw unitary in the sequence is its own channel
        np.testing.assert_array_equal(
            ChannelSequence([u1, chans[1], named_gate("H")]).matrix, composed)

    def test_clifford_table_against_brute_force(self):
        # the package's six generators, written as signed permutations, are
        # the rotation blocks of the textbook unitaries' transfer matrices
        assert len(CLIFFORD_1Q) == 6
        for (_, u), o in zip(CLIFFORD_1Q, CLIFFORD_1Q_ROTATIONS):
            t = brute_force_transfer(u)
            np.testing.assert_allclose(t[0], [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(t[:, 0], [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(t[1:, 1:], o, rtol=0, atol=1e-15)

    def test_random_three_qubit_against_brute_force(self, rng):
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        u = unitary_exp(h + h.conj().T, 0.6)
        t = pauli_transfer(u)
        assert t.n == 3
        np.testing.assert_allclose(t.matrix, brute_force_transfer(u), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_depolarizing_against_the_density_matrix_map(self, n):
        t = DepolarizingChannel(0.3, n)
        assert t.n == n
        np.testing.assert_allclose(t.matrix, map_transfer(depolarizing_map(0.3, n), n),
                                   rtol=0, atol=1e-15)

    def test_transfer_matrix_is_its_own_channel(self):
        t = DepolarizingChannel(0.1, 2)
        assert pauli_transfer(t) is t and simulate_qpt(t)[0] is t

    @pytest.mark.parametrize("u", [
        np.full((2, 2), np.nan),
        np.diag([1.0, np.inf]),
        np.ones((2, 2)),
        2.0 * np.eye(4),
        np.eye(2) + 1e-7,
        np.eye(3),
        np.eye(16),
        np.ones((2, 3)),
    ])
    def test_rejects_what_is_not_a_register_unitary(self, u):
        with pytest.raises(ValidationError):
            UnitaryChannel(u)
        with pytest.raises(ValidationError):
            pauli_transfer(u)
        with pytest.raises(ValidationError):
            ChannelSequence([u])

    def test_sequence_validation(self):
        with pytest.raises(ValidationError):
            ChannelSequence([])
        with pytest.raises(ValidationError):
            ChannelSequence([SX, DepolarizingChannel(0.1, 2)])

    def test_unitality(self):
        for channel in (UnitaryChannel(named_gate("T")), DepolarizingChannel(0.2, 1)):
            t = pauli_transfer(channel)
            np.testing.assert_allclose(t.matrix[0], [1, 0, 0, 0], atol=1e-14)


class TestProcessFidelity:
    def test_self_fidelity(self):
        t = pauli_transfer(named_gate("T"))
        assert process_fidelity(t, t) == pytest.approx(1.0)

    def test_x_versus_identity(self):
        f = process_fidelity(pauli_transfer(np.eye(2, dtype=complex)),
                             pauli_transfer(named_gate("X")))
        assert f == pytest.approx(1.0 / 3.0)

    def test_synthesized_cnot(self):
        from hologate import sequence_propagator

        u = sequence_propagator(tables.cnot_sequence())
        f = process_fidelity(pauli_transfer(u), pauli_transfer(named_gate("CNOT")))
        assert f >= 0.99

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            process_fidelity(pauli_transfer(np.eye(2, dtype=complex)),
                             pauli_transfer(np.eye(4, dtype=complex)))


class TestQptBookkeeping:
    def test_setting_counts(self):
        assert qpt_setting_count(1) == 12
        assert qpt_setting_count(2) == 240

    def test_simulated_settings_match(self):
        t1, n1 = simulate_qpt(named_gate("H"))
        assert n1 == 12
        t2, n2 = simulate_qpt(named_gate("CNOT"))
        assert n2 == 240
        np.testing.assert_allclose(t1.matrix, pauli_transfer(named_gate("H")).matrix,
                                   atol=1e-12)
        np.testing.assert_allclose(t2.matrix, pauli_transfer(named_gate("CNOT")).matrix,
                                   atol=1e-12)


class TestCliffordSet:
    def test_six_elements_mapping_paulis_to_paulis(self):
        assert len(CLIFFORD_1Q) == 6
        paulis = [PAULI_1Q[a] for a in "XYZ"]
        for _, u in CLIFFORD_1Q:
            for p in paulis:
                out = u @ p @ u.conj().T
                # out must be +/- a single Pauli
                overlaps = [abs(np.trace(q @ out)) / 2 for q in paulis]
                assert max(overlaps) == pytest.approx(1.0, abs=1e-12)

    def test_group_table(self):
        group = CLIFFORD_1Q_ROTATIONS
        assert group.shape == (24, 3, 3) and group.dtype == float
        # distinct, and every product is an element
        same = (group[:, None] == group[None]).all(axis=(-2, -1))
        np.testing.assert_array_equal(same, np.eye(24, dtype=bool))
        products = group[:, None] @ group[None]
        assert (products[:, :, None] == group).all(axis=(-2, -1)).any(axis=-1).all()
        # signed permutations, and rotations
        assert np.isin(group, (-1.0, 0.0, 1.0)).all()
        np.testing.assert_array_equal(np.abs(group).sum(axis=1), 1.0)
        np.testing.assert_array_equal(np.abs(group).sum(axis=2), 1.0)
        np.testing.assert_allclose(np.linalg.det(group), 1.0, rtol=0, atol=1e-15)
        # every element is the rotation block of a generator word's transfer
        # matrix (test_clifford_table_against_brute_force: the six come first)
        for u, g in zip(clifford_group(), group):
            np.testing.assert_allclose(brute_force_transfer(u)[1:, 1:], g, rtol=0, atol=1e-14)


def twirl(group: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Mean of G^T channel G over the matrices G of `group`."""
    return np.mean(np.swapaxes(group, 1, 2) @ channel @ group, axis=0)


class TestTwoDesign:
    """Twirling over a unitary 2-design makes any channel depolarizing, which
    the single-exponential RB model assumes."""

    def test_twirl_of_a_unitary_error_is_depolarizing(self, rng):
        for _ in range(5):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            error = UnitaryChannel(unitary_exp(h + h.conj().T, 0.4)).matrix[1:, 1:]
            depolarizing = np.trace(error) / 3.0 * np.eye(3)
            np.testing.assert_allclose(twirl(CLIFFORD_1Q_ROTATIONS, error), depolarizing,
                                       rtol=0, atol=1e-12)
            # over the six generators alone it is not, which is why
            # benchmarking draws from the group
            assert np.abs(twirl(CLIFFORD_1Q_ROTATIONS[:6], error) - depolarizing).max() > 1e-2

    def test_interleaved_means_follow_the_exact_curve(self):
        # one step is "Clifford C, then E", with E = D_c T_impl D_t T_ideal^T
        # the error against the intended step. The intended product cancels
        # against the recovery, so the expected [Z, Z] survival at length m
        # is that of twirl(E)^m then D_c: A p^m + B with p = twirl(E)[Z, Z],
        # A = 1 - eps_c and B = 0 (the input Z is traceless).
        eps_c, eps_t = 0.004, 0.002
        axis = (SX + SZ) / np.sqrt(2.0)
        u = named_gate("X") @ unitary_exp(axis, 0.15)  # a 0.3 rad over-rotation
        m_values = (1, 2, 4, 8, 16, 32)
        run = rb_run(target=u, target_ideal="X", eps_clifford=eps_c, eps_target=eps_t,
                     m_values=m_values, n_sequences=200, seed=7)
        error = (DepolarizingChannel(eps_c).matrix @ UnitaryChannel(u).matrix
                 @ DepolarizingChannel(eps_t).matrix @ UnitaryChannel(named_gate("X")).matrix.T)
        for record, p in ((run.reference, 1.0 - eps_c),
                          (run.interleaved, twirl(CLIFFORD_1Q_GROUP_PTM, error)[3, 3])):
            exact = (1.0 - eps_c) * p ** np.array(m_values)
            gap = np.abs(np.array(record.mean_fidelity) - exact)
            assert (gap <= 4.0 * np.array(record.stderr) + 1e-12).all()
        # the coherent error is resolved: the interleaved curve is not the
        # reference one
        assert run.interleaved.mean_fidelity[-1] < run.reference.mean_fidelity[-1] - 0.05


def _ssr(m, y, fit):
    a, p, b = fit
    return float(np.sum((np.asarray(y) - (a * p ** np.asarray(m, dtype=float) + b)) ** 2))


@pytest.fixture(scope="module")
def rb_records():
    """Reference and interleaved records of 110 characterize-1q benchmark
    specs (seed 11): each spec's gate over-rotated about x by its amplitude
    error, with its noise strengths, m values and RB seed, at 4 sequences."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    records = []
    for spec in workloads.build("characterize-1q", 11).specs[:110]:
        name = spec.problem.target_name
        u = named_gate(name) @ unitary_exp(SX, np.pi * spec.amplitude_error / 2)
        run = rb_run(target=u, target_ideal=name, eps_clifford=spec.eps_clifford,
                     eps_target=spec.eps_target, m_values=spec.m_values,
                     n_sequences=4, seed=spec.rb_seed)
        records += [run.reference, run.interleaved]
    return records


class TestFitDecay:
    def test_constant_data_short_circuit(self):
        fit, err, ok = fit_decay([2, 4, 8], [1.0, 1.0, 1.0])
        assert ok and fit == (0.0, 1.0, 1.0)
        # a fall under FLAT_SPAN is no decay a fit can resolve
        m = np.array([2, 4, 8, 16])
        fit, err, ok = fit_decay(m, 1.0 - 0.9 * FLAT_SPAN * m / 16)
        assert ok and fit[:2] == (0.0, 1.0) and err == (0.0, 0.0, 0.0)
        # a flat curve on either side of 1
        fit, err, ok = fit_decay(m, 1.0 + 0.4 * FLAT_SPAN * np.array([1, -1, 1, -1]))
        assert ok and fit[:2] == (0.0, 1.0)

    @pytest.mark.parametrize("y", [
        [2.5e-7, 6.25e-12, 3.9e-21, 1.5e-39],  # decayed before the first m
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, 0.5],
        [1.0 - 1.5 * FLAT_SPAN] * 4,  # flat, but below 1 by more than FLAT_SPAN
    ])
    def test_flat_data_away_from_1_do_not_converge(self, y):
        assert fit_decay([2, 4, 8, 16], y) == (None, None, False)

    def test_exact_exponential_recovery(self):
        m = np.array([2, 4, 8, 16, 32, 64])
        y = 0.7 * 0.97 ** m + 0.25
        fit, err, ok = fit_decay(m, y)
        assert ok
        assert fit[0] == pytest.approx(0.7, abs=1e-6)
        assert fit[1] == pytest.approx(0.97, abs=1e-8)
        assert fit[2] == pytest.approx(0.25, abs=1e-6)
        assert all(math.isfinite(e) and e < 1e-9 for e in err)

    @pytest.mark.parametrize("a,p,b", [(1.0, 0.999, 0.0), (-0.4, 0.9, 0.8), (0.5, 0.3, 0.1)])
    def test_exact_data_converge_with_finite_errors(self, a, p, b):
        m = np.array([1, 2, 4, 8, 16, 32, 64])
        fit, err, ok = fit_decay(m, a * p ** m + b)
        assert ok
        np.testing.assert_allclose(fit, (a, p, b), rtol=0, atol=1e-7)
        assert all(math.isfinite(e) and e < 1e-7 for e in err)

    def test_three_points_fit_exactly_without_errors(self):
        fit, err, ok = fit_decay([2, 4, 8], [0.9, 0.8, 0.65])
        assert ok and err is None
        assert _ssr([2, 4, 8], [0.9, 0.8, 0.65], fit) < 1e-24

    @pytest.mark.parametrize("m", [[2, 4], [2, 2, 4, 4]])
    def test_too_few_distinct_lengths(self, m):
        assert fit_decay(m, np.linspace(0.9, 0.5, len(m))) == (None, None, False)

    @pytest.mark.parametrize("y", [
        [0.5384, 0.5736, 0.6344, 0.7176, 0.7304, 0.1416],  # concave: rises, then falls
        [0.22, 0.24, 0.28, 0.36, 0.52, 0.84],  # rises along a line
    ])
    def test_data_that_do_not_decay_do_not_converge(self, y):
        assert fit_decay([2, 4, 8, 16, 32, 64], y) == (None, None, False)

    def test_fall_steepening_with_m_is_fitted_at_the_slowest_rate(self):
        # what a coherent error gives: a monotone fall that no decay in
        # (0, 1) fits better than the slowest one the search takes
        m = np.array([2, 4, 8, 16, 32, 64])
        fit, err, ok = fit_decay(m, 0.9 - 1e-4 * m ** 2)
        assert ok and all(math.isfinite(e) for e in err)
        assert fit[1] == pytest.approx(math.exp(-SLOWEST_RATE / 64), rel=1e-15)

    def test_against_curve_fit_on_rb_records(self, rb_records):
        from scipy.optimize import curve_fit  # the reference, not a dependency

        compared = 0
        for record in rb_records:
            m, y = np.array(record.m_values, dtype=float), np.array(record.mean_fidelity)
            fit, err, ok = fit_decay(m, y)
            if record.variant == "reference":
                # the closed form l^(m + 1), fitted by (l, l, 0) exactly, and
                # by fit_decay to rounding
                keep = y[0] ** (1.0 / (m[0] + 1.0))
                assert record.fit == (record.fit[1], record.fit[1], 0.0)
                assert record.fit[1] == pytest.approx(keep, rel=1e-14)
                assert record.fit_stderr == (0.0, 0.0, 0.0) and record.converged
                assert ok and fit[1] == pytest.approx(keep, rel=1e-12)
            else:
                assert (fit, err, ok) == (record.fit, record.fit_stderr, record.converged)
            if not ok:
                # the best decay is at p -> 1 and the data rise somewhere:
                # not a decay (A diverges), where curve_fit stops anywhere
                assert fit is None and np.any(np.diff(y) > 0)
                continue
            assert all(math.isfinite(e) for e in err)
            if fit[1] == pytest.approx(math.exp(-SLOWEST_RATE / m.max()), rel=1e-15):
                # fitted at the slowest rate: curve_fit stops anywhere on the
                # flat floor of the SSR towards p = 1, so p is not compared
                assert np.all(np.diff(y) <= 0)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "covariance could not be estimated"
                ref, ref_cov = curve_fit(lambda mm, a, p, b: a * p ** mm + b, m, y,
                                         p0=(0.5, 0.99, 0.5), xtol=1e-12, ftol=1e-12,
                                         maxfev=20000)
            ssr, ref_ssr = _ssr(m, y, fit), _ssr(m, y, ref)
            assert ssr <= ref_ssr * (1 + 1e-9) + 1e-28
            assert abs(fit[1] - ref[1]) <= 1e-5
            ref_err = np.sqrt(np.diag(ref_cov))
            # sigma scales with sqrt(SSR): compared where curve_fit reached
            # the same minimum
            if np.all(np.isfinite(ref_err)) and ref_ssr <= ssr * (1 + 1e-9):
                np.testing.assert_allclose(err, ref_err, rtol=1e-3)
            compared += 1
        assert compared >= 200


class TestRb:
    def test_noiseless_is_flat(self):
        run = rb_run(m_values=(2, 4, 8), n_sequences=5, seed=1)
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in run.reference.mean_fidelity)
        assert run.reference.fit == (1.0, 1.0, 0.0)
        assert run.interleaved is None

    @pytest.mark.parametrize("eps", [0.01, 0.02])
    def test_depolarizing_decay(self, eps):
        run = rb_run(eps_clifford=eps, m_values=(2, 4, 8, 16, 32), n_sequences=4, seed=2)
        a, p, b = run.reference.fit
        sigma_p = run.reference.fit_stderr[1]
        assert abs(p - (1.0 - eps)) <= 2 * sigma_p + 1e-9

    def test_decay_monotone_in_noise(self):
        ps = []
        for eps in (0.005, 0.01, 0.02):
            run = rb_run(eps_clifford=eps, m_values=(2, 4, 8, 16), n_sequences=3, seed=3)
            ps.append(run.reference.fit[1])
        assert ps[0] > ps[1] > ps[2]
        assert all(p < 1.0 for p in ps)

    def test_noisy_target_over_ideal_cliffords(self):
        eps = 0.02
        run = rb_run(target="X", eps_target=eps,
                     m_values=(2, 4, 8, 16, 32), n_sequences=4, seed=4)
        f = rb_gate_fidelity(run.reference, run.interleaved, n=1)
        assert f == pytest.approx(1.0 - eps / 2, abs=1e-6)

    def test_synthesized_target_interleaved(self):
        seq = tables.single_qubit_sequence("T")
        run = rb_run(target=seq, target_ideal="T",
                     m_values=(2, 4, 8, 16), n_sequences=8, seed=5)
        f = rb_gate_fidelity(run.reference, run.interleaved, n=1)
        assert f >= 0.999

    def test_matches_density_matrix_simulation(self):
        # a miscalibrated, non-Clifford loop-sequence target
        seq = LoopSequence(tuple(
            dataclasses.replace(seg, omega_drive=tuple(1.05 * w for w in seg.omega_drive))
            for seg in tables.single_qubit_sequence("T")
        ))
        impl = sequence_propagator(seq)
        eps_c, eps_t, m_values, n_seq, seed = 0.01, 0.02, (1, 3, 8), 5, 6
        run = rb_run(target=seq, target_ideal="T", eps_clifford=eps_c, eps_target=eps_t,
                     m_values=m_values, n_sequences=n_seq, seed=seed)
        for record, interleave in ((run.reference, False), (run.interleaved, True)):
            means, errs = density_matrix_rb(impl, named_gate("T"), eps_c, eps_t,
                                            m_values, n_seq, seed, interleave)
            np.testing.assert_allclose(record.mean_fidelity, means, rtol=0, atol=1e-12)
            np.testing.assert_allclose(record.stderr, errs, rtol=0, atol=1e-12)
        # the miscalibrated target is visibly worse than the ideal gate
        assert run.interleaved.mean_fidelity[-1] < run.reference.mean_fidelity[-1] - 0.01

    @pytest.fixture
    def rng_calls(self, monkeypatch):
        """The arguments of every `np.random.default_rng` call."""
        calls, default_rng = [], np.random.default_rng

        def spy(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy)
        return calls

    def test_one_generator_per_variant_and_length(self, rng_calls):
        # one generator per (seed, interleaved, m), not one per sequence:
        # seeding per sequence cost most of an rb_run; the reference curve
        # is closed form and draws nothing
        m_values = (2, 4, 8, 16)
        rb_run(target="X", m_values=m_values, n_sequences=10, seed=3)
        assert len(rng_calls) == len(m_values)
        assert rng_calls == [([3, 1, i],) for i in range(len(m_values))]
        rb_run(eps_clifford=0.01, m_values=m_values, n_sequences=10, seed=3)
        assert len(rng_calls) == len(m_values)

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.013, 0.2, 1.0])
    def test_reference_is_the_closed_form(self, eps):
        # depolarizing noise commutes with every unitary's transfer matrix,
        # so each reference sequence survives with (1 - eps)^(m + 1)
        m_values = (1, 3, 5, 7, 8, 64)
        for target in (None, "T"):
            record = rb_run(target=target, eps_clifford=eps, m_values=m_values,
                            n_sequences=6, seed=9).reference
            assert record.mean_fidelity == tuple((1 - eps) ** (m + 1) for m in m_values)
            assert record.stderr == (0.0,) * len(m_values)
            # A p^m + B with A = p = 1 - eps and B = 0; at eps = 1 no decay
            if eps < 1.0:
                assert record.fit == (1 - eps, 1 - eps, 0.0) and record.converged
                assert record.fit_stderr == (0.0, 0.0, 0.0)
            else:
                assert (record.fit, record.fit_stderr, record.converged) == (None, None, False)

    def test_reference_fit_is_not_searched(self, monkeypatch):
        from hologate import characterization

        fitted = []
        fit = characterization.fit_decay
        monkeypatch.setattr(characterization, "fit_decay",
                            lambda m, y: fitted.append(y) or fit(m, y))
        rb_run(eps_clifford=0.01, m_values=(2, 4, 8), n_sequences=3, seed=1)
        assert fitted == []
        run = rb_run(target="T", eps_clifford=0.01, m_values=(2, 4, 8), n_sequences=3, seed=1)
        assert fitted == [list(run.interleaved.mean_fidelity)]  # the interleaved curve alone

    @pytest.mark.parametrize("case", ["miscalibrated-loops", "random-su2", "no-ideal",
                                      "odd-m", "one-sequence"])
    def test_matches_the_full_transfer_chain(self, case, rng):
        # the factored survival against every sequence chained in 4x4
        # transfer matrices, noise included
        seq = LoopSequence(tuple(
            dataclasses.replace(seg, omega_drive=tuple(0.97 * w for w in seg.omega_drive))
            for seg in tables.single_qubit_sequence("T")
        ))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        su2 = unitary_exp(h + h.conj().T, 0.7)
        su2 = su2 / np.sqrt(np.linalg.det(su2))
        target, ideal = {"miscalibrated-loops": (seq, "T"), "random-su2": (su2, "H"),
                         "no-ideal": (su2, None), "odd-m": (seq, "T"),
                         "one-sequence": ("X", "Y")}[case]
        m_values = {"odd-m": (1, 3, 5, 7, 9, 33)}.get(case, (1, 2, 4, 8, 16))
        n_seq = 1 if case == "one-sequence" else 9
        eps_c, eps_t, seed = 0.006, 0.011, 17
        run = rb_run(target=target, target_ideal=ideal, eps_clifford=eps_c,
                     eps_target=eps_t, m_values=m_values, n_sequences=n_seq, seed=seed)
        impl = sequence_propagator(target) if isinstance(target, LoopSequence) else (
            named_gate(target) if isinstance(target, str) else target)
        intended = impl if ideal is None else named_gate(ideal)
        for record, interleave in ((run.reference, False), (run.interleaved, True)):
            means, errs = rb_transfer_chain(impl, intended, eps_c, eps_t, m_values, n_seq,
                                            seed, interleave)
            np.testing.assert_allclose(record.mean_fidelity, means, rtol=0, atol=1e-13)
            np.testing.assert_allclose(record.stderr, errs, rtol=0, atol=1e-13)
        if n_seq > 1 and ideal is not None:  # the sequences see the coherent error
            assert max(errs) > 1e-4

    def test_refuses_a_run_above_the_cap_before_drawing(self, rng_calls):
        for m_values, n_seq in (((RB_MAX_CLIFFORDS // 4 + 1,), 4),
                                ((1, RB_MAX_CLIFFORDS), 1)):
            with pytest.raises(ValidationError, match="RB_MAX_CLIFFORDS"):
                rb_run(target="X", m_values=m_values, n_sequences=n_seq)
        assert rng_calls == []

    def test_a_run_at_the_cap_is_drawn(self, monkeypatch):
        class Drawn(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Drawn  # the run passed validation; nothing is allocated

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(Drawn):
            rb_run(target="X", m_values=(RB_MAX_CLIFFORDS // 4,), n_sequences=4)

    @pytest.mark.parametrize("m, bytes_per_clifford", [(256, 225), (255, 225)])
    def test_peak_memory_per_clifford(self, m, bytes_per_clifford):
        # the peaks stated beside RB_MAX_CLIFFORDS and in the README
        n_seq = 128
        rb_run(target="T", m_values=(3,), n_sequences=2)
        tracemalloc.start()
        try:
            rb_run(target="T", eps_clifford=0.01, m_values=(m,), n_sequences=n_seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_seq * m * bytes_per_clifford

    @pytest.mark.parametrize("kwargs", [{"target_ideal": "X"}, {"eps_target": 0.2},
                                        {"eps_target": 1e-17}])
    def test_target_options_need_a_target(self, kwargs):
        # a reference-only run would drop them without a word
        with pytest.raises(ValidationError, match="needs a target"):
            rb_run(m_values=(2,), n_sequences=2, **kwargs)

    def test_csv_format(self):
        run = rb_run(m_values=(2, 4), n_sequences=2, seed=0)
        lines = run.reference.to_csv().strip().splitlines()
        assert lines[0] == "m,mean_fidelity,stderr"
        assert len(lines) == 3
        assert lines[1].startswith("2,")

    def test_validation(self):
        with pytest.raises(ValidationError):
            rb_run(m_values=(0,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(m_values=(), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(target=named_gate("CNOT"), m_values=(2,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(eps_clifford=1.5, m_values=(2,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(target="X", eps_target=float("nan"), m_values=(2,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(seed=-1, m_values=(2,), n_sequences=2)

    @pytest.mark.parametrize("u", [np.full((2, 2), np.nan), np.ones((2, 2)),
                                   np.diag([1.0, np.inf])])
    def test_rejects_a_target_that_is_not_unitary(self, u):
        with pytest.raises(ValidationError):
            rb_run(target=u, m_values=(2,), n_sequences=2)
        with pytest.raises(ValidationError):
            rb_run(target="X", target_ideal=u, m_values=(2,), n_sequences=2)

    @pytest.mark.parametrize("kwargs", [
        {"m_values": (2.7, 4)},  # would run as m = 2
        {"m_values": (True, 4)},
        {"n_sequences": True},  # would run, and record True
        {"n_sequences": 2.5},
        {"seed": 1.5},
        {"seed": True},
    ])
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(ValidationError, match="must be an integer"):
            rb_run(**({"m_values": (2,), "n_sequences": 2} | kwargs))

    def test_numpy_integer_counts(self):
        run = rb_run(m_values=np.array([2, 4]), n_sequences=np.int64(2), seed=np.int64(1))
        assert run.reference.m_values == (2, 4)
        assert type(run.reference.n_sequences) is int

    @pytest.mark.parametrize("eps", ["0.1", None, True])
    def test_depolarizing_strength_must_be_a_number(self, eps):
        with pytest.raises(ValidationError, match="finite number"):
            rb_run(eps_clifford=eps, m_values=(2,), n_sequences=2)


class TestRbGateFidelity:
    def _record(self, p):
        return RBRecord(variant="reference", m_values=(2, 4), mean_fidelity=(1.0, 0.9),
                        stderr=(0.0, 0.0), n_sequences=2, fit=(0.5, p, 0.5),
                        fit_stderr=(0.0, 0.0, 0.0), converged=True)

    def test_equal_decays(self):
        assert rb_gate_fidelity(self._record(0.97), self._record(0.97), 1) == 1.0

    def test_direct_formula(self):
        assert rb_gate_fidelity(self._record(1.0), self._record(0.99), 1) == pytest.approx(0.995)
        # general dimension factor
        assert rb_gate_fidelity(self._record(1.0), self._record(0.99), 2) == pytest.approx(
            1.0 - 0.01 * 3.0 / 4.0
        )

    def test_clamped_and_invalid(self):
        assert rb_gate_fidelity(self._record(0.5), self._record(1.0), 1) == 1.0
        with pytest.raises(ValidationError):
            rb_gate_fidelity(self._record(0.0), self._record(0.5), 1)
        bad = RBRecord(variant="reference", m_values=(2,), mean_fidelity=(1.0,),
                       stderr=(0.0,), n_sequences=1, fit=None, fit_stderr=None,
                       converged=False)
        with pytest.raises(ValidationError):
            rb_gate_fidelity(bad, self._record(0.9), 1)


def test_one_channel_algebra():
    # every channel is a transfer matrix: the library keeps no density-matrix
    # map (that is the test reference, tests/reference.py)
    import ast

    import hologate
    from hologate import characterization

    assert not hasattr(characterization, "as_channel")
    for path in Path(hologate.__file__).parent.glob("*.py"):
        defs = {node.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)}
        assert "apply" not in defs, path
    for channel in (UnitaryChannel(SX), DepolarizingChannel(0.1), ChannelSequence([SX, SZ])):
        assert type(channel) is TransferMatrix


def test_transfer_matrix_shape_validation():
    with pytest.raises(ValidationError):
        TransferMatrix(n=1, matrix=np.eye(3))


@pytest.mark.parametrize("n,matrix", [
    (1, np.full((4, 4), np.nan)), (1, np.diag([1.0, np.inf, 1.0, 1.0])),
    (0, np.eye(1)), (4, np.eye(256)), (1.0, np.eye(4)),
])
def test_transfer_matrix_must_be_finite_on_one_to_three_qubits(n, matrix):
    # every channel is a TransferMatrix, so the checks that a channel passes
    # hold for one built directly too
    with pytest.raises(ValidationError):
        TransferMatrix(n=n, matrix=matrix)


def test_depolarizing_strength_validation():
    with pytest.raises(ValidationError):
        DepolarizingChannel(1.5, 1)


@pytest.mark.parametrize("n", [0, 4, 7, -1, 1.5, True, "2"])
def test_depolarizing_qubit_count_validation(n):
    # checked before anything is built: n = 7 would be a 16384 x 16384 matrix
    with pytest.raises(ValidationError):
        DepolarizingChannel(0.1, n)
