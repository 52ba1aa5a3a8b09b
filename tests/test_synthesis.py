import math

import numpy as np
import pytest

from hologate import (
    LoopSequence,
    PulseParams,
    SynthesisProblem,
    ValidationError,
    correlation_singular_values,
    entangling_score,
    find_entangling,
    gate_length,
    named_gate,
    objective,
    sequence_propagator,
    synthesize,
    unitary_fidelity,
)
from hologate import single_qubit_loop_gate, tables
from hologate.propagation import sequence_evolution
from hologate.synthesis import (
    _NM_OPTIONS,
    _NM_OPTIONS_2Q,
    SINGLE_QUBIT_BOUNDS,
    TWO_QUBIT_BOUNDS,
    _closed_form_cost,
    _entangler_cost,
    _two_qubit_cost,
    minimize,
    single_qubit_sequence_from_vector,
    two_qubit_sequence_from_vector,
)

TWO_PI = 2.0 * np.pi


def cnot_window(pad):
    """Bounds within +-pad of the published CNOT rows, floored at zero."""
    return tuple((max(v - pad, 0.0), v + pad) for row in tables.CNOT_ROWS for v in row)


class TestObjective:
    def test_exact_target_scores_one(self):
        seq = tables.single_qubit_sequence("X")
        target = sequence_propagator(seq)
        assert objective(target, seq, penalty_weight=10.0) == pytest.approx(1.0, abs=1e-6)

    def test_published_phase_gate_loops(self):
        seq = tables.single_qubit_sequence("P")
        value = objective(named_gate("P"), seq, penalty_weight=0.0)
        assert value >= 0.999
        penalty = objective(named_gate("P"), seq, penalty_weight=0.0) - objective(
            named_gate("P"), seq, penalty_weight=1.0
        )
        assert penalty < 1e-4

    def test_fast_phase_gate_solution(self):
        seq = tables.fast_phase_sequence()
        assert objective(named_gate("P"), seq, penalty_weight=0.0) >= 0.999
        assert gate_length(seq) == pytest.approx(3.3448, rel=1e-2)

    def test_phase_shift_invariance(self):
        x = (1.6, 0.9, 1.9, 2.8)
        seq_a = single_qubit_sequence_from_vector(x)
        seq_b = single_qubit_sequence_from_vector((1.6, 0.9 + TWO_PI, 1.9, 2.8))
        t = named_gate("H")
        assert objective(t, seq_a, 10.0) == pytest.approx(objective(t, seq_b, 10.0), abs=1e-9)


class TestClosedFormCost:
    """The SU(2)-scalar search cost against the matrix product of loop gates."""

    @staticmethod
    def matrix_cost(target, x):
        u = np.eye(2, dtype=complex)
        for ratio, phi in zip(x[0::2], x[1::2]):
            theta = np.pi - np.arcsin(1.0 / np.sqrt(max(ratio, 1.0 + 1e-12)))
            u = single_qubit_loop_gate(theta, phi) @ u
        return 1.0 - unitary_fidelity(target, u)

    @staticmethod
    def points(rng, n_loops):
        lo, hi = SINGLE_QUBIT_BOUNDS[0]
        for _ in range(20):
            x = np.empty(2 * n_loops)
            x[0::2] = rng.uniform(lo, hi, n_loops)
            x[1::2] = rng.uniform(-1.0, TWO_PI + 1.0, n_loops)
            yield x
        for ratio in (lo, 1.0, 0.5):  # at the lower bound, and clamped below it
            yield np.tile([ratio, 0.8], n_loops)

    @pytest.mark.parametrize("n_loops", [1, 2, 3])
    @pytest.mark.parametrize("name", ["I", "X", "Y", "Z", "H", "P", "T"])
    def test_matches_matrix_product(self, name, n_loops, rng):
        target = named_gate(name)
        cost = _closed_form_cost(target, n_loops)
        for x in self.points(rng, n_loops):
            assert cost(x) == pytest.approx(self.matrix_cost(target, x), abs=1e-14)

    def test_random_unitary_target(self, rng):
        # a unitary with det != 1, so the target is not in SU(2)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        assert abs(np.linalg.det(target) - 1.0) > 1e-3
        for n_loops in (1, 2, 3):
            cost = _closed_form_cost(target, n_loops)
            for x in self.points(rng, n_loops):
                assert cost(x) == pytest.approx(self.matrix_cost(target, x), abs=1e-14)


class TestTwoQubitCosts:
    """The costs read straight off the parameter vector against the same costs
    built through `PulseParams` and `sequence_evolution`."""

    @staticmethod
    def reference(x, coupling):
        u, gd = sequence_evolution(two_qubit_sequence_from_vector(x, coupling))
        return u, float(np.abs(gd).sum())

    @staticmethod
    def points(rng, n_loops):
        lo, hi = np.array(TWO_QUBIT_BOUNDS * n_loops).T
        for _ in range(200):
            yield rng.uniform(lo, hi)
        yield lo
        yield hi
        for _ in range(20):  # every parameter at one of its bounds
            yield np.where(rng.integers(0, 2, lo.size) == 1, hi, lo)

    def test_cnot_cost(self, rng):
        target, coupling = named_gate("CNOT"), tables.TWO_QUBIT_TABLE_COUPLING
        cost = _two_qubit_cost(target, 10.0, coupling)
        for x in self.points(rng, 5):
            u, penalty = self.reference(x, coupling)
            expected = 1.0 - unitary_fidelity(target, u) + 10.0 * penalty
            assert cost(x) == pytest.approx(expected, rel=0, abs=1e-13)

    def test_entangler_cost(self, rng):
        cost = _entangler_cost(10.0, 1.0)
        for x in self.points(rng, 1):
            u, penalty = self.reference(x, 1.0)
            expected = correlation_singular_values(u)[1] + 10.0 * penalty
            assert cost(x) == pytest.approx(expected, rel=0, abs=1e-13)


class TestSimplex:
    """The package's bounded Nelder-Mead against scipy's, bit for bit."""

    @staticmethod
    def compare(cost, x0, bounds, options):
        from scipy.optimize import minimize as scipy_minimize

        ours = minimize(cost, x0, bounds, **options)
        ref = scipy_minimize(cost, x0, method="Nelder-Mead", bounds=bounds, options=options)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun or math.isnan(ours.fun) and math.isnan(ref.fun)
        assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)
        return ours

    @pytest.mark.parametrize("n_loops", [1, 2, 3])
    @pytest.mark.parametrize("name", ["X", "H", "T"])
    def test_single_qubit_cost(self, name, n_loops):
        bounds = SINGLE_QUBIT_BOUNDS * n_loops
        lo, hi = np.array(bounds).T
        cost = _closed_form_cost(named_gate(name), n_loops)
        for seed in range(3):
            self.compare(cost, np.random.default_rng(seed).uniform(lo, hi), bounds, _NM_OPTIONS)

    @pytest.mark.parametrize("corner", ["upper", "lower"])
    def test_start_on_a_bound(self, corner):
        # the initial simplex leaves the upper bound and is reflected back;
        # at the lower bound phi = 0 gets the absolute step
        bounds = SINGLE_QUBIT_BOUNDS * 2
        x0 = np.array(bounds)[:, 1 if corner == "upper" else 0]
        self.compare(_closed_form_cost(named_gate("H"), 2), x0, bounds, _NM_OPTIONS)

    def test_shrink_step(self):
        bounds = SINGLE_QUBIT_BOUNDS
        x0 = np.random.default_rng(0).uniform(*np.array(bounds).T)
        res = self.compare(_closed_form_cost(named_gate("X"), 1), x0, bounds, _NM_OPTIONS)
        # without a shrink an iteration spends at most two evaluations
        assert res.nfev > len(x0) + 1 + 2 * (res.nit - 1)

    @pytest.mark.parametrize("plateau", [
        lambda x: float(math.floor(4 * x[0]) + math.floor(2 * x[1])),
        lambda x: 1.0,
    ], ids=["steps", "constant"])
    def test_tied_costs(self, plateau):
        # tied vertex costs: the order among tied vertices must be np.argsort's,
        # which need not be stable, or the searches part
        bounds = SINGLE_QUBIT_BOUNDS * 2
        lo, hi = np.array(bounds).T
        options = _NM_OPTIONS | {"maxfev": 300, "maxiter": 300}
        for seed in range(40):
            self.compare(plateau, np.random.default_rng(seed).uniform(lo, hi), bounds, options)

    def test_nan_costs(self):
        # NaN costs sort last, as np.argsort puts them
        bounds = SINGLE_QUBIT_BOUNDS * 2
        lo, hi = np.array(bounds).T
        cost = _closed_form_cost(named_gate("H"), 2)
        holed = lambda x: math.nan if x[1] > 3.0 else cost(x)
        for seed in range(10):
            self.compare(holed, np.random.default_rng(seed).uniform(lo, hi), bounds, _NM_OPTIONS)

    @pytest.mark.parametrize("max_evals", [5, 37, 120])
    def test_cnot_cost(self, max_evals):
        bounds = cnot_window(0.03)
        cost = _two_qubit_cost(named_gate("CNOT"), 10.0, tables.TWO_QUBIT_TABLE_COUPLING)
        x0 = np.random.default_rng(max_evals).uniform(*np.array(bounds).T)
        options = _NM_OPTIONS_2Q | {"maxfev": max_evals, "maxiter": max_evals}
        res = self.compare(cost, x0, bounds, options)
        assert res.nfev == max_evals

    @pytest.mark.parametrize("max_evals", [3, 20, 400])
    def test_entangler_cost(self, max_evals):
        bounds = tuple((max(v - 0.3, lo), v + 0.3)
                       for v, (lo, _) in zip(tables.ENTANGLER_ROW, TWO_QUBIT_BOUNDS))
        cost = _entangler_cost(10.0, tables.TWO_QUBIT_TABLE_COUPLING)
        x0 = np.random.default_rng(max_evals).uniform(*np.array(bounds).T)
        options = _NM_OPTIONS_2Q | {"maxfev": max_evals, "maxiter": max_evals}
        self.compare(cost, x0, bounds, options)


class TestSynthesize:
    def test_identity_single_loop(self):
        problem = SynthesisProblem(
            target=np.eye(2, dtype=complex), n_qubits=1, n_loops=1,
            seed=5, restarts=8,
        )
        result = synthesize(problem)
        # the equatorial family: drive ratio pushed to the lower bound
        assert result.fidelity >= 0.999
        assert result.converged

    @pytest.mark.parametrize("name", ["X", "P"])
    def test_two_loop_gates(self, name):
        problem = SynthesisProblem(
            target=named_gate(name), n_qubits=1, n_loops=2, seed=7, restarts=16,
        )
        result = synthesize(problem)
        assert result.fidelity >= 0.999
        assert result.converged
        assert result.max_abs_dynamical_phase < 1e-6
        assert result.gate_length == pytest.approx(
            sum(seg.duration for seg in result.sequence)
        )

    def test_deterministic_given_seed(self):
        problem = SynthesisProblem(
            target=named_gate("H"), n_qubits=1, n_loops=2, seed=3, restarts=6,
        )
        a = synthesize(problem)
        b = synthesize(problem)
        assert a.fidelity == b.fidelity
        for sa, sb in zip(a.sequence, b.sequence):
            assert sa == sb

    def test_two_qubit_deterministic_given_seed(self):
        problem = SynthesisProblem(
            target=named_gate("CNOT"), n_qubits=2, n_loops=5, seed=4, restarts=2,
            bounds=cnot_window(0.02), coupling=tables.TWO_QUBIT_TABLE_COUPLING,
            max_evals=60,
        )
        a, b = synthesize(problem), synthesize(problem)
        assert a.to_dict() == b.to_dict()

    def test_not_converged_flagged(self):
        # a single loop cannot realize the Hadamard axis/angle combination
        problem = SynthesisProblem(
            target=named_gate("H"), n_qubits=1, n_loops=1, seed=0, restarts=6,
        )
        result = synthesize(problem)
        assert not result.converged
        assert result.fidelity < 0.999

    def test_two_qubit_warm_start_cnot(self):
        problem = SynthesisProblem(
            target=named_gate("CNOT"), n_qubits=2, n_loops=5,
            seed=1, restarts=1, bounds=cnot_window(0.02),
            coupling=tables.TWO_QUBIT_TABLE_COUPLING,
            max_evals=300,
        )
        result = synthesize(problem)
        assert result.fidelity >= 0.99
        assert result.converged

    def test_problem_validation(self):
        with pytest.raises(ValidationError):
            SynthesisProblem(target=np.eye(3), n_qubits=1, n_loops=1)
        with pytest.raises(ValidationError):
            SynthesisProblem(target=2 * np.eye(2), n_qubits=1, n_loops=1)
        with pytest.raises(ValidationError):
            SynthesisProblem(target=np.eye(2), n_qubits=1, n_loops=0)
        with pytest.raises(ValidationError):
            SynthesisProblem(target=np.eye(2), n_qubits=1, n_loops=1,
                             bounds=((1.0, 0.5),))

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("restarts", 0), ("restarts", -1), ("max_evals", 0),
        ("coupling", float("inf")), ("coupling", "1"), ("penalty_weight", None),
    ])
    def test_problem_counts_validated(self, field, value):
        with pytest.raises(ValidationError):
            SynthesisProblem(target=np.eye(2), n_qubits=1, n_loops=1, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.7), ("n_loops", 1.5), ("restarts", 2.0), ("max_evals", 3.5),
        ("restarts", True), ("n_qubits", 1.0),
    ])
    def test_problem_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SynthesisProblem(**{"target": np.eye(2), "n_qubits": 1, "n_loops": 1} | {field: value})

    @pytest.mark.parametrize("n_qubits,bound,index", [
        (1, (1.0, 3.0), 0),     # ratio w/D = 1: no zero-dynamical-phase drive
        (1, (0.5, 3.0), 0),
        (2, (-0.1, 1.0), 1),    # negative drive amplitude
        (2, (0.0, 1.0), 2),     # drive frequency 0
        (2, (0.0, float("nan")), 5),
    ])
    def test_unbuildable_bounds_rejected(self, n_qubits, bound, index):
        per_loop = list(SINGLE_QUBIT_BOUNDS if n_qubits == 1 else TWO_QUBIT_BOUNDS)
        per_loop[index] = bound
        with pytest.raises(ValidationError):
            SynthesisProblem(target=np.eye(2 ** n_qubits), n_qubits=n_qubits, n_loops=1,
                             bounds=tuple(per_loop))

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"target": "P"},
        {"target": "P", "n_loops": 2.0},
        {"target": "P", "n_loops": 2, "restarts": True},
        {"target": "P", "n_loops": 2, "penalty_weight": "1"},
        {"target": "P", "n_loops": 2, "coupling": None},
        {"target": "P", "n_loops": 2, "bounds": [[1.5, 3.0]] * 3},
        {"target": "P", "n_loops": 2, "bounds": [[1.5, "3"], [0.0, 6.0]]},
        {"target": "P", "n_loops": 2, "restart": 4},
        {"target": {"real": [[1, 0], [0]], "imag": [[0, 0], [0, 0]]}, "n_loops": 1},
        {"target": {"real": [[1, 0], [0, 1]]}, "n_loops": 1},
        {"target": {"real": [[1]], "imag": [[0]]}, "n_loops": 1},
        {"target": 3, "n_loops": 1},
        {"target": "P", "n_loops": 1, "n": 10 ** 9},
    ])
    def test_problem_from_dict_strict(self, doc):
        with pytest.raises(ValidationError):
            SynthesisProblem.from_dict(doc)

    def test_problem_from_dict(self):
        problem = SynthesisProblem.from_dict(
            {"target": "P", "n_loops": 2, "seed": 7, "restarts": 4}
        )
        assert problem.n_qubits == 1
        assert problem.target_name == "P"
        explicit = SynthesisProblem.from_dict({
            "target": {"real": [[1, 0], [0, 0]], "imag": [[0, 0], [0, 1]]},
            "n_loops": 1,
        })
        np.testing.assert_allclose(explicit.target, named_gate("P"))


class TestEntanglingScore:
    def test_product_gate_rank_one(self):
        # no coupling: the loop factorizes, correlation matrix has rank 1
        p = PulseParams(n=2, omega_drive=(1.0, 2.0), omega_rot=(4.0, 4.0),
                        phase=(0.3, 1.2), detuning=(0.7, 2.1),
                        couplings={(0, 1): 0.0}, duration=TWO_PI / 4.0)
        sv = correlation_singular_values(sequence_propagator(LoopSequence((p,))))
        assert sv[1] < 1e-6          # the score itself
        assert sv[2] < 1e-6          # rank 1: separable

    def test_cnot_rank_two(self):
        sv = correlation_singular_values(named_gate("CNOT"))
        np.testing.assert_allclose(sv, [0.0, 0.0, 2 * np.sqrt(2), 2 * np.sqrt(2)],
                                   atol=1e-12)

    def test_published_entangler(self):
        p = tables.entangler_params()
        assert entangling_score(p) < 1e-2
        sv = correlation_singular_values(sequence_propagator(LoopSequence((p,))))
        assert sv[2] > 1e-2          # verifiably non-separable

    def test_requires_two_qubits(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(2.0,), phase=(0.0,),
                        detuning=(1.0,), duration=np.pi)
        with pytest.raises(ValidationError):
            entangling_score(p)


class TestFindEntangling:
    def _bounds_near_table(self, pad=0.1):
        bounds = []
        for k, v in enumerate(tables.ENTANGLER_ROW):
            lo = max(v - pad, 0.0) if k != 2 else v - pad
            bounds.append((lo, v + pad))
        return tuple(bounds)

    def test_seeded_near_published_row(self):
        result = find_entangling(
            seed=3, bounds=self._bounds_near_table(), restarts=2,
            coupling=tables.TWO_QUBIT_TABLE_COUPLING,
        )
        assert result.converged
        assert result.entangling_score < 1e-3
        assert result.fidelity is None

    def test_zero_coupling_always_rejected(self):
        result = find_entangling(
            seed=1, bounds=self._bounds_near_table(), restarts=2, coupling=0.0,
        )
        assert not result.converged

    def test_bounds_arity(self):
        with pytest.raises(ValidationError):
            find_entangling(bounds=((0.0, 1.0),) * 3)

    @pytest.mark.parametrize("index,bound", [(0, (-1.0, 1.0)), (2, (-1.0, 1.0)), (2, (0.0, 1.0))])
    def test_unbuildable_bounds_rejected_before_search(self, index, bound, monkeypatch):
        from hologate import synthesis

        monkeypatch.setattr(synthesis, "minimize", None)  # a started search raises TypeError
        bounds = list(TWO_QUBIT_BOUNDS)
        bounds[index] = bound
        with pytest.raises(ValidationError):
            find_entangling(bounds=bounds, restarts=1)

    @pytest.mark.parametrize("kwargs", [dict(coupling=float("nan")),
                                        dict(penalty_weight=-1.0), dict(penalty_weight="1")])
    def test_weights_validated(self, kwargs):
        with pytest.raises(ValidationError):
            find_entangling(restarts=1, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1), dict(restarts=0), dict(restarts=-1), dict(max_evals=0),
    ])
    def test_counts_validated(self, kwargs):
        with pytest.raises(ValidationError):
            find_entangling(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(seed=1.7), dict(restarts=2.0), dict(max_evals=3.5), dict(seed=True),
    ])
    def test_counts_must_be_integers(self, kwargs, monkeypatch):
        from hologate import synthesis

        monkeypatch.setattr(synthesis, "minimize", None)  # a started search raises TypeError
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            find_entangling(**kwargs)


class TestGateLength:
    def test_published_lengths(self):
        assert gate_length(tables.single_qubit_sequence("X")) == pytest.approx(
            7.5268, rel=1e-2
        )
        assert gate_length(tables.single_qubit_sequence("H")) == pytest.approx(
            9.2908, rel=1e-2
        )

    def test_single_loop_unit_period(self):
        p = PulseParams(n=1, omega_drive=(1.0,), omega_rot=(TWO_PI,), phase=(0.0,),
                        detuning=(1.0,), duration=1.0)
        assert gate_length(LoopSequence((p,))) == pytest.approx(1.0)


def test_two_qubit_vector_round_trip():
    x = np.array(tables.CNOT_ROWS[0])
    seq = two_qubit_sequence_from_vector(x, coupling=2.0)
    seg = seq.segments[0]
    assert seg.omega_drive == (x[0], x[1])
    assert seg.omega_rot == (x[2], x[2])
    assert seg.couplings[(0, 1)] == 2.0
    assert seg.duration == pytest.approx(TWO_PI / x[2])


def test_single_qubit_bounds_exclude_resonance():
    assert SINGLE_QUBIT_BOUNDS[0][0] > 1.0
