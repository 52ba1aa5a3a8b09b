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
from hologate import propagation, single_qubit_loop_gate, tables
from hologate.propagation import _cone_loop, sequence_evolution
from hologate.synthesis import (
    _NM_OPTIONS_2Q,
    SINGLE_QUBIT_BOUNDS,
    TWO_QUBIT_BOUNDS,
    _entangler_cost,
    _pick_best,
    _run_restarts,
    _two_qubit_cost,
    minimize,
    single_qubit_sequence_from_vector,
    two_qubit_sequence_from_vector,
)

from hologate.two_loops import (
    _Arrays,
    _bracket_root,
    _loop_mismatch,
    _partner,
    _TwoLoops,
    best_loop,
)
from reference import NM_OPTIONS, closed_form_cost

TWO_PI = 2.0 * np.pi


def each(cost):
    """A cost of one vertex as a cost of a list of vertices."""
    return lambda xs: [cost(x) for x in xs]


#: Bounds within +-0.3 of the published entangler row, inside the defaults.
ENTANGLER_WINDOW = tuple((max(v - 0.3, lo), v + 0.3)
                         for v, (lo, _) in zip(tables.ENTANGLER_ROW, TWO_QUBIT_BOUNDS))


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
    """The reference SU(2)-scalar search cost against the matrix product of
    loop gates."""

    @staticmethod
    def matrix_cost(target, x):
        u = np.eye(2, dtype=complex)
        for ratio, phi in zip(x[0::2], x[1::2]):
            r = max(ratio, 1.0 + 1e-12)
            theta = np.arccos(-np.sqrt((r - 1.0) / r))
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
        cost = closed_form_cost(target, n_loops)
        for x in self.points(rng, n_loops):
            assert cost(x) == pytest.approx(self.matrix_cost(target, x), abs=1e-14)

    def test_random_unitary_target(self, rng):
        # a unitary with det != 1, so the target is not in SU(2)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        assert abs(np.linalg.det(target) - 1.0) > 1e-3
        for n_loops in (1, 2, 3):
            cost = closed_form_cost(target, n_loops)
            for x in self.points(rng, n_loops):
                assert cost(x) == pytest.approx(self.matrix_cost(target, x), abs=1e-14)

    @pytest.mark.parametrize("ratio", [1.0 + 1e-6, 1.0 + 1e-4])
    @pytest.mark.parametrize("n_loops", [1, 2, 3])
    def test_near_resonance_matches_the_propagator(self, ratio, n_loops, rng):
        # the cone cosine -sqrt((ratio - 1) / ratio) has no cancellation at
        # the lower ratio bound, where a cone angle pi - asin(1 / sqrt(ratio))
        # loses ~1e-13
        for name in ("X", "H", "T"):
            target = named_gate(name)
            cost = closed_form_cost(target, n_loops)
            for _ in range(10):
                x = np.empty(2 * n_loops)
                x[0::2] = ratio
                x[1::2] = rng.uniform(0.0, TWO_PI, n_loops)
                u, _ = sequence_evolution(single_qubit_sequence_from_vector(x))
                assert abs(cost(x) - (1.0 - unitary_fidelity(target, u))) <= 1e-14


class TestLoopAlgebraLayout:
    """One definition of each piece of single-qubit loop algebra, in
    `propagation`, with the two-loop solver loaded on first use only."""

    @staticmethod
    def trees():
        import ast
        from pathlib import Path

        import hologate

        return {p.name: ast.parse(p.read_text())
                for p in Path(hologate.__file__).parent.glob("*.py")}

    def test_import_leaves_the_solver_unloaded(self):
        import subprocess
        import sys

        script = "import sys, hologate; print('hologate.two_loops' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_solver_does_not_import_synthesis(self):
        import ast

        for node in ast.walk(self.trees()["two_loops.py"]):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not [n for n in names if "synthesis" in n.split(".")], names

    def test_one_definition_of_each_loop_helper(self):
        import ast

        defs = {}
        for name, tree in self.trees().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    defs.setdefault(node.name, []).append(name)
        assert "_loop_quaternion" not in defs
        for name in ("_cone_loop", "_compose", "_loop_pulse", "_trace_coefficients"):
            assert defs[name] == ["propagation.py"], name


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
            assert cost([x])[0] == pytest.approx(expected, rel=0, abs=1e-13)

    def test_entangler_cost(self, rng):
        cost = _entangler_cost(10.0, 1.0)
        for x in self.points(rng, 1):
            u, penalty = self.reference(x, 1.0)
            expected = correlation_singular_values(u)[1] + 10.0 * penalty
            assert cost([x])[0] == pytest.approx(expected, rel=0, abs=1e-13)


class TestSimplex:
    """The package's bounded Nelder-Mead against scipy's, bit for bit."""

    @staticmethod
    def compare(cost, x0, bounds, options):
        """`cost` maps a list of vertices to their costs; scipy gets it one
        vertex at a time."""
        from scipy.optimize import minimize as scipy_minimize

        ours = minimize(cost, x0, bounds, **options)
        ref = scipy_minimize(lambda x: cost([x])[0], x0, method="Nelder-Mead",
                             bounds=bounds, options=options)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun or math.isnan(ours.fun) and math.isnan(ref.fun)
        assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)
        return ours

    @pytest.mark.parametrize("n_loops", [1, 2, 3])
    @pytest.mark.parametrize("name", ["X", "H", "T"])
    def test_single_qubit_cost(self, name, n_loops):
        bounds = SINGLE_QUBIT_BOUNDS * n_loops
        lo, hi = np.array(bounds).T
        cost = closed_form_cost(named_gate(name), n_loops)
        for seed in range(3):
            self.compare(each(cost), np.random.default_rng(seed).uniform(lo, hi), bounds,
                         NM_OPTIONS)

    @pytest.mark.parametrize("corner", ["upper", "lower"])
    def test_start_on_a_bound(self, corner):
        # the initial simplex leaves the upper bound and is reflected back;
        # at the lower bound phi = 0 gets the absolute step
        bounds = SINGLE_QUBIT_BOUNDS * 2
        x0 = np.array(bounds)[:, 1 if corner == "upper" else 0]
        self.compare(each(closed_form_cost(named_gate("H"), 2)), x0, bounds, NM_OPTIONS)

    def test_shrink_step(self):
        bounds = SINGLE_QUBIT_BOUNDS
        x0 = np.random.default_rng(0).uniform(*np.array(bounds).T)
        res = self.compare(each(closed_form_cost(named_gate("X"), 1)), x0, bounds, NM_OPTIONS)
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
        options = NM_OPTIONS | {"maxfev": 300, "maxiter": 300}
        for seed in range(40):
            self.compare(each(plateau), np.random.default_rng(seed).uniform(lo, hi), bounds,
                         options)

    def test_nan_costs(self):
        # NaN costs sort last, as np.argsort puts them
        bounds = SINGLE_QUBIT_BOUNDS * 2
        lo, hi = np.array(bounds).T
        cost = closed_form_cost(named_gate("H"), 2)
        holed = lambda x: math.nan if x[1] > 3.0 else cost(x)
        for seed in range(10):
            self.compare(each(holed), np.random.default_rng(seed).uniform(lo, hi), bounds,
                         NM_OPTIONS)

    @pytest.mark.parametrize("max_evals", [5, 36, 37, 120])
    def test_cnot_cost(self, max_evals):
        bounds = cnot_window(0.03)
        cost = _two_qubit_cost(named_gate("CNOT"), 10.0, tables.TWO_QUBIT_TABLE_COUPLING)
        x0 = np.random.default_rng(max_evals).uniform(*np.array(bounds).T)
        options = _NM_OPTIONS_2Q | {"maxfev": max_evals, "maxiter": max_evals}
        res = self.compare(cost, x0, bounds, options)
        assert res.nfev == max_evals

    @pytest.mark.parametrize("max_evals", [3, 8, 20, 400])
    def test_entangler_cost(self, max_evals):
        bounds = ENTANGLER_WINDOW
        cost = _entangler_cost(10.0, tables.TWO_QUBIT_TABLE_COUPLING)
        x0 = np.random.default_rng(max_evals).uniform(*np.array(bounds).T)
        options = _NM_OPTIONS_2Q | {"maxfev": max_evals, "maxiter": max_evals}
        self.compare(cost, x0, bounds, options)

    @staticmethod
    def spy(cost, sizes):
        """cost, appending the size of each group it is called with to sizes."""
        def spied(xs):
            sizes.append(len(xs))
            return cost(xs)

        return spied

    @pytest.mark.parametrize("kind", ["entangler", "cnot"])
    def test_budget_ends_inside_a_shrink(self, kind):
        # a shrink's n new vertices are one group; a budget that ends inside
        # it evaluates the leading ones, and the next one moves but keeps its
        # old cost, as in scipy
        if kind == "entangler":
            bounds, seed = ENTANGLER_WINDOW, 3
            cost = _entangler_cost(10.0, tables.TWO_QUBIT_TABLE_COUPLING)
        else:
            bounds, seed = TWO_QUBIT_BOUNDS * 5, 0
            cost = _two_qubit_cost(named_gate("CNOT"), 10.0, tables.TWO_QUBIT_TABLE_COUPLING)
        n = len(bounds)
        x0 = np.random.default_rng(seed).uniform(*np.array(bounds).T)
        sizes = []
        minimize(self.spy(cost, sizes), x0, bounds, **_NM_OPTIONS_2Q | {"maxfev": 700})
        assert sizes[0] == n + 1
        first = sizes.index(n, 1)  # the first shrink
        before = sum(sizes[:first])
        for cut in (0, 1, n - 1, n):
            options = _NM_OPTIONS_2Q | {"maxfev": before + cut}
            assert self.compare(cost, x0, bounds, options).nfev == before + cut
            sizes = []
            minimize(self.spy(cost, sizes), x0, bounds, **options)
            assert len(sizes) == first + (cut > 0) and sizes[-1] == (cut or 1)

    def test_groups_of_a_cnot_search(self, monkeypatch):
        # a search-2q CNOT search: 36 evaluations of the initial simplex go
        # to the cost at once, then one per reflection, expansion or contraction
        from hologate import synthesis

        sizes, make = [], synthesis._two_qubit_cost
        monkeypatch.setattr(synthesis, "_two_qubit_cost",
                            lambda *args: self.spy(make(*args), sizes))
        synthesize(SynthesisProblem(
            target=named_gate("CNOT"), n_qubits=2, n_loops=5, restarts=1,
            bounds=cnot_window(0.03), coupling=tables.TWO_QUBIT_TABLE_COUPLING, max_evals=40))
        assert sizes == [36, 1, 1, 1, 1]


class TestStackedEvolution:
    """A group of vertices goes through one stacked evolution, in blocks of
    at most `STACK_LOOPS` loops, with the bits of one vertex at a time."""

    @staticmethod
    def vertices(rng, n_loops, k):
        lo, hi = np.array(TWO_QUBIT_BOUNDS * n_loops).T
        return [rng.uniform(lo, hi).tolist() for _ in range(k)]

    @pytest.mark.parametrize("block", [1, 7, 12, 64])
    def test_split_blocks_are_bitwise_equal(self, block, rng, monkeypatch):
        from hologate import synthesis

        cnot = _two_qubit_cost(named_gate("CNOT"), 10.0, 1.0)
        ent = _entangler_cost(10.0, 1.0)
        xs5, xs1 = self.vertices(rng, 5, 36), self.vertices(rng, 1, 50)
        whole = [np.array(c).tobytes() for c in (cnot(xs5), ent(xs1))]
        monkeypatch.setattr(synthesis, "STACK_LOOPS", block)
        assert [np.array(c).tobytes() for c in (cnot(xs5), ent(xs1))] == whole
        alone = [[cost([x])[0] for x in xs] for cost, xs in ((cnot, xs5), (ent, xs1))]
        assert [np.array(c).tobytes() for c in alone] == whole
        # the rescoring's stacked singular values are the public ones row by row
        u, _ = synthesis._two_qubit_evolution(xs1, 1.0)
        stacked = synthesis._singular_values(synthesis._correlations(u))
        assert stacked.tobytes() == np.array([correlation_singular_values(g) for g in u]).tobytes()

    def test_memory_of_a_large_group_is_bounded(self, rng, monkeypatch):
        # the initial simplex of 60 loops holds 421 x 60 = 25,260 loops; in
        # one stack it would peak near 47 MB
        import tracemalloc

        from hologate import synthesis

        n_loops = 60
        xs = self.vertices(rng, n_loops, 7 * n_loops + 1)
        cost = _two_qubit_cost(named_gate("CNOT"), 10.0, 1.0)

        def peak():
            tracemalloc.start()
            try:
                cost(xs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a block of loops peaks near 2.1 kB each; the gates and phases of
        # every vertex are kept, and copied once when the blocks are joined
        outputs = len(xs) * (16 * 16 + n_loops * 4 * 8)
        bound = synthesis.STACK_LOOPS * 2500 + 2 * outputs
        assert peak() < bound
        monkeypatch.setattr(synthesis, "STACK_LOOPS", 10 ** 9)
        assert peak() > 10 * bound


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def loop_vector(seq):
    """Reduced coordinates (w/D, phi) of a single-qubit sequence's loops."""
    return [v for seg in seq for v in (seg.omega_rot[0], seg.phase[0])]


class TestTwoLoopsExact:
    """Two-loop single-qubit problems are solved in closed form."""

    BOUNDS = SINGLE_QUBIT_BOUNDS * 2
    #: Shortest exact gate lengths, in units of 1/D.
    LENGTHS = {"X": 7.5267, "Y": 7.5267, "Z": 6.5336, "H": 5.4112, "P": 3.3448, "T": 8.0043}

    @staticmethod
    def rotations(rng):
        """Near-identity rotations, z rotations and z rotations tilted slightly."""
        for angle in (1e-9, 1e-6, 1e-3, 0.1):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            yield np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * sum(
                a * named_gate(k) for a, k in zip(axis, "XYZ"))
        for angle in rng.uniform(0.0, np.pi, 4):
            yield np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
            tilt = 1e-7 * named_gate("X")
            yield np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * (named_gate("Z") + tilt) \
                / np.sqrt(1 + 1e-14)

    @pytest.mark.parametrize("name", ["X", "Y", "Z", "H", "P", "T", "I"])
    def test_named_gates(self, name):
        target = named_gate(name)
        result = synthesize(SynthesisProblem(target=target, n_qubits=1, n_loops=2))
        assert result.converged
        assert closed_form_cost(target, 2)(loop_vector(result.sequence)) <= 1e-14
        assert result.max_abs_dynamical_phase < 1e-9
        if name in self.LENGTHS:
            assert result.gate_length == pytest.approx(self.LENGTHS[name], abs=1e-4)

    def test_random_targets(self, rng):
        targets = [random_unitary(rng) for _ in range(200)] + list(self.rotations(rng))
        for target in targets:
            result = synthesize(SynthesisProblem(target=target, n_qubits=1, n_loops=2))
            assert result.converged
            assert closed_form_cost(target, 2)(loop_vector(result.sequence)) <= 1e-14

    def exact_length_near(self, target, x):
        """Gate length of the exact pair nearest the pick x: x's first loop,
        its cone cosine polished onto the curve of exact pairs."""
        solver = _TwoLoops(target, self.BOUNDS)
        c, phi = -math.sqrt(1.0 - 1.0 / x[0]), x[1]
        for sign in (1.0, -1.0):
            q = tuple(sign * v for v in solver.q)
            h = solver._mismatch(q, 0)
            a, b = c - 1e-6, c + 1e-6
            ha, hb = h(a, phi), h(b, phi)
            if ha * hb <= 0.0:
                root = _bracket_root(lambda c: h(c, phi), a, b, ha, hb)
                pair = solver._pair(q, 0, root, phi)
                if pair is not None:
                    return TWO_PI * (2.0 - pair[0])
        raise AssertionError(f"no exact pair near {x}")

    @pytest.mark.parametrize("name", ["X", "Y", "Z", "H", "P", "T"])
    def test_no_simplex_pick_is_shorter(self, name):
        target = named_gate(name)
        exact = synthesize(SynthesisProblem(target=target, n_qubits=1, n_loops=2)).gate_length
        cost = each(closed_form_cost(target, 2))
        for seed in range(5):
            x, seq = _pick_best(_run_restarts(cost, self.BOUNDS, seed, 16, NM_OPTIONS),
                                single_qubit_sequence_from_vector)
            if unitary_fidelity(target, sequence_propagator(seq)) < 0.999:
                continue
            # a pick off the exact pairs by ~1e-8 (cost ~1e-16) may be shorter
            # by ~1e-7 for a z rotation, whose exact cone cosines are isolated;
            # the exact pair nearest it is not shorter
            assert gate_length(seq) >= exact - 1e-6
            assert self.exact_length_near(target, x) >= exact - 1e-9

    def test_bounds_are_kept(self, rng):
        found = 0
        for _ in range(40):
            target = random_unitary(rng)
            bounds = []
            for _ in range(2):
                lo = rng.uniform(1.01, 3.0)
                start = rng.uniform(-1.0, 5.0)
                bounds += [(lo, rng.uniform(lo + 0.5, 8.0)), (start, start + rng.uniform(1.0, 7.0))]
            problem = SynthesisProblem(target=target, n_qubits=1, n_loops=2, bounds=bounds)
            result = synthesize(problem)
            x = _TwoLoops(target, problem.full_bounds()).best()
            if x is None:
                assert not result.converged
                continue
            found += 1
            assert result.converged
            assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
            assert closed_form_cost(target, 2)(x) <= 1e-14
            # every converged simplex pick inside the same bounds is at least as long
            cost = closed_form_cost(target, 2)
            x_s, seq = _pick_best(_run_restarts(each(cost), bounds, 0, 4, NM_OPTIONS),
                                  single_qubit_sequence_from_vector)
            if cost(x_s) <= 1e-12:
                assert gate_length(seq) >= result.gate_length - 1e-5
        assert 5 <= found < 40

    @staticmethod
    def dense_scan(target, bounds, n=400, top=12):
        """Largest c1^2 + c2^2 over exact pairs polished from the best
        crossings of h = 0 on an n x n grid over the first loop."""
        solver = _TwoLoops(target, bounds)
        c_lo, c_hi, p_lo, p_hi = solver.boxes[0]
        cs = np.linspace(c_lo, c_hi, n)
        ps = np.linspace(p_lo, min(p_hi, p_lo + TWO_PI), n)
        best = -1.0
        for sign in (1.0, -1.0):
            q = tuple(sign * v for v in solver.q)
            h = solver._mismatch(q, 0)
            grid = _loop_mismatch(_partner(q, _cone_loop(cs, ps[:, None], _Arrays), True), _Arrays)
            j, i = np.nonzero(grid[:, :-1] * grid[:, 1:] <= 0.0)
            pairs = [solver._pair(q, 0, c, p) for c, p in zip(cs[i].tolist(), ps[j].tolist())]
            f = np.array([-1.0 if pair is None else pair[0] for pair in pairs])
            for k in np.argsort(-f)[:top]:
                phi = float(ps[j[k]])
                root = _bracket_root(lambda c: h(c, phi), float(cs[i[k]]), float(cs[i[k] + 1]),
                                     float(grid[j[k], i[k]]), float(grid[j[k], i[k] + 1]))
                pair = solver._pair(q, 0, root, phi)
                if pair is not None:
                    best = max(best, pair[0])
        return best

    def test_no_dense_scan_point_is_shorter(self, rng):
        # a dense scan polishes exact pairs near its best samples; the pick
        # must be at least as short, with default and with random bounds
        for k in range(24):
            target = random_unitary(rng)
            bounds = list(self.BOUNDS)
            if k % 2:
                for loop in range(2):
                    lo = rng.uniform(1.01, 3.0)
                    start = rng.uniform(-1.0, 5.0)
                    bounds[2 * loop: 2 * loop + 2] = [(lo, rng.uniform(lo + 0.5, 8.0)),
                                                      (start, start + rng.uniform(1.0, 7.0))]
            x = _TwoLoops(target, bounds).best()
            scan = self.dense_scan(target, bounds)
            if x is None:
                assert scan < 0.0
                continue
            assert 2.0 - 1.0 / x[0] - 1.0 / x[2] >= scan - 1e-12

    @pytest.mark.parametrize("q,bounds", [
        # the highest point inside lies just within an azimuth bound, and
        # past the bound the curve climbs higher still
        ((0.8160559460953705, 0.4633126374530916, -0.01758505536695748, -0.34508674075714796),
         ((1.000001, 1.830939), (4.425388, 10.708574), (2.026317, 7.31657), (1.580503, 4.977172))),
        # the highest point lies where the curve turns within a grid cell
        ((0.6477257096983176, 0.7390057293866558, 0.051869943986968425, 0.1778523146891724),
         ((1.000001, 7.248735), (2.535385, 8.81857), (2.116003, 7.820841), (3.469533, 9.752719))),
    ], ids=["bound", "turn"])
    def test_maximum_near_a_bound_or_a_turn(self, q, bounds):
        target = q[0] * np.eye(2) + 1j * sum(v * named_gate(k) for v, k in zip(q[1:], "XYZ"))
        x = _TwoLoops(target, bounds).best()
        assert 2.0 - 1.0 / x[0] - 1.0 / x[2] >= self.dense_scan(target, bounds, n=1000) - 1e-12

    def test_no_exact_pair_inside_the_bounds(self, monkeypatch):
        from hologate import synthesis

        monkeypatch.setattr(synthesis, "minimize", None)  # no search runs
        # loops this close to the equator rotate too little to make an X
        bounds = ((1.0001, 1.001), (0.0, TWO_PI)) * 2
        problem = SynthesisProblem(target=named_gate("X"), n_qubits=1, n_loops=2, bounds=bounds)
        assert _TwoLoops(problem.target, bounds).best() is None
        result = synthesize(problem)
        assert not result.converged
        assert result.fidelity < 0.999
        assert loop_vector(result.sequence) == [1.0001, 0.0, 1.0001, 0.0]

    def test_search_options_are_not_read(self, monkeypatch):
        from hologate import synthesis

        monkeypatch.setattr(synthesis, "minimize", None)  # no search runs
        base = synthesize(SynthesisProblem(target=named_gate("H"), n_qubits=1, n_loops=2))
        for options in (dict(seed=3), dict(restarts=1), dict(max_evals=5)):
            other = synthesize(SynthesisProblem(target=named_gate("H"), n_qubits=1, n_loops=2,
                                                **options))
            assert other.sequence == base.sequence


def random_bounds(rng):
    """One loop's bounds: a ratio window in [1.01, 8] and an azimuth window
    of 1 to 7 rad starting in [-1, 5]."""
    lo = rng.uniform(1.01, 3.0)
    start = rng.uniform(-1.0, 5.0)
    return [(lo, rng.uniform(lo + 0.5, 8.0)), (start, start + rng.uniform(1.0, 7.0))]


class TestBestLoop:
    """A single-qubit gate of one loop is the loop of highest fidelity inside
    the bounds, solved in closed form."""

    NAMES = ["I", "X", "Y", "Z", "H", "P", "T"]

    @staticmethod
    def fidelity(target, x):
        return 1.0 - closed_form_cost(target, 1)(x)

    @staticmethod
    def dense_scan(target, bounds, n=400):
        """Highest fidelity on an n x n grid over the loop's (cone cosine,
        azimuth), from the target's trace coefficients."""
        (r_lo, r_hi), (p_lo, p_hi) = bounds
        cs = np.linspace(-math.sqrt(1.0 - 1.0 / r_hi), -math.sqrt(1.0 - 1.0 / r_lo), n)
        ps = np.linspace(p_lo, min(p_hi, p_lo + TWO_PI), n)
        g = _cone_loop(cs, ps[:, None], _Arrays)
        coeffs = [complex(c) for c in propagation._trace_coefficients(target)]
        return float(np.abs(sum(c * v for c, v in zip(coeffs, g))).max() / 2.0)

    def targets(self, rng, count):
        """(target, bounds): the named gates at the default bounds, then
        random targets, every other one with random bounds."""
        for name in self.NAMES:
            yield named_gate(name), SINGLE_QUBIT_BOUNDS
        for k in range(count):
            yield random_unitary(rng), random_bounds(rng) if k % 2 else SINGLE_QUBIT_BOUNDS

    def test_no_dense_scan_point_is_better(self, rng):
        for target, bounds in self.targets(rng, 100):
            x = best_loop(target, bounds)
            assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
            assert self.fidelity(target, x) >= self.dense_scan(target, bounds) - 1e-12

    def test_no_simplex_pick_is_better(self, rng):
        for target, bounds in self.targets(rng, 24):
            x = best_loop(target, bounds)
            x_s, _ = _pick_best(_run_restarts(each(closed_form_cost(target, 1)), bounds, 0, 16,
                                              NM_OPTIONS), single_qubit_sequence_from_vector)
            assert self.fidelity(target, x) >= self.fidelity(target, x_s) - 1e-12

    @pytest.mark.parametrize("name", NAMES)
    def test_synthesized_loop(self, name):
        target = named_gate(name)
        result = synthesize(SynthesisProblem(target=target, n_qubits=1, n_loops=1))
        assert result.sequence == single_qubit_sequence_from_vector(
            best_loop(target, SINGLE_QUBIT_BOUNDS))
        assert result.fidelity == pytest.approx(
            1.0 - closed_form_cost(target, 1)(loop_vector(result.sequence)), abs=1e-14)
        assert result.max_abs_dynamical_phase < 1e-9
        assert result.converged == (name == "I")

    def test_search_options_are_not_read(self, monkeypatch):
        from hologate import synthesis

        monkeypatch.setattr(synthesis, "minimize", None)  # no search runs
        base = synthesize(SynthesisProblem(target=named_gate("T"), n_qubits=1, n_loops=1))
        for options in (dict(seed=3), dict(restarts=1), dict(max_evals=5)):
            other = synthesize(SynthesisProblem(target=named_gate("T"), n_qubits=1, n_loops=1,
                                                **options))
            assert other.sequence == base.sequence


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

    @pytest.mark.parametrize("n_loops", [3, 4])
    def test_more_than_two_single_qubit_loops_refused(self, n_loops):
        with pytest.raises(ValidationError, match="one or two loops"):
            SynthesisProblem(target=named_gate("H"), n_qubits=1, n_loops=n_loops)
        with pytest.raises(ValidationError, match="one or two loops"):
            SynthesisProblem.from_dict({"target": "H", "n_loops": n_loops})

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

    @pytest.mark.parametrize("target", [np.full((2, 2), np.nan), np.diag([1.0, np.inf])])
    def test_problem_target_must_be_finite(self, target):
        with pytest.raises(ValidationError, match="finite unitary"):
            SynthesisProblem(target=target, n_qubits=1, n_loops=2)

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
