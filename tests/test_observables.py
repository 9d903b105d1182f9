"""Tests for Pauli observables and expectation values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Parameter, QCircuit
from repro.algorithms import hardware_efficient_ansatz
from repro.circuit import Measurement
from repro.exceptions import SimulationError, StateError
from repro.gates import CNOT, Hadamard, RotationX, RotationY
from repro.simulation.observables import (
    PauliSum,
    expectation,
    pauli_matrix,
    variance,
)
from repro.simulation.state import basis_state, random_state


class TestPauliMatrix:
    def test_single_letters(self):
        np.testing.assert_array_equal(pauli_matrix("i"), np.eye(2))
        np.testing.assert_array_equal(
            pauli_matrix("x"), [[0, 1], [1, 0]]
        )
        np.testing.assert_array_equal(
            pauli_matrix("z"), np.diag([1, -1])
        )

    def test_kron_order(self):
        # first letter acts on q0 (most significant)
        zx = pauli_matrix("zx")
        np.testing.assert_array_equal(
            zx, np.kron(np.diag([1, -1]), [[0, 1], [1, 0]])
        )

    def test_case_insensitive(self):
        np.testing.assert_array_equal(
            pauli_matrix("XZ"), pauli_matrix("xz")
        )

    def test_rejects_bad_letters(self):
        with pytest.raises(StateError):
            pauli_matrix("a")
        with pytest.raises(StateError):
            pauli_matrix("")


class TestExpectation:
    def test_z_on_basis_states(self):
        assert expectation([1, 0], "z") == pytest.approx(1.0)
        assert expectation([0, 1], "z") == pytest.approx(-1.0)

    def test_x_on_plus(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert expectation(plus, "x") == pytest.approx(1.0)
        assert expectation(plus, "z") == pytest.approx(0.0)

    def test_y_on_plus_i(self):
        plus_i = np.array([1, 1j]) / np.sqrt(2)
        assert expectation(plus_i, "y") == pytest.approx(1.0)

    def test_bell_correlations(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert expectation(bell, "zz") == pytest.approx(1.0)
        assert expectation(bell, "xx") == pytest.approx(1.0)
        assert expectation(bell, "yy") == pytest.approx(-1.0)
        assert expectation(bell, "zi") == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(StateError):
            expectation(basis_state("00"), "z")

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        state = random_state(n, rng=rng)
        letters = "".join(rng.choice(list("ixyz"), size=n))
        dense = np.real(
            np.vdot(state, pauli_matrix(letters) @ state)
        )
        assert expectation(state, letters) == pytest.approx(
            dense, abs=1e-10
        )

    def test_variance(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert variance(plus, "z") == pytest.approx(1.0)
        assert variance(plus, "x") == pytest.approx(0.0)


class TestPauliSum:
    def test_expectation_sums_terms(self):
        h = PauliSum([(0.5, "zz"), (-1.0, "xi")])
        assert h.expectation(basis_state("00")) == pytest.approx(0.5)

    def test_matrix(self):
        h = PauliSum([(2.0, "z"), (1.0, "x")])
        np.testing.assert_allclose(
            h.matrix(), [[2, 1], [1, -2]], atol=1e-15
        )

    def test_matches_dense_eigenvalue(self):
        """TFIM-style 3-qubit Hamiltonian: expectation bounded by the
        spectrum and exact against the dense operator."""
        terms = [(-1.0, "zzi"), (-1.0, "izz"), (-0.5, "xii"),
                 (-0.5, "ixi"), (-0.5, "iix")]
        h = PauliSum(terms)
        state = random_state(3, rng=0)
        dense = np.real(np.vdot(state, h.matrix() @ state))
        assert h.expectation(state) == pytest.approx(dense, abs=1e-10)
        eigs = np.linalg.eigvalsh(h.matrix())
        assert eigs[0] - 1e-9 <= h.expectation(state) <= eigs[-1] + 1e-9

    def test_properties(self):
        h = PauliSum([(1.0, "xy")])
        assert h.nbQubits == 2
        assert h.terms == [(1.0, "xy")]
        assert "PauliSum" in repr(h)

    def test_validation(self):
        with pytest.raises(StateError):
            PauliSum([])
        with pytest.raises(StateError):
            PauliSum([(1.0, "x"), (1.0, "xx")])
        with pytest.raises(StateError):
            PauliSum([(1.0, "w")])


# -- the X/Z-mask evaluator against dense operators ---------------------------


def _random_terms(rng, n, nb_terms):
    """Random IXYZ strings; the first one always carries an odd number
    of Y letters so a sign slip on ``i^ny`` cannot hide."""
    terms = []
    for k in range(nb_terms):
        letters = list(rng.choice(list("ixyz"), size=n))
        if k == 0:
            ys = [q for q, c in enumerate(letters) if c == "y"]
            if len(ys) % 2 == 0:
                q = int(rng.integers(n))
                letters[q] = "i" if letters[q] == "y" else "y"
                if letters.count("y") % 2 == 0:
                    letters[q] = "y"
        terms.append((float(rng.normal()), "".join(letters)))
    return terms


def _dense_expectations(terms, states):
    op = sum(c * pauli_matrix(p) for c, p in terms)
    s = np.asarray(states, dtype=np.complex128)
    return np.einsum("pi,ij,pj->p", s.conj(), op, s).real


def _random_batch(rng, n, rows, dtype=np.complex128):
    s = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    return s.astype(dtype)


class TestPauliEvaluator:
    """Every entry point agrees with ``pauli_matrix`` up to 10 qubits,
    above the width where a dense operator used to be cached."""

    @given(st.integers(0, 10**6), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_paulisum_matches_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        terms = _random_terms(rng, n, int(rng.integers(1, 5)))
        assert terms[0][1].count("y") % 2 == 1
        h = PauliSum(terms)
        states = _random_batch(rng, n, 3)
        ref = _dense_expectations(terms, states)
        np.testing.assert_allclose(
            h.expectations(states), ref, rtol=0, atol=1e-10
        )
        assert h.expectation(states[1]) == pytest.approx(ref[1], abs=1e-10)
        c, p = terms[0]
        single = _dense_expectations([(1.0, p)], states[:1])[0]
        assert expectation(states[0], p) == pytest.approx(single, abs=1e-10)

    @given(st.integers(0, 10**6), st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_complex64_states(self, seed, n):
        rng = np.random.default_rng(seed)
        terms = _random_terms(rng, n, 3)
        states = _random_batch(rng, n, 2, dtype=np.complex64)
        ref = _dense_expectations(terms, states)
        h = PauliSum(terms)
        np.testing.assert_allclose(
            h.expectations(states), ref, rtol=0, atol=1e-5
        )
        assert h.expectation(states[0]) == pytest.approx(ref[0], abs=1e-5)
        c, p = terms[0]
        single = _dense_expectations([(1.0, p)], states[:1])[0]
        assert expectation(states[0], p) == pytest.approx(single, abs=1e-5)

    def test_every_single_qubit_letter_and_phase(self):
        """All 4^2 two-qubit strings, one by one."""
        rng = np.random.default_rng(3)
        states = _random_batch(rng, 2, 4)
        for a in "ixyz":
            for b in "ixyz":
                p = a + b
                ref = _dense_expectations([(1.0, p)], states)
                np.testing.assert_allclose(
                    PauliSum([(1.0, p)]).expectations(states), ref,
                    rtol=0, atol=1e-12,
                )

    def test_sliced_groups_and_row_blocks(self):
        """A 12-qubit group too wide for one slice of sign columns (80
        Z/Y patterns over one X mask) and a batch spanning several row
        blocks equal the sum of single-term evaluations."""
        rng = np.random.default_rng(5)
        n = 12
        terms = []
        for k in range(80):
            z = rng.integers(0, 2, size=n)
            letters = ["y" if q == 3 and z[q] else
                       "x" if q == 3 else
                       "z" if z[q] else "i" for q in range(n)]
            terms.append((float(rng.normal()), "".join(letters)))
        states = _random_batch(rng, n, 20)
        ref = [
            sum(c * expectation(row, p) for c, p in terms)
            for row in states
        ]
        np.testing.assert_allclose(
            PauliSum(terms).expectations(states), ref, rtol=0, atol=1e-10
        )

    def test_expectations_accepts_one_row_and_rejects_width(self):
        h = PauliSum([(1.0, "zx")])
        state = random_state(2, rng=1)
        assert h.expectations(state).shape == (1,)
        with pytest.raises(StateError):
            h.expectations(np.ones((2, 8)))
        with pytest.raises(StateError):
            h.expectation(np.ones(8))

    def test_sweep_result_matches_dense(self):
        n = 9
        ansatz = hardware_efficient_ansatz(n, 1)
        rng = np.random.default_rng(2)
        matrix = rng.uniform(-np.pi, np.pi, size=(4, len(ansatz.parameters)))
        result = ansatz.sweep(matrix)
        terms = _random_terms(rng, n, 3)
        ref = _dense_expectations(terms, result.states)
        np.testing.assert_allclose(
            result.expectation(PauliSum(terms)), ref, rtol=0, atol=1e-10
        )
        p = terms[0][1]
        np.testing.assert_allclose(
            result.expectation(p.upper()),
            _dense_expectations([(1.0, p)], result.states),
            rtol=0, atol=1e-10,
        )
        # the dense-matrix form keeps working
        np.testing.assert_allclose(
            result.expectation(pauli_matrix(p)),
            _dense_expectations([(1.0, p)], result.states),
            rtol=0, atol=1e-10,
        )
        with pytest.raises(SimulationError):
            result.expectation("z" * (n + 1))
        with pytest.raises(SimulationError):
            result.expectation(PauliSum([(1.0, "z")]))

    def test_sweep_result_complex64(self):
        theta = Parameter("theta")
        c = QCircuit(3)
        c.push_back(Hadamard(0))
        c.push_back(RotationY(1, theta))
        c.push_back(CNOT(0, 2))
        result = c.sweep(np.linspace(0, np.pi, 5),
                         options={"dtype": np.complex64})
        assert result.states.dtype == np.complex64
        for p in ("yzx", "zzi", "xyy"):
            np.testing.assert_allclose(
                result.expectation(p),
                _dense_expectations([(1.0, p)], result.states),
                rtol=0, atol=1e-5,
            )

    def test_sixteen_qubit_sweep_expectation(self):
        """A 16-qubit PauliSum over a few sweep points: the dense route
        would need a 64 GiB operator per term."""
        n = 16
        thetas = [Parameter(f"t{q}") for q in range(n)]
        c = QCircuit(n)
        for q in range(n):
            c.push_back(RotationY(q, thetas[q]))
        for q in range(n - 1):
            c.push_back(CNOT(q, q + 1))
        c.push_back(RotationX(5, thetas[0]))
        rng = np.random.default_rng(9)
        result = c.sweep(rng.uniform(-np.pi, np.pi, size=(3, n)))
        h = PauliSum(
            [(0.7, "z" * 2 + "i" * (n - 2)), (-0.3, "x" + "i" * (n - 1)),
             (1.1, "i" * 5 + "y" + "z" * 3 + "i" * (n - 10) + "y")]
        )
        got = result.expectation(h)
        assert got.shape == (3,)
        per_point = [h.expectation(row) for row in result.states]
        np.testing.assert_allclose(got, per_point, rtol=0, atol=1e-12)
        # the Y..Y term against a letter-by-letter construction
        p = h.terms[2][1]
        row = result.states[0]
        flipped = row.reshape((2,) * n)
        for q in (5, n - 1):
            flipped = np.flip(flipped, axis=q)
        idx = np.arange(1 << n)
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        # Y = i X Z: (Y psi)_i = i (-1)^bit(i ^ x) psi_(i ^ x) per Y
        sign = np.ones(1 << n)
        for q in (5, 6, 7, 8, n - 1):
            b = bits[q] ^ (1 if q in (5, n - 1) else 0)
            sign = sign * (1 - 2 * b)
        ref = np.vdot(row, (1j ** 2) * sign * flipped.reshape(-1)).real
        assert expectation(row, p) == pytest.approx(ref, abs=1e-12)

    def test_simulation_expectation_on_branches(self):
        """Mid-circuit measurement: the ensemble expectation is the
        probability-weighted branch sum, for odd-Y strings too."""
        c = QCircuit(3)
        c.push_back(Hadamard(0))
        c.push_back(RotationY(1, 0.7))
        c.push_back(CNOT(0, 2))
        c.push_back(Measurement(0))
        c.push_back(RotationX(2, 0.4))
        c.push_back(Hadamard(1))
        sim = c.simulate("000")
        assert sim.nbBranches == 2
        for p in ("zzz", "iyx", "yzi", "xyz", "iiy"):
            ref = sum(
                prob * _dense_expectations([(1.0, p)], [state])[0]
                for prob, state in zip(sim.probabilities, sim.states)
            )
            assert sim.expectation(p) == pytest.approx(ref, abs=1e-12)
        c64 = c.simulate("000", {"dtype": np.complex64})
        ref = sum(
            prob * _dense_expectations([(1.0, "iyx")], [state])[0]
            for prob, state in zip(c64.probabilities, c64.states)
        )
        assert c64.expectation("iyx") == pytest.approx(ref, abs=1e-5)
