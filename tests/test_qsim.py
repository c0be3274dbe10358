import hashlib
import itertools

import numpy as np
import pytest

from fcblab import (
    CapacityError,
    ModelViolationError,
    QueryAlgorithm,
    check_characterization,
    extract_polynomial,
    parity_algorithm,
    qsim,
    random_algorithm,
    run,
    sdp,
)

from fcblab.fileio import save_polynomial

from conftest import all_points


def reference_run(alg, x):
    """The per-point simulation: one matrix-vector product per step and one inner product."""
    phases = np.repeat(np.array([float(v) for v in x] + [1.0]), alg.w)
    state = np.zeros(alg.dim, dtype=complex)
    state[0] = 1.0
    state = alg.unitaries[0] @ state
    for t in range(1, alg.d + 1):
        state = alg.unitaries[t] @ (phases * state)
    return np.vdot(state, alg.observable @ state).real


GOLDEN_SEED7 = {
    (): -1.0000000000000002,
    (1,): -1.1102230246251565e-16,
    (2,): 2.7755575615628914e-16,
}


class TestRandomAlgorithm:
    def test_same_seed_identical(self):
        a = random_algorithm(2, 1, 2, 42)
        b = random_algorithm(2, 1, 2, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.unitaries, b.unitaries))
        assert np.array_equal(a.observable, b.observable)

    def test_unitaries_validated(self):
        alg = random_algorithm(3, 2, 2, 0)
        dim = alg.dim
        for u in alg.unitaries:
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10

    def test_seed7_regression(self):
        p = extract_polynomial(random_algorithm(2, 1, 1, 7))
        assert p.coeffs == GOLDEN_SEED7

    @pytest.mark.parametrize(
        "n, d, w, error",
        [
            (100000, 1, 1, CapacityError),
            (10, 1, 1000, CapacityError),
            (2, -1, 1, ValueError),
            (0, 1, 1, ValueError),
            (2, 1, True, ValueError),  # once drew a 3-dimensional algorithm, as w = 1
            (2, 1, 1.5, ValueError),
            (2, 1.0, 1, ValueError),
            (2.0, 1, 1, ValueError),
        ],
    )
    def test_sizes_checked_before_drawing(self, no_unitary_draws, n, d, w, error):
        with pytest.raises(error):
            random_algorithm(n, d, w, 0)

    def test_non_integer_size_is_named(self):
        with pytest.raises(ValueError, match="w must be an integer, got True"):
            random_algorithm(2, 1, True, 0)
        with pytest.raises(ValueError, match="d must be an integer, got 1.0"):
            QueryAlgorithm(n=2, d=1.0, w=1, unitaries=(), observable=np.eye(3))

    def test_numpy_integer_sizes_are_ints(self, tmp_path):
        # n = np.int64(2) was once kept, and json could not save the extracted polynomial.
        alg = random_algorithm(np.int64(2), np.int64(1), np.int64(1), 0)
        assert all(type(size) is int for size in (alg.n, alg.d, alg.w))
        save_polynomial(extract_polynomial(alg), tmp_path / "p.json")

    def test_stored_matrices_checked_before_drawing(self, no_unitary_draws):
        # 62 matrices of dimension 1100 would hold 75,020,000 entries.
        with pytest.raises(CapacityError, match="75020000 entries"):
            random_algorithm(10, 60, 100, 0)

    def test_rejects_non_unitary(self):
        alg = random_algorithm(1, 0, 1, 0)
        bad = tuple(2.0 * u for u in alg.unitaries)
        with pytest.raises(ValueError, match="unitary"):
            QueryAlgorithm(n=1, d=0, w=1, unitaries=bad, observable=alg.observable)

    def test_rejects_bad_spectrum(self):
        alg = random_algorithm(1, 0, 1, 0)
        with pytest.raises(ValueError, match="spectrum"):
            QueryAlgorithm(
                n=1, d=0, w=1, unitaries=alg.unitaries, observable=2.0 * np.eye(2, dtype=complex)
            )


class TestRun:
    def test_d0_input_independent(self):
        alg = random_algorithm(3, 0, 2, 5)
        values = {run(alg, x) for x in all_points(3)}
        assert len(values) == 1

    def test_identity_observable(self):
        base = random_algorithm(2, 1, 1, 3)
        alg = QueryAlgorithm(
            n=2, d=1, w=1, unitaries=base.unitaries, observable=np.eye(3, dtype=complex)
        )
        for x in all_points(2):
            assert run(alg, x) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_sweep(self):
        for seed in (0, 1, 2):
            alg = random_algorithm(4, 2, 2, seed)
            for x in all_points(4):
                assert abs(run(alg, x)) <= 1.0 + 1e-9

    def test_batched_values_match_per_point_runs(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            d, w = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            alg = random_algorithm(n, d, w, int(rng.integers(0, 2**31)))
            points = list(all_points(n))
            batched = qsim._expectations(alg, np.array(points, dtype=float))
            for x, value in zip(points, batched):
                assert run(alg, x) == value == reference_run(alg, x)

    def test_non_hermitian_observable_raises(self):
        alg = random_algorithm(3, 1, 1, 2)
        object.__setattr__(alg, "observable", alg.observable + 0.5j * np.eye(alg.dim))
        with pytest.raises(ModelViolationError, match="imaginary part"):
            run(alg, (1, -1, 1))
        with pytest.raises(ModelViolationError, match="imaginary part"):
            extract_polynomial(alg)

    def test_input_validation(self):
        alg = random_algorithm(2, 1, 1, 0)
        with pytest.raises(ValueError):
            run(alg, (1,))
        with pytest.raises(ValueError):
            run(alg, (1, 0))


class TestExtractPolynomial:
    @pytest.mark.parametrize(
        "n, d, w, seed, size, digest",
        [(9, 2, 2, 1717, 256, "8095b4f184e44fa6"), (12, 3, 1, 1718, 2510, "c8408c69ba6c2cd2")],
    )
    def test_pinned_polynomial(self, n, d, w, seed, size, digest):
        # Pinned from the construction that checked every key and value in Polynomial
        p = extract_polynomial(random_algorithm(n, d, w, seed))
        assert len(p.coeffs) == size
        assert hashlib.sha256(repr(list(p.coeffs.items())).encode()).hexdigest()[:16] == digest

    def test_d0_constant(self):
        p = extract_polynomial(random_algorithm(2, 0, 1, 9))
        assert p.degree == 0

    def test_degree_bound_random(self):
        for seed in range(20):
            p = extract_polynomial(random_algorithm(2, 1, 1, seed))
            assert p.degree <= 2

    def test_state_applications_guard(self):
        # 17 unitaries at each of 2^14 points: 278,528 state applications.
        alg = random_algorithm(14, 16, 1, 0)
        with pytest.raises(CapacityError, match="278528 state applications"):
            extract_polynomial(alg)

    def test_degree_violation_names_the_subset(self, monkeypatch):
        monkeypatch.setattr(qsim, "_expectations", lambda alg, signs: np.prod(signs[:, :3], axis=1))
        message = r"coefficient 1\.000e\+00 on \(1, 2, 3\) violates the degree-2 bound"
        with pytest.raises(ModelViolationError, match=message):
            extract_polynomial(random_algorithm(4, 1, 1, 0))

    def test_identity_observable_constant_one(self):
        base = random_algorithm(2, 1, 1, 3)
        alg = QueryAlgorithm(
            n=2, d=1, w=1, unitaries=base.unitaries, observable=np.eye(3, dtype=complex)
        )
        p = extract_polynomial(alg)
        assert p.constant_term == pytest.approx(1.0, abs=1e-12)
        assert all(abs(c) <= 1e-12 for s, c in p.coeffs.items() if s)


class TestParityAlgorithm:
    def test_exact_extraction(self):
        p = extract_polynomial(parity_algorithm())
        assert set(p.coeffs) == {(1, 2)}
        assert p.coeffs[(1, 2)] == pytest.approx(1.0, abs=1e-10)

    def test_run_matches_parity(self):
        alg = parity_algorithm()
        for x in all_points(2):
            assert run(alg, x) == pytest.approx(x[0] * x[1], abs=1e-12)

    def test_characterization(self):
        report = check_characterization(parity_algorithm())
        assert report["degree_ok"]
        assert report["fcb_value"] == pytest.approx(1.0, abs=1e-3)
        assert report["fcb_ok"]


class TestCharacterization:
    def test_random_pass(self):
        for seed in (0, 4):
            report = check_characterization(random_algorithm(2, 1, 1, seed))
            assert report["degree_ok"] and report["fcb_ok"], (seed, report)
            assert report["fcb_ok"] == (report["fcb_value"] <= 1.0)

    def test_lower_end_above_1_fails(self, monkeypatch):
        monkeypatch.setattr(sdp, "fcb_norm", lambda p, d: 1.0005)
        report = check_characterization(parity_algorithm())
        assert report["fcb_value"] == 1.0005
        assert not report["fcb_ok"]
