import itertools

import numpy as np
import pytest

from fcblab import (
    CapacityError,
    ConvergenceError,
    Polynomial,
    bitstring_witness,
    enumerate_classes,
    evaluate_on_witness,
    fcb_norm,
    homogeneous_fcb_witness,
    restrict,
    spectral_l1,
    statistics,
    sup_norm_bruteforce,
    verify_bb,
)
from fcblab.sdp import build_fcb_sdp, extract_witness, solve_sdp
from fcblab.errors import ExtractionError

from conftest import all_points, maj3, random_poly


def random_degree_one(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    coeffs = {(): float(rng.standard_normal())}
    for i in range(1, n + 1):
        coeffs[(i,)] = float(rng.standard_normal())
    return Polynomial(n, coeffs)


class TestBuild:
    # Row u is row 0, so svec entry (0, j) sits at position j, scaled by sqrt(2).

    def test_single_variable_dimensions(self):
        prob = build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1)
        assert prob.dim == 4  # u, v, v_(1), v_(2)
        assert prob.variable.max() + 1 == 10 - 2  # no ties, two fixed diagonals
        idx = prob.word_index[(1,)]
        assert list(np.flatnonzero(prob.objective)) == [idx]
        assert prob.objective[idx] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_equality_count_n2_d2(self):
        prob = build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 2)
        assert prob.dim == 14
        svec_size = 14 * 15 // 2
        assert prob.variable.size == svec_size
        v_diag = prob.word_index[()] * 14  # svec entry (v, v) with v at row 1
        assert list(np.flatnonzero(prob.variable < 0)) == [0, v_diag]
        classes = enumerate_classes(2, 2)  # 9 words in 4 classes: 5 tied entries
        assert sum(len(members) for members in classes.values()) == 9
        assert len(classes) == 4
        assert prob.variable.max() + 1 == svec_size - 2 - 5
        shared = [{prob.variable[prob.word_index[w]] for w in members} for members in classes.values()]
        assert all(len(ids) == 1 for ids in shared)
        assert len(set.union(*shared)) == 4

    def test_zero_polynomial_objective(self):
        prob = build_fcb_sdp(Polynomial(2, {}), 2)
        assert not prob.objective.any()

    def test_degree_error(self):
        with pytest.raises(ValueError, match="degree"):
            build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 1)

    def test_localizer_rows_cover_short_words(self):
        prob = build_fcb_sdp(Polynomial(2, {(1,): 1.0}), 2)
        shifted, base = prob.localizers[0]
        short = [w for w in prob.words if len(w) <= 1]
        assert list(base) == [prob.word_index[w] for w in short]
        assert list(shifted) == [prob.word_index[(1,) + w] for w in short]

    def test_capacity_guard_env(self, monkeypatch):
        monkeypatch.setenv("FCBLAB_MAX_DIM", "10")
        with pytest.raises(CapacityError):
            build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 2)
        monkeypatch.setenv("FCBLAB_MAX_DIM", "14")
        build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 2)


class TestSolveAnchors:
    def test_single_variable(self):
        sol = solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1))
        assert sol.converged
        assert sol.value == pytest.approx(1.0, abs=1e-5)
        assert sol.localizer_min_eig_slack >= -1e-5

    def test_average(self):
        p = Polynomial(2, {(1,): 0.5, (2,): 0.5})
        assert fcb_norm(p, 1) == pytest.approx(1.0, abs=1e-5)

    def test_zero_polynomial_exactly_zero(self):
        sol = solve_sdp(build_fcb_sdp(Polynomial(2, {}), 2))
        assert sol.value == 0.0

    def test_degree_one_closed_form(self, rng):
        for _ in range(5):
            p = random_degree_one(rng)
            assert fcb_norm(p, 1) == pytest.approx(spectral_l1(p), abs=1e-4)

    def test_constant(self):
        for d in (0, 2):  # d = 0 has localizers with no rows
            assert fcb_norm(Polynomial(2, {(): -0.75}), d) == pytest.approx(0.75, abs=1e-4)

    def test_parity_at_degree(self):
        assert fcb_norm(Polynomial(2, {(1, 2): 1.0}), 2) == pytest.approx(1.0, abs=1e-3)

    def test_maj3_between_sup_and_l1(self):
        value = fcb_norm(maj3(), 3)
        assert value >= sup_norm_bruteforce(maj3()) - 1e-4
        assert value <= spectral_l1(maj3()) + 1e-4

    def test_convergence_error_names_every_residual(self):
        with pytest.raises(ConvergenceError, match=r"primal \S+, dual \S+\); final rho \S+$"):
            fcb_norm(Polynomial(1, {(1,): 1.0}), 1, max_iters=3)

    def test_slow_drift_instance_converges_quickly(self):
        # Instance k=6 of acceptance criterion 5.  An over-relaxed ADMM with
        # residual balancing drifted here for ~42k iterations before converging.
        p = Polynomial(
            3,
            {
                (): 0.3881081114536362,
                (1,): 1.5052471759974504,
                (2,): -0.39125599439738395,
                (1, 2): 0.6491781526259995,
                (1, 3): 3.0494975205195027,
            },
        )
        sol = solve_sdp(build_fcb_sdp(p, 2))
        assert sol.converged
        assert sol.iterations <= 10_000
        assert sup_norm_bruteforce(p) - 1e-4 <= sol.value <= spectral_l1(p) + 1e-4

    def test_small_scale_converges_quickly(self):
        # Polynomial 0 of the benchmark's n=3 restriction panel.  Scaling it
        # by 0.01 puts the early residuals orders of magnitude out of balance;
        # penalty steps of a factor of 2 per 100 iterations took 1,200
        # iterations here against 275 at scale 1.
        p = Polynomial(
            3,
            {
                (): 0.5709471049138739,
                (1,): -0.19791667840165786,
                (2,): -0.5566886616339805,
                (3,): 0.3510990896085739,
                (1, 3): -0.40354340659501814,
            },
        )
        small = Polynomial(3, {s: 0.01 * c for s, c in p.coeffs.items()})
        sol = solve_sdp(build_fcb_sdp(small, 2))
        assert sol.converged
        assert sol.iterations <= 300
        assert sol.value / 0.01 == pytest.approx(fcb_norm(p, 2), abs=1e-5)


class TestProperties:
    def test_monotone_in_d(self, rng):
        for _ in range(3):
            p = random_poly(rng, 2, 1, 3)
            assert fcb_norm(p, 2) <= fcb_norm(p, 1) + 1e-4

    def test_restriction_does_not_increase(self, rng):
        for _ in range(2):
            p = random_poly(rng, 3, 2, 5)
            base = fcb_norm(p, 2)
            for i in (1, 2, 3):
                for y in (1, -1):
                    assert fcb_norm(restrict(p, i, y), 2) <= base + 1e-4

    def test_sandwich(self, rng):
        for _ in range(4):
            p = random_poly(rng, 2, 2, 4)
            v = fcb_norm(p, 2)
            assert sup_norm_bruteforce(p) - 1e-4 <= v <= spectral_l1(p) + 1e-4

    def test_witness_dominance(self, rng):
        p = maj3()
        v = fcb_norm(p, 3)
        for x in all_points(3):
            w = bitstring_witness(x, 3)
            assert evaluate_on_witness(p, w) <= v + 1e-4

    def test_certificate_consistency(self, rng):
        # homogeneous: fcb >= Var/sqrt(MaxInf)
        p = Polynomial(3, {(1, 2): 0.6, (2, 3): 0.48, (1, 3): 0.64})
        st = statistics(p)
        cert = homogeneous_fcb_witness(p)
        v = fcb_norm(p, 2)
        assert v >= st.variance / np.sqrt(st.max_influence) - 1e-4
        assert evaluate_on_witness(p, cert.witness) <= v + 1e-4


class TestExtractWitness:
    def test_rank_one_case(self):
        prob = build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1)
        sol = solve_sdp(prob)
        w = extract_witness(sol, prob)
        val = float(w.u @ w.A[0] @ w.v)
        assert val == pytest.approx(1.0, abs=1e-4)
        assert verify_bb(w, 1e-6)["pass"]

    def test_zero_polynomial(self):
        prob = build_fcb_sdp(Polynomial(1, {}), 1)
        sol = solve_sdp(prob)
        w = extract_witness(sol, prob)
        assert evaluate_on_witness(Polynomial(1, {}), w) == 0.0

    def test_parity_end_to_end(self):
        p = Polynomial(2, {(1, 2): 1.0})
        prob = build_fcb_sdp(p, 2)
        sol = solve_sdp(prob)
        w = extract_witness(sol, prob)
        assert verify_bb(w, 1e-6)["pass"]
        assert evaluate_on_witness(p, w) == pytest.approx(sol.value, abs=1e-4)

    def test_rank_deficient_optima_extract(self):
        # Criterion-5-style d=2 instances; with eigen-directions below the
        # solve tolerance kept, instances 11 and 13 were refused.
        rng = np.random.default_rng(2024)
        for k in range(20):
            p = random_poly(rng, 3 if k % 2 == 0 else 4, 2, 5)
            prob = build_fcb_sdp(p, 2)
            sol = solve_sdp(prob)
            w = extract_witness(sol, prob)
            assert verify_bb(w, 1e-6)["pass"], k
            assert evaluate_on_witness(p, w) == pytest.approx(sol.value, abs=1e-4), k

    def test_refuses_unconverged(self):
        prob = build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1)
        sol = solve_sdp(prob, max_iters=3)
        assert not sol.converged
        with pytest.raises(ExtractionError):
            extract_witness(sol, prob)


class TestCrossCheck:
    def test_against_cvxpy(self, rng):
        cp = pytest.importorskip("cvxpy")

        def reference(p, d):
            n = p.n
            words = []
            for length in range(d + 1):
                words.extend(itertools.product(range(1, n + 2), repeat=length))
            idx = {w: 1 + k for k, w in enumerate(words)}
            dim = 1 + len(words)
            m = cp.Variable((dim, dim), symmetric=True)
            from fcblab import canonical_word, word_class

            cons = [m >> 0, m[0, 0] == 1, m[idx[()], idx[()]] == 1]
            classes = {}
            for w in itertools.product(range(1, n + 2), repeat=d):
                classes.setdefault(word_class(w, n), []).append(w)
            for members in classes.values():
                for w in members[1:]:
                    cons.append(m[0, idx[w]] == m[0, idx[members[0]]])
            short = [w for w in words if len(w) <= d - 1]
            base = [idx[w] for w in short]
            for i in range(1, n + 2):
                shifted = [idx[(i,) + w] for w in short]
                cons.append(m[np.ix_(base, base)] - m[np.ix_(shifted, shifted)] >> 0)
            objective = sum(c * m[0, idx[canonical_word(s, d, n)]] for s, c in p.coeffs.items())
            problem = cp.Problem(cp.Maximize(objective), cons)
            problem.solve(solver=cp.SCS, eps=1e-8, max_iters=200_000)
            return problem.value

        for _ in range(2):
            p = random_poly(rng, 2, 2, 4)
            assert fcb_norm(p, 2, tol=1e-7) == pytest.approx(reference(p, 2), abs=1e-4)
