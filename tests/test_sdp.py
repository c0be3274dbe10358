import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcblab import (
    CapacityError,
    ConvergenceError,
    Polynomial,
    bitstring_witness,
    canonical_word,
    checks,
    evaluate_on_witness,
    fcb_norm,
    homogeneous_fcb_witness,
    restrict,
    sdp,
    spectral_l1,
    statistics,
    sup_norm_bruteforce,
    verify_bb,
)
from fcblab.sdp import SdpProblem, _Anderson, build_fcb_sdp, extract_witness, fcb_interval, solve_sdp
from fcblab.errors import ExtractionError
from fcblab.fileio import load_witness, save_witness

from conftest import all_points, maj3, parity_classes, random_poly


def random_degree_one(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    coeffs = {(): float(rng.standard_normal())}
    for i in range(1, n + 1):
        coeffs[(i,)] = float(rng.standard_normal())
    return Polynomial(n, coeffs)


# Panel polynomial 0 of the benchmark's n=3 and n=4 restriction panels.
PANEL_N3 = Polynomial(
    3,
    {
        (): 0.5709471049138739,
        (1,): -0.19791667840165786,
        (2,): -0.5566886616339805,
        (3,): 0.3510990896085739,
        (1, 3): -0.40354340659501814,
    },
)
PANEL_N4 = Polynomial(
    4,
    {
        (): -1.4370300789668762,
        (1,): -2.2254419647175485,
        (1, 4): 0.3342536192741122,
        (2, 3): -0.5213360520606402,
        (3, 4): -0.2028271317180994,
    },
)
LINEAR_N3 = Polynomial(
    3, {(): -1.738266398496882, (1,): -1.3366427931811324, (2,): -1.361106708564987, (3,): -0.35161713127840977}
)

# Values of the full D x D moment program, solved to tol 1e-9 before the
# program was split into clique blocks; the cvxpy cross-check below is
# skipped wherever cvxpy is not installed, so these stand in for it.
PINNED_OPTIMA = [
    (PANEL_N3, 2, 2.0801949411530543),
    (PANEL_N3, 3, 2.0801949414348906),
    (maj3(), 3, 1.0000000000002158),
    (PANEL_N4, 2, 4.720888846732544),
    (LINEAR_N3, 1, 4.7876330315214055),
]


def reference_words(n, d):
    """The moment index of each word (index 0 is u) and the words of length <= d-1, in order."""
    words = [w for length in range(d + 1) for w in itertools.product(range(1, n + 2), repeat=length)]
    return {w: 1 + k for k, w in enumerate(words)}, [w for w in words if len(w) <= d - 1]


def reference_cliques(n, d):
    """The moment indices of each clique, listed word by word.

    The separator (u and the words of length <= d-1), then for each letter i,
    u and the words i w of length <= d; d = 0 has the one clique {u, v}.
    """
    word_index, short = reference_words(n, d)
    if not d:
        return np.array([[0, word_index[()]]])
    separator = [0] + [word_index[w] for w in short]
    return np.array([separator] + [[0] + [word_index[(i,) + w] for w in short] for i in range(1, n + 2)])


def cliques_of(prob):
    """The moment indices of each clique, read from the layout: 0..width-1 over [0] + shifted."""
    if not prob.d:
        return np.array([[0, 1]])
    return np.vstack([np.arange(prob.shifted.shape[1] + 1), np.insert(prob.shifted, 0, 0, axis=1)])


def reference_build(p, d):
    """The D x D construction of the clique program: the SdpProblem fields, in their order.

    The cliques come from reference_cliques.  The class ties group the words
    by word_class, and the objective and variable owners are D x D tables
    sliced into the clique stacks.  The localizer offsets look up the
    position of each word w in clique 0 and of each word i w in clique i, and
    the central point's diagonal is 2^{-|w|} at each word w of each clique.
    """
    n = p.n
    word_index, short = reference_words(n, d)
    words = list(word_index)
    dim = 1 + len(words)
    cliques = reference_cliques(n, d)
    blocks = (cliques[:, :, None], cliques[:, None, :])
    objective = np.zeros((dim, dim))
    for s, c in p.coeffs.items():
        w = word_index[canonical_word(s, d, n)]
        objective[0, w] = objective[w, 0] = c / 2.0
    flat = np.arange(dim * dim).reshape(dim, dim)
    owner = np.minimum(flat, flat.T)
    for members in parity_classes(n, d).values():
        tied = [word_index[w] for w in members]
        owner[0, tied] = owner[tied, 0] = word_index[members[0]]
    v = word_index[()]
    owner[0, 0] = owner[v, v] = -1
    owner = owner[blocks]
    free = owner >= 0
    variable = np.full(owner.shape, -1)
    variable[free] = np.unique(owner[free], return_inverse=True)[1]
    k = cliques.shape[1]
    column = [{j: c for c, j in enumerate(clique)} for clique in cliques.tolist()]

    def selection(clique, prefix):
        """The flat offsets in the stacked blocks of the entries (prefix a, prefix b) of the clique."""
        position = [column[clique][word_index[prefix + a]] for a in short]
        return [[(clique * k + a) * k + b for b in position] for a in position]

    localizers = np.array([[selection(0, ())] * (n + 1), [selection(i, (i,)) for i in range(1, n + 2)]], dtype=int)
    localizers = localizers.reshape(2, n + 1, len(short), len(short))  # d = 0 has no short words
    length = {0: 0} | {word_index[w]: len(w) for w in words}
    central = np.array([[0.5 ** length[j] for j in clique] for clique in cliques.tolist()])
    shifted = np.array([[word_index[(i,) + w] for w in short] for i in range(1, n + 2)], dtype=int)
    return objective[blocks], variable, localizers, central, shifted, d, word_index


BUILD_SHAPES = [
    (n, d) for n in range(1, 8) for d in range(5) if 1 + sum((n + 1) ** s for s in range(d + 1)) <= sdp.MAX_DIM
]


class TestBuild:
    @settings(max_examples=100, deadline=None)
    @given(shape=st.sampled_from(BUILD_SHAPES), data=st.data())
    def test_matches_the_dense_construction(self, shape, data):
        n, d = shape
        monomials = [s for r in range(min(n, d) + 1) for s in itertools.combinations(range(1, n + 1), r)]
        chosen = data.draw(st.lists(st.sampled_from(monomials), unique=True, max_size=8))  # may be empty or hold ()
        values = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=len(chosen), max_size=len(chosen)))
        p = Polynomial(n, dict(zip(chosen, values)))
        prob = build_fcb_sdp(p, d)
        for field, expected in zip(dataclasses.fields(prob), reference_build(p, d), strict=True):
            got = getattr(prob, field.name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and np.array_equal(got, expected), field.name
            else:  # the sizes and the word index, in the same order
                assert type(got) is type(expected) and got == expected, field.name
                if isinstance(expected, dict):
                    assert list(got.items()) == list(expected.items())
        # The layout keeps no clique table; the one it implies is the word-by-word one.
        assert np.array_equal(cliques_of(prob), reference_cliques(n, d))

    def test_problem_is_the_program_and_one_layout(self):
        # The clique table, the base words 1..|W0|, D = 1 + len(word_index) and n follow from these.
        assert [f.name for f in dataclasses.fields(SdpProblem)] == [
            "objective",
            "variable",
            "localizers",
            "central",
            "shifted",
            "d",
            "word_index",
        ]

    # Within a clique, u is row 0, and v is row 1 of clique 0 only, so entry
    # (u, w) of clique q sits at [q, 0, j] and [q, j, 0], where j is the
    # column of w in the clique, and the fixed (v, v) entry at [0, 1, 1].

    def test_single_variable_dimensions(self):
        prob = build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1)
        assert len(prob.word_index) + 1 == 4  # u, v, v_(1), v_(2)
        assert cliques_of(prob).tolist() == [[0, 1], [0, 2], [0, 3]]
        assert prob.objective.shape == prob.variable.shape == (3, 2, 2)
        # 7 covered entries (not the pairs of v, v_(1) and v_(2)), no ties, two fixed diagonals
        assert prob.variable.max() + 1 == 7 - 2
        # (u, v_(1)) and its mirror image in clique 1 carry half the coefficient each
        assert np.argwhere(prob.objective).tolist() == [[1, 0, 1], [1, 1, 0]]
        assert prob.objective[1, 0, 1] == prob.objective[1, 1, 0] == 0.5

    def test_equality_count_n2_d2(self):
        prob = build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 2)
        assert len(prob.word_index) + 1 == 14
        # clique 0: u, v and the three length-1 words; clique i: u, (i) and the three words (i, j)
        assert cliques_of(prob).shape == (4, 5)
        assert prob.variable.shape == (4, 5, 5)
        assert [np.argwhere(block < 0).tolist() for block in prob.variable] == [[[0, 0], [1, 1]]] + [[[0, 0]]] * 3
        classes = parity_classes(2, 2)  # 9 words in 4 classes: 5 tied entries
        assert sum(len(members) for members in classes.values()) == 9
        assert len(classes) == 4
        # 15 entries of the upper triangle in clique 0, and 12 more in each
        # clique i, which meets clique 0 in u and (i): 51 of the 105 entries
        assert prob.variable.max() + 1 == 51 - 2 - 5
        # An entry that clique 0 shares with clique i has one variable in both:
        # (u, v_(i)) is entry (0, 1 + i) of clique 0 and entry (0, 1) of clique i.
        assert [prob.variable[i, 0, 1] for i in (1, 2, 3)] == [prob.variable[0, 0, 1 + i] for i in (1, 2, 3)]
        # Entry (u, w) of a length-2 word sits in the clique of its first letter.
        column = {(k, int(j)): c for k, clique in enumerate(cliques_of(prob)) for c, j in enumerate(clique)}
        shared = [
            {prob.variable[w[0], 0, column[w[0], prob.word_index[w]]] for w in members}
            for members in classes.values()
        ]
        assert all(len(ids) == 1 for ids in shared)
        assert len(set.union(*shared)) == 4

    @pytest.mark.parametrize("n, d", [(2, 0), (1, 1), (2, 2), (3, 3)])
    def test_blocks_are_symmetric(self, n, d):
        full = {s: 1.0 for r in range(min(n, d) + 1) for s in itertools.combinations(range(1, n + 1), r)}
        prob = build_fcb_sdp(Polynomial(n, full), d)
        k = cliques_of(prob).shape[1]
        assert prob.objective.shape == prob.variable.shape == (len(cliques_of(prob)), k, k)
        assert np.array_equal(prob.variable, prob.variable.transpose(0, 2, 1))
        assert np.array_equal(prob.objective, prob.objective.transpose(0, 2, 1))

    @pytest.mark.parametrize("n, d", [(2, 0), (1, 1), (2, 2), (3, 3)])
    def test_cliques_cover_every_constraint(self, n, d):
        # Grone's completion theorem needs every entry that the objective, a
        # class tie, a fixed diagonal or a localizer touches to lie in one
        # clique, and the cliques to form a clique tree.
        full = {s: 1.0 for r in range(min(n, d) + 1) for s in itertools.combinations(range(1, n + 1), r)}
        prob = build_fcb_sdp(Polynomial(n, full), d)
        width = 1 + sum((n + 1) ** s for s in range(d))
        assert cliques_of(prob).shape == ((n + 2, width) if d else (1, 2))
        cliques = [set(clique.tolist()) for clique in cliques_of(prob)]

        def inside(indices):
            return any(set(indices) <= clique for clique in cliques)

        u, v = 0, prob.word_index[()]
        assert inside([u, v])
        for s in full:
            assert inside([u, prob.word_index[canonical_word(s, d, n)]])
        for members in parity_classes(n, d).values():
            assert all(inside([u, prob.word_index[w]]) for w in members)
        assert inside([prob.word_index[w] for w in prob.word_index if len(w) <= d - 1])
        assert all(inside(shifted) for shifted in prob.shifted)
        # Each coefficient is placed once, on one clique entry and its mirror image.
        assert np.count_nonzero(prob.objective) == 2 * len(full)
        # The cliques cover every index.  For d >= 1 clique 0 is the separator
        # and meets clique i in T_i, u and the words i w with |w| <= d-2; two
        # cliques i, j >= 1 meet only in u.
        assert set.union(*cliques) == set(range(len(prob.word_index) + 1))
        assert cliques[0] == set(range(width if d else 2))
        for i, clique in enumerate(cliques[1:], start=1):
            tie = {u} | {prob.word_index[(i,) + w] for w in list(prob.word_index) if len(w) <= d - 2}
            assert cliques[0] & clique == tie
        assert all(a & b == {u} for a, b in itertools.combinations(cliques[1:], 2))
        covered = {(min(a, b), max(a, b)) for clique in cliques_of(prob) for a in clique for b in clique}
        assert len(covered) == {(2, 0): 3, (1, 1): 7, (2, 2): 51, (3, 3): 1181}[n, d]

    def test_zero_polynomial_objective(self):
        prob = build_fcb_sdp(Polynomial(2, {}), 2)
        assert not prob.objective.any()

    def test_degree_error(self):
        with pytest.raises(ValueError, match="degree"):
            build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 1)

    def test_localizer_rows_cover_short_words(self):
        prob = build_fcb_sdp(Polynomial(2, {(1,): 1.0}), 2)
        short = [w for w in list(prob.word_index) if len(w) <= 1]
        # extract_witness reads the base words as the moment indices 1..|W0|.
        assert [prob.word_index[w] for w in short] == list(range(1, prob.shifted.shape[1] + 1))
        assert prob.shifted.tolist() == [[prob.word_index[(i,) + w] for w in short] for i in (1, 2, 3)]

    @pytest.mark.parametrize("d", [2.0, 2.5, True])
    def test_rejects_non_integer_degree(self, d):
        # 2.0 and 2.5 once raised a bare TypeError from range().
        with pytest.raises(ValueError, match=f"d must be an integer, got {d!r}"):
            build_fcb_sdp(Polynomial(1, {(1,): 1.0}), d)

    def test_takes_numpy_integer_degree(self):
        prob = build_fcb_sdp(Polynomial(1, {(1,): 1.0}), np.int64(2))
        assert type(prob.d) is int and prob.d == 2

    def test_capacity_guard_env(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_DIM", 10)
        with pytest.raises(CapacityError):
            build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 2)
        monkeypatch.setattr(sdp, "MAX_DIM", 14)
        build_fcb_sdp(Polynomial(2, {(1, 2): 1.0}), 2)


def dense_g(prob: SdpProblem) -> np.ndarray:
    """G as a dense array: a 1 at each free block entry's variable, then each slack's base row less its shifted row."""
    variable = prob.variable.reshape(-1)
    T = np.zeros((variable.size, variable.max() + 1))
    free = np.flatnonzero(variable >= 0)
    T[free, variable[free]] = 1.0
    base, shift = prob.localizers.reshape(2, -1)
    return np.vstack([T, T[base] - T[shift]])


# n = 0 and d = 0 (no localizers) included; the dense G of these has at most 0.5 million entries.
CONSENSUS_SHAPES = [(n, d) for n in range(5) for d in range(5) if 1 + sum((n + 1) ** s for s in range(d + 1)) <= 64]


class TestConsensus:
    """The gather, the scatter and the solve with G^T G per tree, against a dense G."""

    @pytest.mark.parametrize("n, d", CONSENSUS_SHAPES)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_g(self, n, d, seed):
        prob = build_fcb_sdp(Polynomial(n, {(): 1.0}), d)
        G, dense = sdp._Consensus(prob.variable, prob.localizers), dense_g(prob)
        rng = np.random.default_rng(seed)
        y, r, b = (rng.standard_normal(size) for size in (dense.shape[1], dense.shape[0], dense.shape[1]))
        assert np.array_equal(G.gather(y), dense @ y)
        assert np.all(np.abs(G.scatter(r) - dense.T @ r) <= 1e-12 * (np.abs(dense.T) @ np.abs(r)))
        expected = np.linalg.solve(dense.T @ dense, b)
        assert np.allclose(G.solve(b), expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())
        # The slack pairs form a forest: as many distinct pairs as variables less trees.
        pairs = prob.variable.reshape(-1)[prob.localizers.reshape(2, -1)]
        edges = {tuple(sorted(pair)) for pair in pairs.T.tolist() if min(pair) >= 0}
        assert len(edges) == dense.shape[1] - sum(len(members) for members, _ in G.groups)

    def test_the_d3_benchmark_shape(self):
        # n = 3, d = 3: 203 trees of 1, 5 and 21 variables; the dense G^T G is 1123 x 1123.
        prob = build_fcb_sdp(PANEL_N3, 3)
        G, dense = sdp._Consensus(prob.variable, prob.localizers), dense_g(prob)
        assert sorted(members.shape for members, _ in G.groups) == [(14, 21), (29, 1), (160, 5)]
        b = np.random.default_rng(3).standard_normal(dense.shape[1])
        residual = dense.T @ (dense @ G.solve(b)) - b
        assert np.abs(residual).max() <= 1e-10 * np.abs(b).max()


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
        # The one check, at the last iteration, is the whole history.
        with pytest.raises(
            ConvergenceError,
            match=r"primal \S+, dual \S+\); final rho \S+; "
            r"last checks: iteration 3: primal \S+, dual \S+, rho \S+, \S+ s$",
        ):
            fcb_norm(Polynomial(1, {(1,): 1.0}), 1, max_iters=3)

    def test_convergence_error_shows_last_three_checks(self):
        with pytest.raises(ConvergenceError) as info:
            fcb_norm(maj3(), 3, max_iters=80)
        checks = str(info.value).split("last checks: ")[1].split("; ")
        assert [check.split(":")[0] for check in checks] == ["iteration 70", "iteration 75", "iteration 80"]

    def test_history_has_one_row_per_check(self):
        sol = solve_sdp(build_fcb_sdp(maj3(), 3), max_iters=85)
        assert [row[0] for row in sol.history] == list(range(5, 86, 5))
        iteration, primal, dual, rho, seconds = sol.history[-1]
        assert rho > 0.0
        assert all(a[4] <= b[4] for a, b in zip(sol.history, sol.history[1:]))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1), tol=tol, max_iters=50)

    @pytest.mark.parametrize("tol", [True, np.True_, "1e-6", None, 1e-6 + 0j])
    def test_rejects_tolerance_that_is_not_a_real_number(self, tol):
        # tol=True once ran at tol 1.0 and stopped after 5 iterations with the
        # interval [0.857, 1.291]; "1e-6" raised a bare TypeError.
        with pytest.raises(ValueError, match=re.escape(f"tol must be a real number, got {tol!r}")):
            solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1), tol=tol, max_iters=50)

    def test_takes_numpy_float_tolerance(self):
        sol = solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1), tol=np.float32(1e-6))
        assert sol.converged and sol.upper - sol.lower <= 1e-6

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_rejects_empty_iteration_budget(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1), max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [2.5, 5.0, True])
    def test_rejects_non_integer_iteration_budget(self, max_iters):
        # max_iters=True once ran one iteration, and 2.5 raised a bare TypeError.
        with pytest.raises(ValueError, match=f"max_iters must be an integer, got {max_iters!r}"):
            solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1), max_iters=max_iters)

    def test_takes_numpy_integer_iteration_budget(self):
        sol = solve_sdp(build_fcb_sdp(Polynomial(1, {(1,): 1.0}), 1), max_iters=np.int64(5))
        assert sol.iterations == 5

    @pytest.mark.parametrize(
        "p, d", [(Polynomial(2, {(): 0.5}), 0), (PANEL_N3, 2), (maj3(), 3), (Polynomial(2, {(1, 2): 1.0}), 4)]
    )
    def test_solver_reads_only_the_program(self, p, d):
        # The fcb layout fields are cleared; only the completion, stubbed here, may read them.
        # d = 0 has localizers with no rows, and at d = 4 the cliques are 41 wide.
        prob = build_fcb_sdp(p, d)
        layout = dict.fromkeys(["shifted", "d", "word_index"])
        with mock.patch.object(sdp, "_complete") as complete:
            bare = solve_sdp(dataclasses.replace(prob, **layout))
        assert complete.call_count == 1
        full = solve_sdp(prob)
        for name in ("lower", "upper", "iterations", "rho", "penalty_changes"):
            assert getattr(bare, name) == getattr(full, name), name
        assert [row[:4] for row in bare.history] == [row[:4] for row in full.history]

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
        # Scaling PANEL_N3 by 0.01 puts the early residuals orders of
        # magnitude out of balance; penalty steps of a factor of 2 per 100
        # iterations took 1,200 iterations here against 275 at scale 1.
        p = PANEL_N3
        small = Polynomial(3, {s: 0.01 * c for s, c in p.coeffs.items()})
        sol = solve_sdp(build_fcb_sdp(small, 2))
        assert sol.converged
        assert sol.iterations <= 300
        assert sol.value / 0.01 == pytest.approx(fcb_norm(p, 2), abs=1e-5)


class TestPinnedOptima:
    @pytest.mark.parametrize("p, d, value", PINNED_OPTIMA)
    def test_value(self, p, d, value):
        assert fcb_norm(p, d) == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("p, d, value", PINNED_OPTIMA)
    def test_value_inside_certified_interval(self, p, d, value):
        sol = solve_sdp(build_fcb_sdp(p, d))
        assert sol.converged
        assert sol.lower - 1e-9 <= value <= sol.upper + 1e-9
        assert sol.upper - sol.lower <= 1e-6
        assert sol.value == sol.lower

    def test_fcb_norm_is_the_lower_end_of_fcb_interval(self):
        p, d, value = PINNED_OPTIMA[0]
        lower, upper = fcb_interval(p, d)
        assert fcb_norm(p, d) == lower
        assert lower - 1e-9 <= value <= upper <= lower + 1e-6 + 1e-9

    def test_reported_moment_completes_the_clique_blocks(self):
        p = PANEL_N3
        prob = build_fcb_sdp(p, 3)
        sol = solve_sdp(prob)
        assert sol.converged
        m = sol.moment
        assert m.shape == (len(prob.word_index) + 1,) * 2
        assert np.array_equal(m, m.T)
        v = prob.word_index[()]
        assert m[0, 0] == 1.0 and m[v, v] == 1.0
        # The clique entries are the solved ones: they give the value, meet the
        # class ties exactly and reproduce the localizer slack.
        value = sum(c * m[0, prob.word_index[canonical_word(s, 3, p.n)]] for s, c in p.coeffs.items())
        assert value == pytest.approx(sol.value, abs=1e-12)
        for members in parity_classes(p.n, 3).values():
            assert len({m[0, prob.word_index[w]] for w in members}) == 1
        short = [prob.word_index[w] for w in prob.word_index if len(w) <= 2]
        base = m[np.ix_(short, short)]
        slack = min(np.linalg.eigvalsh(base - m[np.ix_(shifted, shifted)])[0] for shifted in prob.shifted)
        assert slack == pytest.approx(sol.localizer_min_eig_slack, abs=1e-12)
        # The repaired clique blocks are PSD, and so is their completion.
        assert np.linalg.eigvalsh(m)[0] >= -1e-12


class TestCertifiedInterval:
    def test_penalty_steps_are_capped(self):
        # Its primal residual is exactly 0 at iteration 5.  Moving rho by the
        # full square root of the residual ratio at every check sent it
        # between 1e-4 and 1e4 until the iteration budget ran out.
        p = Polynomial(1, {(): 0.18811840863242424, (1,): 0.12985380635082025})
        sol = solve_sdp(build_fcb_sdp(p, 1))
        assert sol.converged
        assert sol.iterations <= 200
        assert sol.lower <= spectral_l1(p) <= sol.upper

    def test_tiny_objective_converges(self):
        # The iterate drifts through the interior at a constant residual for
        # many checks; an Anderson ridge relative to the residual differences
        # alone extrapolated by 1e13 there, and the solve never converged.
        p = Polynomial(1, {(1,): 1e-6})
        sol = solve_sdp(build_fcb_sdp(p, 1))
        assert sol.converged
        assert sol.iterations <= 1000
        assert sol.lower <= 1e-6 <= sol.upper

    def test_anderson_step_stays_bounded_on_a_drift(self):
        rng = np.random.default_rng(0)
        drift = 0.02 * rng.standard_normal(40)
        accel = _Anderson(drift.size)
        v = np.zeros(drift.size)
        for _ in range(30):
            residual = drift + 1e-17 * rng.standard_normal(drift.size)  # constant up to rounding
            step = v + residual
            v = accel.advance(step, residual, extrapolate=True)
            assert np.linalg.norm(v - step) <= 10 * np.linalg.norm(drift)

    def test_reported_moment_is_psd(self):
        # Restriction x2 = -1 of instance 19 of the criterion-5 generator at
        # seed 99, whose reported moment matrix had an eigenvalue of -1.15e-6
        # when the solver reported its own point in place of the repaired one.
        p = Polynomial(
            2,
            {
                (): 2.1881188770583178,
                (1,): -2.616367072131033,
                (1, 2): -0.576037114211326,
                (2,): -0.7383597339743386,
            },
        )
        prob = build_fcb_sdp(p, 2)
        sol = solve_sdp(prob)
        assert sol.converged
        assert np.linalg.eigvalsh(sol.moment)[0] >= -1e-12
        assert sol.localizer_min_eig_slack >= -1e-12
        value = sum(c * sol.moment[0, prob.word_index[canonical_word(s, 2, p.n)]] for s, c in p.coeffs.items())
        assert value == pytest.approx(sol.value, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 4), d=st.integers(0, 3), max_iters=st.integers(1, 150), data=st.data())
    def test_completion_keeps_the_clique_blocks_and_is_psd(self, n, d, max_iters, data):
        # The repaired point of a solve stopped at a random budget, converged or not.
        monomials = [s for r in range(min(n, d) + 1) for s in itertools.combinations(range(1, n + 1), r)]
        values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(monomials), max_size=len(monomials)))
        prob = build_fcb_sdp(Polynomial(n, dict(zip(monomials, values))), d)
        with mock.patch.object(sdp, "_complete", wraps=sdp._complete) as complete:
            sol = solve_sdp(prob, max_iters=max_iters)
        blocks = complete.call_args.args[1]
        m = sol.moment
        assert m.shape == (len(prob.word_index) + 1,) * 2 and np.array_equal(m, m.T)
        for clique, block in zip(cliques_of(prob), blocks, strict=True):
            assert np.array_equal(m[np.ix_(clique, clique)], block)
        eigvals = np.linalg.eigvalsh(m)
        assert eigvals[0] >= -1e-9 * max(1.0, np.abs(eigvals).max())

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 4), d=st.integers(0, 3), data=st.data())
    def test_completion_of_low_rank_gram_blocks(self, n, d, data):
        # The clique blocks of a random Gram matrix V V^T of any rank agree on
        # their shared entries and are PSD, often singular, so a completion
        # that leaves the clique tree (a zero fill of M[P_i, S \ T_i], or
        # M[S, S]^+ taken as the identity) has a clearly negative eigenvalue.
        prob = build_fcb_sdp(Polynomial(n, {}), d)
        dim, cliques = len(prob.word_index) + 1, cliques_of(prob)
        rank = data.draw(st.integers(1, dim))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vectors = rng.standard_normal((dim, rank))
        blocks = (vectors @ vectors.T)[cliques[:, :, None], cliques[:, None, :]]
        m = sdp._complete(prob, blocks)
        for clique, block in zip(cliques, blocks, strict=True):
            assert np.array_equal(m[np.ix_(clique, clique)], block)
        eigvals = np.linalg.eigvalsh(m)
        assert eigvals[0] >= -1e-9 * max(1.0, np.abs(eigvals).max())

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 2),
        data=st.data(),
    )
    def test_interval_holds_sup_norm_and_spectral_l1(self, n, d, data):
        # sup |p| <= ||p||_{fcb,d} <= sum |p_hat(S)|, so the two ends may not cross them.
        monomials = [s for r in range(d + 1) for s in itertools.combinations(range(1, n + 1), r)]
        values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(monomials), max_size=len(monomials)))
        p = Polynomial(n, dict(zip(monomials, values)))
        sol = solve_sdp(build_fcb_sdp(p, d))
        assert sol.converged
        assert sol.upper - sol.lower <= 1e-6
        assert sup_norm_bruteforce(p) <= sol.upper + 1e-9
        assert sol.lower <= spectral_l1(p) + 1e-9

    def test_convergence_error_says_no_check_passed_its_residuals(self):
        with pytest.raises(ConvergenceError, match="in 3 iterations: no check passed its residuals"):
            fcb_norm(Polynomial(1, {(1,): 1.0}), 1, max_iters=3)

    def test_convergence_error_names_the_last_gap(self):
        # maj3 at d=3 passes its residuals from iteration 80 and closes its gap at 90.
        sol = solve_sdp(build_fcb_sdp(maj3(), 3), max_iters=85)
        assert not sol.converged
        assert all(primal <= 1e-6 and dual <= 1e-6 for _, primal, dual, _, _ in sol.history[-2:])
        gap = sol.upper - sol.lower
        assert 1e-6 < gap
        with pytest.raises(ConvergenceError, match=f": certified gap {gap:.2e} at iteration 85 "):
            fcb_norm(maj3(), 3, max_iters=85)


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
        # Criterion-5-style d=2 instances with rank-deficient optima.  The
        # reported moment is completed from repaired, PSD clique blocks, so its
        # exact Gram factorization over every positive eigenvalue reproduces
        # the relations and the value to rounding.
        rng = np.random.default_rng(2024)
        for k in range(20):
            p = random_poly(rng, 3 if k % 2 == 0 else 4, 2, 5)
            prob = build_fcb_sdp(p, 2)
            sol = solve_sdp(prob)
            w = extract_witness(sol, prob)
            assert verify_bb(w, 1e-10)["pass"], k
            assert evaluate_on_witness(p, w) == pytest.approx(sol.value, abs=1e-10), k

    def test_small_word_directions_are_cut(self):
        # Restriction x2 = -1 of a criterion-5 instance at generator seed 99.
        # With numpy's default pseudo-inverse cut-off in place of PINV_RCOND,
        # letter 2 of its map exceeded 1 by 1.05e-2 and was refused.
        p = Polynomial(1, {(): 0.7893649314827461, (1,): -1.0553018806519403})
        prob = build_fcb_sdp(p, 2)
        sol = solve_sdp(prob)
        w = extract_witness(sol, prob)
        assert verify_bb(w, 1e-6)["pass"]
        assert evaluate_on_witness(p, w) == pytest.approx(sol.value, abs=1e-6)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_constant_without_variables(self, d, tmp_path):
        # n = 0: the witness holds the frozen letter alone; it was once refused after a converged solve.
        p = Polynomial(0, {(): 0.7})
        prob = build_fcb_sdp(p, d)
        sol = solve_sdp(prob)
        assert sol.converged
        w = extract_witness(sol, prob)
        assert w.n == 0 and w.d == d
        assert verify_bb(w, 1e-10)["pass"]
        save_witness(w, tmp_path / "w.json")
        assert evaluate_on_witness(p, load_witness(tmp_path / "w.json")) == pytest.approx(sol.value, abs=1e-9)

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


class TestCheckRowsCompareCertifiedEnds:
    def test_monotonicity_fails_when_the_d2_interval_is_raised(self, monkeypatch):
        # fcb_{2} = fcb_{1} on these degree-1 instances, so lifting the d = 2
        # interval by 5e-5 puts lower(d=2) above upper(d=1): with no slack in
        # the row, the suite must report it.
        real = sdp.solve_sdp

        def raised(prob, *args, **kwargs):
            sol = real(prob, *args, **kwargs)
            if prob.d == 2:
                sol = dataclasses.replace(sol, value=sol.value + 5e-5, lower=sol.lower + 5e-5, upper=sol.upper + 5e-5)
            return sol

        assert all(row.passed for row in checks.run_suite("monotonicity", trials=1))
        monkeypatch.setattr(sdp, "solve_sdp", raised)
        assert not all(row.passed for row in checks.run_suite("monotonicity", trials=1))
