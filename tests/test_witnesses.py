import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcblab import (
    BlockMultilinearPolynomial,
    CapacityError,
    Polynomial,
    bml_general_witness,
    bml_homogeneous_witness,
    bml_influences,
    bml_variance,
    contraction_check,
    degree_part,
    evaluate_bml_on_matrices,
    homogeneous_fcb_witness,
    statistics,
    verify_bb,
)
from fcblab import witnesses
from fcblab.linalg import sigma_max

from conftest import (
    maj3,
    random_homogeneous,
    random_homogeneous_bml,
    random_nonhomogeneous_bml,
)


class TestHomogeneousFcbWitness:
    def test_two_variable_monomial(self):
        p = Polynomial(2, {(1, 2): 1.0})
        cert = homogeneous_fcb_witness(p)
        assert cert.witness.m == 4
        assert cert.certified_value == pytest.approx(1.0, abs=1e-15)
        assert cert.implied_bound == pytest.approx(1.0, abs=1e-15)
        # basis order: v, f_(), f_(1,), f_(2,); A(1) v = f_(2,), A(2) v = f_(1,)
        assert cert.witness.A[0][3, 0] == 1.0
        assert cert.witness.A[1][2, 0] == 1.0
        assert not cert.witness.A[2].any()

    def test_disjoint_pair(self):
        p = Polynomial(4, {(1, 2): 2**-0.5, (3, 4): 2**-0.5})
        cert = homogeneous_fcb_witness(p)
        assert cert.certified_value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert verify_bb(cert.witness, 1e-9)["pass"]

    def test_single_monomial_unit(self):
        p = Polynomial(3, {(1, 2, 3): -1.0})
        cert = homogeneous_fcb_witness(p)
        assert cert.certified_value == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_homogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            homogeneous_fcb_witness(maj3())

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            homogeneous_fcb_witness(Polynomial(2, {}))

    def test_random_instances(self, rng):
        for _ in range(20):
            p = random_homogeneous(rng)
            st = statistics(p)
            cert = homogeneous_fcb_witness(p)
            report = verify_bb(cert.witness, 1e-9)
            assert report["pass"], report
            target = st.variance / math.sqrt(st.max_influence)
            assert cert.certified_value == pytest.approx(target, abs=1e-9)
            assert cert.implied_bound == pytest.approx(st.variance**2, abs=1e-12)
            for i in range(p.n + 1):
                assert contraction_check(cert.witness.A[i], 1e-12)["pass"]


BML_HOMOGENEOUS_DIGESTS = {
    (1, 1): "0ed0c292cc2d85c7",
    (1, 2): "dda4445936228d7e",
    (1, 3): "65873e8ca886ecac",
    (1, 4): "b274878c09b73369",
    (2, 1): "b45cfc505a0b3114",
    (2, 2): "075c1e8262ea02f2",
    (2, 3): "900e3d24ed4e388c",
    (2, 4): "88b6877a0e1014b6",
    (3, 1): "65e520997ea35cd3",
    (3, 2): "2ee250a7ff125774",
    (3, 3): "0d7cee36d844ceea",
    (3, 4): "1debef3002d442f8",
    (4, 1): "d663e4e04bbd1005",
    (4, 2): "e53dcea4e3b938d2",
    (4, 3): "5f84c30499f266c8",
    (4, 4): "ddd3bae775050dc1",
}


class TestBmlHomogeneousWitness:
    def test_optimal_instance_every_s(self):
        for d in (1, 2, 3, 4):
            p = BlockMultilinearPolynomial(
                1, d, {tuple((b, 1) for b in range(1, d + 1)): 1.0}
            )
            for s in range(1, d + 1):
                cert = bml_homogeneous_witness(p, s)
                assert cert.certified_value == 1.0
                assert cert.implied_bound == 1.0

    def test_disjoint_pair(self):
        p = BlockMultilinearPolynomial(
            2, 2, {((1, 1), (2, 1)): 2**-0.5, ((1, 2), (2, 2)): 2**-0.5}
        )
        for s in (1, 2):
            cert = bml_homogeneous_witness(p, s)
            assert cert.certified_value == pytest.approx(math.sqrt(2.0), abs=1e-12)
            assert sigma_max(cert.witness.A) <= 1.0 + 1e-12

    def test_degree_one_gives_l1(self):
        coeffs = {((1, 1),): 0.6, ((1, 2),): -0.8}
        p = BlockMultilinearPolynomial(2, 1, coeffs)
        cert = bml_homogeneous_witness(p, 1)
        assert cert.certified_value == pytest.approx(1.4, abs=1e-12)

    def test_value_identical_across_s(self, rng):
        for _ in range(15):
            p = random_homogeneous_bml(rng, n_max=3, d_max=3)
            values = [bml_homogeneous_witness(p, s).certified_value for s in range(1, p.d + 1)]
            target = sum(math.sqrt(v) for v in bml_influences(p)[0] if v > 0)
            # influence sums per block coincide for homogeneous p only in total;
            # the certificate realizes sum_i sqrt(Inf_{s,i}) for each one
            for s, got in enumerate(values, start=1):
                expected = sum(math.sqrt(v) for v in bml_influences(p)[s - 1])
                assert got == pytest.approx(expected, abs=1e-9)
            assert sigma_max(bml_homogeneous_witness(p, 1).witness.A) <= 1.0 + 1e-9

    def test_zero_influence_index_dropped(self):
        # index 2 of block 1 never occurs; construction must not divide by zero
        p = BlockMultilinearPolynomial(2, 2, {((1, 1), (2, 1)): 1.0, ((1, 1), (2, 2)): 1.0})
        cert = bml_homogeneous_witness(p, 1)
        assert np.isfinite(cert.certified_value)
        assert cert.certified_value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("s", [1, 2])
    def test_pinned_entries_n2_d2(self, s):
        # Coefficients (3, 4; 4, -3)/8: every row and column of squares sums to 0.625^2.
        p = BlockMultilinearPolynomial(
            2, 2, {((1, 1), (2, 1)): 0.375, ((1, 1), (2, 2)): 0.5, ((1, 2), (2, 1)): 0.5, ((1, 2), (2, 2)): -0.375}
        )
        a = np.zeros((2, 4, 4))
        if s == 1:
            # basis e_(), e_(1), e_(2), f_(): creation from e_() into e_(i), then jumps to f_()
            v, u = 0, 3
            a[0, 1, 0] = a[1, 2, 0] = 1.0
            a[0, 3, 1], a[0, 3, 2], a[1, 3, 1], a[1, 3, 2] = 0.6, 0.8, 0.8, -0.6
        else:
            # basis e_(), f_(), f_(1), f_(2): jumps from e_() into f_(q), then annihilation to f_()
            v, u = 0, 1
            a[0, 2, 0], a[1, 2, 0], a[0, 3, 0], a[1, 3, 0] = 0.6, 0.8, 0.8, -0.6
            a[0, 1, 2] = a[1, 1, 3] = 1.0
        cert = bml_homogeneous_witness(p, s)
        w = cert.witness
        assert np.array_equal(w.u, np.eye(4)[u]) and np.array_equal(w.v, np.eye(4)[v])
        assert w.A.shape == (2, 2, 4, 4)
        assert np.array_equal(w.A[0], a) and np.array_equal(w.A[1], a)
        assert cert.certified_value == 1.25
        assert cert.s_or_d == s

    @pytest.mark.parametrize("s, expected", [(1, 1.0), (2, 1.4)])
    def test_index_absent_from_block_s(self, s, expected):
        # Only index 1 occurs in block 1 and only indices 2, 3 in block 2, so the
        # other indices get no jump at block s and Inf_{s,i} = 0 divides nothing.
        p = BlockMultilinearPolynomial(3, 2, {((1, 1), (2, 2)): 0.6, ((1, 1), (2, 3)): 0.8})
        cert = bml_homogeneous_witness(p, s)
        w = cert.witness
        assert np.isfinite(w.A).all()
        assert cert.certified_value == pytest.approx(expected, abs=1e-12)
        assert cert.certified_value == pytest.approx(sum(map(math.sqrt, bml_influences(p)[s - 1])), abs=1e-12)
        assert sigma_max(w.A) <= 1.0 + 1e-12
        # the jump columns: e_t for the d-s indices of blocks s+1..d, here e_(i) at s=1 and e_() at s=2
        jump_cols = [1, 2, 3] if s == 1 else [0]
        absent = [i for i in range(3) if bml_influences(p)[s - 1, i] == 0.0]
        assert absent == ([1, 2] if s == 1 else [0])
        for i in absent:
            assert not w.A[0, i][:, jump_cols].any()

    def test_root_influence_chain(self, rng):
        # sum_i sqrt(Inf_{s,i}) >= Var/sqrt(MaxInf) >= Var once MaxInf <= 1
        for _ in range(10):
            p = random_homogeneous_bml(rng, n_max=3, d_max=3)
            scale = math.sqrt(bml_variance(p))
            p = BlockMultilinearPolynomial(
                p.n, p.d, {k: c / scale for k, c in p.coeffs.items()}
            )
            cert = bml_homogeneous_witness(p, 1)
            var = bml_variance(p)
            max_inf = float(bml_influences(p).max())
            assert cert.certified_value >= var / math.sqrt(max_inf) - 1e-9
            assert var / math.sqrt(max_inf) >= var - 1e-9

    @pytest.mark.parametrize("n, d", BML_HOMOGENEOUS_DIGESTS)
    def test_pinned_bytes(self, n, d):
        # Pinned from the builder over sorted (block, index) pair sets.  Sparse, and
        # for n > 1 index n never occurs in block 1, so Inf_{1,n} = 0.
        rng = np.random.default_rng(100 * n + d)
        coeffs = {}
        for idx in itertools.product(range(1, n + 1), repeat=d):
            if idx[0] == n > 1 or (rng.random() < 0.3 and set(idx) != {1}):
                continue
            coeffs[tuple(zip(range(1, d + 1), idx))] = float(rng.standard_normal())
        p = BlockMultilinearPolynomial(n, d, coeffs)
        digest = hashlib.sha256()
        for s in range(1, d + 1):
            cert = bml_homogeneous_witness(p, s)
            w = cert.witness
            for a in (w.u, w.v, w.A, np.float64(cert.certified_value), np.float64(cert.implied_bound)):
                digest.update(a.tobytes())
        assert digest.hexdigest()[:16] == BML_HOMOGENEOUS_DIGESTS[n, d]

    def test_rejects_bad_block(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1), (2, 1)): 1.0})
        with pytest.raises(IndexError):
            bml_homogeneous_witness(p, 3)

    def test_rejects_non_homogeneous(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1),): 1.0, ((1, 1), (2, 1)): 1.0})
        with pytest.raises(ValueError):
            bml_homogeneous_witness(p, 1)

    @pytest.mark.parametrize("s", [True, 1.0, 1.5])
    def test_rejects_non_integer_block(self, s):
        # s=True once built a certificate with s_or_d=True, which save_certificate
        # wrote as "s_or_D": true and load_certificate then refused.
        p = BlockMultilinearPolynomial(1, 2, {((1, 1), (2, 1)): 1.0})
        with pytest.raises(ValueError, match=f"s must be an integer, got {s!r}"):
            bml_homogeneous_witness(p, s)

    def test_takes_numpy_integer_block(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1), (2, 1)): 1.0})
        cert = bml_homogeneous_witness(p, np.int64(2))
        assert type(cert.s_or_d) is int and cert.s_or_d == 2


class TestBmlGeneralWitness:
    def test_homogeneous_reduces_to_top_degree(self, rng):
        p = random_homogeneous_bml(rng, n_max=2, d_max=3)
        cert = bml_general_witness(p)
        assert cert.s_or_d == p.d
        infs = bml_influences(p)
        target = bml_variance(p) / math.sqrt(float(infs.max()))
        assert cert.certified_value == pytest.approx(target, abs=1e-9)

    def test_two_block_entries(self):
        p = BlockMultilinearPolynomial(
            2, 2, {((1, 1), (2, 2)): 0.6, ((1, 2), (2, 2)): 0.8, ((2, 1),): 0.5}
        )
        cert = bml_general_witness(p)
        assert cert.s_or_d == 2  # Var[p_=2] = 1 beats Var[p_=1] = 0.25
        assert cert.certified_value == pytest.approx(1.0, abs=1e-15)
        assert cert.implied_bound == pytest.approx((1.25 / 2) ** 2, abs=1e-15)
        # basis order: v, f_(), f_(1,1), f_(1,2), f_(2,1), f_(2,2); MaxInf = Inf_(2,2) = 1
        w = cert.witness
        assert np.array_equal(w.u, np.eye(6)[1])
        assert np.array_equal(w.v, np.eye(6)[0])
        expected = np.zeros((2, 2, 6, 6))
        expected[0, 0][5, 0] = 0.6  # A_1(1) v = 0.6 f_(2,2)
        expected[0, 1][5, 0] = 0.8  # A_1(2) v = 0.8 f_(2,2)
        expected[1, 1][2, 0] = 0.6  # A_2(2) v = 0.6 f_(1,1) + 0.8 f_(1,2)
        expected[1, 1][3, 0] = 0.8
        for col, (b, i) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2)), start=2):
            expected[b - 1, i - 1][1, col] = 1.0  # A_b(i) f_(b,i) = f_()
        assert np.array_equal(w.A, expected)

    def test_tie_break_toward_smallest_degree(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1),): 2**-0.5, ((1, 1), (2, 1)): 2**-0.5})
        cert = bml_general_witness(p)
        assert cert.s_or_d == 1
        assert cert.certified_value == pytest.approx(0.5 / math.sqrt(0.5), abs=1e-12)
        assert cert.implied_bound == pytest.approx(0.25, abs=1e-12)

    def test_single_monomial(self):
        p = BlockMultilinearPolynomial(2, 3, {((1, 2), (3, 1)): 1.0})
        cert = bml_general_witness(p)
        assert cert.certified_value == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            bml_general_witness(BlockMultilinearPolynomial(1, 2, {(): 1.0}))

    def test_random_instances(self, rng):
        for _ in range(15):
            p = random_nonhomogeneous_bml(rng)
            cert = bml_general_witness(p)
            pD = degree_part(p, cert.s_or_d)
            varD = bml_variance(pD)
            target = varD / math.sqrt(float(bml_influences(pD).max()))
            assert cert.certified_value == pytest.approx(target, abs=1e-9)
            assert varD >= bml_variance(p) / p.d
            assert sigma_max(cert.witness.A) <= 1.0 + 1e-9
            # full p evaluates to the same number: other degree parts annihilate
            w = cert.witness
            assert evaluate_bml_on_matrices(p, w.u, w.v, w.A) == pytest.approx(
                target, abs=1e-9
            )


class TestSizeGuard:
    # The guard's closed-form basis size is the built one: letters x m^2 entries
    # pass at a guard of exactly that many and fail one below it.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: homogeneous_fcb_witness(Polynomial(4, {(1, 2, 3): 0.6, (2, 3, 4): 0.8})),
            lambda: bml_homogeneous_witness(
                BlockMultilinearPolynomial(3, 3, {((1, 1), (2, 3), (3, 2)): 1.0}), 2
            ),
            lambda: bml_general_witness(
                BlockMultilinearPolynomial(3, 4, {((1, 2), (3, 1)): 1.0, ((2, 3),): 0.5})
            ),
        ],
        ids=["fcb", "bml-hom", "bml-gen"],
    )
    def test_guard_counts_the_built_entries(self, monkeypatch, build):
        entries = build().witness.A.size
        monkeypatch.setattr(witnesses, "MAX_WITNESS_ENTRIES", entries)
        build()
        monkeypatch.setattr(witnesses, "MAX_WITNESS_ENTRIES", entries - 1)
        with pytest.raises(CapacityError, match="exceed the guard"):
            build()


class TestContractionCheck:
    def test_identity(self):
        report = contraction_check(np.eye(4), 0.0)
        assert report["sigma_max"] == pytest.approx(1.0, abs=1e-12)
        assert report["pass"]

    def test_scaled_identity_fails(self):
        report = contraction_check(2.0 * np.eye(3), 1e-9)
        assert report["sigma_max"] == pytest.approx(2.0, abs=1e-12)
        assert not report["pass"]

    def test_creation_operator_of_maj3_cubic(self):
        cert = homogeneous_fcb_witness(degree_part(maj3(), 3))
        for i in range(4):
            assert contraction_check(cert.witness.A[i], 1e-12)["pass"]

    def test_large_diagonal_matrix(self):
        dim = 600
        diag = np.zeros(dim)
        diag[7] = 3.0
        report = contraction_check(np.diag(diag), 1e-9)
        assert report["sigma_max"] == pytest.approx(3.0, rel=1e-6)
        assert not report["pass"]

    def test_large_matrix_annihilating_all_ones(self):
        # sigma = 2 with A·1 = 0: a power iteration started from the all-ones
        # vector sees nothing and would report 0.
        a = np.zeros((600, 600))
        a[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
        report = contraction_check(a, 1e-9)
        assert report["sigma_max"] == pytest.approx(2.0, abs=1e-12)
        assert not report["pass"]

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))])
    def test_rejects_what_is_not_square_matrices(self, a):
        with pytest.raises(ValueError, match="square"):
            contraction_check(a, 1e-9)

    def test_stack_is_its_largest_matrix(self, rng):
        for shape in [(3, 4, 4), (2, 3, 5, 5)]:
            stack = rng.standard_normal(shape)
            matrices = stack.reshape((-1,) + shape[-2:])
            assert sigma_max(stack) == max(sigma_max(a) for a in matrices)
        assert sigma_max(np.zeros((2, 3, 0, 0))) == 0.0


def sparse_stack(rng, k, m, support):
    """k random m x m matrices, with zero rows, columns and matrices as `support` asks."""
    stack = rng.standard_normal((k, m, m))
    if support == "all-zero":
        return np.zeros_like(stack)
    if support == "one-entry":
        mask = np.zeros((k, m * m), dtype=bool)
        mask[np.arange(k), rng.integers(m * m, size=k)] = True
        return np.where(mask.reshape(stack.shape), stack, 0.0)
    if support == "mixed":
        stack[rng.random((k, m)) < 0.4] = 0.0  # rows
        stack.transpose(0, 2, 1)[rng.random((k, m)) < 0.4] = 0.0  # columns
        stack[rng.random(k) < 0.2] = 0.0
    return stack


class TestSigmaMax:
    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 6),
        m=st.integers(1, 9),
        support=st.sampled_from(("mixed", "one-entry", "all-zero", "full")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_of_the_full_matrices(self, k, m, support, seed):
        stack = sparse_stack(np.random.default_rng(seed), k, m, support)
        bound = 8 * m * np.finfo(float).eps
        expected = np.linalg.svd(stack, compute_uv=False).max(axis=1)
        assert abs(sigma_max(stack) - expected.max()) <= bound * max(1.0, expected.max())
        for a, sigma in zip(stack, expected):
            assert abs(sigma_max(a) - sigma) <= bound * max(1.0, sigma)

    def test_one_svd_call_per_stack(self, monkeypatch, rng):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        stack = sparse_stack(rng, 40, 7, "mixed")
        stack[0] = 0.0
        stack[1] = rng.standard_normal((7, 7))
        assert sigma_max(stack) > 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("where", [(0, 1, 1), (2, 0, 3)])
    def test_nan_raises(self, where):
        stack = np.zeros((3, 4, 4))
        stack[1] = np.eye(4)
        stack[where] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            sigma_max(stack)
        with pytest.raises(np.linalg.LinAlgError):
            sigma_max(stack[where[0]])
