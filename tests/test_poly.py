import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcblab import (
    BlockMultilinearPolynomial,
    CapacityError,
    Polynomial,
    degree_part,
    evaluate,
    fourier_transform,
    greedy_simulate,
    restrict,
    spectral_l1,
    statistics,
    sup_norm_bruteforce,
)
from fcblab.fileio import load_bml, load_polynomial, save_bml, save_polynomial
from fcblab.poly import _dense_polynomial, _mask_subset

from conftest import all_points, brute_force_coeffs, maj3, random_poly


def table(p):
    return {x: evaluate(p, x) for x in all_points(p.n)}


class TestFourierTransform:
    def test_single_variable_identity(self):
        values = {(1,): 1.0, (-1,): -1.0}
        assert fourier_transform(values).coeffs == {(1,): 1.0}

    def test_maj3_interpolation(self):
        values = {x: float(np.sign(sum(x))) for x in all_points(3)}
        p = fourier_transform(values)
        expected = {(1,): 0.5, (2,): 0.5, (3,): 0.5, (1, 2, 3): -0.5}
        assert p.coeffs == expected
        assert p.coeffs == brute_force_coeffs(values, 3)
        assert table(p) == values

    def test_constant_function(self):
        values = {x: 1.0 for x in all_points(2)}
        assert fourier_transform(values).coeffs == {(): 1.0}

    def test_incomplete_table_rejected(self):
        values = {(1, 1): 1.0, (1, -1): 0.0}
        with pytest.raises(ValueError, match="incomplete"):
            fourier_transform(values, n=2)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            fourier_transform({}, n=21)


def reference_dense_polynomial(coeff, n):
    """The checked construction: every key canonicalised and every value tested by Polynomial."""
    return Polynomial(n, {_mask_subset(int(k), n): float(coeff[k]) for k in np.nonzero(coeff)[0]})


def dense_array(n, kind, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    if kind == "zeros":
        return np.zeros(size)
    if kind == "negative-zeros":
        return -np.zeros(size)
    coeff = rng.standard_normal(size)
    if kind == "integers":
        coeff = np.round(4 * coeff)
    if kind == "sparse":
        coeff[rng.random(size) < 0.8] = 0.0
    if kind == "signed-zeros":
        coeff[rng.random(size) < 0.5] = -0.0
        coeff[rng.random(size) < 0.2] = 0.0
    return coeff


class TestDensePolynomial:
    KINDS = ("normal", "integers", "sparse", "zeros", "negative-zeros", "signed-zeros")

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 12), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    def test_matches_checked_construction(self, n, kind, seed):
        coeff = dense_array(n, kind, seed)
        p, ref = _dense_polynomial(coeff, n), reference_dense_polynomial(coeff, n)
        assert p == ref
        assert list(p.coeffs.items()) == list(ref.coeffs.items())  # same key order too
        assert type(p.n) is int
        assert all(type(i) is int for key in p.coeffs for i in key)
        assert all(type(c) is float for c in p.coeffs.values())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        bad=st.sampled_from((float("nan"), float("inf"), float("-inf"))),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_non_finite_message_matches(self, n, bad, seed, data):
        coeff = dense_array(n, "sparse", seed)
        for k in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)):
            coeff[k] = bad
        with pytest.raises(ValueError) as expected:
            reference_dense_polynomial(coeff, n)
        with pytest.raises(ValueError, match="not finite") as got:
            _dense_polynomial(coeff, n)
        assert str(got.value) == str(expected.value)


class TestEvaluate:
    def test_sign_product(self):
        p = Polynomial(2, {(1, 2): 1.0})
        assert evaluate(p, (1, -1)) == -1.0

    def test_maj3_value(self):
        assert evaluate(maj3(), (1, 1, -1)) == 1.0

    def test_zero_polynomial(self):
        assert evaluate(Polynomial(3, {}), (-1, 1, -1)) == 0.0

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="length"):
            evaluate(maj3(), (1, 1))

    def test_non_sign_input(self):
        with pytest.raises(ValueError):
            evaluate(maj3(), (1, 0, 1))


class TestStatistics:
    def test_maj3(self):
        st_ = statistics(maj3())
        assert st_.variance == pytest.approx(1.0, abs=1e-15)
        assert st_.influences == (0.5, 0.5, 0.5)
        assert st_.max_influence == 0.5
        assert st_.argmax_variable == 1

    def test_single_monomial(self):
        st_ = statistics(Polynomial(2, {(1, 2): 1.0}))
        assert st_.variance == 1.0
        assert st_.influences == (1.0, 1.0)

    def test_constant(self):
        st_ = statistics(Polynomial(2, {(): 3.0}))
        assert st_.variance == 0.0
        assert st_.influences == (0.0, 0.0)
        assert st_.max_influence == 0.0


class TestSupNorm:
    def test_average(self):
        assert sup_norm_bruteforce(Polynomial(2, {(1,): 0.5, (2,): 0.5})) == 1.0

    def test_maj3(self):
        p = maj3()
        assert sup_norm_bruteforce(p) == max(abs(v) for v in table(p).values()) == 1.0

    def test_homogeneity(self):
        assert sup_norm_bruteforce(Polynomial(1, {(1,): 2.0})) == 2.0


class TestRestrict:
    def test_monomial(self):
        q = restrict(Polynomial(2, {(1, 2): 1.0}), 2, 1)
        assert q.n == 1 and q.coeffs == {(1,): 1.0}

    def test_maj3_x3(self):
        q = restrict(maj3(), 3, 1)
        assert q.coeffs == {(): 0.5, (1,): 0.5, (2,): 0.5, (1, 2): -0.5}
        # against interpolating the restricted truth table
        restricted_values = {x: evaluate(maj3(), x + (1,)) for x in all_points(2)}
        assert q.coeffs == brute_force_coeffs(restricted_values, 2)

    def test_constant_unchanged(self):
        q = restrict(Polynomial(1, {(): 2.5}), 1, -1)
        assert q.n == 0 and q.coeffs == {(): 2.5}

    def test_index_error(self):
        with pytest.raises(IndexError):
            restrict(maj3(), 4, 1)

    @pytest.mark.parametrize("i", [1.5, 2.0, True])
    def test_rejects_non_integer_variable(self, i):
        # True once fixed x1, and 1.5 failed on a key with a repeated variable.
        with pytest.raises(ValueError, match=re.escape(f"i must be an integer, got {i!r}")):
            restrict(maj3(), i, 1)


class TestDegreePart:
    def test_mixed(self):
        p = Polynomial(2, {(1,): 0.5, (1, 2): 0.5})
        assert degree_part(p, 1).coeffs == {(1,): 0.5}

    def test_homogeneous_identity(self):
        p = Polynomial(2, {(1, 2): 1.0})
        assert degree_part(p, 2) == p

    def test_empty_level(self):
        assert degree_part(maj3(), 2).coeffs == {}

    @pytest.mark.parametrize("s", [1.5, 1.0, True])
    def test_rejects_non_integer_degree(self, s):
        # 1.5 once returned the zero polynomial, and True the degree-1 part.
        with pytest.raises(ValueError, match=re.escape(f"s must be an integer, got {s!r}")):
            degree_part(maj3(), s)


class TestSpectralL1:
    def test_average(self):
        assert spectral_l1(Polynomial(2, {(1,): 0.5, (2,): 0.5})) == 1.0

    def test_maj3(self):
        assert spectral_l1(maj3()) == 2.0

    def test_zero(self):
        assert spectral_l1(Polynomial(1, {})) == 0.0


class TestGreedySimulate:
    def test_one_query_determines(self):
        estimate, queried = greedy_simulate(Polynomial(1, {(1,): 1.0}), (-1,), 1)
        assert estimate == -1.0 and queried == [1]

    def test_maj3_full_budget(self):
        estimate, _ = greedy_simulate(maj3(), (1, 1, -1), 3)
        assert estimate == 1.0

    def test_budget_zero(self):
        p = Polynomial(2, {(): 0.25, (1,): 1.0})
        estimate, queried = greedy_simulate(p, (1, -1), 0)
        assert estimate == 0.25 and queried == []

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError):
            greedy_simulate(maj3(), (1, 1, 1), 4)

    @pytest.mark.parametrize("budget", [True, 1.5, 2.0])
    def test_budget_must_be_an_integer(self, budget):
        # True once ran as a budget of 1, and 1.5 raised a bare TypeError from range().
        with pytest.raises(ValueError, match=re.escape(f"budget must be an integer, got {budget!r}")):
            greedy_simulate(maj3(), (1, 1, 1), budget)

    def test_full_budget_reproduces_evaluate(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = random_poly(rng, n, n, 6)
            y = tuple(int(v) for v in rng.choice((1, -1), size=n))
            estimate, queried = greedy_simulate(p, y, n)
            assert estimate == pytest.approx(evaluate(p, y), abs=1e-12)
            assert sorted(queried) == sorted(set(queried))

    def test_mse_non_increasing(self, rng):
        total = np.zeros(7)
        for _ in range(20):
            n = 6
            p = random_poly(rng, n, 3, 8)
            scale = sup_norm_bruteforce(p)
            if scale == 0.0:
                continue
            p = Polynomial(n, {s: c / scale for s, c in p.coeffs.items()})
            for y in all_points(n):
                truth = evaluate(p, y)
                for b in range(n + 1):
                    est, _ = greedy_simulate(p, y, b)
                    total[b] += (truth - est) ** 2
        assert all(total[b + 1] <= total[b] + 1e-12 for b in range(6))


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_round_trip_exact(self, n, data):
        monos = [s for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)]
        coeffs = {
            s: data.draw(st.integers(-9, 9), label=str(s)) for s in monos
        }
        p = Polynomial(n, {s: float(c) for s, c in coeffs.items()})
        assert fourier_transform(table(p), n) == p

    def test_parseval(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = random_poly(rng, n, n, 8)
            lhs = sum(c * c for c in p.coeffs.values())
            rhs = sum(v * v for v in table(p).values()) / 2**n
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_variance_splits_over_degree_parts(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = random_poly(rng, n, n, 10)
            var = statistics(p).variance
            parts = sum(statistics(degree_part(p, s)).variance for s in range(1, p.degree + 1))
            assert var == pytest.approx(parts, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), i=st.integers(1, 5), y=st.sampled_from((-1, 1)), data=st.data())
    def test_restriction_identity(self, n, i, y, data):
        if i > n:
            i = 1 + (i - 1) % n
        monos = [s for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)]
        p = Polynomial(n, {s: float(data.draw(st.integers(-5, 5))) for s in monos})
        q = restrict(p, i, y)
        for x in all_points(n - 1):
            full = x[: i - 1] + (y,) + x[i - 1 :]
            assert evaluate(q, x) == pytest.approx(evaluate(p, full), abs=1e-12)

    def test_influence_bounds(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = random_poly(rng, n, n, 8)
            st_ = statistics(p)
            total = sum(st_.influences)
            assert st_.variance <= total + 1e-12
            assert total <= max(p.degree, 1) * st_.variance + 1e-12


class TestValidation:
    def test_repeated_variable_key(self):
        with pytest.raises(ValueError, match="repeated"):
            Polynomial(2, {(1, 1): 1.0})

    def test_out_of_range_key(self):
        with pytest.raises(ValueError, match="out of range"):
            Polynomial(2, {(3,): 1.0})

    def test_duplicate_after_sorting(self):
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial(2, {(1, 2): 1.0, (2, 1): 2.0})

    def test_zero_coefficients_dropped(self):
        assert Polynomial(2, {(1,): 0.0}).coeffs == {}

    def test_non_finite_coefficient(self):
        with pytest.raises(ValueError, match="not finite"):
            Polynomial(1, {(1,): float("inf")})
        with pytest.raises(ValueError, match="not finite"):
            BlockMultilinearPolynomial(1, 1, {((1, 1),): float("nan")})

    @pytest.mark.parametrize(
        "n, key, message",
        [
            (2, (1.5,), "a subset entry must be an integer, got 1.5"),  # once read as x1
            (2, (1, True), "a subset entry must be an integer, got True"),
            (2.5, (1,), "n must be an integer, got 2.5"),  # once a bare TypeError in statistics
            (2.0, (1,), "n must be an integer, got 2.0"),
            (True, (1,), "n must be an integer, got True"),  # once saved a file that load_polynomial refuses
        ],
        ids=["float-entry", "bool-entry", "float-n", "whole-float-n", "bool-n"],
    )
    def test_polynomial_sizes_and_keys_must_be_integers(self, n, key, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial(n, {key: 1.0})

    @pytest.mark.parametrize(
        "n, d, key, message",
        [
            (2, 2, ((1, 1.5),), "an index must be an integer, got 1.5"),  # once truncated to variable (1, 1)
            (2, 2, ((1.0, 1),), "a block must be an integer, got 1.0"),
            (2, 2, ((np.True_, 1),), f"a block must be an integer, got {np.True_!r}"),
            (2, True, ((1, 1),), "d must be an integer, got True"),  # once saved a file that load_bml refuses
            (2.5, 2, ((1, 1),), "n must be an integer, got 2.5"),
        ],
        ids=["float-index", "float-block", "numpy-bool-block", "bool-d", "float-n"],
    )
    def test_block_multilinear_sizes_and_keys_must_be_integers(self, n, d, key, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockMultilinearPolynomial(n, d, {key: 1.0})

    def test_numpy_integer_sizes_and_keys_are_ints(self, tmp_path):
        # n = np.int64(2) was once kept, and json could not save it.
        p = Polynomial(np.int64(2), {(np.int32(2), np.int64(1)): 1.0})
        assert type(p.n) is int and list(p.coeffs) == [(1, 2)] and all(type(i) is int for i in next(iter(p.coeffs)))
        save_polynomial(p, tmp_path / "p.json")
        assert load_polynomial(tmp_path / "p.json") == p
        q = BlockMultilinearPolynomial(np.int64(2), np.int64(3), {((np.int64(3), np.int8(2)),): 1.0})
        assert type(q.n) is int and type(q.d) is int
        assert all(type(x) is int for key in q.coeffs for pair in key for x in pair)
        save_bml(q, tmp_path / "q.json")
        assert load_bml(tmp_path / "q.json") == q

    def test_degree_of_zero_polynomial(self):
        assert Polynomial(3, {}).degree == 0
