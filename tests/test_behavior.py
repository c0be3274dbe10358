import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcblab import (
    CapacityError,
    Polynomial,
    degree_part,
    Witness,
    bitstring_witness,
    bml_homogeneous_witness,
    canonical_word,
    chain_value,
    evaluate,
    evaluate_bml_on_matrices,
    evaluate_on_witness,
    homogeneous_fcb_witness,
    verify_bb,
    word_class,
)
from fcblab.behavior import _chain_values, _class_firsts
from fcblab.fileio import load_witness, save_witness
from fcblab.poly import BlockMultilinearPolynomial

from conftest import all_points, maj3, parity_classes, random_poly


class TestWordClass:
    def test_repeated_letter_cancels(self):
        assert word_class((1, 1, 2, 3), 6) == (2, 3)

    def test_frozen_letter_ignored(self):
        assert word_class((5, 2, 3, 5), 6) == (2, 3)

    def test_all_frozen(self):
        assert word_class((7, 7, 7, 7), 6) == ()

    def test_letter_out_of_range(self):
        with pytest.raises(IndexError):
            word_class((8,), 6)

    def test_letter_must_be_an_integer(self):
        with pytest.raises(ValueError, match=re.escape("a letter must be an integer, got True")):
            word_class((True,), 1)


class TestCanonicalWord:
    def test_padding(self):
        w = canonical_word({2, 3}, 4, 6)
        assert w == (2, 3, 7, 7)
        assert word_class(w, 6) == (2, 3)

    def test_empty_set(self):
        assert canonical_word((), 2, 2) == (3, 3)

    def test_exact_length(self):
        assert canonical_word({1}, 1, 5) == (1,)

    def test_too_large(self):
        with pytest.raises(ValueError):
            canonical_word({1, 2}, 1, 5)

    @pytest.mark.parametrize("entry", [1.5, 1.0, True])
    def test_entries_must_be_integers(self, entry):
        # (1.5,) once gave the word (1.5, 3)
        with pytest.raises(ValueError, match=re.escape(f"a subset entry must be an integer, got {entry!r}")):
            canonical_word((entry,), 2, 2)

    def test_takes_numpy_integer_entries(self):
        word = canonical_word(np.array([2, 1]), 3, 2)
        assert word == (1, 2, 3) and all(type(letter) is int for letter in word)

    def test_round_trip_all_subsets(self):
        for n, d in ((3, 2), (4, 3)):
            for r in range(d + 1):
                for s in itertools.combinations(range(1, n + 1), r):
                    assert word_class(canonical_word(s, d, n), n) == s


class TestEnumerateClasses:
    """The parity classes of all length-d words, as _class_firsts enumerates them."""

    def test_class_count(self):
        for n, d in ((2, 2), (3, 2), (2, 4)):
            expected = sum(math.comb(n, r) for r in range(min(n, d) + 1))
            assert len(set(_class_firsts(n, d).tolist())) == expected

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            _class_firsts(9, 7)

    def test_classes_match_scalar_products(self):
        # same class <=> identical monomial values on all x with frozen last coordinate
        for n, d in ((2, 2), (3, 3), (4, 2)):
            points = [x + (1,) for x in all_points(n)]
            profiles = [
                tuple(math.prod(x[k - 1] for k in w) for x in points)
                for w in itertools.product(range(1, n + 2), repeat=d)
            ]
            firsts = _class_firsts(n, d).tolist()
            assert all(profiles[k] == profiles[first] for k, first in enumerate(firsts))
            reps = set(firsts)
            assert len({profiles[k] for k in reps}) == len(reps)


def first_ranks(n: int, d: int) -> list[int]:
    """Reference class index: the rank of the first word with the same word_class."""
    first: dict = {}
    return [
        first.setdefault(word_class(w, n), rank)
        for rank, w in enumerate(itertools.product(range(1, n + 2), repeat=d))
    ]


def word_rank(word, n: int) -> int:
    return sum((letter - 1) * (n + 1) ** (len(word) - 1 - k) for k, letter in enumerate(word))


class TestClassFirsts:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 8), d=st.integers(0, 5))
    def test_first_word_of_the_same_class(self, n, d):
        assert _class_firsts(n, d).tolist() == first_ranks(n, d)

    def test_codes_above_62_bits(self):
        firsts = _class_firsts(70, 2)
        assert firsts.tolist() == first_ranks(70, 2)
        assert firsts[word_rank((70, 70), 70)] == 0
        assert firsts[word_rank((71, 69), 70)] == word_rank((69, 71), 70)

    @pytest.mark.parametrize(
        "n, word, first",
        [
            # cancelled pairs that are not the last two letters
            (3, (1, 1, 2), (1, 1, 2)),
            (3, (2, 3, 3), (1, 1, 2)),
            (3, (3, 2, 3), (1, 1, 2)),
            # runs of three and four equal letters
            (3, (2, 2, 2), (1, 1, 2)),
            (3, (4, 4, 4), (1, 1, 4)),
            (2, (2, 2, 2, 2), (1, 1, 1, 1)),
            (2, (2, 2, 2, 1), (1, 1, 1, 2)),
        ],
    )
    def test_cancelled_pairs_and_runs(self, n, word, first):
        assert word_class(word, n) == word_class(first, n)
        assert _class_firsts(n, len(word))[word_rank(word, n)] == word_rank(first, n)


class TestWordGuard:
    @pytest.mark.parametrize(
        "check",
        [lambda w: verify_bb(w, 1e-9), lambda w: evaluate_on_witness(Polynomial(w.n, {(): 1.0}), w)],
        ids=["verify_bb", "evaluate_on_witness"],
    )
    @pytest.mark.parametrize("n, d", [(1, 10**6), (0, 10**9)])
    def test_refused_at_once(self, check, n, d):
        # (1, 10^6) formed the 301,030-digit (n+1)^d and failed to print it;
        # n = 0 has one word at every d and passed the guard, then looped d times.
        w = Witness(d=d, u=np.ones(1), v=np.ones(1), A=np.ones((n + 1, 1, 1)))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=re.escape(f"n={n}, d={d}: ")):
            check(w)
        assert time.perf_counter() - start < 1.0

    def test_huge_d_forms_no_power(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="a word of length d exceeds the enumeration guard"):
            _class_firsts(2, 10**7)
        assert time.perf_counter() - start < 1.0

    def test_largest_count_passes(self):
        # 10^6 words, exactly the guard
        assert _class_firsts(9, 6).shape == (10**6,)

    @pytest.mark.parametrize("d", [10**6, 10**6 - 1])
    def test_one_long_word_in_a_tenth_of_a_second(self, d):
        # n = 0 at d = 10^6 passes the guard; the passes once looped d times,
        # 5.9 s in verify_bb and 1.1 s in evaluate_on_witness.  The rotation
        # by t has the power of rotation by d t, which u and v read off.
        t = 0.3
        rotation = np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]])
        w = Witness(d=d, u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]), A=rotation)
        start = time.perf_counter()
        report = verify_bb(w, 1e-9)
        value = evaluate_on_witness(Polynomial(0, {(): 2.0}), w)
        assert time.perf_counter() - start < 0.1
        assert report["pass"] and report["max_relation_violation"] == 0.0
        assert value == pytest.approx(-2.0 * math.sin(d * t), abs=1e-8)
        assert _class_firsts(0, d).tolist() == [0]


class TestChainValue:
    @pytest.mark.parametrize("letter", [True, 1.0])
    def test_letters_must_be_integers(self, letter):
        # [True] once read letter 1, and [1.0] raised a bare TypeError
        w = bitstring_witness((-1,), 1)
        with pytest.raises(ValueError, match=re.escape(f"a letter must be an integer, got {letter!r}")):
            chain_value(w, [letter])

    def test_takes_numpy_integer_letters(self):
        w = bitstring_witness((-1,), 1)
        assert chain_value(w, np.array([1, 2, 1])) == 1.0


class TestWitness:
    @pytest.mark.parametrize("d", [1.5, 2.0, True])
    def test_degree_must_be_an_integer(self, d):
        # d = 1.5 once built, and save_witness wrote a file that load_witness refuses.
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer, got {d!r}")):
            Witness(d=d, u=np.ones(1), v=np.ones(1), A=np.ones((2, 1, 1)))

    def test_numpy_integer_degree_is_an_int(self, tmp_path):
        w = Witness(d=np.int64(2), u=np.ones(1), v=np.ones(1), A=np.ones((2, 1, 1)))
        assert type(w.d) is int
        save_witness(w, tmp_path / "w.json")
        assert load_witness(tmp_path / "w.json").d == 2

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_constant_has_the_frozen_letter_alone(self, d, tmp_path):
        # n = 0 once needed a second matrix, so bitstring_witness((), d) raised.
        w = bitstring_witness((), d)
        assert w.n == 0 and w.A.shape == (1, 1, 1)
        assert verify_bb(w, 1e-12)["pass"]
        save_witness(w, tmp_path / "w.json")
        assert evaluate_on_witness(Polynomial(0, {(): 0.7}), load_witness(tmp_path / "w.json")) == 0.7

    def test_needs_the_frozen_letter(self):
        with pytest.raises(ValueError, match="need the matrix of the frozen letter"):
            Witness(d=0, u=np.ones(1), v=np.ones(1), A=np.ones((0, 1, 1)))


class TestVerifyBb:
    def test_bitstring_example(self):
        w = bitstring_witness((-1, 1), 2)
        report = verify_bb(w, 0.0)
        assert report["pass"]
        assert report["max_relation_violation"] == 0.0
        assert report["max_contraction_excess"] == 0.0
        assert report["unit_norm_error"] == 0.0

    def test_all_bitstrings_pass(self):
        for n, d in ((2, 2), (3, 3)):
            for x in all_points(n):
                assert verify_bb(bitstring_witness(x, d), 0.0)["pass"]

    def test_constructed_witness_passes(self):
        cert = homogeneous_fcb_witness(degree_part(maj3(), 3))
        assert verify_bb(cert.witness, 1e-9)["pass"]

    def test_scaled_matrix_fails(self):
        a = np.stack([2.0 * np.eye(2), np.eye(2), np.eye(2)])
        w = Witness(d=2, u=np.array([1.0, 0.0]), v=np.array([1.0, 0.0]), A=a)
        report = verify_bb(w, 1e-9)
        assert not report["pass"]
        assert report["max_contraction_excess"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "seed, n, d, m, expected",
        [
            (0, 2, 2, 2, (0.5211480459121912, 0.0, 2.220446049250313e-16)),
            (1, 3, 3, 3, (0.46682232112962246, 0.728003248935601, 1.1102230246251565e-16)),
            (2, 5, 4, 2, (1.0890308578019459, 0.2617761179460989, 1.1102230246251565e-16)),
        ],
    )
    def test_pinned_reports(self, seed, n, d, m, expected):
        # Pinned from a per-word loop that compared each word with its class's first word.
        rng = np.random.default_rng(seed)
        a = 0.5 * rng.standard_normal((n + 1, m, m))
        u = rng.standard_normal(m)
        v = rng.standard_normal(m)
        report = verify_bb(Witness(d=d, u=u / np.linalg.norm(u), v=v / np.linalg.norm(v), A=a), 1e-9)
        violation, excess, unit = expected
        assert report == {
            "max_relation_violation": violation,
            "max_contraction_excess": excess,
            "unit_norm_error": unit,
            "pass": False,
        }

    def test_relation_violation_detected(self):
        # A(1) not commuting with itself across the class of () at d=2
        a = np.stack([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        w = Witness(d=2, u=np.array([1.0, 0.0]), v=np.array([1.0, 0.0]), A=a)
        report = verify_bb(w, 1e-9)
        # <u, A1 A1 v> = 0 but <u, A2 A2 v> = 1 share the empty class
        assert report["max_relation_violation"] == pytest.approx(1.0)
        assert not report["pass"]


class TestEvaluateOnWitness:
    def test_bitstring_collapse(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            p = random_poly(rng, n, min(n, d), 5)
            for x in all_points(n):
                w = bitstring_witness(x, d)
                assert evaluate_on_witness(p, w) == pytest.approx(evaluate(p, x), abs=1e-12)

    def test_halving_pair(self):
        p = Polynomial(2, {(1, 2): 1.0})
        cert = homogeneous_fcb_witness(p)
        assert evaluate_on_witness(p, cert.witness) == pytest.approx(1.0, abs=1e-12)

    def test_zero_polynomial(self):
        w = bitstring_witness((1, -1), 2)
        assert evaluate_on_witness(Polynomial(2, {}), w) == 0.0

    def test_degree_too_high(self):
        p = Polynomial(2, {(1, 2): 1.0})
        with pytest.raises(ValueError, match="degree"):
            evaluate_on_witness(p, bitstring_witness((1, 1), 1))

    def test_representative_independence(self):
        cert = homogeneous_fcb_witness(degree_part(maj3(), 3))
        w = cert.witness
        for members in parity_classes(3, 3).values():
            vals = {round(chain_value(w, word), 12) for word in members}
            assert len(vals) == 1


class TestEvaluateBmlOnMatrices:
    def test_scalar_collapse(self, rng):
        p = BlockMultilinearPolynomial(
            2, 2, {(): 0.3, ((1, 1),): -0.5, ((1, 2), (2, 1)): 1.25}
        )
        for x1 in all_points(2):
            for x2 in all_points(2):
                blocks = [[np.array([[v]]) for v in x1], [np.array([[v]]) for v in x2]]
                direct = (
                    0.3 - 0.5 * x1[0] + 1.25 * x1[1] * x2[0]
                )
                got = evaluate_bml_on_matrices(p, np.ones(1), np.ones(1), blocks)
                assert got == pytest.approx(direct, abs=1e-12)

    def test_identity_blocks(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1), (2, 1)): 1.0})
        e1 = np.array([1.0, 0.0])
        blocks = [[np.eye(2)], [np.eye(2)]]
        assert evaluate_bml_on_matrices(p, e1, e1, blocks) == 1.0

    def test_dimension_mismatch(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1), (2, 1)): 1.0})
        with pytest.raises(ValueError):
            evaluate_bml_on_matrices(p, np.ones(2), np.ones(2), [[np.eye(3)], [np.eye(3)]])

    def test_wrong_block_count(self):
        p = BlockMultilinearPolynomial(1, 2, {((1, 1),): 1.0})
        with pytest.raises(ValueError):
            evaluate_bml_on_matrices(p, np.ones(1), np.ones(1), [[np.eye(1)]])

    def test_wrong_stack_shape_names_expected_shape(self):
        p = BlockMultilinearPolynomial(2, 2, {((1, 1), (2, 2)): 1.0})
        with pytest.raises(ValueError, match=re.escape("(2, 2, 3, 3)")):
            evaluate_bml_on_matrices(p, np.ones(3), np.ones(3), np.zeros((2, 1, 3, 3)))

    def test_keeps_no_suffix_cache(self, rng):
        # (n, d, s) = (4, 7, 4): 16,384 coefficients on m = 170.  A cache of every
        # distinct suffix would peak at several times the 6.5 MB witness.
        indices = itertools.product(range(1, 5), repeat=7)
        p = BlockMultilinearPolynomial(4, 7, {tuple(zip(range(1, 8), idx)): float(rng.standard_normal()) for idx in indices})
        w = bml_homogeneous_witness(p, 4).witness
        tracemalloc.start()
        try:
            evaluate_bml_on_matrices(p, w.u, w.v, w.A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.A.nbytes


def chain_reference(A, word, vec):
    """A(w_1)...A(w_s) vec for 1-based letters, one chain per word, applied right to left."""
    out = vec
    for letter in reversed(word):
        out = A[letter - 1] @ out
    return out


class TestChainEvaluator:
    """Every evaluator equals a chain of its own per word, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_word_lists(self, data, n, m, seed):
        # Repeated suffixes, duplicate words and the empty word all occur over n <= 3.
        words = data.draw(st.lists(st.lists(st.integers(0, n), max_size=5).map(tuple), max_size=12))
        rng = np.random.default_rng(seed)
        u, v, a = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal((n + 1, m, m))
        expected = [float(u @ chain_reference(a, [x + 1 for x in word], v)) for word in words]
        assert _chain_values(u, v, a, words) == expected
        w = Witness(d=0, u=u, v=v, A=a)
        assert [chain_value(w, [x + 1 for x in word]) for word in words] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(), n=st.integers(1, 3), m=st.integers(1, 4), d=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_on_witness(self, data, n, m, d, seed):
        subsets = [s for r in range(min(n, d) + 1) for s in itertools.combinations(range(1, n + 1), r)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(subsets), max_size=len(subsets)))
        rng = np.random.default_rng(seed)
        p = Polynomial(n, {s: float(rng.standard_normal()) for s, k in zip(subsets, keep) if k})
        w = Witness(d=d, u=rng.standard_normal(m), v=rng.standard_normal(m), A=rng.standard_normal((n + 1, m, m)))
        total = 0.0
        for s, c in p.coeffs.items():
            total += c * float(w.u @ chain_reference(w.A, canonical_word(s, d, n), w.v))
        assert evaluate_on_witness(p, w) == total

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(), n=st.integers(1, 3), m=st.integers(1, 4), d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_bml_on_matrices(self, data, n, m, d, seed):
        # Mixed degrees with a constant term, and the zero polynomial when nothing is kept.
        keys = [
            tuple(zip(blocks, idx))
            for r in range(d + 1)
            for blocks in itertools.combinations(range(1, d + 1), r)
            for idx in itertools.product(range(1, n + 1), repeat=r)
        ]
        keep = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        rng = np.random.default_rng(seed)
        p = BlockMultilinearPolynomial(n, d, {key: float(rng.standard_normal()) for key, k in zip(keys, keep) if k})
        u, v, a = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal((d, n, m, m))
        total = 0.0
        for key, c in p.coeffs.items():
            vec = v
            for b, i in reversed(key):
                vec = a[b - 1, i - 1] @ vec
            total += c * float(u @ vec)
        assert evaluate_bml_on_matrices(p, u, v, a) == total
