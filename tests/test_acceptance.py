"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fcblab import (
    BlockMultilinearPolynomial,
    Polynomial,
    bml_general_witness,
    bml_homogeneous_witness,
    bml_influences,
    bml_variance,
    contraction_check,
    degree_part,
    evaluate,
    extract_witness,
    fcb_norm,
    greedy_simulate,
    homogeneous_fcb_witness,
    parity_algorithm,
    random_algorithm,
    restrict,
    spectral_l1,
    statistics,
    sup_norm_bruteforce,
    verify_bb,
)
from fcblab.qsim import extract_polynomial
from fcblab.sdp import build_fcb_sdp, solve_sdp

from conftest import (
    all_points,
    random_homogeneous,
    random_homogeneous_bml,
    random_nonhomogeneous_bml,
)


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed <= budget
    if within:
        print(f"\ncriterion {num} ({label}): PASS [{elapsed:.1f}s]")
    else:
        print(f"\ncriterion {num} ({label}): FAIL [{elapsed:.1f}s, budget {budget:.0f}s]")
    assert within, f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def test_criterion_1_homogeneous_fcb_certificates():
    rng = np.random.default_rng(101)
    with criterion(1, "homogeneous fcb certificates", budget=30.0):
        for _ in range(100):
            p = random_homogeneous(rng, n_max=5, d_max=4)
            st = statistics(p)
            cert = homogeneous_fcb_witness(p)
            report = verify_bb(cert.witness, 1e-9)
            assert report["pass"], report
            for i in range(p.n + 1):
                assert contraction_check(cert.witness.A[i], 1e-12)["pass"]
            target = st.variance / math.sqrt(st.max_influence)
            assert abs(cert.certified_value - target) <= 1e-9


def test_criterion_2_root_influence_equality():
    rng = np.random.default_rng(202)
    with criterion(2, "block-multilinear root-influence equality", budget=60.0):
        for _ in range(100):
            p = random_homogeneous_bml(rng, n_max=4, d_max=4)
            inf = bml_influences(p)
            for s in range(1, p.d + 1):
                cert = bml_homogeneous_witness(p, s)
                target = sum(math.sqrt(v) for v in inf[s - 1])
                assert abs(cert.certified_value - target) <= 1e-9
                w = cert.witness
                assert all(
                    contraction_check(w.A[b, i], 1e-9)["pass"]
                    for b in range(w.d)
                    for i in range(w.n)
                )
        for d in (1, 2, 3, 4):
            p = BlockMultilinearPolynomial(1, d, {tuple((b, 1) for b in range(1, d + 1)): 1.0})
            for s in range(1, d + 1):
                cert = bml_homogeneous_witness(p, s)
                assert cert.certified_value == 1.0
                assert cert.implied_bound == 1.0


def test_criterion_3_general_bml_bound():
    rng = np.random.default_rng(303)
    with criterion(3, "general block-multilinear bound"):
        for _ in range(50):
            p = random_nonhomogeneous_bml(rng, n_max=3, d_max=4)
            cert = bml_general_witness(p)
            pD = degree_part(p, cert.s_or_d)
            varD = bml_variance(pD)
            target = varD / math.sqrt(float(bml_influences(pD).max()))
            assert abs(cert.certified_value - target) <= 1e-9
            assert varD >= bml_variance(p) / p.d


def _criterion_4_instances():
    rng = np.random.default_rng(404)
    cases = []
    for k in range(30):
        n = int(rng.integers(1, 5))
        coeffs = {(): float(rng.standard_normal())}
        for i in range(1, n + 1):
            coeffs[(i,)] = float(rng.standard_normal())
        cases.append((f"deg1-{k:02d}", Polynomial(n, coeffs), 1, None))
    cases.append(("x1", Polynomial(1, {(1,): 1.0}), 1, 1.0))
    cases.append(("x1x2", Polynomial(2, {(1, 2): 1.0}), 2, 1.0))
    return cases


def test_criterion_4_sdp_anchors():
    with criterion(4, "SDP correctness anchors", budget=120.0):
        for name, p, d, known in _criterion_4_instances():
            value = fcb_norm(p, d)
            if name == "x1":
                assert abs(value - 1.0) <= 1e-4, name
            elif name == "x1x2":
                assert abs(value - 1.0) <= 1e-3, name
            else:
                assert abs(value - spectral_l1(p)) <= 1e-4, (name, value, spectral_l1(p))


def test_criterion_5_sandwich_monotonicity_restriction():
    rng = np.random.default_rng(505)
    with criterion(5, "sandwich + monotonicity + restriction", budget=600.0):
        for k in range(30):
            n = int(rng.integers(2, 4))
            monos = [s for r in range(3) for s in itertools.combinations(range(1, n + 1), r)]
            picks = rng.choice(len(monos), size=min(5, len(monos)), replace=False)
            p = Polynomial(n, {monos[j]: float(rng.standard_normal()) for j in sorted(picks)})
            v2 = fcb_norm(p, 2)
            assert sup_norm_bruteforce(p) <= v2 + 1e-4, k
            assert v2 <= spectral_l1(p) + 1e-4, k
            v3 = fcb_norm(p, 3)
            assert v3 <= v2 + 1e-4, k
            for i in range(1, n + 1):
                for y in (1, -1):
                    assert fcb_norm(restrict(p, i, y), 2) <= v2 + 1e-4, (k, i, y)


def test_criterion_6_query_algorithm_forward_direction():
    with criterion(6, "d-query output has degree <= 2d and fcb <= 1", budget=300.0):
        for seed in range(20):
            alg = random_algorithm(2, 1, 1 + seed % 2, seed)
            table = {x: __import__("fcblab").run(alg, x) for x in all_points(2)}
            from fcblab import fourier_transform

            raw = fourier_transform(table, 2)
            assert all(abs(c) <= 1e-9 for s, c in raw.coeffs.items() if len(s) > 2), seed
            p = extract_polynomial(alg)
            assert p.degree <= 2
            assert fcb_norm(p, 2) <= 1.0 + 1e-3, seed
        parity = parity_algorithm()
        p = extract_polynomial(parity)
        assert abs(p.coeffs.get((1, 2), 0.0) - 1.0) <= 1e-10
        assert all(abs(c) <= 1e-10 for s, c in p.coeffs.items() if s != (1, 2))
        value = fcb_norm(p, 2)
        assert abs(value - 1.0) <= 1e-3


def test_criterion_7_witness_sdp_consistency():
    with criterion(7, "extracted witnesses reproduce SDP values"):
        for name, p, d, _ in _criterion_4_instances():
            prob = build_fcb_sdp(p, d)
            sol = solve_sdp(prob)
            assert sol.converged, name
            w = extract_witness(sol, prob)
            report = verify_bb(w, 1e-6)
            assert report["pass"], (name, report)
            from fcblab import evaluate_on_witness

            assert abs(evaluate_on_witness(p, w) - sol.value) <= 1e-4, name


def _dyadic_bounded_poly(rng, n: int, terms: int) -> Polynomial:
    """Dyadic coefficients scaled by a power of two: exact float arithmetic."""
    monos = [s for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    picks = rng.choice(len(monos), size=min(terms, len(monos)), replace=False)
    coeffs = {}
    for j in sorted(picks):
        c = int(rng.integers(-15, 16))
        if c:
            coeffs[monos[j]] = c / 16.0
    p = Polynomial(n, coeffs)
    sup = sup_norm_bruteforce(p)
    if sup > 1.0:
        scale = 2.0 ** math.ceil(math.log2(sup))
        p = Polynomial(n, {s: c / scale for s, c in p.coeffs.items()})
    return p


def _greedy_estimates_along_path(p: Polynomial, y) -> list[float]:
    """Estimate at every budget 0..n in one pass (greedy choices are prefix-stable)."""
    estimates = [p.constant_term]
    current = p
    remaining = list(range(1, p.n + 1))
    for _ in range(p.n):
        st = statistics(current)
        if st.variance == 0.0:
            estimates.append(estimates[-1])
            continue
        j = st.argmax_variable
        orig = remaining.pop(j - 1)
        current = restrict(current, j, y[orig - 1])
        estimates.append(current.constant_term)
    return estimates


def test_criterion_8_greedy_simulation_sanity():
    rng = np.random.default_rng(808)
    with criterion(8, "greedy simulation: exact at full budget, MSE non-increasing"):
        for k in range(100):
            n = int(rng.integers(1, 9))
            p = _dyadic_bounded_poly(rng, n, terms=min(12, 2**n))
            mse = np.zeros(n + 1)
            for y in all_points(n):
                path = _greedy_estimates_along_path(p, y)
                truth = evaluate(p, y)
                assert path[n] == truth, (k, y)
                for b in range(n + 1):
                    mse[b] += (truth - path[b]) ** 2
            assert all(mse[b + 1] <= mse[b] + 1e-12 for b in range(n)), k
            # the single-pass path must agree with the public operation
            y0 = tuple(int(v) for v in rng.choice((1, -1), size=n))
            mid = int(rng.integers(0, n + 1))
            est, _ = greedy_simulate(p, y0, mid)
            assert est == _greedy_estimates_along_path(p, y0)[mid]
