"""Randomized property suites behind `fcblab check`.

Each suite emits rows (instance id, quantity, lhs, rhs, margin, pass) where
pass means lhs <= rhs; equality targets are phrased as |difference| <= tol.
An SDP row compares a certified end of fcb_interval with the opposite end or
with an exact bound (lower(q) <= upper(p), sup <= upper, lower <= l1), so no
row carries a slack; the ends are sound up to the rounding of the computed
eigenvalues, for which no bound is proven yet.
Every suite is deterministic given the seed and prepends fixed edge cases
(zero polynomial, constant, single monomial) where they make sense, so
`check all` covers the degenerate corpus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .behavior import verify_bb
from .poly import (
    BlockMultilinearPolynomial,
    Polynomial,
    restrict,
    spectral_l1,
    statistics,
    sup_norm_bruteforce,
)
from .sdp import fcb_interval, fcb_norm
from .witnesses import homogeneous_fcb_witness

DEFAULT_SEED = 20240101
CERT_TOL = 1e-9
CONTRACTION_TOL = 1e-12


@dataclass(frozen=True)
class CheckRow:
    instance: str
    quantity: str
    lhs: float
    rhs: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs)


def random_poly(rng: np.random.Generator, n: int, max_deg: int, terms: int) -> Polynomial:
    monomials = [s for r in range(max_deg + 1) for s in itertools.combinations(range(1, n + 1), r)]
    chosen = rng.choice(len(monomials), size=min(terms, len(monomials)), replace=False)
    return Polynomial(n, {monomials[k]: float(rng.standard_normal()) for k in sorted(chosen)})


def random_homogeneous(rng: np.random.Generator, n_max: int, d_max: int) -> Polynomial:
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, min(d_max, n) + 1))
    coeffs = {s: float(rng.standard_normal()) for s in itertools.combinations(range(1, n + 1), d)}
    scale = np.sqrt(sum(c * c for c in coeffs.values()))
    return Polynomial(n, {s: c / scale for s, c in coeffs.items()})


def random_homogeneous_bml(
    rng: np.random.Generator, n_max: int, d_max: int
) -> BlockMultilinearPolynomial:
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    coeffs = {
        tuple(zip(range(1, d + 1), idx)): float(rng.standard_normal())
        for idx in itertools.product(range(1, n + 1), repeat=d)
    }
    return BlockMultilinearPolynomial(n, d, coeffs)


def suite_monotonicity(seed: int, trials: int = 6) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    cases = [("edge-zero", Polynomial(2, {})), ("edge-constant", Polynomial(2, {(): 0.7}))]
    cases += [(f"mono-{k:03d}", random_poly(rng, 2, 1, 3)) for k in range(trials)]
    return [CheckRow(name, "fcb_monotone_d1_d2", fcb_norm(p, 2), fcb_interval(p, 1)[1]) for name, p in cases]


def suite_restriction(seed: int, trials: int = 5) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(trials):
        p = random_poly(rng, 3, 2, 5)
        upper = fcb_interval(p, 2)[1]
        for i in range(1, 4):
            for y in (1, -1):
                lower = fcb_norm(restrict(p, i, y), 2)
                rows.append(CheckRow(f"restr-{k:03d}-x{i}={y:+d}", "fcb_restriction", lower, upper))
    return rows


def suite_sandwich(seed: int, trials: int = 8) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = []
    edges = [
        ("edge-zero", Polynomial(2, {})),
        ("edge-constant", Polynomial(2, {(): -0.4})),
        ("edge-monomial", Polynomial(2, {(1, 2): 1.0})),
    ]
    cases = edges + [(f"sand-{k:03d}", random_poly(rng, 2, 2, 4)) for k in range(trials)]
    for name, p in cases:
        lower, upper = fcb_interval(p, 2)
        rows.append(CheckRow(name, "sup_le_fcb", sup_norm_bruteforce(p), upper))
        rows.append(CheckRow(name, "fcb_le_l1", lower, spectral_l1(p)))
    return rows


def suite_certificates(seed: int, trials: int = 100) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = []
    cases = [("edge-monomial", Polynomial(3, {(1, 2, 3): 1.0}))]
    cases += [(f"cert-{k:03d}", random_homogeneous(rng, 4, 3)) for k in range(trials - 1)]
    for name, p in cases:
        cert = homogeneous_fcb_witness(p)
        report = verify_bb(cert.witness, CERT_TOL)
        st = statistics(p)
        target = st.variance / np.sqrt(st.max_influence)
        rows.append(CheckRow(name, "verify_bb_violation", report["max_relation_violation"], CERT_TOL))
        rows.append(CheckRow(name, "contraction_excess", report["max_contraction_excess"], CONTRACTION_TOL))
        rows.append(CheckRow(name, "value_vs_target", abs(cert.certified_value - target), CERT_TOL))
    return rows


def suite_simulator(seed: int, trials: int = 10) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = []
    par = qsim.parity_algorithm()
    p_par = qsim.extract_polynomial(par)
    errors = [abs(p_par.coeffs.get((1, 2), 0.0) - 1.0)] + [abs(c) for s, c in p_par.coeffs.items() if s != (1, 2)]
    rows.append(CheckRow("edge-parity", "parity_coefficients", max(errors), 1e-10))
    # fcb(x1 x2) = 1, and |fcb(p) - fcb(x1 x2)| <= fcb(p - x1 x2) <= ||p - x1 x2||_1 = sum(errors).
    lower, upper = fcb_interval(p_par, 2)
    rows.append(CheckRow("edge-parity", "parity_fcb_near_1", max(lower - 1.0, 1.0 - upper), sum(errors)))
    for k in range(trials):
        alg = qsim.random_algorithm(2, 1, int(rng.integers(1, 3)), int(rng.integers(0, 2**31)))
        p = qsim.extract_polynomial(alg)
        rows.append(CheckRow(f"sim-{k:03d}", "degree_le_2d", float(p.degree), 2.0))
        worst = max(abs(qsim.run(alg, x)) for x in itertools.product((1, -1), repeat=2))
        rows.append(CheckRow(f"sim-{k:03d}", "output_normalized", worst, 1.0 + 1e-9))
        if k < 3:
            rows.append(CheckRow(f"sim-{k:03d}", "fcb_le_1", fcb_norm(p, 2), 1.0))
    return rows


def suite_hierarchy(seed: int, trials: int = 1) -> list[CheckRow]:
    """Decreasing-levels experiment; the limit fcb_n = sup is reported, not asserted."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(trials):
        p = random_poly(rng, 3, 2, 5)
        sup = sup_norm_bruteforce(p)
        ends = {d: fcb_interval(p, d) for d in (2, 3)}
        rows.append(CheckRow(f"hier-{k:03d}", "fcb_monotone_d2_d3", ends[3][0], ends[2][1]))
        for d, (_, upper) in ends.items():
            rows.append(CheckRow(f"hier-{k:03d}", f"sup_le_fcb_d{d}", sup, upper))
        gap = ends[3][0] - sup
        rows.append(CheckRow(f"hier-{k:03d}", "gap_at_top_level_report", gap, gap))
    return rows


_SUITE_FUNCS = {
    "monotonicity": suite_monotonicity,
    "restriction": suite_restriction,
    "sandwich": suite_sandwich,
    "certificates": suite_certificates,
    "simulator": suite_simulator,
    "hierarchy": suite_hierarchy,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, seed: int = DEFAULT_SEED, trials: int | None = None) -> list[CheckRow]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    names = list(_SUITE_FUNCS) if name == "all" else [name]
    rows: list[CheckRow] = []
    for suite in names:
        func = _SUITE_FUNCS[suite]
        rows.extend(func(seed) if trials is None else func(seed, trials=trials))
    return rows


def summarize(rows: list[CheckRow]) -> dict[str, tuple[int, int]]:
    summary: dict[str, list[int]] = {}
    for row in rows:
        entry = summary.setdefault(row.quantity, [0, 0])
        entry[0] += row.passed
        entry[1] += 1
    return {k: (v[0], v[1]) for k, v in summary.items()}
