"""The three workloads: their inputs, their operations and the checks on each output.

A run repeats whole rounds.  Every round of a workload makes the same
operations on inputs of the same make-up, so the share of failed operations
and the mix of work do not depend on the seed or on how many rounds a run
completes.

Every round of sdp_restrict solves the same fixed panel of polynomials,
each with its variables relabelled and their signs flipped afresh from the
seed.  The fcb norm is invariant under both maps, so every round asks the
solver for about the same work on different matrices.  Fresh random
polynomials would make the work per run vary by more than the benchmark's
bounds, because the iteration count to tol 1e-6 varies by about 20% between
instances.  The certify_qsim workload draws fresh coefficients and unitaries
from the seed on every round, over a fixed list of shapes, since its cost
depends on the shapes alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checkers
from fcblab import (
    BlockMultilinearPolynomial,
    Polynomial,
    QueryAlgorithm,
    bml_homogeneous_witness,
    build_fcb_sdp,
    contraction_check,
    extract_polynomial,
    extract_witness,
    homogeneous_fcb_witness,
    restrict,
    solve_sdp,
    statistics,
    verify_bb,
)
from tracing import Tracer

RESTRICT_PANEL_SEED = 1711072851
PANEL_SIZE = 3

# A degree-2 polynomial whose d=2 extraction is refused on every run: its
# optimum is rank-deficient and the solve at tol 1e-6 leaves the small
# directions unresolved ("letter 1: singular value exceeds 1 by 8.69e-02").
REFUSED = Polynomial(3, {(): -2.0, (1,): -1.0, (1, 3): 0.5})
# CHSH; its d=2 value is Tsirelson's bound sqrt(2), and its extraction succeeds.
CHSH = Polynomial(4, {(1, 3): 0.5, (1, 4): 0.5, (2, 3): 0.5, (2, 4): -0.5})
CHSH_VALUE = float(np.sqrt(2.0))

HOMOGENEOUS_SHAPES = ((8, 3), (11, 3), (9, 4), (10, 4))  # (n, d)
BML_SHAPES = ((5, 3), (4, 4))  # (n, d); one operation certifies every block s
QSIM_SHAPES = ((8, 1, 2), (11, 2, 1), (11, 3, 1))  # (n, queries, workspace)


@dataclass
class Op:
    """One timed call sequence into fcblab and the untimed check of its output."""

    run: Callable[[Tracer], object]
    check: Callable[[object], None]
    extraction: bool = False


def random_polynomial(rng: np.random.Generator, n: int, max_degree: int, terms: int) -> Polynomial:
    monomials = [s for r in range(max_degree + 1) for s in itertools.combinations(range(1, n + 1), r)]
    picks = rng.choice(len(monomials), size=min(terms, len(monomials)), replace=False)
    return Polynomial(n, {monomials[k]: float(rng.standard_normal()) for k in sorted(picks)})


def relabel(p: Polynomial, rng: np.random.Generator) -> Polynomial:
    """x(i) -> sign(i) * x(perm(i)); leaves every fcb norm unchanged."""
    perm = rng.permutation(p.n) + 1
    signs = rng.choice([-1.0, 1.0], size=p.n)
    coeffs = {}
    for subset, c in p.coeffs.items():
        coeffs[tuple(sorted(int(perm[i - 1]) for i in subset))] = c * float(np.prod(signs[[i - 1 for i in subset]]))
    return Polynomial(p.n, coeffs)


def _panel(seed: int, n: int, max_degree: int) -> list[Polynomial]:
    rng = np.random.default_rng(seed)
    return [random_polynomial(rng, n, max_degree, 5) for _ in range(PANEL_SIZE)]


RESTRICT_PANELS = (_panel(RESTRICT_PANEL_SEED, 3, 2), _panel(RESTRICT_PANEL_SEED + 1, 4, 2))


def _solve(tracer: Tracer, p: Polynomial, d: int):
    with tracer.span("sdp.build"):
        prob = build_fcb_sdp(p, d)
    with tracer.span("sdp.solve") as info:
        sol = solve_sdp(prob)
        info["iterations"] = sol.iterations
        info["d"] = d
    return prob, sol


def _check_solution(p: Polynomial, prob, sol) -> None:
    if not sol.converged:
        raise checkers.CheckError(f"solve did not converge in {sol.iterations} iterations")
    checkers.check_sandwich(p.coeffs, p.n, sol.value)
    checkers.check_moment(sol.moment, prob.word_index[()])


def solve_op(p: Polynomial, d: int, family: dict, known_value: float | None = None) -> Op:
    """build_fcb_sdp + solve_sdp; the family keeps the solution for later operations."""

    def check(result) -> None:
        prob, sol = result
        family["solution"] = (prob, sol)
        _check_solution(p, prob, sol)
        if known_value is not None and abs(sol.value - known_value) > checkers.SANDWICH_SLACK:
            raise checkers.CheckError(f"value {sol.value!r}, known value {known_value!r}")

    return Op(lambda tracer: _solve(tracer, p, d), check)


def restriction_op(parent: Polynomial, i: int, y: int, family: dict) -> Op:
    """restrict + build_fcb_sdp + solve_sdp at d=2; the value may not exceed the parent's."""

    def run(tracer: Tracer):
        with tracer.span("poly"):
            q = restrict(parent, i, y)
        return (q,) + _solve(tracer, q, 2)

    def check(result) -> None:
        q, prob, sol = result
        want = checkers.restrict_coeffs(parent.coeffs, i, y)
        checkers.check_coeffs_equal(q.coeffs, want, checkers.RESTRICT_TOL, f"restrict x{i}={y}")
        _check_solution(q, prob, sol)
        checkers.check_at_most(sol.value, family["solution"][1].value, f"restriction x{i}={y} value")

    return Op(run, check)


def deeper_op(p: Polynomial, family: dict) -> Op:
    """build_fcb_sdp + solve_sdp at d=3 (moment dimension 86 for n=3); at most the d=2 value."""

    def check(result) -> None:
        prob, sol = result
        _check_solution(p, prob, sol)
        checkers.check_at_most(sol.value, family["solution"][1].value, "d=3 value")

    return Op(lambda tracer: _solve(tracer, p, 3), check)


def extraction_op(p: Polynomial, family: dict) -> Op:
    """extract_witness from the family's solve; ExtractionError counts as a failed operation."""

    def run(tracer: Tracer):
        prob, sol = family["solution"]
        with tracer.span("sdp.extract") as info:
            info["refused"] = 1
            witness = extract_witness(sol, prob)
            info["refused"] = 0
        return witness, sol.value

    def check(result) -> None:
        w, value = result
        checkers.check_extracted_witness(p.coeffs, p.n, w.d, w.u, w.v, w.A, value)

    return Op(run, check, extraction=True)


def restrict_round(rng: np.random.Generator) -> list[Op]:
    """Two fixed extractions and six criterion-5 families (three n=3, three n=4).

    A family solves its parent at d=2, the n=3 parents also at d=3, and each
    of the 2n restrictions at d=2.
    """
    ops: list[Op] = []
    for p, known_value in ((REFUSED, None), (CHSH, CHSH_VALUE)):
        family: dict = {}
        ops += [solve_op(p, 2, family, known_value), extraction_op(p, family)]
    for p in RESTRICT_PANELS[0] + RESTRICT_PANELS[1]:
        p = relabel(p, rng)
        family = {}
        ops.append(solve_op(p, 2, family))
        if p.n == 3:
            ops.append(deeper_op(p, family))
        ops += [restriction_op(p, i, y, family) for i in range(1, p.n + 1) for y in (1, -1)]
    return ops


def homogeneous_op(p: Polynomial) -> Op:
    """statistics + homogeneous_fcb_witness + verify_bb, as `fcblab witness --kind fcb`."""

    def run(tracer: Tracer):
        with tracer.span("poly"):
            st = statistics(p)
        with tracer.span("witnesses.build") as info:
            cert = homogeneous_fcb_witness(p)
            info["matrix_bytes"] = cert.witness.A.nbytes
        with tracer.span("behavior.verify"):
            report = verify_bb(cert.witness, checkers.CERT_TOL)
        return st, cert, report

    def check(result) -> None:
        st, cert, report = result
        w = cert.witness
        checkers.check_statistics(p.coeffs, p.n, st.variance, st.influences)
        checkers.check_homogeneous_certificate(p.coeffs, p.n, cert.certified_value, w.u, w.v, w.A)
        if not report["pass"]:
            raise checkers.CheckError(f"verify_bb rejected a certificate: {report}")

    return Op(run, check)


def bml_op(p: BlockMultilinearPolynomial) -> Op:
    """bml_homogeneous_witness for every block s + contraction_check of every matrix."""

    def run(tracer: Tracer):
        out = []
        for s in range(1, p.d + 1):
            with tracer.span("witnesses.build") as info:
                cert = bml_homogeneous_witness(p, s)
                info["matrix_bytes"] = cert.witness.A.nbytes
            w = cert.witness
            with tracer.span("linalg.contraction"):
                reports = [contraction_check(w.A[b, i], checkers.CERT_TOL) for b in range(w.d) for i in range(w.n)]
            out.append((s, cert, reports))
        return out

    def check(result) -> None:
        for s, cert, reports in result:
            w = cert.witness
            sigmas = np.reshape([r["sigma_max"] for r in reports], (w.d, w.n))
            checkers.check_bml_certificate(p.coeffs, p.n, p.d, s, cert.certified_value, w.u, w.v, w.A, sigmas)
            if not all(r["pass"] for r in reports):
                raise checkers.CheckError(f"contraction_check failed a block-{s} certificate matrix")

    return Op(run, check)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def qsim_op(rng: np.random.Generator, n: int, queries: int, w: int) -> Op:
    """QueryAlgorithm validation + extract_polynomial, on benchmark-made unitaries."""
    dim = (n + 1) * w
    unitaries = tuple(haar_unitary(rng, dim) for _ in range(queries + 1))
    basis = haar_unitary(rng, dim)
    observable = (basis * rng.choice([-1.0, 1.0], size=dim)) @ basis.conj().T
    observable = 0.5 * (observable + observable.conj().T)

    def run(tracer: Tracer):
        with tracer.span("qsim.extract"):
            alg = QueryAlgorithm(n=n, d=queries, w=w, unitaries=unitaries, observable=observable)
            return extract_polynomial(alg)

    def check(p) -> None:
        checkers.check_qsim_polynomial(p.coeffs, n, queries, unitaries, observable, w)

    return Op(run, check)


def _unit_variance(coeffs: dict) -> dict:
    scale = np.sqrt(sum(c * c for c in coeffs.values()))
    return {k: c / scale for k, c in coeffs.items()}


def certify_round(rng: np.random.Generator) -> list[Op]:
    """Homogeneous fcb certificates, block-multilinear certificates and qsim extractions."""
    ops: list[Op] = []
    for n, d in HOMOGENEOUS_SHAPES:
        coeffs = {s: float(rng.standard_normal()) for s in itertools.combinations(range(1, n + 1), d)}
        ops.append(homogeneous_op(Polynomial(n, _unit_variance(coeffs))))
    for n, d in BML_SHAPES:
        coeffs = {
            tuple(zip(range(1, d + 1), idx)): float(rng.standard_normal())
            for idx in itertools.product(range(1, n + 1), repeat=d)
        }
        p = BlockMultilinearPolynomial(n, d, _unit_variance(coeffs))
        ops.append(bml_op(p))
    ops += [qsim_op(rng, n, q, w) for n, q, w in QSIM_SHAPES]
    return ops


ROUNDS = {"sdp_restrict": restrict_round, "certify_qsim": certify_round}


def warm_up(tracer: Tracer) -> None:
    """One small call into every measured layer, so lazy first-call costs land in set-up."""
    rng = np.random.default_rng(0)
    family: dict = {}
    ops = [solve_op(CHSH, 2, family), extraction_op(CHSH, family), restriction_op(CHSH, 1, 1, family)]
    ops.append(solve_op(Polynomial(1, {(1,): 1.0}), 3, {}))
    ops.append(homogeneous_op(Polynomial(3, {(1, 2): 0.6, (2, 3): 0.8})))
    ops.append(bml_op(BlockMultilinearPolynomial(2, 2, {((1, 1), (2, 2)): 1.0})))
    ops.append(qsim_op(rng, 2, 1, 1))
    for op in ops:
        op.check(op.run(tracer))
