"""Tests of the benchmark's own checkers: each must accept a right answer and reject a wrong one.

    python3 perfbench/selftest.py

The right answers come from fcblab on small inputs; each wrong answer
changes one thing: a value moved outside the sandwich, a witness matrix
scaled past sigma 1, a witness whose class relations are broken with its
contractions intact, a certified value or a polynomial coefficient moved.
Prints one line per check and exits 1 if any checker let a wrong answer pass.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checkers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, check, *, accepts: bool) -> None:
    try:
        check()
        accepted = True
    except checkers.CheckError:
        accepted = False
    ok = accepted == accepts
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {'accepted' if accepted else 'rejected'}")
    if not ok:
        FAILURES.append(name)


def orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q


def main() -> int:
    rng = np.random.default_rng(7)
    tracer = Tracer(False)

    # SDP value: the sandwich sup norm <= value <= spectral l1.
    p = workloads.CHSH
    family: dict = {}
    solve = workloads.solve_op(p, 2, family)
    prob, sol = solve.run(tracer)
    solve.check((prob, sol))
    sup = float(np.max(np.abs(checkers.evaluate_everywhere(p.coeffs, p.n))))
    l1 = sum(abs(c) for c in p.coeffs.values())
    expect("sandwich, solved value", lambda: checkers.check_sandwich(p.coeffs, p.n, sol.value), accepts=True)
    expect("sandwich, below sup norm", lambda: checkers.check_sandwich(p.coeffs, p.n, sup - 1e-3), accepts=False)
    expect("sandwich, above spectral l1", lambda: checkers.check_sandwich(p.coeffs, p.n, l1 + 1e-3), accepts=False)
    bad_moment = sol.moment.copy()
    bad_moment[0, 0] += 1e-3
    expect("moment, u diagonal moved", lambda: checkers.check_moment(bad_moment, prob.word_index[()]), accepts=False)
    expect(
        "restriction above its parent",
        lambda: checkers.check_at_most(sol.value + 1e-3, sol.value, "restriction value"),
        accepts=False,
    )

    # Extracted witness: unit vectors, contractions, class relations, value.
    w, value = workloads.extraction_op(p, family).run(tracer)
    expect(
        "extracted witness",
        lambda: checkers.check_extracted_witness(p.coeffs, p.n, w.d, w.u, w.v, w.A, value),
        accepts=True,
    )
    scaled = w.A.copy()
    scaled[0] *= 1.01 / np.linalg.norm(scaled[0], 2)
    expect("witness matrix with sigma > 1", lambda: checkers.check_contractions(scaled, checkers.WITNESS_TOL), accepts=False)
    # Rotating A(1) keeps it a contraction but breaks <u, A(1)A(1) v> = <u, A(5)A(5) v>.
    rotated = w.A.copy()
    rotated[0] = orthogonal(rng, w.m) @ rotated[0]
    expect("witness contractions after a rotation", lambda: checkers.check_contractions(rotated, checkers.WITNESS_TOL), accepts=True)
    expect(
        "witness with a broken class relation",
        lambda: checkers.check_class_relations(w.u, w.v, rotated, w.d, checkers.WITNESS_TOL),
        accepts=False,
    )
    expect(
        "witness value off the SDP value",
        lambda: checkers.check_extracted_witness(p.coeffs, p.n, w.d, w.u, w.v, w.A, value + 1e-3),
        accepts=False,
    )

    # Certificates: certified value against the Fourier sums, sigma <= 1 by SVD.
    hom = workloads.Polynomial(4, {(1, 2): 0.6, (2, 3): 0.48, (3, 4): 0.64})
    hom_op = workloads.homogeneous_op(hom)
    st, cert, report = hom_op.run(tracer)
    expect("homogeneous certificate", lambda: hom_op.check((st, cert, report)), accepts=True)
    cw = cert.witness
    expect(
        "homogeneous certificate, value moved by 1e-8",
        lambda: checkers.check_homogeneous_certificate(
            hom.coeffs, hom.n, cert.certified_value + 1e-8, cw.u, cw.v, cw.A
        ),
        accepts=False,
    )
    big = cw.A.copy()
    big[1] *= 1.0 + 1e-6
    expect(
        "homogeneous certificate, a matrix with sigma > 1",
        lambda: checkers.check_homogeneous_certificate(hom.coeffs, hom.n, cert.certified_value, cw.u, cw.v, big),
        accepts=False,
    )

    bml = workloads.BlockMultilinearPolynomial(2, 2, {((1, 1), (2, 1)): 0.6, ((1, 2), (2, 1)): 0.8})
    bml_op = workloads.bml_op(bml)
    certs = bml_op.run(tracer)
    expect("block-multilinear certificates", lambda: bml_op.check(certs), accepts=True)
    s_block, bcert, reports = certs[0]
    moved_cert = [(s_block, dataclasses.replace(bcert, certified_value=bcert.certified_value + 1e-8), reports)]
    expect("block-multilinear certificate, value moved by 1e-8", lambda: bml_op.check(moved_cert), accepts=False)

    # qsim: the extracted polynomial against the benchmark's own simulation.
    q_op = workloads.qsim_op(rng, 4, 2, 1)
    poly = q_op.run(tracer)
    expect("qsim polynomial", lambda: q_op.check(poly), accepts=True)
    changed = dict(poly.coeffs)
    key = next(iter(changed))
    changed[key] += 1e-6
    expect(
        "qsim polynomial with one coefficient changed",
        lambda: q_op.check(workloads.Polynomial(poly.n, changed)),
        accepts=False,
    )
    restricted = checkers.restrict_coeffs(p.coeffs, 1, -1)
    moved = dict(restricted)
    moved[next(iter(moved))] += 1e-9
    expect(
        "restriction with one coefficient changed",
        lambda: checkers.check_coeffs_equal(moved, restricted, checkers.RESTRICT_TOL, "restrict"),
        accepts=False,
    )

    print(f"{len(FAILURES)} checker(s) let a wrong answer pass" if FAILURES else "all checkers live")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
