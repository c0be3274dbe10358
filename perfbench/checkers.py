"""Checks of fcblab's outputs, computed apart from fcblab.

Every check here works from plain coefficient maps and arrays with its own
numpy code: enumeration of {-1,1}^n, Fourier sums, SVDs, word products and a
batched state-vector simulation.  None of them calls fcblab or compares with
a saved copy of an earlier output.  A failed check raises CheckError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SANDWICH_SLACK = 1e-4  # sup norm - slack <= SDP value <= spectral l1 + slack
MONOTONE_SLACK = 1e-4  # restriction <= parent value, d=3 value <= d=2 value, + slack
MOMENT_TOL = 1e-5  # min eigenvalue >= -tol, |M[u,u] - 1|, |M[v,v] - 1| <= tol
WITNESS_TOL = 1e-6  # unit vectors, sigma_max <= 1 + tol, class relations
WITNESS_VALUE_TOL = 1e-4  # p evaluated on an extracted witness vs the SDP value
CERT_TOL = 1e-9  # certified values and sigma_max of certificate matrices
QSIM_TOL = 1e-9  # extracted polynomial vs state-vector simulation
RESTRICT_TOL = 1e-12  # restricted coefficients vs the benchmark's own restriction


class CheckError(Exception):
    """An output of fcblab failed an independent check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@functools.lru_cache(maxsize=16)
def sign_points(n: int) -> np.ndarray:
    """All 2^n points of {-1,1}^n as rows; bit j of the row index set means x(j+1) = -1."""
    rows = np.arange(1 << n)[:, None]
    return np.where((rows >> np.arange(n)) & 1, -1.0, 1.0)


def evaluate_everywhere(coeffs: dict, n: int) -> np.ndarray:
    """p(x) at every row of sign_points(n), as a direct sum over monomials."""
    pts = sign_points(n)
    total = np.zeros(pts.shape[0])
    for subset, c in coeffs.items():
        total += c * np.prod(pts[:, [i - 1 for i in subset]], axis=1)
    return total


def check_sandwich(coeffs: dict, n: int, value: float) -> None:
    sup = float(np.max(np.abs(evaluate_everywhere(coeffs, n))))
    l1 = sum(abs(c) for c in coeffs.values())
    _require(
        sup - SANDWICH_SLACK <= value <= l1 + SANDWICH_SLACK,
        f"value {value!r} outside [sup {sup!r}, l1 {l1!r}] by more than {SANDWICH_SLACK}",
    )


def check_moment(moment: np.ndarray, v_index: int) -> None:
    sym = 0.5 * (moment + moment.T)
    low = float(np.linalg.eigvalsh(sym)[0])
    _require(low >= -MOMENT_TOL, f"moment matrix has eigenvalue {low:.3e}")
    diag = max(abs(sym[0, 0] - 1.0), abs(sym[v_index, v_index] - 1.0))
    _require(diag <= MOMENT_TOL, f"u/v diagonal differs from 1 by {diag:.3e}")


def check_at_most(value: float, limit: float, what: str) -> None:
    _require(value <= limit + MONOTONE_SLACK, f"{what} {value!r} exceeds {limit!r}")


def restrict_coeffs(coeffs: dict, i: int, y: int) -> dict:
    """Fix x(i) = y and renumber the variables above i down by one."""
    out: dict = {}
    for subset, c in coeffs.items():
        key = tuple(j - (j > i) for j in subset if j != i)
        out[key] = out.get(key, 0.0) + (y * c if i in subset else c)
    return out


def check_coeffs_equal(got: dict, want: dict, tol: float, what: str) -> None:
    for key in set(got) | set(want):
        diff = abs(got.get(key, 0.0) - want.get(key, 0.0))
        _require(diff <= tol, f"{what}: coefficient {key} differs by {diff:.3e}")


def check_unit_vectors(u: np.ndarray, v: np.ndarray, tol: float) -> None:
    err = max(abs(np.linalg.norm(u) - 1.0), abs(np.linalg.norm(v) - 1.0))
    _require(err <= tol, f"u or v is off unit length by {err:.3e}")


def check_contractions(mats: np.ndarray, tol: float) -> np.ndarray:
    """sigma_max of every square matrix of a stack, by SVD; each must be <= 1 + tol."""
    stack = np.asarray(mats, dtype=float)
    sigmas = np.linalg.svd(stack.reshape((-1,) + stack.shape[-2:]), compute_uv=False)[:, 0]
    worst = float(sigmas.max())
    _require(worst <= 1.0 + tol, f"a matrix has sigma_max {worst!r} > 1 + {tol}")
    return sigmas.reshape(stack.shape[:-2])


def check_class_relations(u: np.ndarray, v: np.ndarray, A: np.ndarray, d: int, tol: float) -> None:
    """<u, A(w_1)...A(w_d) v> must agree over every parity class of length-d words.

    A has n+1 matrices; letter n+1 is frozen and does not count toward the class.
    """
    letters = A.shape[0]
    n = letters - 1
    if d == 0:
        return
    # Columns of `suffix` are A(w_2)...A(w_d) v over words w_2..w_d in lexicographic order.
    suffix = v[:, None]
    for _ in range(d - 1):
        suffix = np.concatenate([A[i] @ suffix for i in range(letters)], axis=1)
    values = (np.stack([u @ A[i] for i in range(letters)]) @ suffix).reshape(-1)
    index = np.arange(letters**d)
    classes = np.zeros(index.size, dtype=np.int64)
    for position in range(d):
        letter = (index // letters ** (d - 1 - position)) % letters
        classes ^= np.where(letter < n, np.int64(1) << letter, 0)
    order = np.argsort(classes, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(classes[order]) != 0])
    spread = np.maximum.reduceat(values[order], starts) - np.minimum.reduceat(values[order], starts)
    worst = float(spread.max())
    _require(worst <= tol, f"class relations violated by {worst:.3e}")


def witness_value(coeffs: dict, n: int, d: int, u: np.ndarray, v: np.ndarray, A: np.ndarray) -> float:
    """sum_S p_hat(S) <u, A(S ascending, padded with n+1 to length d) v>."""
    total = 0.0
    for subset, c in coeffs.items():
        vec = v
        for letter in reversed(tuple(subset) + (n + 1,) * (d - len(subset))):
            vec = A[letter - 1] @ vec
        total += c * float(u @ vec)
    return total


def check_extracted_witness(coeffs: dict, n: int, d: int, u, v, A, sdp_value: float) -> None:
    check_unit_vectors(u, v, WITNESS_TOL)
    check_contractions(A, WITNESS_TOL)
    check_class_relations(u, v, A, d, WITNESS_TOL)
    value = witness_value(coeffs, n, d, u, v, A)
    _require(
        abs(value - sdp_value) <= WITNESS_VALUE_TOL,
        f"p on the witness gives {value!r}, the SDP gave {sdp_value!r}",
    )


def fourier_statistics(coeffs: dict, n: int) -> tuple[float, list[float]]:
    """Variance and the influence of each variable, from squared coefficients."""
    variance = sum(c * c for s, c in coeffs.items() if s)
    influences = [sum(c * c for s, c in coeffs.items() if i in s) for i in range(1, n + 1)]
    return variance, influences


def check_statistics(coeffs: dict, n: int, variance: float, influences) -> None:
    want_var, want_inf = fourier_statistics(coeffs, n)
    err = max([abs(variance - want_var)] + [abs(a - b) for a, b in zip(influences, want_inf)])
    _require(len(influences) == n and err <= CERT_TOL, f"statistics differ by {err:.3e}")


def check_certified_value(value: float, expected: float) -> None:
    _require(
        abs(value - expected) <= CERT_TOL,
        f"certified value {value!r} differs from the Fourier sum {expected!r}",
    )


def check_homogeneous_certificate(coeffs: dict, n: int, value: float, u, v, A) -> None:
    variance, influences = fourier_statistics(coeffs, n)
    check_certified_value(value, variance / math.sqrt(max(influences)))
    check_unit_vectors(u, v, CERT_TOL)
    check_contractions(A, CERT_TOL)


def check_bml_certificate(coeffs: dict, n: int, d: int, s: int, value: float, u, v, A, sigmas) -> None:
    """Block-multilinear witness for block s certifies sum_i sqrt(Inf_{s,i})."""
    inf_s = [0.0] * n
    for key, c in coeffs.items():
        for block, i in key:
            if block == s:
                inf_s[i - 1] += c * c
    check_certified_value(value, sum(math.sqrt(x) for x in inf_s))
    check_unit_vectors(u, v, CERT_TOL)
    own = check_contractions(A, CERT_TOL)
    err = float(np.max(np.abs(own - np.asarray(sigmas))))
    _require(err <= CERT_TOL, f"contraction_check sigma differs from SVD by {err:.3e}")


def simulate_everywhere(unitaries, observable: np.ndarray, n: int, w: int) -> np.ndarray:
    """Output of the phase-oracle algorithm at every row of sign_points(n), batched."""
    pts = sign_points(n)
    phases = np.repeat(np.hstack([pts, np.ones((pts.shape[0], 1))]), w, axis=1)
    states = np.tile(unitaries[0][:, 0], (pts.shape[0], 1))
    for unitary in unitaries[1:]:
        states = (phases * states) @ unitary.T
    return np.real(np.sum(states.conj() * (states @ observable.T), axis=1))


def check_qsim_polynomial(coeffs: dict, n: int, queries: int, unitaries, observable, w: int) -> None:
    degree = max((len(s) for s in coeffs), default=0)
    _require(degree <= 2 * queries, f"degree {degree} exceeds 2q = {2 * queries}")
    diff = evaluate_everywhere(coeffs, n) - simulate_everywhere(unitaries, observable, n, w)
    worst = float(np.max(np.abs(diff)))
    _require(worst <= QSIM_TOL, f"polynomial differs from the simulation by {worst:.3e}")
