"""State-vector simulation of d-query quantum algorithms with a controlled phase oracle.

The register has dimension (n+1)*w: a query branch in [n+1] tensored with a
w-dimensional workspace.  The oracle multiplies branch i by x(i) for i in [n]
and leaves the (n+1)-th branch untouched, which is the controlled-query
convention behind the frozen variable.  The output on x is the expectation
of a Hermitian observable with spectrum in [-1, 1] after
U_d O_x ... U_1 O_x U_0 |0>, a multilinear polynomial of degree at most 2d.

``run`` and ``extract_polynomial`` share one simulation, which takes a
block of sign vectors at once: each step is a stack of matrix-vector
products, one per point, and each expectation its own inner product, so a
point's value is the same alone or in a block.  Extraction simulates all
2^n points in blocks of ``SIMULATION_BLOCK`` and interpolates the table by
a Walsh-Hadamard transform.  Before anything is drawn, the sizes are held to
``MAX_STATE_DIM``, ``MAX_UNITARY_ENTRIES``, ``MAX_EXTRACT_VARS``,
``MAX_STATE_APPLICATIONS`` and ``MAX_MULTIPLY_ADDS``, the last a bound on
the work of one extraction, about (d+2) 2^n dim^2 complex multiply-adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ModelViolationError
from .poly import Polynomial, _dense_polynomial, _fwht, _integer, _mask_subset, _sign_vector

UNITARITY_TOL = 1e-10
SPECTRUM_TOL = 1e-10
IMAG_TOL = 1e-10
DEGREE_COEFF_TOL = 1e-9
MAX_STATE_DIM = 4096
MAX_UNITARY_ENTRIES = 2**26  # entries of the d+2 drawn dim x dim matrices, 1 GiB as complex128
MAX_EXTRACT_VARS = 14
MAX_STATE_APPLICATIONS = 2**18  # unitaries applied to a state over all 2^n points of an extraction
MAX_MULTIPLY_ADDS = 2**33  # about 9 s at the 1e9 a second measured at dim 2100 on one BLAS thread
SIMULATION_BLOCK = 256  # points per stack of states: at most 256 * MAX_STATE_DIM entries, 16 MiB


def _state_dim(n: int, d: int, w: int) -> int:
    # (n+1)*w once the sizes pass, before any unitary of that dimension is drawn or checked
    if _integer(n, "n") < 1 or _integer(d, "d") < 0 or _integer(w, "w") < 1:
        raise ValueError("need n >= 1, d >= 0, w >= 1")
    dim = (n + 1) * w
    if dim > MAX_STATE_DIM:
        raise CapacityError(f"state dimension {dim} exceeds {MAX_STATE_DIM}")
    entries = (d + 2) * dim * dim
    if entries > MAX_UNITARY_ENTRIES:
        raise CapacityError(
            f"{d + 2} matrices of dimension {dim} hold {entries} entries, above {MAX_UNITARY_ENTRIES}"
        )
    return dim


def _check_extractable(n: int, d: int, w: int) -> None:
    if n > MAX_EXTRACT_VARS:
        raise CapacityError(f"n={n} exceeds the interpolation guard ({MAX_EXTRACT_VARS})")
    applications = (d + 1) * 2**n
    if applications > MAX_STATE_APPLICATIONS:
        raise CapacityError(
            f"{d + 1} unitaries at each of 2^{n} points make {applications} state applications, "
            f"above {MAX_STATE_APPLICATIONS}"
        )
    dim = _state_dim(n, d, w)
    multiply_adds = (d + 2) * 2**n * dim * dim
    if multiply_adds > MAX_MULTIPLY_ADDS:
        raise CapacityError(
            f"{d + 2} products of dimension {dim} at each of 2^{n} points make {multiply_adds} "
            f"multiply-adds, above {MAX_MULTIPLY_ADDS}"
        )


@dataclass(frozen=True)
class QueryAlgorithm:
    n: int
    d: int
    w: int
    unitaries: tuple[np.ndarray, ...]
    observable: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n", "d", "w"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        dim = _state_dim(self.n, self.d, self.w)
        if len(self.unitaries) != self.d + 1:
            raise ValueError(f"expected {self.d + 1} unitaries, got {len(self.unitaries)}")
        eye = np.eye(dim)
        for t, mat in enumerate(self.unitaries):
            if mat.shape != (dim, dim):
                raise ValueError(f"unitary {t} has shape {mat.shape}, expected {(dim, dim)}")
            if np.max(np.abs(mat.conj().T @ mat - eye)) > UNITARITY_TOL:
                raise ValueError(f"matrix {t} is not unitary within {UNITARITY_TOL}")
        m = self.observable
        if m.shape != (dim, dim):
            raise ValueError("observable dimension mismatch")
        if np.max(np.abs(m - m.conj().T)) > SPECTRUM_TOL:
            raise ValueError("observable is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -1.0 - SPECTRUM_TOL or eigs[-1] > 1.0 + SPECTRUM_TOL:
            raise ValueError("observable spectrum must lie in [-1, 1]")

    @property
    def dim(self) -> int:
        return (self.n + 1) * self.w


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases[phases == 0] = 1.0
    return q * (phases / np.abs(phases)).conj()


def random_algorithm(n: int, d: int, w: int, seed: int) -> QueryAlgorithm:
    """Seeded algorithm with Haar-style unitaries and a random +-1-spectrum observable."""
    dim = _state_dim(n, d, w)
    rng = np.random.default_rng(seed)
    unitaries = tuple(_haar_unitary(rng, dim) for _ in range(d + 1))
    basis = _haar_unitary(rng, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    observable = (basis * signs) @ basis.conj().T
    observable = 0.5 * (observable + observable.conj().T)
    return QueryAlgorithm(n=n, d=d, w=w, unitaries=unitaries, observable=observable)


def _expectations(alg: QueryAlgorithm, signs: np.ndarray) -> np.ndarray:
    """Expectation of the observable at each row of a (points, n) array of +-1 floats.

    Every product is a stack of matrix-vector products, one per point, and
    every expectation its own inner product, so a value does not depend on
    the other rows of the block.
    """
    phases = np.repeat(np.hstack([signs, np.ones((len(signs), 1))]), alg.w, axis=1)[:, :, None]
    start = np.zeros(alg.dim, dtype=complex)
    start[0] = 1.0
    states = np.broadcast_to((alg.unitaries[0] @ start)[:, None], phases.shape)
    for t in range(1, alg.d + 1):
        states = alg.unitaries[t] @ (phases * states)
    values = (np.swapaxes(states.conj(), 1, 2) @ (alg.observable @ states)).reshape(-1)
    worst = values.imag[np.argmax(np.abs(values.imag))]
    if abs(worst) > IMAG_TOL:
        raise ModelViolationError(f"expectation has imaginary part {worst:.2e}")
    return values.real


def run(alg: QueryAlgorithm, x: Sequence[int]) -> float:
    """Expectation of the observable on input x."""
    return float(_expectations(alg, np.array([_sign_vector(x, alg.n)]))[0])


def extract_polynomial(alg: QueryAlgorithm) -> Polynomial:
    """Interpolate the output over all of {-1,1}^n; must have degree <= 2d.

    Coefficients beyond degree 2d above DEGREE_COEFF_TOL indicate a broken
    model and raise; below it they are hard-zeroed.
    """
    _check_extractable(alg.n, alg.d, alg.w)
    masks = np.arange(1 << alg.n)
    bits = (masks[:, None] >> np.arange(alg.n)) & 1  # bit j set  <=>  x(j+1) = -1
    blocks = range(0, len(masks), SIMULATION_BLOCK)
    table = np.concatenate([_expectations(alg, 1.0 - 2.0 * bits[k : k + SIMULATION_BLOCK]) for k in blocks])
    coeff = _fwht(table) / len(masks)
    bound = 2 * alg.d
    high = bits.sum(axis=1) > bound
    violations = np.nonzero(high & (np.abs(coeff) > DEGREE_COEFF_TOL))[0]
    if violations.size:
        k = violations[0]
        raise ModelViolationError(
            f"coefficient {coeff[k]:.3e} on {_mask_subset(int(k), alg.n)} violates the degree-{bound} bound"
        )
    coeff[high] = 0.0
    return _dense_polynomial(coeff, alg.n)


def check_characterization(alg: QueryAlgorithm) -> dict:
    """Extract the output polynomial and test degree <= 2d plus the certified lower end of fcb <= 1."""
    from .sdp import fcb_norm

    p = extract_polynomial(alg)
    value = fcb_norm(p, 2 * alg.d)
    return {
        "degree_ok": p.degree <= 2 * alg.d,
        "fcb_value": value,
        "fcb_ok": bool(value <= 1.0),
    }


def parity_algorithm() -> QueryAlgorithm:
    """Hand-built single-query circuit whose output is exactly x(1)*x(2).

    A balanced superposition over the two query branches picks up the phases
    x(1), x(2); interfering them maps the parity onto the first basis state,
    where the observable reads it out.
    """
    h = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0],
            [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    observable = np.diag([1.0, -1.0, 1.0]).astype(complex)
    return QueryAlgorithm(n=2, d=1, w=1, unitaries=(h, h), observable=observable)
