"""Explicit matrix witnesses certifying influence lower bounds.

All three constructions follow the same creation/annihilation pattern: the
first matrix applications build a superposition over basis vectors weighted
by Fourier coefficients (divided by a root-influence normalizer), later
applications delete elements from an index set, and the surviving inner
product with the left vector isolates a single coefficient.  Evaluating the
polynomial on such a triple therefore returns a ratio of its variance to a
root influence, which rearranges into a lower bound on the maximum influence
whenever the relevant norm is at most 1.

The homogeneous fcb and general block-multilinear certificates share one
builder, `_annihilation_tuple`; only their index sets and letters differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .behavior import Witness, evaluate_bml_on_matrices, evaluate_on_witness
from .errors import CapacityError
from .linalg import sigma_max
from .poly import (
    BlockMultilinearPolynomial,
    Polynomial,
    _integer,
    bml_influences,
    bml_variance,
    degree_part,
    statistics,
)

HOMOGENEOUS_FCB = "homogeneous_fcb"
BML_HOMOGENEOUS = "bml_homogeneous"
BML_GENERAL = "bml_general"
MAX_WITNESS_ENTRIES = 2**26  # entries of the matrix stack A, 512 MiB as float64
MAX_WITNESS_LETTERS = 2**16  # matrices in the stack A, each indexed by a Python loop


@dataclass(frozen=True)
class BmlWitness:
    """Matrix tuple (u, v, A) for block-multilinear evaluation.

    ``A`` is one (d, n, m, m) stack, with ``A[b-1, i-1]`` the matrix for
    variable i of block b.
    """

    u: np.ndarray
    v: np.ndarray
    A: np.ndarray

    @property
    def m(self) -> int:
        return self.A.shape[2]

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class InfluenceCertificate:
    kind: str
    witness: Witness | BmlWitness
    certified_value: float
    implied_bound: float
    s_or_d: int


def contraction_check(a: np.ndarray, tol: float) -> dict:
    """Largest singular value of a square matrix versus the 1 + tol budget.

    A stack (..., m, m) is checked by its largest singular value over all
    its matrices, as in ``sigma_max``.
    """
    sigma = sigma_max(a)
    return {"sigma_max": sigma, "pass": bool(sigma <= 1.0 + tol)}


def _check_entries(letters: int, sizes) -> None:
    """Raise CapacityError when `letters` matrices on a basis of sum(sizes) vectors pass a guard.

    The guards are MAX_WITNESS_LETTERS matrices and MAX_WITNESS_ENTRIES
    entries; the sum stops at the latter, so a huge n or d is refused at once.
    """
    if letters > MAX_WITNESS_LETTERS:
        raise CapacityError(f"{letters} matrices exceed the guard of {MAX_WITNESS_LETTERS} matrices")
    m = 0
    for size in sizes:
        m += size
        if letters * m * m > MAX_WITNESS_ENTRIES:
            raise CapacityError(
                f"{letters} matrices of dimension at least {m} exceed the guard of {MAX_WITNESS_ENTRIES} entries"
            )


def _annihilation_tuple(coeffs, sets, letters, slot, root):
    """Flat tuple (u, v, A) on the basis {v} + {f_S : S in sets}, with u = f_{}.

    The matrix A[slot[x]] of variable x sends v to sum_K coeffs[K]/root f_{K-{x}}
    over keys K containing x and f_S to f_{S-{x}} for S in sets containing x;
    ``letters`` is the leading shape of A.
    """
    f_index = {s: 1 + k for k, s in enumerate(sets)}  # basis position 0 is v
    m = 1 + len(sets)
    A = np.zeros(letters + (m, m))
    columns = [(key, 0, c / root) for key, c in coeffs.items()]
    columns += [(s, f_index[s], 1.0) for s in sets]
    for key, col, val in columns:
        for x in key:
            A[slot[x] + (f_index[tuple(y for y in key if y != x)], col)] = val
    u = np.zeros(m)
    u[f_index[()]] = 1.0
    v = np.zeros(m)
    v[0] = 1.0
    return u, v, A


def homogeneous_fcb_witness(p: Polynomial) -> InfluenceCertificate:
    """Boolean-behavior triple achieving Var[p]/sqrt(MaxInf[p]) for homogeneous p.

    Basis {v} + {f_S : |S| <= d-1}.  A(i) sends v to the superposition of
    f_{S-{i}} weighted by p_hat(S)/sqrt(MaxInf) over degree-d sets S
    containing i, deletes i from smaller index sets, and A(n+1) = 0.  The
    certificate value rearranges to MaxInf >= Var^2 when the degree-d
    Fourier completely bounded norm is at most 1.
    """
    d = p.degree
    if not p.is_homogeneous() or d < 1:
        raise ValueError("construction requires a homogeneous polynomial of degree >= 1")
    n = p.n
    _check_entries(n + 1, itertools.chain([1], (comb(n, r) for r in range(d))))
    st = statistics(p)
    if st.variance == 0.0:
        raise ValueError("zero polynomial has no influence certificate")
    subsets = sorted(
        s for r in range(d) for s in itertools.combinations(range(1, n + 1), r)
    )
    # No key contains the frozen letter n+1, so A[n] stays zero and annihilates everything.
    u, v, A = _annihilation_tuple(
        p.coeffs, subsets, (n + 1,), {i: (i - 1,) for i in range(1, n + 1)}, sqrt(st.max_influence)
    )
    witness = Witness(d=d, u=u, v=v, A=A)
    value = evaluate_on_witness(p, witness)
    return InfluenceCertificate(
        kind=HOMOGENEOUS_FCB,
        witness=witness,
        certified_value=value,
        implied_bound=st.variance**2,
        s_or_d=d,
    )


def bml_homogeneous_witness(p: BlockMultilinearPolynomial, s: int) -> InfluenceCertificate:
    """Creation/annihilation tuple realizing sum_i sqrt(Inf_{s,i}) for homogeneous p.

    The same matrices are substituted into every block, and the basis is
    keyed by index tuples: e_t for the indices t of a trailing run of blocks
    d-len(t)+1..d with len(t) <= d-s, and f_q for the indices q of a leading
    run of blocks 1..len(q) with len(q) <= s-1.  Applications for blocks
    d..s+1 grow t, the block-s application jumps to a superposition of the
    f_q weighted by p_hat/sqrt(Inf_{s,i}), and blocks s-1..1 annihilate.  The
    certified value is sum_i sqrt(Inf_{s,i}) for the chosen block s, so it
    depends on s; the implied bound Var[p]^2 does not.
    """
    d = p.d
    if not p.is_homogeneous() or p.degree != d or not p.coeffs:
        raise ValueError("construction requires a homogeneous degree-d block-multilinear polynomial")
    s = _integer(s, "s")
    if not (1 <= s <= d):
        raise IndexError(f"block {s} out of range for d={d}")
    n = p.n
    # {e_()} + suffixes of lengths 1..d-s, {f_()} + prefixes of lengths 1..s-1
    _check_entries(
        d * n, itertools.chain([2], (n**r for r in range(1, d - s + 1)), (n**r for r in range(1, s)))
    )
    inf_s = bml_influences(p)[s - 1]
    coeffs = {tuple(i for _, i in key): c for key, c in p.coeffs.items()}  # every key spans blocks 1..d

    def tuples(lengths):
        return [t for r in lengths for t in itertools.product(range(1, n + 1), repeat=r)]

    # e_() first, then the suffixes from longest to shortest; the f_q follow in lexicographic order.
    e = {t: k for k, t in enumerate([()] + tuples(range(d - s, 0, -1)))}
    f = {q: len(e) + k for k, q in enumerate(sorted(tuples(range(s))))}
    m = len(e) + len(f)
    prefixes = tuples([s - 1])

    A = np.zeros((n, m, m))
    for t, col in e.items():
        if len(t) < d - s:
            # creation: prepend the index of the next-lower block
            for i in range(1, n + 1):
                A[i - 1, e[(i,) + t], col] = 1.0
        else:
            # jump across block s, weighted by the coefficients
            for i in range(1, n + 1):
                if inf_s[i - 1] == 0.0:
                    continue
                root = sqrt(inf_s[i - 1])
                for q in prefixes:
                    c = coeffs.get(q + (i,) + t, 0.0)
                    if c != 0.0:
                        A[i - 1, f[q], col] = c / root
    for q, col in f.items():
        # annihilation: remove the index of the highest block
        if q:
            A[q[-1] - 1, f[q[:-1]], col] = 1.0

    u = np.zeros(m)
    u[f[()]] = 1.0
    v = np.zeros(m)
    v[e[()]] = 1.0
    tuple_A = np.broadcast_to(A, (d, n, m, m)).copy()
    witness = BmlWitness(u=u, v=v, A=tuple_A)
    value = evaluate_bml_on_matrices(p, u, v, witness.A)
    return InfluenceCertificate(
        kind=BML_HOMOGENEOUS,
        witness=witness,
        certified_value=value,
        implied_bound=bml_variance(p) ** 2,
        s_or_d=s,
    )


def _partial_sets(n: int, d: int, max_size: int) -> list[tuple[tuple[int, int], ...]]:
    # all (block, index) sets with strictly increasing blocks, size <= max_size
    out: list[tuple[tuple[int, int], ...]] = []
    for r in range(max_size + 1):
        for blocks in itertools.combinations(range(1, d + 1), r):
            for idx in itertools.product(range(1, n + 1), repeat=r):
                out.append(tuple(zip(blocks, idx)))
    return sorted(out)


def bml_general_witness(p: BlockMultilinearPolynomial) -> InfluenceCertificate:
    """Flat annihilation tuple for the highest-variance degree part of p.

    Picks D maximizing Var[p_=D] (smallest on ties), which guarantees
    Var[p_=D] >= Var[p]/d, and certifies Var[p_=D]/sqrt(MaxInf[p_=D]).
    Since lower parts strand above the f_empty level and higher parts
    annihilate through it, evaluating the full p on the tuple already
    isolates the degree-D part.
    """
    total_var = bml_variance(p)
    if total_var == 0.0:
        raise ValueError("zero-variance polynomial has no influence certificate")
    part_vars: dict[int, float] = {}
    for key, c in p.coeffs.items():
        if key:
            part_vars[len(key)] = part_vars.get(len(key), 0.0) + c * c
    # An absent degree has variance 0, below the positive variance of some present one.
    D = max(part_vars, key=lambda r: (part_vars[r], -r))
    pD = degree_part(p, D)
    d = p.d
    _check_entries(d * p.n, itertools.chain([1], (comb(d, r) * p.n**r for r in range(D))))
    u, v, A = _annihilation_tuple(
        pD.coeffs,
        _partial_sets(p.n, d, D - 1),
        (d, p.n),
        {(b, i): (b - 1, i - 1) for b in range(1, d + 1) for i in range(1, p.n + 1)},
        sqrt(float(bml_influences(pD).max())),
    )
    witness = BmlWitness(u=u, v=v, A=A)
    value = evaluate_bml_on_matrices(p, u, v, witness.A)
    return InfluenceCertificate(
        kind=BML_GENERAL,
        witness=witness,
        certified_value=value,
        implied_bound=(total_var / d) ** 2,
        s_or_d=D,
    )


def degree_extraction_embed(w: BmlWitness, D: int, d: int) -> BmlWitness:
    """Tensor with the nilpotent shift so the full polynomial sees only degree D.

    B on R^(D+1) sends e_{s+1} to e_s; since <e_1, B^s e_{D+1}> = delta_{s,D},
    evaluating any block-multilinear polynomial on (u ox e_1, v ox e_{D+1},
    A_b(i) ox B) equals evaluating its degree-D part on (u, v, A).
    """
    if not (1 <= D <= d):
        raise ValueError(f"D={D} must lie in [1, d={d}]")
    if w.d != d:
        raise ValueError(f"witness has {w.d} blocks, expected {d}")
    e = np.eye(D + 1)
    shift = np.eye(D + 1, k=1)
    return BmlWitness(u=np.kron(w.u, e[0]), v=np.kron(w.v, e[D]), A=np.kron(w.A, shift))

