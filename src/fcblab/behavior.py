"""Word algebra over [n+1] and matrix triples with Boolean behavior.

A word is a tuple of letters from {1,..,n+1}.  Two words of the same length
are equivalent when each letter of [n] occurs with the same parity; the extra
letter n+1 is a frozen variable and never counts.  A triple (u, v, A(1..n+1))
of unit vectors and contractions has Boolean behavior of degree d when
<u, A(w_1)...A(w_d) v> agrees across every equivalence class of length-d
words, mirroring the product relations satisfied by sign vectors with a
trailing frozen 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .linalg import sigma_max
from .poly import BlockMultilinearPolynomial, Polynomial, Subset, _integer, _sign_vector

Word = tuple[int, ...]

MAX_WORDS = 10**6


def word_class(w: Sequence[int], n: int) -> Subset:
    """Letters of [n] occurring an odd number of times in w (n+1 is ignored)."""
    counts: dict[int, int] = {}
    for letter in w:
        if not (1 <= letter <= n + 1):
            raise IndexError(f"letter {letter} out of range for n={n}")
        if letter <= n:
            counts[letter] = counts.get(letter, 0) + 1
    return tuple(sorted(k for k, c in counts.items() if c % 2))


def canonical_word(S: Sequence[int], d: int, n: int) -> Word:
    """Ascending elements of S padded with copies of n+1 up to length d."""
    s = tuple(sorted(S))
    if len(s) > d:
        raise ValueError(f"|S|={len(s)} exceeds word length d={d}")
    if s and not (1 <= s[0] and s[-1] <= n):
        raise IndexError(f"subset {s} out of range for n={n}")
    return s + (n + 1,) * (d - len(s))


def _class_firsts(n: int, d: int) -> np.ndarray:
    """For every length-d word in lexicographic order, the rank of the first word of its class.

    A word's code is the XOR of one bit per letter (letter i <= n sets bit
    i-1, letter n+1 sets none), so two words share a class exactly when they
    share a code.  Codes above 62 bits are Python ints.
    """
    total = (n + 1) ** d
    if total > MAX_WORDS:
        raise CapacityError(f"(n+1)^d = {total} exceeds the enumeration guard ({MAX_WORDS})")
    dtype = np.int64 if n <= 62 else object
    bits = np.array([1 << i for i in range(n)] + [0], dtype=dtype)
    codes = np.zeros(1, dtype=dtype)
    for _ in range(d):
        codes = np.bitwise_xor.outer(codes, bits).ravel()  # the new letter varies fastest
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return first[inverse]


def enumerate_classes(n: int, d: int) -> dict[Subset, list[Word]]:
    """Partition all of [n+1]^d into parity classes, words in lexicographic order."""
    firsts = _class_firsts(n, d).tolist()
    words = list(itertools.product(range(1, n + 2), repeat=d))
    members: dict[int, list[Word]] = {}
    for w, first in zip(words, firsts):
        members.setdefault(first, []).append(w)
    return {word_class(words[first], n): ws for first, ws in members.items()}


@dataclass(frozen=True)
class Witness:
    """Candidate Boolean-behavior triple: unit vectors u, v and n+1 matrices.

    ``A`` has shape (n+1, m, m) with A[i-1] the matrix for letter i; the last
    slot belongs to the frozen letter n+1.
    """

    d: int
    u: np.ndarray
    v: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        a = np.asarray(self.A, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError("A must be a stack of square matrices")
        if u.shape != (a.shape[1],) or v.shape != (a.shape[1],):
            raise ValueError("u, v must match the matrix dimension")
        if a.shape[0] < 2:
            raise ValueError("need at least one variable letter plus the frozen letter")
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.d < 0:
            raise ValueError("degree must be nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "A", a)

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def n(self) -> int:
        return self.A.shape[0] - 1


def bitstring_witness(x: Sequence[int], d: int) -> Witness:
    """Scalar witness for a sign vector: m=1, u=v=1, A(i)=x(i), A(n+1)=1."""
    a = np.array([[[v]] for v in _sign_vector(x, len(x)) + (1.0,)])
    return Witness(d=d, u=np.ones(1), v=np.ones(1), A=a)


def _chain_values(u: np.ndarray, v: np.ndarray, mats: np.ndarray, words: Sequence[Word]) -> list[float]:
    """<u, mats[w_1]...mats[w_k] v> for each word of 0-based letters, in the order given.

    The words are taken in the order of their reversals, so all words with a
    common suffix are adjacent.  ``chain[k]`` is the product of the previous
    word's last k letters applied to v; each word cuts the chain back to the
    suffix it shares with that word and applies only its new letters.  So each
    distinct suffix is computed once, by the same ``mats[letter] @ vec``
    products as a chain of its own, and at most (longest word + 1) vectors
    are kept.
    """
    mats = list(mats)  # list lookups beat indexing a stack in the loop
    values = [0.0] * len(words)
    chain = [v]
    prev: Word = ()
    for j in sorted(range(len(words)), key=lambda j: words[j][::-1]):
        word = words[j]
        shared = 0
        for a, b in zip(reversed(word), reversed(prev)):
            if a != b:
                break
            shared += 1
        del chain[shared + 1 :]
        for letter in reversed(word[: len(word) - shared]):
            chain.append(mats[letter] @ chain[-1])
        values[j] = float(u @ chain[-1])
        prev = word
    return values


def chain_value(w: Witness, word: Sequence[int]) -> float:
    """<u, A(w_1)...A(w_s) v> for an arbitrary word."""
    for letter in word:
        if not (1 <= letter <= w.n + 1):
            raise IndexError(f"letter {letter} out of range for n={w.n}")
    return _chain_values(w.u, w.v, w.A, [tuple(letter - 1 for letter in word)])[0]


def verify_bb(w: Witness, tol: float) -> dict:
    """Check unit norms, contractivity, and the length-d class relations.

    Every length-d word is compared against the lexicographically first
    member of its class (violations are linear, so representative checks
    suffice).  Returns max_relation_violation, max_contraction_excess,
    unit_norm_error and the combined pass flag (all three within tol).
    """
    n, d, m = w.n, w.d, w.m
    firsts = _class_firsts(n, d)

    unit_err = max(abs(np.linalg.norm(w.u) - 1.0), abs(np.linalg.norm(w.v) - 1.0))
    excess = max(0.0, sigma_max(w.A) - 1.0)

    # Suffix vectors level by level; the final letter is folded into u^T A(i)
    # so only (n+1)^(d-1) vectors are ever materialized.
    max_violation = 0.0
    if d > 0:
        suffix = w.v.reshape(m, 1)
        for _ in range(d - 1):
            suffix = np.hstack(w.A @ suffix)
        # column order of `suffix` = lexicographic order of length-(d-1) words
        ua = w.u @ w.A
        values = (ua @ suffix).reshape(-1)  # lexicographic over length-d words
        max_violation = np.max(np.abs(values - values[firsts]))

    passed = unit_err <= tol and excess <= tol and max_violation <= tol
    return {
        "max_relation_violation": float(max_violation),
        "max_contraction_excess": float(excess),
        "unit_norm_error": float(unit_err),
        "pass": bool(passed),
    }


def evaluate_on_witness(p: Polynomial, w: Witness) -> float:
    """Fourier-weighted evaluation sum_S p_hat(S) <u, A(i_1^S)...A(i_d^S) v>.

    Uses the canonical representative of each class; independence of the
    representative is exactly what verify_bb certifies.
    """
    if p.n != w.n:
        raise ValueError(f"polynomial has n={p.n} but witness has n={w.n}")
    if p.degree > w.d:
        raise ValueError(f"degree {p.degree} exceeds witness degree {w.d}")
    words = [tuple(letter - 1 for letter in canonical_word(s, w.d, w.n)) for s in p.coeffs]
    total = 0.0
    for c, value in zip(p.coeffs.values(), _chain_values(w.u, w.v, w.A, words)):
        total += c * value
    return total


def evaluate_bml_on_matrices(
    p: BlockMultilinearPolynomial, u: np.ndarray, v: np.ndarray, A: np.ndarray
) -> float:
    """<u, p(A_1,..,A_d) v> with the constant term acting as the identity.

    ``A`` is a (d, n, m, m) stack, or anything ``np.asarray`` turns into one,
    with ``A[b-1, i-1]`` the matrix substituted for variable i of block b.
    Each monomial is applied right to left in block order.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    A = np.asarray(A, dtype=float)
    m = u.shape[0]
    if v.shape != (m,):
        raise ValueError("u and v must have the same dimension")
    if A.shape != (p.d, p.n, m, m):
        raise ValueError(f"expected a matrix stack of shape {(p.d, p.n, m, m)}, got {A.shape}")
    words = [tuple((b - 1) * p.n + i - 1 for b, i in key) for key in p.coeffs]
    total = 0.0
    for c, value in zip(p.coeffs.values(), _chain_values(u, v, A.reshape(-1, m, m), words)):
        total += c * value
    return total
