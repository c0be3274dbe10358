"""Moment-matrix SDP for the Fourier completely bounded d-norm.

The moment matrix M is indexed by u followed by all words of length <= d
over [n+1] (the empty word is v): index 0 is u, and the words follow by
length, then in lexicographic order.  The objective places each Fourier
coefficient on the (u, canonical word) entry; for every letter i the Gram
matrix of the shifted vectors {v_{i w}} must be dominated by the Gram matrix
of {v_w} over words of length <= d-1, which encodes "A(i) is a contraction"
as a pair of principal-submatrix selections.

The localizers touch M[W0, W0] and M[i W0, i W0], with W0 = W_{<=d-1}; the
objective and the class ties touch the entries (u, w) of length-d words w,
and the fixed entries are M[u, u] and M[v, v].  So n+2 cliques of
width = D - (n+1)^d indices each cover every constraint: C_0 = S =
{u} + W0, and C_i = {u} + i W0 for each letter i (d = 0 has the one clique
{u, v}).  In the index layout C_0 is 0..width-1, and C_i lists u, then the
words i w in the order of W0, so it ends with its private part P_i, the
i-th run of (n+1)^(d-1) length-d words.  With S made complete, P_i is
joined only to T_i = C_0 & C_i = {u} + {i w : |w| <= d-2}, so eliminating
the P_i first is a perfect elimination order: the pattern is chordal, and
its clique tree hangs each C_i from C_0 on the separator T_i.  By Grone,
Johnson, Sa & Wolkowicz, "Positive definite completions of partial
Hermitian matrices" (Linear Algebra Appl. 58, 1984), M can be completed to
a PSD matrix exactly when every clique block M[C_i, C_i] is PSD, so the
program asks for n+2 PSD width x width blocks in place of one D x D cone,
with the same optimum (Zheng, Fantuzzi, Papachristodoulou, Goulart & Wynn,
Math. Prog. 180, 2020; Vandenberghe & Andersen, "Chordal Graphs and
Semidefinite Optimization", 2015).  The entries that no clique covers have
no variable.  After the solve they are filled along the clique tree in two
stages: first M[P_i, S] = X_i[P, T] X_i[T, T]^+ M[T_i, S] from the block
X_i of C_i, then M[P_i, P_j] = M[P_i, S] M[S, S]^+ M[S, P_j].

The program is built in the form the solver works in: a stack of the clique
blocks, each a dense symmetric width x width matrix, beside a stack of the
localizer slacks.  Its equality relations are written into the variable
instead of being imposed as constraints: an entry and its mirror image
share one variable, so does an entry that several cliques share, every
entry <u, v_w> of a parity class of length-d words shares the variable of
the class's first word, and the diagonal entries M[u,u] = M[v,v] = 1 have
no variable.  Each variable is the value of its entries: the stacked blocks
are x = x0 + T y, with x0 holding the fixed ones and T the 0/1 map from the
free variables y to their entries.  A localizer slack is the base selection
of clique 0 minus the same selection of its letter's clique, so the blocks
and slacks of x are g0 + G y, with G = [T; T[base] - T[shift]] and g0 the
same gather of x0.  SdpProblem holds seven fields.  The program, all that
the solver reads, is objective, variable, localizers (the flat offsets of
the two selections) and central (the central point of the lower end).  The
one layout, which only the completion and the witness extraction read, is
shifted, d and word_index; the clique table, W0 = 1..|W0| and D follow.

The solver is an in-house consensus ADMM on y: each iteration solves the
normal equations with G^T G (the only place the objective enters), then
makes one batched PSD projection of the clique blocks and one of the
localizer slacks, each via eigendecomposition, starting from zero.  G^T G
is block diagonal.  A block row of G reads one variable, and a slack row
joins the variable of M[w, w'] to that of M[i w, i w'], so the entry of two
words that start with the same letter has one parent, the entry of the
words without it.  The pairs form a forest over the variables, and G^T G
couples only the variables of one tree (at n=3, d=3 its 203 trees have 1,
5 or 21).  The solver finds the trees by min-label propagation, inverts
each tree's dense block once per solve, and applies the inverses of one
size as one batched product; chordal ADMM solvers also factor this matrix
once per problem (Zheng et al.; O'Donoghue, arXiv:2004.02177).  The ADMM
step is plain (no over-relaxation) and is extrapolated by safeguarded
type-II Anderson acceleration over the last ANDERSON_MEMORY steps; an
extrapolated point whose fixed-point residual is worse than that of the
point it came from is discarded in favour of the plain step.

Every RESIDUAL_CHECK_EVERY iterations a plain step is checked.  The check
measures the relative primal and the dual residual and balances the penalty
rho, which starts at 1: when the ratio of the two leaves [1/RHO_DEAD_BAND,
RHO_DEAD_BAND], rho is multiplied by the ratio's square root (Boyd et al.
2011, section 3.4.1; the square-root step is OSQP's), by a factor of at
most RHO_STEP_MAX and within [RHO_MIN, RHO_MAX].  Without the factor cap a
short cadence can flip rho between its bounds at every check, as on a
degree-1 instance whose primal residual is exactly 0 at its first check.  A
change rescales the scaled dual and clears the acceleration memory, whose
steps belong to the old penalty.

The residuals only decide when to look at the value.  A check whose two
residuals are at most tol evaluates an interval [lower, upper] that holds
the optimum, and the solve stops once upper - lower <= tol (absolute);
otherwise it runs on.
- Lower end: the solver's point x = x0 + T y meets every tie exactly, so
  only its cones can be violated.  The central point x_c = diag(1 at u,
  2^{-|w|} at word w) meets every tie and has value 0; the solver measures
  the least eigenvalue lambda_c (2^{-d}) of its blocks and slacks.  By
  Weyl's inequality (1 - t) x + t x_c is feasible for t = max(-lambda /
  (lambda_c - lambda)) over the least eigenvalues lambda < 0 of the blocks
  and slacks of x, and its value (1 - t) c.x is the lower end.
- Upper end: weak duality for a multiplier L (Jansson, Chaykin & Keil,
  SIAM J. Numer. Anal. 46, 2007).  L = rho (z - v), the negated scaled
  dual, is corrected by one solve with the inverses already at hand so that
  G^T L = -T^T c.  Every diagonal of a feasible point is at most 1 (the
  localizer diagonals telescope down from ||v|| = 1), so a block's trace is
  at most its size k_j and each entry, and so each variable, lies in
  [-1, 1]; the bound is c.x0 + <L, g0> + sum_j k_j max(0, -lambda_min(L_j))
  + ||G^T L + T^T c||_1.
Both ends are sound up to the rounding of the computed eigenvalues.  The
solution reports the repaired point: its value is the lower end, and its
moment matrix and localizer slack are read from it.  The feasible set is
bounded, so the iteration converges at desk scale without a self-dual
embedding.
"""

from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .behavior import Witness, Word, _class_firsts, canonical_word
from .errors import CapacityError, ConvergenceError, ExtractionError
from .poly import Polynomial, _integer

MAX_DIM = 2000  # the largest moment matrix build_fcb_sdp accepts

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200_000
RESIDUAL_CHECK_EVERY = 5
RHO_DEAD_BAND = 5.0  # residual ratio within which the penalty is left alone
RHO_STEP_MAX = 10.0  # the largest factor by which one check moves the penalty
RHO_MIN, RHO_MAX = 1e-4, 1e4
ANDERSON_MEMORY = 20
ANDERSON_REGULARIZATION = 1e-10  # ridge on the least-squares Gram matrix, relative to the mean squared differences
COMPLETION_RCOND = 1e-12  # relative cut-off of the pseudo-inverses in the completion


@dataclass
class SdpProblem:
    # The program, which is all that solve_sdp reads:
    # (n+2, width, width), symmetric: p_hat(S)/2 on the entries (u, w) and (w, u) of the
    # canonical word w of S, so that sum(objective * blocks) = sum_S p_hat(S) M[u, w].
    objective: np.ndarray
    # (n+2, width, width), symmetric: the index of each entry's free variable; -1 where it is fixed at 1.
    variable: np.ndarray
    # (2, n+1, |W0|, |W0|), flat offsets into the stacked blocks: localizer slack i-1 is the
    # entries localizers[0, i-1] of clique 0 minus the entries localizers[1, i-1] of clique i.
    localizers: np.ndarray
    central: np.ndarray  # (n+2, width): the diagonal of the central point, 1 at u and 2^{-|w|} at a word w
    # The fcb layout, which only _complete and extract_witness read.  Clique 0 is
    # the moment indices 0..width-1 (u, then the words w of length <= d-1, so
    # 1..|W0| are W0), and clique i is 0 followed by shifted[i-1], ending with the
    # i-th run of length-d words; d = 0 has the one clique [0, 1].
    shifted: np.ndarray  # (n+1, |W0|): row i-1 holds the moment indices of the words i w
    d: int
    word_index: dict[Word, int]  # the moment index of each word; the moment matrix is 1 + len(word_index) wide


@dataclass
class SdpSolution:
    value: float  # the value of the reported point, which is lower
    lower: float  # the ends of an interval that holds the optimum (sound up to eigenvalue rounding)
    upper: float
    moment: np.ndarray  # the repaired clique blocks, completed along the clique tree
    localizer_min_eig_slack: float
    iterations: int
    converged: bool
    rho: float  # the penalty at the end of the solve
    penalty_changes: int  # how many times residual balancing changed the penalty
    history: list[tuple[int, float, float, float, float]]  # per check: iteration, primal, dual, rho, seconds


def build_fcb_sdp(p: Polynomial, d: int) -> SdpProblem:
    """Assemble the moment-matrix program whose optimum is ||p||_{fcb,d}."""
    d = _integer(d, "d")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if p.degree > d:
        raise ValueError(f"degree {p.degree} exceeds d={d}")
    n = p.n
    dim = 1
    for s in range(d + 1):  # stops at the guard: (n+1)^d has no bound for a huge d
        dim += (n + 1) ** s
        if dim > MAX_DIM:
            raise CapacityError(f"the moment matrix at d={d} exceeds the guard of dimension {MAX_DIM}")

    words = [w for length in range(d + 1) for w in itertools.product(range(1, n + 2), repeat=length)]
    word_index = {w: 1 + k for k, w in enumerate(words)}  # index 0 is u

    # The cliques as in SdpProblem: each ends with a run of length-d words, clique i with the i-th.
    width = dim - (n + 1) ** d
    run = (n + 1) ** (d - 1) if d else 1
    private = np.arange(width, dim).reshape(-1, run)
    shifted = np.array([[word_index[(i,) + w] for w in words[: width - 1]] for i in range(1, n + 2)], dtype=int)
    cliques = np.vstack([np.arange(width), np.insert(shifted, 0, 0, axis=1)]) if d else np.array([[0, 1]])
    k = cliques.shape[1]
    first = 1 if d else 0  # the clique that ends with the first run

    # An entry takes the variable of the upper-triangle moment entry lo * D + hi
    # it mirrors; an entry (u, w) of a length-d word takes the variable of
    # (u, first word of w's class), and the diagonal entries M[u, u] = M[v, v] = 1 have none.
    rows, cols = cliques[:, :, None], cliques[:, None, :]
    owner = np.minimum(rows, cols) * dim + np.maximum(rows, cols)
    owner[first:, 0, k - run :] = owner[first:, k - run :, 0] = width + _class_firsts(n, d)[private - width]
    clique, position = np.nonzero(cliques <= 1)
    owner[clique, position, position] = -1
    free = owner >= 0
    variable = np.full(owner.shape, -1)
    variable[free] = np.unique(owner[free], return_inverse=True)[1]

    # A canonical word has length d, so its entries (u, w) and (w, u) lie in the clique of its run.
    objective = np.zeros(owner.shape)
    for s, c in p.coeffs.items():
        clique, j = divmod(word_index[canonical_word(s, d, n)] - width, run)
        objective[first + clique, 0, k - run + j] = objective[first + clique, k - run + j, 0] = c / 2.0

    # Localizer slack i-1 is the words w of clique 0 minus the words i w of clique i, at positions 1..width-1.
    base = np.arange(1, width)
    localizers = k * k * np.outer(np.arange(2), np.arange(1, n + 2))[:, :, None, None] + k * base[:, None] + base
    return SdpProblem(
        objective=objective,
        variable=variable,
        localizers=localizers,
        central=0.5 ** np.array([0] + [len(w) for w in words])[cliques],
        shifted=shifted,
        d=d,
        word_index=word_index,
    )


def _psd_project(mats: np.ndarray) -> np.ndarray:
    """Project each symmetric matrix of a stack (shape (..., m, m)) onto the PSD cone.

    The negative eigenpairs are subtracted in place of rebuilding the matrix.
    """
    eigvals, eigvecs = np.linalg.eigh(mats)
    negative = np.minimum(eigvals, 0.0)
    if not negative.any():
        return mats
    return mats - (eigvecs * negative[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)


class _Consensus:
    """G y, G^T r and the per-tree solve with G^T G, from the program's variable and localizers alone."""

    def __init__(self, variable: np.ndarray, localizers: np.ndarray) -> None:
        self.variable, (self.base, self.shift) = variable.reshape(-1), localizers.reshape(2, -1)
        n_vec, n_slack, self.n_var = self.variable.size, self.base.size, int(variable.max()) + 1
        # G's nonzeros in row order: +1 at each free block entry, then +1 and -1 in each slack row.
        pairs = self.variable[localizers.reshape(2, -1)]
        cols = np.concatenate([self.variable, pairs.T.reshape(-1)])
        keep = cols >= 0
        self.rows = np.concatenate([np.arange(n_vec), n_vec + np.arange(n_slack).repeat(2)])[keep]
        self.signs = np.concatenate([np.ones(n_vec), np.tile([1.0, -1.0], n_slack)])[keep]
        self.cols = cols[keep]

        # Min-label propagation: each pass takes the lesser label across every pair, then the label's label.
        a, b = pairs[:, (pairs >= 0).all(axis=0)]
        label, previous = np.arange(self.n_var), None
        while not np.array_equal(label, previous):
            previous, label = label, label.copy()
            np.minimum.at(label, np.append(a, b), np.tile(np.minimum(previous[a], previous[b]), 2))
            label = label[label]
        # A tree is named by its least variable.  Trees of one size form a group, whose dense
        # blocks of G^T G are inverted here: each variable's count of entries, less 1 at
        # (a, b) and (b, a) for each slack row between the variables a and b.
        size, order = np.bincount(label)[label], np.argsort(label, kind="stable")
        i, j = np.concatenate([self.cols, a, b]), np.concatenate([self.cols, b, a])
        entry = np.repeat([1.0, -1.0], [self.cols.size, 2 * a.size])
        position, self.groups = np.empty(self.n_var, int), []  # a variable's place in its group
        for s in np.unique(size):
            members = order[size[order] == s].reshape(-1, s)
            position[members] = np.arange(members.size).reshape(-1, s)
            mine = size[i] == s
            gram = np.bincount(position[i[mine]] * s + position[j[mine]] % s, entry[mine], members.size * s)
            self.groups.append((members, np.linalg.inv(gram.reshape(-1, s, s))))

    def with_slacks(self, blocks: np.ndarray) -> np.ndarray:
        """The stacked block entries followed by their localizer slack differences."""
        return np.concatenate([blocks, blocks[self.base] - blocks[self.shift]])

    def gather(self, y: np.ndarray) -> np.ndarray:
        """G y: each block entry reads its variable, and 0 where it is fixed."""
        return self.with_slacks(np.append(y, 0.0)[self.variable])

    def scatter(self, r: np.ndarray) -> np.ndarray:
        """G^T r."""
        return np.bincount(self.cols, self.signs * r[self.rows], self.n_var)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(G^T G)^{-1} b, one batched product per group."""
        y = np.empty(self.n_var)
        for members, inverse in self.groups:
            y[members] = (inverse @ b[members][:, :, None])[:, :, 0]
        return y


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point iteration v -> v + r(v).

    Keeps the last ANDERSON_MEMORY differences of plain steps and residuals
    and extrapolates to the combination with the least linearized residual
    (Walker & Ni; Zhang, O'Donoghue & Boyd, arXiv:1808.03971).  The safeguard
    rejects an extrapolated point whose residual exceeds the residual of the
    accepted point it was extrapolated from.  The ridge on the Gram matrix is
    relative to the squared step and residual differences together (Fu,
    Zhang & Boyd, SIAM J. Sci. Comput. 42, 2020): while the iterate drifts
    through the interior of the cones the residual stays constant, its
    differences are rounding noise, and a ridge relative to them alone lets
    the extrapolation jump by 1e13, which a check iteration does not reject.
    """

    def __init__(self, size: int) -> None:
        self.ds = np.zeros((ANDERSON_MEMORY, size))
        self.dr = np.zeros((ANDERSON_MEMORY, size))
        self.gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.ds_sq = np.zeros(ANDERSON_MEMORY)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.last: tuple[np.ndarray, np.ndarray, float] | None = None
        self.extrapolated = False

    def advance(self, step: np.ndarray, residual: np.ndarray, extrapolate: bool) -> np.ndarray:
        """The next point, given the plain step v + r(v) and the residual r(v) of the current v."""
        res_norm = float(np.linalg.norm(residual))
        if extrapolate and self.extrapolated and res_norm > self.last[2]:
            fallback = self.last[0]
            self.reset()
            return fallback
        if self.last is not None:
            slot = self.count % ANDERSON_MEMORY
            np.subtract(step, self.last[0], out=self.ds[slot])
            np.subtract(residual, self.last[1], out=self.dr[slot])
            self.ds_sq[slot] = self.ds[slot] @ self.ds[slot]
            self.count += 1
            k = min(self.count, ANDERSON_MEMORY)
            row = self.dr[:k] @ self.dr[slot]
            self.gram[slot, :k] = row
            self.gram[:k, slot] = row
        self.last = (step, residual, res_norm)
        self.extrapolated = False
        k = min(self.count, ANDERSON_MEMORY)
        if not extrapolate or k == 0:
            return step
        gram = self.gram[:k, :k]
        ridge = ANDERSON_REGULARIZATION * (np.trace(gram) + self.ds_sq[:k].sum()) / k
        try:
            gamma = np.linalg.solve(gram + ridge * np.eye(k), self.dr[:k] @ residual)
        except np.linalg.LinAlgError:
            return step
        self.extrapolated = True
        return step - gamma @ self.ds[:k]


def solve_sdp(prob: SdpProblem, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Run the accelerated consensus ADMM iteration until the certified gap is at most tol.

    With g = g0 + G y the blocks and slacks of x, the primal residual is
    ||g - z|| / (1 + ||g||) and the dual residual rho ||G^T (z - z_prev)|| /
    (1 + ||c||).  At every residual check the two are compared, and a ratio
    outside the dead band multiplies rho (starting at 1) by its square root,
    by at most RHO_STEP_MAX.  A check whose residuals are both at most tol
    evaluates the interval [lower, upper] that holds the optimum, and the
    solve stops once upper - lower <= tol.  The solution reports the
    repaired point of the last check (its value is lower), the final rho,
    the number of changes and one history row per check.  Returns
    converged=False when the iteration budget is exhausted, with the
    interval of the last iteration; callers decide whether that is fatal.  A
    tol that is a bool, not a real number, or not positive and finite, or a
    max_iters that is not an integer of at least 1, is a ValueError.
    """
    if isinstance(tol, (bool, np.bool_)) or not isinstance(tol, numbers.Real):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    max_iters = _integer(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    start = time.perf_counter()
    n_cliques, k, _ = prob.variable.shape
    n_vec = n_cliques * k * k

    # x = x0 + T y meets the mirrored and shared entries, the class ties and
    # the fixed diagonals for every y, so the ADMM runs on y through G.
    # Each variable is the value of its entries: T is 0/1.
    G = _Consensus(prob.variable, prob.localizers)
    x0 = np.where(prob.variable.reshape(-1) >= 0, 0.0, 1.0)
    g0 = G.with_slacks(x0)

    c = prob.objective.reshape(-1)
    cy = G.scatter(np.concatenate([c, np.zeros(g0.size - n_vec)]))  # T^T c
    c_norm = 1.0 + np.linalg.norm(c)

    def stacks(vec: np.ndarray) -> list[np.ndarray]:
        """The clique blocks and the localizer slacks of a vector of with_slacks' layout."""
        return [vec[:n_vec].reshape(n_cliques, k, k), vec[n_vec:].reshape(prob.localizers.shape[1:])]

    def project_blocks(vec: np.ndarray) -> np.ndarray:
        return np.concatenate([_psd_project(stack).reshape(-1) for stack in stacks(vec)])

    def least_eigenvalues(vec: np.ndarray) -> np.ndarray:
        """The least eigenvalue of each (symmetrized) clique block and localizer slack."""
        return np.concatenate(
            [np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, 1, 2)))[:, 0] for s in stacks(vec) if s.size]
        )

    # The central point of the lower end and its least eigenvalue; a block's size
    # bounds its trace on the feasible set (in the order of least_eigenvalues).
    x_central = (prob.central[:, :, None] * np.eye(k)).reshape(-1)
    central_least = least_eigenvalues(G.with_slacks(x_central)).min()
    sizes = np.concatenate([np.full(len(s), s.shape[1]) for s in stacks(g0) if s.size])

    def interval(g: np.ndarray, v: np.ndarray, z: np.ndarray) -> tuple[float, float, float]:
        """The ends lower <= optimum <= upper and the repair weight t, as in the module docstring."""
        negative = np.minimum(least_eigenvalues(g), 0.0)
        t = float(np.max(-negative / (central_least - negative)))
        dual = rho * (z - v)
        dual -= G.gather(G.solve(G.scatter(dual) + cy))
        excess = G.scatter(dual) + cy
        upper = c @ x0 + dual @ g0 + sizes @ np.maximum(-least_eigenvalues(dual), 0.0) + np.abs(excess).sum()
        return (1.0 - t) * float(c @ g[:n_vec]), float(upper), t

    # The state is the point v that the projection is applied to: z = P(v) is
    # the consensus copy and u = v - z the scaled dual, so one plain ADMM step
    # maps v to the blocks and slacks of x plus u, and Anderson acceleration
    # extrapolates across steps.
    rho = 1.0
    v = np.zeros(g0.size)
    z = project_blocks(v)
    accel = _Anderson(v.size)
    iterations = penalty_changes = 0
    converged = False
    history: list[tuple[int, float, float, float, float]] = []

    for iteration in range(1, max_iters + 1):
        iterations = iteration
        u = v - z
        y = G.solve(cy / rho + G.scatter(z - u - g0))
        g = g0 + G.gather(y)
        step = g + u
        # Residuals are measured on plain steps only, so a check iteration neither
        # extrapolates nor rejects.
        check = iteration % RESIDUAL_CHECK_EVERY == 0 or iteration == max_iters
        v = accel.advance(step, step - v, extrapolate=not check)
        z_prev, z = z, project_blocks(v)
        if not check:
            continue

        primal_res = float(np.linalg.norm(g - z) / (1.0 + np.linalg.norm(g)))
        dual_res = float(rho * np.linalg.norm(G.scatter(z - z_prev)) / c_norm)
        history.append((iteration, primal_res, dual_res, rho, time.perf_counter() - start))
        passed = primal_res <= tol and dual_res <= tol
        if passed or iteration == max_iters:
            lower, upper, t = interval(g, v, z)
            converged = passed and upper - lower <= tol
            if converged or iteration == max_iters:
                break
        # Residual balancing: a residual ratio outside the dead band moves rho
        # by its square root, by a factor of at most RHO_STEP_MAX per check.
        ratio = primal_res / dual_res if dual_res > 0.0 else 1.0
        if not 1.0 / RHO_DEAD_BAND <= ratio <= RHO_DEAD_BAND:
            factor = min(max(ratio**0.5, 1.0 / RHO_STEP_MAX), RHO_STEP_MAX)
            new_rho = min(max(rho * factor, RHO_MIN), RHO_MAX)
            if new_rho != rho:
                factor = new_rho / rho
                rho = new_rho
                v = z + (v - z) / factor
                accel.reset()
                penalty_changes += 1

    # The repaired point, with g[:n_vec] = x0 + T y: feasible up to the rounding of the eigenvalues.
    x = (1.0 - t) * g[:n_vec] + t * x_central
    slacks = stacks(G.with_slacks(x))[1]
    min_slack = float(np.linalg.eigvalsh(slacks).min()) if slacks.size else 0.0

    return SdpSolution(
        value=lower,
        lower=lower,
        upper=upper,
        moment=_complete(prob, x.reshape(n_cliques, k, k)),
        localizer_min_eig_slack=min_slack,
        iterations=iterations,
        converged=converged,
        rho=rho,
        penalty_changes=penalty_changes,
        history=history,
    )


def _pinv_half(mats: np.ndarray) -> np.ndarray:
    """H with H H^T the pseudo-inverse of each PSD matrix of a stack, cut at COMPLETION_RCOND."""
    eigvals, eigvecs = np.linalg.eigh(mats)
    keep = eigvals > COMPLETION_RCOND * eigvals[..., -1:]
    scale = np.divide(1.0, np.sqrt(np.maximum(eigvals, 0.0)), out=np.zeros_like(eigvals), where=keep)
    return eigvecs * scale[..., None, :]


def _complete(prob: SdpProblem, blocks: np.ndarray) -> np.ndarray:
    """The D x D moment matrix with the given clique blocks, completed along the clique tree.

    Clique 0 is M[S, S] on the separator S = 0..width-1, and clique i meets it
    in T_i, u and the words i w with |w| <= d-2; the private part P_i is the
    rest of clique i.  First M[P_i, S] = X_i[P, T] X_i[T, T]^+ M[T_i, S],
    keeping the given M[P_i, T_i]; then the private parts meet in
    M[P_i, S] M[S, S]^+ M[S, P_j].  The result is PSD when every clique
    block is.
    """
    if prob.d == 0:
        return blocks[0]
    width = blocks.shape[1]
    run = (len(prob.word_index) + 1 - width) // len(prob.shifted)
    tie = np.insert(prob.shifted[:, : width - run - 1], 0, 0, axis=1)  # the moment indices of T_i, before the run
    given = blocks[1:, width - run :, : width - run]  # X_i[P, T]
    half = _pinv_half(blocks[1:, : width - run, : width - run])
    cross = (given @ half) @ (np.swapaxes(half, 1, 2) @ blocks[0][tie])
    np.put_along_axis(cross, tie[:, None, :], given, axis=2)
    cross = cross.reshape(-1, width)  # M[P, S], the runs in order
    half = cross @ _pinv_half(blocks[0])
    moment = np.block([[blocks[0], cross.T], [cross, half @ half.T]])
    private = moment[width:, width:]
    for i, block in enumerate(blocks[1:]):
        private[i * run : (i + 1) * run, i * run : (i + 1) * run] = block[width - run :, width - run :]
    return moment


def fcb_interval(
    p: Polynomial, d: int, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> tuple[float, float]:
    """Ends lower <= ||p||_{fcb,d} <= upper of a certified interval of width <= tol, via build + solve.

    Raises ConvergenceError when the solve stops short of the width.
    """
    prob = build_fcb_sdp(p, d)
    sol = solve_sdp(prob, tol=tol, max_iters=max_iters)
    if not sol.converged:
        gap = f"certified gap {sol.upper - sol.lower:.2e} at iteration {sol.iterations}"
        if not any(primal <= tol and dual <= tol for _, primal, dual, _, _ in sol.history):
            gap = f"no check passed its residuals; {gap}"
        checks = "; ".join(
            f"iteration {it}: primal {primal:.2e}, dual {dual:.2e}, rho {rho:.2e}, {seconds:.3f} s"
            for it, primal, dual, rho, seconds in sol.history[-3:]
        )
        _, primal, dual, _, _ = sol.history[-1]
        raise ConvergenceError(
            f"SDP did not reach tol={tol} in {sol.iterations} iterations: {gap} "
            f"(primal {primal:.2e}, dual {dual:.2e}); final rho {sol.rho:.2e}; "
            f"last checks: {checks}"
        )
    return sol.lower, sol.upper


def fcb_norm(p: Polynomial, d: int, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS) -> float:
    """Fourier completely bounded d-norm of p: the lower end of fcb_interval."""
    return fcb_interval(p, d, tol, max_iters)[0]


# Directions of the word vectors below PINV_RCOND times the largest singular
# value are resolved by no solve to DEFAULT_TOL; with numpy's default cut-off
# the least-squares map amplifies them (by 1.05e-2 past 1 on
# 0.7893649314827461 - 1.0553018806519403 x1 at d = 2).
PINV_RCOND = 1e-5
SINGULAR_EXCESS_TOLERANCE = 1e-6


def extract_witness(sol: SdpSolution, prob: SdpProblem) -> Witness:
    """Gram-factorize the moment matrix into an explicit Boolean-behavior triple.

    The factors span every positive eigenvalue; A(i) is the least-squares
    map sending each word vector v_w to v_{i w} (zero on the orthogonal
    complement, with singular values of the word vectors below PINV_RCOND
    times the largest treated as zero).  A letter whose map has a singular
    value more than SINGULAR_EXCESS_TOLERANCE above 1 is refused.
    """
    if not sol.converged:
        raise ExtractionError("solution did not converge; refusing to extract a witness")
    moment = 0.5 * (sol.moment + sol.moment.T)
    eigvals, eigvecs = np.linalg.eigh(moment)
    keep = eigvals > 0.0
    if not keep.any():
        raise ExtractionError("moment matrix is numerically zero")
    factors = eigvecs[:, keep] * np.sqrt(eigvals[keep])  # row alpha = vector of index alpha

    u = factors[0]
    v = factors[prob.word_index[()]]
    targets = np.swapaxes(factors[prob.shifted], 1, 2)  # (n+1) x rank x |W0|: the vectors v_{i w}
    A = targets @ np.linalg.pinv(factors[1 : prob.shifted.shape[1] + 1].T, rcond=PINV_RCOND)  # over the v_w
    excess = np.maximum(np.linalg.svd(A, compute_uv=False).max(axis=1, initial=0.0) - 1.0, 0.0)
    over = excess > SINGULAR_EXCESS_TOLERANCE
    if over.any():
        i = int(np.argmax(over))  # the first letter past the tolerance
        raise ExtractionError(
            f"letter {i + 1}: singular value exceeds 1 by {excess[i]:.2e}; solve to a tighter tolerance"
        )

    u_norm = np.linalg.norm(u)
    v_norm = np.linalg.norm(v)
    if u_norm == 0.0 or v_norm == 0.0:
        raise ExtractionError("degenerate factorization: u or v vanished")
    return Witness(d=prob.d, u=u / u_norm, v=v / v_norm, A=A)
