"""Truncation machinery for infinite linear systems sum_j a(i,j) x_j = b(i).

The systems this package assembles are infinite but strictly diagonally
dominant in their intended parameter regions, which guarantees that the
solutions of growing finite truncations form a Cauchy sequence converging to
the unique bounded solution of the infinite system.  This module provides the
generic pieces of that scheme:

* truncate: materialize the leading N x N block and right-hand side,
* solve: dense LU solve with residual reporting,
* dominance_report: probe the strict-dominance ratios sigma_i and the three
  side conditions (summable inverse diagonals, uniformly bounded off-row
  sums, finite column sums) that the truncation-convergence argument needs,
* converge: solve truncations along a doubling ladder until successive
  solutions agree on shared indices to a requested tolerance.

Coefficients come from a CoefficientOracle whose functions take broadcastable
integer index arrays and return arrays, so a truncation is one call to a and
one to b, and each dominance probe reads one block.  An entry an oracle
cannot compute raises ValueError or ArithmeticError for the whole block;
truncate and the row probe pass that on, while the diagonal and column probes
stop before the first row that raises and say so in a note.

A finite machine can only probe the infinite conditions, so the report
distinguishes "probed" facts (finite sums up to a cutoff, geometric-ratio
checks) from analytic facts the oracle supplies in closed form (row tail
bounds, a sufficient parameter condition for dominance).  When an oracle has
no tail bound, sigma_i is a lower estimate and the report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack


class AssemblyError(ValueError):
    """An oracle produced a non-finite coefficient during truncation."""


class SingularSystemError(ValueError):
    """Dense factorization hit a numerically zero pivot."""


class ZeroDiagonalError(ValueError):
    """A dominance probe found a zero diagonal entry."""


@dataclass(frozen=True)
class CoefficientOracle:
    """On-demand coefficients of an infinite system, 1-indexed.

    a(i, j) and b(i) take integer index arrays that broadcast against each
    other (scalars included) and return the entries at every index of the
    broadcast shape; a scalar result stands for that value everywhere.  They
    must be deterministic.  An entry that cannot be computed (a quadrature
    that fails, say) raises ValueError or ArithmeticError for the whole call;
    one that leaves floating-point range comes back as inf.
    tail_row_bound(i, J), when present, takes an array of rows and an integer
    cutoff J and returns analytic upper bounds on sum_{j>J} |a(i,j)|.
    analytic_region, when present, reports whether the model parameters lie
    in a closed-form region where strict dominance is proven for every row,
    not just the probed ones.
    """

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    tail_row_bound: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    analytic_region: Optional[Callable[[], bool]] = None
    name: str = "oracle"


@dataclass(frozen=True)
class TruncatedSystem:
    n: int
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    residual: float


@dataclass
class DominanceReport:
    """Probe of strict diagonal dominance and the three side conditions.

    sigma[i-1] = (sum_{j <= tail_cutoff, j != i} |a_ij| + analytic tail) / |a_ii|
    for rows i = 1..order.  satisfied requires every probed sigma_i < 1 plus
    all three side conditions.  analytic_region_ok mirrors the oracle's
    closed-form sufficient condition when it has one (None otherwise), and
    marginal flags the honest in-between: every probe passes but the
    parameters sit outside the analytically certified region.
    """

    order: int
    tail_cutoff: int
    sigma: np.ndarray
    worst_row: int
    diag_sums_summable: bool      # partial sums of 1/|a_ii| look Cauchy
    row_sums_bounded: bool        # off-diagonal row sums stay finite
    col_sums_finite: bool         # column sums up to the cutoff are finite
    satisfied: bool
    tail_is_analytic: bool
    analytic_region_ok: Optional[bool]
    marginal: bool
    max_offdiag_row_sum: float
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "tail_cutoff": self.tail_cutoff,
            "sigma": [float(s) for s in self.sigma],
            "worst_row": self.worst_row,
            "max_sigma": float(self.sigma[self.worst_row - 1]),
            "diag_sums_summable": self.diag_sums_summable,
            "row_sums_bounded": self.row_sums_bounded,
            "col_sums_finite": self.col_sums_finite,
            "satisfied": self.satisfied,
            "tail_is_analytic": self.tail_is_analytic,
            "analytic_region_ok": self.analytic_region_ok,
            "marginal": self.marginal,
            "max_offdiag_row_sum": self.max_offdiag_row_sum,
            "notes": list(self.notes),
        }


@dataclass
class ConvergedSolution:
    """Outcome of the doubling ladder.

    values holds the last truncation's solution (index j stored at values[j-1]).
    gaps holds |x_j^(N) - x_j^(N_prev)| over the indices the last two rungs
    share.  converged means the max gap met the tolerance before the ladder
    ran out of orders; an exhausted ladder is reported, not raised.
    """

    values: np.ndarray
    n_used: int
    gaps: np.ndarray
    max_gap: float
    converged: bool
    tol: float
    rungs: list
    residuals: list

    def to_dict(self) -> dict:
        return {
            "n_used": self.n_used,
            "max_gap": float(self.max_gap),
            "converged": self.converged,
            "tol": self.tol,
            "rungs": list(self.rungs),
            "residuals": [float(r) for r in self.residuals],
        }


def _block(f, *index) -> np.ndarray:
    """f(*index) as a float array of the broadcast index shape."""
    shape = np.broadcast_shapes(*(np.shape(i) for i in index))
    return np.array(np.broadcast_to(np.asarray(f(*index), dtype=float), shape))


def truncate(oracle: CoefficientOracle, n: int) -> TruncatedSystem:
    """Materialize the leading n x n block A[i][j] = a(i,j), b[i] = b(i)."""
    if n < 1:
        raise ValueError(f"truncation order must be >= 1, got {n}")
    idx = np.arange(1, n + 1)
    a = _block(oracle.a, idx[:, None], idx[None, :])
    b = _block(oracle.b, idx)
    for what, x in (("coefficient a", a), ("rhs b", b)):
        bad = np.argwhere(~np.isfinite(x))
        if len(bad):
            at = ",".join(str(k + 1) for k in bad[0])
            raise AssemblyError(f"{oracle.name}: non-finite {what}({at}) = "
                                f"{x[tuple(bad[0])]}")
    return TruncatedSystem(n=n, a=a, b=b)


def solve(sys: TruncatedSystem) -> SolveResult:
    """Dense LU solve with partial pivoting; reports the residual inf-norm.

    Rows are equilibrated to unit max magnitude first: the assembled systems
    have diagonals growing geometrically with the row index, and without
    scaling a healthy pivot in a small-magnitude row is indistinguishable
    from a genuinely collapsed one.
    """
    if sys.a.shape[0] != sys.a.shape[1]:
        raise ValueError("system matrix must be square")
    row_scale = np.abs(sys.a).max(axis=1)
    if np.any(row_scale == 0.0):
        raise SingularSystemError(
            f"numerically singular truncation (order {sys.n}): zero row")
    a_eq = sys.a / row_scale[:, None]
    b_eq = sys.b / row_scale
    # LAPACK's getrf/getrs, which lu_factor/lu_solve wrap, report a zero
    # pivot through info instead of a warning; the check below turns it
    # into SingularSystemError.
    lu, piv, _ = lapack.dgetrf(np.asarray_chkfinite(a_eq))
    tiny = np.abs(np.diag(lu)).min()
    if tiny <= sys.n * np.finfo(float).eps:
        raise SingularSystemError(
            f"numerically singular truncation (order {sys.n}): "
            f"smallest pivot magnitude {tiny:.3e} after row equilibration")
    x, _ = lapack.dgetrs(lu, piv, np.asarray_chkfinite(b_eq))
    residual = float(np.abs(a_eq @ x - b_eq).max())
    return SolveResult(x=x, residual=residual)


def _rows_before_failure(block, rows: np.ndarray) -> np.ndarray:
    """block(rows), cut before the first row whose entries cannot be computed.

    block maps an array of row indices to an array with one leading-axis
    entry per row.  Only when the whole block raises are the rows tried one
    at a time, to find the first that raises; quadrature-backed oracles
    memoize their entries, so the retry recomputes none of the earlier rows.
    """
    try:
        return block(rows)
    except (ValueError, ArithmeticError):
        for k in range(len(rows)):
            try:
                block(rows[k:k + 1])
            except (ValueError, ArithmeticError):
                return block(rows[:k])
        raise


def _probe_diag_summability(oracle: CoefficientOracle, upto: int) -> tuple:
    """Cauchy probe of sum_i 1/|a_ii|: geometric decay of late increments.

    Uses the geometric-mean ratio of the increments over the back half of the
    probe range; a ratio below 0.99 (and shrinking increments) is taken as
    evidence the series converges.  This is a probe, never a proof.  Entries
    that stop being computable (quadrature-backed oracles run out of floating
    point range eventually) end the probe early; returns (ok, ratio, reached).
    """
    diag = np.abs(_rows_before_failure(
        lambda i: _block(oracle.a, i, i), np.arange(1, upto + 1)))
    reached = len(diag)
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise ZeroDiagonalError(
            f"{oracle.name}: zero diagonal at row {zero[0] + 1}")
    if reached < 4:
        return False, math.nan, reached
    half = max(2, reached // 2)
    first, last = 1.0 / float(diag[half - 1]), 1.0 / float(diag[-1])
    if last == 0.0:
        return True, 0.0, reached
    ratio = (last / first) ** (1.0 / max(1, reached - half))
    return (ratio < 0.99 and last <= first), ratio, reached


def dominance_report(oracle: CoefficientOracle, order: int,
                     tail_cutoff: Optional[int] = None) -> DominanceReport:
    """Probe strict diagonal dominance of the first `order` rows.

    Row sums run to tail_cutoff (default 4*order) and are completed by the
    oracle's analytic tail bound when it has one; otherwise sigma_i is a
    lower estimate and a note says so.  The three side conditions are probed:
    summability of 1/|a_ii| by geometric-ratio, boundedness of off-row sums
    by their probed maximum being finite, and column sums by finiteness up to
    the cutoff.  The probes read three blocks: rows 1..order by columns
    1..cutoff, columns 1..order by rows 1..cutoff, and the diagonal to
    4*order.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    cutoff = tail_cutoff if tail_cutoff is not None else 4 * order
    if cutoff < order:
        raise ValueError(f"tail_cutoff {cutoff} must be >= order {order}")
    notes = []
    has_tail = oracle.tail_row_bound is not None
    if not has_tail:
        notes.append(
            f"no analytic tail bound: sigma is a lower estimate from the "
            f"first {cutoff} columns")

    diag_ok, _ratio, diag_reached = _probe_diag_summability(oracle, 4 * order)
    if diag_reached < 4 * order:
        notes.append(
            f"diagonal probe ended at row {diag_reached} of {4 * order}: "
            f"later entries are not computable")
    rows = np.arange(1, order + 1)
    cols = np.arange(1, cutoff + 1)
    # The diagonal probe has found any zero among these diagonal entries.
    block = np.abs(_block(oracle.a, rows[:, None], cols[None, :]))
    diag = np.diag(block).copy()
    np.fill_diagonal(block, 0.0)
    head = np.array([math.fsum(r) for r in block])
    tail = (_block(lambda i: oracle.tail_row_bound(i, cutoff), rows)
            if has_tail else 0.0)
    offdiag_sums = head + tail
    sigma = offdiag_sums / diag
    max_row = float(offdiag_sums.max())
    row_ok = math.isfinite(max_row)
    columns = _rows_before_failure(
        lambda i: _block(oracle.a, i[:, None], rows[None, :]), cols)
    col_reached = len(columns)
    col_ok = bool(np.all(np.isfinite(np.abs(columns).sum(axis=0))))
    if col_ok and col_reached < cutoff:
        notes.append(
            f"column sums probed to row {col_reached} of {cutoff}: "
            f"later entries are not computable")

    worst = int(np.argmax(sigma)) + 1
    satisfied = bool(np.all(sigma < 1.0)) and diag_ok and row_ok and col_ok
    region = bool(oracle.analytic_region()) if oracle.analytic_region else None
    marginal = satisfied and region is False
    if marginal:
        notes.append("probed rows are dominant but the parameters lie "
                     "outside the closed-form sufficient region")
    return DominanceReport(
        order=order, tail_cutoff=cutoff, sigma=sigma, worst_row=worst,
        diag_sums_summable=diag_ok, row_sums_bounded=row_ok,
        col_sums_finite=col_ok, satisfied=satisfied,
        tail_is_analytic=has_tail, analytic_region_ok=region,
        marginal=marginal, max_offdiag_row_sum=max_row, notes=notes)


def converge(oracle: CoefficientOracle, n_start: int, n_max: int,
             tol: float) -> ConvergedSolution:
    """Solve truncations along a doubling ladder until they agree.

    Orders run n_start, 2*n_start, ... capped at n_max.  After each rung the
    gap max_j |x_j^(N) - x_j^(N_prev)| over shared indices is measured; the
    ladder stops at the first gap <= tol.  Exhausting n_max returns the last
    solution with converged=False rather than raising.  n_max == n_start
    pins the last rung at exactly that order: the ladder then starts from
    max(2, n_start // 2), so the gap is measured against the half-order solve.
    """
    if n_max == n_start:
        n_start = max(2, n_start // 2)
    if n_start < 2:
        raise ValueError(f"n_start must be >= 2, got {n_start}")
    if n_max < 2 * n_start:
        raise ValueError(f"n_max must be >= 2*n_start, got {n_max} < {2 * n_start}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    rungs, residuals = [], []
    prev = None
    gaps = np.array([])
    max_gap = math.inf
    converged = False
    n = n_start
    while True:
        res = solve(truncate(oracle, n))
        rungs.append(n)
        residuals.append(res.residual)
        if prev is not None:
            shared = min(len(prev), len(res.x))
            gaps = np.abs(res.x[:shared] - prev[:shared])
            max_gap = float(gaps.max()) if shared else 0.0
            if max_gap <= tol:
                converged = True
                prev = res.x
                n_used = n
                break
        prev = res.x
        if n >= n_max:
            n_used = n
            break
        n = min(2 * n, n_max)
    return ConvergedSolution(values=prev, n_used=n_used, gaps=gaps,
                             max_gap=max_gap, converged=converged, tol=tol,
                             rungs=rungs, residuals=residuals)
