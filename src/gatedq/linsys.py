"""Truncation machinery for infinite linear systems sum_j a(i,j) x_j = b(i).

The systems this package assembles are infinite but strictly diagonally
dominant in their intended parameter regions, which guarantees that the
solutions of growing finite truncations form a Cauchy sequence converging to
the unique bounded solution of the infinite system.  This module provides the
generic pieces of that scheme:

* truncate: materialize the leading N x N block and right-hand side,
* solve: dense LU solve (numpy's LAPACK gesv) with a condition guard and
  residual reporting,
* dominance_report: the strict-dominance ratios sigma_i and the three side
  conditions (summable inverse diagonals, uniformly bounded off-row sums,
  finite column sums) that the truncation-convergence argument needs, exact
  where the oracle states its row sums in closed form and unknown otherwise,
* converge: solve truncations along a doubling ladder until successive
  solutions agree on shared indices to a requested tolerance,
* LadderSolution: the base of the queue modules' solutions, which keeps a
  ladder's outcome and oracle and reports on dominance on first read.

Coefficients come from a CoefficientOracle whose functions take broadcastable
integer index arrays and return arrays, so a truncation is one call to a and
one to b, and a dominance report reads one block, the diagonal.  Each rung
of the ladder is the leading block of the next, so a ladder keeps one
growing system and requests each coefficient once.  An entry an oracle
cannot compute raises ValueError or ArithmeticError for the whole block,
and truncate, the ladder and the report pass that on.

Row sums and the side conditions speak of every column of the infinite
system, which no finite head of columns can bound, so a report is one of
two kinds.  An
oracle that states its row sums (+inf where one diverges), exact at least
to rounding, and its side conditions gets an exact report.  Any other
oracle gets an unknown one: its sigma_i are NaN, and it is never
satisfied.  Either kind can also carry the oracle's closed-form sufficient
condition for dominance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OutOfRegimeError, UnconvergedError, count, positive


class AssemblyError(OutOfRegimeError):
    """A coefficient or a dominance ratio is not finite: out of regime."""


class SingularSystemError(OutOfRegimeError):
    """A truncation is numerically singular: out of regime."""


class ZeroDiagonalError(OutOfRegimeError):
    """A dominance report met a zero diagonal entry: out of regime."""


@dataclass(frozen=True)
class CoefficientOracle:
    """On-demand coefficients of an infinite system, 1-indexed.

    a(i, j) and b(i) take integer index arrays that broadcast against each
    other (scalars included) and return the entries at every index of the
    broadcast shape; a scalar result stands for that value everywhere.  They
    must be deterministic.  An entry that cannot be computed (a quadrature
    that fails, say) raises ValueError or ArithmeticError for the whole call;
    one that leaves floating-point range comes back as inf.
    analytic_region, when present, reports whether the model parameters lie
    in a closed-form region where strict dominance is proven for every row,
    not just the reported ones.  exact_row_sums(i), when present, takes a 1-D
    array of rows and returns (sums, diag_summable, cols_finite): the exact
    sum_{j != i} |a(i,j)| over every column j of each row (+inf where it
    diverges), exact at least to rounding, and whether the infinite
    system's 1/|a_ii| are summable and whether its column sums are finite.
    """

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    analytic_region: Optional[Callable[[], bool]] = None
    exact_row_sums: Optional[Callable[[np.ndarray], tuple]] = None
    name: str = "oracle"


@dataclass(frozen=True)
class TruncatedSystem:
    n: int
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    """Solution x with the residual inf-norm and the 1-norm reciprocal
    condition number of the row-equilibrated system."""

    x: np.ndarray
    residual: float
    rcond: float


def _finite_or_none(x: float) -> Optional[float]:
    """x as a float, or None (JSON null) where it is not finite."""
    return float(x) if math.isfinite(x) else None


@dataclass
class DominanceReport:
    """Strict diagonal dominance and the three side conditions.

    sigma[i-1] = sum_{j != i} |a_ij| / |a_ii| for rows i = 1..order, over
    every column j: exact (tail_is_analytic) when the oracle gives exact row
    sums, +inf where one is unbounded.  Otherwise every sigma_i, and so
    max_sigma and max_offdiag_row_sum, is NaN: finite, perhaps, but unknown.
    Such a report has both side conditions false and worst_row 1.
    analytic_region_ok mirrors the oracle's closed-form sufficient condition
    when it has one (None otherwise).  to_dict writes a number that is not
    finite as None, and tail_cutoff, a key kept for the artifacts' schema,
    as None.

    The verdicts are derived from those fields, never stored: order is
    len(sigma), worst_row the first row of the largest sigma_i (of the first
    NaN, where one is NaN), max_sigma its sigma, satisfied requires every
    sigma_i < 1 plus both side conditions, marginal flags the honest
    in-between (satisfied, but the parameters sit outside the sufficient
    region), and certifies means satisfied and exact.
    """

    sigma: np.ndarray
    diag_sums_summable: bool      # sum of 1/|a_ii| stated finite
    col_sums_finite: bool         # every column sum stated finite
    tail_is_analytic: bool
    analytic_region_ok: Optional[bool]
    max_offdiag_row_sum: float
    notes: list = field(default_factory=list)

    @property
    def order(self) -> int:
        return len(self.sigma)

    @property
    def worst_row(self) -> int:
        return int(np.argmax(self.sigma)) + 1

    @property
    def max_sigma(self) -> float:
        return float(self.sigma[self.worst_row - 1])

    @property
    def satisfied(self) -> bool:
        return (bool(np.all(self.sigma < 1.0)) and self.diag_sums_summable
                and self.col_sums_finite)

    @property
    def marginal(self) -> bool:
        return self.satisfied and self.analytic_region_ok is False

    @property
    def certifies(self) -> bool:
        """Only a satisfied exact report certifies."""
        return self.tail_is_analytic and self.satisfied

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "tail_cutoff": None,
            "sigma": [_finite_or_none(s) for s in self.sigma.tolist()],
            "worst_row": self.worst_row,
            "max_sigma": _finite_or_none(self.max_sigma),
            "diag_sums_summable": self.diag_sums_summable,
            "row_sums_bounded": math.isfinite(self.max_offdiag_row_sum),
            "col_sums_finite": self.col_sums_finite,
            "satisfied": self.satisfied,
            "tail_is_analytic": self.tail_is_analytic,
            "analytic_region_ok": self.analytic_region_ok,
            "marginal": self.marginal,
            "max_offdiag_row_sum": _finite_or_none(self.max_offdiag_row_sum),
            "notes": list(self.notes),
        }


@dataclass
class ConvergedSolution:
    """Outcome of the doubling ladder.

    values holds the last truncation's solution (index j stored at values[j-1]).
    rungs lists the orders solved and residuals their residuals.  gaps holds
    |x_j^(N) - x_j^(N_prev)| over the indices the last two rungs share.
    stopped says why a ladder ended before its last order, when it did (see
    converge).  rconds holds each rung's reciprocal condition number
    (SolveResult.rcond).  to_dict writes a max_gap that is not finite as
    None (JSON null), so its dict is standard JSON, and leaves rconds out.

    The verdicts are derived from those fields, never stored: n_used is the
    last rung, max_gap the largest gap (inf for a ladder of one rung, which
    has no gaps), and converged means max_gap met tol; an exhausted ladder
    is reported, not raised.
    """

    values: np.ndarray
    gaps: np.ndarray
    tol: float
    rungs: list
    residuals: list
    stopped: Optional[str] = None
    rconds: list = field(default_factory=list)

    @property
    def n_used(self) -> int:
        return self.rungs[-1]

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max()) if len(self.gaps) else math.inf

    @property
    def converged(self) -> bool:
        return self.max_gap <= self.tol

    def to_dict(self) -> dict:
        return {
            "n_used": self.n_used,
            "max_gap": _finite_or_none(self.max_gap),
            "converged": self.converged,
            "tol": self.tol,
            "rungs": list(self.rungs),
            "residuals": [float(r) for r in self.residuals],
        }


@dataclass(kw_only=True)
class LadderSolution:
    """The ladder's part of a solution: converged, convergence (n_used is
    its last rung) and the oracle it solved, which the solution keeps alive
    with all it reads.

    The report is a diagnostic, not part of the solution, so a solve does not
    compute it: dominance reports on the first min(n_used, 64) rows on first
    read and caches the report, and a dataclasses.replace copy reports on
    its own.  heuristic is true when that report does not certify.
    """

    converged: bool
    convergence: ConvergedSolution
    oracle: CoefficientOracle = field(repr=False, compare=False)
    notes: list = field(default_factory=list)

    @property
    def n_used(self) -> int:
        return self.convergence.n_used

    @functools.cached_property
    def dominance(self) -> DominanceReport:
        # Looked up at read time: a wrapper set as linsys.dominance_report
        # sees the call.
        return dominance_report(self.oracle, order=min(self.n_used, 64))

    @property
    def heuristic(self) -> bool:
        return not self.dominance.certifies

    def require_converged(self, reader: str) -> None:
        """Raise UnconvergedError naming reader unless the solution converged."""
        if not self.converged:
            raise UnconvergedError(f"{reader} needs a converged solution")

    def _ladder_dict(self) -> dict:
        """The to_dict entries every solution writes, the report included."""
        return {
            "n_used": self.n_used,
            "converged": self.converged,
            "convergence": self.convergence.to_dict(),
            "dominance": self.dominance.to_dict(),
            "notes": list(self.notes),
        }


def _block(f, *index) -> np.ndarray:
    """f(*index) as a float array of the broadcast index shape."""
    shape = np.broadcast(*index).shape
    x = np.asarray(f(*index), dtype=float)
    return np.array(x if x.shape == shape else np.broadcast_to(x, shape))


def _check_finite(name: str, a: np.ndarray, b: np.ndarray) -> None:
    """Raise AssemblyError naming the first non-finite entry of a, in
    row-major order, and then of b."""
    for what, x in (("coefficient a", a), ("rhs b", b)):
        if not np.isfinite(x).all():
            bad = np.argwhere(~np.isfinite(x))[0]
            at = ",".join(str(k + 1) for k in bad)
            raise AssemblyError(f"{name}: non-finite {what}({at}) = "
                                f"{x[tuple(bad)]}")


# The system before its first entry: no matrix and no right-hand side.
_EMPTY = (np.empty((0, 0)), np.empty(0))


def truncate(oracle: CoefficientOracle, n: int) -> TruncatedSystem:
    """Materialize the leading n x n block A[i][j] = a(i,j), b[i] = b(i)."""
    n = count(n, "truncation order n", 1)
    a, b = _grow(oracle, *_EMPTY, n)
    _check_finite(oracle.name, a, b)
    return TruncatedSystem(n=n, a=a, b=b)


def _grow(oracle: CoefficientOracle, a: np.ndarray, b: np.ndarray,
          n: int) -> tuple:
    """The leading n x n block and n-vector of the system whose leading
    blocks a and b already hold, requesting only the entries they lack.

    From nothing that is one call per array for the whole block.  Otherwise
    the matrix takes two calls, for the new columns of the old rows and then
    for the new rows: the same entries in the same row-major order, so an
    oracle that cannot compute some of them raises for the first of them,
    as a call for the whole block would.  Both calls index rows by a column
    and columns by a row, as a whole block does, so an oracle's per-row
    work stays per row.
    """
    have = len(b)
    idx = np.arange(1, n + 1)
    if not have:
        return (_block(oracle.a, idx[:, None], idx[None, :]),
                _block(oracle.b, idx))
    grown = np.empty((n, n))
    grown[:have, :have] = a
    grown[:have, have:] = _block(oracle.a, idx[:have, None], idx[None, have:])
    grown[have:] = _block(oracle.a, idx[have:, None], idx[None, :])
    rhs = np.empty(n)
    rhs[:have] = b
    rhs[have:] = _block(oracle.b, idx[have:])
    return grown, rhs


def solve(sys: TruncatedSystem) -> SolveResult:
    """Dense LU solve with partial pivoting; reports the residual inf-norm.

    Rows are equilibrated to unit max magnitude first: the assembled systems
    have diagonals growing geometrically with the row index, and without
    scaling a well-posed small-magnitude row is indistinguishable from a
    genuinely collapsed one.  The equilibrated matrix is refused as singular
    when LAPACK meets an exactly zero pivot or when its exact 1-norm
    reciprocal condition number 1 / (|A|_1 |A^-1|_1) is at most n * eps.
    """
    if sys.a.shape[0] != sys.a.shape[1]:
        raise ValueError("system matrix must be square")
    row_scale = np.abs(sys.a).max(axis=1)
    if not row_scale.all():
        raise SingularSystemError(
            f"numerically singular truncation (order {sys.n}): zero row")
    a_eq = np.asarray_chkfinite(sys.a / row_scale[:, None])
    b_eq = np.asarray_chkfinite(sys.b / row_scale)
    try:
        inv = np.linalg.inv(a_eq)
        x = np.linalg.solve(a_eq, b_eq)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"numerically singular truncation (order {sys.n}): {exc}") from None
    rcond = 1.0 / (float(np.abs(a_eq).sum(axis=0).max())
                   * float(np.abs(inv).sum(axis=0).max()))
    if rcond <= sys.n * np.finfo(float).eps:
        raise SingularSystemError(
            f"numerically singular truncation (order {sys.n}): reciprocal "
            f"condition number {rcond:.3e} after row equilibration")
    residual = float(np.abs(a_eq @ x - b_eq).max())
    return SolveResult(x=x, residual=residual, rcond=rcond)


def _exact_rows(oracle: CoefficientOracle, diag: np.ndarray,
                notes: list) -> tuple:
    """(sigma, row sums, diag_ok, col_ok) from the oracle's exact row sums
    over diag, the absolute diagonal of rows 1..len(diag).

    A sigma_i that is not finite, other than that of a row stated
    unbounded, is refused with AssemblyError.  The side conditions are the
    oracle's own, and the column sums are not finite where one of those
    diagonal entries is not."""
    order = len(diag)
    sums, diag_ok, cols_ok = oracle.exact_row_sums(np.arange(1, order + 1))
    unbounded = np.isposinf(sums)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.where(unbounded, 0.0, sums) / diag
    bad = np.flatnonzero(~np.isfinite(sigma))
    if len(bad):
        i = bad[0]
        raise AssemblyError(
            f"{oracle.name}: row {i + 1} has no finite dominance ratio: "
            f"off-diagonal sum {sums[i]} over diagonal {diag[i]}")
    sigma[unbounded] = math.inf
    if unbounded.any():
        notes.append(f"{np.count_nonzero(unbounded)} of {order} rows have "
                     "unbounded off-diagonal sums: their sigma is infinite")
    return sigma, sums, diag_ok, cols_ok and bool(np.isfinite(diag).all())


def dominance_report(oracle: CoefficientOracle, order: int) -> DominanceReport:
    """Strict diagonal dominance of the first `order` rows.

    The report reads one block, the diagonal of rows 1..order, and refuses
    a zero entry there with ZeroDiagonalError.  An oracle with exact row
    sums gives sigma_i exactly, and the report takes summability of
    1/|a_ii| and finite column sums from the oracle, the column sums
    failing also where one of those diagonal entries is not finite.  A row
    sum stated as +inf gives an unbounded sigma_i, and the report cannot
    be satisfied; any other sigma_i that is not finite (a NaN entry or a
    NaN or overflowing sum) raises AssemblyError.

    Any other oracle gets an unknown report: a head of columns cannot
    bound the sum over every column, so every sigma_i and the largest
    off-diagonal row sum are NaN, both side conditions are false, the
    report is not satisfied, and a note says why.
    """
    order = count(order, "order", 1)
    rows = np.arange(1, order + 1)
    diag = np.abs(_block(oracle.a, rows, rows))
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise ZeroDiagonalError(
            f"{oracle.name}: zero diagonal at row {zero[0] + 1}")
    notes = []
    exact = oracle.exact_row_sums is not None
    if exact:
        sigma, offdiag_sums, diag_ok, col_ok = _exact_rows(oracle, diag, notes)
    else:
        sigma = offdiag_sums = np.full(order, math.nan)
        diag_ok = col_ok = False
        notes.append(f"{oracle.name} states no row sums: every sigma and "
                     "the side conditions are unknown")

    region = bool(oracle.analytic_region()) if oracle.analytic_region else None
    report = DominanceReport(
        sigma=sigma, diag_sums_summable=diag_ok,
        col_sums_finite=col_ok, tail_is_analytic=exact,
        analytic_region_ok=region,
        max_offdiag_row_sum=float(offdiag_sums.max()), notes=notes)
    if report.marginal:
        notes.append(f"rows 1..{order} are dominant but the parameters lie "
                     "outside the closed-form sufficient region")
    return report


def converge(oracle: CoefficientOracle, n_start: int, n_max: int,
             tol: float, stop_on: tuple = ()) -> ConvergedSolution:
    """Solve truncations along a doubling ladder until they agree.

    Orders run n_start, 2*n_start, ... capped at n_max.  After each rung the
    gap max_j |x_j^(N) - x_j^(N_prev)| over shared indices is measured; the
    ladder stops at the first gap <= tol.  Exhausting n_max returns the last
    solution with converged=False rather than raising.  n_max == n_start
    pins the last rung at exactly that order: the ladder then starts from
    max(2, n_start // 2), so the gap is measured against the half-order solve.
    An exception of a type in stop_on that the oracle raises while a rung
    after the first is assembled ends the ladder at the last rung that
    solved, unconverged, and stopped names the rung and the exception; on
    the first rung it propagates, as every other exception does.  An
    exception is raised on reaching the rung whose block holds its entry,
    and is the one truncate would raise for that rung, although the first
    two rungs are requested together and a later rung requests only the
    entries the rung before it lacks.
    """
    n_start = count(n_start, "n_start", 2 if n_max != n_start else None)
    if n_max == n_start:
        n_start = max(2, n_start // 2)
    n_max = count(n_max, "n_max", 2 * n_start)
    positive(tol, "tol")

    # The outcome grows rung by rung, and the ladder stops on its own
    # verdict: converged, or out of orders.
    out = ConvergedSolution(values=np.empty(0), gaps=np.empty(0), tol=tol,
                            rungs=[], residuals=[])
    # One growing system serves every rung: rung n solves its leading n x n
    # block, and a later rung requests only the entries it lacks.  The first
    # two rungs come in one call; when that call raises, they are requested
    # again rung by rung, so each raises what its own block raises.
    a, b = _EMPTY
    try:
        a, b = _grow(oracle, a, b, 2 * n_start)
    except Exception:
        pass
    n = n_start
    while True:
        try:
            if n > len(b):
                a, b = _grow(oracle, a, b, n)
            _check_finite(oracle.name, a[:n, :n], b[:n])
        except stop_on as exc:
            if not out.rungs:
                raise
            out.stopped = f"rung {n} could not be assembled: {exc}"
            break
        res = solve(TruncatedSystem(n=n, a=a[:n, :n], b=b[:n]))
        if out.rungs:  # the gap runs over the previous, shorter rung
            out.gaps = np.abs(res.x[:len(out.values)] - out.values)
        out.values = res.x
        out.rungs.append(n)
        out.residuals.append(res.residual)
        out.rconds.append(res.rcond)
        if out.converged or n >= n_max:
            break
        n = min(2 * n, n_max)
    return out
