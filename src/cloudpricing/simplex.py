"""Small dense phase-one simplex for feasibility questions.

Solves: does ``x >= 0`` exist with ``A_ge @ x >= b_ge`` and ``A_le @ x <= b_le``
(all ``b`` nonnegative)?  The system is put into standard equality form with
surplus/slack variables, artificials are attached to the >= rows, and the
artificial mass is minimized with Bland's rule (no cycling).  Problem sizes
here are desk scale, so a dense tableau is the simplest reliable choice; each
pivot is one rank-1 numpy update of the rows it touches.

A point is feasible when every >= row's artificial is at most
``FEASIBILITY_RTOL * max(1, b_i)``: the slack is relative to each row's own
right-hand side, so a small row is held as tightly as a large one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FEASIBILITY_RTOL", "IterationBudgetError", "PhaseOneResult", "phase_one"]

_TOL = 1e-9
#: per-row feasibility slack, relative to ``max(1, b_i)``
FEASIBILITY_RTOL = 1e-9
#: pivots allowed per tableau row plus column before phase one gives up
PIVOTS_PER_LINE = 20


class IterationBudgetError(RuntimeError):
    """Phase one used its pivot budget without reaching an optimal tableau."""


@dataclass(frozen=True, eq=False)
class PhaseOneResult:
    """Outcome of the feasibility solve.

    ``x`` is a feasible point when ``feasible`` is true; otherwise it is the
    point minimizing total constraint violation, and ``ge_violations`` holds
    the residual shortfall of each >= row at that point.
    """

    feasible: bool
    x: np.ndarray
    total_violation: float
    ge_violations: np.ndarray


def phase_one(A_ge, b_ge, A_le, b_le) -> PhaseOneResult:
    """Minimize the >= rows' total shortfall; see the module docstring.

    Raises :class:`IterationBudgetError` after ``PIVOTS_PER_LINE`` times
    (rows + columns) pivots.
    """
    A_ge = np.atleast_2d(np.asarray(A_ge, dtype=float))
    A_le = np.atleast_2d(np.asarray(A_le, dtype=float))
    b_ge = np.atleast_1d(np.asarray(b_ge, dtype=float))
    b_le = np.atleast_1d(np.asarray(b_le, dtype=float))
    n_ge, n_le = b_ge.size, b_le.size
    n = A_ge.shape[1] if n_ge else A_le.shape[1]
    if (n_ge and A_ge.shape != (n_ge, n)) or (n_le and A_le.shape != (n_le, n)):
        raise ValueError("constraint matrices and right-hand sides disagree in shape")
    if np.any(b_ge < 0.0) or np.any(b_le < 0.0):
        raise ValueError("phase one expects nonnegative right-hand sides")

    rows = n_ge + n_le
    # columns: x | surplus (ge) | slack (le) | artificial (ge)
    cols = n + n_ge + n_le + n_ge
    T = np.zeros((rows + 1, cols + 1))
    art_start = n + n_ge + n_le
    ge, le = np.arange(n_ge), np.arange(n_le)

    T[:n_ge, :n] = A_ge.reshape(n_ge, n)
    T[ge, n + ge] = -1.0
    T[ge, art_start + ge] = 1.0
    T[:n_ge, -1] = b_ge
    T[n_ge:rows, :n] = A_le.reshape(n_le, n)
    T[n_ge + le, n + n_ge + le] = 1.0
    T[n_ge:rows, -1] = b_le

    # objective: minimize sum of artificials; express in terms of non-basics
    T[-1, art_start : art_start + n_ge] = 1.0
    basis = np.concatenate([art_start + ge, n + n_ge + le])
    for i in range(n_ge):
        T[-1] -= T[i]

    budget = PIVOTS_PER_LINE * (rows + cols)
    reduced, rhs = T[-1, :cols], T[:rows, -1]
    pivots = 0
    while True:
        entering = int(np.argmax(reduced < -_TOL))  # Bland's rule: the lowest index
        if not reduced[entering] < -_TOL:
            break
        column = T[:rows, entering]
        ratios = np.divide(rhs, column, out=np.full(rows, np.inf), where=column > _TOL)
        best = ratios.min()
        if best == np.inf:
            break  # unbounded direction cannot arise in phase one, but stay safe
        if pivots == budget:
            raise IterationBudgetError(
                f"phase-one simplex used its budget of {budget} pivots on a "
                f"{rows}-row, {cols}-column tableau"
            )
        pivots += 1
        # Bland ties break on the basic variable's index, not the row's
        tied = (ratios <= best + _TOL * (1.0 + best)).nonzero()[0]
        leaving = int(tied[basis[tied].argmin()])
        T[leaving] /= T[leaving, entering]
        factors = T[:, entering].copy()
        factors[leaving] = 0.0
        touched = factors.nonzero()[0]
        T[touched] -= factors[touched, None] * T[leaving]
        basis[leaving] = entering

    x = np.zeros(n)
    artificials = np.zeros(n_ge)
    structural = basis < n
    x[basis[structural]] = rhs[structural]
    artificial = basis >= art_start
    artificials[basis[artificial] - art_start] = rhs[artificial]
    return PhaseOneResult(
        feasible=bool(np.all(artificials <= FEASIBILITY_RTOL * np.maximum(1.0, b_ge))),
        x=x,
        total_violation=float(np.sum(artificials)),
        ge_violations=artificials,
    )
