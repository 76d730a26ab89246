"""Tiny exact linear algebra over field elements: 3x3 determinants,
adjugates and matrix-vector products, equality up to scale, and the
nullspace behind ``verify``'s five-point conic fits.  Matrix products are
``verify``'s."""

from __future__ import annotations

from .field import FieldElement, fe, ZERO, ONE


def _matrix3(rows):
    """A 3x3 matrix of field elements, each entry coerced with ``fe``; any
    other shape raises ValueError."""
    m = tuple(tuple(fe(x) for x in r) for r in rows)
    if len(m) != 3 or any(len(r) != 3 for r in m):
        raise ValueError("need a 3x3 matrix")
    return m


def det3(m) -> FieldElement:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m):
    """Transposed cofactor matrix; m @ adj(m) == det(m) * I."""
    c = lambda i, j: m[i][j]
    return (
        (
            c(1, 1) * c(2, 2) - c(1, 2) * c(2, 1),
            c(0, 2) * c(2, 1) - c(0, 1) * c(2, 2),
            c(0, 1) * c(1, 2) - c(0, 2) * c(1, 1),
        ),
        (
            c(1, 2) * c(2, 0) - c(1, 0) * c(2, 2),
            c(0, 0) * c(2, 2) - c(0, 2) * c(2, 0),
            c(0, 2) * c(1, 0) - c(0, 0) * c(1, 2),
        ),
        (
            c(1, 0) * c(2, 1) - c(1, 1) * c(2, 0),
            c(0, 1) * c(2, 0) - c(0, 0) * c(2, 1),
            c(0, 0) * c(1, 1) - c(0, 1) * c(1, 0),
        ),
    )


def matvec3(m, v):
    return tuple(sum((m[i][j] * v[j] for j in range(3)), ZERO) for i in range(3))


def proportional(a, b) -> bool:
    """Whether a = t*b for some nonzero scalar t; b must have a nonzero entry."""
    pivot = next(i for i, x in enumerate(b) if not x.is_zero())
    t = a[pivot] / b[pivot]
    return not t.is_zero() and all(x == y * t for x, y in zip(a, b))


def nullspace(rows: list[list[FieldElement]]) -> list[list[FieldElement]]:
    """Basis of the right nullspace of an exact matrix (list of rows)."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [ZERO] * ncols
        vec[fcol] = ONE
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -work[prow][fcol]
        basis.append(vec)
    return basis
