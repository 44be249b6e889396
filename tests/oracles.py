"""Reference implementations that the tests compare the library against.

None of these runs in the library or the CLI.  They solve the same
problems the slow, direct way, on ``Fraction`` cells:

* :func:`fraction_phase1_vertex`, a phase-I tableau simplex with Bland's
  rule, and :func:`reference_lp_feasible` on top of it;
* :func:`brute_force_Re_oracle`, elementary decomposability as the
  feasibility of its defining linear system;
* :func:`in_d_lambda2`, membership of a field in the face-boundary image.
"""

from cycledec.complexes import TwoComplex, VectorField, check_rates, recover_psi
from cycledec.errors import NotHomologous, TooLarge
from cycledec.ratio import ONE, ZERO, to_rat


def _sparse(row):
    return {j: q for j, v in enumerate(row) if (q := to_rat(v))}


def fraction_pivot(rows, r, c):
    """Make the entry of row ``r`` in column ``c`` one and clear column
    ``c`` from every other ``{column: Rat}`` row."""
    row = rows[r]
    pv = row[c]
    if pv != 1:
        row = rows[r] = {j: v / pv for j, v in row.items()}
    for other in rows:
        f = other.get(c)
        if f is None or other is row:
            continue
        for j, v in row.items():
            w = other.get(j, ZERO) - f * v
            if w:
                other[j] = w
            else:
                del other[j]


def fraction_phase1_vertex(rows, rhs, n, ties=None):
    """Phase-I simplex with Bland's rule on ``{x >= 0 : A x = b}``.

    ``rows`` are the ``{column: Rat}`` rows of ``A`` over ``n`` columns and
    ``rhs`` is ``b``.  The tableau keeps the right-hand side as its last
    column and the reduced costs as its last row.  Returns one value per
    column for a basic feasible solution, or ``None`` when the system is
    infeasible.  Every ratio-test tie is appended to ``ties`` when a list
    is given.
    """
    m = len(rows)
    rhs_col = n + m
    # artificial column n + i starts basic in row i; a row with negative
    # right-hand side is negated so that the start is feasible
    T = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        t = dict(row) if b >= 0 else {j: -v for j, v in row.items()}
        t[n + i] = ONE
        if b:
            t[rhs_col] = abs(b)
        T.append(t)
    basis = list(range(n, n + m))
    cost = {}
    for t in T:
        for j, v in t.items():
            if j < n or j == rhs_col:
                cost[j] = cost.get(j, ZERO) - v
    T.append({j: v for j, v in cost.items() if v})

    while True:
        negative = [j for j, v in T[m].items() if v < 0 and j != rhs_col]
        if not negative:
            break
        enter = min(negative)
        leave = None
        best = None
        for i in range(m):
            a = T[i].get(enter, ZERO)
            if a > 0:
                ratio = T[i].get(rhs_col, ZERO) / a
                if best is not None and ratio == best and ties is not None:
                    ties.append((enter, i, leave))
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        assert leave is not None
        fraction_pivot(T, leave, enter)
        basis[leave] = enter

    if rhs_col in T[m]:
        return None
    values = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            values[j] = T[i].get(rhs_col, ZERO)
    return values


def reference_lp_feasible(a_ub=(), b_ub=(), a_eq=(), b_eq=(), n_vars=None):
    """Exact feasibility of ``{x >= 0, a_ub x <= b_ub, a_eq x = b_eq}``.

    Returns ``(True, witness)`` with an exact witness, or ``(False, None)``.
    ``n_vars`` defaults to the width of the constraints.
    """
    rows = [_sparse(row) for row in [*a_ub, *a_eq]]
    if n_vars is None:
        n_vars = len([*a_ub, *a_eq][0])
    if not rows:
        return True, [ZERO] * n_vars
    # one slack column per inequality
    for i in range(len(a_ub)):
        rows[i][n_vars + i] = ONE
    rhs = [to_rat(v) for v in [*b_ub, *b_eq]]
    values = fraction_phase1_vertex(rows, rhs, n_vars + len(a_ub))
    if values is None:
        return False, None
    return True, values[:n_vars]


def brute_force_Re_oracle(rates: dict, complex: TwoComplex, max_vars: int = 400) -> bool:
    """Elementary decomposability as the feasibility of its linear system.

    One nonnegative variable per edge cycle and per oriented face cycle,
    one equation per oriented edge.  Small complexes only: more than
    ``max_vars`` variables raise :class:`TooLarge`.
    """
    rates = check_rates(rates, complex)
    n_edge_vars = complex.n_edges
    n_vars = n_edge_vars + 2 * complex.n_faces
    if n_vars > max_vars:
        raise TooLarge(f"{n_vars} variables exceed the budget of {max_vars}")

    rows = []
    rhs = []
    for eid, (u, v) in enumerate(complex.edges):
        for forward in (True, False):
            row = [ZERO] * n_vars
            row[eid] = ONE
            for fid, sign in complex.edge_faces[eid]:
                traverses_forward = sign == 1
                if traverses_forward == forward:
                    row[n_edge_vars + 2 * fid] += ONE
                else:
                    row[n_edge_vars + 2 * fid + 1] += ONE
            rows.append(row)
            rhs.append(rates.get((u, v) if forward else (v, u), ZERO))
    feasible, _ = reference_lp_feasible(a_eq=rows, b_eq=rhs, n_vars=n_vars)
    return feasible


def in_d_lambda2(phi: VectorField) -> bool:
    """Whether ``phi`` is the boundary of a two-chain."""
    try:
        recover_psi(phi)
    except NotHomologous:
        return False
    return True
