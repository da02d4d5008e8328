"""The LP relaxation of the oracle's problem, for searches that run long.

A t-factor through the forced edges that meets every prescribed cycle in
the search's hitting mode is an integral point of

    x(delta(v)) = t_v for every vertex v,   b_C <= x(C) <= U_C for every
    cycle C,   0 <= x <= u,

with one column per class of parallel edges that share their endpoints and
their cycle (or have none); u is the size of the class.  Each forced edge is
fixed at 1: it lowers t_v at both of its ends and drops the row of the cycle
it lies on.  Every row holds for every solution:

- b_C is 2 when C is exactly the cut delta(S) of one of the search's parity
  sets S with t|S| even, and 1 otherwise: a t-factor F meets delta(S) in
  t|S| - 2|F & E[S]| edges, an even number, and in one at least when it
  hits C, so every solution meets this rank-1 Chvatal-Gomory cut (Chvatal,
  Discrete Math. 4 (1973)).  On sec6-2k, whose k cycles are each the cut of
  a vertex pair, it cuts off the uniform point x = t/2k below t = k.
- U_C is floor(|C|/2) in mode hit-matching, where F & C is a matching of
  the cycle C (the odd-set row of Edmonds, J. Res. NBS 69B (1965), for an
  odd C); |C| - 1 in mode hit-and-cohit, where F leaves an edge of C; and
  no bound in modes hit and none.  A cycle row's surplus x(C) - b_C is
  capped at U_C - b_C, and a cap below 0 (a 2-cycle that is an even cut, in
  either bounded mode) settles the call before the simplex runs.

A phase-1 bounded-variable simplex in floats, optimal or stopped by its
pivot cap, decides two cases:

- its row duals y, rounded to fractions of denominator at most 64, are a
  Farkas certificate when sum_e u_e max(a_e.y, 0) + sum_C c_C max(-y_C, 0)
  < b.y holds exactly, where c_C is the surplus cap and the dual of a row
  with no cap is clamped at 0.  Every feasible x has x.(A^T y) - s.y = b.y
  for its surpluses s, while the left side is at most that sum; so no x,
  and no t-factor, exists.  The float status is never taken as proof;
- its point is integral: the lowest-id edges of each class, as many as the
  point says, with the forced edges, are a witness once they check out
  as a t-factor that meets every cycle in the mode (factors.meets_cycle).

Anything else decides nothing, and the search goes on.
"""

from __future__ import annotations

import math
from typing import Optional

from .factors import meets_cycle, verify_factor
from .multigraph import Multigraph

# Size cap, in rows times columns; decide refuses larger LPs before the
# simplex runs.  thm5 r=9 (57 rows by 216 columns, 12,312 cells), the
# largest LP the threshold families need, solves in about 20 ms on a
# 2-core host.  A random cubic graph with 255 edges (about 180 rows by 255
# columns) takes 50-120 ms there, and a pipeline's cubic expansion with
# 150 edges (about 108 by 149) 12-19 ms.  Of the 2,352 pipeline searches
# of solve-checked and solve-unchecked at seeds 7 and 41-60, 14 reach node
# 64: the cap refuses 10 LPs, 2 decide nothing and 2 give the witness, one
# per workload; solve-arb's 588 at those seeds never reach it.
_LP_MAX_CELLS = 12_500
# Pivots and bound flips one LP may take before it stops where it is.
_LP_MAX_PIVOTS = 1000
_EPS = 1e-9
_INF = float("inf")


def decide(
    G: Multigraph, t: int, cycles: tuple[tuple[int, ...], ...], forced: tuple[int, ...],
    even_cuts: list[tuple[int, ...]], mode: str,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(True, None) when a Farkas certificate, or a cycle row whose bounds
    cross, proves that no t-factor of G through the forced edges meets
    every cycle in the hitting mode; (True, witness) when an integral LP
    point is one; (False, None) otherwise.
    even_cuts are the cuts delta(S) of vertex sets S with t|S| even, which
    every t-factor meets in an even number of edges; the row of a cycle
    that is one of them asks for 2."""
    fixed = set(forced)
    even = set(map(frozenset, even_cuts))
    b = [t] * G.n
    for e in fixed:
        for w in G.edges[e]:
            b[w] -= 1
    edge_row = [-1] * G.m
    rows = G.n
    slack: list[float] = []  # U_C - b_C: the cap of each cycle row's surplus
    for cyc in cycles:
        if not fixed.intersection(cyc):
            for e in cyc:
                edge_row[e] = rows
            rows += 1
            b.append(2 if frozenset(cyc) in even else 1)
            most = {"hit-matching": len(cyc) // 2, "hit-and-cohit": len(cyc) - 1}.get(mode, _INF)
            slack.append(most - b[-1])
    if min(slack, default=0) < 0:
        return True, None
    classes: dict[tuple[int, int, int], list[int]] = {}
    for e, (u, v) in enumerate(G.edges):
        if e not in fixed:
            classes.setdefault((min(u, v), max(u, v), edge_row[e]), []).append(e)
    if len(classes) * rows > _LP_MAX_CELLS or min(b, default=0) < 0:
        return False, None
    cols = list(classes)
    upper = [len(ids) for ids in classes.values()] + slack
    y, x = _phase1(cols, upper, b, G.n)
    if not all(map(math.isfinite, y + x)):
        return False, None  # the float simplex diverged
    if _certifies(cols, upper, b, y, G.n):
        return True, None
    k = [round(v) for v in x]
    if any(abs(v - kv) > 1e-6 for v, kv in zip(x, k)):
        return False, None
    ids = fixed.union(*(group[:kv] for group, kv in zip(classes.values(), k)))
    if not verify_factor(G, ids, t) or not all(meets_cycle(G, ids, cyc, mode) for cyc in cycles):
        return False, None
    return True, tuple(sorted(ids))


def _phase1(
    cols: list[tuple[int, int, int]], upper: list[float], b: list[int], n: int
) -> tuple[list[float], list[float]]:
    """Minimise the sum of one artificial per row from the all-artificial
    basis; rows n and up are cycle rows, each with a surplus column, and
    upper caps cols, then the surpluses in row order (inf: no cap).  A
    revised simplex on an explicit basis inverse, with Dantzig's rule (ties
    to the lowest column), bounded columns, and at most _LP_MAX_PIVOTS
    steps.  Returns the duals of the rows and the values of cols where it
    stopped, optimal or not.

    Pricing is partial: a pivot moves the duals only on the rows where the
    new inverse's pivot row is non-zero, so only the columns on those rows
    are priced again (after a bound flip, only the flipped column), by the
    same expression, so every reduced cost is the float a full pricing
    gives.  The entering and leaving columns, whose bounds changed, are
    among them: the pivot row is non-zero on one of the rows of each.
    The entering column's image under the inverse, the ratio test and the
    update of the basic values run over the rows that can be non-zero
    there, in increasing order, so ties break as over all rows."""
    R, J = len(b), len(cols)
    S = R - n
    # Columns: cols, then the surpluses, then the artificials.  Each has
    # coefficient +1 or -1 on up to three rows; row R stands for none, and
    # the inverse and the duals keep a 0 there.
    rows = [(u, v, r if r >= 0 else R) for u, v, r in cols]
    rows += [(n + k, R, R) for k in range(S)] + [(i, R, R) for i in range(R)]
    coef = [1.0] * J + [-1.0] * S + [1.0] * R
    cost = [0.0] * (J + S) + [1.0] * R
    cap = [float(c) for c in upper] + [_INF] * R
    inv = [[1.0 if k == i else 0.0 for k in range(R + 1)] for i in range(R)]
    beta = [float(v) for v in b]  # values of the basic columns
    basis = [J + S + i for i in range(R)]
    at_upper = [False] * len(cost)
    y = [1.0] * R + [0.0]  # duals: the costs of the basis times its inverse
    on_row: list[list[int]] = [[] for _ in range(R + 1)]  # the columns on each row
    for j, (u, v, w) in enumerate(rows):
        for i in (u, v, w):
            on_row[i].append(j)
    # A superset of the rows where each column of the inverse is non-zero.
    live = [{i} for i in range(R)] + [set()]
    d = [0.0] * len(cost)  # reduced costs
    gain = [0.0] * len(cost)  # how fast each column would lower the objective
    stale = list(range(len(cost)))  # the columns to price again
    for _ in range(_LP_MAX_PIVOTS):
        for k in stale:
            u, v, w = rows[k]
            dk = d[k] = cost[k] - coef[k] * (y[u] + y[v] + y[w])
            gain[k] = dk if at_upper[k] else -dk
        best = max(gain)
        if best <= _EPS:
            break
        j = gain.index(best)
        (u, v, w), s = rows[j], coef[j]
        alpha = [(i, s * (inv[i][u] + inv[i][v] + inv[i][w]))
                 for i in sorted(live[u] | live[v] | live[w])]
        sign = -1.0 if at_upper[j] else 1.0
        theta, r, p, leave_upper = cap[j], -1, 0.0, False
        for i, ai in alpha:
            a = sign * ai
            if a > _EPS:
                limit, to_upper = beta[i] / a, False
            elif a < -_EPS and cap[basis[i]] < _INF:
                limit, to_upper = (cap[basis[i]] - beta[i]) / -a, True
            else:
                continue
            if limit < theta:
                theta, r, p, leave_upper = max(limit, 0.0), i, ai, to_upper
        if theta == _INF:
            break  # cannot happen: the objective is bounded below by 0
        step = sign * theta
        for i, a in alpha:
            if a:
                beta[i] -= step * a
        if r < 0:  # the entering column runs to its other bound
            at_upper[j] = not at_upper[j]
            stale = [j]
            continue
        leaving = basis[r]
        at_upper[leaving] = leave_upper
        beta[r] = (cap[j] if at_upper[j] else 0.0) + step
        at_upper[j] = False
        basis[r] = j
        prow = inv[r] = [a / p for a in inv[r]]
        nz = [(k, c) for k, c in enumerate(prow) if c]
        moved = {i for i, f in alpha if f}
        for i, f in alpha:
            if f and i != r:
                row = inv[i]
                for k, c in nz:
                    row[k] -= f * c
        # A column on two of these rows is listed, and priced to the same
        # float, twice; a set here raised the peak RSS of a run by 0.5 MB.
        stale = []
        for k, c in nz:
            y[k] += d[j] * c
            live[k] |= moved
            stale += on_row[k]
    x = [cap[j] if at_upper[j] else 0.0 for j in range(J)]
    for i, j in enumerate(basis):
        if j < J:
            x[j] = beta[i]
    return y[:R], x


def _certifies(
    cols: list[tuple[int, int, int]], upper: list[float], b: list[int], y: list[float], n: int
) -> bool:
    """The exact Farkas check: y rounded to fractions of denominator at most
    64, and the dual of each cycle row (n and up) with an uncapped surplus
    clamped at 0, since only y_C >= 0 keeps y_C x(C) >= y_C b_C for every
    feasible x.  A row whose surplus s_C = x(C) - b_C is capped at c_C
    keeps its dual: y_C x(C) >= y_C b_C - c_C max(-y_C, 0) there, so that
    term joins the bound.  It runs in integers, on the rounded duals times
    their common denominator, which keeps the strict inequality as it is.
    Any y that passes proves the LP infeasible, wherever the simplex
    stopped."""
    from fractions import Fraction

    rounded = {v: Fraction(v).limit_denominator(64) for v in set(y)}
    scale = math.lcm(*(f.denominator for f in rounded.values()))
    ys = [f.numerator * (scale // f.denominator) for f in map(rounded.__getitem__, y)]
    surplus = upper[len(cols):]
    ys[n:] = [max(v, 0) if c == _INF else v for v, c in zip(ys[n:], surplus)]
    # The largest x.A^T y - s.y over 0 <= x <= u and 0 <= s <= c, times
    # scale: the capped surpluses first.
    most = sum(c * -v for v, c in zip(ys[n:], surplus) if v < 0)
    ys.append(0)  # the row of a column on no cycle
    for (u, v, r), cap in zip(cols, upper):
        a = ys[u] + ys[v] + ys[r]
        if a > 0:
            most += cap * a
    return most < sum(bi * yi for bi, yi in zip(b, ys))
