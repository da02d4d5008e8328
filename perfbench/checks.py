"""Output checks that share no code with the library.

The benchmark re-reads every witness the CLI writes and checks it against
the input files with its own parsers, so a defect in `cyclehit.factors` (or
in the CLI's own re-verification) cannot make a wrong answer pass.
"""

from __future__ import annotations

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_BUDGET = 3


def _records(text: str, kind: str) -> tuple[list[str], list[list[str]]]:
    """Header tokens and body lines of one of the library's text formats."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0][:2] != ["p", kind]:
        raise ValueError(f"missing 'p {kind}' header")
    return lines[0], lines[1:]


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    head, body = _records(text, "mg")
    n, m = int(head[2]), int(head[3])
    edges = [(int(u), int(v)) for tag, u, v in body if tag == "e"]
    if len(edges) != m or len(body) != m:
        raise ValueError(f"graph declares {m} edges, found {len(edges)}")
    return n, edges


def read_cycles(text: str) -> list[tuple[int, ...]]:
    head, body = _records(text, "cyc")
    cycles = [tuple(int(e) for e in line[2:]) for line in body]
    if len(cycles) != int(head[2]):
        raise ValueError("cycle count does not match the header")
    return cycles


def read_factor(text: str) -> tuple[int, list[int]]:
    head, body = _records(text, "fac")
    ids = [int(line[1]) for line in body]
    if len(ids) != int(head[3]) or len(set(ids)) != len(ids):
        raise ValueError("factor edge list does not match the header")
    return int(head[2]), ids


def witness_problem(
    graph: tuple[int, list[tuple[int, int]]],
    cycles: list[tuple[int, ...]],
    factor_text: str,
    t: int,
    mode: str,
) -> str | None:
    """Why a factor file is not a t-factor meeting every cycle in `mode`,
    or None when it is.  Modes: hit, hit-matching, hit-and-cohit."""
    n, edges = graph
    try:
        declared, ids = read_factor(factor_text)
    except (ValueError, IndexError) as exc:
        return f"unreadable factor: {exc}"
    if declared != t:
        return f"factor declares t={declared}, expected {t}"
    if any(not 0 <= e < len(edges) for e in ids):
        return "factor edge id out of range"
    degree = [0] * n
    for e in ids:
        for v in edges[e]:
            degree[v] += 1
    bad = [v for v in range(n) if degree[v] != t]
    if bad:
        return f"vertex {bad[0]} has degree {degree[bad[0]]} in the factor, expected {t}"
    chosen = set(ids)
    for ci, cyc in enumerate(cycles):
        shared = [e for e in cyc if e in chosen]
        if not shared:
            return f"cycle {ci} is not hit"
        if mode == "hit-and-cohit" and len(shared) == len(cyc):
            return f"cycle {ci} is not co-hit"
        if mode == "hit-matching":
            ends = [v for e in shared for v in edges[e]]
            if len(set(ends)) != len(ends):
                return f"factor edges on cycle {ci} are not a matching"
    return None
