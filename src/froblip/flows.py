"""Degree-constrained bipartite relations via circulation with lower bounds.

Feasibility of a relation whose vertex degrees lie in [1, M0] on both sides
is a circulation problem; the standard lower-bound transform reduces it to
a single max-flow.  Words sharing a lattice point are interchangeable, so
feasibility is decided on the aggregated (point, count) graph: the
constraint matrix is totally unimodular, hence the aggregated fractional
relaxation, the aggregated integer problem and the word-level problem are
all equivalent.
"""
from __future__ import annotations

from typing import Optional

_INF = 10 ** 18


def _circulation_feasible(nodes, arcs):
    """arcs: list of (u, v, low, cap).  Returns flow dict per arc or None.

    The flow runs on integer ids given in the order of ``nodes``: labels
    such as strings hash differently under each PYTHONHASHSEED, and
    networkx would then return a different (equally valid) flow.
    """
    import networkx as nx

    ids = {n: i for i, n in enumerate(nodes)}
    ss, tt = len(nodes), len(nodes) + 1
    G = nx.DiGraph()
    G.add_nodes_from(range(len(nodes) + 2))
    excess = [0] * len(nodes)
    for u, v, low, cap in arcs:
        if cap < low:
            return None
        iu, iv = ids[u], ids[v]
        if G.has_edge(iu, iv):
            raise ValueError("parallel arcs not supported")
        G.add_edge(iu, iv, capacity=cap - low)
        excess[iv] += low
        excess[iu] -= low
    total = 0
    for i, x in enumerate(excess):
        if x > 0:
            G.add_edge(ss, i, capacity=x)
            total += x
        elif x < 0:
            G.add_edge(i, tt, capacity=-x)
    value, flow = nx.maximum_flow(G, ss, tt)
    if value != total:
        return None
    return {(u, v): flow[ids[u]][ids[v]] + low for u, v, low, cap in arcs}


def degree_constrained_relation(left_counts: dict, right_counts: dict,
                                allowed, m0: int) -> Optional[dict]:
    """Aggregated feasibility of a [1, m0]-degree relation between groups.

    ``left_counts``/``right_counts`` map group keys to word counts (1 per
    key for single words); ``allowed(z, w)`` says whether words of the two
    groups may be related.  Returns the pair-count matrix {(z, w): pairs}
    when feasible, else None.
    """
    lefts = sorted(left_counts)
    rights = sorted(right_counts)
    nodes = ["_S", "_T"] + [("L", z) for z in lefts] + [("R", w) for w in rights]
    arcs = []
    for z in lefts:
        c = left_counts[z]
        arcs.append(("_S", ("L", z), c, m0 * c))
    for w in rights:
        d = right_counts[w]
        arcs.append((("R", w), "_T", d, m0 * d))
    for z in lefts:
        for w in rights:
            if allowed(z, w):
                arcs.append((("L", z), ("R", w),
                             0, left_counts[z] * right_counts[w]))
    arcs.append(("_T", "_S", 0, _INF))
    sol = _circulation_feasible(nodes, arcs)
    if sol is None:
        return None
    pairs = {}
    for (u, v), f in sol.items():
        if isinstance(u, tuple) and u[0] == "L" and isinstance(v, tuple) and f > 0:
            pairs[(u[1], v[1])] = f
    return pairs

