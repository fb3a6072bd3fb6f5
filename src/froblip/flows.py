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


def degree_constrained_relation(left_counts: dict, right_counts: dict,
                                allowed, m0: int) -> Optional[dict]:
    """Aggregated feasibility of a [1, m0]-degree relation between groups.

    ``left_counts``/``right_counts`` map group keys to word counts (1 per
    key for single words); ``allowed(z, w)`` says whether words of the two
    groups may be related.  Returns the pair-count matrix {(z, w): pairs}
    when feasible, else None.

    The circulation runs on integer nodes: 0 the source, 1 the sink, then
    the sorted left keys, then the sorted right keys.  Labels such as
    strings hash differently under each PYTHONHASHSEED, and networkx would
    then return a different (equally valid) flow.
    """
    import networkx as nx

    if m0 < 1:
        return None
    lefts = sorted(left_counts)
    rights = sorted(right_counts)
    n = 2 + len(lefts) + len(rights)
    ss, tt = n, n + 1
    G = nx.DiGraph()
    G.add_nodes_from(range(n + 2))
    # an arc with flow in [low, cap] keeps capacity cap - low; its lower
    # bound moves into the excess of its ends, balanced through ss and tt
    excess = [0] * n
    for i, z in enumerate(lefts, 2):  # source -> left, [c, m0 c]
        c = left_counts[z]
        G.add_edge(0, i, capacity=(m0 - 1) * c)
        excess[i] = c
        excess[0] -= c
    for j, w in enumerate(rights, 2 + len(lefts)):  # right -> sink, [d, m0 d]
        d = right_counts[w]
        G.add_edge(j, 1, capacity=(m0 - 1) * d)
        excess[1] += d
        excess[j] = -d
    arcs = []
    for i, z in enumerate(lefts, 2):
        for j, w in enumerate(rights, 2 + len(lefts)):
            if allowed(z, w):
                G.add_edge(i, j, capacity=left_counts[z] * right_counts[w])
                arcs.append((i, j, z, w))
    G.add_edge(1, 0, capacity=_INF)
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
    return {(z, w): flow[i][j] for i, j, z, w in arcs if flow[i][j] > 0}
