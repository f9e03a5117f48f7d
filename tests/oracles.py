"""Independent reference implementations, used only by tests.

Each oracle recomputes an engine quantity along a deliberately different
route: the mask from the flag-preservation rule quantified over every cut,
components from a generic BFS with a degree test, and potentials from
per-pair path walks. None of them share code with the package.
mask_histogram scans all n^2 positions with the block-index rule, the
reference for the kernel's block-by-block histogram; oracle_matrix lays the
oracle potentials over the flag mask, the reference for the row-interval
matrix. arc_functional, seaweed_basis, bracket and kirillov_rank restate
the Lie algebra (the Frobenius functional, the seaweed in sl(n) and its
bracket) that defines the principal element, the reference for
principal_element. read_ndjson and without_one are plain test helpers, not
oracles.
"""

import json
from collections import deque
from itertools import accumulate

from seaweedspec import IntegerMultiset


def _side_edges(parts):
    edges = []
    s = 1
    for p in parts:
        e = s + p - 1
        i, j = s, e
        while i < j:
            edges.append((i, j))
            i += 1
            j -= 1
        s = e + 1
    return edges


def flag_mask(top, bottom):
    """Admissible (i, j) positions via the subspace-preservation rule.

    The unit e_ij keeps every leading span (e_1..e_c) stable unless some
    top cut c has j <= c < i, and keeps every trailing span (e_{d+1}..e_n)
    stable unless some bottom cut d has i <= d < j.
    """
    n = sum(top)
    top_cuts = list(accumulate(top))
    bottom_cuts = list(accumulate(bottom))
    mask = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if any(j <= c < i for c in top_cuts):
                continue
            if any(i <= d < j for d in bottom_cuts):
                continue
            mask.add((i, j))
    return mask


def graph_components(top, bottom):
    """(cycles, paths) via plain BFS plus a degree test.

    A component is a cycle exactly when all of its vertices have degree 2,
    counting the top arc and the bottom arc separately (two vertices joined
    above and below form a 2-cycle).
    """
    n = sum(top)
    deg = [0] * (n + 1)
    adj = [set() for _ in range(n + 1)]
    for p, q in _side_edges(top) + _side_edges(bottom):
        deg[p] += 1
        deg[q] += 1
        adj[p].add(q)
        adj[q].add(p)

    seen = [False] * (n + 1)
    cycles = paths = 0
    for v in range(1, n + 1):
        if seen[v]:
            continue
        queue = deque([v])
        seen[v] = True
        vertices = []
        while queue:
            u = queue.popleft()
            vertices.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if all(deg[u] == 2 for u in vertices):
            cycles += 1
        else:
            paths += 1
    return cycles, paths


def path_weight(top, bottom, start, goal):
    """Signed arc count along the unique path from start to goal.

    Walks the meander as a graph, scoring +1 for each arc crossed with its
    orientation (top arcs point right to left, bottom arcs left to right)
    and -1 against it. Requires the meander to be a single path; pairs in
    separate components raise.
    """
    n = sum(top)
    hops = [[] for _ in range(n + 1)]
    for p, q in _side_edges(top):
        hops[q].append((p, 1))   # with the arc
        hops[p].append((q, -1))  # against it
    for p, q in _side_edges(bottom):
        hops[p].append((q, 1))
        hops[q].append((p, -1))

    best = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, sign in hops[u]:
            if v not in best:
                best[v] = best[u] + sign
                queue.append(v)
    if goal not in best:
        raise ValueError(f"vertices {start} and {goal} are not connected")
    return best[goal]


def oracle_potentials(top, bottom):
    """Vertex potentials as per-pair path weights down to vertex n."""
    n = sum(top)
    return tuple(path_weight(top, bottom, i, n) for i in range(1, n + 1))


def oracle_spectrum(top, bottom):
    """Eigenvalue counts straight from the oracle mask and potentials."""
    phi = oracle_potentials(top, bottom)
    counts = {}
    for i, j in flag_mask(top, bottom):
        d = phi[i - 1] - phi[j - 1]
        counts[d] = counts.get(d, 0) + 1
    counts[0] -= 1
    return {v: c for v, c in sorted(counts.items()) if c}


def oracle_matrix(top, bottom):
    """The n x n masked eigenvalue matrix from flag_mask and oracle_potentials.

    Row-major, 0-based, phi(i) - phi(j) on admissible cells and None elsewhere.
    """
    n = sum(top)
    phi = oracle_potentials(top, bottom)
    mask = flag_mask(top, bottom)
    return tuple(
        tuple(phi[i - 1] - phi[j - 1] if (i, j) in mask else None for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def mask_histogram(top, bottom):
    """Counts of phi(i) - phi(j) over every admissible (i, j), diagonal
    zeros included, or None unless the meander is a single path.

    Scans all n^2 positions with the block-index rule: (i, j) is admissible
    when i's top block is at most j's and i's bottom block is at least j's.
    """
    if graph_components(top, bottom) != (0, 1):
        return None
    n = sum(top)
    phi = (0,) + oracle_potentials(top, bottom)
    tb = [0] + [idx for idx, p in enumerate(top, start=1) for _ in range(p)]
    bb = [0] + [idx for idx, p in enumerate(bottom, start=1) for _ in range(p)]
    counts = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if tb[i] <= tb[j] and bb[i] >= bb[j]:
                d = phi[i] - phi[j]
                counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


def arc_functional(top, bottom):
    """The Frobenius functional F, as a function of an element given as a
    dict from matrix unit to coefficient: F(e_ij) is 1 at every arc, top
    arcs at (high, low) and bottom arcs at (low, high), and 0 elsewhere."""
    support = {(j, i) for i, j in _side_edges(top)} | set(_side_edges(bottom))
    return lambda z: sum(c for u, c in z.items() if u in support)


def seaweed_basis(top, bottom):
    """A basis of the seaweed in sl(n), each element a dict from matrix unit
    (i, j) to its coefficient: e_ij at every admissible (i, j) of flag_mask
    off the diagonal, and e_kk - e_(k+1)(k+1) for k = 1..n-1."""
    n = sum(top)
    basis = [{u: 1} for u in sorted(flag_mask(top, bottom)) if u[0] != u[1]]
    return basis + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(1, n)]


def bracket(x, y):
    """[x, y] = xy - yx of two elements given as dicts from matrix unit to
    coefficient, by [e_ij, e_kl] = [j == k] e_il - [l == i] e_kj."""
    out = {}
    for (i, j), a in x.items():
        for (k, l), b in y.items():
            if j == k:
                out[i, l] = out.get((i, l), 0) + a * b
            if l == i:
                out[k, j] = out.get((k, j), 0) - a * b
    return {u: c for u, c in out.items() if c}


def kirillov_rank(top, bottom, modulus=2**31 - 1):
    """Rank mod a prime of the Kirillov form (x, y) -> F([x, y]) on
    seaweed_basis, F the arc functional, by Gaussian elimination."""
    F = arc_functional(top, bottom)
    basis = seaweed_basis(top, bottom)
    rows = [[F(bracket(x, y)) % modulus for y in basis] for x in basis]
    rank = 0
    for col in range(len(basis)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, modulus)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inverse % modulus
            if factor:
                rows[r] = [(a - factor * b) % modulus for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def read_ndjson(path):
    """The records of an NDJSON file, one json.loads per nonblank line."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def without_one(multiset, value):
    """multiset with a single occurrence of value removed."""
    counts = multiset.counts()
    if counts.get(value, 0) < 1:
        raise ValueError(f"cannot remove {value}: not present")
    counts[value] -= 1
    return IntegerMultiset(counts)
