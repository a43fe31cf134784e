"""Finite multigraphs, oriented edges, and directed edge matrices.

A :class:`FiniteGraph` is an undirected multigraph (loops and parallel
edges allowed) that is required to be connected.  Its oriented-edge view
doubles each edge into two directed copies related by a fixed-point-free
reversal involution; a loop still contributes two distinct orientations.

The directed edge matrix is the 0/1 matrix on oriented edges with entry
(e, e') = 1 exactly when e' continues e without backtracking, i.e.
target(e) = source(e') and e' is not the reversal of e.  Index order is
deterministic: edges sorted by id, forward orientation before backward.

:class:`EdgeMatrix` is the package's one transition-matrix type: the
K-groups, the shift (``shift.SFTData`` is the same class) and the
truncations all read it.  It is stored once, as its successor lists, and
validated once, on construction, when its predecessor lists are built;
so strong connectivity and every later pass run in O(letters +
transitions).  The numerical passes read both lists as read-only numpy
arrays (``succ_arrays``, ``pred_arrays``), built once, on first read.
Dense 0/1 rows (matrix files, tests) enter through
``EdgeMatrix.from_rows``, the one dense-row validator, and the dense
``matrix`` view is built only when read: by the isomorphism search.

:func:`isomorphisms` is the one search for index bijections between
square integer matrices; permutation equivalence, link-graph isomorphism
and letter automorphisms all call it; :func:`forest_size` is the one
union-find.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import chain, compress

from .errors import InvalidGraph, InvalidRank, InvalidTransitionMatrix

MAX_SCHOTTKY_TRANSITIONS = 10 ** 6  # 2g(2g-1) <= 10^6 admits g <= 500


class FiniteGraph(namedtuple("FiniteGraph", "vertices edges")):
    """Connected undirected multigraph with explicit edge identifiers;
    ``edges`` holds (edge_id, src, dst) triples."""

    __slots__ = ()

    def __new__(cls, vertices, edges):
        if not vertices:
            raise InvalidGraph("graph has no vertices")
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise InvalidGraph("duplicate vertex ids", witness=vertices)
        seen = set()
        for eid, src, dst in edges:
            if eid in seen:
                raise InvalidGraph("duplicate edge id", witness=eid)
            seen.add(eid)
            if src not in vset or dst not in vset:
                raise InvalidGraph("edge endpoint not a vertex", witness=(eid, src, dst))
        if forest_size((src, dst) for _, src, dst in edges) != len(vset) - 1:
            raise InvalidGraph("graph is not connected")
        return super().__new__(cls, vertices, edges)

    def degree(self, v) -> int:
        # a loop at v counts twice
        return sum((src == v) + (dst == v) for _, src, dst in self.edges)

    def betti_number(self) -> int:
        """First Betti number #edges - #vertices + 1 (graph is connected)."""
        return len(self.edges) - len(self.vertices) + 1

    def oriented_edges(self) -> list["OrientedEdge"]:
        """All 2#edges orientations, edges by ascending id, forward first."""
        out = []
        for eid, src, dst in sorted(self.edges, key=lambda e: _sort_key(e[0])):
            out.append(OrientedEdge(eid, True, src, dst))
            out.append(OrientedEdge(eid, False, dst, src))
        return out


def forest_size(edges) -> int:
    """Edges in a spanning forest of the graph of these (u, v) edges: the
    vertices met minus their connected components (union-find)."""
    parent: dict = {}

    def root(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            joined += 1
    return joined


def _sort_key(value):
    # stable order for mixed int/str ids
    return (isinstance(value, str), value)


class OrientedEdge(namedtuple("OrientedEdge", "edge_id forward source target")):
    __slots__ = ()

    def reversal(self) -> "OrientedEdge":
        return OrientedEdge(self.edge_id, not self.forward, self.target, self.source)

    @property
    def label(self) -> str:
        return f"{self.edge_id}{'+' if self.forward else '-'}"


class EdgeMatrix(namedtuple("EdgeMatrix", "succ labels involution", defaults=(None,))):
    """The one transition-matrix type: each letter's successor list
    (oriented edges, or abstract letters), one label per letter, and an
    optional inverse-letter involution.  Validated once, on construction,
    in O(letters + transitions) (InvalidTransitionMatrix), when the
    predecessor lists are built too.  Dense 0/1 rows enter through
    :meth:`from_rows`, and :attr:`matrix` is their view on demand.

    ``succ[i]``: the letters j with A[i][j] = 1, ascending; ``labels``:
    one per letter; ``involution[i]``: the index of the inverse letter.
    ``pred[j]``: the letters i with A[i][j] = 1, ascending, built once
    and left out of equality."""

    def __new__(cls, succ, labels, involution=None):
        self = super().__new__(cls, succ, labels, involution)
        n = len(self.succ)
        pred = [[] for _ in range(n)]
        for i, js in enumerate(self.succ):
            prev = -1
            for j in js:
                if type(j) is not int or not prev < j < n:
                    raise InvalidTransitionMatrix(
                        "successor lists must ascend within the alphabet", witness=js)
                pred[j].append(i)
                prev = j
        if len(self.labels) != n:
            raise InvalidTransitionMatrix("label count does not match matrix")
        if self.involution is not None:
            inv = self.involution
            if any(type(k) is not int for k in inv) or len(inv) != n \
                    or set(inv) != set(range(n)):
                raise InvalidTransitionMatrix("involution must permute the alphabet",
                                              witness=inv)
            if any(inv[i] == i or inv[inv[i]] != i for i in range(n)):
                raise InvalidTransitionMatrix(
                    "involution must be fixed-point-free of order two", witness=inv)
        self.pred = tuple(map(tuple, pred))
        return self

    @classmethod
    def from_rows(cls, rows, labels, involution=None) -> "EdgeMatrix":
        """The transition matrix of square 0/1 rows; a cell equal to 0 or 1
        (True and 1.0 among them) is accepted, anything else or a ragged
        row raises InvalidTransitionMatrix with the row as witness."""
        n = len(rows)
        for row in rows:
            if len(row) != n or not {0, 1}.issuperset(row):
                raise InvalidTransitionMatrix("transition matrix must be square 0/1",
                                              witness=row)
        return cls(tuple(tuple(compress(range(n), row)) for row in rows),
                   labels, involution)

    @cached_property
    def matrix(self) -> tuple:
        """The dense 0/1 rows as int tuples, built on the first read: n^2
        cells, for the isomorphism search and for tests."""
        rows = [[0] * len(self.succ) for _ in self.succ]
        for row, js in zip(rows, self.succ):
            for j in js:
                row[j] = 1
        return tuple(map(tuple, rows))

    @property
    def size(self) -> int:
        return len(self.succ)

    alphabet_size = size

    def row_sums(self) -> list[int]:
        return [len(js) for js in self.succ]

    @cached_property
    def succ_arrays(self) -> "_Rows":
        """The successor lists as arrays, built on the first read and
        shared by every numerical pass over A."""
        return _Rows(self.succ)

    @cached_property
    def pred_arrays(self) -> "_Rows":
        """The predecessor lists as arrays (the rows of A^t), likewise."""
        return _Rows(self.pred)

    def is_irreducible(self) -> bool:
        return self._irreducible

    @cached_property
    def _irreducible(self) -> bool:
        """Strong connectivity, decided on the first call."""
        return strongly_connected(self.succ, self.pred)

    def is_admissible(self, word: tuple) -> bool:
        if not word:
            return False
        if any(not 0 <= a < self.size for a in word):
            return False
        return all(b in self.succ[a] for a, b in zip(word, word[1:]))


def strongly_connected(succ, pred) -> bool:
    """True iff the directed graph with successor lists succ and
    predecessor lists pred is strongly connected; one vertex needs a loop."""
    n = len(succ)
    if n == 0:
        return False
    if n == 1:
        return bool(succ[0])

    def reach(start, adj):
        seen = {start}
        stack = [start]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    return len(reach(0, succ)) == n and len(reach(0, pred)) == n


def read_only(*arrays) -> None:
    """Mark numpy arrays read-only: they are shared, so a write raises
    ValueError."""
    for array in arrays:
        array.flags.writeable = False


class _Rows:
    """A 0/1 matrix M as its rows' column lists (the successor lists for
    A, the predecessor lists for A^t): each list's length ``degree`` and
    offset ``first``, the lists joined in row order ``cols`` (for A, the
    pairs (i, j) with A[i][j] = 1, lexicographic) and each entry's row
    ``rows``; with M v and the chain-contracted solve of (sigma I - M) w
    = v that :func:`shift.perron_data` uses.  An :class:`EdgeMatrix`
    builds one for A and one for A^t on first read and shares them, so
    every array here is read-only."""

    def __init__(self, lists):
        import numpy as np

        self.degree = np.array([len(js) for js in lists], dtype=np.intp)
        self.first = np.cumsum(self.degree) - self.degree
        self.cols = np.fromiter(chain.from_iterable(lists), dtype=np.intp,
                                count=int(self.degree.sum()))
        self.rows = np.repeat(np.arange(len(lists)), self.degree)
        read_only(self.degree, self.first, self.cols, self.rows)

    def times(self, v):
        """M v."""
        import numpy as np

        return np.bincount(self.rows, weights=v[self.cols], minlength=len(v))

    @cached_property
    def _contraction(self):
        """The chain letters (degree 1) and the B branch letters, built
        at the first solve.

        ``root`` maps every letter to the index, among the branch letters,
        of the branch letter it reaches by following single columns (a
        branch letter to its own index), and ``depth`` counts the steps.
        ``levels`` pairs the chain letters of depth 1, 2, ... with their
        columns.  ``edges`` are the columns of the branch rows, ``heads``
        the rows' indices and ``cells`` the entries' flat positions in the
        B x B system.  M is irreducible, so every chain letter reaches a
        branch letter when B > 0; when B = 0, M is a bare cycle, which
        needs no solve, so this is never built for it.
        """
        import numpy as np

        n = len(self.degree)
        chain_letter = self.degree == 1
        branch = np.flatnonzero(~chain_letter)
        on_chain = chain_letter[self.rows]
        nxt = np.zeros(n, dtype=np.intp)
        nxt[self.rows[on_chain]] = self.cols[on_chain]
        root = np.full(n, -1)
        root[branch] = np.arange(len(branch))
        depth = np.zeros(n)
        levels = []
        pending = np.flatnonzero(chain_letter)
        while pending.size:
            ready = root[nxt[pending]] >= 0
            level = pending[ready]
            after = nxt[level]
            root[level] = root[after]
            depth[level] = depth[after] + 1
            levels.append((level, after))
            pending = pending[~ready]
        edges = self.cols[~on_chain]
        heads = root[self.rows[~on_chain]]
        cells = heads * len(branch) + root[edges]
        read_only(branch, root, depth, edges, heads, cells, *chain.from_iterable(levels))
        return branch, root, depth, levels, edges, heads, cells

    def solve(self, sigma: float, v):
        """w with (sigma I - M) w = v: the chain letters are eliminated
        (w_i = c_i + sigma^-depth w_root) and one B x B system is solved."""
        import numpy as np

        branch, root, depth, levels, edges, heads, cells = self._contraction
        c = np.zeros(len(v))
        for level, after in levels:
            c[level] = (v[level] + c[after]) / sigma
        scale = sigma ** -depth
        size = len(branch)
        system = np.bincount(cells, weights=-scale[edges],
                             minlength=size * size).reshape(size, size)
        system.flat[::size + 1] += sigma
        rhs = v[branch] + np.bincount(heads, weights=c[edges], minlength=size)
        return c + scale * np.linalg.solve(system, rhs)[root]


def directed_edge_matrix(g: FiniteGraph) -> EdgeMatrix:
    """Directed edge matrix of a finite graph on its 2#edges oriented edges.

    Entry (e, e') is 1 iff target(e) = source(e') and e' != reversal(e).
    The oriented edges leaving each vertex are grouped once, and as
    :meth:`FiniteGraph.oriented_edges` lists each edge forward then
    backward, the reversal of index k is k ^ 1: O(sum of deg^2).
    Raises InvalidGraph on an edgeless graph.
    """
    if not g.edges:
        raise InvalidGraph("graph has no edges")
    oriented = g.oriented_edges()
    leaving: dict = {}
    for k, e in enumerate(oriented):
        leaving.setdefault(e.source, []).append(k)
    succ = tuple(tuple(f for f in leaving[e.target] if f != k ^ 1)
                 for k, e in enumerate(oriented))
    return EdgeMatrix(succ, tuple(e.label for e in oriented))


def cayley_schottky_matrix(g: int) -> EdgeMatrix:
    """Transition matrix of the full rank-g free group shift.

    Letters 1..2g stand for g generators followed by their inverses;
    entry (i, j) is 1 iff |i - j| != g, so a letter may be followed by
    anything except its inverse.  Below rank 1 or past
    MAX_SCHOTTKY_TRANSITIONS, InvalidRank (g as witness) before building.
    """
    if g < 1 or 2 * g * (2 * g - 1) > MAX_SCHOTTKY_TRANSITIONS:
        raise InvalidRank(f"rank must be >= 1 with <= {MAX_SCHOTTKY_TRANSITIONS} transitions",
                          witness=g)
    n = 2 * g
    succ = tuple((*range((i + g) % n), *range((i + g) % n + 1, n)) for i in range(n))
    labels = tuple(
        f"a{i + 1}" if i < g else f"A{i - g + 1}"
        for i in range(n)
    )
    return EdgeMatrix(succ, labels)


def wedge_of_two_loops() -> FiniteGraph:
    return FiniteGraph(("v",), (("x", "v", "v"), ("y", "v", "v")))


def theta_graph() -> FiniteGraph:
    return FiniteGraph(("u", "v"), (("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")))


def dumbbell_graph() -> FiniteGraph:
    return FiniteGraph(
        ("u", "v"),
        (("p", "u", "u"), ("b", "u", "v"), ("q", "v", "v")),
    )


def genus2_catalog() -> list[FiniteGraph]:
    """The three combinatorial types of connected genus-2 dual graphs."""
    return [wedge_of_two_loops(), theta_graph(), dumbbell_graph()]


def kato_graph(r: int) -> FiniteGraph:
    """Theta graph with 2r+1 extra vertices inserted on each of its three edges.

    For r >= 1 the result has 2 + 3(2r+1) vertices and 3(2r+2) edges and
    first Betti number 2.  The boundary value r = 0 returns the plain theta
    graph (documented behavior, not an error).
    """
    if r < 0:
        raise InvalidRank("subdivision parameter must be >= 0", witness=r)
    if r == 0:
        return theta_graph()
    vertices = ["u", "v"]
    edges = []
    for line in ("a", "b", "c"):
        chain = ["u"] + [f"{line}{k}" for k in range(2 * r + 1)] + ["v"]
        vertices.extend(chain[1:-1])
        for k in range(len(chain) - 1):
            edges.append((f"{line}e{k}", chain[k], chain[k + 1]))
    return FiniteGraph(tuple(vertices), tuple(edges))


def isomorphisms(a, b) -> Iterator[tuple]:
    """Yield every bijection p of indices with a[i][j] == b[p[i]][p[j]]
    for all i, j, for square integer matrices a and b.

    Backtracking with signature pruning after McKay and Piperno
    ("Practical graph isomorphism II", J. Symbolic Comput. 60, 2014),
    without refinement.  An index only goes to one with the same
    signature (diagonal entry, sorted row, sorted column).  Indices are
    assigned breadth first over the nonzero pattern of a and its
    transpose, so one met through an assigned neighbour x only goes to a
    neighbour of x's image; each candidate is checked against the indices
    already assigned.
    """
    n = len(a)
    ids: dict = {}
    sig_a = [ids.setdefault(_signature(a, i), len(ids)) for i in range(n)]
    sig_b = [ids.get(_signature(b, j), -1) for j in range(len(b))]
    if sorted(sig_a) != sorted(sig_b):
        return
    if n == 0:
        yield ()
        return
    adj_a, adj_b = ([[k for k in range(n) if m[i][k] or m[k][i]] for i in range(n)]
                    for m in (a, b))
    order, via, seen = [], [None] * n, [False] * n  # via[i]: where the search met i
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            order.append(root)
            for i in order:  # the loop visits what it appends: breadth first
                for k in adj_a[i]:
                    if not seen[k]:
                        seen[k], via[k] = True, i
                        order.append(k)
    image, used = [-1] * n, [False] * n
    pools = [iter(range(n))] + [None] * (n - 1)  # candidates left per depth
    depth = 0
    while depth >= 0:
        i = order[depth]
        if image[i] >= 0:  # back at this depth: release the last choice
            used[image[i]] = False
            image[i] = -1
        for j in pools[depth]:
            if not used[j] and sig_b[j] == sig_a[i] and all(
                    a[i][x] == b[j][image[x]] and a[x][i] == b[image[x]][j]
                    for x in order[:depth]):
                break
        else:
            depth -= 1
            continue
        image[i], used[j] = j, True
        if depth == n - 1:
            yield tuple(image)
        else:
            depth += 1
            k = via[order[depth]]
            pools[depth] = iter(range(n) if k is None else adj_b[image[k]])


def _signature(m, i: int) -> tuple:
    return m[i][i], tuple(sorted(m[i])), tuple(sorted(row[i] for row in m))


def bipartite_isomorphic(g, h) -> bool:
    """Whether two bipartite multigraphs (``whites``, ``blacks`` and
    (white, black) ``edges``) are isomorphic by a map that keeps colours:
    :func:`isomorphisms` of their coded matrices."""
    return next(isomorphisms(_bipartite_coded(g), _bipartite_coded(h)), None) is not None


def _bipartite_coded(g) -> list[list[int]]:
    """Square matrix on whites then blacks: edge multiplicities off the
    diagonal (both ways), the colour on it (-1 white, -2 black)."""
    index = {("w", w): k for k, w in enumerate(g.whites)}
    index.update({("b", b): len(index) + k for k, b in enumerate(g.blacks)})
    m = [[0] * len(index) for _ in index]
    for (colour, _), k in index.items():
        m[k][k] = -1 if colour == "w" else -2
    for w, b in g.edges:
        i, j = index["w", w], index["b", b]
        m[i][j] += 1
        m[j][i] += 1
    return m


def permutation_equivalent(a: EdgeMatrix | list, b: EdgeMatrix | list) -> tuple | None:
    """A simultaneous row/column permutation carrying a onto b, as the
    tuple of images of each index, or None: the first of
    :func:`isomorphisms`."""
    ra = a.matrix if isinstance(a, EdgeMatrix) else a
    rb = b.matrix if isinstance(b, EdgeMatrix) else b
    return next(isomorphisms(ra, rb), None)
