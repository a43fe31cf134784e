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
truncations all read it.  It is validated once, on construction, and
caches its successor and predecessor lists, so strong connectivity and
every later pass run in O(letters + transitions).

:func:`isomorphisms` is the one search for index bijections between
square integer matrices; permutation equivalence, link-graph isomorphism
and letter automorphisms all call it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from .errors import InvalidGraph, InvalidRank, InvalidTransitionMatrix


@dataclass(frozen=True)
class FiniteGraph:
    """Connected undirected multigraph with explicit edge identifiers."""

    vertices: tuple
    edges: tuple  # (edge_id, src, dst) triples

    def __post_init__(self):
        if not self.vertices:
            raise InvalidGraph("graph has no vertices")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidGraph("duplicate vertex ids", witness=self.vertices)
        seen = set()
        for eid, src, dst in self.edges:
            if eid in seen:
                raise InvalidGraph("duplicate edge id", witness=eid)
            seen.add(eid)
            if src not in vset or dst not in vset:
                raise InvalidGraph("edge endpoint not a vertex", witness=(eid, src, dst))
        if not self._connected():
            raise InvalidGraph("graph is not connected")

    def _connected(self) -> bool:
        adj: dict = {v: [] for v in self.vertices}
        for _, src, dst in self.edges:
            adj[src].append(dst)
            adj[dst].append(src)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

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


def _sort_key(value):
    # stable order for mixed int/str ids
    return (isinstance(value, str), value)


@dataclass(frozen=True)
class OrientedEdge:
    edge_id: object
    forward: bool
    source: object
    target: object

    def reversal(self) -> "OrientedEdge":
        return OrientedEdge(self.edge_id, not self.forward, self.target, self.source)

    @property
    def label(self) -> str:
        return f"{self.edge_id}{'+' if self.forward else '-'}"


@dataclass(frozen=True)
class EdgeMatrix:
    """The one transition-matrix type: square 0/1 rows indexed by letters
    (oriented edges, or abstract letters), one label per letter, and an
    optional inverse-letter involution.  Validated once, on construction
    (InvalidTransitionMatrix, a bad row as its own witness), when the
    successor and predecessor lists are cached too."""

    matrix: tuple  # rows of 0/1 entries
    labels: tuple  # one label per letter
    involution: tuple | None = None  # involution[i] = index of the inverse letter
    # successor and predecessor letter lists, ascending, built once
    _succ: tuple = field(init=False, repr=False, compare=False)
    _pred: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n or not {0, 1}.issuperset(row):
                raise InvalidTransitionMatrix("transition matrix must be square 0/1",
                                              witness=row)
        if len(self.labels) != n:
            raise InvalidTransitionMatrix("label count does not match matrix")
        if self.involution is not None:
            inv = self.involution
            if len(inv) != n or sorted(inv) != list(range(n)):
                raise InvalidTransitionMatrix("involution must permute the alphabet",
                                              witness=inv)
            if any(inv[i] == i or inv[inv[i]] != i for i in range(n)):
                raise InvalidTransitionMatrix(
                    "involution must be fixed-point-free of order two", witness=inv)
        succ = tuple(tuple(compress(range(n), row)) for row in self.matrix)
        pred = [[] for _ in range(n)]
        for i, js in enumerate(succ):
            for j in js:
                pred[j].append(i)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", tuple(map(tuple, pred)))

    @property
    def size(self) -> int:
        return len(self.matrix)

    alphabet_size = size

    def successors(self, letter: int) -> tuple[int, ...]:
        """The letters j with A[letter][j] = 1, ascending (cached)."""
        return self._succ[letter]

    def predecessors(self, letter: int) -> tuple[int, ...]:
        """The letters i with A[i][letter] = 1, ascending (cached)."""
        return self._pred[letter]

    def row_sums(self) -> list[int]:
        return [len(js) for js in self._succ]

    def is_irreducible(self) -> bool:
        return self._irreducible

    @cached_property
    def _irreducible(self) -> bool:
        """Strong connectivity, decided on the first call."""
        return strongly_connected(self._succ, self._pred)

    def is_admissible(self, word: tuple) -> bool:
        if not word:
            return False
        if any(not 0 <= a < self.size for a in word):
            return False
        return all(self.matrix[a][b] for a, b in zip(word, word[1:]))


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


def directed_edge_matrix(g: FiniteGraph) -> EdgeMatrix:
    """Directed edge matrix of a finite graph on its 2#edges oriented edges.

    Entry (e, e') is 1 iff target(e) = source(e') and e' != reversal(e).
    Raises InvalidGraph on an edgeless graph.
    """
    if not g.edges:
        raise InvalidGraph("graph has no edges")
    oriented = g.oriented_edges()
    n = len(oriented)
    rows = []
    for e in oriented:
        rev = e.reversal()
        rows.append(tuple(
            1 if (e.target == f.source and f != rev) else 0
            for f in oriented
        ))
    return EdgeMatrix(tuple(rows), tuple(e.label for e in oriented))


def cayley_schottky_matrix(g: int) -> EdgeMatrix:
    """Transition matrix of the full rank-g free group shift.

    Letters 1..2g stand for g generators followed by their inverses;
    entry (i, j) is 1 iff |i - j| != g, so a letter may be followed by
    anything except its inverse.
    """
    if g < 1:
        raise InvalidRank("rank must be a positive integer", witness=g)
    n = 2 * g
    rows = tuple(
        tuple(1 if abs(i - j) != g else 0 for j in range(n))
        for i in range(n)
    )
    labels = tuple(
        f"a{i + 1}" if i < g else f"A{i - g + 1}"
        for i in range(n)
    )
    return EdgeMatrix(rows, labels)


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


def permutation_equivalent(a: EdgeMatrix | list, b: EdgeMatrix | list) -> tuple | None:
    """A simultaneous row/column permutation carrying a onto b, as the
    tuple of images of each index, or None: the first of
    :func:`isomorphisms`."""
    ra = a.matrix if isinstance(a, EdgeMatrix) else a
    rb = b.matrix if isinstance(b, EdgeMatrix) else b
    return next(isomorphisms(ra, rb), None)
