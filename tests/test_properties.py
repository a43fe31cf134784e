"""Randomized property suites over small instances (seeded, >= 200 cases)."""

import math
import random
from collections import Counter
from itertools import permutations

import pytest

from graphspectra.buildings import (
    BipartiteGraph,
    solve_tau,
    symmetric_tau_closed_form,
    tau_lhs,
)
from graphspectra.cli import parse_invocation, render_plan
from graphspectra.errors import DegenerateEuclidean, RequiresIrreducible
from graphspectra.graphs import (
    FiniteGraph,
    directed_edge_matrix,
    isomorphisms,
    permutation_equivalent,
)
from graphspectra.ktheory import (
    ck_k_theory,
    determinant,
    exact_rank,
    irreducibility_check,
    smith_normal_form,
)
from graphspectra.shift import (
    ParryMeasure,
    SFTData,
    alphabet_automorphisms,
    count_words,
    enumerate_words,
    filtration_dims,
)
from graphspectra.triples import CrossedProductTriple, crossed_product_spectrum, jlo_phi0

CASES = 200


def random_connected_multigraph(rng: random.Random) -> FiniteGraph:
    n = rng.randint(2, 4)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(1, n):
        edges.append((f"t{i}", vertices[rng.randrange(i)], vertices[i]))
    for j in range(rng.randint(1, 3)):
        src = rng.choice(vertices)
        dst = rng.choice(vertices)
        edges.append((f"e{j}", src, dst))
    return FiniteGraph(vertices, tuple(edges))


def test_edge_matrix_properties_random():
    rng = random.Random(101)
    for _ in range(CASES):
        g = random_connected_multigraph(rng)
        em = directed_edge_matrix(g)
        oriented = g.oriented_edges()
        cols = list(zip(*em.matrix))
        for idx, e in enumerate(oriented):
            assert sum(em.matrix[idx]) == g.degree(e.target) - 1
            assert sum(cols[idx]) == g.degree(e.source) - 1
        if min(g.degree(v) for v in g.vertices) >= 2:
            assert all(sum(row) >= 1 for row in em.matrix)
            assert all(sum(col) >= 1 for col in cols)


def test_k_theory_permutation_invariance_random():
    rng = random.Random(202)
    for _ in range(CASES):
        g = random_connected_multigraph(rng)
        em = directed_edge_matrix(g)
        n = em.size
        rows = em.rows()
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert ck_k_theory(rows) == ck_k_theory(permuted)
        k0, k1 = ck_k_theory(rows)
        assert k0.rank == k1.rank


def test_smith_normal_form_random():
    rng = random.Random(303)
    for _ in range(CASES):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(m)
        recon = snf.reconstruct_diagonal(m)
        for i in range(rows):
            for j in range(cols):
                expected = snf.diagonal[i] if i == j else 0
                assert recon[i][j] == expected
        factors = snf.nonzero_factors()
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert len(factors) == exact_rank(m)
        assert abs(determinant([list(r) for r in snf.left])) == 1
        assert abs(determinant([list(r) for r in snf.right])) == 1
        if rows == cols:
            product = 1
            for d in snf.diagonal:
                product *= d
            assert abs(determinant(m)) == product


def random_irreducible_sft(rng: random.Random) -> SFTData:
    while True:
        n = rng.randint(2, 5)
        matrix = [[1 if rng.random() < 0.6 else 0 for _ in range(n)]
                  for _ in range(n)]
        for i in range(n):  # no dead letters
            if sum(matrix[i]) == 0:
                matrix[i][rng.randrange(n)] = 1
        rows = tuple(tuple(r) for r in matrix)
        if irreducibility_check(rows):
            return SFTData(rows, tuple(f"l{i}" for i in range(n)))


def test_parry_measure_additivity_random():
    rng = random.Random(404)
    done = 0
    while done < CASES:
        s = random_irreducible_sft(rng)
        try:
            pm = ParryMeasure(s)
        except RequiresIrreducible:  # rare slow-converging spectrum
            continue
        total = sum(pm.weight((a,)) for a in range(s.alphabet_size))
        assert total == pytest.approx(1.0, abs=1e-11)
        for w in enumerate_words(s, rng.randint(1, 3)):
            extended = sum(pm.weight(w + (b,)) for b in s.successors(w[-1]))
            assert extended == pytest.approx(pm.weight(w), abs=1e-11)
        done += 1


def test_parry_conformal_scaling_random():
    # mu(iw) / mu(w) = l_i / (l_{w_0} lambda): the conformal weight of a
    # letter depends on the first coordinate only, so every k_i is 1.
    rng = random.Random(405)
    done = 0
    while done < CASES:
        s = random_irreducible_sft(rng)
        try:
            pm = ParryMeasure(s)
        except RequiresIrreducible:  # rare slow-converging spectrum
            continue
        left, lam = pm.perron.left, pm.perron.value
        for length in (1, 2, 3):
            for w in enumerate_words(s, length):
                for i in range(s.alphabet_size):
                    if s.matrix[i][w[0]]:
                        assert pm.weight((i,) + w) / pm.weight(w) == pytest.approx(
                            left[i] / (left[w[0]] * lam), rel=1e-12, abs=0)
        done += 1


def test_filtration_telescoping_random():
    rng = random.Random(505)
    for _ in range(CASES):
        s = random_irreducible_sft(rng)
        fd = filtration_dims(s, 4)
        news = fd.new_dims()
        assert all(d >= 0 for d in news)
        for n in range(5):
            assert sum(news[:n + 1]) == fd.dims[n]
        length = rng.randint(1, 4)
        assert fd.dims[length - 1] == len(enumerate_words(s, length)) \
            == count_words(s, length)


def test_automorphisms_preserve_admissibility_random():
    rng = random.Random(606)
    for _ in range(CASES):
        s = random_irreducible_sft(rng)
        if s.alphabet_size > 4:
            continue
        for sigma in alphabet_automorphisms(s):
            for w in enumerate_words(s, 3):
                assert s.is_admissible(tuple(sigma[a] for a in w))


def carries(a, b, p) -> bool:
    return all(a[i][j] == b[p[i]][p[j]] for i in range(len(a)) for j in range(len(a)))


def brute_isomorphisms(a, b) -> list[tuple]:
    """The oracle for the pruned matcher: every index bijection, in
    lexicographic order."""
    return [p for p in permutations(range(len(a))) if carries(a, b, p)]


def relabeled(a, p) -> list[list[int]]:
    """The matrix b with b[p[i]][p[j]] = a[i][j]."""
    b = [[0] * len(a) for _ in a]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            b[p[i]][p[j]] = x
    return b


def test_matcher_agrees_with_brute_force_random():
    rng = random.Random(1010)
    for _ in range(CASES):
        n = rng.randint(1, 6)
        density = rng.random()
        rows = tuple(tuple(int(rng.random() < density) for _ in range(n))
                     for _ in range(n))
        involution = None
        if n % 2 == 0 and rng.random() < 0.5:
            letters = rng.sample(range(n), n)
            pairing = [0] * n
            for i, j in zip(letters[::2], letters[1::2]):
                pairing[i], pairing[j] = j, i
            involution = tuple(pairing)
        s = SFTData(rows, tuple(f"l{i}" for i in range(n)), involution)
        expected = [p for p in brute_isomorphisms(rows, rows)
                    if involution is None
                    or all(p[involution[i]] == involution[p[i]] for i in range(n))]
        assert alphabet_automorphisms(s) == expected

        if rng.random() < 0.5:
            other = relabeled(rows, rng.sample(range(n), n))
        else:
            other = [[int(rng.random() < density) for _ in range(n)]
                     for _ in range(n)]
        expected = brute_isomorphisms(rows, other)
        assert sorted(isomorphisms(rows, other)) == expected
        found = permutation_equivalent(rows, other)
        assert (found is not None) == bool(expected)
        assert found is None or carries(rows, other, found)


def random_bipartite(rng: random.Random, whites: int, blacks: int) -> BipartiteGraph:
    ws = tuple(f"w{i}" for i in range(whites))
    bs = tuple(f"b{i}" for i in range(blacks))
    edges = tuple((rng.choice(ws), rng.choice(bs))
                  for _ in range(rng.randint(0, 2 * whites * blacks)))
    return BipartiteGraph(bs, ws, edges)


def brute_bipartite_isomorphic(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    if (len(g.whites), len(g.blacks)) != (len(h.whites), len(h.blacks)):
        return False
    target = Counter(h.edges)
    return any(
        Counter((wp[g.whites.index(w)], bp[g.blacks.index(b)])
                for w, b in g.edges) == target
        for wp in permutations(h.whites) for bp in permutations(h.blacks))


def test_bipartite_isomorphism_agrees_with_brute_force_random():
    rng = random.Random(1111)
    for _ in range(CASES):
        whites, blacks = rng.randint(1, 4), rng.randint(1, 4)
        g = random_bipartite(rng, whites, blacks)
        kind = rng.random()
        if kind < 0.4:  # relabeled
            wp = dict(zip(g.whites, rng.sample(g.whites, whites)))
            bp = dict(zip(g.blacks, rng.sample(g.blacks, blacks)))
            h = BipartiteGraph(g.blacks, g.whites,
                               tuple((wp[w], bp[b]) for w, b in g.edges))
        elif kind < 0.6:  # colours swapped: the same multigraph uncoloured
            h = BipartiteGraph(g.whites, g.blacks, tuple((b, w) for w, b in g.edges))
        elif kind < 0.8:
            h = random_bipartite(rng, whites, blacks)
            h = BipartiteGraph(h.blacks, h.whites, h.edges[:len(g.edges)])
        else:
            h = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert g.isomorphic_to(h) == brute_bipartite_isomorphic(g, h)


def test_crossed_spectrum_symmetry_random():
    rng = random.Random(707)
    for _ in range(CASES):
        base = tuple((round(rng.uniform(0, 8), 3), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 6)))
        cutoff = rng.randint(0, 8)
        c = CrossedProductTriple(base, cutoff)
        spectrum = crossed_product_spectrum(c)
        assert sorted((-v, m) for v, m in spectrum) == spectrum
        total = sum(m for _, m in spectrum)
        assert total == sum(m for _, m in base) * 2 * (cutoff + 1)
        assert jlo_phi0(c, 0.8) == pytest.approx(0.0, abs=1e-10)


def test_plan_round_trip_random():
    rng = random.Random(808)
    for _ in range(CASES):
        kind = rng.choice(["ktheory", "tau", "spectra", "crossed", "building"])
        if kind == "ktheory":
            argv = ["ktheory", "--matrix", f"m{rng.randint(0, 99)}.json"]
        elif kind == "tau":
            weights = ",".join(str(rng.randint(2, 9))
                               for _ in range(rng.randint(5, 9)))
            argv = ["tau", "--weights", weights]
        elif kind == "spectra":
            argv = ["spectra", "--genus", str(rng.randint(2, 4)),
                    "--levels", str(rng.randint(2, 6)),
                    "--t", f"{rng.uniform(0.1, 3):.3f}"]
        elif kind == "crossed":
            argv = ["crossed", "--count", str(rng.randint(10, 300)),
                    "--cutoff", str(rng.randint(10, 300))]
        else:
            argv = ["building", "--q", str(rng.randint(1, 4))]
            if rng.random() < 0.5:
                argv.append("--cover")
            if rng.random() < 0.5:
                argv.append("--bm")
        argv += ["--format", rng.choice(["json", "csv", "table"])]
        plan = parse_invocation(argv)
        assert parse_invocation(render_plan(plan)) == plan


def test_tau_roots_random():
    rng = random.Random(909)
    for _ in range(CASES):
        r = rng.randint(5, 9)
        if rng.random() < 0.3:
            weights = [rng.randint(2, 5)] * r
        else:
            weights = [rng.randint(2, 5) for _ in range(r)]
        x = solve_tau(weights)
        assert x > 0
        assert abs(tau_lhs(weights, x) - 2) < 1e-12
        if len(set(weights)) == 1:
            assert x == pytest.approx(
                symmetric_tau_closed_form(r, weights[0]), abs=1e-10)
        grid = [x * f for f in (0.5, 0.9, 1.1, 2.0)]
        values = [tau_lhs(weights, g) for g in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_tau_square_always_degenerate_random():
    rng = random.Random(111)
    for _ in range(CASES):
        weights = [rng.randint(2, 9) for _ in range(4)]
        assert tau_lhs(weights, 0.0) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(DegenerateEuclidean):
            solve_tau(weights)
