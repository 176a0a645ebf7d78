"""Seeded request generators for the four benchmark workloads.

A request is a plain dict:

    {"kind": str, "argv": [...], "files": {name: text}, "spec": {...}}

``argv`` is what ``toricnet.cli.main`` receives; file arguments are names
relative to the run's work directory, where run.py writes ``files``
before timing starts. ``spec`` carries what the oracles need to know about
the input and never reaches the program.

Requests come in rounds. A round holds one request of every kind the
workload mixes, in an order that spreads the expensive kinds evenly, so any
whole number of rounds has the same mix whatever the seed. The seed changes
the inputs (matrices, networks, rates, sequences, degrees), never the mix.
This module imports nothing from toricnet.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np

SPECIES = ("A", "B", "C", "D")

# Cold-cache rounds are expensive, so a run never needs many; the generators
# make this many up front and run.py cycles only if a run outlasts them.
ROUNDS = {"toric-bridge": 120, "crn-networks": 40, "hopf-series": 200, "cli-small": 8}

# Subpackages each workload's requests import, preloaded by the worker so
# that set-up time includes them.
MODULES = {
    "toric-bridge": ("toricnet.torictop", "toricnet.crn", "toricnet.ncsf"),
    "crn-networks": ("toricnet.crn",),
    "hopf-series": ("toricnet.ncsf", "toricnet.hopfdiff", "toricnet.freeprob"),
    "cli-small": (
        "toricnet.crn",
        "toricnet.torictop",
        "toricnet.ncsf",
        "toricnet.hopfdiff",
        "toricnet.freeprob",
    ),
}


def _req(kind, argv, spec, files=None):
    return {"kind": kind, "argv": list(argv) + ["--format", "json"], "files": files or {}, "spec": spec}


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------- quasitoric data


def cpn_data(n: int):
    facets = [list(f) for f in itertools.combinations(range(1, n + 2), n)]
    lam = [[1 if j == i else (-1 if j == n else 0) for j in range(n + 1)] for i in range(n)]
    return facets, lam


def product_data(a: int, b: int):
    fa, la = cpn_data(a)
    fb, lb = cpn_data(b)
    facets = [x + [v + a + 1 for v in y] for x in fa for y in fb]
    lam = [row + [0] * (b + 1) for row in la] + [[0] * (a + 1) + row for row in lb]
    return facets, lam


def bott_data(c):
    """Bott tower: vertex i and n+i are the two ends of the i-th interval.

    Lambda = [I | L] with L lower triangular, -1 on the diagonal and c[i][j]
    below it, so every facet minor is triangular with unit diagonal.
    """
    n = len(c)
    facets = [
        sorted(i + 1 if pick == 0 else n + i + 1 for i, pick in enumerate(choice))
        for choice in itertools.product((0, 1), repeat=n)
    ]
    lam = [[0] * (2 * n) for _ in range(n)]
    for i in range(n):
        lam[i][i] = 1
        lam[i][n + i] = -1
        for j in range(i):
            lam[i][n + j] = c[i][j]
    return facets, lam


def unimodular(rng: random.Random, n: int, steps: int = 3):
    """A det +1 integer matrix: a few elementary row additions with multiplier +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    return m


def signed_permutations(n: int) -> list:
    """The n x n signed permutation matrices of determinant +1."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        for signs in itertools.product((1, -1), repeat=n):
            if (-1) ** inversions * math.prod(signs) == 1:
                out.append([[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)])
    return out


def _left_mul(m, lam):
    return [[sum(m[i][k] * lam[k][j] for k in range(len(lam))) for j in range(len(lam[0]))] for i in range(len(m))]


def _quasitoric_request(rng, name, shape, facets, lam, idx, twist=None):
    twisted = _left_mul(twist or unimodular(rng, len(lam)), lam)
    fname = f"q{idx}.json"
    files = {fname: json.dumps({"facets": facets, "lambda": twisted})}
    spec = {"shape": shape, "facets": facets, "lambda": lam}
    return _req(name, ["toric", "charnum", "--quasitoric", fname], spec, files)


# ---------------------------------------------------------------- polytopes


def hirzebruch_polytope(rng: random.Random):
    """Trapezoid x >= 0, y >= 0, y <= b, x + k*y <= a with a > k*b."""
    k = rng.randint(0, 3)
    b = rng.randint(1, 3)
    a = k * b + rng.randint(1, 3)
    return [[1, 0], [0, 1], [0, -1], [-1, -k]], [0, 0, -b, -a]


DELZANT3_SHAPES = ("box", "simplex", "prism", "cut-box")


def delzant3_polytope(rng: random.Random, shape: str):
    a, b, c = (rng.randint(1, 3) for _ in range(3))
    if shape == "box":
        normals = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        offsets = [0, 0, 0, -a, -b, -c]
    elif shape == "simplex":
        normals = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
        offsets = [0, 0, 0, -a]
    elif shape == "prism":
        k = rng.randint(0, 2)
        top = k * b + a
        normals = [[1, 0, 0], [0, 1, 0], [0, -1, 0], [-1, -k, 0], [0, 0, 1], [0, 0, -1]]
        offsets = [0, 0, -b, -top, 0, -c]
    else:
        a, b, c = a + 1, b + 1, c + 1
        normals = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]]
        offsets = [0, 0, 0, -a, -b, -c, 1]
    return normals, offsets


def _polytope_request(kind, normals, offsets, idx, extra=()):
    fname = f"p{idx}.json"
    files = {fname: json.dumps({"normals": normals, "offsets": [str(x) for x in offsets]})}
    spec = {"normals": normals, "offsets": offsets}
    return _req(kind, ["toric", "charnum", "--polytope", fname, *extra], spec, files), spec


# ---------------------------------------------------------------- networks


def render_network(complexes, edges, rates) -> str:
    """DSL text, one irreversible reaction per line."""

    def label(vec):
        bits = [name if c == 1 else f"{c}{name}" for c, name in zip(vec, SPECIES) if c]
        return " + ".join(bits) if bits else "0"

    return "\n".join(
        f"{label(complexes[s])} -> {label(complexes[t])} : {r}" for (s, t), r in zip(edges, rates)
    )


def distinct_complexes(rng: random.Random, n: int, species: int, top: int = 2):
    out: list = []
    while len(out) < n:
        vec = tuple(rng.randint(0, top) for _ in range(species))
        if vec not in out:
            out.append(vec)
    return [list(v) for v in out]


def strong_digraph(rng: random.Random, n: int, n_edges: int):
    """A Hamiltonian cycle in seeded order plus distinct random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    others = [(s, t) for s in range(n) for t in range(n) if s != t and (s, t) not in edges]
    rng.shuffle(others)
    edges += others[: max(0, n_edges - n)]
    rng.shuffle(edges)
    return edges


def _network_spec(complexes, edges, rates, bindings=None):
    return {"complexes": complexes, "edges": edges, "rates": rates, "bindings": bindings or {}}


def symbolic_network(rng, n, n_edges, species):
    complexes = distinct_complexes(rng, n, species)
    edges = strong_digraph(rng, n, n_edges)
    rates = [f"k{i + 1}" for i in range(len(edges))]
    return complexes, edges, rates


def int_det(rows) -> int:
    """Determinant of an integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    if n == 0:
        return 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def arborescence_counts(n: int, edges) -> list:
    """Spanning in-trees per root of a strongly connected digraph (matrix-tree)."""
    lap = [[0] * n for _ in range(n)]
    for s, t in edges:
        lap[t][s] += 1
        lap[s][s] -= 1
    counts = []
    for root in range(n):
        rest = [v for v in range(n) if v != root]
        counts.append(abs(int_det([[lap[a][b] for b in rest] for a in rest])))
    return counts


def _species_used(complexes) -> int:
    """Species with a nonzero coefficient somewhere: the CLI's species count."""
    return sum(1 for col in zip(*complexes) if any(col))


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def circulation(rng: random.Random, n: int, edges) -> list:
    """A positive integer flow on every edge with inflow = outflow at every node.

    Each edge s -> t closes a cycle with a shortest path t -> s (the digraph
    is strongly connected); the cycle carries a seeded weight of 1-3.
    """
    out_edges: list = [[] for _ in range(n)]
    for i, (s, t) in enumerate(edges):
        out_edges[s].append((i, t))
    flow = [0] * len(edges)
    for i, (s, t) in enumerate(edges):
        via = {t: None}
        queue = deque([t])
        while s not in via:
            node = queue.popleft()
            for j, nxt in out_edges[node]:
                if nxt not in via:
                    via[nxt] = (j, node)
                    queue.append(nxt)
        w = rng.randint(1, 3)
        flow[i] += w
        node = s
        while via[node] is not None:
            j, node = via[node]
            flow[j] += w
    return flow


def balanced_rates(rng: random.Random, complexes, edges) -> list:
    """Rates complex balanced at a seeded point c* with entries in 1/2..2.

    rate_e * Psi_source(e)(c*) is a positive circulation, so at c* the flux
    into every complex equals the flux out of it, whatever the deficiency.
    Rates drawn one by one instead spread the tree constants over many orders
    of magnitude, and then birch_point's absolute verification fails on a
    valid input (README.md, known defect 2, reproduced by probes()).
    """
    point = [rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)))
             for _ in SPECIES]
    flow = circulation(rng, len(complexes), edges)
    return [Fraction(f) / math.prod(x ** e for x, e in zip(point, complexes[s]))
            for f, (s, _) in zip(flow, edges)]


def species_order(complexes, edges) -> list:
    """Species indices in order of first appearance in the DSL text: the CLI's order."""
    order: list = []
    for s, t in edges:
        for node in (s, t):
            order += [j for j, c in enumerate(complexes[node]) if c and j not in order]
    return order


def stable_step(complexes, edges, rates, c0, steps: int, dt: float = 0.01) -> float:
    """The largest dt / 2^k at which `steps` fixed RK4 steps stay well inside RK4's stability region.

    The benchmark's own RK4 integrates the mass-action ODE for `steps` steps
    of the candidate size; the step halves until dt times the spectral radius
    of the Jacobian is at most 0.5 at every step and no concentration goes
    negative. The request then runs `steps` steps of that size, so a stiff
    network costs what any other does, over a shorter time; at the default
    dt it would fail (README.md, known defect 1, reproduced by probes()).
    """
    cols = species_order(complexes, edges)
    ys = np.array([[complexes[node][j] for j in cols] for node in range(len(complexes))], dtype=float)
    src = np.array([s for s, _ in edges])
    change = np.array([ys[t] - ys[s] for s, t in edges])  # edges x species
    kappa = np.array(rates, dtype=float)

    def deriv(c):
        return (kappa * np.prod(c ** ys[src], axis=1)) @ change

    def radius(c):
        # d Psi_s / d c_j = y_sj * Psi_s / c_j; c stays positive on the trajectory
        psi = np.prod(c ** ys[src], axis=1)
        grad = ys[src] * psi[:, None] / np.maximum(c, 1e-300)
        return float(np.max(np.abs(np.linalg.eigvals(change.T @ (kappa[:, None] * grad)))))

    for _ in range(40):
        c = np.array(c0, dtype=float)
        ok = True
        for _ in range(steps):
            if dt * radius(c) > 0.5:
                ok = False
                break
            k1 = deriv(c)
            k2 = deriv(c + dt / 2 * k1)
            k3 = deriv(c + dt / 2 * k2)
            k4 = deriv(c + dt * k3)
            c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if c.min() < 0:
                ok = False
                break
        if ok:
            return dt
        dt /= 2
    raise ValueError(f"no stable RK4 step for {complexes} {edges} {rates}")


def simplex_network(rng: random.Random, n: int, smooth: bool = True):
    """n complexes o + U e_i over n-1 species on a reversible cycle.

    U is unimodular, so the Cayley simplex is smooth; with ``smooth`` false
    one column of U is doubled and the bridge must refuse it.
    """
    s = n - 1
    while True:
        u = unimodular(rng, s, steps=2)
        if not smooth:
            col = rng.randrange(s)
            for row in u:
                row[col] *= 2
        origin = [2] * s
        vecs = [origin] + [[origin[r] + u[r][c] for r in range(s)] for c in range(s)]
        if all(x >= 0 for v in vecs for x in v) and len({tuple(v) for v in vecs}) == n:
            break
    order = list(range(n))
    rng.shuffle(order)
    vecs = [vecs[i] for i in order]
    edges = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    rates = [f"k{i + 1}" for i in range(len(edges))]
    return vecs, edges, rates


def spread(requests, heavy) -> list:
    """Reorder so the requests for which heavy(req) holds are evenly spaced."""
    hard = [q for q in requests if heavy(q)]
    easy = [q for q in requests if not heavy(q)]
    out = []
    for i, q in enumerate(hard):
        take = round((i + 1) * len(easy) / len(hard)) - round(i * len(easy) / len(hard))
        out.append(q)
        out.extend(easy[:take])
        easy = easy[take:]
    return out + easy


# ---------------------------------------------------------------- toric-bridge


def toric_bridge_round(rng: random.Random, r: int, twists: dict) -> list:
    idx = itertools.count(r * 100)

    def qt(name, shape, data):
        # Dimension 4 takes the round's own det-1 signed permutation: row
        # additions would make the work depend on the seed (0.33-1.0 s for
        # CP^2xCP^2), and no two rounds of a run share a twist, so every
        # request still builds a fresh EvalContext.
        key = json.dumps(shape)
        twist = twists[key][r % len(twists[key])] if key in twists else None
        return _quasitoric_request(rng, name, shape, *data, next(idx), twist)

    def bott(n):
        c = [[rng.randint(-2, 2) for _ in range(i)] for i in range(n)]
        return bott_data(c)

    def hirz(variant):
        normals, offsets = hirzebruch_polytope(rng)
        extra = ((), ("--bundle", "normal", "--convention", "ginzburg"), ("--bundle", "normal"))[variant]
        return _polytope_request("charnum-hirzebruch", normals, offsets, next(idx), extra)[0]

    def delzant3():
        normals, offsets = delzant3_polytope(rng, DELZANT3_SHAPES[r % len(DELZANT3_SHAPES)])
        extra = rng.choice(((), ("--bundle", "normal"), ("--convention", "ginzburg")))
        return _polytope_request("charnum-delzant3", normals, offsets, next(idx), extra)[0]

    def crn_toric(case):
        # the smooth network's size follows the round (3-5 complexes give a
        # CP^2, CP^3 or CP^4 bridge); the refused ones are cheap at any size
        n = 3 + r % 3 if case == "smooth" else rng.randint(3, 5)
        if case == "deficient":
            complexes = distinct_complexes(rng, n + 1, max(2, n - 2))
            edges = strong_digraph(rng, n + 1, n + 2)
            rates = [f"k{i + 1}" for i in range(len(edges))]
        else:
            complexes, edges, rates = simplex_network(rng, n, smooth=case == "smooth")
        spec = _network_spec(complexes, edges, rates)
        spec["case"] = case
        return _req(f"crn-toric-{case}", ["crn", "toric", render_network(complexes, edges, rates)], spec)

    # Three dimension-4 requests (0.4-1.1 s each, cold) set the tail; the
    # twelve cheap ones (under 10 ms) hold the median well inside their
    # cluster; five medium ones (20-50 ms) sit between.
    return [
        qt("charnum-cpn", {"cpn": 4}, cpn_data(4)),
        qt("charnum-cpn", {"cpn": 2}, cpn_data(2)),
        hirz(0),
        crn_toric("deficient"),
        qt("charnum-cpn", {"cpn": 3}, cpn_data(3)),
        qt("charnum-bott", {"bott": 2}, bott(2)),
        crn_toric("nonsmooth"),
        qt("charnum-product", {"product": [2, 2]}, product_data(2, 2)),
        qt("charnum-product", {"product": [1, 1]}, product_data(1, 1)),
        hirz(1),
        qt("charnum-product", {"product": [1, 2]}, product_data(1, 2)),
        crn_toric("deficient"),
        qt("charnum-bott", {"bott": 3}, bott(3)),
        crn_toric("nonsmooth"),
        qt("charnum-product", {"product": [1, 3]}, product_data(1, 3)),
        qt("charnum-bott", {"bott": 2}, bott(2)),
        delzant3(),
        qt("charnum-cpn", {"cpn": 1}, cpn_data(1)),
        crn_toric("smooth"),
        hirz(2),
    ]


# ---------------------------------------------------------------- crn-networks


def _bindings_text(rates, values) -> str:
    return ",".join(f"{name}={val}" for name, val in zip(rates, values))


def crn_networks_round(rng: random.Random, r: int) -> list:
    out = []

    def trees(n, n_edges, work):
        # The symbolic sum for root i costs about T_i^2 (T_i in-trees, built
        # by repeated polynomial addition), so graphs with `n_edges` edges
        # are drawn until sum T_i^2 is within 5% of `work`: the seed varies
        # the network, not the amount of work.
        while True:
            complexes, edges, rates = symbolic_network(rng, n, n_edges, min(4, n - 1))
            if abs(sum(t * t for t in arborescence_counts(n, edges)) - work) <= 0.05 * work:
                break
        spec = _network_spec(complexes, edges, rates)
        out.append(_req("crn-trees", ["crn", "trees", render_network(complexes, edges, rates)], spec))

    def analyze(cmd):
        n = rng.randint(3, 7)
        complexes = distinct_complexes(rng, n, rng.randint(2, 4))
        edges = strong_digraph(rng, n, n + rng.randint(0, n))
        if rng.random() < 0.5:  # drop one cycle edge: usually not weakly reversible
            edges = edges[1:]
        rates = [f"k{i + 1}" for i in range(len(edges))]
        spec = _network_spec(complexes, edges, rates)
        out.append(_req(f"crn-{cmd}", ["crn", cmd, render_network(complexes, edges, rates)], spec))

    def steady(deficient):
        # The positive-deficiency network has rates drawn one by one, so it
        # must be refused as not complex balanced; the other is balanced.
        n = rng.randint(3, 5)
        species = max(1, n - 2) if deficient else n - 1
        complexes = distinct_complexes(rng, n, species)
        edges = strong_digraph(rng, n, n + rng.randint(0, 2))
        rates = [f"k{i + 1}" for i in range(len(edges))]
        values = [_rational(rng) for _ in rates] if deficient else balanced_rates(rng, complexes, edges)
        bind = _bindings_text(rates, [_frac_text(v) for v in values])
        spec = _network_spec(complexes, edges, rates, dict(zip(rates, [_frac_text(v) for v in values])))
        argv = ["crn", "steady", render_network(complexes, edges, rates), "--bindings", bind]
        out.append(_req("crn-steady", argv, spec))

    def simulate():
        n = rng.randint(3, 4)
        complexes = distinct_complexes(rng, n, 3, top=1)
        edges = strong_digraph(rng, n, n + 1)
        rates = [f"k{i + 1}" for i in range(len(edges))]
        # log-uniform over 0.1 .. 60: ratios up to 600, so some runs are
        # stiff and take 100 steps shorter than the default 0.01
        values = [f"{10 ** rng.uniform(-1, 1.8):.4g}" for _ in rates]
        c0 = [f"{rng.uniform(0.5, 2.0):.3f}" for _ in range(_species_used(complexes))]
        dt = stable_step(complexes, edges, values, c0, 100)
        t_end = 100 * dt
        spec = _network_spec(complexes, edges, rates, dict(zip(rates, values)))
        spec.update({"c0": c0, "t_end": t_end, "dt": dt})
        argv = ["crn", "simulate", render_network(complexes, edges, rates), "--bindings",
                _bindings_text(rates, values), "--c0", ",".join(c0), "--t-end", repr(t_end), "--dt", repr(dt)]
        out.append(_req("crn-simulate", argv, spec))

    # two 7-complex requests a round, so the tail percentile sits on twice
    # as many samples of the heaviest kind
    trees(7, 19, 100_000)
    analyze("analyze")
    steady(False)
    trees(4, 9, 190)
    simulate()
    trees(6, 18, 50_000)
    trees(7, 19, 100_000)
    analyze("ideal")
    steady(True)
    trees(5, 14, 4_300)
    analyze("analyze")
    trees(3, 5, 14)
    return out


# ---------------------------------------------------------------- hopf-series


def _rational_seq(rng, length, lead=None):
    seq = [_rational(rng) * rng.choice((1, -1)) for _ in range(length)]
    if lead is not None:
        seq[0] = Fraction(lead)
    return [_frac_text(x) for x in seq]


def _partition(rng, n, max_parts=None):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
        if max_parts and len(parts) == max_parts - 1 and left:
            parts.append(left)
            break
    return sorted(parts, reverse=True)


def _composition(rng, n, max_parts):
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, max_parts - 1))))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if len(parts) <= max_parts:
            return parts


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


SYM_PAIRS = tuple((a, b) for a in "ehpms" for b in "ehpms" if a != b)


def sym_request(rng, degree, pair):
    src, dst = pair
    lam = _partition(rng, degree)
    spec = {"src": src, "dst": dst, "partition": lam}
    return _req("sym-convert", ["sym", "convert", "--element", f"{src}:{_ints(lam)}", "--to", dst], spec)


def qsym_product_request(rng, left_weight, right_weight, max_parts):
    a = _composition(rng, left_weight, max_parts)
    b = _composition(rng, right_weight, max_parts)
    spec = {"left": a, "right": b}
    return _req("qsym-product", ["qsym", "product", "--left", _ints(a), "--right", _ints(b)], spec)


def freeprob_requests(rng, length):
    """free and classical transforms both ways, and a genus K-series."""
    moments = ["1"] + _rational_seq(rng, length)
    cumulants = _rational_seq(rng, length)
    logs = _rational_seq(rng, length, lead=1)
    joined = ",".join
    # "--opt=value" because the sequences may start with a minus sign
    return [
        _req("freeprob-free", ["freeprob", "free", "--moments=" + joined(moments)], {"moments": moments}),
        _req("freeprob-free", ["freeprob", "free", "--cumulants=" + joined(cumulants)], {"cumulants": cumulants}),
        _req("freeprob-classical", ["freeprob", "classical", "--moments=" + joined(moments)], {"moments": moments}),
        _req("freeprob-classical", ["freeprob", "classical", "--cumulants=" + joined(cumulants)],
             {"cumulants": cumulants}),
        _req("freeprob-hirzebruch", ["freeprob", "hirzebruch", "--log=" + joined(logs), "--order", str(length)],
             {"log": logs, "order": length}),
    ]


def _hopf(kind, argv, spec):
    return _req(f"hopf-{kind}", ["hopf", kind, *argv], spec)


def hopf_series_round(rng: random.Random, r: int) -> list:
    """All four FGL orders, both algebras, and a rotating schedule of sizes.

    Sizes (verify weight, degrees, sequence lengths, sym conversion pair and
    degree) follow the round index, so every seed fills the same caches in
    the same rounds; the seed picks the values (partitions, compositions,
    rational sequences).
    """
    deg = 3 + r % 6
    out = []
    for i, order in enumerate((5, 6, 7, 8)):
        out.append(_hopf("fgl", ["--order", str(order)], {"order": order}))
        alg = ("bfk", "ln")[i % 2]
        if i < 2:
            w = 5 + (r + 2 * i) % 4
            out.append(_hopf("verify", ["--algebra", alg, "--max-weight", str(w)], {"algebra": alg, "max_weight": w}))
        out.append(_hopf("coproduct", ["--algebra", alg, "--degree", str(deg)], {"algebra": alg}))
        out.append(_hopf("antipode", ["--algebra", alg, "--degree", str(deg)], {"algebra": alg}))
        out.append(sym_request(rng, 4 + (r + i) % 4, SYM_PAIRS[(4 * r + i) % len(SYM_PAIRS)]))
    for target in ("log-generators", "b-series"):
        out.append(_hopf("coaction", ["--target", target, "--degree", str(2 + r % 5)], {"target": target}))
    nc = 3 + r % 3
    out.append(_req("freeprob-ncseries", ["freeprob", "ncseries", "--order", str(nc)], {"order": nc}))
    out += freeprob_requests(rng, 6 + r % 7)
    out.append(qsym_product_request(rng, 2 + r % 4, 2 + (r + 1) % 4, 4))
    out.append(qsym_product_request(rng, 2 + (r + 2) % 4, 2 + (r + 3) % 4, 4))
    return spread(out, lambda req: req["kind"] in ("hopf-fgl", "hopf-verify"))


# ---------------------------------------------------------------- cli-small


def cli_small_pool(rng: random.Random) -> list:
    """Two small requests of every kind, sizes fixed per variant; the stream replays them."""
    out = []
    for v in range(2):
        complexes, edges, rates = symbolic_network(rng, 3, 3 + v, 2)
        text = render_network(complexes, edges, rates)
        spec = _network_spec(complexes, edges, rates)
        out.append(_req("crn-analyze", ["crn", "analyze", text], spec))
        out.append(_req("crn-trees", ["crn", "trees", text], spec))
        out.append(_req("crn-ideal", ["crn", "ideal", text], spec))
        values = [_frac_text(x) for x in balanced_rates(rng, complexes, edges)]
        bspec = _network_spec(complexes, edges, rates, dict(zip(rates, values)))
        out.append(_req("crn-steady", ["crn", "steady", text, "--bindings", _bindings_text(rates, values)], bspec))
        vecs, sedges, srates = simplex_network(rng, 3)
        tspec = _network_spec(vecs, sedges, srates)
        tspec["case"] = "smooth"
        out.append(_req("crn-toric-smooth", ["crn", "toric", render_network(vecs, sedges, srates)], tspec))
        c0 = [f"{rng.uniform(0.5, 2.0):.3f}" for _ in range(_species_used(complexes))]
        svals = [f"{rng.uniform(0.5, 2.0):.3f}" for _ in rates]
        sim = _network_spec(complexes, edges, rates, dict(zip(rates, svals)))
        sim.update({"c0": c0, "t_end": 0.1, "dt": 0.01})
        out.append(_req("crn-simulate", ["crn", "simulate", text, "--bindings", _bindings_text(rates, svals),
                                         "--c0", ",".join(c0), "--t-end", "0.1"], sim))
        out.append(qsym_product_request(rng, 2 + v, 3, 2))
        w = _composition(rng, 3 + v, 4)
        c = w if v == 0 else _composition(rng, sum(w), 4)
        out.append(_req("qsym-pair", ["qsym", "pair", "--word", _ints(w), "--comp", _ints(c)], {"word": w, "comp": c}))
        comp = _composition(rng, 2 + v, 3)
        out.append(_req("qsym-realize", ["qsym", "realize", "--comp", _ints(comp), "--nvars", str(3 + v)],
                        {"comp": comp, "nvars": 3 + v}))
        out.append(sym_request(rng, 3 + v, rng.choice(SYM_PAIRS)))
        pair = (("h", "m"), ("s", "s"))[v] if rng.random() < 0.5 else (("m", "h"), ("p", "p"))[v]
        lam = _partition(rng, 3 + v)
        mu = lam if rng.random() < 0.5 else _partition(rng, 3 + v)
        out.append(_req("sym-pair", ["sym", "pair", "--left", f"{pair[0]}:{_ints(lam)}",
                                     "--right", f"{pair[1]}:{_ints(mu)}"], {"bases": pair, "left": lam, "right": mu}))
        alg = ("bfk", "ln")[v]
        out.append(_hopf("coproduct", ["--algebra", alg, "--degree", str(3 + v)], {"algebra": alg}))
        out.append(_hopf("antipode", ["--algebra", alg, "--degree", str(3 + v)], {"algebra": alg}))
        target = ("log-generators", "b-series")[v]
        out.append(_hopf("coaction", ["--target", target, "--degree", str(3 + v)], {"target": target}))
        out.append(_hopf("fgl", ["--order", str(3 + v)], {"order": 3 + v}))
        out.append(_hopf("verify", ["--algebra", alg, "--max-weight", str(3 + v)], {"algebra": alg, "max_weight": 3 + v}))
        out += freeprob_requests(rng, 4 + v)
        out.append(_req("freeprob-ncseries", ["freeprob", "ncseries", "--order", str(2 + v)], {"order": 2 + v}))
        normals, offsets = hirzebruch_polytope(rng)
        req, pspec = _polytope_request("charnum-hirzebruch", normals, offsets, 2 * v)
        out.append(req)
        fname = f"d{v}.json"
        out.append(_req("toric-delzant", ["toric", "delzant", "--polytope", fname], pspec,
                        {fname: req["files"][f"p{2 * v}.json"]}))
        out.append(_quasitoric_request(rng, "charnum-cpn", {"cpn": 2}, *cpn_data(2), 2 * v + 1))
        fname = f"v{v}.json"
        facets, lam = product_data(1, 1) if v else cpn_data(2)
        out.append(_req("toric-validate", ["toric", "validate", "--quasitoric", fname], {},
                        {fname: json.dumps({"facets": facets, "lambda": lam})}))
    return out


# ---------------------------------------------------------------- defect probes


def probes() -> list:
    """Fixed valid inputs on which the current code fails, one per known defect.

    The workloads steer round both defects (stable_step, balanced_rates), so
    that no timed request fails; run.py sends these after set-up on every
    untraced run and prints whether each still fails.
    """
    # A -> B at rate 300, B -> A at 1: default dt times the spectral radius is 3
    net = ([[1, 0], [0, 1]], [(0, 1), (1, 0)], ["k1", "k2"])
    values = ["300", "1"]
    spec = _network_spec(*net, dict(zip(net[2], values)))
    spec.update({"c0": ["1", "1"], "t_end": 1.0, "dt": 0.01})
    simulate = _req("crn-simulate", ["crn", "simulate", render_network(*net), "--bindings",
                                     _bindings_text(net[2], values), "--c0", "1,1", "--t-end", "1"], spec)
    # deficiency zero, so every rate vector is complex balancing
    net = ([[1, 2], [2, 1], [0, 2]], [(2, 1), (2, 0), (1, 0), (0, 2)], ["k1", "k2", "k3", "k4"])
    values = ["9/4", "9", "9", "1/9"]
    steady = _req("crn-steady", ["crn", "steady", render_network(*net), "--bindings", _bindings_text(net[2], values)],
                  _network_spec(*net, dict(zip(net[2], values))))
    return [simulate, steady]


# ---------------------------------------------------------------- entry point

WORKLOADS = ("toric-bridge", "crn-networks", "hopf-series", "cli-small")


def generate(workload: str, seed: int, rounds: int | None = None) -> list:
    """The request rounds for one workload and seed: a list of lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = ROUNDS[workload] if rounds is None else rounds
    if workload == "cli-small":
        pool = cli_small_pool(rng)
        return [rng.sample(pool, len(pool)) for _ in range(rounds)]
    if workload == "toric-bridge":
        perms = signed_permutations(4)
        twists = {json.dumps(shape): rng.sample(perms, len(perms))
                  for shape in ({"cpn": 4}, {"product": [2, 2]}, {"product": [1, 3]})}
        return [toric_bridge_round(rng, r, twists) for r in range(rounds)]
    make = {"crn-networks": crn_networks_round, "hopf-series": hopf_series_round}[workload]
    return [make(rng, r) for r in range(rounds)]
