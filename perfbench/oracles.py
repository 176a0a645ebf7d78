"""Output oracles that share no code with toricnet.

``check(request, rc, stdout)`` returns None when the program's answer (or
its refusal) is right for the request, and a one-line reason otherwise. Each
oracle recomputes the answer its own way: closed forms and brute force over
index tuples for characteristic numbers, networkx and numpy for network
structure, sympy determinants for the matrix-tree theorem, scipy's LSODA for
dynamics, the moment-cumulant recursions for free probability, and
evaluation at seeded rational points for symmetric-function identities.
Polynomials are dicts {((name, exponent), ...): Fraction} built here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import sympy

from workloads import int_det

SPECIES = ("A", "B", "C", "D")

STIFF = "crn simulate: fixed-step RK4 at the default dt fails on stiff rates (ROADMAP item 4)"
BIRCH = ("crn steady: birch_point's absolute check |A*Psi(c)| <= 1e-9 * max rate fails from rounding "
         "alone when Psi(c) is large, so it raises InternalError on a complex-balanced network (ROADMAP item 4)")


def known_defect(req, error):
    """The documented defect that explains a failed request, or None.

    A simulate request is stiff when dt times the spectral radius of the
    Jacobian exceeds 1 somewhere on the reference trajectory: the step is
    longer than the fastest time scale, and fixed-step RK4 either goes
    negative (exit 1, "use a smaller dt") or loses accuracy. A steady-state
    request counts under BIRCH only when its rates are exactly complex
    balancing, so the CLI should have answered.
    """
    kind = req["kind"]
    if kind == "crn-simulate" and error is None and simulate_stiffness(req) > 1.0:
        return STIFF
    if (kind == "crn-steady" and error and "InternalError: balancing verification failed" in error
            and NetworkFacts(req["spec"]).complex_balanced(
                {k: Fraction(v) for k, v in req["spec"]["bindings"].items()})):
        return BIRCH
    return None


# ---------------------------------------------------------------- polynomials


def padd(a, b, scale=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
        if not out[k]:
            del out[k]
    return out


def pmul(a, b):
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            exps = dict(ka)
            for name, e in kb:
                exps[name] = exps.get(name, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def pconst(c):
    return {(): Fraction(c)} if c else {}


def pvar(name):
    return {((name, 1),): Fraction(1)}


def parse_poly(text: str):
    """Inverse of the CLI's polynomial rendering: 'c*x^2*y - z + 3/2'."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = Fraction(1)
        if term.startswith("-"):
            sign, term = Fraction(-1), term[1:]
        coeff = Fraction(1)
        exps: dict = {}
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exps[name] = exps.get(name, 0) + (int(power) if power else 1)
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + sign * coeff
    return {k: v for k, v in out.items() if v}


def terms_of(payload) -> dict:
    """{index tuple: Fraction} from a {"basis", "terms"} JSON element."""
    return {tuple(t["index"]): Fraction(t["coeff"]) for t in payload["terms"]}


# ---------------------------------------------------------------- series over dict polynomials


def s_mul(a, b, order):
    out = [{} for _ in range(order + 1)]
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b[: order + 1 - i]):
            if cb:
                out[i + j] = padd(out[i + j], pmul(ca, cb))
    return out


def s_pow(a, k, order):
    out = [pconst(1)] + [{} for _ in range(order)]
    for _ in range(k):
        out = s_mul(out, a, order)
    return out


def s_compose(outer, inner, order):
    """outer(inner(T)) for commutative coefficients, inner(0) = 0."""
    out = [{} for _ in range(order + 1)]
    power = [pconst(1)] + [{} for _ in range(order)]
    for k, c in enumerate(outer[: order + 1]):
        if k:
            power = s_mul(power, inner, order)
        if c:
            out = [padd(o, pmul(c, p)) for o, p in zip(out, power)]
    return out


def t_series(order, prefix="t", prime=""):
    return [{}, pconst(1)] + [pvar(f"{prefix}{i}{prime}") for i in range(1, order)]


def q_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def q_inverse(a, order):
    inv = [Fraction(1) / a[0]] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = sum((a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1)), Fraction(0))
        inv[k] = -acc / a[0]
    return inv


def q_comp_inverse(f, order):
    """g with f(g(z)) = z by Lagrange: [z^n] g = (1/n) [w^(n-1)] (w/f(w))^n."""
    shifted = q_inverse(f[1:] + [Fraction(0)] * (order + 1), order)
    g = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        power = q_mul(power, shifted, order)
        g[n] = power[n - 1] / n
    return g


# ---------------------------------------------------------------- characteristic numbers


def compositions(n):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def partitions(n, top=None):
    top = n if top is None else top
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, top), 0, -1) for rest in partitions(n - p, p)]


def _composition_class(m, alpha, images):
    total: dict = {}
    for idx in itertools.combinations(range(m), len(alpha)):
        term = pconst(1)
        for i, a in zip(idx, alpha):
            for _ in range(a):
                term = pmul(term, images[i])
        total = padd(total, term)
    return total


def _elementary(images, k, complete=False):
    """e_k or h_k of the images, brute force over index tuples."""
    pick = itertools.combinations_with_replacement if complete else itertools.combinations
    total: dict = {}
    for idx in pick(range(len(images)), k):
        term = pconst(1)
        for i in idx:
            term = pmul(term, images[i])
        total = padd(total, term)
    return total


def _truncating_ring(images, caps, top):
    """Ring Q[x, y, ...]/(x^(a+1), ...) whose top monomial evaluates to 1."""
    def functional(poly):
        return poly.get(top, Fraction(0))
    return images, functional, caps


def cpn_ring(n):
    images = [pvar("x")] * (n + 1)
    return _truncating_ring(images, {"x": n}, (("x", n),))


def product_ring(a, b):
    images = [pvar("x")] * (a + 1) + [pvar("y")] * (b + 1)
    return _truncating_ring(images, {"x": a, "y": b}, (("x", a), ("y", b)))


def _truncate(poly, caps):
    return {k: v for k, v in poly.items() if all(e <= caps.get(name, e) for name, e in k)}


def bott_ring(lam):
    """Bott tower with Lambda = [I | L]: y_i = v_{n+i}, v_i = -(L y)_i.

    The Stanley-Reisner relations v_i * y_i = 0 say y_i^2 = y_i * sum_{j<i}
    c_ij y_j; rewriting the highest square first ends in multiples of
    y_1...y_n. The functional is pinned by v_1...v_n = det(Lambda_{1..n}) = 1.
    """
    n = len(lam)
    ys = [f"y{i + 1}" for i in range(n)]
    images = []
    for i in range(n):
        img: dict = {}
        for j in range(n):
            if lam[i][n + j]:
                img = padd(img, pvar(ys[j]), -lam[i][n + j])
        images.append(img)
    images += [pvar(y) for y in ys]

    def reduce_top(poly):
        total = Fraction(0)
        work = dict(poly)
        while work:
            key, c = work.popitem()
            exps = dict(key)
            sq = [i for i in range(n) if exps.get(ys[i], 0) >= 2]
            if not sq:
                if all(exps.get(y, 0) == 1 for y in ys):
                    total += c
                continue
            i = max(sq)
            exps[ys[i]] -= 1
            for j in range(i):
                coef = lam[i][n + j]
                if coef:
                    e2 = dict(exps)
                    e2[ys[j]] = e2.get(ys[j], 0) + 1
                    k2 = tuple(sorted(e2.items()))
                    work[k2] = work.get(k2, 0) + c * coef
        return total

    base = pconst(1)
    for i in range(n):
        base = pmul(base, images[i])
    scale = reduce_top(base)
    return images, (lambda poly: reduce_top(poly) / scale), {}


def quasitoric_ring(shape, lam):
    if "cpn" in shape:
        return cpn_ring(shape["cpn"])
    if "product" in shape:
        return product_ring(*shape["product"])
    return bott_ring(lam)


def _class_value(ring, poly):
    images, functional, caps = ring
    return functional(_truncate(poly, caps) if caps else poly)


def _mul_all(ring, factors):
    out = pconst(1)
    for f in factors:
        out = pmul(out, f)
        if ring[2]:
            out = _truncate(out, ring[2])
    return out


def expected_charnum(ring, n, bundle):
    images = ring[0]
    m = len(images)
    mxi = {}
    for alpha in compositions(n):
        mxi[alpha] = _class_value(ring, _composition_class(m, alpha, images))
    chern = {}
    for lam in partitions(n):
        if bundle == "tangent":
            factors = [_elementary(images, p) for p in lam]
        else:
            factors = [{k: v * (-1) ** p for k, v in _elementary(images, p, True).items()} for p in lam]
        chern[lam] = _class_value(ring, _mul_all(ring, factors))
    return mxi, chern


def _compare_charnum(payload, mxi, chern):
    got_mxi = {tuple(r["composition"]): Fraction(r["value"]) for r in payload["mxi"]["table"]}
    got_chern = {tuple(r["partition"]): Fraction(r["value"]) for r in payload["chern"]}
    for alpha, want in mxi.items():
        if got_mxi.get(alpha) != want:
            return f"mxi{list(alpha)} = {got_mxi.get(alpha)}, want {want}"
    if chern is not None and got_chern != chern:
        return f"chern {sorted(got_chern.items())} != {sorted(chern.items())}"
    return None


@functools.lru_cache(maxsize=None)
def _expected_quasitoric(key: str):
    shape, lam, bundle = json.loads(key)
    return expected_charnum(quasitoric_ring(shape, lam), len(lam), bundle)


def check_quasitoric(req, payload):
    spec = req["spec"]
    n = len(spec["lambda"])
    mxi, chern = _expected_quasitoric(json.dumps([spec["shape"], spec["lambda"], payload.get("bundle", "tangent")]))
    if payload.get("n") != n:
        return f"n = {payload.get('n')}, want {n}"
    return _compare_charnum(payload, mxi, chern)


def _vertices(normals, offsets):
    n = len(normals[0])
    verts = {}
    for subset in itertools.combinations(range(len(normals)), n):
        a = sympy.Matrix([normals[i] for i in subset])
        if a.det() == 0:
            continue
        x = a.LUsolve(sympy.Matrix([offsets[i] for i in subset]))
        x = tuple(Fraction(int(sympy.fraction(v)[0]), int(sympy.fraction(v)[1])) for v in x)
        vals = [sum(Fraction(c) * xi for c, xi in zip(row, x)) for row in normals]
        if all(v >= o for v, o in zip(vals, offsets)):
            verts[x] = tuple(i for i, (v, o) in enumerate(zip(vals, offsets)) if v == o)
    return verts


def _volume(points):
    from scipy.spatial import ConvexHull

    return ConvexHull(np.array([[float(c) for c in p] for p in points])).volume


def polytope_chern(normals, n, verts):
    """Tangent Chern numbers {partition: c_I} of the generated toric manifolds.

    Complex orientation. c_n is the number of vertices. Smooth projective toric varieties are
    rational, so Noether gives c1^2 + c2 = 12 on surfaces and Todd gives
    c1*c2 = 24 on 3-folds. c1^3 is 64 on P^3, 48 on the P^1-bundles over
    surfaces (boxes and prisms), and drops by 8 per point blown up (the cut box).
    """
    nv = len(verts)
    if n == 2:
        return {(2,): Fraction(nv), (1, 1): Fraction(12 - nv)}
    if len(normals) == 4:
        c111 = 64
    else:
        c111 = 48 - 8 * (len(normals) - 6)
    return {(3,): Fraction(nv), (2, 1): Fraction(24), (1, 1, 1): Fraction(c111)}


def _normal_from_tangent(c, n):
    if n == 2:
        c1sq, c2 = c[(1, 1)], c[(2,)]
        return {(1, 1): c1sq, (2,): c1sq - c2}
    c111, c21, c3 = c[(1, 1, 1)], c[(2, 1)], c[(3,)]
    return {(1, 1, 1): -c111, (2, 1): -c111 + c21, (3,): -c111 + 2 * c21 - c3}


def _mxi_from_chern(c, n):
    """Composition numbers that are symmetric: <n> = p_n and <1^n> = e_n."""
    if n == 2:
        return {(2,): c[(1, 1)] - 2 * c[(2,)], (1, 1): c[(2,)]}
    e1e1e1, e1e2, e3 = c[(1, 1, 1)], c[(2, 1)], c[(3,)]
    return {(3,): e1e1e1 - 3 * e1e2 + 3 * e3, (1, 1, 1): e3}


def orientation(normals, verts):
    """The CLI's fundamental class against the complex one: +1 or -1.

    The CLI pins phi(v_sigma0) = sign det Lambda_sigma0 on the
    lexicographically least facet sigma0 (a vertex's active facets), while the
    complex orientation of a Delzant manifold has phi(v_sigma) = +1 at every
    vertex; every top-degree number differs by this sign.
    """
    base = min(tuple(i + 1 for i in active) for active in verts.values())
    return int_det([[normals[i - 1][j] for i in base] for j in range(len(normals[0]))])


def check_polytope(req, payload):
    spec = req["spec"]
    normals, offsets = spec["normals"], [Fraction(o) for o in spec["offsets"]]
    n = len(normals[0])
    verts = _vertices(normals, offsets)
    sign = orientation(normals, verts)
    tangent = {k: sign * v for k, v in polytope_chern(normals, n, verts).items()}
    bundle = payload.get("bundle")
    chern = tangent if bundle == "tangent" else _normal_from_tangent(tangent, n)
    why = _compare_charnum(payload, _mxi_from_chern(tangent, n), chern)
    if why:
        return why
    got_mxi = {tuple(r["composition"]): Fraction(r["value"]) for r in payload["mxi"]["table"]}
    if n == 3:
        c = tangent
        # <2,1> + <1,2> = p2*p1 - p3 = e1*e2 - 3*e3
        mixed = c[(2, 1)] - 3 * c[(3,)]
        if got_mxi[(2, 1)] + got_mxi[(1, 2)] != mixed:
            return f"mxi[2,1] + mxi[1,2] = {got_mxi[(2, 1)] + got_mxi[(1, 2)]}, want {mixed}"
    if [Fraction(u) for u in payload["u"]] != [-o for o in offsets]:
        return f"u = {payload['u']}"
    ham = payload["hamiltonian"]
    table = {tuple(r["index"]): Fraction(r["value"]) for r in ham["table"]}
    volume = sign * math.factorial(n) * _volume(list(verts))
    if abs(float(table[()]) - volume) > 1e-9 * max(1.0, volume):
        return f"u^n[M] = {table[()]}, want n!*vol = {volume}"
    top = got_mxi if ham["convention"] == "mxi" else _normal_from_tangent(tangent, n)
    for key, want in top.items():
        if table.get(key) != want:
            return f"hamiltonian{list(key)} = {table.get(key)}, want {want}"
    return None


def check_delzant(req, payload):
    spec = req["spec"]
    normals, offsets = spec["normals"], [Fraction(o) for o in spec["offsets"]]
    verts = _vertices(normals, offsets)
    want = sorted(tuple(i + 1 for i in active) for active in verts.values())
    if sorted(tuple(f) for f in payload["facets"]) != want:
        return f"facets {payload['facets']} != {want}"
    lam = [[normals[i][j] for i in range(len(normals))] for j in range(len(normals[0]))]
    if payload["lambda"] != lam:
        return f"lambda {payload['lambda']} != {lam}"
    if [Fraction(u) for u in payload["u"]] != [-o for o in offsets]:
        return f"u = {payload['u']}"
    return None


# ---------------------------------------------------------------- networks


def network_order(spec):
    """Species and complexes in order of first appearance in the DSL text."""
    complexes, edges = spec["complexes"], spec["edges"]
    species, order = [], []
    for s, t in edges:
        for node in (s, t):
            for j, c in enumerate(complexes[node]):
                if c and SPECIES[j] not in species:
                    species.append(SPECIES[j])
        for node in (s, t):
            if node not in order:
                order.append(node)
    return species, order


def _label(vec, species):
    """The CLI's complex label: species in order of first appearance."""
    coeffs = [(vec[SPECIES.index(name)], name) for name in species]
    bits = [name if c == 1 else f"{c}{name}" for c, name in coeffs if c]
    return " + ".join(bits) if bits else "0"


class NetworkFacts:
    """Structure of a generated network, in the program's index order."""

    def __init__(self, spec):
        self.species, order = network_order(spec)
        pos = {node: i for i, node in enumerate(order)}
        cols = [SPECIES.index(s) for s in self.species]
        self.y = [[spec["complexes"][node][c] for node in order] for c in cols]  # species x complexes
        self.labels = [_label(spec["complexes"][node], self.species) for node in order]
        self.n = len(order)
        self.edges = [(pos[s], pos[t]) for s, t in spec["edges"]]
        self.rates = spec["rates"]
        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges)
        self.graph = g
        self.classes = [sorted(c) for c in nx.weakly_connected_components(g)]
        self.weakly_reversible = all(
            nx.is_strongly_connected(g.subgraph(c)) for c in self.classes
        )
        diffs = [[self.y[r][t] - self.y[r][s] for r in range(len(self.species))] for s, t in self.edges]
        self.s = int(np.linalg.matrix_rank(np.array(diffs, dtype=float))) if diffs else 0
        self.deficiency = self.n - len(self.classes) - self.s
        self.cayley = [list(row) for row in self.y] + [
            [1 if j in c else 0 for j in range(self.n)] for c in self.classes
        ]

    def laplacian(self, values):
        lap = [[Fraction(0)] * self.n for _ in range(self.n)]
        for (s, t), name in zip(self.edges, self.rates):
            lap[t][s] += values[name]
            lap[s][s] -= values[name]
        return lap

    def tree_constants(self, values):
        """Matrix-tree theorem per linkage class, sympy determinants."""
        lap = self.laplacian(values)
        out = [None] * self.n
        for cls in self.classes:
            for root in cls:
                rest = [v for v in cls if v != root]
                if not rest:
                    out[root] = Fraction(1)
                    continue
                minor = sympy.Matrix([[sympy.Rational(lap[r][c].numerator, lap[r][c].denominator)
                                       for c in rest] for r in rest])
                det = minor.det() * (-1) ** len(rest)
                out[root] = Fraction(int(det.p), int(det.q))
        return out

    def kernel_vectors(self):
        """Integer basis of the rational kernel of the Cayley matrix (sympy)."""
        out = []
        for v in sympy.Matrix(self.cayley).nullspace():
            den = sympy.ilcm(*[sympy.fraction(x)[1] for x in v]) if len(v) else 1
            out.append([int(x * den) for x in v])
        return out

    def complex_balanced(self, values):
        ks = self.tree_constants(values)
        for u in self.kernel_vectors():
            prod = Fraction(1)
            for k, e in zip(ks, u):
                prod *= k ** e
            if prod != 1:
                return False
        return True


def _seeded_rates(req, names):
    rng = random.Random(hashlib.sha256(json.dumps(req["argv"]).encode()).hexdigest())
    return {name: Fraction(rng.randint(1, 97), rng.randint(1, 97)) for name in names}


def _eval_poly(poly, values):
    total = Fraction(0)
    for key, c in poly.items():
        term = Fraction(c)
        for name, e in key:
            term *= values[name] ** e
        total += term
    return total


def check_trees(req, payload):
    facts = NetworkFacts(req["spec"])
    values = _seeded_rates(req, facts.rates)
    want = facts.tree_constants(values)
    rows = payload["tree_constants"]
    if [r["complex"] for r in rows] != facts.labels:
        return f"complex labels {[r['complex'] for r in rows]} != {facts.labels}"
    for i, r in enumerate(rows):
        got = _eval_poly(parse_poly(r["value"]), values)
        if got != want[i]:
            return f"K[{i + 1}] at seeded rates = {got}, matrix-tree gives {want[i]}"
    return None


def check_analyze(req, payload):
    facts = NetworkFacts(req["spec"])
    checks = {
        "species": facts.species,
        "complexes": facts.labels,
        "n_complexes": facts.n,
        "n_linkage_classes": len(facts.classes),
        "weakly_reversible": facts.weakly_reversible,
        "stoichiometric_rank": facts.s,
        "deficiency": facts.deficiency,
    }
    for key, want in checks.items():
        if payload.get(key) != want:
            return f"{key} = {payload.get(key)}, want {want}"
    cay = payload["cayley"]
    if cay[: len(facts.y)] != facts.y or sorted(cay[len(facts.y):]) != sorted(facts.cayley[len(facts.y):]):
        return "cayley matrix differs"
    if facts.n - int(np.linalg.matrix_rank(np.array(facts.cayley, dtype=float))) != facts.deficiency:
        return "deficiency differs from n - rank(Cayley)"
    return None


def check_ideal(req, payload):
    facts = NetworkFacts(req["spec"])
    vecs = []
    for b in payload["binomials"]:
        plus, minus = b["u_plus"], b["u_minus"]
        if any(p < 0 or q < 0 or (p and q) for p, q in zip(plus, minus)):
            return f"binomial {b['text']} has overlapping or negative exponents"
        vecs.append([p - q for p, q in zip(plus, minus)])
    cay = np.array(facts.cayley, dtype=object)
    for u in vecs:
        if any(cay.dot(np.array(u, dtype=object))):
            return f"kernel vector {u} is not in ker(Cayley)"
    dim = facts.n - int(np.linalg.matrix_rank(np.array(facts.cayley, dtype=float)))
    if len(vecs) != dim or (vecs and sympy.Matrix(vecs).rank() != dim):
        return f"{len(vecs)} binomials for a kernel of dimension {dim}"
    return None


def _mass_action(facts, values, c):
    """A * Psi(c) with A[k][l] = rate(l -> k), floats."""
    psi = [math.prod(float(ci) ** e for ci, e in zip(c, col)) for col in zip(*facts.y)] if facts.y else []
    out = [0.0] * facts.n
    for (s, t), name in zip(facts.edges, facts.rates):
        flux = float(values[name]) * psi[s]
        out[t] += flux
        out[s] -= flux
    return out


def check_steady(req, rc, payload):
    facts = NetworkFacts(req["spec"])
    values = {k: Fraction(v) for k, v in req["spec"]["bindings"].items()}
    if not facts.complex_balanced(values):
        if rc == 2 and payload["error"]["kind"] == "NotComplexBalanced":
            return None
        return f"rates are not complex balancing: want NotComplexBalanced, got exit {rc}"
    if rc != 0:
        return f"complex-balanced network refused with exit {rc}"
    c = [payload["concentrations"][s] for s in facts.species]
    flux = _mass_action(facts, values, c)
    psi = [math.prod(ci ** e for ci, e in zip(c, col)) for col in zip(*facts.y)]
    scale = max(float(values[name]) * psi[s] for (s, _), name in zip(facts.edges, facts.rates))
    if max(abs(f) for f in flux) > 1e-6 * scale:
        return f"|A*Psi(c)| = {max(abs(f) for f in flux):.3e}"
    return None


def _reference(req):
    """LSODA solution of the mass-action ODE: (facts, rhs, solution)."""
    from scipy.integrate import solve_ivp

    spec = req["spec"]
    facts = NetworkFacts(spec)
    values = {k: Fraction(v) for k, v in spec["bindings"].items()}
    c0 = [float(x) for x in spec["c0"]]

    def rhs(_t, c):
        flux = _mass_action(facts, values, c)
        return [sum(row[k] * flux[k] for k in range(facts.n)) for row in facts.y]

    sol = solve_ivp(rhs, (0.0, spec["t_end"]), c0, method="LSODA", rtol=1e-10, atol=1e-12)
    return facts, rhs, sol


def simulate_stiffness(req) -> float:
    """max over the reference trajectory of dt * spectral radius of the Jacobian."""
    _, rhs, sol = _reference(req)
    worst = 0.0
    for c in sol.y.T:
        base = np.array(rhs(0.0, c))
        jac = np.empty((len(c), len(c)))
        for j in range(len(c)):
            step = 1e-7 * max(1.0, abs(c[j]))
            bumped = np.array(c, dtype=float)
            bumped[j] += step
            jac[:, j] = (np.array(rhs(0.0, bumped)) - base) / step
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(jac)))))
    return worst * req["spec"]["dt"]


def check_simulate(req, payload):
    spec = req["spec"]
    facts, _, sol = _reference(req)
    want = sol.y[:, -1]
    got = [payload["final"][s] for s in facts.species]
    for s, g, w in zip(facts.species, got, want):
        # RK4 at dt = 0.01 on a non-stiff network is good to about 1e-4
        if abs(g - w) > 1e-3 * max(1.0, abs(w)):
            return f"final {s} = {g}, LSODA gives {w}"
    steps = round(spec["t_end"] / spec["dt"]) + 1
    if payload["steps_recorded"] != steps:
        return f"steps_recorded = {payload['steps_recorded']}, want {steps}"
    return None


def _deficiency_refusal(facts):
    if facts.deficiency != 0:
        return ("DeficiencyNonzero", facts.deficiency)
    if not facts.weakly_reversible:
        return ("NotWeaklyReversible", None)
    return None


def _elementary_divisors(mat):
    """d_k / d_(k-1), d_k the gcd of the k x k minors (brute force)."""
    rows, cols = len(mat), len(mat[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                g = math.gcd(g, int_det([[mat[i][j] for j in c] for i in r]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def check_crn_toric(req, rc, payload):
    facts = NetworkFacts(req["spec"])
    refusal = _deficiency_refusal(facts)
    if refusal is None:
        base = [facts.cayley[r][0] for r in range(len(facts.cayley))]
        edges = [[facts.cayley[r][j] - base[r] for r in range(len(facts.cayley))] for j in range(1, facts.n)]
        bad = [d for d in _elementary_divisors(edges) if d != 1]
        if bad:
            refusal = ("NonSmooth", bad)
    if refusal is not None:
        kind, detail = refusal
        if rc != 2 or payload["error"]["kind"] != kind:
            return f"want refusal {kind}, got exit {rc}"
        if kind == "DeficiencyNonzero" and payload["error"]["deficiency"] != detail:
            return f"deficiency {payload['error']['deficiency']}, want {detail}"
        if kind == "NonSmooth" and payload["error"]["divisors"] != detail:
            return f"divisors {payload['error']['divisors']}, want {detail}"
        return None
    if rc != 0:
        return f"smooth deficiency-zero network refused with exit {rc}"
    d = facts.n - 1
    want = {alpha: Fraction(math.comb(d + 1, len(alpha))) for alpha in compositions(d)}
    return _compare_charnum({"mxi": payload["mxi"], "chern": []}, want, None)


# ---------------------------------------------------------------- Hopf algebras


def nc_mul(a, b):
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def nc_add(a, b, scale=1):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def z_power_coeff(n, k):
    """[T^k] Z(T)^n, Z(T) = T + Z_1 T^2 + ...: one word per composition."""
    out: dict = {}
    for parts in compositions(k):
        if len(parts) == n:
            w = tuple(p - 1 for p in parts if p > 1)
            out[w] = out.get(w, 0) + Fraction(1)
    return out


def bfk_coproduct(m):
    out: dict = {}
    for n in range(1, m + 2):
        left = () if n == 1 else (n - 1,)
        for w, c in z_power_coeff(n, m + 1).items():
            out[(left, w)] = out.get((left, w), 0) + c
    return out


@functools.lru_cache(maxsize=None)
def bfk_antipode(m):
    """Solves sum_n chi(Z_(n-1)) [T^(m+1)] Z^n = 0 with chi(Z_0) = 1."""
    acc = {(m,): Fraction(-1)}
    for n in range(2, m + 1):
        acc = nc_add(acc, nc_mul(bfk_antipode(n - 1), z_power_coeff(n, m + 1)), -1)
    return acc


def ln_coproduct(i):
    return s_compose(t_series(i + 1), t_series(i + 1, prime="'"), i + 1)[i + 1]


def ln_antipode(i):
    order = i + 1
    f = t_series(order)
    # Lagrange over polynomial coefficients: [T^k] g = (1/k) [w^(k-1)] (w/f)^k
    tail = f[1:] + [{}]
    inv = [pconst(1)] + [{} for _ in range(order)]
    for k in range(1, order + 1):
        acc: dict = {}
        for j in range(1, k + 1):
            if j < len(tail) and tail[j]:
                acc = padd(acc, pmul(tail[j], inv[k - j]))
        inv[k] = {key: -v for key, v in acc.items()}
    power = s_pow(inv, order, order)
    return {k: v / order for k, v in power[order - 1].items()}


def coaction_image(target, n):
    if n == 0:
        return pconst(1)
    order = n + 1
    t = t_series(order)
    if target == "log-generators":
        outer = [{}, pconst(1)] + [
            {((f"CP{k - 1}", 1),): Fraction(1, k)} for k in range(2, order + 1)
        ]
        return {k: v * order for k, v in s_compose(outer, t, order)[order].items()}
    return s_compose(t_series(order, prefix="b"), t, order)[order]


def check_hopf(req, payload):
    kind, argv = req["kind"], req["argv"]
    arg = dict(zip(argv[2::2], argv[3::2]))
    if kind == "hopf-fgl":
        order = int(arg["--order"])
        if not (payload["unit"] and payload["commutative"]):
            return "unit or commutativity reported broken"
        if terms_of(payload["xy_coefficient"]) != {(1,): 2}:
            return f"x*y coefficient {payload['xy_coefficient']}, want 2*Z[1]"
        defect = payload["associativity_defect"]
        if order < 5:
            return None if defect is None and payload["associative"] else "defect reported below order 5"
        want = {(1, 1, 2): Fraction(2), (1, 2, 1): Fraction(-2)}
        if payload["associative"] or defect["monomial"] != [1, 1, 3] or terms_of(defect["coeff"]) != want:
            return f"associativity defect {defect}, want 2*Z[1,1,2] - 2*Z[1,2,1] at x*y*z^3"
        return None
    if kind == "hopf-verify":
        w = int(arg["--max-weight"])
        names = [c["name"] for c in payload["checks"]]
        if len(names) != 4 * w or not all(c["ok"] for c in payload["checks"]):
            return f"{sum(not c['ok'] for c in payload['checks'])} failed checks of {len(names)}"
        return None
    deg = int(arg.get("--degree", 0))
    if kind == "hopf-coproduct":
        if arg["--algebra"] == "bfk":
            got = {(tuple(t["left"]), tuple(t["right"])): Fraction(t["coeff"]) for t in payload["coproduct"]["terms"]}
            want = bfk_coproduct(deg)
        else:
            got, want = parse_poly(payload["coproduct"]), ln_coproduct(deg)
    elif kind == "hopf-antipode":
        if arg["--algebra"] == "bfk":
            got, want = terms_of(payload["antipode"]), bfk_antipode(deg)
        else:
            got, want = parse_poly(payload["antipode"]), ln_antipode(deg)
    else:
        got, want = parse_poly(payload["image"]), coaction_image(arg["--target"], deg)
    return None if got == want else f"{kind} degree {deg}: {len(got)} terms differ from the recomputation"


# ---------------------------------------------------------------- free probability


def free_moments(kappa):
    """m_0..m_N from free cumulants: M = 1 + sum_s kappa_s z^s M^s."""
    n = len(kappa)
    m = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        total = Fraction(0)
        power = [Fraction(1)] + [Fraction(0)] * n
        for s in range(1, k + 1):
            power = q_mul(power, m, n)  # uses m_0..m_(k-s), all known
            total += kappa[s - 1] * power[k - s]
        m[k] = total
    return m


def free_cumulants(moments):
    n = len(moments) - 1
    kappa = []
    for k in range(1, n + 1):
        trial = kappa + [Fraction(0)]
        kappa.append(moments[k] - free_moments(trial)[k])
    return kappa


def classical_moments(kappa):
    n = len(kappa)
    m = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        m[k] = sum((math.comb(k - 1, j - 1) * kappa[j - 1] * m[k - j] for j in range(1, k + 1)), Fraction(0))
    return m


def classical_cumulants(moments):
    n = len(moments) - 1
    kappa = []
    for k in range(1, n + 1):
        kappa.append(moments[k] - classical_moments(kappa + [Fraction(0)])[k])
    return kappa


def hirzebruch_k(logs, order):
    f = [Fraction(0)] + [Fraction(x) for x in logs[: order + 1]]
    f += [Fraction(0)] * (order + 2 - len(f))
    g = q_comp_inverse(f, order + 1)
    return q_inverse(g[1:], order)[: order + 1]


def free_cumulant_polys(order):
    """kappa_n as polynomials in m_1..m_n (abelianized noncommutative cumulants)."""
    ms = [pconst(1)] + [pvar(f"m{i}") for i in range(1, order + 1)]
    kappas = []
    for k in range(1, order + 1):
        total: dict = {}
        for s in range(1, k):
            # [z^(k-s)] M^s
            power = [pconst(1)] + [{} for _ in range(order)]
            for _ in range(s):
                power = s_mul(power, ms, order)
            total = padd(total, pmul(kappas[s - 1], power[k - s]))
        kappas.append(padd(ms[k], total, -1))
    return kappas


def check_freeprob(req, payload):
    kind, spec = req["kind"], req["spec"]
    frac = lambda xs: [Fraction(x) for x in xs]  # noqa: E731
    if kind == "freeprob-hirzebruch":
        got, want = frac(payload["K"]), hirzebruch_k(frac(spec["log"]), spec["order"])
    elif kind == "freeprob-ncseries":
        order = spec["order"]
        kappas = free_cumulant_polys(order)
        for row in payload["normalized"]:
            ab: dict = {}
            for w, c in terms_of(row["value"]).items():
                key = tuple(sorted({f"m{i}": w.count(i) for i in set(w)}.items()))
                ab[key] = ab.get(key, 0) + c
            ab = {k: v for k, v in ab.items() if v}
            if ab != kappas[row["n"] - 1]:
                return f"normalized k[{row['n']}] does not abelianize to the free cumulant"
        raw = {r["n"]: terms_of(r["value"]) for r in payload["raw"]}
        doc = {1: {(): -1}, 2: {(1,): -1}, 3: {(2,): 1, (1, 1): -2}}
        for n, want in doc.items():
            if n <= order and raw.get(n) != want:
                return f"raw [x^{n}] = {raw.get(n)}, want {want}"
        return None
    elif "moments" in spec:
        m = frac(spec["moments"])
        want = free_cumulants(m) if kind == "freeprob-free" else classical_cumulants(m)
        got = frac(payload["free_cumulants" if kind == "freeprob-free" else "classical_cumulants"])
    else:
        k = frac(spec["cumulants"])
        want = free_moments(k) if kind == "freeprob-free" else classical_moments(k)
        got = frac(payload["moments"])
    return None if got == want else f"{kind}: {got} != {want}"


# ---------------------------------------------------------------- symmetric functions


def _points(req, nvars, count=2):
    rng = random.Random(hashlib.sha256(json.dumps(req["argv"]).encode()).hexdigest())
    return [[Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(nvars)] for _ in range(count)]


def _e_values(x, n):
    e = [Fraction(1)] + [Fraction(0)] * n
    for xi in x:
        for k in range(n, 0, -1):
            e[k] += e[k - 1] * xi
    return e


def _h_values(x, n):
    h = [Fraction(1)] + [Fraction(0)] * n
    for xi in x:
        for k in range(1, n + 1):
            h[k] += h[k - 1] * xi
    return h


def _det(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows]).det()


def sym_value(basis, lam, x):
    n = sum(lam)
    if basis in ("e", "h", "p"):
        vals = (_e_values(x, n) if basis == "e" else _h_values(x, n) if basis == "h"
                else [sum(xi ** k for xi in x) for k in range(n + 1)])
        return math.prod((vals[p] for p in lam), start=Fraction(1))
    if basis == "m":
        padded = tuple(lam) + (0,) * (len(x) - len(lam))
        return sum((math.prod((xi ** a for xi, a in zip(x, perm)), start=Fraction(1))
                    for perm in set(itertools.permutations(padded))), Fraction(0))
    h = _h_values(x, n)
    l = len(lam)
    jt = [[h[lam[i] - i + j] if 0 <= lam[i] - i + j else Fraction(0) for j in range(l)] for i in range(l)]
    det = _det(jt)
    return Fraction(int(det.p), int(det.q))


def qsym_value(alpha, x):
    return sum((math.prod((x[i] ** a for i, a in zip(idx, alpha)), start=Fraction(1))
                for idx in itertools.combinations(range(len(x)), len(alpha))), Fraction(0))


def check_sym(req, payload):
    kind, spec = req["kind"], req["spec"]
    if kind == "sym-convert":
        lam = spec["partition"]
        got = terms_of(payload)
        if payload["basis"] != spec["dst"]:
            return f"basis {payload['basis']}, want {spec['dst']}"
        for x in _points(req, sum(lam)):
            lhs = sym_value(spec["src"], lam, x)
            rhs = sum((c * sym_value(spec["dst"], mu, x) for mu, c in got.items()), Fraction(0))
            if lhs != rhs:
                return f"{spec['src']}{lam} and its {spec['dst']}-expansion differ at a seeded point"
        return None
    if kind == "qsym-product":
        a, b = spec["left"], spec["right"]
        got = terms_of(payload)
        for x in _points(req, len(a) + len(b)):
            lhs = qsym_value(a, x) * qsym_value(b, x)
            rhs = sum((c * qsym_value(g, x) for g, c in got.items()), Fraction(0))
            if lhs != rhs:
                return "M_a * M_b differs from the quasi-shuffle expansion at a seeded point"
        return None
    if kind == "qsym-pair":
        want = 1 if spec["word"] == spec["comp"] else 0
        return None if Fraction(payload["value"]) == want else f"pairing {payload['value']}, want {want}"
    if kind == "qsym-realize":
        xs = [f"x{i + 1}" for i in range(spec["nvars"])]
        want: dict = {}
        for idx in itertools.combinations(range(spec["nvars"]), len(spec["comp"])):
            key = tuple(sorted((xs[i], a) for i, a in zip(idx, spec["comp"])))
            want[key] = want.get(key, 0) + Fraction(1)
        return None if parse_poly(payload["polynomial"]) == want else "realized polynomial differs"
    if kind == "sym-pair":
        (b1, b2), lam, mu = spec["bases"], tuple(spec["left"]), tuple(spec["right"])
        want = Fraction(0)
        if lam == mu:
            want = Fraction(1)
            if b1 == "p":
                want = Fraction(math.prod(i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam)))
        return None if Fraction(payload["value"]) == want else f"Hall pairing {payload['value']}, want {want}"
    raise KeyError(kind)


# ---------------------------------------------------------------- dispatch


def check(req, rc, out):
    """None when the output is right for the request, else the reason."""
    kind = req["kind"]
    try:
        payload = json.loads(out) if out.strip() else None
    except ValueError:
        return f"stdout is not JSON (exit {rc})"
    if kind == "crn-steady":
        return check_steady(req, rc, payload) if rc in (0, 2) else f"exit {rc}"
    if kind.startswith("crn-toric"):
        return check_crn_toric(req, rc, payload) if rc in (0, 2) else f"exit {rc}"
    if rc != 0:
        detail = payload.get("error", {}).get("detail", "") if isinstance(payload, dict) else ""
        return f"exit {rc}: {detail}"
    if kind in ("charnum-cpn", "charnum-product", "charnum-bott"):
        return check_quasitoric(req, payload)
    if kind in ("charnum-hirzebruch", "charnum-delzant3"):
        return check_polytope(req, payload)
    if kind == "toric-delzant":
        return check_delzant(req, payload)
    if kind == "toric-validate":
        return None if payload["valid"] else f"valid = false: {payload['issues']}"
    if kind == "crn-trees":
        return check_trees(req, payload)
    if kind == "crn-analyze":
        return check_analyze(req, payload)
    if kind == "crn-ideal":
        return check_ideal(req, payload)
    if kind == "crn-simulate":
        return check_simulate(req, payload)
    if kind.startswith("hopf-"):
        return check_hopf(req, payload)
    if kind.startswith("freeprob-"):
        return check_freeprob(req, payload)
    return check_sym(req, payload)
