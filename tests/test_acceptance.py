"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single
``[PASS]``/``[FAIL]`` line (straight to the terminal, bypassing capture)
before asserting.  Criterion 7 checks the structure of the free formal group
law through order 6: it is associative through total degree 4 only, and its
whole order-6 associativity defect must equal the one recomputed by
``fgl_oracle``, which shares no code with toricnet.
"""

import math
import random
from fractions import Fraction as F

from conftest import record_acceptance
from fgl_oracle import FreeLawOracle
from partition_oracle import moment_from_free_cumulants

from toricnet.crn import (
    analyze,
    birch_point,
    build_rate_matrix,
    parse_network,
    simulate,
    toric_binomials,
    tree_constants,
)
from toricnet.crn.trees import matrix_tree_cofactor
from toricnet.errors import DeficiencyNonzero, NonSmooth
from toricnet.exactcore import SparsePoly, TruncSeries, rank
from toricnet.freeprob import (
    free_cumulants_to_moments,
    hirzebruch_K,
    moments_to_free_cumulants,
    nc_cumulant_series,
)
from toricnet.hopfdiff import (
    ab_bfk_to_ln,
    bfk_antipode_gen,
    bfk_coassociativity_gap,
    bfk_convolution,
    bfk_counit,
    commutative_fgl,
    fgl_abelianized,
    fgl_associativity_defect,
    fgl_commutative_ok,
    fgl_over_N,
    fgl_unit_ok,
    ln_antipode_gen,
    ln_coassociativity_gap,
    ln_convolution,
    ln_counit,
)
from toricnet.ncsf import (
    NCF,
    QSF,
    compositions,
    nsf_coproduct,
    pairing,
    partitions,
    qsym_product,
    tensor_pairing,
)
from toricnet.render import render_ncf
from toricnet.torictop import (
    DelzantPolytope,
    QuasitoricData,
    SimplicialComplex,
    chern_numbers,
    cpn_data,
    crn_to_toric,
    delzant_to_quasitoric,
    hamiltonian_numbers,
    join_complexes,
    mxi_numbers,
    product_data,
    top_evaluate,
)

TRIANGLE = "A -> B : 1\nB -> C : 1\nC -> A : 1"
BRIDGE = "2A <-> A + B : k1, k2\nA + B <-> 2B : k3, k4"


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    record_acceptance(line)


def test_criterion_01_crn_goldens():
    problems = []
    bridge = parse_network(BRIDGE)
    info = analyze(bridge)
    if info.deficiency != 1:
        problems.append(f"bridge deficiency {info.deficiency}")
    if info.cayley != ((2, 1, 0), (0, 1, 2), (1, 1, 1)):
        problems.append(f"bridge cayley {info.cayley}")
    texts = [b.text for b in toric_binomials(bridge)]
    if texts != ["K1*K3 - K2^2"]:
        problems.append(f"bridge binomials {texts}")

    tri = parse_network(TRIANGLE)
    tinfo = analyze(tri)
    if tinfo.deficiency != 0:
        problems.append(f"triangle deficiency {tinfo.deficiency}")
    if toric_binomials(tri):
        problems.append("triangle binomial set not empty")
    st = birch_point(tri)
    if st.residual >= 1e-9 or max(abs(c - 1.0) for c in st.concentrations) >= 1e-9:
        problems.append(f"triangle Birch point {st.concentrations}")

    _report(1, not problems, "CRN golden corpus (bridge + triangle)" if not problems else "; ".join(problems))
    assert not problems


def _random_strong_digraph(rng: random.Random) -> str:
    n = rng.randint(2, 6)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    lines = [f"S{a} -> S{b} : e{i}" for i, (a, b) in enumerate(sorted(edges))]
    return "\n".join(lines)


def test_criterion_02_matrix_tree():
    rng = random.Random(7)
    problems = []
    for case in range(25):
        net = parse_network(_random_strong_digraph(rng))
        n = net.n_complexes
        a = build_rate_matrix(net, None)
        k = tree_constants(net)
        for root in range(n):
            for row in range(n):
                if matrix_tree_cofactor(a, root, row) != k[root]:
                    problems.append(f"case {case}: cofactor mismatch at ({root},{row})")
        for i in range(n):
            acc = SparsePoly.zero()
            for j in range(n):
                acc = acc + a[i][j] * k[j]
            if not acc.is_zero():
                problems.append(f"case {case}: A*K row {i} nonzero")
    _report(2, not problems,
            "symbolic tree constants == signed minors (all deletions), A*K = 0, 25 digraphs"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def _random_network(rng: random.Random) -> str:
    species = [chr(ord("A") + i) for i in range(rng.randint(2, 4))]
    complexes = set()
    while len(complexes) < rng.randint(4, 6):
        vec = tuple(rng.randint(0, 2) for _ in species)
        complexes.add(vec)
    complexes = sorted(complexes)

    def label(vec):
        parts = [f"{c}{s}" if c > 1 else s for s, c in zip(species, vec) if c]
        return " + ".join(parts) if parts else "0"

    edges = set()
    idx = list(range(len(complexes)))
    rng.shuffle(idx)
    # chain everything so each complex is used, then sprinkle extras
    for a, b in zip(idx, idx[1:]):
        edges.add((a, b))
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randrange(len(complexes)), rng.randrange(len(complexes))
        if a != b:
            edges.add((a, b))
    return "\n".join(
        f"{label(complexes[a])} -> {label(complexes[b])} : 1" for a, b in sorted(edges)
    )


def test_criterion_03_deficiency_double_formula():
    corpus = [
        TRIANGLE,
        BRIDGE,
        "A <-> 2A : 1, 1",
        "0 <-> 2A : 1, 1",
        "A -> B : 1",
        "A <-> B : 1, 1\nC <-> D : 1, 1",
        "A <-> B : 1, 1\nB <-> C : 1, 1\n2A <-> D : 1, 1",
        "E + S <-> C : 1, 1\nC -> E + P : 1",
        "2A <-> A + B : 1, 1\nA + B <-> 2B : 1, 1\nC <-> D : 1, 1",
        "A + B -> C : 1\nC -> A + B : 1\n2C -> D : 1\nD -> 2C : 1",
    ]
    rng = random.Random(17)
    while len(corpus) < 24:
        corpus.append(_random_network(rng))

    problems = []
    multi = 0
    for i, text in enumerate(corpus):
        net = parse_network(text)
        info = analyze(net)
        l = len(info.linkage_classes)
        if l > 1:
            multi += 1
        cay_rank = rank([[F(x) for x in row] for row in info.cayley])
        lhs = net.n_complexes - l - info.stoich_rank
        rhs = net.n_complexes - cay_rank
        if lhs != rhs or info.deficiency != lhs:
            problems.append(f"net {i}: n-l-s'={lhs} vs n-rank(Cayley)={rhs}")
    if multi < 3:
        problems.append(f"only {multi} multi-linkage cases")
    _report(3, not problems,
            f"n-l-s' == n-rank(Cayley) on {len(corpus)} networks ({multi} multi-linkage)"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def test_criterion_04_dynamics_reach_birch():
    rng = random.Random(11)
    tri_rates = "A -> B : {} \nB -> C : {}\nC -> A : {}"
    problems = []
    worst = 0.0
    for case in range(10):
        rates = [F(rng.randint(1, 40), rng.randint(1, 20)) for _ in range(3)]
        net = parse_network(tri_rates.format(*rates))
        st = birch_point(net)
        c0 = [rng.uniform(0.2, 2.0) for _ in range(3)]
        scale = sum(st.concentrations) / sum(c0)
        c0 = [x * scale for x in c0]  # same conservation class as the Birch point
        traj = simulate(net, None, c0, t_end=50.0, dt=0.02)
        total0, total1 = sum(c0), sum(traj.final)
        if abs(total1 - total0) / total0 >= 1e-8:
            problems.append(f"case {case}: mass drift {abs(total1 - total0) / total0:.2e}")
        err = max(abs(x - y) for x, y in zip(traj.final, st.concentrations))
        worst = max(worst, err)
        if err >= 1e-6:
            problems.append(f"case {case}: final state {err:.2e} from Birch point")
    _report(4, not problems,
            f"10 random triangles: mass conserved, worst Birch distance {worst:.1e}"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def test_criterion_05_hopf_suites():
    problems = []
    for n in range(1, 9):
        if not ln_coassociativity_gap(n).is_zero():
            problems.append(f"ln coassoc t{n}")
        gen = SparsePoly.variable(f"t{n}")
        if ln_counit(gen) != 0:
            problems.append(f"ln counit t{n}")
        for left in (True, False):
            if not ln_convolution(gen, left).is_zero():
                problems.append(f"ln antipode ({'left' if left else 'right'}) t{n}")
        gap = bfk_coassociativity_gap(NCF.gen(n))
        if any(v.terms for v in gap.values()):
            problems.append(f"bfk coassoc Z{n}")
        if bfk_counit(NCF.gen(n)) != 0:
            problems.append(f"bfk counit Z{n}")
        for left in (True, False):
            if bfk_convolution(NCF.gen(n), left) != NCF.zero():
                problems.append(f"bfk antipode ({'left' if left else 'right'}) Z{n}")
    ok, witness = ab_bfk_to_ln(8)
    if not ok:
        problems.append(f"abelianization mismatch: {witness}")
    if ln_antipode_gen(2).render() != "-t2 + 2*t1^2":
        problems.append("chi(t2) spot value")
    if render_ncf(bfk_antipode_gen(2)) != "-Z[2] + 2·Z[1,1]":
        problems.append("chi_N(Z2) spot value")
    _report(5, not problems,
            "LN+BFK axioms to weight 8, abelianization bridge, antipode spot values"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def test_criterion_06_duality():
    problems = []
    for n in range(1, 8):
        comps = compositions(n)
        for alpha in comps:
            x = NCF.word(alpha)
            for beta in comps:
                got = pairing(x, QSF.monomial(beta))
                if got != (1 if alpha == beta else 0):
                    problems.append(f"pairing ({alpha},{beta}) = {got}")
    checked = 0
    for w in range(0, 7):
        for alpha in compositions(w):
            t = nsf_coproduct(NCF.word(alpha))
            x = NCF.word(alpha)
            for w1 in range(0, w + 1):
                for q1 in compositions(w1):
                    m1 = QSF.monomial(q1)
                    for q2 in compositions(w - w1):
                        m2 = QSF.monomial(q2)
                        lhs = tensor_pairing(t, m1, m2)
                        rhs = pairing(x, qsym_product(m1, m2))
                        checked += 1
                        if lhs != rhs:
                            problems.append(f"adjunction ({alpha},{q1},{q2})")
    _report(6, not problems,
            f"pairing matrix = identity (n<=7), adjunction on {checked} weight<=6 triples"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def _associativity_gap(f: TruncSeries) -> TruncSeries:
    """F(F(x,y),z) - F(x,F(y,z)) by TruncSeries.compose_many."""
    x, y, z = (TruncSeries.var(f.ring, f.order, index=i, nvars=3) for i in range(3))
    return f.compose_many([f.compose_many([x, y]), z]) - f.compose_many([x, f.compose_many([y, z])])


def test_criterion_07_fgl():
    # The law is associative only through total degree 4: F(F(x,y),z) and
    # F(x,F(y,z)) differ from degree 5 on by commutators of the Z_i. The
    # criterion pins that structure and checks the whole order-6 defect
    # against an oracle that shares no code with toricnet.
    assert fgl_unit_ok(6)
    assert fgl_commutative_ok(6)
    assert render_ncf(fgl_over_N(4).coeff(1, 1)) == "2·Z[1]"
    assert fgl_abelianized(6) == commutative_fgl(6)
    assert fgl_associativity_defect(4) is None

    problems = []
    ab_gap = _associativity_gap(commutative_fgl(6))
    if ab_gap.coeffs:
        problems.append(f"abelianized law not associative at {min(ab_gap.coeffs)}")
    gap = {e: dict(c.terms) for e, c in _associativity_gap(fgl_over_N(6)).coeffs.items()}
    want = FreeLawOracle(6).associativity_defect()
    if gap != want:
        differ = sorted(e for e in gap.keys() | want.keys() if gap.get(e) != want.get(e))
        problems.append(f"defect differs from the oracle at {differ[:3]}")
    mono, first = fgl_associativity_defect(6)
    if mono != (1, 1, 3) or render_ncf(first) != "2·Z[1,1,2] - 2·Z[1,2,1]":
        problems.append(f"first defect {render_ncf(first)} at {mono}")
    _report(
        7,
        not problems,
        "FGL unit, commutativity, xy = 2·Z[1]; abelianized law associative to order 6; "
        f"free law associative to order 4, its order-6 defect equals the oracle's in all "
        f"{len(want)} coefficients, first 2·Z[1,1,2] - 2·Z[1,2,1] at x·y·z^3"
        if not problems else "; ".join(problems),
    )
    assert not problems


def test_criterion_08_free_probability():
    problems = []
    rng = random.Random(13)
    for case in range(50):
        kappa = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
        m = free_cumulants_to_moments(kappa)
        for n in range(1, 9):
            if m[n] != moment_from_free_cumulants(kappa, n):
                problems.append(f"case {case}: oracle moment m_{n}")
        if moments_to_free_cumulants(m) != kappa:
            problems.append(f"case {case}: inverse transform")
    if moments_to_free_cumulants([1, 0, 1, 0, 2, 0, 5]) != [0, 1, 0, 0, 0, 0]:
        problems.append("semicircle spot value")
    if moments_to_free_cumulants([1, 1, 2, 5, 14]) != [1, 1, 1, 1]:
        problems.append("free Poisson spot value")
    if moments_to_free_cumulants([1, 1, 1, 1, 1]) != [1, 0, 0, 0]:
        problems.append("point mass spot value")
    todd = hirzebruch_K([F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)], 4)
    if todd != [F(1), F(1, 2), F(1, 12), F(0), F(-1, 720)]:
        problems.append(f"Todd K-series {todd}")
    lg = hirzebruch_K([F(1), F(0), F(1, 3), F(0), F(1, 5)], 4)
    if lg != [F(1), F(0), F(1, 3), F(0), F(-1, 45)]:
        problems.append(f"L-genus K-series {lg}")
    nc = nc_cumulant_series(6)
    for case in range(4):
        m = [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        kappa = moments_to_free_cumulants(m)
        for n in range(1, 7):
            total = F(0)
            for w, c in nc.normalized.coeff(n).terms.items():
                prod = F(1)
                for i in w:
                    prod *= m[i]
                total += c * prod
            if total != kappa[n - 1]:
                problems.append(f"nc-series abelianization at order {n}")
    _report(8, not problems,
            "50 oracle roundtrips (n<=8), spot values, Todd/L K-series, nc series abelianizes"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def test_criterion_09_characteristic_numbers():
    problems = []
    cp2 = cpn_data(2)
    if chern_numbers(cp2, (1, 1)) != 9 or chern_numbers(cp2, (2,)) != 3:
        problems.append("CP2 Chern numbers")
    if dict(mxi_numbers(cp2).table) != {(1, 1): F(3), (2,): F(3)}:
        problems.append("CP2 mxi class")
    for n in range(1, 5):
        for alpha, val in mxi_numbers(cpn_data(n)).table:
            if val != math.comb(n + 1, len(alpha)):
                problems.append(f"CP{n} coefficient at {alpha}")
    cp1 = cpn_data(1)
    prod = product_data(cp1, cp1)
    if prod.complex.facets != join_complexes(cp1.complex, cp1.complex).facets:
        problems.append("product complex is not the join")
    if dict(mxi_numbers(prod).table) != {(1, 1): F(4), (2,): F(0)}:
        problems.append("CP1 x CP1 mxi class")
    if chern_numbers(prod, (2,)) != 4 or chern_numbers(prod, (1, 1)) != 8:
        problems.append("CP1 x CP1 Chern numbers")

    # well-definedness: the linear relations evaluate to zero no matter what
    # degree-(n-1) monomial multiplies them
    square = SimplicialComplex(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    hirz = QuasitoricData(square, ((1, 0, -1, 0), (0, 1, 2, -1)))
    for q in (cp2, cpn_data(3), prod, hirz):
        for row in q.lam:
            for mult in range(q.m):
                total = F(0)
                for i, c in enumerate(row):
                    if c == 0:
                        continue
                    mono = [0] * q.m
                    mono[i] += 1
                    mono[mult] += q.n - 1
                    total += F(c) * top_evaluate(q, tuple(mono))
                if total != 0:
                    problems.append(f"relation row x v_{mult + 1} nonzero")

    # Delzant: interval [0,5] and triangle with leg 4; top entry of the
    # moment table is n! * volume (= a and a^2 here)
    qi, ui = delzant_to_quasitoric(DelzantPolytope(((1,), (-1,)), (F(0), F(-5))))
    if hamiltonian_numbers(qi, ui).table[0] != ((), F(5)):
        problems.append("interval u-power")
    qt, ut = delzant_to_quasitoric(
        DelzantPolytope(((1, 0), (0, 1), (-1, -1)), (F(0), F(0), F(-4)))
    )
    if hamiltonian_numbers(qt, ut).table[0] != ((), F(16)):
        problems.append("triangle u-power")
    if math.factorial(1) * F(5) != F(5) or math.factorial(2) * F(16, 2) != F(16):
        problems.append("n! volume identity")
    _report(9, not problems,
            "CP^n tables, product multiplicativity, well-definedness, Delzant u-powers"
            if not problems else "; ".join(problems[:3]))
    assert not problems


def test_criterion_10_crn_toric_bridge():
    problems = []
    q, mx = crn_to_toric(parse_network(TRIANGLE))
    cp2 = cpn_data(2)
    if q.complex.facets != cp2.complex.facets or q.lam != cp2.lam:
        problems.append("triangle network does not give CP2")
    if dict(mx.table) != {(1, 1): F(3), (2,): F(3)}:
        problems.append("triangle mxi class")
    q1, mx1 = crn_to_toric(parse_network("A <-> 2A : 1, 1"))
    if q1.complex.facets != cpn_data(1).complex.facets or dict(mx1.table) != {(1,): F(2)}:
        problems.append("A<->2A does not give CP1")
    try:
        crn_to_toric(parse_network(BRIDGE))
        problems.append("bridge not refused")
    except DeficiencyNonzero as exc:
        if exc.deficiency != 1:
            problems.append(f"bridge refusal deficiency {exc.deficiency}")
    try:
        crn_to_toric(parse_network("0 <-> 2A : 1, 1"))
        problems.append("0<->2A not refused")
    except NonSmooth as exc:
        if exc.divisors != [2]:
            problems.append(f"0<->2A divisors {exc.divisors}")
    _report(10, not problems,
            "triangle -> CP2, A<->2A -> CP1, DeficiencyNonzero and NonSmooth refusals"
            if not problems else "; ".join(problems[:3]))
    assert not problems
