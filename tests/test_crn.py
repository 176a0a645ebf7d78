import math
import random
from fractions import Fraction

import pytest

from toricnet.crn import (
    Network,
    analyze,
    birch_point,
    build_rate_matrix,
    cayley_matrix,
    conservation_laws,
    deficiency,
    is_weakly_reversible,
    linkage_classes,
    parse_network,
    simulate,
    stoichiometric_matrix,
    strong_components,
    toric_binomials,
    tree_constant_texts,
    tree_constants,
)
from toricnet.crn.parser import Reaction
from toricnet.crn.trees import matrix_tree_cofactor
from toricnet.errors import (
    InputError,
    NotComplexBalanced,
    NotWeaklyReversible,
    ParseError,
)
from toricnet.exactcore import SparsePoly
from toricnet.render import value_str

TRIANGLE = "A -> B : 1\nB -> C : 1\nC -> A : 1"
BRIDGE = "2A <-> A + B : k1, k2\nA + B <-> 2B : k3, k4"


class TestParser:
    def test_species_first_appearance_order(self):
        net = parse_network("2A -> A+B : k1")
        assert net.species == ("A", "B")
        assert net.n_complexes == 2
        assert len(net.reactions) == 1
        assert net.reactions[0].rate == "k1"

    def test_reversible_sugar(self):
        net = parse_network("A <-> B : 1, 2")
        assert len(net.reactions) == 2
        assert net.reactions[0].rate == Fraction(1)
        assert net.reactions[1].rate == Fraction(2)
        assert net.reactions[0].source == net.reactions[1].target

    def test_comments_and_blank_lines(self):
        net = parse_network("# header\n\nA -> B : 1  # inline\n")
        assert net.n_complexes == 2

    def test_empty_complex(self):
        net = parse_network("0 -> A : 1")
        assert net.complexes[0] == (0,)

    def test_inline_binding(self):
        net = parse_network("A -> B : k1 = 3/2")
        assert net.bindings == {"k1": Fraction(3, 2)}

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_network("A -> A : 1")

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_network("0A -> B : 1")

    def test_conflicting_inline_binding(self):
        with pytest.raises(ParseError):
            parse_network("A -> B : k = 1\nB -> A : k = 2")

    def test_no_reactions(self):
        with pytest.raises(ParseError):
            parse_network("# nothing here")

    def test_nonpositive_rate(self):
        with pytest.raises(ParseError):
            parse_network("A -> B : 0")

    def test_complex_label(self):
        net = parse_network("2A + B -> C : 1")
        assert net.complex_label(0) == "2A + B"


class TestStructure:
    def test_triangle_analysis(self):
        net = parse_network(TRIANGLE)
        info = analyze(net)
        assert len(info.linkage_classes) == 1
        assert info.weakly_reversible
        assert info.stoich_rank == 2
        assert info.deficiency == 0

    def test_bridge_analysis(self):
        net = parse_network(BRIDGE)
        info = analyze(net)
        assert info.deficiency == 1
        assert info.cayley == ((2, 1, 0), (0, 1, 2), (1, 1, 1))

    def test_analysis_computes_each_piece_once(self, monkeypatch):
        from toricnet.crn import network

        calls = []
        for name in ("linkage_classes", "strong_components", "stoichiometric_rank", "rank"):
            original = getattr(network, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(network, name, counted)
        analyze(parse_network(BRIDGE))
        # rank: once for s', once for rank(Cayley)
        assert sorted(calls) == [
            "linkage_classes", "rank", "rank", "stoichiometric_rank", "strong_components"
        ]

    def test_not_weakly_reversible(self):
        net = parse_network("A -> B : 1")
        assert not is_weakly_reversible(net)
        assert deficiency(net) == 0

    def test_multi_class(self):
        net = parse_network("A <-> B : 1, 1\nC <-> D : 1, 1")
        assert len(linkage_classes(net)) == 2
        assert len(strong_components(net)) == 2
        assert deficiency(net) == 0

    def test_rate_matrix_columns_sum_zero(self):
        net = parse_network(TRIANGLE)
        a = build_rate_matrix(net, None)
        n = net.n_complexes
        for j in range(n):
            assert sum(a[i][j] for i in range(n)) == 0

    def test_rate_matrix_symbolic(self):
        net = parse_network(BRIDGE)
        a = build_rate_matrix(net, None)
        assert isinstance(a[1][0], SparsePoly)
        assert a[1][0] == SparsePoly.variable("k1")

    def test_rate_matrix_binding_override(self):
        net = parse_network("A -> B : k1 = 2")
        a = build_rate_matrix(net, {"k1": Fraction(5)})
        assert a[1][0] == Fraction(5)

    def test_unbound_symbol(self):
        net = parse_network("A -> B : k9")
        with pytest.raises(InputError):
            build_rate_matrix(net, {})

    def test_cayley_shape(self):
        net = parse_network("A <-> B : 1, 1\nC <-> D : 1, 1")
        cay = cayley_matrix(net)
        # 4 species rows + 2 class indicator rows
        assert len(cay) == 6
        assert list(cay[4]) == [1, 1, 0, 0]
        assert list(cay[5]) == [0, 0, 1, 1]

    def test_components_match_networkx_on_random_digraphs(self):
        # networkx finds the components independently; the digraphs have up
        # to 12 nodes, isolated nodes, parallel arcs and 2-cycles
        import random

        import networkx as nx

        def canonical(components):
            return sorted(sorted(c) for c in components)

        rng = random.Random(20191)
        for _ in range(240):
            n = rng.randint(1, 12)
            density = rng.choice((0.05, 0.15, 0.3, 0.6))
            arcs = [(s, t) for s in range(n) for t in range(n) if s != t and rng.random() < density]
            arcs += [(t, s) for s, t in rng.sample(arcs, len(arcs) // 4)]
            arcs += rng.sample(arcs, len(arcs) // 5)
            rng.shuffle(arcs)
            net = Network(
                species=tuple(f"X{i}" for i in range(n)),
                complexes=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                reactions=tuple(Reaction(s, t, Fraction(1)) for s, t in arcs),
            )
            graph = nx.MultiDiGraph(arcs)
            graph.add_nodes_from(range(n))
            assert strong_components(net) == canonical(nx.strongly_connected_components(graph))
            assert linkage_classes(net) == canonical(nx.weakly_connected_components(graph))


class TestTrees:
    def test_triangle_symbolic(self):
        net = parse_network("A -> B : k1\nB -> C : k2\nC -> A : k3")
        k = tree_constants(net)
        k1, k2, k3 = (SparsePoly.variable(f"k{i}") for i in (1, 2, 3))
        assert k == [k2 * k3, k1 * k3, k1 * k2]

    def test_triangle_numeric(self):
        net = parse_network("A -> B : 2\nB -> C : 3\nC -> A : 5")
        assert tree_constants(net) == [15, 10, 6]
        # integral cofactors of the Fraction rate matrix come back as ints
        assert {type(k) for k in tree_constants(net)} == {int}

    def test_cofactor_row_choice_immaterial(self):
        net = parse_network("A -> B : k1\nB -> C : k2\nC -> A : k3")
        a = build_rate_matrix(net, None)
        k = tree_constants(net)
        for root in range(3):
            for row in range(3):
                assert matrix_tree_cofactor(a, root, row) == k[root]

    def test_kernel_identity(self):
        net = parse_network("A -> B : k1\nB -> C : k2\nC -> A : k3")
        a = build_rate_matrix(net, None)
        k = tree_constants(net)
        for i in range(3):
            acc = SparsePoly.zero()
            for j in range(3):
                acc = acc + a[i][j] * k[j]
            assert acc.is_zero()

    def test_not_weakly_reversible_refused(self):
        net = parse_network("A -> B : 1")
        with pytest.raises(NotWeaklyReversible):
            tree_constants(net)

    def test_class_above_enumeration_cap_matches_networkx(self):
        # nine complexes: tree constants come from determinant minors, and
        # networkx enumerates the in-trees independently
        import networkx as nx
        from networkx.algorithms.tree.branchings import ArborescenceIterator

        from toricnet.crn.trees import ENUMERATION_CAP

        names = "ABCDEFGHI"
        edges = {}
        for i in range(9):
            edges[(i, (i + 1) % 9)] = Fraction(i + 1, 2)
            edges[((i + 1) % 9, i)] = Fraction(3, i + 2)
        edges[(0, 5)] = Fraction(7, 3)
        net = parse_network(
            "\n".join(f"{names[s]} -> {names[t]} : {w}" for (s, t), w in edges.items())
        )
        assert [net.complex_label(i) for i in range(9)] == list(names)
        assert linkage_classes(net) == [list(range(9))]
        assert len(names) > ENUMERATION_CAP

        # an in-tree of G converging to i is an arborescence of reversed G rooted at i
        reversed_graph = nx.DiGraph()
        for (s, t), w in edges.items():
            reversed_graph.add_edge(t, s, rate=w)
        expected = [Fraction(0)] * 9
        for arb in ArborescenceIterator(reversed_graph):
            root = next(v for v in arb if arb.in_degree(v) == 0)
            product = Fraction(1)
            for u, v in arb.edges:
                product *= reversed_graph[u][v]["rate"]
            expected[root] += product
        assert tree_constants(net) == expected


    def test_enumerated_class_matches_networkx(self):
        # seven complexes with numeric rates: tree constants come from
        # cofactors, and networkx enumerates the in-trees independently
        import networkx as nx
        from networkx.algorithms.tree.branchings import ArborescenceIterator

        from toricnet.crn.trees import ENUMERATION_CAP

        names = "ABCDEFG"
        edges = {}
        for i in range(7):
            edges[(i, (i + 1) % 7)] = Fraction(2 * i + 1, 3)
            edges[((i + 1) % 7, i)] = Fraction(5, i + 4)
        edges[(0, 3)] = Fraction(7, 2)
        edges[(5, 2)] = Fraction(1, 9)
        edges[(6, 4)] = Fraction(11, 5)
        net = parse_network(
            "\n".join(f"{names[s]} -> {names[t]} : {w}" for (s, t), w in edges.items())
        )
        assert [net.complex_label(i) for i in range(7)] == list(names)
        assert linkage_classes(net) == [list(range(7))]
        assert len(names) <= ENUMERATION_CAP

        reversed_graph = nx.DiGraph()
        for (s, t), w in edges.items():
            reversed_graph.add_edge(t, s, rate=w)
        expected = [Fraction(0)] * 7
        for arb in ArborescenceIterator(reversed_graph):
            root = next(v for v in arb if arb.in_degree(v) == 0)
            product = Fraction(1)
            for u, v in arb.edges:
                product *= reversed_graph[u][v]["rate"]
            expected[root] += product
        assert tree_constants(net) == expected


    def test_symbolic_enumeration_matches_networkx(self):
        # the same seven complexes with symbolic rates: tree constants come
        # from arborescence enumeration; substituting the rates must give
        # networkx's in-tree sums. A -> D runs twice (k0_3a + k0_3b), so one
        # edge weight has two terms.
        import networkx as nx
        from networkx.algorithms.tree.branchings import ArborescenceIterator

        from toricnet.crn.trees import ENUMERATION_CAP

        names = "ABCDEFG"
        edges = {}
        for i in range(7):
            edges[(i, (i + 1) % 7)] = Fraction(2 * i + 1, 3)
            edges[((i + 1) % 7, i)] = Fraction(5, i + 4)
        edges[(0, 3)] = Fraction(7, 2)
        edges[(5, 2)] = Fraction(1, 9)
        edges[(6, 4)] = Fraction(11, 5)
        rates = {f"k{s}_{t}": w for (s, t), w in edges.items() if (s, t) != (0, 3)}
        rates["k0_3a"] = Fraction(3, 2)
        rates["k0_3b"] = Fraction(2)
        lines = [f"{names[s]} -> {names[t]} : k{s}_{t}" for (s, t) in edges if (s, t) != (0, 3)]
        lines += ["A -> D : k0_3a", "A -> D : k0_3b"]
        net = parse_network("\n".join(lines))
        assert [net.complex_label(i) for i in range(7)] == list(names)
        assert len(names) <= ENUMERATION_CAP

        symbolic = tree_constants(net)
        assert all(isinstance(k, SparsePoly) for k in symbolic)
        assert max(len(k.terms) for k in symbolic) > 1

        reversed_graph = nx.DiGraph()
        for (s, t), w in edges.items():
            reversed_graph.add_edge(t, s, rate=w)
        expected = [Fraction(0)] * 7
        for arb in ArborescenceIterator(reversed_graph):
            root = next(v for v in arb if arb.in_degree(v) == 0)
            product = Fraction(1)
            for u, v in arb.edges:
                product *= reversed_graph[u][v]["rate"]
            expected[root] += product
        assert [k.substitute(rates).constant_value() for k in symbolic] == expected
        assert tree_constants(net, rates) == expected

    def test_each_symbolic_class_is_packed_once(self, monkeypatch):
        """tree_constants packs each symbolic linkage class once, not once
        per root; class_trees on numeric rates (birch_point's call) packs
        nothing and still gives the principal cofactors."""
        from toricnet.crn import trees

        packed = []
        original = trees._pack

        def counted(block):
            packed.append(len(block))
            return original(block)

        monkeypatch.setattr(trees, "_pack", counted)
        net = parse_network("A <-> B : k1, k2\nB <-> C : k3, k4\nC -> A : k5\nD <-> E : k6, 2")
        k = tree_constants(net)
        assert packed == [3, 2]
        assert k[3:] == [SparsePoly.const(2), SparsePoly.variable("k6")]

        packed.clear()
        rates = {"k1": 2, "k2": 3, "k3": Fraction(1, 2), "k4": 5, "k5": 7, "k6": 11}
        a = build_rate_matrix(net, rates)
        classes = linkage_classes(net)
        numeric = trees.class_trees(a, classes, symbolic=False)
        assert packed == []
        blocks = [[[a[t][s] for s in cls] for t in cls] for cls in classes]
        assert numeric == [matrix_tree_cofactor(b, i, i) for b in blocks for i in range(len(b))]
        assert numeric == [k.substitute(rates).constant_value() for k in tree_constants(net)]

    # Packed exponent keys: every case is checked against networkx after
    # substituting the rates, against the cofactor of the substituted rate
    # matrix, and (up to seven complexes) against the polynomial cofactor.

    def test_one_name_on_many_edges_reaches_its_full_power(self):
        # eight complexes, the cycle all on one name k: the in-tree along the
        # cycle into A is k^7, and every field must hold that without a carry
        from toricnet.crn.trees import ENUMERATION_CAP

        names = "ABCDEFGH"
        assert len(names) == ENUMERATION_CAP
        lines = [f"{names[i]} -> {names[(i + 1) % 8]} : k" for i in range(8)]
        lines += [f"{names[(i + 1) % 8]} -> {names[i]} : r{i}" for i in range(8)]
        lines += ["A -> E : k", "C -> G : r0"]
        rates = {"k": Fraction(3, 2), **{f"r{i}": Fraction(i + 2, 3) for i in range(8)}}
        symbolic = _check_packed_trees("\n".join(lines), rates)
        assert symbolic[0].coefficient({"k": 7}) == 1
        assert max(m[0][1] for k in symbolic for m in k.terms if m[0][0] == "k") == 7

    def test_names_out_of_numeric_order(self):
        # k10 sorts before k2, so it takes the more significant field
        text = "A -> B : k2\nB -> A : k10\nB -> C : k1\nC -> A : k2\nC -> B : k10\nA -> C : k3"
        symbolic = _check_packed_trees(text, {"k1": 5, "k2": Fraction(1, 3), "k3": 7, "k10": 2})
        assert symbolic[0].vars == ("k1", "k10", "k2")

    def test_numeric_rates_mixed_with_symbolic(self):
        # numeric edges carry coefficients, and a tree of numeric edges only
        # lands on the constant monomial ()
        text = "A -> B : 2\nB -> C : 3/2\nC -> A : k1\nB -> A : k2\nC -> D : 5\nD -> C : 7\nD -> B : k1"
        symbolic = _check_packed_trees(text, {"k1": 3, "k2": Fraction(2, 5)})
        assert {c for k in symbolic for c in k.terms.values()} - {1}
        assert () in symbolic[3].terms

    def test_parallel_reactions_sum_their_weights(self):
        text = "A -> B : k1\nA -> B : k2\nB -> C : k3\nC -> A : k4\nC -> A : k1\nB -> A : 2"
        symbolic = _check_packed_trees(text, {"k1": 2, "k2": 3, "k3": 5, "k4": Fraction(1, 7)})
        assert len(symbolic[1].terms) > 1

    def test_high_exponents_need_wide_fields(self):
        # a hand-built class block whose edge terms carry powers: x reaches
        # x^9 in one tree, which a field sized for x^3 alone would carry out of
        from toricnet.crn.trees import class_trees

        x, y = SparsePoly.variable("x"), SparsePoly.variable("y")
        weights = {(0, 1): x**3, (1, 2): x**3 + 2 * y, (2, 3): x**3 * y, (3, 0): y**2,
                   (1, 0): x * y**4, (2, 0): 3 * x**2, (3, 1): x + 1}
        a = [[SparsePoly.zero()] * 4 for _ in range(4)]
        for (s, t), w in weights.items():
            a[t][s] = w
            a[s][s] = a[s][s] - w
        got = class_trees(a, [[0, 1, 2, 3]], symbolic=True)
        assert got == [matrix_tree_cofactor(a, root, root) for root in range(4)]
        assert got[3].coefficient({"x": 9}) == 0 and got[3].coefficient({"x": 9, "y": 1}) == 1
        for k in got:
            _assert_rendered_in_order(k)


def _assert_rendered_in_order(poly):
    """The terms come out of tree_constants in render order, and render
    matches a sort by total degree and then by the dense exponent vector."""
    names = sorted({name for m in poly.terms for name, _ in m})

    def order(m):
        powers = dict(m)
        return (sum(powers.values()), [powers.get(name, 0) for name in names])

    monomials = sorted(poly.terms, key=order)
    assert list(poly.terms) == monomials
    parts = []
    for m in monomials:
        c = poly.terms[m]
        body = "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in m)
        parts.append(str(c) if not body else body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}")
    assert poly.render() == " + ".join(parts).replace("+ -", "- ")


def _check_packed_trees(text: str, rates: dict) -> list:
    """Symbolic tree constants of one strongly connected class, checked
    against networkx's arborescences and the cofactors after substituting
    ``rates``, and up to seven complexes against the polynomial cofactor."""
    import networkx as nx
    from networkx.algorithms.tree.branchings import ArborescenceIterator

    net = parse_network(text)
    n = net.n_complexes
    assert linkage_classes(net) == [list(range(n))]
    symbolic = tree_constants(net)
    for k in symbolic:
        _assert_rendered_in_order(k)

    # an in-tree of G converging to i is an arborescence of reversed G rooted
    # at i; parallel reactions add their rates on one edge
    reversed_graph = nx.DiGraph()
    for r in net.reactions:
        w = rates[r.rate] if isinstance(r.rate, str) else r.rate
        if reversed_graph.has_edge(r.target, r.source):
            reversed_graph[r.target][r.source]["rate"] += w
        else:
            reversed_graph.add_edge(r.target, r.source, rate=Fraction(w))
    expected = [Fraction(0)] * n
    for arb in ArborescenceIterator(reversed_graph):
        root = next(v for v in arb if arb.in_degree(v) == 0)
        product = Fraction(1)
        for u, v in arb.edges:
            product *= reversed_graph[u][v]["rate"]
        expected[root] += product
    assert [k.substitute(rates).constant_value() for k in symbolic] == expected
    numeric = build_rate_matrix(net, rates)
    assert [matrix_tree_cofactor(numeric, i, i) for i in range(n)] == expected
    if n <= 7:
        a = build_rate_matrix(net, None)
        assert symbolic == [matrix_tree_cofactor(a, i, (i + 1) % n) for i in range(n)]
    return symbolic


def _random_trees_network(rng: random.Random, i: int):
    """(network, bindings) for the text oracle, the i-th of a seeded series.

    Rates cycle through symbolic, integer, fractional and mixed; a symbolic
    network is sometimes given numeric bindings for every name. Names come
    from a small pool, so one name labels several edges and reaches powers
    above 1. A class is a directed cycle plus chords, and some edges run
    twice with a second rate (parallel reactions). Every 25th network is one
    class of 7 complexes and 19 reactions, the size of the heaviest
    benchmark requests; the others have one to three classes of two to five
    complexes, and some gain a complex with no reactions, a one-complex
    class."""
    mode = ("symbolic", "integer", "fraction", "mixed")[i % 4]
    pool = ["k1", "k2", "k3", "k4", "k10", "a", "b_2"]

    def rate():
        if mode == "symbolic" or (mode == "mixed" and rng.random() < 0.6):
            return rng.choice(pool)
        if mode == "integer" or rng.random() < 0.3:
            return str(rng.randint(1, 9))
        return f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"

    sizes = [7] if i % 25 == 24 else [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
    lines, base = [], 0
    for size in sizes:
        nodes = list(range(base, base + size))
        rng.shuffle(nodes)
        edges = [(nodes[j - 1], nodes[j]) for j in range(size)]
        if size == 7:
            others = [(s, t) for s in nodes for t in nodes if s != t and (s, t) not in edges]
            edges += rng.sample(others, 12)
            names = [f"k{j + 1}" for j in range(19)]
            rng.shuffle(names)
            lines += [f"S{s} -> S{t} : {name}" for (s, t), name in zip(edges, names)]
        else:
            for _ in range(rng.randint(0, size)):
                edges.append(tuple(rng.sample(nodes, 2)))
            edges += rng.sample(edges, rng.randint(0, 2))
            lines += [f"S{s} -> S{t} : {rate()}" for s, t in edges]
        base += size
    net = parse_network("\n".join(lines))
    if rng.random() < 0.2:
        lone = (0,) * net.n_species + (1,)
        net = Network(
            net.species + ("Z",),
            tuple(y + (0,) for y in net.complexes) + (lone,),
            net.reactions,
            net.bindings,
        )
    names = {r.rate for r in net.reactions if isinstance(r.rate, str)}
    bindings = None
    if names and rng.random() < 0.25:
        bindings = {name: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for name in sorted(names)}
    return net, bindings


def _raised(f, *args):
    """The type and message of what ``f(*args)`` raises."""
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


class TestTreeConstantTexts:
    """``tree_constant_texts``, which ``crn trees`` prints, writes symbolic
    tree constants from their packed keys; the oracle is ``value_str`` of
    ``tree_constants``, which decodes the keys into ``SparsePoly`` and
    renders them through ``SparsePoly.render``'s sort."""

    def test_texts_match_rendered_tree_constants(self):
        rng = random.Random(2026)
        seen = dict.fromkeys(["symbolic", "numeric", "power", "fraction", "parallel",
                              "several classes", "one complex", "seven"], 0)
        for i in range(520):
            net, bindings = _random_trees_network(rng, i)
            expected = [value_str(k) for k in tree_constants(net, bindings)]
            assert tree_constant_texts(net, bindings) == expected, (i, net, bindings)
            classes = linkage_classes(net)
            symbolic = bindings is None and any(isinstance(r.rate, str) for r in net.reactions)
            seen["symbolic" if symbolic else "numeric"] += 1
            seen["power"] += symbolic and any("^" in k for k in expected)
            seen["fraction"] += symbolic and any("/" in k for k in expected)
            arcs = [(r.source, r.target) for r in net.reactions]
            seen["parallel"] += len(set(arcs)) < len(arcs)
            seen["several classes"] += len(classes) > 1
            seen["one complex"] += min(map(len, classes)) == 1
            seen["seven"] += symbolic and len(classes[0]) == 7 and len(arcs) == 19
        assert min(seen.values()) >= 10, seen

    def test_class_texts_match_render_on_signed_blocks(self):
        # hand-built blocks reach what networks cannot: negative and
        # cancelling coefficients, constant edge terms, powers on one edge
        from toricnet.crn.trees import _class_in_tree_texts, _class_in_trees

        rng = random.Random(7)
        names = ["x", "y", "z10", "z2"]
        coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
        signs = 0
        for _ in range(300):
            nu = rng.randint(1, 4)
            block = [[SparsePoly.zero()] * nu for _ in range(nu)]
            for s in range(nu):
                for t in range(nu):
                    if s != t and rng.random() < 0.8:
                        block[t][s] = SparsePoly({
                            tuple(sorted((n, rng.randint(1, 3))
                                         for n in rng.sample(names, rng.randint(0, 2)))):
                            rng.choice(coeffs)
                            for _ in range(rng.randint(1, 2))
                        })
            texts = _class_in_tree_texts(block)
            assert texts == [k.render() for k in _class_in_trees(block)]
            signs += any(" - " in k for k in texts)
        assert signs >= 50

    def test_refusals_match(self):
        rng = random.Random(11)
        for i in range(60):
            net, bindings = _random_trees_network(rng, i)
            # a one-way exit from the first class breaks its strong connectivity
            broken = parse_network(
                "\n".join(
                    [f"S{r.source} -> S{r.target} : {r.rate}" for r in net.reactions]
                    + [f"S{net.reactions[0].source} -> Exit : {net.reactions[0].rate}"]
                )
            )
            raised = _raised(tree_constants, broken, bindings)
            assert raised[0] is NotWeaklyReversible
            assert _raised(tree_constant_texts, broken, bindings) == raised
        nine = "\n".join(f"S{j} -> S{(j + 1) % 9} : k{j}" for j in range(9))
        # the classes are checked in order, the strong connectivity of each
        # before its size
        cases = [
            (nine, InputError),
            (nine + "\nT1 -> T2 : 2", InputError),
            ("T1 -> T2 : k1\n" + nine, NotWeaklyReversible),
        ]
        for text, kind in cases:
            raised = _raised(tree_constants, parse_network(text), None)
            assert raised[0] is kind
            assert _raised(tree_constant_texts, parse_network(text), None) == raised
        # with every name bound the cap does not apply, and the texts are rationals
        net = parse_network(nine)
        bound = {f"k{j}": j + 1 for j in range(9)}
        assert tree_constant_texts(net, bound) == [value_str(k) for k in tree_constants(net, bound)]


def _random_weakly_reversible(rng: random.Random):
    """(reaction text, bindings, balanced): one to three linkage classes of
    two to four distinct complexes over two to four species, each class a
    directed cycle plus random chords. Seven in ten get rates balanced at a
    seeded point c*, rate_e = f_e / Psi_source(c*) for a positive
    circulation f; the rest get rates drawn one by one."""
    species = "ABCD"[: rng.randint(2, 4)]
    seen, classes = set(), []
    for _ in range(rng.randint(1, 3 if len(species) > 2 else 2)):
        cls, size = [], rng.randint(2, 4)
        while len(cls) < size:
            y = tuple(rng.randint(0, 2) for _ in species)
            if y not in seen:
                seen.add(y)
                cls.append(y)
        classes.append(cls)
    complexes = [y for cls in classes for y in cls]
    edges, base = [], 0
    for cls in classes:
        nodes = list(range(base, base + len(cls)))
        rng.shuffle(nodes)
        es = {(nodes[i - 1], nodes[i]) for i in range(len(nodes))}
        for _ in range(rng.randint(0, len(nodes))):
            es.add(tuple(rng.sample(nodes, 2)))
        edges += sorted(es)
        base += len(cls)
    balanced = rng.random() < 0.7
    if balanced:
        point = [rng.choice((Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2)) for _ in species]
        flow = dict.fromkeys(edges, 0)
        for s, t in edges:  # close each edge into a cycle by a shortest path t -> s
            prev, queue = {t: None}, [t]
            for v in queue:
                for a, b in edges:
                    if a == v and b not in prev:
                        prev[b] = v
                        queue.append(b)
            w, v = rng.randint(1, 3), s
            flow[(s, t)] += w
            while prev[v] is not None:
                flow[(prev[v], v)] += w
                v = prev[v]
        rates = [Fraction(flow[(s, t)]) / math.prod(x**e for x, e in zip(point, complexes[s]))
                 for s, t in edges]
    else:
        rates = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in edges]

    def label(y):
        return " + ".join(f"{e}{sp}" if e > 1 else sp for sp, e in zip(species, y) if e) or "0"

    text = "\n".join(
        f"{label(complexes[s])} -> {label(complexes[t])} : k{i + 1}" for i, (s, t) in enumerate(edges)
    )
    return text, {f"k{i + 1}": r for i, r in enumerate(rates)}, balanced


class TestToric:
    def test_bridge_binomials(self):
        net = parse_network(BRIDGE)
        bins = toric_binomials(net)
        assert [b.text for b in bins] == ["K1*K3 - K2^2"]

    def test_triangle_binomials_empty(self):
        assert toric_binomials(parse_network(TRIANGLE)) == []

    def test_birch_triangle_unit(self):
        st = birch_point(parse_network(TRIANGLE))
        assert st.residual < 1e-9
        assert max(abs(c - 1.0) for c in st.concentrations) < 1e-9
        assert st.normalization == "min-norm-log"

    def test_birch_balanced_bridge(self):
        # k2*k3 == k1*k4 makes the bridge complex balanced
        net = parse_network("2A <-> A + B : 2, 3\nA + B <-> 2B : 4, 6")
        st = birch_point(net)
        assert st.residual < 1e-9
        a, b = st.concentrations
        # tree constants (18, 12, 8): Birch point has b/a = K3/K2 = 2/3
        assert abs(b / a - 2 / 3) < 1e-9

    def test_birch_unbalanced_refused(self):
        net = parse_network("2A <-> A + B : 1, 1\nA + B <-> 2B : 1, 2")
        with pytest.raises(NotComplexBalanced):
            birch_point(net)

    def test_birch_decides_structure_once(self, monkeypatch):
        """One balanced birch_point: one graph pass each for the linkage
        classes and the strong components, and one rate matrix, so each
        reaction's rate is resolved once."""
        from toricnet.crn import network

        calls = {"_mutual_reach": 0, "resolve_rate": 0}
        for name in calls:
            original = getattr(network, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(network, name, counted)
        net = parse_network("A + B <-> C : k1, k2\nC <-> 2A : k3, k4\n2A <-> A + B : k5, k6")
        st = birch_point(net, {"k1": 2, "k2": 3, "k3": 5, "k4": 7, "k5": 11, "k6": 13})
        assert st.residual < 1e-9
        assert calls == {"_mutual_reach": 2, "resolve_rate": len(net.reactions)}

    # deficiency one, binomial K1*K3 - K2^2: (k2 k4) (k1 k3) == (k1 k4)^2, so
    # with k1 = k2 = k3 = 1 the rates balance exactly when k4 == 1
    DEFICIENCY_ONE = "0 <-> A : k1, k2\nA <-> 2A : k3, k4"

    def test_birch_exact_balancing_accepts_the_binomial(self):
        net = parse_network(self.DEFICIENCY_ONE)
        assert [b.text for b in toric_binomials(net)] == ["K1*K3 - K2^2"]
        st = birch_point(net, {"k1": 1, "k2": 1, "k3": 1, "k4": 1})
        assert st.concentrations == (1.0,)
        assert st.residual == 0.0

    @pytest.mark.parametrize(
        "k4, log_gap",
        [
            # a float least-squares residual of 5e-13 passes any usable tolerance
            (Fraction(1000000000001, 1000000000000), 1e-12),
            (Fraction(1000001, 1000000), 1e-6),
        ],
    )
    def test_birch_exact_balancing_refuses_off_the_binomial(self, k4, log_gap):
        net = parse_network(self.DEFICIENCY_ONE)
        with pytest.raises(NotComplexBalanced, match=r"K1\*K3 - K2\^2") as exc:
            birch_point(net, {"k1": 1, "k2": 1, "k3": 1, "k4": k4})
        # |log(K1 K3) - log(K2^2)| = log k4
        assert exc.value.residual == pytest.approx(log_gap, rel=1e-6)

    def test_birch_matches_lstsq_on_seeded_networks(self):
        """The exact-decision, integer-basis Birch point against numpy's
        least-squares solution over all complex pairs, the way it was
        computed with floats: the same refusals and the same point."""
        import numpy as np

        rng = random.Random(16)
        accepted, classes, laws = 0, set(), set()
        for _ in range(360):
            text, bindings, balanced = _random_weakly_reversible(rng)
            net = parse_network(text)
            trees = tree_constants(net, bindings)
            rows, rhs = [], []
            for cls in linkage_classes(net):
                for i, k in enumerate(cls):
                    for l in cls[i + 1 :]:
                        rows.append([a - b for a, b in zip(net.complexes[k], net.complexes[l])])
                        rhs.append(math.log(trees[k]) - math.log(trees[l]))
            m, b = np.array(rows, dtype=float), np.array(rhs, dtype=float)
            x = np.linalg.lstsq(m, b, rcond=None)[0]
            lstsq_residual = float(np.max(np.abs(m @ x - b)))
            try:
                st = birch_point(net, bindings)
            except NotComplexBalanced:
                assert not balanced, text
                assert lstsq_residual > 1e-6, text
                continue
            assert lstsq_residual < 1e-12, text
            accepted += 1
            classes.add(len(linkage_classes(net)))
            laws.add(len(conservation_laws(net)))
            for got, want in zip(st.concentrations, np.exp(x)):
                assert abs(got - want) <= 1e-12 * want, text
        assert accepted >= 300
        assert classes >= {1, 2, 3} and laws >= {0, 1, 2}


class TestSimulate:
    def test_exponential_decay(self):
        import math

        net = parse_network("A -> B : 1")
        traj = simulate(net, None, [1.0, 0.0], t_end=1.0, dt=0.001)
        assert abs(traj.final[0] - math.exp(-1.0)) < 1e-9
        assert abs(sum(traj.final) - 1.0) < 1e-12

    def test_triangle_converges_to_birch(self):
        net = parse_network(TRIANGLE)
        traj = simulate(net, None, [3.0, 0.0, 0.0], t_end=40.0, dt=0.01)
        assert max(abs(c - 1.0) for c in traj.final) < 1e-8

    def test_bit_identical_to_dense_rk4(self):
        """Every recorded state equals, float.hex for float.hex, a dense RK4
        over build_rate_matrix and psi_vector, on seeded networks with
        species missing from some complexes and with two linkage classes."""
        from toricnet.crn.toric import psi_vector

        def dense(net, bindings, c0, t_end, dt):
            a = [[float(e) for e in row] for row in build_rate_matrix(net, bindings)]
            y = [[float(vec[j]) for vec in net.complexes] for j in range(net.n_species)]

            def deriv(c):
                psi = psi_vector(net, c)
                flux = [sum(row[l] * psi[l] for l in range(len(psi))) for row in a]
                return [sum(row[k] * flux[k] for k in range(len(flux))) for row in y]

            c, t, times, states = list(c0), 0.0, [0.0], [tuple(c0)]
            while t < t_end - 1e-12:
                h = min(dt, t_end - t)
                k1 = deriv(c)
                k2 = deriv([ci + h / 2 * ki for ci, ki in zip(c, k1)])
                k3 = deriv([ci + h / 2 * ki for ci, ki in zip(c, k2)])
                k4 = deriv([ci + h * ki for ci, ki in zip(c, k3)])
                c = [ci + h / 6 * (p + 2 * q + 2 * r + s)
                     for ci, p, q, r, s in zip(c, k1, k2, k3, k4)]
                t += h
                times.append(t)
                states.append(tuple(c))
            return times, states

        rng = random.Random(21)
        runs, shapes = 0, set()
        while runs < 40:
            text, bindings, _ = _random_weakly_reversible(rng)
            net = parse_network(text)
            c0 = [rng.uniform(0.2, 2.0) for _ in net.species]
            try:
                traj = simulate(net, bindings, c0, t_end=0.3, dt=0.0125)
            except InputError:
                continue
            times, states = dense(net, bindings, c0, 0.3, 0.0125)
            assert list(traj.times) == times, text
            assert [list(map(float.hex, st)) for st in traj.states] == [
                list(map(float.hex, st)) for st in states
            ], text
            runs += 1
            missing = any(0 in vec for vec in net.complexes)
            shapes.add((len(linkage_classes(net)), missing))
        assert {(2, True), (1, True)} <= shapes

    @pytest.mark.parametrize(
        "text, c0",
        [
            ("A -> 2A : 1", [1.0]),  # (2A)'s monomial A^2 overflows first
            ("A -> A + B : 1\nB -> A + B : 1", [1.0, 1.0]),  # A*B overflows to inf
        ],
    )
    def test_blow_up_refused(self, text, c0):
        with pytest.raises(InputError, match="concentrations overflowed"):
            simulate(parse_network(text), None, c0, t_end=800.0, dt=0.5)

    def test_negative_c0_rejected(self):
        net = parse_network(TRIANGLE)
        with pytest.raises(InputError):
            simulate(net, None, [-1.0, 1.0, 1.0], t_end=1.0, dt=0.1)

    def test_bad_dt_rejected(self):
        net = parse_network(TRIANGLE)
        with pytest.raises(InputError):
            simulate(net, None, [1.0, 1.0, 1.0], t_end=1.0, dt=0.0)

    @pytest.mark.parametrize("t_end, dt", [(1000001.0, 1.0), (1.0, 9e-7)])
    def test_step_count_beyond_the_cap_refused(self, t_end, dt):
        # refused before any step; these runs would end without the cap, but
        # past t = 2^53 * dt one never would (tests/test_cli.py runs that one
        # in a subprocess)
        net = parse_network(TRIANGLE)
        with pytest.raises(InputError, match="exceeds the step cap 1000000"):
            simulate(net, None, [1.0, 1.0, 1.0], t_end=t_end, dt=dt)

    def test_conservation_laws(self):
        laws = conservation_laws(parse_network(TRIANGLE))
        assert laws == [[Fraction(1), Fraction(1), Fraction(1)]]

    def test_stoichiometric_matrix(self):
        s = stoichiometric_matrix(parse_network("A -> B : 1"))
        assert s == [[-1], [1]]
        assert {type(x) for row in s for x in row} == {int}
