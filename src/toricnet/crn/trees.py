"""Tree constants K_i of each linkage class.

K_i sums, over spanning trees of i's linkage class with every edge oriented
toward i, the product of edge rates. Structure comes before rates: every
class is checked for strong connectivity (and, with symbolic rates, against
ENUMERATION_CAP complexes) before any rate is resolved. Then one rate matrix
is built, and both paths read its class blocks. With numeric rates K_i is a
principal cofactor of the block (the matrix-tree theorem), taken by
fraction-free elimination at every class size. With symbolic rates each
class is packed once: its rate names indexed in sorted order, and each edge
term turned into an integer key of exponent fields. The arborescences into
every root are then enumerated by backtracking over parent assignments, and
a tree costs one key addition, so the walk is bound by its output. Each
root's keys are sorted as ints, which is render order, and the walk has two
endings over one codec. ``tree_constants`` decodes each key once into a
monomial and returns a ``SparsePoly`` whose terms are in render order.
``tree_constant_texts``, which ``crn trees`` prints, builds no monomial
and no ``SparsePoly``: its text decoder joins the printed pieces of the
key's chunks, and ``join_terms`` writes the sum in the order of the keys,
so the printed text has the one definition ``SparsePoly.render`` uses.
Both decoders read the same chunk tables, which hold each piece once as
its pairs and their text.
"""

from __future__ import annotations

from ..errors import InputError, NotWeaklyReversible
from ..exactcore import SparsePoly, ff_determinant
from ..exactcore.polynomials import join_terms, monomial_text
from ..render import value_str
from .network import build_rate_matrix, linkage_classes, strong_components, symbolic_rates
from .parser import Network

ENUMERATION_CAP = 8
# Width of a decode chunk. A chunk's table holds up to 2^_CHUNK_BITS pieces;
# wider chunks mean fewer lookups per key but more table misses, and on the
# seeded 7-complex, 19-name classes (about 850 keys each) 4 to 6 bits do best,
# for the monomial decoder and for the text decoder alike.
_CHUNK_BITS = 6


def _pack(block):
    """The class's edge terms over packed integer keys, and their decoder.

    Names are indexed once, in the sorted order that ``SparsePoly.vars``
    reports. A key holds one fixed-width exponent field per name, the first
    name most significant, with the total degree on top; adding keys
    multiplies monomials, and comparing them as ints is the order of
    ``SparsePoly.sorted_terms``. A field is as wide as the largest exponent
    its name reaches in one tree: for every source, the name's largest
    exponent among the source's out-edge terms, summed over the sources. A
    narrower field would carry into its neighbour silently.

    Returns ``choices[s]``, the out-edges of s as ``(t, key, coeff)``;
    ``decode``, which turns a key back into a monomial; and ``text``, which
    turns it into the monomial's printed text. Both read the same per-chunk
    tables, which fill as they are used: a chunk's piece is stored once, as
    its ``(name, exp)`` pairs and their text (``monomial_text``), so a key's
    text is its pieces' texts joined with ``*``.
    """
    nu = len(block)
    out_terms = [
        [(t, m, c) for t in range(nu) if t != s for m, c in block[t][s].terms.items()]
        for s in range(nu)
    ]
    reach: dict = {}
    for edges in out_terms:
        most: dict = {}
        for _, m, _ in edges:
            for name, exp in m:
                if exp > most.get(name, 0):
                    most[name] = exp
        for name, exp in most.items():
            reach[name] = reach.get(name, 0) + exp
    # fields from the least significant (the last name) up, grouped into
    # chunks of at most _CHUNK_BITS (or one wider field): (base, fields)
    shift: dict = {}
    groups: list = []
    offset = 0
    for name in sorted(reach, reverse=True):
        width = reach[name].bit_length()
        if not groups or offset + width - groups[-1][0] > _CHUNK_BITS:
            groups.append((offset, []))
        groups[-1][1].append((name, offset - groups[-1][0], (1 << width) - 1))
        shift[name] = offset
        offset += width

    def pack(m) -> int:
        key = degree = 0
        for name, exp in m:
            key += exp << shift[name]
            degree += exp
        return key + (degree << offset)

    choices = [[(t, pack(m), c) for t, m, c in edges] for edges in out_terms]
    ends = [base for base, _ in groups[1:]] + [offset]
    chunks = [
        (base, (1 << end - base) - 1, local[::-1], {})
        for (base, local), end in zip(reversed(groups), reversed(ends))
    ]

    def piece(part: int, local, table) -> tuple:
        pairs = tuple((n, part >> s & k) for n, s, k in local if part >> s & k)
        entry = table[part] = (pairs, monomial_text(pairs))
        return entry

    def decode(key: int) -> tuple:
        mono = ()
        for base, mask, local, table in chunks:
            part = key >> base & mask
            if part:
                mono += (table.get(part) or piece(part, local, table))[0]
        return mono

    def text(key: int) -> str:
        texts = []
        for base, mask, local, table in chunks:
            part = key >> base & mask
            if part:
                texts.append((table.get(part) or piece(part, local, table))[1])
        return "*".join(texts)

    return choices, decode, text


def _class_sums(block) -> tuple:
    """The in-tree sums of every root i of a symbolic class block, over the
    class's packed keys: the sum over the arborescences converging to i of
    their edge products, the edge s -> t weighing block[t][s].

    A weight of several terms (parallel reactions, k1 + k2) counts as
    parallel single-term edges, which by distributivity gives the same sum.
    The class is packed once (``_pack``); each root's walk carries a
    ``parent`` list, an integer key and a coefficient product, so a tree
    costs one key addition and no sort. Returns, per root, its
    ``(key, coeff)`` terms in key order (which is ``sorted_terms`` order)
    with zero sums dropped, and the class's ``decode`` and ``text``.
    """
    nu = len(block)
    choices, decode, text = _pack(block)
    parent: list = [None] * nu
    sums = []
    for root in range(nu):
        others = [v for v in range(nu) if v != root]
        last = len(others) - 1
        acc: dict = {}

        def rec(i: int, key: int, coeff) -> None:
            v = others[i]
            for t, k, c in choices[v]:
                # t would close a cycle when its parent chain leads back to v
                w = t
                while w != v and parent[w] is not None:
                    w = parent[w]
                if w == v:
                    continue
                if i == last:
                    k += key
                    acc[k] = acc[k] + coeff * c if k in acc else coeff * c
                else:
                    parent[v] = t
                    rec(i + 1, key + k, coeff * c)
            parent[v] = None

        if others:
            rec(0, 0, 1)
        else:
            acc[0] = 1
        sums.append([(k, acc[k]) for k in sorted(acc) if acc[k]])
    return sums, decode, text


def _class_in_trees(block) -> list:
    """K_i of every root i of a symbolic class block, as ``SparsePoly``
    with its terms in render order; each key is decoded once."""
    sums, decode, _ = _class_sums(block)
    return [SparsePoly._trusted({decode(k): c for k, c in terms}) for terms in sums]


def _class_in_tree_texts(block) -> list:
    """The printed K_i of every root i of a symbolic class block, written
    from its keys: the text ``SparsePoly.render`` gives ``_class_in_trees``."""
    sums, _, text = _class_sums(block)
    return [join_terms([(text(k), c) for k, c in terms]) for terms in sums]


def matrix_tree_cofactor(block, root: int, row: int):
    """(-1)^(nu-1) * (-1)^(root+row) * det(block minus column root, row `row`).

    For a column-sum-zero class block this equals K_root for EVERY choice of
    deleted row; the checkerboard sign is what makes the choice immaterial.
    """
    nu = len(block)
    minor = [
        [block[r][c] for c in range(nu) if c != root]
        for r in range(nu)
        if r != row
    ]
    sign = (-1) ** (nu - 1) * (-1) ** (root + row)
    det = ff_determinant(minor) if minor else (
        SparsePoly.one() if isinstance(block[0][0], SparsePoly) else 1
    )
    return det * sign


def _checked_classes(net: Network, bindings: dict | None) -> tuple:
    """``(symbolic, classes)``, once every linkage class is strongly
    connected and, with symbolic rates, within ENUMERATION_CAP complexes."""
    symbolic = symbolic_rates(net, bindings)
    classes = linkage_classes(net)
    strong = {tuple(c) for c in strong_components(net)}
    for cls in classes:
        if tuple(cls) not in strong:
            raise NotWeaklyReversible(
                f"linkage class {{{', '.join(net.complex_label(i) for i in cls)}}} "
                "is not strongly connected"
            )
        if symbolic and len(cls) > ENUMERATION_CAP:
            raise InputError(
                f"class of {len(cls)} complexes: symbolic tree constants "
                f"are capped at {ENUMERATION_CAP}, pass numeric bindings"
            )
    return symbolic, classes


def tree_constants(net: Network, bindings: dict | None = None) -> list:
    """K_i for every complex i; SparsePoly when symbolic, a rational otherwise."""
    symbolic, classes = _checked_classes(net, bindings)
    return class_trees(build_rate_matrix(net, bindings), classes, symbolic)


def tree_constant_texts(net: Network, bindings: dict | None = None) -> list:
    """K_i for every complex i as the CLI prints it: ``value_str`` of
    ``tree_constants(net, bindings)[i]``, with the same refusals. Symbolic
    classes are written straight from their sorted keys, with no
    ``SparsePoly`` built; numeric ones from their cofactors."""
    symbolic, classes = _checked_classes(net, bindings)
    a = build_rate_matrix(net, bindings)
    if symbolic:
        return _by_class(a, classes, _class_in_tree_texts)
    return [value_str(k) for k in class_trees(a, classes, False)]


def class_trees(a, classes, symbolic: bool) -> list:
    """K_i for every complex i from the rate matrix ``a`` and its strongly
    connected ``classes``: enumerated arborescences when ``symbolic``, the
    principal cofactors of each class block otherwise."""
    return _by_class(a, classes, _class_in_trees if symbolic else _cofactors)


def _cofactors(block) -> list:
    return [matrix_tree_cofactor(block, i, i) for i in range(len(block))]


def _by_class(a, classes, per_block) -> list:
    """``per_block`` of each class's block of ``a``, its i-th entry placed
    at the class's i-th complex."""
    out: list = [None] * len(a)
    for cls in classes:
        block = [[a[t][s] for s in cls] for t in cls]
        for root, k in zip(cls, per_block(block)):
            out[root] = k
    return out
