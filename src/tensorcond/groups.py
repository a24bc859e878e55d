"""Finite groups as dense multiplication tables, subgroups, and filtrations.

Every group is a table on element indices 0..order-1 with identity 0.
Named constructions (cyclic, dihedral, quaternion, Heisenberg, affine, ...)
are produced from explicit element encodings and converted to tables, so
conjugacy classes and all validation can be done by exhaustive enumeration.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import FiltrationError, GroupConstructionError, is_int

DEFAULT_ORDER_CAP = 2048


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def pgroup_prime(order: int) -> Optional[int]:
    """The prime p when order > 1 is a power of p, else None."""
    p = next((d for d in range(2, order + 1) if order % d == 0), None)
    while p and order % p == 0:
        order //= p
    return p if order == 1 else None


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of a*b.  The identity may sit anywhere
    (all shipped constructors put it at 0).  Conjugacy classes are computed
    eagerly; the identity class comes first, the rest are ordered by their
    smallest member.
    """

    __slots__ = (
        "name", "spec", "order", "table", "identity", "inverses",
        "classes", "class_of", "class_reps", "class_sizes",
        "inverse_class", "element_orders", "exponent",
        "_power_class", "_char_table",
    )

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G",
                 spec: Optional[dict] = None):
        n = len(table)
        if n == 0:
            raise GroupConstructionError("empty multiplication table")
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupConstructionError("table is not square over 0..n-1")
        self.name = name
        self.spec = spec or {}

        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupConstructionError("no two-sided identity")
        self.identity = identity

        inverses = [None] * n
        for a in range(n):
            row = self.table[a]
            for b in range(n):
                if row[b] == identity and self.table[b][a] == identity:
                    inverses[a] = b
                    break
            if inverses[a] is None:
                raise GroupConstructionError(f"element {a} has no inverse")
        self.inverses = tuple(inverses)

        # Latin-square sanity: each row/column is a permutation.
        full = frozenset(range(n))
        for a in range(n):
            if frozenset(self.table[a]) != full:
                raise GroupConstructionError(f"row {a} is not a permutation")

        self.classes, self.class_of = self._conjugacy_classes()
        self.class_reps = tuple(c[0] for c in self.classes)
        self.class_sizes = tuple(len(c) for c in self.classes)
        self.inverse_class = tuple(self.class_of[self.inverses[r]] for r in self.class_reps)

        orders = []
        for g in range(n):
            k, x = 1, g
            while x != identity:
                x = self.table[x][g]
                k += 1
            orders.append(k)
        self.element_orders = tuple(orders)
        self.exponent = 1
        for k in orders:
            self.exponent = lcm(self.exponent, k)

        self._power_class: dict = {}
        self._char_table = None

    # -- basic operations ---------------------------------------------------

    def power(self, g: int, k: int) -> int:
        """g**k by square-and-multiply; k may be negative."""
        if k < 0:
            g, k = self.inverses[g], -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.table[acc][g]
            g = self.table[g][g]
            k >>= 1
        return acc

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.table[self.table[h][g]][self.inverses[h]]

    def elements(self) -> range:
        return range(self.order)

    def class_power(self, ci: int, k: int) -> int:
        """Class index of g^k for g any representative of class ci."""
        key = (ci, k % self.exponent)
        hit = self._power_class.get(key)
        if hit is None:
            hit = self.class_of[self.power(self.class_reps[ci], key[1])]
            self._power_class[key] = hit
        return hit

    def _conjugacy_classes(self):
        n = self.order
        class_of = [-1] * n
        classes = []
        for g in range(n):
            if class_of[g] >= 0:
                continue
            orbit = sorted({self.conjugate(h, g) for h in range(n)})
            ci = len(classes)
            for x in orbit:
                class_of[x] = ci
            classes.append(tuple(orbit))
        # identity first, then ascending smallest member
        order_key = sorted(range(len(classes)),
                           key=lambda i: (self.identity not in classes[i], classes[i][0]))
        classes = [classes[i] for i in order_key]
        remap = {old: new for new, old in enumerate(order_key)}
        class_of = [remap[c] for c in class_of]
        return tuple(classes), tuple(class_of)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A subgroup as a sorted element-index set inside a parent group."""

    __slots__ = ("parent", "elements", "member", "size", "class_counts")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        elems = sorted(set(elements))
        member = frozenset(elems)
        if parent.identity not in member:
            raise GroupConstructionError("subgroup must contain the identity")
        # each member that is not yet a word in the generators becomes one
        # (at most log2 |H| of them, each doubling the words); the words of
        # a finite group form a subgroup, so the set is one iff none leaves it
        table = parent.table
        gens = []
        words = {parent.identity}
        for a in elems:
            if a not in words:
                gens.append(a)
                words = closure(parent.identity,
                                lambda x: map(table[x].__getitem__, gens), member)
                if words is None:
                    raise GroupConstructionError(
                        f"subgroup not closed under products: a word in the "
                        f"members {gens} lies outside it")
        self.parent = parent
        self.elements = tuple(elems)
        self.member = member
        self.size = len(elems)
        counts = [0] * len(parent.classes)
        for a in elems:
            counts[parent.class_of[a]] += 1
        self.class_counts = tuple(counts)

    @property
    def index(self) -> int:
        return self.parent.order // self.size

    def contains(self, other: "Subgroup") -> bool:
        return other.member <= self.member

    def is_trivial(self) -> bool:
        return self.size == 1

    def is_whole_group(self) -> bool:
        return self.size == self.parent.order

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.conjugate(h, a) in self.member
                   for h in G.elements() for a in self.elements)

    def is_pgroup(self, p: int) -> bool:
        """Whether the order is a power of p (1 is a power of every p)."""
        return self.size == 1 or pgroup_prime(self.size) == p

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.parent is other.parent \
            and self.elements == other.elements

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return f"Subgroup(order={self.size} of {self.parent.name})"


def closure(start: int, successors: Callable[[int], Iterable[int]],
            within: Optional[frozenset] = None) -> Optional[set]:
    """Every point reached from start by repeated steps to `successors`,
    searched depth first; with `within`, None as soon as a point outside
    it is reached."""
    seen = {start}
    frontier = [start]
    while frontier:
        for y in successors(frontier.pop()):
            if y not in seen:
                if within is not None and y not in within:
                    return None
                seen.add(y)
                frontier.append(y)
    return seen


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``: the words in the generators,
    found by right multiplication from the identity.  In a finite group
    these are already closed under products and inverses (each g^-1 is a
    power of g)."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise GroupConstructionError(f"generator index {g} out of range")
    return Subgroup(G, closure(G.identity, lambda x: map(G.table[x].__getitem__, gens)))


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity])


class Filtration:
    """A descending chain G_0 >= G_1 >= ... ending at the trivial subgroup.

    Containment only; normality is deliberately NOT required and never
    assumed by any consumer.
    """

    __slots__ = ("parent", "chain", "indices")

    def __init__(self, parent: FiniteGroup, chain: Sequence[Subgroup]):
        if not chain:
            raise FiltrationError("empty chain")
        if any(s.parent is not parent for s in chain):
            raise FiltrationError("chain subgroup has a different parent group")
        if not chain[0].is_whole_group():
            raise FiltrationError("chain must start at the whole group")
        for i in range(len(chain) - 1):
            if not chain[i].contains(chain[i + 1]):
                raise FiltrationError(f"chain is not descending at step {i} -> {i + 1}")
        chain = list(chain)
        if not chain[-1].is_trivial():
            chain.append(trivial_subgroup(parent))
        self.parent = parent
        self.chain = tuple(chain)
        self.indices = tuple(s.index for s in self.chain)
        for s in self.chain:
            assert s.index * s.size == parent.order

    def __len__(self):
        return len(self.chain)

    def __getitem__(self, i: int) -> Subgroup:
        return self.chain[i]

    def __repr__(self):
        return f"Filtration({[s.size for s in self.chain]} on {self.parent.name})"


def filtration_from_generators(G: FiniteGroup,
                               gen_lists: Sequence[Iterable[int]]) -> Filtration:
    """Chain G > <gens_1> > <gens_2> > ... (trivial tail appended)."""
    subs = [whole_group(G)] + [subgroup_generated(G, gens) for gens in gen_lists]
    return Filtration(G, subs)


# -- named constructions ----------------------------------------------------

def _table_from_encoding(elems: list, mul: Callable, name: str, spec: dict) -> FiniteGroup:
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=name, spec=spec)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupConstructionError("cyclic order must be >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"C{n}", spec={"kind": "cyclic", "n": n})


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise GroupConstructionError(f"p={p} is not prime")
    if k < 1:
        raise GroupConstructionError("rank must be >= 1")
    n = p ** k
    digits = [tuple((x // p ** i) % p for i in range(k)) for x in range(n)]

    def mul(a, b):
        return tuple((u + v) % p for u, v in zip(a, b))

    return _table_from_encoding(digits, mul, f"E{p}^{k}",
                                {"kind": "elementary_abelian", "p": p, "k": k})


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element a + n*b is rot^a * ref^b."""
    if n < 1:
        raise GroupConstructionError("dihedral parameter must be >= 1")
    elems = [(a, b) for b in range(2) for a in range(n)]

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % n, (b1 + b2) % 2)

    return _table_from_encoding(elems, mul, f"D{n}", {"kind": "dihedral", "n": n})


_Q8_MUL = {}  # (axis, axis) -> (sign, axis) for axes 0=1,1=i,2=j,3=k


def _q8_rules():
    if _Q8_MUL:
        return _Q8_MUL
    rules = {(0, 0): (1, 0)}
    for u in (1, 2, 3):
        rules[(0, u)] = (1, u)
        rules[(u, 0)] = (1, u)
        rules[(u, u)] = (-1, 0)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        rules[(a, b)] = (1, c)
        rules[(b, a)] = (-1, c)
    _Q8_MUL.update(rules)
    return rules


def quaternion8() -> FiniteGroup:
    """Q8 with indices 0..7 = 1, i, j, k, -1, -i, -j, -k."""
    rules = _q8_rules()
    elems = [(s, u) for s in (1, -1) for u in range(4)]

    def mul(x, y):
        s1, u1 = x
        s2, u2 = y
        s3, u3 = rules[(u1, u2)]
        return (s1 * s2 * s3, u3)

    return _table_from_encoding(elems, mul, "Q8", {"kind": "quaternion8"})


def heisenberg(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p; (a,b,c) indexed a + p*b + p^2*c."""
    if not is_prime(p):
        raise GroupConstructionError(f"p={p} is not prime")
    elems = [(x % p, (x // p) % p, x // p ** 2) for x in range(p ** 3)]

    def mul(u, v):
        a, b, c = u
        d, e, f = v
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    return _table_from_encoding(elems, mul, f"Heis{p}", {"kind": "heisenberg", "p": p})


def affine(p: int) -> FiniteGroup:
    """Maps x -> a*x + b on F_p; (a,b) indexed (a-1)*p + b, composition order.

    The translation subgroup {a=1} occupies indices 0..p-1 and is the unique
    subgroup of order p; the point stabiliser {b=0} is a non-normal C_{p-1}.
    """
    if not is_prime(p):
        raise GroupConstructionError(f"p={p} is not prime")
    elems = [(a, b) for a in range(1, p) for b in range(p)]

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 * a2) % p, (a1 * b2 + b1) % p)

    return _table_from_encoding(elems, mul, f"Aff{p}", {"kind": "affine", "p": p})


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    if not factors:
        raise GroupConstructionError("direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    G, rest = factors[0], direct_product(*factors[1:])
    n, m = G.order, rest.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for a in range(n):
        for i in range(m):
            row = table[a * m + i]
            for b in range(n):
                gb = G.table[a][b]
                rrow = rest.table[i]
                base = gb * m
                for j in range(m):
                    row[b * m + j] = base + rrow[j]
    spec = {"kind": "direct_product",
            "factors": [f.spec for f in factors if f.spec]}
    return FiniteGroup(table, name="x".join(f.name for f in factors), spec=spec)


def _int_param(spec: dict, key: str, where: str, minimum: int) -> int:
    if key not in spec:
        raise GroupConstructionError(
            f"group spec {spec['kind']!r} is missing the integer field '{where}{key}'")
    value = spec[key]
    if not is_int(value):
        raise GroupConstructionError(f"'{where}{key}' must be an integer, not {value!r}")
    if value < minimum:
        raise GroupConstructionError(f"'{where}{key}' must be >= {minimum}, not {value}")
    return value


def _spec_order(spec, max_order: int = DEFAULT_ORDER_CAP, where: str = "") -> int:
    """The order of the group a descriptor names, from its parameters alone.

    Checks each parameter's presence, type and lower bound (primality is
    left to the constructors), and refuses an order above max_order before
    anything is built.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GroupConstructionError(
            f"'{where.rstrip('.')}' must be a group spec with a 'kind'" if where
            else "group spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind in ("cyclic", "dihedral"):
        n = _int_param(spec, "n", where, 1)
        order = n if kind == "cyclic" else 2 * n
    elif kind == "elementary_abelian":
        p = _int_param(spec, "p", where, 2)
        k = _int_param(spec, "k", where, 1)
        if k >= max_order.bit_length():  # then p^k >= 2^k > max_order
            raise GroupConstructionError(f"order {p}^{k} exceeds cap {max_order}")
        order = p ** k
    elif kind == "quaternion8":
        order = 8
    elif kind in ("heisenberg", "affine"):
        p = _int_param(spec, "p", where, 2)
        order = p ** 3 if kind == "heisenberg" else p * (p - 1)
    elif kind == "direct_product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            raise GroupConstructionError(
                f"'{where}factors' must be a nonempty list of group specs")
        order = 1
        for j, f in enumerate(factors):
            order *= _spec_order(f, max_order, f"{where}factors[{j}].")
    else:
        raise GroupConstructionError(f"unknown group kind {kind!r}")
    if order > max_order:
        raise GroupConstructionError(f"order {order} exceeds cap {max_order}")
    return order


def build_group(spec: dict, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Construct a group from a JSON-style descriptor.

    Supported kinds: cyclic(n), elementary_abelian(p,k), dihedral(n),
    quaternion8, heisenberg(p), affine(p), direct_product(factors).  The
    descriptor is checked, and its order held to max_order, before any
    multiplication table is built.
    """
    _spec_order(spec, max_order)
    return _build(spec)


def _build(spec: dict) -> FiniteGroup:
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic(spec["n"])
    if kind == "elementary_abelian":
        return elementary_abelian(spec["p"], spec["k"])
    if kind == "dihedral":
        return dihedral(spec["n"])
    if kind == "quaternion8":
        return quaternion8()
    if kind == "heisenberg":
        return heisenberg(spec["p"])
    if kind == "affine":
        return affine(spec["p"])
    return direct_product(*(_build(f) for f in spec["factors"]))
