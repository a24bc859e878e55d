"""Finite groups as dense multiplication tables, subgroups, and filtrations.

Every group is a table on element indices 0..order-1 with identity 0.
Named constructions (cyclic, dihedral, quaternion, Heisenberg, affine, ...)
write each row of their table by index arithmetic on the element
encoding their docstring gives, a group by construction, so they skip the
axiom checks `FiniteGroup(table)` makes a row at a time (associativity by
Light's test on a few generators).  Classes are orbits under those generators.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .errors import PreconditionError, is_int, shown

DEFAULT_ORDER_CAP = 2048
MAX_SPEC_DEPTH = 32  # direct products nest no deeper: the stack is not exhausted


# Miller-Rabin on these bases decides every n below PRIME_LIMIT exactly
# (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n at or above
    PRIME_LIMIT is refused."""
    if n >= PRIME_LIMIT:
        raise PreconditionError(f"{n} is too large: primality is decided "
                                f"only below {PRIME_LIMIT}")
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return n > 1
    d = n - 1
    s = (d & -d).bit_length() - 1  # n - 1 = d 2^s with d odd
    d >>= s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        "classes", "class_of", "class_reps", "class_sizes", "class_orders",
        "inverse_class", "element_orders", "exponent", "_char_table",
    )

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G",
                 spec: Optional[dict] = None):
        n = len(table)
        if n == 0:
            raise PreconditionError("empty multiplication table")
        table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in table):
            raise PreconditionError("table is not square over 0..n-1")
        # a row of n entries that holds every index of 0..n-1 is a
        # permutation of them, so this also puts every entry in range
        full = frozenset(range(n))
        bad = next((a for a, row in enumerate(table) if frozenset(row) != full), None)
        if bad is not None:
            if not all(0 <= x < n for row in table for x in row):
                raise PreconditionError("table is not square over 0..n-1")
            raise PreconditionError(f"row {bad} is not a permutation")
        ident = tuple(range(n))
        identity = next((e for e, row in enumerate(table)
                         if row == ident and tuple(r[e] for r in table) == ident), None)
        if identity is None:
            raise PreconditionError("no two-sided identity")
        for a, row in enumerate(table):
            if table[row.index(identity)][a] != identity:
                raise PreconditionError(f"element {a} has no inverse")
        # Light's test: (x s) y = x (s y) for each generator s, a row at a
        # time (the row of x s against the row of x read at the row of s).
        # The elements passing it are closed under products, and every
        # element is a left-normed word in the generators, so it suffices.
        for s in self._derive(table, identity, name, spec):
            read_s = itemgetter(*table[s])
            for x, row in enumerate(table):
                left, right = table[row[s]], read_s(row)
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise PreconditionError(
                        f"table is not associative: ({x}*{s})*{y} != {x}*({s}*{y})")

    @classmethod
    def _named(cls, table: Sequence[Sequence[int]], name: str, spec: dict) -> "FiniteGroup":
        """A table that is a group by construction, with identity 0 (the
        named constructors'): the derivation alone, no axiom checked."""
        G = cls.__new__(cls)
        G._derive(tuple(map(tuple, table)), 0, name, spec)
        return G

    def _derive(self, table, identity: int, name: str, spec: Optional[dict]) -> list:
        """Inverses, orders, exponent and classes; returns the generators
        the classes were found with (the order check only stops a loop)."""
        n = len(table)
        self.order, self.table, self.identity = n, table, identity
        self.name = name
        self.spec = spec or {}
        # in a permutation row the one b with a*b = 1 is found by index
        self.inverses = tuple(row.index(identity) for row in table)

        # one walk through the powers of g gives every order in <g>:
        # ord(g^j) = k / gcd(j, k) for k = ord(g)
        orders = [0] * n
        for g in range(n):
            if orders[g]:
                continue
            powers = [g]
            x = g
            while x != identity:
                if len(powers) == n:  # only a table that is no group gets here
                    raise PreconditionError(
                        f"the powers of element {g} never reach the identity")
                x = table[x][g]
                powers.append(x)
            k = len(powers)
            for j, x in enumerate(powers, 1):
                orders[x] = k // gcd(j, k)
        self.element_orders = tuple(orders)
        self.exponent = lcm(*set(orders))

        gens, _ = _generators(table, identity, range(n))
        self.classes, self.class_of = self._conjugacy_classes(gens)
        self.class_reps = tuple(c[0] for c in self.classes)
        self.class_sizes = tuple(len(c) for c in self.classes)
        self.class_orders = tuple(orders[r] for r in self.class_reps)
        self.inverse_class = tuple(self.class_of[self.inverses[r]] for r in self.class_reps)

        self._char_table = None
        return gens

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

    def class_power(self, ci: int, k: int) -> int:
        """Class index of g^k for g any representative of class ci."""
        return self.class_of[self.power(self.class_reps[ci], k % self.exponent)]

    def _conjugacy_classes(self, gens):
        """Orbits under conjugation by a generating set (a finite group is
        the monoid its generators span), the identity's first, then in
        the order of their smallest members."""
        n, table, identity = self.order, self.table, self.identity
        # x -> s x s^-1 for each generator s, as a list over x
        conj = [[table[y][self.inverses[s]] for y in table[s]] for s in gens]
        class_of = [-1] * n
        classes = []
        for g in (identity, *range(n)):
            if class_of[g] < 0:
                orbit = closure(g, lambda x: [c[x] for c in conj])
                for x in orbit:
                    class_of[x] = len(classes)
                classes.append(tuple(sorted(orbit)))
        return tuple(classes), tuple(class_of)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A subgroup as a sorted element-index set inside a parent group."""

    __slots__ = ("parent", "elements", "member", "size", "class_counts")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        member = frozenset(elements)
        if parent.identity not in member:
            raise PreconditionError("subgroup must contain the identity")
        # the words of a finite group form a subgroup, and they include the
        # members, so the set is one iff there are no more words than members
        gens, words = _generators(parent.table, parent.identity, sorted(member))
        if len(words) != len(member):
            raise PreconditionError(
                f"subgroup not closed under products: a word in the "
                f"members {gens} lies outside it")
        self._fill(parent, member)

    @classmethod
    def _closed(cls, parent: FiniteGroup, elements: Iterable[int]) -> "Subgroup":
        """A set closed under products by construction, without the
        closure certificate."""
        H = cls.__new__(cls)
        H._fill(parent, frozenset(elements))
        return H

    def _fill(self, parent: FiniteGroup, member: frozenset):
        self.parent = parent
        self.elements = tuple(sorted(member))
        self.member = member
        self.size = len(member)
        counts = [0] * len(parent.classes)
        for a in member:
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


def closure(start: int, successors: Callable[[int], Iterable[int]]) -> set:
    """Every point reached from start by repeated steps to `successors`,
    searched depth first."""
    seen = {start}
    frontier = [start]
    while frontier:
        for y in successors(frontier.pop()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _generators(table, identity: int, elems: Iterable[int]):
    """Generators of the words in elems and those words: each member that is
    not yet a word in the generators becomes one (at most log2 of the words'
    count, each doubling them)."""
    gens = []
    words = {identity}
    for a in elems:
        if a not in words:
            gens.append(a)
            words = closure(identity, lambda x: map(table[x].__getitem__, gens))
    return gens, words


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``: the words in the generators,
    found by right multiplication from the identity.  In a finite group
    these are already closed under products and inverses (each g^-1 is a
    power of g), so no closure certificate is searched for again."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise PreconditionError(f"generator index {shown(g)} out of range")
    words = closure(G.identity, lambda x: map(G.table[x].__getitem__, gens))
    return Subgroup._closed(G, words)


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup._closed(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup._closed(G, [G.identity])


class Filtration:
    """A descending chain G_0 >= G_1 >= ... ending at the trivial subgroup.

    Containment only; normality is deliberately NOT required and never
    assumed by any consumer.
    """

    __slots__ = ("parent", "chain", "indices")

    def __init__(self, parent: FiniteGroup, chain: Sequence[Subgroup]):
        if not chain:
            raise PreconditionError("empty chain")
        if any(s.parent is not parent for s in chain):
            raise PreconditionError("chain subgroup has a different parent group")
        if not chain[0].is_whole_group():
            raise PreconditionError("chain must start at the whole group")
        for i in range(len(chain) - 1):
            if not chain[i].contains(chain[i + 1]):
                raise PreconditionError(f"chain is not descending at step {i} -> {i + 1}")
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


def check_model_prime(filt: Filtration, p: int) -> None:
    """That p can be the residue characteristic of an inertia model on the
    chain: p is a prime, and the wild level G_1 a p-group."""
    if not is_prime(p):
        raise PreconditionError(f"residue characteristic {p} is not prime")
    if not filt[min(1, len(filt) - 1)].is_pgroup(p):
        raise PreconditionError(f"wild inertia level G_1 must be a {p}-group")


# -- named constructions ----------------------------------------------------
#
# Row g of a table lists g y for y = 0..n-1, so the row of g h is the row of
# g read at the entries of the row of h: one `itemgetter` call.  Each
# constructor writes a few rows by index arithmetic and composes the rest.

def _cyclic_rows(n: int) -> list:
    """Row a of C_n: (a + b) mod n for b = 0..n-1."""
    elems = tuple(range(n))
    return [elems[a:] + elems[:a] for a in range(n)]


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError("cyclic order must be >= 1")
    return FiniteGroup._named(_cyclic_rows(n), f"C{n}", {"kind": "cyclic", "n": n})


def _product_rows(tables: Sequence[Sequence[Sequence[int]]]) -> list:
    """Rows of the direct product of `tables`, indexed as `direct_product`
    says: the row of (a, x) lists over b the row of x shifted by m ab.  A
    trivial table changes no index and is left out (`itemgetter` of one
    index returns no tuple)."""
    *higher, rows = [t for t in tables if len(t) > 1] or [[(0,)]]
    for g_rows in reversed(higher):
        m, elems = len(rows), tuple(range(len(rows) * len(g_rows)))
        shifted = [[itemgetter(*row)(elems[m * s:m * s + m]) for s in range(len(g_rows))]
                   for row in rows]
        rows = [tuple(chain.from_iterable(itemgetter(*g_row)(blocks)))
                for g_row in g_rows for blocks in shifted]
    return rows


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """C_p^k; the digits of x in base p, lowest first, are its coordinates."""
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    if k < 1:
        raise PreconditionError("rank must be >= 1")
    return FiniteGroup._named(_product_rows([_cyclic_rows(p)] * k), f"E{p}^{k}",
                              {"kind": "elementary_abelian", "p": p, "k": k})


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element a + n*b is rot^a * ref^b."""
    if n < 1:
        raise PreconditionError("dihedral parameter must be >= 1")
    elems = tuple(range(2 * n))
    # rot^a rot^b ref^c = rot^(a+b) ref^c
    rot = [elems[a:n] + elems[:a] + elems[n + a:] + elems[n:n + a] for a in range(n)]
    # ref rot^b ref^c = rot^-b ref^(1+c), and the row of rot^a ref is the
    # row of rot^a read at the entries of the row of ref
    ref = itemgetter(*((-b) % n + n * (1 - c) for c in range(2) for b in range(n)))
    return FiniteGroup._named(rot + [ref(r) for r in rot], f"D{n}",
                              {"kind": "dihedral", "n": n})


# products of 1, i, j, k: index u + 4 for -u
_Q8_UNITS = ((0, 1, 2, 3), (1, 4, 3, 6), (2, 7, 4, 1), (3, 2, 5, 4))


def quaternion8() -> FiniteGroup:
    """Q8 with indices 0..7 = 1, i, j, k, -1, -i, -j, -k."""
    table = [[(_Q8_UNITS[x % 4][y % 4] + 4 * (x // 4 + y // 4)) % 8 for y in range(8)]
             for x in range(8)]
    return FiniteGroup._named(table, "Q8", {"kind": "quaternion8"})


def heisenberg(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p; (a,b,c) indexed a + p*b + p^2*c,
    with (a,b,c)(d,e,f) = (a+d, b+e, c+f+ae)."""
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    # (a, b, c) = (0, b, c)(a, 0, 0): its row is that of (0, b, c), which
    # maps (d, e, f) to (d, b+e, c+f), read at the entries of the row of
    # (a, 0, 0), which maps it to (a+d, e, f+ae)
    cells = [(d, e, f) for f in range(p) for e in range(p) for d in range(p)]
    central = [tuple(d + p * ((b + e) % p) + p * p * ((c + f) % p) for d, e, f in cells)
               for c in range(p) for b in range(p)]
    shears = [itemgetter(*((a + d) % p + p * e + p * p * ((f + a * e) % p) for d, e, f in cells))
              for a in range(p)]
    return FiniteGroup._named([shear(row) for row in central for shear in shears],
                              f"Heis{p}", {"kind": "heisenberg", "p": p})


def affine(p: int) -> FiniteGroup:
    """Maps x -> a*x + b on F_p; (a,b) indexed (a-1)*p + b, composition order.

    The translation subgroup {a=1} occupies indices 0..p-1 and is the unique
    subgroup of order p; the point stabiliser {b=0} is a non-normal C_{p-1}.
    """
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    # (a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1), so (a, b) = (1, b)(a, 0), and
    # the row of (a, b) is that of the translation (1, b) read at the
    # entries of the row of the dilation (a, 0)
    translations = [tuple((a2 - 1) * p + (b2 + b) % p for a2 in range(1, p) for b2 in range(p))
                    for b in range(p)]
    table = []
    for a in range(1, p):
        dilation = itemgetter(*((a * a2 % p - 1) * p + a * b2 % p
                                for a2 in range(1, p) for b2 in range(p)))
        table.extend(map(dilation, translations))
    return FiniteGroup._named(table, f"Aff{p}", {"kind": "affine", "p": p})


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    """G x R, R the direct product of the later factors, of order m:
    element a*m + i is (a, i), and R is indexed the same way."""
    if not factors:
        raise PreconditionError("direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    spec = {"kind": "direct_product", "factors": [f.spec for f in factors if f.spec]}
    return FiniteGroup._named(_product_rows([f.table for f in factors]),
                              "x".join(f.name for f in factors), spec)


def _int_param(spec: dict, key: str, where: str, minimum: int) -> int:
    if key not in spec:
        raise PreconditionError(
            f"group spec {shown(spec['kind'])} is missing the integer field '{where}{key}'")
    value = spec[key]
    if not is_int(value):
        raise PreconditionError(f"'{where}{key}' must be an integer, not {shown(value)}")
    if value < minimum:
        raise PreconditionError(f"'{where}{key}' must be >= {minimum}, not {shown(value)}")
    if value > DEFAULT_ORDER_CAP:  # every order is at least each of its parameters
        raise PreconditionError(
            f"'{where}{key}' exceeds cap {DEFAULT_ORDER_CAP}, and so does the order")
    return value


def read_spec(spec, where: str = "",
              depth: int = 0) -> Tuple[tuple, int, Callable[[], FiniteGroup]]:
    """The key and the order of the group a descriptor names, from its
    parameters alone, and a call that builds the group.  The key is the
    kind and the parameters it reads, such as ("cyclic", 4), so keys that
    the kind does not read change nothing; a product's holds its factors'
    keys, and a one-factor product's is its factor's, which `direct_product`
    returns.  Checks each parameter's presence, type and range (primality is
    left to the constructors) and the nesting depth, and refuses an order
    above DEFAULT_ORDER_CAP; it builds nothing.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PreconditionError(
            f"'{where.rstrip('.')}' must be a group spec with a 'kind'" if where
            else "group spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "cyclic":
        n = _int_param(spec, "n", where, 1)
        key, order, build = (kind, n), n, lambda: cyclic(n)
    elif kind == "dihedral":
        n = _int_param(spec, "n", where, 1)
        key, order, build = (kind, n), 2 * n, lambda: dihedral(n)
    elif kind == "elementary_abelian":
        p = _int_param(spec, "p", where, 2)
        k = _int_param(spec, "k", where, 1)
        if k >= DEFAULT_ORDER_CAP.bit_length():  # then p^k >= 2^k > the cap
            raise PreconditionError(f"order {p}^{k} exceeds cap {DEFAULT_ORDER_CAP}")
        key, order, build = (kind, p, k), p ** k, lambda: elementary_abelian(p, k)
    elif kind == "quaternion8":
        key, order, build = (kind,), 8, quaternion8
    elif kind == "heisenberg":
        p = _int_param(spec, "p", where, 2)
        key, order, build = (kind, p), p ** 3, lambda: heisenberg(p)
    elif kind == "affine":
        p = _int_param(spec, "p", where, 2)
        key, order, build = (kind, p), p * (p - 1), lambda: affine(p)
    elif kind == "direct_product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            raise PreconditionError(
                f"'{where}factors' must be a nonempty list of group specs")
        if depth == MAX_SPEC_DEPTH:
            raise PreconditionError(
                f"group spec nests direct products more than {MAX_SPEC_DEPTH} deep")
        order, reads = 1, []
        for j, f in enumerate(factors):
            reads.append(read_spec(f, f"{where}factors[{j}].", depth + 1))
            order *= reads[-1][1]
            if order > DEFAULT_ORDER_CAP:  # refused below, before it grows long
                break
        key = reads[0][0] if len(factors) == 1 else (kind, *(r[0] for r in reads))
        build = lambda: direct_product(*(factor() for _, _, factor in reads))
    else:
        raise PreconditionError(f"unknown group kind {shown(kind)}")
    if order > DEFAULT_ORDER_CAP:
        raise PreconditionError(f"order {order} exceeds cap {DEFAULT_ORDER_CAP}")
    return key, order, build


def build_group(spec: dict) -> FiniteGroup:
    """Construct a group from a JSON-style descriptor.

    Supported kinds: cyclic(n), elementary_abelian(p,k), dihedral(n),
    quaternion8, heisenberg(p), affine(p), direct_product(factors).  The
    descriptor is read in one walk, each parameter and then the order held
    to DEFAULT_ORDER_CAP (read at each call), before any multiplication
    table is built.
    """
    return read_spec(spec)[2]()
