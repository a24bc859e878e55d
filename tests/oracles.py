"""Independent test oracles.

Matrix representations with exact cyclotomic entries give a second route to
character values and fixed-space dimensions (averaging projectors); a
dict-based root-of-unity expansion gives a second route to cyclotomic
products; counting all |G|^2 products gives a second route to the class
algebra matrices; adding products of members until none is new gives a
second route to generated subgroups; trying every triple checks that a
multiplication table is associative.  Nothing here reuses the code paths
under test: matrices know nothing about class functions, the expansion
oracle never multiplies CycloNums, the product count never looks at class
representatives, and the closure never searches words in the generators.

The named groups are rebuilt from explicit element encodings (tuples with
a multiplication rule, one dict lookup per table entry), a second route to
the constructors' index arithmetic; conjugation orbits of every element and
element orders by repeated multiplication are a second route to the classes
and orders that `FiniteGroup` derives; fraction-free Bareiss
elimination on the dense Sylvester matrix is a second route to the
resultant that the package computes by Euclid's algorithm; and the max
rule summed on Fractions is a second route to the break calculus, which
the package runs on integer numerators.

The class-function oracles at the end work on class values with CycloNum
arithmetic only: inner products, restriction to a subgroup as a group of
its own, the guarded Frobenius-Schur indicator, the rationality and
symplectic criteria read from values, and random characters assembled
from a seeded multiplicity vector.  The package itself computes on
multiplicity vectors and never decomposes; these are what tests compare
it with.  The constructors only tests call live here too: `root_of_unity`,
`cyclo_from_json` and its inverse `cyclo_to_json`, the trivial and zero
class functions, `conjugate`, `is_normal`, a chain or an inertia model
from generator lists (`chain_on`), and the seeded `gen_abvar` and
`gen_semistable` data.

What no command runs lives here as plain functions rather than in the
package: the CycloNum readings (`rational_value`, `integer_value`), its
negation, subtraction, Galois action and conjugate; a class function built
from values (`from_values`), the sum, scaling and dual of class functions;
the per-level `nonfixed_dim` and `tensor_fixed_excess`, the wild part
`swan` of an inertia model, a conductor report as JSON (`report_json`) and
a corpus entry by name (`corpus_entry`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, Optional

from tensorcond.chars import ClassFunction, _combine, character_table, fixed_dim
from tensorcond.corpus import Corpus, CorpusChain, CorpusEntry
from tensorcond.cyclo import CycloNum
from tensorcond.errors import CorpusError, PreconditionError
from tensorcond.filtration import ConductorReport, conductor_exponent
from tensorcond.groups import (Filtration, FiniteGroup, Subgroup, filtration_from_generators,
                               is_prime)
from tensorcond.suites import (abvar_datum, gen_abvar_mults, gen_character_mults,
                               gen_semistable_mults)
from tensorcond.weildeligne import AbVarDatum


# -- CycloNum readings, negation and Galois action ---------------------------------


def cyclo_zero(N: int = 1) -> CycloNum:
    return CycloNum.from_rational(0, N)


def cyclo_one(N: int = 1) -> CycloNum:
    return CycloNum.from_rational(1, N)


def rational_value(x: CycloNum) -> Fraction:
    """The value as a Fraction, so that dividing it never gives a float."""
    if not x.is_rational():
        raise ValueError(f"{x} is not rational")
    return Fraction(x.coeffs[0])


def is_integer(x: CycloNum) -> bool:
    return x.is_rational() and type(x.coeffs[0]) is int


def integer_value(x: CycloNum) -> int:
    if not is_integer(x):
        raise ValueError(f"{x} is not an integer")
    return x.coeffs[0]


def neg(x: CycloNum) -> CycloNum:
    return CycloNum(x.N, [-c for c in x.coeffs])


def sub(x, y) -> CycloNum:
    """x - y, for a CycloNum and a CycloNum or a rational on either side."""
    if isinstance(y, (int, Fraction)):
        y = CycloNum.from_rational(y)
    return neg(y) + x


def galois(x: CycloNum, k: int) -> CycloNum:
    """Apply zeta -> zeta^k; requires gcd(k, N) = 1."""
    if gcd(k, x.N) != 1:
        raise ValueError(f"k={k} is not coprime to the conductor {x.N}")
    cs = [0] * x.N
    for i, c in enumerate(x.coeffs):
        if c:
            cs[(i * k) % x.N] += c
    return CycloNum(x.N, cs)


def cyclo_conjugate(x: CycloNum) -> CycloNum:
    return galois(x, x.N - 1 if x.N > 1 else 1)


def key(x: CycloNum) -> tuple:
    """Sortable canonical key (conductor, coefficient tuple)."""
    return (x.N, x.coeffs)


def root_of_unity(N: int, k: int = 1) -> CycloNum:
    """zeta_N^k."""
    k %= N
    cs = [0] * (k + 1)
    cs[k] = 1
    return CycloNum(N, cs)


def cyclo_to_json(x: CycloNum) -> dict:
    """A value as `table --format machine` writes it: the conductor and the
    power-basis coefficients as strings."""
    return {"N": x.N, "coeffs": [str(c) for c in x.coeffs]}


def cyclo_from_json(doc: dict) -> CycloNum:
    """The inverse of `cyclo_to_json`."""
    return CycloNum(int(doc["N"]), [Fraction(s) for s in doc["coeffs"]])


class ExactMatrix:
    """Dense matrix over exact cyclotomics; just enough for representations."""

    def __init__(self, rows: List[List[CycloNum]]):
        self.rows = [[v if isinstance(v, CycloNum) else CycloNum.from_rational(v)
                      for v in row] for row in rows]

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = cyclo_zero()
                for k in range(n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, q) -> "ExactMatrix":
        return ExactMatrix([[v.scale(q) for v in row] for row in self.rows])

    def trace(self) -> CycloNum:
        acc = cyclo_zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def __eq__(self, other):
        return all(a == b for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


class MatrixRep:
    """A map element index -> ExactMatrix, checked to be multiplicative."""

    def __init__(self, group: FiniteGroup, matrices: List[ExactMatrix]):
        self.group = group
        self.matrices = matrices

    def verify_multiplicative(self) -> None:
        G = self.group
        for a in range(G.order):
            for b in range(G.order):
                assert self.matrices[a] @ self.matrices[b] == self.matrices[G.table[a][b]], \
                    f"rep not multiplicative at ({a},{b})"

    def character_values(self) -> List[CycloNum]:
        """One trace per conjugacy class."""
        return [self.matrices[rep].trace() for rep in self.group.class_reps]

    def fixed_dim_by_projector(self, subgroup: Subgroup) -> Fraction:
        """Trace of the averaging projector over the subgroup."""
        n = self.matrices[0].n
        acc = ExactMatrix([[cyclo_zero()] * n for _ in range(n)])
        for h in subgroup.elements:
            acc = acc + self.matrices[h]
        tr = acc.scale(Fraction(1, subgroup.size)).trace()
        return rational_value(tr)


def permutation_rep_affine(G: FiniteGroup, p: int) -> MatrixRep:
    """The natural action of the affine group on F_p as permutation matrices.

    Element index encodes (a, b) as (a-1)*p + b, acting by x -> a*x + b.
    """
    mats = []
    for idx in range(G.order):
        a, b = idx // p + 1, idx % p
        rows = [[1 if x == (a * y + b) % p else 0 for y in range(p)]
                for x in range(p)]
        mats.append(ExactMatrix(rows))
    rep = MatrixRep(G, mats)
    rep.verify_multiplicative()
    return rep


def sign_rep_affine(G: FiniteGroup, p: int) -> MatrixRep:
    """For p = 3 this is the sign of the permutation: +1 iff a = 1."""
    mats = []
    for idx in range(G.order):
        a = idx // p + 1
        legendre = pow(a, (p - 1) // 2, p)
        val = 1 if legendre == 1 else -1
        mats.append(ExactMatrix([[val]]))
    rep = MatrixRep(G, mats)
    rep.verify_multiplicative()
    return rep


def two_dim_rep_q8(G: FiniteGroup) -> MatrixRep:
    """i -> diag(i, -i), j -> [[0,1],[-1,0]] with exact fourth roots of unity.

    Element indices follow the constructor: 0..7 = 1, i, j, k, -1, -i, -j, -k.
    """
    z4 = root_of_unity(4)
    zero, one = cyclo_zero(4), cyclo_one(4)
    mat_i = ExactMatrix([[z4, zero], [zero, neg(z4)]])
    mat_j = ExactMatrix([[zero, one], [neg(one), zero]])
    base = [ExactMatrix.identity(2), mat_i, mat_j, mat_i @ mat_j]
    mats = []
    for idx in range(8):
        sign, axis = (1 if idx < 4 else -1), idx % 4
        mats.append(base[axis].scale(sign))
    rep = MatrixRep(G, mats)
    rep.verify_multiplicative()
    return rep


def linear_reps_q8(G: FiniteGroup) -> List[MatrixRep]:
    """The four one-dimensional representations: i, j -> +-1."""
    reps = []
    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        values = [1, si, sj, si * sj]
        mats = [ExactMatrix([[values[idx % 4]]]) for idx in range(8)]
        rep = MatrixRep(G, mats)
        rep.verify_multiplicative()
        reps.append(rep)
    return reps


# -- cyclotomic expansion oracle ---------------------------------------------------


def expand_product(a: Dict[int, Fraction], b: Dict[int, Fraction],
                   N: int) -> Dict[int, Fraction]:
    """Convolution of root-of-unity exponent dictionaries mod N."""
    out: Dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            k = (i + j) % N
            out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def dict_to_cyclo(d: Dict[int, Fraction], N: int) -> CycloNum:
    """Rebuild a CycloNum using only addition and the root constructor."""
    acc = cyclo_zero(N)
    for k, c in sorted(d.items()):
        acc = acc + root_of_unity(N, k).scale(c)
    return acc


# -- class algebra oracle ------------------------------------------------------------


def class_matrices(group: FiniteGroup) -> List[List[List[int]]]:
    """Every class algebra matrix from all |G|^2 products: (M_i)[j][k] is
    the number of (x, y) in K_i x K_j with x y in K_k, divided by |K_k|."""
    r = len(group.classes)
    cnt = [[[0] * r for _ in range(r)] for _ in range(r)]
    cls = group.class_of
    for x in range(group.order):
        row = group.table[x]
        for y in range(group.order):
            cnt[cls[x]][cls[y]][cls[row[y]]] += 1
    sizes = group.class_sizes
    return [[[cnt[i][j][k] // sizes[k] for k in range(r)] for j in range(r)]
            for i in range(r)]


# -- group and subgroup oracles -------------------------------------------------------


def check_associativity(group: FiniteGroup) -> None:
    """Raise if some triple fails (ab)c = a(bc), trying every triple."""
    t = group.table
    n = group.order
    for a in range(n):
        ta = t[a]
        for b in range(n):
            tab = t[ta[b]]
            tb = t[b]
            if any(tab[c] != ta[tb[c]] for c in range(n)):
                raise AssertionError(f"associativity fails at a={a}, b={b}")



def product_closure(group: FiniteGroup, gens) -> tuple:
    """The smallest set holding the identity and gens that is closed under
    products, as sorted indices: every product, on either side, of a new
    member with a member is added until a round finds nothing new."""
    members = {group.identity, *gens}
    new = set(members)
    while new:
        fresh = set()
        for a in new:
            for b in members:
                fresh.add(group.table[a][b])
                fresh.add(group.table[b][a])
        new = fresh - members
        members |= new
    return tuple(sorted(members))


def table_from_encoding(elems: list, mul: Callable, name: str, spec: dict) -> FiniteGroup:
    """The group of the encoded elements under mul, indexed in list order."""
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=name, spec=spec)


def encoded_group(spec: dict) -> FiniteGroup:
    """A named group from its element encoding: the same indexing, name and
    spec as `tensorcond.groups.build_group` documents for each kind."""
    kind = spec["kind"]
    if kind == "cyclic":
        n = spec["n"]
        return table_from_encoding(list(range(n)), lambda a, b: (a + b) % n,
                                   f"C{n}", spec)
    if kind == "elementary_abelian":
        p, k = spec["p"], spec["k"]
        digits = [tuple((x // p ** i) % p for i in range(k)) for x in range(p ** k)]
        return table_from_encoding(
            digits, lambda a, b: tuple((u + v) % p for u, v in zip(a, b)), f"E{p}^{k}", spec)
    if kind == "dihedral":
        n = spec["n"]

        def mul(x, y):
            a1, b1 = x
            a2, b2 = y
            return ((a1 + (a2 if b1 == 0 else -a2)) % n, (b1 + b2) % 2)
        return table_from_encoding([(a, b) for b in range(2) for a in range(n)], mul,
                                   f"D{n}", spec)
    if kind == "quaternion8":
        rules = {(0, 0): (1, 0)}  # (axis, axis) -> (sign, axis), axes 0=1, 1=i, 2=j, 3=k
        for u in (1, 2, 3):
            rules[(0, u)] = rules[(u, 0)] = (1, u)
            rules[(u, u)] = (-1, 0)
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            rules[(a, b)], rules[(b, a)] = (1, c), (-1, c)

        def mul(x, y):
            s3, u3 = rules[(x[1], y[1])]
            return (x[0] * y[0] * s3, u3)
        return table_from_encoding([(s, u) for s in (1, -1) for u in range(4)], mul,
                                   "Q8", spec)
    if kind == "direct_product":
        first, *rest = spec["factors"]
        if not rest:
            return encoded_group(first)
        G, R = encoded_group(first), encoded_group({"kind": kind, "factors": rest})
        return table_from_encoding(
            [(a, i) for a in range(G.order) for i in range(R.order)],
            lambda x, y: (G.table[x[0]][y[0]], R.table[x[1]][y[1]]),
            f"{G.name}x{R.name}", spec)
    p = spec["p"]
    assert is_prime(p)
    if kind == "heisenberg":
        def mul(u, v):
            a, b, c = u
            d, e, f = v
            return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)
        return table_from_encoding(
            [(x % p, (x // p) % p, x // p ** 2) for x in range(p ** 3)], mul,
            f"Heis{p}", spec)
    assert kind == "affine"

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 * a2) % p, (a1 * b2 + b1) % p)
    return table_from_encoding([(a, b) for a in range(1, p) for b in range(p)], mul,
                               f"Aff{p}", spec)


def conjugate(group: FiniteGroup, h: int, g: int) -> int:
    """h g h^-1."""
    return group.table[group.table[h][g]][group.inverses[h]]


def is_normal(subgroup: Subgroup) -> bool:
    """Whether every conjugate of every member is a member."""
    G = subgroup.parent
    return all(conjugate(G, h, a) in subgroup.member
               for h in range(G.order) for a in subgroup.elements)


def conjugation_orbits(group: FiniteGroup) -> set:
    """The orbit {h g h^-1 : h in G} of every element g, each conjugate
    from the table, with h^-1 found by searching the row of h."""
    t = group.table
    e = group.identity
    inv = [t[h].index(e) for h in range(group.order)]
    return {frozenset(t[t[h][g]][inv[h]] for h in range(group.order))
            for g in range(group.order)}


def orders_by_powers(group: FiniteGroup) -> List[int]:
    """The order of every element, multiplying by it until the identity."""
    out = []
    for g in range(group.order):
        k, x = 1, g
        while x != group.identity:
            x = group.table[x][g]
            k += 1
        out.append(k)
    return out


def sylvester_matrix(f: List[int], g: List[int]) -> List[List[int]]:
    """The Sylvester matrix of two integer polynomials (ascending
    coefficients, nonzero leading ones): deg g shifted rows of f's
    descending coefficients above deg f shifted rows of g's."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    fd = f[::-1]
    gd = g[::-1]
    return ([[0] * i + fd + [0] * (size - n - 1 - i) for i in range(m)]
            + [[0] * i + gd + [0] * (size - m - 1 - i) for i in range(n)])


def bareiss_det(m: List[List[int]]) -> int:
    """Exact integer determinant by dense fraction-free elimination (1 for
    the empty matrix)."""
    m = [row[:] for row in m]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# -- break calculus oracle -------------------------------------------------------------


def _check_breaks(p: int, rank: int, chars) -> None:
    """The checks of a BreakRep on Fraction breaks, with its errors: every
    entry first, then one break per F_p-line, the first clashing line (in
    the order lines first appear) named."""
    for vec, brk in chars:
        if len(vec) != rank:
            raise ValueError("exponent vector of the wrong rank")
        if all(x % p == 0 for x in vec):
            raise ValueError("trivial characters must be omitted")
        if brk <= 0:
            raise ValueError("breaks must be positive")
    lines = {}
    for vec, brk in chars:
        lead = next(x % p for x in vec if x % p)
        inv = pow(lead, -1, p)
        lines.setdefault(tuple(x * inv % p for x in vec), set()).add(brk)
    for line, brks in lines.items():
        if len(brks) != 1:
            raise ValueError(f"break not constant on the direction {line}")


def tensor_break_swan(p: int, rank: int, chars1, chars2) -> Fraction:
    """The Swan conductor of the product of two break representations given
    as (vector, break) lists, by the max rule on Fractions, raising what
    BreakRep and tensor_break_rep raise, in their order."""
    _check_breaks(p, rank, chars1)
    _check_breaks(p, rank, chars2)
    product = []
    for v1, b1 in chars1:
        for v2, b2 in chars2:
            vec = tuple((x + y) % p for x, y in zip(v1, v2))
            if any(vec):
                if b1 == b2:
                    raise PreconditionError("equal slopes: product break is not determined")
                product.append((vec, max(b1, b2)))
    _check_breaks(p, rank, product)
    return sum((brk for _, brk in product), Fraction(0))


# -- class-function oracles ----------------------------------------------------------


def from_values(group: FiniteGroup, values) -> ClassFunction:
    """The class function with one value per class, each a CycloNum or a
    rational: each sum_j c_j zeta_N^j becomes the terms (j e/N, c_j) of its
    exponent form over x^e - 1, e the group exponent.  ValueError for a
    value whose conductor N does not divide e."""
    if len(values) != len(group.classes):
        raise ValueError("one value per conjugacy class required")
    e = group.exponent
    vals = [v if isinstance(v, CycloNum) else CycloNum.from_rational(v) for v in values]
    bad = next((v for v in vals if e % v.N), None)
    if bad is not None:
        raise ValueError(f"{bad} has conductor {bad.N}, which does not divide "
                         f"the exponent {e} of {group.name}")
    return ClassFunction(group, (tuple((j * (e // v.N), c) for j, c in enumerate(v.coeffs) if c)
                                 for v in vals))


def add(chi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    if chi.group is not psi.group:
        raise ValueError("class functions live on different groups")
    e = chi.group.exponent
    return ClassFunction(chi.group, (_combine(((0, 1, a), (0, 1, b)), e)
                                     for a, b in zip(chi.form, psi.form)))


def scale(chi: ClassFunction, n: int) -> ClassFunction:
    return ClassFunction(chi.group, (tuple((k, n * c) for k, c in terms if n)
                                     for terms in chi.form))


def dual(chi: ClassFunction) -> ClassFunction:
    """The contragredient: value at g is the value at g^-1."""
    return ClassFunction(chi.group, (chi.form[c] for c in chi.group.inverse_class))


def trivial(group: FiniteGroup) -> ClassFunction:
    """The trivial character: 1 on every class."""
    return from_values(group, [1] * len(group.classes))


def zero(group: FiniteGroup) -> ClassFunction:
    """The zero class function."""
    return from_values(group, [0] * len(group.classes))


def regular(group: FiniteGroup) -> ClassFunction:
    """The regular character: |G| at the identity, 0 elsewhere."""
    vals = [0] * len(group.classes)
    vals[group.class_of[group.identity]] = group.order
    return from_values(group, vals)


def inner_product(chi: ClassFunction, psi: ClassFunction,
                  subgroup: Optional[Subgroup] = None) -> Fraction:
    """<chi, psi> averaged over a subgroup (default: the whole group)."""
    if chi.group is not psi.group:
        raise ValueError("class functions live on different groups")
    G = chi.group
    if subgroup is None:
        counts = G.class_sizes
        size = G.order
    else:
        if subgroup.parent is not G:
            raise ValueError("subgroup of a different group")
        counts = subgroup.class_counts
        size = subgroup.size
    total = cyclo_zero()
    for c, cnt in enumerate(counts):
        if cnt:
            total = total + (chi.values[c] * cyclo_conjugate(psi.values[c])).scale(cnt)
    return rational_value(total) / size


def as_group(subgroup: Subgroup):
    """The subgroup as a standalone FiniteGroup plus the embedding map.

    Returns (group, embed) where embed[i] is the parent index of the
    subgroup's element i, with the parent identity at slot 0.
    """
    parent = subgroup.parent
    embed = list(subgroup.elements)
    embed.remove(parent.identity)
    embed.insert(0, parent.identity)
    pos = {g: i for i, g in enumerate(embed)}
    table = [[pos[parent.table[a][b]] for b in embed] for a in embed]
    return FiniteGroup(table, name=f"{parent.name}|H{subgroup.size}"), tuple(embed)


def restrict(chi: ClassFunction, subgroup: Subgroup) -> ClassFunction:
    """Restriction, re-indexed to the subgroup's own conjugacy classes."""
    G = chi.group
    if subgroup.parent is not G:
        raise ValueError("subgroup of a different group")
    S, embed = as_group(subgroup)
    return from_values(S, [chi.values[G.class_of[embed[rep]]] for rep in S.class_reps])


def frobenius_schur(psi: ClassFunction) -> int:
    """Indicator (1/|G|) sum psi(g^2), as a CycloNum sum over the classes;
    requires an irreducible input."""
    if inner_product(psi, psi) != 1:
        raise PreconditionError("Frobenius-Schur indicator needs an irreducible character")
    G = psi.group
    total = cyclo_zero()
    for c, size in enumerate(G.class_sizes):
        total = total + psi.values[G.class_power(c, 2)].scale(size)
    if not total.is_rational():
        raise PreconditionError("Frobenius-Schur sum is not rational")
    ind = rational_value(total) / G.order
    assert ind in (-1, 0, 1)
    return int(ind)


def is_rational_charpoly(chi: ClassFunction) -> bool:
    """True iff chi(g^k) = chi(g) for all g and k coprime to ord(g): every
    tau(g) then has a rational characteristic polynomial."""
    G = chi.group
    for c in range(len(G.classes)):
        n = G.class_orders[c]
        base = chi.values[c]
        for k in range(2, n):
            if gcd(k, n) == 1 and chi.values[G.class_power(c, k)] != base:
                return False
    return True


def is_symplectic(chi: ClassFunction) -> bool:
    """Whether chi carries an invariant non-degenerate alternating form,
    from class values and no residue: the multiplicities of chi by
    `multiplicities`, each irreducible's type by `frobenius_schur` and its
    dual by `dual`.  Orthogonal-type irreducibles must occur
    an even number of times, complex-type ones as often as their dual.
    False when chi is not a character."""
    T = character_table(chi.group)
    try:
        mults = T.multiplicities(chi)
    except PreconditionError:
        return False
    irr = T.irreducibles
    for psi, m in zip(irr, mults):
        kind = frobenius_schur(psi)
        if kind == 1 and m % 2:
            return False
        if kind == 0:
            psi_dual = dual(psi)
            if m != next(n for phi, n in zip(irr, mults) if phi == psi_dual):
                return False
    return True


# -- conductor terms by level, the wild part, and other test-only readings -----------


def nonfixed_dim(tau: ClassFunction, filt: Filtration, i: int) -> int:
    """Codimension of the G_i-fixed subspace in tau."""
    if not 0 <= i < len(filt):
        raise IndexError(f"filtration level {i} out of range")
    return tau.dim - fixed_dim(tau, filt[i])


def tensor_fixed_excess(tau: ClassFunction, sigma: ClassFunction,
                        filt: Filtration, i: int) -> int:
    """Growth of the fixed space under tensor product at level i."""
    if not 0 <= i < len(filt):
        raise IndexError(f"filtration level {i} out of range")
    H = filt[i]
    return fixed_dim(tau * sigma, H) - fixed_dim(tau, H) * fixed_dim(sigma, H)


def swan(model: CorpusChain, sigma: ClassFunction) -> Fraction:
    """Conductor over the shifted chain (G_1, G_2, ...): the wild part."""
    return conductor_exponent(sigma, model.filtration) - nonfixed_dim(sigma, model.filtration, 0)


def report_json(report: ConductorReport) -> dict:
    doc = {"level_terms": list(report.level_terms),
           "indices": list(report.indices),
           "total": str(report.total)}
    if report.excess_terms is not None:
        doc["excess_terms"] = list(report.excess_terms)
        doc["excess_total"] = str(report.excess_total)
    return doc


def corpus_entry(corpus: Corpus, name: str) -> CorpusEntry:
    for e in corpus.entries:
        if e.name == name:
            return e
    raise CorpusError(f"no corpus entry named {name!r}")


def gen_character(group: FiniteGroup, seed, budget: int) -> ClassFunction:
    """Random nonnegative integer combination of irreducibles, dim <= budget."""
    T = character_table(group)
    return T.assemble(gen_character_mults(T, seed, budget))


def chain_on(G: FiniteGroup, gens, p: Optional[int] = None) -> CorpusChain:
    """The chain of G that the generator lists give; with a residue
    characteristic p, an inertia model (checked as a document's would be)."""
    gens = tuple(map(tuple, gens))
    return CorpusChain("test", "model", gens, filtration_from_generators(G, gens), p)


def gen_abvar(model: CorpusChain, seed, **kwargs) -> AbVarDatum:
    """Seeded random valid abelian-variety datum over the model (see
    `suites.gen_abvar_mults` for the options)."""
    return abvar_datum(model, gen_abvar_mults(model.table, seed, **kwargs), "abvar")


def abvar_parts(A: AbVarDatum) -> tuple:
    """The datum's tau and sigma, its blocks of sizes 1 and 2 (zero if absent)."""
    T = A.model.table
    by_size = {n: s for s, n in A.blocks}
    return tuple(by_size.get(n, T.assemble([0] * len(T))) for n in (1, 2))


def gen_semistable(model: CorpusChain, seed) -> AbVarDatum:
    """Random semistable datum: tau = 2m copies of trivial, sigma = n copies."""
    return abvar_datum(model, gen_semistable_mults(model.table, seed), "abvar")
