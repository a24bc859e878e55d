"""Independent test oracles.

Matrix representations with exact cyclotomic entries give a second route to
character values and fixed-space dimensions (averaging projectors); a
dict-based root-of-unity expansion gives a second route to cyclotomic
products; counting all |G|^2 products gives a second route to the class
algebra matrices; adding products of members until none is new gives a
second route to generated subgroups.  Nothing here reuses the code paths
under test: matrices know nothing about class functions, the expansion
oracle never multiplies CycloNums, the product count never looks at class
representatives, and the closure never searches words in the generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from tensorcond.cyclo import CycloNum
from tensorcond.groups import FiniteGroup, Subgroup


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
                acc = CycloNum.zero()
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
        acc = CycloNum.zero()
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
        acc = ExactMatrix([[CycloNum.zero()] * n for _ in range(n)])
        for h in subgroup.elements:
            acc = acc + self.matrices[h]
        tr = acc.scale(Fraction(1, subgroup.size)).trace()
        return tr.rational_value()


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
    z4 = CycloNum.root_of_unity(4)
    zero, one = CycloNum.zero(4), CycloNum.one(4)
    mat_i = ExactMatrix([[z4, zero], [zero, -z4]])
    mat_j = ExactMatrix([[zero, one], [-one, zero]])
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
    acc = CycloNum.zero(N)
    for k, c in sorted(d.items()):
        acc = acc + CycloNum.root_of_unity(N, k).scale(c)
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


# -- subgroup oracle -----------------------------------------------------------------


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
