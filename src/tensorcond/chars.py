"""Class functions, characters, and character tables over exact cyclotomics.

Representations are modelled by their characters only; every quantity the
package computes (conductor terms, degrees, fixed spaces) is a character
average.  Tables are found by the Dixon-Schneider method over F_q, q the
smallest prime > max(|G|, 2) with q = 1 mod e = exponent(G): Krylov
projections of the identity class vector split it into the central
characters (Dixon, Numer. Math. 10, 1967; Schneider, J. Symb. Comput. 9,
1990).  A class matrix is built when its class is reached, smallest class
first, and held sparse, as each row's nonzero (column, count) pairs; a
piece is formed from the nonzero entries of its Krylov vectors, and a
piece that is already an eigenvector costs one product.  Once the small
classes stall (`_joint_eigenvectors`), one combination of the classes left,
with seeded coefficients, separates what they would.  The central
characters are lifted to the table's one datum: the eigenvalue form of
each irreducible psi at each class c, the sorted terms (a, m) saying that
zeta_e^a is an eigenvalue of rho(g), g in c, with multiplicity m > 0: its
exponent form.  A linear character's value mod q is one e-th root of
unity w^a, its exponent a read from a table of logarithms; any other
character's forms come from one inverse DFT per class that is not a power
of a class of higher order.  One prime is enough: q does not divide |G|
and F_q holds the e-th roots of unity, so F_q splits the class algebra
(`character_table`).

`CharacterTable(group, forms, modulus)` certifies its forms, reading them
alone: (a) there are r forms, their degrees' squares sum to |G|, and each
form at c is deg psi roots of unity of order dividing ord(c), its
exponents strictly increasing, so no two terms name one root; (b) psi(g^k)
= sigma_k(psi(g)) as multisets, for units k generating the units mod e;
(c) the Gram matrix S_ij = sum_c |c| psi_i(c) psi_j(c^-1) is |G| I mod q;
(d) S_ii = |G| mod q', the next table prime.  By (b) and the class
permutations c -> c^k, each S_ij is a Galois-fixed algebraic integer, so a
rational integer, and psi(c^-1) is the conjugate of psi(c) (k = -1).
|psi(c)| <= deg psi, so 0 <= S_ii <= |G| deg^2 <= |G|^2 and |S_ii - |G||
< q q': (c) and (d) give S_ii = |G|.  By Cauchy-Schwarz |S_ij| <= |G| < q,
so (c) gives S_ij = 0 for i != j: the class values are orthonormal, and
exact, without any exact sum.  The table's residues are the forms mod q.

A class function is held, and built, as its exponent form: per class, the
terms (k, c) of its value sum_k c zeta_e^k in Z[x]/(x^e - 1), e = exponent(G),
as every eigenvalue of rho(g) is an e-th root of unity.  As x -> zeta_e is a
ring map from there onto Z[zeta_e], products convolve a class's terms mod
x^e - 1, a dual permutes the rows, and the averages (`dim`, `fixed_dim`,
`CharacterTable.multiplicities`) sum terms into one integer list, reduced
mod Phi_e if a non-constant term is left, and divide by |G| in integers.
A value's power-basis coefficients are reduced from its terms only when
read (`power_basis`): `table` reads each distinct (class order, terms) of a
table once, and `values` (the `CycloNum`s that equality compares) every
class.  Sums, scalings, duals and class functions built from values are
the test oracles' (`tests/oracles.py`).

A `Character` is a class function held as its multiplicity vector over a
table: the irreducibles are the unit vectors, and
`CharacterTable.assemble` returns any other; the form of either, the
vector's sum of the eigenvalue forms, is taken when first read and kept, as
a class function's `values` are: both are cached properties.  The kernels
take `Character`s and never decompose (`CharacterTable.own`).  The table holds
what it derives from its residues, each part taken when first read and kept as
long as the table: for the kernels of `weildeligne` and `filtration`, the
structure constants, the Frobenius-Schur indicators and the symplectic,
self-dual and rational criteria; for the samplers of `suites`, the minimal
characters they sum.  Fixed dimensions it answers on request (`fixed_dims`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import mul
from typing import List, Sequence, Tuple

from .cyclo import CycloNum, euler_phi, reduce_mod_phi
from .errors import PreconditionError, TableComputationError
from .groups import FiniteGroup, Subgroup, closure, is_prime


class ClassFunction:
    """A function on conjugacy classes, held as its exponent form `form`
    (module docstring): per class, the terms (k, c) of its value over
    x^e - 1, e the group exponent.  `values`, a cached property, is read
    off `form` when first read and kept."""

    def __init__(self, group: FiniteGroup, rows):
        self.group = group
        self.form = tuple(rows)

    @cached_property
    def values(self):
        G = self.group
        return tuple(CycloNum(*power_basis(G.exponent, n, terms))
                     for n, terms in zip(G.class_orders, self.form))

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        """Class by class: the terms' product convolved mod x^e - 1."""
        if self.group is not other.group:
            raise ValueError("class functions live on different groups")
        e = self.group.exponent
        return ClassFunction(self.group, (
            _combine(((k, c, b) for k, c in a), e) for a, b in zip(self.form, other.form)))

    @property
    def dim(self) -> int:
        """The value at the identity, as the average over the trivial subgroup."""
        G = self.group
        return _average(G.exponent, [(1, self.form[G.class_of[G.identity]])], 1,
                        "the value at the identity")

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.group is other.group and all(
            a == b for a, b in zip(self.values, other.values))

    __hash__ = None

    def __repr__(self):
        return f"ClassFunction({[str(v) for v in self.values]})"


def power_basis(m: int, order: int, terms) -> Tuple[int, list]:
    """(n, coefficients): the value of the terms over x^m - 1 in the power
    basis of Q(zeta_n), n = order or the least multiple of it they need."""
    step = gcd(m // order, *(k for k, _ in terms))
    acc = [0] * (m // step)
    for k, c in terms:
        acc[k // step] += c
    return m // step, reduce_mod_phi(m // step, acc)


def _combine(parts, m: int) -> Tuple[Tuple[int, int], ...]:
    """The terms of sum w * x^s * terms mod x^m - 1 over the (s, w, terms)
    parts: equal exponents added up, the zero sums dropped."""
    acc = {}
    for s, w, terms in parts:
        for k, c in terms:
            k = (k + s) % m
            acc[k] = acc.get(k, 0) + w * c
    return tuple((k, c) for k, c in acc.items() if c)


def _average(m: int, weighted_rows, size: int, what: str) -> int:
    """The count sum w * value / size over the (w, terms) pairs, summed into
    one integer list over x^m - 1, reduced mod Phi_m if a non-constant term
    is left.  PreconditionError unless it is a nonnegative integer."""
    acc = [0] * m
    for w, terms in weighted_rows:
        if w:
            for k, c in terms:
                acc[k] += w * c
    if any(acc[1:]):
        acc = reduce_mod_phi(m, acc)
        if any(acc[1:]):
            raise PreconditionError(f"{what} is not rational")
    avg, rem = divmod(acc[0], size)
    if rem or avg < 0:
        raise PreconditionError(f"{what} is {Fraction(acc[0], size)}, not a nonnegative integer")
    return avg


def fixed_dim(chi: ClassFunction, subgroup: Subgroup) -> int:
    """Dimension of the subgroup-fixed subspace, <Res chi, 1>."""
    if subgroup.parent is not chi.group:
        raise ValueError("subgroup of a different group")
    return _average(chi.group.exponent, zip(subgroup.class_counts, chi.form), subgroup.size,
                    "fixed-space average")


class Character(ClassFunction):
    """A character held as its multiplicity vector over a character table.

    The exponent form `form`, a cached property, is the vector's sum of the
    table's eigenvalue forms, taken when first read and kept; `values` is
    read off it as for any class function.  `dim`, `scale`, `is_zero` and
    equality with another character of the table read the vector only.  The
    vector may be virtual (negative entries); `CharacterTable.own` refuses
    such a one.
    """

    def __init__(self, table: "CharacterTable", mults: Sequence[int]):
        self.group = table.group
        self.table = table
        self.mults = tuple(mults)

    @cached_property
    def form(self):
        e, orders = self.group.exponent, self.group.class_orders
        used = [(a, form) for a, form in zip(self.mults, self.table.forms) if a]
        # an irreducible's terms are its eigenvalue form's, already collected
        own = used[0][1] if len(used) == 1 and used[0][0] == 1 else None
        phi = {n: euler_phi(n) for n in set(orders)}
        rows = []
        for c, n in enumerate(orders):
            terms = own[c] if own else _combine(((0, a, form[c]) for a, form in used), e)
            if len(terms) > phi[n]:  # reduced mod Phi_n, n = ord(c)
                terms = tuple((j * (e // n), x) for j, x in enumerate(power_basis(e, n, terms)[1]) if x)
            rows.append(terms)
        return tuple(rows)

    @property
    def dim(self) -> int:
        return sum(map(mul, self.mults, self.table.degrees))

    def is_zero(self) -> bool:
        return not any(self.mults)

    def scale(self, n: int) -> "Character":
        return Character(self.table, [n * m for m in self.mults])

    def __eq__(self, other):
        if isinstance(other, Character) and other.table is self.table:
            return self.mults == other.mults
        return ClassFunction.__eq__(self, other)

    __hash__ = None


# -- character table ---------------------------------------------------------


class CharacterTable:
    """The irreducible characters of a group, in a fixed order, from certified forms."""

    def __init__(self, group: FiniteGroup, forms: Sequence[Sequence[Sequence[Tuple[int, int]]]],
                 modulus: int):
        self.group = group
        # per irreducible and class c, the eigenvalue form of rho(g), g in
        # c: the sorted (a, m) with m the multiplicity of the eigenvalue
        # zeta_e^a, e the group exponent
        self.forms = tuple(tuple(map(tuple, form)) for form in forms)
        r = len(self.forms)
        zeros = (0,) * r
        self.irreducibles = tuple(Character(self, zeros[:i] + (1,) + zeros[i + 1:])
                                  for i in range(r))
        one = group.class_of[group.identity]
        self.degrees = tuple(sum(m for _, m in form[one]) for form in self.forms)
        self.modulus = modulus
        self._moves = _galois_moves(group)  # read by check (b) and `galois_orbits`
        # the forms' values in F_q, zeta_e -> w (`_certified_residues`).  Rows
        # of distinct irreducibles are orthogonal in F_q, |G| < q, so they
        # differ: the dual, the Galois conjugates and the trivial character
        # are looked up by their (class-permuted) rows.  Fixed dimensions and
        # structure constants are integers in [0, q), averaged in F_q.
        self.residues = _certified_residues(group, self.forms, self.degrees, modulus, self._moves)
        self._row_index = {row: i for i, row in enumerate(self.residues)}
        # filled on first use only: [i][j] -> nonzero (k, N_ij^k)
        self._products = [[None] * r for _ in range(r)]

    def __len__(self):
        return len(self.irreducibles)

    def multiplicities(self, chi: ClassFunction) -> Tuple[int, ...]:
        """Decompose a character, each multiplicity the average of chi *
        dual(psi_i) over G, the dual's rows psi_i's at the inverse classes;
        error on negative or fractional parts."""
        if chi.group is not self.group:
            raise ValueError("class functions live on different groups")
        G = self.group
        prods = [(chi * ClassFunction(G, [psi.form[c] for c in G.inverse_class])).form
                 for psi in self.irreducibles]
        return tuple(_average(G.exponent, zip(G.class_sizes, rows), G.order, f"<chi, psi_{i}>")
                     for i, rows in enumerate(prods))

    def assemble(self, mults: Sequence[int]) -> Character:
        """The class function sum_i mults[i] psi_i, kept as its vector."""
        if len(mults) != len(self.irreducibles):
            raise ValueError("one multiplicity per irreducible required")
        return Character(self, mults)

    def own(self, chi: ClassFunction) -> Character:
        """chi, checked to be a Character of this table, never decomposed:
        anything else, or a virtual vector, is refused with PreconditionError."""
        if not (isinstance(chi, Character) and chi.table is self):
            raise PreconditionError(f"expected a Character of the table of {self.group.name}")
        if any(m < 0 for m in chi.mults):
            raise PreconditionError(f"multiplicity vector {list(chi.mults)} has a negative entry")
        return chi

    # -- the integer kernel: caches and criteria on multiplicity vectors ------

    def fixed_dims(self, subgroup: Subgroup) -> Tuple[int, ...]:
        """f_i(H) = dim psi_i^H <= deg psi_i < q for every irreducible, as
        an average of residues in F_q; a chain keeps its levels' (`kernel_rows`)."""
        if subgroup.parent is not self.group:
            raise ValueError("subgroup of a different group")
        q = self.modulus
        inv_size = pow(subgroup.size, -1, q)
        counts = subgroup.class_counts
        return tuple(sum(map(mul, counts, row)) * inv_size % q for row in self.residues)

    def tensor_mults(self, m1: Sequence[int], m2: Sequence[int]) -> List[int]:
        """The multiplicity vector of the product of two characters, from
        the structure constants N_ij^k (`structure_constants`), each pair's
        taken the first time it is needed."""
        r = len(self.irreducibles)
        right = [(j, b) for j, b in enumerate(m2) if b]
        out = [0] * r
        for i, a in enumerate(m1):
            if not a:
                continue
            row = self._products[i]
            for j, b in right:
                terms = row[j]
                if terms is None:
                    terms = row[j] = self._products[j][i] = self.structure_constants(i, j)
                ab = a * b
                for k, n in terms:
                    out[k] += ab * n
        return out

    def structure_constants(self, i: int, j: int) -> Tuple[Tuple[int, int], ...]:
        """The nonzero N_ij^k = <psi_i psi_j, psi_k>, that is
        multiplicities(psi_i * psi_j), as (k, N_ij^k) pairs.

        Each N_ij^k is an integer in [0, q): at most deg psi_i deg psi_j <=
        |G| < q, q the table's prime.  So the average can be taken in F_q
        from the residues, and its residue is the integer itself.
        """
        q = self.modulus
        G = self.group
        rows = self.residues
        prod = [size * a * b % q for size, a, b in zip(G.class_sizes, rows[i], rows[j])]
        # sum_c prod(c) psi_k(c^-1) = sum_c prod(c^-1) psi_k(c)
        prod = [prod[c] for c in G.inverse_class]
        inv_order = pow(G.order, -1, q)
        terms = []
        for k, row in enumerate(rows):
            n = sum(map(mul, prod, row)) * inv_order % q
            if n:
                terms.append((k, n))
        return tuple(terms)

    def is_symplectic_mults(self, mults: Sequence[int]) -> bool:
        """Whether the character carries an invariant non-degenerate
        alternating form: orthogonal-type irreducibles must occur with even
        multiplicity, complex-type ones with the same multiplicity as their
        dual; quaternionic-type ones are unconstrained."""
        fs = self.fs_indicators
        dual_ix = self.dual_index
        for i, m in enumerate(mults):
            if fs[i] == 1 and m % 2:
                return False
            if fs[i] == 0 and m != mults[dual_ix[i]]:
                return False
        return True

    def is_self_dual_mults(self, mults: Sequence[int]) -> bool:
        """Whether the character equals its dual: the vector is fixed by the
        dual permutation of the irreducibles."""
        return all(m == mults[j] for m, j in zip(mults, self.dual_index))

    def is_rational_mults(self, mults: Sequence[int]) -> bool:
        """Whether the character's values are rational, equivalently (by
        Newton's identities) its characteristic polynomials: the vector is
        constant on each Galois orbit of irreducibles."""
        return all(len({mults[i] for i in orbit}) == 1 for orbit in self.galois_orbits)

    @cached_property
    def dual_index(self) -> Tuple[int, ...]:
        inv = self.group.inverse_class
        return tuple(self._row_index[tuple(row[c] for c in inv)] for row in self.residues)

    @cached_property
    def fs_indicators(self) -> Tuple[int, ...]:
        """nu_i = |G|^-1 sum_c |c| psi_i(c^2), taken in F_q from the residues:
        the rows were proved irreducible when the table was built, so nu_i is
        -1, 0 or 1, and q > 2 tells them apart (-1 is q - 1)."""
        G = self.group
        q = self.modulus
        squares = [G.class_power(c, 2) for c in range(len(G.classes))]
        inv_order = pow(G.order, -1, q)
        fs = []
        for row in self.residues:
            nu = sum(size * row[c] for size, c in zip(G.class_sizes, squares)) * inv_order % q
            assert nu in (0, 1, q - 1)
            fs.append(-1 if nu == q - 1 else nu)
        return tuple(fs)

    @cached_property
    def galois_orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Partition of irreducible indices under value-field conjugation,
        psi(g^k) = sigma_k(psi(g)) for k prime to e: the closures under the
        class permutations of `_galois_moves`."""
        moves = [[self._row_index[tuple(row[c] for c in perm)] for row in self.residues]
                 for _, perm in self._moves]
        seen = set()
        orbits = []
        for i in range(len(self)):
            if i not in seen:
                orbit = closure(i, lambda x: (move[x] for move in moves))
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

    # -- the samplers' atoms: minimal characters as (multiplicity vector, dim)

    @cached_property
    def irreducible_atoms(self) -> tuple:
        """The irreducibles as (multiplicity vector, dim)."""
        return tuple((psi.mults, d) for psi, d in zip(self.irreducibles, self.degrees))

    @cached_property
    def symplectic_atoms(self) -> tuple:
        """Minimal symplectic building blocks as (multiplicity vector, dim)."""
        fs = self.fs_indicators
        dual_ix = self.dual_index
        r = len(self)
        atoms = []
        for i in range(r):
            vec = [0] * r
            if fs[i] == -1:
                vec[i] = 1
                atoms.append((tuple(vec), self.degrees[i]))
            elif fs[i] == 1:
                vec[i] = 2
                atoms.append((tuple(vec), 2 * self.degrees[i]))
            elif i <= dual_ix[i]:
                vec[i] += 1
                vec[dual_ix[i]] += 1
                atoms.append((tuple(vec), 2 * self.degrees[i]))
        return tuple(atoms)

    @cached_property
    def rational_atoms(self) -> tuple:
        """Galois-orbit sums: the minimal characters with all-rational values."""
        r = len(self)
        return tuple((tuple(int(i in orbit) for i in range(r)), sum(self.degrees[i] for i in orbit))
                     for orbit in self.galois_orbits)

    @cached_property
    def symplectic_rational_atoms(self) -> tuple:
        """Galois-orbit sums, doubled on orthogonal orbits so that they are
        symplectic as well as rational."""
        return tuple((tuple(2 * m for m in vec), 2 * d) if self.fs_indicators[vec.index(1)] == 1
                     else (vec, d) for vec, d in self.rational_atoms)

    def index_of_trivial(self) -> int:
        return self._row_index[(1,) * len(self.group.classes)]


def _galois_moves(group: FiniteGroup) -> List[Tuple[int, List[int]]]:
    """(k, perm) for units k mod e picked greedily to generate the units mod
    e (at most log2 phi(e) of them), perm the class permutation c -> class
    of g^k: the Galois action on a table is read through these."""
    e = group.exponent
    units = {1}
    gens = []
    for k in range(2, e):
        if k not in units and gcd(k, e) == 1:
            gens.append(k)
            units = closure(1, lambda x: (x * g % e for g in gens))
    r = len(group.classes)
    return [(k, [group.class_power(c, k) for c in range(r)]) for k in gens]


def _power_form(terms, k: int, e: int) -> Tuple[Tuple[int, int], ...]:
    """The eigenvalue form of rho(g^k) from that of rho(g): each eigenvalue
    zeta_e^a becomes zeta_e^(ak mod e); for a unit k this is sigma_k."""
    if len(terms) == 1:
        (a, m), = terms
        return ((a * k % e, m),)
    acc = {}
    for a, m in terms:
        t = a * k % e
        acc[t] = acc.get(t, 0) + m
    return tuple(sorted(acc.items()))


# modular linear algebra helpers, all over F_q for a prime q; a matrix is
# held as each row's nonzero (column, entry) pairs


def _mat_vec(m, v, q):
    out = []
    for row in m:
        if len(row) == 1:  # as every row of the matrix of a central class
            (k, c), = row
            out.append(c * v[k] % q)
        else:
            out.append(sum([c * v[k] for k, c in row]) % q)
    return out


def _poly_roots_mod(coeffs, q, candidates):
    """The candidates in F_q that are roots of a polynomial with ascending
    coefficients, tried until as many as its degree are found."""
    roots = []
    for lam in candidates:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * lam + c) % q
        if acc == 0:
            roots.append(lam)
            if len(roots) == len(coeffs) - 1:
                break
    return roots


def _table_prime(after: int, e: int) -> int:
    """The smallest prime q > max(after, 2), q = 1 mod e: 1 and -1 differ mod q."""
    after = max(after, 2)
    q = after + 1 + (-after) % e
    while not is_prime(q):
        q += e
    return q


@lru_cache(maxsize=None)
def _primitive_root_of_unity(e: int, q: int) -> int:
    """Smallest primitive e-th root of unity in F_q (requires e | q-1)."""
    prime_divs = [p for p in range(2, e + 1) if e % p == 0 and is_prime(p)]
    for w in range(1, q):
        if pow(w, e, q) == 1 and all(pow(w, e // p, q) != 1 for p in prime_divs):
            return w
    raise TableComputationError(f"no primitive {e}-th root of unity mod {q}")


def _root_powers(e: int, q: int) -> List[int]:
    """w^a mod q for a < e, w the table's primitive e-th root of unity mod q."""
    w = _primitive_root_of_unity(e, q)
    out = [1] * e
    for a in range(1, e):
        out[a] = out[a - 1] * w % q
    return out


def _class_matrix(group: FiniteGroup, coeffs):
    """sum_i a_i M_i over the classes i -> a_i of `coeffs`, M_i the class
    algebra matrix (M_i)[j][k] = #{x in K_i : x^-1 z_k in K_j}, z_k the
    representative of class k, that is the number of ways z_k = x y with x
    in K_i and y in K_j.  One product per x and class k."""
    cls = group.class_of
    terms = [(group.table[group.inverses[x]], a)
             for i, a in coeffs.items() for x in group.classes[i]]
    rows = [{} for _ in group.classes]
    for k, z in enumerate(group.class_reps):
        for row, a in terms:
            entries = rows[cls[row[z]]]
            entries[k] = entries.get(k, 0) + a
    return [tuple(entries.items()) for entries in rows]


def _split_piece(mat, candidates, u, q):
    """The projections of u onto the eigenspaces of M that it meets.

    The Krylov vectors u, Mu, ... are reduced until one depends on the
    earlier ones: the dependency is u's minimal polynomial m.  It must have
    deg m distinct roots in F_q, all among `candidates`, and (m/(x - lam))(M) u
    / m'(lam), a combination of the nonzero entries of the Krylov vectors,
    is the projection of u for the root lam."""
    mu = _mat_vec(mat, u, q)
    if u[0]:  # as every piece's is: then u is an eigenvector iff Mu = (Mu)[0]/u[0] u
        lam = mu[0] * pow(u[0], -1, q) % q
        if mu == [lam * x % q for x in u]:
            return [u]
    krylov = [u]
    echelon = []  # (pivot, reduced vector with 1 there, its Krylov combination)
    while True:
        w = krylov[-1]
        combo = [0] * (len(krylov) - 1) + [1]
        for piv, row, rc in echelon:
            f = w[piv]
            if f:
                w = [(a - f * b) % q for a, b in zip(w, row)]
                for t, c in enumerate(rc):
                    combo[t] = (combo[t] - f * c) % q
        if not any(w):
            break
        piv = list(map(bool, w)).index(True)
        inv = pow(w[piv], -1, q)
        echelon.append((piv, [x * inv % q for x in w], [c * inv % q for c in combo]))
        krylov.append(mu if len(krylov) == 1 else _mat_vec(mat, krylov[-1], q))
    # sum_t combo[t] M^t u = 0: combo is u's monic minimal polynomial, of degree >= 2
    d = len(combo) - 1
    roots = _poly_roots_mod(combo, q, candidates)
    if len(roots) != d:
        raise TableComputationError("class matrix is not split semisimple mod q")
    support = [[(j, x) for j, x in enumerate(vec) if x] for vec in krylov[:d]]
    pieces = []
    for lam in roots:
        quot = [0] * d  # m / (x - lam), by synthetic division from the top
        quot[-1] = 1
        for t in range(d - 1, 0, -1):
            quot[t - 1] = (combo[t] + lam * quot[t]) % q
        # m'(lam) = (m / (x - lam))(lam), by Horner
        slope = 0
        for c in reversed(quot):
            slope = (slope * lam + c) % q
        piece = [0] * len(u)
        for c, entries in zip(quot, support):
            if c:
                for j, x in entries:
                    piece[j] += c * x
        inv = pow(slope, -1, q)
        pieces.append([x * inv % q for x in piece])
    return pieces


def _split_all(mat, candidates, pieces, q: int, order: int):
    """Every piece split by M (`_split_piece`), the pieces that must hold
    two or more characters first, stopping once there are r."""
    def key(u):
        # u is the projection of the identity class vector onto the
        # eigenspaces of a set S of characters, so |G| u[0] = sum_S chi(1)^2
        # < q exactly: S has two or more characters unless it is a square
        n = order * u[0] % q
        return isqrt(n) ** 2 == n, -n
    pieces = sorted(pieces, key=key)
    r = len(pieces[0])
    out = []
    for t, u in enumerate(pieces):
        if len(out) + len(pieces) - t == r:
            return out + pieces[t:]
        out += _split_piece(mat, candidates, u, q)
    return out


# a run of this many class matrices that split no piece is a stall of the
# split (`_joint_eigenvectors`)
STALL_RUN = 4


def _rng(tag: str, seed) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _joint_eigenvectors(group: FiniteGroup, q: int):
    """The r central characters mod q, normalised to first coordinate 1.

    The identity class vector is sum_chi (chi(1)^2/|G|) omega_chi, each
    coefficient a unit mod q > |G|, so a piece of the split is held as its
    projection onto a sum of eigenspaces.  Class matrices, smallest class
    first and each built when reached, split the pieces until there are r.

    A stall is STALL_RUN matrices in a row that split nothing, with at
    least r/2 pieces found, so that every piece left joined is small.
    After one, the classes left are taken at once: one combination of their
    matrices with seeded coefficients, dense but applied only until there
    are r pieces, separates every two characters that differ on them unless
    the coefficients are a root of one of finitely many linear forms mod q.
    Then the classes are taken one by one again, so the split ends, with
    the same vectors, however the coefficients fall."""
    r = len(group.classes)
    pieces = [[1] + [0] * (r - 1)]  # the identity class comes first
    rest = sorted(range(1, r), key=group.class_sizes.__getitem__)
    unity = {}  # n -> the n-th roots of unity in F_q
    run = 0
    while len(pieces) < r and rest:
        if run >= STALL_RUN and 2 * len(pieces) >= r:
            rng = _rng("split", q)
            split = _split_all(_class_matrix(group, {i: rng.randrange(1, q) for i in rest}),
                               range(q), pieces, q, group.order)
            run = 0
        else:
            i = rest.pop(0)
            candidates = range(q)
            if group.class_sizes[i] == 1:
                # z central of order n: M^n = 1, so M's eigenvalues are
                # n-th roots of unity
                n = group.class_orders[i]
                if n not in unity:
                    unity[n] = [x for x in range(q) if pow(x, n, q) == 1]
                candidates = unity[n]
            split = _split_all(_class_matrix(group, {i: 1}), candidates, pieces, q, group.order)
            run = run + 1 if len(split) == len(pieces) else 0
        pieces = split
    vectors = []
    for v in pieces:
        if v[0] == 0:
            raise TableComputationError("eigenvector with vanishing identity coordinate")
        inv = pow(v[0], -1, q)
        vectors.append([x * inv % q for x in v])
    return vectors


def _dft_plan(group: FiniteGroup, q: int):
    """Per DFT class of `_lift_table`, taken by decreasing element order:
    the classes of g^k, the DFT matrix zeta_n^(-jk), n = ord(g), e/n, 1/n
    mod q, and the power classes it reaches first, with their k."""
    r, e = len(group.classes), group.exponent
    wpow = _root_powers(e, q)
    orders = group.class_orders
    dft_mats = {}
    plan = []
    reached = [False] * r
    for c in sorted(range(r), key=lambda c: -orders[c]):
        if reached[c]:
            continue
        n = orders[c]
        if n not in dft_mats:
            zinv = [wpow[-t * (e // n) % e] for t in range(n)]  # zeta_n^(-t)
            dft_mats[n] = [[zinv[j * k % n] for k in range(n)] for j in range(n)]
        powers = [group.class_power(c, k) for k in range(n)]
        moves = []
        for k, ck in enumerate(powers):
            if not reached[ck]:
                reached[ck] = True
                moves.append((ck, k))
        plan.append((powers, dft_mats[n], e // n, pow(n, -1, q), moves))
    return plan


def _lift_table(group: FiniteGroup, vectors, q):
    """Recover the irreducibles' eigenvalue forms from the mod-q central
    characters, ordered by degree and then by central character.

    The eigenvalue multiplicities m_j of rho(g) come from an inverse DFT
    over the values at g^k, k < n = ord(g), stopped once they sum to the
    degree (the table's certificate checks the sum); those of rho(g^k) are
    the same multiplicities moved from zeta_n^j to zeta_n^(jk).  So the
    classes are taken by decreasing element order, and a DFT is run only
    for a class that is not a power of one taken before (`_dft_plan`, made
    for the first character of degree above 1).  A linear character's
    value is itself one root of unity w^a, its exponent read from a table
    of logarithms (e, which the certificate refuses, where there is none)."""
    e = group.exponent
    inv_class = group.inverse_class
    size_inv = [pow(size, -1, q) for size in group.class_sizes]
    log = {w: a for a, w in enumerate(_root_powers(e, q))}
    plan = None
    rows = []
    for v in vectors:
        # |G|/s = deg^2 mod q, and deg^2 <= |G| < q: the residue is deg^2
        s = sum(map(mul, map(mul, v, map(v.__getitem__, inv_class)), size_inv)) % q
        square = group.order * pow(s, -1, q) % q
        deg = isqrt(square)
        if deg * deg != square or square > group.order:
            raise TableComputationError("no admissible degree for an eigenvector")
        # character values mod q
        x = [deg * a * b % q for a, b in zip(v, size_inv)]
        if deg == 1:
            rows.append((deg, v, [((log.get(xc, e), 1),) for xc in x]))
            continue
        if plan is None:
            plan = _dft_plan(group, q)
        form = [None] * len(x)
        for powers, dft, step, ninv, moves in plan:
            xs = [x[c] for c in powers]
            terms = []
            left = deg
            for j, zrow in enumerate(dft):
                m = sum(map(mul, xs, zrow)) * ninv % q
                if m:
                    terms.append((j * step, m))
                    left -= m
                    if not left:
                        break
            for ck, k in moves:
                form[ck] = _power_form(terms, k, e)
        rows.append((deg, v, form))
    rows.sort(key=lambda t: (t[0], t[1]))
    return [row[2] for row in rows]


def _certified_residues(group: FiniteGroup, forms, degrees, q: int,
                        moves) -> Tuple[Tuple[int, ...], ...]:
    """The forms' values mod q, zeta_e -> w, once checks (a) - (d) of the
    module docstring hold, (b) for the units of `moves` (`_galois_moves`);
    the first that fails raises TableComputationError."""
    e, order, r = group.exponent, group.order, len(group.classes)
    if len(forms) != r:  # (a)
        raise TableComputationError(f"found {len(forms)} irreducibles, expected {r}")
    n = sum(d ** 2 for d in degrees)
    if n != order:
        raise TableComputationError(f"degree squares sum to {n}, not {order}")
    steps = [e // n for n in group.class_orders]
    sizes, inv = group.class_sizes, group.inverse_class
    # per class c, the (k, class of g^k) of each unit k of `moves`
    images = [[(k, perm[c]) for k, perm in moves] for c in range(r)]
    q2 = _table_prime(q, e)
    wq, wq2 = _root_powers(e, q), _root_powers(e, q2)
    reduced = []
    for i, (form, deg) in enumerate(zip(forms, degrees)):
        row, row2 = [], []
        for c, (terms, step, units) in enumerate(zip(form, steps, images)):
            # deg roots of unity of the class's order, so |psi(c)| <= deg
            total = v = v2 = 0
            prev = -1  # the exponents increase strictly: the form is collected
            for a, m in terms:
                if m <= 0 or a % step or not prev < a < e:
                    total = None  # no degree, not even a negative one
                    break
                prev = a
                total += m
                v += m * wq[a]
                v2 += m * wq2[a]
            if total != deg:
                raise TableComputationError(
                    f"irreducible {i} at class {c} is not {deg} roots of unity of its order")
            # (b) psi(g^k) = sigma_k(psi(g)) on the multisets
            for k, ck in units:
                if form[ck] != _power_form(terms, k, e):
                    raise TableComputationError(
                        f"Galois condition fails for irreducible {i} at class {c}, unit {k}")
            row.append(v % q)
            row2.append(v2 % q2)
        # (d) S_ii = sum_c |c| psi_i(c) psi_i(c^-1) = |G| mod the next table prime
        s = sum(map(mul, map(mul, sizes, map(row2.__getitem__, inv)), row2)) % q2
        if s != order % q2:
            raise TableComputationError(f"norm of irreducible {i} is {s} mod {q2}, not |G|")
        reduced.append(tuple(row))
    # (c) S_ij = |G| delta_ij mod q
    right = [[size * row[c] for size, c in zip(sizes, inv)] for row in reduced]
    for i, row in enumerate(reduced):
        gram = [sum(map(mul, row, col)) % q for col in right[i:]]  # S_ii, S_i,i+1, ...
        want = [order % q] + [0] * (len(gram) - 1)
        if gram != want:
            j = next(j for j, (s, t) in enumerate(zip(gram, want)) if s != t)
            raise TableComputationError(f"orthogonality fails at ({i},{i + j}): {gram[j]} mod {q}")
    return tuple(reduced)


def character_table(group: FiniteGroup) -> CharacterTable:
    """Complete irreducible character table (cached on the group), built at
    the smallest table prime q = `_table_prime(|G|, e)`: q > |G| does not
    divide |G|, and F_q holds the e-th roots of unity, so F_q splits the class
    algebra into r distinct central characters, and every step of the split,
    the lift and the certificate succeeds at q.  A TableComputationError
    there is a defect, which a retry at another prime could only hide."""
    if group._char_table is None:
        q = _table_prime(group.order, group.exponent)
        forms = _lift_table(group, _joint_eigenvectors(group, q), q)
        group._char_table = CharacterTable(group, forms, q)
    return group._char_table

