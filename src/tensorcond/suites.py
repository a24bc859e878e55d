"""Seeded property suites over the shipped corpus.

Every suite is a pair: `generate` draws the inputs of item (base seed,
index) as a JSON-ready document (chain references, character multiplicity
vectors, parameters), and `check` evaluates that document exactly to a
verdict and its detail.  A failing item carries the document as its
counterexample; `replay` validates such a document and calls the same
`check`, so a suite's verdict is defined once.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .chars import Character, CharacterTable
from .corpus import ChainReader, Corpus, CorpusChain
from .errors import (MAX_INT_BITS, CorpusError, InputError, PreconditionError,
                     TensorCondError, int_field, is_int, reading, require, shown, sized)
from .filtration import (min_sum_bound, pgroup_tensor_bound, step_class_side,
                         step_kernel_side, symplectic_tensor_bound)
from .globalbound import (GlobalDatum, PrimeLocalPair, PrimeSummary,
                          exponents_json, rankin_selberg_bound, self_tensor_bound_report)
from .groups import is_prime, pgroup_prime
from .jacobians import (disc_valuation, jacobian_chain, p_valuation, sharpness_chain_side,
                        sharpness_disc_side, sharpness_report, smallest_valid_unit,
                        validate_params)
from .weildeligne import (AbVarDatum, LocalPair, conductor_bound, degree_gap,
                          semistable_class_side, semistable_form, semistable_kernel_side,
                          swan_bound, tame_class_side, tame_kernel_side, uniform_bound)

SHARPNESS_PRIMES = (3, 5, 7, 11, 13)


def _seed(suite: str, base_seed: int, index: int, tag: str = "") -> str:
    return f"{suite}:{base_seed}:{index}:{tag}"


# -- document fields (besides the readers of `errors`) -------------------------------


def multiplicity_vector(T: CharacterTable, value, name: str) -> list:
    if not isinstance(value, list) or len(value) != len(T) \
            or not all(is_int(x) and x >= 0 for x in value):
        raise InputError(
            f"{name}: multiplicity vector must list one nonnegative integer "
            f"per irreducible ({len(T)} for this group, in the order printed "
            f"by the table subcommand)")
    for j, x in enumerate(value):
        if x.bit_length() > MAX_INT_BITS:  # a name is formatted for a refusal only
            sized(x, f"{name}[{j}]")
    return value


def abvar_datum(model: CorpusChain, mults, name: str) -> AbVarDatum:
    """The datum with multiplicity vectors {"tau", "sigma"} over the model."""
    T = model.table
    tau, sigma = (multiplicity_vector(T, require(mults, part, f"{name}."),
                                      f"{name}.{part}") for part in ("tau", "sigma"))
    with reading(name):
        return AbVarDatum(model, T.assemble(tau), T.assemble(sigma))


def read_global(doc, chains: ChainReader) -> GlobalDatum:
    """The two dimensions and the prime records of a global document.

    'dimA' and 'dimB' must be at least 1, each record's 'p' a prime that no
    earlier record has, a summary's fields at least 0 ('degA' and 'degB' at
    most twice 'dimA' and 'dimB'), and a full record's A and B, over the model
    that ``chains.model`` reads, of twice those dimensions, with integer conductors.
    """
    dims = {}
    for part in "AB":
        dims[part] = int_field(doc, f"dim{part}")
        if dims[part] < 1:
            raise InputError(f"'dim{part}' must be at least 1, not {shown(dims[part])}")
    records = require(doc, "primes")
    if not isinstance(records, list):
        raise InputError("'primes' must be a list of prime records")
    seen = set()
    out = []
    for j, rec in enumerate(records):
        where = f"primes[{j}]."
        p = int_field(rec, "p", where)
        with reading(f"'{where}p'"):
            prime = is_prime(p)
        if not prime:
            raise InputError(f"'{where}p' must be a prime, not {p}")
        if p in seen:
            raise InputError(f"'{where}p' repeats the prime {p} of an earlier record")
        seen.add(p)
        mode = require(rec, "mode", where)
        if mode == "summary":
            out.append(PrimeSummary(p, *(_summary_field(rec, where, key, dims)
                                         for key in ("vA", "vB", "degA", "degB", "degAB"))))
            continue
        if mode != "full":
            raise InputError(f"'{where}mode' must be summary or full, not {shown(mode)}")
        model = chains.model(require(rec, "model", where), f"{where}model.")
        data = [abvar_datum(model, require(rec, part, where), where + part) for part in "AB"]
        for part, datum in zip("AB", data):
            if datum.dim != 2 * dims[part]:
                raise InputError(f"'{where}{part}' has dimension {datum.dim}, "
                                 f"not 2 * 'dim{part}' = {2 * dims[part]}")
            a = datum.artin_conductor()
            if a.denominator != 1:
                raise InputError(f"'{where}{part}' has conductor exponent {a}, "
                                 f"not an integer")
        out.append(PrimeLocalPair(p, *data))
    return GlobalDatum(dims["A"], dims["B"], tuple(out))


def _summary_field(rec, where: str, key: str, dims: dict) -> int:
    """A summary exponent or degree, at least 0; the degree of A or of B is
    at most its dimension, twice 'dimA' or 'dimB'."""
    value = int_field(rec, key, where)
    part = key[3:] if key in ("degA", "degB") else None
    if value < 0 or part and value > 2 * dims[part]:
        top = f" and at most 2 * 'dim{part}' = {2 * dims[part]}" if part else ""
        raise InputError(f"'{where}{key}' must be at least 0{top}, not {shown(value)}")
    return value


# a document rational: a JSON integer, or a string "p" or "p/q", as the
# suites write them; a part of more digits than 2^MAX_INT_BITS has is
# refused before it is read
_RATIONAL = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*")
_MAX_DIGITS = len(str(2 ** MAX_INT_BITS))


def _rational(value, name: str) -> Fraction:
    """A document rational whose numerator and denominator have at most
    MAX_INT_BITS bits, or an InputError naming the field."""
    if is_int(value):
        return Fraction(sized(value, f"'{name}'"))
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None or match[3] is not None and not match[3].strip("0"):
        raise InputError(f"'{name}' must be an exact rational such as \"3/2\", "
                         f"not {shown(value)}")
    sign, num, den = match[1], match[2].lstrip("0") or "0", (match[3] or "1").lstrip("0")
    x = None if max(len(num), len(den)) > _MAX_DIGITS else Fraction(int(sign + num), int(den))
    if x is None or max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_INT_BITS:
        raise InputError(f"'{name}' is {shown(value)}, more than {MAX_INT_BITS} bits")
    return x


def _rationals(doc, key: str) -> List[Fraction]:
    values = require(doc, key)
    if not isinstance(values, list):
        raise InputError(f"'{key}' must be a list of exact rationals")
    return [_rational(x, f"{key}[{j}]") for j, x in enumerate(values)]


# -- chain references ------------------------------------------------------------

# A check resolves a document's chain references through the ChainReader it
# is given: run_suite_range passes its corpus's, replay a fresh one.


def _chain(chains: ChainReader, doc) -> CorpusChain:
    return chains(require(doc, "chain"), "chain")


def _model(chains: ChainReader, doc) -> CorpusChain:
    chain = _chain(chains, doc)
    if chain.model_p is None:
        raise InputError("missing field 'chain.model_p'")
    return chain


def _char(T: CharacterTable, doc, key: str) -> Character:
    return T.assemble(multiplicity_vector(T, require(doc, key), key))


# -- seeded multiplicity vectors ---------------------------------------------------
#
# Each sampler sums atoms, (multiplicity vector, dim) pairs of one table,
# drawn by a Random seeded from its tag and the item's seed.  The table holds
# its atoms (`CharacterTable.rational_atoms` and the like), so a run draws
# from the same atoms every item.


def _combine_atoms(atoms, rng: random.Random, budget: int, rounds: int,
                   ensure_nonzero: bool = False) -> List[int]:
    """Sum of up to ``rounds`` atoms drawn at random, of total dimension <=
    budget (with ``ensure_nonzero`` the smallest atom if none was drawn)."""
    mults = [0] * len(atoms[0][0])
    dim = 0
    for _ in range(rng.randint(0, rounds)):
        cands = [a for a in atoms if dim + a[1] <= budget]
        if not cands:
            break
        vec, d = rng.choice(cands)
        mults = [m + v for m, v in zip(mults, vec)]
        dim += d
    if dim == 0 and ensure_nonzero:
        vec, d = min(atoms, key=lambda a: a[1])
        mults = [m + v for m, v in zip(mults, vec)]
    return mults


def gen_character_mults(T: CharacterTable, seed, budget: int) -> List[int]:
    """Random nonnegative multiplicity vector over the irreducibles, of
    dimension <= budget."""
    return _combine_atoms(T.irreducible_atoms, random.Random(f"char:{seed}"),
                          budget, budget)


def gen_symplectic_mults(T: CharacterTable, seed, budget: int) -> List[int]:
    """Multiplicity vector of a seeded random symplectic character of total
    dimension <= budget."""
    if budget < 2:
        raise ValueError("symplectic characters need budget >= 2")
    return _combine_atoms(T.symplectic_atoms, random.Random(f"symp:{seed}"),
                          budget, budget, ensure_nonzero=True)


def gen_rational_mults(T: CharacterTable, seed, budget: int) -> List[int]:
    """Multiplicity vector of a seeded random character with rational
    characteristic polynomials."""
    if budget < 1:
        raise ValueError("rational characters need budget >= 1")
    return _combine_atoms(T.rational_atoms, random.Random(f"rat:{seed}"),
                          budget, budget, ensure_nonzero=True)


# -- abelian-variety datum generation ------------------------------------------


def gen_abvar_mults(T: CharacterTable, seed, force_ramified: bool = False,
                    target_dim: Optional[int] = None) -> dict:
    """Multiplicity vectors {"tau", "sigma"} of a seeded random valid
    abelian-variety datum.

    tau is a sum of symplectic-and-rational orbit atoms, sigma a sum of
    orbit atoms (self-dual and rational by construction), so the shape
    invariants hold by design.  With ``target_dim`` the total dimension
    tau + 2 sigma is made exactly that (padding sigma with trivials);
    with ``force_ramified`` tau gets a G_0-nontrivial atom, which makes
    the conductor exponent at least 2.
    """
    rng = random.Random(f"abvar:{seed}")
    tau_atoms = T.symplectic_rational_atoms
    sig_atoms = T.rational_atoms
    triv = T.index_of_trivial()

    if target_dim is None:
        tau_m = _combine_atoms(tau_atoms, rng, 8, 4)
        sig_m = _combine_atoms(sig_atoms, rng, 4, 3)
        if force_ramified and not any(m for i, m in enumerate(tau_m) if i != triv):
            nontrivial = [a for a in tau_atoms
                          if any(m for i, m in enumerate(a[0]) if i != triv)]
            vec, _ = rng.choice(nontrivial)
            tau_m = [m + v for m, v in zip(tau_m, vec)]
    else:
        assert target_dim % 2 == 0 and target_dim >= 2
        # one draw over both kinds: a tau atom costs its dimension, a sigma
        # atom twice its dimension
        r, zeros = len(T), (0,) * len(T)
        mults = _combine_atoms([(vec + zeros, d) for vec, d in tau_atoms]
                               + [(zeros + vec, 2 * d) for vec, d in sig_atoms],
                               rng, target_dim, 6)
        tau_m, sig_m = mults[:r], mults[r:]
        dim = sum(d * (t + 2 * s) for d, t, s in zip(T.degrees, tau_m, sig_m))
        sig_m[triv] += (target_dim - dim) // 2

    return {"tau": tau_m, "sigma": sig_m}


def gen_semistable_mults(T: CharacterTable, seed) -> dict:
    """Semistable vectors: tau = 2m copies of trivial, sigma = n copies,
    m <= 2 and n <= 3."""
    rng = random.Random(f"ss:{seed}")
    tau, sigma = [0] * len(T), [0] * len(T)
    tau[T.index_of_trivial()] = 2 * rng.randint(0, 2)
    sigma[T.index_of_trivial()] = rng.randint(0, 3)
    return {"tau": tau, "sigma": sigma}


# -- individual suites -----------------------------------------------------------
#
# A generator returns an item's input document and the labels its detail
# carries; a check reads the document only through the field helpers above.


def _sides(ok: bool, lhs, rhs) -> Tuple[bool, dict]:
    return ok, {"lhs": str(lhs), "rhs": str(rhs)}


def _pool(pool, kind: str):
    """pool, or a CorpusError naming the kind of chain the corpus lacks."""
    if not pool:
        raise CorpusError(f"the corpus has no {kind}")
    return pool


def _pick(pool, index: int):
    return pool[index % len(pool)]


def _gen_pair(tag: str, gen, pgroup: bool = False):
    """Generator of two vectors drawn by gen, of dimension <= 10, on a
    corpus chain (with pgroup, on a p-group chain, and p)."""
    def generate(corpus, base_seed, i):
        if pgroup:
            p, chain = _pick(_pool(corpus.pgroup_chains(), "chain on a p-group"), i)
        else:
            chain = _pick(_pool(corpus.all_chains(), "chain"), i)
        doc = {"chain": chain.ref(),
               "tau1": gen(chain.table, _seed(tag, base_seed, i, "a"), 10),
               "tau2": gen(chain.table, _seed(tag, base_seed, i, "b"), 10)}
        if pgroup:
            doc["p"] = p
        return doc, {"chain": chain.label}
    return generate


def _pair(doc, chains):
    chain = _chain(chains, doc)
    return _char(chain.table, doc, "tau1"), _char(chain.table, doc, "tau2"), chain


def _check_step_identity(doc, chains):
    """Per-level tensor identity: the product from the structure constants
    on one side, from class values on the other; a side that is short of
    levels is padded with None, and fails."""
    parse, left, right = SIDES["step-identity"]
    args = parse(doc, chains)
    sides = list(zip_longest(left(*args), right(*args)))
    return all(l == r for l, r in sides), {"sides": [[l, r] for l, r in sides]}


def _show_level(doc, detail):
    """The sides at the document's level, else at the first failing one."""
    sides = detail["sides"]
    if "level" not in doc:
        level = next((j for j, (l, r) in enumerate(sides) if l != r), 0)
    elif not 0 <= int_field(doc, "level") < len(sides):
        raise InputError(f"'level' must be a level of the chain, 0 to "
                         f"{len(sides) - 1}, not {shown(doc['level'])}")
    else:
        level = doc["level"]
    return {"lhs": str(sides[level][0]), "rhs": str(sides[level][1])}


def _gen_min_sum(corpus, base_seed, i):
    """Random gap sequences: weighted product sum dominates M times the min."""
    rng = random.Random(_seed("minsum", base_seed, i))
    M = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    n = rng.randint(1, 6)

    def gap_sequence():
        k = rng.randint(0, n)
        incs = sorted((Fraction(rng.randint(0, 8), rng.randint(1, 2))
                       for _ in range(k)), reverse=True)
        return [str(M + inc) for inc in incs] + ["0"] * (n - k)

    a, b = gap_sequence(), gap_sequence()
    d = [str(rng.randint(1, 5)) for _ in range(n)]
    return {"M": str(M), "a": a, "b": b, "d": d}, {}


# a sum of rationals has at most as many bits as its terms' parts together
# (its denominator divides the product of theirs), so min-sum's sequences
# are held to this many bits together: every side prints, and is quick
MAX_SUM_BITS = 32 * MAX_INT_BITS


def _check_min_sum(doc, chains):
    M = _rational(require(doc, "M"), "M")
    a, b, d = (_rationals(doc, key) for key in ("a", "b", "d"))
    bits = sum(x.numerator.bit_length() + x.denominator.bit_length() for x in a + b + d)
    if bits > MAX_SUM_BITS:
        raise InputError(f"'a', 'b' and 'd' hold {bits} bits together, more than {MAX_SUM_BITS}")
    lhs, rhs = min_sum_bound(M, a, b, d)
    return lhs >= rhs, {"M": str(M), "lhs": str(lhs), "rhs": str(rhs)}


def _check_symplectic_bound(doc, chains):
    lhs, rhs = symplectic_tensor_bound(*_pair(doc, chains))
    return _sides(lhs <= rhs, lhs, rhs)


def _check_pgroup_bound(doc, chains):
    lhs, rhs = pgroup_tensor_bound(*_pair(doc, chains), int_field(doc, "p"))
    return _sides(lhs <= rhs, lhs, rhs)


def _gen_gap(tag: str, gen, pgroup: bool = False):
    """Generator of one vector drawn by gen on all the chains of a corpus
    entry (with pgroup, of a p-group entry, and p)."""
    def generate(corpus, base_seed, i):
        if pgroup:
            p, entry = _pick(_pool(corpus.pgroup_entries(), "chain on a p-group"), i)
        else:
            entry = _pick(corpus.entries, i)
        doc = {"chains": [c.ref() for c in entry.chains],
               "tau": gen(entry.chains[0].table, _seed(tag, base_seed, i, "t"), 10)}
        if pgroup:
            doc["p"] = p
        return doc, {"entry": entry.name}
    return generate


def _gaps(doc, chains, p: Optional[int] = None) -> List[int]:
    """Nonfixed dimension of tau on every distinct subgroup of the chains;
    tau must be symplectic, or with p rational on chains on a p-group."""
    refs = require(doc, "chains")
    if not isinstance(refs, list) or not refs:
        raise InputError("'chains' must be a nonempty list of chain references")
    resolved = [chains(ref, f"chains[{j}]") for j, ref in enumerate(refs)]
    G = resolved[0].filtration.parent
    if any(c.filtration.parent is not G for c in resolved):
        raise InputError("'chains' must all lie on one group")
    if p is not None and pgroup_prime(G.order) != p:
        raise PreconditionError(f"'p' is {p}, but {G.name} is not a {p}-group")
    T = resolved[0].table
    tau = _char(T, doc, "tau")
    if p is None and not T.is_symplectic_mults(tau.mults):
        raise PreconditionError("'tau' must be a symplectic character")
    if p is not None and not T.is_rational_mults(tau.mults):
        raise PreconditionError("'tau' must have rational characteristic polynomials")
    fixed = {}  # first occurrence first
    for chain in resolved:
        for H, f in zip(chain.filtration.chain, chain.fixed(tau)):
            fixed.setdefault(H.elements, f)
    return [tau.dim - f for f in fixed.values()]


def _check_symplectic_parity(doc, chains):
    """Symplectic characters have even nonfixed dimension on every subgroup."""
    gaps = _gaps(doc, chains)
    return all(g % 2 == 0 for g in gaps), {"gaps": gaps}


def _check_pgroup_gap(doc, chains):
    """On p-groups, rational characters have nonfixed dim 0 or >= p-1."""
    p = int_field(doc, "p")
    gaps = _gaps(doc, chains, p)
    return all(g == 0 or g >= p - 1 for g in gaps), {"p": p, "gaps": gaps}


def _gen_wd(name: str, nontrivial: bool = False, **gens):
    """Generator over the model chains, with nontrivial over those on a
    nontrivial group (the trivial group has no ramified atom): one datum
    per keyword, drawn by the given vector generator with the keyword as
    its seed tag."""
    def generate(corpus, base_seed, i):
        pool = _pool(corpus.model_chains(), "chain with a model_p")
        if nontrivial:
            pool = _pool([c for c in pool if c.filtration.parent.order > 1],
                         "chain with a model_p on a nontrivial group")
        chain = _pick(pool, i)
        T = chain.table
        doc = {"chain": chain.ref()}
        for key, gen in gens.items():
            doc[key] = gen(T, _seed(name, base_seed, i, key))
        return doc, {"chain": chain.label}
    return generate


def _data(doc, chains, *keys) -> List[AbVarDatum]:
    model = _model(chains, doc)
    return [abvar_datum(model, require(doc, key), key) for key in keys]


def _local_pair(doc, chains) -> Tuple[LocalPair]:
    return (LocalPair(*_data(doc, chains, "A", "B")),)


def _check_semistable(doc, chains):
    parse, left, right = SIDES["semistable"]
    pair, = parse(doc, chains)
    if not pair.A.is_semistable():
        raise PreconditionError("the first datum 'A' must be semistable")
    lhs, rhs = left(pair), right(pair)
    return _sides(lhs == rhs, lhs, rhs)


def _check_swan_bound(doc, chains):
    lhs, rhs = swan_bound(*_local_pair(doc, chains))
    return _sides(lhs <= rhs, lhs, rhs)


def _check_tame_identity(doc, chains):
    parse, left, right = SIDES["tame-identity"]
    pair, = parse(doc, chains)
    for name, X in (("A", pair.A), ("B", pair.B)):
        if X.artin_conductor() <= 1:
            raise PreconditionError(f"'{name}' must have conductor exponent above 1")
    lhs, rhs = left(pair), right(pair)
    return _sides(lhs == rhs, lhs, rhs)


def _check_conductor_bound(doc, chains):
    pair, = _local_pair(doc, chains)
    A, B = pair.A, pair.B
    lhs, rhs, C = conductor_bound(pair)
    ok = lhs <= rhs
    # the bound collapses to the semistable closed form when a <= 1
    if A.artin_conductor() <= 1:
        ok = ok and lhs == semistable_form(A, B, pair.degree_correction)
    elif B.artin_conductor() <= 1:
        ok = ok and lhs == semistable_form(B, A, pair.degree_correction)
    return ok, {"lhs": str(lhs), "rhs": str(rhs), "C": C}


def _check_uniform_bound(doc, chains):
    pair, = _local_pair(doc, chains)
    lhs, rhs, corr = uniform_bound(pair)
    ok = lhs <= rhs
    _, refined_rhs, C = conductor_bound(pair)
    if C >= 2:
        # the refined bound is at least as strong in this regime
        ok = ok and refined_rhs <= rhs
    return ok, {"lhs": str(lhs), "rhs": str(rhs), "corr": str(corr)}


def _check_degree_gap(doc, chains):
    A, = _data(doc, chains, "A")
    gap = degree_gap(A)
    artin = A.artin_conductor()
    ok = gap >= 0 and (artin == 0 or gap >= 1)
    return ok, {"gap": gap, "artin": str(artin)}


def _gen_global(corpus, base_seed, i):
    pool = _pool(corpus.integral_model_chains(),
                 "chain with a model_p whose levels are all trivial or the whole group")
    rng = random.Random(_seed("global", base_seed, i))
    dim_a = rng.randint(1, 3)
    dim_b = rng.randint(1, 3)
    primes = sorted(rng.sample((2, 3, 5, 7, 11), rng.randint(1, 3)))
    records = []
    for p in primes:
        chain = pool[rng.randrange(len(pool))]
        T = chain.table
        model = {"group": chain.filtration.parent.spec,
                 "chain": [list(g) for g in chain.generator_lists], "p": chain.model_p}
        records.append({"p": p, "mode": "full", "model": model,
                        "A": gen_abvar_mults(T, _seed("global", base_seed, i, f"A{p}"),
                                             target_dim=2 * dim_a),
                        "B": gen_abvar_mults(T, _seed("global", base_seed, i, f"B{p}"),
                                             target_dim=2 * dim_b)})
    return {"dimA": dim_a, "dimB": dim_b, "primes": records}, {}


def _check_global(doc, chains):
    """Full-mode global data: at each prime the recomputed exponent of A x B
    against the bound, and that of A x A against the self-tensor bound."""
    datum = read_global(doc, chains)
    summary = next((j for j, rec in enumerate(datum.primes) if isinstance(rec, PrimeSummary)), None)
    if summary is not None:
        raise InputError(f"'primes[{summary}].mode' must be full: the self-tensor check needs A")
    try:
        report = rankin_selberg_bound(datum)
        self_report = self_tensor_bound_report(GlobalDatum(datum.dim_a, datum.dim_a, tuple(
            PrimeLocalPair(r.p, r.A, r.A) for r in datum.primes)))
    except TensorCondError as err:
        return False, {"error": str(err)}
    return (report.all_checks_pass() and self_report.all_checks_pass(),
            {**report.to_json(), "self_bound": exponents_json(self_report.bound),
             "self_per_prime": list(self_report.per_prime)})


def _gen_sharpness(corpus, base_seed, i):
    p = _pick(SHARPNESS_PRIMES, i)
    return {"p": p, "a": smallest_valid_unit(p)}, {}


def _jacobians(doc, chains):
    p, a = validate_params(int_field(doc, "p"), int_field(doc, "a"))
    return ([(alpha, jacobian_chain(chains, p, alpha)) for alpha in (a, p)],)


def _check_sharpness(doc, chains):
    """Sharpness sweep plus the discriminant-valuation closed form."""
    parse, left, right = SIDES["sharpness"]
    models, = parse(doc, chains)
    (a, _), (p, _) = models
    report = sharpness_report(p, a, left(models), right(models))
    # the report's Swan exponents are v(disc) - p + 1 for alpha = a and p
    disc = {a: report.sw_a + p - 1, p: report.sw_p + p - 1}
    for alpha in (p * p, a * p, a + p):
        disc[alpha] = disc_valuation(p, alpha)
    closed_form_ok = all(v == p + (p - 1) * p_valuation(p, alpha)
                         for alpha, v in disc.items())
    return report.equal and closed_form_ok, {**report.to_json(), "disc_closed_form": closed_form_ok}


# -- the registries --------------------------------------------------------------


# Each identity suite's two computations of one quantity, (parse, left, right): parse(doc, chains)
# reads a document into the sides' arguments; the check applies its preconditions, then both sides.
SIDES: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "step-identity": (_pair, step_kernel_side, step_class_side),
    "semistable": (_local_pair, semistable_class_side, semistable_kernel_side),
    "tame-identity": (_local_pair, tame_class_side, tame_kernel_side),
    "sharpness": (_jacobians, sharpness_disc_side, sharpness_chain_side),
}


class Suite(NamedTuple):
    """One suite: ``generate(corpus, base_seed, index)`` returns an item's
    input document and its detail labels, ``check(doc, chains)`` the
    verdict and the detail.  ``seeds`` is the default number of items,
    ``checks`` counts an item's checks and ``show`` picks what replay
    prints besides the verdict."""

    generate: Callable[[Corpus, int, int], Tuple[dict, dict]]
    check: Callable[[dict, ChainReader], Tuple[bool, dict]]
    seeds: int
    checks: Callable[[dict, dict], int] = lambda doc, detail: 1
    show: Callable[[dict, dict], dict] = lambda doc, detail: detail


def _show_sides(doc, detail):
    return {"lhs": detail["lhs"], "rhs": detail["rhs"]}


def _count_gaps(doc, detail):
    return len(detail["gaps"])


SUITES: Dict[str, Suite] = {
    "step-identity": Suite(_gen_pair("step", gen_character_mults), _check_step_identity,
                           1000, checks=lambda doc, detail: len(detail["sides"]),
                           show=_show_level),
    "min-sum": Suite(_gen_min_sum, _check_min_sum, 500),
    "symplectic-bound": Suite(_gen_pair("symplectic-bound", gen_symplectic_mults),
                              _check_symplectic_bound, 500),
    "pgroup-bound": Suite(_gen_pair("pgroup-bound", gen_rational_mults, pgroup=True),
                          _check_pgroup_bound, 500),
    "symplectic-parity": Suite(_gen_gap("parity", gen_symplectic_mults),
                               _check_symplectic_parity, 300, checks=_count_gaps),
    "pgroup-gap": Suite(_gen_gap("gap", gen_rational_mults, pgroup=True),
                        _check_pgroup_gap, 300, checks=_count_gaps),
    "semistable": Suite(
        _gen_wd("semistable", A=gen_semistable_mults, B=gen_abvar_mults),
        _check_semistable, 200),
    "swan-bound": Suite(
        _gen_wd("swan-bound", A=gen_abvar_mults, B=gen_abvar_mults),
        _check_swan_bound, 500),
    "tame-identity": Suite(
        _gen_wd("tame-identity", nontrivial=True,
                A=lambda T, seed: gen_abvar_mults(T, seed, force_ramified=True),
                B=lambda T, seed: gen_abvar_mults(T, seed, force_ramified=True)),
        _check_tame_identity, 500),
    "conductor-bound": Suite(
        _gen_wd("conductor-bound", A=gen_abvar_mults, B=gen_abvar_mults),
        _check_conductor_bound, 500, show=_show_sides),
    "uniform-bound": Suite(
        _gen_wd("uniform-bound", A=gen_abvar_mults, B=gen_abvar_mults),
        _check_uniform_bound, 500, show=_show_sides),
    "degree-gap": Suite(
        _gen_wd("degree-gap", A=gen_abvar_mults), _check_degree_gap, 500,
        show=lambda doc, detail: {"lhs": str(detail["gap"]),
                                  "rhs": ">= 1 if ramified"}),
    "global": Suite(_gen_global, _check_global, 100,
                    checks=lambda doc, detail: len(doc["primes"])),
    "sharpness": Suite(_gen_sharpness, _check_sharpness, 5,
                       checks=lambda doc, detail: 6),
}


def run_suite_range(name: str, corpus: Corpus, start: int, count: int,
                    base_seed: int = 0) -> List[dict]:
    """Evaluate a contiguous index range; items only depend on their index.
    An item is the document verify prints: suite, index, ok, checks and
    detail, and on a failing item its counterexample, the input document
    with its detail."""
    suite = SUITES[name]
    out = []
    for i in range(start, start + count):
        try:
            doc, labels = suite.generate(corpus, base_seed, i)
        except CorpusError as err:
            raise CorpusError(f"suite {name}: {err}") from None
        ok, detail = suite.check(doc, corpus.reader)
        item = {"suite": name, "index": i, "ok": ok,
                "checks": suite.checks(doc, detail), "detail": {**labels, **detail}}
        if not ok:
            item["counterexample"] = {"suite": name, **doc, **detail}
        out.append(item)
    return out


def replay(doc) -> dict:
    """Re-run a suite document through the suite's own check; returns what
    the suite shows of the detail, and the verdict."""
    if not isinstance(doc, dict):
        raise InputError("a replay document must be a JSON object")
    name = doc.get("suite")
    if not isinstance(name, str) or name not in SUITES:
        raise InputError(f"'suite' must name a suite ({', '.join(SUITES)}), "
                         f"not {shown(name)}")
    suite = SUITES[name]
    ok, detail = suite.check(doc, ChainReader())
    return {**suite.show(doc, detail), "ok": ok}
