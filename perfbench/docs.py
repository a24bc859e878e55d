"""Seeded document sets for the `documents` workload.

A document is one `tensorcond` invocation: an argv list for `cli.main`
and, for `bound`, `global` and `replay`, the JSON text fed on stdin.
Inputs are built here from the character table's public fields (degrees,
Frobenius-Schur indicators, Galois orbits), not from the package's own
seeded generators, so that two commits receive identical documents as long
as their tables agree.  The set's digest is recorded with every run.

A set holds, in a seeded order:
  * one document per model chain of the corpus (29), whose kind cycles
    through bound, replay and table in corpus order (replay documents
    cycle through REPLAY_SUITES);
  * one full-mode and one summary-mode global document per integral
    model chain (10 + 10);
  * one sharpness document per prime 3, 5, 7, 11, 13.
The seed draws the characters, the dimensions, the prime labels and the
order.  Which chain gets which kind of document is fixed, so the cost mix,
and the share of the costly C25 builds (two chain documents and one full
global document), does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

SHARPNESS_PRIMES = (3, 5, 7, 11, 13)
GLOBAL_LABELS = (2, 3, 5, 7, 11)
CHAIN_KINDS = ("bound", "replay", "table")
REPLAY_SUITES = ("semistable", "swan-bound", "conductor-bound", "uniform-bound",
                 "degree-gap", "step-identity", "symplectic-bound")


def orbit_atoms(T, symplectic: bool):
    """Galois-orbit sums (rational); doubled on orthogonal orbits when the
    atom must also be symplectic."""
    atoms = []
    for orbit in T.galois_orbits:
        mult = 2 if symplectic and T.fs_indicators[orbit[0]] == 1 else 1
        vec = [0] * len(T)
        for i in orbit:
            vec[i] = mult
        atoms.append((vec, mult * sum(T.degrees[i] for i in orbit)))
    return atoms


def _add(mults, vec):
    for i, m in enumerate(vec):
        mults[i] += m


def _combine(rng, T, atoms, budget: int, draws: int) -> List[int]:
    mults, dim = [0] * len(T), 0
    for _ in range(rng.randint(0, draws)):
        cands = [a for a in atoms if dim + a[1] <= budget]
        if not cands:
            break
        vec, d = rng.choice(cands)
        _add(mults, vec)
        dim += d
    return mults


def _abvar(rng, T, target_dim: int = 0) -> Dict[str, List[int]]:
    """tau from symplectic rational atoms, sigma from rational atoms.  With
    a target the total dimension tau + 2 sigma is exactly that, padded with
    trivial sigma."""
    tau_atoms, sig_atoms = orbit_atoms(T, True), orbit_atoms(T, False)
    if not target_dim:
        return {"tau": _combine(rng, T, tau_atoms, 8, 4),
                "sigma": _combine(rng, T, sig_atoms, 4, 3)}
    tau, sigma, rem = [0] * len(T), [0] * len(T), target_dim
    for _ in range(rng.randint(0, 6)):
        cands = [(tau, a) for a in tau_atoms if a[1] <= rem]
        cands += [(sigma, a) for a in sig_atoms if 2 * a[1] <= rem]
        if not cands:
            break
        target, (vec, d) = rng.choice(cands)
        _add(target, vec)
        rem -= d if target is tau else 2 * d
    sigma[T.index_of_trivial()] += rem // 2
    return {"tau": tau, "sigma": sigma}


def _semistable(rng, T) -> Dict[str, List[int]]:
    tau, sigma = [0] * len(T), [0] * len(T)
    triv = T.index_of_trivial()
    tau[triv] = 2 * rng.randint(0, 2)
    sigma[triv] = rng.randint(0, 3)
    return {"tau": tau, "sigma": sigma}


def _model(chain) -> dict:
    return {"group": chain.filtration.parent.spec,
            "chain": [list(g) for g in chain.generator_lists],
            "p": chain.model_p}


def _chain_ref(chain) -> dict:
    return {"group": chain.filtration.parent.spec,
            "subgroups": [list(g) for g in chain.generator_lists],
            "model_p": chain.model_p}


def _stdin_doc(kind: str, label: str, doc: dict) -> dict:
    return {"kind": kind, "label": label,
            "argv": [kind, "--input", "-", "--format", "machine"],
            "stdin": json.dumps(doc, sort_keys=True)}


def _replay(rng, chain, T, suite: str) -> dict:
    doc = {"suite": suite, "chain": _chain_ref(chain)}
    if suite == "step-identity":
        singles = [([int(i == j) for j in range(len(T))], d)
                   for i, d in enumerate(T.degrees)]
        doc["tau1"] = _combine(rng, T, singles, 10, 10)
        doc["tau2"] = _combine(rng, T, singles, 10, 10)
        doc["level"] = rng.randrange(len(chain.filtration))
    elif suite == "symplectic-bound":
        atoms = orbit_atoms(T, True)
        doc["tau1"] = _combine(rng, T, atoms, 10, 4)
        doc["tau2"] = _combine(rng, T, atoms, 10, 4)
    else:
        doc["A"] = _semistable(rng, T) if suite == "semistable" else _abvar(rng, T)
        if suite != "degree-gap":
            doc["B"] = _abvar(rng, T)
    return _stdin_doc("replay", f"{suite}@{chain.label}", doc)


def _global_pair(rng, chain, T):
    dim_a, dim_b = rng.randint(1, 3), rng.randint(1, 3)
    return dim_a, dim_b, _abvar(rng, T, 2 * dim_a), _abvar(rng, T, 2 * dim_b)


def _summary_record(label: int, chain, T, A, B) -> dict:
    """Per-prime summary of a full pair, computed once while generating."""
    from tensorcond.globalbound import PrimeLocalPair
    from tensorcond.weildeligne import AbVarDatum

    model = chain.model()
    pair = PrimeLocalPair(label, *(AbVarDatum(model, T.assemble(d["tau"]),
                                              T.assemble(d["sigma"]))
                                   for d in (A, B)))
    s = pair.summary()
    return {"p": label, "mode": "summary", "vA": s.v_a, "vB": s.v_b,
            "degA": s.deg_a, "degB": s.deg_b, "degAB": s.deg_ab}


def generate(seed: int) -> List[dict]:
    """The document set for a seed."""
    from tensorcond.chars import character_table
    from tensorcond.corpus import load_corpus

    rng = random.Random(f"perfbench-documents:{seed}")
    chains = load_corpus().model_chains()
    docs = []
    for i, chain in enumerate(chains):
        T = character_table(chain.filtration.parent)
        kind = CHAIN_KINDS[i % len(CHAIN_KINDS)]
        if kind == "bound":
            docs.append(_stdin_doc("bound", chain.label, {
                "model": _model(chain), "A": _abvar(rng, T), "B": _abvar(rng, T)}))
        elif kind == "replay":
            suite = REPLAY_SUITES[i // len(CHAIN_KINDS) % len(REPLAY_SUITES)]
            docs.append(_replay(rng, chain, T, suite))
        else:
            docs.append({"kind": "table", "label": chain.label, "stdin": None,
                         "argv": ["table", "--group",
                                  json.dumps(chain.filtration.parent.spec),
                                  "--format", "machine"]})
    for chain in (c for c in chains if c.is_integral_shape()):
        T = character_table(chain.filtration.parent)
        dim_a, dim_b, A, B = _global_pair(rng, chain, T)
        docs.append(_stdin_doc("global", f"full@{chain.label}", {
            "dimA": dim_a, "dimB": dim_b,
            "primes": [{"p": rng.choice(GLOBAL_LABELS), "mode": "full",
                        "model": _model(chain), "A": A, "B": B}]}))
        dim_a, dim_b, A, B = _global_pair(rng, chain, T)
        labels = rng.sample(GLOBAL_LABELS, 2)
        docs.append(_stdin_doc("global", f"summary@{chain.label}", {
            "dimA": dim_a, "dimB": dim_b,
            "primes": [_summary_record(p, chain, T, A, B) for p in labels]}))
    for p in SHARPNESS_PRIMES:
        docs.append({"kind": "sharpness", "label": f"p{p}", "stdin": None,
                     "argv": ["sharpness", "--p", str(p), "--format", "machine"]})
    rng.shuffle(docs)
    return docs


def digest(docs: List[dict]) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def verdict_ok(kind: str, out: str) -> bool:
    """Whether a document's machine output states that every check holds."""
    try:
        rep = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return False
    if kind == "bound":
        return rep.get("bound_holds") is True
    if kind == "global":
        return rep.get("per_prime_check") == "pass"
    if kind == "replay":
        return rep.get("ok") is True
    if kind == "sharpness":
        return rep.get("equal") is True
    return bool(rep.get("irreducibles"))
