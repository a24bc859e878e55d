"""The shipped corpus of groups and filtration chains.

The corpus is a versioned JSON data file; loading refuses unknown versions.
Chains are given as generator lists for each level below G_0 (the trivial
tail is appended automatically).  Two chains, d4/reflection and
aff5/stabiliser, have a level G_1 that is not normal in G_0, on purpose:
nothing in the calculus may assume normality.
A chain with a residue characteristic is an inertia model (`weildeligne`).
"""

from __future__ import annotations

import json
from functools import cached_property
from importlib import resources
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .chars import Character, CharacterTable, character_table
from .errors import (CorpusError, InputError, TensorCondError, generator_lists,
                     int_field, is_int, reading, require, shown)
from .groups import (FiniteGroup, Filtration, check_model_prime,
                     filtration_from_generators, pgroup_prime, read_spec)

CORPUS_VERSION = 1


class CorpusChain:
    """A ramification chain in the lower numbering, G_0 the whole group
    `filtration.parent`.  With a residue characteristic `model_p`, a prime
    with G_1 (the wild part) a `model_p`-group, it is an inertia model.
    Models need not be realisable by an actual local field; all consumers
    assert formulas and inequalities only."""

    def __init__(self, entry_name: str, name: str,
                 generator_lists: Tuple[Tuple[int, ...], ...], filtration: Filtration,
                 model_p: Optional[int]):
        self.entry_name = entry_name
        self.name = name
        self.generator_lists = generator_lists
        self.filtration = filtration
        self.model_p = model_p
        if model_p is not None:
            check_model_prime(filtration, model_p)

    @property
    def label(self) -> str:
        return f"{self.entry_name}/{self.name}"

    def ref(self) -> dict:
        """The chain as documents refer to it."""
        return {"group": self.filtration.parent.spec,
                "subgroups": [list(g) for g in self.generator_lists],
                "model_p": self.model_p}

    def model(self) -> CorpusChain:
        """The chain as an inertia model: itself, if it carries a residue
        characteristic."""
        if self.model_p is None:
            raise CorpusError(f"chain {self.label} carries no residue characteristic")
        return self

    @cached_property
    def table(self) -> CharacterTable:
        return character_table(self.filtration.parent)

    @cached_property
    def kernel_rows(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
        """Per irreducible psi_i: |G_0| a(psi_i), the sum over the levels of
        (dim psi_i - f_i(G_l)) |G_l|, and per level the row of f_i(G_l) = dim
        psi_i^{G_l}, each distinct level (one per size) read once.  A character's
        conductor and fixed dimensions are these rows dotted with its multiplicities."""
        T, chain = self.table, self.filtration.chain
        dims = {n: T.fixed_dims(H) for n, H in {H.size: H for H in chain}.items()}
        levels = tuple(dims[H.size] for H in chain)
        artin = tuple(sum((d - f[i]) * H.size for f, H in zip(levels, chain))
                      for i, d in enumerate(T.degrees))
        return artin, levels

    def fixed(self, chi: Character) -> List[int]:
        """dim chi^{G_l} on every level l, chi a Character of the chain's table."""
        mults = self.table.own(chi).mults
        return [sum(map(mul, mults, row)) for row in self.kernel_rows[1]]

    def is_integral_shape(self) -> bool:
        """Whether every character gets an integer conductor on this chain
        (all proper levels are the whole group, so no division happens)."""
        G = self.filtration.parent
        return all(s.size in (1, G.order) for s in self.filtration.chain)


class CorpusEntry(NamedTuple):
    name: str
    group: FiniteGroup
    chains: List[CorpusChain]


class Corpus:
    def __init__(self, entries: List[CorpusEntry], version: int):
        self.entries = entries
        self.version = version
        # the pools that suite generators pick from, formed once
        self._chains = tuple(c for e in entries for c in e.chains)
        self._models = tuple(c for c in self._chains if c.model_p is not None)
        self._pgroup_entries = tuple((p, e) for e in entries if (p := pgroup_prime(e.group.order)))
        self._pgroup_chains = tuple((p, c) for p, e in self._pgroup_entries for c in e.chains)
        self._integral_models = tuple(c for c in self._models if c.is_integral_shape())
        # suite items resolve their chain references here, as replay does
        self.reader = ChainReader(self._chains)

    def all_chains(self) -> Tuple[CorpusChain, ...]:
        return self._chains

    def model_chains(self) -> Tuple[CorpusChain, ...]:
        return self._models

    def pgroup_entries(self) -> Tuple[Tuple[int, CorpusEntry], ...]:
        """(p, entry) for every entry whose group is a p-group."""
        return self._pgroup_entries

    def pgroup_chains(self) -> Tuple[Tuple[int, CorpusChain], ...]:
        return self._pgroup_chains

    def integral_model_chains(self) -> Tuple[CorpusChain, ...]:
        return self._integral_models


def _builtin_corpus_bytes() -> bytes:
    return resources.files("tensorcond").joinpath("data/corpus.json").read_bytes()


def _name(doc, where: str, seen: set) -> str:
    """A nonempty name without '/', not in `seen` (the names before it on
    its level), so that a chain's label entry/chain names one chain."""
    name = require(doc, "name", where)
    if not isinstance(name, str) or not name or "/" in name:
        raise InputError(f"'{where}name' must be a nonempty string without '/', not {shown(name)}")
    if name in seen:
        raise InputError(f"'{where}name' repeats {shown(name)}")
    seen.add(name)
    return name


def read_chain(doc, group: FiniteGroup, entry_name: str, name: str, where: str, chains: dict,
               keys: Tuple[str, str] = ("subgroups", "model_p")) -> CorpusChain:
    """The chain that a corpus chain object, or a document's chain
    reference or model object, gives on the group: its generator lists and
    optional residue characteristic, under `keys` ("chain" and "p" in a
    model object).  It is built unless `chains` holds it under (group,
    generator tuples, model_p), the values read, and then stored there."""
    gens_key, p_key = keys
    gen_lists = generator_lists(require(doc, gens_key, where), where + gens_key)
    model_p = None if doc.get(p_key) is None else int_field(doc, p_key, where)
    key = (group, tuple(map(tuple, gen_lists)), model_p)
    if key not in chains:
        with reading(where + gens_key):
            filt = filtration_from_generators(group, gen_lists)
        with reading(where + p_key):
            chains[key] = CorpusChain(entry_name, name, key[1], filt, model_p)
    return chains[key]


class ChainReader:
    """Resolves the chain references and model objects of documents: it
    builds each group once per `read_spec` key and reads each chain once per
    (group, generator tuples, model_p), so that the chains it returns on one
    group share that group and its character table, and each model keeps
    one set of kernel rows.  Seeded with a corpus's chains, it returns those
    for their own references."""

    def __init__(self, chains: Iterable[CorpusChain] = ()):
        self._groups: Dict[tuple, FiniteGroup] = {}
        self._chains: Dict[tuple, CorpusChain] = {}
        for c in chains:
            G = c.filtration.parent
            self._groups.setdefault(read_spec(G.spec)[0], G)
            self._chains.setdefault((G, c.generator_lists, c.model_p), c)

    def group(self, spec, name: str) -> FiniteGroup:
        """The group that the spec in field `name` describes, built once per
        key: specs that differ only in keys their kind does not read, or a
        one-factor product and its factor, return one group."""
        with reading(name):
            key, _, build = read_spec(spec)
            if key not in self._groups:
                self._groups[key] = build()
        return self._groups[key]

    def __call__(self, ref, name: str) -> CorpusChain:
        """The chain that the reference in field `name` names."""
        if not isinstance(ref, dict):
            raise InputError(f"'{name}' must be a chain reference object")
        group = self.group(require(ref, "group", f"{name}."), f"{name}.group")
        return read_chain(ref, group, "document", name, f"{name}.", self._chains)

    def model(self, doc, where: str) -> CorpusChain:
        """The inertia model of the model object at `where` (such as
        "model."): the chain it names, which a chain reference with that
        model_p names too."""
        int_field(doc, "p", where)  # required here, optional in a chain reference
        group = self.group(require(doc, "group", where), f"{where}group")
        return read_chain(doc, group, "document", where, where, self._chains,
                          ("chain", "p")).model()


def _entry(doc, where: str, reader: ChainReader, names: set) -> CorpusEntry:
    """One corpus entry, its group built by `reader`, so that entries with
    one spec share the group; an error names the entry and the field."""
    name = _name(doc, where, names)
    with reading(f"entry {shown(name)}"):
        group = reader.group(require(doc, "group", where), f"{where}group")
        chains = require(doc, "chains", where)
        if not isinstance(chains, list) or not chains:
            raise InputError(f"'{where}chains' must be a nonempty list of chain objects")
        seen = set()
        return CorpusEntry(name, group, [
            read_chain(c, group, name, _name(c, f"{where}chains[{k}].", seen),
                       f"{where}chains[{k}].", {}) for k, c in enumerate(chains)])


def load_corpus(path: Optional[str] = None) -> Corpus:
    """Load and validate a corpus file (default: the packaged one)."""
    if path is None:
        raw = _builtin_corpus_bytes()
    else:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as err:
            raise CorpusError(f"cannot read corpus file: {err}") from err
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise CorpusError(f"cannot read the corpus as JSON: {err}") from None
    if not isinstance(doc, dict):
        raise CorpusError("corpus must be a JSON object")
    version = doc.get("version")
    if not is_int(version) or version != CORPUS_VERSION:
        raise CorpusError(f"unknown corpus version {shown(version)} (expected {CORPUS_VERSION})")
    try:
        entries = require(doc, "entries")
        if not isinstance(entries, list) or not entries:
            raise InputError("'entries' must be a nonempty list of entry objects")
        reader, names = ChainReader(), set()
        entries = [_entry(e, f"entries[{j}].", reader, names) for j, e in enumerate(entries)]
    except TensorCondError as err:
        raise CorpusError(f"malformed corpus: {err}") from err
    return Corpus(entries, version)
