"""The shipped corpus of groups and filtration chains.

The corpus is a versioned JSON data file; loading refuses unknown versions.
Chains are given as generator lists for each level below G_0 (the trivial
tail is appended automatically).  One chain (aff5/stabiliser) has a
non-normal step on purpose: nothing in the calculus may assume normality.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import (CorpusError, InputError, TensorCondError, generator_lists,
                     int_field, is_int, reading, require, shown)
from .groups import (FiniteGroup, Filtration, build_group, check_model_prime,
                     filtration_from_generators, pgroup_prime)

if TYPE_CHECKING:
    from .weildeligne import InertiaModel

CORPUS_VERSION = 1


class CorpusChain:
    __slots__ = ("entry_name", "name", "generator_lists", "filtration", "model_p", "_model")

    def __init__(self, entry_name: str, name: str,
                 generator_lists: Tuple[Tuple[int, ...], ...], filtration: Filtration,
                 model_p: Optional[int]):
        self.entry_name = entry_name
        self.name = name
        self.generator_lists = generator_lists
        self.filtration = filtration
        self.model_p = model_p
        self._model = None

    @property
    def label(self) -> str:
        return f"{self.entry_name}/{self.name}"

    def ref(self) -> dict:
        """The chain as documents refer to it."""
        return {"group": self.filtration.parent.spec,
                "subgroups": [list(g) for g in self.generator_lists],
                "model_p": self.model_p}

    def model(self) -> InertiaModel:
        """The chain's inertia model, built on first use: loading a corpus
        imports no Weil-Deligne code."""
        if self.model_p is None:
            raise CorpusError(f"chain {self.label} carries no residue characteristic")
        if self._model is None:
            from .weildeligne import InertiaModel
            self._model = InertiaModel(self.filtration.parent, self.filtration,
                                       self.model_p)
        return self._model

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
        # suite items resolve their chain references here, as replay does
        self.reader = ChainReader(self.all_chains())

    def all_chains(self) -> List[CorpusChain]:
        return [c for e in self.entries for c in e.chains]

    def model_chains(self) -> List[CorpusChain]:
        return [c for c in self.all_chains() if c.model_p is not None]

    def pgroup_entries(self) -> List[Tuple[int, CorpusEntry]]:
        """(p, entry) for every entry whose group is a p-group."""
        return [(p, e) for e in self.entries if (p := pgroup_prime(e.group.order))]

    def pgroup_chains(self) -> List[Tuple[int, CorpusChain]]:
        return [(p, c) for p, e in self.pgroup_entries() for c in e.chains]

    def integral_model_chains(self) -> List[CorpusChain]:
        return [c for c in self.model_chains() if c.is_integral_shape()]


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


def read_chain(doc, group: FiniteGroup, entry_name: str, name: str,
               where: str) -> CorpusChain:
    """The chain that a corpus chain object, or a document's chain
    reference, gives on the group: its `subgroups` and optional `model_p`,
    which must be a residue characteristic for the chain."""
    gen_lists = generator_lists(require(doc, "subgroups", where), f"{where}subgroups")
    model_p = None if doc.get("model_p") is None else int_field(doc, "model_p", where)
    with reading(f"{where}subgroups"):
        filt = filtration_from_generators(group, gen_lists)
    if model_p is not None:
        with reading(f"{where}model_p"):
            check_model_prime(filt, model_p)
    return CorpusChain(entry_name, name, tuple(map(tuple, gen_lists)), filt, model_p)


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class ChainReader:
    """Resolves the chain references and model objects of documents: it
    builds each group once per canonical spec and reads each chain once per
    canonical reference, so that the chains it returns on one group share
    that group and its character table, and each chain builds one model.
    Seeded with a corpus's chains, it returns those for their own references."""

    def __init__(self, chains: Iterable[CorpusChain] = ()):
        self._groups: Dict[str, FiniteGroup] = {}
        self._chains: Dict[str, CorpusChain] = {}
        for c in chains:
            self._groups.setdefault(_canonical(c.filtration.parent.spec), c.filtration.parent)
            self._chains.setdefault(_canonical(c.ref()), c)

    def group(self, spec, name: str) -> FiniteGroup:
        """The group that the spec in field `name` describes; a spec that
        builds a group equal to one already built (keys that the kind does
        not read differ) returns that group."""
        key = _canonical(spec)
        if key not in self._groups:
            with reading(name):
                G = build_group(spec)
            self._groups[key] = self._groups.setdefault(_canonical(G.spec), G)
        return self._groups[key]

    def __call__(self, ref, name: str) -> CorpusChain:
        """The chain that the reference in field `name` names."""
        if not isinstance(ref, dict):
            raise InputError(f"'{name}' must be a chain reference object")
        key = _canonical(ref)
        if key not in self._chains:
            group = self.group(require(ref, "group", f"{name}."), f"{name}.group")
            self._chains[key] = read_chain(ref, group, "document", name, f"{name}.")
        return self._chains[key]

    def model(self, doc, where: str) -> InertiaModel:
        """The inertia model of the model object at `where` (such as
        "model."): the model of the chain it names, read once per reference."""
        ref = {"group": require(doc, "group", where), "subgroups": require(doc, "chain", where),
               "model_p": int_field(doc, "p", where)}
        key = _canonical(ref)
        if key not in self._chains:
            group = self.group(ref["group"], f"{where}group")
            gen_lists = generator_lists(ref["subgroups"], f"{where}chain")
            with reading(f"{where}chain"):
                filt = filtration_from_generators(group, gen_lists)
            chain = CorpusChain("document", where, tuple(map(tuple, gen_lists)), filt, ref["model_p"])
            with reading(f"{where}p"):
                chain.model()
            self._chains[key] = chain
        return self._chains[key].model()


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
                       f"{where}chains[{k}].") for k, c in enumerate(chains)])


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
