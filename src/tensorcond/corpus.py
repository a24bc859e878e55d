"""The shipped corpus of groups and filtration chains.

The corpus is a versioned JSON data file; loading refuses unknown versions.
Chains are given as generator lists for each level below G_0 (the trivial
tail is appended automatically).  One chain (aff5/stabiliser) has a
non-normal step on purpose: nothing in the calculus may assume normality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .errors import CorpusError, TensorCondError
from .groups import FiniteGroup, Filtration, build_group, filtration_from_generators
from .weildeligne import InertiaModel

CORPUS_VERSION = 1


@dataclass
class CorpusChain:
    entry_name: str
    name: str
    generator_lists: Tuple[Tuple[int, ...], ...]
    filtration: Filtration
    model_p: Optional[int]
    _model: Optional[InertiaModel] = None

    @property
    def label(self) -> str:
        return f"{self.entry_name}/{self.name}"

    def ref(self) -> dict:
        """The chain as documents refer to it."""
        return {"group": self.filtration.parent.spec,
                "subgroups": [list(g) for g in self.generator_lists],
                "model_p": self.model_p}

    def model(self) -> InertiaModel:
        if self.model_p is None:
            raise CorpusError(f"chain {self.label} carries no residue characteristic")
        if self._model is None:
            self._model = InertiaModel(self.filtration.parent, self.filtration,
                                       self.model_p)
        return self._model

    def is_integral_shape(self) -> bool:
        """Whether every character gets an integer conductor on this chain
        (all proper levels are the whole group, so no division happens)."""
        G = self.filtration.parent
        return all(s.size in (1, G.order) for s in self.filtration.chain)


@dataclass
class CorpusEntry:
    name: str
    group: FiniteGroup
    chains: List[CorpusChain]

    def pgroup_prime(self) -> Optional[int]:
        """The prime p if the group is a p-group, else None."""
        n = self.group.order
        for p in range(2, n + 1):
            if n % p == 0:
                while n % p == 0:
                    n //= p
                return p if n == 1 else None
        return None


class Corpus:
    def __init__(self, entries: List[CorpusEntry], version: int):
        self.entries = entries
        self.version = version
        self._by_ref: Optional[Dict[str, CorpusChain]] = None

    def all_chains(self) -> List[CorpusChain]:
        return [c for e in self.entries for c in e.chains]

    def model_chains(self) -> List[CorpusChain]:
        return [c for c in self.all_chains() if c.model_p is not None]

    def pgroup_chains(self) -> List[Tuple[int, CorpusChain]]:
        out = []
        for e in self.entries:
            p = e.pgroup_prime()
            if p is not None:
                out.extend((p, c) for c in e.chains)
        return out

    def integral_model_chains(self) -> List[CorpusChain]:
        return [c for c in self.model_chains() if c.is_integral_shape()]

    def chain_by_ref(self, ref: dict) -> CorpusChain:
        """The corpus chain that a document reference names."""
        if self._by_ref is None:
            self._by_ref = {json.dumps(c.ref(), sort_keys=True): c
                            for c in self.all_chains()}
        return self._by_ref[json.dumps(ref, sort_keys=True)]

    def entry(self, name: str) -> CorpusEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise CorpusError(f"no corpus entry named {name!r}")


def _builtin_corpus_text() -> str:
    return resources.files("tensorcond").joinpath("data/corpus.json").read_text()


def load_corpus(path: Optional[str] = None) -> Corpus:
    """Load and validate a corpus file (default: the packaged one)."""
    if path is None:
        raw = _builtin_corpus_text()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise CorpusError(f"cannot read corpus file: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise CorpusError(f"corpus is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise CorpusError("corpus must be a JSON object")
    version = doc.get("version")
    if version != CORPUS_VERSION:
        raise CorpusError(f"unknown corpus version {version!r} (expected {CORPUS_VERSION})")
    entries = []
    for e in doc.get("entries", []):
        if not isinstance(e, dict):
            raise CorpusError(f"malformed corpus entry {e!r}: expected an object")
        try:
            group = build_group(e["group"])
            chains = []
            for c in e["chains"]:
                gen_lists = tuple(tuple(g) for g in c["subgroups"])
                filt = filtration_from_generators(group, gen_lists)
                chains.append(CorpusChain(e["name"], c["name"], gen_lists, filt,
                                          c.get("model_p")))
            entries.append(CorpusEntry(e["name"], group, chains))
        except (KeyError, TypeError, TensorCondError) as err:
            raise CorpusError(f"malformed corpus entry {e.get('name')!r}: {err}") from err
    if not entries:
        raise CorpusError("corpus contains no entries")
    return Corpus(entries, version)
