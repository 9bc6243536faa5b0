"""Molecule identity, ingredient inventories, structural features, and
single-step expansion oracles.

Molecules are interned as canonical text keys. An expansion oracle maps a
molecule to an ordered list of candidate retro reactions (product, reactant
set, positive cost). Three oracle families are provided: additive integer
splits, factor splits of integers, and table-driven reaction sets loaded
from JSONL so hand-built fixtures or recorded data can be plugged in.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

MoleculeId = str
# (cost, reactants), reactants a sorted tuple of distinct keys
Candidate = tuple[float, tuple[MoleculeId, ...]]

_FEATURE_PRIMES = (2, 3, 5, 7, 11, 13)


class DomainSyntaxError(ValueError):
    """Raised when a raw molecule string does not parse in a domain."""


def _hash64(*parts: object) -> int:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _unit_interval(*parts: object) -> float:
    # deterministic stand-in for a random stream, keyed by the parts
    return (_hash64(*parts) + 0.5) / 2.0**64


@dataclass(frozen=True, slots=True)
class Reaction:
    """One retro step: *product* is made from *reactants* at a positive cost.
    The reactants, given as any iterable, are kept as a sorted tuple of
    distinct keys, the order in which the search graph adds them."""

    product: MoleculeId
    reactants: tuple[MoleculeId, ...]
    cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "reactants", tuple(sorted(set(self.reactants))))
        if not self.reactants:
            raise ValueError(f"reaction for {self.product!r} has no reactants")
        if not (math.isfinite(self.cost) and self.cost > 0.0):
            raise ValueError(f"reaction cost must be finite and > 0, got {self.cost!r}")


class Inventory:
    """Immutable set of available starting molecules: the listed keys, and
    the decimal keys str(i) of 1 <= i <= upper, tested without a set of them."""

    def __init__(self, members: Iterable[MoleculeId], upper: int = 0):
        self._members = frozenset(members)
        self._upper, self._digits = upper, len(str(upper))

    def __contains__(self, molecule: MoleculeId) -> bool:
        return molecule in self._members or (
            0 < len(molecule) <= self._digits and molecule.isascii()
            and molecule.isdigit() and molecule[0] != "0"
            and int(molecule) <= self._upper)

    @classmethod
    def integer_range(cls, upper: int) -> "Inventory":
        """Inventory {1..upper} for the integer domains."""
        if upper < 1:
            raise ValueError(f"inventory upper bound must be >= 1, got {upper}")
        return cls((), upper)

    @classmethod
    def from_file(cls, path: str | Path) -> "Inventory":
        """Load an inventory file: one canonical molecule key per line."""
        members = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            key = line.strip()
            if key:
                members.append(key)
        return cls(members)


def features(molecule: MoleculeId, bits: int = 2048) -> np.ndarray:
    """Hashed binary feature vector of a molecule key.

    Structural sub-features (characters, character bigrams, and for integer
    keys the residues modulo small primes) are hashed into *bits* positions.
    """
    if bits < 8:
        raise ValueError(f"feature width must be >= 8 bits, got {bits}")
    tokens = [f"c:{ch}" for ch in molecule]
    tokens += [f"b:{molecule[i:i + 2]}" for i in range(len(molecule) - 1)]
    if molecule.isdigit():
        value = int(molecule)
        tokens += [f"m:{p}:{value % p}" for p in _FEATURE_PRIMES]
    vec = np.zeros(bits, dtype=np.float64)
    for tok in tokens:
        vec[_hash64("feat", tok) % bits] = 1.0
    return vec


class ExpansionOracle:
    """Deterministic single-step model returning top-k reactions per molecule.

    Subclasses implement :meth:`canonical` and :meth:`candidates`; the
    oracle sorts the candidates ascending by cost with ties broken by the
    reactant tuple, and builds a :class:`Reaction` only for those it returns.

    :meth:`expand` memoizes its answers per instance, across targets, as
    tuples of the validated, immutable reactions, whose molecule strings are
    interned; memory grows with distinct molecules times k.
    """

    name: str = "abstract"
    # (molecule, k) -> (Reaction, ...); made on first use
    _memo: dict[tuple[MoleculeId, int], tuple[Reaction, ...]] | None = None
    _interned: dict[MoleculeId, MoleculeId] | None = None

    def canonical(self, raw: str) -> MoleculeId:
        raise NotImplementedError

    def canonical_unique(self, raws: Iterable[str]) -> list[MoleculeId]:
        """Canonical keys of *raws* in first-seen order, duplicates dropped."""
        return list(dict.fromkeys(self.canonical(raw) for raw in raws))

    def candidates(self, product: MoleculeId) -> list[Candidate]:
        """(cost, reactants) of every reaction making the canonical key
        *product*, in any order."""
        raise NotImplementedError

    def reactions(self, molecule: MoleculeId) -> list[Reaction]:
        """Every candidate reaction producing *molecule*, in expansion order."""
        product = self.canonical(molecule)
        return [Reaction(product, reactants, cost)
                for cost, reactants in sorted(self.candidates(product))]

    def expand(self, molecule: MoleculeId, k: int) -> list[Reaction]:
        """At most *k* lowest-cost reactions producing *molecule*.

        Deterministic: same molecule and k always give the same list. An
        empty list marks a dead end. Each call returns a fresh list; when
        the pair was asked before, it holds the memoized Reaction objects,
        which are frozen and so safe to share.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._memo is None:
            self._memo, self._interned = {}, {}
        entry = self._memo.get((molecule, k))
        if entry is None:
            intern = self._interned.setdefault
            product = self.canonical(molecule)
            product = intern(product, product)
            entry = tuple(
                Reaction(product, tuple(intern(m, m) for m in reactants), cost)
                for cost, reactants in sorted(self.candidates(product))[:k]
            )
            self._memo[(molecule, k)] = entry
        return list(entry)


class _IntegerDomain(ExpansionOracle):
    """Shared canonicalization for the integer-valued molecule domains."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def canonical(self, raw: str) -> MoleculeId:
        text = raw.strip()
        if not text.isdigit():
            raise DomainSyntaxError(
                f"domain {self.name!r} expects a positive integer, got {raw!r}"
            )
        value = int(text)
        if value < 1:
            raise DomainSyntaxError(
                f"domain {self.name!r} expects a positive integer, got {raw!r}"
            )
        return str(value)

    def _splits(self, n: int) -> list[tuple[int, int]]:
        raise NotImplementedError

    def candidates(self, product: MoleculeId) -> list[Candidate]:
        n = int(product)
        splits = self._splits(n)
        if not splits:
            return []
        weights = [_unit_interval(self.seed, self.name, n, a) for a, _ in splits]
        # reserve mass keyed (n, 0) keeps every normalized weight < 1 so that
        # costs stay strictly positive even when n has a single split
        total = _unit_interval(self.seed, self.name, n, 0) + sum(weights)
        return [
            (-math.log(w / total), tuple(sorted({str(a), str(b)})))
            for (a, b), w in zip(splits, weights)
        ]


class AdditiveSplitDomain(_IntegerDomain):
    """n can be made from {a, n-a} for every a in 1..floor(n/2)."""

    name = "additive-split"

    def _splits(self, n: int) -> list[tuple[int, int]]:
        return [(a, n - a) for a in range(1, n // 2 + 1)]


class FactorSplitDomain(_IntegerDomain):
    """n can be made from {a, n/a} for every divisor pair; primes dead-end."""

    name = "factor-split"

    def _splits(self, n: int) -> list[tuple[int, int]]:
        return [(a, n // a) for a in range(2, math.isqrt(n) + 1) if n % a == 0]


class TableDomain(ExpansionOracle):
    """Reactions looked up in a fixed table; molecules absent from the table
    are dead ends. This is the format for hand-built fixtures and recorded
    reaction sets."""

    name = "table"

    def __init__(self, reactions: Iterable[Reaction]):
        table: dict[MoleculeId, list[Candidate]] = {}
        for rxn in reactions:
            reactants = tuple(sorted({r.strip() for r in rxn.reactants}))
            table.setdefault(self.canonical(rxn.product), []).append((rxn.cost, reactants))
        self._table = table

    def canonical(self, raw: str) -> MoleculeId:
        text = raw.strip()
        if not text:
            raise DomainSyntaxError(f"domain {self.name!r} got an empty molecule key")
        return text

    def candidates(self, product: MoleculeId) -> list[Candidate]:
        return self._table.get(product, [])

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TableDomain":
        """Load a reaction table: one {"product", "reactants", "cost"} JSON
        object per line."""
        rxns = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not (isinstance(rec["reactants"], list)
                        and all(isinstance(r, str) for r in rec["reactants"])):
                    raise ValueError("'reactants' must be a list of strings")
                rxn = Reaction(str(rec["product"]), rec["reactants"], float(rec["cost"]))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad reaction record: {exc}") from exc
            rxns.append(rxn)
        return cls(rxns)


def make_domain(spec: str, seed: int = 0) -> ExpansionOracle:
    """Build a domain from a CLI-style spec: a known name or a JSONL path."""
    if spec == AdditiveSplitDomain.name:
        return AdditiveSplitDomain(seed)
    if spec == FactorSplitDomain.name:
        return FactorSplitDomain(seed)
    path = Path(spec)
    if path.suffix == ".jsonl" or path.exists():
        return TableDomain.from_jsonl(path)
    raise ValueError(f"unknown domain {spec!r} (expected a domain name or a JSONL path)")
