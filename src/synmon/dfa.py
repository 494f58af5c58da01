"""Complete deterministic finite automata: validation, minimization, file I/O.

States are arbitrary hashable ids (strings as loaded from files, dense
integers after canonicalization).  The transition function is stored as a
plain dict keyed by (state, symbol) and must be total.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from itertools import product

from .errors import FormatError, PartialTransitionFunction, UnknownState

State = str | int


class Frozen:
    """Base of the immutable classes with `__slots__`: `_set` fills the fields
    once, in `__slots__` order; later assignment or deletion raises
    AttributeError.  Equality is identity unless a subclass defines it.

    `copy`, `deepcopy` and `pickle` rebuild an instance by calling the
    class with its fields in `__slots__` order, which validates it again;
    a subclass whose constructor takes other arguments must override
    `__reduce__`."""
    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Dfa(Frozen):
    """A complete DFA, validated on construction.  Two are equal when every
    field is; `delta` is left out of the repr."""
    __slots__ = ("alphabet", "states", "initial", "accepting", "delta")

    def __init__(self, alphabet: tuple[str, ...], states: tuple, initial,
                 accepting: frozenset, delta: dict):
        self._set(alphabet, states, initial, accepting, delta)
        if not self.alphabet:
            raise FormatError("alphabet is empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise FormatError("duplicate symbols in alphabet")
        if len(set(self.states)) != len(self.states):
            raise FormatError("duplicate state ids")
        declared = set(self.states)
        if self.initial not in declared:
            raise UnknownState(f"initial state {self.initial!r} is not declared")
        for q in self.accepting:
            if q not in declared:
                raise UnknownState(f"accepting state {q!r} is not declared")
        for q in self.states:
            for a in self.alphabet:
                target = self.delta.get((q, a))
                if target is None:
                    raise PartialTransitionFunction(f"missing transition ({q!r}, {a!r})")
                if target not in declared:
                    raise UnknownState(f"transition ({q!r}, {a!r}) -> undeclared {target!r}")
        if len(self.delta) != len(self.states) * len(self.alphabet):
            raise FormatError("transition table has extraneous entries")

    def __eq__(self, other):
        if type(other) is not Dfa:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self):
        return (f"Dfa(alphabet={self.alphabet!r}, states={self.states!r}, "
                f"initial={self.initial!r}, accepting={self.accepting!r})")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def step(self, state, symbol):
        return self.delta[(state, symbol)]

    def run(self, word: str, start=None):
        q = self.initial if start is None else start
        for a in word:
            q = self.delta[(q, a)]
        return q

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.accepting


def _reachable(dfa: Dfa) -> list:
    seen = {dfa.initial}
    order = [dfa.initial]
    queue = deque([dfa.initial])
    letters = sorted(dfa.alphabet)
    while queue:
        q = queue.popleft()
        for a in letters:
            t = dfa.delta[(q, a)]
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def trim(dfa: Dfa) -> Dfa:
    """Drop states unreachable from the initial state."""
    order = _reachable(dfa)
    if len(order) == len(dfa.states):
        return dfa
    keep = set(order)
    states = tuple(q for q in dfa.states if q in keep)
    delta = {(q, a): t for (q, a), t in dfa.delta.items() if q in keep}
    return Dfa(dfa.alphabet, states, dfa.initial,
               frozenset(q for q in dfa.accepting if q in keep), delta)


def canonicalize(dfa: Dfa) -> Dfa:
    """Renumber states 0..m-1 in BFS discovery order, letters sorted."""
    order = _reachable(dfa)
    number = {q: i for i, q in enumerate(order)}
    alphabet = tuple(sorted(dfa.alphabet))
    delta = {(number[q], a): number[dfa.delta[(q, a)]]
             for q in order for a in alphabet}
    return Dfa(alphabet, tuple(range(len(order))), 0,
               frozenset(number[q] for q in dfa.accepting if q in number), delta)


def minimize(dfa: Dfa) -> Dfa:
    """Language-equivalent minimal complete DFA with canonical numbering.

    Moore partition refinement; idempotent up to renaming.
    """
    dfa = trim(dfa)
    letters = sorted(dfa.alphabet)
    block = {q: (q in dfa.accepting) for q in dfa.states}
    while True:
        signature = {q: (block[q], tuple(block[dfa.delta[(q, a)]] for a in letters))
                     for q in dfa.states}
        ids = {}
        new_block = {}
        for q in dfa.states:
            new_block[q] = ids.setdefault(signature[q], len(ids))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    reps = {}
    for q in dfa.states:
        reps.setdefault(block[q], q)
    states = tuple(sorted(reps))
    delta = {(block[q], a): block[dfa.delta[(reps[block[q]], a)]]
             for q in dfa.states for a in letters}
    merged = Dfa(tuple(letters), states, block[dfa.initial],
                 frozenset(block[q] for q in dfa.accepting), delta)
    return canonicalize(merged)


def load_dfa(document: str) -> Dfa:
    """Parse and validate a DFA document in the JSON file format.

    Unreachable states are removed with a warning.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("top-level value must be an object")
    for key in ("alphabet", "states", "initial", "accepting", "transitions"):
        if key not in data:
            raise FormatError(f"missing key {key!r}")
    alphabet = data["alphabet"]
    states = data["states"]
    if (not isinstance(alphabet, list) or not alphabet
            or any(not isinstance(a, str) or len(a) != 1 for a in alphabet)):
        raise FormatError("alphabet must be a non-empty list of single-character strings")
    if not isinstance(states, list) or not states or any(not isinstance(q, str) for q in states):
        raise FormatError("states must be a non-empty list of strings")
    # JSON arrays and objects are not state ids (nor hashable)
    if isinstance(data["initial"], (list, dict)):
        raise FormatError(f"initial must be a state id, got {data['initial']!r}")
    if (not isinstance(data["accepting"], list)
            or any(isinstance(q, (list, dict)) for q in data["accepting"])):
        raise FormatError("accepting must be a list of state ids")
    if not isinstance(data["transitions"], list):
        raise FormatError("transitions must be a list")
    declared = set(states)
    if len(declared) != len(states):
        raise FormatError("duplicate state ids")
    delta = {}
    for entry in data["transitions"]:
        if (not isinstance(entry, dict) or set(entry) != {"from", "on", "to"}
                or isinstance(entry["from"], (list, dict))
                or isinstance(entry["to"], (list, dict))):
            raise FormatError(f"bad transition entry: {entry!r}")
        src, sym, dst = entry["from"], entry["on"], entry["to"]
        if sym not in alphabet:
            raise FormatError(f"transition on unknown symbol {sym!r}")
        if src not in declared:
            raise UnknownState(f"transition from undeclared state {src!r}")
        if dst not in declared:
            raise UnknownState(f"transition to undeclared state {dst!r}")
        if (src, sym) in delta:
            raise FormatError(f"duplicate transition ({src!r}, {sym!r})")
        delta[(src, sym)] = dst
    for q in states:
        for a in alphabet:
            if (q, a) not in delta:
                raise PartialTransitionFunction(f"missing transition ({q!r}, {a!r})")
    if data["initial"] not in declared:
        raise UnknownState(f"initial state {data['initial']!r} is not declared")
    for q in data["accepting"]:
        if q not in declared:
            raise UnknownState(f"accepting state {q!r} is not declared")
    dfa = Dfa(tuple(alphabet), tuple(states), data["initial"],
              frozenset(data["accepting"]), delta)
    trimmed = trim(dfa)
    if trimmed.n_states < dfa.n_states:
        dropped = sorted(set(dfa.states) - set(trimmed.states))
        warnings.warn(f"removed unreachable states: {dropped}", stacklevel=2)
    return trimmed


def words_of_length(alphabet, length: int) -> list:
    """Every word of `length` letters over `alphabet`, as strings in
    lexicographic order."""
    return list(map("".join, product(sorted(alphabet), repeat=length)))


def block_dfa(dfa: Dfa, prefix: str, period: int) -> Dfa:
    """DFA over the alphabet of length-`period` blocks, started after
    reading `prefix`; accepts u iff prefix+u is accepted by `dfa`.

    Block symbols are the concatenated letters, enumerated in lexicographic
    order.  The result is trimmed but not minimized.
    """
    blocks = words_of_length(dfa.alphabet, period)
    start = dfa.run(prefix)
    seen = {start}
    order = [start]
    queue = deque([start])
    delta = {}
    while queue:
        q = queue.popleft()
        for b in blocks:
            t = dfa.run(b, start=q)
            delta[(q, b)] = t
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return Dfa(tuple(blocks), tuple(order), start,
               frozenset(q for q in dfa.accepting if q in seen), delta)
