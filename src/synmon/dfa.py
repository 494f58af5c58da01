"""Complete deterministic finite automata: validation, minimization, file I/O.

States are arbitrary hashable ids (strings as loaded from files, dense
integers after canonicalization).  The transition function is stored as a
plain dict keyed by (state, symbol) and must be total.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product

from .errors import FormatError, InvalidPeriod, UnknownSymbol

State = str | int


class Frozen:
    """Base of the immutable classes with `__slots__`: `_set` fills the fields
    once, in `__slots__` order; later assignment or deletion raises
    AttributeError.  Equality is identity unless a subclass defines it.

    `copy`, `deepcopy` and `pickle` rebuild an instance by calling the
    class with its fields in `__slots__` order, which validates it again.
    A `__dict__` slot holds only values cached on first read, so it is
    not a field: a copy starts with nothing cached."""
    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__
                                 if name != "__dict__")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Dfa(Frozen):
    """A complete DFA, validated on construction.  The alphabet is stored
    sorted, so every letter order in the package is this one.  Two are
    equal when every field is; `delta` is left out of the repr.  Its index
    form, its closed classes and its minimal DFA are computed on first
    read and kept."""
    __slots__ = ("alphabet", "states", "initial", "accepting", "delta", "__dict__")

    def __init__(self, alphabet: tuple[str, ...], states: tuple, initial,
                 accepting: frozenset, delta: dict):
        for a in alphabet:
            if not isinstance(a, str):
                raise FormatError(f"letter {a!r} is not a string")
        self._set(tuple(sorted(alphabet)), states, initial, accepting, delta)
        if not self.alphabet:
            raise FormatError("alphabet is empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise FormatError("duplicate symbols in alphabet")
        if len(set(self.states)) != len(self.states):
            raise FormatError("duplicate state ids")
        declared = set(self.states)
        if self.initial not in declared:
            raise FormatError(f"initial state {self.initial!r} is not declared")
        for q in self.accepting:
            if q not in declared:
                raise FormatError(f"accepting state {q!r} is not declared")
        for q in self.states:
            for a in self.alphabet:
                target = self.delta.get((q, a))
                if target is None:
                    raise FormatError(f"missing transition ({q!r}, {a!r})")
                if target not in declared:
                    raise FormatError(f"transition ({q!r}, {a!r}) -> undeclared {target!r}")
        if len(self.delta) != len(self.states) * len(self.alphabet):
            raise FormatError("transition table has extraneous entries")

    def __eq__(self, other):
        if type(other) is not Dfa:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__ if k != "__dict__")

    def __repr__(self):
        return (f"Dfa(alphabet={self.alphabet!r}, states={self.states!r}, "
                f"initial={self.initial!r}, accepting={self.accepting!r})")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def run(self, word: str, start=None):
        q = self.initial if start is None else start
        for a in word:
            q = self.delta[(q, a)]
        return q

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.accepting

    def targets(self) -> tuple:
        """The DFA in index form: per state, in `states` order, the
        position in `states` of the target of each letter, letters sorted."""
        return self._index_form

    @cached_property
    def _index_form(self) -> tuple:
        position = {q: i for i, q in enumerate(self.states)}
        return tuple(tuple(position[self.delta[(q, a)]] for a in self.alphabet)
                     for q in self.states)

    @cached_property
    def closed_classes(self) -> tuple:
        """The closed classes of the transition graph, read in the index
        form, as `periods._cycle_classes` returns them: (component, gcd of
        its cycle lengths, depth), from its one walk of the graph, which
        the sink periods and the limits both read."""
        from .periods import _cycle_classes  # periods imports this module

        return tuple(_cycle_classes(self.n_states, self.targets()))

    @cached_property
    def minimal(self) -> Dfa:
        """`minimize(self)`: one partition refinement (`_refine`), whose
        result is recorded as its own minimal DFA."""
        minimal = _refine(self)
        minimal.__dict__["minimal"] = minimal
        return minimal


def reach(successors, sources) -> list:
    """The vertices reachable from `sources`, each source once, in
    breadth-first discovery order, with `successors[v]` the targets of the
    edges leaving v, read in order: the index form of `Dfa.targets`."""
    order = list(dict.fromkeys(sources))
    seen = set(order)
    for v in order:  # the loop reads the vertices appended behind it
        for t in successors[v]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def _reachable(dfa: Dfa) -> list:
    """The states reachable from the initial one, in breadth-first
    discovery order with letters sorted."""
    return list(map(dfa.states.__getitem__,
                    reach(dfa.targets(), [dfa.states.index(dfa.initial)])))


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


def minimize(dfa: Dfa) -> Dfa:
    """Language-equivalent minimal complete DFA with canonical numbering:
    states 0..m-1 in breadth-first discovery order, letters sorted.  It is
    refined once per DFA and kept (`Dfa.minimal`), and a minimal DFA is
    its own, so minimize(minimize(d)) is minimize(d)."""
    return dfa.minimal


def _refine(dfa: Dfa) -> Dfa:
    """`minimize` by Hopcroft's partition refinement (Hopcroft 1971;
    Valmari and Lehtinen 2008) on the reachable states, through inverse
    transitions.  A worklist holds (block, letter) splitters; a split
    block keeps its number for its larger half and queues the smaller half
    under every letter, so a state enters O(log n) splitters per letter.
    """
    letters = dfa.alphabet
    states = _reachable(dfa)
    index = {q: i for i, q in enumerate(states)}
    succ = [[index[dfa.delta[(q, a)]] for a in letters] for q in states]
    inverse = [[[] for _ in states] for _ in letters]
    for p, row in enumerate(succ):
        for a, q in enumerate(row):
            inverse[a][q].append(p)
    final = {index[q] for q in dfa.accepting if q in index}
    blocks, block_of, work = [set(range(len(states)))], [0] * len(states), []
    hits = {0: set(final)} if final else {}  # the first split sets the final states apart
    while True:
        for c, hit in hits.items():
            members = blocks[c]
            if len(hit) == len(members):
                continue
            if 2 * len(hit) <= len(members):
                members -= hit
            else:  # costs |members| < 2 |hit|
                hit, blocks[c] = members - hit, hit
            for p in hit:
                block_of[p] = len(blocks)
            work += [(len(blocks), a) for a in range(len(letters))]
            blocks.append(hit)
        if not work:
            break
        b, a = work.pop()
        hits = {}  # block -> its states with an a-move into block b
        for q in blocks[b]:
            for p in inverse[a][q]:
                hits.setdefault(block_of[p], set()).add(p)
    # blocks numbered as they first occur along `states` are in breadth-first
    # order: a block's first state is expanded first, and all move alike
    number = {}
    label = [number.setdefault(b, len(number)) for b in block_of]
    delta = {(label[p], a): label[q] for p, row in enumerate(succ) for a, q in zip(letters, row)}
    return Dfa(letters, tuple(range(len(number))), 0,
               frozenset(label[p] for p in final), delta)


def load_dfa(document: str) -> Dfa:
    """Parse and validate a DFA document in the JSON file format: the
    schema, types, symbols, sources and duplicate transitions here, the rest
    in `Dfa`.  The automaton is returned as declared, unreachable states
    included and letters sorted; `trim` drops those states."""
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # ValueError holds JSONDecodeError and an int past Python's digit
        # limit; RecursionError is nesting past the recursion limit
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
            raise FormatError(f"transition from undeclared state {src!r}")
        if (src, sym) in delta:
            raise FormatError(f"duplicate transition ({src!r}, {sym!r})")
        delta[(src, sym)] = dst
    return Dfa(tuple(alphabet), tuple(states), data["initial"],
               frozenset(data["accepting"]), delta)


def words_of_length(alphabet, length: int) -> list:
    """Every word of `length` letters over `alphabet`, whose letters are
    sorted as a Dfa's are, as strings in lexicographic order."""
    return list(map("".join, product(alphabet, repeat=length)))


def block_dfa(dfa: Dfa, prefix: str, period: int) -> Dfa:
    """DFA over the alphabet of length-`period` blocks, started after
    reading `prefix`; accepts u iff prefix+u is accepted by `dfa`.

    Block symbols are the concatenated letters, enumerated in lexicographic
    order.  The result is trimmed but not minimized.
    """
    if period < 1:
        raise InvalidPeriod(f"period {period} must be at least 1")
    for a in prefix:
        if a not in dfa.alphabet:
            raise UnknownSymbol(f"letter {a!r} not in alphabet")
    blocks = words_of_length(dfa.alphabet, period)
    start = dfa.run(prefix)
    order, seen = [start], {start}
    delta = {}
    for q in order:  # the loop reads the states appended behind it
        for b in blocks:
            t = dfa.run(b, start=q)
            delta[(q, b)] = t
            if t not in seen:
                seen.add(t)
                order.append(t)
    return Dfa(tuple(blocks), tuple(order), start,
               frozenset(q for q in dfa.accepting if q in seen), delta)
