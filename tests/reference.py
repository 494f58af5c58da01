"""Reference implementations that the library replaced, kept as oracles.

`moore_minimize` is Moore's partition refinement, which recomputes every
state's signature once per round; `recursive_parse` is the
recursive-descent regex parser, one function per grammar rule.  Both are
slow or bounded by the recursion limit, and both are plain enough to
check by eye.
"""

from synmon.dfa import Dfa, trim
from synmon.errors import RegexSyntaxError
from synmon.regexes import LETTERS, Alt, Cat, Epsilon, Letter, Opt, Plus, Star


def _canonicalize(dfa: Dfa) -> Dfa:
    """Renumber states 0..m-1 in BFS discovery order, letters sorted."""
    letters = sorted(dfa.alphabet)
    order, seen = [dfa.initial], {dfa.initial}
    for q in order:
        for a in letters:
            t = dfa.delta[(q, a)]
            if t not in seen:
                seen.add(t)
                order.append(t)
    number = {q: i for i, q in enumerate(order)}
    delta = {(number[q], a): number[dfa.delta[(q, a)]] for q in order for a in letters}
    return Dfa(tuple(letters), tuple(range(len(order))), 0,
               frozenset(number[q] for q in dfa.accepting if q in number), delta)


def moore_minimize(dfa: Dfa) -> Dfa:
    """The minimal DFA by Moore refinement, canonically numbered."""
    dfa = trim(dfa)
    letters = sorted(dfa.alphabet)
    block = {q: (q in dfa.accepting) for q in dfa.states}
    while True:
        signature = {q: (block[q], tuple(block[dfa.delta[(q, a)]] for a in letters))
                     for q in dfa.states}
        ids = {}
        new_block = {q: ids.setdefault(signature[q], len(ids)) for q in dfa.states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    reps = {}
    for q in dfa.states:
        reps.setdefault(block[q], q)
    delta = {(block[q], a): block[dfa.delta[(reps[block[q]], a)]]
             for q in dfa.states for a in letters}
    merged = Dfa(tuple(letters), tuple(sorted(reps)), block[dfa.initial],
                 frozenset(block[q] for q in dfa.accepting), delta)
    return _canonicalize(merged)


def recursive_parse(text: str):
    """The AST of `text` by recursive descent, or RegexSyntaxError."""
    if not text:
        raise RegexSyntaxError("empty pattern", 0)
    _check_parens(text)
    ast, pos = _parse_alt(text, 0)
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return ast


def _check_parens(text):
    stack = []
    for i, c in enumerate(text):
        if c == "(":
            stack.append(i)
        elif c == ")":
            if not stack:
                raise RegexSyntaxError("unbalanced ')'", i)
            stack.pop()
    if stack:
        raise RegexSyntaxError("unbalanced '('", stack[0])


def _parse_alt(text, pos):
    node, pos = _parse_cat(text, pos)
    while pos < len(text) and text[pos] == "|":
        right, pos = _parse_cat(text, pos + 1)
        node = Alt(node, right)
    return node, pos


def _parse_cat(text, pos):
    node, pos = _parse_rep(text, pos)
    while pos < len(text) and text[pos] not in "|)":
        right, pos = _parse_rep(text, pos)
        node = Cat(node, right)
    return node, pos


def _parse_rep(text, pos):
    node, pos = _parse_atom(text, pos)
    while pos < len(text) and text[pos] in "*+?":
        node = {"*": Star, "+": Plus, "?": Opt}[text[pos]](node)
        pos += 1
    return node, pos


def _parse_atom(text, pos):
    if pos >= len(text):
        raise RegexSyntaxError("dangling operator", pos)
    c = text[pos]
    if c in LETTERS:
        return Letter(c), pos + 1
    if c == "&":
        return Epsilon(), pos + 1
    if c == "(":
        node, inner = _parse_alt(text, pos + 1)
        return node, inner + 1
    if c in "*+?|":
        raise RegexSyntaxError(f"dangling operator {c!r}", pos)
    raise RegexSyntaxError(f"illegal character {c!r}", pos)
