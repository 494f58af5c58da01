"""Regular expression parsing and compilation to minimal complete DFAs.

Grammar (precedence: postfix > concatenation > alternation):

    alt  := cat ('|' cat)*
    cat  := rep+
    rep  := atom ('*' | '+' | '?')*
    atom := letter | '&' | '(' alt ')'

Letters are [a-z0-9]; '&' denotes the empty word.
"""

from __future__ import annotations

from typing import NamedTuple

from .dfa import Dfa, minimize
from .errors import AlphabetMismatch, RegexSyntaxError

LETTERS = set("abcdefghijklmnopqrstuvwxyz0123456789")


class Letter(NamedTuple):
    symbol: str


class Epsilon(NamedTuple):
    pass


class Alt(NamedTuple):
    left: "RegexAst"
    right: "RegexAst"


class Cat(NamedTuple):
    left: "RegexAst"
    right: "RegexAst"


class Star(NamedTuple):
    child: "RegexAst"


class Plus(NamedTuple):
    child: "RegexAst"


class Opt(NamedTuple):
    child: "RegexAst"


RegexAst = Letter | Epsilon | Alt | Cat | Star | Plus | Opt


def _same_node(self, other) -> bool:
    """Same kind and equal fields: Star(x) != Plus(x), though both are (x,)."""
    return type(self) is type(other) and tuple.__eq__(self, other)


for _kind in RegexAst.__args__:
    _kind.__eq__ = _same_node
    _kind.__ne__ = lambda self, other: not _same_node(self, other)
del _kind


def parse_regex(text: str) -> RegexAst:
    """Parse `text` into an AST; raises RegexSyntaxError with a byte offset."""
    if not text:
        raise RegexSyntaxError("empty pattern", 0)
    _check_parens(text)
    ast, pos = _parse_alt(text, 0)
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return ast


def _check_parens(text: str) -> None:
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
        # _check_parens guarantees text[inner] == ')'
        return node, inner + 1
    if c in "*+?|":
        raise RegexSyntaxError(f"dangling operator {c!r}", pos)
    raise RegexSyntaxError(f"illegal character {c!r}", pos)


def symbols_of(ast: RegexAst) -> set[str]:
    if isinstance(ast, Letter):
        return {ast.symbol}
    if isinstance(ast, Epsilon):
        return set()
    if isinstance(ast, (Alt, Cat)):
        return symbols_of(ast.left) | symbols_of(ast.right)
    return symbols_of(ast.child)


# --- Thompson construction ---
# NFA as: list of dicts state -> {symbol or '' (epsilon) -> set of states}.

def _thompson(ast, edges):
    """Return (start, end) sub-automaton; appends states to `edges`."""
    def new_state():
        edges.append({})
        return len(edges) - 1

    def link(s, label, t):
        edges[s].setdefault(label, set()).add(t)

    if isinstance(ast, Letter):
        s, t = new_state(), new_state()
        link(s, ast.symbol, t)
        return s, t
    if isinstance(ast, Epsilon):
        s, t = new_state(), new_state()
        link(s, "", t)
        return s, t
    if isinstance(ast, Alt):
        s, t = new_state(), new_state()
        ls, lt = _thompson(ast.left, edges)
        rs, rt = _thompson(ast.right, edges)
        link(s, "", ls)
        link(s, "", rs)
        link(lt, "", t)
        link(rt, "", t)
        return s, t
    if isinstance(ast, Cat):
        ls, lt = _thompson(ast.left, edges)
        rs, rt = _thompson(ast.right, edges)
        link(lt, "", rs)
        return ls, rt
    if isinstance(ast, (Star, Plus, Opt)):
        s, t = new_state(), new_state()
        cs, ct = _thompson(ast.child, edges)
        link(s, "", cs)
        if not isinstance(ast, Plus):
            link(s, "", t)
        link(ct, "", t)
        if not isinstance(ast, Opt):
            link(ct, "", cs)
        return s, t
    raise TypeError(f"not a regex node: {ast!r}")


def _eps_closure(edges, states):
    closure = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for t in edges[q].get("", ()):
            if t not in closure:
                closure.add(t)
                stack.append(t)
    return frozenset(closure)


def regex_to_dfa(ast: RegexAst, alphabet) -> Dfa:
    """Compile to the minimal complete DFA over `alphabet` (subset
    construction; the empty subset acts as the completion sink)."""
    alphabet = tuple(sorted(alphabet))
    extra = symbols_of(ast) - set(alphabet)
    if extra:
        raise AlphabetMismatch(f"symbols {sorted(extra)} not in alphabet {list(alphabet)}")
    edges = []
    start, end = _thompson(ast, edges)
    init = _eps_closure(edges, {start})
    subsets = {init: 0}
    order = [init]
    delta = {}
    i = 0
    while i < len(order):
        current = order[i]
        for a in alphabet:
            moved = set()
            for q in current:
                moved.update(edges[q].get(a, ()))
            target = _eps_closure(edges, moved)
            if target not in subsets:
                subsets[target] = len(order)
                order.append(target)
            delta[(subsets[current], a)] = subsets[target]
        i += 1
    accepting = frozenset(subsets[s] for s in order if end in s)
    dfa = Dfa(alphabet, tuple(range(len(order))), 0, accepting, delta)
    return minimize(dfa)
