"""Regular expression parsing and compilation to minimal complete DFAs.

Grammar (precedence: postfix > concatenation > alternation):

    alt  := cat ('|' cat)*
    cat  := rep+
    rep  := atom ('*' | '+' | '?')*
    atom := letter | '&' | '(' alt ')'

Letters are [a-z0-9]; '&' denotes the empty word.  Nothing recurses: the
parser is one loop with a stack of open groups, so parentheses nest to
any depth, and `regex_to_dfa` runs the subset construction on Glushkov's
position automaton (Glushkov 1961; Berry and Sethi 1986), built in one
walk on an explicit stack, and minimizes.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .dfa import Dfa, minimize
from .errors import RegexSyntaxError, UnknownSymbol

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
    """Same kind and equal fields, Star(x) != Plus(x) though both are (x,);
    compared on an explicit stack, so that trees of any depth compare."""
    pairs = [(self, other)]
    while pairs:
        x, y = pairs.pop()
        if type(x) is not type(y) or (not isinstance(x, tuple) and x != y):
            return False
        if isinstance(x, tuple):
            pairs += zip(x, y)
    return True


for _kind in RegexAst.__args__:
    _kind.__eq__ = _same_node
    _kind.__ne__ = lambda self, other: not _same_node(self, other)
del _kind


def parse_regex(text: str) -> RegexAst:
    """Parse `text` into an AST; raises RegexSyntaxError with a byte offset.

    One loop over the text.  Each open group holds its alternatives so far
    and the factors of its current concatenation, and postfix operators
    wrap the last factor; '(' pushes the enclosing group and ')' pops it.
    `reduce` nests Alt and Cat to the left."""
    if not text:
        raise RegexSyntaxError("empty pattern", 0)
    _check_parens(text)
    groups = []  # the enclosing groups' (alternatives, factors)
    alts, factors = [], []  # a factor must start where `factors` is empty
    for pos, c in enumerate(text):
        if c == "(":
            groups.append((alts, factors))
            alts, factors = [], []
        elif factors and c in _POSTFIX:
            factors[-1] = _POSTFIX[c](factors[-1])
        elif factors and c in "|)":
            alts.append(reduce(Cat, factors))
            factors = []
            if c == ")":  # _check_parens guarantees an open group
                group = reduce(Alt, alts)
                alts, factors = groups.pop()
                factors.append(group)
        elif c in LETTERS or c == "&":
            factors.append(Letter(c) if c != "&" else Epsilon())
        elif c in "*+?|":
            raise RegexSyntaxError(f"dangling operator {c!r}", pos)
        else:
            raise RegexSyntaxError(f"illegal character {c!r}", pos)
    if not factors:
        raise RegexSyntaxError("dangling operator", len(text))
    return reduce(Alt, [*alts, reduce(Cat, factors)])


_POSTFIX = {"*": Star, "+": Plus, "?": Opt}


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


_INNER = (Alt, Cat, Star, Plus, Opt)  # the nodes whose fields are subtrees


def symbols_of(ast: RegexAst) -> set[str]:
    symbols, stack = set(), [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Letter):
            symbols.add(node.symbol)
        elif isinstance(node, _INNER):
            stack.extend(node)
        elif not isinstance(node, Epsilon):
            raise TypeError(f"not a regex node: {node!r}")
    return symbols


def _positions(ast):
    """Glushkov's position automaton of `ast`, whose positions are its
    letter occurrences and 0, the start: the letter at each position, the
    positions that may follow each one, and the accepting positions.

    One post-order walk computes nullable, first and last of every subtree
    onto a stack of results, so that a node shared by two parents gets its
    own positions under each.  `ast` must have passed `symbols_of`, which
    rejects anything that is not a regex node."""
    letters = [None]
    follow = [set()]
    results = []  # (nullable, first, last) of each finished subtree
    work = [(ast, False)]
    while work:
        node, children_done = work.pop()
        if isinstance(node, Letter):
            results.append((False, {len(letters)}, {len(letters)}))
            letters.append(node.symbol)
            follow.append(set())
        elif isinstance(node, Epsilon):
            results.append((True, set(), set()))
        elif not children_done:
            work.append((node, True))
            work.extend((child, False) for child in reversed(node))
        elif isinstance(node, (Alt, Cat)):
            n2, f2, l2 = results.pop()
            n1, f1, l1 = results.pop()
            if isinstance(node, Alt):
                results.append((n1 or n2, f1 | f2, l1 | l2))
            else:
                for p in l1:
                    follow[p] |= f2
                results.append((n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2))
        else:
            nullable, first, last = results.pop()
            if not isinstance(node, Opt):  # Star and Plus repeat the child
                for p in last:
                    follow[p] |= first
            results.append((nullable or not isinstance(node, Plus), first, last))
    nullable, follow[0], last = results.pop()  # the start is followed by first
    return letters, follow, last | {0} if nullable else last


def regex_to_dfa(ast: RegexAst, alphabet) -> Dfa:
    """Compile to the minimal complete DFA over `alphabet` (subset
    construction on the position automaton; the empty subset acts as the
    completion sink)."""
    alphabet = tuple(sorted(alphabet))
    extra = symbols_of(ast) - set(alphabet)
    if extra:
        raise UnknownSymbol(f"symbols {sorted(extra)} not in alphabet {list(alphabet)}")
    letters, follow, final = _positions(ast)
    init = frozenset({0})
    subsets = {init: 0}
    order = [init]
    delta = {}
    i = 0
    while i < len(order):
        moved = {a: set() for a in alphabet}
        for p in order[i]:
            for q in follow[p]:
                moved[letters[q]].add(q)
        for a in alphabet:
            target = frozenset(moved[a])
            if target not in subsets:
                subsets[target] = len(order)
                order.append(target)
            delta[(i, a)] = subsets[target]
        i += 1
    accepting = frozenset(i for i, s in enumerate(order) if not final.isdisjoint(s))
    dfa = Dfa(alphabet, tuple(range(len(order))), 0, accepting, delta)
    return minimize(dfa)
