import contextlib
import io
import itertools
import sys
import time

import pytest
from hypothesis import given, strategies as st

from synmon import cli
from synmon.dfa import Dfa, minimize
from synmon.errors import RegexSyntaxError, UnknownSymbol
from synmon.oracle import regex_match
from synmon.regexes import (Alt, Cat, Epsilon, Letter, Opt, Plus, Star, parse_regex,
                            regex_to_dfa, symbols_of)

from reference import moore_minimize, recursive_parse

PATTERNS = [
    "a(aa)*",
    "(a|b)*",
    "((a|b)(a|b))*",
    "a((a|b)(a|b))*|b(a|b)*",
    "a(a|b)*",
    "(a|b)*a(a|b)*",
    "a|&",
    "(ab+)?b*",
    "&",
    "a?b?a?",
    "(aa|bb|(ab|ba)(aa|bb)*(ab|ba))*",
]


def test_parse_cat_star():
    assert parse_regex("a(aa)*") == Cat(Letter("a"), Star(Cat(Letter("a"), Letter("a"))))


def test_parse_alt_star():
    assert parse_regex("(a|b)*") == Star(Alt(Letter("a"), Letter("b")))


def test_parse_epsilon_plus_opt():
    assert parse_regex("&") == Epsilon()
    assert parse_regex("a+") == Plus(Letter("a"))
    assert parse_regex("a?") == Opt(Letter("a"))


def test_precedence_star_binds_tighter_than_cat():
    assert parse_regex("ab*") == Cat(Letter("a"), Star(Letter("b")))
    assert parse_regex("a|bc") == Alt(Letter("a"), Cat(Letter("b"), Letter("c")))


@pytest.mark.parametrize("text,offset", [
    ("a(", 1),
    ("(a))", 3),
    ("*a", 0),
    ("a|", 2),
    ("a|*", 2),
    ("aA", 1),
    ("", 0),
    pytest.param("(" * 5000 + ")" * 5000, 5000, id="empty group nested 5000 deep"),
])
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(text)
    assert err.value.offset == offset


def test_alphabet_mismatch():
    with pytest.raises(UnknownSymbol, match=r"^symbols \['c'\] not in alphabet \['a', 'b'\]$"):
        regex_to_dfa(parse_regex("abc"), "ab")


def test_pairs_language_has_two_states():
    dfa = regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab")
    assert dfa.n_states == 2
    assert dfa.accepts("") and dfa.accepts("ab") and not dfa.accepts("aba")


def test_oscillating_language_has_four_states():
    dfa = regex_to_dfa(parse_regex("a((a|b)(a|b))*|b(a|b)*"), "ab")
    assert dfa.n_states == 4


def test_single_letter_has_start_accept_sink():
    dfa = regex_to_dfa(parse_regex("a"), "ab")
    assert dfa.n_states == 3
    assert dfa.accepts("a") and not dfa.accepts("") and not dfa.accepts("b")


def test_compiled_dfa_is_complete():
    for pattern in PATTERNS:
        dfa = regex_to_dfa(parse_regex(pattern), "ab")
        for q in dfa.states:
            for a in dfa.alphabet:
                assert (q, a) in dfa.delta


def test_minimize_idempotent_on_compiled():
    for pattern in PATTERNS:
        dfa = regex_to_dfa(parse_regex(pattern), "ab")
        again = minimize(dfa)
        assert again.n_states == dfa.n_states
        assert again.delta == dfa.delta and again.accepting == dfa.accepting


def test_round_trip_exhaustive_short_words():
    for pattern in PATTERNS:
        ast = parse_regex(pattern)
        dfa = regex_to_dfa(ast, "ab")
        for n in range(7):
            for word in map("".join, itertools.product("ab", repeat=n)):
                assert dfa.accepts(word) == regex_match(ast, word), (pattern, word)


@given(st.text(alphabet="ab", max_size=10), st.sampled_from(PATTERNS))
def test_round_trip_random_words(word, pattern):
    ast = parse_regex(pattern)
    dfa = regex_to_dfa(ast, "ab")
    assert dfa.accepts(word) == regex_match(ast, word)


def test_symbols_of():
    assert symbols_of(parse_regex("a(b|&)*0")) == {"a", "b", "0"}


def nested(depth):
    return "(" * depth + "a" + ")" * depth


def run_main(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_parentheses_nest_to_any_depth():
    assert sys.getrecursionlimit() <= 1000  # the interpreter's default
    assert parse_regex(nested(5000)) == Letter("a")
    code, out, err = run_main("prob", "--regex", nested(5000), "--alphabet", "ab")
    assert (code, err) == (0, "")
    stars = Letter("a")
    for _ in range(1000):
        stars = Star(stars)
    ast = parse_regex("(" * 1000 + "a" + ")*" * 1000)
    assert ast == stars and ast != Star(stars)
    assert regex_to_dfa(ast, "ab") == regex_to_dfa(parse_regex("a*"), "ab")


def test_chain_regex_compiles_in_under_a_second():
    start = time.perf_counter()
    dfa = regex_to_dfa(parse_regex("(a|b)" * 1200), "ab")
    assert time.perf_counter() - start < 1
    assert dfa.n_states == 1202


@pytest.mark.parametrize("regex, states", [
    pytest.param("a" + "*" * 1500, 2, id="1500 stars"),
    pytest.param("(" + "a|" * 1500 + "b)*", 1, id="1501 alternatives"),
    pytest.param("&" * 1500 + "a", 3, id="1501 concatenated atoms"),
])
def test_deep_regexes_compile_without_recursion(regex, states):
    assert sys.getrecursionlimit() <= 1000  # the interpreter's default
    code, out, err = run_main("analyze", "--regex", regex, "--alphabet", "ab")
    assert code == 0, err
    assert out.splitlines()[0] == f"dfa: {states} states over {{a,b}}"


def asts():
    """Regex ASTs over all seven node kinds, some sharing one subtree
    object between two parents."""
    leaves = st.builds(Epsilon) | st.sampled_from("ab").map(Letter)

    def extend(children):
        return st.one_of(
            st.builds(Alt, children, children), st.builds(Cat, children, children),
            st.builds(Star, children), st.builds(Plus, children), st.builds(Opt, children),
            children.map(lambda x: Cat(x, Cat(x, x))), children.map(lambda x: Alt(x, Star(x))))

    return st.recursive(leaves, extend, max_leaves=8)


@given(asts())
def test_compiled_dfa_agrees_with_the_matcher_on_short_words(ast):
    dfa = regex_to_dfa(ast, "abc")
    for n in range(6):
        for word in map("".join, itertools.product("abc", repeat=n)):
            assert dfa.accepts(word) == regex_match(ast, word), word


@given(st.text(alphabet="ab&|*+?()$", max_size=14))
def test_parser_agrees_with_recursive_descent(text):
    def outcome(parse):
        try:
            return parse(text)
        except RegexSyntaxError as err:
            return str(err), err.offset

    assert outcome(parse_regex) == outcome(recursive_parse)


POSTFIX = {Star: "*", Plus: "+", Opt: "?"}


def parenthesized(ast):
    """`ast` as text with every inner node in parentheses."""
    if isinstance(ast, Letter):
        return ast.symbol
    if isinstance(ast, Epsilon):
        return "&"
    if isinstance(ast, (Alt, Cat)):
        middle = "|" if isinstance(ast, Alt) else ""
        return f"({parenthesized(ast.left)}{middle}{parenthesized(ast.right)})"
    return f"({parenthesized(ast.child)}){POSTFIX[type(ast)]}"


@given(asts())
def test_parenthesized_ast_parses_back(ast):
    assert parse_regex(parenthesized(ast)) == ast


def doubled(dfa):
    """`dfa` with a bit that counts the a's it reads mod 2: the same
    language on twice the states, each equivalent to its twin."""
    bit = {a: int(a == "a") for a in dfa.alphabet}
    delta = {((q, i), a): (t, i ^ bit[a]) for (q, a), t in dfa.delta.items() for i in (0, 1)}
    return Dfa(dfa.alphabet, tuple((q, i) for q in dfa.states for i in (0, 1)),
               (dfa.initial, 0), frozenset((q, i) for q in dfa.accepting for i in (0, 1)),
               delta)


@given(asts())
def test_minimize_equals_moore_on_compiled_regexes(ast):
    dfa = regex_to_dfa(ast, "ab")
    assert minimize(dfa) == moore_minimize(dfa) == dfa
    assert minimize(doubled(dfa)) == moore_minimize(doubled(dfa)) == dfa
