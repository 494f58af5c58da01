import functools
import itertools
import json
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from synmon import (Analysis, cli, decompose, monoid, periods, probability,
                    zero_one_residual)
from synmon.dfa import Dfa
from synmon.errors import TooLarge
from synmon.regexes import parse_regex, regex_to_dfa

from conftest import DATA


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` in every synmon module that binds it; returns the
    list of calls, one entry per call."""
    original = getattr(module, name)
    calls = []

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "synmon" or key.startswith("synmon."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def counter_dfa_file(tmp_path, n):
    """n x n two-letter counter: accept when both letter counts are 0 mod n."""
    states = [f"{i}_{j}" for i in range(n) for j in range(n)]
    transitions = []
    for i, j in itertools.product(range(n), repeat=2):
        transitions.append({"from": f"{i}_{j}", "on": "a", "to": f"{(i + 1) % n}_{j}"})
        transitions.append({"from": f"{i}_{j}", "on": "b", "to": f"{i}_{(j + 1) % n}"})
    path = tmp_path / f"counter{n}.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "states": states,
                                "initial": "0_0", "accepting": ["0_0"],
                                "transitions": transitions}))
    return path


def test_analyze_builds_the_monoid_once(monkeypatch, tmp_path, capsys):
    builds = count_calls(monkeypatch, monoid, "transition_monoid")
    assert cli.main(["analyze", "--json", "--dfa", str(counter_dfa_file(tmp_path, 4))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monoid"]["order"] == 16
    assert len(builds) == 1


def test_analyze_checks_each_monoid_table_once(monkeypatch, capsys):
    checks = count_calls(monkeypatch, monoid, "check_table")
    # T_r builds no table of its own and reads its ideals off the Cayley
    # graph, so only M's table is checked, by analyze --json, which prints
    # it; zero-one fills none, neither at P = 1 (the 6th letter from the end
    # is an a), where no residual has a witness, nor on a3 at P = 2 and at
    # P = 3, where a witness scan runs
    for source, order, period, scans in (
            (["--regex", "(a|b)*a" + "(a|b)" * 5], 127, 1, False),
            (["--dfa", str(DATA / "a3.json")], 5, 2, True),
            (["--regex", "((a|b)(a|b)(a|b))*a(a|b)", "--alphabet", "ab"], 15, 3, True)):
        for verb in ("analyze", "zero-one"):
            assert cli.main([verb, "--json", *source]) == 0, (verb, period)
            report = json.loads(capsys.readouterr().out)
            rows = (report["probability"]["zero_one"] if verb == "analyze" else report)["residual"]
            assert len(rows) == 2 ** period - 1, (verb, period)
            assert any(row["verdict"] == "zero-one" for row in rows) == scans, (verb, period)
            expected = [order] if verb == "analyze" else []
            assert [len(call[0]) for call in checks] == expected, (verb, period)
            checks.clear()


def test_verbs_that_read_no_table_fill_none(monkeypatch, capsys):
    fills = count_calls(monkeypatch, monoid, "_rows")
    checks = count_calls(monkeypatch, monoid, "check_table")
    # P = 2, order 5, and P = 3, order 15: a witness scan runs on both
    regex = ["--regex", "((a|b)(a|b))*a", "--alphabet", "ab"]
    period3 = ["--regex", "((a|b)(a|b)(a|b))*a(a|b)", "--alphabet", "ab"]
    # the 6th letter from the end is an a: order 127, P = 1, no zero and no
    # witness, so the verdicts read K(M) off the Cayley graph alone
    tail = ["--regex", "(a|b)*a" + "(a|b)" * 5, "--alphabet", "ab"]
    for argv in (["period", *regex], ["prob", *regex], ["oracle", "cycle-gcd", *regex],
                 ["oracle", "lw", *regex, "--w", "a"], ["decompose", *regex],
                 ["decompose", "--json", *regex], ["analyze", *tail], ["zero-one", *tail],
                 *([*verb.split(), *source] for source in (regex, period3)
                   for verb in ("analyze", "zero-one", "zero-one --json"))):
        assert cli.main(argv) == 0, argv
        assert (fills, checks) == ([], []), argv
    built, build = [], cli._analysis
    monkeypatch.setattr(cli, "_analysis", lambda args: built.append(build(args)) or built[-1])
    # monoid and analyze --json print the table
    for argv in (["monoid", *regex], ["analyze", "--json", *regex],
                 ["monoid", *tail], ["analyze", "--json", *tail]):
        assert cli.main(argv) == 0, argv
        # one fill for M, checked once, counted before the read below,
        # which would fill the table itself
        assert (len(fills), len(checks)) == (1, 1), argv
        assert checks.pop()[0] is built.pop().monoid.monoid.table, argv
        fills.clear()
    capsys.readouterr()


def test_zero_one_wrappers_build_no_monoid(monkeypatch, corpus):
    builds = count_calls(monkeypatch, monoid, "transition_monoid")
    for name, (dfa, _, _) in corpus.items():
        analysis = Analysis(dfa)
        basic, rows = analysis.basic_verdict, analysis.residual_verdicts
        builds.clear()
        assert probability.zero_one_basic(analysis.monoid, dfa) == basic, name
        assert [zero_one_residual(analysis.decomposition, dfa, v.w) for v in rows] == \
            list(rows), name
        assert builds == [], name


def test_analyze_runs_max_period_once_and_prob_one_signature(monkeypatch, capsys):
    # the letter-count walk gives the maxima and rho_bar together
    walks = count_calls(monkeypatch, periods, "_letter_counts")
    signatures = count_calls(monkeypatch, periods, "build_signature")
    assert cli.main(["analyze", "--json", "--regex", "((a|b)(a|b))*"]) == 0
    assert json.loads(capsys.readouterr().out)["signature"]["periods"] == [2]
    assert (len(walks), len(signatures)) == (1, 1)
    walks.clear()
    signatures.clear()
    assert cli.main(["zero-one", "--regex", "((a|b)(a|b))*"]) == 0
    assert capsys.readouterr().out.startswith("basic: ")
    assert (len(walks), len(signatures)) == (1, 1)
    # P = 1: text prob prints the series alone and walks nothing; under
    # --json the report reads the maximum period off the signature, prints
    # no notice, and `accumulation_points` walks once more on a monoid of
    # its own
    for argv, counts in ((["prob"], (0, 0)), (["prob", "--json"], (2, 1))):
        walks.clear()
        signatures.clear()
        assert cli.main([*argv, "--regex", "(a|b)*a"]) == 0
        assert capsys.readouterr().err == ""
        assert (len(walks), len(signatures)) == counts, argv


def test_text_prob_builds_no_monoid(monkeypatch, capsys):
    # the series needs only the DFA; the period and the limits are the JSON's,
    # and each of them closes a monoid of its own
    builds = count_calls(monkeypatch, monoid, "transition_monoid")
    regex = ["--regex", "(a|b)*a(a|b)(a|b)(a|b)"]
    for argv, count in ((["prob", *regex], 0), (["prob", "--json", *regex], 2)):
        builds.clear()
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out, argv
        assert len(builds) == count, argv


def test_stage_values_do_not_depend_on_the_order_they_are_read(monkeypatch):
    walks = count_calls(monkeypatch, periods, "_letter_counts")
    dfa = regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab")
    first, second = Analysis(dfa), Analysis(dfa)
    basic, rows = first.basic_verdict, first.residual_verdicts
    assert len(walks) == 1
    assert (second.residual_verdicts, second.basic_verdict) == (rows, basic)
    assert len(walks) == 2


def test_analyze_reads_no_wreath_divisor(monkeypatch, capsys):
    phis = count_calls(monkeypatch, decompose, "wreath_divisor")
    assert cli.main(["analyze", "--json", "--dfa", str(DATA / "a3.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    # the read-back makes Can injective, so phi has one point per element
    assert report["wreath"]["phi_domain_size"] == report["monoid"]["order"] == 5
    assert phis == []


def test_residual_verdicts_once_per_prefix_image(monkeypatch, capsys):
    verdicts = count_calls(monkeypatch, probability, "residual_verdict")
    regex = "((a|b|c)(a|b|c)(a|b|c))*"
    assert cli.main(["analyze", "--json", "--regex", regex]) == 0
    rows = json.loads(capsys.readouterr().out)["probability"]["zero_one"]["residual"]
    assert len(rows) == 1 + 3 + 9
    # eta(w) is the length of w mod 3, so three distinct images
    assert len(verdicts) == 3


def test_deduplicated_rows_equal_per_prefix_recomputation(corpus):
    for name in ("a3", "alt_half"):
        dfa = corpus[name][0]
        analysis = Analysis(dfa)
        period = analysis.signature.periods[0]
        prefixes = ["".join(p) for r in range(period)
                    for p in itertools.product("ab", repeat=r)]
        direct = [zero_one_residual(analysis.decomposition, dfa, w) for w in prefixes]
        assert list(analysis.residual_verdicts) == direct, name


@st.composite
def level_dfas(draw):
    """Complete DFAs over two or three letters with at most six states.  As
    in `conftest.small_dfas`, state q sits on level q mod p and every
    letter moves one level up, so that periods up to 6 occur."""
    letters = draw(st.sampled_from(("ab", "abc")))
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, n))
    delta = {(q, a): draw(st.sampled_from(range((q + 1) % p, n, p)))
             for q in range(n) for a in letters}
    accepting = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Dfa(tuple(letters), tuple(range(n)), 0, frozenset(accepting), delta)


@settings(max_examples=80)
@given(level_dfas())
def test_deduplicated_rows_equal_per_prefix_recomputation_on_random_dfas(dfa):
    # the rows walk the prefixes level by level; each must be the verdict
    # that `zero_one_residual` computes from its own word, in the same order
    analysis = Analysis(dfa)
    with mock.patch.object(monoid, "ORDER_CAP", 64):
        try:
            analysis.monoid
        except TooLarge:
            assume(False)
    period = analysis.signature.periods[0]
    prefixes = ["".join(p) for r in range(period)
                for p in itertools.product(dfa.alphabet, repeat=r)]
    direct = [zero_one_residual(analysis.decomposition, dfa, w) for w in prefixes]
    assert list(analysis.residual_verdicts) == direct


def test_the_zero_one_stage_walks_no_word_and_searches_no_ideal_of_the_kernel(monkeypatch, capsys):
    # on C_50 = (a^50)* each T_r is one element, which lies in K(T_r) and
    # decides, so every residual runs a witness scan; the scan reads K(T_r)
    # for it and searches no ideal, and the prefixes are walked level by
    # level, so no word is read through the Cayley graph
    reach, searches = decompose.reach, []
    monkeypatch.setattr(decompose, "reach", lambda *args: searches.append(args) or reach(*args))
    image_of_word, walks = monoid.SyntacticMonoid.image_of_word, []
    monkeypatch.setattr(monoid.SyntacticMonoid, "image_of_word",
                        lambda self, w: walks.append(w) or image_of_word(self, w))
    c50 = ["--regex", "(" + "a" * 50 + ")*", "--alphabet", "a"]
    for argv in (["analyze", *c50], ["zero-one", *c50], ["zero-one", "--json", *c50]):
        assert cli.main(argv) == 0, argv
        assert searches == [], argv
    # no verb walks a word, also where a witness scan searches ideals (P = 3)
    for source in (c50, ["--regex", "((a|b)(a|b)(a|b))*a(a|b)", "--alphabet", "ab"],
                   ["--dfa", str(DATA / "a3.json")]):
        for verb in ("analyze", "zero-one", "monoid", "period", "prob", "decompose"):
            for argv in ([verb, *source], [verb, "--json", *source]):
                assert cli.main(argv) == 0, argv
                assert walks == [], argv
    capsys.readouterr()


def test_the_limits_walk_a_to_the_p_from_no_closed_state(monkeypatch, capsys):
    # on C_50 = (a^50)* every state lies in one closed cycle of gcd 50, so
    # the limit vector walks 50 letters from its one base state, and the
    # limits per residue walk from the initial state: two walks
    walks = count_calls(monkeypatch, probability, "_walk_counts")
    c50 = ["--regex", "(" + "a" * 50 + ")*", "--alphabet", "a"]
    for argv in (["prob", "--json", *c50], ["analyze", *c50]):
        walks.clear()
        assert cli.main(argv) == 0, argv
        assert len(walks) == 2, argv
    capsys.readouterr()


def test_shared_residual_monoids_equal_fresh_ones(corpus):
    analysis = Analysis(corpus["a3"][0])
    assert len(analysis.residual_monoids) == 2
    for r, shared in enumerate(analysis.residual_monoids):
        fresh = decompose.residual_monoid(analysis.decomposition, r)
        assert shared.r == fresh.r == r
        assert shared.transformations == fresh.transformations
        assert shared.slot == fresh.slot and shared.dec is fresh.dec


def test_analyze_builds_each_residual_monoid_once(monkeypatch, capsys):
    builds = count_calls(monkeypatch, decompose, "residual_monoid")
    seen = []  # the analysis, then the report
    build, emit = cli._analysis, cli._emit

    def analysis(args):
        seen.append(build(args))
        return seen[-1]

    def report(args, out, lines, graph=None):
        seen.append(out())  # text analyze builds no report: build it here
        emit(args, out, lines, graph)

    monkeypatch.setattr(cli, "_analysis", analysis)
    monkeypatch.setattr(cli, "_emit", report)
    for source, period in ((["--dfa", str(DATA / "a3.json")], 2),
                           (["--regex", "((a|b)(a|b)(a|b))*"], 3)):
        builds.clear()
        seen.clear()
        assert cli.main(["analyze", *source]) == 0
        assert capsys.readouterr().out.startswith("dfa: ")
        done, out = seen
        assert [r for _, r in builds] == list(range(period))
        # the report's rows are the stage's own tuples, not copies
        assert len(out["residual_monoids"]) == period
        for row, t_r in zip(out["residual_monoids"], done.residual_monoids):
            assert row["elements"] is t_r.transformations


def test_stages_match_closed_forms_past_the_oracle_caps():
    """Two monoids too large for the oracles, checked against values derived
    by hand.  With k = 8, L = (a|b)*a(a|b)^k holds the words whose (k+1)-th
    letter from the end is a, and x.u.y is in L iff that letter of xuy is a.
    So the class of u is fixed by its last min(|u|, k+1) letters, and all of
    them matter: the words shorter than k+1 are distinct elements, 2^(k+1)-1
    of them, and the longer ones fall into 2^(k+1) classes by their last k+1
    letters, so the order is 2^(k+2)-1 = 1023.  The minimal DFA keeps the
    last k+1 letters, a missing letter read as b: 2^(k+1) = 512 states.  The
    class of a^(k+1) is fixed by a, a Cayley cycle of weight 1, so P = 1,
    N_0 = M and K = |M|.  mu(l) is 0 for l <= k and 1/2 after, the chance that
    one letter is a, so the one limit is 1/2.  A zero z would have
    z.a^(k+1) = z = z.b^(k+1), but those two end in different letters; so
    there is none, and a limit strictly between 0 and 1 makes the basic
    verdict `neither` and the verdict of the one prefix '' mixed.

    L' = (a|b)((a|b)(a|b))*a(a|b)^k adds that |w| is even (and so >= k+2).
    The class of u is then its last min(|u|, k+1) letters and, once
    |u| >= k+1, the parity of |u|: 2^(k+1)-1 short words and 2 . 2^(k+1)
    long classes, so the order is 3 . 2^(k+1)-1 = 1535.  Every Cayley edge
    flips the parity, and a^(k+2).aa = a^(k+2), so P = 2.  mu(l) is 1/2 for
    even l >= k+2 and 0 otherwise: the limits are (1/2, 0), there is no zero
    element (as for L), and the basic verdict is `oscillating`.  A block word after the prefix '' is in L' half of the
    time, so '' is mixed; after a or b it has odd length and is never in L',
    so a and b are zero-one."""
    from synmon.oracle import CYCLE_ORDER_CAP, ISOMORPHISM_ORDER_CAP

    k, half = 8, Fraction(1, 2)
    tail = "a" + "(a|b)" * k
    for regex, order, limits, basic, verdicts, mu in (
            ("(a|b)*" + tail, 2 ** (k + 2) - 1, (half,), "neither", {"": False},
             lambda l: half if l > k else 0),
            ("(a|b)((a|b)(a|b))*" + tail, 3 * 2 ** (k + 1) - 1, (half, 0), "oscillating",
             {"": False, "a": True, "b": True},
             lambda l: half if l >= k + 2 and l % 2 == 0 else 0)):
        analysis = Analysis(regex_to_dfa(parse_regex(regex), "ab"))
        assert analysis.monoid.order == order > max(CYCLE_ORDER_CAP, ISOMORPHISM_ORDER_CAP)
        assert analysis.max_period == len(limits)
        assert tuple(analysis.accumulation) == limits
        assert analysis.basic_verdict.verdict == basic
        assert analysis.basic_verdict.zero_element is None
        assert {v.w: v.is_zero_or_one for v in analysis.residual_verdicts} == verdicts
        assert probability.mu_series(analysis.dfa, 2 * k) == [mu(l) for l in range(2 * k + 1)]
        if len(limits) == 1:
            assert analysis.minimal.n_states == 2 ** (k + 1)
            assert analysis.decomposition.K == order


def symmetric_dfa(n):
    """S_n on the points 0..n-1: a = (0 1), b the n-cycle i -> i + 1 mod n;
    0 is the start and the only accepting state."""
    delta = {}
    for q in range(n):
        delta[(q, "a")] = {0: 1, 1: 0}.get(q, q)
        delta[(q, "b")] = (q + 1) % n
    return Dfa(("a", "b"), tuple(range(n)), 0, frozenset({0}), delta)


def signed_shift_dfa(n):
    """Signed shifts on the 2n states (i, s): a flips s at i = 0 and fixes
    every other state, b sends i to i + 1 mod n; (0, 0) is the start and
    the only accepting state."""
    states = tuple((i, s) for i in range(n) for s in (0, 1))
    delta = {}
    for i, s in states:
        delta[((i, s), "a")] = (i, 1 - s) if i == 0 else (i, s)
        delta[((i, s), "b")] = ((i + 1) % n, s)
    return Dfa(("a", "b"), states, (0, 0), frozenset({(0, 0)}), delta)


def test_group_stages_match_closed_forms_past_the_oracle_caps():
    """Two permutation groups too large for the oracles, checked against
    values derived by hand.  Both DFAs are minimal: the letters generate a
    transitive group, so every state reaches the accepting one, and a
    permutation sends only one state there.  So the monoid is the group:
    S_6 of order 6! = 720, and the signed shifts, Z_2^n x| Z_n of order
    2^n . n = 2048 at n = 8.

    P = 2 exactly when n is even.  In S_n at even n, a and the n-cycle b
    are both odd permutations, so the sign of the image of w fixes |w| mod
    2: every Cayley cycle has even length, and aa = e is one of length 2.
    In the signed shifts the image of w fixes #a mod 2 (the parity of its
    flips) and #b mod n (its shift), so at even n it fixes |w| mod 2, and
    aa = e again.  At odd n, b^n = e is a cycle of odd length, so P = 1:
    S_5 has order 120 and the signed shifts at n = 5 order 160.

    At P = 2 the kernel N_0 is the half of the group of even length, so
    K = |T_0| = |T_1| = |G| / 2.  Read two letters at a time, a uniform
    random word is a random walk on the kernel whose steps generate it and
    include aa = e, so it tends to the uniform distribution: in the limit
    the words of length l = r mod 2 spread evenly over one coset of the
    kernel.  The kernel acts transitively on the states (A_6 on 6 points;
    the even-length half of the signed shifts on the 16 pairs), so each
    coset sends the start to every state equally often, and every limit,
    and mu_{L_w} for each prefix w shorter than P, is 1/(number of states).
    A group of order above 1 has no zero, and a limit strictly between 0
    and 1 makes the basic verdict `neither` and every residual verdict
    mixed.

    `oracle.cycle_gcd` confirms P = 2 on S_4, whose order 24 is within its
    cap."""
    from synmon.oracle import CYCLE_ORDER_CAP, ISOMORPHISM_ORDER_CAP, cycle_gcd

    s4 = Analysis(symmetric_dfa(4))
    assert s4.monoid.order == 24 <= CYCLE_ORDER_CAP
    assert cycle_gcd(s4.monoid, "ab") == s4.max_period == 2
    for dfa, order in ((symmetric_dfa(5), 120), (signed_shift_dfa(5), 160)):
        analysis = Analysis(dfa)
        assert (analysis.monoid.order, analysis.max_period) == (order, 1)
    for dfa, order, states in ((symmetric_dfa(6), 720, 6), (signed_shift_dfa(8), 2048, 16)):
        analysis = Analysis(dfa)
        limit = Fraction(1, states)
        assert analysis.minimal.n_states == states
        assert analysis.monoid.order == order > max(CYCLE_ORDER_CAP, ISOMORPHISM_ORDER_CAP)
        assert analysis.max_period == 2
        assert analysis.decomposition.K == order // 2
        assert [t.order for t in analysis.residual_monoids] == [order // 2] * 2
        assert tuple(analysis.accumulation) == (limit, limit)
        assert analysis.basic_verdict.verdict == "neither"
        assert analysis.basic_verdict.zero_element is None
        assert [(v.w, v.is_zero_or_one, v.mu_lw) for v in analysis.residual_verdicts] == [
            ("", False, limit), ("a", False, limit), ("b", False, limit)]


def test_text_reports_build_no_json(monkeypatch, capsys):
    limits = count_calls(monkeypatch, probability, "accumulation_points")
    signatures = count_calls(monkeypatch, cli, "_signature_json")
    verdicts = count_calls(monkeypatch, cli, "_zero_one_json")
    regex = ["--regex", "((a|b)(a|b))*"]
    assert cli.main(["prob", *regex]) == 0
    assert limits == []
    assert cli.main(["prob", "--json", *regex]) == 0
    assert len(limits) == 1
    assert cli.main(["period", *regex]) == cli.main(["zero-one", *regex]) == 0
    assert signatures == verdicts == []
    assert cli.main(["period", "--json", *regex]) == cli.main(["zero-one", "--json", *regex]) == 0
    assert len(signatures) == len(verdicts) == 1
    capsys.readouterr()


def test_only_analyze_json_counts_the_series(monkeypatch, capsys):
    series = count_calls(monkeypatch, probability, "mu_series")
    regex = ["--regex", "((a|b)(a|b))*", "--length", "10000"]
    assert cli.main(["analyze", *regex]) == 0
    assert series == []  # the text report prints no series
    assert cli.main(["analyze", "--json", *regex]) == 0
    assert [call[1] for call in series] == [10000]
    capsys.readouterr()


def test_a_refused_report_builds_no_stage_it_would_list(monkeypatch, capsys):
    calls = [count_calls(monkeypatch, decompose, "canonical_decomposition"),
             count_calls(monkeypatch, monoid, "_rows"),
             count_calls(monkeypatch, decompose, "residual_monoid"),
             count_calls(monkeypatch, probability, "mu_series")]
    monkeypatch.setattr(cli, "REPORT_ROWS", 9)  # a3: 5 elements at P = 2 list 10 rows
    for verb in ("analyze", "decompose"):
        assert cli.main([verb, "--json", "--dfa", str(DATA / "a3.json")]) == 2, verb
        assert "exceed the budget of 9" in capsys.readouterr().err, verb
        assert calls == [[], [], [], []], verb
