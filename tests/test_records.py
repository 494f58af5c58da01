"""The records of every layer are immutable and compare as documented, and
neither `import synmon` nor a command imports `dataclasses` or `inspect`.
Start-up loads only what a command uses: `import synmon` loads no
submodule, and each verb only the modules on its own path."""

import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import synmon
from synmon import (Analysis, CanonicalDecomposition, LwRecognizer, ResidualMonoid,
                    lw_recognizer)
from synmon.dfa import Dfa, load_dfa, minimize
from synmon.errors import FormatError, InvalidMonoid
from synmon.monoid import FiniteMonoid, transition_monoid
from synmon.probability import ResidualZeroOne
from synmon.theory import (direct_product, function_monoid, make_named, rees_factor,
                           semidirect_product)
from synmon.regexes import Letter, Opt, Plus, Star, parse_regex, regex_to_dfa

from conftest import DATA

CODE_GENERATORS = {"dataclasses", "inspect"}
SUBMODULES = {f"synmon.{path.stem}" for path in Path(synmon.__file__).parent.glob("*.py")
              if path.stem != "__init__"}
# `python -m synmon` with the arguments after the script; it must exit 0
RUN_MAIN = ("import runpy\nsys.argv[0] = 'synmon'\ntry:\n"
            "    runpy.run_module('synmon', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code")


def imported_by(code: str, *argv, among=CODE_GENERATORS) -> set:
    """The modules of `among` that running `code` in a fresh interpreter
    imports, besides those the interpreter loads at start-up."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(*sorted(set(sys.modules) - before), file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return among & set(result.stderr.splitlines()[-1].split())


def test_import_synmon_generates_no_code():
    assert imported_by("import synmon") == set()


def test_a_command_generates_no_code():
    assert imported_by(RUN_MAIN, "prob", "--json", "--regex", "a", "--alphabet", "ab") == set()


def test_import_synmon_loads_no_submodule():
    assert imported_by("import synmon", among=SUBMODULES) == set()
    # a name loads the submodule that defines it, and what that one imports
    assert imported_by("import synmon\nsynmon.max_period", among=SUBMODULES) == {
        "synmon.periods", "synmon.monoid", "synmon.dfa", "synmon.errors"}


REGEX = ["--json", "--regex", "((a|b)(a|b))*", "--alphabet", "ab"]
NOT_DECOMPOSING = {"synmon.decompose", "synmon.probability", "synmon.oracle", "fractions",
                   "synmon.theory"}
PATHS = [  # (argv, modules the command loads, modules it must not load)
    (["prob", *REGEX], {"synmon.probability", "synmon.regexes", "fractions"},
     {"synmon.decompose", "synmon.oracle", "synmon.theory"}),
    (["prob", "--json", "--dfa", str(DATA / "a3.json")], {"synmon.probability"},
     {"synmon.regexes", "synmon.decompose", "synmon.oracle", "synmon.theory"}),
    (["decompose", *REGEX], {"synmon.decompose"},
     {"synmon.probability", "synmon.oracle", "fractions", "synmon.theory"}),
    (["monoid", *REGEX], {"synmon.pipeline"}, NOT_DECOMPOSING),
    (["period", *REGEX], {"synmon.periods"}, NOT_DECOMPOSING),
    (["analyze", *REGEX], {"synmon.decompose", "synmon.probability"},
     {"synmon.oracle", "synmon.theory"}),
    (["oracle", "cycle-gcd", *REGEX[1:]], {"synmon.oracle"},
     {"synmon.decompose", "synmon.probability", "synmon.theory"}),
]


@pytest.mark.parametrize("argv,loaded,unused", PATHS,
                         ids=[f"{argv[0]}{argv[2]}" for argv, _, _ in PATHS])
def test_a_command_loads_only_the_modules_on_its_path(argv, loaded, unused):
    assert imported_by(RUN_MAIN, *argv, among=loaded | unused) == loaded


def test_the_lazy_namespace_serves_the_objects_of_its_submodules():
    for name in synmon.__all__:
        value = getattr(synmon, name)
        if name in ("errors", "oracle"):
            assert value is importlib.import_module(f"synmon.{name}")
        else:
            assert value.__module__.startswith("synmon.")
            assert value is getattr(sys.modules[value.__module__], name)
    for module in SUBMODULES - {"synmon.__main__"}:
        assert getattr(synmon, module.split(".")[1]) is importlib.import_module(module)
    assert set(synmon.__all__) <= set(dir(synmon))
    namespace = {}
    exec("from synmon import *", namespace)
    assert all(namespace[name] is getattr(synmon, name) for name in synmon.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        synmon.no_such_name
    with pytest.raises(ImportError):
        exec("from synmon import no_such_name", {})


def every_record() -> list:
    """One instance of every record class of the pipeline."""
    analysis = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab"))
    dec = analysis.decomposition
    return [
        analysis, analysis.dfa, analysis.monoid, analysis.monoid.monoid,
        analysis.signature, dec, analysis.residual_monoids[0],
        lw_recognizer(dec, ""), analysis.basic_verdict, analysis.residual_verdicts[0],
        *_nodes(parse_regex("(a|&)*b+c?")),
    ]


def _nodes(ast):
    yield ast
    for child in ast:
        if not isinstance(child, str):
            yield from _nodes(child)


def test_every_record_class_is_covered():
    assert {type(x).__name__ for x in every_record()} == {
        "Analysis", "Dfa", "SyntacticMonoid", "FiniteMonoid",
        "PeriodSignature", "CanonicalDecomposition",
        "ResidualMonoid", "LwRecognizer", "BasicZeroOne", "ResidualZeroOne",
        "Letter", "Epsilon", "Alt", "Cat", "Star", "Plus", "Opt"}


@pytest.mark.parametrize("record", every_record(), ids=lambda x: type(x).__name__)
def test_records_reject_assignment(record):
    fields = getattr(record, "_fields", None) or getattr(record, "__slots__", ())
    for name in fields[:1] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert not hasattr(record, "extra")


def test_regex_nodes_compare_by_kind():
    nodes = [Star(Letter("a")), Plus(Letter("a")), Opt(Letter("a"))]
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert (x == y) == (i == j) and (x != y) == (i != j)
        assert x == type(x)(Letter("a")) and x != (Letter("a"),)


def test_monoids_and_analyses_compare_by_identity():
    dfa = regex_to_dfa(parse_regex("(a|b)*a"), "ab")
    pairs = [(transition_monoid(dfa), transition_monoid(dfa)),
             (FiniteMonoid(((0, 1), (1, 0))), FiniteMonoid(((0, 1), (1, 0)))),
             (Analysis(dfa), Analysis(dfa))]
    for x, y in pairs:
        assert x == x and x != y and len({x, y}) == 2


def test_decompositions_compare_by_their_fields():
    dec = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*"), "ab")).decomposition
    assert dec == dec._replace() and not dec != dec._replace()
    assert dec != dec._replace(flat=dec.flat[:1])


def test_decompositions_read_theta_and_k_off_their_signature():
    dec = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab")).decomposition
    assert CanonicalDecomposition._fields == ("m", "signature", "flat")
    assert dec.theta is dec.signature.classes
    assert dec.K == max(len(n_r) for n_r in dec.signature.classes.values())


def test_records_store_no_field_that_their_others_determine():
    analysis = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab"))
    assert ResidualZeroOne._fields == ("w", "witness", "witness_names", "mu_lw")
    assert LwRecognizer._fields == ("w", "monoid", "block_images", "accepting")
    assert ResidualMonoid._fields == ("r", "least", "slot", "dec")
    # the residual is read off the prefix, so it moves with it
    v = analysis.residual_verdicts[0]
    assert (v.w, v.r) == ("", 0) and v._replace(w="ab").r == 2
    assert v.is_zero_or_one == (v.witness is not None)
    rec = lw_recognizer(analysis.decomposition, "a")
    assert rec.r == 1 and rec._replace(w="").r == 0
    # the limits are plain fractions, indexed by the residue
    assert all(type(x) is Fraction for x in analysis.accumulation)
    assert analysis.basic_verdict.accumulation == tuple(analysis.accumulation)


def every_built_monoid() -> dict:
    """name -> one FiniteMonoid of each kind that the package builds."""
    analysis = Analysis(regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab"))  # P = 2
    c2, u2 = make_named("cyclic", 2), make_named("right_zero", 2)
    built = {"transition monoid": analysis.monoid.monoid,
             "rees by a proper ideal": rees_factor(u2, {1, 2}),
             "rees by M": rees_factor(u2, range(u2.order)),
             "direct product": direct_product(c2, u2),
             "semidirect product": semidirect_product(c2, c2, [[0, 1], [0, 1]]),
             "function monoid": function_monoid(c2, 2)}
    built.update((kind, make_named(kind, 3)) for kind in (
        "cyclic", "right_zero", "left_zero", "symmetric", "full_transformation"))
    return built


@pytest.mark.parametrize("m", [pytest.param(m, id=name)
                               for name, m in every_built_monoid().items()])
def test_every_built_monoid_has_its_identity_at_zero(m):
    assert type(m) is FiniteMonoid and FiniteMonoid.__slots__ == ("table", "names")
    assert m.identity == 0 and not hasattr(m, "__dict__")
    assert m.table[0] == tuple(range(m.order))
    assert all(row[0] == x for x, row in enumerate(m.table))


def test_a_dfa_sorts_its_letters():
    delta = {(q, a): 1 - q if a == "a" else q for q in (0, 1) for a in "ab"}
    declared = Dfa(("b", "a"), (0, 1), 0, frozenset({0}), delta)
    assert declared.alphabet == ("a", "b")
    assert declared == Dfa(("a", "b"), (0, 1), 0, frozenset({0}), delta)
    with pytest.raises(FormatError, match="^letter 1 is not a string$"):
        Dfa((1, "a"), (0,), 0, frozenset(), {(0, 1): 0, (0, "a"): 0})


def clones(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def test_dfas_and_monoids_copy_and_pickle():
    dfa = regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab")
    sm = transition_monoid(dfa)
    for clone in clones(dfa):
        assert type(clone) is type(dfa) and clone == dfa
    for m in (sm.monoid, make_named("symmetric", 3), FiniteMonoid(((0, 1), (1, 0)))):
        for clone in clones(m):
            assert type(clone) is FiniteMonoid
            assert (clone.table, clone.identity, clone.names) == (m.table, m.identity, m.names)
    for clone in clones(sm):
        assert type(clone) is type(sm) and type(clone.monoid) is FiniteMonoid
        assert clone.monoid.table == sm.monoid.table
        assert (clone.eta, clone.accepting_image) == (sm.eta, sm.accepting_image)
    with pytest.raises(AttributeError):
        copy.copy(dfa).initial = None


def test_a_dfa_keeps_its_derived_forms_out_of_equality_and_copies():
    # the index form, the closed classes and the minimal DFA are kept on
    # first read; equality reads the fields alone, and a copy or a pickle
    # starts with nothing kept
    document = (DATA / "a3.json").read_text()
    dfa, fresh = load_dfa(document), load_dfa(document)
    minimal = minimize(dfa)
    assert dfa.targets() is dfa.targets() and dfa.closed_classes is dfa.closed_classes
    assert set(vars(dfa)) == {"_index_form", "closed_classes", "minimal"}
    assert vars(fresh) == {} and dfa == fresh and fresh == dfa and not dfa != fresh
    assert minimal != dfa and minimal == minimize(fresh) and minimal is not minimize(fresh)
    # a minimal DFA is its own: it is refined once, and never again
    assert minimize(minimize(dfa)) is minimize(dfa) is minimal and minimal.minimal is minimal
    for original in (dfa, minimal):
        for clone in clones(original):
            assert vars(clone) == {} and clone == original and clone is not original
    assert minimize(copy.copy(minimal)) == minimal


def test_analyses_copy_and_pickle_without_their_stages():
    dfa = regex_to_dfa(parse_regex("((a|b)(a|b))*a"), "ab")
    for analysis in (Analysis(regex_to_dfa(parse_regex("a"), "ab")), Analysis(dfa),
                     Analysis(dfa, [("a", "b")], [2])):
        order = analysis.monoid.order
        for clone in clones(analysis):
            assert type(clone) is Analysis and clone is not analysis
            assert (clone.dfa, clone.gammas, clone.periods) == \
                (analysis.dfa, analysis.gammas, analysis.periods)
            assert vars(clone) == {}  # the stages are computed again on use
            assert clone.monoid.order == order


def test_a_copy_is_validated_again():
    # the reduction calls the constructor, so a broken state cannot be copied
    m = FiniteMonoid(((0, 1), (1, 0)))
    object.__setattr__(m, "table", ((0, 1), (0, 1)))
    with pytest.raises(InvalidMonoid, match="identity law"):
        copy.copy(m)
