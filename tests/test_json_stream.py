"""The --json report is written as it is encoded, piece by piece, and must
be byte for byte what one `json.dumps(report, sort_keys=True,
separators=(",", ":"))` call would print."""

import argparse
import contextlib
import io
import json
import sys
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from synmon import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import kth_tail  # noqa: E402

JSON = argparse.Namespace(json=True)


def one_shot(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def streamed(report, slice_items=cli._SLICE_ITEMS) -> str:
    out = io.StringIO()
    with mock.patch.object(cli, "_SLICE_ITEMS", slice_items), \
            contextlib.redirect_stdout(out):
        cli._emit(JSON, lambda: report, [])
    return out.getvalue()


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=40)
# uniform rows, as in tables and series: lists of equally long rows, and
# lists of dicts with the same keys
tables = st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.integers(), min_size=width, max_size=width), max_size=12))
series = st.lists(st.fixed_dictionaries({"len": st.integers(), "num": st.integers(),
                                         "den": st.integers(1, 9)}), max_size=12)
# dicts with a flat list among their values, as the zero-one verdicts
verdicts = st.lists(st.fixed_dictionaries({"w": st.text(max_size=3),
                                           "witness": st.lists(scalars, max_size=4),
                                           "num": st.integers()}), max_size=12)
reports = st.dictionaries(st.text(max_size=4),
                          st.one_of(values, tables, series, verdicts), max_size=5)


@settings(max_examples=300)
@given(st.one_of(values, tables, series, verdicts, reports), st.integers(1, 8))
def test_streamed_bytes_equal_one_json_dumps(report, slice_items):
    assert streamed(report, slice_items) == one_shot(report)


# rows of ints are joined from a table of decimals unless an entry is a
# bool, negative or too large for the table; empty and one-element rows
# go to the encoder
int_rows = st.one_of(
    st.lists(st.integers(0, 12), max_size=8),
    st.lists(st.integers(-8, 8), max_size=8),
    st.lists(st.integers(), max_size=8),
    st.lists(st.booleans(), max_size=8),
    st.lists(st.one_of(st.integers(0, 3), st.booleans()), max_size=8),
    st.lists(st.integers(0, 3), min_size=1).map(lambda row: row + [len(row) + 5]),
).map(tuple)


@st.composite
def shared_rows(draw):
    """A report that holds one row object in several places, as M's
    columns are both f_t(0) and T_0's elements at period 1."""
    row = draw(int_rows)
    others = draw(st.lists(int_rows, max_size=4))
    copies = draw(st.integers(1, 3))
    return {"decomposition": {"f": row, "rows": [row] * copies + others},
            "elements": others + [row] * copies, "row": row, "list": list(row)}


@settings(max_examples=300)
@given(st.one_of(int_rows, st.lists(int_rows, max_size=6), shared_rows()),
       st.integers(1, 8))
def test_integer_rows_encode_as_the_encoder_does(report, slice_items):
    assert streamed(report, slice_items) == one_shot(report)


def test_short_rows_after_a_long_one():
    report = {"a": tuple(range(20)), "b": (15,), "c": (), "d": [19, 3], "e": (20, 0)}
    assert streamed(report) == one_shot(report)


def test_reports_encoded_one_after_another_share_no_row_text():
    # a row object freed with its report may leave its id to a row of the
    # next report, so the text of a row is kept for one report only
    for n in range(2, 60):
        row = tuple(range(n - 1, -1, -1)) if n % 2 else tuple(range(n))
        report = {"f": [row, row], "g": row}
        assert streamed(report) == one_shot(report)


def test_dict_rows_are_encoded_a_slice_at_a_time():
    # 1 + 3 + ... + 3^6 verdicts, each a dict with a flat witness list
    rows = [{"w": "a" * (i % 7), "verdict": "mixed", "witness": ["e", "a"], "num": i, "den": 3}
            for i in range(1093)]
    nested = [{"r": r, "elements": [(r, 1), (1, r)]} for r in range(2)]
    plan = list(cli._json_pieces({"residual": rows, "residual_monoids": nested}))
    # only the rows of `nested` are handed to the row encoder
    assert [p for p in plan if not isinstance(p, str)] == [(0, 1), (1, 0), (1, 1), (1, 1)]
    for slice_items in (cli._SLICE_ITEMS, 70):
        with mock.patch.object(cli, "_SLICE_ITEMS", slice_items):
            pieces = list(cli._json_pieces(rows))
        assert "".join(pieces) + "\n" == one_shot(rows)
        assert len(pieces) == 2 + -(-len(rows) // (slice_items // 6))  # 6 scalars a row
    # entries that hold nested containers are still walked key by key
    assert '"elements":' in cli._json_pieces(nested)


def test_a_row_shared_under_two_keys_is_encoded_once():
    row, other = tuple(range(40)), tuple(range(39, -1, -1))
    report = {"a": row, "b": {"c": row, "d": [other, row]}}
    joined = []

    def spy(*items):
        joined.append(items)
        return itemgetter(*items)

    with mock.patch.object(cli, "itemgetter", spy):
        assert streamed(report) == one_shot(report)
    assert joined == [row, other]


def test_analyze_json_streams_the_bytes_of_one_dump(tmp_path):
    path = tmp_path / "kth_tail_5.json"
    path.write_text(json.dumps(kth_tail(5).dfa))
    reports = []
    emit = cli._emit

    def recording(args, report, text_lines, graph=None):
        reports.append(report())
        emit(args, lambda: reports[-1], text_lines, graph)

    for slice_items in (cli._SLICE_ITEMS, 100):
        out = io.StringIO()
        with mock.patch.object(cli, "_emit", recording), \
                mock.patch.object(cli, "_SLICE_ITEMS", slice_items), \
                contextlib.redirect_stdout(out):
            assert cli.main(["analyze", "--json", "--dfa", str(path)]) == 0
        assert out.getvalue() == one_shot(reports[-1])
        assert json.loads(out.getvalue())["monoid"]["order"] == 127


class CountingBuffer(io.BytesIO):
    """A binary buffer that counts the writes it receives."""
    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["monoid"]])
def test_write_through_stdout_gets_about_one_write_per_64_kb(tmp_path, argv):
    # under `python -u` or PYTHONUNBUFFERED every str written to stdout
    # reaches the file at once, so the report must arrive in large pieces
    path = tmp_path / "kth_tail_6.json"
    path.write_text(json.dumps(kth_tail(6).dfa))
    buffer = CountingBuffer()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*argv, "--dfa", str(path)]) == 0
    stdout.flush()
    size = len(buffer.getvalue())
    assert size > 3 * 65536  # several batches
    assert buffer.writes <= -(-size // 65536) + 2
