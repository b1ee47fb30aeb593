import decimal
import json
import math
import mmap
import os
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import txpack.mempool as mempool_module
from txpack import GameParams, Mempool, ValidationError, load_mempool
from txpack.cli import Rows, _emit
from txpack.mempool import read_records

from conftest import assert_no_child_left, mempool_json, set_usable_cpus


def test_load_golden_fixture(golden_mempool):
    mp = load_mempool(mempool_json(golden_mempool))
    assert len(mp) == 7
    assert list(mp.ids) == [1, 2, 3, 4, 5, 6, 7]
    assert mp.prices[1] == pytest.approx(np.e)
    assert mp.is_unit_size


def test_load_accepts_bytes_and_streams(tmp_path):
    doc = b'{"transactions": [{"id": 0, "gas_price": 2.5}]}'
    assert len(load_mempool(doc)) == 1
    path = tmp_path / "m.json"
    path.write_bytes(doc)
    with open(path, "rb") as fh:
        mp = load_mempool(fh)
    assert mp.prices[0] == 2.5


def test_size_defaults_to_one():
    mp = load_mempool('{"transactions": [{"id": 3, "gas_price": 1.0}]}')
    assert mp.sizes[0] == 1.0


def test_empty_array_loads():
    assert len(load_mempool('{"transactions": []}')) == 0


def test_negative_price_names_offender():
    doc = '{"transactions": [{"id": 9, "gas_price": -1}]}'
    with pytest.raises(ValidationError, match="9"):
        load_mempool(doc)


def test_nonpositive_size_rejected():
    doc = '{"transactions": [{"id": 4, "gas_price": 1, "size": 0}]}'
    with pytest.raises(ValidationError, match="4"):
        load_mempool(doc)


def test_duplicate_id_rejected():
    doc = '{"transactions": [{"id": 1, "gas_price": 1}, {"id": 1, "gas_price": 2}]}'
    with pytest.raises(ValidationError, match="duplicate"):
        load_mempool(doc)


@pytest.mark.parametrize("doc", [
    "not json", "[]", '{"transactions": 5}', '{"transactions": [{}]}',
    pytest.param(b'{"transactions": [{"id": 1, "gas_price": 2.0, "\xff": 1}]}', id="not utf-8"),
    pytest.param('{"transactions": [{"id": 1, "gas_price": 1' + "0" * 5000 + "}]}",
                 id="int past the digit limit"),
])
def test_malformed_documents_rejected(doc):
    with pytest.raises(ValidationError):
        load_mempool(doc)


def _assert_same_columns(a, b):
    for column in ("ids", "prices", "sizes"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def test_round_trip(golden_mempool):
    _assert_same_columns(load_mempool(mempool_json(golden_mempool)), golden_mempool)


def test_order_preserved():
    doc = '{"transactions": [{"id": 5, "gas_price": 1}, {"id": 2, "gas_price": 3}]}'
    mp = load_mempool(doc)
    assert list(mp.ids) == [5, 2]


def test_total_size_unit_mempool(golden_mempool):
    assert golden_mempool.total_size == len(golden_mempool)


def test_total_size_recomputed():
    mp = Mempool.from_arrays([0, 1], [1.0, 1.0], [2.0, 0.5])
    assert mp.total_size == pytest.approx(2.5)


def test_from_arrays_validates():
    with pytest.raises(ValidationError, match="gas_price"):
        Mempool.from_arrays([0, 1], [1.0, -2.0])
    with pytest.raises(ValidationError, match="duplicate"):
        Mempool.from_arrays([1, 1], [1.0, 2.0])


NAN, INF = float("nan"), float("inf")

# (ids, gas prices, sizes, pattern the error must match); each names its offender
BAD_TABLES = {
    "nan price": ([0, 7], [1.0, NAN], [1.0, 1.0], "transaction 7: gas_price"),
    "+inf price": ([0, 7], [1.0, INF], [1.0, 1.0], "transaction 7: gas_price"),
    "-inf price": ([0, 7], [1.0, -INF], [1.0, 1.0], "transaction 7: gas_price"),
    "nan size": ([0, 7], [1.0, 1.0], [1.0, NAN], "transaction 7: size"),
    "+inf size": ([0, 7], [1.0, 1.0], [1.0, INF], "transaction 7: size"),
    "-inf size": ([0, 7], [1.0, 1.0], [1.0, -INF], "transaction 7: size"),
    "bool id": ([0, True], [1.0, 1.0], [1.0, 1.0], "got True"),
    "fractional id": ([0, 1.5], [1.0, 1.0], [1.0, 1.0], "got 1.5"),
    "negative id": ([0, -1], [1.0, 1.0], [1.0, 1.0], "got -1"),
    "duplicate id": ([3, 3], [1.0, 2.0], [1.0, 1.0], "duplicate transaction id 3"),
    "string price": ([0, 7], [1.0, "3"], [1.0, 1.0], "transaction 7: gas_price must be a number, got '3'"),
    "bool price": ([0, 7], [1.0, True], [1.0, 1.0], "transaction 7: gas_price must be a number, got True"),
    "array price": ([0, 7], [1.0, [2]], [1.0, 1.0], r"transaction 7: gas_price must be a number, got \[2\]"),
    "bool size": ([0, 7], [1.0, 1.0], [1.0, True], "transaction 7: size must be a number, got True"),
    "string size": ([0, 7], [1.0, 1.0], [1.0, "2"], "transaction 7: size must be a number, got '2'"),
    "int price beyond float range": ([0, 7], [1.0, 10**400], [1.0, 1.0], "transaction 7: gas_price must be finite"),
    "int size beyond float range": ([0, 7], [1.0, 1.0], [1.0, -10**400], "transaction 7: size must be finite"),
    "id beyond 64 bits": ([0, 2**64], [1.0, 1.0], [1.0, 1.0], "must fit in 64 bits, got 18446744073709551616"),
}

ENTRY_POINTS = {
    "load_mempool": lambda ids, prices, sizes: load_mempool(json.dumps({"transactions": [
        {"id": i, "gas_price": v, "size": s} for i, v, s in zip(ids, prices, sizes)
    ]}).encode()),
    "from_arrays": Mempool.from_arrays,
    # The Mempool given numpy columns: object arrays take the column checks' ndarray branches.
    "Mempool": lambda *columns: Mempool.from_arrays(*(np.array(c, dtype=object) for c in columns)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_TABLES)
def test_every_entry_point_applies_the_same_rules(entry, case):
    ids, prices, sizes, pattern = BAD_TABLES[case]
    with pytest.raises(ValidationError, match=pattern):
        ENTRY_POINTS[entry](ids, prices, sizes)


def test_positions_maps_ids_to_input_order():
    mp = Mempool.from_arrays([40, 10, 30], [1.0, 2.0, 3.0])
    assert mp.positions([30, 40, 30]).tolist() == [2, 0, 2]
    with pytest.raises(ValidationError, match="unknown transaction id 20"):
        mp.positions([10, 20])
    with pytest.raises(ValidationError, match="unknown"):
        Mempool.from_arrays([], []).positions([0])



def test_duplicate_id_names_the_smallest_of_two():
    with pytest.raises(ValidationError, match="^duplicate transaction id 3$"):
        Mempool.from_arrays([9, 3, 9, 5, 3, 7], np.ones(6))


def _positions_through_a_sorter(mp, txids):
    """``Mempool.positions`` as a search through an argsort of the ids, its earlier form."""
    want = np.asarray(txids, dtype=np.int64)
    order = np.argsort(mp.ids)
    at = np.searchsorted(mp.ids, want, sorter=order)
    known = at < len(mp)
    known[known] = mp.ids[order[at[known]]] == want[known]
    if not known.all():
        return f"unknown transaction id {want[~known][0]}"
    return order[at].tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 50), unique=True, max_size=12), st.data())
def test_positions_match_a_search_through_a_sorter(ids, data):
    # Shuffled, repeated and unknown ids, each against the search positions made before.
    mp = Mempool.from_arrays(ids, np.ones(len(ids)))
    want = data.draw(st.lists(st.one_of(st.sampled_from(ids), st.integers(0, 60)) if ids
                              else st.integers(0, 60), max_size=16))
    try:
        got = mp.positions(want).tolist()
    except ValidationError as e:
        got = str(e)
    assert got == _positions_through_a_sorter(mp, want)


def test_positions_of_the_mempools_own_ids_are_its_order():
    mp = Mempool.from_arrays([40, 10, 30], [1.0, 2.0, 3.0])
    assert mp.positions(mp.ids.copy()).tolist() == [0, 1, 2]
    assert mp.positions([40, 10, 30]).tolist() == [0, 1, 2]
    assert mp.positions([10, 40, 30]).tolist() == [1, 0, 2]


@pytest.mark.parametrize("k, lam", [(INF, 1.0), (1.0, NAN), (NAN, 1.0), (1.0, INF),
                                    (True, 1.0), (1.0, True), ("3", 1.0)])
def test_game_params_must_be_finite(k, lam):
    with pytest.raises(ValidationError):
        GameParams(k=k, lam=lam)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63 - 1), _positive, _positive),
                unique_by=lambda row: row[0], max_size=20))
def test_dump_load_round_trip(rows):
    mp = Mempool.from_arrays([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    _assert_same_columns(load_mempool(mempool_json(mp)), mp)


# The chunked orjson reader against the json one. A document's columns, or its
# ValidationError message, must be the same whichever reader takes it.

FIELDS = {"id": None, "gas_price": None, "size": 1.0}
LAYOUTS = {  # json.dumps arguments, and the top-level object's key and item separators
    "default": ({}, ": ", ", "),
    "compact": ({"separators": (",", ":")}, ":", ","),
    "indent": ({"indent": 2}, ": ", ",\n  "),
}


def json_reader(doc):
    """``load_mempool`` as it was before the fast reader: columns or the error message."""
    try:
        return Mempool.from_arrays(*read_records(doc, "mempool", "transactions", FIELDS)[1])
    except ValidationError as e:
        return str(e)


def read_both(doc):
    try:
        fast = load_mempool(doc)
    except ValidationError as e:
        fast = str(e)
    return fast, json_reader(doc)


def assert_same_outcome(fast, ref):
    if isinstance(ref, str):
        assert fast == ref
    else:
        assert not isinstance(fast, str), fast
        for column in ("ids", "prices", "sizes"):
            assert getattr(fast, column).tobytes() == getattr(ref, column).tobytes(), column


def render(pairs, layout, literals):
    """Top-level object text from (key, value) pairs, duplicates kept.

    The string ``"\\0lit<i>\\0"`` anywhere inside is written as the number literal ``literals[i]``.
    """
    kwargs, key_sep, item_sep = LAYOUTS[layout]
    text = "{" + item_sep.join(json.dumps(k) + key_sep + json.dumps(v, **kwargs) for k, v in pairs) + "}"
    for i, lit in enumerate(literals):
        text = text.replace(json.dumps(f"\0lit{i}\0"), lit)
    return text


def _halfway(x: float) -> str:
    """The exact decimal midway between x and the next float up: a rounding tie."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        return str((decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2)


def _rarely(common, odd):
    """``odd`` one draw in sixteen, else ``common``: most documents stay on the fast path."""
    return st.integers(0, 15).flatmap(lambda n: odd if n == 5 else common)


_normal = st.floats(min_value=2.2250738585072014e-308, max_value=1e300)
_number_literals = _rarely(
    st.one_of(
        _normal.map(repr),
        _normal.map(lambda x: f"{x:.17g}"),
        st.integers(1, 2**52 - 1).map(lambda n: f"{n * 5e-324:.17g}"),  # subnormal
        st.one_of(_normal, st.integers(1, 2**52 - 1).map(lambda n: n * 5e-324)).map(_halfway),
        st.integers(1, 2**80).map(str),
    ),
    st.sampled_from(["1" + "0" * 400, "1" + "0" * 4400, "1e400", "NaN", "-1", "0", "true", '"3"']),
)
_ids = _rarely(st.integers(0, 2**63 - 1), st.sampled_from([2**63, 2**64, 2**64 + 1, -1, 1.5, True, 7]))
_extras = st.dictionaries(
    st.sampled_from(["memo", "x", "tags"]),
    _rarely(st.one_of(st.text(max_size=8), st.integers(-2**63, 2**63)),
            st.sampled_from(["}, {", "}]}", '"}, {"', "\\", float("nan"), [{"a": 1}, {"b": [2]}],
                             "\ud800", 2**70])),
    max_size=2,
)


@st.composite
def wire_records(draw, literals):
    """One record, a dict or (one in twenty) not an object, with its number literals noted."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([5, "x", None, [1], []]))

    def literal():
        literals.append(draw(_number_literals))
        return f"\0lit{len(literals) - 1}\0"

    rec = {"id": draw(_ids), "gas_price": literal()}
    if draw(st.booleans()):
        rec["size"] = literal()
    rec.update(draw(_extras))
    keys = draw(st.permutations(list(rec)))
    return {k: rec[k] for k in keys}


@st.composite
def wire_documents(draw):
    """A mempool document in one of three layouts, now and then with a twist.

    It is UTF-8 bytes, which the fast reader takes, unless a raw lone
    surrogate leaves it a str, which only json reads."""
    literals = []
    records = draw(_rarely(st.lists(wire_records(literals), min_size=1, max_size=6), st.just([])))
    pairs = [("transactions", records)]
    where = draw(_rarely(st.just("only"), st.sampled_from(["before", "after", "duplicate"])))
    if where == "before":
        pairs.insert(0, ("note", [{"a": 1}]))
    elif where == "after":
        pairs.append(("note", "}]}"))
    elif where == "duplicate":
        pairs.append(("transactions", records[:1]))
    text = render(pairs, draw(st.sampled_from(sorted(LAYOUTS))), literals)
    twist = draw(_rarely(st.just("none"), st.sampled_from(["odd space", "bom", "raw surrogate"])))
    if twist == "odd space":  # \f or \v after a structural character, or at either end
        marks = [0, len(text)] + [m.end() for m in re.finditer(r'"(?:[^"\\]|\\.)*"|[\[\]{}:,]', text)
                                  if m.group()[0] != '"']
        at = draw(st.sampled_from(marks))
        text = text[:at] + draw(st.sampled_from(["\f", "\v"])) + text[at:]
    elif twist == "bom":
        text = "\ufeff" + text
    elif twist == "raw surrogate" and "\\ud800" in text:
        text = text.replace("\\ud800", "\ud800")
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return text


@settings(max_examples=400, deadline=None)
@given(doc=wire_documents(), slice_bytes=st.sampled_from([1, 9, 40, mempool_module._SLICE_BYTES]))
def test_fast_reader_matches_json(doc, slice_bytes):
    with mock.patch.object(mempool_module, "_SLICE_BYTES", slice_bytes):
        assert_same_outcome(*read_both(doc))


@settings(max_examples=200, deadline=None)
@given(doc=wire_documents())
@example(doc=b'{"transactions": [{"id": 1, "gas_price": 2, "x": "\\ud800"}]}')
@example(doc='{"transactions": [{"id": 1, "gas_price": 2, "x": "\ud800"}]}')
@example(doc=b'{"transactions": [{"id": true, "gas_price": 2}]}')
def test_str_reads_like_its_utf8_bytes(doc):
    # A str goes to json alone; its UTF-8 bytes, where it has them, to the fast reader first.
    text = doc.decode("utf-8") if isinstance(doc, bytes) else doc
    got, ref = read_both(text)
    assert_same_outcome(got, ref)
    if isinstance(doc, bytes):
        assert_same_outcome(read_both(doc)[0], got)


@settings(max_examples=100, deadline=None)
@given(doc=wire_documents(), cpus=st.sampled_from([2, 3]), slice_bytes=st.sampled_from([1, 9, 40]))
def test_forked_reader_matches_serial(doc, cpus, slice_bytes):
    # Small slices deal the records of even a short document to several workers.
    with mock.patch.object(mempool_module, "_SLICE_BYTES", slice_bytes):
        serial, _ = read_both(doc)
        with (mock.patch.object(mempool_module, "_FORK_BYTES", 0),
              mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True)):
            forked, _ = read_both(doc)
    assert_same_outcome(forked, serial)


def fast_columns(doc):
    """The fast reader's columns of a mempool document, or None where it declines."""
    return mempool_module._fast_columns(doc, "transactions", mempool_module._MEMPOOL_FIELDS)


def _fork_every_slice(monkeypatch, cpus):
    """Fork at any size, one record a slice; returns the list that collects each call's groups."""
    set_usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(mempool_module, "_FORK_BYTES", 0)
    monkeypatch.setattr(mempool_module, "_SLICE_BYTES", 1)
    groups, real = [], mempool_module.fork_map
    monkeypatch.setattr(mempool_module, "fork_map",
                        lambda func, state, tasks: groups.append(tasks) or real(func, state, tasks))
    return groups


@pytest.mark.parametrize("last, fast, outcome", [
    ('{"id": 29, "gas_price": 30}', True, None),
    ('{"id": true, "gas_price": 30}', False, "transaction id must be a non-negative integer, got True"),
    ('{"id": 29, "gas_price": 30, "x": {"y": 1}}', False, None),
    ('{"id": 29, "gas_price": NaN}', False, "transaction 29: gas_price must be finite and > 0"),
])
def test_forked_reader_refuses_in_the_last_group(monkeypatch, last, fast, outcome):
    records = [f'{{"id": {i}, "gas_price": {i + 1}}}' for i in range(29)] + [last]
    doc = ('{"transactions": [' + ", ".join(records) + "]}").encode()
    groups = _fork_every_slice(monkeypatch, 3)
    assert (fast_columns(doc) is not None) == fast
    # One group of ten slices a worker: the last record is the third worker's.
    assert [len(bounds) for _, _, bounds in groups[0]] == [10, 10, 10]
    got, ref = read_both(doc)
    assert_same_outcome(got, ref)
    if outcome is None:
        assert got.ids.tolist() == list(range(30))
    else:
        assert got == outcome


def test_forked_reader_error_leaves_no_worker(monkeypatch):
    def fail(raw, bounds, fields):
        raise ValueError(f"slices {bounds} failed")

    _fork_every_slice(monkeypatch, 2)
    monkeypatch.setattr(mempool_module, "_slice_columns", fail)
    doc = b'{"transactions": [{"id": 1, "gas_price": 2}, {"id": 2, "gas_price": 3}]}'
    with pytest.raises(ValueError, match="slices"):
        load_mempool(doc)
    assert_no_child_left()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_fast_reader_takes_every_layout(layout):
    literals = ["2.5", "1e-310"]
    records = [{"id": 4, "gas_price": "\0lit0\0"}, {"id": 2**63 - 1, "gas_price": "\0lit1\0", "size": 3}]
    doc = (render([("transactions", records)], layout, literals) + "\n").encode()
    columns = fast_columns(doc)
    assert [c.tolist() for c in columns] == [[4, 2**63 - 1], [2.5, 1e-310], [1.0, 3.0]]
    assert_same_outcome(load_mempool(doc), json_reader(doc))


@pytest.mark.parametrize("doc", [
    '{"transactions": []}',
    '{"transactions": [{"id": 1, "gas_price": 2}], "note": 1}',
    '{"note": 1, "transactions": [{"id": 1, "gas_price": 2}]}',
    '{"transactions": [{"id": 1, "gas_price": 2}]}\f',
    '\v{"transactions": [{"id": 1, "gas_price": 2}]}',
    '\ufeff{"transactions": [{"id": 1, "gas_price": 2}]}',
    '{"transactions": [{"id": 1, "gas_price": 2, "x": [1]}]}',
    '{"transactions": [{"id": 1, "gas_price": 2, "x": {"y": 1}}]}',
    '{"transactions": [{"id": 1, "gas_price": 2, "x": "{"}]}',
    '{"transactions": [{"id": 1, "gas_price": NaN}]}',
    '{"transactions": [{"id": 18446744073709551616, "gas_price": 2}]}',
    '{"transactions": [{"id": 1, "gas_price": 2, "x": "\ud800"}]}',
    '{"transactions": [{"id": 1, "gas_price": 2, "x": "\\ud800"}]}',
    '{"transactions": [{"id": true, "gas_price": 2}]}',
    '{"transactions": [{"id": 1, "gas_price": "2"}]}',
    '{"transactions": [{"id": 1}]}',
    '{"transactions": [{"id": 1, "gas_price": 2}, 5]}',
    '{"transactions": [{"id": 1, "gas_price": 2}' + " " * 5000 + "]}",
])
def test_fast_reader_declines(doc):
    try:
        doc = doc.encode("utf-8")
    except UnicodeEncodeError:  # a raw lone surrogate: the str goes to json
        pass
    assert fast_columns(doc) is None
    assert_same_outcome(*read_both(doc))


@pytest.mark.parametrize("open_, value, close, depth", [
    ("[", "", "]", 200_000), ('{"a": ', "1", "}", 200_000), ('{"a": ', "1", "}", 1_500),
])
def test_deep_nesting_goes_to_the_json_reader(open_, value, close, depth):
    # json raises RecursionError past about 1,000 levels. orjson parses 1,500,
    # and at 200,000 its unlimited recursion overflows the C stack. The fast
    # reader hands all three to json.
    nested = open_ * depth + value + close * depth
    with pytest.raises(RecursionError):
        load_mempool(('{"transactions": [{"id": 1, "gas_price": 2, "x": ' + nested + "}]}").encode())


def test_reader_memory_stays_below_the_records():
    # The records of a whole-document parse would take m dicts at once; the slices never do.
    m = 200_000
    rng = np.random.default_rng(3)
    doc = mempool_json(Mempool.from_arrays(rng.permutation(m), np.exp(rng.uniform(-3, 3, m)),
                                           rng.uniform(0.2, 4, m))).encode()
    record = json.loads(doc[doc.index(b"{", 1):doc.index(b"}") + 1])
    tracemalloc.start()
    try:
        mp = load_mempool(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mp) == m
    assert peak < m * sys.getsizeof(record) / 2


MAPPED_CASES = {
    "valid": b'{"transactions": [{"id": 2, "gas_price": 1.5}, {"id": 1, "gas_price": 3, "size": 2}]}\n',
    "empty file": b"",
    "whitespace only": b" \n\t ",
    "invalid utf-8": b'{"transactions": [{"id": 1, "gas_price": 2, "\xff": 1}]}',
    "truncated array": b'{"transactions": [{"id": 1, "gas_price": 2}, {"id": 2, "gas_',
    "extra top-level key": b'{"transactions": [{"id": 1, "gas_price": 2}], "note": "}]}"}',
    "duplicate id": b'{"transactions": [{"id": 1, "gas_price": 2}, {"id": 1, "gas_price": 3}]}',
}


def _load_file(path):
    try:
        return mempool_module.load_mempool_file(path)
    except ValidationError as e:
        return str(e)


def _raw_kinds(monkeypatch):
    """The types of the documents ``load_mempool_file`` hands on, as a list that fills."""
    kinds, real = [], mempool_module._load_raw
    monkeypatch.setattr(mempool_module, "_load_raw", lambda raw: kinds.append(type(raw)) or real(raw))
    return kinds


@pytest.mark.parametrize("case", MAPPED_CASES)
def test_mapped_file_reads_like_its_bytes(tmp_path, monkeypatch, case):
    doc = MAPPED_CASES[case]
    path = tmp_path / "m.json"
    path.write_bytes(doc)
    fast, ref = read_both(doc)
    kinds = _raw_kinds(monkeypatch)
    got = _load_file(path)
    assert_same_outcome(got, fast)
    assert_same_outcome(got, ref)
    assert kinds == [bytes if doc == b"" else mmap.mmap]  # an empty file cannot be mapped


def test_mapped_file_is_parsed_by_forked_workers(tmp_path, monkeypatch):
    # One record a slice, dealt to three workers that inherit the map.
    groups = _fork_every_slice(monkeypatch, 3)
    records = [f'{{"id": {i}, "gas_price": {i + 1}}}' for i in range(30)]
    doc = ('{"transactions": [' + ", ".join(records) + "]}").encode()
    path = tmp_path / "m.json"
    path.write_bytes(doc)
    assert_same_outcome(mempool_module.load_mempool_file(path), json_reader(doc))
    assert [len(bounds) for _, _, bounds in groups[0]] == [10, 10, 10]


def test_mapped_file_raises_the_parse_error(tmp_path, monkeypatch):
    # The map is closed on the way out, and no view left in the traceback turns that into a BufferError.
    def fail(piece):
        raise RuntimeError("parse failed")

    monkeypatch.setattr(mempool_module.orjson, "loads", fail)
    path = tmp_path / "m.json"
    path.write_bytes(MAPPED_CASES["valid"])
    with pytest.raises(RuntimeError, match="parse failed"):
        mempool_module.load_mempool_file(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_pipe_is_read_not_mapped(tmp_path, monkeypatch):
    doc = MAPPED_CASES["valid"]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(doc,), daemon=True)
    writer.start()
    kinds = _raw_kinds(monkeypatch)
    got = _load_file(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert kinds == [bytes]
    assert_same_outcome(got, json_reader(doc))


@pytest.mark.parametrize("kind", ["arrays", "lists"])
def test_writer_memory_stays_below_the_text(tmp_path, kind):
    # Rows are written a block at a time: never every row string, nor the whole text, at once.
    m = 200_000
    rng = np.random.default_rng(4)
    columns = (rng.permutation(m), rng.uniform(0.0, 1.0, m))
    if kind == "lists":
        columns = tuple(c.tolist() for c in columns)
    path = tmp_path / "profile.json"
    tracemalloc.start()
    try:
        _emit({"marginals": Rows(("id", "p"), columns), "xhat": 0.5, "w": 0.75}, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
