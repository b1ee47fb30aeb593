import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpack import GameParams, Mempool, ValidationError, load_mempool

from conftest import mempool_json


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
    ]})),
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
