"""The mempool as validated column arrays, plus JSON ingestion.

Wire format: ``{"transactions": [{"id": int, "gas_price": num, "size": num}, ...]}``
with ``size`` defaulting to 1.0. Input order is preserved and acts as the
canonical tie-break order everywhere else in the package. ``load_mempool``
parses the wire format into columns and ``Mempool.from_arrays``, the one
constructor, applies one rule set to them: ids are unique, non-negative,
non-boolean 64-bit integers; ``gas_price`` and ``size`` are ints or floats
(not booleans or strings), finite and > 0. A violation raises
ValidationError naming the offending id. ``load_mempool_file`` maps the
file rather than copying it. The columns of a document held as bytes or a
map come from ``_fast_columns``, which parses the array with orjson a
slice at a time, or, where it declines or its columns fail those rules,
from ``read_records``, the ``json`` record reader the CLI's profiles
share; a document held as str goes to ``read_records`` alone. So every
accepted mempool, refusal and message is ``read_records``'.
``fixed_block_size`` is fixed mode's one rule: integer k, unit sizes, and
min(k, m) transactions a block.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import orjson

from .errors import ValidationError
from .workers import fork_map, usable_cpus


def _first_of_wrong_type(values: list, allowed: tuple):
    """Index of the first value that is a bool or of a type outside ``allowed``, or None."""
    # Checking the distinct types keeps the all-valid case at C speed.
    bad = {t for t in set(map(type, values)) if t is bool or not issubclass(t, allowed)}
    return next(i for i, v in enumerate(values) if type(v) in bad) if bad else None


def _id_column(ids) -> np.ndarray:
    """Ids as an int64 array; each must be a non-negative, non-boolean integer."""
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
        i = _first_of_wrong_type(ids, (int, np.integer))
        if i is not None:
            raise ValidationError(f"transaction id must be a non-negative integer, got {ids[i]!r}")
    try:
        col = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        big = max(ids, key=abs)
        raise ValidationError(f"transaction id must fit in 64 bits, got {big!r}") from None
    if (col < 0).any():
        raise ValidationError(f"transaction id must be a non-negative integer, got {col[col < 0][0]}")
    return col


def number_column(values, ids: np.ndarray, name: str) -> np.ndarray:
    """Numbers as float64; a bool, non-number or overflow raises ValidationError naming its id."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.asarray(values, dtype=np.float64)
    if not isinstance(values, list):
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    i = _first_of_wrong_type(values, (int, float, np.integer, np.floating))
    if i is None:
        try:
            return np.asarray(values, dtype=np.float64)
        except OverflowError:  # an int beyond the float range
            i = max(range(len(values)), key=lambda j: abs(values[j]))
            problem = "must be finite"
    else:
        problem = f"must be a number, got {values[i]!r}"
    where = f"transaction {ids[i]}" if i < len(ids) else f"position {i}"
    raise ValidationError(f"{where}: {name} {problem}")


class Mempool:
    """Immutable ordered table of transactions with unique ids.

    Numpy arrays (ids, prices, sizes, log-prices) aligned to input order are
    the whole representation; ``from_arrays`` is the one constructor.
    """

    # (k, lambda, xhat) of the last solve_equilibrium on this mempool.
    last_solve: tuple = (None, None, None)

    @classmethod
    def from_arrays(cls, ids, gas_prices, sizes=None) -> "Mempool":
        """Build from id, price and (default all-ones) size columns, validating each."""
        ids = _id_column(ids)
        prices = number_column(gas_prices, ids, "gas_price")
        sizes = np.ones(len(ids)) if sizes is None else number_column(sizes, ids, "size")
        if not (ids.ndim == 1 and ids.shape == prices.shape == sizes.shape):
            raise ValidationError("ids, gas prices and sizes must be 1-D arrays of equal length")
        for name, col in (("gas_price", prices), ("size", sizes)):
            bad = ids[~(np.isfinite(col) & (col > 0))]
            if bad.size:
                raise ValidationError(f"transaction {bad[0]}: {name} must be finite and > 0")
        # The first equal pair in sorted order is the smallest duplicated id.
        sorted_ids = np.sort(ids)
        repeated = sorted_ids[1:] == sorted_ids[:-1]
        if repeated.any():
            raise ValidationError(f"duplicate transaction id {sorted_ids[np.argmax(repeated)]}")
        self = cls.__new__(cls)
        self.ids, self.prices, self.sizes = ids, prices, sizes
        self.log_prices = np.log(prices)
        for arr in (self.ids, self.prices, self.sizes, self.log_prices):
            arr.setflags(write=False)
        return self

    @cached_property
    def total_size(self) -> float:
        return float(self.sizes.sum())

    @cached_property
    def mean_log_price(self) -> float:
        """Size-weighted mean of the log gas prices; the plain mean for unit sizes."""
        return float((self.sizes * self.log_prices).sum()) / self.total_size

    @cached_property
    def is_unit_size(self) -> bool:
        return bool(np.all(self.sizes == 1.0))

    @cached_property
    def centered_log_prices(self) -> np.ndarray:
        """Read-only ``log_prices - mean_log_price``: the raw marginals' numerators, built once."""
        centered = self.log_prices - self.mean_log_price
        centered.setflags(write=False)
        return centered

    @cached_property
    def price_order(self) -> tuple:
        """The solver's table, built once: (size_sums, sums, sorted_centered, spread).

        ``sorted_centered`` is ``centered_log_prices`` in ascending order.
        ``size_sums[j]`` and ``sums[j]`` sum s and s*c over the first j
        transactions in that order, ties in any order, with c the centered
        log price; ``spread`` is the sum of s*|c| over all of them. A raw
        marginal rises with ln v whatever (k, lambda) are, so this one sort
        orders all of them. Unit sizes need only the values sorted, and their
        products s*c are the values themselves; sized mempools sort positions,
        so each size stays with its price.
        """
        m = len(self)
        if self.is_unit_size:
            sorted_centered = np.sort(self.centered_log_prices)
            size_sums, weighted = np.arange(m + 1, dtype=np.float64), sorted_centered.copy()
        else:
            order = np.argsort(self.log_prices)
            s = self.sizes[order]
            sorted_centered = self.centered_log_prices[order]
            size_sums = np.zeros(m + 1)
            np.cumsum(s, out=size_sums[1:])
            weighted = np.multiply(s, sorted_centered, out=s)
        sums = np.zeros(m + 1)
        np.cumsum(weighted, out=sums[1:])
        spread = float(np.abs(weighted, out=weighted).sum())
        sorted_centered.setflags(write=False)
        return size_sums, sums, sorted_centered, spread

    @cached_property
    def _id_order(self) -> tuple:
        """(order, sorted ids): the positions that sort the ids, and the ids in that order."""
        order = np.argsort(self.ids)
        return order, self.ids[order]

    def positions(self, txids) -> np.ndarray:
        """Mempool positions of the given ids; an unknown id raises ValidationError."""
        want = _id_column(txids)
        if len(want) == len(self) and np.array_equal(want, self.ids):
            return np.arange(len(self))  # the mempool's own order, as equilibrium writes it
        # Searching a sorted copy halves a search through a sorter at 1e6 random ids.
        order, sorted_ids = self._id_order
        at = np.searchsorted(sorted_ids, want)
        known = at < len(self)
        known[known] = sorted_ids[at[known]] == want[known]
        if not known.all():
            raise ValidationError(f"unknown transaction id {want[~known][0]}")
        return order[at]

    def __len__(self):
        return len(self.ids)

    def __repr__(self):
        return f"Mempool({len(self)} txs, total_size={self.total_size:g})"


@dataclass(frozen=True)
class GameParams:
    """Block capacity k and expected competing blocks per latency window.

    Both are real numbers, not booleans; k is finite and > 0, lambda finite
    and >= 0. Anything else raises ValidationError.
    """

    k: float
    lam: float

    def __post_init__(self):
        for name, value in (("k", self.k), ("lambda", self.lam)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"k must be finite and > 0, got {self.k!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam!r}")


def fixed_block_size(mempool: Mempool, params: GameParams) -> int:
    """Fixed mode's game: blocks of k unit-size transactions, so each holds min(k, m).

    A fractional k, and then a transaction whose size is not 1, raises
    ValidationError; every fixed-mode entry point applies this one rule.
    """
    if params.k != int(params.k):
        raise ValidationError(f"fixed-size mode requires integer k, got {params.k!r}")
    if not mempool.is_unit_size:
        i = int(np.argmax(mempool.sizes != 1.0))
        raise ValidationError(
            f"fixed mode requires unit sizes, but transaction {mempool.ids[i]} has size "
            f"{float(mempool.sizes[i])!r}; use variable mode for sized transactions"
        )
    return min(int(params.k), len(mempool))


def read_records(source, what: str, key: str, fields: dict) -> tuple:
    """(document, columns) of a JSON object holding an array of records under ``key``.

    ``source`` is a file-like object, bytes or str; bytes are decoded as
    strict UTF-8. ``fields`` maps each field to its default, or to None for
    a field every record must hold, and ``columns`` lists each field's
    values in record order. A malformed document raises ValidationError
    naming ``what``.
    """
    raw = source.read() if hasattr(source, "read") else source
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except ValueError as e:  # bad UTF-8 or JSON, or an int literal past the digit limit
        raise ValidationError(f"malformed {what} JSON: {e}") from e
    if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
        raise ValidationError(f'{what} JSON must be an object with a "{key}" array')
    records = doc[key]
    try:
        columns = [
            [rec[f] for rec in records] if default is None
            else [rec.get(f, default) for rec in records]
            for f, default in fields.items()
        ]
    except (TypeError, KeyError, AttributeError) as e:  # a non-object record, or a missing field
        required = " and ".join(f'"{f}"' for f, default in fields.items() if default is None)
        raise ValidationError(f'every record in "{key}" needs {required}: {e!r}') from e
    return doc, columns


_WS = rb"[ \t\n\r]*"  # JSON's whitespace; a bytes \s also takes \f and \v, which json refuses
_HEAD = re.compile(_WS + rb"\{" + _WS + rb'"transactions"' + _WS + rb":" + _WS + rb"\[" + _WS + rb"\{")
_TAIL = re.compile(rb"\}" + _WS + rb"\]" + _WS + rb"\}" + _WS + rb"\Z")
_CUT = re.compile(rb"\}" + _WS + rb"," + _WS + rb"\{")
_TAIL_BYTES = 1 << 12  # the closing }]} is looked for in the document's last 4 KiB
_SLICE_BYTES = 1 << 15  # array bytes parsed per orjson call
_MAX_OPENS = _SLICE_BYTES // 16  # above the flat records of 22+ bytes that a slice holds
# Arrays this long or longer are parsed in forked workers: twice the crossover
# measured on a 2-vCPU VM, where 8.8 MiB (1.5e5 unit records) was a wash.
_FORK_BYTES = 20 << 20
_MEMPOOL_FIELDS = {"id": None, "gas_price": None, "size": 1.0}


def _slice_columns(raw: bytes, bounds: list):
    """(ids, prices, sizes) of the array slices ``raw[start:stop]`` in ``bounds``, or None.

    Each slice is parsed as ``[{slice}]`` and turned into columns before the
    next. None when a slice holds ``[`` or more than ``_MAX_OPENS`` ``{``, or
    when it is not one flat record per ``{``, each a dict with an integer id
    and int or float gas_price and size.
    """
    chunks = []
    for start, stop in bounds:
        # An unnamed view, so no frame of a raised error keeps a map from closing.
        piece = b"".join((b"[{", memoryview(raw)[start:stop], b"}]"))
        opens = int(np.count_nonzero(np.frombuffer(piece, np.uint8) == ord("{")))
        if piece.find(b"[", 1) >= 0 or opens > _MAX_OPENS:
            return None
        try:
            records = orjson.loads(piece)
            ids = [r["id"] for r in records]
            prices = [r["gas_price"] for r in records]
            sizes = [r.get("size", 1.0) for r in records]
            if (len(records) != opens or {*map(type, ids)} != {int}
                    or not {*map(type, prices), *map(type, sizes)} <= {int, float}):
                return None
            chunks.append((np.array(ids, dtype=np.int64), np.array(prices, dtype=np.float64),
                           np.array(sizes, dtype=np.float64)))
        except (orjson.JSONDecodeError, TypeError, KeyError, AttributeError, OverflowError):
            return None
    return tuple(np.concatenate(column) for column in zip(*chunks))


def _group_columns(state: tuple, task: tuple):
    """Record count of one group of slices, whose columns go to its region of ``shared``; or None.

    ``state`` is (raw, shared) and ``task`` (offset, capacity, bounds): the
    region holds ``capacity`` ids, then as many prices, then sizes.
    """
    raw, shared = state
    offset, capacity, bounds = task
    columns = _slice_columns(raw, bounds)
    if columns is None or len(columns[0]) > capacity:
        return None
    for j, column in enumerate(columns):
        np.frombuffer(shared, column.dtype, len(column), offset + 8 * j * capacity)[:] = column
    return len(columns[0])


def _fast_columns(raw):
    """(ids, prices, sizes) arrays of a ``{"transactions": [{...}, ...]}`` document, or None.

    The array is cut at ``}, {`` (JSON whitespace around the comma) into
    slices of about ``_SLICE_BYTES``, and ``_slice_columns`` parses them with
    orjson one at a time, so the records never all exist at once. A cut
    inside a string leaves the string open, which orjson refuses; so when
    every slice parses, the document is valid JSON and its array is the
    slices' concatenation. ``raw`` is bytes or a read-only map. An array
    of ``_FORK_BYTES`` or more is dealt in contiguous groups of slices
    to one forked worker per usable CPU (``workers.fork_map``), which
    inherits ``raw``. Each worker writes its group's columns to its own
    region of a shared anonymous map, so only its record count crosses its
    pipe; this process parses no group, and joins the columns in order.

    None leaves the document to ``read_records``. That happens unless the
    document is bytes or a map (a str always goes to ``json``), strict UTF-8
    with no top-level key but "transactions", and ``_slice_columns`` takes
    every slice. Records are then flat, so json's recursion limit cannot
    refuse them, and orjson, whose recursion has no limit, never nests
    deeper than ``_MAX_OPENS``. orjson refuses NaN, Infinity and lone
    surrogates, and reads ints past 64 bits as floats.
    """
    head = _HEAD.match(raw) if isinstance(raw, (bytes, mmap.mmap)) else None
    tail = _TAIL.search(raw, len(raw) - _TAIL_BYTES) if head else None
    if tail is None:
        return None
    start, end = head.end(), tail.start()
    bounds = []
    while (cut := _CUT.search(raw, start + _SLICE_BYTES, end)) is not None:
        bounds.append((start, cut.start()))
        start = cut.end()
    bounds.append((start, end))
    workers = usable_cpus() if end - head.end() >= _FORK_BYTES else 1
    if workers == 1:
        return _slice_columns(raw, bounds)
    step = -(-len(bounds) // workers)
    groups = [bounds[i:i + step] for i in range(0, len(bounds), step)]
    # A region holds more records than its group's bytes can: each takes 22 or more.
    capacities = [(group[-1][1] - group[0][0]) // 16 + 1 for group in groups]
    offsets = [24 * sum(capacities[:i]) for i in range(len(groups))]
    shared = mmap.mmap(-1, 24 * sum(capacities))
    counts = fork_map(_group_columns, (raw, shared), list(zip(offsets, capacities, groups)))
    if None in counts:
        return None
    return tuple(
        np.concatenate([np.frombuffer(shared, dtype, n, offset + 8 * j * capacity)
                        for offset, capacity, n in zip(offsets, capacities, counts)])
        for j, dtype in enumerate((np.int64, np.float64, np.float64))
    )


def load_mempool(source) -> Mempool:
    """Parse the JSON wire format into a validated Mempool.

    Accepts a file-like object, bytes, or str; a str, or a text stream's
    read, is parsed with ``json`` alone. Ordering of the input array is
    preserved. Where ``_fast_columns`` declines, or its columns break a
    rule of ``from_arrays``, the ``json`` reader's result or error is the
    answer, so both readers accept and refuse the same documents.
    """
    return _load_raw(source.read() if hasattr(source, "read") else source)


def _load_raw(raw) -> Mempool:
    """``load_mempool`` of a document held as bytes, str or a read-only map."""
    columns = _fast_columns(raw)
    if columns is not None:
        try:
            return Mempool.from_arrays(*columns)
        except ValidationError:  # the json reader below words the refusal
            del columns
    # read_records reads a map like a file. Keeping only the columns frees
    # the parsed records before the arrays are built.
    return Mempool.from_arrays(*read_records(raw, "mempool", "transactions", _MEMPOOL_FIELDS)[1])


def load_mempool_file(path) -> Mempool:
    """``load_mempool`` of the file at path, mapped read-only rather than copied.

    A file that cannot be mapped (an empty file, a pipe, ``/dev/stdin`` on a
    terminal) is read instead. A mapped file that shrinks while it is read
    ends the process with SIGBUS.
    """
    with open(path, "rb") as fh:
        try:
            raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # ValueError: an empty file
            return _load_raw(fh.read())
    with raw:
        return _load_raw(raw)
