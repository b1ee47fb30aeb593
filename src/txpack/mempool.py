"""The mempool as validated column arrays, plus JSON ingestion.

Wire format: ``{"transactions": [{"id": int, "gas_price": num, "size": num}, ...]}``
with ``size`` defaulting to 1.0. Input order is preserved and acts as the
canonical tie-break order everywhere else in the package. ``load_mempool``
parses the wire format into columns, and ``Mempool.from_arrays``, the one
constructor, applies one rule set to them: ids are unique, non-negative,
non-boolean 64-bit integers; ``gas_price`` and ``size`` are ints or floats
(not booleans or strings), finite and > 0. A violation raises
ValidationError naming the offending id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


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
        uniq, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise ValidationError(f"duplicate transaction id {uniq[counts > 1][0]}")
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

    def require_unit_size(self):
        """Fixed mode's check: ValidationError naming the first transaction whose size is not 1."""
        if not self.is_unit_size:
            i = int(np.argmax(self.sizes != 1.0))
            raise ValidationError(
                f"fixed mode requires unit sizes, but transaction {self.ids[i]} has size "
                f"{float(self.sizes[i])!r}; use variable mode for sized transactions"
            )

    @cached_property
    def price_order(self) -> tuple:
        """The solver's table, built once: (order, size_sums, log_sums).

        ``order`` sorts the log prices ascending, ties in any order.
        ``size_sums[j]`` and ``log_sums[j]`` sum s and s*ln v over the first j
        transactions in that order. A raw marginal rises with ln v whatever
        (k, lambda) are, so this one sort orders all of them.
        """
        order = np.argsort(self.log_prices)
        s = self.sizes[order]
        size_sums, log_sums = np.zeros(len(self) + 1), np.zeros(len(self) + 1)
        np.cumsum(s, out=size_sums[1:])
        np.cumsum(s * self.log_prices[order], out=log_sums[1:])
        return order, size_sums, log_sums

    @cached_property
    def _id_order(self) -> np.ndarray:
        return np.argsort(self.ids)

    def positions(self, txids) -> np.ndarray:
        """Mempool positions of the given ids; an unknown id raises ValidationError."""
        want = _id_column(txids)
        at = np.searchsorted(self.ids, want, sorter=self._id_order)
        known = at < len(self)
        known[known] = self.ids[self._id_order[at[known]]] == want[known]
        if not known.all():
            raise ValidationError(f"unknown transaction id {want[~known][0]}")
        return self._id_order[at]

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Mempool):
            return NotImplemented
        columns = ("ids", "prices", "sizes")
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)

    def __repr__(self):
        return f"Mempool({len(self)} txs, total_size={self.total_size:g})"


@dataclass(frozen=True)
class GameParams:
    """Block capacity k and expected competing blocks per latency window."""

    k: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"k must be finite and > 0, got {self.k!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam!r}")

    def require_integer_k(self):
        if self.k != int(self.k):
            raise ValidationError(f"fixed-size mode requires integer k, got {self.k!r}")
        return int(self.k)

    def block_size(self, m: int) -> int:
        """Transactions in one fixed-mode block over m transactions: min(k, m)."""
        return min(self.require_integer_k(), m)


def load_mempool(source) -> Mempool:
    """Parse the JSON wire format into a validated Mempool.

    Accepts a file-like object, bytes, or str. Ordering of the input array
    is preserved.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except ValueError as e:  # bad UTF-8 or JSON, or an int literal past the digit limit
        raise ValidationError(f"malformed mempool JSON: {e}") from e
    if not isinstance(doc, dict) or "transactions" not in doc:
        raise ValidationError('mempool JSON must be an object with a "transactions" array')
    records = doc["transactions"]
    if not isinstance(records, list):
        raise ValidationError('"transactions" must be an array')
    try:
        ids = [rec["id"] for rec in records]
        prices = [rec["gas_price"] for rec in records]
        sizes = [rec.get("size", 1.0) for rec in records]
    except (TypeError, KeyError) as e:
        raise ValidationError(f'every transaction record needs "id" and "gas_price": {e!r}') from e
    return Mempool.from_arrays(ids, prices, sizes)


def load_mempool_file(path) -> Mempool:
    with open(path, "rb") as fh:
        return load_mempool(fh)
