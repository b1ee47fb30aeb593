"""Seeded mempool generator with an on-disk cache.

A mempool is fixed by (m, kind, seed): prices are exp(U(-3, 3)), sizes are 1
for ``unit`` mempools and U(0.2, 4) for ``sized`` ones, ids are 0..m-1 in a
seeded shuffle. Files are written in txpack's wire format and cached under
``.bench_cache/`` with a SHA-256 sidecar, so generation time stays out of
every metric and a damaged cache file is regenerated instead of measured.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

KINDS = ("unit", "sized")
GENERATOR_VERSION = 1
KEEP_PER_SHAPE = 4  # cached seeds kept per (kind, m); older files are pruned


def generate(m: int, kind: str, seed: int):
    """(ids, prices, sizes) arrays for one mempool; same arguments, same arrays."""
    if kind not in KINDS:
        raise ValueError(f"unknown mempool kind {kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(m, KINDS.index(kind))))
    ids = rng.permutation(m).astype(np.int64)
    prices = np.exp(rng.uniform(-3.0, 3.0, m))
    sizes = np.ones(m) if kind == "unit" else rng.uniform(0.2, 4.0, m)
    return ids, prices, sizes


def _encode(ids, prices, sizes) -> bytes:
    recs = ", ".join(
        f'{{"id": {i}, "gas_price": {p!r}, "size": {s!r}}}'
        for i, p, s in zip(ids.tolist(), prices.tolist(), sizes.tolist())
    )
    return ('{"transactions": [' + recs + "]}\n").encode()


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def mempool_file(cache_dir: Path, m: int, kind: str, seed: int) -> Path:
    """Path of the cached mempool file, generating it on a miss or bad digest."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"mempool-v{GENERATOR_VERSION}-{kind}-{m}-s{seed}.json"
    sidecar = path.with_suffix(".sha256")
    if path.exists() and sidecar.exists() and sidecar.read_text().strip() == _digest(path):
        os.utime(path)  # mark as recently used for pruning
        return path
    data = _encode(*generate(m, kind, seed))
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    sidecar.write_text(hashlib.sha256(data).hexdigest() + "\n")
    _prune(cache_dir, kind, m)
    return path


def _prune(cache_dir: Path, kind: str, m: int):
    files = sorted(
        cache_dir.glob(f"mempool-v{GENERATOR_VERSION}-{kind}-{m}-s*.json"),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for old in files[KEEP_PER_SHAPE:]:
        old.unlink(missing_ok=True)
        old.with_suffix(".sha256").unlink(missing_ok=True)
