"""Vectorized kernels over image-table matrices.

Elements are packed into int8 matrices, one row per element, with the
ground size n itself as the out-of-domain sentinel (rows index an augmented
table whose last column is the sentinel, so composition is one gather).
Little-endian bit packing is assumed when uint8 buffers are viewed as
uint64 words; this matches every platform the package targets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .pinj import stratum_sizes

__all__ = [
    "iter_matrix_chunks",
    "elements_matrix",
    "adjacency_packed",
    "pack_bool_rows",
]

_MAX_MATRIX_GROUND = 12


def _nilpotent_mask(m: np.ndarray, n: int) -> np.ndarray:
    """Rows whose map has no cycle: n-fold self-composition reaches the
    empty map exactly for nilpotents."""
    aug = np.concatenate([m, np.full((m.shape[0], 1), n, np.int8)], axis=1)
    v = m.astype(np.int64)
    for _ in range(n):
        v = np.take_along_axis(aug, v, axis=1).astype(np.int64)
    return (v == n).all(axis=1)


def _filter_mask(m: np.ndarray, n: int, filt: str) -> np.ndarray:
    if filt == "all":
        return np.ones(m.shape[0], dtype=bool)
    if filt == "nilpotent":
        return _nilpotent_mask(m, n)
    if filt == "idempotent":
        rng = np.arange(n, dtype=np.int8)
        return ((m == rng) | (m == n)).all(axis=1)
    if filt == "permutation":
        return (m != n).all(axis=1)
    raise ValueError(f"unknown filter {filt!r}")


def iter_matrix_chunks(n: int, filt: str = "all", max_rank=None,
                       chunk_rows: int = 1 << 20):
    """Yield (ids, matrix) blocks in ascending ID order."""
    if not 0 <= n <= _MAX_MATRIX_GROUND:
        raise ValueError(f"matrix enumeration supports n <= {_MAX_MATRIX_GROUND}")
    sizes = stratum_sizes(n)
    top = n if max_rank is None else min(max_rank, n)
    eid = 0
    pending_ids = []
    pending_m = []
    pending_rows = 0
    for r in range(top + 1):
        if filt == "permutation" and r < n:
            eid += sizes[r]
            continue
        fact = math.factorial(r)
        perm_idx = (np.array(list(itertools.permutations(range(r))), dtype=np.int64)
                    if r else np.zeros((1, 0), dtype=np.int64))
        combos = list(itertools.combinations(range(n), r))
        for dom in combos:
            dom_arr = np.array(dom, dtype=np.int64)
            for ima in combos:
                ima_arr = np.array(ima, dtype=np.int8)
                block = np.full((fact, n), n, dtype=np.int8)
                if r:
                    block[:, dom_arr] = ima_arr[perm_idx]
                pending_m.append(block)
                pending_ids.append(np.arange(eid, eid + fact, dtype=np.int64))
                pending_rows += fact
                eid += fact
                if pending_rows >= chunk_rows:
                    m = np.vstack(pending_m)
                    ids = np.concatenate(pending_ids)
                    mask = _filter_mask(m, n, filt)
                    yield ids[mask], m[mask]
                    pending_ids, pending_m, pending_rows = [], [], 0
    if pending_rows:
        m = np.vstack(pending_m)
        ids = np.concatenate(pending_ids)
        mask = _filter_mask(m, n, filt)
        yield ids[mask], m[mask]


def elements_matrix(n: int, filt: str = "all", max_rank=None):
    """All qualifying elements as (ids, int8 matrix), ascending by ID."""
    ids_parts = []
    m_parts = []
    for ids, m in iter_matrix_chunks(n, filt, max_rank):
        ids_parts.append(ids)
        m_parts.append(m)
    if not ids_parts:
        return np.empty(0, np.int64), np.empty((0, n), np.int8)
    return np.concatenate(ids_parts), np.vstack(m_parts)


def pack_bool_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Pack boolean rows into uint64 words, bit j of word w = column 64w+j."""
    words = (width + 63) // 64
    padded = np.zeros((rows.shape[0], words * 64), dtype=bool)
    padded[:, :width] = rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(rows.shape[0], words)


def adjacency_packed(m: np.ndarray, block: int = 256) -> np.ndarray:
    """Commutation adjacency of all row pairs, bit-packed, diagonal clear.

    For a block of left factors A against the whole matrix M, both
    composite tables come from single gathers through the augmented
    matrices; equality rows then give one adjacency stripe.
    """
    big_n, n = m.shape
    aug = np.concatenate([m, np.full((big_n, 1), n, np.int8)], axis=1)
    words = (big_n + 63) // 64
    out = np.empty((big_n, words), dtype=np.uint64)
    for s in range(0, big_n, block):
        e = min(big_n, s + block)
        a = m[s:e]
        a_aug = aug[s:e]
        # ab[b, j, x] = m_b(a_j(x)); ba[j, b, x] = a_j(m_b(x))
        ab = aug[:, a]
        ba = a_aug[:, m]
        eq = (ab.transpose(1, 0, 2) == ba).all(axis=2)
        eq[np.arange(e - s), np.arange(s, e)] = False
        out[s:e] = pack_bool_rows(eq, big_n)
    return out

