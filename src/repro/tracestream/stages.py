"""Composable generator stages over chunk streams.

Every stage takes an iterator of
:class:`~repro.tracestream.chunk.TraceChunk` and yields the same.  Data
transforms (:func:`bias`, :func:`shift`, :func:`sample`,
:func:`slice_stream`, :func:`interleave`, :func:`rechunk`) are pure
chunk→chunk numpy ops.

The terminal stages are :func:`records` (flatten to the engine's
``(pc, addr, is_write, gap, dep)`` scalar tuples) and :func:`to_trace`
(materialize an in-memory
:class:`~repro.sim.trace.Trace`); :meth:`repro.tracestream.store.TraceStore.put`
is the persistent sink.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .chunk import CHUNK_RECORDS, TraceChunk, concat_chunks

#: One engine record: (pc, addr, is_write, gap, dep).
Record = Tuple[int, int, bool, int, bool]


# -- sources -------------------------------------------------------------------

def chunks_of(source, start: int = 0,
              size: int = CHUNK_RECORDS) -> Iterator[TraceChunk]:
    """Chunk stream over any :class:`~repro.sim.trace.TraceSource`.

    Uses the source's ``chunk_at`` so an mmap-backed source never
    materializes more than ``size`` records at once.
    """
    n = len(source)
    for lo in range(start, n, size):
        yield source.chunk_at(lo, min(n, lo + size))


# -- transforms ----------------------------------------------------------------

def bias(stream: Iterable[TraceChunk], core: int,
         region_bits: int) -> Iterator[TraceChunk]:
    """Fold addresses into ``core``'s private region (multicore mixes).

    Vectorized equivalent of the per-record
    ``(addr & mask) | core << region_bits`` fold.
    """
    mask = (1 << region_bits) - 1
    region = core << region_bits

    def fold(c: TraceChunk) -> TraceChunk:
        return c.replace(addrs=(c.addrs & mask) | region)

    return map(fold, stream)


def shift(stream: Iterable[TraceChunk], pc_offset: int = 0,
          addr_offset: int = 0) -> Iterator[TraceChunk]:
    """Relocate PCs/addresses (phase composition, tenant isolation)."""

    def move(c: TraceChunk) -> TraceChunk:
        return c.replace(pcs=c.pcs + pc_offset,
                         addrs=c.addrs + addr_offset)

    return map(move, stream)


def sample(stream: Iterable[TraceChunk], every: int) -> Iterator[TraceChunk]:
    """Keep every ``every``-th record (systematic sampling).

    Phase is continuous across chunk boundaries: record ``i`` of the
    input survives iff ``i % every == 0``.
    """
    if every < 1:
        raise ValueError("sample interval must be >= 1")
    seen = 0
    for item in stream:
        m = len(item)
        first = (-seen) % every
        seen += m
        if first >= m:
            continue
        idx = np.arange(first, m, every)
        yield TraceChunk(*(col[idx] for col in item))


def slice_stream(stream: Iterable[TraceChunk], start: int,
                 stop: Optional[int] = None) -> Iterator[TraceChunk]:
    """Records ``start .. stop`` of the stream (like ``trace.slice``)."""
    pos = 0
    for item in stream:
        m = len(item)
        lo, hi = pos, pos + m
        pos = hi
        take_lo = max(lo, start)
        take_hi = hi if stop is None else min(hi, stop)
        if take_lo < take_hi:
            yield item.slice(take_lo - lo, take_hi - lo)
        if stop is not None and pos >= stop:
            break


def interleave(streams: Sequence[Iterable[TraceChunk]],
               granularity: int = CHUNK_RECORDS) -> Iterator[TraceChunk]:
    """Round-robin merge: ``granularity`` records from each live stream.

    Exhausted streams drop out; the merge ends when all are dry.
    """
    live = [iter(rechunk(s, granularity)) for s in streams]
    while live:
        nxt: List[Iterator[TraceChunk]] = []
        for it in live:
            chunk = next(it, None)
            if chunk is not None:
                yield chunk
                nxt.append(it)
        live = nxt


def rechunk(stream: Iterable[TraceChunk],
            size: int = CHUNK_RECORDS) -> Iterator[TraceChunk]:
    """Normalize chunk sizes to exactly ``size`` (last chunk partial)."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    pending: List[TraceChunk] = []
    buffered = 0
    for item in stream:
        off = 0
        m = len(item)
        while off < m:
            take = min(size - buffered, m - off)
            pending.append(item.slice(off, off + take))
            buffered += take
            off += take
            if buffered == size:
                yield (pending[0] if len(pending) == 1
                       else concat_chunks(pending))
                pending, buffered = [], 0
    if pending:
        yield concat_chunks(pending)


# -- sinks ---------------------------------------------------------------------

def records(stream: Iterable[TraceChunk]) -> Iterator[Record]:
    """Flatten a chunk stream into the engine's scalar record tuples.

    Conversion is per-chunk ``tolist`` (the ``Trace.__iter__`` recipe:
    constant memory, no per-record numpy scalar boxing).
    """
    for item in stream:
        yield from zip(item.pcs.tolist(), item.addrs.tolist(),
                       item.writes.tolist(), item.gaps.tolist(),
                       item.deps.tolist())


def to_trace(name: str, stream: Iterable[TraceChunk]):
    """Materialize a stream as an in-memory Trace."""
    from ..sim.trace import Trace

    merged = concat_chunks(stream)
    return Trace(name, merged.pcs, merged.addrs, merged.writes,
                 merged.gaps, merged.deps)


def stream_length(stream: Iterable[TraceChunk]) -> int:
    """Total records in a stream (consumes it)."""
    return sum(len(item) for item in stream)
