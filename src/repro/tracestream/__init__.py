"""Streaming out-of-core trace pipeline.

Trace flow as composable generator stages over fixed-size columnar
chunks, plus a chunked mmap-backed on-disk :class:`TraceStore` so
paper-scale (100M+-access) traces generate once, persist, and replay
in constant memory.

Knobs:

* ``REPRO_TRACE_STREAM`` — tri-state (unset/``auto``/``0``/``1``):
  route ``repro.runner`` trace acquisition through the on-disk store
  and replay via :class:`StreamingTrace`.  Pure execution strategy —
  results are bit-identical to the in-memory path and the knob is
  excluded from job fingerprints.
* ``REPRO_TRACE_DIR`` — store root (default ``benchmarks/.traces``).

``python -m repro.tracestream`` lists, verifies, generates, and
garbage-collects store entries.
"""

from .chunk import CHUNK_RECORDS, TraceChunk, concat_chunks, make_chunk
from .stages import (bias, chunks_of, interleave, rechunk, records, sample,
                     shift, slice_stream, stream_length, to_trace)
from .store import (ENV_DIR, FORMAT_VERSION, StreamingTrace, TraceStore,
                    TraceStoreCorrupt, default_root, entry_key)

__all__ = [
    "CHUNK_RECORDS", "TraceChunk", "concat_chunks", "make_chunk",
    "bias", "chunks_of", "interleave", "rechunk", "records", "sample",
    "shift", "slice_stream", "stream_length", "to_trace",
    "ENV_DIR", "FORMAT_VERSION", "StreamingTrace", "TraceStore",
    "TraceStoreCorrupt", "default_root", "entry_key",
]
