"""Vectorized N-lane interleaved rANS entropy backend (the fast path).

Asymmetric numeral systems (Duda, 2014) re-express arithmetic coding as
integer state transitions, which production NVC stacks (the
DCVC/CompressAI lineage referenced in PAPERS.md) exploit to batch
entropy coding.  This module implements the interleaved construction:

* one rANS state per *lane*, up to :data:`DEFAULT_LANES` lanes held in
  a single NumPy ``int64`` array;
* symbol position ``i`` belongs to lane ``i % lanes``, so each Python
  loop iteration retires ``lanes`` symbols with every step (renormalize,
  transition, emit) expressed as vectorized array ops — the loop runs
  ``ceil(count / lanes)`` times instead of once per symbol;
* probabilities come from ``SymbolModel.rans_table()``: frequencies
  re-quantized to total ``2**RANS_PRECISION`` so the slot arithmetic is
  shifts and masks.  The decoder reads ``SymbolModel.rans_slot_tables()``
  instead: int16 frequency, ``slot - cum`` and symbol per slot, cached
  on the model, so a slot costs three gathers on one index and no
  per-symbol ``searchsorted``;
* encoding walks the stream *in reverse* (rANS is LIFO) emitting 16-bit
  words, which are order-reversed at flush so the decoder reads forward;
* a multi-model payload (a packet's motion field, per-band DCT models
  of all three planes, per-channel latent models) is coded as one
  interleaved stream — a single set of lane states per payload keeps
  the flush overhead independent of the number of segments, and the
  codecs write one payload per packet.  A decode row inside one
  segment gathers straight from that model's tables; only rows that
  start a segment, and a short last row, gather part by part.  No
  table is stacked or copied per call.

Per-row budget (NumPy calls; the word branch runs only on rows where a
lane renormalizes):

* decode: ``slot = s & mask``, two gathers (frequency, ``slot - cum``),
  ``s >>= P``, ``s *= f``, ``s += d``, ``np.less(s, L, out=)`` and
  ``np.count_nonzero``: 8, plus 4 to refill.  Symbols are one gather
  per segment from the stored slots after the loop.
* encode: ``np.greater_equal(s, f << 32, out=)`` with the limit
  precomputed, ``np.count_nonzero``, ``np.divmod(out=)``, a shift and
  two in-place adds: 6, plus 3 to emit.

State invariants (all enforced by construction, property-tested in
``tests/test_codec_rans.py``): with ``M = 2**RANS_PRECISION``,
``L = M << 16``, states live in ``[L, L << 16)`` (< 2**46), encode
renormalization emits at most one 16-bit word per symbol per lane, and
decode refills mirror emissions exactly.  A hostile payload's 6-byte
states are below 2**48, a decode step never raises a state (``f <= M``
and ``slot - cum <= slot``) and a refill leaves it below 2**46, so no
product exceeds 2**48 and int64 cannot overflow.

Payload layout::

    u8 lanes | u32 word-count | lanes * 6-byte final states (LE) |
    word-count * u16 stream words (LE)

The lane count adapts to the payload: up to 32 lanes at
:data:`MIN_SYMBOLS_PER_LANE` symbols each, lanes past 32 at
:data:`WIDE_SYMBOLS_PER_LANE` each, clamped to [1, DEFAULT_LANES].  So
a frame-sized payload (131072+ symbols, e.g. a 640x360 packet) runs
fully 64-lane parallel, and small ones don't pay a 64-lane state
flush.  The decoder reads the lane count from byte 0, so payloads
written under an earlier rule (up to 32 lanes, from 2048 symbols)
decode unchanged.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from .bitstream import StreamCorruptionError
from .entropy import (
    RANS_PRECISION,
    SymbolModel,
    register_entropy_backend,
)

__all__ = [
    "DEFAULT_LANES",
    "MIN_SYMBOLS_PER_LANE",
    "RansBackend",
    "WIDE_SYMBOLS_PER_LANE",
]

DEFAULT_LANES = 64
#: below this many symbols per lane the 6-byte-per-lane state flush
#: weighs on the payload, so the lane count shrinks (down to plain
#: single-lane rANS); 4096+ symbols run 32 lanes.
MIN_SYMBOLS_PER_LANE = 128
#: symbols each lane past the 32nd needs: a lane added to a long
#: payload saves less loop time than the first 32 did, and its flush
#: must stay small beside the payload (64 lanes on a 60000-symbol,
#: 4-bit Laplacian stream would cost 1.1% over the Shannon bound).
WIDE_SYMBOLS_PER_LANE = 2048
_NARROW_LANES = 32

_M = 1 << RANS_PRECISION
_MASK = np.int64(_M - 1)
_PREC = np.int64(RANS_PRECISION)
_L = np.int64(1 << (RANS_PRECISION + 16))  # lower state bound M << 16
_SHIFT16 = np.int64(16)
_SHIFT32 = np.int64(32)


def _lane_count(count: int, max_lanes: int) -> int:
    lanes = max(
        min(count // MIN_SYMBOLS_PER_LANE, _NARROW_LANES),
        count // WIDE_SYMBOLS_PER_LANE,
    )
    return max(1, min(max_lanes, lanes))


def _pack_states(states: np.ndarray) -> bytes:
    """Serialize lane states as 6-byte little-endian integers
    (states < 2**46, so the top two bytes are always zero)."""
    raw = states.astype("<u8").view(np.uint8).reshape(-1, 8)
    return raw[:, :6].tobytes()


def _unpack_states(blob: bytes, lanes: int) -> np.ndarray:
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(lanes, 6)
    full = np.zeros((lanes, 8), dtype=np.uint8)
    full[:, :6] = raw
    return full.view("<u8").ravel().astype(np.int64)


def _row_plan(pieces: list, lanes: int, total: int) -> dict[int, list]:
    """Rows that cannot run on the previous row's tables: each row
    holding a segment's first position, and a short last row.  Maps
    each to ``(lane_lo, lane_hi, freq, delta)`` parts, one per segment
    it overlaps, in lane order."""
    begins = [begin for begin, _, _ in pieces]
    rows = {begin // lanes for begin in begins}
    if total % lanes:
        rows.add(total // lanes)
    plan = {}
    for row in rows:
        lo = row * lanes
        hi = min(lo + lanes, total)
        k = bisect.bisect_right(begins, lo) - 1
        parts = []
        while k < len(pieces) and pieces[k][0] < hi:
            begin, end, (freq, delta, _) = pieces[k]
            parts.append((max(begin, lo) - lo, min(end, hi) - lo, freq, delta))
            k += 1
        plan[row] = parts
    return plan


class RansBackend:
    """Interleaved multi-lane rANS over ``SymbolModel`` tables."""

    name = "rans"

    def __init__(self, lanes: int = DEFAULT_LANES):
        if not 1 <= lanes <= 255:
            raise ValueError(f"lanes must be in [1, 255], got {lanes}")
        self.lanes = lanes

    # -- encode ---------------------------------------------------------
    def encode_segments(
        self, segments: Sequence[tuple[np.ndarray, SymbolModel]]
    ) -> bytes:
        pieces = []
        for symbols, model in segments:
            syms = np.asarray(symbols, dtype=np.int64).ravel()
            if syms.size:
                pieces.append((syms, model.rans_table()))
        count = sum(syms.size for syms, _ in pieces)
        if not count:
            return b""
        lanes = _lane_count(count, self.lanes)
        rows = -(-count // lanes)

        # Tail positions of the last row get f = M, c = 0: a state below
        # M << 32 never emits, and divmod by M reassembles it unchanged,
        # so every row runs at full width without touching idle lanes.
        # Segments gather into place one at a time, so a packet-sized
        # payload holds one segment's temporaries, not every segment's.
        freqs = np.full(rows * lanes, _M, dtype=np.int64)
        cums = np.zeros(rows * lanes, dtype=np.int64)
        start = 0
        for syms, (tab_freqs, tab_cums, _) in pieces:
            end = start + syms.size
            freqs[start:end] = tab_freqs[syms]
            cums[start:end] = tab_cums[syms]
            start = end
        freqs = freqs.reshape(rows, lanes)
        cums = cums.reshape(rows, lanes)
        limits = freqs << _SHIFT32  # states at or above f << 32 emit

        states = np.full(lanes, _L, dtype=np.int64)
        div = np.empty(lanes, dtype=np.int64)
        mod = np.empty(lanes, dtype=np.int64)
        overflow = np.empty(lanes, dtype=bool)
        emitted: list[np.ndarray] = []
        for row in range(rows - 1, -1, -1):
            np.greater_equal(states, limits[row], out=overflow)
            if np.count_nonzero(overflow):
                # Emit in descending lane order: the final global
                # reversal then hands the decoder rows ascending with
                # lanes ascending inside each row.
                low = states[overflow]
                emitted.append(low[::-1])
                states[overflow] = low >> _SHIFT16
            np.divmod(states, freqs[row], out=(div, mod))
            np.left_shift(div, _PREC, out=states)
            states += cums[row]
            states += mod

        if emitted:
            # Emission order was (last row .. first row, lanes descending
            # within each row); one global reversal yields the decoder's
            # reading order (first row .. last row, lanes ascending).
            # The emitted states keep their high bits until this mask.
            words = np.concatenate(emitted)[::-1] & 0xFFFF
        else:
            words = np.empty(0, dtype=np.int64)
        header = bytes([lanes]) + int(words.size).to_bytes(4, "little")
        return header + _pack_states(states) + words.astype("<u2").tobytes()

    # -- decode ---------------------------------------------------------
    def decode_segments(
        self, data: bytes, segments: Sequence[tuple[int, SymbolModel]]
    ) -> list[np.ndarray]:
        counts = [int(count) for count, _ in segments]
        total = sum(counts)
        if total == 0:
            return [np.empty(0, dtype=np.int64) for _ in segments]
        if len(data) < 5:
            raise StreamCorruptionError("truncated rANS payload (missing header)")
        lanes = data[0]
        if lanes == 0:
            raise StreamCorruptionError("rANS payload declares zero lanes")
        nwords = int.from_bytes(data[1:5], "little")
        offset = 5 + 6 * lanes
        if len(data) < offset + 2 * nwords:
            raise StreamCorruptionError("truncated rANS payload")
        states = _unpack_states(data[5:offset], lanes)
        words = np.frombuffer(
            data, dtype="<u2", count=nwords, offset=offset
        ).astype(np.int64)

        # Segment k covers positions [begin, end) and decodes through
        # its model's cached slot tables, which serve every row wholly
        # inside it directly; only the rows `_row_plan` names gather
        # part by part.
        pieces = []
        begin = 0
        for count, (_, model) in zip(counts, segments):
            if count:
                pieces.append((begin, begin + count, model.rans_slot_tables()))
                begin += count
        plan = _row_plan(pieces, lanes, total)
        rows = -(-total // lanes)
        # The loop stores each row's slots; the slot alone names the
        # symbol, so symbols are looked up per segment afterwards.
        slots = np.empty((rows, lanes), dtype=np.int64)
        freq_buf = np.empty(lanes, dtype=np.int64)
        delta_buf = np.empty(lanes, dtype=np.int64)
        refill = np.empty(lanes, dtype=bool)
        wpos = 0
        for row in range(rows):
            parts = plan.get(row)
            if parts is None:
                slot = slots[row]
                np.bitwise_and(states, _MASK, out=slot)
                f = freq_of[slot]
                d = delta_of[slot]
            else:
                width = parts[-1][1]
                if width != lanes:  # the short last row
                    states, refill = states[:width], refill[:width]
                slot = slots[row, :width]
                np.bitwise_and(states, _MASK, out=slot)
                f, d = freq_buf[:width], delta_buf[:width]
                for lo, hi, freq_of, delta_of in parts:
                    f[lo:hi] = freq_of[slot[lo:hi]]
                    d[lo:hi] = delta_of[slot[lo:hi]]
                # Unplanned rows lie inside the last part's segment.
            np.right_shift(states, _PREC, out=states)
            np.multiply(states, f, out=states)
            np.add(states, d, out=states)
            np.less(states, _L, out=refill)
            need = np.count_nonzero(refill)
            if need:
                if wpos + need > nwords:
                    raise StreamCorruptionError(
                        "truncated rANS payload (stream words)"
                    )
                refilled = states[refill] << _SHIFT16
                states[refill] = refilled | words[wpos : wpos + need]
                wpos += need

        flat = slots.ravel()
        result: list[np.ndarray] = []
        start = 0
        for count, (_, model) in zip(counts, segments):
            symbols = flat[start : start + count]
            if count:
                symbols = model.rans_slot_tables()[2][symbols]
            result.append(symbols.astype(np.int64))
            start += count
        return result


register_entropy_backend("rans", RansBackend())
