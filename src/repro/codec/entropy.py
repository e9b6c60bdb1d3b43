"""Entropy coding: pluggable backends + discretized priors.

The NVC literature the paper builds on (DVC, FVC, DCVC) quantizes
auto-encoder latents and entropy-codes them under a factorized prior.
This module provides the real thing — no estimated-bits shortcuts —
behind a pluggable **entropy backend** seam:

* :class:`EntropyBackend` — the protocol every coder implements: a
  *segment list* (one ``(symbols, SymbolModel)`` pair per contiguous
  run of same-model symbols) in, one byte payload out, and the exact
  inverse on decode.  Backends live in a string-keyed registry
  (:func:`register_entropy_backend` / :func:`get_entropy_backend`,
  defined NumPy-free in :mod:`repro.codec.entropy_registry` and
  re-exported here), mirroring the codec registry in
  :mod:`repro.pipeline.registry`.
* ``"cacm"`` — the classic CACM'87 integer arithmetic coder
  (:class:`ArithmeticEncoder` / :class:`ArithmeticDecoder`, 32-bit
  registers, pending-bit handling).  Bit I/O is vectorized through
  ``np.packbits``/``np.unpackbits`` but the symbol loop is scalar:
  this is the paper-exact correctness reference.
* ``"rans"`` — the fast path: a vectorized N-lane interleaved rANS
  coder in :mod:`repro.codec.rans`, batching all lane work through
  NumPy so the Python loop runs ``ceil(count / lanes)`` times instead
  of once per symbol.  This is the default backend of both codecs.

Which backend produced a bitstream is recorded in the
:class:`~repro.codec.bitstream.SequenceBitstream` header (since format
version 2), so decoders always pick the right one regardless of their
own configuration.

Probability models:

* :class:`SymbolModel` — static cumulative-frequency tables (shared by
  both backends; the rANS table/LUT view is cached per instance).
* :class:`LaplacianModel` — a discretized zero-mean Laplacian over a
  symmetric integer support, the standard factorized latent prior; its
  scale is the only side information a decoder needs.
  :func:`cached_laplacian` / :func:`cached_uniform_model` memoize
  model construction on ``(scale_bits, support)`` so per-channel
  models are built once, not once per frame.

Rates reported anywhere in the evaluation harness come from actual
encoded byte counts, with ``estimate_bits`` (ideal Shannon cost)
available to cross-check coder efficiency.

This registry is one of the six seams mapped in
``docs/architecture.md``; the header field that pins a stream to its
backend is specified in ``docs/bitstream.md``.
"""

from __future__ import annotations

import functools
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .bitstream import f16_from_bits
from .entropy_registry import (
    EntropyBackendError,
    available_entropy_backends,
    get_entropy_backend,
    register_entropy_backend,
    unregister_entropy_backend,
)

__all__ = [
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "CacmBackend",
    "EntropyBackend",
    "EntropyBackendError",
    "SymbolModel",
    "LaplacianModel",
    "available_entropy_backends",
    "cached_laplacian",
    "cached_uniform_model",
    "encode_symbols",
    "decode_symbols",
    "estimate_bits",
    "get_entropy_backend",
    "register_entropy_backend",
    "unregister_entropy_backend",
]

_PRECISION = 32
_WHOLE = 1 << _PRECISION
_HALF = _WHOLE >> 1
_QUARTER = _WHOLE >> 2
_MAX_TOTAL = 1 << 16  # keeps span * total within 64-bit headroom

#: rANS probability resolution: every model is re-quantized to integer
#: frequencies summing to exactly 2**14 (same resolution
#: ``SymbolModel.from_pmf`` uses), which makes the rANS slot arithmetic
#: pure shifts/masks and keeps the state within 2**46.
RANS_PRECISION = 14


class SymbolModel:
    """Static frequency table over an alphabet of n symbols.

    Frequencies are positive integers; cumulative sums drive both the
    encoder and decoder.  ``total`` must stay below 2**16 so the
    arithmetic coder's renormalization cannot underflow.
    """

    def __init__(self, frequencies: np.ndarray):
        freqs = np.asarray(frequencies, dtype=np.int64)
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValueError("frequencies must be a 1-D non-empty array")
        if np.any(freqs <= 0):
            raise ValueError("all frequencies must be positive")
        if int(freqs.sum()) >= _MAX_TOTAL:
            # Rescale, preserving positivity.
            scale = (_MAX_TOTAL - freqs.size - 1) / float(freqs.sum())
            freqs = np.maximum(1, (freqs * scale).astype(np.int64))
        self.freqs = freqs
        self.cum = np.concatenate([[0], np.cumsum(freqs)])
        self.total = int(self.cum[-1])
        self._rans_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._rans_slot_tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_symbols(self) -> int:
        """Alphabet size (symbols are the integers ``0..num_symbols-1``)."""
        return int(self.freqs.size)

    def interval(self, symbol: int) -> tuple[int, int]:
        """Cumulative-frequency interval ``[low, high)`` of a symbol —
        the sub-range the arithmetic coder narrows to."""
        return int(self.cum[symbol]), int(self.cum[symbol + 1])

    def probabilities(self) -> np.ndarray:
        """Normalized symbol probabilities (used by :func:`estimate_bits`)."""
        return self.freqs / self.total

    def rans_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frequencies re-quantized to total 2**RANS_PRECISION.

        Returns ``(freqs, cums, slots)`` — uint64 per-symbol frequency
        and cumulative arrays plus the int16 slot->symbol lookup table
        of length 2**RANS_PRECISION that replaces per-symbol
        ``searchsorted`` on the decoder side (an alphabet has at most
        2**RANS_PRECISION symbols, so int16 holds every one; it keeps
        the table half the size).  Deterministic (largest
        remainder apportionment), so encoder and decoder derive
        identical tables from identical side information.  Cached per
        instance; combined with :func:`cached_laplacian` the table is
        built once per distinct model, not once per frame.
        """
        if self._rans_table is None:
            target = 1 << RANS_PRECISION
            if self.freqs.size > target:
                raise ValueError(
                    f"alphabet of {self.freqs.size} symbols cannot be "
                    f"represented at rANS precision {RANS_PRECISION} "
                    f"(max {target} symbols); use the 'cacm' backend"
                )
            scaled = self.freqs * (target / self.total)
            base = np.maximum(1, np.floor(scaled).astype(np.int64))
            diff = target - int(base.sum())
            if diff > 0:
                # Hand out the remainder to the largest fractional parts
                # (stable order, so ties resolve identically everywhere).
                order = np.argsort(base - scaled, kind="stable")
                base[order[:diff]] += 1
            while diff < 0:
                # Flooring can overshoot only via the >=1 clamp; claw
                # back from the largest frequencies, never below 1.
                order = np.argsort(-base, kind="stable")
                for index in order:
                    if diff == 0:
                        break
                    if base[index] > 1:
                        base[index] -= 1
                        diff += 1
            freqs = base.astype(np.uint64)
            cums = np.concatenate([[0], np.cumsum(base)]).astype(np.uint64)
            slots = np.repeat(np.arange(base.size, dtype=np.int16), base)
            self._rans_table = (freqs, cums[:-1], slots)
        return self._rans_table

    def rans_slot_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-slot rANS decode tables ``(freq, delta, symbol)``.

        Three int16 arrays of length 2**RANS_PRECISION indexed by the
        state's slot ``x = state & (2**RANS_PRECISION - 1)``:
        ``symbol[x]`` is the decoded symbol (the slot LUT of
        :meth:`rans_table`, shared, not copied), ``freq[x]`` its
        frequency and ``delta[x] = x - cum[symbol[x]]``, so a decode
        step is ``freq[x] * (state >> RANS_PRECISION) + delta[x]``.
        Every entry is at most 2**RANS_PRECISION, so int16 holds it:
        the tables cost 64 KiB per model on top of the LUT, and models
        live as long as :func:`cached_laplacian` keeps them.  Cached per
        instance.
        """
        if self._rans_slot_tables is None:
            freqs, cums, slots = self.rans_table()
            freq = freqs.astype(np.int16)[slots]
            slot = np.arange(slots.size, dtype=np.int16)
            delta = slot - cums.astype(np.int16)[slots]
            self._rans_slot_tables = (freq, delta, slots)
        return self._rans_slot_tables

    @classmethod
    def from_pmf(cls, pmf: np.ndarray, precision_total: int = 1 << 14) -> "SymbolModel":
        """Quantize a probability mass function to integer frequencies."""
        pmf = np.asarray(pmf, dtype=np.float64)
        if np.any(pmf < 0) or pmf.sum() <= 0:
            raise ValueError("pmf must be non-negative with positive mass")
        freqs = np.maximum(1, np.round(pmf / pmf.sum() * precision_total)).astype(
            np.int64
        )
        return cls(freqs)


class ArithmeticEncoder:
    """Integer arithmetic encoder (Witten-Neal-Cleary construction)."""

    def __init__(self):
        self._low = 0
        self._high = _WHOLE - 1
        self._pending = 0
        self._bits: list[int] = []
        self._finished = False

    def _emit(self, bit: int) -> None:
        self._bits.append(bit)
        inverse = 1 - bit
        for _ in range(self._pending):
            self._bits.append(inverse)
        self._pending = 0

    def encode(self, symbol: int, model: SymbolModel) -> None:
        """Narrow the coding interval to ``symbol``'s sub-range,
        emitting renormalization bits as the range tightens."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        lo, hi = model.interval(symbol)
        span = self._high - self._low + 1
        self._high = self._low + span * hi // model.total - 1
        self._low = self._low + span * lo // model.total
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < 3 * _QUARTER:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def finish(self) -> bytes:
        """Flush and return the encoded payload.

        Bit packing is vectorized: ``np.packbits`` consumes the whole
        bit list at once (MSB-first, zero-padded to a byte boundary —
        byte-identical to packing the bits one at a time).
        """
        if not self._finished:
            self._pending += 1
            self._emit(0 if self._low < _QUARTER else 1)
            self._finished = True
        if not self._bits:
            return b""
        return np.packbits(np.asarray(self._bits, dtype=np.uint8)).tobytes()


class ArithmeticDecoder:
    """Mirror of :class:`ArithmeticEncoder` over a byte payload."""

    def __init__(self, data: bytes):
        # Vectorized unpacking (the inverse of np.packbits in finish);
        # a plain list makes the per-bit reads cheap Python indexing.
        self._bits = (
            np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()
            if data
            else []
        )
        self._pos = 0
        self._low = 0
        self._high = _WHOLE - 1
        self._value = 0
        for _ in range(_PRECISION):
            self._value = (self._value << 1) | self._next_bit()

    def _next_bit(self) -> int:
        if self._pos < len(self._bits):
            bit = self._bits[self._pos]
            self._pos += 1
            return bit
        return 0  # zero-padding past the payload is part of the scheme

    def decode(self, model: SymbolModel) -> int:
        """Next symbol under ``model`` — the exact inverse of
        :meth:`ArithmeticEncoder.encode` given the same model sequence."""
        span = self._high - self._low + 1
        scaled = ((self._value - self._low + 1) * model.total - 1) // span
        symbol = int(np.searchsorted(model.cum, scaled, side="right") - 1)
        lo, hi = model.interval(symbol)
        self._high = self._low + span * hi // model.total - 1
        self._low = self._low + span * lo // model.total
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < 3 * _QUARTER:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._value = (self._value << 1) | self._next_bit()
        return symbol


class LaplacianModel:
    """Discretized zero-mean Laplacian over integers [-support, support].

    ``p(q) = integral over [q - 0.5, q + 0.5]`` of the Laplace density
    with scale ``b``, with tails folded into the extreme symbols — the
    factorized prior used for quantized latents.  Values outside the
    support are clipped by the caller before encoding.
    """

    def __init__(self, scale: float, support: int):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if support < 1:
            raise ValueError("support must be >= 1")
        self.scale = float(scale)
        self.support = int(support)
        q = np.arange(-support, support + 1, dtype=np.float64)
        upper = self._cdf(q + 0.5)
        lower = self._cdf(q - 0.5)
        pmf = upper - lower
        pmf[0] += self._cdf(-support - 0.5)
        pmf[-1] += 1.0 - self._cdf(support + 0.5)
        self.pmf = pmf / pmf.sum()
        self.model = SymbolModel.from_pmf(self.pmf)

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        # Exponents clipped: exp(-746) underflows to 0.0 exactly, which
        # is the correct tail limit, so clipping loses nothing.
        z = np.clip(np.asarray(x, dtype=np.float64) / self.scale, -745.0, 745.0)
        return np.where(
            z < 0,
            0.5 * np.exp(np.minimum(z, 0.0)),
            1.0 - 0.5 * np.exp(np.minimum(-z, 0.0)),
        )

    def symbol_of(self, value: int) -> int:
        return int(np.clip(value, -self.support, self.support)) + self.support

    def value_of(self, symbol: int) -> int:
        return symbol - self.support

    @staticmethod
    def fit_scale(values: np.ndarray) -> float:
        """Laplacian MLE: scale = mean absolute value (floored)."""
        return max(float(np.mean(np.abs(values))), 1e-3)


@functools.lru_cache(maxsize=256)
def cached_laplacian(scale_bits: int, support: int) -> LaplacianModel:
    """Memoized :class:`LaplacianModel` keyed on its wire representation.

    ``scale_bits`` is the f16 bit pattern that travels as side
    information, so encoder and decoder hit the same cache entry and
    derive bit-identical tables.  The 1e-3 scale floor matches what
    both codecs applied when building models inline.
    """
    return LaplacianModel(max(f16_from_bits(scale_bits), 1e-3), support)


@functools.lru_cache(maxsize=64)
def cached_uniform_model(num_symbols: int) -> SymbolModel:
    """Memoized uniform model (used for motion-vector coding)."""
    return SymbolModel(np.ones(num_symbols, dtype=np.int64))


# -- backend protocol -------------------------------------------------------


@runtime_checkable
class EntropyBackend(Protocol):
    """What the codecs require of an entropy coder.

    A *segment* is a maximal run of symbols coded under one static
    :class:`SymbolModel`; a payload codes an ordered list of segments
    (the codecs write one payload per packet).  ``decode_segments`` is
    the exact inverse of ``encode_segments`` given the same (count,
    model) spec list —
    byte-exact round-trips are property-tested for every registered
    backend.  Payload layout is backend-specific; the bitstream header
    records which backend wrote a stream.
    """

    name: str

    def encode_segments(
        self, segments: Sequence[tuple[np.ndarray, SymbolModel]]
    ) -> bytes:
        ...

    def decode_segments(
        self, data: bytes, segments: Sequence[tuple[int, SymbolModel]]
    ) -> list[np.ndarray]:
        ...


class CacmBackend:
    """The CACM'87 arithmetic coder behind the backend seam.

    Symbols are still coded one at a time (this is the paper-exact
    reference; the fast path is ``"rans"``), but segments arrive with
    symbol mapping already vectorized by the caller and the bit I/O is
    array-packed, so it is usable on non-trivial payloads.
    """

    name = "cacm"

    def encode_segments(
        self, segments: Sequence[tuple[np.ndarray, SymbolModel]]
    ) -> bytes:
        encoder = ArithmeticEncoder()
        encode = encoder.encode
        for symbols, model in segments:
            for symbol in np.asarray(symbols, dtype=np.int64).ravel().tolist():
                encode(symbol, model)
        return encoder.finish()

    def decode_segments(
        self, data: bytes, segments: Sequence[tuple[int, SymbolModel]]
    ) -> list[np.ndarray]:
        decoder = ArithmeticDecoder(data)
        decode = decoder.decode
        out: list[np.ndarray] = []
        for count, model in segments:
            values = np.empty(int(count), dtype=np.int64)
            for index in range(int(count)):
                values[index] = decode(model)
            out.append(values)
        return out


# -- convenience single-model helpers ---------------------------------------


def encode_symbols(
    symbols: np.ndarray,
    model: SymbolModel,
    backend: EntropyBackend | str = "cacm",
) -> bytes:
    """Encode an integer symbol array under one static model."""
    if isinstance(backend, str):
        backend = get_entropy_backend(backend)
    return backend.encode_segments(
        [(np.asarray(symbols, dtype=np.int64).ravel(), model)]
    )


def decode_symbols(
    data: bytes,
    count: int,
    model: SymbolModel,
    backend: EntropyBackend | str = "cacm",
) -> np.ndarray:
    """Decode ``count`` symbols; exact inverse of :func:`encode_symbols`."""
    if isinstance(backend, str):
        backend = get_entropy_backend(backend)
    return backend.decode_segments(data, [(count, model)])[0]


def estimate_bits(symbols: np.ndarray, model: SymbolModel) -> float:
    """Ideal Shannon cost of a symbol stream under the model, in bits."""
    probs = model.probabilities()
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    return float(np.sum(-np.log2(probs[syms])))
