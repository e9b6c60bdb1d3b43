"""Tests for the entropy-backend registry and the rANS fast path."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    CTVCConfig,
    ClassicalCodec,
    ClassicalCodecConfig,
    CTVCNet,
    EntropyBackendError,
    LaplacianModel,
    RansBackend,
    SequenceBitstream,
    StreamCorruptionError,
    StreamReader,
    StreamWriter,
    SymbolModel,
    available_entropy_backends,
    cached_laplacian,
    cached_uniform_model,
    estimate_bits,
    get_entropy_backend,
    register_entropy_backend,
    unregister_entropy_backend,
)
from repro.serialization import ConfigError
from repro.video import SceneConfig, generate_sequence


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_model(rng, max_symbols=64):
    n = int(rng.integers(2, max_symbols))
    return SymbolModel(rng.integers(1, 200, n))


class TestRegistry:
    def test_builtins_available(self):
        names = available_entropy_backends()
        assert "cacm" in names and "rans" in names

    def test_unknown_backend(self):
        with pytest.raises(EntropyBackendError, match="unknown entropy backend"):
            get_entropy_backend("huffman")

    def test_register_conflict_and_teardown(self):
        backend = RansBackend(lanes=4)
        register_entropy_backend("rans4", backend)
        try:
            with pytest.raises(EntropyBackendError, match="already registered"):
                register_entropy_backend("rans4", backend)
            assert get_entropy_backend("rans4") is backend
        finally:
            unregister_entropy_backend("rans4")
        with pytest.raises(EntropyBackendError):
            get_entropy_backend("rans4")

    def test_builtins_self_heal_after_unregister(self):
        """Tearing down a built-in must not brick it for the process."""
        unregister_entropy_backend("rans")
        assert get_entropy_backend("rans").name == "rans"
        unregister_entropy_backend("cacm")
        assert get_entropy_backend("cacm").name == "cacm"

    def test_config_validates_backend_name(self):
        with pytest.raises(EntropyBackendError):
            CTVCConfig(entropy_backend="nope")
        with pytest.raises(ConfigError):
            ClassicalCodecConfig.from_dict({"entropy_backend": "nope"})

    def test_config_roundtrips_backend(self):
        cfg = CTVCConfig(channels=8, entropy_backend="cacm")
        assert CTVCConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.to_dict()["entropy_backend"] == "cacm"


class TestModelCaches:
    def test_cached_laplacian_hits(self):
        a = cached_laplacian(0x4000, 32)
        b = cached_laplacian(0x4000, 32)
        assert a is b
        assert cached_laplacian(0x4000, 33) is not a

    def test_cached_laplacian_matches_inline_construction(self):
        from repro.codec import f16_from_bits

        bits, support = 0x3C00, 16  # f16 1.0
        cached = cached_laplacian(bits, support)
        inline = LaplacianModel(max(f16_from_bits(bits), 1e-3), support)
        assert np.array_equal(cached.model.freqs, inline.model.freqs)

    def test_cached_uniform(self):
        model = cached_uniform_model(17)
        assert model is cached_uniform_model(17)
        assert model.num_symbols == 17
        assert np.all(model.freqs == 1)


class TestRansTable:
    def test_total_is_power_of_two(self, rng):
        from repro.codec.entropy import RANS_PRECISION

        for _ in range(20):
            model = random_model(rng, max_symbols=500)
            freqs, cums, slots = model.rans_table()
            assert int(freqs.sum()) == 1 << RANS_PRECISION
            assert np.all(freqs >= 1)
            assert slots.size == 1 << RANS_PRECISION
            # slots inverts cums: slot s in [cums[k], cums[k]+freqs[k]) -> k
            assert np.array_equal(np.diff(np.concatenate([cums, [1 << RANS_PRECISION]])), freqs)

    def test_table_cached_per_instance(self, rng):
        model = random_model(rng)
        assert model.rans_table() is model.rans_table()

    def test_single_symbol_alphabet(self):
        model = SymbolModel(np.array([7]))
        rans = get_entropy_backend("rans")
        syms = np.zeros(500, dtype=np.int64)
        blob = rans.encode_segments([(syms, model)])
        out = rans.decode_segments(blob, [(500, model)])[0]
        assert np.array_equal(out, syms)

    def test_oversized_alphabet_raises_instead_of_hanging(self):
        from repro.codec.entropy import RANS_PRECISION

        model = SymbolModel(np.ones((1 << RANS_PRECISION) + 1, dtype=np.int64))
        with pytest.raises(ValueError, match="rANS precision"):
            model.rans_table()


class TestRansRoundTrip:
    @pytest.mark.parametrize("size", [0, 1, 5, 63, 64, 65, 257, 4096])
    def test_sizes(self, rng, size):
        rans = get_entropy_backend("rans")
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=size, p=model.probabilities())
        blob = rans.encode_segments([(syms, model)])
        out = rans.decode_segments(blob, [(size, model)])[0]
        assert np.array_equal(out, syms)

    def test_property_random_multisegment(self, rng):
        """Random pmfs + random symbol streams, many trials: byte-exact
        round-trips through the rANS backend, including empty and
        single-symbol segments mixed with large ones."""
        rans = get_entropy_backend("rans")
        for _ in range(40):
            segments = []
            for _ in range(int(rng.integers(1, 9))):
                pmf = rng.random(int(rng.integers(2, 80))) ** 3
                model = SymbolModel.from_pmf(pmf)
                count = int(rng.choice([0, 1, 2, 7, 100, 700]))
                syms = rng.choice(
                    model.num_symbols, size=count, p=model.probabilities()
                )
                segments.append((syms, model))
            blob = rans.encode_segments(segments)
            decoded = rans.decode_segments(
                blob, [(len(s), m) for s, m in segments]
            )
            for (syms, _), out in zip(segments, decoded):
                assert np.array_equal(out, syms)

    def test_deterministic_payloads(self, rng):
        rans = get_entropy_backend("rans")
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=1000, p=model.probabilities())
        assert rans.encode_segments([(syms, model)]) == rans.encode_segments(
            [(syms, model)]
        )

    def test_zero_lane_payload_rejected(self, rng):
        """A lane-count byte of 0 is a typed payload error, not a
        ZeroDivisionError."""
        rans = get_entropy_backend("rans")
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=500, p=model.probabilities())
        blob = rans.encode_segments([(syms, model)])
        for crafted in (b"\x00" + blob[1:], b"\x00" * 5):
            with pytest.raises(StreamCorruptionError, match="zero lanes"):
                rans.decode_segments(crafted, [(500, model)])

    def test_payload_short_of_stream_words_rejected(self, rng):
        """A word count too small for the symbols asked for runs the
        refills dry: a typed error, not a NumPy shape mismatch."""
        rans = get_entropy_backend("rans")
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=500, p=model.probabilities())
        blob = rans.encode_segments([(syms, model)])
        header = 5 + 6 * blob[0]
        crafted = blob[:1] + (0).to_bytes(4, "little") + blob[5:header]
        with pytest.raises(StreamCorruptionError, match="stream words"):
            rans.decode_segments(crafted, [(500, model)])

    def test_truncated_payload_rejected(self, rng):
        rans = get_entropy_backend("rans")
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=500, p=model.probabilities())
        blob = rans.encode_segments([(syms, model)])
        with pytest.raises(ValueError, match="truncated"):
            rans.decode_segments(blob[: len(blob) // 2], [(500, model)])

    def test_custom_lane_counts(self, rng):
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=3000, p=model.probabilities())
        for lanes in (1, 2, 7, 32, 64):
            backend = RansBackend(lanes=lanes)
            blob = backend.encode_segments([(syms, model)])
            # any RansBackend decodes any lane count (it's in the header)
            out = get_entropy_backend("rans").decode_segments(blob, [(3000, model)])
            assert np.array_equal(out[0], syms)


class TestCrossBackendRates:
    def test_rates_near_shannon(self, rng):
        """Both backends land within 1% of the ideal Shannon cost on a
        long Laplacian stream (the satellite acceptance criterion)."""
        model = LaplacianModel(scale=3.0, support=64)
        values = np.clip(np.round(rng.laplace(0, 3.0, 60000)), -64, 64)
        syms = values.astype(np.int64) + 64
        ideal = estimate_bits(syms, model.model)
        for name in ("cacm", "rans"):
            backend = get_entropy_backend(name)
            blob = backend.encode_segments([(syms, model.model)])
            out = backend.decode_segments(blob, [(len(syms), model.model)])[0]
            assert np.array_equal(out, syms)
            actual = 8 * len(blob)
            assert actual >= ideal - 8  # cannot beat entropy
            assert actual <= ideal * 1.01, (name, actual, ideal)

    def test_backends_agree_on_symbols(self, rng):
        """cacm and rans decode each other's source symbols identically
        (payloads differ; decoded streams must not)."""
        cacm = get_entropy_backend("cacm")
        rans = get_entropy_backend("rans")
        model = random_model(rng)
        syms = rng.choice(model.num_symbols, size=2000, p=model.probabilities())
        for backend in (cacm, rans):
            blob = backend.encode_segments([(syms, model)])
            out = backend.decode_segments(blob, [(2000, model)])[0]
            assert np.array_equal(out, syms)


class TestCodecsAcrossBackends:
    @pytest.fixture(scope="class")
    def frames(self):
        return generate_sequence(SceneConfig(height=32, width=48, frames=3, seed=9))

    def test_classical_identical_reconstruction(self, frames):
        streams = {}
        recons = {}
        for backend in ("cacm", "rans"):
            codec = ClassicalCodec(
                ClassicalCodecConfig(qp=10.0, entropy_backend=backend)
            )
            blob = codec.encode_sequence(frames).serialize()
            streams[backend] = blob
            recons[backend] = codec.decode_sequence(SequenceBitstream.parse(blob))
            assert len(recons[backend]) == len(frames)
        # entropy coding is lossless: reconstructions are bit-identical
        for a, b in zip(recons["cacm"], recons["rans"]):
            assert np.array_equal(a, b)
        # the rans payloads genuinely differ from cacm's
        assert streams["cacm"] != streams["rans"]

    def test_ctvc_identical_reconstruction(self, frames):
        recons = {}
        for backend in ("cacm", "rans"):
            net = CTVCNet(
                CTVCConfig(channels=8, qstep=8.0, seed=3, entropy_backend=backend)
            )
            blob = net.encode_sequence(frames).serialize()
            stream = SequenceBitstream.parse(blob)
            assert stream.header["entropy"] == backend
            assert stream.version == 4
            assert len(stream.packets) == len(frames)
            recons[backend] = net.decode_sequence(stream)
            assert len(recons[backend]) == len(frames)
        for a, b in zip(recons["cacm"], recons["rans"]):
            assert np.array_equal(a, b)

    def test_decoder_follows_stream_header(self, frames):
        """A cacm-configured codec decodes a rans stream (and vice
        versa): the bitstream header, not the local config, picks the
        backend."""
        writer = ClassicalCodec(
            ClassicalCodecConfig(qp=10.0, entropy_backend="rans")
        )
        blob = writer.encode_sequence(frames).serialize()
        reader = ClassicalCodec(
            ClassicalCodecConfig(qp=10.0, entropy_backend="cacm")
        )
        decoded = reader.decode_sequence(SequenceBitstream.parse(blob))
        expected = writer.decode_sequence(SequenceBitstream.parse(blob))
        for a, b in zip(decoded, expected):
            assert np.array_equal(a, b)


# -- exactness against reference row loops -----------------------------------
#
# Frozen reference copies of the encode and decode row loops in their
# plain form: uint64 states, tables stacked per call and indexed through
# per-position offsets, sliced last rows.  The backend must reproduce
# their payload bytes and decoded arrays exactly.

_REF_MASK = np.uint64((1 << 14) - 1)
_REF_PREC = np.uint64(14)
_REF_L = np.uint64(1 << 30)
_REF_SHIFT16 = np.uint64(16)
_REF_SHIFT32 = np.uint64(32)
_REF_WORD_MASK = np.uint64(0xFFFF)


def _reference_encode(segments, max_lanes=64):
    freqs_parts, cums_parts = [], []
    for symbols, model in segments:
        syms = np.asarray(symbols, dtype=np.int64).ravel()
        if syms.size == 0:
            continue
        tab_freqs, tab_cums, _ = model.rans_table()
        freqs_parts.append(tab_freqs[syms])
        cums_parts.append(tab_cums[syms])
    if not freqs_parts:
        return b""
    freqs = np.concatenate(freqs_parts)
    cums = np.concatenate(cums_parts)
    count = int(freqs.size)
    lanes = max(1, min(max_lanes, max(min(count // 128, 32), count // 2048)))
    rows = -(-count // lanes)
    pad = rows * lanes - count
    if pad:
        freqs = np.concatenate([freqs, np.zeros(pad, dtype=np.uint64)])
        cums = np.concatenate([cums, np.zeros(pad, dtype=np.uint64)])
    freqs = freqs.reshape(rows, lanes)
    cums = cums.reshape(rows, lanes)
    rem = count - (rows - 1) * lanes
    states = np.full(lanes, _REF_L, dtype=np.uint64)
    emitted = []
    for row in range(rows - 1, -1, -1):
        active = rem if row == rows - 1 else lanes
        lane_states = states[:active]
        f = freqs[row, :active]
        c = cums[row, :active]
        overflow = lane_states >= (f << _REF_SHIFT32)
        if overflow.any():
            emitted.append(
                (lane_states[overflow] & _REF_WORD_MASK).astype(np.uint16)[::-1]
            )
            lane_states[overflow] >>= _REF_SHIFT16
        div, mod = np.divmod(lane_states, f)
        states[:active] = (div << _REF_PREC) + c + mod
    if emitted:
        words = np.concatenate(emitted)[::-1]
    else:
        words = np.empty(0, dtype=np.uint16)
    header = bytes([lanes]) + int(words.size).to_bytes(4, "little")
    packed = states.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :6].tobytes()
    return header + packed + words.astype("<u2").tobytes()


def _reference_decode(data, segments):
    counts = [int(count) for count, _ in segments]
    total = sum(counts)
    if total == 0:
        return [np.empty(0, dtype=np.int64) for _ in segments]
    lanes = data[0]
    nwords = int.from_bytes(data[1:5], "little")
    offset = 5 + 6 * lanes
    full = np.zeros((lanes, 8), dtype=np.uint8)
    full[:, :6] = np.frombuffer(data[5:offset], dtype=np.uint8).reshape(lanes, 6)
    states = full.view("<u8").ravel().astype(np.uint64)
    words = np.frombuffer(data, dtype="<u2", count=nwords, offset=offset).astype(
        np.uint64
    )
    seg_models = [model for count, model in segments if count > 0]
    seg_counts = [count for count in counts if count > 0]
    tables = [model.rans_table() for model in seg_models]
    slot_luts = np.concatenate([tab[2].astype(np.int64) for tab in tables])
    lut_offsets = np.concatenate([[0], np.cumsum([tab[2].size for tab in tables])])[:-1]
    freq_flat = np.concatenate([tab[0] for tab in tables])
    cum_flat = np.concatenate([tab[1] for tab in tables])
    sym_offsets = np.concatenate([[0], np.cumsum([tab[0].size for tab in tables])])[:-1]
    seg_ids = np.repeat(np.arange(len(seg_counts)), seg_counts)
    pos_lut_off = lut_offsets[seg_ids].astype(np.int64)
    pos_sym_off = sym_offsets[seg_ids].astype(np.int64)
    rows = -(-total // lanes)
    pad = rows * lanes - total
    if pad:
        pos_lut_off = np.concatenate([pos_lut_off, np.zeros(pad, np.int64)])
        pos_sym_off = np.concatenate([pos_sym_off, np.zeros(pad, np.int64)])
    pos_lut_off = pos_lut_off.reshape(rows, lanes)
    pos_sym_off = pos_sym_off.reshape(rows, lanes)
    rem = total - (rows - 1) * lanes
    out = np.empty(rows * lanes, dtype=np.int64).reshape(rows, lanes)
    wpos = 0
    for row in range(rows):
        active = rem if row == rows - 1 else lanes
        lane_states = states[:active]
        slots = lane_states & _REF_MASK
        syms = slot_luts[pos_lut_off[row, :active] + slots.astype(np.int64)]
        base = pos_sym_off[row, :active] + syms
        f = freq_flat[base]
        c = cum_flat[base]
        lane_states = f * (lane_states >> _REF_PREC) + slots - c
        refill = lane_states < _REF_L
        if refill.any():
            need = int(refill.sum())
            lane_states[refill] = (lane_states[refill] << _REF_SHIFT16) | words[
                wpos : wpos + need
            ]
            wpos += need
        states[:active] = lane_states
        out[row, :active] = syms
    flat = out.ravel()[:total]
    result, start = [], 0
    for count in counts:
        result.append(flat[start : start + count].copy())
        start += count
    return result


@st.composite
def _segment_lists(draw):
    """Segment lists mixing models (1 to 4097 symbols: a single-symbol
    alphabet up to support 2048), counts from empty through several
    rows, and lane caps from 1 (plain rANS) to 64."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["single", "random", "laplacian"]))
        if kind == "single":
            model = SymbolModel(np.array([int(rng.integers(1, 100))]))
        elif kind == "random":
            model = SymbolModel.from_pmf(rng.random(int(rng.integers(2, 300))) ** 3)
        else:
            support = draw(st.sampled_from([16, 255, 2048]))
            model = LaplacianModel(float(rng.uniform(0.05, 40.0)), support).model
        count = draw(
            st.one_of(st.sampled_from([0, 1, 2, 31, 32, 33, 64]), st.integers(0, 2500))
        )
        syms = rng.choice(model.num_symbols, size=count, p=model.probabilities())
        segments.append((syms.astype(np.int64), model))
    return segments, draw(st.sampled_from([1, 2, 7, 32, 64]))


class TestRansMatchesReferenceLoops:
    @settings(max_examples=60, deadline=None)
    @given(case=_segment_lists())
    def test_payloads_and_arrays_match(self, case):
        segments, max_lanes = case
        backend = RansBackend(lanes=max_lanes)
        blob = backend.encode_segments(segments)
        assert blob == _reference_encode(segments, max_lanes)
        specs = [(len(syms), model) for syms, model in segments]
        decoded = backend.decode_segments(blob, specs)
        reference = _reference_decode(blob, specs)
        assert len(decoded) == len(reference) == len(segments)
        for got, want, (syms, _) in zip(decoded, reference, segments):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(got, syms)

    @pytest.mark.parametrize(
        "count",
        [1, 255, 256, 257, 4095, 4096, 67583, 67584, 131071, 131072, 140000],
    )
    def test_lane_rule_boundaries(self, rng, count):
        """Counts on each side of the lane rule's steps: 1 lane below 256
        symbols, 32 lanes from 4096, the 33rd lane at 67584 (33 * 2048),
        full 64 lanes from 131072, partial last rows between."""
        model = LaplacianModel(2.5, 64).model
        syms = rng.choice(model.num_symbols, size=count, p=model.probabilities())
        blob = get_entropy_backend("rans").encode_segments([(syms, model)])
        assert blob == _reference_encode([(syms, model)])
        assert blob[0] == max(1, min(64, max(min(count // 128, 32), count // 2048)))
        out = get_entropy_backend("rans").decode_segments(blob, [(count, model)])
        assert np.array_equal(out[0], _reference_decode(blob, [(count, model)])[0])

    def test_packet_sized_multi_segment_payload_matches_reference(self, rng):
        """A payload the size of a 640x360 packet runs 64 lanes with a
        dozen segments, some shorter than a row and starting mid-row:
        the shape the property test's small payloads never reach."""
        models = [
            LaplacianModel(float(scale), support).model
            for scale, support in ((40.0, 2048), (2.0, 255), (0.3, 16))
        ]
        counts = [2160, 33, 10800, 1, 30240, 92880, 64, 7, 540, 2700, 7560, 23220]
        segments = []
        for index, count in enumerate(counts):
            model = models[index % len(models)]
            syms = rng.choice(model.num_symbols, size=count, p=model.probabilities())
            segments.append((syms.astype(np.int64), model))
        blob = get_entropy_backend("rans").encode_segments(segments)
        assert blob[0] == 64
        assert blob == _reference_encode(segments)
        specs = [(count, model) for (_, model), count in zip(segments, counts)]
        decoded = get_entropy_backend("rans").decode_segments(blob, specs)
        for got, want, (syms, _) in zip(
            decoded, _reference_decode(blob, specs), segments
        ):
            assert np.array_equal(got, want)
            assert np.array_equal(got, syms)

    def test_hostile_states_decode_like_reference(self, rng):
        """Arbitrary 6-byte states (up to 2**48) and words decode to the
        reference loop's symbols: int64 states cannot overflow."""
        models = [LaplacianModel(3.0, 255).model, SymbolModel(np.array([5]))]
        specs = [(700, models[0]), (50, models[1]), (300, models[0])]
        for _ in range(20):
            lanes = int(rng.integers(1, 40))
            nwords = 4000
            blob = (
                bytes([lanes])
                + nwords.to_bytes(4, "little")
                + rng.integers(0, 256, 6 * lanes + 2 * nwords, dtype=np.uint8).tobytes()
            )
            got = get_entropy_backend("rans").decode_segments(blob, specs)
            for a, b in zip(got, _reference_decode(blob, specs)):
                assert np.array_equal(a, b)


def _stream_round_trip(codec, frames):
    """Encode through the v4 streaming container and decode it back;
    returns (stream bytes, decoded frames)."""
    session = codec.open_encoder()
    sink = io.BytesIO()
    writer = None
    for frame in frames:
        packets = session.push(frame)
        if writer is None:
            writer = StreamWriter(sink, session.header)
        for packet in packets:
            writer.write_packet(packet)
    writer.finalize()
    data = sink.getvalue()
    reader = StreamReader(io.BytesIO(data))
    decoder = codec.open_decoder(reader.header, version=reader.version)
    return data, list(decoder.decode_iter(reader))


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "kind,stream_digest,frames_digest",
    [
        ("classical", "2bb852d79c365ffd", "b2f5a1a1b5394d31"),
        ("ctvc", "dacb1d0365697471", "14eaf482f6495e22"),
    ],
)
def test_benchmark_scene_digests_are_pinned(kind, stream_digest, frames_digest):
    """The streams and decoded frames of the benchmark scenes (classical
    at 640x360, six frames; CTVC-Net N=12 at 352x288, three frames;
    scene seed 1) match pinned digests.  The frame digests were recorded
    before the rANS row loops were rewritten and survived the moves to
    one entropy payload per packet and to band-count packets; the
    stream digests are those of the band-count layout.  Frame digests hash float64 output, so they pin this
    NumPy/OpenBLAS build; the stream digests do not depend on it.
    CTVC-Net runs the float64 ``reference`` substrate these digests
    were recorded with."""
    if kind == "classical":
        height, width, count = 360, 640, 6
        codec = ClassicalCodec(
            ClassicalCodecConfig(qp=8.0, gop=count, entropy_backend="rans")
        )
    else:
        height, width, count = 288, 352, 3
        codec = CTVCNet(CTVCConfig(
            channels=12, gop=count, entropy_backend="rans", substrate="reference"
        ))
    frames = generate_sequence(
        SceneConfig(height=height, width=width, frames=count, seed=1)
    )
    data, decoded = _stream_round_trip(codec, frames)
    assert _digest([data]) == stream_digest
    assert _digest(frame.tobytes() for frame in decoded) == frames_digest
