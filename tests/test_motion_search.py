"""Exactness of the block-row motion search and its config guards.

``block_match`` must return the motion vectors of the original
whole-plane scan (``legacy_block_match``) for every input, and
``block_sums`` must reproduce NumPy's per-block reduction bit for bit.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from legacy_block_match import legacy_block_match

from repro.codec import ClassicalCodec, ClassicalCodecConfig, CTVCConfig, block_match
from repro.codec.modules import block_sums
from repro.video import SceneConfig, generate_sequence

_SETTINGS = dict(max_examples=60, deadline=None)
_BLOCK_SIZES = st.sampled_from([*range(1, 17), 32])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestBlockSums:
    @settings(**_SETTINGS)
    @given(
        bs=_BLOCK_SIZES,
        nby=st.integers(1, 3),
        nbx=st.integers(1, 4),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**31),
    )
    @example(bs=8, nby=1, nbx=1, dtype=np.float64, seed=0)
    @example(bs=32, nby=2, nbx=1, dtype=np.float64, seed=1)
    @example(bs=16, nby=1, nbx=3, dtype=np.float64, seed=2)
    def test_bit_equal_to_numpy_reduction(self, bs, nby, nbx, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (nby * bs, nbx * bs)
        # magnitudes over nine decades make every rounding step count
        values = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 6, shape))
        values = values.astype(dtype)
        expected = values.reshape(nby, bs, nbx, bs).sum(axis=(1, 3))
        got = block_sums(values, bs)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_leading_axes_sum_each_plane(self):
        values = np.abs(np.random.default_rng(3).standard_normal((5, 16, 24)))
        got = block_sums(values, 8)
        for plane, sums in zip(values, got):
            expected = plane.reshape(2, 8, 3, 8).sum(axis=(1, 3))
            assert sums.tobytes() == expected.tobytes()

    def test_integer_planes_use_numpy_reduction(self):
        values = np.arange(64, dtype=np.uint8).reshape(8, 8)
        got = block_sums(values, 4)
        expected = values.reshape(2, 4, 2, 4).sum(axis=(1, 3))
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def _planes(kind: str, h: int, w: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(current, reference) pairs that stress the tie-break."""
    if kind == "flat":  # every candidate ties on SAD: the bias decides
        ref = np.full((h, w), 117.0)
        return ref.copy(), ref
    if kind == "integer":  # integer-valued: exact ties between candidates
        ref = rng.integers(0, 4, (h, w)).astype(np.float64)
        return np.roll(ref, (1, -2), axis=(0, 1)), ref
    if kind == "periodic":  # period 2 both ways: (+-1, +-1) tie exactly
        y, x = np.mgrid[:h, :w]
        ref = (x % 2 + 2 * (y % 2)).astype(np.float64)
        return np.roll(ref, (1, 1), axis=(0, 1)), ref
    if kind == "near_tie":  # SADs differ only in the last bits
        cur = rng.uniform(0, 255, (h, w))
        return cur, cur + 1e-9 * rng.standard_normal((h, w))
    ref = rng.uniform(0, 255, (h, w))  # "shifted": a real motion field
    cur = np.roll(ref, (2, -3), axis=(0, 1)) + rng.normal(0, 2, (h, w))
    return cur, ref


class TestBlockMatchExact:
    @settings(**_SETTINGS)
    @given(
        kind=st.sampled_from(["flat", "integer", "periodic", "near_tie", "shifted"]),
        bs=st.integers(1, 9),
        search_range=st.integers(0, 5),
        extra_h=st.integers(0, 40),
        extra_w=st.integers(0, 40),
        seed=st.integers(0, 2**31),
    )
    @example(kind="integer", bs=8, search_range=4, extra_h=0, extra_w=0, seed=0)
    @example(kind="flat", bs=8, search_range=8, extra_h=7, extra_w=0, seed=0)
    @example(kind="periodic", bs=4, search_range=2, extra_h=12, extra_w=20, seed=0)
    def test_matches_frozen_scan(self, kind, bs, search_range, extra_h, extra_w, seed):
        h, w = bs + extra_h, bs + extra_w  # rarely a multiple of the block
        cur, ref = _planes(kind, h, w, np.random.default_rng(seed))
        expected = legacy_block_match(cur, ref, bs, search_range)
        np.testing.assert_array_equal(block_match(cur, ref, bs, search_range), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int32])
    def test_matches_frozen_scan_other_dtypes(self, dtype):
        rng = np.random.default_rng(5)
        ref = rng.integers(0, 200, (40, 56)).astype(dtype)
        cur = np.roll(ref, (1, 2), axis=(0, 1))
        np.testing.assert_array_equal(
            block_match(cur, ref, 8, 3), legacy_block_match(cur, ref, 8, 3)
        )

    def test_float32_costs_round_as_before(self):
        # SAD 2**23 for every candidate: in float32 the biases of
        # (-2, -2) .. (0, 0) round away, and the old scan kept (-2, -2)
        cur = np.zeros((16, 16), np.float32)
        ref = np.full((16, 16), 2.0**17, np.float32)
        mv = block_match(cur, ref, 8, 2)
        np.testing.assert_array_equal(mv, legacy_block_match(cur, ref, 8, 2))
        assert (mv == -2).all()

    def test_overflowing_costs_keep_zero_motion(self):
        cur = np.full((16, 16), 1e308)
        ref = -cur  # every |cur - ref| overflows to inf
        with np.errstate(over="ignore"):
            mv = block_match(cur, ref, 8, 2)
            np.testing.assert_array_equal(mv, legacy_block_match(cur, ref, 8, 2))
        assert not mv.any()

    def test_classical_stream_geometry(self):
        """640x360 luma with the classical defaults (8x8 blocks, r=8)."""
        frames = generate_sequence(SceneConfig(height=360, width=640, frames=2, seed=1))
        codec = ClassicalCodec(ClassicalCodecConfig())
        cur, ref = codec._planes(frames[1])[0], codec._planes(frames[0])[0]
        mv = block_match(cur, ref, 8, 8)
        np.testing.assert_array_equal(mv, legacy_block_match(cur, ref, 8, 8))
        assert _sha(mv.tobytes()) == "2efc7e7720def279"

    def test_ctvc_cif_geometry_ends_in_a_short_band(self):
        """CTVC's half-res CIF luma (144x176, r=4) searches bands of
        several block rows, the last one shorter."""
        cur, ref = _planes("shifted", 144, 176, np.random.default_rng(9))
        np.testing.assert_array_equal(
            block_match(cur, ref, 8, 4), legacy_block_match(cur, ref, 8, 4)
        )

    @pytest.mark.parametrize(
        "where", ["current_nan", "current_inf", "reference_nan", "reference_inf"]
    )
    def test_non_finite_planes_raise(self, where):
        planes = {"current": np.zeros((16, 16)), "reference": np.zeros((16, 16))}
        name, bad = where.split("_")
        planes[name][3, 5] = np.nan if bad == "nan" else -np.inf
        with pytest.raises(ValueError, match="finite"):
            block_match(planes["current"], planes["reference"], 8, 2)

    def test_reference_must_cover_current(self):
        with pytest.raises(ValueError, match="cover"):
            block_match(np.zeros((16, 24)), np.zeros((16, 16)), 8, 2)

    def test_working_memory_independent_of_height(self):
        def extra_bytes(height):
            plane = np.random.default_rng(0).uniform(0, 255, (height, 64))
            tracemalloc.start()
            block_match(plane, plane, 8, 8)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            padded = (height + 16) * (64 + 16) * 8  # the edge-padded reference
            return peak - padded

        assert extra_bytes(1024) <= extra_bytes(128) + 64 * 1024


class TestPinnedStreams:
    """Stream digests from the whole-plane scan; motion search changes
    must leave them byte-identical."""

    def test_classical_640x360_two_frames(self):
        frames = generate_sequence(SceneConfig(height=360, width=640, frames=2, seed=1))
        config = ClassicalCodecConfig(qp=8.0, gop=2, entropy_backend="rans")
        codec = ClassicalCodec(config)
        assert _sha(codec.encode_sequence(frames).serialize()) == "57a191f1c02fbc5e"

    @pytest.mark.parametrize(
        "half_pel, digest",
        [(False, "22cc898c18ccc708"), (True, "4a5f22d2019df61b")],
    )
    def test_half_pel_small_scene(self, half_pel, digest):
        frames = generate_sequence(SceneConfig(height=48, width=64, frames=3, seed=2))
        codec = ClassicalCodec(ClassicalCodecConfig(qp=8.0, half_pel=half_pel))
        assert _sha(codec.encode_sequence(frames).serialize()) == digest


class TestMotionConfigGuards:
    @pytest.mark.parametrize("config", [ClassicalCodecConfig, CTVCConfig])
    @pytest.mark.parametrize(
        "fields",
        [
            {"search_range": -2},
            {"search_range": 2.5},
            {"search_range": "3"},
            {"block_size": 0},
            {"block_size": -8},
            {"block_size": 4.0},
            {"block_size": True},
        ],
    )
    def test_bad_motion_fields_fail_fast(self, config, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            config(**fields)

    def test_classical_needs_two_pixel_blocks(self):
        # chroma searches with half the luma block size
        with pytest.raises(ValueError, match="block_size"):
            ClassicalCodecConfig(block_size=1)
        assert CTVCConfig(block_size=1, search_range=0).block_size == 1

    def test_numpy_integers_accepted(self):
        config = ClassicalCodecConfig(block_size=np.int64(4), search_range=np.int32(2))
        assert (config.block_size, config.search_range) == (4, 2)
