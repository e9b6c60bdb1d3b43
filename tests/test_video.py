"""Tests for synthetic video generation and YUV utilities."""

import numpy as np
import pytest

from repro.video import (
    DATASETS,
    SceneConfig,
    VideoGenerator,
    YUV420Reader,
    dataset_names,
    generate_sequence,
    iter_sequence,
    load_dataset,
    read_yuv420,
    rgb_to_ycbcr,
    subsample_420,
    upsample_420,
    write_yuv420,
    ycbcr_to_rgb,
)


class TestColorConversion:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        rgb = rng.uniform(0, 255, (3, 16, 24))
        back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.abs(back - rgb).max() < 1e-9

    def test_gray_has_neutral_chroma(self):
        gray = np.full((3, 8, 8), 128.0)
        ycc = rgb_to_ycbcr(gray)
        assert np.allclose(ycc[0], 128.0)
        assert np.allclose(ycc[1:], 128.0)

    def test_luma_weights(self):
        red = np.zeros((3, 2, 2))
        red[0] = 255.0
        assert rgb_to_ycbcr(red)[0, 0, 0] == pytest.approx(255 * 0.299)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            rgb_to_ycbcr(np.zeros((16, 16)))


class TestSubsampling:
    def test_420_shapes(self):
        ycc = np.zeros((3, 16, 24))
        y, cb, cr = subsample_420(ycc)
        assert y.shape == (16, 24)
        assert cb.shape == (8, 12)
        assert cr.shape == (8, 12)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            subsample_420(np.zeros((3, 15, 24)))

    def test_upsample_roundtrip_constant(self):
        ycc = np.full((3, 8, 8), 77.0)
        up = upsample_420(*subsample_420(ycc))
        assert np.allclose(up, 77.0)


class TestYUVFileIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        frames = [rng.uniform(0, 255, (3, 16, 16)) for _ in range(3)]
        path = str(tmp_path / "clip.yuv")
        nbytes = write_yuv420(path, frames)
        assert nbytes == 3 * (16 * 16 + 2 * 64)
        back = read_yuv420(path, 16, 16)
        assert len(back) == 3
        # Chroma subsampling + 8-bit rounding is lossy, but luma content
        # must survive with high fidelity.
        for orig, rec in zip(frames, back):
            y_orig = rgb_to_ycbcr(orig)[0]
            y_rec = rgb_to_ycbcr(rec)[0]
            assert np.abs(y_orig - y_rec).mean() < 2.0

    def test_bad_size_rejected(self, tmp_path):
        path = tmp_path / "bad.yuv"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            read_yuv420(str(path), 16, 16)

    def test_reader_is_lazy_sequence(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = [rng.uniform(0, 255, (3, 16, 16)) for _ in range(4)]
        path = str(tmp_path / "clip.yuv")
        write_yuv420(path, frames)
        reader = read_yuv420(path, 16, 16)
        assert isinstance(reader, YUV420Reader)
        assert len(reader) == 4
        # random access, negative indices, slices, iteration — all the
        # list affordances, decoded one frame per access.
        assert np.array_equal(reader[1], list(reader)[1])
        assert np.array_equal(reader[-1], reader[3])
        assert [f.shape for f in reader[1:3]] == [(3, 16, 16)] * 2
        with pytest.raises(IndexError):
            reader[4]
        # two sweeps give identical frames (no consumed-iterator state)
        first = [f.copy() for f in reader]
        for a, b in zip(first, reader):
            assert np.array_equal(a, b)

    def test_write_accepts_generator(self, tmp_path):
        cfg = SceneConfig(height=16, width=16, frames=3, seed=11)
        from_list = str(tmp_path / "list.yuv")
        from_gen = str(tmp_path / "gen.yuv")
        write_yuv420(from_list, generate_sequence(cfg))
        nbytes = write_yuv420(from_gen, iter_sequence(cfg))
        assert nbytes == 3 * (16 * 16 + 2 * 64)
        assert (
            open(from_list, "rb").read() == open(from_gen, "rb").read()
        )


class TestVideoGenerator:
    def test_deterministic(self):
        cfg = SceneConfig(frames=3, seed=5)
        a = VideoGenerator(cfg).render()
        b = VideoGenerator(cfg).render()
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_shapes_and_range(self):
        frames = generate_sequence(SceneConfig(height=64, width=96, frames=4))
        assert len(frames) == 4
        for frame in frames:
            assert frame.shape == (3, 64, 96)
            assert frame.min() >= 0.0
            assert frame.max() <= 255.0

    def test_temporal_coherence(self):
        # Adjacent frames must be much closer than distant frames —
        # the property motion estimation exploits.
        frames = generate_sequence(SceneConfig(frames=8, seed=3))
        adjacent = np.mean((frames[0] - frames[1]) ** 2)
        distant = np.mean((frames[0] - frames[7]) ** 2)
        assert adjacent < distant

    def test_motion_exists(self):
        frames = generate_sequence(SceneConfig(frames=2, seed=3, grain_sigma=0.0))
        assert np.mean((frames[0] - frames[1]) ** 2) > 0.1

    def test_different_seeds_differ(self):
        a = generate_sequence(SceneConfig(frames=1, seed=1))
        b = generate_sequence(SceneConfig(frames=1, seed=2))
        assert not np.array_equal(a[0], b[0])

    def test_iter_sequence_matches_generate_sequence(self):
        cfg = SceneConfig(height=32, width=48, frames=4, seed=9)
        lazy = iter_sequence(cfg)
        assert not isinstance(lazy, list)  # a true generator
        for eager, streamed in zip(generate_sequence(cfg), lazy, strict=True):
            assert np.array_equal(eager, streamed)

    def test_texture_contrast_scales_energy(self):
        low = VideoGenerator(
            SceneConfig(texture_contrast=0.2, num_objects=0, grain_sigma=0)
        ).render()[0]
        high = VideoGenerator(
            SceneConfig(texture_contrast=0.9, num_objects=0, grain_sigma=0)
        ).render()[0]
        assert high.std() > low.std()


    @pytest.mark.parametrize(
        "top,left",
        [(2.0, 2.0), (2.6, 3.9), (0.0, 0.0), (3.5, 38.5), (-0.5, 1.25)],
    )
    def test_bilinear_crop_matches_the_gathered_reference(self, top, left):
        """Whether its corners are read as slices (one run of rows and
        of columns inside the plane) or gathered (a negative start wraps,
        as NumPy indexing does), the crop equals the 2-D gather it
        replaces."""
        from repro.video.synthetic import _bilinear_crop

        world = np.random.default_rng(1).uniform(0, 255, (12, 48))
        h, w = 8, 9
        ys, xs = top + np.arange(h), left + np.arange(w)
        y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
        fy, fx = (ys - y0)[:, None], (xs - x0)[None, :]

        def corner(dy, dx):
            return world[np.ix_(y0 + dy, x0 + dx)]

        expected = (
            corner(0, 0) * (1 - fy) * (1 - fx)
            + corner(0, 1) * (1 - fy) * fx
            + corner(1, 0) * fy * (1 - fx)
            + corner(1, 1) * fy * fx
        )
        np.testing.assert_array_equal(_bilinear_crop(world, top, left, h, w), expected)

    def test_only_runs_inside_the_plane_become_slices(self):
        from repro.video.synthetic import _run_or_index

        assert _run_or_index(np.arange(3, 7), 8) == slice(3, 7)
        for index, size in (
            (np.array([3, 4, 6]), 8),  # broken run
            (np.arange(-1, 3), 8),  # negative start
            (np.arange(5, 8), 8),  # the last successor is outside
        ):
            assert _run_or_index(index, size) is index


class TestDatasets:
    def test_registry_names(self):
        assert dataset_names() == ["hevcb-sim", "mcljcv-sim", "uvg-sim"]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            load_dataset("kodak")

    def test_specs_render(self):
        spec = load_dataset("uvg-sim")
        sequences = spec.sequences()
        assert len(sequences) == spec.num_sequences
        assert sequences[0][0].shape == (3, 128, 192)

    def test_sequences_within_dataset_differ(self):
        spec = load_dataset("hevcb-sim")
        seqs = spec.sequences()
        assert not np.array_equal(seqs[0][0], seqs[1][0])

    def test_corpora_have_distinct_motion(self):
        # MCL-JCV stand-in is configured with faster motion than UVG.
        uvg = DATASETS["uvg-sim"].base_config
        mcl = DATASETS["mcljcv-sim"].base_config
        assert mcl.object_speed > uvg.object_speed
        assert sum(abs(v) for v in mcl.pan_velocity) > sum(
            abs(v) for v in uvg.pan_velocity
        )
