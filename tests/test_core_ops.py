"""Tests for full-feature-map fast conv/deconv execution (Eq. 9)."""

import numpy as np
import pytest

from repro.core import (
    PAPER_F23,
    PAPER_T3_64,
    SparseExecutor,
    fast_conv2d,
    fast_deconv2d,
    multiplications,
    prune_transform_weights,
    spec_for_layer,
)
from repro.nn import Conv2d, ConvTranspose2d
from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(51)


class TestFastConv2d:
    @pytest.mark.parametrize("h,w", [(8, 8), (13, 17), (7, 5), (2, 2)])
    def test_matches_direct(self, rng, h, w):
        x = rng.standard_normal((3, h, w))
        kernel = rng.standard_normal((5, 3, 3, 3))
        bias = rng.standard_normal(5)
        ours = fast_conv2d(x, kernel, bias, PAPER_F23, padding=1)
        ref = F.conv2d(x, kernel, bias, 1, 1)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() < 1e-10

    def test_padding_zero(self, rng):
        x = rng.standard_normal((2, 10, 10))
        kernel = rng.standard_normal((4, 2, 3, 3))
        ours = fast_conv2d(x, kernel, None, PAPER_F23, padding=0)
        ref = F.conv2d(x, kernel, None, 1, 0)
        assert np.abs(ours - ref).max() < 1e-10

    def test_pruned_rho0_equals_dense(self, rng):
        x = rng.standard_normal((3, 12, 12))
        kernel = rng.standard_normal((4, 3, 3, 3))
        pruned = prune_transform_weights(kernel, PAPER_F23, rho=0.0)
        sparse = fast_conv2d(
            x, kernel, None, PAPER_F23, 1, transform_weights=pruned.values
        )
        dense = fast_conv2d(x, kernel, None, PAPER_F23, 1)
        assert np.abs(sparse - dense).max() < 1e-12

    def test_pruned_rho50_is_approximation(self, rng):
        x = rng.standard_normal((3, 16, 16))
        kernel = rng.standard_normal((4, 3, 3, 3))
        pruned = prune_transform_weights(kernel, PAPER_F23, rho=0.5)
        sparse = fast_conv2d(
            x, kernel, None, PAPER_F23, 1, transform_weights=pruned.values
        )
        dense = fast_conv2d(x, kernel, None, PAPER_F23, 1)
        rel = np.linalg.norm(sparse - dense) / np.linalg.norm(dense)
        assert 0.0 < rel < 1.0  # perturbed but not destroyed

    def test_importance_pruning_beats_magnitude_pruning(self, rng):
        """The point of Eq. (6)-(8): at equal sparsity, Q-scaled pruning
        should distort layer outputs no more than naive magnitude
        pruning of E (averaged over random layers)."""
        q_err, mag_err = [], []
        for trial in range(8):
            trial_rng = np.random.default_rng(500 + trial)
            x = trial_rng.standard_normal((3, 16, 16))
            kernel = trial_rng.standard_normal((4, 3, 3, 3))
            dense = fast_conv2d(x, kernel, None, PAPER_F23, 1)
            pruned = prune_transform_weights(kernel, PAPER_F23, rho=0.5)
            out_q = fast_conv2d(
                x, kernel, None, PAPER_F23, 1, transform_weights=pruned.values
            )
            # Naive: top-8 |E| per patch, no importance scaling.
            e = PAPER_F23.transform_kernel_2d(kernel)
            flat = np.abs(e).reshape(4, 3, -1)
            mask = np.zeros_like(flat)
            top = np.argsort(flat, axis=-1)[..., -8:]
            np.put_along_axis(mask, top, 1.0, axis=-1)
            masked = e * mask.reshape(e.shape)
            out_m = fast_conv2d(
                x, kernel, None, PAPER_F23, 1, transform_weights=masked
            )
            q_err.append(np.linalg.norm(out_q - dense))
            mag_err.append(np.linalg.norm(out_m - dense))
        assert np.mean(q_err) <= np.mean(mag_err) * 1.05

    def test_wrong_spec_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            fast_conv2d(
                rng.standard_normal((2, 8, 8)),
                rng.standard_normal((2, 2, 4, 4)),
                spec=PAPER_T3_64,
            )

    def test_kernel_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            fast_conv2d(
                rng.standard_normal((2, 8, 8)),
                rng.standard_normal((2, 2, 5, 5)),
                spec=PAPER_F23,
            )


class TestFastDeconv2d:
    @pytest.mark.parametrize("h,w", [(8, 8), (9, 11), (4, 7), (2, 2)])
    def test_matches_direct(self, rng, h, w):
        x = rng.standard_normal((3, h, w))
        kernel = rng.standard_normal((5, 3, 4, 4))
        bias = rng.standard_normal(5)
        ours = fast_deconv2d(x, kernel, bias, PAPER_T3_64, padding=1)
        ref = F.conv_transpose2d(x, kernel, bias, 2, 1)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() < 1e-10

    def test_padding_zero(self, rng):
        x = rng.standard_normal((2, 6, 6))
        kernel = rng.standard_normal((3, 2, 4, 4))
        ours = fast_deconv2d(x, kernel, None, PAPER_T3_64, padding=0)
        ref = F.conv_transpose2d(x, kernel, None, 2, 0)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() < 1e-10

    def test_pruned_rho0_equals_dense(self, rng):
        x = rng.standard_normal((3, 8, 8))
        kernel = rng.standard_normal((4, 3, 4, 4))
        pruned = prune_transform_weights(kernel, PAPER_T3_64, rho=0.0)
        sparse = fast_deconv2d(
            x, kernel, None, PAPER_T3_64, 1, transform_weights=pruned.values
        )
        dense = fast_deconv2d(x, kernel, None, PAPER_T3_64, 1)
        assert np.abs(sparse - dense).max() < 1e-12

    def test_wrong_spec_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            fast_deconv2d(
                rng.standard_normal((2, 8, 8)),
                rng.standard_normal((2, 2, 3, 3)),
                spec=PAPER_F23,
            )


class TestSparseExecutorIntegration:
    def test_conv_layer_backend(self, rng):
        layer = Conv2d(3, 4, 3, rng=rng)
        x = rng.standard_normal((3, 10, 10))
        dense_out = layer(x)
        pruned = prune_transform_weights(layer.weight.data, PAPER_F23, rho=0.0)
        layer.compute_backend = SparseExecutor(pruned)
        assert np.abs(layer(x) - dense_out).max() < 1e-10

    def test_deconv_layer_backend(self, rng):
        layer = ConvTranspose2d(3, 4, 4, stride=2, rng=rng)
        x = rng.standard_normal((3, 6, 6))
        dense_out = layer(x)
        pruned = prune_transform_weights(layer.weight.data, PAPER_T3_64, rho=0.0)
        layer.compute_backend = SparseExecutor(pruned)
        assert np.abs(layer(x) - dense_out).max() < 1e-10

    def test_spec_for_layer(self):
        assert spec_for_layer(Conv2d(2, 2, 3, stride=1)) is PAPER_F23
        assert spec_for_layer(ConvTranspose2d(2, 2, 4, stride=2)) is PAPER_T3_64
        assert spec_for_layer(Conv2d(2, 2, 3, stride=2)) is None
        assert spec_for_layer(Conv2d(2, 2, 1)) is None
        assert spec_for_layer(ConvTranspose2d(2, 2, 4, stride=4)) is None
        assert spec_for_layer(object()) is None


class TestMultiplicationAccounting:
    def test_conv_counts(self):
        counts = multiplications(PAPER_F23, 4, 3, 8, 8, density=0.5)
        tiles = 16  # 8x8 output in 2x2 tiles
        assert counts["fast"] == tiles * 16 * 12
        assert counts["direct"] == tiles * 36 * 12
        assert counts["sparse"] == counts["fast"] / 2

    def test_reduction_factors(self):
        counts = multiplications(PAPER_T3_64, 2, 2, 12, 12, density=0.5)
        assert counts["direct"] / counts["fast"] == pytest.approx(2.25)
        assert counts["direct"] / counts["sparse"] == pytest.approx(4.5)


class TestLayerScale:
    """A 36-channel layer at 64x96 output: the paper's complexity claims
    (36 -> 16 per conv tile, 2x more from 50% sparsity) and every
    kernel's output geometry at that scale."""

    def test_reductions(self):
        conv = multiplications(PAPER_F23, 36, 36, 64, 96, density=0.5)
        deconv = multiplications(PAPER_T3_64, 36, 36, 64, 96, density=0.5)
        assert conv["direct"] / conv["fast"] == pytest.approx(2.25)
        assert deconv["direct"] / deconv["sparse"] == pytest.approx(4.5)

    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        x_conv = rng.standard_normal((36, 64, 96))
        w_conv = rng.standard_normal((36, 36, 3, 3))
        x_deconv = rng.standard_normal((36, 32, 48))
        w_deconv = rng.standard_normal((36, 36, 4, 4))
        pruned_conv = prune_transform_weights(w_conv, PAPER_F23, rho=0.5)
        pruned_deconv = prune_transform_weights(w_deconv, PAPER_T3_64, rho=0.5)
        outputs = [
            F.conv2d(x_conv, w_conv, None, 1, 1),
            fast_conv2d(x_conv, w_conv, None, PAPER_F23, 1),
            fast_conv2d(x_conv, w_conv, None, PAPER_F23, 1, pruned_conv.values),
            F.conv_transpose2d(x_deconv, w_deconv, None, 2, 1),
            fast_deconv2d(x_deconv, w_deconv, None, PAPER_T3_64, 1),
            fast_deconv2d(
                x_deconv, w_deconv, None, PAPER_T3_64, 1, pruned_deconv.values
            ),
        ]
        assert [out.shape for out in outputs] == [(36, 64, 96)] * 6
