"""A from-scratch NumPy deep-learning substrate (inference-grade).

Replaces PyTorch for this offline reproduction: convolutions,
deconvolutions, deformable convolutions, shifted-window attention,
residual blocks, pooling, and fixed-point quantization — everything
CTVC-Net (Fig. 2 of the paper) is assembled from.
"""

from . import functional
from .attention import SwinAttention, window_merge, window_partition
from .deform import DeformConv2d, deform_conv2d
from .init import (
    dct2_kernel_bank,
    dct_matrix,
    he_normal,
    identity_conv_weight,
    orthonormal_analysis_weight,
    xavier_uniform,
)
from .layers import (
    Conv2d,
    ConvTranspose2d,
    Identity,
    LeakyReLU,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
)
from .quant import QuantReport, QuantSpec, quantize_network
from .resblock import ResBlock

__all__ = [
    "Conv2d",
    "ConvTranspose2d",
    "DeformConv2d",
    "Identity",
    "LeakyReLU",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Parameter",
    "QuantReport",
    "QuantSpec",
    "ReLU",
    "ResBlock",
    "Sequential",
    "Sigmoid",
    "SwinAttention",
    "dct2_kernel_bank",
    "dct_matrix",
    "deform_conv2d",
    "functional",
    "he_normal",
    "identity_conv_weight",
    "orthonormal_analysis_weight",
    "quantize_network",
    "window_merge",
    "window_partition",
    "xavier_uniform",
]
