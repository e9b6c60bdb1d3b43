"""Minimal module system: parameter registration and core layers.

A deliberately small subset of the torch.nn surface, sufficient for the
CTVC-Net topology in Fig. 2 of the paper: Conv2d, ConvTranspose2d
(DeConv), MaxPool2d, activations, and Sequential composition.  Modules
track their parameters and children so network-wide passes (fixed-point
quantization, transform-domain pruning, layer-graph extraction) can
traverse any model generically.

Layers expose two integration hooks used by the co-design stack:

* ``compute_backend`` — an optional callable ``(layer, x) -> y`` that
  replaces the direct kernel.  :mod:`repro.core.strategy` installs the
  sparse fast-algorithm executors here, so swapping dense / Winograd /
  sparse execution never touches network definitions.
* ``activation_quant`` — an optional :class:`repro.nn.quant.QuantSpec`
  applied to the layer output, modelling the paper's 12-bit activation
  format.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import functional as F
from .init import he_normal

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Conv2d",
    "ConvTranspose2d",
    "MaxPool2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Identity",
    "as_activation",
]


class Parameter:
    """A named, mutable tensor owned by a Module."""

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def numel(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


def as_activation(
    param: Parameter | np.ndarray | None, x: np.ndarray
) -> np.ndarray | None:
    """A float64 master (a ``Parameter``'s data, or an array) in the
    dtype of a floating activation ``x``: a no-op for float64, a cast
    for the ``fast`` substrate's float32.  Any other input gets the
    master itself.  Cast on every call, so no copy can go stale when
    the master is reassigned (quantization, pruning).  ``None`` (no
    bias) passes through."""
    if param is None:
        return None
    data = param.data if isinstance(param, Parameter) else param
    if np.issubdtype(x.dtype, np.floating):
        return data.astype(x.dtype, copy=False)
    return data


class Module:
    """Base class: registers Parameters and sub-Modules on assignment."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def num_parameters(self) -> int:
        return sum(p.numel() for p in self.parameters())

    # -- execution ----------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]


class ModuleList(Module):
    """A list of sub-modules (no implicit forward)."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class _KernelLayer(Module):
    """Shared machinery for Conv2d / ConvTranspose2d."""

    op_kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int,
        padding: int,
        bias: bool,
        rng: np.random.Generator | None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        #: optional callable (layer, x) -> y installed by repro.core.
        self.compute_backend: Callable | None = None
        #: optional QuantSpec applied to the output activation.
        self.activation_quant = None

    def _finish(self, out: np.ndarray) -> np.ndarray:
        if self.activation_quant is not None:
            out = self.activation_quant.fake_quant(out)
        return out


class Conv2d(_KernelLayer):
    """2-D convolution layer, ``Conv(N, k, s)`` in the paper's notation."""

    op_kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | None = None,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if padding is None:
            padding = kernel_size // 2  # "same" for odd kernels at stride 1
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, bias, rng
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.compute_backend is not None:
            out = self.compute_backend(self, x)
        else:
            out = F.conv2d(
                x,
                as_activation(self.weight, x),
                as_activation(self.bias, x),
                self.stride,
                self.padding,
            )
        return self._finish(out)

    def output_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        _, h, w = in_shape
        return (
            self.out_channels,
            F.conv_output_size(h, self.kernel_size, self.stride, self.padding),
            F.conv_output_size(w, self.kernel_size, self.stride, self.padding),
        )


class ConvTranspose2d(_KernelLayer):
    """Transposed convolution, ``DeConv(N, k, s)`` in the paper."""

    op_kind = "deconv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 2,
        padding: int | None = None,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if padding is None:
            # The paper's DeConv(N, 4, 2) doubles resolution; padding 1
            # gives exactly 2x upsampling for k=4, s=2.
            padding = (kernel_size - stride) // 2
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, bias, rng
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.compute_backend is not None:
            out = self.compute_backend(self, x)
        else:
            out = F.conv_transpose2d(
                x,
                as_activation(self.weight, x),
                as_activation(self.bias, x),
                self.stride,
                self.padding,
            )
        return self._finish(out)

    def output_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        _, h, w = in_shape
        return (
            self.out_channels,
            F.deconv_output_size(h, self.kernel_size, self.stride, self.padding),
            F.deconv_output_size(w, self.kernel_size, self.stride, self.padding),
        )


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.relu(x)


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.1):
        super().__init__()
        self.slope = slope

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.leaky_relu(x, self.slope)


class Sigmoid(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.sigmoid(x)


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x
