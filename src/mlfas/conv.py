"""Multi-channel convolutional layers.

Cross-correlation forward/backward passes written directly against numpy,
plus an explicitly assembled banded block-Toeplitz matrix form of the same
layer.  The matrix form is built by index arithmetic alone (never by probing
the convolution code), so the two routes verify each other: block rows of
the matrix are output channels, block columns are input channels.
"""

from dataclasses import dataclass

import numpy as np

MATRIX_ENTRY_GUARD = 10**6


class ConvShapeError(ValueError):
    """Shape mismatch in a convolution, naming the offending axis."""


@dataclass
class ConvLayer:
    """Convolution with ``out_channels x in_channels`` kernel taps.

    kernels: (out_channels, in_channels, k_h, k_w), bias: (out_channels,).
    Stride and zero padding are per-axis pairs.
    """

    kernels: np.ndarray
    bias: np.ndarray
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        self.kernels = np.asarray(self.kernels, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.kernels.ndim != 4:
            raise ConvShapeError(f"kernels must be 4-d, got shape {self.kernels.shape}")
        if self.bias.shape != (self.kernels.shape[0],):
            raise ConvShapeError(
                f"bias axis: expected length {self.kernels.shape[0]}, got {self.bias.shape}"
            )
        self.stride = (int(self.stride[0]), int(self.stride[1]))
        self.padding = (int(self.padding[0]), int(self.padding[1]))
        if min(self.stride) < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if min(self.padding) < 0:
            raise ValueError(f"padding must be nonnegative, got {self.padding}")
        if not (np.isfinite(self.kernels).all() and np.isfinite(self.bias).all()):
            raise ValueError("conv layer parameters must be finite")

    @property
    def out_channels(self) -> int:
        return self.kernels.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernels.shape[1]

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.kernels.shape[2], self.kernels.shape[3]

    def out_spatial(self, in_h: int, in_w: int) -> tuple[int, int]:
        kh, kw = self.kernel_size
        sh, sw = self.stride
        ph, pw = self.padding
        oh = (in_h + 2 * ph - kh) // sh + 1
        ow = (in_w + 2 * pw - kw) // sw + 1
        if oh < 1 or ow < 1:
            raise ConvShapeError(
                f"spatial axes: input {in_h}x{in_w} too small for kernel "
                f"{kh}x{kw} with stride {self.stride}, padding {self.padding}"
            )
        return oh, ow


@dataclass
class ChannelTensorView:
    """Channel-major flat view of a (channels, height, width) activation."""

    channels: int
    height: int
    width: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        if self.data.size != self.channels * self.height * self.width:
            raise ConvShapeError(
                f"data length {self.data.size} != channels*height*width "
                f"({self.channels}*{self.height}*{self.width})"
            )

    @classmethod
    def from_array(cls, a) -> "ChannelTensorView":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 3:
            raise ConvShapeError(f"expected a (C, H, W) array, got shape {a.shape}")
        return cls(channels=a.shape[0], height=a.shape[1], width=a.shape[2], data=a.ravel())

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.channels, self.height, self.width)


def _windows(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Strided sliding windows of a padded (B, C, H, W) batch.

    Returns (B, C, oh, ow, kh, kw); a view except for the padding copy.
    """
    ph, pw = layer.padding
    sh, sw = layer.stride
    kh, kw = layer.kernel_size
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw]


def _check_input(layer: ConvLayer, x: np.ndarray) -> None:
    if x.shape[1] != layer.in_channels:
        raise ConvShapeError(
            f"input channel axis: expected {layer.in_channels}, got {x.shape[1]}"
        )
    layer.out_spatial(x.shape[2], x.shape[3])


def conv_forward_batch(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Cross-correlate a (B, C, H, W) batch; returns (B, out_c, oh, ow)."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(layer, x)
    win = _windows(layer, x)
    b, _, oh, ow = win.shape[0], win.shape[1], win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, -1)
    kflat = layer.kernels.reshape(layer.out_channels, -1)
    out = cols @ kflat.T
    out = out.reshape(b, oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    return out + layer.bias[None, :, None, None]


def conv_backward_batch(layer: ConvLayer, x: np.ndarray, upstream: np.ndarray):
    """Gradients of a scalar loss wrt kernels, bias, and input.

    ``upstream`` is dLoss/d(output), shape (B, out_c, oh, ow).
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_input(layer, x)
    oh, ow = layer.out_spatial(x.shape[2], x.shape[3])
    if upstream.shape != (x.shape[0], layer.out_channels, oh, ow):
        raise ConvShapeError(
            f"upstream axes: expected {(x.shape[0], layer.out_channels, oh, ow)}, "
            f"got {upstream.shape}"
        )
    b = x.shape[0]
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    ph, pw = layer.padding

    win = _windows(layer, x)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, -1)
    up_cols = upstream.transpose(0, 2, 3, 1).reshape(b * oh * ow, layer.out_channels)

    grad_bias = up_cols.sum(axis=0)  # C-ordered, so the summation order is fixed
    grad_kernels = (up_cols.T @ cols).reshape(layer.kernels.shape)

    # input gradient: scatter kernel-weighted upstream back over the windows
    dcols = up_cols @ layer.kernels.reshape(layer.out_channels, -1)
    dwin = dcols.reshape(b, oh, ow, layer.in_channels, kh, kw)
    hp, wp = x.shape[2] + 2 * ph, x.shape[3] + 2 * pw
    dx_pad = np.zeros((b, layer.in_channels, hp, wp))
    for p in range(kh):
        for q in range(kw):
            dx_pad[:, :, p : p + sh * oh : sh, q : q + sw * ow : sw] += dwin[
                :, :, :, :, p, q
            ].transpose(0, 3, 1, 2)
    dx = dx_pad[:, :, ph : hp - ph, pw : wp - pw]
    return grad_kernels, grad_bias, dx


def conv_forward(layer: ConvLayer, y_in: ChannelTensorView) -> ChannelTensorView:
    """Single-sample convolution; bias added, activation left to the caller."""
    if y_in.channels != layer.in_channels:
        raise ConvShapeError(
            f"input channel axis: expected {layer.in_channels}, got {y_in.channels}"
        )
    out = conv_forward_batch(layer, y_in.to_array()[None])[0]
    return ChannelTensorView.from_array(out)


def conv_backward(layer: ConvLayer, y_in: ChannelTensorView, upstream: ChannelTensorView):
    """Single-sample gradients (kernels, bias, input view)."""
    gk, gb, dx = conv_backward_batch(
        layer, y_in.to_array()[None], upstream.to_array()[None]
    )
    return gk, gb, ChannelTensorView.from_array(dx[0])


def to_matrix(layer: ConvLayer, in_shape: tuple[int, int, int]) -> np.ndarray:
    """Assemble the layer as an explicit matrix on vectorized inputs.

    Row blocks are output channels, column blocks input channels; within a
    block the kernel taps repeat along Toeplitz diagonals.  Bias is not
    included.  Intended as a small-scale verification oracle, guarded to at
    most ``MATRIX_ENTRY_GUARD`` entries.
    """
    c_in, h, w = in_shape
    if c_in != layer.in_channels:
        raise ConvShapeError(
            f"input channel axis: expected {layer.in_channels}, got {c_in}"
        )
    oh, ow = layer.out_spatial(h, w)
    n_rows = layer.out_channels * oh * ow
    n_cols = c_in * h * w
    if n_rows * n_cols > MATRIX_ENTRY_GUARD:
        raise ValueError(
            f"matrix form would hold {n_rows * n_cols} entries "
            f"(> {MATRIX_ENTRY_GUARD}); use smaller shapes"
        )
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    ph, pw = layer.padding
    m = np.zeros((n_rows, n_cols))
    for a in range(layer.out_channels):
        for oy in range(oh):
            for ox in range(ow):
                row = (a * oh + oy) * ow + ox
                for c in range(c_in):
                    for p in range(kh):
                        iy = oy * sh + p - ph
                        if iy < 0 or iy >= h:
                            continue
                        for q in range(kw):
                            ix = ox * sw + q - pw
                            if ix < 0 or ix >= w:
                                continue
                            m[row, (c * h + iy) * w + ix] = layer.kernels[a, c, p, q]
    return m
