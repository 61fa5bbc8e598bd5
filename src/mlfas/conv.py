"""Multi-channel convolutional layers.

Cross-correlation forward/backward passes written directly against numpy
as matrix products with a per-sample patch matrix (im2col), which the
caller builds once (for a network's first layer, once per data split) and
hands to both passes, plus an explicitly assembled banded block-Toeplitz
matrix form of the same layer.  The matrix form is built by index
arithmetic alone (never by probing the convolution code), so the two
routes verify each other: block rows of the matrix are output channels,
block columns are input channels.
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
        axes = ("output channel", "input channel", "kernel height", "kernel width")
        for axis, size in zip(axes, self.kernels.shape):
            if size < 1:
                raise ConvShapeError(
                    f"{axis} axis: kernels must be nonempty, got shape {self.kernels.shape}"
                )
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


def _check_input(layer: ConvLayer, x: np.ndarray) -> None:
    if x.ndim != 4 or x.shape[1] != layer.in_channels:
        raise ConvShapeError(
            f"input channel axis: expected (B, {layer.in_channels}, H, W), got {x.shape}"
        )
    layer.out_spatial(x.shape[2], x.shape[3])


def _tap_range(offset: int, pad: int, stride: int, n_in: int, n_out: int):
    """One axis of a kernel tap: (lo, hi, first input index).

    Output positions ``o`` in [lo, hi) read input index
    ``o*stride + offset - pad`` inside ``[0, n_in)``; the others read padding.
    """
    lo = min(n_out, max(0, -(-(pad - offset) // stride)))
    hi = max(lo, min(n_out, (n_in - 1 + pad - offset) // stride + 1))
    return lo, hi, lo * stride + offset - pad


def conv_patches(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Patch matrix of a (B, C, H, W) batch, shape (B, C*kh*kw, oh*ow).

    Row ``(c*kh + p)*kw + q`` of sample b holds input channel c under kernel
    tap (p, q) at every output position, so that
    ``kernels.reshape(out_c, -1) @ patches[b]`` is sample b's output.  Per
    tap, the in-range rows and columns are one strided copy of the input
    and the border that falls in the zero padding is zeroed.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(layer, x)
    b, c, h, w = x.shape
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    ph, pw = layer.padding
    oh, ow = layer.out_spatial(h, w)
    cols = np.empty((b, c, kh, kw, oh, ow))
    for p in range(kh):
        y0, y1, iy = _tap_range(p, ph, sh, h, oh)
        for q in range(kw):
            x0, x1, ix = _tap_range(q, pw, sw, w, ow)
            tap = cols[:, :, p, q]
            tap[:, :, :y0] = 0.0
            tap[:, :, y1:] = 0.0
            tap[:, :, y0:y1, :x0] = 0.0
            tap[:, :, y0:y1, x1:] = 0.0
            tap[:, :, y0:y1, x0:x1] = x[
                :, :, iy : iy + sh * (y1 - y0) : sh, ix : ix + sw * (x1 - x0) : sw
            ]
    return cols.reshape(b, c * kh * kw, oh * ow)


def conv_forward_batch(layer: ConvLayer, x: np.ndarray, out_hw: tuple[int, int] | None = None):
    """Cross-correlate a (B, C, H, W) batch; returns (B, out_c, oh, ow), C-ordered.

    With the output's spatial size ``out_hw = (oh, ow)`` given, ``x`` is
    instead the batch's (B, C*kh*kw, oh*ow) patch matrix (``conv_patches``),
    built once by the caller and multiplied as it is.
    """
    if out_hw is None:
        raw = np.asarray(x, dtype=np.float64)
        x = conv_patches(layer, raw)
        out_hw = layer.out_spatial(raw.shape[2], raw.shape[3])
    n_taps = layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]
    if x.ndim != 3 or x.shape[1:] != (n_taps, out_hw[0] * out_hw[1]):
        raise ConvShapeError(
            f"patch axes: expected (B, {n_taps}, {out_hw[0] * out_hw[1]}), got {x.shape}"
        )
    out = np.matmul(layer.kernels.reshape(layer.out_channels, -1), x)
    out += layer.bias[:, None]
    return out.reshape(x.shape[0], layer.out_channels, *out_hw)


def conv_backward_batch(
    layer: ConvLayer,
    patches: np.ndarray,
    upstream: np.ndarray,
    in_hw: tuple[int, int] | None = None,
):
    """Gradients of a scalar loss wrt kernels, bias and, if asked, input.

    ``patches`` is the input's patch matrix (``conv_patches``) and
    ``upstream`` is dLoss/d(output), shape (B, out_c, oh, ow).  The input
    gradient is computed only when the input's spatial size ``in_hw`` is
    given; otherwise (a first layer has no use for it) it is returned as None.
    """
    b = patches.shape[0]
    n_taps = layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]
    if patches.ndim != 3 or patches.shape[1] != n_taps:
        raise ConvShapeError(
            f"patch axes: expected (B, {n_taps}, oh*ow), got {patches.shape}"
        )
    upstream = np.asarray(upstream, dtype=np.float64)
    if (
        upstream.ndim != 4
        or upstream.shape[:2] != (b, layer.out_channels)
        or upstream.shape[2] * upstream.shape[3] != patches.shape[2]
        or (in_hw is not None and upstream.shape[2:] != layer.out_spatial(*in_hw))
    ):
        raise ConvShapeError(
            f"upstream axes: got {upstream.shape} for {b} samples, "
            f"{layer.out_channels} output channels and {patches.shape[2]} output positions"
            + ("" if in_hw is None else f" of a {in_hw[0]}x{in_hw[1]} input")
        )
    oh, ow = upstream.shape[2:]
    # a C-ordered (B, out_c, oh*ow) view or copy, so the summation order is fixed
    up = upstream.reshape(b, layer.out_channels, oh * ow)
    grad_bias = up.sum(axis=(0, 2))
    grad_kernels = np.matmul(up, patches.transpose(0, 2, 1)).sum(axis=0)
    grad_kernels = grad_kernels.reshape(layer.kernels.shape)
    if in_hw is None:
        return grad_kernels, grad_bias, None

    # input gradient: scatter kernel-weighted upstream back over the taps
    c = layer.in_channels
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    ph, pw = layer.padding
    h, w = in_hw
    dcols = np.matmul(layer.kernels.reshape(layer.out_channels, -1).T, up)
    dcols = dcols.reshape(b, c, kh, kw, oh, ow)
    dx_pad = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
    for p in range(kh):
        for q in range(kw):
            dx_pad[:, :, p : p + sh * oh : sh, q : q + sw * ow : sw] += dcols[:, :, p, q]
    return grad_kernels, grad_bias, dx_pad[:, :, ph : ph + h, pw : pw + w]


def conv_forward(layer: ConvLayer, y_in: ChannelTensorView) -> ChannelTensorView:
    """Single-sample convolution; bias added, activation left to the caller."""
    if y_in.channels != layer.in_channels:
        raise ConvShapeError(
            f"input channel axis: expected {layer.in_channels}, got {y_in.channels}"
        )
    out = conv_forward_batch(layer, y_in.to_array()[None])[0]
    return ChannelTensorView.from_array(out)


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
