"""Feedforward networks with hand-written backpropagation.

A network is an ordered list of dense and/or convolutional layers with ReLU
after every hidden layer and a linear output layer, the regression head.
Convolutional layers, when present, must precede the dense layers; the
interface flattens channel-major.  Each network keeps all learnable
parameters in one flat float64 buffer whose segment order is all weight
blocks (by layer) followed by all bias blocks (by layer); the layers'
arrays are views into it, and gradients and momentum vectors reuse the same
layout.

The first layer always reads a ``LoweredInput``: ``lower_input`` finds the
contiguous block of input features (or conv channels) that varies across
the rows it is given, keeps one sample of the shared rest, and keeps the
varying block of every row in the form the layer multiplies, the features
themselves for a dense layer and their im2col patch matrix for a conv
layer.  The products then run on the block alone, and the shared rest
enters through one single-sample product per call, in the same loop branch
that runs the hidden layers of its kind.  Training lowers each data split
once and gathers minibatches from the lowering, so the fold and the im2col
of the input happen once per split, not once per gradient or evaluation;
raw rows given to ``forward_batch``, ``loss`` or ``backward`` go through
the same ``lower_input`` on each call.  A conv lowering holds
``kh*kw*oh*ow / (H*W)`` times the varying channels, 2.25x for
``conv:8k3s2p1`` on a 32 x 32 input.  Of the generated Poisson inputs
``[kappa, x, y]`` only ``kappa`` varies between samples, so the fold
removes about two thirds of the first layer's work.  The measured cost of a
gradient is then no longer proportional to the parameter count: the input
interface is never coarsened, so the first layer, whose parameters the fold
makes cheap, holds a larger share of the parameters at coarse levels, and a
coarse gradient costs less than its parameter ratio.
"""

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .conv import (
    ConvLayer,
    ConvShapeError,
    conv_backward_batch,
    conv_forward_batch,
    conv_patches,
)


class NetworkShapeError(ValueError):
    """Layer dimension chaining violation, naming the offending layer."""


class ParamLayoutError(ValueError):
    """Flat parameter vector does not match the network's layout."""


@dataclass
class DenseLayer:
    """Affine layer: weights (n_out, n_in), bias (n_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise NetworkShapeError(f"weights must be 2-d, got shape {self.weights.shape}")
        if min(self.weights.shape) < 1:
            raise NetworkShapeError(f"weights must be nonempty, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise NetworkShapeError(
                f"bias length {self.bias.shape} does not match {self.weights.shape[0]} rows"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("dense layer parameters must be finite")

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class LossValue:
    """Mean squared error and worst componentwise absolute error."""

    l2: float
    linf: float


@dataclass(frozen=True)
class LoweredInput:
    """Rows of first-layer input lowered for the layer's products.

    ``block`` is the slice of axis 1 (dense features or conv channels)
    whose entries vary across the rows that were lowered, and ``rows`` holds
    that block of every row: (N, block size) for a dense first layer, the
    (N, C_b*kh*kw, oh*ow) patch matrix of the block's channels for a conv
    one.  ``sample`` is the shared rest, one row with the block zeroed and
    lowered the same way, or None when nothing is folded.  ``geometry`` is
    the first-layer geometry the lowering was made for (``_geometry``);
    every level of a hierarchy has the same one, because the input
    interface is never coarsened.  Indexing with an index array gathers
    rows and keeps the rest.
    """

    rows: np.ndarray
    block: slice
    sample: np.ndarray | None
    geometry: tuple

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, idx) -> "LoweredInput":
        return replace(self, rows=self.rows[idx])


@dataclass
class Minibatch:
    """Paired samples: inputs, as raw (B, d_in) rows or a ``LoweredInput``,
    and targets (B, d_out)."""

    inputs: "np.ndarray | LoweredInput"
    targets: np.ndarray

    def __post_init__(self):
        if not isinstance(self.inputs, LoweredInput):
            self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if len(self.inputs) == 0:
            raise ValueError("minibatch must be nonempty")
        if len(self.inputs) != self.targets.shape[0]:
            raise ValueError(
                f"inputs hold {len(self.inputs)} samples, targets {self.targets.shape[0]}"
            )

    def __len__(self) -> int:
        return len(self.inputs)


def _flat_size(desc) -> int:
    if desc[0] == "flat":
        return desc[1]
    _, c, h, w = desc
    return c * h * w


class Network:
    """Layer stack with ReLU hidden layers and a linear output layer.

    ``input_shape`` is an int for flat inputs or (channels, height, width)
    when the first layer is convolutional.

    The network owns two flat buffers in unroll order, allocated once:
    ``params`` holds the parameters and ``grad`` is the scratch gradient
    that ``backward(net, batch, out=net.grad)`` fills.  The constructor
    copies the given layers' values into ``params`` and keeps layer objects
    of its own whose weight (or kernel) and bias arrays are views into it;
    the layers passed in are left untouched, so a layer that belongs to
    another network is copied, never shared.
    """

    def __init__(self, layers, input_shape=None):
        if len(layers) < 1:
            raise NetworkShapeError("a network needs at least one layer")
        self.layers = list(layers)
        if input_shape is None:
            first = self.layers[0]
            if isinstance(first, ConvLayer):
                raise NetworkShapeError(
                    "input_shape=(channels, height, width) is required for a conv first layer"
                )
            input_shape = first.n_in
        if isinstance(input_shape, (tuple, list)):
            self.input_shape = tuple(int(v) for v in input_shape)
        else:
            self.input_shape = int(input_shape)
        self.interfaces = self._trace_shapes()
        layout = param_layout(self)
        self.params = ParamVector.zeros(layout)
        self.grad = ParamVector.zeros(layout)
        self.layers = [_adopt(layer, self.params, k) for k, layer in enumerate(self.layers)]

    def _trace_shapes(self):
        """Per-interface descriptors ('flat', n) or ('chan', c, h, w)."""
        if isinstance(self.input_shape, tuple):
            if len(self.input_shape) != 3:
                raise NetworkShapeError(
                    f"channel input shape must be (C, H, W), got {self.input_shape}"
                )
            desc = ("chan",) + self.input_shape
        else:
            desc = ("flat", self.input_shape)
        descs = [desc]
        for k, layer in enumerate(self.layers):
            if isinstance(layer, ConvLayer):
                # after a dense layer the interface is flat, so this also
                # rejects a conv that follows one
                if desc[0] != "chan":
                    raise NetworkShapeError(
                        f"layer {k} (conv): convolutional layers must precede dense layers"
                    )
                if desc[1] != layer.in_channels:
                    raise NetworkShapeError(
                        f"layer {k} (conv): expects {layer.in_channels} input channels, "
                        f"interface provides {desc[1]}"
                    )
                try:
                    oh, ow = layer.out_spatial(desc[2], desc[3])
                except ConvShapeError as e:
                    raise NetworkShapeError(f"layer {k} (conv): {e}") from e
                desc = ("chan", layer.out_channels, oh, ow)
            elif isinstance(layer, DenseLayer):
                if _flat_size(desc) != layer.n_in:
                    raise NetworkShapeError(
                        f"layer {k} (dense): expects input size {layer.n_in}, "
                        f"interface provides {_flat_size(desc)}"
                    )
                desc = ("flat", layer.n_out)
            else:
                raise TypeError(f"layer {k}: unsupported layer type {type(layer).__name__}")
            descs.append(desc)
        return descs

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_size(self) -> int:
        return _flat_size(self.interfaces[0])

    @property
    def output_size(self) -> int:
        return _flat_size(self.interfaces[-1])

    def unit_counts(self) -> list[int]:
        """Neuron/channel count at every interface (len n_layers + 1)."""
        counts = []
        for desc in self.interfaces:
            counts.append(desc[1])
        return counts

    def param_count(self) -> int:
        return self.params.total_len

    def copy(self) -> "Network":
        return Network(self.layers, input_shape=self.input_shape)

    def __reduce__(self):
        # pickling or deep-copying the arrays one by one would detach the
        # layers from the parameter buffer; rebuild through the constructor
        return (Network, (self.layers, self.input_shape))


# bytes of one row block's widest non-input interface in ``loss``: within a
# per-core L2 cache, so a block's activations stay in cache between layers,
# and small, because the harness runs ``loss`` on a thread beside training,
# whose own temporaries are then live too
LOSS_BLOCK_BYTES = 2**19

# the first-layer (block, sample) that folds nothing: the whole axis varies
_WHOLE = (slice(None), None)


def _geometry(net: Network) -> tuple:
    """The input shape and, for a conv first layer, its kernel size, stride
    and padding: everything a first-layer lowering depends on."""
    layer = net.layers[0]
    if isinstance(layer, ConvLayer):
        return (net.input_shape, layer.kernel_size, layer.stride, layer.padding)
    return (net.input_size,)


def lower_input(net: Network, x) -> LoweredInput:
    """Lower rows ``x`` (B, input_size) for the network's first layer.

    ``block`` spans the entries of axis 1 (dense features or conv channels)
    that vary across the rows.  Unless they form one block that is neither
    empty nor the whole axis, nothing is folded: the block is the whole
    axis and ``sample`` None, so a single row is never folded.  A NaN
    compares unequal to itself, so it always counts as varying and never
    enters the shared sample.

    The fold is decided over all of ``x``.  Training lowers each data split
    once, and a batch gathered from the lowering keeps the split's block.
    Lowering that batch's raw rows instead gives the same block, and the
    same bits, unless the batch has constant columns inside the split's
    block (a batch of one sample is the extreme case); the batch's own fold
    would then move those columns into the single-sample product, and the
    two results differ at rounding level only.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != net.input_size:
        raise NetworkShapeError(
            f"input size {x.shape[1]} does not match network input {net.input_size}"
        )
    layer = net.layers[0]
    conv = isinstance(layer, ConvLayer)
    rows = x.reshape(x.shape[0], net.interfaces[0][1], -1) if conv else x
    varies = np.flatnonzero((rows[1:] != rows[:1]).any(axis=(0, 2) if conv else 0))
    block, sample = _WHOLE
    if 0 < varies.size < rows.shape[1] and varies[-1] - varies[0] + 1 == varies.size:
        block = slice(int(varies[0]), int(varies[-1]) + 1)
        sample = rows[0].copy()
        sample[block] = 0.0
    if conv:
        shaped = x.reshape((x.shape[0],) + net.input_shape)
        rows = conv_patches(_channel_block(layer, block), shaped[:, block])
        if sample is not None:
            sample = conv_patches(layer, sample.reshape((1,) + net.input_shape))[0]
    else:
        rows = np.ascontiguousarray(x[:, block])
    return LoweredInput(rows, block, sample, _geometry(net))


def _lowered(net: Network, inputs) -> LoweredInput:
    """``inputs`` as a lowering for ``net``.

    Raw rows are lowered here; a lowering made for another first-layer
    geometry is rejected.
    """
    if not isinstance(inputs, LoweredInput):
        return lower_input(net, inputs)
    if inputs.geometry != _geometry(net):
        raise NetworkShapeError(
            f"input lowered for first-layer geometry {inputs.geometry}, "
            f"the network's is {_geometry(net)}"
        )
    return inputs


def _channel_block(layer: ConvLayer, block: slice) -> ConvLayer:
    """``layer`` restricted to the input channels ``block``; kernels a view.

    The layer itself for the whole axis.  Built without the constructor's
    checks, which would reject the non-finite parameters that training must
    be able to reach and report.
    """
    if block == slice(None):
        return layer
    sub = copy.copy(layer)
    sub.kernels = layer.kernels[:, block]
    return sub


def _forward(net: Network, lowered: LoweredInput, caches: list | None = None) -> np.ndarray:
    """Batched forward pass from a first-layer lowering; returns (B, output_size).

    When a list ``caches`` is given, each layer appends its (input,
    pre-activation) pair, a conv layer its input's patch matrix in place of
    the input, and the first layer the lowering's rows; without it nothing
    outlives the layer that made it.
    """
    a = lowered.rows
    n_last = net.n_layers - 1
    for k, layer in enumerate(net.layers):
        block, sample = (lowered.block, lowered.sample) if k == 0 else _WHOLE
        if isinstance(layer, ConvLayer):
            if k > 0:
                a = conv_patches(layer, a.reshape((a.shape[0],) + net.interfaces[k][1:]))
            z = conv_forward_batch(_channel_block(layer, block), a, net.interfaces[k + 1][2:])
            if sample is not None:
                kernels = layer.kernels.reshape(layer.out_channels, -1)
                z += (kernels @ sample).reshape(z.shape[1:])
        else:
            a = a.reshape(a.shape[0], -1)
            z = a @ layer.weights[:, block].T
            z += layer.bias if sample is None else layer.weights @ sample + layer.bias
        if caches is not None:
            caches.append((a, z))
        a = np.maximum(z, 0.0) if k < n_last else z
    return a.reshape(a.shape[0], -1)


def _forward_cached(net: Network, x):
    """Batched forward pass keeping per-layer (input or patches, pre-activation) caches."""
    caches = []
    return _forward(net, _lowered(net, x), caches), caches


def forward_batch(net: Network, x) -> np.ndarray:
    """Evaluate the network on rows of x, raw or lowered; returns (B, output_size)."""
    return _forward(net, _lowered(net, x))


def forward(net: Network, y_in) -> np.ndarray:
    """Evaluate the network on a single input vector."""
    y_in = np.asarray(y_in, dtype=np.float64).ravel()
    return forward_batch(net, y_in[None])[0]


def loss_blocks(net: Network, n: int) -> list[slice]:
    """Row blocks in which ``loss`` evaluates ``n`` rows.

    As few blocks as keep one block's widest non-input interface within
    ``LOSS_BLOCK_BYTES``, with sizes that differ by at most one row and, for
    ``n >= 2``, at least two rows each: a one-row product may take another
    BLAS path and round differently from the same row inside a batch.
    """
    widest = max(_flat_size(desc) for desc in net.interfaces[1:])
    cap = max(1, LOSS_BLOCK_BYTES // (8 * widest))
    count = max(1, min(-(-n // cap), n // 2))
    bounds = [n * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def loss(net: Network, batch: Minibatch) -> LossValue:
    """Mean squared error over the batch plus the worst absolute error.

    The forward pass runs over the row blocks of ``loss_blocks``, so its
    temporaries are a block's, not the batch's.  Each row's squared error is
    summed within the row, and the mean over rows is taken once at the end,
    so the result equals a whole-batch evaluation bit for bit.  The worst
    error is the running ``np.maximum`` of the block maxima, so a NaN in any
    block makes it NaN.
    """
    if net.output_size != batch.targets.shape[1]:
        raise NetworkShapeError(
            f"network output size {net.output_size} != target size {batch.targets.shape[1]}"
        )
    lowered = _lowered(net, batch.inputs)
    row_sq = np.empty(len(lowered))
    linf = 0.0
    for rows in loss_blocks(net, len(lowered)):
        err = _forward(net, lowered[rows]) - batch.targets[rows]
        row_sq[rows] = np.sum(err * err, axis=1)
        linf = np.maximum(linf, np.max(np.abs(err)))
    return LossValue(l2=float(np.mean(row_sq)), linf=float(linf))


def backward(net: Network, batch: Minibatch, out: "ParamVector | None" = None) -> "ParamVector":
    """Gradient of the batch-mean squared loss, as a flat parameter vector.

    The gradient is written into ``out`` when given (the smoother passes the
    network's scratch buffer ``net.grad``) and otherwise into a new vector
    that the caller owns and no later call changes.
    """
    lowered = _lowered(net, batch.inputs)
    if out is None:
        out = net.params.zeros_like()
    elif out.segments != net.params.segments:
        raise ParamLayoutError("gradient buffer layout does not match the network")
    caches = []
    # the predictions are the call's own, so the loss gradient overwrites them
    g = _forward(net, lowered, caches)
    np.subtract(g, batch.targets, out=g)
    g *= 2.0 / g.shape[0]

    for k in range(net.n_layers - 1, -1, -1):
        layer = net.layers[k]
        a_k, z_k = caches[k]
        dz = g.reshape(z_k.shape)
        if k < net.n_layers - 1:
            # dz is this call's own array; the ReLU subgradient at exactly 0
            # is 0, and the boolean mask multiplies exactly like 1.0/0.0
            np.multiply(dz, z_k > 0.0, out=dz)
        gw, gb = out.view(k, "weight"), out.view(k, "bias")
        # a folded first layer's weight gradient sums over the batch on the
        # varying block; the rest is the batch-summed upstream times the sample
        block, sample = (lowered.block, lowered.sample) if k == 0 else _WHOLE
        if isinstance(layer, ConvLayer):
            # a_k is the patch matrix; the first layer's input gradient is never used
            in_hw = net.interfaces[k][2:] if k > 0 else None
            gk, gbias, g = conv_backward_batch(_channel_block(layer, block), a_k, dz, in_hw)
            if sample is not None:
                up = dz.sum(axis=0).reshape(layer.out_channels, -1)
                np.matmul(up, sample.T, out=gw.reshape(layer.out_channels, -1))
            gw[:, block] = gk
            gb[...] = gbias
        else:
            np.sum(dz, axis=0, out=gb)
            if sample is not None:
                np.multiply(gb[:, None], sample, out=gw)
            np.matmul(dz.T, a_k, out=gw[:, block])
            if k > 0:
                g = dz @ layer.weights
    return out


@dataclass(frozen=True)
class Segment:
    """One contiguous block of the flat parameter vector."""

    layer: int
    kind: str  # "weight" | "bias"
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class ParamVector:
    """Flat float64 view of all learnable parameters (or momentum).

    Segment order is the unroll order: every layer's weight block first,
    then every layer's bias block.
    """

    __slots__ = ("data", "segments", "_index")

    def __init__(self, data: np.ndarray, segments: tuple[Segment, ...]):
        self.data = np.asarray(data, dtype=np.float64).ravel()
        self.segments = tuple(segments)
        expected = sum(s.size for s in self.segments)
        if self.data.size != expected:
            raise ParamLayoutError(
                f"data length {self.data.size} != layout total {expected}"
            )
        self._index = {(s.layer, s.kind): s for s in self.segments}

    @property
    def total_len(self) -> int:
        return self.data.size

    def view(self, layer: int, kind: str) -> np.ndarray:
        seg = self._index[(layer, kind)]
        return self.data[seg.offset : seg.offset + seg.size].reshape(seg.shape)

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.segments)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.data), self.segments)

    @classmethod
    def zeros(cls, segments) -> "ParamVector":
        total = sum(s.size for s in segments)
        return cls(np.zeros(total), segments)


def param_layout(net: Network) -> tuple[Segment, ...]:
    """Segment layout for a network: weight blocks by layer, then biases."""
    segments = []
    offset = 0
    for k, layer in enumerate(net.layers):
        shape = layer.kernels.shape if isinstance(layer, ConvLayer) else layer.weights.shape
        seg = Segment(layer=k, kind="weight", offset=offset, shape=shape)
        segments.append(seg)
        offset += seg.size
    for k, layer in enumerate(net.layers):
        seg = Segment(layer=k, kind="bias", offset=offset, shape=layer.bias.shape)
        segments.append(seg)
        offset += seg.size
    return tuple(segments)


def _adopt(layer, params: ParamVector, k: int):
    """A copy of layer ``k`` whose arrays are views into ``params``."""
    w, b = params.view(k, "weight"), params.view(k, "bias")
    b[...] = layer.bias
    if isinstance(layer, ConvLayer):
        w[...] = layer.kernels
        return ConvLayer(w, b, layer.stride, layer.padding)
    w[...] = layer.weights
    return DenseLayer(w, b)


def flatten(net: Network) -> ParamVector:
    """Copy of all parameters as one flat vector in unroll order.

    The copy is a snapshot: later training does not change it.
    """
    return net.params.copy()


def unflatten(net: Network, x: ParamVector) -> None:
    """Copy the flat vector's values into the network's parameter buffer."""
    if x.segments != net.params.segments:
        raise ParamLayoutError(
            f"parameter vector layout (total {x.total_len}) does not match "
            f"network layout (total {net.params.total_len})"
        )
    net.params.data[...] = x.data


def uniform_init(net: Network, rng: np.random.Generator) -> Network:
    """Seeded fan-in uniform init: entries in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            fan_in = layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]
            bound = 1.0 / np.sqrt(fan_in)
            layer.kernels[...] = rng.uniform(-bound, bound, size=layer.kernels.shape)
        else:
            bound = 1.0 / np.sqrt(layer.n_in)
            layer.weights[...] = rng.uniform(-bound, bound, size=layer.weights.shape)
        layer.bias[...] = rng.uniform(-bound, bound, size=layer.bias.shape)
    return net


def dense_network(sizes, rng: np.random.Generator | None = None) -> Network:
    """Fully-connected network through the given interface sizes."""
    if len(sizes) < 2:
        raise NetworkShapeError("need at least an input and an output size")
    layers = [
        DenseLayer(np.zeros((sizes[k + 1], sizes[k])), np.zeros(sizes[k + 1]))
        for k in range(len(sizes) - 1)
    ]
    net = Network(layers)
    if rng is not None:
        uniform_init(net, rng)
    return net
