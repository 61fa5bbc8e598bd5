"""Feedforward networks with hand-written backpropagation.

A network is an ordered list of dense and/or convolutional layers with ReLU
after every hidden layer and a linear output layer, the regression head.
Convolutional layers, when present, must precede the dense layers; the
interface flattens channel-major.  Each network keeps all learnable
parameters in one flat float64 buffer that holds the layers in order, each
layer's weight block followed by its bias block, so one layer's parameters
are one contiguous slice; the layers' arrays are views into it, and
gradients, momentum and tau tilt vectors reuse the same layout, one
(weight shape, bias shape) pair per layer.

A network reads one record, a ``Minibatch``: ``lower_input(net, x, y)``
pairs targets with input rows lowered for the first layer.  It finds the
contiguous block of input features (or conv channels) that varies across
the rows it is given, keeps one sample of the shared rest, and keeps the
varying block of every row in the form the layer multiplies, the features
themselves for a dense layer and their im2col patch matrix for a conv
layer.  The products then run on the block alone, and the shared rest
enters through one single-sample product per call, in the same loop branch
that runs the hidden layers of its kind.  ``forward_batch``, ``loss`` and
``backward`` take nothing else.  Training lowers each data split once and
gathers minibatches from its record, so the fold and the im2col of the
input happen once per split, not once per gradient or evaluation.  A conv
lowering holds ``kh*kw*oh*ow / (H*W)`` times the varying channels, 2.25x
for ``conv:8k3s2p1`` on a 32 x 32 input.  Of the generated Poisson inputs
``[kappa, x, y]`` only ``kappa`` varies between samples, so the fold
removes about two thirds of the first layer's work.  The measured cost of a
gradient is then no longer proportional to the parameter count: the input
interface is never coarsened, so the first layer, whose parameters the fold
makes cheap, holds a larger share of the parameters at coarse levels, and a
coarse gradient costs less than its parameter ratio.
"""

import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _threads
from .conv import (
    ConvLayer,
    ConvShapeError,
    conv_backward_batch,
    conv_forward_batch,
    conv_patches,
)


class NetworkShapeError(ValueError):
    """A shape that does not fit: layers that do not chain (naming the
    offending layer), an input of the wrong size or form, or a parameter
    vector whose layout is not the one expected."""


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
class Minibatch:
    """B paired samples, their inputs lowered for the first layer: the record
    that ``lower_input`` makes and that ``forward_batch``, ``loss`` and
    ``backward`` read.

    ``targets`` is (B, d_out).  ``block`` is the slice of axis 1 (dense
    features or conv channels) whose entries vary across the rows that were
    lowered, and ``rows`` holds that block of every input: (B, block size)
    for a dense first layer, the (B, C_b*kh*kw, oh*ow) patch matrix of the
    block's channels for a conv one.  ``sample`` is the shared rest, one
    input with the block zeroed and lowered the same way, or None when
    nothing is folded.  ``geometry`` is the first-layer geometry the record
    was made for (``_geometry``); every level of a hierarchy has the same
    one, because the input interface is never coarsened.  Indexing with a
    slice or an index array gathers rows and targets together and keeps
    the rest.
    """

    rows: np.ndarray
    targets: np.ndarray
    block: slice
    sample: np.ndarray | None
    geometry: tuple

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, idx) -> "Minibatch":
        return replace(self, rows=self.rows[idx], targets=self.targets[idx])


class Network:
    """Layer stack with ReLU hidden layers and a linear output layer.

    ``input_shape`` is the input interface's shape: (n,) for flat inputs,
    (channels, height, width) when the first layer is convolutional.  It
    defaults to (n_in,) for a dense first layer.  ``interfaces`` holds the
    shape of every interface, input first (len n_layers + 1).

    The network owns two flat buffers in unroll order (by layer, each
    weight block followed by its bias), allocated once:
    ``params`` holds the parameters and ``grad`` is the scratch gradient
    that ``backward(net, batch, out=net.grad)`` fills.  The constructor
    copies the given layers' values into ``params`` and keeps layer objects
    of its own whose weight and bias arrays are views into it;
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
            input_shape = (first.n_in,)
        if not isinstance(input_shape, tuple) or len(input_shape) not in (1, 3):
            raise NetworkShapeError(
                f"input_shape must be (n,) or (channels, height, width), got {input_shape!r}"
            )
        self.input_shape = tuple(int(v) for v in input_shape)
        self.interfaces = self._trace_shapes()
        layout = param_layout(self)
        self.params = ParamVector.zeros(layout)
        self.grad = ParamVector.zeros(layout)
        self.layers = [_adopt(layer, self.params, k) for k, layer in enumerate(self.layers)]

    def _trace_shapes(self):
        """The shape of every interface: (n,) when flat, (c, h, w) when channelled."""
        shape = self.input_shape
        shapes = [shape]
        for k, layer in enumerate(self.layers):
            if isinstance(layer, ConvLayer):
                # after a dense layer the interface is flat, so this also
                # rejects a conv that follows one or reads a flat input
                if len(shape) != 3:
                    raise NetworkShapeError(
                        f"layer {k} (conv): convolutional layers must precede dense layers"
                    )
                if shape[0] != layer.in_channels:
                    raise NetworkShapeError(
                        f"layer {k} (conv): expects {layer.in_channels} input channels, "
                        f"interface provides {shape[0]}"
                    )
                try:
                    oh, ow = layer.out_spatial(shape[1], shape[2])
                except ConvShapeError as e:
                    raise NetworkShapeError(f"layer {k} (conv): {e}") from e
                shape = (layer.out_channels, oh, ow)
            elif isinstance(layer, DenseLayer):
                if math.prod(shape) != layer.n_in:
                    raise NetworkShapeError(
                        f"layer {k} (dense): expects input size {layer.n_in}, "
                        f"interface provides {math.prod(shape)}"
                    )
                shape = (layer.n_out,)
            else:
                raise TypeError(f"layer {k}: unsupported layer type {type(layer).__name__}")
            shapes.append(shape)
        return shapes

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_size(self) -> int:
        return math.prod(self.interfaces[0])

    @property
    def output_size(self) -> int:
        return math.prod(self.interfaces[-1])

    def unit_counts(self) -> list[int]:
        """Neuron/channel count at every interface (len n_layers + 1)."""
        return [shape[0] for shape in self.interfaces]

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
# and small, because the harness runs ``loss`` on a thread alongside training,
# whose own temporaries are then live too
LOSS_BLOCK_BYTES = 2**19

# fewest rows in one of ``loss``'s row blocks: with OpenBLAS 0.3.31's Haswell
# and Zen kernels, 6- and 7-row blocks of ``dense:8192,dense:128`` summed to
# another l2 than the whole batch did, and none of 36 wide-net cases with
# blocks of 16 rows or more did.  Every benchmark net's blocks are larger.
LOSS_BLOCK_MIN_ROWS = 16

# the first-layer (block, sample) that folds nothing: the whole axis varies
_WHOLE = (slice(None), None)

# multiply-adds of a dense weight product past the first layer from which
# ``backward`` passes a batch as two row halves, the second on a helper
# thread.  At batch 200 the benchmark's conv net passes it at both levels
# (13.1 M and more) and its dense nets do not (6.6 M at most).
HANDOFF_MIN_MACS = 2**23


def _geometry(net: Network) -> tuple:
    """The input shape and, for a conv first layer, its kernel size, stride
    and padding: everything a first-layer lowering depends on."""
    layer = net.layers[0]
    if isinstance(layer, ConvLayer):
        return (net.input_shape, layer.kernel_size, layer.stride, layer.padding)
    return (net.input_size,)


def lower_input(net: Network, x, y) -> Minibatch:
    """The ``Minibatch`` of input rows ``x`` (B, input_size) and targets
    ``y`` (B, d_out), B >= 1, its inputs lowered for the network's first
    layer.

    ``block`` spans the entries of axis 1 (dense features or conv channels)
    that vary across the rows.  Unless they form one block that is neither
    empty nor the whole axis, nothing is folded: the block is the whole
    axis and ``sample`` None, so a single row is never folded.  A NaN
    compares unequal to itself, so it always counts as varying and never
    enters the shared sample.  The fold is decided over all of ``x``, so a
    batch gathered from a lowered split keeps the split's block.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != net.input_size:
        raise NetworkShapeError(
            f"input size {x.shape[1]} does not match network input {net.input_size}"
        )
    if x.shape[0] == 0:
        raise ValueError("minibatch must be nonempty")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"inputs hold {x.shape[0]} samples, targets {y.shape[0]}")
    layer = net.layers[0]
    conv = isinstance(layer, ConvLayer)
    rows = x.reshape(x.shape[0], net.interfaces[0][0], -1) if conv else x
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
    return Minibatch(rows, y, block, sample, _geometry(net))


def _lowered(net: Network, batch: Minibatch) -> Minibatch:
    """``batch``, refused when it is not a ``Minibatch`` or was made for
    another first-layer geometry or another target width."""
    if not isinstance(batch, Minibatch):
        raise TypeError(
            f"a network reads a Minibatch made by lower_input, got {type(batch).__name__}"
        )
    if batch.geometry != _geometry(net):
        raise NetworkShapeError(
            f"input lowered for first-layer geometry {batch.geometry}, "
            f"the network's is {_geometry(net)}"
        )
    if batch.targets.shape[1] != net.output_size:
        raise NetworkShapeError(
            f"network output size {net.output_size} != target size {batch.targets.shape[1]}"
        )
    return batch


def _channel_block(layer: ConvLayer, block: slice) -> ConvLayer:
    """``layer`` restricted to the input channels ``block``; weights a view.

    The layer itself for the whole axis.  Built without the constructor's
    checks, which would reject the non-finite parameters that training must
    be able to reach and report.
    """
    if block == slice(None):
        return layer
    sub = copy.copy(layer)
    sub.weights = layer.weights[:, block]
    return sub


def _forward(net: Network, batch: Minibatch, caches: list | None = None) -> np.ndarray:
    """Batched forward pass from a batch's lowered rows; returns (B, output_size).

    When a list ``caches`` is given, each layer appends its (input, output)
    pair, a conv layer its input's patch matrix in place of the input, and
    the first layer the batch's rows; without it nothing outlives the
    layer that made it.  A hidden layer's ReLU overwrites its
    pre-activation, so its cached output is the activation, which is
    positive exactly where the pre-activation is, a NaN included in
    neither.
    """
    a = batch.rows
    n_last = net.n_layers - 1
    for k, layer in enumerate(net.layers):
        block, sample = (batch.block, batch.sample) if k == 0 else _WHOLE
        if isinstance(layer, ConvLayer):
            if k > 0:
                a = conv_patches(layer, a.reshape((a.shape[0],) + net.interfaces[k]))
            z = conv_forward_batch(_channel_block(layer, block), a, net.interfaces[k + 1][1:])
            if sample is not None:
                w = layer.weights.reshape(layer.out_channels, -1)
                z += (w @ sample).reshape(z.shape[1:])
        else:
            a = a.reshape(a.shape[0], -1)
            z = a @ layer.weights[:, block].T
            z += layer.bias if sample is None else layer.weights @ sample + layer.bias
        if caches is not None:
            caches.append((a, z))
        a = np.maximum(z, 0.0, out=z) if k < n_last else z
    return a.reshape(a.shape[0], -1)


def forward_batch(net: Network, batch: Minibatch) -> np.ndarray:
    """Evaluate the network on the batch's inputs; returns (B, output_size)."""
    return _forward(net, _lowered(net, batch))


def loss_blocks(net: Network, n: int) -> list[slice]:
    """Row blocks in which ``loss`` evaluates ``n`` rows.

    As few blocks as keep one block's widest non-input interface within
    ``LOSS_BLOCK_BYTES``, with sizes that differ by at most one row and at
    least ``LOSS_BLOCK_MIN_ROWS`` rows each, so fewer rows than twice that
    are one block.  A product of a few rows may take another BLAS path and
    round differently from the same rows inside a batch.
    """
    widest = max(math.prod(shape) for shape in net.interfaces[1:])
    cap = max(1, LOSS_BLOCK_BYTES // (8 * widest))
    count = max(1, min(-(-n // cap), n // LOSS_BLOCK_MIN_ROWS))
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
    _lowered(net, batch)
    row_sq = np.empty(len(batch))
    linf = 0.0
    for rows in loss_blocks(net, len(batch)):
        part = batch[rows]
        err = _forward(net, part) - part.targets
        row_sq[rows] = np.sum(err * err, axis=1)
        linf = np.maximum(linf, np.max(np.abs(err)))
    return LossValue(l2=float(np.mean(row_sq)), linf=float(linf))


def hands_off(net: Network, rows: int) -> bool:
    """Whether ``backward`` on ``rows`` rows computes its gradient as two row
    halves: whether a dense layer past the first has a weight product
    ``dz.T @ a`` of at least ``HANDOFF_MIN_MACS`` multiply-adds over them."""
    sizes = [layer.weights.size for layer in net.layers[1:] if isinstance(layer, DenseLayer)]
    return rows >= 2 and rows * max(sizes, default=0) >= HANDOFF_MIN_MACS


def backward(
    net: Network, batch: Minibatch, out: "ParamVector | None" = None, step=None
) -> "ParamVector":
    """Gradient of the batch-mean squared loss, as a flat parameter vector.

    The gradient is written into ``out`` when given (the smoother passes the
    network's scratch buffer ``net.grad``) and otherwise into a new vector
    that the caller owns and no later call changes.

    ``step``, when given, is called as ``step(k)`` once for every layer k,
    from the last layer to the first, once layer k's gradient in ``out`` is
    final and the pass no longer reads its parameters.  It may then change
    layer k's parameters and its slice of ``out``, and nothing else.  The
    smoother applies its SGD step this way.

    A batch on which ``hands_off`` holds is passed as two row halves, the
    first ``rows // 2`` rows and the rest, each scaled as the whole batch
    (``2 / rows``), through ``_threads.run_in_order``: this thread passes
    the first, and the second on a helper thread if one takes it first.
    The halves are summed into ``out``, and then every layer steps.  Each
    half is the same pass on either thread, so the result does not depend
    on the CPU count.  Any other batch is one pass that calls ``step(k)``
    right after layer k's input gradient ``dz @ W``, while the layer's
    gradient is in cache.
    """
    _lowered(net, batch)
    if out is None:
        out = net.params.zeros_like()
    elif out.layout != net.params.layout:
        raise NetworkShapeError("gradient buffer layout does not match the network")
    rows = len(batch)
    if not hands_off(net, rows):
        _gradient_pass(net, batch, rows, out, step)
        return out
    h = rows // 2
    second = ParamVector(np.empty_like(out.data), out.layout)
    _threads.run_in_order(lambda half: _gradient_pass(net, half[0], rows, half[1]),
                          ((batch[:h], out), (batch[h:], second)))
    out.data += second.data
    if step is not None:
        for k in range(net.n_layers - 1, -1, -1):
            step(k)
    return out


def _gradient_pass(net: Network, batch: Minibatch, rows: int, out: "ParamVector",
                   step=None) -> None:
    """The squared-loss gradient over ``batch``, scaled by ``2 / rows``, into
    ``out``; ``step(k)``, when given, runs after layer k's input gradient."""
    caches = []
    # the predictions are the call's own, so the loss gradient overwrites them
    g = _forward(net, batch, caches)
    np.subtract(g, batch.targets, out=g)
    g *= 2.0 / rows

    for k in range(net.n_layers - 1, -1, -1):
        layer = net.layers[k]
        a_k, z_k = caches[k]
        dz = g.reshape(z_k.shape)
        if k < net.n_layers - 1:
            # dz is this call's own array, and z_k the layer's activation,
            # positive where its pre-activation was; the ReLU subgradient at
            # exactly 0 is 0, and the boolean mask multiplies like 1.0/0.0
            np.multiply(dz, z_k > 0.0, out=dz)
        gw, gb = out.weights(k), out.bias(k)
        # a folded first layer's weight gradient sums over the batch on the
        # varying block; the rest is the batch-summed upstream times the sample
        block, sample = (batch.block, batch.sample) if k == 0 else _WHOLE
        if isinstance(layer, ConvLayer):
            # a_k is the patch matrix; the first layer's input gradient is never used
            in_hw = net.interfaces[k][1:] if k > 0 else None
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
        if step is not None:
            # nothing below reads layer k's parameters or gradient again
            step(k)


class ParamVector:
    """Flat float64 view of all learnable parameters (or momentum).

    ``layout`` holds one (weight shape, bias shape) pair per layer, in the
    unroll order: layer by layer, each weight block followed by its bias
    block, so ``layer(k)`` is one slice.
    """

    __slots__ = ("data", "layout", "_ends")

    def __init__(self, data: np.ndarray, layout: tuple[tuple[tuple, tuple], ...]):
        self.data = np.asarray(data, dtype=np.float64).ravel()
        self.layout = tuple(layout)
        # where each block starts, and after the last one, the total
        self._ends = (0, *itertools.accumulate(math.prod(s) for pair in self.layout for s in pair))
        if self.data.size != self._ends[-1]:
            raise NetworkShapeError(
                f"data length {self.data.size} != layout total {self._ends[-1]}"
            )

    @property
    def total_len(self) -> int:
        return self.data.size

    def weights(self, k: int) -> np.ndarray:
        return self.data[self._ends[2 * k] : self._ends[2 * k + 1]].reshape(self.layout[k][0])

    def bias(self, k: int) -> np.ndarray:
        return self.data[self._ends[2 * k + 1] : self._ends[2 * k + 2]]

    def layer(self, k: int) -> np.ndarray:
        """Layer k's weight and bias entries, as one flat view."""
        return self.data[self._ends[2 * k] : self._ends[2 * k + 2]]

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.layout)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.data), self.layout)

    @classmethod
    def zeros(cls, layout) -> "ParamVector":
        return cls(np.zeros(sum(math.prod(s) for pair in layout for s in pair)), layout)


def param_layout(net: Network) -> tuple[tuple[tuple, tuple], ...]:
    """Parameter layout for a network: a (weight shape, bias shape) pair per layer.

    A weight block has its array's shape, (n_out, n_in) for a dense layer
    and (out_c, in_c, kh, kw) for a conv one.
    """
    return tuple((layer.weights.shape, layer.bias.shape) for layer in net.layers)


def _adopt(layer, params: ParamVector, k: int):
    """A copy of layer ``k`` whose arrays are views into ``params``."""
    w, b = params.weights(k), params.bias(k)
    w[...] = layer.weights
    b[...] = layer.bias
    return replace(layer, weights=w, bias=b)


def flatten(net: Network) -> ParamVector:
    """Copy of all parameters as one flat vector in unroll order, layer
    by layer with each weight block followed by its bias block.

    The copy is a snapshot: later training does not change it.
    """
    return net.params.copy()


def unflatten(net: Network, x: ParamVector) -> None:
    """Copy the flat vector's values into the network's parameter buffer."""
    if x.layout != net.params.layout:
        raise NetworkShapeError(
            f"parameter vector layout (total {x.total_len}) does not match "
            f"network layout (total {net.params.total_len})"
        )
    net.params.data[...] = x.data


def uniform_init(net: Network, rng: np.random.Generator) -> Network:
    """Seeded fan-in uniform init: entries in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    A unit's fan-in is the size of one weight row, ``n_in`` for a dense
    layer and ``in_c*kh*kw`` for a conv one.  Each layer draws its weights,
    then its bias.
    """
    for layer in net.layers:
        bound = 1.0 / np.sqrt(math.prod(layer.weights.shape[1:]))
        layer.weights[...] = rng.uniform(-bound, bound, size=layer.weights.shape)
        layer.bias[...] = rng.uniform(-bound, bound, size=layer.bias.shape)
    return net

