"""Whole-network transfer operators.

Per-interface pairwise maps from the coarsening module are applied blockwise
to give three linear maps on the full parameter space: the iterate
restriction (coarse weights pi_{k+1} W_k p_k, coarse biases pi_{k+1} b_k),
the interpolation (p_{k+1} W_k^c pi_k, p_{k+1} b_k^c), and the gradient
restriction, which is exactly the transpose of the interpolation (bias
blocks therefore map by p_{k+1}^T).  One routine serves all three: it maps
axis 1 of each weight block by the input interface, then axis 0 and the bias
by the output interface.  A dense layer reading a flattened (C, H, W) tensor
is mapped as a (out, C, H*W) array, so each channel's columns move together.
Input and output interfaces are pinned to the identity, so only hidden
widths (or channel counts) change.
"""

from dataclasses import dataclass

import numpy as np

from .coarsening import (
    LayerTransfer,
    Matching,
    build_transfer,
    greedy_hem,
    identity_transfer,
    reweight,
    strength_from_rows,
)
from .conv import ConvLayer
from .nets import (
    DenseLayer,
    Network,
    NetworkShapeError,
    ParamLayoutError,
    ParamVector,
    Segment,
    flatten,  # not called here; perfbench/tracer.py rebinds it at this module
)


@dataclass
class InterfaceTransfer:
    """The pairwise map at one layer interface.

    ``matching`` is None at the identity end interfaces.
    """

    op: LayerTransfer
    matching: Matching | None = None


class TransferLevel:
    """One coarsening step: per-interface maps plus shape bookkeeping.

    ``units`` holds the (fine, coarse) unit counts per interface and
    ``spatial[k]`` the spatial size of interface k
    (``Network.interface_spatial``); a dense layer reading it has that many
    columns per channel.  ``layouts`` holds the (fine, coarse) parameter
    layouts once a transfer has been applied; they are checked and built on
    first use, not per call.
    """

    def __init__(self, interfaces: list[InterfaceTransfer], spatial: list[int]):
        self.interfaces = interfaces
        self.spatial = spatial
        self.units = (
            [i.op.n_fine for i in interfaces],
            [i.op.n_coarse for i in interfaces],
        )
        self.layouts = None

    @property
    def n_layers(self) -> int:
        return len(self.interfaces) - 1


def similarity_rows(layer) -> np.ndarray:
    """Row stack whose cosine angles define unit similarity for a layer.

    Dense layers contribute weight rows; conv layers the vectorized
    per-output-channel kernels.  Bias entries are excluded.
    """
    if isinstance(layer, ConvLayer):
        return layer.kernels.reshape(layer.out_channels, -1)
    return layer.weights


def coarsen_network(
    net: Network,
    theta: float = 0.1,
    weighted: bool = True,
    order_rng: np.random.Generator | None = None,
) -> TransferLevel:
    """Build transfer operators for one coarsening step of a network.

    Hidden interfaces get a heavy-edge matching of the units feeding them;
    the input and output interfaces stay identity.  ``order_rng``, when
    given, randomizes the matching visit order.
    """
    units = net.unit_counts()
    interfaces = [InterfaceTransfer(identity_transfer(units[0]))]
    for k in range(1, net.n_layers):
        rows = similarity_rows(net.layers[k - 1])
        s = strength_from_rows(rows)
        order = None if order_rng is None else order_rng.permutation(s.n)
        m = greedy_hem(s, theta, order=order)
        op = build_transfer(m, w_rows=rows if weighted else None, weighted=weighted)
        interfaces.append(InterfaceTransfer(op, m))
    interfaces.append(InterfaceTransfer(identity_transfer(units[-1])))
    return TransferLevel(interfaces, [net.interface_spatial(k) for k in range(net.n_layers)])


def refresh_weights(t: TransferLevel, net: Network) -> TransferLevel:
    """Recompute the weighted interfaces' row norms from current parameters.

    The weighted form carries the live row norms, so it is refreshed from
    the network between re-matchings; the pairing and every plain interface
    are reused as they are.
    """
    interfaces = [
        InterfaceTransfer(reweight(i.op, similarity_rows(net.layers[k - 1])), i.matching)
        if i.op.weighted
        else i
        for k, i in enumerate(t.interfaces)
    ]
    refreshed = TransferLevel(interfaces, t.spatial)
    refreshed.layouts = t.layouts  # same matchings, so the same shapes
    return refreshed


def _shape(t: TransferLevel, seg: Segment, side: int) -> tuple[int, ...]:
    """Shape of ``seg``'s block on one side of the level (0 fine, 1 coarse)."""
    units = t.units[side]
    k = seg.layer
    if seg.kind == "bias":
        return (units[k + 1],)
    if len(seg.shape) == 4:
        return (units[k + 1], units[k]) + seg.shape[2:]
    return (units[k + 1], units[k] * t.spatial[k])


def _layouts(t: TransferLevel, segments: tuple[Segment, ...], side: int):
    """(fine, coarse) layouts for vectors laid out as ``segments`` on ``side``.

    The pair is checked, built and cached on the level on first use.
    """
    if t.layouts is None or t.layouts[side] != segments:
        other, offset = [], 0
        for seg in segments:
            if seg.shape != _shape(t, seg, side):
                raise NetworkShapeError(
                    f"layer {seg.layer} {seg.kind} shape {seg.shape} does not match "
                    f"transfer shape {_shape(t, seg, side)}"
                )
            other.append(Segment(seg.layer, seg.kind, offset, _shape(t, seg, 1 - side)))
            offset += other[-1].size
        t.layouts = (segments, tuple(other)) if side == 0 else (tuple(other), segments)
    return t.layouts


def _map_params(t, x, out, primitive, w_out, w_in) -> ParamVector:
    """Apply a whole-network map blockwise, into ``out`` or a new vector.

    ``primitive`` is ``LayerTransfer.pair_sum`` (fine -> coarse) or
    ``LayerTransfer.gather`` (coarse -> fine); ``w_out`` and ``w_in`` name
    the unit weights ("p" or "pi") used at each block's output and input
    interface.
    """
    side = 1 if primitive is LayerTransfer.gather else 0
    target = _layouts(t, x.segments, side)[1 - side]
    if out is None:
        out = ParamVector.zeros(target)
    elif out.segments != target:
        raise ParamLayoutError("output vector layout does not match the transfer level")

    def along(op, a, w, axis):
        # the identity end interfaces (and unmatched plain ones) leave ``a`` as it is
        return a if op.is_identity else primitive(op, a, getattr(op, w), axis)

    for k in range(t.n_layers):
        op_out, op_in = t.interfaces[k + 1].op, t.interfaces[k].op
        w = x.view(k, "weight")
        w = along(op_in, w.reshape(w.shape[0], t.units[side][k], -1), w_in, 1)
        res = out.view(k, "weight")
        res[...] = along(op_out, w, w_out, 0).reshape(res.shape)
        out.view(k, "bias")[...] = along(op_out, x.view(k, "bias"), w_out, 0)
    return out


def restrict_params(
    t: TransferLevel, x: ParamVector, out: ParamVector | None = None
) -> ParamVector:
    """Map a fine parameter vector to the coarse space (iterate restriction).

    The result is written into ``out`` when given (for example a coarse
    network's ``params``) and into a new vector otherwise.
    """
    return _map_params(t, x, out, LayerTransfer.pair_sum, "pi", "p")


def prolong_params(t: TransferLevel, x_c: ParamVector) -> ParamVector:
    """Interpolate a coarse parameter vector back to the fine space."""
    return _map_params(t, x_c, None, LayerTransfer.gather, "p", "pi")


def restrict_gradient(t: TransferLevel, grad: ParamVector) -> ParamVector:
    """Apply the transpose of the interpolation to a fine gradient."""
    return _map_params(t, grad, None, LayerTransfer.pair_sum, "p", "pi")


def coarse_grid_correction(
    x: ParamVector,
    x_c_new: ParamVector,
    t: TransferLevel,
    alpha: float = 1.0,
    out: ParamVector | None = None,
) -> ParamVector:
    """FAS update x + alpha * P(x_c_new - Pi x).

    The result is written into ``out`` when given, which may be ``x`` itself
    (the V-cycle corrects a network's ``params`` in place), and into a new
    vector otherwise.
    """
    delta = restrict_params(t, x)
    if x_c_new.segments != delta.segments:
        raise NetworkShapeError("coarse vector layout does not match the transfer level")
    np.subtract(x_c_new.data, delta.data, out=delta.data)
    step = prolong_params(t, delta)
    step.data *= alpha
    if out is None:
        out = x.zeros_like()
    elif out.segments != x.segments:
        raise ParamLayoutError("output vector layout does not match the fine vector")
    np.add(x.data, step.data, out=out.data)
    return out


def restrict_network(net: Network, t: TransferLevel) -> Network:
    """Build the coarse network induced by a transfer level.

    Layer kinds, activation, strides and paddings are preserved; hidden
    widths and channel counts shrink per the matchings.
    """
    x_c = restrict_params(t, net.params)
    layers = []
    for k, layer in enumerate(net.layers):
        w, b = x_c.view(k, "weight"), x_c.view(k, "bias")
        if isinstance(layer, ConvLayer):
            layers.append(ConvLayer(w, b, stride=layer.stride, padding=layer.padding))
        else:
            layers.append(DenseLayer(w, b))
    # the network copies the restricted values into a buffer of its own
    return Network(
        layers,
        activation=net.activation,
        leak=net.leak,
        output_activation=net.output_activation,
        input_shape=net.input_shape,
    )
