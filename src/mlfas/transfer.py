"""Whole-network transfer operators.

Per-interface (pi, p) pairs from the coarsening module are assembled into
three linear maps on the full parameter space: the iterate restriction
(coarse weights pi_{k+1} W_k p_k, coarse biases pi_{k+1} b_k), the
interpolation (p_{k+1} W_k^c pi_k, p_{k+1} b_k^c), and the gradient
restriction, which is exactly the transpose of the interpolation (bias
blocks therefore map by p_{k+1}^T).  None of the maps is formed as one big
matrix; everything happens blockwise through the sparse layer operators.
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
    strength_from_rows,
)
from .conv import ConvLayer, expand_interface
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
    """Operators at one layer interface.

    ``op`` acts at neuron/channel granularity; ``input_op`` is its spatial
    expansion where a dense layer reads a flattened channel tensor, and is
    the same object everywhere else.  ``matching`` is None at the identity
    end interfaces.
    """

    op: LayerTransfer
    input_op: LayerTransfer
    matching: Matching | None = None


class TransferLevel:
    """One coarsening step: per-interface operators plus shape bookkeeping.

    ``layouts`` holds the (fine, coarse) parameter layouts once a transfer
    has been applied; they are checked and built on first use, not per call.
    """

    def __init__(self, interfaces: list[InterfaceTransfer], layer_kinds: list[str]):
        self.interfaces = interfaces
        self.layer_kinds = layer_kinds
        self.fine_units = [i.op.n_fine for i in interfaces]
        self.coarse_units = [i.op.n_coarse for i in interfaces]
        self.layouts = None

    @property
    def n_layers(self) -> int:
        return len(self.layer_kinds)


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
    n_l = net.n_layers
    interfaces = [None] * (n_l + 1)
    matchings = [None] * (n_l + 1)
    for k in range(1, n_l):
        rows = similarity_rows(net.layers[k - 1])
        s = strength_from_rows(rows)
        order = None if order_rng is None else order_rng.permutation(s.n)
        matchings[k] = greedy_hem(s, theta, order=order)
    return _assemble(net, units, matchings, weighted)


def _assemble(net, units, matchings, weighted) -> TransferLevel:
    n_l = net.n_layers
    interfaces = []
    for k in range(n_l + 1):
        if matchings[k] is None:
            op = identity_transfer(units[k])
        else:
            rows = similarity_rows(net.layers[k - 1])
            op = build_transfer(matchings[k], w_rows=rows if weighted else None, weighted=weighted)
        input_op = op
        if k < n_l and isinstance(net.layers[k], DenseLayer):
            spatial = net.interface_spatial(k)
            if spatial > 1:
                input_op = expand_interface(op, spatial)
        interfaces.append(InterfaceTransfer(op=op, input_op=input_op, matching=matchings[k]))
    kinds = ["conv" if isinstance(l, ConvLayer) else "dense" for l in net.layers]
    return TransferLevel(interfaces, kinds)


def refresh_weights(t: TransferLevel, net: Network, weighted: bool = True) -> TransferLevel:
    """Rebuild the operators from current parameters, keeping the matchings.

    The weighted form carries current row norms, so it is refreshed from
    the live network between re-matchings; the pairing itself is reused.
    """
    units = net.unit_counts()
    matchings = [i.matching for i in t.interfaces]
    refreshed = _assemble(net, units, matchings, weighted)
    refreshed.layouts = t.layouts  # same matchings, so the same shapes
    return refreshed


def _rmul(dense: np.ndarray, sparse_mat) -> np.ndarray:
    # dense @ sparse via the sparse operand's transpose, keeping ndarray output
    return (sparse_mat.T @ dense.T).T


def _coarse_layout(segments: tuple[Segment, ...], t: TransferLevel) -> tuple[Segment, ...]:
    coarse = []
    offset = 0
    for seg in segments:
        k = seg.layer
        if seg.kind == "weight":
            if len(seg.shape) == 4:
                shape = (
                    t.interfaces[k + 1].op.n_coarse,
                    t.interfaces[k].op.n_coarse,
                    seg.shape[2],
                    seg.shape[3],
                )
            else:
                shape = (
                    t.interfaces[k + 1].op.n_coarse,
                    t.interfaces[k].input_op.n_coarse,
                )
        else:
            shape = (t.interfaces[k + 1].op.n_coarse,)
        cseg = Segment(layer=k, kind=seg.kind, offset=offset, shape=shape)
        coarse.append(cseg)
        offset += cseg.size
    return tuple(coarse)


def _check_fine(seg: Segment, t: TransferLevel) -> None:
    k = seg.layer
    if seg.kind == "bias":
        expected = (t.interfaces[k + 1].op.n_fine,)
    elif len(seg.shape) == 4:
        expected = (t.interfaces[k + 1].op.n_fine, t.interfaces[k].op.n_fine) + seg.shape[2:]
    else:
        expected = (t.interfaces[k + 1].op.n_fine, t.interfaces[k].input_op.n_fine)
    if seg.shape != expected:
        raise NetworkShapeError(
            f"layer {k} {seg.kind} shape {seg.shape} does not match transfer shape {expected}"
        )


def _fine_layout(segments: tuple[Segment, ...], t: TransferLevel) -> tuple[Segment, ...]:
    fine = []
    offset = 0
    for seg in segments:
        k = seg.layer
        if seg.kind == "bias":
            shape = (t.interfaces[k + 1].op.n_fine,)
        elif len(seg.shape) == 4:
            shape = (t.interfaces[k + 1].op.n_fine, t.interfaces[k].op.n_fine) + seg.shape[2:]
        else:
            shape = (t.interfaces[k + 1].op.n_fine, t.interfaces[k].input_op.n_fine)
        fseg = Segment(layer=k, kind=seg.kind, offset=offset, shape=shape)
        fine.append(fseg)
        offset += fseg.size
    return tuple(fine)


def _coarse_of(t: TransferLevel, fine: tuple[Segment, ...]) -> tuple[Segment, ...]:
    """Coarse layout for vectors laid out as ``fine``, cached on the level."""
    if t.layouts is None or t.layouts[0] != fine:
        for seg in fine:
            _check_fine(seg, t)
        t.layouts = (fine, _coarse_layout(fine, t))
    return t.layouts[1]


def _fine_of(t: TransferLevel, coarse: tuple[Segment, ...]) -> tuple[Segment, ...]:
    """Fine layout for vectors laid out as ``coarse``, cached on the level."""
    if t.layouts is None or t.layouts[1] != coarse:
        t.layouts = (_fine_layout(coarse, t), coarse)
    return t.layouts[0]


def restrict_params(
    t: TransferLevel, x: ParamVector, out: ParamVector | None = None
) -> ParamVector:
    """Map a fine parameter vector to the coarse space (iterate restriction).

    The result is written into ``out`` when given (for example a coarse
    network's ``params``) and into a new vector otherwise.
    """
    coarse = _coarse_of(t, x.segments)
    if out is None:
        out = ParamVector.zeros(coarse)
    elif out.segments != coarse:
        raise ParamLayoutError("output vector layout does not match the transfer level")
    for k in range(t.n_layers):
        pi_out = t.interfaces[k + 1].op
        w = x.view(k, "weight")
        if t.layer_kinds[k] == "conv":
            p_in = t.interfaces[k].op.p_dense()
            out.view(k, "weight")[...] = np.einsum(
                "ao,oipq,ib->abpq", pi_out.pi_dense(), w, p_in
            )
        else:
            out.view(k, "weight")[...] = pi_out.pi @ _rmul(w, t.interfaces[k].input_op.p)
        out.view(k, "bias")[...] = pi_out.pi @ x.view(k, "bias")
    return out


def prolong_params(t: TransferLevel, x_c: ParamVector) -> ParamVector:
    """Interpolate a coarse parameter vector back to the fine space."""
    out = ParamVector.zeros(_fine_of(t, x_c.segments))
    for k in range(t.n_layers):
        p_out = t.interfaces[k + 1].op
        wc = x_c.view(k, "weight")
        if t.layer_kinds[k] == "conv":
            pi_in = t.interfaces[k].op.pi_dense()
            out.view(k, "weight")[...] = np.einsum(
                "oa,abpq,bi->oipq", p_out.p_dense(), wc, pi_in
            )
        else:
            out.view(k, "weight")[...] = p_out.p @ _rmul(wc, t.interfaces[k].input_op.pi)
        out.view(k, "bias")[...] = p_out.p @ x_c.view(k, "bias")
    return out


def restrict_gradient(t: TransferLevel, grad: ParamVector) -> ParamVector:
    """Apply the transpose of the interpolation to a fine gradient."""
    out = ParamVector.zeros(_coarse_of(t, grad.segments))
    for k in range(t.n_layers):
        p_out = t.interfaces[k + 1].op
        g = grad.view(k, "weight")
        if t.layer_kinds[k] == "conv":
            pi_in = t.interfaces[k].op.pi_dense()
            out.view(k, "weight")[...] = np.einsum(
                "oa,oipq,bi->abpq", p_out.p_dense(), g, pi_in
            )
        else:
            out.view(k, "weight")[...] = p_out.p.T @ _rmul(g, t.interfaces[k].input_op.pi.T)
        out.view(k, "bias")[...] = p_out.p.T @ grad.view(k, "bias")
    return out


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
