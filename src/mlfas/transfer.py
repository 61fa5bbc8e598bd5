"""Whole-network transfer operators.

A ``TransferLevel`` is the one record of a coarsening step: the fine
network's pairwise map (``LayerTransfer``) at every layer interface, the
input and output ones pinned to the identity so only hidden widths (or
channel counts) change, with the fine and coarse parameter layouts fixed
when it is built.  Its maps are applied blockwise to give three linear maps
on the full parameter space: the iterate restriction (coarse weights
pi_{k+1} W_k p_k, coarse biases pi_{k+1} b_k), the interpolation
(p_{k+1} W_k^c pi_k, p_{k+1} b_k^c), and the gradient restriction, which is
exactly the transpose of the interpolation (bias blocks therefore map by
p_{k+1}^T).  One routine serves all three: it maps axis 1 of each weight
block by the input interface, then axis 0 and the bias by the output
interface.  A dense layer reading a flattened (C, H, W) tensor is mapped as
a (out, C, H*W) array, so each channel's columns move together.
"""

import math

import numpy as np

from .coarsening import (
    LayerTransfer,
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


class TransferLevel:
    """One coarsening step of ``net``: a pairwise map per interface.

    ``interfaces`` holds a ``LayerTransfer`` per interface of ``net`` (len
    n_layers + 1): the identity at the input and output and the given
    ``hidden`` maps between them, whose fine widths must be the network's.
    ``layouts`` holds the (fine, coarse) parameter layouts and ``scratch``
    two work arrays of the largest fine block's size, which every
    application of the level reuses for a block's input-axis map and a pair
    sum's mate term.  Both are fixed here; ``refresh_weights`` keeps them.
    """

    def __init__(self, net: Network, hidden: list[LayerTransfer]):
        units = net.unit_counts()
        self.interfaces = [identity_transfer(units[0]), *hidden, identity_transfer(units[-1])]
        widths = [op.n_fine for op in self.interfaces]
        if widths != units:
            raise NetworkShapeError(
                f"transfer widths {widths} do not match the network's unit counts {units}"
            )
        fine = net.params.segments
        coarse, offset = [], 0
        for seg in fine:
            k = seg.layer
            n_out = self.interfaces[k + 1].n_coarse
            if seg.kind == "bias":
                shape = (n_out,)
            elif len(seg.shape) == 4:  # conv kernels keep their taps
                shape = (n_out, self.interfaces[k].n_coarse) + seg.shape[2:]
            else:  # dense blocks keep their columns per input unit (or channel)
                shape = (n_out, self.interfaces[k].n_coarse * (seg.shape[1] // units[k]))
            coarse.append(Segment(k, seg.kind, offset, shape))
            offset += coarse[-1].size
        self.layouts = (fine, tuple(coarse))
        # every intermediate of a block (a map along one axis) and every mate
        # term is at most as large as the block's fine side
        size = max(seg.size for seg in fine)
        self.scratch = (np.empty(size), np.empty(size))

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
    hidden = []
    for k in range(1, net.n_layers):
        rows = similarity_rows(net.layers[k - 1])
        s = strength_from_rows(rows)
        order = None if order_rng is None else order_rng.permutation(s.n)
        m = greedy_hem(s, theta, order=order)
        hidden.append(build_transfer(m, w_rows=rows if weighted else None, weighted=weighted))
    return TransferLevel(net, hidden)


def refresh_weights(t: TransferLevel, net: Network) -> TransferLevel:
    """Recompute the weighted interfaces' row norms from current parameters.

    The weighted form carries the live row norms, so it is refreshed from
    the network between re-matchings.  Each weighted interface is replaced
    in ``t`` by its reweighted form, with the same aggregates; plain
    interfaces, the layouts and the scratch arrays stay as they are.
    Returns ``t``.
    """
    for k, op in enumerate(t.interfaces):
        if op.weighted:
            t.interfaces[k] = reweight(op, similarity_rows(net.layers[k - 1]))
    return t


def _map_params(t, x, out, primitive, w_out, w_in) -> ParamVector:
    """Apply a whole-network map blockwise, into ``out`` or a new vector.

    ``primitive`` is ``LayerTransfer.pair_sum`` (fine -> coarse) or
    ``LayerTransfer.gather`` (coarse -> fine); ``w_out`` and ``w_in`` name
    the unit weights ("p" or "pi") used at each block's output and input
    interface.
    """
    side = 1 if primitive is LayerTransfer.gather else 0
    if x.segments != t.layouts[side]:
        raise NetworkShapeError(
            f"vector block shapes {[s.shape for s in x.segments]} do not match the "
            f"transfer level's {('fine', 'coarse')[side]} shapes "
            f"{[s.shape for s in t.layouts[side]]}"
        )
    target = t.layouts[1 - side]
    if out is None:
        out = ParamVector.zeros(target)
    elif out.segments != target:
        raise ParamLayoutError("output vector layout does not match the transfer level")
    mid, mate = t.scratch
    # pair sums write their mate term into ``mate``; gathers have none
    work = {} if side else {"scratch": mate}

    def along(op, a, w, axis, res):
        # the identity end interfaces (and unmatched plain ones) copy ``a`` as it is
        if op.is_identity:
            res[...] = a
        else:
            primitive(op, a, getattr(op, w), axis, out=res, **work)
        return res

    for k in range(t.n_layers):
        op_out, op_in = t.interfaces[k + 1], t.interfaces[k]
        units = (op_in.n_fine, op_in.n_coarse)
        w = x.view(k, "weight")
        w = w.reshape(w.shape[0], units[side], -1)
        if not op_in.is_identity:
            shape = (w.shape[0], units[1 - side], w.shape[2])
            w = along(op_in, w, w_in, 1, mid[: math.prod(shape)].reshape(shape))
        res = out.view(k, "weight")
        along(op_out, w, w_out, 0, res.reshape(res.shape[0], *w.shape[1:]))
        along(op_out, x.view(k, "bias"), w_out, 0, out.view(k, "bias"))
    return out


def restrict_params(
    t: TransferLevel, x: ParamVector, out: ParamVector | None = None
) -> ParamVector:
    """Map a fine parameter vector to the coarse space (iterate restriction).

    The result is written into ``out`` when given (for example a coarse
    network's ``params``) and into a new vector otherwise.
    """
    return _map_params(t, x, out, LayerTransfer.pair_sum, "pi", "p")


def prolong_params(
    t: TransferLevel, x_c: ParamVector, out: ParamVector | None = None
) -> ParamVector:
    """Interpolate a coarse parameter vector back to the fine space.

    The result is written into ``out`` when given (for example a fine
    network's ``grad``) and into a new vector otherwise.
    """
    return _map_params(t, x_c, out, LayerTransfer.gather, "p", "pi")


def restrict_gradient(
    t: TransferLevel, grad: ParamVector, out: ParamVector | None = None
) -> ParamVector:
    """Apply the transpose of the interpolation to a fine gradient.

    The result is written into ``out`` when given (for example a coarse
    network's ``grad``) and into a new vector otherwise.
    """
    return _map_params(t, grad, out, LayerTransfer.pair_sum, "p", "pi")


def coarse_grid_correction(
    x: ParamVector,
    x_c_new: ParamVector,
    t: TransferLevel,
    alpha: float = 1.0,
    out: ParamVector | None = None,
    scratch: tuple[ParamVector, ParamVector] | None = None,
) -> ParamVector:
    """FAS update x + alpha * P(x_c_new - Pi x).

    The result is written into ``out`` when given, which may be ``x`` itself
    (the V-cycle corrects a network's ``params`` in place), and into a new
    vector otherwise.  ``scratch`` is a (coarse, fine) pair of vectors that
    the call may overwrite with the restricted difference and the prolonged
    step (the V-cycle passes the two networks' ``grad``); they must not
    share memory with ``x``, ``x_c_new`` or ``out``.  Without it the two
    are new vectors.
    """
    delta, step = (None, None) if scratch is None else scratch
    delta = restrict_params(t, x, out=delta)
    if x_c_new.segments != delta.segments:
        raise NetworkShapeError("coarse vector layout does not match the transfer level")
    np.subtract(x_c_new.data, delta.data, out=delta.data)
    step = prolong_params(t, delta, out=step)
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
