"""Shared random-instance builders for the test suite."""

import numpy as np

from mlfas.conv import ConvLayer
from mlfas.nets import DenseLayer, Network, dense_network, uniform_init


def random_dense_net(rng, n_hidden=None, widths=(4, 64), io=(3, 12), **kwargs):
    """Random fully-connected net with 1-3 hidden layers."""
    if n_hidden is None:
        n_hidden = int(rng.integers(1, 4))
    sizes = [int(rng.integers(io[0], io[1] + 1))]
    sizes += [int(rng.integers(widths[0], widths[1] + 1)) for _ in range(n_hidden)]
    sizes.append(int(rng.integers(io[0], io[1] + 1)))
    return dense_network(sizes, rng=rng, **kwargs)


def random_conv_net(rng, max_channels=8, spatial=6, **kwargs):
    """Random conv+dense net: 1-2 conv layers then 1-2 dense layers."""
    c_in = int(rng.integers(1, 4))
    h = w = spatial
    layers = []
    shape = (c_in, h, w)
    for _ in range(int(rng.integers(1, 3))):
        out_c = int(rng.integers(2, max_channels + 1))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 2))
        stride = int(rng.integers(1, 3))
        if (shape[1] + 2 * pad - k) // stride + 1 < 1:
            k, stride, pad = 1, 1, 0
        layer = ConvLayer(
            np.zeros((out_c, shape[0], k, k)), np.zeros(out_c),
            stride=(stride, stride), padding=(pad, pad),
        )
        oh = (shape[1] + 2 * pad - k) // stride + 1
        ow = (shape[2] + 2 * pad - k) // stride + 1
        layers.append(layer)
        shape = (out_c, oh, ow)
    flat = shape[0] * shape[1] * shape[2]
    hidden = int(rng.integers(4, 17))
    layers.append(DenseLayer(np.zeros((hidden, flat)), np.zeros(hidden)))
    out = int(rng.integers(2, 7))
    layers.append(DenseLayer(np.zeros((out, hidden)), np.zeros(out)))
    net = Network(layers, input_shape=(c_in, h, w), **kwargs)
    return uniform_init(net, rng)


def random_batch(rng, net, size=5):
    from mlfas.nets import Minibatch

    return Minibatch(
        rng.normal(size=(size, net.input_size)),
        rng.normal(size=(size, net.output_size)),
    )


def interface_matrices(op):
    """Sparse (P, Pi) of one interface, assembled from ``aggregate`` and the unit weights.

    Row i of P holds ``op.p[i]`` at column ``aggregate[i]``; column i of Pi
    holds ``op.pi[i]`` at row ``aggregate[i]``.
    """
    import scipy.sparse as sp

    units = np.arange(op.n_fine)
    shape = (op.n_fine, op.n_coarse)
    p = sp.csr_matrix((op.p, (units, op.aggregate)), shape=shape)
    pi = sp.csr_matrix((op.pi, (op.aggregate, units)), shape=shape[::-1])
    return p, pi


def explicit_transfer_matrices(t, segments):
    """Assemble full restriction/interpolation matrices from the interface maps.

    Independent assembly route (kron + block-diag over the segment order)
    used as an oracle against the blockwise implementation.  Row-major vec
    of A X B is (A kron B^T) vec(X); conv kernels carry an extra identity
    over the kernel taps, and a dense layer reading a flattened channel
    tensor sees its input interface expanded by kron with the spatial
    identity.  ``segments`` is the fine layout.
    """
    import scipy.sparse as sp

    pi_blocks, p_blocks = [], []
    for seg in segments:
        k = seg.layer
        p_out, pi_out = interface_matrices(t.interfaces[k + 1].op)
        if seg.kind == "bias":
            pi_blocks.append(pi_out)
            p_blocks.append(p_out)
            continue
        in_op = t.interfaces[k].op
        p_in, pi_in = interface_matrices(in_op)
        if len(seg.shape) == 4:
            taps = sp.identity(seg.shape[2] * seg.shape[3])
            pi_blocks.append(sp.kron(pi_out, sp.kron(p_in.T, taps)))
            p_blocks.append(sp.kron(p_out, sp.kron(pi_in.T, taps)))
        else:
            spatial = sp.identity(seg.shape[1] // in_op.n_fine)
            pi_blocks.append(sp.kron(pi_out, sp.kron(p_in, spatial).T))
            p_blocks.append(sp.kron(p_out, sp.kron(pi_in, spatial).T))
    big_pi = sp.block_diag(pi_blocks, format="csr")
    big_p = sp.block_diag(p_blocks, format="csr")
    return big_pi, big_p, big_p.T.tocsr()


# Reference smoother: the allocate-per-call backward and flatten/unflatten
# SGD step that the in-place versions replaced.  Kept verbatim in arithmetic
# (operand orientation, summation order, float activation masks) so the
# in-place code can be required to match it bit for bit.


def _reference_act(net, z):
    if net.activation == "relu":
        return np.maximum(z, 0.0)
    return np.where(z > 0.0, z, net.leak * z)


def _reference_act_grad(net, z):
    if net.activation == "relu":
        return np.where(z > 0.0, 1.0, 0.0)
    return np.where(z > 0.0, 1.0, net.leak)


def _reference_forward_cached(net, x):
    from mlfas.conv import conv_forward_batch

    a = x
    caches = []
    n_last = net.n_layers - 1
    for k, layer in enumerate(net.layers):
        desc = net.interfaces[k]
        if isinstance(layer, ConvLayer):
            a = a.reshape(a.shape[0], desc[1], desc[2], desc[3])
            z = conv_forward_batch(layer, a)
        else:
            a = a.reshape(a.shape[0], -1)
            z = a @ layer.weights.T + layer.bias
        caches.append((a, z))
        if k < n_last or net.output_activation:
            a = _reference_act(net, z)
        else:
            a = z
    return a.reshape(a.shape[0], -1), caches


def reference_backward(net, batch):
    """Batch-mean squared-loss gradient, one fresh array per block."""
    from mlfas.conv import conv_backward_batch
    from mlfas.nets import ParamVector, param_layout

    x = np.atleast_2d(np.asarray(batch.inputs, dtype=np.float64))
    preds, caches = _reference_forward_cached(net, x)
    b = x.shape[0]
    g = (2.0 / b) * (preds - batch.targets)

    grads = [None] * net.n_layers
    for k in range(net.n_layers - 1, -1, -1):
        layer = net.layers[k]
        a_k, z_k = caches[k]
        if k < net.n_layers - 1 or net.output_activation:
            dz = g.reshape(z_k.shape) * _reference_act_grad(net, z_k)
        else:
            dz = g.reshape(z_k.shape)
        if isinstance(layer, ConvLayer):
            gk, gb, g = conv_backward_batch(layer, a_k, dz)
            grads[k] = (gk, gb)
        else:
            grads[k] = (dz.T @ a_k, dz.sum(axis=0))
            if k > 0:
                g = dz @ layer.weights

    out = ParamVector.zeros(param_layout(net))
    for k, (gw, gb) in enumerate(grads):
        out.view(k, "weight")[...] = gw
        out.view(k, "bias")[...] = gb
    return out


def reference_sgd_smooth(net, momentum, cfg, batches, tau=None, gamma=0.0):
    """SGD with momentum through flatten/unflatten copies, one per step."""
    from mlfas.nets import flatten, unflatten

    batch_iter = iter(batches)
    x = flatten(net)
    for _ in range(cfg.steps_per_smooth):
        batch = next(batch_iter)
        grad = reference_backward(net, batch).data
        if cfg.weight_decay:
            grad += cfg.weight_decay * x.data
        if tau is not None and gamma != 0.0:
            grad -= gamma * tau.vec.data
        momentum.data *= cfg.momentum_coeff
        momentum.data += grad
        x.data -= cfg.learning_rate * momentum.data
        unflatten(net, x)
    return net, momentum
