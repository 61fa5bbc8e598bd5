"""Shared random-instance builders for the test suite."""

import numpy as np

from mlfas.conv import ConvLayer, conv_backward_batch, conv_forward_batch, conv_patches
from mlfas.nets import DenseLayer, Network, dense_network, uniform_init


def assert_rel(got, ref, tol=1e-12):
    """Entrywise agreement to ``tol`` relative to the reference's largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= tol * np.abs(ref).max(initial=0.0)


def random_dense_net(rng, n_hidden=None, widths=(4, 64), io=(3, 12)):
    """Random fully-connected net with 1-3 hidden layers."""
    if n_hidden is None:
        n_hidden = int(rng.integers(1, 4))
    sizes = [int(rng.integers(io[0], io[1] + 1))]
    sizes += [int(rng.integers(widths[0], widths[1] + 1)) for _ in range(n_hidden)]
    sizes.append(int(rng.integers(io[0], io[1] + 1)))
    return dense_network(sizes, rng=rng)


def random_conv_net(rng, max_channels=8, spatial=6, n_conv=None):
    """Random conv+dense net: 1-2 conv layers (or ``n_conv``) then 2 dense layers."""
    c_in = int(rng.integers(1, 4))
    h = w = spatial
    layers = []
    shape = (c_in, h, w)
    if n_conv is None:
        n_conv = int(rng.integers(1, 3))
    for _ in range(n_conv):
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
    net = Network(layers, input_shape=(c_in, h, w))
    return uniform_init(net, rng)


def write_empty_kernel_checkpoint(path):
    """Write a conv net checkpoint whose first kernel has height 0 but is otherwise consistent."""
    from mlfas.checkpoints import _CONV_HDR, _HEADER, save_network

    save_network(random_conv_net(np.random.default_rng(17), n_conv=1), path)
    raw = path.read_bytes()
    at = _HEADER.size + 4  # past the header and the first layer's kind tag
    dims = list(_CONV_HDR.unpack_from(raw, at))
    kernels_end = at + _CONV_HDR.size + 8 * int(np.prod(dims[:4]))
    dims[2] = 0
    path.write_bytes(raw[:at] + _CONV_HDR.pack(*dims) + raw[kernels_end:])


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
        p_out, pi_out = interface_matrices(t.interfaces[k + 1])
        if seg.kind == "bias":
            pi_blocks.append(pi_out)
            p_blocks.append(p_out)
            continue
        in_op = t.interfaces[k]
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


def _current_conv_backward(layer, x, upstream):
    return conv_backward_batch(layer, conv_patches(layer, x), upstream, x.shape[2:])


CURRENT_CONV = (conv_forward_batch, _current_conv_backward)


def _reference_forward_cached(net, x, conv):
    a = x
    caches = []
    n_last = net.n_layers - 1
    for k, layer in enumerate(net.layers):
        desc = net.interfaces[k]
        if isinstance(layer, ConvLayer):
            a = a.reshape(a.shape[0], desc[1], desc[2], desc[3])
            z = conv[0](layer, a)
        else:
            a = a.reshape(a.shape[0], -1)
            z = a @ layer.weights.T + layer.bias
        caches.append((a, z))
        a = np.maximum(z, 0.0) if k < n_last else z
    return a.reshape(a.shape[0], -1), caches


def reference_forward(net, x, conv=CURRENT_CONV):
    """Batched forward pass with every layer's full product, on rows of x."""
    return _reference_forward_cached(net, np.atleast_2d(np.asarray(x, dtype=np.float64)), conv)[0]


def reference_backward(net, batch, conv=CURRENT_CONV):
    """Batch-mean squared-loss gradient, one fresh array per block.

    ``conv`` is the (forward, backward) pair used for conv layers, called as
    ``forward(layer, x)`` and ``backward(layer, x, upstream)``; the default
    runs the package's conv code, ``REFERENCE_CONV`` the im2col code it
    replaced.
    """
    from mlfas.nets import ParamVector, param_layout

    x = np.atleast_2d(np.asarray(batch.inputs, dtype=np.float64))
    preds, caches = _reference_forward_cached(net, x, conv)
    b = x.shape[0]
    g = (2.0 / b) * (preds - batch.targets)

    grads = [None] * net.n_layers
    for k in range(net.n_layers - 1, -1, -1):
        layer = net.layers[k]
        a_k, z_k = caches[k]
        if k < net.n_layers - 1:
            dz = g.reshape(z_k.shape) * np.where(z_k > 0.0, 1.0, 0.0)
        else:
            dz = g.reshape(z_k.shape)
        if isinstance(layer, ConvLayer):
            gk, gb, g = conv[1](layer, a_k, dz)
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


# Reference conv layer: the im2col code the channel-major patch matrix
# replaced.  It pads with np.pad, gathers (B*oh*ow, C*kh*kw) rows from a
# 6-d transposed window view, and rebuilds the rows in the backward pass.


def _reference_windows(layer, x):
    ph, pw = layer.padding
    sh, sw = layer.stride
    kh, kw = layer.kernel_size
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw]


def reference_conv_patches(layer, x):
    """The channel-major patch matrix, gathered from the padded window view."""
    win = _reference_windows(layer, np.asarray(x, dtype=np.float64))
    b, c, oh, ow, kh, kw = win.shape
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)


def reference_conv_forward_batch(layer, x):
    """Cross-correlate a (B, C, H, W) batch; returns (B, out_c, oh, ow)."""
    x = np.asarray(x, dtype=np.float64)
    win = _reference_windows(layer, x)
    b, _, oh, ow = win.shape[0], win.shape[1], win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, -1)
    kflat = layer.kernels.reshape(layer.out_channels, -1)
    out = cols @ kflat.T
    out = out.reshape(b, oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    return out + layer.bias[None, :, None, None]


def reference_conv_backward_batch(layer, x, upstream):
    """Gradients wrt kernels, bias and input; ``upstream`` is (B, out_c, oh, ow)."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    oh, ow = layer.out_spatial(x.shape[2], x.shape[3])
    b = x.shape[0]
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    ph, pw = layer.padding

    win = _reference_windows(layer, x)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, -1)
    up_cols = upstream.transpose(0, 2, 3, 1).reshape(b * oh * ow, layer.out_channels)

    grad_bias = up_cols.sum(axis=0)
    grad_kernels = (up_cols.T @ cols).reshape(layer.kernels.shape)

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


REFERENCE_CONV = (reference_conv_forward_batch, reference_conv_backward_batch)


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
