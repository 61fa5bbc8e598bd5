"""Shared random-instance builders for the test suite."""

import numpy as np

from mlfas.conv import ConvLayer, conv_backward_batch, conv_forward_batch, conv_patches
from mlfas.harness import build_network
from mlfas.nets import DenseLayer, Minibatch, Network, forward_batch, lower_input, uniform_init
from mlfas.transfer import coarse_grid_correction, restrict_params


def assert_rel(got, ref, tol=1e-12, scale=None):
    """Entrywise agreement to ``tol`` relative to the largest entry of
    ``scale``, by default the reference itself."""
    assert got.shape == ref.shape
    scale = ref if scale is None else scale
    assert np.abs(got - ref).max(initial=0.0) <= tol * np.abs(scale).max(initial=0.0)


def dense_network(sizes, rng):
    """Fully-connected net through the given interface sizes, seeded from ``rng``."""
    return build_network(",".join(f"dense:{n}" for n in sizes[1:-1]), sizes[0], sizes[-1], rng)


def corrected(x, x_c, t, alpha):
    """A corrected copy of ``x``: the correction from ``Pi x``, with fresh scratch."""
    out = x.copy()
    coarse_grid_correction(out, x_c, t, restrict_params(t, x), alpha,
                           (x_c.zeros_like(), x.zeros_like()))
    return out


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
    weights_end = at + _CONV_HDR.size + 8 * int(np.prod(dims[:4]))
    dims[2] = 0
    path.write_bytes(raw[:at] + _CONV_HDR.pack(*dims) + raw[weights_end:])


def lowered_batch(net, inputs, targets):
    """A minibatch of the rows ``inputs``, lowered for ``net``, and ``targets``."""
    return Minibatch(lower_input(net, inputs), targets)


def random_rows(rng, net, size=5):
    """Normal (inputs, targets) rows for ``net``: (size, input_size), (size, output_size)."""
    return rng.normal(size=(size, net.input_size)), rng.normal(size=(size, net.output_size))


def random_batch(rng, net, size=5):
    """A lowered minibatch of ``random_rows``."""
    return lowered_batch(net, *random_rows(rng, net, size))


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


def explicit_transfer_matrices(t, layout):
    """Assemble full restriction/interpolation matrices from the interface maps.

    Independent assembly route (kron + block-diag over the layers' weight
    and bias blocks) used as an oracle against the blockwise
    implementation.  Row-major vec of A X B is (A kron B^T) vec(X); conv
    kernels carry an extra identity over the kernel taps, and a dense layer
    reading a flattened channel tensor sees its input interface expanded by
    kron with the spatial identity.  ``layout`` is the fine layout.
    """
    import scipy.sparse as sp

    pi_blocks, p_blocks = [], []
    for k, (shape, _) in enumerate(layout):
        p_out, pi_out = interface_matrices(t.interfaces[k + 1])
        in_op = t.interfaces[k]
        p_in, pi_in = interface_matrices(in_op)
        if len(shape) == 4:
            taps = sp.identity(shape[2] * shape[3])
            pi_blocks.append(sp.kron(pi_out, sp.kron(p_in.T, taps)))
            p_blocks.append(sp.kron(p_out, sp.kron(pi_in.T, taps)))
        else:
            spatial = sp.identity(shape[1] // in_op.n_fine)
            pi_blocks.append(sp.kron(pi_out, sp.kron(p_in, spatial).T))
            p_blocks.append(sp.kron(p_out, sp.kron(pi_in, spatial).T))
        pi_blocks.append(pi_out)
        p_blocks.append(p_out)
    big_pi = sp.block_diag(pi_blocks, format="csr")
    big_p = sp.block_diag(p_blocks, format="csr")
    return big_pi, big_p, big_p.T.tocsr()


# Reference smoother: the allocate-per-call backward and flatten/unflatten
# SGD step that the in-place versions replaced.  Kept verbatim in arithmetic
# (operand orientation, summation order, float activation masks) so the
# in-place code can be required to match it bit for bit.


def _current_conv_forward(layer, x):
    return conv_forward_batch(layer, conv_patches(layer, x), layer.out_spatial(*x.shape[2:]))


def _current_conv_backward(layer, x, upstream):
    return conv_backward_batch(layer, conv_patches(layer, x), upstream, x.shape[2:])


CURRENT_CONV = (_current_conv_forward, _current_conv_backward)


def conv_one(layer, x):
    """The package's conv forward on one (C, H, W) sample, as a batch of one."""
    return _current_conv_forward(layer, np.asarray(x, dtype=np.float64)[None])[0]


def forward_one(net, y):
    """``forward_batch`` on one input vector, lowered as a batch of one row."""
    return forward_batch(net, lower_input(net, np.asarray(y, dtype=np.float64).ravel()[None]))[0]


def _reference_forward_cached(net, x, conv):
    a = x
    caches = []
    n_last = net.n_layers - 1
    for k, layer in enumerate(net.layers):
        if isinstance(layer, ConvLayer):
            a = a.reshape((a.shape[0],) + net.interfaces[k])
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


def term_magnitudes(net, inputs, targets):
    """The size of the terms that ``reference_forward`` and
    ``reference_backward`` sum on the rows ``inputs`` and ``targets``: their
    (predictions, gradient) with every parameter, input and target replaced
    by its absolute value and the targets' sign flipped.

    Then no sum cancels and every ReLU passes, so each entry bounds the sum
    of the absolute terms behind the same entry of the real result.  Two
    orders of summing those terms differ by a rounding error relative to
    this, however small the result they cancel to.
    """
    absolute = net.copy()
    np.abs(absolute.params.data, out=absolute.params.data)
    x = np.abs(np.atleast_2d(inputs))
    return (reference_forward(absolute, x),
            reference_backward(absolute, x, -np.abs(targets)))


def reference_backward(net, inputs, targets, conv=CURRENT_CONV, rows=None):
    """Batch-mean squared-loss gradient on the raw rows ``inputs`` and
    ``targets``, one fresh array per block.

    ``rows`` is the batch size the mean divides by, by default the number
    of rows given; a row half of a batch passes the whole batch's.

    ``conv`` is the (forward, backward) pair used for conv layers, called as
    ``forward(layer, x)`` and ``backward(layer, x, upstream)``; the default
    runs the package's conv code, ``REFERENCE_CONV`` the im2col code it
    replaced.
    """
    from mlfas.nets import ParamVector, param_layout

    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    preds, caches = _reference_forward_cached(net, x, conv)
    b = x.shape[0] if rows is None else rows
    g = (2.0 / b) * (preds - targets)

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
        out.weights(k)[...] = gw
        out.bias(k)[...] = gb
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
    kflat = layer.weights.reshape(layer.out_channels, -1)
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
    grad_weights = (up_cols.T @ cols).reshape(layer.weights.shape)

    dcols = up_cols @ layer.weights.reshape(layer.out_channels, -1)
    dwin = dcols.reshape(b, oh, ow, layer.in_channels, kh, kw)
    hp, wp = x.shape[2] + 2 * ph, x.shape[3] + 2 * pw
    dx_pad = np.zeros((b, layer.in_channels, hp, wp))
    for p in range(kh):
        for q in range(kw):
            dx_pad[:, :, p : p + sh * oh : sh, q : q + sw * ow : sw] += dwin[
                :, :, :, :, p, q
            ].transpose(0, 3, 1, 2)
    dx = dx_pad[:, :, ph : hp - ph, pw : wp - pw]
    return grad_weights, grad_bias, dx


REFERENCE_CONV = (reference_conv_forward_batch, reference_conv_backward_batch)


def reference_sgd_smooth(net, momentum, cfg, rows, tilt=None):
    """SGD with momentum through flatten/unflatten copies, one per step.

    ``rows`` yields one raw (inputs, targets) pair per step.  ``tilt`` is
    the pre-scaled tau tilt (``gamma`` times the correction), subtracted
    from every step's whole gradient vector.  A batch that ``backward``
    passes as two row halves has the sum of the halves' gradients.
    """
    from mlfas.nets import flatten, hands_off, unflatten

    rows_iter = iter(rows)
    x = flatten(net)
    for _ in range(cfg.steps_per_smooth):
        inputs, targets = next(rows_iter)
        n = len(inputs)
        if hands_off(net, n):
            h = n // 2
            grad = reference_backward(net, inputs[:h], targets[:h], rows=n).data
            grad += reference_backward(net, inputs[h:], targets[h:], rows=n).data
        else:
            grad = reference_backward(net, inputs, targets).data
        if cfg.weight_decay:
            grad += cfg.weight_decay * x.data
        if tilt is not None:
            grad -= tilt.data
        momentum.data *= cfg.momentum_coeff
        momentum.data += grad
        x.data -= cfg.learning_rate * momentum.data
        unflatten(net, x)
    return net, momentum
