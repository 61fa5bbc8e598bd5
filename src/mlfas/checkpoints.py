"""Binary network checkpoints.

Versioned little-endian container: an 8-byte magic, format metadata, then
one record per layer with a kind tag, integer dims, and the row-major
float64 parameter blocks.  The exact layout is documented in the README.
Networks have ReLU hidden layers and a linear output layer, so the header's
activation fields are fixed: ``save_network`` writes relu (0), a linear
output (0) and a leak of 0.01, and ``load_network`` rejects any other
activation or output tag and ignores the leak.
"""

import struct

import numpy as np

from .conv import ConvLayer
from .nets import DenseLayer, Network

NETWORK_MAGIC = b"MLFASNET"
NETWORK_VERSION = 1

_HEADER = struct.Struct("<8sIIIdIIIII")
# magic, version, activation tag, output tag, leak,
# input kind (0 flat / 1 channels), 3 input dims, layer count
_DENSE_HDR = struct.Struct("<II")  # n_out, n_in
_CONV_HDR = struct.Struct("<8I")  # out_c, in_c, kh, kw, sh, sw, ph, pw

# the fixed activation fields; the leak is the value v1 files always held
_RELU, _LINEAR_OUTPUT, _LEAK = 0, 0, 0.01

KIND_DENSE = 0
KIND_CONV = 1


class CheckpointFormatError(ValueError):
    """Checkpoint file is not a valid MLFASNET container."""


def save_network(net: Network, path) -> None:
    if isinstance(net.input_shape, tuple):
        in_kind, dims = 1, net.input_shape
    else:
        in_kind, dims = 0, (net.input_shape, 0, 0)
    parts = [
        _HEADER.pack(
            NETWORK_MAGIC,
            NETWORK_VERSION,
            _RELU,
            _LINEAR_OUTPUT,
            _LEAK,
            in_kind,
            dims[0],
            dims[1],
            dims[2],
            net.n_layers,
        )
    ]
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            parts.append(struct.pack("<I", KIND_CONV))
            parts.append(
                _CONV_HDR.pack(
                    *layer.kernels.shape, layer.stride[0], layer.stride[1],
                    layer.padding[0], layer.padding[1],
                )
            )
            parts.append(layer.kernels.astype("<f8").tobytes())
        else:
            parts.append(struct.pack("<I", KIND_DENSE))
            parts.append(_DENSE_HDR.pack(layer.n_out, layer.n_in))
            parts.append(layer.weights.astype("<f8").tobytes())
        parts.append(layer.bias.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.raw):
            raise CheckpointFormatError(f"{self.path}: truncated file")
        out = self.raw[self.pos : self.pos + size]
        self.pos += size
        return out

    def floats(self, count: int) -> np.ndarray:
        # a read-only view of the file bytes; the network copies it into its buffer
        return np.frombuffer(self.take(count * 8), dtype="<f8")


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    magic, version, act, out_act, _, in_kind, d0, d1, d2, n_layers = _HEADER.unpack(
        r.take(_HEADER.size)
    )
    if magic != NETWORK_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
    if version != NETWORK_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    if act != _RELU:
        raise CheckpointFormatError(f"{path}: activation tag {act} is not 0 (relu)")
    if out_act != _LINEAR_OUTPUT:
        raise CheckpointFormatError(f"{path}: output activation tag {out_act} is not 0 (linear)")
    if in_kind not in (0, 1):
        raise CheckpointFormatError(f"{path}: unknown input kind tag {in_kind}")
    layers = []
    for k in range(n_layers):
        (kind,) = struct.unpack("<I", r.take(4))
        if kind == KIND_CONV:
            a, b, kh, kw, sh, sw, ph, pw = _CONV_HDR.unpack(r.take(_CONV_HDR.size))
            kernels = r.floats(a * b * kh * kw).reshape(a, b, kh, kw)
            bias = r.floats(a)
            layers.append(ConvLayer(kernels, bias, stride=(sh, sw), padding=(ph, pw)))
        elif kind == KIND_DENSE:
            n_out, n_in = _DENSE_HDR.unpack(r.take(_DENSE_HDR.size))
            weights = r.floats(n_out * n_in).reshape(n_out, n_in)
            bias = r.floats(n_out)
            layers.append(DenseLayer(weights, bias))
        else:
            raise CheckpointFormatError(f"{path}: unknown layer kind {kind} at layer {k}")
    if r.pos != len(r.raw):
        raise CheckpointFormatError(f"{path}: {len(r.raw) - r.pos} trailing bytes")
    input_shape = (d0, d1, d2) if in_kind == 1 else d0
    return Network(layers, input_shape=input_shape)
