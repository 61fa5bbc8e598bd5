"""Network checkpoint container round trips and error handling."""

import numpy as np
import pytest

from _builders import random_conv_net, random_dense_net, write_empty_kernel_checkpoint
from mlfas.checkpoints import _HEADER, CheckpointFormatError, load_network, save_network
from mlfas.conv import ConvShapeError
from mlfas.nets import flatten


@pytest.mark.parametrize("conv", [False, True])
def test_roundtrip_bit_exact(tmp_path, conv):
    rng = np.random.default_rng(3 + conv)
    net = (random_conv_net if conv else random_dense_net)(rng)
    path = tmp_path / "net.mlfasnet"
    save_network(net, path)
    back = load_network(path)
    assert np.array_equal(flatten(back).data, flatten(net).data)
    assert back.input_shape == net.input_shape
    assert back.unit_counts() == net.unit_counts()
    if conv:
        for a, b in zip(net.layers, back.layers):
            if hasattr(a, "stride"):
                assert a.stride == b.stride and a.padding == b.padding


def test_bad_magic(tmp_path):
    net = random_dense_net(np.random.default_rng(7))
    path = tmp_path / "net.mlfasnet"
    save_network(net, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_network(path)


def test_truncation(tmp_path):
    net = random_dense_net(np.random.default_rng(9))
    path = tmp_path / "net.mlfasnet"
    save_network(net, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_network(path)


def test_trailing_garbage(tmp_path):
    net = random_dense_net(np.random.default_rng(11))
    path = tmp_path / "net.mlfasnet"
    save_network(net, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_network(path)


def saved_with_header(tmp_path, **fields):
    """A saved dense net whose header fields are then overwritten by ``fields``."""
    path = tmp_path / "net.mlfasnet"
    save_network(random_dense_net(np.random.default_rng(13)), path)
    raw = bytearray(path.read_bytes())
    names = ("magic", "version", "act", "out_act", "leak", "in_kind", "d0", "d1", "d2", "n_layers")
    header = dict(zip(names, _HEADER.unpack_from(raw)))
    header.update(fields)
    _HEADER.pack_into(raw, 0, *header.values())
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize(
    "field, value, match",
    [("in_kind", 7, "input kind"), ("in_kind", 2, "input kind"),
     ("out_act", 5, "output activation")],
)
def test_header_tag_outside_zero_one_rejected(tmp_path, field, value, match):
    with pytest.raises(CheckpointFormatError, match=match):
        load_network(saved_with_header(tmp_path, **{field: value}))


# tag 1 once meant leaky_relu hidden layers or an activated output layer
@pytest.mark.parametrize("field, match", [("act", ": activation tag 1 is not 0"),
                                          ("out_act", ": output activation tag 1 is not 0")],
                         ids=["leaky_relu", "activated_output"])
def test_non_relu_or_nonlinear_output_rejected(tmp_path, field, match):
    with pytest.raises(CheckpointFormatError, match=match):
        load_network(saved_with_header(tmp_path, **{field: 1}))


def test_header_activation_fields_are_fixed(tmp_path):
    # relu, a linear output and the unused leak 0.01, as format v1 wrote them
    path = saved_with_header(tmp_path)
    assert _HEADER.unpack_from(path.read_bytes())[2:5] == (0, 0, 0.01)
    params = flatten(load_network(path)).data
    # the leak field is read and ignored
    path = saved_with_header(tmp_path, leak=0.5)
    assert np.array_equal(flatten(load_network(path)).data, params)


def test_empty_conv_kernel_axis_rejected(tmp_path):
    path = tmp_path / "net.mlfasnet"
    write_empty_kernel_checkpoint(path)
    with pytest.raises(ConvShapeError, match="kernel height axis"):
        load_network(path)
