"""Multilevel-in-width neural network training.

Builds hierarchies of progressively narrower networks by heavy-edge
matching of neurons/channels and trains them with stochastic full
approximation scheme V-cycles, with one-level SGD as the degenerate case.
"""

__version__ = "0.1.0"

from .coarsening import (
    LayerTransfer,
    Matching,
    StrengthMatrix,
    build_transfer,
    greedy_hem,
    strength_from_rows,
)
from .conv import ChannelTensorView, ConvLayer, conv_forward, to_matrix
from .nets import (
    DenseLayer,
    LossValue,
    Minibatch,
    Network,
    ParamVector,
    backward,
    dense_network,
    flatten,
    forward,
    loss,
    unflatten,
)
from .poisson import RegressionDataset, generate_dataset, read_dataset, write_dataset
from .training import (
    Hierarchy,
    MinibatchScheduler,
    SmootherConfig,
    StabilityConfig,
    compute_tau,
    sgd_smooth,
    v_cycle,
)
from .transfer import (
    TransferLevel,
    coarse_grid_correction,
    coarsen_network,
    prolong_params,
    restrict_gradient,
    restrict_network,
    restrict_params,
)
