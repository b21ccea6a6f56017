"""A small from-scratch numpy neural-network library.

The paper trains three workloads on device — a CNN on MNIST, an LSTM on Shakespeare and
MobileNet on ImageNet.  This subpackage provides the layers, losses, optimizers and model
container needed to train scaled-down versions of those models with real gradient
computation, plus per-layer FLOP / memory-traffic accounting that feeds the device
performance and energy models.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.nn.layers": (
        "AvgPool2D",
        "Conv2D",
        "Dense",
        "DepthwiseConv2D",
        "Dropout",
        "Embedding",
        "Flatten",
        "GlobalAvgPool2D",
        "LSTM",
        "Layer",
        "MaxPool2D",
        "ReLU",
    ),
    "repro.nn.losses": ("SoftmaxCrossEntropy",),
    "repro.nn.model": ("Sequential",),
    "repro.nn.models": ("build_cnn_mnist", "build_lstm_shakespeare", "build_mobilenet_lite"),
    "repro.nn.optimizers": ("ProximalSGD", "SGD"),
    "repro.nn.workloads": ("WORKLOAD_PROFILES", "WorkloadProfile", "get_workload_profile"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
