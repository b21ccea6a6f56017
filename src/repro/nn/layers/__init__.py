"""Layer implementations for the numpy neural-network library."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.nn.layers.activations": ("ReLU", "Sigmoid", "Tanh"),
    "repro.nn.layers.base": ("Layer", "LayerCost"),
    "repro.nn.layers.conv": ("Conv2D", "DepthwiseConv2D"),
    "repro.nn.layers.dense": ("Dense",),
    "repro.nn.layers.embedding": ("Embedding",),
    "repro.nn.layers.misc": ("Dropout", "Flatten"),
    "repro.nn.layers.pooling": ("AvgPool2D", "GlobalAvgPool2D", "MaxPool2D"),
    "repro.nn.layers.recurrent": ("LSTM",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
