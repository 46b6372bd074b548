"""DNN inference from scratch: an MLP over sliding sensor windows.

The paper's fifth workload class (Table 5: "Replicate model weights &
biases"). The network classifies overlapping windows of an onboard
sensor stream — each inference window shares samples with its
neighbours, so datasets conflict heavily; meanwhile the weight blob
appears in *every* dataset and is replicated per executor. The
combination (large replicated block + dense conflict graph) is why the
paper finds DNNs are EMR's worst case for energy: "DNNs require more
cache clears to avoid jobset conflicts" (§4.2.5).

Weights are float32, serialized into one contiguous blob; inference
deserializes from the *fetched* bytes, so a flipped cached weight
really changes the logits — the paper cites exactly this failure
("a single SEU can also drop a ML model's inference accuracy from 85 %
to 10 %", §2).
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import WorkloadError
from .base import DatasetSpec, RegionRef, Workload, WorkloadSpec


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


class Mlp:
    """A dense network with ReLU hidden layers and softmax output."""

    def __init__(self, layer_sizes: "tuple[int, ...]") -> None:
        if len(layer_sizes) < 2:
            raise WorkloadError("need at least input and output layers")
        self.layer_sizes = tuple(layer_sizes)

    def init_params(self, rng: np.random.Generator) -> "list[tuple]":
        """He-initialized (weight, bias) pairs."""
        params = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weight = rng.normal(0, scale, (fan_in, fan_out)).astype(np.float32)
            bias = np.zeros(fan_out, dtype=np.float32)
            params.append((weight, bias))
        return params

    def serialize(self, params: "list[tuple]") -> bytes:
        """Pack all weights and biases into one contiguous blob."""
        chunks = []
        for weight, bias in params:
            chunks.append(weight.astype("<f4").tobytes())
            chunks.append(bias.astype("<f4").tobytes())
        return b"".join(chunks)

    def deserialize(self, blob: bytes) -> "list[tuple]":
        params = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w_bytes = fan_in * fan_out * 4
            b_bytes = fan_out * 4
            if offset + w_bytes + b_bytes > len(blob):
                raise WorkloadError("weight blob truncated")
            weight = np.frombuffer(
                blob[offset : offset + w_bytes], dtype="<f4"
            ).reshape(fan_in, fan_out)
            offset += w_bytes
            bias = np.frombuffer(blob[offset : offset + b_bytes], dtype="<f4")
            offset += b_bytes
            params.append((weight, bias))
        return params

    def forward(self, x: np.ndarray, params: "list[tuple]") -> np.ndarray:
        activation = x.astype(np.float64)
        for i, (weight, bias) in enumerate(params):
            activation = activation @ weight.astype(np.float64) + bias
            if i < len(params) - 1:
                activation = _relu(activation)
        return _softmax(activation)


class DnnWorkload(Workload):
    """Classify overlapping windows of a telemetry/sensor stream."""

    name = "neural_networks"
    library_analog = "N/A"
    paper_replication_strategy = "Replicate model weights & biases"

    def __init__(
        self,
        window_samples: int = 64,
        stride: int = 16,
        windows: int = 36,
        hidden: "tuple[int, ...]" = (48, 24),
        classes: int = 4,
    ) -> None:
        if stride <= 0 or stride > window_samples:
            raise WorkloadError("need 0 < stride <= window_samples")
        self.window_samples = window_samples
        self.stride = stride
        self.windows = windows
        self.model = Mlp((window_samples,) + hidden + (classes,))

    def build(self, rng: np.random.Generator, scale: int = 1) -> WorkloadSpec:
        n_windows = self.windows * scale
        stream_samples = (n_windows - 1) * self.stride + self.window_samples
        # Sensor stream: mixture of regimes so classes are nontrivial.
        t = np.arange(stream_samples)
        stream = (
            np.sin(t / 9.0) * 0.8
            + np.sign(np.sin(t / 37.0)) * 0.4
            + rng.normal(0, 0.2, stream_samples)
        ).astype("<f4")
        params = self.model.init_params(rng)
        weights_blob = self.model.serialize(params)
        weights_ref = RegionRef("weights", 0, len(weights_blob))
        datasets = []
        for i in range(n_windows):
            start = i * self.stride
            datasets.append(
                DatasetSpec(
                    index=i,
                    regions={
                        "window": RegionRef("stream", start * 4, self.window_samples * 4),
                        "weights": weights_ref,
                    },
                )
            )
        return WorkloadSpec(
            name=self.name,
            blobs={"stream": stream.tobytes(), "weights": weights_blob},
            datasets=datasets,
            output_size=4 + 4 * self.model.layer_sizes[-1],
        )

    def run_job(self, inputs: "dict[str, bytes]", params: "dict[str, object]") -> bytes:
        window = np.frombuffer(inputs["window"], dtype="<f4")
        model_params = self.model.deserialize(inputs["weights"])
        probs = self.model.forward(window, model_params)
        label = int(np.argmax(probs))
        return struct.pack("<i", label) + probs.astype("<f4").tobytes()

    def instructions_per_job(self, dataset: DatasetSpec) -> int:
        macs = 0
        for fan_in, fan_out in zip(self.model.layer_sizes, self.model.layer_sizes[1:]):
            macs += fan_in * fan_out
        return macs * 6 + 4000
