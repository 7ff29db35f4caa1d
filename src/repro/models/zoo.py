"""The six evaluation workloads of the paper, described layer by layer.

CNNs follow the published architectures (MobileNet-V2 [Sandler et al. 2018],
MnasNet-A1 [Tan et al. 2019], ResNet-50 [He et al. 2016]); GEMM-based models
(GNMT, Transformer, NCF) are described by the matrix shapes of their dense
computations as in the paper's footnote 3.  MobileNet-V2 comes out to the
52 layers the paper quotes, ResNet-50 to 53 (49 bottleneck convolutions plus
4 projection shortcuts).

All builders are pure functions returning fresh lists, so callers may mutate
the result freely.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.models.layers import Layer, LayerType, gemm_layer


def _conv(name: str, k: int, c: int, y: int, x: int, r: int, s: int,
          stride: int = 1) -> Layer:
    return Layer(name, LayerType.CONV, K=k, C=c, Y=y, X=x, R=r, S=s,
                 stride=stride)


def _dwconv(name: str, c: int, y: int, x: int, r: int, s: int,
            stride: int = 1) -> Layer:
    return Layer(name, LayerType.DWCONV, K=c, C=c, Y=y, X=x, R=r, S=s,
                 stride=stride)


def _pwconv(name: str, k: int, c: int, y: int, x: int) -> Layer:
    return Layer(name, LayerType.PWCONV, K=k, C=c, Y=y, X=x, R=1, S=1)


def mobilenet_v2(input_size: int = 224) -> List[Layer]:
    """MobileNet-V2: 52 MAC layers (stem + 17 inverted residuals + head)."""
    layers: List[Layer] = []
    size = input_size
    layers.append(_conv("conv0", 32, 3, size, size, 3, 3, stride=2))
    size //= 2
    channels = 32
    # (expansion t, output channels c, repeats n, first stride s)
    block_config = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    block = 0
    for t, c_out, n, s in block_config:
        for i in range(n):
            stride = s if i == 0 else 1
            block += 1
            hidden = channels * t
            if t != 1:
                layers.append(
                    _pwconv(f"b{block}_expand", hidden, channels, size, size))
            layers.append(
                _dwconv(f"b{block}_dw", hidden, size, size, 3, 3, stride))
            if stride == 2:
                size //= 2
            layers.append(_pwconv(f"b{block}_project", c_out, hidden, size,
                                  size))
            channels = c_out
    layers.append(_pwconv("conv_head", 1280, channels, size, size))
    return layers


def mnasnet(input_size: int = 224) -> List[Layer]:
    """MnasNet-A1 MAC layers (squeeze-excite blocks omitted; they are not
    mapped onto the PE array by the paper's cost model either)."""
    layers: List[Layer] = []
    size = input_size
    layers.append(_conv("conv0", 32, 3, size, size, 3, 3, stride=2))
    size //= 2
    layers.append(_dwconv("sep_dw", 32, size, size, 3, 3))
    layers.append(_pwconv("sep_pw", 16, 32, size, size))
    channels = 16
    # (expansion t, output c, repeats n, first stride s, kernel)
    block_config = [
        (6, 24, 2, 2, 3),
        (3, 40, 3, 2, 5),
        (6, 80, 4, 2, 3),
        (6, 112, 2, 1, 3),
        (6, 160, 3, 2, 5),
        (6, 320, 1, 1, 3),
    ]
    block = 0
    for t, c_out, n, s, kernel in block_config:
        for i in range(n):
            stride = s if i == 0 else 1
            block += 1
            hidden = channels * t
            layers.append(
                _pwconv(f"mb{block}_expand", hidden, channels, size, size))
            layers.append(
                _dwconv(f"mb{block}_dw", hidden, size, size, kernel, kernel,
                        stride))
            if stride == 2:
                size //= 2
            layers.append(_pwconv(f"mb{block}_project", c_out, hidden, size,
                                  size))
            channels = c_out
    layers.append(_pwconv("conv_head", 1280, channels, size, size))
    return layers


def resnet50(input_size: int = 224) -> List[Layer]:
    """ResNet-50: 53 MAC layers (49 convolutions + 4 projection shortcuts)."""
    layers: List[Layer] = []
    size = input_size
    layers.append(_conv("conv1", 64, 3, size, size, 7, 7, stride=2))
    size //= 2
    size //= 2  # 3x3 max-pool stride 2 (no MACs)
    channels = 64
    stage_config = [
        (64, 256, 3, 1),
        (128, 512, 4, 2),
        (256, 1024, 6, 2),
        (512, 2048, 3, 2),
    ]
    for stage, (mid, out, blocks, first_stride) in enumerate(stage_config,
                                                             start=2):
        for i in range(blocks):
            stride = first_stride if i == 0 else 1
            prefix = f"s{stage}b{i + 1}"
            layers.append(_pwconv(f"{prefix}_1x1a", mid, channels, size, size))
            layers.append(
                _conv(f"{prefix}_3x3", mid, mid, size, size, 3, 3, stride))
            if stride == 2:
                size //= 2
            layers.append(_pwconv(f"{prefix}_1x1b", out, mid, size, size))
            if i == 0:
                layers.append(
                    _pwconv(f"{prefix}_shortcut", out, channels, size, size))
            channels = out
    return layers


def gnmt(seq_len: int = 128, hidden: int = 1024,
         vocab: int = 32000) -> List[Layer]:
    """GNMT: the dense GEMMs of an 8+8 layer LSTM encoder/decoder with
    attention and an output projection.

    Each LSTM layer contributes one stacked gate GEMM of shape
    (4*hidden) x (2*hidden) applied to every token.
    """
    layers: List[Layer] = []
    for i in range(8):
        in_dim = hidden if i == 0 else 2 * hidden
        layers.append(
            gemm_layer(f"enc_lstm{i}", 4 * hidden, seq_len, in_dim))
    layers.append(gemm_layer("attn_score", hidden, seq_len, hidden))
    layers.append(gemm_layer("attn_context", hidden, seq_len, hidden))
    for i in range(8):
        in_dim = 2 * hidden
        layers.append(
            gemm_layer(f"dec_lstm{i}", 4 * hidden, seq_len, in_dim))
    layers.append(gemm_layer("proj_vocab", vocab, seq_len, hidden))
    return layers


def transformer(seq_len: int = 128, d_model: int = 512, d_ff: int = 2048,
                num_layers: int = 6, vocab: int = 33000) -> List[Layer]:
    """Transformer-base: per-layer attention projections and feed-forward
    GEMMs for the encoder and decoder stacks plus the vocabulary projection."""
    layers: List[Layer] = []

    def attention(prefix: str) -> List[Layer]:
        return [
            gemm_layer(f"{prefix}_q", d_model, seq_len, d_model),
            gemm_layer(f"{prefix}_k", d_model, seq_len, d_model),
            gemm_layer(f"{prefix}_v", d_model, seq_len, d_model),
            gemm_layer(f"{prefix}_o", d_model, seq_len, d_model),
        ]

    def ffn(prefix: str) -> List[Layer]:
        return [
            gemm_layer(f"{prefix}_ff1", d_ff, seq_len, d_model),
            gemm_layer(f"{prefix}_ff2", d_model, seq_len, d_ff),
        ]

    for i in range(num_layers):
        layers.extend(attention(f"enc{i}_self"))
        layers.extend(ffn(f"enc{i}"))
    for i in range(num_layers):
        layers.extend(attention(f"dec{i}_self"))
        layers.extend(attention(f"dec{i}_cross"))
        layers.extend(ffn(f"dec{i}"))
    layers.append(gemm_layer("proj_vocab", vocab, seq_len, d_model))
    return layers


def ncf(batch: int = 1024, embed_dim: int = 128) -> List[Layer]:
    """Neural collaborative filtering: the MLP tower GEMMs of NeuMF."""
    dims = [2 * embed_dim, 256, 128, 64]
    layers: List[Layer] = []
    for i in range(len(dims) - 1):
        layers.append(
            gemm_layer(f"mlp{i}", dims[i + 1], batch, dims[i]))
    layers.append(gemm_layer("predict", 1, batch, dims[-1] + embed_dim))
    return layers


MODEL_REGISTRY: Dict[str, Callable[[], List[Layer]]] = {
    "mobilenet_v2": mobilenet_v2,
    "mnasnet": mnasnet,
    "resnet50": resnet50,
    "gnmt": gnmt,
    "transformer": transformer,
    "ncf": ncf,
}


def list_models() -> List[str]:
    """Names accepted by :func:`get_model`, in evaluation order."""
    return list(MODEL_REGISTRY)


def get_model(name: str) -> List[Layer]:
    """Build a model's layer list by registry name.

    Raises:
        KeyError: if ``name`` is not a registered model.
    """
    try:
        builder = MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(MODEL_REGISTRY)}"
        ) from None
    return builder()
