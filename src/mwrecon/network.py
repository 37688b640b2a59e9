"""Tiny scan-specific convolutional networks trained from scratch in numpy.

Networks map real/imaginary-split multi-coil k-space windows to the values
of the missing rows between acquired lines.  All convolutions are valid (no
padding), stride 1, with adjacent ky taps one row apart: the caller compacts
the acquired-line lattice to consecutive rows (see :mod:`mwrecon.pipelines`),
so a tap spacing of R grid rows is one row of the compacted input.  Complex
data is handled as paired real channels and all weights are real.  An
optional parallel linear convolution (the ``skip`` path) realizes residual
variants: it is computed on the main chain's output grid only and added.

A reconstruction trains one network per target coil, and every coil's
network reads the same source tensor; only the targets differ.  So
:func:`train` and :func:`forward` take a non-empty sequence of
same-architecture networks, one per coil, and run all of them in one pass
(a single network is passed as a one-element list):

* The first layer and the skip path read the shared input.  Each gets one
  patch matrix ``[K, M]`` and one GEMM ``[coils*O, K] @ [K, M]`` for all
  coils, and its weight gradient is one GEMM ``d[coils*O, M] @ cols.T``.
  Training is full batch, so these patch matrices are built once per
  training run.
* Later layers read a different input per coil, and their weights are
  stacked as ``[coils, kt*kw*O, I]``, so each layer is one batched
  ``np.matmul`` over a leading coil axis plus one shifted add per kernel
  tap.  They run one coil group at a time: a group's later layers, its
  loss and its backward pass down to the first layer's output gradient
  finish before the next group starts.  The group size is derived from the
  shapes, as many coils as keep a later layer's working set within about
  1 MiB, so the working set stays in the L2 cache whatever the coil count
  or the number of weighting branches.
* Inference runs one batch sample (weighting branch) at a time and drops
  that sample's activations before the next starts, so peak memory does
  not grow with the batch.  Within a sample, the later layers run in coil
  groups sized by the same rule.

Activations are channels-first, ``[coils, ch, N, H, W]``: each coil's
channel is one contiguous block and readout is innermost, so every patch
copy, tap add and gradient scatter runs along readout rows.  Patch rows
are ordered (ky tap, kx tap, channel).  Weights are packed into GEMM
layouts once before training and unpacked into the
``[out, in, ky_taps, kx_width]`` kernels of :class:`ScanNetwork`
afterwards.

Precision: the network computes in the precision of its input.  A float32
input (training sources, or the input of :func:`forward`) runs every
GEMM, activation, gradient and optimizer state in float32, which roughly
halves the time of a training step; any other input runs in float64.
Targets are cast to the sources' dtype.  Stored weights
(:class:`ScanNetwork`) and loss histories stay float64: a float32 value
converts to float64 exactly, so a float32 run's weights can seed or be
compared with a float64 run.  Training is full-batch Adam with the fixed
constants β1 = 0.9, β2 = 0.999 and ε = 1e-8; only the learning rate and
the iteration count are set.  The float32 path relies on Python scalars
(``0.0``, the learning rate, the Adam constants) not upcasting float32
arrays, which holds under both numpy 1.x value-based casting and numpy 2
weak scalars; the learning rate is passed on as a Python float for that
reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATIONS = ("relu", "identity")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class LayerSpec:
    out_channels: int
    kx_width: int
    ky_taps: int
    activation: str = "relu"

    def __post_init__(self):
        if self.out_channels < 1 or self.kx_width < 1 or self.ky_taps < 1:
            raise ValueError(f"layer dimensions must be positive: {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class NetworkArch:
    """Ordered conv layers plus an optional linear skip path.

    Hidden layers use ReLU; the final layer (and the skip) are linear.
    Adjacent ky taps read adjacent input rows.
    """

    in_channels: int
    layers: tuple[LayerSpec, ...]
    skip: LayerSpec | None = None
    dilation = 1  # not a field: kept only because perfbench's work counts read it

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.in_channels < 1:
            raise ValueError(f"in_channels must be positive, got {self.in_channels}")
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for spec in self.layers[:-1]:
            if spec.activation != "relu":
                raise ValueError("hidden layers must use relu")
        if self.layers[-1].activation != "identity":
            raise ValueError("final layer must be linear (identity activation)")
        if self.skip is not None:
            if self.skip.activation != "identity":
                raise ValueError("skip path must be linear (identity activation)")
            if self.skip.out_channels != self.out_channels:
                raise ValueError("skip path must match the output channel count")
            if self.skip_row_offset < 0 or self.skip.ky_taps - 1 + self.skip_row_offset > self.ky_taps_excess:
                raise ValueError("skip ky taps do not fit inside the main receptive field")
            if self.skip_col_offset < 0 or self.skip.kx_width + self.skip_col_offset > self.rf_cols:
                raise ValueError("skip kx width does not fit inside the main receptive field")

    @property
    def out_channels(self) -> int:
        return self.layers[-1].out_channels

    @property
    def ky_taps_excess(self) -> int:
        """Total ky taps consumed beyond one row (receptive field in tap units)."""
        return sum(spec.ky_taps - 1 for spec in self.layers)

    @property
    def rf_cols(self) -> int:
        return sum(spec.kx_width - 1 for spec in self.layers) + 1

    @property
    def target_row_gap(self) -> int:
        """Index of the inter-tap gap the targets sit in (centered per layer)."""
        return sum((spec.ky_taps - 1) // 2 for spec in self.layers)

    @property
    def target_col_offset(self) -> int:
        """Readout offset of the target column within the receptive field."""
        return sum((spec.kx_width - 1) // 2 for spec in self.layers)

    @property
    def skip_row_offset(self) -> int:
        """Offset of the skip path's window along ky, in tap units."""
        if self.skip is None:
            return 0
        return self.target_row_gap - (self.skip.ky_taps - 1) // 2

    @property
    def skip_col_offset(self) -> int:
        if self.skip is None:
            return 0
        return self.target_col_offset - (self.skip.kx_width - 1) // 2

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Valid-convolution output dims for an input of the given size."""
        oh = height - self.ky_taps_excess
        ow = width - (self.rf_cols - 1)
        if oh < 1 or ow < 1:
            raise ValueError(
                f"input {height}x{width} is smaller than the receptive field "
                f"{self.ky_taps_excess + 1}x{self.rf_cols}"
            )
        return oh, ow


@dataclass(frozen=True)
class ScanNetwork:
    """Realized weights for a :class:`NetworkArch`; immutable once built."""

    arch: NetworkArch
    weights: tuple[np.ndarray, ...]
    skip_weight: np.ndarray | None

    def __post_init__(self):
        frozen = []
        in_ch = self.arch.in_channels
        if len(self.weights) != len(self.arch.layers):
            raise ValueError("weight count does not match layer count")
        for w, spec in zip(self.weights, self.arch.layers):
            expected = (spec.out_channels, in_ch, spec.ky_taps, spec.kx_width)
            frozen.append(_frozen_weight(w, expected))
            in_ch = spec.out_channels
        object.__setattr__(self, "weights", tuple(frozen))
        if (self.skip_weight is None) != (self.arch.skip is None):
            raise ValueError("skip weight presence must match the architecture")
        if self.skip_weight is not None:
            spec = self.arch.skip
            expected = (spec.out_channels, self.arch.in_channels, spec.ky_taps, spec.kx_width)
            object.__setattr__(self, "skip_weight", _frozen_weight(self.skip_weight, expected))


def _frozen_weight(w, expected_shape) -> np.ndarray:
    arr = np.array(w, dtype=np.float64, copy=True)
    if arr.shape != expected_shape:
        raise ValueError(f"weight shape {arr.shape} does not match {expected_shape}")
    if not np.isfinite(arr).all():
        raise ValueError("weights contain non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam's learning rate and iteration count; its other constants are fixed."""

    lr: float = 0.001
    iters: int = 1000

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.lr}")
        if self.iters < 1:
            raise ValueError(f"iteration count must be >= 1, got {self.iters}")


@dataclass(frozen=True)
class TrainingSet:
    """Full-batch training tensors: sources [batch, ch, ky, kx] shared by
    every coil's network, and targets [coils, batch, ch, ky, kx].

    float32 sources stay float32 and anything else becomes float64; the
    targets take the sources' dtype, which is the precision training runs in.
    """

    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        src = np.array(_as_input(self.sources), copy=True)
        tgt = np.array(self.targets, dtype=src.dtype, copy=True)
        if src.ndim != 4 or tgt.ndim != 5:
            raise ValueError(
                "sources must be [batch, ch, ky, kx] and targets [coils, batch, ch, ky, kx]"
            )
        if src.shape[0] != tgt.shape[1]:
            raise ValueError("sources and targets disagree on batch size")
        if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
            raise ValueError("training tensors contain non-finite values")
        src.flags.writeable = False
        tgt.flags.writeable = False
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "targets", tgt)


def _as_input(x) -> np.ndarray:
    """``x`` as an array in the precision the network computes in for it."""
    x = np.asarray(x)
    return x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)


# ---------------------------------------------------------------------------
# convolution primitives (valid, stride 1, unit tap spacing, channels-first)
#
# Activations are channels-first, [coils, ch, N, H, W]: each coil's channel
# is one contiguous run of N*H*W values, and readout (kx) is innermost.
#
# A layer that reads the shared input (the first layer, the skip path) is a
# patch-matrix GEMM: a [coils*O, kt*kw*I] weight times _im2col columns
# [kt*kw*I, N*OH*OW], one GEMM for all coils.  A later layer has its own
# input per coil; it multiplies each coil's tap-major [kt*kw*O, I] weight by
# that coil's unwindowed input [I, N*H*W] and adds each tap's shifted output
# block.  That is the same arithmetic with no patch copy, and its input
# gradient is one GEMM with no col2im fold.  Its intermediate is kt*kw*O
# rows instead of kt*kw*I, and later layers narrow the channels (32 -> 8 -> 6
# or 32 -> 6 in the default architectures), so it is also the smaller one.
# Each tap's shifted add (and, in the backward pass, its scatter) runs over
# readout rows OW long, not over the few output channels.

def _im2col(x: np.ndarray, ky_taps: int, kx_width: int):
    """Patch matrix [ky_taps*kx_width*C, N*OH*OW] of a [N, C, H, W] input, plus (N, OH, OW).

    Complex input works too: GRAPPA builds its patches with it.
    """
    win = sliding_window_view(x, (ky_taps, kx_width), axis=(2, 3))
    n, _, oh, ow = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(4, 5, 1, 0, 2, 3)).reshape(-1, n * oh * ow)
    return cols, (n, oh, ow)


def _patch_matrix(w: np.ndarray) -> np.ndarray:
    """[O, I, kt, kw] kernel as the [O, kt*kw*I] left operand of :func:`_im2col` columns."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _patch_kernel(mat: np.ndarray, spec: LayerSpec, in_ch: int) -> np.ndarray:
    return mat.reshape(spec.out_channels, spec.ky_taps, spec.kx_width, in_ch).transpose(0, 3, 1, 2)


def _tap_matrix(w: np.ndarray) -> np.ndarray:
    """[O, I, kt, kw] kernel as the tap-major [kt*kw*O, I] weight of a later layer."""
    return w.transpose(2, 3, 0, 1).reshape(-1, w.shape[1])


def _tap_kernel(mat: np.ndarray, spec: LayerSpec, in_ch: int) -> np.ndarray:
    return mat.reshape(spec.ky_taps, spec.kx_width, spec.out_channels, in_ch).transpose(2, 3, 0, 1)


def _taps(spec: LayerSpec, oh: int, ow: int):
    """(ky tap, kx tap, input rows, input cols) of every kernel tap for an OH x OW output."""
    return [
        (i, j, slice(i, i + oh), slice(j, j + ow))
        for i in range(spec.ky_taps)
        for j in range(spec.kx_width)
    ]


# ---------------------------------------------------------------------------
# coil-stacked evaluation
#
# A stacked parameter list holds the weights of same-architecture networks,
# one per coil: the first layer as [coils, O, kt*kw*I], each later layer as
# [coils, kt*kw*O, I], and the skip weight, if any, last as
# [coils, O, kt*kw*I].  Its gradients have the same layout, and both take
# the dtype of the data they run on.
#
# The later layers run one coil group at a time: every later layer's
# forward pass, the loss and the backward pass down to the first layer's
# output gradient finish for one group before the next group starts.  A
# group holds as many coils as keep a later layer's input and tap outputs
# within _COIL_GROUP_BYTES, half the 2 MB per-core L2 cache of the x86 hosts
# this was measured on; a stack of every coil outgrows that cache and ran
# slower.  Coils have disjoint weights, so the grouping does not change any
# coil's arithmetic.

_COIL_GROUP_BYTES = 1 << 20


def _coil_groups(arch: NetworkArch, coils: int, cols: np.ndarray) -> list:
    """Coil slices for the later layers, given the first layer's patch matrix ``cols``."""
    widths = [
        prev.out_channels + spec.ky_taps * spec.kx_width * spec.out_channels
        for prev, spec in zip(arch.layers, arch.layers[1:])
    ]
    per_coil = cols.itemsize * cols.shape[1] * max(widths, default=0)
    # one layer: nothing runs per group but the loss
    size = max(1, min(coils, _COIL_GROUP_BYTES // per_coil)) if per_coil else coils
    return [slice(c, c + size) for c in range(0, coils, size)]


def _pack(nets, dtype) -> list:
    arch = nets[0].arch
    params = [np.stack([_patch_matrix(net.weights[0]) for net in nets])]
    params += [
        np.stack([_tap_matrix(net.weights[li]) for net in nets])
        for li in range(1, len(arch.layers))
    ]
    if arch.skip is not None:
        params.append(np.stack([_patch_matrix(net.skip_weight) for net in nets]))
    return [p.astype(dtype, copy=False) for p in params]


def _unpack(arch: NetworkArch, params, coil: int):
    """Coil ``coil``'s ([O, I, kt, kw] kernels, skip kernel or None) from a stacked list."""
    kernels = [_patch_kernel(params[0][coil], arch.layers[0], arch.in_channels)]
    for li in range(1, len(arch.layers)):
        in_ch = arch.layers[li - 1].out_channels
        kernels.append(_tap_kernel(params[li][coil], arch.layers[li], in_ch))
    skip = None
    if arch.skip is not None:
        skip = _patch_kernel(params[-1][coil], arch.skip, arch.in_channels)
    return tuple(kernels), skip


def _shared_gemm(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """All coils' outputs [coils, O, M] of a layer that reads the shared input."""
    return (w.reshape(-1, w.shape[-1]) @ cols).reshape(*w.shape[:2], -1)


def _skip_cols(arch: NetworkArch, x: np.ndarray) -> np.ndarray:
    """The skip path's patch matrix of ``x``, over the main chain's output grid only."""
    oh, ow = arch.output_shape(x.shape[2], x.shape[3])
    spec, dy, dx = arch.skip, arch.skip_row_offset, arch.skip_col_offset
    window = x[:, :, dy:dy + oh + spec.ky_taps - 1, dx:dx + ow + spec.kx_width - 1]
    return _im2col(window, spec.ky_taps, spec.kx_width)[0]


def _input_cols(arch: NetworkArch, x: np.ndarray):
    """Patch matrices of the shared input for the first layer and the skip path."""
    first = arch.layers[0]
    main = _im2col(x, first.ky_taps, first.kx_width)
    return main, (_skip_cols(arch, x) if arch.skip is not None else None)


def _first_layer(arch: NetworkArch, w: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """Every coil's first-layer activations [coils, O, N, OH, OW]."""
    z = _shared_gemm(w, cols).reshape(*w.shape[:2], *shape)
    if arch.layers[0].activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _layer(arch: NetworkArch, li: int, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Layer ``li`` >= 1 of a coil group: [coils, I, N, H, W] input to [coils, O, N, OH, OW].

    ``w`` holds the coils' tap-major weights, [coils, kt*kw*O, I].
    """
    spec = arch.layers[li]
    coils, in_ch, n, hh, ww = h.shape
    oh = hh - (spec.ky_taps - 1)
    ow = ww - (spec.kx_width - 1)
    y = np.matmul(w, h.reshape(coils, in_ch, -1))
    y = y.reshape(coils, spec.ky_taps, spec.kx_width, spec.out_channels, n, hh, ww)
    (i, j, rows, cols), *rest = _taps(spec, oh, ow)
    z = y[:, i, j, :, :, rows, cols].copy()
    for i, j, rows, cols in rest:
        z += y[:, i, j, :, :, rows, cols]
    if spec.activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _layer_grads(arch: NetworkArch, li: int, w: np.ndarray, h: np.ndarray, d: np.ndarray):
    """Weight and input gradients of :func:`_layer` for an output gradient ``d``."""
    spec = arch.layers[li]
    coils, in_ch, n, hh, ww = h.shape
    dy = np.zeros((coils, spec.ky_taps, spec.kx_width, spec.out_channels, n, hh, ww), dtype=d.dtype)
    for i, j, rows, cols in _taps(spec, d.shape[3], d.shape[4]):
        dy[:, i, j, :, :, rows, cols] = d
    dy = dy.reshape(coils, -1, n * hh * ww)
    h_mat = h.reshape(coils, in_ch, -1)
    grad_w = np.matmul(dy, h_mat.transpose(0, 2, 1))
    return grad_w, np.matmul(w.transpose(0, 2, 1), dy).reshape(h.shape)


def _forward(arch: NetworkArch, params, x: np.ndarray) -> np.ndarray:
    """Every coil's output [coils, N, O, OH, OW] for an input [N, I, H, W].

    One batch sample (weighting branch) runs at a time, and its activations
    are dropped before the next starts.  Within a sample the skip path runs
    first, so its patch matrix is freed before the first layer's is built;
    the first layer is one GEMM for all coils, and the later layers run one
    coil group at a time on that group's slice of it.
    """
    oh, ow = arch.output_shape(x.shape[2], x.shape[3])
    coils = params[0].shape[0]
    out = np.zeros((coils, x.shape[0], arch.out_channels, oh, ow), dtype=x.dtype)
    first = arch.layers[0]
    for s in range(x.shape[0]):
        xs = x[s:s + 1]
        if arch.skip is not None:
            s_cols = _skip_cols(arch, xs)
            out[:, s] += _shared_gemm(params[-1], s_cols).reshape(coils, -1, oh, ow)
            del s_cols
        cols, shape = _im2col(xs, first.ky_taps, first.kx_width)
        groups = _coil_groups(arch, coils, cols)
        h1 = _first_layer(arch, params[0], cols, shape)
        del cols
        for g in groups:
            h = h1[g]
            for li in range(1, len(arch.layers)):
                h = _layer(arch, li, params[li][g], h)
            out[g, s] += h[:, :, 0]
        del h, h1
    return out


def _loss_and_grads(arch: NetworkArch, params, input_cols, targets: np.ndarray):
    """Each coil's loss [coils] and the stacked gradients of their sum.

    ``targets`` is channels-first, [coils, O, N, OH, OW].  Coils have
    disjoint weights, so the gradient of the sum is each coil's own.
    """
    (cols1, shape1), s_cols = input_cols
    n_layers = len(arch.layers)
    coils = params[0].shape[0]
    a1 = _first_layer(arch, params[0], cols1, shape1)
    skip = None
    if s_cols is not None:
        skip = _shared_gemm(params[-1], s_cols).reshape(targets.shape)
        d_skip = np.empty_like(skip)
    grads = [np.empty_like(p) for p in params]
    losses = np.empty(coils)
    scale = 2.0 / targets[0].size
    for g in _coil_groups(arch, coils, cols1):
        acts = [a1[g]]
        for li in range(1, n_layers):
            acts.append(_layer(arch, li, params[li][g], acts[-1]))
        if skip is not None:
            diff = acts[-1] + skip[g]
            diff -= targets[g]
        else:
            diff = acts[-1] - targets[g]
        losses[g] = np.mean(diff * diff, axis=(1, 2, 3, 4))
        d = np.multiply(diff, scale, out=diff)
        if skip is not None:
            d_skip[g] = d
        for li in range(n_layers - 1, 0, -1):
            if arch.layers[li].activation == "relu":
                d *= acts[li] > 0
            grads[li][g], d = _layer_grads(arch, li, params[li][g], acts[li - 1], d)
        # the group's first-layer activations are read for the last time
        # above, so they take the first layer's output gradient
        if arch.layers[0].activation == "relu":
            np.multiply(d, acts[0] > 0, out=acts[0])
        else:
            acts[0][...] = d
    grads[0] = (a1.reshape(-1, cols1.shape[1]) @ cols1.T).reshape(params[0].shape)
    if skip is not None:
        grads[-1] = (d_skip.reshape(-1, s_cols.shape[1]) @ s_cols.T).reshape(params[-1].shape)
    return losses, grads


# Adam's constants (Kingma & Ba), as Python floats so float32 state stays float32
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_update(params, grads, m, v, t: int, lr: float) -> None:
    """Bias-corrected Adam step ``t`` (from 1) of list entries in place."""
    c1, c2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t
    for i, g in enumerate(grads):
        m[i] = _BETA1 * m[i] + (1.0 - _BETA1) * g
        v[i] = _BETA2 * v[i] + (1.0 - _BETA2) * g * g
        params[i] = params[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + _EPS)


def _train(nets, sources: np.ndarray, targets: np.ndarray, opt: OptimizerConfig):
    arch = nets[0].arch
    input_cols = _input_cols(arch, sources)
    y = np.ascontiguousarray(targets.transpose(0, 2, 1, 3, 4))
    params = _pack(nets, sources.dtype)
    first_moment = [np.zeros_like(p) for p in params]
    second_moment = [np.zeros_like(p) for p in params]
    losses = np.empty((len(nets), opt.iters))
    # overflow on the way to a non-finite loss is reported as the exception
    # below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, opt.iters + 1):
            values, grads = _loss_and_grads(arch, params, input_cols, y)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise TrainingDivergedError(
                    f"coil {bad[0]}: non-finite training loss at iteration {it}"
                )
            losses[:, it - 1] = values
            _adam_update(params, grads, first_moment, second_moment, it, float(opt.lr))
    return tuple(ScanNetwork(arch, *_unpack(arch, params, c)) for c in range(len(nets))), losses


# ---------------------------------------------------------------------------
# public surface

def init_network(arch: NetworkArch, seed: int) -> ScanNetwork:
    """Glorot-uniform initialization, deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    weights = []
    in_ch = arch.in_channels
    for spec in arch.layers:
        weights.append(_glorot(rng, spec, in_ch))
        in_ch = spec.out_channels
    skip = _glorot(rng, arch.skip, arch.in_channels) if arch.skip is not None else None
    return ScanNetwork(arch=arch, weights=tuple(weights), skip_weight=skip)


def _glorot(rng, spec: LayerSpec, in_ch: int) -> np.ndarray:
    fan_in = in_ch * spec.ky_taps * spec.kx_width
    fan_out = spec.out_channels * spec.ky_taps * spec.kx_width
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(spec.out_channels, in_ch, spec.ky_taps, spec.kx_width))


def _as_nets(nets) -> list:
    """The networks of a non-empty same-architecture sequence, as a list."""
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one network")
    arch = nets[0].arch
    if any(other.arch != arch for other in nets):
        raise ValueError("networks trained or run together must share one architecture")
    return nets


def forward(nets, x: np.ndarray) -> np.ndarray:
    """Every network's output [coils, batch, out, oh, ow] for a [batch, in_ch, ky, kx] input.

    ``nets`` is a sequence of same-architecture networks, one per coil.  The
    output has the input's precision: float32 for a float32 input, else
    float64.
    """
    nets = _as_nets(nets)
    arch = nets[0].arch
    x = _as_input(x)
    if x.ndim != 4 or x.shape[1] != arch.in_channels:
        raise ValueError(f"input must be [batch, {arch.in_channels}, ky, kx], got {x.shape}")
    arch.output_shape(x.shape[2], x.shape[3])
    return _forward(arch, _pack(nets, x.dtype), x)


def _check_training_set(nets, ts: TrainingSet) -> None:
    arch = nets[0].arch
    if ts.sources.shape[1] != arch.in_channels:
        raise ValueError(
            f"training sources have {ts.sources.shape[1]} channels, arch expects {arch.in_channels}"
        )
    oh, ow = arch.output_shape(ts.sources.shape[2], ts.sources.shape[3])
    expected = (len(nets), ts.sources.shape[0], arch.out_channels, oh, ow)
    if ts.targets.shape != expected:
        raise ValueError(f"targets shape {ts.targets.shape} does not match outputs {expected}")


def train(nets, ts: TrainingSet, opt: OptimizerConfig):
    """Run ``opt.iters`` full-batch iterations; returns (trained nets, loss histories).

    ``nets`` is a sequence of same-architecture networks, one per coil, that
    all read ``ts.sources``; coil ``c`` fits ``ts.targets[c]``.  The result
    is a tuple of trained networks and histories [coils, iters], each the
    loss at the start of every iteration.  Each coil's history and weights
    agree with training it alone up to rounding.  A non-finite loss aborts
    with :class:`TrainingDivergedError` naming the first such coil.
    """
    nets = _as_nets(nets)
    _check_training_set(nets, ts)
    return _train(nets, ts.sources, ts.targets, opt)
