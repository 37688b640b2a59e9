import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mwrecon.network import (
    LayerSpec,
    NetworkArch,
    OptimizerConfig,
    ScanNetwork,
    TrainingDivergedError,
    TrainingSet,
    forward,
    init_network,
    train,
)
from mwrecon import network as network_module
from mwrecon.pipelines import default_arch
from oracles import conv_naive


def mse(net, ts):
    """Mean squared error of ``forward`` against the targets."""
    diff = forward(net, ts.sources) - ts.targets
    return float(np.mean(diff * diff))


def zero_main(net):
    """``net`` with its main chain zeroed, so its output is the skip path alone."""
    return ScanNetwork(net.arch, tuple(np.zeros_like(w) for w in net.weights), net.skip_weight)


def small_arch(in_ch=2, hidden=3, out=2, dilation=1, skip=False, depth=2):
    hidden_layers = (LayerSpec(hidden, 3, 2, "relu"), LayerSpec(hidden, 2, 2, "relu"))
    layers = hidden_layers[: depth - 1] + (LayerSpec(out, 3, 2, "identity"),)
    skip_spec = LayerSpec(out, 3, 2, "identity") if skip else None
    return NetworkArch(in_channels=in_ch, layers=layers, dilation=dilation, skip=skip_spec)


def make_training_set(rng, arch, batch=1, h=9, w=10):
    src = rng.standard_normal((batch, arch.in_channels, h, w))
    oh, ow = arch.output_shape(h, w)
    tgt = rng.standard_normal((batch, arch.out_channels, oh, ow))
    return TrainingSet(sources=src, targets=tgt)


class TestArchValidation:
    def test_rejects_relu_final_layer(self):
        with pytest.raises(ValueError, match="final layer"):
            NetworkArch(2, (LayerSpec(4, 3, 2, "relu"),))

    def test_rejects_identity_hidden_layer(self):
        with pytest.raises(ValueError, match="hidden"):
            NetworkArch(2, (LayerSpec(4, 3, 2, "identity"), LayerSpec(2, 3, 2, "identity")))

    def test_rejects_oversized_skip(self):
        with pytest.raises(ValueError, match="skip"):
            NetworkArch(
                2,
                (LayerSpec(4, 3, 2, "relu"), LayerSpec(2, 3, 2, "identity")),
                skip=LayerSpec(2, 3, 4, "identity"),
            )

    def test_receptive_field_accounting(self):
        arch = NetworkArch(
            4,
            (LayerSpec(32, 5, 2, "relu"), LayerSpec(8, 1, 1, "relu"), LayerSpec(2, 3, 2, "identity")),
            dilation=4,
            skip=LayerSpec(2, 5, 2, "identity"),
        )
        assert arch.ky_taps_excess == 2
        assert arch.rf_rows == 9
        assert arch.rf_cols == 7
        assert arch.target_row_gap == 0
        assert arch.target_col_offset == 3
        assert arch.output_shape(20, 20) == (12, 14)


class TestInit:
    def test_deterministic_for_seed(self):
        arch = small_arch()
        a = init_network(arch, 42)
        b = init_network(arch, 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_seeds_differ(self):
        arch = small_arch()
        a = init_network(arch, 1)
        b = init_network(arch, 2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_uniform_bound(self):
        # fan_in = 3*1*2 = 6 and fan_out = 3*1*2 = 6 -> bound sqrt(6/12)
        arch = NetworkArch(3, (LayerSpec(3, 2, 1, "identity"),))
        net = init_network(arch, 0)
        bound = np.sqrt(0.5)
        assert np.max(np.abs(net.weights[0])) <= bound

    def test_weights_are_immutable(self):
        net = init_network(small_arch(), 0)
        with pytest.raises(ValueError):
            net.weights[0][0, 0, 0, 0] = 1.0


class TestForward:
    def test_zero_weights_zero_output(self):
        arch = small_arch()
        zero = ScanNetwork(
            arch,
            tuple(np.zeros_like(w) for w in init_network(arch, 0).weights),
            None,
        )
        x = np.random.default_rng(0).standard_normal((1, 2, 8, 8))
        assert np.all(forward(zero, x) == 0)

    def test_identity_one_by_one_layer(self):
        arch = NetworkArch(3, (LayerSpec(3, 1, 1, "identity"),))
        eye = np.eye(3).reshape(3, 3, 1, 1)
        net = ScanNetwork(arch, (eye,), None)
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 6))
        assert np.array_equal(forward(net, x), x)

    @pytest.mark.parametrize("dilation", [1, 2, 4, 6])
    def test_matches_naive_convolution(self, dilation):
        rng = np.random.default_rng(10 + dilation)
        arch = small_arch(in_ch=2, hidden=3, out=2, dilation=dilation)
        net = init_network(arch, 7)
        h = 2 + arch.ky_taps_excess * dilation + 3
        x = rng.standard_normal((2, 2, h, 9))
        z1 = conv_naive(x, net.weights[0], dilation)
        expected = conv_naive(np.maximum(z1, 0.0), net.weights[1], dilation)
        assert np.max(np.abs(forward(net, x) - expected)) < 1e-10

    def test_single_conv_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, 10, 8))
        w = rng.standard_normal((4, 3, 2, 3))
        for d in (1, 2, 3):
            net = ScanNetwork(NetworkArch(3, (LayerSpec(4, 3, 2, "identity"),), dilation=d), (w,), None)
            assert np.max(np.abs(forward(net, x) - conv_naive(x, w, d))) < 1e-12

    def test_dilated_on_lattice_equals_compact(self):
        # R-spaced taps sliding on the stride-R lattice compute the same sums
        # as unit-spaced taps on the row-compacted array
        rng = np.random.default_rng(4)
        R = 3
        full = rng.standard_normal((1, 2, 18, 9))
        arch_d = small_arch(dilation=R)
        net_d = init_network(arch_d, 5)
        arch_c = small_arch(dilation=1)
        net_c = ScanNetwork(arch_c, net_d.weights, None)
        out_full = forward(net_d, full)[:, :, ::R, :]
        out_compact = forward(net_c, full[:, :, ::R, :])
        assert np.max(np.abs(out_full - out_compact)) < 1e-12

    def test_residual_decomposition(self):
        rng = np.random.default_rng(6)
        arch = small_arch(skip=True)
        net = init_network(arch, 8)
        x = rng.standard_normal((1, 2, 9, 9))
        total = forward(net, x)
        main = ScanNetwork(replace(arch, skip=None), net.weights, None)
        skip = forward(zero_main(net), x)
        assert np.array_equal(total, forward(main, x) + skip)
        # the skip path is a plain convolution, cropped to the main chain's grid
        oh, ow = arch.output_shape(9, 9)
        dy, dx = arch.skip_row_offset * arch.dilation, arch.skip_col_offset
        expected = conv_naive(x, net.skip_weight, arch.dilation)[:, :, dy:dy + oh, dx:dx + ow]
        assert np.max(np.abs(skip - expected)) < 1e-12

    def test_off_centre_skip_window(self):
        # 3-tap layers put the targets two gaps down; a 1x1 skip then reads
        # rows and columns offset into the receptive field
        rng = np.random.default_rng(7)
        arch = NetworkArch(2, (LayerSpec(3, 3, 3, "relu"), LayerSpec(2, 3, 3, "identity")),
                           dilation=2, skip=LayerSpec(2, 1, 1, "identity"))
        assert (arch.skip_row_offset, arch.skip_col_offset) == (2, 2)
        net = init_network(arch, 9)
        x = rng.standard_normal((2, 2, 13, 10))
        oh, ow = arch.output_shape(13, 10)
        skip = forward(zero_main(net), x)
        expected = conv_naive(x, net.skip_weight, arch.dilation)[:, :, 4:4 + oh, 2:2 + ow]
        assert np.max(np.abs(skip - expected)) < 1e-12
        # training reads the same window: the skip gradient of a linear path
        ts = TrainingSet(x, rng.standard_normal((2, 2, oh, ow)))
        nw = network_module
        targets = np.ascontiguousarray(ts.targets[None].transpose(0, 2, 1, 3, 4))
        losses, grads = nw._loss_and_grads(arch, nw._pack([net], x.dtype),
                                           nw._input_cols(arch, x), targets)
        assert losses[0] == pytest.approx(mse(net, ts), rel=1e-12)
        _, fd_skip = finite_difference_gradients(net, ts)
        assert np.max(relative_error(nw._unpack(arch, grads, 0)[1], fd_skip)) < 1e-5

    def test_channel_mismatch(self):
        net = init_network(small_arch(in_ch=2), 0)
        with pytest.raises(ValueError, match="input"):
            forward(net, np.zeros((1, 3, 8, 8)))


class TestLoss:
    def test_perfect_targets_zero_loss(self):
        rng = np.random.default_rng(0)
        arch = small_arch()
        net = init_network(arch, 1)
        src = rng.standard_normal((1, 2, 9, 9))
        ts = TrainingSet(sources=src, targets=forward(net, src))
        assert mse(net, ts) == 0.0

    def test_zero_net_unit_targets(self):
        arch = small_arch()
        zero = ScanNetwork(arch, tuple(np.zeros_like(w) for w in init_network(arch, 0).weights), None)
        src = np.zeros((1, 2, 9, 9))
        oh, ow = arch.output_shape(9, 9)
        ts = TrainingSet(sources=src, targets=np.ones((1, arch.out_channels, oh, ow)))
        assert mse(zero, ts) == pytest.approx(1.0)

    def test_matches_mean_square_oracle(self):
        rng = np.random.default_rng(2)
        arch = small_arch(skip=True)
        net = init_network(arch, 3)
        ts = make_training_set(rng, arch, batch=2)
        out = forward(net, ts.sources)
        total = 0.0
        count = 0
        for idx in np.ndindex(out.shape):
            total += (out[idx] - ts.targets[idx]) ** 2
            count += 1
        assert mse(net, ts) == pytest.approx(total / count, rel=1e-12)


def _min_preactivation(net, x):
    """Smallest |pre-ReLU| value, computed with the naive conv oracle."""
    arch = net.arch
    smallest = np.inf
    h = x
    for w, spec in zip(net.weights, arch.layers):
        z = conv_naive(h, w, arch.dilation)
        if spec.activation == "relu":
            smallest = min(smallest, float(np.min(np.abs(z))))
            h = np.maximum(z, 0.0)
        else:
            h = z
    return smallest


def finite_difference_gradients(net, ts, h=1e-5):
    """Central differences of the training loss for every weight."""
    layer_grads = []
    for li, w in enumerate(net.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            for sign in (+1, -1):
                bumped = [np.array(x) for x in net.weights]
                bumped[li][idx] += sign * h
                pnet = ScanNetwork(net.arch, tuple(bumped), net.skip_weight)
                g[idx] += sign * mse(pnet, ts)
        layer_grads.append(g / (2 * h))
    skip_grad = None
    if net.skip_weight is not None:
        skip_grad = np.zeros_like(net.skip_weight)
        for idx in np.ndindex(net.skip_weight.shape):
            for sign in (+1, -1):
                bumped = np.array(net.skip_weight)
                bumped[idx] += sign * h
                pnet = ScanNetwork(net.arch, net.weights, bumped)
                skip_grad[idx] += sign * mse(pnet, ts)
        skip_grad /= 2 * h
    return layer_grads, skip_grad


def relative_error(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def gradient_check_instance(seed, dilation=1, skip=False, depth=2):
    """One verified gradient-check instance; resamples away from ReLU kinks."""
    for attempt in range(20):
        rng = np.random.default_rng(seed + 1000 * attempt)
        arch = small_arch(in_ch=2, hidden=3, out=2, dilation=dilation, skip=skip, depth=depth)
        net = init_network(arch, seed + 1000 * attempt)
        h = 2 + arch.ky_taps_excess * dilation + 3
        ts = TrainingSet(
            sources=rng.standard_normal((1, 2, h, 9)),
            targets=rng.standard_normal((1, 2) + arch.output_shape(h, 9)),
        )
        if _min_preactivation(net, ts.sources) > 1e-3:
            return net, ts
    raise AssertionError("could not find a kink-free instance")


class TestGradients:
    @pytest.mark.parametrize("seed", range(8))
    def test_backprop_matches_finite_differences(self, seed):
        # seeds 6 and 7 add a second hidden layer, so a later layer reads
        # another later layer's output
        skip = seed % 2 == 1
        dilation = (1, 2, 3)[seed % 3]
        depth = 3 if seed >= 6 else 2
        net, ts = gradient_check_instance(seed, dilation=dilation, skip=skip, depth=depth)
        # the training path's loss and gradients, against the inference path's loss
        nw, arch = network_module, net.arch
        params = nw._pack([net], ts.sources.dtype)
        targets = np.ascontiguousarray(ts.targets[None].transpose(0, 2, 1, 3, 4))
        input_cols = nw._input_cols(arch, ts.sources)
        losses, grads = nw._loss_and_grads(arch, params, input_cols, targets)
        assert losses[0] == pytest.approx(mse(net, ts), rel=1e-12)
        layers, skip_grad = nw._unpack(arch, grads, 0)
        fd_layers, fd_skip = finite_difference_gradients(net, ts)
        for analytic, numeric in zip(layers, fd_layers):
            assert np.max(relative_error(analytic, numeric)) < 1e-5
        if skip:
            assert np.max(relative_error(skip_grad, fd_skip)) < 1e-5


def scalar(value):
    return np.full((1, 1, 1, 1), value)


class TestOptimizerSteps:
    """The update formulas ``train`` applies, on one weight."""

    def test_adam_first_step_hand_formula(self):
        g = 2.0
        params, m, v = [scalar(1.0)], [scalar(0.0)], [scalar(0.0)]
        b1, b2, eps = network_module._BETA1, network_module._BETA2, network_module._EPS
        assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
        network_module._adam_update(params, [scalar(g)], m, v, 1, 0.1)
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + eps)
        assert params[0][0, 0, 0, 0] == pytest.approx(expected, abs=1e-15)
        assert m[0][0, 0, 0, 0] == pytest.approx((1 - b1) * g, abs=1e-15)
        assert v[0][0, 0, 0, 0] == pytest.approx((1 - b2) * g * g, abs=1e-15)


class TestTrainOptimizerWiring:
    """Two ``train`` steps of a one-weight network whose loss is w**2 (gradient 2w)."""

    W0 = 0.75

    def run(self, opt):
        net = ScanNetwork(NetworkArch(1, (LayerSpec(1, 1, 1, "identity"),)), (scalar(self.W0),), None)
        trained, history = train(net, TrainingSet(np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1))), opt)
        return trained.weights[0][0, 0, 0, 0], history

    def test_adam_two_steps(self):
        lr = 0.1
        b1, b2, eps = network_module._BETA1, network_module._BETA2, network_module._EPS
        w, m, v, steps = self.W0, 0.0, 0.0, []
        for t in (1, 2):
            g = 2.0 * w
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            w = w - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            steps.append(w)
        got, history = self.run(OptimizerConfig(lr=lr, iters=2))
        assert got == pytest.approx(steps[1], abs=1e-15)
        assert np.array_equal(history, [self.W0**2, steps[0] ** 2])


class TestTrain:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(0)
        arch = small_arch()
        net = init_network(arch, 0)
        ts = make_training_set(rng, arch)
        trained, history = train(net, ts, OptimizerConfig(lr=0.0, iters=1))
        assert history.shape == (1,)
        for w0, w1 in zip(net.weights, trained.weights):
            assert np.array_equal(w0, w1)

    def test_history_minimum_not_above_start(self):
        rng = np.random.default_rng(1)
        arch = small_arch(skip=True)
        net = init_network(arch, 1)
        ts = make_training_set(rng, arch, batch=2)
        _, history = train(net, ts, OptimizerConfig(iters=500))
        assert np.isfinite(history).all()
        assert history.min() <= history[0]

    def test_deterministic_history(self):
        rng = np.random.default_rng(2)
        arch = small_arch()
        ts = make_training_set(rng, arch)
        runs = []
        for _ in range(2):
            net = init_network(arch, 3)
            _, history = train(net, ts, OptimizerConfig(iters=50))
            runs.append(history)
        assert np.array_equal(runs[0], runs[1])

    def test_divergence_raises(self):
        rng = np.random.default_rng(3)
        arch = small_arch()
        net = init_network(arch, 4)
        ts = make_training_set(rng, arch)
        with pytest.raises(TrainingDivergedError, match="iteration"):
            train(net, ts, OptimizerConfig(lr=1e100, iters=200))

    def test_learns_self_realizable_targets(self):
        # teacher and student share the architecture; loss must fall by 1e4x.
        # 12-coil, R=4 geometry: a 32-row ACS compacts to 8 lattice rows.
        rng = np.random.default_rng(5)
        arch = NetworkArch(
            24,
            (LayerSpec(32, 5, 2, "relu"), LayerSpec(6, 3, 2, "identity")),
        )
        teacher = init_network(arch, 99)
        src = rng.standard_normal((1, 24, 8, 64))
        ts = TrainingSet(sources=src, targets=forward(teacher, src))
        student = init_network(arch, 7)
        initial = mse(student, ts)
        trained, history = train(student, ts, OptimizerConfig(lr=0.001, iters=2000))
        assert mse(trained, ts) <= 1e-4 * initial


def coil_case(coils=3, depth=2, dilation=1, skip=False, seed=0):
    """Same-architecture networks, one per coil, with shared sources and per-coil targets."""
    rng = np.random.default_rng(seed)
    arch = small_arch(in_ch=2, hidden=3, out=2, dilation=dilation, skip=skip, depth=depth)
    h = 2 + arch.ky_taps_excess * dilation + 4
    src = rng.standard_normal((2, 2, h, 9))
    tgt = rng.standard_normal((coils, 2, 2) + arch.output_shape(h, 9))
    nets = [init_network(arch, 10 + c) for c in range(coils)]
    return nets, TrainingSet(sources=src, targets=tgt)


def max_relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestCoilBatching:
    """Training or running C networks together equals C independent one-network runs."""

    @pytest.mark.parametrize("opt", [OptimizerConfig(lr=0.01, iters=30)], ids=["adam"])
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_batched_training_matches_per_coil(self, opt, skip, dilation, depth):
        nets, ts = coil_case(depth=depth, dilation=dilation, skip=skip)
        trained, histories = train(nets, ts, opt)
        assert len(trained) == 3 and histories.shape == (3, 30)
        for c, net in enumerate(nets):
            alone, history = train(net, TrainingSet(ts.sources, ts.targets[c]), opt)
            assert history.shape == (30,)
            assert max_relative(histories[c], history) <= 1e-10
            assert history[-1] < history[0]
            for wb, wa in zip(trained[c].weights, alone.weights):
                assert max_relative(wb, wa) <= 1e-10
            if skip:
                assert max_relative(trained[c].skip_weight, alone.skip_weight) <= 1e-10

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_batched_forward_matches_per_coil(self, skip, dilation):
        nets, ts = coil_case(depth=3, dilation=dilation, skip=skip, seed=1)
        out = forward(nets, ts.sources)
        assert out.shape == (3,) + ts.targets.shape[1:]
        for c, net in enumerate(nets):
            assert max_relative(out[c], forward(net, ts.sources)) <= 1e-12

    def test_divergence_names_the_first_diverged_coil(self):
        nets, ts = coil_case(seed=2)
        targets = np.array(ts.targets)
        targets[1] *= 1e200  # squared error overflows for coil 1 only
        ts = TrainingSet(ts.sources, targets)
        message = r"^coil 1: non-finite training loss at iteration 1$"
        with pytest.raises(TrainingDivergedError, match=message):
            train(nets, ts, OptimizerConfig(iters=5))

    def test_rejects_mixed_architectures(self):
        nets, ts = coil_case(coils=2)
        other = init_network(small_arch(skip=True), 0)
        with pytest.raises(ValueError, match="share one architecture"):
            train([nets[0], other], ts, OptimizerConfig(iters=1))
        with pytest.raises(ValueError, match="share one architecture"):
            forward([nets[0], other], ts.sources)

    def test_rejects_target_coil_count_mismatch(self):
        nets, ts = coil_case(coils=3)
        with pytest.raises(ValueError, match="targets shape"):
            train(nets[:2], ts, OptimizerConfig(iters=1))


class TestCoilAxis:
    """One call on a stack of coils equals one call per coil."""

    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_layer_and_grads_match_one_coil_calls(self, depth, dilation):
        nw = network_module
        arch = replace(default_arch("rraki", 2, 3, depth), dilation=dilation)
        rng = np.random.default_rng(depth + 10 * dilation)
        coils, n, hh, ww = 3, 2, 3 + 2 * dilation, 9
        for li in range(1, depth):
            spec, in_ch = arch.layers[li], arch.layers[li - 1].out_channels
            h = rng.standard_normal((coils, in_ch, n, hh, ww))
            taps = spec.ky_taps * spec.kx_width
            w = rng.standard_normal((coils, taps * spec.out_channels, in_ch))
            out = nw._layer(arch, li, w, h)
            oh, ow = hh - (spec.ky_taps - 1) * dilation, ww - (spec.kx_width - 1)
            assert out.shape == (coils, spec.out_channels, n, oh, ow)
            d = rng.standard_normal(out.shape)
            grad_w, grad_h = nw._layer_grads(arch, li, w, h, d)
            assert grad_w.shape == w.shape and grad_h.shape == h.shape
            for c in range(coils):
                one = slice(c, c + 1)
                assert max_relative(out[c], nw._layer(arch, li, w[one], h[one])[0]) <= 1e-12
                gw, gh = nw._layer_grads(arch, li, w[one], h[one], d[one])
                assert max_relative(grad_w[c], gw[0]) <= 1e-12
                assert max_relative(grad_h[c], gh[0]) <= 1e-12


def later_layer_width(arch):
    """Largest input plus tap-output channel count of a later layer (0 for one layer)."""
    return max((prev.out_channels + spec.ky_taps * spec.kx_width * spec.out_channels
                for prev, spec in zip(arch.layers, arch.layers[1:])), default=0)


def spy_on_group_sizes(monkeypatch):
    """Record the size of the first coil group of every ``_coil_groups`` call."""
    sizes = []
    rule = network_module._coil_groups

    def spy(*args):
        groups = rule(*args)
        sizes.append(groups[0].stop - groups[0].start)
        return groups

    monkeypatch.setattr(network_module, "_coil_groups", spy)
    return sizes


class TestCoilGroups:
    """The later layers run in cache-sized coil groups; the group size is not in the result."""

    @staticmethod
    def run_with_groups(monkeypatch, nets, ts, size, opt):
        """``train`` and ``forward`` with the budget set for groups of ``size`` coils."""
        nw, arch = network_module, nets[0].arch
        sizes = spy_on_group_sizes(monkeypatch)
        per_position = ts.sources.itemsize * later_layer_width(arch)
        results = []
        # training sees every sample's first-layer positions, inference one sample's
        for samples, run in ((ts.sources, lambda: train(nets, ts, opt)),
                             (ts.sources[:1], lambda: forward(nets, ts.sources))):
            positions = nw._input_cols(arch, samples)[0][0].shape[1]
            monkeypatch.setattr(nw, "_COIL_GROUP_BYTES", size * positions * per_position)
            results.append(run())
        return results, sizes

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_group_size_does_not_change_the_result(self, monkeypatch, depth, dilation, skip):
        nets, ts = coil_case(coils=3, depth=depth, dilation=dilation, skip=skip, seed=4)
        opt = OptimizerConfig(lr=0.01, iters=30)
        (reference, ref_out), ref_sizes = self.run_with_groups(monkeypatch, nets, ts, 1, opt)
        # one layer has no later layers, so every coil is one group
        assert set(ref_sizes) == ({3} if depth == 1 else {1})
        for size in (2, 3):  # 3 coils in groups of 2 leave a partial last group
            ((trained, histories), out), sizes = self.run_with_groups(monkeypatch, nets, ts, size, opt)
            assert set(sizes) == ({3} if depth == 1 else {size})
            assert max_relative(histories, reference[1]) <= 1e-10
            for net, ref in zip(trained, reference[0]):
                for w, w_ref in zip(net.weights, ref.weights):
                    assert max_relative(w, w_ref) <= 1e-10
                if skip:
                    assert max_relative(net.skip_weight, ref.skip_weight) <= 1e-10
            assert max_relative(out, ref_out) <= 1e-12

    # (train, inference) group sizes at 128x128, 8 coils, R=4, ACS 32, float32:
    # the networks run on 4 virtual coils; raki and rraki train one weighting
    # branch, so all 4 fit one group, and mw_raki and mw_rraki train three
    @pytest.mark.parametrize("method, train_size, infer_size", [
        ("raki", 4, 1), ("rraki", 4, 1), ("mw_raki", 1, 1), ("mw_rraki", 2, 1),
    ])
    def test_group_sizes_at_the_benchmark_shapes(self, monkeypatch, method, train_size, infer_size):
        from mwrecon.kspace import apply_pattern, make_uniform_pattern
        from mwrecon.phantom import make_coil_maps, shepp_logan, simulate_kspace
        from mwrecon.pipelines import ReconConfig, reconstruct

        sizes = spy_on_group_sizes(monkeypatch)
        pattern = make_uniform_pattern(128, 4, 32)
        full = simulate_kspace(shepp_logan(128, 128), make_coil_maps(8, 128, 128, seed=7))
        cfg = ReconConfig(method=method, pattern=pattern, optimizer=OptimizerConfig(iters=1))
        reconstruct(apply_pattern(full, pattern), cfg)
        branches = 3 if method.startswith("mw") else 1
        # one training step, then inference one branch at a time
        assert sizes == [train_size] + [infer_size] * branches


class TestPerSampleForward:
    """``forward`` runs one batch sample (weighting branch) at a time."""

    METHODS = ["raki", "rraki", "mw_raki", "mw_rraki"]

    @pytest.mark.parametrize("method", METHODS)
    def test_batch_equals_stacked_samples(self, method):
        arch = default_arch(method, 2, 3)
        nets = [init_network(arch, c) for c in range(2)]
        x = np.random.default_rng(4).standard_normal((3, arch.in_channels, 7, 12))
        out = forward(nets, x)
        alone = np.stack([forward(nets, x[s:s + 1])[:, 0] for s in range(3)], axis=1)
        assert out.shape == alone.shape and max_relative(out, alone) <= 1e-12

    @pytest.mark.parametrize("method", METHODS)
    def test_peak_memory_does_not_grow_with_the_batch(self, method):
        nets = [init_network(default_arch(method, 8, 4), c) for c in range(8)]
        x = np.random.default_rng(5).standard_normal((3, 16, 34, 134)).astype(np.float32)

        def working_set(batch):
            tracemalloc.start()
            try:
                out = forward(nets, batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        assert working_set(x) <= 1.10 * working_set(x[:1])


class TestPrecision:
    """A float32 input computes in float32; everything else in float64."""

    @staticmethod
    def float32_case(skip, depth):
        nets, ts = coil_case(depth=depth, skip=skip, seed=3)
        src = ts.sources.astype(np.float32)
        tgt = ts.targets.astype(np.float32)
        return nets, TrainingSet(src, tgt), TrainingSet(src.astype(np.float64), tgt)

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_float32_training_tracks_float64(self, skip, depth):
        nets, ts32, ts64 = self.float32_case(skip, depth)
        assert ts32.sources.dtype == np.float32 and ts32.targets.dtype == np.float32
        assert ts64.sources.dtype == np.float64 and ts64.targets.dtype == np.float64
        opt = OptimizerConfig(lr=0.01, iters=30)
        trained32, h32 = train(nets, ts32, opt)
        _, h64 = train(nets, ts64, opt)
        assert h32.dtype == np.float64 and h32.shape == (3, 30)
        assert np.max(np.abs(h32 - h64) / h64) <= 1e-4
        assert all(w.dtype == np.float64 for net in trained32 for w in net.weights)

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_forward_keeps_float32(self, skip, depth):
        nets, ts32, ts64 = self.float32_case(skip, depth)
        out32 = forward(nets, ts32.sources)
        assert out32.dtype == np.float32
        assert forward(nets, ts64.sources).dtype == np.float64
        assert forward(nets[0], ts32.sources).dtype == np.float32
        if skip:
            assert forward(zero_main(nets[0]), ts32.sources).dtype == np.float32
        assert max_relative(out32, forward(nets, ts64.sources)) <= 1e-5

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_no_silent_upcast(self, skip, depth):
        nw = network_module
        nets, ts32, _ = self.float32_case(skip, depth)
        arch = nets[0].arch
        params = nw._pack(nets, ts32.sources.dtype)
        targets = np.ascontiguousarray(ts32.targets.transpose(0, 2, 1, 3, 4))
        input_cols = nw._input_cols(arch, ts32.sources)
        losses, grads = nw._loss_and_grads(arch, params, input_cols, targets)
        assert len(params) == len(grads) == depth + skip
        for p, g in zip(params, grads):
            assert p.dtype == np.float32 and g.dtype == np.float32 and g.shape == p.shape
        assert losses.dtype == np.float64 and np.isfinite(losses).all()
        # _loss_and_grads writes into preallocated float32 buffers, which
        # would hide an upcast in the later layers, so check them on their own
        h = nw._first_layer(arch, params[0], *input_cols[0])
        assert h.dtype == np.float32
        for li in range(1, depth):
            out = nw._layer(arch, li, params[li], h)
            grad_w, grad_h = nw._layer_grads(arch, li, params[li], h, out)
            assert out.dtype == grad_w.dtype == grad_h.dtype == np.float32
            h = out

    # a numpy-scalar learning rate must not upcast float32 state either
    @pytest.mark.parametrize("opt", [OptimizerConfig(lr=np.float64(0.01), iters=3)], ids=["adam"])
    def test_training_loop_stays_float32(self, opt, monkeypatch):
        nets, ts32, _ = self.float32_case(skip=True, depth=3)
        seen = []
        inner = network_module._loss_and_grads

        def spy(arch, params, input_cols, targets):
            seen.append({p.dtype for p in params})
            return inner(arch, params, input_cols, targets)

        monkeypatch.setattr(network_module, "_loss_and_grads", spy)
        train(nets, ts32, opt)
        assert seen == [{np.dtype(np.float32)}] * 3

    def test_other_dtypes_compute_in_float64(self):
        nets, ts32, _ = self.float32_case(skip=True, depth=2)
        for dtype in (np.float16, np.int64):
            ts = TrainingSet(ts32.sources.astype(dtype), ts32.targets)
            assert ts.sources.dtype == np.float64 and ts.targets.dtype == np.float64
            assert forward(nets, ts32.sources.astype(dtype)).dtype == np.float64
