import numpy as np
import pytest

from mwrecon.metrics import MetricReport, evaluate, psnr, rmse, ssim
from oracles import psnr_loop, rmse_loop, ssim_loop


def translated(img, dy, dx):
    """Shift content down-right with symmetric (edge-reflecting) fill."""
    return np.pad(img, ((dy, 0), (dx, 0)), mode="symmetric")[: img.shape[0], : img.shape[1]]


class TestRmse:
    def test_identity_is_zero(self):
        img = np.random.default_rng(0).random((16, 16))
        assert rmse(img, img) == 0.0

    def test_all_zeros_vs_all_ones(self):
        assert rmse(np.zeros((8, 8)), np.ones((8, 8))) == pytest.approx(100.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((32, 32)), rng.random((32, 32))
        assert rmse(a, b) == pytest.approx(rmse_loop(a, b), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert rmse(3.7 * a, 3.7 * b) == pytest.approx(rmse(a, b), abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            rmse(np.ones((8, 8)), np.zeros((8, 8)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        perm = rng.permutation(64)
        ap = a.reshape(-1)[perm].reshape(8, 8)
        bp = b.reshape(-1)[perm].reshape(8, 8)
        assert rmse(ap, bp) == pytest.approx(rmse(a, b), abs=1e-12)


class TestPsnr:
    def test_identity_hits_cap(self):
        img = np.random.default_rng(0).random((16, 16))
        assert psnr(img, img) == 300.0

    def test_twenty_db_case(self):
        ref = np.zeros((10, 10))
        ref[0, 0] = 1.0  # peak magnitude 1
        recon = ref + 0.1  # rms error exactly 0.1
        assert psnr(recon, ref) == pytest.approx(20.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((32, 32)), rng.random((32, 32))
        assert psnr(a, b) == pytest.approx(psnr_loop(a, b), abs=1e-10)

    def test_strictly_decreasing_with_noise(self):
        rng = np.random.default_rng(5)
        ref = rng.random((32, 32))
        noise = rng.standard_normal((32, 32))
        values = [psnr(ref + sigma * noise, ref) for sigma in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        perm = rng.permutation(64)
        ap = a.reshape(-1)[perm].reshape(8, 8)
        bp = b.reshape(-1)[perm].reshape(8, 8)
        assert psnr(ap, bp) == pytest.approx(psnr(a, b), abs=1e-12)


class TestSsim:
    def test_identity_is_one(self):
        img = np.random.default_rng(0).random((16, 16))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_pair_is_one(self):
        img = np.full((16, 16), 3.5)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_is_negative(self):
        # high-frequency zero-mean pattern: local means vanish, structure flips
        y, x = np.mgrid[0:24, 0:24]
        ref = ((-1.0) ** (y + x)).astype(float)
        assert ssim(-ref, ref) < 0.0

    @pytest.mark.parametrize(
        "shape",
        [(32, 32), (11, 11), (13, 29), (40, 17), (37, 70), (64, 33)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_matches_loop_oracle(self, shape):
        # non-square shapes exercise distinct row and column window operators;
        # 11 is below one band block of rows, and 37 and 70 end a block within
        # 5 rows of the edge, where the band is clipped
        rng = np.random.default_rng(7)
        a, b = rng.random(shape), rng.random(shape)
        assert ssim(a, b) == pytest.approx(ssim_loop(a, b), abs=1e-12)

    def test_rejects_small_images(self):
        with pytest.raises(ValueError, match="11"):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_translation_invariant_with_agreeing_border(self):
        # recon == ref on a wide border band, so every boundary window scores
        # exactly 1 before and after the shift; interior values just move.
        rng = np.random.default_rng(8)
        ref = rng.random((48, 48))
        recon = ref.copy()
        band = 16
        recon[band:-band, band:-band] += 0.1 * rng.standard_normal((16, 16))
        before = ssim(recon, ref)
        after = ssim(translated(recon, 2, 3), translated(ref, 2, 3))
        assert after == pytest.approx(before, abs=1e-6)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(9)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        report = evaluate(a, b)
        assert isinstance(report, MetricReport)
        assert report.psnr_db == psnr(a, b)
        assert report.ssim == ssim(a, b)
        assert report.rmse_pct == rmse(a, b)

    def test_identity_report(self):
        img = np.random.default_rng(10).random((16, 16))
        report = evaluate(img, img)
        assert report.psnr_db == 300.0
        assert report.ssim == pytest.approx(1.0, abs=1e-12)
        assert report.rmse_pct == 0.0
