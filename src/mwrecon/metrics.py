"""Image-quality metrics on real-valued magnitude images: RMSE, PSNR, SSIM.

* RMSE is the relative L2 error in percent: ``100 * ||a - b|| / ||b||``.
* PSNR uses the reference's maximum magnitude as the peak and is capped at
  300 dB for exact matches.
* SSIM is single-scale with an 11x11 Gaussian window (sigma 1.5),
  K1=0.01, K2=0.03, dynamic range ``max(ref) - min(ref)``, and symmetric
  (edge-reflecting) boundary handling.

SSIM's five local moments (means of ``x``, ``y``, ``x*x``, ``y*y``, ``x*y``)
come from one separable operator.  The 2-D window is the outer product of
the normalised 1-D Gaussian with itself, and symmetric padding reflects the
row and the column index independently, so every windowed 2-D sum is a
1-D weighted sum along the rows followed by one along the columns.  Each
1-D pass is linear in the image, hence an ``[n, n]`` matrix: row ``i``
holds the Gaussian taps at the reflected indices of ``i - 5 .. i + 5``
(taps that reflect onto the same pixel add).  A moment map ``m`` is then
``S_rows @ m @ S_cols.T``: the 2-D window's weighted sum, regrouped, so
the result differs from it only by rounding (~1e-16), and no padded copy
or patch array is built.  Reflection keeps every tap of row ``i`` within
``i - 5 .. i + 5``, so each operator is a band: a block of output rows
``i0:i1`` is multiplied by ``S[i0:i1, i0 - 5:i1 + 5]`` only (clipped at
the edges), which skips the zeros a full ``[n, n]`` product would add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSNR_CAP_DB = 300.0
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_BAND_ROWS = 32  # output rows per banded product


@dataclass(frozen=True)
class MetricReport:
    psnr_db: float
    ssim: float
    rmse_pct: float


def _check_pair(recon, ref):
    recon = np.asarray(recon, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if recon.shape != ref.shape:
        raise ValueError(f"image shapes differ: {recon.shape} vs {ref.shape}")
    return recon, ref


def rmse(recon: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 error in percent."""
    recon, ref = _check_pair(recon, ref)
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0:
        raise ValueError("reference image has zero norm")
    return 100.0 * float(np.linalg.norm(recon - ref) / ref_norm)


def psnr(recon: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, peak = max |ref|, capped at 300."""
    recon, ref = _check_pair(recon, ref)
    err = np.sqrt(np.mean((recon - ref) ** 2))
    if err == 0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 20.0 * float(np.log10(np.max(np.abs(ref)) / err)))


def _window_operator(n: int) -> np.ndarray:
    """``[n, n]`` matrix of the 1-D SSIM window with the symmetric boundary folded in."""
    r = np.arange(_SSIM_WINDOW) - _SSIM_WINDOW // 2
    g = np.exp(-(r**2) / (2.0 * _SSIM_SIGMA**2))
    g /= g.sum()
    cols = np.arange(n)[:, None] + r  # [n, taps]; n >= window, so one reflection suffices
    cols = np.where(cols < 0, -cols - 1, cols)
    cols = np.where(cols >= n, 2 * n - 1 - cols, cols)
    op = np.zeros((n, n))
    for tap in range(_SSIM_WINDOW):
        op[np.arange(n), cols[:, tap]] += g[tap]
    return op


def _apply_band(op: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """``op @ maps`` over the maps' second-to-last axis, for a banded window operator ``op``."""
    n = op.shape[0]
    half = _SSIM_WINDOW // 2
    out = np.empty(maps.shape[:-2] + (n, maps.shape[-1]))
    for i0 in range(0, n, _SSIM_BAND_ROWS):
        i1 = min(i0 + _SSIM_BAND_ROWS, n)
        lo, hi = max(0, i0 - half), min(n, i1 + half)
        np.matmul(op[i0:i1, lo:hi], maps[..., lo:hi, :], out=out[..., i0:i1, :])
    return out


def ssim(recon: np.ndarray, ref: np.ndarray) -> float:
    """Mean local structural similarity."""
    recon, ref = _check_pair(recon, ref)
    if min(recon.shape) < _SSIM_WINDOW:
        raise ValueError(f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for SSIM")
    drange = float(ref.max() - ref.min())
    if drange == 0:
        drange = 1.0  # constant reference: only an exact match scores 1
    c1 = (_SSIM_K1 * drange) ** 2
    c2 = (_SSIM_K2 * drange) ** 2
    maps = np.stack([recon, ref, recon * recon, ref * ref, recon * ref])
    rows, cols = (_window_operator(n) for n in recon.shape)
    along_rows = _apply_band(rows, maps)
    mu_x, mu_y, xx, yy, xy = _apply_band(cols, along_rows.swapaxes(1, 2)).swapaxes(1, 2)
    var_x = xx - mu_x**2
    var_y = yy - mu_y**2
    cov = xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def evaluate(recon: np.ndarray, ref: np.ndarray) -> MetricReport:
    """All three metrics for a reconstruction against its reference."""
    return MetricReport(psnr_db=psnr(recon, ref), ssim=ssim(recon, ref), rmse_pct=rmse(recon, ref))
