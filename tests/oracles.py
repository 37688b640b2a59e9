"""Independent brute-force reference implementations used only by tests.

Everything here is written as directly as possible from the defining
formulas (nested loops, direct summation) and must stay independent of the
package code paths it checks.  The coil-image helpers at the top
(``fft2c``, ``ifft2c``, ``sos_combine``) are plain numpy compositions that
only tests call; ``fft2c`` runs the package's one-coil ``_fft2c_into``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mwrecon.kspace import MultiCoilKSpace, _fft2c_into

# the container under a name that marks image-domain arguments
CoilImage = MultiCoilKSpace


def fft2c(image):
    """Centered orthonormal 2-D FFT of each coil image, one coil at a time."""
    out = np.empty_like(image.data)
    for coil, k in zip(image.data, out):
        _fft2c_into(coil, k)
    out.flags.writeable = False
    return MultiCoilKSpace(out)


def ifft2c(kspace):
    """Centered orthonormal 2-D inverse FFT of each coil's k-space."""
    d = np.fft.ifftshift(kspace.data, axes=(-2, -1))
    d = np.fft.ifft2(d, axes=(-2, -1), norm="ortho")
    return CoilImage(np.fft.fftshift(d, axes=(-2, -1)))


def sos_combine(images):
    """Root-sum-of-squares coil combination; returns a real [ny, nx] image."""
    return np.sqrt(np.sum(np.abs(images.data) ** 2, axis=0))


def dft2c_direct(x):
    """Centered orthonormal 2-D DFT by direct summation. O(N^4); keep inputs tiny."""
    x = np.asarray(x, dtype=np.complex128)
    ny, nx = x.shape
    cy, cx = ny // 2, nx // 2
    out = np.zeros_like(x)
    for ky in range(ny):
        for kx in range(nx):
            acc = 0.0 + 0.0j
            for y in range(ny):
                for xx in range(nx):
                    phase = -2j * np.pi * ((ky - cy) * (y - cy) / ny + (kx - cx) * (xx - cx) / nx)
                    acc += x[y, xx] * np.exp(phase)
            out[ky, kx] = acc / np.sqrt(ny * nx)
    return out


def idft2c_direct(k):
    """Centered orthonormal 2-D inverse DFT by direct summation."""
    k = np.asarray(k, dtype=np.complex128)
    ny, nx = k.shape
    cy, cx = ny // 2, nx // 2
    out = np.zeros_like(k)
    for y in range(ny):
        for xx in range(nx):
            acc = 0.0 + 0.0j
            for ky in range(ny):
                for kx in range(nx):
                    phase = 2j * np.pi * ((ky - cy) * (y - cy) / ny + (kx - cx) * (xx - cx) / nx)
                    acc += k[ky, kx] * np.exp(phase)
            out[y, xx] = acc / np.sqrt(ny * nx)
    return out


def sos_loop(coil_images):
    """Elementwise double-loop root-sum-of-squares."""
    n_c, ny, nx = coil_images.shape
    out = np.zeros((ny, nx))
    for y in range(ny):
        for x in range(nx):
            total = 0.0
            for c in range(n_c):
                total += abs(coil_images[c, y, x]) ** 2
            out[y, x] = np.sqrt(total)
    return out


def uniform_mask_enumerated(ny, R, acs_count):
    """Acquired-row predicate evaluated row by row."""
    acs_start = (ny - acs_count) // 2
    mask = np.zeros(ny, dtype=bool)
    for ky in range(ny):
        mask[ky] = (ky % R == 0) or (acs_start <= ky < acs_start + acs_count)
    return mask


def filter_gain(P, ny, nx, ky, kx):
    """Scalar evaluation of the radial gain ``r**(2P)`` at one grid location."""
    v = (ky - ny // 2) / ny
    u = (kx - nx // 2) / nx
    r = np.sqrt(u * u + v * v)
    return r ** (2.0 * P)


def conv_naive(x, w, dilation):
    """Valid dilated cross-correlation via six nested loops."""
    n, c_in, h, width = x.shape
    c_out, _, kt, kw = w.shape
    oh = h - (kt - 1) * dilation
    ow = width - (kw - 1)
    out = np.zeros((n, c_out, oh, ow))
    for b in range(n):
        for o in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(c_in):
                        for ti in range(kt):
                            for tj in range(kw):
                                acc += w[o, c, ti, tj] * x[b, c, i + ti * dilation, j + tj]
                    out[b, o, i, j] = acc
    return out


def grappa_apply_loops(data, weights, R, bx_half, by_taps, rows_to_fill):
    """Fill the given rows from acquired-lattice sources by direct loops.

    ``weights`` is indexed [target_coil, m-1, source_coil, by, bx]; sources
    outside the grid read zero (same padding convention the package uses).
    """
    n_c, ny, nx = data.shape
    out = np.array(data)
    k_start = -((by_taps - 1) // 2)
    for t in rows_to_fill:
        m = t % R
        g = t - m
        for i in range(n_c):
            for x in range(nx):
                acc = 0.0 + 0.0j
                for c in range(n_c):
                    for j in range(by_taps):
                        sy = g + (k_start + j) * R
                        if not 0 <= sy < ny:
                            continue
                        for dxi, dx in enumerate(range(-bx_half, bx_half + 1)):
                            sx = x + dx
                            if 0 <= sx < nx:
                                acc += weights[i, m - 1, c, j, dxi] * data[c, sy, sx]
                out[i, t, x] = acc
    return out


def random_lattice_grid(rng, n_coils, ny, nx, R):
    """Grid with random values on the acquired lattice and zeros elsewhere."""
    data = np.zeros((n_coils, ny, nx), dtype=complex)
    rows = np.arange(0, ny, R)
    data[:, rows, :] = rng.standard_normal((n_coils, rows.size, nx)) + 1j * rng.standard_normal(
        (n_coils, rows.size, nx)
    )
    return data


def planted_full_grid(rng, n_coils, ny, nx, R, bx_half=1, by_taps=2):
    """Fully sampled grid whose every off-lattice row obeys a planted kernel."""
    weights = rng.standard_normal((n_coils, R - 1, n_coils, by_taps, 2 * bx_half + 1))
    weights = weights + 1j * rng.standard_normal(weights.shape)
    weights *= 0.3  # keep synthesized rows at a comparable scale
    data = random_lattice_grid(rng, n_coils, ny, nx, R)
    missing = [t for t in range(ny) if t % R != 0]
    full = grappa_apply_loops(data, weights, R, bx_half, by_taps, missing)
    return full, weights


def grappa_source_matrix(grid, anchors, geom):
    """Flattened source patches of a ``[ky, kx, coil]`` grid, one row per (anchor, column).

    ``anchors`` are the footprints' top rows: one ascending run ``R`` rows
    apart.  Columns are coil-major, then by tap, then bx tap.
    """
    taps = sliding_window_view(grid, (geom.footprint_rows, geom.kx_width), axis=(0, 1))
    taps = taps[anchors[0] :: geom.R, :, :, :: geom.R][: anchors.size]  # [anchor, x0, coil, by, bx]
    return taps.reshape(-1, grid.shape[2] * geom.by_taps * geom.kx_width)


def lattice_windows_enumerated(acs_rows, R, row0, taps, gap):
    """Every ACS row on the grid's stride-R lattice (``row0`` is the grid row of the first ACS
    row) whose window fits the block: its ``taps + 1`` tap rows, R apart from it, and the
    R-1 target rows below tap ``gap``."""
    def fits(a):
        rows = [a + k * R for k in range(taps + 1)] + [a + gap * R + m for m in range(1, R)]
        return all(0 <= r < acs_rows for r in rows)
    return [a for a in range(acs_rows) if (row0 + a) % R == 0 and fits(a)]


def grappa_calibration_system(acs, geom, row0):
    """GRAPPA's source matrix ``A`` and the stacked targets of every (coil, offset) pair.

    Footprints anchor at every ACS row on the stride-R lattice of the full
    grid (``row0`` is the grid row of the first ACS row).  Column
    ``i * (R - 1) + m - 1`` of the targets holds coil ``i``'s ACS values
    ``m`` rows below each patch's governing acquired line.
    """
    anchors = np.array([a for a in range(acs.ny - geom.footprint_rows + 1) if (row0 + a) % geom.R == 0])
    if anchors.size == 0:
        raise ValueError(
            f"ACS too small for geometry: {acs.ny} rows, footprint needs "
            f"{geom.footprint_rows} rows on the acquisition lattice"
        )
    A = grappa_source_matrix(acs.data.transpose(1, 2, 0), anchors, geom)
    rows = anchors + geom.gap_index * geom.R + np.arange(1, geom.R)[:, None]  # [m, n_anchor]
    targets = acs.data[:, rows, geom.bx_half : acs.nx - geom.bx_half]  # [c, m, n_anchor, x0]
    B = np.ascontiguousarray(targets.reshape(acs.n_coils * (geom.R - 1), -1).T)
    return A, B


def normal_equations_solve(A, B, ridge=0.0):
    """Dense normal-equations least squares (pseudo-inverse of the Gram matrix)."""
    G = A.conj().T @ A + ridge * np.eye(A.shape[1])
    return np.linalg.pinv(G) @ (A.conj().T @ B)


def rmse_loop(recon, ref):
    """Percent relative L2 error accumulated pixel by pixel."""
    num = 0.0
    den = 0.0
    ny, nx = ref.shape
    for y in range(ny):
        for x in range(nx):
            num += (recon[y, x] - ref[y, x]) ** 2
            den += ref[y, x] ** 2
    return 100.0 * np.sqrt(num) / np.sqrt(den)


def psnr_loop(recon, ref):
    """PSNR from the defining formula, accumulated pixel by pixel."""
    ny, nx = ref.shape
    peak = 0.0
    sq = 0.0
    for y in range(ny):
        for x in range(nx):
            peak = max(peak, abs(ref[y, x]))
            sq += (recon[y, x] - ref[y, x]) ** 2
    err = np.sqrt(sq / (ny * nx))
    if err == 0:
        return 300.0
    return 20.0 * np.log10(peak / err)


def _gaussian_window_loop(size, sigma):
    win = np.zeros((size, size))
    c = (size - 1) / 2.0
    for i in range(size):
        for j in range(size):
            win[i, j] = np.exp(-((i - c) ** 2 + (j - c) ** 2) / (2.0 * sigma**2))
    return win / win.sum()


def _pad_symmetric_index(i, n):
    """Map an out-of-range index to its symmetric (edge-repeating) reflection."""
    period = 2 * n
    i = i % period
    if i < 0:
        i += period
    return i if i < n else period - 1 - i


def ssim_loop(recon, ref, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """Windowed SSIM evaluated pixel by pixel with symmetric boundary lookups."""
    ny, nx = ref.shape
    drange = ref.max() - ref.min()
    if drange == 0:
        drange = 1.0
    c1 = (k1 * drange) ** 2
    c2 = (k2 * drange) ** 2
    win = _gaussian_window_loop(size, sigma)
    half = size // 2
    total = 0.0
    for y in range(ny):
        for x in range(nx):
            mx = my = mxx = myy = mxy = 0.0
            for i in range(size):
                for j in range(size):
                    yy = _pad_symmetric_index(y + i - half, ny)
                    xx = _pad_symmetric_index(x + j - half, nx)
                    a = recon[yy, xx]
                    b = ref[yy, xx]
                    w = win[i, j]
                    mx += w * a
                    my += w * b
                    mxx += w * a * a
                    myy += w * b * b
                    mxy += w * a * b
            vx = mxx - mx * mx
            vy = myy - my * my
            cov = mxy - mx * my
            total += ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return total / (ny * nx)


def shepp_logan_membership(ny, nx, ellipses):
    """Per-pixel ellipse membership sum for the phantom oracle."""
    img = np.zeros((ny, nx))
    for yi in range(ny):
        for xi in range(nx):
            y = 1.0 - 2.0 * yi / (ny - 1)
            x = -1.0 + 2.0 * xi / (nx - 1)
            total = 0.0
            for value, a, b, x0, y0, angle in ellipses:
                phi = np.deg2rad(angle)
                xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
                yr = (y - y0) * np.cos(phi) - (x - x0) * np.sin(phi)
                if (xr / a) ** 2 + (yr / b) ** 2 <= 1.0:
                    total += value
            img[yi, xi] = max(total, 0.0)
    return img


def shepp_logan_full_grid(ny, nx, ellipses):
    """Every ellipse's membership test evaluated on the whole grid."""
    y = np.linspace(1.0, -1.0, ny)[:, None]
    x = np.linspace(-1.0, 1.0, nx)[None, :]
    img = np.zeros((ny, nx))
    for value, a, b, x0, y0, angle in ellipses:
        phi = np.deg2rad(angle)
        xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
        yr = (y - y0) * np.cos(phi) - (x - x0) * np.sin(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return np.maximum(img, 0.0)


def coil_maps_tensordot(n_coils, ny, nx, seed):
    """Coil maps from one ``tensordot`` of each coil's coefficients with the
    six real polynomial planes, normalised by the mean of the stack's SoS."""
    rng = np.random.default_rng(seed)
    y = np.linspace(-1.0, 1.0, ny)[:, None]
    x = np.linspace(-1.0, 1.0, nx)[None, :]
    basis = np.stack(
        [np.broadcast_to(t, (ny, nx)) for t in (np.ones((ny, nx)), x, y, x * x, x * y, y * y)]
    )
    scales = 0.5 * np.array([0.3, 0.4, 0.4, 0.2, 0.2, 0.2])
    maps = np.empty((n_coils, ny, nx), dtype=np.complex128)
    for c in range(n_coils):
        coeff = scales * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        coeff[0] += np.exp(2j * np.pi * c / n_coils)
        maps[c] = np.tensordot(coeff, basis, axes=(0, 0))
    sos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / sos.mean()


def fft2c_stacked(images):
    """Centered orthonormal 2-D FFT of a [coil, y, x] stack in one call per step."""
    d = np.fft.ifftshift(images, axes=(-2, -1))
    d = np.fft.fft2(d, axes=(-2, -1), norm="ortho")
    return np.fft.fftshift(d, axes=(-2, -1))


def simulate_kspace_stacked(image, maps, snr_db=None, seed=0):
    """Encode the whole coil-image stack at once, then add one complex noise array."""
    clean = fft2c_stacked(image[None] * maps)
    if snr_db is None:
        return clean
    signal_norm = np.linalg.norm(clean)
    if signal_norm == 0:
        return clean
    rng = np.random.default_rng(seed)
    sigma = signal_norm * 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0 * clean.size)
    return clean + sigma * (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))


def virtual_coil_basis_svd(acs, R, tol, max_share):
    """Leading left singular vectors [C, nv] of an ACS block [C, rows, nx], by the SVD.

    ``nv = min(C, max(R, n))`` for the fewest ``n`` components holding
    ``1 - tol`` of the squared singular values; the identity when ``nv``
    exceeds ``max_share * C``.
    """
    n_coils = acs.shape[0]
    u, s, _ = np.linalg.svd(acs.reshape(n_coils, -1), full_matrices=False)
    energy = np.cumsum(s**2)
    n_kept = int(np.searchsorted(energy, (1 - tol) * energy[-1])) + 1
    nv = min(n_coils, max(R, n_kept))
    if nv > max_share * n_coils:
        return np.eye(n_coils)
    return u[:, :nv]


def scan_specific_full_grid(measured, pattern, filters, eps, basis, arch, seed, opt):
    """Scan-specific k-space with every host stage run on the full grid.

    Normalise the whole grid, project it onto ``basis`` [C, nv], stack one
    weighted copy per filter, train one network per virtual coil on the ACS
    rows of that batch, infer on every lattice row in one call, write every
    estimate into its branch, de-weight each whole branch by complex
    division (``eps`` defaults to 1e-6 of the filter's maximum), average the
    valid branches, map back to the coils and restore the acquired rows.
    The networks (``mwrecon.network``) and the training-pair cutter are the
    package's own: this checks the host path around them, and that the
    pipeline's predictions match the whole lattice's to float32 rounding
    (its GEMMs run over fewer lattice rows).  Coil products are
    taken one ky row at a time, so a row's values do not depend on which
    other rows are computed.
    """
    from mwrecon.network import forward, init_network, train
    from mwrecon.pipelines import _training_pairs

    data = measured.data
    n_coils, ny, nx = data.shape
    R = pattern.R
    nv = basis.shape[1]
    scale = np.max(np.abs(data))
    virt = np.matmul(basis.conj().T, (data / scale).transpose(1, 0, 2)).transpose(1, 0, 2)
    batch = np.stack([virt * f.h for f in filters])  # [n_f, nv, ny, nx]

    acs = slice(pattern.acs_start, pattern.acs_start + pattern.acs_count)
    ts = _training_pairs(batch[:, :, acs], R, arch, pattern.acs_start, np.float32)
    nets, _ = train([init_network(arch, seed + coil) for coil in range(nv)], ts, opt)

    lat = np.arange(0, ny, R)
    x = np.concatenate([batch[:, :, lat].real, batch[:, :, lat].imag], axis=1, dtype=np.float32)
    gap, taps, tx = arch.target_row_gap, arch.ky_taps_excess, arch.target_col_offset
    x = np.pad(x, ((0, 0), (0, 0), (gap, taps - gap), (tx, arch.rf_cols - 1 - tx)))
    out = forward(nets, x)  # [nv, n_f, 2*(R-1), n_lat, nx]
    for o, g in enumerate(lat):
        for m in range(1, R):
            if g + m < ny:
                est = out[:, :, m - 1, o] + 1j * out[:, :, (R - 1) + m - 1, o]
                batch[:, :, g + m] = est.transpose(1, 0, 2)

    acc = np.zeros((nv, ny, nx), dtype=complex)
    count = np.zeros((ny, nx))
    for est, f in zip(batch, filters):
        if f.is_all_pass:
            acc += est
            count += 1
            continue
        floor = 1e-6 * f.h.max() if eps is None else eps
        valid = f.h >= floor
        acc += np.where(valid, est / np.where(valid, f.h, 1.0), 0.0)
        count += valid
    combined = acc / count
    final = np.matmul(basis, combined.transpose(1, 0, 2)).transpose(1, 0, 2) * scale
    final[:, pattern.mask] = data[:, pattern.mask]
    return final
