import re
import struct
import tracemalloc

import numpy as np
import pytest

from mwrecon.kspace import (
    KSpaceFormatError,
    MultiCoilKSpace,
    apply_pattern,
    extract_acs,
    load_kspace,
    load_pattern,
    make_uniform_pattern,
    save_kspace,
    save_pattern,
)
from oracles import (
    CoilImage,
    dft2c_direct,
    fft2c,
    idft2c_direct,
    ifft2c,
    sos_combine,
    sos_loop,
    uniform_mask_enumerated,
)


def random_kspace(rng, n_coils, ny, nx):
    data = rng.standard_normal((n_coils, ny, nx)) + 1j * rng.standard_normal((n_coils, ny, nx))
    return MultiCoilKSpace(data)


class TestTypes:
    def test_shape_properties(self):
        ks = MultiCoilKSpace(np.zeros((3, 4, 5), dtype=complex))
        assert (ks.n_coils, ks.ny, ks.nx) == (3, 4, 5)

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 4, 4), dtype=complex)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MultiCoilKSpace(bad)

    @pytest.mark.parametrize("value", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0),
                                       complex(0, -np.inf)], ids=["nan_re", "nan_im", "inf_re", "-inf_im"])
    def test_rejects_non_finite_in_either_part(self, value):
        bad = np.zeros((2, 3, 5), dtype=complex)
        bad[1, 2, 4] = value
        with pytest.raises(ValueError, match="non-finite"):
            MultiCoilKSpace(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="coil"):
            MultiCoilKSpace(np.zeros((4, 4), dtype=complex))

    def test_data_is_immutable(self):
        ks = MultiCoilKSpace(np.zeros((1, 4, 4), dtype=complex))
        with pytest.raises(ValueError):
            ks.data[0, 0, 0] = 1.0

    def test_construction_copies_input(self):
        src = np.ones((1, 4, 4), dtype=complex)
        ks = MultiCoilKSpace(src)
        src[0, 0, 0] = 9.0
        assert ks.data[0, 0, 0] == 1.0

    def test_frozen_owned_array_is_taken_over(self):
        src = np.ones((1, 4, 4), dtype=complex)
        src.flags.writeable = False
        ks = MultiCoilKSpace(src)
        assert np.shares_memory(ks.data, src)

    def test_writeable_array_is_copied(self):
        src = np.ones((1, 4, 4), dtype=complex)
        ks = MultiCoilKSpace(src)
        assert not np.shares_memory(ks.data, src)
        assert src.flags.writeable

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        src = np.ones((1, 4, 4), dtype=complex)
        view = src[:]
        view.flags.writeable = False
        ks = MultiCoilKSpace(view)
        src[0, 0, 0] = 9.0
        assert not np.shares_memory(ks.data, src)
        assert ks.data[0, 0, 0] == 1.0

    def test_frozen_array_is_still_checked(self):
        src = np.full((1, 2, 2), np.nan, dtype=complex)
        src.flags.writeable = False
        with pytest.raises(ValueError, match="non-finite"):
            MultiCoilKSpace(src)

    def test_coil_image_is_the_same_container(self):
        assert CoilImage is MultiCoilKSpace
        with pytest.raises(ValueError, match="coil array"):
            CoilImage(np.zeros((4, 4), dtype=complex))


class TestFFT:
    def test_constant_image_is_dc_only(self):
        img = CoilImage(np.ones((1, 4, 4), dtype=complex))
        ks = fft2c(img)
        assert ks.data[0, 2, 2] == pytest.approx(4.0)
        rest = ks.data.copy()
        rest[0, 2, 2] = 0
        assert np.max(np.abs(rest)) < 1e-14

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        img = CoilImage(rng.standard_normal((1, 8, 8)) + 1j * rng.standard_normal((1, 8, 8)))
        back = ifft2c(fft2c(img))
        assert np.max(np.abs(back.data - img.data)) < 1e-12

    def test_center_impulse_gives_flat_image(self):
        ks = np.zeros((1, 8, 8), dtype=complex)
        ks[0, 4, 4] = 1.0
        img = ifft2c(MultiCoilKSpace(ks))
        assert np.allclose(np.abs(img.data), 1.0 / 8.0, atol=1e-14)
        # cross-check against direct inverse DFT summation
        direct = idft2c_direct(ks[0])
        assert np.max(np.abs(img.data[0] - direct)) < 1e-12

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        ks = fft2c(CoilImage(x[None]))
        assert np.max(np.abs(ks.data[0] - dft2c_direct(x))) < 1e-11

    @pytest.mark.parametrize("shape", [(8, 8), (16, 32), (64, 64), (256, 256)])
    def test_roundtrip_tolerance_across_sizes(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        ks = random_kspace(rng, 2, *shape)
        back = fft2c(ifft2c(ks))
        assert np.max(np.abs(back.data - ks.data)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(2)
        img = CoilImage(rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16)))
        ks = fft2c(img)
        assert np.linalg.norm(ks.data) == pytest.approx(np.linalg.norm(img.data), abs=1e-10)


class TestPattern:
    def test_small_example(self):
        p = make_uniform_pattern(ny=8, R=4, acs_count=2)
        assert p.acs_start == 3
        assert set(np.flatnonzero(p.mask)) == {0, 3, 4}

    def test_pattern_is_three_numbers(self):
        p = make_uniform_pattern(ny=16, R=3, acs_count=4)
        assert p == make_uniform_pattern(16, 3, 4) and hash(p) == hash(make_uniform_pattern(16, 3, 4))
        assert p != make_uniform_pattern(16, 3, 6)
        assert p.mask is p.mask  # derived once
        with pytest.raises(ValueError):
            p.mask[1] = True
        with pytest.raises(AttributeError):
            p.mask = np.ones(16, dtype=bool)
        with pytest.raises(AttributeError):
            p.acs_start = 0

    def test_rejects_unaccelerated(self):
        with pytest.raises(ValueError, match=">= 2"):
            make_uniform_pattern(ny=8, R=1, acs_count=2)

    def test_rejects_oversized_acs(self):
        with pytest.raises(ValueError):
            make_uniform_pattern(ny=8, R=2, acs_count=9)

    def test_large_pattern_matches_enumeration(self):
        p = make_uniform_pattern(ny=256, R=6, acs_count=40)
        expected = uniform_mask_enumerated(256, 6, 40)
        assert np.array_equal(p.mask, expected)
        assert p.mask.sum() == expected.sum() == 76

    @pytest.mark.parametrize("ny,R,acs", [(64, 2, 16), (100, 3, 21), (256, 10, 40)])
    def test_mask_predicate(self, ny, R, acs):
        p = make_uniform_pattern(ny, R, acs)
        assert np.array_equal(p.mask, uniform_mask_enumerated(ny, R, acs))


class TestApplyPattern:
    def test_ones_grid(self):
        full = MultiCoilKSpace(np.ones((1, 4, 4), dtype=complex))
        p = make_uniform_pattern(ny=4, R=2, acs_count=1)
        out = apply_pattern(full, p)
        # acs row 1 plus stride rows 0 and 2
        assert np.all(out.data[:, [0, 1, 2], :] == 1)
        assert np.all(out.data[:, 3, :] == 0)

    def test_fully_sampled_is_identity(self):
        rng = np.random.default_rng(3)
        full = random_kspace(rng, 2, 8, 8)
        p = make_uniform_pattern(ny=8, R=2, acs_count=8)
        out = apply_pattern(full, p)
        assert np.array_equal(out.data, full.data)

    def test_nonzero_rows_equal_mask(self):
        rng = np.random.default_rng(4)
        full = random_kspace(rng, 12, 64, 64)
        p = make_uniform_pattern(ny=64, R=4, acs_count=16)
        out = apply_pattern(full, p)
        nonzero_rows = np.any(out.data != 0, axis=(0, 2))
        assert np.array_equal(nonzero_rows, p.mask)
        assert np.array_equal(out.data[:, p.mask, :], full.data[:, p.mask, :])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        full = random_kspace(rng, 3, 16, 16)
        p = make_uniform_pattern(ny=16, R=3, acs_count=4)
        once = apply_pattern(full, p)
        twice = apply_pattern(once, p)
        assert np.array_equal(once.data, twice.data)

    def test_dimension_mismatch(self):
        full = MultiCoilKSpace(np.zeros((1, 8, 8), dtype=complex))
        p = make_uniform_pattern(ny=16, R=2, acs_count=4)
        with pytest.raises(ValueError, match="rows"):
            apply_pattern(full, p)


class TestExtractAcs:
    def test_two_row_block(self):
        rng = np.random.default_rng(6)
        ks = random_kspace(rng, 2, 8, 4)
        p = make_uniform_pattern(ny=8, R=4, acs_count=2)
        acs = extract_acs(ks, p)
        assert acs.ny == 2
        assert np.array_equal(acs.data, ks.data[:, 3:5, :])

    def test_whole_grid(self):
        rng = np.random.default_rng(7)
        ks = random_kspace(rng, 1, 8, 4)
        p = make_uniform_pattern(ny=8, R=2, acs_count=8)
        acs = extract_acs(ks, p)
        assert np.array_equal(acs.data, ks.data)

    def test_centered_block_rows(self):
        rng = np.random.default_rng(8)
        ks = random_kspace(rng, 1, 256, 8)
        p = make_uniform_pattern(ny=256, R=6, acs_count=40)
        acs = extract_acs(ks, p)
        assert p.acs_start == 108
        assert np.array_equal(acs.data, ks.data[:, 108:148, :])

    def test_acs_rows_survive_apply_pattern(self):
        rng = np.random.default_rng(9)
        ks = random_kspace(rng, 2, 32, 8)
        p = make_uniform_pattern(ny=32, R=4, acs_count=8)
        und = apply_pattern(ks, p)
        assert np.array_equal(extract_acs(und, p).data, extract_acs(ks, p).data)


class TestSos:
    def test_single_coil_magnitude(self):
        img = CoilImage(np.full((1, 1, 1), 3 + 4j))
        assert sos_combine(img)[0, 0] == pytest.approx(5.0)

    def test_two_coil_unit_values(self):
        img = CoilImage(np.array([[[1.0 + 0j]], [[1j]]]))
        assert sos_combine(img)[0, 0] == pytest.approx(np.sqrt(2.0))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((12, 16, 16)) + 1j * rng.standard_normal((12, 16, 16))
        assert np.max(np.abs(sos_combine(CoilImage(data)) - sos_loop(data))) < 1e-12

    def test_invariant_to_per_coil_phase(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        rotated = data * phases[:, None, None]
        assert np.max(np.abs(sos_combine(CoilImage(data)) - sos_combine(CoilImage(rotated)))) < 1e-12


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        # float32-representable values so the 32-bit payload is lossless
        re = rng.standard_normal((4, 8, 8)).astype(np.float32)
        im = rng.standard_normal((4, 8, 8)).astype(np.float32)
        ks = MultiCoilKSpace(re.astype(np.float64) + 1j * im.astype(np.float64))
        path = tmp_path / "grid.mwks"
        save_kspace(path, ks)
        back = load_kspace(path)
        assert np.array_equal(back.data, ks.data)

    def test_header_layout(self, tmp_path):
        ks = MultiCoilKSpace(np.zeros((2, 3, 5), dtype=complex))
        path = tmp_path / "grid.mwks"
        save_kspace(path, ks)
        raw = path.read_bytes()
        assert raw[:4] == b"MWKS"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 3
        assert int.from_bytes(raw[16:20], "little") == 5
        assert len(raw) == 20 + 2 * 3 * 5 * 8

    def test_payload_bytes(self, tmp_path):
        # interleaved little-endian float32 (re, im), coil-major then ky then kx
        data = np.array([[[1.5 - 2j, 0.1 + 3j]], [[-0.0 + 1e-40j, 2.0**-30 - 7j]]])
        path = tmp_path / "grid.mwks"
        save_kspace(path, MultiCoilKSpace(data))
        payload = b"".join(
            struct.pack("<ff", z.real, z.imag) for z in data.reshape(-1)
        )
        assert path.read_bytes()[20:] == payload

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mwks"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(KSpaceFormatError, match=re.escape(f"{path}: bad magic")):
            load_kspace(path)

    @pytest.mark.parametrize("raw, problem", [
        (b"MWKS" + bytes(8), "file shorter than header"),
        (struct.pack("<4sIIII", b"MWKS", 2, 1, 4, 4) + bytes(128), "unsupported format version 2"),
        (struct.pack("<4sIIII", b"MWKS", 1, 0, 4, 4), "bad dimensions 0x4x4"),
    ], ids=["short_header", "version", "zero_coils"])
    def test_bad_header_names_the_file(self, tmp_path, raw, problem):
        path = tmp_path / "bad.mwks"
        path.write_bytes(raw)
        with pytest.raises(KSpaceFormatError, match=re.escape(f"{path}: {problem}")):
            load_kspace(path)

    @pytest.mark.parametrize("header_coils, payload_bytes", [
        (2, 128),  # claims 2 coils, payload holds 1
        (1, 0),
        (1, 124),
        (1, 132),
    ], ids=["two_coils_claimed", "header_only", "one_float_short", "one_float_long"])
    def test_payload_length_must_match_the_header(self, tmp_path, header_coils, payload_bytes):
        path = tmp_path / "grid.mwks"
        path.write_bytes(struct.pack("<4sIIII", b"MWKS", 1, header_coils, 4, 4) + bytes(payload_bytes))
        implied = header_coils * 4 * 4 * 8
        message = f"{path}: payload has {payload_bytes} bytes, header implies {implied}"
        with pytest.raises(KSpaceFormatError, match=re.escape(message)):
            load_kspace(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.mwks"
        path.write_bytes(struct.pack("<4sIIII", b"MWKS", 1, 2**31, 2**31, 2**31))
        with pytest.raises(KSpaceFormatError, match=re.escape(f"{path}: bad dimensions")):
            load_kspace(path)

    def test_load_holds_the_array_and_one_coil(self, tmp_path):
        # a whole-file copy beside the array would add half the array's size
        rng = np.random.default_rng(13)
        path = tmp_path / "grid.mwks"
        save_kspace(path, random_kspace(rng, 16, 64, 64))
        tracemalloc.start()
        try:
            ks = load_kspace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ks.data.nbytes

    def test_payload_is_the_whole_array_narrowed_to_float32(self, tmp_path):
        rng = np.random.default_rng(14)
        data = random_kspace(rng, 3, 17, 9).data * 1e3  # values float32 must round
        path = tmp_path / "grid.mwks"
        save_kspace(path, MultiCoilKSpace(data))
        assert path.read_bytes()[20:] == data.view(np.float64).astype("<f4").tobytes()

    def test_save_holds_one_coil_beside_the_array(self, tmp_path):
        # a whole-array float32 copy would add half the array's size
        ks = random_kspace(np.random.default_rng(13), 16, 64, 64)
        tracemalloc.start()
        try:
            save_kspace(tmp_path / "grid.mwks", ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * ks.data.nbytes

    def test_pattern_roundtrip(self, tmp_path):
        p = make_uniform_pattern(ny=256, R=6, acs_count=40)
        path = tmp_path / "pattern.txt"
        save_pattern(path, p)
        text = path.read_text()
        assert "R = 6" in text and "acs_count = 40" in text
        back = load_pattern(path)
        assert back == p

    def test_pattern_accepts_comments(self, tmp_path):
        path = tmp_path / "pattern.txt"
        path.write_text("# written by hand\nny = 64  # rows\nR = 4\nacs_count = 16 # block\n")
        assert load_pattern(path) == make_uniform_pattern(64, 4, 16)

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("ny = 64\nR = 4\n", r"missing keys \['acs_count'\]"),
            ("ny = 64\nR = four\nacs_count = 16\n", r"bad value for key 'R'"),
            ("ny = 64\nR = 4\nacs = 16\nacs_count = 16\n", r":3: unknown key 'acs'"),
        ],
        ids=["missing_key", "non_integer", "unknown_key"],
    )
    def test_bad_pattern_names_the_file(self, tmp_path, text, problem):
        path = tmp_path / "bad_pattern.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + problem):
            load_pattern(path)
