"""Ingestion and preprocessing: decoding, filtering, ROI, CLAHE."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from livecheck.imageproc import (
    _BLOCK_BYTES,
    RoiRect,
    _blur_same,
    as_image,
    clahe,
    convolve2d,
    crop,
    extract_roi,
    gaussian_kernel,
    gaussian_profile,
    highpass,
    ingest,
    lowpass,
    resize_bilinear,
    write_pgm,
)
from livecheck.seeds import derive_seed
from livecheck.synthdata import make_texture_dataset

from conftest import layouts
from oracles import (
    blur_same_slices,
    clahe_fancy_index,
    conv2d_row_slices,
    conv2d_same_reflect,
    lowpass_slices,
    resize_bilinear_oracle,
    roi_block_loops,
)


def _traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _finger_frame(height=480, width=640):
    """A sensor-sized frame: an off-center elliptical print of curved
    ridges with a soft edge on a dark background graded left to right."""
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    cy, cx = 0.55 * height, 0.45 * width
    radius = np.hypot((y - cy) / (0.3 * height), (x - cx) / (0.18 * width))
    ridges = 0.5 + 0.5 * np.sin(2.0 * np.pi * np.hypot(y - 0.2 * height, x - cx) / 9.0)
    mask = np.clip(6.0 * (1.0 - radius), 0.0, 1.0)
    background = 0.02 * x / width
    return background + mask * (0.1 + 0.8 * ridges - background)


class TestAsImage:
    def test_non_finite_rejected_as_non_finite(self):
        for value in (np.nan, np.inf, -np.inf):
            img = np.full((3, 4), 0.5)
            img[1, 2] = value
            with pytest.raises(ValueError, match="non-finite"):
                as_image(img)

    def test_out_of_range_rejected_as_range(self):
        for value in (1.0000001, -1e-12):
            img = np.full((3, 4), 0.5)
            img[2, 3] = value
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                as_image(img)

    @pytest.mark.parametrize("validate", [as_image, extract_roi, clahe], ids=["as_image", "extract_roi", "clahe"])
    def test_complex_rejected_before_the_cast(self, validate):
        """A cast to float64 would keep only the real part; the complex
        dtype is rejected first, with zero imaginary parts too."""
        img = np.random.default_rng(3).uniform(0.0, 1.0, size=(48, 64))
        for bad in (img + 0.7j, img.astype(np.complex128)):
            with pytest.raises(ValueError, match="real numbers, got dtype complex128"):
                validate(bad)
        validate(img)


class TestIngest:
    def test_p5_two_by_two(self):
        """Raw bytes map to v/255 in row-major order."""
        data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        img = ingest(data)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_array_equal(img, expected)

    def test_p5_header_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n  2\t1 # dims\n255\n" + bytes([10, 20])
        img = ingest(data)
        np.testing.assert_array_equal(img, np.array([[10 / 255, 20 / 255]]))

    def test_p2_ascii(self):
        data = b"P2\n# plain text\n3 1\n255\n0 128 255\n"
        img = ingest(data)
        np.testing.assert_array_equal(img, np.array([[0.0, 128 / 255, 1.0]]))

    def test_sub_255_maxval_accepted(self):
        img = ingest(b"P5\n1 1\n100\n" + bytes([100]))
        assert img[0, 0] == pytest.approx(100 / 255)

    def test_truncated_pixels_rejected(self):
        with pytest.raises(ValueError, match="unsupported format"):
            ingest(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="unsupported format"):
            ingest(b"P5\n2 2\n")

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError, match="unsupported format"):
            ingest(b"P6\n1 1\n255\n\x00\x00\x00")

    def test_wide_maxval_rejected(self):
        with pytest.raises(ValueError, match="unsupported format"):
            ingest(b"P5\n1 1\n65535\n\x00\x00")

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="unsupported format"):
            ingest(b"P5\n0 2\n255\n")

    def test_truncated_p2_rejected(self):
        with pytest.raises(ValueError, match="unsupported format"):
            ingest(b"P2\n2 2\n255\n1 2 3\n")

    def test_pixel_above_maxval_rejected(self):
        for data in (b"P5\n1 1\n100\n" + bytes([200]), b"P2 2 1 100 7 101", b"P2 2 1 255 7 " + b"9" * 30):
            with pytest.raises(ValueError, match="unsupported format: pixel value exceeds maxval"):
                ingest(data)

    def test_p2_decodes_like_p5(self, rng):
        """A frame written as plain text, with comments inside and after tokens,
        zero-padded values and trailing data, gives the P5 frame's bits."""
        codes = rng.integers(0, 256, size=(48, 64))
        tokens = [f"{v:04d}" if v % 7 == 0 else str(v) for v in codes.ravel()]
        tokens[5] += "#comment\n"
        rows = [" ".join(tokens[k : k + 64]) for k in range(0, len(tokens), 64)]
        text = "P2\n64 48 # dims\n255\n" + "\n# between rows\r".join(rows) + "\n999 junk\n"
        binary = b"P5\n64 48\n255\n" + codes.astype(np.uint8).tobytes()
        assert ingest(text.encode()).tobytes() == ingest(binary).tobytes()

    def test_write_then_ingest_round_trip(self, random_image):
        img = random_image(9, 7)
        quantized = np.rint(img * 255.0) / 255.0
        np.testing.assert_allclose(ingest(write_pgm(img)), quantized, atol=1e-12)

    def test_writer_emits_binary_p5(self):
        data = write_pgm(np.array([[0.0, 1.0]]))
        assert data.startswith(b"P5\n2 1\n255\n")
        assert data[-2:] == bytes([0, 255])

    def test_writer_codes_match_oracle(self, rng):
        """``write_pgm`` rounds ``img * 255`` in row blocks; the codes are
        ``rint(img * 255)`` over the whole image, ties
        (k + 0.5) / 255 included, on one-block, frame, tall and wide shapes."""
        ties = (np.arange(255) + 0.5) / 255.0
        images = [ties.reshape(15, 17), np.resize(ties, (480, 640)), rng.uniform(0.0, 1.0, size=(64, 64))]
        images += [np.resize(ties, (_BLOCK_BYTES // 8 + 3, 3)), np.resize(ties, (3, _BLOCK_BYTES // 8 + 5))]
        images.append(np.resize(ties, (200, 640))[::-2, ::3])
        for img in images:
            codes = np.rint(img * 255.0).astype(np.uint8)
            height, width = img.shape
            data = write_pgm(img)
            assert type(data) is bytes
            assert data == f"P5\n{width} {height}\n255\n".encode() + codes.tobytes()

    def test_writer_peak_pinned(self, rng):
        """No frame-sized float64 temporary: a 480x640 frame's float64 image alone is 2.46 MB."""
        img = rng.uniform(0.0, 1.0, size=(480, 640))
        peak = _traced_peak(lambda: write_pgm(img))
        assert peak < 1_000_000, f"traced peak {peak / 1e6:.2f} MB"


class TestResize:
    def test_scale_one_is_identity(self, random_image):
        img = random_image(11, 13)
        np.testing.assert_array_equal(resize_bilinear(img, 1.0), img)

    def test_constant_stays_constant(self):
        img = np.full((10, 8), 0.37)
        out = resize_bilinear(img, 0.5)
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_output_dims_floor(self, random_image):
        out = resize_bilinear(random_image(7, 5), 0.5)
        assert out.shape == (3, 2)

    def test_matches_per_pixel_oracle(self, rng):
        """Separable gather equals direct per-pixel interpolation."""
        for _ in range(20):
            height = int(rng.integers(4, 20))
            width = int(rng.integers(4, 20))
            scale = float(rng.uniform(0.3, 1.0))
            if int(scale * height) < 1 or int(scale * width) < 1:
                continue
            img = rng.uniform(0.0, 1.0, size=(height, width))
            np.testing.assert_allclose(
                resize_bilinear(img, scale), resize_bilinear_oracle(img, scale), atol=1e-12
            )

    def test_range_preserved(self, random_image):
        out = resize_bilinear(random_image(20, 20), 0.7)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_scale_rejected(self, random_image):
        img = random_image(4, 4)
        for scale in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                resize_bilinear(img, scale)

    def test_collapsing_scale_rejected(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((3, 3)), 0.1)


class TestFiltering:
    def test_gaussian_kernel_normalized_and_symmetric(self):
        kernel = gaussian_kernel(13, 3.0)
        assert kernel.shape == (13, 13)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(kernel, kernel[::-1, ::-1], atol=1e-15)
        np.testing.assert_allclose(kernel, kernel.T, atol=1e-15)

    def test_gaussian_kernel_rejects_even_size(self):
        with pytest.raises(ValueError):
            gaussian_kernel(12, 3.0)
        with pytest.raises(ValueError):
            gaussian_kernel(13, 0.0)

    def test_convolve_matches_oracle(self, rng):
        for _ in range(10):
            img = rng.uniform(0.0, 1.0, size=(int(rng.integers(5, 12)), int(rng.integers(5, 12))))
            kernel = rng.standard_normal((3, 3))
            np.testing.assert_allclose(
                convolve2d(img, kernel), conv2d_same_reflect(img, kernel), atol=1e-12
            )
        # lowpass is the convolution with the 13x13, sigma 3 Gaussian
        for shape in ((13, 13), (13, 22), (27, 13), (40, 50)):
            img = rng.uniform(0.0, 1.0, size=shape)
            np.testing.assert_allclose(
                lowpass(img), conv2d_same_reflect(img, gaussian_kernel(13, 3.0)), atol=1e-12
            )

    def test_convolve_bits_match_row_slices(self, rng):
        """The same products, summed in the same order, as one 2-D slice per tap."""
        cases = []
        for size in range(1, 32, 2):
            # a kernel side equal to the image's shorter side, then a larger image
            cases.append((rng.uniform(0.0, 1.0, (size, size + 5)), gaussian_kernel(size, 0.4 + size / 4)))
            cases.append((rng.uniform(0.0, 1.0, (size + 20, 2 * size + 3)), rng.standard_normal((size, size))))
        for shape, size in (((1, 1), 1), ((300, 5), 5), ((5, 300), 3), ((90, 7), 7), ((7, 90), 7)):
            cases.append((rng.uniform(0.0, 1.0, shape), gaussian_kernel(size, 1.5)))
            cases.append((rng.uniform(0.0, 1.0, shape), rng.standard_normal((size, size))))
        repeated = rng.standard_normal((7, 7))
        repeated[[3, 6]] = repeated[0]  # equal rows 0, 3 and 6, none of them neighbours
        repeated[5] = repeated[2]
        cases.append((rng.uniform(0.0, 1.0, (20, 30)), repeated))
        # a zero start: an image of -0.0 under a positive kernel gives +0.0, not -0.0
        signed = rng.uniform(0.0, 1.0, (15, 17))
        signed[rng.uniform(size=signed.shape) < 0.3] = -0.0
        cases += [(-np.zeros((9, 9)), gaussian_kernel(5, 1.0)), (signed, gaussian_kernel(5, 1.0))]
        wide = rng.uniform(0.0, 1.0, (40, 60))
        cases.append((wide[::2, ::-3], rng.standard_normal((9, 9))))
        # Row blocks of at most ``fit`` output rows: heights fit - 1 and fit run as
        # one block, fit + 1 as two and 2 fit + 1 as three; each block reuses the
        # equal kernel rows and starts from zero.
        fit = _BLOCK_BYTES // (8 * (150 + 6)) - 6
        for height in (fit - 1, fit, fit + 1, 2 * fit + 1):
            img = rng.uniform(0.0, 1.0, (height, 150))
            cases += [(img, gaussian_kernel(7, 1.5)), (img, repeated), (img, rng.standard_normal((7, 7)))]
        blocked_zeros = -np.zeros((2 * fit + 1, 150))
        tall = rng.uniform(0.0, 1.0, (4 * fit + 2, 450))
        cases += [(blocked_zeros, gaussian_kernel(7, 1.5)), (tall[::-2, ::-3], repeated)]
        for img, kernel in cases:
            got, want = convolve2d(img, kernel), conv2d_row_slices(img, kernel)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (img.shape, kernel.shape)
        for zeros in (-np.zeros((9, 9)), blocked_zeros):
            assert np.signbit(convolve2d(zeros, gaussian_kernel(5, 1.0))).sum() == 0

    def test_convolve_peak_pinned(self, rng):
        """A 480x640 image and a 9x9 Gaussian: the result takes about 2.5 MB, and
        one row block's padded rows, passes and product add about 2 MB (4.4 MB in
        all).  A whole-image padded copy read 6.7 MB."""
        img, kernel = rng.uniform(0.0, 1.0, size=(480, 640)), gaussian_kernel(9, 1.5)
        peak = _traced_peak(lambda: convolve2d(img, kernel))
        assert peak < 5_500_000, f"traced peak {peak / 1e6:.2f} MB"

    def test_convolve_kernel_flip(self):
        """An asymmetric kernel distinguishes convolution from correlation."""
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        kernel = np.zeros((3, 3))
        kernel[0, 1] = 1.0  # weight above center
        out = convolve2d(img, kernel)
        # impulse response of a convolution is the kernel itself;
        # correlation would place the weight below the impulse instead
        assert out[1, 2] == 1.0
        assert out[3, 2] == 0.0

    def test_convolve_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            convolve2d(np.zeros((3, 3)), np.ones((5, 5)) / 25.0)

    def test_spoof_generators_pinned(self, perfbench_frames):
        """The bits of the benchmark's training images, so that a drift names the
        generator (``convolve2d`` makes every fake) before any model digest moves."""

        def digest(images):
            return hashlib.sha256(b"".join(img.tobytes() for img in images)).hexdigest()

        seed = derive_seed(2015, "select-lbp-aug", "train")
        textures, _ = make_texture_dataset(12, size=64, seed=seed, blur_sigma=0.4)
        frames, _ = perfbench_frames.finger_frames(2, derive_seed(2015, "scan-sensor", "train"), 0.4)
        assert digest(textures) == "d2c4c1c21c8f494b4c12444aae82c79845865bc37f1d88575b0d62963c9dd3cd"
        assert digest(frames) == "7bc170d206e0718888e617700fd62fa6ea1c34caa38050d16e28c3fc3da59890"

    def test_highpass_is_exact_residual(self, random_image):
        """The residual definition holds bit for bit."""
        img = random_image(20, 18)
        np.testing.assert_array_equal(highpass(img), img - lowpass(img))

    def test_lowpass_plus_highpass_reconstructs(self, random_image):
        # adding the parts back rounds once more, so exactness stops at
        # one ulp of the unit intensity scale
        img = random_image(20, 18)
        np.testing.assert_allclose(lowpass(img) + highpass(img), img, atol=2e-16, rtol=0.0)

    def test_highpass_impulse_center(self):
        """A lone bright pixel keeps 1 minus the center kernel weight."""
        img = np.zeros((31, 31))
        img[15, 15] = 1.0
        expected = 1.0 - gaussian_kernel(13, 3.0)[6, 6]
        assert highpass(img)[15, 15] == pytest.approx(expected, abs=1e-12)

    def test_lowpass_constant_preserved(self):
        img = np.full((15, 15), 0.6)
        np.testing.assert_allclose(lowpass(img), 0.6, atol=1e-12)

    def test_lowpass_keeps_flat_regions_exactly_flat(self, rng):
        """Every pixel rounds the same way, so flat input stays tied.

        LBP thresholds the highpass residual with ``>=``, and CLAHE output
        has many flat runs; a blur whose rounding depends on the pixel
        position (a dense band-matrix product, for example) breaks those
        ties and changes the LBP histograms.
        """
        assert np.unique(lowpass(np.full((300, 381), 0.6))).size == 1
        img = np.full((64, 80), 0.35)
        img[:, 40:] = rng.uniform(0.0, 1.0, size=(64, 40))
        reach = 13 // 2  # the lowpass radius
        flat = highpass(img)[:, : 40 - reach]
        assert np.unique(flat).size == 1

    def test_blur_matches_slice_loop_on_small_sides(self, rng):
        """Sides of 3 and 4, so the flat spans wrap past a row edge at almost
        every output, with profiles up to 5 taps."""
        for shape in ((3, 3), (3, 4), (4, 3), (4, 4)):
            img = rng.uniform(0.0, 1.0, size=shape)
            for taps in (1, 3, 5):
                profile = rng.uniform(0.1, 1.0, size=taps)
                for layout in layouts(img):
                    np.testing.assert_array_equal(_blur_same(layout, profile), blur_same_slices(img, profile))

    def test_lowpass_matches_slice_loop(self, rng):
        """Bit for bit: 13-wide and 13-high images, a sensor-sized crop, a
        constant and a tie-heavy image, each C-ordered, Fortran-ordered and sliced."""
        images = [rng.uniform(0.0, 1.0, size=shape) for shape in ((13, 13), (13, 40), (40, 13), (331, 244))]
        images += [np.full((20, 17), 0.6), np.round(rng.uniform(0.0, 1.0, size=(30, 29)) * 2) / 2]
        for img in images:
            want = lowpass_slices(img)
            for layout in layouts(img):
                for got, expected in ((lowpass(layout), want), (highpass(layout), img - want)):
                    np.testing.assert_array_equal(got, expected)
                    assert got.flags.c_contiguous and not np.shares_memory(got, layout)

    def test_blur_bits_match_slices_in_row_blocks(self, rng):
        """``lowpass``, ``highpass`` and ``_blur_same`` run their rows in blocks of at
        most ``fit`` output rows and give the slice oracle's bits: heights fit - 1
        and fit as one block, fit + 1 as two and 2 fit + 1 as three, a strided ROI
        crop of a 480x640 frame (the view the pipeline passes), constant and -0.0
        images and 13-pixel sides."""
        profile = gaussian_profile(13, 3.0)
        profile /= profile.sum()
        fit = _BLOCK_BYTES // (8 * (150 + 12)) - 12
        images = [rng.uniform(0.0, 1.0, (height, 150)) for height in (fit - 1, fit, fit + 1, 2 * fit + 1)]
        frame = _finger_frame()
        images += [frame[extract_roi(frame).window], np.full((2 * fit + 1, 150), 0.6), -np.zeros((fit + 1, 150))]
        images += [rng.uniform(0.0, 1.0, shape) for shape in ((13, 13), (13, 500), (500, 13))]
        for img in images:
            want = blur_same_slices(img, profile)
            for got, expected in ((lowpass(img), want), (highpass(img), img - want), (_blur_same(img, profile), want)):
                assert got.flags.c_contiguous and got.shape == img.shape
                assert got.tobytes() == expected.tobytes(), img.shape
        assert np.signbit(highpass(-np.zeros((fit + 1, 150)))).sum() == 0

    def test_blur_peak_pinned(self, rng):
        """A 356x283 ROI crop of a 480x640 frame: the result takes 0.8 MB and the four
        row-block buffers about 0.9 MB.  Whole-image passes over a padded copy, with
        a separate residual, took 3.4 MB."""
        crop = rng.uniform(0.0, 1.0, size=(480, 640))[60:416, 150:433]
        for blur in (lowpass, highpass):
            peak = _traced_peak(lambda: blur(crop))
            assert peak < 3_000_000, f"{blur.__name__}: traced peak {peak / 1e6:.2f} MB"

    def test_lowpass_rejects_small_images(self):
        with pytest.raises(ValueError):
            lowpass(np.zeros((12, 40)))


class TestRoi:
    def test_zero_image_gives_full_frame(self):
        rect = extract_roi(np.zeros((30, 40)))
        assert rect == RoiRect(0, 0, 40, 30)

    def test_centered_blob_found(self):
        """A textured blob on a flat ground of any level, and its inverse,
        crop to one rectangle that covers the blob and not the frame."""
        y, x = np.mgrid[0:48, 0:48]
        texture = 0.5 + 0.4 * np.sin(x / 1.5 + y / 2.0)
        for ground in (0.0, 0.5, 1.0):
            img = np.full((160, 160), ground)
            img[56:104, 40:88] = texture
            rect = extract_roi(img)
            assert extract_roi(1.0 - img) == rect
            assert rect.x0 <= 40 and rect.x0 + rect.width >= 88
            assert rect.y0 <= 56 and rect.y0 + rect.height >= 104
            assert rect.width < 160 and rect.height < 160

    def test_rect_always_inside_image(self, rng):
        for _ in range(10):
            img = rng.uniform(0.0, 1.0, size=(25, 31))
            rect = extract_roi(img)
            assert 0 <= rect.x0 and rect.x0 + rect.width <= 31
            assert 0 <= rect.y0 and rect.y0 + rect.height <= 25
            crop(img, rect)  # must never raise

    def test_small_image_supported(self, rng):
        """Images with no whole 16x16 block get the full frame."""
        for shape in ((7, 9), (15, 200), (200, 15)):
            assert extract_roi(rng.uniform(0.0, 1.0, size=shape)) == RoiRect(0, 0, shape[1], shape[0])

    def test_flat_blocks_give_full_frame(self, rng):
        """A frame flat on every whole block has zero mass, whatever its level
        and whatever lies past the last whole block; so has a blank or constant
        sensor frame read through PGM."""
        for level in (0.0, 0.1, 0.5, 1.0, 1.0 / 3.0):
            img = np.full((50, 70), level)
            img[48:, :] = rng.uniform(0.0, 1.0, size=(2, 70))
            img[:, 64:] = rng.uniform(0.0, 1.0, size=(50, 6))
            assert extract_roi(img) == RoiRect(0, 0, 70, 50)
            assert extract_roi(ingest(write_pgm(np.full((480, 640), level)))) == RoiRect(0, 0, 640, 480)

    def test_sensor_frame_geometry_pinned(self):
        assert extract_roi(_finger_frame()) == RoiRect(x0=128, y0=65, width=321, height=399)

    def test_matches_block_loops(self, rng, perfbench_frames):
        """Equal to the loop oracle on random, small, strided and sensor-sized
        frames, as floats and as 8-bit images; any other image is rounded
        to its 8-bit codes for the search.  Rows of blocks run in bands of
        ``_row_blocks``: 117x640 takes three uneven bands, 40x2100 one block
        row a band."""
        shapes = ((25, 31), (64, 64), (7, 9), (33, 100), (117, 640), (40, 2100))
        images = [rng.uniform(0.0, 1.0, size=shape) for shape in shapes]
        images.append(rng.uniform(0.0, 1.0, size=(200, 96))[::-3, ::2])
        images.append(np.round(rng.uniform(0.0, 1.0, size=(48, 48)) * 2) / 2)
        images.append(_finger_frame())
        images.extend(perfbench_frames.finger_frames(1, 41, 0.4)[0])
        for img in images:
            want = roi_block_loops(img)
            assert extract_roi(img) == want, img.shape
            assert extract_roi(np.rint(img * 255.0) / 255.0) == want
            assert extract_roi(ingest(write_pgm(img))) == want

    def test_block_aligned_shift_moves_the_rect(self):
        """Moving a textured blob by whole blocks moves the rectangle by the
        same amount and keeps its size, on a dark, mid-grey or light ground."""
        y, x = np.mgrid[0:48, 0:48]
        texture = 0.5 + 0.4 * np.sin(x / 1.5 + y / 2.0)
        for ground in (0.0, 0.3, 1.0):
            img = np.full((200, 240), ground)
            img[40:88, 30:78] = texture
            base = extract_roi(img)
            for dy, dx in ((0, 32), (16, 0), (48, 64)):
                moved = np.full((200, 240), ground)
                moved[40 + dy : 88 + dy, 30 + dx : 78 + dx] = texture
                assert extract_roi(moved) == RoiRect(base.x0 + dx, base.y0 + dy, base.width, base.height), (ground, dy, dx)

    def test_roi_peak_pinned(self):
        """No frame-sized float64 temporary: a 480x640 frame's float64 image alone
        is 2.46 MB; one band of block rows and the block masses read about 0.28 MB."""
        frame = _finger_frame()
        for img in (frame, ingest(write_pgm(frame))):
            peak = _traced_peak(lambda: extract_roi(img))
            assert peak < 1_000_000, f"traced peak {peak / 1e6:.2f} MB"

    def test_crop_extracts_expected_window(self):
        img = np.arange(30, dtype=np.float64).reshape(5, 6) / 30.0
        out = crop(img, RoiRect(x0=1, y0=2, width=3, height=2))
        np.testing.assert_array_equal(out, img[2:4, 1:4])

    def test_crop_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            crop(np.zeros((4, 4)), RoiRect(2, 2, 3, 1))

    def test_invalid_pixels_rejected(self):
        """Validated as ``clahe`` validates, before any cast to 8-bit codes."""
        for value, message in ((np.nan, "non-finite"), (np.inf, "non-finite"),
                               (-0.1, r"must lie in \[0, 1\]"), (1.1, r"must lie in \[0, 1\]")):
            img = np.full((30, 40), 0.5)
            img[12, 17] = value
            with pytest.raises(ValueError, match=message):
                extract_roi(img)


class TestClahe:
    def test_constant_maps_to_single_level(self):
        out = clahe(np.full((16, 16), 0.5), tiles=(2, 2), clip=2.0)
        assert np.unique(out).size == 1

    def test_two_level_single_tile_unclipped(self):
        """Half the pixels at 0.25 and half at 0.75 equalize to 0.5 and 1."""
        img = np.zeros((4, 4))
        img[:2] = 0.25
        img[2:] = 0.75
        out = clahe(img, tiles=(1, 1), clip=np.inf)
        np.testing.assert_allclose(out[:2], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[2:], 1.0, atol=1e-12)

    def test_output_in_unit_range(self, random_image):
        out = clahe(random_image(32, 32), tiles=(4, 4), clip=2.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_single_tile_is_global_equalization(self, rng):
        """One tile, no clipping: plain histogram equalization by CDF."""
        img = rng.uniform(0.0, 1.0, size=(12, 12))
        out = clahe(img, tiles=(1, 1), clip=np.inf)
        bins = np.minimum((img * 256).astype(int), 255)
        hist = np.bincount(bins.ravel(), minlength=256)
        cdf = np.cumsum(hist) / img.size
        np.testing.assert_allclose(out, cdf[bins], atol=1e-12)

    def test_clipping_flattens_peaks(self):
        """A strong clip limit pulls the mapping toward the identity ramp."""
        rng = np.random.default_rng(7)
        img = np.clip(0.5 + 0.02 * rng.standard_normal((32, 32)), 0.0, 1.0)
        strong = clahe(img, tiles=(1, 1), clip=1.0)
        weak = clahe(img, tiles=(1, 1), clip=np.inf)
        # unclipped equalization stretches the narrow peak much harder
        assert strong.std() < weak.std()

    def test_single_tile_mapping_monotone(self, rng):
        """With one tile the remap is a fixed nondecreasing curve."""
        img = rng.uniform(0.0, 1.0, size=(16, 16))
        out = clahe(img, tiles=(1, 1), clip=2.0)
        order = np.argsort(img.ravel())
        diffs = np.diff(out.ravel()[order])
        assert diffs.min() >= -1e-12

    def test_matches_fancy_index_oracle(self, rng):
        """Bit-equal to per-tile histograms and 3-D fancy-indexed blending."""
        cases = [((37, 53), grid) for grid in ((8, 8), (1, 1), (1, 5), (3, 2), (7, 9))]
        cases += [((1, 19), (1, 4)), ((23, 23), (3, 3))]
        for shape, grid in cases:
            img = rng.uniform(0.0, 1.0, size=shape)
            for clip in (2.0, 0.5, np.inf):
                np.testing.assert_array_equal(clahe(img, grid, clip), clahe_fancy_index(img, grid, clip))
        flat = np.full((20, 30), 0.3)
        np.testing.assert_array_equal(clahe(flat, (3, 4), 2.0), clahe_fancy_index(flat, (3, 4), 2.0))
        frame = _finger_frame()
        roi = crop(frame, extract_roi(frame))
        np.testing.assert_array_equal(clahe(roi, (8, 8), 2.0), clahe_fancy_index(roi, (8, 8), 2.0))

    def test_blend_bits_match_oracle_in_row_blocks(self, rng):
        """The blend runs in blocks of at most ``fit`` rows and gives the whole-image
        oracle's bits: heights fit - 1 and fit as one block, fit + 1 as two and
        2 fit + 1 as three, a strided ROI crop of a 480x640 frame, constant and -0.0
        images and 13-pixel sides, on several grids and clip limits."""
        fit = _BLOCK_BYTES // (8 * 150)
        images = [rng.uniform(0.0, 1.0, (height, 150)) for height in (fit - 1, fit, fit + 1, 2 * fit + 1)]
        frame = _finger_frame()
        images += [frame[extract_roi(frame).window], np.full((fit + 1, 150), 0.6), -np.zeros((fit + 1, 150))]
        images += [rng.uniform(0.0, 1.0, shape) for shape in ((13, 13), (13, 500), (500, 13))]
        for img in images:
            for grid, clip in (((8, 8), 2.0), ((3, 5), np.inf), ((1, 1), 0.5), ((13, 1), 2.0)):
                got = clahe(img, grid, clip)
                assert got.flags.c_contiguous and got.shape == img.shape
                assert got.tobytes() == clahe_fancy_index(img, grid, clip).tobytes(), (img.shape, grid)

    def test_peak_pinned(self, rng):
        """A 356x283 ROI crop of a 480x640 frame: the keys and the result take about
        1.6 MB, the blend's two row-block buffers 0.4 MB.  A whole-image blend with
        its temporaries took 3.5 MB."""
        crop = rng.uniform(0.0, 1.0, size=(480, 640))[60:416, 150:433]
        peak = _traced_peak(lambda: clahe(crop))
        assert peak < 3_000_000, f"traced peak {peak / 1e6:.2f} MB"

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            clahe(np.zeros((4, 4)), tiles=(0, 2))
        with pytest.raises(ValueError):
            clahe(np.zeros((4, 4)), tiles=(8, 8))
        with pytest.raises(ValueError):
            clahe(np.zeros((4, 4)), tiles=(2, 2), clip=0.0)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            clahe(np.full((4, 4), 1.5))
