import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    SubspaceSinogram,
    ToFConverter,
    ValidationError,
)
from hsnct import tomo
from hsnct.tomo import (
    MbirOptions,
    SliceGeometry,
    back_project,
    fbp_reconstruct,
    forward_project,
    mbir_reconstruct,
    reconstruct_stack,
    slice_geometry_for,
)


def uniform_geom(num_angles, n):
    return SliceGeometry(np.linspace(0, np.pi, num_angles, endpoint=False), n)


def centered_grid(n):
    u = np.arange(n) - (n - 1) / 2
    return np.meshgrid(u, u, indexing="ij")


def disk_image(n, radius, value=1.0, supersample=1):
    """Rasterized centered disk; supersample > 1 gives partial-volume rim
    pixels (faithful to the continuous disk)."""
    UA, UB = centered_grid(n)
    if supersample == 1:
        return (UA**2 + UB**2 <= radius**2).astype(np.float64) * value
    off = (np.arange(supersample) + 0.5) / supersample - 0.5
    SA = UA[..., None, None] + off[None, None, :, None]
    SB = UB[..., None, None] + off[None, None, None, :]
    return (SA**2 + SB**2 <= radius**2).mean(axis=(2, 3)) * value


def as_block(Y, sg):
    """Ray-major columns Y (angles * bins, C) of one slice as the container
    block (angles, 1 slice, bins, C) that _fbp_batch and _mbir_start read."""
    return np.asarray(Y).reshape(sg.num_angles, 1, sg.num_detector_bins, -1)


class TestSliceGeometry:
    def test_angle_range_enforced(self):
        with pytest.raises(ValidationError):
            SliceGeometry(np.array([0.0, np.pi]), 8)
        with pytest.raises(ValidationError):
            SliceGeometry(np.array([-0.1]), 8)
        # the angle count is the length of a non-empty 1-D array
        for angles in (np.array([]), np.zeros((2, 2))):
            with pytest.raises(ValidationError, match="non-empty 1-D"):
                SliceGeometry(angles, 8)

    @pytest.mark.parametrize("count", [4.5, True, "4"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValidationError, match="num_detector_bins"):
            SliceGeometry(np.array([0.0, 1.0]), count)

    def test_infinite_pitch_rejected(self):
        with pytest.raises(ValidationError, match="pixel_pitch must be > 0 and finite"):
            SliceGeometry(np.array([0.0]), 8, pixel_pitch=np.inf)

    def test_from_scan_geometry(self):
        geom = ScanGeometry(4, 3, 16, np.linspace(0, np.pi, 4, endpoint=False),
                            flight_path=10.0, pixel_pitch=0.5)
        sg = slice_geometry_for(geom)
        assert (sg.num_angles, sg.num_detector_bins, sg.image_size) == (4, 16, 16)
        assert sg.pixel_pitch == 0.5
        np.testing.assert_array_equal(sg.angles, geom.view_angles)


class TestForwardProject:
    def test_zero_image(self):
        geom = uniform_geom(8, 16)
        sino = forward_project(np.zeros((16, 16)), geom)
        assert sino.shape == (8, 16)
        assert np.all(sino == 0.0)

    def test_disk_chord_lengths(self):
        # pixel-driven splat rings at the diagonal angles (pixel diagonals
        # beat against the bin grid), so the radius is kept small enough
        # that the worst-angle error stays inside the 2-pixel bound; R=8 on
        # a 64 grid holds the bound over a dense angle sweep
        n, R = 64, 8.0
        img = disk_image(n, R, supersample=8)
        s = np.arange(n) - (n - 1) / 2
        chord = 2 * np.sqrt(np.maximum(R * R - s * s, 0.0))
        for ang in (0.0, np.pi / 7, np.pi / 4, 1.2, 3 * np.pi / 4, 2.9):
            geom = SliceGeometry(np.array([ang]), n)
            sino = forward_project(img, geom)[0]
            assert np.abs(sino - chord).max() <= 2.0, f"angle {ang}"

    def test_center_pixel_rotationally_invariant(self):
        # odd grid: the center pixel sits exactly on the rotation axis
        n = 65
        img = np.zeros((n, n))
        img[32, 32] = 1.0
        geom = SliceGeometry(np.array([0.0, 0.4, np.pi / 4, 1.9, 3.0]), n)
        sino = forward_project(img, geom)
        for i in range(1, 5):
            assert np.abs(sino[i] - sino[0]).max() <= 1e-6
        assert sino[0, 32] == pytest.approx(1.0)
        assert np.abs(sino[0, :32]).max() == 0.0

    def test_linearity(self):
        geom = uniform_geom(6, 20)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x1 = rng.normal(size=(20, 20))
            x2 = rng.normal(size=(20, 20))
            a, b = rng.uniform(-2, 2, size=2)
            lhs = forward_project(a * x1 + b * x2, geom)
            rhs = a * forward_project(x1, geom) + b * forward_project(x2, geom)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_pitch_scales_line_integrals(self):
        n = 32
        img = disk_image(n, 10.0)
        g1 = SliceGeometry(np.array([0.0]), n, pixel_pitch=1.0)
        g2 = SliceGeometry(np.array([0.0]), n, pixel_pitch=0.5)
        np.testing.assert_allclose(forward_project(img, g2),
                                   0.5 * forward_project(img, g1), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        geom = uniform_geom(4, 16)
        with pytest.raises(ValidationError):
            forward_project(np.zeros((8, 8)), geom)


class TestBackProject:
    def test_adjoint_identity(self):
        geom = uniform_geom(32, 64)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(64, 64))
            y = rng.normal(size=(32, 64))
            lhs = float(np.sum(forward_project(x, geom) * y))
            rhs = float(np.sum(x * back_project(y, geom)))
            assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), 1e-12)

    def test_zero_sinogram(self):
        geom = uniform_geom(4, 12)
        assert np.all(back_project(np.zeros((4, 12)), geom) == 0.0)

    def test_one_hot_ray_footprint(self):
        # at angle 0 detector bins align with image rows, so the footprint
        # of bin d is exactly image row d (value = pitch)
        n = 16
        geom = SliceGeometry(np.array([0.0, np.pi / 2]), n)
        y = np.zeros((2, n))
        y[0, 5] = 1.0
        img = back_project(y, geom)
        expect = np.zeros((n, n))
        expect[5, :] = 1.0
        np.testing.assert_array_equal(img, expect)


class TestFbp:
    def test_disk_round_trip(self):
        n, R = 64, 16.0
        img = disk_image(n, R)
        geom = uniform_geom(180, n)
        rec = fbp_reconstruct(forward_project(img, geom), geom)
        UA, UB = centered_grid(n)
        interior = UA**2 + UB**2 <= (R - 2) ** 2
        assert 0.9 <= rec[interior].mean() <= 1.1
        assert np.sqrt(((rec[interior] - 1.0) ** 2).mean()) <= 0.1

    def test_zero_sinogram(self):
        geom = uniform_geom(8, 16)
        assert np.all(fbp_reconstruct(np.zeros((8, 16)), geom) == 0.0)

    def test_power_of_two_scaling_exact(self):
        geom = uniform_geom(16, 32)
        rng = np.random.default_rng(3)
        sino = rng.normal(size=(16, 32))
        a = fbp_reconstruct(2.0 * sino, geom)
        b = 2.0 * fbp_reconstruct(sino, geom)
        assert a.tobytes() == b.tobytes()

    def test_linearity(self):
        geom = uniform_geom(16, 32)
        rng = np.random.default_rng(4)
        s1 = rng.normal(size=(16, 32))
        s2 = rng.normal(size=(16, 32))
        a, b = 1.7, -0.6
        lhs = fbp_reconstruct(a * s1 + b * s2, geom)
        rhs = a * fbp_reconstruct(s1, geom) + b * fbp_reconstruct(s2, geom)
        denom = max(np.abs(rhs).max(), 1e-12)
        assert np.abs(lhs - rhs).max() / denom <= 1e-6

    def test_rotation_consistency(self):
        # symmetric phantom + symmetric angle set: the reconstruction must
        # commute with a quarter-turn up to discretization noise
        n = 64
        img = disk_image(n, 16.0)
        geom = uniform_geom(180, n)
        rec = fbp_reconstruct(forward_project(img, geom), geom)
        rot = np.rot90(rec)
        assert np.sqrt(((rec - rot) ** 2).mean()) <= 0.02 * np.abs(rec).max()

    def test_too_few_angles_rejected(self):
        geom = SliceGeometry(np.array([0.0]), 8)
        with pytest.raises(ValidationError):
            fbp_reconstruct(np.zeros((1, 8)), geom)

    def test_system_matrix_shared_by_equal_geometries(self):
        assert tomo._operators(uniform_geom(4, 8)) is tomo._operators(uniform_geom(4, 8))
        assert tomo._operators(uniform_geom(4, 8)) is not tomo._operators(uniform_geom(5, 8))

    def test_float32_fbp_matches_a_float64_fbp(self):
        # FBP computes in float32; the same FBP in float64, written out here
        _, geom, p = sparse_noisy_projection()
        nd = geom.num_detector_bins
        n_pad = 1 << int(np.ceil(np.log2(2 * nd)))
        padded = np.zeros((geom.num_angles, n_pad))
        padded[:, :nd] = p
        q = np.fft.irfft(np.fft.rfft(padded, axis=1) * np.fft.rfftfreq(n_pad), n=n_pad, axis=1)
        AT64 = tomo._operators(geom).astype(np.float64)
        ref = (AT64 @ q[:, :nd].ravel()) * (
            np.pi / (geom.num_angles * geom.pixel_pitch ** 2))
        rec = fbp_reconstruct(p, geom)
        assert rec.dtype == np.float64
        assert_rel_close(rec.ravel(), ref, 1e-5)

    @pytest.mark.parametrize("nd", [5, 16, 33])
    def test_ramp_matrix_is_the_zero_padded_fft_ramp(self, nd):
        # the ramp that test_float32_fbp_matches_a_float64_fbp writes out,
        # in float64, against the float32 product FBP runs
        geom = SliceGeometry(np.linspace(0, np.pi, 7, endpoint=False), nd, 0.5)
        y = np.random.default_rng(nd).normal(size=(7, nd)).astype(np.float32)
        n_pad = 1 << int(np.ceil(np.log2(2 * nd)))
        padded = np.zeros((7, n_pad))
        padded[:, :nd] = y
        scale = np.pi / (7 * 0.5 ** 2)
        f = np.fft.rfftfreq(n_pad)
        # FBP's bare ramp, and MBIR's start: the ramp times the Hann window,
        # which is 1 at f = 0
        for hann, window in ((False, 1.0), (True, 0.5 * (1.0 + np.cos(2.0 * np.pi * f)))):
            ref = np.fft.irfft(np.fft.rfft(padded, axis=1) * (f * window), n=n_pad,
                               axis=1)[:, :nd] * scale
            q = y @ tomo._ramp_matrix(nd, 7, 0.5, hann)
            assert q.dtype == np.float32
            # float32 rounding: F's entries, then the nd-term sums
            kernel = np.fft.irfft(f * window * scale, n_pad)[:nd]
            bound = nd * np.finfo(np.float32).eps * (
                np.abs(y).astype(np.float64) @ np.abs(kernel)[np.abs(np.subtract.outer(
                    np.arange(nd), np.arange(nd)))])
            assert np.all(np.abs(q - ref) <= bound)
        F = tomo._ramp_matrix(nd, 7, 0.5)
        # FBP filters every view of every column with this product
        Y = np.stack([y, 2.0 * y, -y], axis=-1).reshape(7 * nd, 3)
        X = tomo._fbp_batch(as_block(Y, geom), geom)
        for c, s in enumerate((1.0, 2.0, -1.0)):
            qc = (np.float32(s) * y) @ F
            assert X[:, c].tobytes() == (tomo._operators(geom) @ qc.ravel()).tobytes()

    @pytest.mark.parametrize("nd, C", [(33, 120), (65, 40), (100, 20)])
    def test_column_bits_do_not_depend_on_batch_width(self, nd, C):
        # widths at which one BLAS product over all (view, column) rows
        # takes another kernel for the wide batch than for one column
        geom = SliceGeometry(np.linspace(0, np.pi, 8, endpoint=False), nd)
        Y = np.random.default_rng(nd).normal(size=(8 * nd, C))
        batch = tomo._fbp_batch(as_block(Y, geom), geom)
        for c in (0, 1, C // 2, C - 1):
            solo = tomo._fbp_batch(as_block(Y[:, [c]], geom), geom)
            assert batch[:, c].tobytes() == solo[:, 0].tobytes()

    def test_fbp_reads_a_strided_block_through_one_float32_copy(self, monkeypatch):
        # a strided slice of a container block (angles, slices, bins,
        # channels) gives the bits of the same block made contiguous; the
        # block is copied once, and the ramp filter reads that float32 copy
        # in (column, angle, bin) order, columns in (slice, channel) order
        block = np.random.default_rng(3).normal(size=(8, 3, 20, 5))
        sub = block[:, 1:3, :, 2:5]
        geom = SliceGeometry(np.linspace(0, np.pi, 8, endpoint=False), 20)
        want = tomo._fbp_batch(np.ascontiguousarray(sub), geom)
        contiguous, matmul, copies, filtered = np.ascontiguousarray, np.matmul, [], []

        def copy_spy(a, *args, **kwargs):
            out = contiguous(a, *args, **kwargs)
            if np.shares_memory(a, block):
                copies.append(out)
            return out

        monkeypatch.setattr(np, "ascontiguousarray", copy_spy)
        monkeypatch.setattr(np, "matmul", lambda a, b: filtered.append(a) or matmul(a, b))
        got = tomo._fbp_batch(sub, geom)
        monkeypatch.undo()
        assert got.dtype == np.float32 and got.shape == (20 * 20, 6)
        assert got.tobytes() == want.tobytes()
        (copy,), (cols,) = copies, filtered
        assert copy.dtype == np.float32 and np.shares_memory(cols, copy)
        ref = sub.transpose(1, 3, 0, 2).astype(np.float32).reshape(6, 8, 20)
        assert cols.flags.c_contiguous and cols.tobytes() == ref.tobytes()

    def test_ramp_matrix_is_cached_symmetric_toeplitz(self):
        F = tomo._ramp_matrix(16, 8, 0.5)
        assert F.dtype == np.float32 and F.shape == (16, 16)
        assert np.array_equal(F, F.T)
        for k in range(-15, 16):
            assert np.all(np.diagonal(F, k) == F[0, abs(k)])
        assert not F.flags.writeable
        with pytest.raises(ValueError):
            F[0, 0] = 1.0
        assert tomo._ramp_matrix(16, 8, 0.5) is F
        assert tomo._ramp_matrix(16, 9, 0.5) is not F

    def test_fbp_backprojector_is_the_float32_transpose(self):
        # A^T holds the float64 splat weights, each rounded once to float32
        geom = SliceGeometry(np.linspace(0, np.pi, 12, endpoint=False), 24, 0.5)
        B = tomo._operators(geom)
        assert B is tomo._operators(SliceGeometry(geom.angles.copy(), 24, 0.5))
        assert B.format == "csr" and B.dtype == np.float32 and B.has_canonical_format
        A = reference_splat(geom)
        assert B.nnz == np.count_nonzero(A)
        assert B.toarray().tobytes() == A.T.astype(np.float32).tobytes()


def reference_splat(geom):
    """The length-scaled system matrix in float64, dense, written out here:
    at each angle a pixel at centered coordinates (u_a, u_b) meets the
    detector at t = u_a cos + u_b sin and splits pitch between the two
    nearest bins by linear interpolation."""
    n, pitch = geom.image_size, geom.pixel_pitch
    u = (np.arange(n) - 0.5 * (n - 1)) * pitch
    ua, ub = np.repeat(u, n), np.tile(u, n)
    A = np.zeros((geom.num_angles, n, n * n))
    for i, theta in enumerate(geom.angles):
        g = (ua * np.cos(theta) + ub * np.sin(theta)) / pitch + 0.5 * (n - 1)
        i0 = np.floor(g).astype(np.int64)
        for bins, w in ((i0, 1.0 - (g - i0)), (i0 + 1, g - i0)):
            ok = (bins >= 0) & (bins < n)
            A[i, bins[ok], np.flatnonzero(ok)] = w[ok] * pitch
    return A.reshape(geom.num_angles * n, n * n)


def sparse_noisy_projection(n=64, seed=1, flux=200.0):
    """Disk phantom, 32 views, Poisson counting noise; returns (truth, geom, p)."""
    UA, UB = centered_grid(n)
    truth = ((UA**2 + UB**2) <= 16.0**2).astype(np.float64) * 0.02
    truth[(UA**2 + UB**2) <= 6.0**2] = 0.035
    geom = uniform_geom(32, n)
    sino = forward_project(truth, geom)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(flux * np.exp(-sino))
    p = -np.log(np.maximum(counts, 0.5) / flux)
    return truth, geom, p


class TestMbir:
    def test_unregularized_fit_and_normal_equations(self):
        n = 64
        img = disk_image(n, 16.0, value=0.02)
        geom = uniform_geom(180, n)
        sino = forward_project(img, geom)
        opts = MbirOptions(regularization_weight=0.0, max_iters=800, rel_tol=1e-14)
        rec = mbir_reconstruct(sino, geom, opts)
        fit = np.linalg.norm(forward_project(rec, geom) - sino) / np.linalg.norm(sino)
        assert fit <= 1e-3
        # the normal equations of the weighted fit, W = exp(-y)
        w = np.exp(-sino)
        grad = back_project(w * (forward_project(rec, geom) - sino), geom)
        ref = back_project(w * sino, geom)
        assert np.linalg.norm(grad) / np.linalg.norm(ref) <= 1e-3

    def test_zero_sinogram_gives_zero_image(self):
        geom = uniform_geom(16, 32)
        for beta in (0.0, 3.0):
            rec = mbir_reconstruct(np.zeros((16, 32)), geom,
                                   MbirOptions(regularization_weight=beta))
            assert np.all(rec == 0.0)

    @pytest.mark.parametrize("prior", ["quadratic-difference", "huber"])
    def test_objective_monotone(self, prior):
        _, geom, p = sparse_noisy_projection(seed=11)
        _, info = mbir_reconstruct(
            p, geom, MbirOptions(prior=prior, regularization_weight=2.0,
                                 max_iters=200), return_info=True)
        t = info["objective_trace"]
        floor = 1e-12 * t[0]
        assert np.all(t[1:] <= t[:-1] + 1e-10 * np.maximum(t[:-1], floor))

    def test_huber_delta_comes_from_the_start(self):
        # the threshold scales with the start's neighbor differences, so
        # Huber is no second name for the quadratic prior: its voxels differ
        # and some pairs of its solution exceed delta
        _, geom, p = sparse_noisy_projection(seed=1)
        n = geom.image_size
        delta = tomo._huber_delta(tomo._mbir_start(as_block(p, geom), geom), n)
        assert delta.shape == (1,) and 0.0 < delta[0] < np.inf
        rec = {prior: mbir_reconstruct(p, geom, MbirOptions(prior, regularization_weight=2.0))
               for prior in ("quadratic-difference", "huber")}
        assert not np.allclose(rec["huber"], rec["quadratic-difference"], rtol=0.05, atol=0.0)
        assert np.any(np.abs(tomo._pairs(n)[0] @ rec["huber"].ravel()) > delta[0])

    def test_a_zero_start_keeps_the_quadratic_step(self):
        # below 2 views MBIR starts from zero, and so does a zero sinogram: the
        # start's median difference is 0, delta inf, and Huber the quadratic
        # prior, with no 0/0 or inf/inf on the way
        assert np.all(tomo._huber_delta(np.zeros((64, 3)), 8) == np.inf)
        y = np.random.default_rng(5).uniform(0.1, 2.0, (1, 8))
        for sino, geom in ((y, uniform_geom(1, 8)), (np.zeros((16, 8)), uniform_geom(16, 8))):
            got = {}
            for prior in ("quadratic-difference", "huber"):
                opts = MbirOptions(prior=prior, regularization_weight=2.0, max_iters=30,
                                   rel_tol=1e-12)
                got[prior] = mbir_reconstruct(sino, geom, opts, return_info=True)
            (quad, qi), (huber, hi) = got.values()
            assert hi["iterations"] == qi["iterations"]
            assert_rel_close(huber, quad, 1e-10)
            assert_rel_close(hi["objective_trace"], qi["objective_trace"], 1e-10)

    def test_beats_fbp_on_sparse_noisy_data(self):
        truth, geom, p = sparse_noisy_projection(seed=1)
        rec_fbp = fbp_reconstruct(p, geom)
        rec_mbir = mbir_reconstruct(p, geom, MbirOptions(regularization_weight=2.0,
                                                         max_iters=150))
        rmse_fbp = np.sqrt(((rec_fbp - truth) ** 2).mean())
        rmse_mbir = np.sqrt(((rec_mbir - truth) ** 2).mean())
        assert rmse_mbir < rmse_fbp

    def test_nonneg_constraint_holds(self):
        _, geom, p = sparse_noisy_projection(seed=2)
        rec = mbir_reconstruct(p, geom, MbirOptions(regularization_weight=1.0,
                                                    max_iters=50))
        assert float(rec.min()) >= 0.0

    def test_nan_sinogram_rejected(self):
        geom = uniform_geom(4, 8)
        bad = np.zeros((4, 8))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            mbir_reconstruct(bad, geom)

    def test_bad_options_rejected(self):
        with pytest.raises(ValidationError):
            MbirOptions(prior="tv")
        with pytest.raises(ValidationError):
            MbirOptions(regularization_weight=-1.0)
        with pytest.raises(ValidationError):
            MbirOptions(max_iters=0)
        for field in ("regularization_weight", "rel_tol"):
            for value in (np.inf, None, "1", True):
                with pytest.raises(ValidationError, match=field):
                    MbirOptions(**{field: value})
        for count in (2.5, True, "100"):
            with pytest.raises(ValidationError, match="max_iters"):
                MbirOptions(max_iters=count)
        assert MbirOptions(max_iters=np.int64(7)).max_iters == 7
        for value in (np.float32(0.5), np.float64(0.5), np.int64(2)):
            assert MbirOptions(regularization_weight=value).regularization_weight == value

    def test_options_must_be_mbir_options(self):
        # the rule reconstruct_stack and PipelineConfig apply, not an AttributeError
        with pytest.raises(ValidationError, match="as MbirOptions"):
            mbir_reconstruct(np.zeros((4, 8)), uniform_geom(4, 8),
                             {"regularization_weight": 2.0})


def stack_inputs(n_r=2, n_c=24, n_v=12, C=3, seed=0):
    geom = ScanGeometry(n_v, n_r, n_c, np.linspace(0, np.pi, n_v, endpoint=False),
                        flight_path=10.0)
    rng = np.random.default_rng(seed)
    UA, UB = centered_grid(n_c)
    sg = slice_geometry_for(geom)
    vals = np.empty((n_v, n_r, n_c, C))
    for r in range(n_r):
        for c in range(C):
            img = ((UA**2 + UB**2) <= (5 + 2 * r + c) ** 2) * 0.02 * (c + 1)
            vals[:, r, :, c] = forward_project(img, sg)
    return geom, vals.reshape(-1, C)


def one_slice(vals, sg):
    """A single slice's (N_p, C) values as the driver's (angles, 1, bins, C)."""
    return vals.reshape(sg.num_angles, 1, sg.num_detector_bins, -1)


class TestReconstructStack:
    def test_fixed_sinogram_volumes_keep_their_bytes(self):
        # sha256 recorded when the float32 A^T was the cast of a cached
        # float64 A (x86-64, OpenBLAS 0.3.31): A^T's arrays are built to the
        # same bytes without that A, so both engines give the same volumes
        geom = ScanGeometry(16, 2, 24, np.linspace(0, np.pi, 16, endpoint=False),
                            flight_path=10.0)
        AT = tomo._operators(slice_geometry_for(geom))
        pinned = {
            "data": "e912fb05942f0f0aacdf7ed9a23e8e537277ab0dd974b39501717727fbb2ac5e",
            "indices": "11908243e77c0eab9d2dfb512effa3077f76e54562ae31b8b77121a58259a479",
            "indptr": "7c499c05fe79d432783ac688cc3c0c85fbfc87d287fede56b56d163ea11fd19f",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256(getattr(AT, name).tobytes()).hexdigest() == digest
        vals = np.random.default_rng(32).uniform(0.0, 0.4, (16 * 2 * 24, 3)).astype(np.float32)
        axis = SpectralAxis(np.linspace(2.5e-3, 1.31e-2, 4), ToFConverter(flight_path=10.0))
        p = HyperspectralSinogram(vals, geom, axis)
        fbp = reconstruct_stack(p, geom, "fbp")
        mbir = reconstruct_stack(p, geom, "mbir",
                                 MbirOptions(regularization_weight=2.0, max_iters=30))
        assert hashlib.sha256(fbp.voxels.tobytes()).hexdigest() == (
            "28a140c752ad8addb17471d51dcdb04a642f2ae74226efa8dbe722e21051d4e6")
        assert hashlib.sha256(mbir.voxels.tobytes()).hexdigest() == (
            "acbea31102082261e52d7701fd0c5fc9e4cb56eacc1c8c6aaa29d0e4778c6d56")

    def test_single_slice_single_channel_matches_direct_call(self):
        geom, vals = stack_inputs(n_r=1, C=1)
        sub = SubspaceSinogram(vals, geom)
        vol = reconstruct_stack(sub, geom, "fbp")
        direct = fbp_reconstruct(
            sub.coeffs.astype(np.float64).reshape(geom.num_views, geom.num_cols),
            slice_geometry_for(geom))
        assert vol.voxels.shape == (geom.num_cols**2, 1)
        np.testing.assert_array_equal(
            vol.voxels[:, 0], direct.ravel().astype(np.float32))

    def test_single_matches_direct_mbir(self):
        geom, vals = stack_inputs(n_r=1, C=1)
        sub = SubspaceSinogram(vals, geom)
        opts = MbirOptions(regularization_weight=1.0, max_iters=30)
        vol = reconstruct_stack(sub, geom, "mbir", opts)
        direct = mbir_reconstruct(
            sub.coeffs.astype(np.float64).reshape(geom.num_views, geom.num_cols),
            slice_geometry_for(geom), opts)
        np.testing.assert_array_equal(
            vol.voxels[:, 0], direct.ravel().astype(np.float32))

    def test_channel_permutation_commutes(self):
        geom, vals = stack_inputs(C=3)
        perm = [2, 0, 1]
        v1 = reconstruct_stack(SubspaceSinogram(vals, geom), geom, "fbp")
        v2 = reconstruct_stack(SubspaceSinogram(vals[:, perm], geom), geom, "fbp")
        np.testing.assert_array_equal(v1.voxels[:, perm], v2.voxels)

    def test_nine_channel_sixteen_slice_shape(self):
        geom = ScanGeometry(8, 16, 64, np.linspace(0, np.pi, 8, endpoint=False),
                            flight_path=10.0)
        rng = np.random.default_rng(7)
        sub = SubspaceSinogram(rng.uniform(0, 1, (8 * 16 * 64, 9)), geom)
        vol = reconstruct_stack(sub, geom, "fbp")
        assert vol.voxels.shape == (16 * 64 * 64, 9)
        assert vol.num_rows == 16 and vol.num_cols == 64

    def test_mbir_batch_matches_per_channel_runs(self):
        # channels carry different noise so they stop at different
        # iterations; a stopped column, whether it is still carried in the
        # batch or already dropped from it, must match its solo run
        geom, vals = stack_inputs(n_r=3, C=3, seed=3)
        rng = np.random.default_rng(9)
        vals = vals + rng.uniform(0, 0.2, vals.shape) * np.array([1.0, 3.0, 0.2])
        sub = SubspaceSinogram(vals, geom)
        opts = MbirOptions(regularization_weight=1.0, max_iters=120, rel_tol=1e-4)
        batch = reconstruct_stack(sub, geom, "mbir", opts)
        n_v, n_c, sg = geom.num_views, geom.num_cols, slice_geometry_for(geom)
        y4 = sub.coeffs.astype(np.float64).reshape(n_v, 3, n_c, 3)
        iterations = set()
        for r in range(3):
            for c in range(3):
                img, info = mbir_reconstruct(y4[:, r, :, c], sg, opts, return_info=True)
                iterations.add(info["iterations"])
                got = batch.voxels[r * n_c * n_c:(r + 1) * n_c * n_c, c]
                assert got.tobytes() == img.ravel().astype(np.float32).tobytes()
        assert len(iterations) > 2

    def test_compacted_batch_stays_c_ordered(self, monkeypatch):
        # columns stop at different iterations and are dropped from the
        # batch; every per-column sum still reads C-ordered arrays, the
        # layout whose summation order a solo column reproduces
        geom, vals = stack_inputs(n_r=1, C=8, seed=3)
        vals = vals + (np.random.default_rng(9).uniform(0, 0.2, vals.shape)
                       * np.linspace(0.2, 3.0, 8))
        sg = slice_geometry_for(geom)
        opts = MbirOptions(regularization_weight=1.0, max_iters=120, rel_tol=1e-4)
        AT, W = tomo._operators(sg), np.exp(-vals)
        X0 = np.maximum(tomo._fbp_batch(as_block(vals, sg), sg), 0.0).astype(np.float64)
        dots, layouts = tomo._column_dots, []

        def spy(U, V):
            layouts.append(U.flags.c_contiguous and V.flags.c_contiguous)
            return dots(U, V)

        monkeypatch.setattr(tomo, "_column_dots", spy)
        X, info = tomo._sqs_solve(AT, vals, W, sg.image_size, opts, X0.copy())
        monkeypatch.undo()
        assert layouts and all(layouts)
        assert len({i["iterations"] for i in info}) > 2
        for c in range(8):
            Xc, (solo,) = tomo._sqs_solve(AT, vals[:, [c]], W[:, [c]], sg.image_size, opts,
                                          X0[:, [c]])
            assert Xc[:, 0].tobytes() == X[:, c].tobytes()
            assert solo["objective_trace"].tobytes() == info[c]["objective_trace"].tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_wide_batch_matches_per_channel_runs(self, monkeypatch, threads):
        # whole-slice blocks (C <= step), and channel blocks of one slice
        # when C exceeds a solver part or the per-worker share, all give
        # each (slice, channel) the bytes of its solo run; 4 CPUs split the
        # same way on any host
        monkeypatch.setattr(tomo, "_usable_cpus", lambda: 4)
        opts = MbirOptions(regularization_weight=1.0, max_iters=30, rel_tol=1e-4)
        for C in (3, tomo._BATCH_COLUMNS, 100):
            geom, vals = stack_inputs(n_r=2, n_c=12, n_v=8, C=C, seed=6)
            vals = vals + np.random.default_rng(10).uniform(0, 0.2, vals.shape)
            sub = SubspaceSinogram(vals, geom)
            n_v, n_c, sg = geom.num_views, geom.num_cols, slice_geometry_for(geom)
            y4 = sub.coeffs.astype(np.float64).reshape(n_v, 2, n_c, C)
            for engine, solo in (("fbp", lambda y: fbp_reconstruct(y, sg)),
                                 ("mbir", lambda y: mbir_reconstruct(y, sg, opts))):
                batch = reconstruct_stack(sub, geom, engine, opts if engine == "mbir" else None,
                                          threads=threads)
                vox = batch.voxels.reshape(2, n_c * n_c, C)
                for r in range(2):
                    for c in range(C):
                        img = solo(y4[:, r, :, c]).ravel().astype(np.float32)
                        assert vox[r, :, c].tobytes() == img.tobytes(), (C, engine, r, c)

    @pytest.mark.parametrize("prior", ["quadratic-difference", "huber"])
    def test_solo_objective_trace_has_its_batched_bits(self, prior):
        # a lone column's sums run in the order of a wider batch's, so its
        # stopping and restart decisions cannot depend on the batch width
        geom, vals = stack_inputs(n_r=1, C=5, seed=5)
        vals = vals + np.random.default_rng(12).uniform(0, 0.2, vals.shape)
        sg = slice_geometry_for(geom)
        opts = MbirOptions(prior=prior, max_iters=20, rel_tol=1e-12)
        _, batch = tomo._reconstruct_columns(one_slice(vals, sg), sg, opts)
        _, solo = mbir_reconstruct(vals[:, 2].reshape(geom.num_views, geom.num_cols), sg,
                                   opts, return_info=True)
        assert solo["objective_trace"].tobytes() == batch[2]["objective_trace"].tobytes()

    def test_hyperspectral_input_accepted(self):
        geom, vals = stack_inputs(C=2)
        axis = SpectralAxis(np.linspace(1e-3, 2e-3, 3), ToFConverter(flight_path=10.0))
        sino = HyperspectralSinogram(vals, geom, axis)
        vol = reconstruct_stack(sino, geom, "fbp")
        assert vol.num_channels == 2

    def test_threads_do_not_change_fbp_result(self, monkeypatch):
        monkeypatch.setattr(tomo, "_usable_cpus", lambda: 4)
        geom, vals = stack_inputs(n_r=4, C=2)
        sub = SubspaceSinogram(vals, geom)
        v1 = reconstruct_stack(sub, geom, "fbp", threads=1)
        v2 = reconstruct_stack(sub, geom, "fbp", threads=3)
        np.testing.assert_array_equal(v1.voxels, v2.voxels)

    def test_threads_do_not_change_mbir_result(self, monkeypatch):
        monkeypatch.setattr(tomo, "_usable_cpus", lambda: 4)
        geom, vals = stack_inputs(n_r=3, C=2, seed=4)
        sub = SubspaceSinogram(vals, geom)
        opts = MbirOptions(regularization_weight=1.0, max_iters=8)
        v1 = reconstruct_stack(sub, geom, "mbir", opts, threads=1)
        v2 = reconstruct_stack(sub, geom, "mbir", opts, threads=2)
        assert v1.voxels.tobytes() == v2.voxels.tobytes()

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, []), (None, [])])
    def test_pool_holds_at_most_one_worker_per_cpu(self, monkeypatch, cpus, pools):
        # a budget above the usable CPU count plans what that count plans: the
        # 6 columns split into one block per worker (the columns of each FBP
        # call), a pool holds one worker per CPU of the affinity set, and one
        # worker runs serially; without an affinity call the CPU count rules,
        # and an unknown one counts as 1
        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        geom, vals = stack_inputs(n_r=2, C=3, seed=7)
        sub = SubspaceSinogram(vals, geom)
        v1 = reconstruct_stack(sub, geom, "fbp", threads=1)
        fbp_batch = tomo._fbp_batch
        monkeypatch.setattr(tomo, "ThreadPoolExecutor", RecordingPool)
        if cpus is None:
            monkeypatch.delattr(tomo.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(tomo.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(tomo.os, "cpu_count", lambda: 64)
            monkeypatch.setattr(tomo.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        monkeypatch.setattr(tomo, "_fbp_batch",
                            lambda y, sg: widths.append(y.shape[1] * y.shape[3])
                            or fbp_batch(y, sg))
        workers = cpus or 1
        for threads in (workers, 100_000):
            sizes, widths = [], []
            v = reconstruct_stack(sub, geom, "fbp", threads=threads)
            assert (sizes, widths) == (pools, [6 // workers] * workers), threads
            assert v.voxels.tobytes() == v1.voxels.tobytes()

    def test_threads_beyond_a_one_cpu_affinity_set_run_one_worker(self, monkeypatch):
        # --threads 8 inside a 1-CPU affinity set of a 64-CPU host runs one
        # worker in the caller's thread, with the bytes of --threads 1
        geom, vals = stack_inputs(n_r=4, C=2, seed=4)
        sub = SubspaceSinogram(vals, geom)
        runs = (("fbp", None), ("mbir", MbirOptions(regularization_weight=1.0, max_iters=8)))
        want = [reconstruct_stack(sub, geom, e, o, threads=1).voxels.tobytes() for e, o in runs]

        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} on one usable CPU")

        monkeypatch.setattr(tomo.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(tomo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(tomo, "ThreadPoolExecutor", no_pool)
        got = [reconstruct_stack(sub, geom, e, o, threads=8).voxels.tobytes() for e, o in runs]
        assert got == want

    def test_fbp_blocks_hold_whole_slices(self, monkeypatch):
        # FBP takes one whole slice per block, also past _BATCH_COLUMNS
        # channels; MBIR's solver parts stay at _BATCH_COLUMNS
        geom, vals = stack_inputs(n_r=2, n_c=8, n_v=4, C=100, seed=8)
        sub = SubspaceSinogram(vals, geom)
        fbp_batch, sqs_solve = tomo._fbp_batch, tomo._sqs_solve
        monkeypatch.setattr(tomo, "_fbp_batch",
                            lambda y, sg, **kw: fbp_widths.append(y.shape[1] * y.shape[3])
                            or fbp_batch(y, sg, **kw))
        monkeypatch.setattr(tomo, "_sqs_solve",
                            lambda AT, y, *a: sqs_widths.append(y.shape[1]) or sqs_solve(AT, y, *a))
        fbp_widths, sqs_widths = [], []
        reconstruct_stack(sub, geom, "fbp", threads=1)
        assert fbp_widths == [100, 100]
        reconstruct_stack(sub, geom, "mbir", MbirOptions(max_iters=2), threads=1)
        assert sqs_widths == [64, 36, 64, 36]
        assert max(sqs_widths) <= tomo._BATCH_COLUMNS

    def test_geometry_mismatch_rejected(self):
        geom, vals = stack_inputs()
        other = ScanGeometry(geom.num_views, geom.num_rows, geom.num_cols,
                             geom.view_angles * 0.9 + 0.01, flight_path=10.0)
        with pytest.raises(ValidationError):
            reconstruct_stack(SubspaceSinogram(vals, geom), other, "fbp")

    def test_flight_path_only_mismatch_rejected(self):
        # a scan geometry is its container header, the flight path included
        geom, vals = stack_inputs()
        other = ScanGeometry(geom.num_views, geom.num_rows, geom.num_cols, geom.view_angles,
                             flight_path=12.5)
        with pytest.raises(ValidationError,
                           match="sinogram geometry does not match the scan geometry"):
            reconstruct_stack(SubspaceSinogram(vals, geom), other, "fbp")

    def test_unknown_engine_rejected(self):
        geom, vals = stack_inputs()
        with pytest.raises(ValidationError):
            reconstruct_stack(SubspaceSinogram(vals, geom), geom, "art")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fbp_on_one_view_rejected(self, threads):
        # the same rule as fbp_reconstruct; mbir still starts from zero
        geom = ScanGeometry(1, 2, 4, [0.0], flight_path=10.0)
        sino = SubspaceSinogram(np.ones((8, 2)), geom)
        with pytest.raises(ValidationError, match="2 view angles"):
            reconstruct_stack(sino, geom, "fbp", threads=threads)
        vol = reconstruct_stack(sino, geom, "mbir", MbirOptions(max_iters=3),
                                threads=threads)
        assert vol.voxels.shape == (2 * 4 * 4, 2)

    def test_fbp_with_mbir_options_rejected(self):
        geom, vals = stack_inputs()
        with pytest.raises(ValidationError):
            reconstruct_stack(SubspaceSinogram(vals, geom), geom, "fbp",
                              MbirOptions())

    def test_options_must_be_mbir_options(self):
        # the rule PipelineConfig applies to its engine and options
        geom, vals = stack_inputs()
        with pytest.raises(ValidationError, match="as MbirOptions"):
            reconstruct_stack(SubspaceSinogram(vals, geom), geom, "mbir",
                              {"regularization_weight": 2.0})

    @pytest.mark.parametrize("threads", [0, 1.5, True])
    def test_threads_must_be_a_count(self, threads):
        geom, vals = stack_inputs()
        with pytest.raises(ValidationError, match="threads"):
            reconstruct_stack(SubspaceSinogram(vals, geom), geom, "fbp", threads=threads)


# --- equivalence with the directional-difference definitions ----------------

NEIGHBOR_OFFSETS = ((0, 1, 1.0), (1, 0, 1.0),
                    (1, 1, 1.0 / np.sqrt(2.0)), (1, -1, 1.0 / np.sqrt(2.0)))


def pair_ends(n, da, db):
    """Index expressions of the two endpoints a = b + (da, db) of every
    neighbor pair at one offset of an n x n grid."""
    a = (slice(da, n), slice(max(db, 0), n + min(db, 0)))
    b = (slice(0, n - da), slice(max(-db, 0), n - max(db, 0)))
    return a, b


def reference_prior(X, n, prior, delta):
    """Value per channel, gradient and surrogate curvature of the pairwise
    prior, pair offset by pair offset: each pair adds k*rho(diff) to the
    value, +-k*rho'(diff) to its endpoints' gradients and 2*k*rho'(diff)/diff
    to both curvatures."""
    X3 = X.reshape(n, n, -1)
    value = np.zeros(X3.shape[2])
    G = np.zeros_like(X3)
    K = np.zeros_like(X3)
    for da, db, k in NEIGHBOR_OFFSETS:
        a, b = pair_ends(n, da, db)
        D = X3[a] - X3[b]
        mag = np.abs(D)
        if prior == "quadratic-difference":
            rho, slope, c = 0.5 * D * D, D, np.ones_like(D)
        else:
            rho = np.where(mag <= delta, 0.5 * D * D, delta * mag - 0.5 * delta * delta)
            slope = np.clip(D, -delta, delta)
            c = np.where(mag <= delta, 1.0, delta / np.maximum(mag, delta))
        value += k * rho.sum(axis=(0, 1))
        G[a] += k * slope
        G[b] -= k * slope
        K[a] += 2.0 * k * c
        K[b] += 2.0 * k * c
    return value, G.reshape(n * n, -1), K.reshape(n * n, -1)


def reference_laplacian(n):
    """The weighted graph Laplacian L of the pairs and its doubled diagonal,
    accumulated pair offset by pair offset: each pair adds -k to L's two
    off-diagonal entries and 2*k to both endpoints' curvature."""
    idx = np.arange(n * n).reshape(n, n)
    curv = np.zeros((n, n))
    rows, cols, vals = [], [], []
    for da, db, k in NEIGHBOR_OFFSETS:
        a, b = pair_ends(n, da, db)
        ia, ib = idx[a].ravel(), idx[b].ravel()
        rows += [ia, ib]
        cols += [ib, ia]
        vals += [np.full(2 * ia.size, -k)]
        curv[a] += 2.0 * k
        curv[b] += 2.0 * k
    curv = curv.ravel()
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(0.5 * curv)
    L = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n)).tocsr()
    return L, curv


def reference_sqs(A, Y, W, n, opts, X0, momentum="ogm"):
    """The accelerated SQS iteration written plainly, one channel at a time:
    the residual and the prior at z are recomputed from scratch wherever
    they are needed, and both restarts are checked per channel.  Returns
    (X, traces, discards): discards[c] lists the iterations of channel c
    that restart (b) threw away.  ``momentum`` is "ogm", the solver's step
    z+ = x+ + ((t-1)/t+)(x+ - x) + (t/t+)(x+ - z); "fista", Nesterov's step,
    which drops the last term; or False, where every step restarts, which
    is the plain SQS loop."""
    beta = opts.regularization_weight
    d_data = A.T @ (W * (A @ np.ones(A.shape[1]))[:, None])
    deltas = tomo._huber_delta(X0, n)
    X = X0.copy()
    traces, discards = [], []
    for c in range(Y.shape[1]):
        y, w, delta = Y[:, c:c + 1], W[:, c:c + 1], deltas[c]

        def objective(x):
            r = A @ x - y
            obj = 0.5 * np.einsum("ij,ij->j", w * r, r)
            if beta > 0:
                obj = obj + beta * reference_prior(x, n, opts.prior, delta)[0]
            return float(obj[0])

        x = X0[:, c:c + 1].copy()
        z, t, coef, gam = x.copy(), 1.0, 0.0, 0.0
        f = objective(x)
        trace, discarded = [], []
        for it in range(opts.max_iters):
            g = A.T @ (w * (A @ z - y))
            d = d_data[:, c:c + 1]
            if beta > 0:
                _, pg, pc = reference_prior(z, n, opts.prior, delta)
                g = g + beta * pg
                d = d + beta * pc
            x_new = np.maximum(z - np.divide(g, d, out=np.zeros_like(g), where=d > 0), 0.0)
            f_new = objective(x_new)
            if (coef > 0 or gam > 0) and f_new > f:
                # restart (b): discard the step, take a plain one from x next
                trace.append(f)
                discarded.append(it)
                z, t, coef, gam = x.copy(), 1.0, 0.0, 0.0
                continue
            trace.append(f_new)
            turned = float(np.sum((z - x_new) * (x_new - x))) > 0.0
            if not turned and (f_new <= 0.0
                               or abs(f - f_new) <= opts.rel_tol * max(f, 1e-300)):
                x = x_new
                break
            if turned or not momentum:
                t = 1.0  # restart (a)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            coef = (t - 1.0) / t_next
            gam = t / t_next if momentum == "ogm" and not turned else 0.0
            z = x_new + coef * (x_new - x) + gam * (x_new - z)
            x, f, t = x_new, f_new, t_next
        X[:, c] = x[:, 0]
        traces.append(np.asarray(trace))
        discards.append(discarded)
    return X, traces, discards


def assert_rel_close(actual, expected, tol):
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= tol * scale


class TestPriorMatchesDirectionalDifferences:
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    @pytest.mark.parametrize("C", [1, 5])
    def test_quadratic_value_gradient_curvature(self, n, C):
        X = np.random.default_rng(100 * n + C).uniform(0.0, 1.0, (n * n, C))
        _, _, L, curv, _ = tomo._pairs(n)
        grad = L @ X
        ref_value, ref_grad, ref_curv = reference_prior(X, n, "quadratic-difference", 0.1)
        assert_rel_close(0.5 * tomo._column_dots(X, grad), ref_value, 1e-12)
        assert_rel_close(grad, ref_grad, 1e-12)
        np.testing.assert_array_equal(np.broadcast_to(curv[:, None], ref_curv.shape),
                                      ref_curv)
        # the quadratic solver's bytes: L x and the curvature are exactly
        # those of the Laplacian accumulated offset by offset
        ref_L, ref_const = reference_laplacian(n)
        assert grad.tobytes() == (ref_L @ X).tobytes()
        assert curv.tobytes() == ref_const.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    @pytest.mark.parametrize("C", [1, 5])
    def test_huber_value_gradient_curvature(self, n, C):
        # differences of U(0, 1) values fall on both sides of delta
        X = np.random.default_rng(100 * n + C + 50).uniform(0.0, 1.0, (n * n, C))
        value = tomo._huber_value(X, n, 0.25)
        grad, curv = tomo._huber_step(X, n, 0.25)
        ref_value, ref_grad, ref_curv = reference_prior(X, n, "huber", 0.25)
        assert_rel_close(value, ref_value, 1e-12)
        assert_rel_close(grad, ref_grad, 1e-12)
        assert_rel_close(curv, ref_curv, 1e-12)

    def test_huber_takes_a_delta_per_column(self):
        # each column meets its own delta; delta = inf is the quadratic prior
        n = 7
        X = np.random.default_rng(77).uniform(0.0, 1.0, (n * n, 3))
        delta = np.array([0.25, 0.5, np.inf])
        value = tomo._huber_value(X, n, delta)
        grad, curv = tomo._huber_step(X, n, delta)
        for c in range(2):
            ref_value, ref_grad, ref_curv = reference_prior(X[:, [c]], n, "huber", delta[c])
            assert_rel_close(value[c], ref_value, 1e-12)
            assert_rel_close(grad[:, [c]], ref_grad, 1e-12)
            assert_rel_close(curv[:, [c]], ref_curv, 1e-12)
        ref_value, ref_grad, ref_curv = reference_prior(X[:, [2]], n, "quadratic-difference",
                                                        None)
        assert_rel_close(value[2], ref_value, 1e-12)
        assert_rel_close(grad[:, [2]], ref_grad, 1e-12)
        assert_rel_close(curv[:, [2]], ref_curv, 1e-12)

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_huber_curvature_uses_the_cached_abs_pairs(self, n):
        P, _, _, _, absPT = tomo._pairs(n)
        assert absPT is tomo._pairs(n)[4]
        a = np.random.default_rng(n).uniform(0.1, 2.0, (P.shape[0], 5))
        assert (absPT @ a).tobytes() == (abs(P).T @ a).tobytes()
        X = np.random.default_rng(n + 1).uniform(0.0, 1.0, (n * n, 5))
        D = np.abs(P @ X)
        kappa = tomo._pairs(n)[1][:, None]
        ref = abs(P).T @ (2.0 * kappa / np.maximum(D / 0.25, 1.0))
        assert tomo._huber_step(X, n, 0.25)[1].tobytes() == ref.tobytes()


SOLVER_CASES = {
    # no channel stops before the cap: 44 and 49 iterations at the least
    "quadratic": dict(prior="quadratic-difference", regularization_weight=2.0,
                      max_iters=40, rel_tol=1e-12),
    "huber": dict(prior="huber", regularization_weight=2.0, max_iters=45, rel_tol=1e-12),
    "beta-0": dict(regularization_weight=0.0, max_iters=120, rel_tol=1e-12),
    "quadratic-freezing": dict(prior="quadratic-difference", regularization_weight=1.0,
                               max_iters=120, rel_tol=1e-4),
    "huber-freezing": dict(prior="huber", regularization_weight=1.0, max_iters=120,
                           rel_tol=1e-3),
}


def bare_ramp_start(y, sg):
    """The bare-ramp FBP image of ray-major columns y clamped at 0, in float64:
    MBIR's start before the Hann window, and the start of the reference-loop
    comparisons and of the measured figures below."""
    return np.maximum(tomo._fbp_batch(as_block(y, sg), sg), 0.0).astype(np.float64)


def solver_inputs(seed, noise_seed):
    """One slice of three channels with different noise levels, so with a
    loose tolerance they stop at different iterations: (geom, sg, values,
    length-scaled float64 system matrix, MBIR's start)."""
    geom, vals = stack_inputs(n_r=1, C=3, seed=seed)
    rng = np.random.default_rng(noise_seed)
    vals = vals + rng.uniform(0, 0.2, vals.shape) * np.array([1.0, 3.0, 0.2])
    vals = vals.astype(np.float32).astype(np.float64)  # as the container holds it
    sg = slice_geometry_for(geom)
    A = tomo._operators(sg).T.astype(np.float64)
    return geom, sg, vals, A, tomo._mbir_start(as_block(vals, sg), sg)


class TestSolverMatchesReferenceLoop:
    @pytest.mark.parametrize("case", list(SOLVER_CASES))
    def test_batch_and_single_channel_runs(self, case):
        geom, sg, vals, A, X0 = solver_inputs(seed=3, noise_seed=9)
        opts = MbirOptions(**SOLVER_CASES[case])
        # beta-0's 120 unregularized iterations amplify rounding (a 1-ulp
        # change of the start moves the result by 2e-9 of its max), so the
        # comparison runs from the bare-ramp start, where this seed agrees to
        # 2e-12
        X0_ref = bare_ramp_start(vals, sg)
        ref_X, ref_traces, _ = reference_sqs(A, vals, np.exp(-vals), sg.image_size, opts,
                                             X0_ref)
        lengths = [len(t) for t in ref_traces]
        if case.endswith("freezing"):
            assert len(set(lengths)) > 1 and max(lengths) < opts.max_iters
        else:
            assert lengths == [opts.max_iters] * 3

        # the solver with a float64 A^T is the reference loop
        X, info = tomo._sqs_solve(A.T.tocsr(), vals, np.exp(-vals), sg.image_size, opts,
                                  X0_ref.copy())
        assert_rel_close(X, ref_X, 1e-10)
        for c in range(3):
            assert info[c]["iterations"] == lengths[c]
            assert_rel_close(info[c]["objective_trace"], ref_traces[c], 1e-10)

        # every entry point runs it from MBIR's start with the cached float32
        # A^T, bit for bit
        X32, info32 = tomo._sqs_solve(tomo._operators(sg), vals, np.exp(-vals),
                                      sg.image_size, opts, X0.copy())
        X, info = tomo._reconstruct_columns(one_slice(vals, sg), sg, opts)
        assert X[0].tobytes() == X32.tobytes()
        for c in range(3):
            assert info[c]["objective_trace"].tobytes() == info32[c]["objective_trace"].tobytes()
            img, solo = mbir_reconstruct(vals[:, c].reshape(geom.num_views, geom.num_cols),
                                         sg, opts, return_info=True)
            assert img.ravel().tobytes() == X32[:, c].tobytes()
            assert solo["objective_trace"].tobytes() == info32[c]["objective_trace"].tobytes()

        vol = reconstruct_stack(SubspaceSinogram(vals, geom), geom, "mbir", opts)
        assert vol.voxels.tobytes() == X32.astype(np.float32).tobytes()

    def test_discarded_step_repeats_the_objective(self):
        # from the bare-ramp start the momentum overshoots within 40
        # iterations: channel 0 at step 21, channel 2 at step 25; each step is
        # discarded and the trace repeats f(x)
        _, sg, vals, A, X0 = solver_inputs(seed=1, noise_seed=10)
        opts = MbirOptions(regularization_weight=2.0, max_iters=40, rel_tol=1e-12)
        X0_ref = bare_ramp_start(vals, sg)
        ref_X, ref_traces, discards = reference_sqs(A, vals, np.exp(-vals), sg.image_size,
                                                    opts, X0_ref)
        assert discards == [[21], [], [25]]
        X, info = tomo._sqs_solve(A.T.tocsr(), vals, np.exp(-vals), sg.image_size, opts,
                                  X0_ref.copy())
        for c in range(3):
            trace = info[c]["objective_trace"]
            # every repeat is a discarded step, not a converged plateau
            assert list(np.flatnonzero(trace[1:] == trace[:-1]) + 1) == discards[c]
            assert np.all(trace[1:] <= trace[:-1])
        assert_rel_close(X, ref_X, 1e-10)
        for c in range(3):
            assert_rel_close(info[c]["objective_trace"], ref_traces[c], 1e-10)

        # the driver runs the float32 solver from MBIR's start
        X32, info32 = tomo._sqs_solve(tomo._operators(sg), vals, np.exp(-vals),
                                      sg.image_size, opts, X0.copy())
        X, info = tomo._reconstruct_columns(one_slice(vals, sg), sg, opts)
        assert X[0].tobytes() == X32.tobytes()
        for c in range(3):
            assert info[c]["objective_trace"].tobytes() == info32[c]["objective_trace"].tobytes()

    def test_float32_operator_tracks_the_float64_one(self):
        # measured: 44 iterations on both sides, objectives 1.5e-8 apart
        # (relative), voxels at most 1.0e-7 of their max apart
        _, geom, p = sparse_noisy_projection(seed=1)
        opts = MbirOptions(regularization_weight=2.0)
        y = p.reshape(-1, 1)
        AT32 = tomo._operators(geom)
        A = AT32.T.astype(np.float64)
        assert AT32.dtype == np.float32
        X0 = bare_ramp_start(y, geom)
        X64, (info64,) = tomo._sqs_solve(A.T.tocsr(), y, np.exp(-y), geom.image_size, opts,
                                         X0.copy())
        X32, (info32,) = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts, X0)
        assert info64["converged"] and info32["converged"]
        assert abs(info32["iterations"] - info64["iterations"]) <= 1
        assert abs(info32["objective"] - info64["objective"]) <= 1e-6 * info64["objective"]
        assert X32.dtype == np.float64
        assert_rel_close(X32, X64, 2e-3)

    def test_ogm_beats_the_fista_loop(self):
        # measured: 33 iterations against FISTA's 44 (0.75x); relative
        # distance to a rel_tol 1e-12 solve 4.0e-3 against FISTA's 5.2e-3
        _, geom, p = sparse_noisy_projection(seed=1)
        opts = MbirOptions(regularization_weight=2.0, rel_tol=1e-5)
        y = p.reshape(-1, 1)
        AT32 = tomo._operators(geom)
        A = AT32.T.astype(np.float64)
        X0 = bare_ramp_start(y, geom)
        X, (info,) = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts, X0.copy())
        X_fista, (trace,), _ = reference_sqs(A, y, np.exp(-y), geom.image_size, opts, X0,
                                             momentum="fista")
        X_best, (best,) = tomo._sqs_solve(
            A.T.tocsr(), y, np.exp(-y), geom.image_size,
            MbirOptions(regularization_weight=2.0, max_iters=3000, rel_tol=1e-12), X0.copy())
        assert info["converged"] and best["converged"]
        assert info["iterations"] <= 0.85 * len(trace)
        assert np.linalg.norm(X - X_best) <= np.linalg.norm(X_fista - X_best)

    def test_hann_start_stops_sooner_at_the_same_objective(self):
        # measured: 32 iterations from the Hann-windowed start against 33
        # from the bare-ramp one, objectives 8.9e-7 apart (relative); both
        # counts are pinned so a drift shows
        _, geom, p = sparse_noisy_projection(seed=1)
        opts = MbirOptions(regularization_weight=2.0)
        y = p.reshape(-1, 1)
        AT32 = tomo._operators(geom)
        bare = bare_ramp_start(y, geom)
        start = tomo._mbir_start(as_block(y, geom), geom)
        _, (slow,) = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts, bare)
        _, (fast,) = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts, start)
        assert slow["converged"] and fast["converged"]
        assert (slow["iterations"], fast["iterations"]) == (33, 32)
        assert abs(fast["objective"] - slow["objective"]) <= 1e-6 * slow["objective"]
        _, info = mbir_reconstruct(p, geom, opts, return_info=True)
        assert info["iterations"] == fast["iterations"]

    def test_hann_start_stops_sooner_on_a_batch_of_low_count_channels(self):
        # eight noise draws at 20 counts per ray, one batch: measured 260
        # column-iterations from the bare-ramp start against 233 from the
        # Hann-windowed one (-10 %), every column sooner, objectives at most
        # 1.6e-5 apart (relative); both sums are pinned so a drift shows
        ys = [sparse_noisy_projection(seed=seed, flux=20.0) for seed in range(1, 9)]
        geom = ys[0][1]
        y = np.stack([p.ravel() for _, _, p in ys], axis=1)
        opts = MbirOptions(regularization_weight=2.0)
        AT32 = tomo._operators(geom)
        _, slow = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts,
                                  bare_ramp_start(y, geom))
        _, fast = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts,
                                  tomo._mbir_start(as_block(y, geom), geom))
        assert all(i["converged"] for i in slow + fast)
        assert (sum(i["iterations"] for i in slow), sum(i["iterations"] for i in fast)) == (
            260, 233)
        for s, f in zip(slow, fast):
            assert f["iterations"] < s["iterations"]
            assert abs(f["objective"] - s["objective"]) <= 5e-5 * s["objective"]

    # at seed 9, step 27 turns against the momentum and changes the
    # objective by less than rel_tol while 3.7e-4 above the optimum
    @pytest.mark.parametrize("seed", [1, 9])
    def test_converges_where_the_plain_loop_hits_the_cap(self, seed):
        _, geom, p = sparse_noisy_projection(seed=seed)
        opts = MbirOptions(regularization_weight=2.0)
        assert opts.max_iters == 100
        y = p.reshape(-1, 1)
        A = tomo._operators(geom).T.astype(np.float64)
        X0 = bare_ramp_start(y, geom)
        _, plain, _ = reference_sqs(A, y, np.exp(-y), geom.image_size,
                                 MbirOptions(regularization_weight=2.0, max_iters=300),
                                 X0, momentum=False)
        assert len(plain[0]) > 100
        _, info = mbir_reconstruct(p, geom, opts, return_info=True)
        assert info["converged"] and info["iterations"] <= 100
        _, long = mbir_reconstruct(p, geom, MbirOptions(
            regularization_weight=2.0, max_iters=3000, rel_tol=1e-10), return_info=True)
        assert info["objective"] - long["objective"] <= 1e-4 * long["objective"]


def assert_same_solve(got, want):
    """Two ``_reconstruct_columns`` results with equal image bytes and info."""
    (X, info), (X_ref, info_ref) = got, want
    assert X.tobytes() == X_ref.tobytes()
    assert len(info) == len(info_ref)
    for i, i_ref in zip(info, info_ref):
        assert (i["iterations"], i["converged"]) == (i_ref["iterations"], i_ref["converged"])
        assert i["objective_trace"].tobytes() == i_ref["objective_trace"].tobytes()


class TestPriorFreeSolves:
    """beta = 0 under either prior, and a one-pixel image (no neighbor
    pairs) under any beta, solve the unregularized problem on the solver's
    quadratic path."""

    PRIORS = ("quadratic-difference", "huber")

    def test_one_pixel_image_has_no_prior(self):
        # a 1-bin detector sees its one pixel in every view with weight 1, so
        # the weighted fit is the exp(-y)-weighted mean of each column's views
        sg = uniform_geom(7, 1)
        y = np.random.default_rng(4).uniform(0.1, 2.0, (7, 1, 1, 4))
        plain = tomo._reconstruct_columns(y, sg, MbirOptions(regularization_weight=0.0))
        assert all(i["converged"] for i in plain[1])
        w = np.exp(-y[:, 0, 0])
        np.testing.assert_allclose(plain[0][0, 0], (w * y[:, 0, 0]).sum(0) / w.sum(0),
                                   rtol=1e-6)
        for prior in self.PRIORS:
            for beta in (0.0, 2.0):
                opts = MbirOptions(prior=prior, regularization_weight=beta)
                assert_same_solve(tomo._reconstruct_columns(y, sg, opts), plain)

    def test_beta_zero_is_the_same_solve_under_either_prior(self, monkeypatch):
        # three channels that stop at 43, 42 and 69 iterations, so stopped
        # columns are carried and then dropped from the batch
        _, sg, vals, _, _ = solver_inputs(seed=3, noise_seed=9)
        opts = MbirOptions(regularization_weight=0.0, max_iters=120, rel_tol=1e-3)
        quadratic = tomo._reconstruct_columns(one_slice(vals, sg), sg, opts)
        info = quadratic[1]
        assert all(i["converged"] for i in info)
        assert len({i["iterations"] for i in info}) == 3

        def unused(*args):
            raise AssertionError("beta = 0 runs no Huber product")

        monkeypatch.setattr(tomo, "_huber_value", unused)
        monkeypatch.setattr(tomo, "_huber_step", unused)
        huber = tomo._reconstruct_columns(one_slice(vals, sg), sg,
                                          MbirOptions(prior="huber", regularization_weight=0.0,
                                                      max_iters=120, rel_tol=1e-3))
        assert_same_solve(huber, quadratic)
