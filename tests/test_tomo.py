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
        assert tomo._operators(uniform_geom(4, 8))[0] is not tomo._operators(
            uniform_geom(5, 8))[0]

    def test_float32_fbp_matches_a_float64_fbp(self):
        # FBP computes in float32; the same FBP in float64, written out here
        _, geom, p = sparse_noisy_projection()
        nd = geom.num_detector_bins
        n_pad = 1 << int(np.ceil(np.log2(2 * nd)))
        padded = np.zeros((geom.num_angles, n_pad))
        padded[:, :nd] = p
        q = np.fft.irfft(np.fft.rfft(padded, axis=1) * np.fft.rfftfreq(n_pad), n=n_pad, axis=1)
        ref = (tomo._operators(geom)[0].T @ q[:, :nd].ravel()) * (
            np.pi / (geom.num_angles * geom.pixel_pitch ** 2))
        rec = fbp_reconstruct(p, geom)
        assert rec.dtype == np.float64
        assert_rel_close(rec.ravel(), ref, 1e-5)

    def test_fbp_backprojector_is_the_float32_transpose(self):
        geom = uniform_geom(12, 24)
        A, B = tomo._operators(geom)
        assert B is tomo._operators(uniform_geom(12, 24))[1]
        assert B.format == "csr" and B.dtype == np.float32
        ra, ca, va = sp.find(A)
        rb, cb, vb = sp.find(B)
        a, b = np.lexsort((ra, ca)), np.lexsort((cb, rb))  # both in B's (row, col) order
        assert np.array_equal(ca[a], rb[b]) and np.array_equal(ra[a], cb[b])
        assert vb[b].tobytes() == va[a].astype(np.float32).tobytes()


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
            MbirOptions(huber_delta=0.0)
        with pytest.raises(ValidationError):
            MbirOptions(max_iters=0)
        for field in ("regularization_weight", "huber_delta", "rel_tol"):
            for value in (np.inf, None, "1", True):
                with pytest.raises(ValidationError, match=field):
                    MbirOptions(**{field: value})
        for count in (2.5, True, "100"):
            with pytest.raises(ValidationError, match="max_iters"):
                MbirOptions(max_iters=count)
        assert MbirOptions(max_iters=np.int64(7)).max_iters == 7
        for value in (np.float32(0.5), np.float64(0.5), np.int64(2)):
            assert MbirOptions(regularization_weight=value).regularization_weight == value


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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_wide_batch_matches_per_channel_runs(self, threads):
        # whole-slice blocks (C <= step), and channel blocks of one slice
        # when C exceeds a solver part or the per-worker share, all give
        # each (slice, channel) the bytes of its solo run
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
        opts = MbirOptions(prior=prior, huber_delta=0.004, max_iters=20, rel_tol=1e-12)
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

    def test_threads_do_not_change_fbp_result(self):
        geom, vals = stack_inputs(n_r=4, C=2)
        sub = SubspaceSinogram(vals, geom)
        v1 = reconstruct_stack(sub, geom, "fbp", threads=1)
        v2 = reconstruct_stack(sub, geom, "fbp", threads=3)
        np.testing.assert_array_equal(v1.voxels, v2.voxels)

    def test_threads_do_not_change_mbir_result(self):
        geom, vals = stack_inputs(n_r=3, C=2, seed=4)
        sub = SubspaceSinogram(vals, geom)
        opts = MbirOptions(regularization_weight=1.0, max_iters=8)
        v1 = reconstruct_stack(sub, geom, "mbir", opts, threads=1)
        v2 = reconstruct_stack(sub, geom, "mbir", opts, threads=2)
        assert v1.voxels.tobytes() == v2.voxels.tobytes()

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, []), (None, [])])
    def test_pool_holds_at_most_one_worker_per_cpu(self, monkeypatch, cpus, pools):
        # a huge budget still splits the stack into one-column blocks, but
        # the pool is sized by the CPUs, and one worker runs them serially
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
        sizes = []
        monkeypatch.setattr(tomo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(tomo.os, "cpu_count", lambda: cpus)
        v_many = reconstruct_stack(sub, geom, "fbp", threads=100_000)
        assert sizes == pools
        assert v_many.voxels.tobytes() == v1.voxels.tobytes()

    def test_geometry_mismatch_rejected(self):
        geom, vals = stack_inputs()
        other = ScanGeometry(geom.num_views, geom.num_rows, geom.num_cols,
                             geom.view_angles * 0.9 + 0.01, flight_path=10.0)
        with pytest.raises(ValidationError):
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


def reference_sqs(A, Y, W, n, opts, X0, momentum=True):
    """The accelerated SQS iteration written plainly, one channel at a time:
    the residual and the prior at z are recomputed from scratch wherever
    they are needed, and both restarts are checked per channel.  With
    ``momentum=False`` every step restarts, which is the plain SQS loop."""
    beta = opts.regularization_weight
    d_data = A.T @ (W * (A @ np.ones(A.shape[1]))[:, None])
    X = X0.copy()
    traces = []
    for c in range(Y.shape[1]):
        y, w = Y[:, c:c + 1], W[:, c:c + 1]

        def objective(x):
            r = A @ x - y
            obj = 0.5 * np.einsum("ij,ij->j", w * r, r)
            if beta > 0:
                obj = obj + beta * reference_prior(x, n, opts.prior, opts.huber_delta)[0]
            return float(obj[0])

        x = X0[:, c:c + 1].copy()
        z, t, extrapolated = x.copy(), 1.0, False
        f = objective(x)
        trace = []
        for _ in range(opts.max_iters):
            g = A.T @ (w * (A @ z - y))
            d = d_data[:, c:c + 1]
            if beta > 0:
                _, pg, pc = reference_prior(z, n, opts.prior, opts.huber_delta)
                g = g + beta * pg
                d = d + beta * pc
            x_new = np.maximum(z - np.divide(g, d, out=np.zeros_like(g), where=d > 0), 0.0)
            f_new = objective(x_new)
            if extrapolated and f_new > f:
                # restart (b): discard the step, take a plain one from x next
                trace.append(f)
                z, t, extrapolated = x.copy(), 1.0, False
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
            z = x_new + ((t - 1.0) / t_next) * (x_new - x)
            x, f, t, extrapolated = x_new, f_new, t_next, t > 1.0
        X[:, c] = x[:, 0]
        traces.append(np.asarray(trace))
    return X, traces


def assert_rel_close(actual, expected, tol):
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= tol * scale


class TestPriorMatchesDirectionalDifferences:
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    @pytest.mark.parametrize("C", [1, 5])
    def test_quadratic_value_gradient_curvature(self, n, C):
        X = np.random.default_rng(100 * n + C).uniform(0.0, 1.0, (n * n, C))
        _, _, L, curv = tomo._pairs(n)
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


SOLVER_CASES = {
    "quadratic": dict(prior="quadratic-difference", regularization_weight=2.0,
                      max_iters=50, rel_tol=1e-12),
    "huber": dict(prior="huber", regularization_weight=2.0, huber_delta=0.004,
                  max_iters=120, rel_tol=1e-12),
    "beta-0": dict(regularization_weight=0.0, max_iters=120, rel_tol=1e-12),
    "quadratic-freezing": dict(prior="quadratic-difference", regularization_weight=1.0,
                               max_iters=120, rel_tol=1e-4),
    "huber-freezing": dict(prior="huber", regularization_weight=1.0, huber_delta=0.004,
                           max_iters=120, rel_tol=1e-3),
}


def solver_inputs(seed, noise_seed):
    """One slice of three channels with different noise levels, so with a
    loose tolerance they stop at different iterations: (geom, sg, values,
    length-scaled float64 system matrix, the clamped FBP start)."""
    geom, vals = stack_inputs(n_r=1, C=3, seed=seed)
    rng = np.random.default_rng(noise_seed)
    vals = vals + rng.uniform(0, 0.2, vals.shape) * np.array([1.0, 3.0, 0.2])
    vals = vals.astype(np.float32).astype(np.float64)  # as the container holds it
    sg = slice_geometry_for(geom)
    A, _ = tomo._operators(sg)
    return geom, sg, vals, A, np.maximum(tomo._fbp_batch(vals, sg), 0.0).astype(np.float64)


class TestSolverMatchesReferenceLoop:
    @pytest.mark.parametrize("case", list(SOLVER_CASES))
    def test_batch_and_single_channel_runs(self, case):
        geom, sg, vals, A, X0 = solver_inputs(seed=3, noise_seed=9)
        opts = MbirOptions(**SOLVER_CASES[case])
        ref_X, ref_traces = reference_sqs(A, vals, np.exp(-vals), sg.image_size, opts, X0)
        lengths = [len(t) for t in ref_traces]
        if case.endswith("freezing"):
            assert len(set(lengths)) > 1 and max(lengths) < opts.max_iters
        else:
            assert lengths == [opts.max_iters] * 3

        # the solver with a float64 A^T is the reference loop
        X, info = tomo._sqs_solve(A.T.tocsr(), vals, np.exp(-vals), sg.image_size, opts,
                                  X0.copy())
        assert_rel_close(X, ref_X, 1e-10)
        for c in range(3):
            assert info[c]["iterations"] == lengths[c]
            assert_rel_close(info[c]["objective_trace"], ref_traces[c], 1e-10)

        # every entry point runs it with the cached float32 A^T, bit for bit
        X32, info32 = tomo._sqs_solve(tomo._operators(sg)[1], vals, np.exp(-vals),
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
        # channel 0's momentum overshoots once within 40 iterations; the
        # step is discarded and the trace repeats f(x)
        _, sg, vals, A, X0 = solver_inputs(seed=2, noise_seed=11)
        opts = MbirOptions(regularization_weight=2.0, max_iters=40, rel_tol=1e-12)
        ref_X, ref_traces = reference_sqs(A, vals, np.exp(-vals), sg.image_size, opts, X0)
        X, info = tomo._sqs_solve(A.T.tocsr(), vals, np.exp(-vals), sg.image_size, opts,
                                  X0.copy())
        trace = info[0]["objective_trace"]
        assert np.any(trace[1:] == trace[:-1])
        assert np.all(trace[1:] <= trace[:-1])
        assert_rel_close(X, ref_X, 1e-10)
        for c in range(3):
            assert_rel_close(info[c]["objective_trace"], ref_traces[c], 1e-10)

        X32, info32 = tomo._sqs_solve(tomo._operators(sg)[1], vals, np.exp(-vals),
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
        A, AT32 = tomo._operators(geom)
        assert AT32.dtype == np.float32
        X0 = np.maximum(tomo._fbp_batch(y, geom), 0.0).astype(np.float64)
        X64, (info64,) = tomo._sqs_solve(A.T.tocsr(), y, np.exp(-y), geom.image_size, opts,
                                         X0.copy())
        X32, (info32,) = tomo._sqs_solve(AT32, y, np.exp(-y), geom.image_size, opts, X0)
        assert info64["converged"] and info32["converged"]
        assert abs(info32["iterations"] - info64["iterations"]) <= 1
        assert abs(info32["objective"] - info64["objective"]) <= 1e-6 * info64["objective"]
        assert X32.dtype == np.float64
        assert_rel_close(X32, X64, 2e-3)

    # at seed 9, step 27 turns against the momentum and changes the
    # objective by less than rel_tol while 3.7e-4 above the optimum
    @pytest.mark.parametrize("seed", [1, 9])
    def test_converges_where_the_plain_loop_hits_the_cap(self, seed):
        _, geom, p = sparse_noisy_projection(seed=seed)
        opts = MbirOptions(regularization_weight=2.0)
        assert opts.max_iters == 100
        y = p.reshape(-1, 1)
        A, _ = tomo._operators(geom)
        X0 = np.maximum(tomo._fbp_batch(y, geom), 0.0).astype(np.float64)
        _, plain = reference_sqs(A, y, np.exp(-y), geom.image_size,
                                 MbirOptions(regularization_weight=2.0, max_iters=300),
                                 X0, momentum=False)
        assert len(plain[0]) > 100
        _, info = mbir_reconstruct(p, geom, opts, return_info=True)
        assert info["converged"] and info["iterations"] <= 100
        _, long = mbir_reconstruct(p, geom, MbirOptions(
            regularization_weight=2.0, max_iters=3000, rel_tol=1e-10), return_info=True)
        assert info["objective"] - long["objective"] <= 1e-4 * long["objective"]
