import numpy as np
import pytest

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    SpectralBasis,
    SubspaceSinogram,
    ToFConverter,
    ValidationError,
    VolumeStack,
)
from hsnct.subspace import (
    NmfOptions,
    _accelerated_hals,
    _init_factors,
    _revive_dead_columns,
    expand,
    nmf_factorize,
    subspace_residual,
)


def sino_from(mat):
    mat = np.asarray(mat, dtype=np.float64)
    n_p, n_k = mat.shape
    geom = ScanGeometry(n_p, 1, 1, np.linspace(0, np.pi, n_p, endpoint=False),
                        flight_path=10.0)
    axis = SpectralAxis(np.linspace(1e-3, 2e-3, n_k + 1), ToFConverter(flight_path=10.0))
    return HyperspectralSinogram(mat, geom, axis)


def axis_for(n_k):
    return SpectralAxis(np.linspace(1e-3, 2e-3, n_k + 1), ToFConverter(flight_path=10.0))


class TestNmfFactorize:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(101)
        u = rng.uniform(0.5, 1.5, 40)
        w = rng.uniform(0.5, 1.5, 16)
        p = sino_from(np.outer(u, w))
        v, d, report = nmf_factorize(p, NmfOptions(rank=1, seed=3))
        assert report.residual_energy <= 1e-6
        # independent residual check, not trusting the report
        _, eps = subspace_residual(p, v, d)
        assert eps <= 1e-6

    def test_zero_matrix(self):
        p = sino_from(np.zeros((6, 5)))
        v, d, report = nmf_factorize(p, NmfOptions(rank=2, seed=0))
        assert report.objective_trace[0] == 0.0
        assert report.residual_energy == 0.0
        assert report.converged
        # every column is inert: zero coefficients, unit-norm placeholder basis
        assert np.all(v.coeffs == 0.0)
        assert report.dead_columns == (0, 1)

    def test_noisy_rank_three(self):
        rng = np.random.default_rng(200)
        V = rng.uniform(0.2, 1.0, (20, 3))
        D = rng.uniform(0.2, 1.0, (16, 3))
        clean = V @ D.T
        g = rng.standard_normal(clean.shape)
        noisy = np.maximum(clean + 0.1 * np.linalg.norm(clean) / np.linalg.norm(g) * g, 0.0)
        _, _, report = nmf_factorize(sino_from(noisy), NmfOptions(rank=3, seed=0))
        assert report.residual_energy <= 0.02

    def test_negative_input_rejected(self):
        mat = np.ones((4, 3))
        mat[0, 0] = -0.5
        with pytest.raises(ValidationError):
            nmf_factorize(sino_from(mat), NmfOptions(rank=1, seed=0))

    def test_rank_bound_rejected(self):
        p = sino_from(np.ones((4, 4)))
        with pytest.raises(ValidationError):
            nmf_factorize(p, NmfOptions(rank=5, seed=0))

    def test_factors_non_negative(self):
        rng = np.random.default_rng(9)
        p = sino_from(rng.uniform(0, 2, (30, 12)))
        v, d, _ = nmf_factorize(p, NmfOptions(rank=4, seed=9))
        assert float(v.coeffs.min()) >= 0.0
        assert float(d.basis.min()) >= 0.0

    def test_objective_trace_monotone(self):
        # slack: 1e-10 relative, with an absolute floor covering float64
        # cancellation noise in the objective near exact fits
        rng = np.random.default_rng(31)
        for seed in range(5):
            p = sino_from(rng.uniform(0, 3, (25, 10)))
            _, _, report = nmf_factorize(p, NmfOptions(rank=3, seed=seed))
            t = report.objective_trace
            floor = 1e-12 * t[0]
            assert np.all(t[1:] <= t[:-1] + 1e-10 * np.maximum(t[:-1], floor))

    def test_converges_under_default_tolerance(self):
        # noisy rank-3 data fitted at rank 4, as on the desk scan: the fourth
        # column fits noise; the run stops on rel_tol, not on max_iters
        rng = np.random.default_rng(700)
        V = rng.uniform(0.2, 1.0, (3000, 3))
        D = rng.uniform(0.2, 1.0, (64, 3))
        clean = V @ D.T
        noisy = np.maximum(clean + 0.3 * clean.mean() * rng.standard_normal(clean.shape), 0.0)
        opts = NmfOptions(rank=4, seed=0)
        _, _, report = nmf_factorize(sino_from(noisy), opts)
        assert report.converged
        assert report.iterations_run <= opts.max_iters // 2
        assert np.all(np.diff(report.objective_trace) <= 0.0)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(77)
        p = sino_from(rng.uniform(0, 1, (18, 9)))
        opts = NmfOptions(rank=3, seed=123)
        v1, d1, r1 = nmf_factorize(p, opts)
        v2, d2, r2 = nmf_factorize(p, opts)
        assert v1.coeffs.tobytes() == v2.coeffs.tobytes()
        assert d1.basis.tobytes() == d2.basis.tobytes()
        assert r1.iterations_run == r2.iterations_run

    def test_canonical_order_is_descending_coefficient_norm(self):
        rng = np.random.default_rng(52)
        p = sino_from(rng.uniform(0, 2, (40, 14)))
        v, _, _ = nmf_factorize(p, NmfOptions(rank=4, seed=5))
        norms = np.linalg.norm(v.coeffs.astype(np.float64), axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_basis_columns_unit_norm(self):
        rng = np.random.default_rng(53)
        p = sino_from(rng.uniform(0, 2, (40, 14)))
        _, d, report = nmf_factorize(p, NmfOptions(rank=3, seed=1))
        norms = np.linalg.norm(d.basis.astype(np.float64), axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)
        assert report.dead_columns == ()

    def test_noise_rejection(self):
        # rank-3 truth plus bounded zero-mean noise: the factorized
        # approximation should land closer to the truth than the data does
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(3000 + trial)
            V = rng.uniform(0.2, 1.0, (400, 3))
            D = rng.uniform(0.2, 1.0, (64, 3))
            clean = V @ D.T
            noise = rng.uniform(-0.1, 0.1, clean.shape)
            v, d, _ = nmf_factorize(sino_from(clean + noise), NmfOptions(rank=3, seed=trial))
            recon = v.coeffs.astype(np.float64) @ d.basis.astype(np.float64).T
            wins += np.linalg.norm(recon - clean) < np.linalg.norm(noise)
        assert wins >= 19

    def test_bad_options_rejected(self):
        with pytest.raises(ValidationError):
            NmfOptions(rank=0, seed=0)
        with pytest.raises(ValidationError):
            NmfOptions(rank=1, seed=0, max_iters=0)
        with pytest.raises(ValidationError):
            NmfOptions(rank=1, seed=0, rel_tol=0.0)
        with pytest.raises(ValidationError, match="rel_tol"):
            NmfOptions(rank=1, seed=0, rel_tol=np.inf)


class TestRankScan:
    """Residual energy across a scan of ranks, one nmf_factorize call per rank."""

    def test_exact_rank_three_curve(self):
        rng = np.random.default_rng(1042)
        V = rng.uniform(0.2, 1.0, (24, 3))
        D = rng.uniform(0.2, 1.0, (12, 3))
        p = sino_from(V @ D.T)
        eps = [nmf_factorize(p, NmfOptions(rank=r, seed=42, max_iters=4000,
                                           rel_tol=1e-10))[2].residual_energy
               for r in (1, 2, 3)]
        assert eps[0] > eps[1] > eps[2]
        assert eps[2] <= 1e-6

    def test_constant_matrix_is_rank_one(self):
        p = sino_from(np.full((6, 5), 3.0))
        _, _, report = nmf_factorize(p, NmfOptions(rank=1, seed=7))
        assert report.residual_energy <= 1e-9

    def test_rank_exceeding_bound_rejected(self):
        # every rank up to min(N_p, N_k) factorizes; the first one past it is refused
        p = sino_from(np.ones((4, 4)))
        for r in range(1, 5):
            nmf_factorize(p, NmfOptions(rank=r, seed=0))
        with pytest.raises(ValidationError):
            nmf_factorize(p, NmfOptions(rank=5, seed=0))


class TestSubspaceResidual:
    def test_zero_coefficients_leave_input(self):
        rng = np.random.default_rng(4)
        mat = rng.uniform(0.1, 1.0, (8, 6))
        p = sino_from(mat)
        v = SubspaceSinogram(np.zeros((8, 2)), p.geometry)
        d = SpectralBasis(np.ones((6, 2)), p.axis)
        resid, eps = subspace_residual(p, v, d)
        np.testing.assert_allclose(resid, p.values.astype(np.float64), rtol=1e-6)
        assert np.isclose(eps, 1.0, rtol=1e-6)

    def test_gauge_rescaling_invariance(self):
        # power-of-two scales are exact in float32, so the two residuals
        # must agree bit-for-bit
        rng = np.random.default_rng(15)
        p = sino_from(rng.uniform(0, 1, (10, 8)))
        v = SubspaceSinogram(rng.uniform(0, 1, (10, 3)), p.geometry)
        d = SpectralBasis(rng.uniform(0.1, 1, (8, 3)), p.axis)
        scale = np.array([2.0, 0.5, 4.0])
        v2 = SubspaceSinogram(v.coeffs * scale, p.geometry)
        d2 = SpectralBasis(d.basis / scale, p.axis)
        r1, e1 = subspace_residual(p, v, d)
        r2, e2 = subspace_residual(p, v2, d2)
        assert r1.tobytes() == r2.tobytes()
        assert e1 == e2

    def test_converged_factorization_residual(self):
        rng = np.random.default_rng(6)
        p = sino_from(np.outer(rng.uniform(0.5, 1.5, 30), rng.uniform(0.5, 1.5, 10)))
        v, d, _ = nmf_factorize(p, NmfOptions(rank=1, seed=2))
        _, eps = subspace_residual(p, v, d)
        assert eps <= 1e-6

    def test_shape_mismatch_rejected(self):
        p = sino_from(np.ones((8, 6)))
        v = SubspaceSinogram(np.zeros((8, 2)), p.geometry)
        d_wrong = SpectralBasis(np.ones((5, 2)), axis_for(5))
        with pytest.raises(ValidationError):
            subspace_residual(p, v, d_wrong)


def hals_inner(W, A, G, max_inner):
    """Plain inner HALS loop: w_j <- max(0, w_j + (a_j - W g_j) / G_jj) column
    by column, a zero column where G_jj = 0; stop after ``max_inner`` sweeps
    or once a sweep moves W by at most 1 % of the first sweep's move."""
    first = None
    for _ in range(max_inner):
        old = W.copy()
        for j in range(W.shape[1]):
            if G[j, j] > 0:
                W[:, j] = np.maximum(W[:, j] + (A[:, j] - W @ G[:, j]) / G[j, j], 0.0)
            else:
                W[:, j] = 0.0
        move = float(np.sum((W - old) ** 2))
        if first is None:
            first = move
        if move <= 1e-4 * first:
            break


def three_pass_sweeps(X, V, D, sweeps):
    """Reference loop: every pass reads X three times (X D for V, X^T V for
    D, X D again for the objective).  Inner updates per factor are capped at
    floor(1 + rho / 2), rho = 1 + n (m + r) / (m (r + 1)) for an m x r factor
    of an m x n matrix (Gillis & Glineur 2012)."""
    n_p, n_k = X.shape
    r = V.shape[1]
    cap_v = int(1 + 0.5 * (1 + n_k * (n_p + r) / (n_p * (r + 1))))
    cap_d = int(1 + 0.5 * (1 + n_p * (n_k + r) / (n_k * (r + 1))))
    X2 = float(np.sum(X * X))
    reseeded, dead = set(), set()
    trace = []
    for _ in range(sweeps):
        hals_inner(V, X @ D, D.T @ D, cap_v)
        hals_inner(D, X.T @ V, V.T @ V, cap_d)
        _revive_dead_columns(X, V, D, reseeded, dead)
        cross = float(np.sum((X @ D) * V))
        trace.append(max(X2 - 2.0 * cross + float(np.sum((V.T @ V) * (D.T @ D))), 0.0))
    return np.array(trace), reseeded


def direct_objective(X, V, D):
    R = X - V @ D.T
    return float(np.sum(R * R))


class TestSinglePassSweep:
    """The solver's passes (two reads of X each, objective from X^T V)
    against a plain HALS loop written here."""

    N_K = 16
    SWEEPS = 30

    @pytest.mark.parametrize("n_p", [8, 16, 257, 4097])
    def test_matches_three_pass_loop(self, n_p):
        rng = np.random.default_rng(n_p)
        # float32-exact, so the sinogram container holds the same X
        X = rng.uniform(0.0, 1.0, (n_p, self.N_K)).astype(np.float32).astype(np.float64)
        opts = NmfOptions(rank=3, seed=5, max_iters=self.SWEEPS, rel_tol=1e-15)
        V, D = _init_factors(X, opts.rank, opts.seed)
        V_ref, D_ref = V.copy(), D.copy()
        trace, converged, _, _ = _accelerated_hals(X, float(np.sum(X * X)), V, D, opts)
        ref_trace, _ = three_pass_sweeps(X, V_ref, D_ref, self.SWEEPS)
        assert not converged and len(trace) == self.SWEEPS
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-10, atol=0)
        assert np.linalg.norm(V - V_ref) <= 1e-10 * np.linalg.norm(V_ref)
        assert np.linalg.norm(D - D_ref) <= 1e-10 * np.linalg.norm(D_ref)
        # the public entry point runs the same passes from the same init
        _, _, report = nmf_factorize(sino_from(X), opts)
        np.testing.assert_allclose(report.objective_trace, ref_trace, rtol=1e-10, atol=0)

    def test_revived_column_takes_direct_objective(self):
        # basis column 1 lives only on bins where X is zero, so X d_1 = 0 and
        # the first V update clamps coefficient column 1 to zero in every
        # row; basis column 1 then has nothing to fit, collapses, and is
        # re-seeded from the residual after X^T V was formed
        rng = np.random.default_rng(8)
        X = rng.uniform(0.0, 1.0, (300, self.N_K))
        X[:, 12:] = 0.0
        opts = NmfOptions(rank=3, seed=2, max_iters=5, rel_tol=1e-15)
        V, D = _init_factors(X, opts.rank, opts.seed)
        D[:12, 1] = 0.0
        X2 = float(np.sum(X * X))
        V1, D1 = V.copy(), D.copy()
        trace1, _, reseeded1, _ = _accelerated_hals(
            X, X2, V1, D1, NmfOptions(rank=3, seed=2, max_iters=1))
        assert reseeded1 == {1}
        assert trace1[0] == pytest.approx(direct_objective(X, V1, D1), rel=1e-10)
        V_ref, D_ref = V.copy(), D.copy()
        trace, _, reseeded, _ = _accelerated_hals(X, X2, V, D, opts)
        ref_trace, ref_reseeded = three_pass_sweeps(X, V_ref, D_ref, opts.max_iters)
        assert reseeded == ref_reseeded == {1}
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-10, atol=0)
        assert trace[-1] == pytest.approx(direct_objective(X, V, D), rel=1e-10)

    def test_all_zero_input_trace_is_direct_objective(self):
        X = np.zeros((6, 5))
        V, D = _init_factors(X, 2, 0)
        trace, converged, _, dead = _accelerated_hals(
            X, 0.0, V, D, NmfOptions(rank=2, seed=0))
        assert converged and dead == {0, 1}
        assert trace == [direct_objective(X, V, D)] == [0.0]


class TestExpand:
    def test_zero_volume_expands_to_zero(self):
        d = SpectralBasis(np.full((5, 2), 0.5), axis_for(5))
        x = VolumeStack(np.zeros((4, 2)), num_rows=1, num_cols=2)
        out = expand(x, d)
        assert out.num_channels == 5
        assert np.all(out.voxels == 0.0)

    def test_all_ones_column_broadcasts(self):
        d = SpectralBasis(np.ones((5, 1)), axis_for(5))
        x = VolumeStack(np.array([[1.5], [2.5], [0.0], [3.0]]), num_rows=1, num_cols=2)
        out = expand(x, d)
        for k in range(5):
            np.testing.assert_allclose(out.voxels[:, k], x.voxels[:, 0], rtol=1e-6)

    def test_one_hot_selects_basis_column(self):
        rng = np.random.default_rng(61)
        D = rng.uniform(0.1, 1.0, (7, 3))
        d = SpectralBasis(D, axis_for(7))
        x = np.zeros((4, 3))
        x[2, 1] = 1.0
        out = expand(VolumeStack(x, num_rows=1, num_cols=2), d)
        np.testing.assert_allclose(out.voxels[2], D[:, 1], rtol=1e-6)
        assert np.all(out.voxels[0] == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(62)
        D = rng.uniform(0.1, 1.0, (6, 2))
        d = SpectralBasis(D, axis_for(6))
        for _ in range(10):
            x1 = rng.normal(size=(8, 2))
            x2 = rng.normal(size=(8, 2))
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            lhs = expand(VolumeStack(a * x1 + b * x2, 2, 2), d).voxels.astype(np.float64)
            rhs = (a * expand(VolumeStack(x1, 2, 2), d).voxels.astype(np.float64)
                   + b * expand(VolumeStack(x2, 2, 2), d).voxels.astype(np.float64))
            denom = max(np.linalg.norm(rhs), 1e-12)
            assert np.linalg.norm(lhs - rhs) / denom <= 1e-6

    def test_channel_mismatch_rejected(self):
        d = SpectralBasis(np.ones((5, 2)), axis_for(5))
        x = VolumeStack(np.zeros((4, 3)), num_rows=1, num_cols=2)
        with pytest.raises(ValidationError):
            expand(x, d)

    def test_no_clamping_of_negative_voxels(self):
        d = SpectralBasis(np.ones((3, 1)), axis_for(3))
        x = VolumeStack(np.array([[-1.0], [2.0], [0.5], [1.0]]), num_rows=1, num_cols=2)
        out = expand(x, d)
        assert float(out.voxels.min()) == -1.0
