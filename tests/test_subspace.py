import numpy as np
import pytest

from hsnct import containers
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
    _fit_rows,
    _init_factors,
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

    def test_collapsed_column_is_reported_dead(self):
        # values in only 3 of 8 bins: one of 5 columns collapses, and it is
        # packaged inert instead of being re-seeded
        X = np.zeros((40, 8))
        X[:, 2:5] = np.random.default_rng(0).uniform(0.0, 1.0, (40, 3))
        v, d, report = nmf_factorize(sino_from(X), NmfOptions(rank=5, seed=2, max_iters=50))
        assert report.dead_columns == (4,)
        assert np.all(v.coeffs[:, 4] == 0.0)
        assert np.all(d.basis[:, 4] == np.float32(1.0 / np.sqrt(8)))
        norms = np.linalg.norm(d.basis[:, :4].astype(np.float64), axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-6)
        assert np.all(np.diff(report.objective_trace) <= 0.0)

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
        # column fits noise; the run stops on the certified gap, not on max_iters
        rng = np.random.default_rng(700)
        V = rng.uniform(0.2, 1.0, (3000, 3))
        D = rng.uniform(0.2, 1.0, (64, 3))
        clean = V @ D.T
        noisy = np.maximum(clean + 0.3 * clean.mean() * rng.standard_normal(clean.shape), 0.0)
        p = sino_from(noisy)
        opts = NmfOptions(rank=4, seed=0)
        _, _, report = nmf_factorize(p, opts)
        assert report.converged
        assert report.iterations_run <= opts.max_iters // 2
        assert np.all(np.diff(report.objective_trace) <= 0.0)
        # the reported gap is (f - f_svd) / lambda_5 on the rows the passes
        # ran on (512 of 3000), with both taken from an SVD here
        X = p.values.astype(np.float64)
        rows, _ = _fit_rows(X, opts.rank, opts.seed)
        assert report.fit_rows == rows.size == 8 * 64
        sq = np.linalg.svd(X[rows], compute_uv=False) ** 2
        gap = (report.objective_trace[-1] - sq[4:].sum()) / sq[4]
        assert report.gap == pytest.approx(gap, rel=1e-6)
        assert 0.0 < report.gap <= opts.rel_tol

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
        for count in (2.5, True, "500"):
            with pytest.raises(ValidationError, match="max_iters"):
                NmfOptions(rank=1, seed=0, max_iters=count)
            with pytest.raises(ValidationError, match="rank"):
                NmfOptions(rank=count, seed=0)
        assert NmfOptions(rank=1, seed=0, max_iters=np.int64(7)).max_iters == 7
        # a seed is an integer >= 0: None would draw a fresh basis on every run
        for seed in (None, -1, 1.5, True):
            with pytest.raises(ValidationError, match="seed"):
                NmfOptions(rank=1, seed=seed)


def noisy_rank_three(n_p, n_k, seed):
    """Noisy rank-3 data clamped at 0, as on the desk scan."""
    rng = np.random.default_rng(seed)
    clean = rng.uniform(0.2, 1.0, (n_p, 3)) @ rng.uniform(0.2, 1.0, (n_k, 3)).T
    return np.maximum(clean + 0.3 * clean.mean() * rng.standard_normal(clean.shape), 0.0)


class TestFitRows:
    """The passes fit D on min(N_p, 8 N_k) rows drawn by energy; V is then
    solved on every row with D fixed, and residual_energy covers every row."""

    def test_coefficients_are_the_nnls_solution_on_every_row(self):
        # 3000 x 64 at rank 4: the passes run on 512 rows.  Optimality of
        # min ||X - V D^T|| over V >= 0 for the returned D: the gradient
        # V D^T D - X D is 0 where V > 0 and >= 0 where V = 0, to 3e-5 of
        # max |X D| (the V step's stop and V's float32 rounding)
        p = sino_from(noisy_rank_three(3000, 64, 700))
        v, d, report = nmf_factorize(p, NmfOptions(rank=4, seed=0))
        assert report.fit_rows == 512
        X = p.values.astype(np.float64)
        V, D = v.coeffs.astype(np.float64), d.basis.astype(np.float64)
        XD = X @ D
        grad = V @ (D.T @ D) - XD
        tol = 3e-5 * np.abs(XD).max()
        assert np.all(np.abs(grad[V > 0]) <= tol)
        assert np.all(grad[V == 0] >= -tol)

    def test_residual_energy_is_the_returned_factors_residual_on_every_row(self):
        p = sino_from(noisy_rank_three(3000, 64, 701))
        v, d, report = nmf_factorize(p, NmfOptions(rank=4, seed=0))
        assert report.fit_rows < 3000
        _, eps = subspace_residual(p, v, d)
        assert report.residual_energy == pytest.approx(eps, rel=1e-10)

    def test_seed_fixes_the_sample_and_the_bytes(self):
        X = noisy_rank_three(3000, 64, 702)
        p = sino_from(X)
        runs = [nmf_factorize(p, NmfOptions(rank=4, seed=s)) for s in (3, 3, 4)]
        (v1, d1, r1), (v2, d2, r2), (v3, d3, _) = runs
        assert v1.coeffs.tobytes() == v2.coeffs.tobytes()
        assert d1.basis.tobytes() == d2.basis.tobytes()
        assert r1.objective_trace.tobytes() == r2.objective_trace.tobytes()
        rows3, rows4 = _fit_rows(X, 4, 3)[0], _fit_rows(X, 4, 4)[0]
        assert not np.array_equal(rows3, rows4)
        assert d1.basis.tobytes() != d3.basis.tobytes()

    def test_draw_is_sorted_distinct_and_skips_empty_rows(self):
        X = noisy_rank_three(3000, 16, 703)
        X[::3] = 0.0
        rows, X2 = _fit_rows(X, 2, 0)
        assert rows.size == 8 * 16
        assert np.all(np.diff(rows) > 0)
        assert np.all(rows % 3 != 0)
        assert X2 == pytest.approx(float(np.sum(X * X)), rel=1e-12)

    @pytest.mark.parametrize("shape, rank, live_rows", [
        ((40, 8), 3, 40),       # n = 64 >= N_p
        ((300, 6), 6, 300),     # rank = N_k
        ((3000, 16), 2, 100),   # fewer than n = 128 rows carry energy
    ])
    def test_all_rows_cases_run_the_passes_on_every_row(self, shape, rank, live_rows):
        # float32-exact, so the sinogram container holds the same X
        X = np.zeros(shape)
        X[:live_rows] = np.random.default_rng(shape[0]).uniform(
            0.0, 1.0, (live_rows, shape[1])).astype(np.float32)
        rows, _ = _fit_rows(X, rank, 0)
        np.testing.assert_array_equal(rows, np.arange(shape[0]))
        opts = NmfOptions(rank=rank, seed=0, max_iters=20, rel_tol=1e-15)
        V, D = _init_factors(X, rank, 0)
        trace, _ = _accelerated_hals(X, float(np.trace(X.T @ X)), np.asfortranarray(V),
                                     np.asfortranarray(D), opts, 0.0)
        _, _, report = nmf_factorize(sino_from(X), opts)
        assert report.fit_rows == shape[0]
        assert report.objective_trace.tobytes() == np.asarray(trace).tobytes()

    @pytest.mark.parametrize("n_p", [3000, 60])  # a drawn sample; every row
    def test_outputs_do_not_depend_on_the_block_size(self, monkeypatch, n_p):
        # the energies and X D are read in row blocks: blocks of 7 rows (a
        # partial last one) and one block of every row give the same bytes
        p = sino_from(noisy_rank_three(n_p, 16, 5))
        outs = []
        for block_rows in (7, 4096):
            monkeypatch.setattr(containers, "_BLOCK_ROWS", block_rows)
            v, d, report = nmf_factorize(p, NmfOptions(rank=3, seed=0))
            outs.append((v.coeffs.tobytes(), d.basis.tobytes(),
                         report.objective_trace.tobytes(), report.residual_energy,
                         report.fit_rows))
        assert outs[0] == outs[1]

    def test_zero_input_fits_every_row(self):
        rows, X2 = _fit_rows(np.zeros((3000, 8)), 2, 0)
        assert X2 == 0.0
        np.testing.assert_array_equal(rows, np.arange(3000))


class TestCertificate:
    """The stopping rule's lower bound f_svd (the best rank-r fit's
    objective, from an SVD here) and the runs it stops."""

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40), (300, 16)])
    def test_no_iterate_beats_the_svd_bound(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for seed in range(5):
            p = sino_from(rng.uniform(0.0, 2.0, shape))
            rank = 1 + seed % 3
            # the passes run on the fitted rows (128 of 300 for the tall shape)
            X = p.values.astype(np.float64)
            X = X[_fit_rows(X, rank, seed)[0]]
            f_svd = float(np.sum(np.linalg.svd(X, compute_uv=False)[rank:] ** 2))
            _, _, report = nmf_factorize(
                p, NmfOptions(rank=rank, seed=seed, max_iters=60, rel_tol=1e-12))
            assert np.all(report.objective_trace >= f_svd - 1e-12 * np.sum(X * X))

    def test_exact_rank_stops_on_the_zero_floor(self):
        # small-integer factors: the product is exact in float32, so the
        # sinogram holds an exactly rank-3 matrix and lambda_4 is rounding
        rng = np.random.default_rng(2024)
        X = rng.integers(1, 5, (200, 3)) @ rng.integers(1, 5, (24, 3)).T
        opts = NmfOptions(rank=3, seed=0)
        _, _, report = nmf_factorize(sino_from(X), opts)
        assert report.converged
        assert report.iterations_run <= opts.max_iters // 4
        # the first pass within the floor, 1e-15 ||X||^2, ends the run
        floor = 1e-15 * float(np.sum(X.astype(np.float64) ** 2))
        assert report.objective_trace[-1] <= floor
        assert np.all(report.objective_trace[:-1] > floor)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
    def test_full_rank_has_no_next_eigenvalue(self, shape):
        # rank = min(N_p, N_k): lambda_{r+1} does not exist and f_svd is 0
        rng = np.random.default_rng(5)
        opts = NmfOptions(rank=min(shape), seed=0)
        _, _, report = nmf_factorize(sino_from(rng.uniform(0.0, 1.0, shape)), opts)
        assert report.gap == 0.0
        assert ((report.converged and report.residual_energy <= 1e-14)
                or report.iterations_run == opts.max_iters)


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
    trace = []
    for _ in range(sweeps):
        hals_inner(V, X @ D, D.T @ D, cap_v)
        hals_inner(D, X.T @ V, V.T @ V, cap_d)
        cross = float(np.sum((X @ D) * V))
        trace.append(max(X2 - 2.0 * cross + float(np.sum((V.T @ V) * (D.T @ D))), 0.0))
    return np.array(trace)


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
        trace, converged = _accelerated_hals(X, float(np.sum(X * X)), V, D, opts, 0.0)
        ref_trace = three_pass_sweeps(X, V_ref, D_ref, self.SWEEPS)
        assert not converged and len(trace) == self.SWEEPS
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-10, atol=0)
        assert np.linalg.norm(V - V_ref) <= 1e-10 * np.linalg.norm(V_ref)
        assert np.linalg.norm(D - D_ref) <= 1e-10 * np.linalg.norm(D_ref)
        # the public entry point runs the same passes from the same init on
        # the rows it fits: all of them up to 8 N_k = 128, a sample above
        rows, _ = _fit_rows(X, opts.rank, opts.seed)
        S = X[rows]
        fit_trace = three_pass_sweeps(S, *_init_factors(S, opts.rank, opts.seed), self.SWEEPS)
        _, _, report = nmf_factorize(sino_from(X), opts)
        assert report.fit_rows == rows.size == min(n_p, 8 * self.N_K)
        np.testing.assert_allclose(report.objective_trace, fit_trace, rtol=1e-10, atol=0)

    def test_collapsed_column_stays_zero_and_takes_direct_objective(self):
        # basis column 1 lives only on bins where X is zero, so X d_1 = 0 and
        # the first V update clamps coefficient column 1 to zero in every
        # row; basis column 1 then has nothing to fit and collapses.  No
        # pass re-seeds it, and every pass takes its objective from X^T V
        rng = np.random.default_rng(8)
        X = rng.uniform(0.0, 1.0, (300, self.N_K))
        X[:, 12:] = 0.0
        opts = NmfOptions(rank=3, seed=2, max_iters=5, rel_tol=1e-15)
        V, D = _init_factors(X, opts.rank, opts.seed)
        D[:12, 1] = 0.0
        X2 = float(np.sum(X * X))
        V_all, D_all = V.copy(), D.copy()
        trace, _ = _accelerated_hals(X, X2, V_all, D_all, opts, 0.0)
        one_pass = NmfOptions(rank=3, seed=2, max_iters=1)
        for f in trace:
            (f_pass,), _ = _accelerated_hals(X, X2, V, D, one_pass, 0.0)
            assert f_pass == f
            assert np.all(V[:, 1] == 0.0) and np.all(D[:, 1] == 0.0)
            assert f == pytest.approx(direct_objective(X, V, D), rel=1e-10)
        assert len(trace) == opts.max_iters
        assert np.all(np.diff(trace) <= 0.0)

    def test_all_zero_input_trace_is_direct_objective(self):
        X = np.zeros((6, 5))
        V, D = _init_factors(X, 2, 0)
        trace, converged = _accelerated_hals(X, 0.0, V, D, NmfOptions(rank=2, seed=0), 0.0)
        assert converged and np.all(D == 0.0)
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
