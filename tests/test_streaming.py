"""Set-up, expansion, scoring and reconstruction work in bounded blocks
(one slice, view, row or column block at a time).  Each streamed function
must give the bytes of the whole-array formula it replaced, written out
here as the reference, and must not hold whole-array float64 copies:
tracemalloc measures what a call adds on inputs of at least 8 MiB."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hsnct import containers, phantom, tomo
from hsnct.containers import (
    HyperspectralSinogram,
    RawScan,
    ScanGeometry,
    SpectralAxis,
    SpectralBasis,
    ToFConverter,
    VolumeStack,
    write_container,
)
from hsnct.phantom import (
    EdgeFeature,
    MaterialSpectrum,
    PhantomSpec,
    ShapeSpec,
    _chunk_rng,
    build_ground_truth,
    simulate_scan,
)
from hsnct.pipeline import snr_db
from hsnct.preprocess import NormalizationOptions, normalize
from hsnct.subspace import expand
from hsnct.tomo import project_volume, slice_geometry_for

ANG = 1e-10
MIB = 1 << 20


def axis_for(n_k):
    return SpectralAxis(np.linspace(2.5e-3, 1.31e-2, n_k + 1),
                        ToFConverter(flight_path=10.0))


def geometry(n_v, n_r, n_c):
    return ScanGeometry(n_v, n_r, n_c, np.linspace(0, np.pi, n_v, endpoint=False),
                        flight_path=10.0)


def small_phantom():
    """3 slices of 40x40 (4,800 voxels: more than one expand/snr_db row
    block, and a partial last one), 12 views, 24 bins, overlapping shapes
    and uncovered voxels."""
    mats = (
        MaterialSpectrum("m0", 0.01, (EdgeFeature(2.0 * ANG, 0.002, 0.01, 0.08 * ANG),)),
        MaterialSpectrum("m1", 0.008, (EdgeFeature(3.0 * ANG, 0.012, 0.004, 0.05 * ANG),)),
    )
    shapes = (
        ShapeSpec("ellipse", (0.5, 0.5), (0.35, 0.35), 0),
        ShapeSpec("rectangle", (0.45, 0.4), (0.12, 0.1), 1, slices=(1, 3)),
    )
    spec = PhantomSpec(40, 3, shapes, mats, 200.0, 7)
    return spec, axis_for(24), geometry(12, 3, 40)


# --- the whole-array formulas the streamed code replaced ---------------------

def reference_ground_truth(spec, axis):
    table = np.stack([m.attenuation(axis.wavelength_centers) for m in spec.materials])
    n = spec.image_size
    labels = np.full((spec.num_slices, n, n), -1, dtype=np.int64)
    for shape in spec.shapes:
        m = shape.mask(n)
        for z in range(spec.num_slices):
            if shape.slices is None or shape.slices[0] <= z < shape.slices[1]:
                labels[z][m] = shape.material
    flat = labels.reshape(-1)
    voxels = np.zeros((flat.size, axis.num_bins), dtype=np.float32)
    covered = flat >= 0
    voxels[covered] = table[flat[covered]].astype(np.float32)
    return voxels


def reference_project_volume(volume, geom):
    # one float32 product of the whole volume with the block-diagonal A (one
    # CSC block per slice), cast to float64
    n_v, n_r, n_c = geom.num_views, geom.num_rows, geom.num_cols
    A = tomo._operators(slice_geometry_for(geom)).T
    ell = (sp.block_diag([A] * n_r, format="csc") @ volume.voxels).astype(np.float64)
    return ell.reshape(n_r, n_v, n_c, -1).transpose(1, 0, 2, 3).reshape(n_v * n_r * n_c, -1)


def reference_scan(truth, geom, axis, flux, seed, noise):
    n_v, n_r, n_c, n_k = geom.num_views, geom.num_rows, geom.num_cols, axis.num_bins
    ell = reference_project_volume(truth, geom).reshape(n_v, n_r, n_c, n_k)
    expected = flux * np.exp(-ell)
    if not noise:
        return expected.astype(np.float32), np.full((n_r, n_c, n_k), flux).astype(np.float32)
    counts = np.empty((n_v, n_r, n_c, n_k))
    for v in range(n_v):
        for r in range(n_r):
            counts[v, r] = _chunk_rng(seed, 0, v, r).poisson(expected[v, r])
    open_beam = np.empty((n_r, n_c, n_k))
    for r in range(n_r):
        open_beam[r] = _chunk_rng(seed, 1, r).poisson(flux, size=(n_c, n_k))
    return counts.astype(np.float32), open_beam.astype(np.float32)


def reference_normalize(scan, opts):
    eps = np.float64(0.5)  # normalize's fixed count floor
    y = np.maximum(scan.counts.astype(np.float64), eps)
    y0 = np.maximum(scan.open_beam.astype(np.float64), eps)
    p = -np.log(y / y0[None, :, :, :])
    if opts.clamp_negative:
        np.maximum(p, 0.0, out=p)
    return p.reshape(-1, scan.axis.num_bins).astype(np.float32)


def reference_snr_db(recon, reference):
    ref = reference.voxels.astype(np.float64)
    err = recon.voxels.astype(np.float64) - ref
    return 10.0 * np.log10(np.sum(ref * ref) / np.sum(err * err))


@pytest.fixture(scope="module")
def small():
    spec, axis, geom = small_phantom()
    return spec, axis, geom, build_ground_truth(spec, axis)


# --- byte equality -------------------------------------------------------------

class TestStreamedBytesMatchWholeArrayFormulas:
    def test_build_ground_truth(self, small):
        spec, axis, _, truth = small
        assert truth.voxels.tobytes() == reference_ground_truth(spec, axis).tobytes()

    def test_project_volume(self, small):
        _, _, geom, truth = small
        assert (project_volume(truth, geom).tobytes()
                == reference_project_volume(truth, geom).tobytes())

    @pytest.mark.parametrize("noise", [True, False])
    def test_simulate_scan(self, small, noise):
        spec, axis, geom, truth = small
        scan = simulate_scan(truth, geom, axis, spec.flux, 5, noise=noise)
        counts, open_beam = reference_scan(truth, geom, axis, spec.flux, 5, noise)
        assert scan.counts.tobytes() == counts.tobytes()
        assert scan.open_beam.tobytes() == open_beam.tobytes()

    @pytest.mark.parametrize("clamp", [True, False])
    def test_normalize(self, small, clamp):
        spec, axis, geom, truth = small
        scan = simulate_scan(truth, geom, axis, spec.flux, 5)
        opts = NormalizationOptions(clamp_negative=clamp)
        ref = reference_normalize(scan, opts)
        assert not clamp or ref.min() == 0.0  # noise crossed the open beam somewhere
        assert normalize(scan, opts).values.tobytes() == ref.tobytes()

    def test_expand(self, small):
        _, axis, _, truth = small
        rng = np.random.default_rng(3)
        x_s = VolumeStack(rng.random((truth.voxels.shape[0], 3), dtype=np.float32),
                          truth.num_rows, truth.num_cols)
        d = SpectralBasis(rng.random((axis.num_bins, 3)), axis)
        got = expand(x_s, d).voxels
        assert got.tobytes() == (x_s.voxels @ d.basis.T).tobytes()
        # float32 rounding of the 3-term sums, against the float64 product
        x, b = x_s.voxels.astype(np.float64), d.basis.astype(np.float64)
        bound = 3 * np.finfo(np.float32).eps * (np.abs(x) @ np.abs(b).T)
        assert np.all(np.abs(got - x @ b.T) <= bound)

    def test_snr_db(self, small):
        _, _, _, truth = small
        rng = np.random.default_rng(4)
        noisy = truth.voxels + rng.normal(0, 1e-3, truth.voxels.shape).astype(np.float32)
        recon = VolumeStack(noisy, truth.num_rows, truth.num_cols)
        assert snr_db(recon, truth) == pytest.approx(reference_snr_db(recon, truth),
                                                     rel=1e-12, abs=0)


# --- bounded memory ------------------------------------------------------------

def added_bytes(fn, *args, **kw):
    """(fn's result, the peak bytes traced during the call beyond those live
    when it started, the result included)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def random_volume(rng, n_r, n_c, channels, scale=1.0):
    vox = rng.random((n_r * n_c * n_c, channels), dtype=np.float32) * np.float32(scale)
    return VolumeStack(vox, n_r, n_c)


class TestMemoryIsBounded:
    """At most 2x the output's bytes for set-up, expansion and
    reconstruction; under 1 MiB to wrap or write a container; a fixed
    bound, whatever the volume size, for scoring."""

    def test_simulate_scan(self):
        axis, geom = axis_for(128), geometry(32, 16, 32)
        truth = random_volume(np.random.default_rng(0), 16, 32, 128, scale=0.02)
        assert truth.voxels.nbytes >= 8 * MIB
        # the cached system matrix is built once per geometry, not per call
        project_volume(VolumeStack(truth.voxels[:, :1], 16, 32), geom)
        scan, added = added_bytes(simulate_scan, truth, geom, axis, 200.0, 1)
        assert added <= 2 * (scan.counts.nbytes + scan.open_beam.nbytes)

    def test_simulate_scan_on_16_workers(self, monkeypatch):
        # the draw tasks hold (view, row) chunks, never a slice's line
        # integrals, so the bound holds whatever the worker count
        monkeypatch.setattr(phantom, "_usable_cpus", lambda: 16)
        monkeypatch.setattr(phantom, "_DRAWS_PER_WORKER", 1)
        axis, geom = axis_for(128), geometry(32, 16, 32)
        truth = random_volume(np.random.default_rng(0), 16, 32, 128, scale=0.02)
        project_volume(VolumeStack(truth.voxels[:, :1], 16, 32), geom)
        scan, added = added_bytes(simulate_scan, truth, geom, axis, 200.0, 1)
        assert added <= 2 * (scan.counts.nbytes + scan.open_beam.nbytes)

    def test_normalize(self):
        axis, geom = axis_for(128), geometry(32, 16, 32)
        rng = np.random.default_rng(1)
        counts = rng.poisson(150.0, (32, 16, 32, 128)).astype(np.float32)
        open_beam = rng.poisson(200.0, (16, 32, 128)).astype(np.float32)
        scan = RawScan(counts, open_beam, geom, axis)
        assert scan.counts.nbytes >= 8 * MIB
        p, added = added_bytes(normalize, scan)
        assert added <= 2 * p.values.nbytes

    def test_expand(self):
        rng = np.random.default_rng(2)
        x_s = random_volume(rng, 16, 128, 8)
        assert x_s.voxels.nbytes >= 8 * MIB
        d = SpectralBasis(rng.random((16, 8)), axis_for(16))
        x_h, added = added_bytes(expand, x_s, d)
        assert added <= 2 * x_h.voxels.nbytes

    def test_reconstruct_stack(self):
        # blocks go straight from the sinogram layout into the float32
        # volume: no whole-stack float64 copy of the input or the images
        geom = geometry(16, 16, 64)
        rng = np.random.default_rng(5)
        p = HyperspectralSinogram(rng.random((16 * 16 * 64, 64), dtype=np.float32),
                                  geom, axis_for(64))
        tomo._operators(slice_geometry_for(geom))
        vol, added = added_bytes(tomo.reconstruct_stack, p, geom, "fbp")
        assert vol.voxels.nbytes >= 8 * MIB
        assert added <= 2 * vol.voxels.nbytes

    def test_container_wraps_without_a_mask(self):
        vox = np.random.default_rng(6).random((16 * 64 * 64, 32), dtype=np.float32)
        assert vox.nbytes >= 8 * MIB
        _, added = added_bytes(VolumeStack, vox, 16, 64)
        assert added < MIB

    def test_raw_scan_write(self, tmp_path):
        axis, geom = axis_for(128), geometry(32, 16, 32)
        rng = np.random.default_rng(7)
        counts = rng.random((32, 16, 32, 128), dtype=np.float32)
        scan = RawScan(counts, rng.random((16, 32, 128), dtype=np.float32), geom, axis)
        assert counts.nbytes >= 8 * MIB
        path = tmp_path / "scan.hsnct"
        _, added = added_bytes(write_container, path, scan)
        assert added < MIB
        # the bytes of a file whose payload is the concatenated array
        payload = np.concatenate([scan.counts, scan.open_beam[None]])
        raw = path.read_bytes()
        header = json.loads(raw[12:12 + int.from_bytes(raw[8:12], "little")])
        assert header["shape"] == list(payload.shape)
        assert raw.endswith(payload.tobytes())

    def test_snr_db_adds_a_fixed_bound(self):
        channels = 16
        # a block's two float64 temporaries and the next block's first one,
        # and a quarter block for slack
        bound = 3.25 * containers._BLOCK_ROWS * channels * 8
        rng = np.random.default_rng(3)
        for n_r in (8, 16):
            a, b = (random_volume(rng, n_r, 128, channels) for _ in range(2))
            assert a.voxels.nbytes >= 8 * MIB
            _, added = added_bytes(snr_db, a, b)
            assert added <= bound, (n_r, added)
