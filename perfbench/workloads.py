"""The benchmark's inputs and workloads, written against hsnct's public API.

Inputs come from the benchmark's seed alone: the desk phantom of
``default_benchmark_phantom()``, a noisy ``simulate_scan`` at that seed, and
``normalize``.  Each workload then offers one operation in two forms:
``run`` is what a user calls (``run_fhr``, ``run_dhr`` or ``cli.main``) and
is what ``wall_s`` times; ``run_traced`` calls the same stages one public
function at a time, each inside a span, for the per-layer breakdown.

Every call runs at ``--threads 1`` in this process; the BLAS thread count
is left at the library default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hsnct import cli
from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    VolumeStack,
    load_sinogram,
    load_volume,
    spectral_header,
    write_container,
)
from hsnct.phantom import build_ground_truth, default_benchmark_phantom, simulate_scan
from hsnct.pipeline import PipelineConfig, run_dhr, run_fhr, snr_db
from hsnct.preprocess import normalize
from hsnct.subspace import NmfOptions, expand, nmf_factorize
from hsnct.tomo import (
    MbirOptions,
    mbir_reconstruct,
    project_volume,
    reconstruct_stack,
    slice_geometry_for,
)

RANK = 4
BETA = 2.0
NMF_SEED = 0  # the CLI's default --seed
THREADS = 1
PROBE_ROW = 8  # the one detector row that crosses all three materials
PROBE_BINS = 8
WARM_SWEEPS = 3
WARM_ITERS = 2


@dataclass(frozen=True)
class Size:
    """Problem size.  ``desk`` is the paper-scale benchmark; ``tiny`` runs
    every workload path and check in seconds, for the benchmark's own tests."""

    name: str
    image_size: int
    num_views: int
    num_bins: int
    nmf_sweeps: int
    mbir_iters: int
    setup_repeats: int


SIZES = {
    "desk": Size("desk", image_size=64, num_views=32, num_bins=256,
                 nmf_sweeps=500, mbir_iters=100, setup_repeats=3),
    "tiny": Size("tiny", image_size=16, num_views=8, num_bins=16,
                 nmf_sweeps=20, mbir_iters=5, setup_repeats=2),
}


def scene(size: Size):
    """(PhantomSpec, SpectralAxis, ScanGeometry) for a size; desk is exactly
    ``default_benchmark_phantom()``, tiny shrinks its grid, views and bins."""
    spec, axis, geom = default_benchmark_phantom()
    if size.name == "desk":
        return spec, axis, geom
    axis = SpectralAxis(np.linspace(axis.tof_edges[0], axis.tof_edges[-1],
                                    size.num_bins + 1), axis.converter)
    geom = ScanGeometry(size.num_views, geom.num_rows, size.image_size,
                        np.linspace(0.0, np.pi, size.num_views, endpoint=False),
                        geom.flight_path)
    return replace(spec, image_size=size.image_size), axis, geom


@dataclass
class Inputs:
    truth: VolumeStack
    p: HyperspectralSinogram


def make_inputs(size: Size, seed: int, tracer) -> Inputs:
    spec, axis, geom = scene(size)
    with tracer.span("phantom.build_ground_truth"):
        truth = build_ground_truth(spec, axis)
    with tracer.span("phantom.simulate_scan"):
        scan = simulate_scan(truth, geom, axis, spec.flux, seed)
    with tracer.span("preprocess.normalize"):
        p = normalize(scan)
    return Inputs(truth, p)


def row_sinogram(p: HyperspectralSinogram, row: int) -> HyperspectralSinogram:
    """One detector row of ``p`` over a one-row ScanGeometry."""
    g = p.geometry
    values = p.values.reshape(g.num_views, g.num_rows, g.num_cols, -1)[:, row]
    one_row = ScanGeometry(g.num_views, 1, g.num_cols, g.view_angles,
                           g.flight_path, g.pixel_pitch)
    return HyperspectralSinogram(values.reshape(-1, p.num_bins), one_row, p.axis)


def row_volume(vol: VolumeStack, row: int) -> VolumeStack:
    n2 = vol.num_cols ** 2
    return VolumeStack(vol.voxels[row * n2:(row + 1) * n2], 1, vol.num_cols,
                       vol.voxel_pitch)


@dataclass
class Output:
    """What one operation produced.  ``volume`` is None when the result only
    exists as the container at ``path`` (the CLI workload)."""

    volume: VolumeStack | None
    epsilon_frac: float | None = None
    exit_code: int = 0
    path: Path | None = None


class Workload:
    name = ""
    through_cli = False  # the untraced operation is cli.main

    def __init__(self, size: Size, inputs: Inputs, workdir: Path):
        self.truth = inputs.truth
        self.scan_geometry = inputs.p.geometry
        self.p = inputs.p
        self.reference = inputs.truth
        self.workdir = workdir
        self.mbir = MbirOptions(regularization_weight=BETA, max_iters=size.mbir_iters)

    def prepare(self, tracer) -> None:
        """Workload-specific set-up once the inputs exist."""

    def warm_up(self) -> None:
        """Run the operation's code once on a small input, so the first timed
        operation finds BLAS threads started and lazy caches filled."""
        raise NotImplementedError

    def run(self) -> Output:
        raise NotImplementedError

    def run_traced(self, tracer) -> tuple[Output, dict]:
        """The operation stage by stage, plus the counts it reports."""
        raise NotImplementedError

    def probe_sinograms(self) -> list[np.ndarray]:
        """Single-slice sinograms whose MBIR convergence the trace reports."""
        return []

    def recon_channel_slices(self) -> int:
        """Channels x slices that one reconstruct_stack call solves."""
        return 0

    def check(self, out: Output) -> tuple[list[str], float | None, str | None]:
        """(failures, snr_db, sha256 of the output voxels)."""
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}"], None, None
        vol = out.volume if out.volume is not None else load_volume(out.path)[0]
        ref = self.reference
        if (vol.voxels.shape, vol.num_rows, vol.num_cols) != (
                ref.voxels.shape, ref.num_rows, ref.num_cols):
            return [f"volume shape {vol.voxels.shape} over {vol.num_rows} slices, "
                    f"expected {ref.voxels.shape} over {ref.num_rows}"], None, None
        failures = []
        if not np.all(np.isfinite(vol.voxels)):
            failures.append("volume has non-finite voxels")
        snr = snr_db(vol, ref)
        if not np.isfinite(snr):
            failures.append(f"snr_db is {snr}")
        if out.epsilon_frac is not None and not 0.0 <= out.epsilon_frac < 1.0:
            failures.append(f"epsilon_frac {out.epsilon_frac} outside [0, 1)")
        digest = hashlib.sha256(np.ascontiguousarray(vol.voxels).tobytes()).hexdigest()
        return failures, snr, digest


class DeskFhr(Workload):
    """run_fhr on the full desk sinogram: NMF rank 4, MBIR on 4 channels, expand."""

    name = "desk-fhr"

    def __init__(self, size, inputs, workdir):
        super().__init__(size, inputs, workdir)
        self.cfg = PipelineConfig(
            subspace=NmfOptions(rank=RANK, seed=NMF_SEED, max_iters=size.nmf_sweeps),
            recon_engine="mbir", recon=self.mbir, threads=THREADS)
        self.coeffs = None

    def warm_up(self):
        run_fhr(row_sinogram(self.p, PROBE_ROW),
                replace(self.cfg,
                        subspace=replace(self.cfg.subspace, max_iters=WARM_SWEEPS),
                        recon=replace(self.mbir, max_iters=WARM_ITERS)))

    def run(self):
        x_h, _, report = run_fhr(self.p, self.cfg)
        return Output(x_h, epsilon_frac=report.epsilon_frac)

    def run_traced(self, tracer):
        with tracer.span("subspace.nmf_factorize"):
            coeffs, basis, fact = nmf_factorize(self.p, self.cfg.subspace)
        with tracer.span("tomo.reconstruct_stack"):
            x_s = reconstruct_stack(coeffs, self.p.geometry, "mbir", self.mbir,
                                    threads=THREADS)
        with tracer.span("subspace.expand"):
            x_h = expand(x_s, basis)
        self.coeffs = coeffs
        counts = {"subspace.nmf.sweeps": fact.iterations_run,
                  "subspace.nmf.converged": int(fact.converged),
                  "subspace.nmf.residual_frac": float(fact.residual_energy)}
        return Output(x_h, epsilon_frac=float(fact.residual_energy)), counts

    def probe_sinograms(self):
        g = self.p.geometry
        v = self.coeffs.coeffs.reshape(g.num_views, g.num_rows, g.num_cols, -1)
        return [v[:, PROBE_ROW, :, c] for c in range(v.shape[3])]

    def recon_channel_slices(self):
        return RANK * self.p.geometry.num_rows


class Slice8Dhr(Workload):
    """run_dhr on detector row 8 alone: MBIR on every one of the N_k bins."""

    name = "slice8-dhr"

    def __init__(self, size, inputs, workdir):
        super().__init__(size, inputs, workdir)
        self.p = row_sinogram(inputs.p, PROBE_ROW)
        self.reference = row_volume(inputs.truth, PROBE_ROW)
        # PipelineConfig requires NMF options even on the direct route
        self.cfg = PipelineConfig(subspace=NmfOptions(rank=1, seed=NMF_SEED),
                                  recon_engine="mbir", recon=self.mbir, threads=THREADS)

    def warm_up(self):
        run_dhr(self.p, replace(self.cfg, recon=replace(self.mbir, max_iters=WARM_ITERS)))

    def run(self):
        x, _ = run_dhr(self.p, self.cfg)
        return Output(x)

    def run_traced(self, tracer):
        with tracer.span("tomo.reconstruct_stack"):
            x = reconstruct_stack(self.p, self.p.geometry, "mbir", self.mbir,
                                  threads=THREADS)
        return Output(x), {}

    def probe_sinograms(self):
        g = self.p.geometry
        y = self.p.values.reshape(g.num_views, g.num_cols, -1)
        bins = np.linspace(0, self.p.num_bins - 1, PROBE_BINS).round().astype(int)
        return [y[:, :, k] for k in bins]

    def recon_channel_slices(self):
        return self.p.num_bins


class DeskDhrFbp(Workload):
    """``hsnct dhr --engine fbp`` in process: read the sinogram container,
    FBP every bin of every slice, write the volume and the report."""

    name = "desk-dhr-fbp"
    through_cli = True

    def prepare(self, tracer):
        self.sino_path = self.workdir / "p.hsnct"
        self.warm_path = self.workdir / "p_row.hsnct"
        self.vol_path = self.workdir / "x.hsnct"
        self.report_path = self.workdir / "report.json"
        with tracer.span("containers.write_container"):
            write_container(self.sino_path, self.p)
        write_container(self.warm_path, row_sinogram(self.p, PROBE_ROW))

    def _cli(self, sino_path: Path) -> int:
        return cli.main(["dhr", "--in", str(sino_path), "--engine", "fbp",
                         "--out", str(self.vol_path), "--report", str(self.report_path),
                         "--threads", str(THREADS)])

    def warm_up(self):
        if self._cli(self.warm_path) != 0:
            raise RuntimeError("hsnct dhr failed on the warm-up container")
        self.vol_path.unlink()

    def check(self, out):
        # every operation starts without an output file, so a stale volume
        # can never pass for a fresh one
        try:
            return super().check(out)
        finally:
            self.vol_path.unlink(missing_ok=True)

    def run(self):
        return Output(None, exit_code=self._cli(self.sino_path), path=self.vol_path)

    def run_traced(self, tracer):
        with tracer.span("containers.load_sinogram"):
            sino = load_sinogram(self.sino_path)
        with tracer.span("tomo.reconstruct_stack"):
            vol = reconstruct_stack(sino, sino.geometry, "fbp", threads=THREADS)
        with tracer.span("containers.write_container"):
            write_container(self.vol_path, vol,
                            extra_header={"spectral": spectral_header(sino.axis)})
        counts = {"containers.bytes_read": self.sino_path.stat().st_size,
                  "containers.bytes_written": self.vol_path.stat().st_size}
        return Output(vol), counts


WORKLOADS = {w.name: w for w in (DeskFhr, Slice8Dhr, DeskDhrFbp)}


def run_probes(wl: Workload, tracer) -> dict:
    """Forward projector at 4 channels and at every bin, on the desk truth,
    and single-slice MBIR with solver info on the workload's probe channels."""
    geom = wl.scan_geometry
    with tracer.span("tomo.project_volume.c4"):
        project_volume(VolumeStack(wl.truth.voxels[:, :RANK], wl.truth.num_rows,
                                   wl.truth.num_cols), geom)
    with tracer.span("tomo.project_volume.c256"):
        project_volume(wl.truth, geom)
    infos = []
    sg = slice_geometry_for(geom)
    for sino in wl.probe_sinograms():
        with tracer.span("tomo.mbir_reconstruct"):
            _, info = mbir_reconstruct(sino, sg, wl.mbir, return_info=True)
        infos.append(info)
    if not infos:
        return {"tomo.mbir.iterations_mean": 0.0, "tomo.mbir.converged_frac": 0.0}
    return {"tomo.mbir.iterations_mean": float(np.mean([i["iterations"] for i in infos])),
            "tomo.mbir.converged_frac": float(np.mean([i["converged"] for i in infos]))}
