"""Tests for the periodic grid, spectral calculus, norms, and snapshot I/O."""

import concurrent.futures.thread
import itertools
import math
import multiprocessing
import os
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

from nordlimit import fields
from nordlimit.fields import Grid3, read_snapshot, write_snapshot

L = 2.0 * math.pi


@pytest.fixture(scope="module")
def grid():
    return Grid3(32, L)


def band_limited_field(grid, rng, kmax=5):
    """Random real field with modes only up to kmax per axis."""
    x, y, z = grid.meshgrid()
    f = np.zeros_like(x)
    for _ in range(12):
        k = rng.integers(-kmax, kmax + 1, size=3)
        amp, phase = rng.normal(), rng.uniform(0, 2 * np.pi)
        f += amp * np.cos(2 * np.pi * (k[0] * x + k[1] * y + k[2] * z) / grid.length
                          + phase)
    return f


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3(12, L)
    with pytest.raises(ValueError):
        Grid3(8, L)
    with pytest.raises(ValueError):
        Grid3(32, -1.0)
    with pytest.raises(ValueError, match="finite"):
        Grid3(16, math.inf)


def test_derivative_of_constant_is_zero(grid):
    f = np.full((32, 32, 32), 3.7)
    assert np.max(np.abs(grid.derivative(f, 0))) <= 1e-13


def test_derivative_single_mode(grid):
    x, _, _ = grid.meshgrid()
    err = np.max(np.abs(grid.derivative(np.sin(x), 0) - np.cos(x)))
    assert err <= 1e-12


def test_derivative_matches_high_order_finite_differences():
    # 8th-order centered stencil oracle; the gap must shrink like h^8
    w = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5, 4 / 105,
                  -1 / 280])
    errs = []
    for n in (32, 64):
        g = Grid3(n, L)
        rng = np.random.default_rng(11)  # same continuum field on both grids
        f = band_limited_field(g, rng, kmax=3)
        fd = sum(c * np.roll(f, -s, axis=0) for c, s in zip(w, range(-4, 5))) / g.h
        errs.append(np.max(np.abs(g.derivative(f, 0) - fd)))
    order = math.log2(errs[0] / errs[1])
    assert 7.0 <= order <= 9.0


def test_helmholtz_eigenfunction(grid):
    x, _, _ = grid.meshgrid()
    phi = grid.helmholtz_solve(np.sin(x), 1.0)
    assert np.max(np.abs(phi + np.sin(x) / 2.0)) <= 1e-12


def test_helmholtz_constant_source(grid):
    phi = grid.helmholtz_solve(np.full((32, 32, 32), 2.5), 1.0)
    assert np.max(np.abs(phi + 2.5)) <= 1e-12


def test_helmholtz_forward_residual(grid):
    rng = np.random.default_rng(5)
    src = band_limited_field(grid, rng)
    kappa = 0.7
    phi = grid.helmholtz_solve(src, kappa)
    res = grid.laplacian(phi) - kappa**2 * phi - src
    assert grid.l2_norm(res) / grid.l2_norm(src) <= 1e-12


def test_helmholtz_requires_positive_kappa(grid):
    with pytest.raises(ValueError):
        grid.helmholtz_solve(np.zeros((32, 32, 32)), 0.0)


def test_sobolev_norm_zero_for_background(grid):
    f = np.full((32, 32, 32), 1.23)
    assert grid.sobolev_norm(f, 3, background=1.23) <= 1e-13


def test_sobolev_norm_closed_form(grid):
    x, _, _ = grid.meshgrid()
    val = grid.sobolev_norm(4.0 + np.sin(x), 1, background=4.0)
    assert val == pytest.approx((2 * math.pi) ** 1.5, rel=1e-12)


def test_sobolev_norm_direct_quadrature_oracle(grid):
    rng = np.random.default_rng(17)
    f = band_limited_field(grid, rng, kmax=4)
    order = 2
    total = 0.0
    for alpha in itertools.product(range(order + 1), repeat=3):
        if sum(alpha) > order or sum(alpha) == 0:
            continue
        g = f
        for axis, count in enumerate(alpha):
            for _ in range(count):
                g = grid.derivative(g, axis)
        total += np.sum(g**2) * grid.h**3
    total += np.sum(f**2) * grid.h**3
    assert grid.sobolev_norm(f, order) == pytest.approx(math.sqrt(total), rel=1e-11)


def test_sobolev_norm_monotone_in_order(grid):
    rng = np.random.default_rng(23)
    f = band_limited_field(grid, rng)
    vals = [grid.sobolev_norm(f, j) for j in range(4)]
    assert all(a <= b * (1 + 1e-13) for a, b in zip(vals, vals[1:]))


def test_sobolev_norm_multicomponent(grid):
    rng = np.random.default_rng(29)
    f = band_limited_field(grid, rng)
    g = band_limited_field(grid, rng)
    stacked = np.stack([f, g])
    expect = math.sqrt(grid.sobolev_norm(f, 2) ** 2 + grid.sobolev_norm(g, 2) ** 2)
    assert grid.sobolev_norm(stacked, 2) == pytest.approx(expect, rel=1e-12)


def test_parseval_consistency(grid):
    rng = np.random.default_rng(31)
    f = band_limited_field(grid, rng)
    phys = grid.l2_norm(f)
    assert grid.sobolev_norm(f, 0) == pytest.approx(phys, rel=1e-12)


def test_elliptic_estimate_constant(grid):
    # H^2-over-L2 gain of the inverse operator, bounded by max(1, kappa^-2) c0
    c0 = 3.0
    rng = np.random.default_rng(37)
    for kappa in (0.5, 1.0, 2.0):
        worst = 0.0
        for _ in range(20):
            src = band_limited_field(grid, rng)
            phi = grid.helmholtz_solve(src, kappa)
            worst = max(worst, grid.sobolev_norm(phi, 2) / grid.l2_norm(src))
        assert worst <= max(1.0, kappa**-2) * c0


def test_dealias_identity_on_low_modes(grid):
    x, _, _ = grid.meshgrid()
    f = np.sin(3 * x)  # mode 3 < 32/3
    assert np.max(np.abs(grid.dealias(f) - f)) <= 1e-13


def test_dealias_idempotent(grid):
    rng = np.random.default_rng(41)
    f = rng.normal(size=(32, 32, 32))
    once = grid.dealias(f)
    assert np.max(np.abs(grid.dealias(once) - once)) <= 1e-13


def test_dealias_removes_high_modes(grid):
    x, _, _ = grid.meshgrid()
    f = np.sin(14 * x)
    assert np.max(np.abs(grid.dealias(f))) <= 1e-12


def test_mollify_identity_and_constants(grid):
    rng = np.random.default_rng(43)
    f = band_limited_field(grid, rng)
    assert np.array_equal(grid.mollify(f, 0.0), f)
    const = np.full((32, 32, 32), 2.2)
    assert np.max(np.abs(grid.mollify(const, 0.5) - 2.2)) <= 1e-13


def test_mollify_converges_monotonically(grid):
    rng = np.random.default_rng(47)
    f = band_limited_field(grid, rng)
    gaps = [grid.sobolev_norm(grid.mollify(f, eps) - f, 4)
            for eps in (0.2, 0.1, 0.05, 0.025)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * gaps[0]


def test_mollify_contracts_every_norm(grid):
    rng = np.random.default_rng(53)
    f = band_limited_field(grid, rng)
    for j in range(4):
        assert grid.sobolev_norm(grid.mollify(f, 0.3), j) <= grid.sobolev_norm(f, j)


def test_snapshot_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(59)
    data = rng.normal(size=(3, 32, 32, 32))
    path = tmp_path / "state.nrdf"
    write_snapshot(path, grid, 0.125, data)
    g2, t, back = read_snapshot(path)
    assert g2.n == 32 and g2.length == pytest.approx(L)
    assert t == 0.125
    assert np.array_equal(back, data)


def test_snapshot_layout(tmp_path):
    # header fields and x-fastest payload ordering, checked on raw bytes
    grid = Grid3(16, 1.0)
    ix, iy, iz = np.meshgrid(*[np.arange(16)] * 3, indexing="ij")
    f = (ix + 100 * iy + 10000 * iz).astype(float)
    path = tmp_path / "layout.nrdf"
    write_snapshot(path, grid, 2.0, f)
    raw = path.read_bytes()
    magic, version, n, length, t, ncomp = struct.unpack("<4sIIddI", raw[:32])
    assert magic == b"NRDF" and version == 1 and n == 16 and ncomp == 1
    assert length == 1.0 and t == 2.0
    vals = np.frombuffer(raw[32:], dtype="<f8")
    assert vals[0] == 0.0
    assert vals[1] == 1.0          # x varies fastest
    assert vals[16] == 100.0       # then y
    assert vals[16 * 16] == 10000.0  # then z


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.nrdf"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_derivative_and_gradient_match_3d_transform(grid):
    # oracle: the same derivatives taken with full 3D transforms
    rng = np.random.default_rng(67)
    stacked = np.stack([band_limited_field(grid, rng) for _ in range(4)])
    ks = (grid.kx, grid.ky, grid.kz)
    expect = np.stack([[grid.ifft(1j * k * grid.fft(comp)) for k in ks]
                       for comp in stacked])
    for axis in range(3):
        assert np.max(np.abs(grid.derivative(stacked[0], axis)
                             - expect[0, axis])) <= 1e-12
        assert np.max(np.abs(grid.derivative(stacked, axis)
                             - expect[:, axis])) <= 1e-12
    single = grid.gradient(stacked[0])
    assert single.shape == (3, 32, 32, 32)
    assert np.max(np.abs(single - expect[0])) <= 1e-12
    both = grid.gradient(stacked)
    assert both.shape == (4, 3, 32, 32, 32)  # both[j, k] = d_k f[j]
    assert np.max(np.abs(both - expect)) <= 1e-12


def test_derivative_of_nyquist_mode_is_zero(grid):
    xs = grid.meshgrid()
    for axis, x in enumerate(xs):
        nyq = np.cos(grid.n * x / 2)  # (-1)^j along the axis
        assert np.max(np.abs(nyq)) == pytest.approx(1.0)
        for a in range(3):
            assert np.max(np.abs(grid.derivative(nyq, a))) <= 1e-12
        # also when the Nyquist mode rides on a smooth mode of another axis
        mixed = nyq * np.cos(xs[(axis + 1) % 3])
        assert np.max(np.abs(grid.derivative(mixed, axis))) <= 1e-12


@pytest.mark.parametrize("n, length", [(16, 1.0), (32, L), (64, 3.0)])
def test_diff_matrix_is_the_closed_form(n, length):
    # periodic differentiation matrix of the band-limited interpolant
    # (Trefethen, Spectral Methods in MATLAB, ch. 3): entry (i, j) is
    # (2 pi / L) (-1)**(i - j) cot(pi (i - j) / n) / 2, 0 on the diagonal
    d = Grid3(n, length).diff_matrix
    i, j = np.indices((n, n))
    off = i != j
    want = np.zeros((n, n))
    want[off] = (np.pi / length * (-1.0) ** (i - j)[off]
                 / np.tan(np.pi * (i - j)[off] / n))
    assert np.max(np.abs(d - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n, kept", [(16, 11), (32, 21), (64, 43)])
def test_dealias_matrix_is_the_projector_on_kept_modes(n, kept):
    # symmetric, idempotent, of rank the number of modes |k| < n/3 per axis
    grid = Grid3(n, L)
    p = grid.dealias_matrix
    assert np.max(np.abs(p - p.T)) <= 1e-13
    assert np.max(np.abs(p @ p - p)) <= 1e-13
    assert np.linalg.matrix_rank(p) == kept
    assert np.count_nonzero(grid.dealias_mask[:, 0, 0]) == kept


def test_dealias_matches_the_3d_mask(grid):
    # oracle: the 2/3-rule mask applied to full 3D transforms
    rng = np.random.default_rng(71)
    stacked = rng.normal(size=(3, 32, 32, 32))
    want = np.fft.irfftn(np.fft.rfftn(stacked, axes=(-3, -2, -1))
                         * grid.dealias_mask, s=(32,) * 3, axes=(-3, -2, -1))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(grid.dealias(stacked) - want)) <= 1e-13 * scale
    assert np.max(np.abs(grid.dealias(stacked[1]) - want[1])) <= 1e-13 * scale


def serial_transforms(grid, single, stacked, order, background):
    """The results of every per-component method, written out with numpy:
    (gradient of single, gradient of stacked, dealias of stacked, fft of
    single, ifft of that, fft of stacked, ifft of that, sobolev_norm of
    stacked)."""
    n, axes = grid.n, (-3, -2, -1)

    def along(mat, f, axis):
        # the matrix products of mat along one axis of every component
        if axis == 2:
            return f @ mat.T
        if axis == 1:
            return mat @ f
        flat = f.shape[:-3] + (n, n * n)
        return (mat @ f.reshape(flat)).reshape(f.shape)

    def gradient(f):
        return np.stack([along(grid.diff_matrix, f, a) for a in range(3)],
                        axis=-4)

    spec1 = np.fft.rfftn(single)
    spec = np.fft.rfftn(stacked, axes=axes)
    dealiased = stacked
    for a in range(3):
        dealiased = along(grid.dealias_matrix, dealiased, a)
    weight = sum(grid.kx ** (2 * a) * grid.ky ** (2 * b) * grid.kz ** (2 * c)
                 for a, b, c in itertools.product(range(order + 1), repeat=3)
                 if a + b + c <= order)
    mult = np.full(n // 2 + 1, 2.0)
    mult[[0, -1]] = 1.0
    total = 0.0
    for comp, bg in zip(stacked, background):
        ch = np.fft.rfftn(comp - bg)
        total += np.sum((ch.real**2 + ch.imag**2) * weight * mult)
    norm = float(np.sqrt(total * grid.length**3 / n**6))
    return (gradient(single), gradient(stacked), dealiased,
            spec1, np.fft.irfftn(spec1, s=(n, n, n), axes=axes),
            spec, np.fft.irfftn(spec, s=(n, n, n), axes=axes), norm)


def fanned_transforms(grid, single, stacked, order, background):
    spec1, spec = grid.fft(single), grid.fft(stacked)
    return (grid.gradient(single), grid.gradient(stacked), grid.dealias(stacked),
            spec1, grid.ifft(spec1), spec, grid.ifft(spec),
            grid.sobolev_norm(stacked, order, background=background))


@pytest.fixture(scope="module")
def fields64():
    rng = np.random.default_rng(83)
    return rng.normal(size=(64, 64, 64)), rng.normal(size=(5, 64, 64, 64))


def assert_bit_identical(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n, threads", [(64, 2), (32, 1)],
                         ids=["64-two-threads", "32-one-thread"])
def test_fanned_out_transforms_are_bit_identical(monkeypatch, fields64, n, threads):
    # on two CPUs every method fans out at 64**3 and runs on the calling
    # thread alone at 32**3; each result must equal numpy's bit for bit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert fields.transform_threads(n) == threads
    step = 64 // n
    single = fields64[0][::step, ::step, ::step]
    stacked = fields64[1][:, ::step, ::step, ::step]
    grid = Grid3(n, L)
    background = [0.1, -0.2, 0.3, 0.0, 1.5]
    want = serial_transforms(grid, single, stacked, 4, background)
    assert_bit_identical(fanned_transforms(grid, single, stacked, 4, background), want)


def test_fan_out_under_thread_contention(monkeypatch, fields64):
    # more threads than cores and a very short switch interval: a task taken
    # twice would show as a changed result
    grid = Grid3(64, L)
    background = [0.0] * 5
    want = serial_transforms(grid, *fields64, 4, background)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_bit_identical(
                fanned_transforms(grid, *fields64, 4, background), want)
    finally:
        sys.setswitchinterval(interval)


def test_fan_out_workers_take_the_callers_error_handling(monkeypatch):
    # the pool threads start with numpy's default error handling; an
    # overflow the caller ignores must not warn in them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    huge = np.full((8, 64, 64, 64), 1e300)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore"):
                assert Grid3(64, L).sobolev_norm(huge, 4) == math.inf
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                Grid3(64, L).sobolev_norm(huge, 4)
    finally:
        fields.stop_transform_threads()


def test_stop_transform_threads_ends_the_pool_threads(monkeypatch, fields64):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = set(threading.enumerate())
    Grid3(64, L).gradient(fields64[0])
    started = set(threading.enumerate()) - before
    assert fields._pool is not None and started
    fields.stop_transform_threads()
    assert fields._pool is None
    assert not any(thread.is_alive() for thread in started)


class NoThreadPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a transform started a thread pool")


def test_no_thread_pool_on_one_cpu_or_below_64_cubed(monkeypatch, fields64):
    monkeypatch.setattr(fields, "_pool", None)
    monkeypatch.setattr(concurrent.futures.thread, "ThreadPoolExecutor",
                        NoThreadPool)
    single, stacked = fields64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert fields.transform_threads(64) == 1
    fanned_transforms(Grid3(64, L), single, stacked[:2], 4, None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert fields.transform_threads(32) == 1
    fanned_transforms(Grid3(32, L), single[::2, ::2, ::2],
                      stacked[:2, ::2, ::2, ::2], 4, None)
    assert fields._pool is None


@pytest.mark.parametrize("n, cpus, planes", [
    (64, 3, [21, 21, 22]), (64, 2, [32, 32]), (64, 1, [64]), (32, 2, [32])])
def test_per_slab_covers_the_x_planes_once(monkeypatch, n, cpus, planes):
    # transform_threads(n) contiguous, near-even x-slabs that cover the grid
    # once; one slab, the whole grid, below 64**3 or on one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    seen = np.zeros((n, n, n), dtype=int)
    slabs = []

    def task(sl):
        slabs.append(sl)
        seen[sl] += 1

    try:
        Grid3(n, L).per_slab(task)
    finally:
        fields.stop_transform_threads()
    assert np.all(seen == 1)
    if len(planes) == 1:
        assert slabs == [slice(None)]
    else:
        slabs.sort(key=lambda sl: sl.start)
        assert [sl.stop - sl.start for sl in slabs] == planes
        assert [sl.start for sl in slabs] == [0] + list(np.cumsum(planes)[:-1])


def _raise_at(item):
    raise ValueError("no data at output %d" % item)


def test_fork_map_raises_a_worker_error_here(monkeypatch):
    # results come back in item order from forked workers; a worker's
    # exception reaches the caller with its type and message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    results = fields.fork_map(lambda i: (i, os.getpid() != parent), range(4))
    assert results == [(0, True), (1, True), (2, True), (3, True)]
    with pytest.raises(ValueError) as info:
        fields.fork_map(lambda i: _raise_at(i) if i == 1 else i, range(3))
    assert str(info.value) == "no data at output 1"
    assert multiprocessing.active_children() == []


def test_fork_map_stops_transform_threads_before_forking(monkeypatch, fields64):
    # at 64**3 the parent's transform threads are live when the map starts;
    # it stops them, so no worker inherits the pool, and each worker
    # starts its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid = Grid3(64, L)
    before = set(threading.enumerate())
    want = grid.gradient(fields64[0])
    started = set(threading.enumerate()) - before
    assert fields._pool is not None and started

    def in_worker(item):
        inherited = fields._pool is not None and fields._pool[0] != os.getpid()
        return inherited, np.array_equal(grid.gradient(fields64[0]), want)

    assert fields.fork_map(in_worker, range(2)) == [(False, True)] * 2
    assert fields._pool is None
    assert not any(thread.is_alive() for thread in started)
    assert multiprocessing.active_children() == []
