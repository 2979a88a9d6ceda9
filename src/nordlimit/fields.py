"""Periodic 3D grid, spectral calculus, and field I/O.

All fields live on the uniform grid of the torus [0, L)^3 with n points per
axis, stored as float64 arrays indexed [ix, iy, iz].  Derivatives, inverse
Helmholtz operators, smoothing, and Sobolev norms are spectral, hence exact
on the band-limited trigonometric interpolant.  Two operators are tensor
products of one real n x n matrix per axis, and apply it along each axis as
a small matrix product (`np.matmul`, so BLAS): a partial derivative is the
Fourier differentiation matrix D along its own axis, and the 2/3-rule
dealias, which keeps nonlinear products alias-free, is the 1D projector P
along all three.  The other spectral operators use full 3D real FFTs.

Each of `fft`, `ifft` (so also `laplacian` and `helmholtz_solve`),
`gradient`, `dealias` and `sobolev_norm` has one implementation at every
grid size: it works through the components (for `gradient`, the
component-axis pairs) one at a time, each into its own slice of the output.
The grid size picks only how many threads share that work: from
FAN_OUT_POINTS points, a call with more than one such task splits them over
the calling thread and a pool of threads (numpy's FFT and matrix product
release the interpreter lock while they compute).  A task runs the same
operations on the same data on any thread, so every result is bit-identical
whatever the thread count.  From the same grid size, `Grid3.per_slab`
shares per-point work over the same threads in x-slabs: a limit-system RK4
stage forms its constraint source, its right-hand side's terms, its stage
update and the running sum of its stages that way (`euler_poisson`).  An
elementwise result does not depend on where the grid is cut, so these too
are bit-identical on any number of CPUs.  BLAS itself runs one thread per
process (see the package docstring): these threads and the forked workers
are the program's parallelism.

`fork_map` maps a function over items in worker processes forked from the
caller, one per usable CPU, while the caller may run other work; the
sweep's rungs (next to its limit run) and the check suite's per-output work
run through it.

Snapshots use a small binary format: header {magic "NRDF", version u32,
n u32, L f64, t f64, ncomp u32}, followed by ncomp * n**3 little-endian
float64 values in x-fastest order.
"""

import itertools
import math
import os
import struct
import sys

import numpy as np

SNAPSHOT_MAGIC = b"NRDF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIddI")

# Grids with fewer points transform on the calling thread alone, and do
# their per-point work in one slab.  At 32**3 gradient plus dealias of 5
# components took 3.0 ms on one thread against 2.0 ms fanned out over two
# (2-core host), but a whole 20-step finite-c run took 1.4-1.7 s on one
# thread against 1.5-2.1 s with every transform fanned out: the hand-offs
# of the other transforms cost what the second thread saves.  From 64**3
# the x-slabs of `Grid3.per_slab` halve a limit stage's per-point work on
# two cores (`newtonian_rhs` 10-12 ms against 21-28 ms).
FAN_OUT_POINTS = 64**3

# (pid, threads, executor) of this process's pool; a forked child sees
# another pid and builds its own
_pool = None


def transform_threads(n):
    """Threads that share the per-component transforms of an n**3 grid."""
    if n**3 < FAN_OUT_POINTS:
        return 1
    return len(os.sched_getaffinity(0))


def stop_transform_threads():
    """Shut down this process's transform threads; the next fan-out starts
    new ones.  Call it before forking, so the child is copied from a
    process that runs no other thread."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown()
    _pool = None


# the function of the fork_map in progress: set before its pool forks, so
# that the workers inherit it, with everything it closes over, instead of
# receiving it pickled
_fork_fn = None


def fork_workers(count):
    """Worker processes of a fork_map over count items: one per usable CPU,
    at most one per item (1 means it runs in this process)."""
    return min(count, len(os.sched_getaffinity(0)))


def _fork_call(item):
    return _fork_fn(item)


def fork_map(fn, items, meanwhile=None):
    """[fn(item) for item in items], computed in forked worker processes.

    fn may be any callable, a closure over large arrays included: the
    workers are forked from this process and inherit it, so only each item
    and its result are pickled.  Items are handed out in order, each to the
    next free worker.  meanwhile, if given, is called here with no argument
    once the workers are forked, while they run.  With
    fork_workers(len(items)) == 1 it all runs here, with no pool: meanwhile
    first, then the items.  A worker's exception, or one of meanwhile, is
    raised here with its type and message; the items not yet started are
    cancelled, and the running ones are waited for.  This process's
    transform threads are stopped before the pool forks, and each worker
    starts its own.
    """
    global _fork_fn
    items = list(items)
    workers = fork_workers(len(items))
    if workers <= 1:
        if meanwhile is not None:
            meanwhile()
        return [fn(item) for item in items]
    # imported here: the pool's modules add about 2 MB of resident memory,
    # which a process that never forks need not carry
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    stop_transform_threads()
    _fork_fn = fn
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_fork_call, item) for item in items]
            try:
                if meanwhile is not None:
                    meanwhile()
                return [future.result() for future in futures]
            finally:
                # after an exception, start no other item
                for future in futures:
                    future.cancel()
    finally:
        _fork_fn = None


def _fan_out(width, task, items):
    """Run task(item) for every item on the calling thread and up to
    width - 1 threads of this process's pool; returns when all are done.

    Every per-component transform, and every x-slab of `Grid3.per_slab`,
    runs through here at every grid size: with width 1 all tasks run on the
    calling thread and no pool is built.

    Tasks call numpy and private helpers only, and each allocates its own
    temporaries.  Those of a pool thread land in that thread's malloc
    arena: on the 64**3 `limit` benchmark workload (2-core host) that reads
    a peak resident memory of 219.5 MB against 216.6 MB with per-thread
    buffers kept between calls, and no resolved change of wall time.
    """
    global _pool
    if width == 1:
        for item in items:
            task(item)
        return
    pid = os.getpid()
    if _pool is None or _pool[:2] != (pid, width):
        # imported here: a process that never fans out starts no thread
        from concurrent.futures.thread import ThreadPoolExecutor
        if _pool is not None and _pool[0] == pid:
            _pool[2].shutdown(wait=False)
        _pool = (pid, width, ThreadPoolExecutor(width - 1))
    items = list(items)
    # next() on one list iterator is atomic under the interpreter lock, so
    # every item is taken by exactly one thread
    queue = iter(items)
    handling = np.geterr()  # the workers' floating-point error handling

    def drain():
        with np.errstate(**handling):
            for item in queue:
                task(item)

    futures = [_pool[2].submit(drain)
               for _ in range(min(width, len(items)) - 1)]
    try:
        drain()
    finally:
        # every task is done before an error is raised here.  A pool thread
        # that has not begun by now would find no item left: it is cancelled
        # instead of waited for, so a late wake-up costs the caller nothing
        errors = [None if future.cancel() else future.exception()
                  for future in futures]
    for exc in errors:
        if exc is not None:
            raise exc


def _along(mat, f, axis, out):
    """mat (n, n) applied along axis 0, 1 or 2 of f (..., n, n, n), written
    into out, which must be C-contiguous and must not overlap f."""
    if axis == 2:
        return np.matmul(f, mat.T, out=out)
    if axis == 1:
        return np.matmul(mat, f, out=out)
    n = mat.shape[0]
    flat = f.shape[:-3] + (n, n * n)
    np.matmul(mat, f.reshape(flat), out=out.reshape(flat))
    return out


class Grid3:
    """Uniform periodic grid with cached spectral machinery.

    Wavenumber arrays follow the rfftn layout (real transforms along the
    last axis).  Derivatives and the dealias apply one real n x n matrix
    along an axis: diff_matrix, the Fourier differentiation matrix with the
    odd-derivative Nyquist mode set to zero, and dealias_matrix, the 1D
    projector of the 2/3 rule, whose tensor product over the three axes is
    dealias_mask.  The Sobolev weight tables are built lazily and cached.
    """

    def __init__(self, n, length):
        if n < 16 or (n & (n - 1)):
            raise ValueError("grid size must be a power of two >= 16")
        # sobolev_norm scales by length**3, which must be a finite float
        if not (0 < length < sys.float_info.max ** (1 / 3)):
            raise ValueError("grid length must be positive with a finite cube")
        self.n = int(n)
        self.length = float(length)
        self.h = self.length / self.n
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        kr = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)
        self.kx = k1[:, None, None]
        self.ky = k1[None, :, None]
        self.kz = kr[None, None, :]
        self.k_sq = self.kx**2 + self.ky**2 + self.kz**2
        kmax = np.pi / self.h  # Nyquist
        cut = (2.0 / 3.0) * kmax
        self.dealias_mask = (
            (np.abs(self.kx) < cut) & (np.abs(self.ky) < cut) & (np.abs(self.kz) < cut)
        )
        # column j of each matrix is the operator applied to the unit
        # vector e_j: a real transform pair with the 1D symbol in between
        ik = 1j * kr
        ik[-1] = 0.0  # the odd-derivative Nyquist mode
        unit = np.fft.rfft(np.eye(self.n), axis=0)
        self.diff_matrix = np.fft.irfft(ik[:, None] * unit, self.n, axis=0)
        self.dealias_matrix = np.fft.irfft((kr < cut)[:, None] * unit, self.n,
                                           axis=0)
        self._sobolev_weights = {}

    def axes(self):
        x = np.arange(self.n) * self.h
        return x, x, x

    def meshgrid(self):
        x, y, z = self.axes()
        return np.meshgrid(x, y, z, indexing="ij")

    def _width(self, f, per_component=1):
        """Threads for the transforms of the components of f, per_component
        tasks each; 1 runs them serially."""
        tasks = per_component * math.prod(f.shape[:-3])
        return transform_threads(self.n) if tasks > 1 else 1

    def per_slab(self, task):
        """Run task(slab) over the x-slabs of the grid and return when all
        are done: transform_threads(n) contiguous ranges of x-planes, as
        even as the split allows, one task each.  Below FAN_OUT_POINTS
        points, or on one CPU, the one slab is slice(None), the whole grid.

        This is how a limit stage's per-point work runs: a task works on
        field[..., slab, :, :] alone, with numpy ufuncs and einsums that
        write into the slab of their output.  A slab is whole x-planes, a
        multiple of n**2 >= 4096 points starting a multiple of n**2 points
        into the field, so a vectorised loop meets the same alignment and
        no other tail than on the whole field, and each point's result is
        bit-identical to the whole-grid operation's.
        """
        count = min(transform_threads(self.n), self.n)
        if count == 1:
            task(slice(None))
            return
        cuts = [self.n * i // count for i in range(count + 1)]
        _fan_out(count, task, [slice(a, b) for a, b in zip(cuts, cuts[1:])])

    def fft(self, f):
        # leading axes, if any, are independent components
        f = np.asarray(f)
        out = np.empty(f.shape[:-1] + (self.n // 2 + 1,), dtype=complex)
        _fan_out(self._width(f),
                 lambda comp: np.fft.rfftn(f[comp], out=out[comp]),
                 np.ndindex(f.shape[:-3]))
        return out

    def ifft(self, fh):
        fh = np.asarray(fh)
        out = np.empty(fh.shape[:-1] + (self.n,))
        _fan_out(self._width(fh),
                 lambda comp: np.fft.irfftn(fh[comp], s=out.shape[-3:],
                                            axes=(-3, -2, -1), out=out[comp]),
                 np.ndindex(fh.shape[:-3]))
        return out

    def derivative(self, f, axis):
        """Spectral partial derivative along axis in {0, 1, 2}: diff_matrix
        applied along that axis only.  Leading axes, if any, are independent
        components."""
        f = np.asarray(f)
        return _along(self.diff_matrix, f, axis, np.empty(f.shape))

    def gradient(self, f):
        """All three partials: (n,n,n) -> (3,n,n,n), (m,n,n,n) -> (m,3,n,n,n).

        For stacked components out[j, k] = d_k f[j]: one matrix product per
        (component, axis) pair, written straight into its slice of out; on
        a large grid the pairs are fanned out over threads.  The product
        costs O(n**4) against the O(n**3 log n) of a transform pair, yet on
        a 2-core host one gradient of one field took 0.27 ms at 32**3, 2.8
        ms at 64**3 and 35 ms at 128**3, against 1.1, 6.4 and 75 ms with
        one-axis FFT pairs on the same threads; the crossover is expected
        near n = 256, which was not measured.
        """
        f = np.asarray(f)
        out = np.empty(f.shape[:-3] + (3,) + f.shape[-3:])

        def task(part):
            _along(self.diff_matrix, f[part[:-1]], part[-1], out[part])

        parts = [comp + (a,) for comp in np.ndindex(f.shape[:-3]) for a in range(3)]
        _fan_out(self._width(f, 3), task, parts)
        return out

    def laplacian(self, f):
        return self.ifft(-self.k_sq * self.fft(f))

    def helmholtz_solve(self, src, kappa):
        """Solve (laplacian - kappa**2) phi = src: phi_hat = -src_hat /
        (|k|**2 + kappa**2); kappa > 0 keeps mode 0 regular."""
        if not (kappa > 0):
            raise ValueError("the screened Poisson symbol needs kappa > 0")
        return self.ifft(-self.fft(src) / (self.k_sq + kappa**2))

    def dealias(self, f):
        """Apply the 2/3-rule spectral mask (idempotent): dealias_matrix
        along axes 0, 1 and 2 of each component in turn."""
        f = np.asarray(f)
        out = np.empty(f.shape)
        mat = self.dealias_matrix

        def task(comp):
            work = np.empty(f.shape[-3:])
            _along(mat, f[comp], 0, out[comp])
            _along(mat, out[comp], 1, work)
            _along(mat, work, 2, out[comp])

        _fan_out(self._width(f), task, np.ndindex(f.shape[:-3]))
        return out

    def mollify(self, f, eps):
        """Gaussian spectral smoothing exp(-eps**2 |k|**2 / 2); identity at eps=0."""
        if eps == 0:
            return np.array(f, copy=True)
        return self.ifft(self.fft(f) * np.exp(-0.5 * eps**2 * self.k_sq))

    def integral(self, f):
        return float(np.sum(f)) * self.h**3

    def l2_norm(self, f):
        """L2 norm over the torus; accepts stacked components (..., n, n, n)."""
        return float(np.sqrt(np.sum(np.square(f)) * self.h**3))

    def _weight(self, order):
        w = self._sobolev_weights.get(order)
        if w is None:
            w = np.zeros_like(self.k_sq)
            for a in itertools.product(range(order + 1), repeat=3):
                if sum(a) <= order:
                    w += self.kx ** (2 * a[0]) * self.ky ** (2 * a[1]) * self.kz ** (2 * a[2])
            self._sobolev_weights[order] = w
        return w

    def sobolev_norm(self, f, order, background=None):
        """Discrete H^order norm of f (minus a constant background state).

        f may be a single field (n,n,n) or stacked components (m,n,n,n);
        background, if given, is a scalar or length-m vector subtracted
        before the norm.  The norm sums |d^alpha g|_{L2}^2 over all
        multi-indices with |alpha| <= order, evaluated via Parseval.
        """
        g = np.asarray(f, dtype=float)
        single = g.ndim == 3
        if single:
            g = g[None]
        if background is not None:
            b = np.broadcast_to(np.atleast_1d(np.asarray(background, float)), (g.shape[0],))
            g = g - b[:, None, None, None]
        w = self._weight(order)
        # rfftn stores only half the z-modes; double all columns except the
        # self-conjugate planes kz = 0 and kz = Nyquist
        mult = np.full(self.kz.shape[-1], 2.0)
        mult[0] = 1.0
        mult[-1] = 1.0
        sums = np.empty(len(g))

        def task(i):
            ch = np.fft.rfftn(g[i])
            terms = np.square(ch.real)
            terms += np.square(ch.imag)
            terms *= w
            terms *= mult
            sums[i] = np.sum(terms)

        _fan_out(self._width(g), task, range(len(g)))
        total = 0.0
        for part in sums:
            total += part
        return float(np.sqrt(total * self.length**3 / self.n**6))


def write_snapshot(path, grid, t, fields):
    """Write stacked fields (ncomp, n, n, n) in the binary snapshot format."""
    data = np.ascontiguousarray(np.asarray(fields, dtype="<f8"))
    if data.ndim == 3:
        data = data[None]
    ncomp = data.shape[0]
    if data.shape[1:] != (grid.n, grid.n, grid.n):
        raise ValueError("field shape does not match grid")
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.n, grid.length, float(t), ncomp)
        )
        for comp in data:
            # x-fastest on disk; arrays are indexed [ix, iy, iz]
            fh.write(comp.transpose(2, 1, 0).tobytes())


def read_snapshot(path):
    """Read a snapshot; returns (grid, t, fields with shape (ncomp, n, n, n)).

    The payload size in the header is checked against the file first, so a
    corrupt n or ncomp raises ValueError instead of asking for a huge buffer.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError("truncated snapshot header: %d of %d bytes"
                             % (len(head), _HEADER.size))
        magic, version, n, length, t, ncomp = _HEADER.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError("bad snapshot magic")
        if version != SNAPSHOT_VERSION:
            raise ValueError("unsupported snapshot version %d" % version)
        if ncomp == 0:
            raise ValueError("snapshot holds no fields")
        count = ncomp * n**3
        have = (os.fstat(fh.fileno()).st_size - _HEADER.size) // 8
        if have < count:
            raise ValueError("truncated snapshot payload: %d of %d values"
                             % (have, count))
        raw = np.fromfile(fh, dtype="<f8", count=count)
    fields = raw.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1)
    return Grid3(n, length), t, np.ascontiguousarray(fields)
