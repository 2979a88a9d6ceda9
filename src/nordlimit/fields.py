"""Periodic 3D grid, spectral calculus, and field I/O.

All fields live on the uniform grid of the torus [0, L)^3 with n points per
axis, stored as float64 arrays indexed [ix, iy, iz].  Derivatives, inverse
Helmholtz operators, smoothing, and Sobolev norms are computed with FFTs,
which are exact on the band-limited trigonometric interpolant.  A partial
derivative takes one real transform pair along its own axis only; the other
spectral operators use full 3D real transforms.  Nonlinear products are kept
alias-free with the standard 2/3-rule mask.

Each of `fft`, `ifft` (so also `dealias`, `laplacian` and
`helmholtz_solve`), `gradient` and `sobolev_norm` has one implementation at
every grid size: it transforms the components (for `gradient`, the
component-axis pairs) one at a time, each into its own slice of the output.
The grid size picks only how many threads share that work: from
FAN_OUT_POINTS points, a call with more than one such task splits them over
the calling thread and a pool of threads (numpy's FFT releases the
interpreter lock while it computes).  A task runs the same transforms on
the same data on any thread, so every result is bit-identical whatever the
thread count.

`fork_map` maps a function over items in worker processes forked from the
caller, one per usable CPU; the sweep's rungs and the check suite's
per-output work run through it.

Snapshots use a small binary format: header {magic "NRDF", version u32,
n u32, L f64, t f64, ncomp u32}, followed by ncomp * n**3 little-endian
float64 values in x-fastest order.
"""

import itertools
import math
import os
import struct

import numpy as np

SNAPSHOT_MAGIC = b"NRDF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIddI")

# Grids with fewer points transform on the calling thread alone.  At 32**3 a
# one-axis transform pair takes 0.3-0.8 ms, and gradient plus dealias of 5
# components took 10.7 ms on one thread against 10.6 ms fanned out over two
# (2-core host): the hand-off costs what the second thread saves.
FAN_OUT_POINTS = 64**3

# (pid, threads, executor, {n: idle worker scratch}) of this process's pool;
# a forked child sees another pid and builds its own
_pool = None


def transform_threads(n):
    """Threads that share the per-component transforms of an n**3 grid."""
    if n**3 < FAN_OUT_POINTS:
        return 1
    return len(os.sched_getaffinity(0))


def stop_transform_threads():
    """Shut down this process's transform threads and free their buffers;
    the next fan-out starts new ones.  Call it before forking, so the child
    is copied from a process that runs no other thread."""
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


def fork_map(fn, items):
    """[fn(item) for item in items], computed in forked worker processes.

    fn may be any callable, a closure over large arrays included: the
    workers are forked from this process and inherit it, so only each item
    and its result are pickled.  Items are handed out in order, each to the
    next free worker.  With fork_workers(len(items)) == 1 it runs here, with
    no pool.  A worker's exception is raised here with its type and message.
    This process's transform threads are stopped before the pool forks, and
    each worker starts its own.
    """
    global _fork_fn
    items = list(items)
    workers = fork_workers(len(items))
    if workers <= 1:
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
                return [future.result() for future in futures]
            finally:
                # after a worker's exception, start no other item
                for future in futures:
                    future.cancel()
    finally:
        _fork_fn = None


class _Scratch:
    """One thread's spectrum buffers for an n**3 grid, allocated on first use."""

    def __init__(self, n):
        self.n = n
        self._complex = None
        self._real = None

    def spectrum(self, axis):
        """Complex buffer shaped as a real transform of a field along axis."""
        n = self.n
        if self._complex is None:
            self._complex = np.empty(n * n * (n // 2 + 1), dtype=complex)
        shape = [n, n, n]
        shape[axis] = n // 2 + 1
        return self._complex.reshape(shape)

    def real(self):
        """Real buffer shaped as a spectrum of rfftn."""
        n = self.n
        if self._real is None:
            self._real = np.empty((n, n, n // 2 + 1))
        return self._real


def _fan_out(n, width, task, items):
    """Run task(scratch, item) for every item on the calling thread and up
    to width - 1 threads of this process's pool; returns when all are done.

    Every per-component transform runs through here at every grid size:
    with width 1 all tasks run on the calling thread, on one fresh scratch,
    and no pool is built.

    Tasks call numpy and private helpers only.  A worker's scratch is kept
    for its next call (reused across grids of the same n): buffers that
    worker threads allocated per call would each land in a per-thread
    malloc arena and raise the peak resident memory.  The calling thread
    takes a fresh scratch, as a serial transform allocates its spectrum.
    """
    global _pool
    if width == 1:
        scratch = _Scratch(n)
        for item in items:
            task(scratch, item)
        return
    pid = os.getpid()
    if _pool is None or _pool[:2] != (pid, width):
        # imported here: a process that never fans out starts no thread
        from concurrent.futures.thread import ThreadPoolExecutor
        if _pool is not None and _pool[0] == pid:
            _pool[2].shutdown(wait=False)
        _pool = (pid, width, ThreadPoolExecutor(width - 1), {})
    executor, idle = _pool[2], _pool[3].setdefault(n, [])
    items = list(items)
    scratches = [idle.pop() if idle else _Scratch(n)
                 for _ in range(min(width, len(items)) - 1)]
    # next() on one list iterator is atomic under the interpreter lock, so
    # every item is taken by exactly one thread
    queue = iter(items)
    handling = np.geterr()  # the workers' floating-point error handling

    def drain(scratch):
        with np.errstate(**handling):
            for item in queue:
                task(scratch, item)

    futures = [executor.submit(drain, scratch) for scratch in scratches]
    try:
        drain(_Scratch(n))
    finally:
        # every worker is done before its scratch can be handed out again
        errors = [future.exception() for future in futures]
        idle.extend(scratches)
    for exc in errors:
        if exc is not None:
            raise exc


def _irfftn_into(spec, n, out, work):
    """irfftn of one (n, n, n//2+1) spectrum into out, as numpy runs it: ifft
    along axis 0 into work, along axis 1 in place, irfft along axis 2.
    work may be spec itself."""
    np.fft.ifft(spec, axis=0, out=work)
    np.fft.ifft(work, axis=1, out=work)
    np.fft.irfft(work, n, axis=2, out=out)


class Grid3:
    """Uniform periodic grid with cached spectral machinery.

    Wavenumber arrays follow the rfftn layout (real transforms along the
    last axis).  Derivatives use their own per-axis factors i k, laid out
    for a real transform along that axis.  The 2/3-rule dealias mask and
    the Sobolev weight tables are built lazily and cached.
    """

    def __init__(self, n, length):
        if n < 16 or (n & (n - 1)):
            raise ValueError("grid size must be a power of two >= 16")
        if not (0 < length < math.inf):
            raise ValueError("grid length must be positive and finite")
        self.n = int(n)
        self.length = float(length)
        self.h = self.length / self.n
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        kr = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)
        self.kx = k1[:, None, None]
        self.ky = k1[None, :, None]
        self.kz = kr[None, None, :]
        # i k for a real transform along axis a, shaped to broadcast against
        # (..., n, n, n); the odd-derivative Nyquist mode is set to zero
        ik = 1j * kr
        ik[-1] = 0.0
        self._ik_axis = tuple(ik.reshape((-1,) + (1,) * (2 - a)) for a in range(3))
        self.k_sq = self.kx**2 + self.ky**2 + self.kz**2
        kmax = np.pi / self.h  # Nyquist
        cut = (2.0 / 3.0) * kmax
        self.dealias_mask = (
            (np.abs(self.kx) < cut) & (np.abs(self.ky) < cut) & (np.abs(self.kz) < cut)
        )
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

    def fft(self, f):
        # leading axes, if any, are independent components
        f = np.asarray(f)
        out = np.empty(f.shape[:-1] + (self.n // 2 + 1,), dtype=complex)
        _fan_out(self.n, self._width(f),
                 lambda scratch, comp: np.fft.rfftn(f[comp], out=out[comp]),
                 np.ndindex(f.shape[:-3]))
        return out

    def ifft(self, fh):
        fh = np.asarray(fh)
        out = np.empty(fh.shape[:-1] + (self.n,))
        _fan_out(self.n, self._width(fh),
                 lambda scratch, comp: _irfftn_into(fh[comp], self.n, out[comp],
                                                    scratch.spectrum(2)),
                 np.ndindex(fh.shape[:-3]))
        return out

    def _derivative_into(self, f, axis, out=None, spec=None):
        """d_axis f into out through the spectrum buffer spec (each one
        allocated when None)."""
        a = axis - 3
        spec = np.fft.rfft(f, axis=a, out=spec)
        spec *= self._ik_axis[axis]
        return np.fft.irfft(spec, self.n, axis=a, out=out)

    def derivative(self, f, axis):
        """Spectral partial derivative along axis in {0, 1, 2}.

        One real transform pair along that axis only; leading axes, if any,
        are independent components.
        """
        return self._derivative_into(f, axis)

    def gradient(self, f):
        """All three partials: (n,n,n) -> (3,n,n,n), (m,n,n,n) -> (m,3,n,n,n).

        For stacked components out[j, k] = d_k f[j].  Components are
        differentiated one at a time, which measured faster at n = 64 than
        batched transforms along the strided leading axis; on a large grid
        the (component, axis) pairs are fanned out over threads.
        """
        f = np.asarray(f)
        out = np.empty(f.shape[:-3] + (3,) + f.shape[-3:])

        def task(scratch, part):
            a = part[-1]
            self._derivative_into(f[part[:-1]], a, out[part], scratch.spectrum(a))

        parts = [comp + (a,) for comp in np.ndindex(f.shape[:-3]) for a in range(3)]
        _fan_out(self.n, self._width(f, 3), task, parts)
        return out

    def laplacian(self, f):
        return self.ifft(-self.k_sq * self.fft(f))

    def screened_symbol(self, kappa):
        """|k|**2 + kappa**2, the symbol of kappa**2 - laplacian: the solution
        of (laplacian - kappa**2) phi = src has phi_hat = -src_hat / symbol.
        kappa > 0 keeps mode 0 regular."""
        if not (kappa > 0):
            raise ValueError("the screened Poisson symbol needs kappa > 0")
        return self.k_sq + kappa**2

    def helmholtz_solve(self, src, kappa):
        """Solve (laplacian - kappa**2) phi = src; kappa > 0 keeps mode 0 regular."""
        return self.ifft(-self.fft(src) / self.screened_symbol(kappa))

    def dealias(self, f):
        """Apply the 2/3-rule spectral mask (idempotent)."""
        return self.ifft(self.fft(f) * self.dealias_mask)

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

        def task(scratch, i):
            ch = np.fft.rfftn(g[i], out=scratch.spectrum(2))
            terms = np.square(ch.real, out=scratch.real())
            terms += np.square(ch.imag, out=ch.imag)
            terms *= w
            terms *= mult
            sums[i] = np.sum(terms)

        _fan_out(self.n, self._width(g), task, range(len(g)))
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
