"""Periodic uniform-grid fields and second-order central-difference operators.

Scalar fields are arrays of shape ``(nx, ny)``; vector and matrix fields put
their component axes FIRST (``(2, nx, ny)`` / ``(2, 2, nx, ny)``) so the
:mod:`cosserat2d.algebra` kernels broadcast over the grid. All derivative
operators act on the two trailing axes and wrap periodically, which makes the
discrete summation-by-parts identity

    sum(<M, grad w>) * cell_area == -sum(div(M) . w) * cell_area

exact to rounding — the variational checks in :mod:`cosserat2d.energy` and
:mod:`cosserat2d.dynamics` rely on that exactness.
"""

from __future__ import annotations

import functools
import os
import signal
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IoError
from .report import _tables, grid_csv_lines, write_at, write_grid_csv


@dataclass(frozen=True)
class Grid:
    """Uniform periodic rectangle with ``nx * ny`` nodes."""

    nx: int = 32
    ny: int = 32
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ConfigError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        # The largest grid-sized array a command makes holds 32 bytes a
        # node, as a (2, 2, nx, ny) matrix field does.
        if 32 * self.nx * self.ny > np.iinfo(np.intp).max:
            raise ConfigError(f"grid.nx x grid.ny = {self.nx}x{self.ny} is "
                              f"too large for numpy to address its arrays")
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ConfigError("grid lengths must be positive and finite")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def axes(self):
        """Node coordinates along each axis: ``x[i]`` and ``y[j]``."""
        return np.arange(self.nx) * self.hx, np.arange(self.ny) * self.hy

    def coords(self):
        """Node coordinate arrays ``x[i, j], y[i, j]``."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with its two trailing (grid) axes viewed as one: node
    ``(i, j)`` at ``i * ny + j``.  A view whenever each grid row follows the
    last in memory, leading axes strided or not."""
    return a.reshape(a.shape[:-2] + (-1,))


def _node(axis: int, i: int) -> tuple:
    """Index of the nodes with index ``i`` along grid ``axis`` (-2 or -1)."""
    return (..., i, slice(None)) if axis == -2 else (..., i)


def _central(f: np.ndarray, axis: int, h: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """``(f[i+1] - f[i-1]) / (2 h)`` along ``axis``, periodic wrap.

    One subtraction over the grid rows viewed as one axis (:func:`_rows`):
    a neighbour along ``axis`` is ``ny`` (x) or 1 (y) places away, and the
    two wrapped ends are then written along ``axis`` itself.  The result
    goes into one output (``out`` if given: a contiguous array, or rows of
    one, of ``f``'s shape that shares no memory with it), with no rolled
    copies of ``f``; the same subtraction and division at every node, so
    the bits of the rolled form.  A complex field's real and imaginary
    parts are divided as real numbers, so each has the bits of the stencil
    of that part alone.  Needs at least 3 nodes on ``axis``.
    """
    f = np.asarray(f)
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    shift = f.shape[-1] if axis == -2 else 1
    src, dst = _rows(f), _rows(out)
    if not np.may_share_memory(dst, out):
        raise ValueError("out must hold its grid rows one after another")
    np.subtract(src[..., 2 * shift:], src[..., :-2 * shift],
                out=dst[..., shift:-shift])
    first, last = _node(axis, 0), _node(axis, -1)
    np.subtract(f[_node(axis, 1)], f[last], out=out[first])
    np.subtract(f[first], f[_node(axis, -2)], out=out[last])
    parts = out.view(out.real.dtype)
    parts /= 2.0 * h
    return out


def ddx(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central x-derivative on the second-to-last axis, periodic wrap."""
    return _central(f, -2, grid.hx)


def ddy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central y-derivative on the last axis, periodic wrap."""
    return _central(f, -1, grid.hy)


def _second(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """``((f[i+1] - 2 f[i]) + f[i-1]) / h^2`` along ``axis``, periodic wrap."""
    f = np.asarray(f)
    out = np.roll(f, -1, axis).astype(np.result_type(f, 1.0), copy=False)
    out -= 2.0 * f
    out += np.roll(f, 1, axis)
    out /= h**2
    return out


def ddxx(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second x-derivative, periodic wrap."""
    return _second(f, -2, grid.hx)


def ddyy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second y-derivative, periodic wrap."""
    return _second(f, -1, grid.hy)


def node_window(grid: Grid, nodes):
    """Index of the 5x5 block of nodes centred on each of ``nodes``, wrapped
    periodically: ``f[node_window(grid, nodes)]`` has shape ``(m, 5, 5)``
    for ``m`` nodes (``(i, j)`` pairs), and ``(5, 5)`` for one pair."""
    i, j = np.asarray(nodes).T
    offsets = np.arange(-2, 3)
    return (((i[..., None] + offsets) % grid.nx)[..., :, None],
            ((j[..., None] + offsets) % grid.ny)[..., None, :])


def grad_scalar(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Gradient of a scalar field, shape ``(2, nx, ny)``."""
    f = np.asarray(f)
    g = np.empty((2,) + f.shape, dtype=np.result_type(f, 1.0))
    _central(f, -2, grid.hx, out=g[0])
    _central(f, -1, grid.hy, out=g[1])
    return g


def div_vector(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a vector field, shape ``(nx, ny)``."""
    return ddx(v[0], grid) + ddy(v[1], grid)


def div_matrix(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Row-wise matrix divergence ``(div M)_i = d_x M_i0 + d_y M_i1``."""
    out = ddx(m[:, 0], grid)
    out += ddy(m[:, 1], grid)
    return out


@dataclass
class FieldState:
    """Displacements, microrotation angle, and their time derivatives."""

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    theta: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    omega: np.ndarray

    @classmethod
    def zero(cls, grid: Grid) -> "FieldState":
        return cls(grid, *(grid.zeros() for _ in range(6)))

    def copy(self) -> "FieldState":
        return FieldState(
            self.grid,
            self.u1.copy(), self.u2.copy(), self.theta.copy(),
            self.v1.copy(), self.v2.copy(), self.omega.copy(),
        )

    #: The names of :meth:`field_arrays`, in order.
    FIELD_NAMES = ("u1", "u2", "theta", "v1", "v2", "omega")

    def field_arrays(self):
        return (self.u1, self.u2, self.theta, self.v1, self.v2, self.omega)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.field_arrays())

    def first_non_finite(self) -> str | None:
        """``"<field> at node (i, j)"`` for the first non-finite value, in
        :meth:`field_arrays` order and then node order; ``None`` if none."""
        for name, a in zip(self.FIELD_NAMES, self.field_arrays()):
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                node = np.unravel_index(bad[0], a.shape)
                return f"{name} at node {tuple(int(i) for i in node)}"
        return None


def deformation_gradients(state: FieldState, star: bool = True):
    """Deformation gradients ``F = I + grad u`` and ``F* = I + grad u*``
    (``None`` unless ``star``).

    ``u* = (u2, -u1)`` is the quarter-turned displacement, so the rows of
    ``grad u*`` are (row 2 of ``grad u``, minus row 1 of ``grad u``).
    """
    grid = state.grid
    f = np.empty((2, 2) + np.shape(state.u1))
    for row, u in enumerate((state.u1, state.u2)):
        _central(u, -2, grid.hx, out=f[row, 0])
        _central(u, -1, grid.hy, out=f[row, 1])
    fstar = None
    if star:
        fstar = np.empty_like(f)
        fstar[0] = f[1]
        np.negative(f[0], out=fstar[1])
        fstar[0, 0] += 1.0
        fstar[1, 1] += 1.0
    f[0, 0] += 1.0
    f[1, 1] += 1.0
    return f, fstar


#: The header line of a snapshot.
_SNAPSHOT_HEADER = "i,j,x,y," + ",".join(FieldState.FIELD_NAMES)


def save_snapshot(state: FieldState, path) -> None:
    """Write one CSV row per node: ``i,j,x,y,u1,u2,theta,v1,v2,omega``."""
    write_grid_csv(path, _SNAPSHOT_HEADER, *state.grid.axes(),
                   state.field_arrays())


#: The fixed head of a band of a snapshot sent to a writer: ``nx, ny, lx,
#: ly``, the band's grid rows ``i0, i1`` and the length of the path in
#: bytes; the path and the band's rows of the six fields follow.
_REQUEST = struct.Struct("<qqddqqq")
#: The head of a writer's reply, the length of its error message (0:
#: written), and the offset one band's writer passes the next band's (-1:
#: not written).
_INT64 = struct.Struct("<q")


@dataclass
class _Child:
    """A forked child process, the parent's ends of its two pipes and, for a
    snapshot writer, the absolute path of the snapshot it is writing."""

    pid: int
    requests: int
    replies: int
    path: str | None = None


#: Every child :func:`_fork_child` made and :func:`_reap` has not.  A fork
#: copies all of this process's file descriptors, whichever pool opened
#: them, so the list is kept for the process: each new child closes the
#: pipe ends of the others, or a child would not see its own request pipe
#: close while a sibling held it open.
_children: list[_Child] = []


def _send(fd: int, data) -> None:
    """Write all of the buffer ``data`` to ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _receive_into(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; ``False`` if the pipe closed first."""
    view = memoryview(buffer).cast("B")
    while view:
        count = os.readv(fd, [view])
        if not count:
            return False
        view = view[count:]
    return True


def _save_band(grid: Grid, fields, rows: tuple[int, int], path: str,
               previous: int, following: int) -> None:
    """Write the grid ``rows = (i0, i1)`` of a snapshot to ``path``;
    ``fields`` holds those rows of the six fields.

    The first band (a whole snapshot, if it is the only one) starts the
    file with the header and streams its rows, as :func:`save_snapshot`
    does.  A
    later band formats its rows in memory, reads from ``previous`` the
    offset where they start, which the previous band's writer sends, and
    writes them there.  Each band but the last sends the offset it ends at,
    or -1 if it wrote nothing, down ``following``.  A band whose previous
    band wrote nothing, or whose writer died first (``previous`` closes),
    writes nothing and raises an :class:`IoError`.
    """
    i0, i1 = rows
    x, y = grid.axes()
    end = -1
    try:
        if not i0:
            end = write_grid_csv(path, _SNAPSHOT_HEADER, x[:i1], y, fields)
        else:
            lines = list(grid_csv_lines(x[i0:i1], y, fields, first=i0))
            offset = bytearray(_INT64.size)
            start = (_INT64.unpack(offset)[0]
                     if _receive_into(previous, offset) else -1)
            if start < 0:
                raise IoError(f"cannot write {path!r}: rows {i0} to {i1 - 1} "
                              f"follow rows that were not written")
            end = write_at(path, start, lines)
    finally:
        if i1 < grid.nx:
            try:
                _send(following, _INT64.pack(end))
            except BrokenPipeError:
                pass  # the next band's writer died; the parent reports it


def _serve(previous: int, following: int, requests: int,
           replies: int) -> None:
    """A writer's loop: save each band of a snapshot read from ``requests``
    (:func:`_save_band`, with the offset pipes ``previous`` and
    ``following``) and reply on ``replies`` with nothing or the
    :class:`IoError` message; return once the parent closes ``requests``."""
    head = bytearray(_REQUEST.size)
    while _receive_into(requests, head):
        nx, ny, lx, ly, i0, i1, path_size = _REQUEST.unpack(head)
        path = bytearray(path_size)
        fields = np.empty((6, i1 - i0, ny))
        if not (_receive_into(requests, path)
                and _receive_into(requests, fields)):
            raise EOFError("the snapshot request was cut short")
        try:
            _save_band(Grid(nx, ny, lx, ly), fields, (i0, i1),
                       os.fsdecode(bytes(path)), previous, following)
            message = b""
        except IoError as exc:
            message = str(exc).encode("utf-8")
        _send(replies, _INT64.pack(len(message)) + message)


def _pin(cpus) -> None:
    """Keep this process to ``cpus`` where the system lets it."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass  # no affinity API, or refused: run unpinned


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, lowest first; without an affinity
    API, ``os.cpu_count()`` of them (one if unknown)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


#: The fewest grid nodes a band of :func:`row_bands` has.  A grid of fewer
#: than two bands' worth runs the serial kernel and writes each snapshot
#: whole: there a second band saves a fraction of a millisecond a step,
#: which a snapshot writer sharing the band worker's CPU takes back
#: (measured in the README).
BAND_NODES = 2**15


def row_bands(grid: Grid) -> list[tuple[int, int]]:
    """The bands of grid rows ``(i0, i1)`` a run on ``grid`` evaluates its
    right-hand side in (:func:`cosserat2d.dynamics.banded_rhs`) and writes
    its snapshots in (:func:`snapshot_writer`): one per usable CPU, but at
    most one per :data:`BAND_NODES` nodes, their heights at most one row
    apart.  Without ``os.fork`` there is one band, the whole grid."""
    count = min(len(_usable_cpus()), grid.nx * grid.ny // BAND_NODES, grid.nx)
    if count < 2 or not hasattr(os, "fork"):
        count = 1
    bounds = [grid.nx * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _fork_child(serve, cpu: int, role: str) -> _Child:
    """Fork a child pinned to ``cpu`` that runs ``serve(requests,
    replies)`` on the read end of a request pipe and the write end of a
    reply pipe, and exits with 0 once it returns (1 if it raised).  A
    failed fork is raised as an :class:`IoError` naming ``role``."""
    request_read, request_write = os.pipe()
    reply_read, reply_write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        for fd in (request_read, request_write, reply_read, reply_write):
            os.close(fd)
        raise IoError(f"cannot start a {role}: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            # An interrupt stops the parent, which then ends its children:
            # a writer does not leave a half-written file.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for fd in (request_write, reply_read,
                       *(fd for c in _children for fd in (c.requests,
                                                          c.replies))):
                os.close(fd)
            _pin({cpu})
            serve(request_read, reply_write)
            status = 0
        finally:
            os._exit(status)
    os.close(request_read)
    os.close(reply_write)
    child = _Child(pid, request_write, reply_read)
    _children.append(child)
    return child


def _reap(child: _Child) -> int:
    """Close the pipes to ``child``, wait for it to exit and return its exit
    code."""
    _children.remove(child)
    os.close(child.requests)
    os.close(child.replies)
    return os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])


@contextmanager
def snapshot_writer(count: int, bands):
    """Yield ``write(state, path)``, which hands a snapshot to writer
    processes and returns while they save it; ``count`` is how many
    snapshots the block will write, and each is written in the row
    ``bands`` (:func:`row_bands`), ``(i0, i1)`` each.

    ``min(usable CPUs, count * len(bands))`` writers are forked when the
    block opens, before the caller's heap grows, and live until it ends; a
    fork that fails is raised as an :class:`IoError` there.  The tables of
    the float formatter are built before the forks, so every writer shares
    them instead of building its own.  This process
    keeps to the lowest usable CPU until the block ends, and writer ``k``
    pins itself to the ``k``-th usable CPU after it, wrapping round, so only
    a ring of one writer per CPU has a writer beside the stepping.  Left to
    the scheduler, a writer woken by the pipe runs on the waking process's
    CPU and can stay there.  Without an affinity API the usable CPUs are
    ``os.cpu_count()``, and nothing is pinned.
    The bands go to the writers in turn, each sent down a pipe straight from
    the state's rows, so the writer of the next band is always the next
    writer of the ring: writer ``k`` sends it the offset its band starts at
    through a pipe of which it holds the only write end
    (:func:`_save_band`).  Before a writer takes a band, ``write`` waits
    for its last, which is the oldest in flight, and before the first band
    of a snapshot goes out, for all of the writers its first bands go to.
    The first band that failed, in write order, is raised as the
    :class:`IoError` of its write (or, for a writer that died, as ``cannot
    write '<path>': writer exited with <code>``).  Leaving the block waits
    for every snapshot and every writer, and gives this process back the
    CPUs it had.  Paths are made absolute, also without ``os.fork``, where
    ``write`` calls ``save_snapshot`` inline.
    """
    if not hasattr(os, "fork"):
        yield lambda state, path: save_snapshot(state, os.path.abspath(path))
        return
    _tables()
    usable = _usable_cpus()
    writers = []  # in turn: the next to write first, with the oldest in flight
    links = []  # links[k]: the offset pipe from writer k to writer k + 1

    def retire(writer) -> int:
        writers.remove(writer)
        return _reap(writer)

    def wait(writer) -> str:
        """Wait for the band ``writer`` has in flight, if any; return its
        error message, or ``""``."""
        path, writer.path = writer.path, None
        if path is None:
            return ""
        head = bytearray(_INT64.size)
        if _receive_into(writer.replies, head):
            message = bytearray(_INT64.unpack(head)[0])
            if _receive_into(writer.replies, message):
                return message.decode("utf-8", "replace")
        return f"cannot write {path!r}: writer exited with {retire(writer)}"

    def first_failure() -> str:
        messages = [wait(writer) for writer in list(writers)]
        return next(filter(None, messages), "")

    def check(ring) -> None:
        """Wait for the bands the writers of ``ring`` have in flight, and
        raise the first that failed."""
        for writer in ring:
            message = wait(writer)
            if message:
                first_failure()  # later writes cannot outrank this failure
                raise IoError(message)

    def write(state, path) -> None:
        # A failure found here leaves no band of this snapshot written.
        check(writers[:len(bands)])
        path = os.path.abspath(path)
        grid, encoded = state.grid, os.fsencode(path)
        for i0, i1 in bands:
            writer = writers[0]
            check([writer])  # with more bands than writers, its last one
            writer.path = path
            try:
                _send(writer.requests, _REQUEST.pack(
                    grid.nx, grid.ny, grid.lx, grid.ly, i0, i1,
                    len(encoded)) + encoded)
                for field in state.field_arrays():
                    _send(writer.requests, np.ascontiguousarray(
                        field[i0:i1], dtype=np.float64))
            except BrokenPipeError:
                pass  # the writer died; waiting for its reply reports it
            except BaseException:
                # Cut short (by an interrupt, say): the writer sees its
                # request end early and exits, and the band is not in
                # flight.
                writer.path = None
                retire(writer)
                raise
            writers.append(writers.pop(0))

    def serve(k, requests, replies) -> None:
        previous, following = links[k - 1][0], links[k][1]
        for fd in {fd for link in links for fd in link} - {previous,
                                                           following}:
            os.close(fd)
        _serve(previous, following, requests, replies)

    _pin(usable[:1])
    try:
        try:
            for _ in range(min(len(usable), count * len(bands))):
                links.append(os.pipe())
            for k in range(len(links)):
                writers.append(_fork_child(functools.partial(serve, k),
                                           usable[(k + 1) % len(usable)],
                                           "snapshot writer"))
        finally:
            # Each end is now held by the one writer that uses it.
            for fd in (fd for link in links for fd in link):
                os.close(fd)
        yield write
    finally:
        _pin(usable)  # the CPUs this process had
        # A failed write still in flight came before whatever ended the block.
        try:
            message = first_failure()
        finally:
            while writers:
                retire(writers[-1])
        if message:
            raise IoError(message)
