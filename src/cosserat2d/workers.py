"""The worker processes of a ``simulate`` run (:func:`run`): band workers
that evaluate the right-hand side in rows of the grid, and a ring of
snapshot writers.  Every output keeps the bits of the serial kernel and of
an inline :func:`cosserat2d.fields.save_snapshot`.
"""

from __future__ import annotations

import functools
import mmap
import os
import signal
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import RhsFields
from .energy import ALL_TERMS, _live_terms, term_totals
from .errors import IoError, WorkerExited
from .fields import _SNAPSHOT_HEADER, Grid, save_snapshot
from .report import _tables, grid_csv_lines, write_grid_csv

#: The fixed head of a band of a snapshot sent to a writer: the band's grid
#: rows ``i0, i1`` and the length of the path in bytes; the path and the
#: band's rows of the six fields follow.
_REQUEST = struct.Struct("<qqq")
#: The head of a writer's reply: the length of its error message (0:
#: written).
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


def _append(path: str, lines) -> None:
    """Append the byte strings ``lines`` to the existing file ``path``; a
    failure, a missing file included, is raised as an :class:`IoError`."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            for line in lines:
                _send(fd, line)
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def _receive_into(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; ``False`` if the pipe closed first."""
    view = memoryview(buffer).cast("B")
    while view:
        count = os.readv(fd, [view])
        if not count:
            return False
        view = view[count:]
    return True


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


#: The fewest grid nodes a band of :func:`row_bands` has.  A grid of fewer
#: than two bands' worth runs the serial kernel and writes each snapshot
#: whole: there a second band saves a fraction of a millisecond a step,
#: which a snapshot writer sharing the band worker's CPU takes back
#: (measured in the README).
BAND_NODES = 2**15


def row_bands(grid: Grid, cpus: int) -> list[tuple[int, int]]:
    """The bands of grid rows ``(i0, i1)`` a run on ``grid`` with ``cpus``
    usable CPUs evaluates its right-hand side in (:func:`banded_rhs`) and
    writes its snapshots in (:func:`snapshot_writer`): one per usable CPU,
    but at most one per :data:`BAND_NODES` nodes, their heights at most one
    row apart."""
    count = max(1, min(cpus, grid.nx * grid.ny // BAND_NODES, grid.nx))
    bounds = [grid.nx * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


@contextmanager
def banded_rhs(state, p, terms, eps_reg: float, bands, cpus):
    """Yield ``rhs(state, p)``, the right-hand side of
    :func:`cosserat2d.dynamics._rhs` at ``state``, evaluated in the row
    ``bands``: the first by this process and each other by a worker forked
    when the block opens, pinned to the CPU of ``cpus`` with its position,
    wrapping round.

    The block opens by moving the positions of ``state`` into one shared
    mapping made before the fork, where the caller steps them in place;
    ``rhs`` serves that state and ``p`` alone.  Each call wakes the
    workers, evaluates the first band itself and waits for the others: each
    band (:func:`cosserat2d.dynamics._rhs_rows`) writes its accelerations
    and each live term's density into the mapping, and this process then
    sums each density over the grid.  A result stays valid until the next
    call, and has the serial kernel's bits.  If any band fails, the serial
    kernel runs instead and raises what it raises; a worker that died is
    raised as :class:`WorkerExited`.  Leaving the block ends the workers.
    A mapping the system refuses is raised as a :class:`MemoryError`, and a
    fork that fails as an :class:`IoError`, when the block opens.
    """
    grid = state.grid
    names = [t for t in ALL_TERMS if t in _live_terms(terms, p)]
    try:
        mapping = mmap.mmap(-1, (6 + len(names)) * grid.nx * grid.ny * 8)
    except OSError as exc:  # more than the system will map
        raise MemoryError(f"cannot map the fields the row bands share: "
                          f"{exc}") from exc
    shared = np.frombuffer(mapping).reshape((-1,) + grid.shape)
    positions, acc, densities = shared[:3], shared[3:6], shared[6:]
    positions[...] = state.u1, state.u2, state.theta
    state.u1, state.u2, state.theta = positions

    def serve(rows, requests, replies) -> None:
        while _receive_into(requests, bytearray(1)):
            try:
                dynamics._rhs_rows(positions, grid, p, terms, eps_reg, rows,
                                   acc, densities)
                failed = False
            except Exception:  # the parent's serial kernel raises it again
                failed = True
            os.write(replies, bytes([failed]))

    workers = []

    def rhs(current, params) -> RhsFields:
        for worker in workers:
            try:
                os.write(worker.requests, b"\0")
            except BrokenPipeError:
                pass  # the worker died; waiting for its reply reports it
        failed = False
        try:
            dynamics._rhs_rows(positions, grid, p, terms, eps_reg, bands[0],
                               acc, densities)
        except Exception:  # the serial kernel below raises it again
            failed = True
        finally:
            for worker, (i0, i1) in zip(list(workers), bands[1:]):
                reply = bytearray(1)
                if not _receive_into(worker.replies, reply):
                    workers.remove(worker)
                    raise WorkerExited(
                        f"the band worker of rows {i0} to {i1 - 1} exited "
                        f"with {_reap(worker)}")
                failed |= reply[0]
        if failed:
            return dynamics._rhs(current, params, terms, eps_reg)
        return RhsFields(acc_u=acc[:2], acc_theta=acc[2],
                         potential=term_totals(zip(names, densities),
                                               grid.cell_area))

    try:
        for k, rows in enumerate(bands[1:], 1):
            workers.append(_fork_child(functools.partial(serve, rows),
                                       cpus[k % len(cpus)], "band worker"))
        yield rhs
    finally:
        while workers:
            _reap(workers.pop())


def _save_band(grid: Grid, fields, rows: tuple[int, int], path: str,
               previous: int, following: int) -> None:
    """Write the grid ``rows = (i0, i1)`` of a snapshot to ``path``;
    ``fields`` holds those rows of the six fields.

    The first band (a whole snapshot, if it is the only one) starts the
    file with the header and streams its rows, as
    :func:`cosserat2d.fields.save_snapshot` does.  A later band formats its
    rows in memory, waits for the previous band's writer to say down
    ``previous`` that its rows are written, and appends them
    (:func:`_append`).  Each band but the last sends one byte down
    ``following``: 1 if it wrote its rows, 0 if not.  A band whose previous
    band wrote nothing, or whose writer died first (``previous`` closes),
    writes nothing and raises an :class:`IoError`.
    """
    i0, i1 = rows
    x, y = grid.axes()
    written = False
    try:
        if not i0:
            write_grid_csv(path, _SNAPSHOT_HEADER, x[:i1], y, fields)
        else:
            lines = list(grid_csv_lines(x[i0:i1], y, fields, first=i0))
            ready = bytearray(1)
            if not (_receive_into(previous, ready) and ready[0]):
                raise IoError(f"cannot write {path!r}: rows {i0} to {i1 - 1} "
                              f"follow rows that were not written")
            _append(path, lines)
        written = True
    finally:
        if i1 < grid.nx:
            try:
                _send(following, bytes([written]))
            except BrokenPipeError:
                pass  # the next band's writer died; the parent reports it


@contextmanager
def snapshot_writer(grid: Grid, count: int, bands, cpus):
    """Yield ``write(state, path)``, which hands a snapshot of a state on
    ``grid`` to writer processes and returns while they save it; ``count``
    is how many snapshots the block will write, each in the row ``bands``.
    ``cpus`` are the usable CPUs, at least one per band, as
    :func:`row_bands` gives them.

    ``min(len(cpus), count * len(bands))`` writers are forked when the
    block opens, before the caller's heap grows, and live until it ends; a
    fork that fails is raised as an :class:`IoError` there.  The float
    formatter's tables are built before the forks, so the writers share
    them.  Writer ``k`` pins itself to the ``k``-th CPU of ``cpus`` after
    the first, wrapping round: left to the scheduler, a writer woken by the
    pipe runs on the waking process's CPU and can stay there.
    The bands go to the writers in turn, each sent down a pipe straight from
    the state's rows, so the writer of the next band is always the next
    writer of the ring: writer ``k`` tells it when its band is written
    through a pipe of which it holds the only write end
    (:func:`_save_band`).  Before a snapshot goes out, ``write`` waits for
    the band in flight on each writer its bands go to, the oldest.  The
    first band that failed, in write order, is raised as the
    :class:`IoError` of its write (or, for a writer that died, as ``cannot
    write '<path>': writer exited with <code>``).  Leaving the block waits
    for every snapshot and every writer.  Paths are made absolute.
    """
    _tables()
    writers = []  # in turn: the next to write first, with the oldest in flight
    links = []  # links[k]: the go-ahead pipe from writer k to writer k + 1

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

    def write(state, path) -> None:
        # A failure found here leaves no band of this snapshot written.
        for writer in writers[:len(bands)]:
            message = wait(writer)
            if message:
                first_failure()  # later writes cannot outrank this failure
                raise IoError(message)
        path = os.path.abspath(path)
        encoded = os.fsencode(path)
        for i0, i1 in bands:
            writer = writers[0]
            writer.path = path
            try:
                _send(writer.requests,
                      _REQUEST.pack(i0, i1, len(encoded)) + encoded)
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
        """Writer ``k``'s loop: save each band read from ``requests`` and
        reply with nothing or the :class:`IoError` message, until the
        parent closes ``requests``."""
        previous, following = links[k - 1][0], links[k][1]
        for fd in {fd for link in links for fd in link} - {previous,
                                                           following}:
            os.close(fd)
        head = bytearray(_REQUEST.size)
        while _receive_into(requests, head):
            i0, i1, path_size = _REQUEST.unpack(head)
            path = bytearray(path_size)
            fields = np.empty((6, i1 - i0, grid.ny))
            if not (_receive_into(requests, path)
                    and _receive_into(requests, fields)):
                raise EOFError("the snapshot request was cut short")
            try:
                _save_band(grid, fields, (i0, i1), os.fsdecode(bytes(path)),
                           previous, following)
                message = b""
            except IoError as exc:
                message = str(exc).encode("utf-8")
            _send(replies, _INT64.pack(len(message)) + message)

    try:
        try:
            for _ in range(min(len(cpus), count * len(bands))):
                links.append(os.pipe())
            for k in range(len(links)):
                writers.append(_fork_child(functools.partial(serve, k),
                                           cpus[(k + 1) % len(cpus)],
                                           "snapshot writer"))
        finally:
            # Each end is now held by the one writer that uses it.
            for fd in (fd for link in links for fd in link):
                os.close(fd)
        yield write
    finally:
        # A failed write still in flight came before whatever ended the block.
        try:
            message = first_failure()
        finally:
            while writers:
                retire(writers[-1])
        if message:
            raise IoError(message)


@contextmanager
def run(cfg, state):
    """Yield ``(rhs, write)`` for a run of ``cfg`` from ``state``: its
    right-hand side ``rhs(state, p)`` and its snapshot writer
    ``write(state, path)``.

    With ``os.fork``, the usable CPUs are read once (without an affinity
    API, ``os.cpu_count()`` of them, and nothing is pinned) and the row
    bands taken once (:func:`row_bands`).  On two or more bands ``rhs``
    evaluates them (:func:`banded_rhs`), else it is the serial kernel; the
    band workers are forked first, then the writers of
    :func:`snapshot_writer`.  This process keeps to the lowest usable CPU
    until the block ends, and then gets back the CPUs it had.  Leaving the
    block ends every child.  Without ``os.fork``, ``rhs`` is the serial
    kernel and ``write`` calls :func:`cosserat2d.fields.save_snapshot`
    inline, on the absolute path.
    """
    terms, eps_reg = cfg.model.active_terms(), cfg.sim.eps_reg
    serial = functools.partial(dynamics._rhs, terms=terms, eps_reg=eps_reg)
    if not hasattr(os, "fork"):
        yield serial, lambda current, path: save_snapshot(
            current, os.path.abspath(path))
        return
    usable = _usable_cpus()
    bands = row_bands(cfg.grid, len(usable))
    with ExitStack() as stack:
        rhs = serial
        if len(bands) > 1:
            rhs = stack.enter_context(banded_rhs(
                state, cfg.material, terms, eps_reg, bands, usable))
        _pin(usable[:1])
        stack.callback(_pin, usable)  # the CPUs this process had
        write = stack.enter_context(snapshot_writer(
            cfg.grid, cfg.sim.snapshot_count(), bands, usable))
        yield rhs, write
