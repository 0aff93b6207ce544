"""A helper process that runs work beside this one, on the host's other core.

Python threads cannot run two recurrent loops at once, because the GIL
serialises their many small numpy calls; a second process can. helper(start)
pins BLAS to one thread in this process and returns a Helper, or returns None
where no helper can run: no fork (Windows), no memfd_create (Linux only), or
no thread setter in the loaded OpenBLAS. The pin comes first, before any
GEMM, so a process's GEMMs all run at the same thread count, whatever the
environment asks for, and their bits do not depend on it.

The helper is forked on first use, from whichever thread first needs it, and
runs only numpy and pickle after the fork: it imports nothing, ignores
SIGINT, and exits when its request pipe reaches end of file, that is when
this process closes the pipe or dies. An atexit handler kills and reaps it.

One request at a time crosses, under a lock. Its arrays cross through one
shared buffer that both processes map, a memfd that whichever side writes
past its end grows with ftruncate; control messages are pickles on a pipe
pair. The helper hands start, or the kept state it resumes, views of the
request's arrays in the buffer, and writes its results after them. The
next request overwrites those views, so a start that keeps a state copies
what the state will read; nothing else is copied. It runs each request
under this process's np.geterr(),
and hands back the warnings it raised, which this process then warns. An
error in the helper, or its death, raises QnnError here, with its message.
"""

from __future__ import annotations

import atexit
import ctypes
import gc
import itertools
import math
import mmap
import os
import pickle
import signal
import threading
import warnings
import weakref
from collections import deque

import numpy as np

from qnn.errors import QnnError

_ALIGN = 64  # byte alignment of each array in the shared buffer


def _blas_thread_setter():
    """The set-threads function of the OpenBLAS library loaded in this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                return setter
    return None


class _Buffer:
    """A memfd mapped by both processes. Arrays are laid out as (offset,
    shape, dtype) triples, None standing for no array."""

    def __init__(self):
        self.fd = os.memfd_create("qnn-helper")
        self.bytes = np.empty(0, np.uint8)

    def _reach(self, end: int) -> None:
        """Grow the file to at least end bytes, and map all of it."""
        size = os.fstat(self.fd).st_size
        if end > size:
            size = max(end, 2 * size)
            os.ftruncate(self.fd, size)
        if size > self.bytes.size:
            self.bytes = np.frombuffer(mmap.mmap(self.fd, size), np.uint8)

    def put(self, arrays, start: int = 0):
        """Copy arrays in from byte start on; returns their layout and its end."""
        layout, end = [], start
        for a in arrays:
            if a is None:
                layout.append(None)
                continue
            end = -(-end // _ALIGN) * _ALIGN
            layout.append((end, a.shape, a.dtype.str))
            end += a.nbytes
        self._reach(end)
        for a, view in zip(arrays, self.get(layout)):
            if a is not None:
                np.copyto(view, a)
        return layout, end

    def get(self, layout) -> list:
        """Views of the laid-out arrays."""
        spots = [s for s in layout if s is not None]
        self._reach(max((o + np.dtype(d).itemsize * math.prod(s) for o, s, d in spots), default=0))
        return [None if s is None else np.ndarray(s[1], s[2], self.bytes, s[0]) for s in layout]


def _serve(start, reader, writer, buffer) -> None:
    """The helper's loop; never returns. A request is (call id, resume,
    layout, end, meta, errstate, freed ids); a reply ("ok", layout, kept,
    warnings) or ("error", message)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()  # collections then leave the pages shared at the fork alone
    states = {}
    try:
        while True:
            try:
                call_id, resume, layout, end, meta, errstate, freed = pickle.load(reader)
            except EOFError:
                break
            for done in freed:
                states.pop(done, None)
            try:
                with np.errstate(**errstate), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    arrays = buffer.get(layout)
                    if resume:
                        outputs, state = states.pop(call_id)(*arrays, **meta), None
                    else:
                        outputs, state = start(*arrays, **meta)
                    if state is not None:
                        states[call_id] = state
                    out_layout, _ = buffer.put(outputs, end)
                reply = ("ok", out_layout, state is not None, [(w.category, str(w.message)) for w in caught])
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            pickle.dump(reply, writer)
            writer.flush()
    finally:
        os._exit(0)


class Call:
    """A state the helper kept for one start. If this object is collected
    without being resumed, the next request tells the helper to drop it."""

    def __init__(self, pid: int, call_id: int, freed: deque):
        self.pid, self.id = pid, call_id
        self.release = weakref.finalize(self, freed.append, call_id)


class Helper:
    """One helper process: start(*arrays, **meta) -> (outputs, state or None)
    runs in it, and a kept state is resumed as state(*arrays, **meta) ->
    outputs. Outputs are lists of arrays or None. The arrays either gets are
    views of the shared buffer, valid until its reply: a state must not
    keep one."""

    def __init__(self, start):
        self._start = start
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._freed = deque()
        self._owner = self.pid = None  # the forking process's pid and the helper's
        atexit.register(self.stop)

    def start(self, arrays, meta: dict, local, combine):
        """Run start(*arrays, **meta) in the helper while local() runs here.
        Returns combine(local's result, the helper's outputs) and a Call for
        the kept state, or None; the outputs are views of the shared buffer,
        valid only inside combine."""
        return self._run(None, arrays, meta, local, combine)

    def resume(self, call: Call, arrays, meta: dict, local, combine):
        """As start, but the helper runs call's kept state(*arrays, **meta)
        and then drops it. Returns combine's result."""
        if call.pid != self.pid or self._owner != os.getpid():
            raise QnnError("the helper process that ran this call has ended")
        call.release.detach()
        return self._run(call.id, arrays, meta, local, combine)[0]

    def _run(self, resume, arrays, meta, local, combine):
        with self._lock:
            if self._owner != os.getpid():
                self._fork()
            call_id = next(self._ids) if resume is None else resume
            freed = [self._freed.popleft() for _ in range(len(self._freed))]
            layout, end = self._buffer.put(arrays)
            try:
                pickle.dump((call_id, resume is not None, layout, end, meta, np.geterr(), freed), self._writer)
                self._writer.flush()
            except OSError:
                self._fail()
            try:
                mine = local()
            finally:
                reply = self._receive()
            if reply[0] == "error":
                raise QnnError(f"helper process: {reply[1]}")
            _, out_layout, kept, caught = reply
            for category, message in caught:
                warnings.warn(message, category, stacklevel=3)
            result = combine(mine, self._buffer.get(out_layout))
            return result, Call(self.pid, call_id, self._freed) if kept else None

    def _receive(self):
        try:
            return pickle.load(self._reader)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._fail()
        except BaseException:  # an interrupt mid-reply leaves the pipe out of step
            self.stop()
            raise

    def _fail(self):
        pid = self.pid
        status = self.stop()
        raise QnnError(f"helper process {pid} ended ({status})")

    def _fork(self) -> None:
        self._buffer = _Buffer()
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking a threaded process (OpenBLAS keeps
            # a pool); the child runs only numpy and pickle
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                pid = os.fork()
            except OSError as exc:
                for fd in (request_r, request_w, reply_r, reply_w, self._buffer.fd):
                    os.close(fd)
                raise QnnError(f"cannot fork the helper process: {exc}") from None
        if pid == 0:
            keep = sorted((request_r, reply_w, self._buffer.fd))
            for low, high in zip([3] + [fd + 1 for fd in keep], keep + [os.sysconf("SC_OPEN_MAX")]):
                os.closerange(low, high)
            _serve(self._start, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"), self._buffer)
        os.close(request_r)
        os.close(reply_w)
        self._writer, self._reader = os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb")
        self._owner, self.pid = os.getpid(), pid

    def stop(self) -> str:
        """Kill and reap the helper, if this process forked one; returns how it ended."""
        if self._owner != os.getpid():
            return "not running"
        for pipe in (self._writer, self._reader):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except ChildProcessError:  # reaped elsewhere
            status = None
        os.close(self._buffer.fd)
        self._owner = self.pid = self._buffer = None
        return "status unknown" if status is None else f"signal {-status}" if status < 0 else f"exit {status}"


def helper(start) -> Helper | None:
    """A Helper running start, with this process's BLAS pinned to one
    thread; None, and nothing pinned, where no helper can run."""
    setter = _blas_thread_setter() if hasattr(os, "fork") and hasattr(os, "memfd_create") else None
    if setter is None:
        return None
    setter(1)
    return Helper(start)
