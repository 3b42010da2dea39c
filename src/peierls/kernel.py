"""The package's one compiled kernel, ``_kernel.c``: built with ``cc`` on first use, cached and loaded.

The C source holds four entry points.  ``peierls_flood`` is the invasion
flood of the Monte Carlo (:mod:`peierls.montecarlo`), ``peierls_walk`` the
circuit walk of the census, ``peierls_shapes`` the span-pruned shape tree
with its contours, for the census and the event table of the truncated
polynomial (:mod:`peierls.enumeration`), and ``peierls_classes`` the census's
class pass, which checks, traces and classifies its distinct contours;
``peierls_free`` releases the records ``peierls_shapes`` hands back.
:func:`load` builds the source into a shared library, caches it and loads it
once per process, so every command that runs one of them needs a C compiler
``cc``: ``simulate`` for the flood, ``counts`` and ``bounds --mode exact|sa``
for the census and the walk, and ``bounds`` at ``--r >= 5`` for the event
table.  Importing this module builds and loads nothing.
"""

from __future__ import annotations

import os

from .errors import BuildError

#: The kernel's C source, and the command that builds it into a shared library.
SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
BUILD = ("cc", "-O2", "-shared", "-fPIC")
#: The loaded library, set by :func:`load`.
_library = None
#: Seconds after its last load at which a cached kernel is removed by the next build.
STALE_S = 30 * 24 * 3600


def _cache() -> str:
    """The directory the built kernel is cached in: ``${XDG_CACHE_HOME:-~/.cache}/peierls``."""
    return os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "peierls")


def load(need: str):
    """The kernel's library, built on first use and cached, with its entry points declared.

    ``need`` names the work and the commands that need the kernel, as in
    ``"the census and the circuit walk (counts, bounds --mode exact|sa)"``; the
    :class:`BuildError` raised when the kernel cannot be built or loaded
    names it.

    The library is ``kernel-<digest>.so`` in :func:`_cache`, the digest the
    sha256 of the source and the build command, so an edited source or
    command builds anew.  It is compiled to a temporary name in the cache and
    moved into place with ``os.replace``, so processes that build at once each
    load a whole file.  It is loaded into the calling process, so workers
    forked after the first call inherit it.

    Each load touches the file it loads, so its modification time is its
    last load.  Each build then removes the other ``kernel-*.so`` files of
    the cache not loaded for ``STALE_S`` seconds (30 days): the kernels of
    edited sources pile up no longer, and two trees that share the cache,
    say a change and its parent run side by side, never remove each
    other's kernel.
    """
    global _library
    if _library is not None:
        return _library
    import ctypes
    import hashlib

    name = os.path.basename(SOURCE)
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source + b"\0" + " ".join(BUILD).encode()).hexdigest()
    cache = _cache()
    path = os.path.join(cache, f"kernel-{digest}.so")
    if not os.path.isfile(path):
        # imported only to build: a cached kernel loads in a fraction of a millisecond
        import subprocess
        import tempfile

        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=cache)
            os.close(fd)
        except OSError as exc:
            raise BuildError(f"cannot write the kernel {name} for {need} to {cache}: {exc.strerror}") from None
        try:
            build = subprocess.run([*BUILD, "-o", tmp, SOURCE], capture_output=True, text=True)
            if build.returncode:
                # the first error line only: the CLI reports an error on one line
                first = next((line for line in build.stderr.splitlines() if "error" in line), f"exit code {build.returncode}")
                raise BuildError(f"{BUILD[0]} could not build the kernel {name} for {need}: {first.strip()}")
            os.replace(tmp, path)
        except FileNotFoundError:
            raise BuildError(f"no C compiler '{BUILD[0]}' on PATH to build the kernel {name} for {need}") from None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        _prune(cache, path)
    try:
        library = ctypes.CDLL(path)
    except OSError as exc:
        raise BuildError(f"cannot load the kernel {path} for {need}: {exc}") from None
    try:
        os.utime(path)
    except OSError:
        pass  # a cache it cannot touch keeps its kernels, and loads them all the same
    int32, int64, uint64, pointer = ctypes.c_int32, ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p
    library.peierls_flood.restype = ctypes.c_int
    library.peierls_flood.argtypes = [uint64, uint64, int64, int32, uint64, int32, pointer, int32, pointer, pointer]
    library.peierls_walk.restype = ctypes.c_int
    library.peierls_walk.argtypes = [int32, int32, int64, pointer, pointer, pointer]
    library.peierls_shapes.restype = ctypes.c_int
    library.peierls_shapes.argtypes = [int32, int32, int32, int32, pointer, pointer, pointer]
    library.peierls_free.restype = None
    library.peierls_free.argtypes = [pointer]
    library.peierls_classes.restype = ctypes.c_int
    library.peierls_classes.argtypes = [int32, int32, pointer, pointer, pointer, pointer, pointer]
    _library = library
    return library


def _prune(cache: str, keep: str) -> None:
    """Remove the ``kernel-*.so`` files of ``cache`` but ``keep`` last loaded more than ``STALE_S`` seconds ago."""
    import time

    now = time.time()
    for entry in os.scandir(cache):
        if entry.name.startswith("kernel-") and entry.name.endswith(".so") and entry.path != keep:
            try:
                if now - entry.stat().st_mtime > STALE_S:
                    os.remove(entry.path)
            except OSError:
                pass  # removed by another build meanwhile, or not ours to remove
