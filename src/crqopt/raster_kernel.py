"""The compiled raster kernel behind ``clustering.apply_weights``.

``raster_kernel.c`` is built with the system C compiler (``cc``) on the
first raster product of a process, not on import, and loaded with
ctypes.  The library goes to a per-user cache: ``$XDG_CACHE_HOME/crqopt``
or ``~/.cache/crqopt``, else a ``crqopt-<uid>`` folder of the temp dir.
Its file name carries a hash of the source, the flags, the machine type
and the compiler's version, so an edited source or a new compiler
builds a new file and never loads a stale one.  Each build writes under
a temporary name and moves the file into place with ``os.replace``, so
processes that build at once all load a whole library.

Where no library can be built or loaded, ``load`` warns once and returns
None, and ``apply_weights`` falls back to scipy's DIA kernel, which sums
the same terms in the same order.
"""

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

SOURCE = "raster_kernel.c"
CC = "cc"
# no -ffast-math, and no contraction into fused multiply-adds: each sum
# must round as the sorted CSR product's does.  Vector width comes from
# the source's target_clones, not -march=native, so a cached library
# runs on any CPU of its architecture.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# rows per block: 1024 rows of float64 y take 8 KiB of L1
ROW_BLOCK = 1024
COMPILED, SCIPY_DIA = "compiled", "scipy_dia"


def source():
    """The kernel's C source, read from the installed package."""
    return resources.files(__package__).joinpath(SOURCE).read_bytes()


def cache_dirs():
    """Where the library may go, in order of preference."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return [Path(home) / "crqopt",
            Path(tempfile.gettempdir()) / f"crqopt-{os.getuid()}"]


def _own_dir(path):
    """Create ``path`` if needed; True if it is a writable directory that
    only this user can write to."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = path.stat()
    except OSError:
        return False
    return info.st_uid == os.getuid() and not info.st_mode & 0o022 and os.access(path, os.W_OK)


def library_name(code, version):
    """The cached library's file name: a hash of what makes it."""
    digest = hashlib.sha256(code)
    for part in (*CFLAGS, platform.machine()):
        digest.update(b"\0" + part.encode())
    digest.update(b"\0" + version)
    return f"raster_kernel-{digest.hexdigest()[:20]}.so"


def build(folder, code, version):
    """Path of the library for ``code`` in ``folder``, compiled there
    unless a build of the same hash is already in place."""
    target = folder / library_name(code, version)
    if not target.exists():
        fd, partial = tempfile.mkstemp(dir=folder, prefix=".build-", suffix=".so")
        os.close(fd)
        try:
            subprocess.run([CC, *CFLAGS, "-x", "c", "-", "-o", partial], input=code,
                           check=True, capture_output=True)
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
    return target


def _bind(path):
    lib = ctypes.CDLL(str(path))
    kernels = {}
    for dtype, name in ((np.float32, "apply_weights_f32"), (np.float64, "apply_weights_f64")):
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                       ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_void_p]
        fn.restype = None
        kernels[np.dtype(dtype)] = fn
    return kernels


@functools.cache
def load():
    """The kernel's entry points by store dtype, built and loaded on the
    first call of a process; None, after one warning, where they cannot be."""
    try:
        code = source()
        version = subprocess.run([CC, "--version"], check=True, capture_output=True).stdout
        folder = next((d for d in cache_dirs() if _own_dir(d)), None)
        if folder is None:
            raise OSError("no writable cache directory of this user")
        return _bind(build(folder, code, version))
    except (OSError, subprocess.CalledProcessError, AttributeError) as err:
        detail = err
        if isinstance(err, subprocess.CalledProcessError):
            detail = err.stderr.decode(errors="replace").strip() or err
        warnings.warn(f"the compiled raster kernel could not be built ({detail}); "
                      "raster products fall back to scipy's DIA kernel, with the same bits",
                      stacklevel=2)
        return None


def kernel_name():
    """Which kernel applies raster products in this process."""
    return SCIPY_DIA if load() is None else COMPILED
