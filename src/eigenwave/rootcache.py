"""On-disk cache of the circulant embedding's spectral square roots.

A root depends only on the model, n and the machine's arithmetic, so it is
factored once per machine and kept in `$XDG_CACHE_HOME/eigenwave` (default
`~/.cache/eigenwave`), one `.npz` file per key. `simulate._embedding_root`
loads this module at its first draw, so importing eigenwave reads none of
it. Every path is silent: a missing, unreadable, corrupt or foreign file is
a miss, and a failed write leaves the caller's root in use.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile

import numpy as np

# Version of the file layout below; part of every key
FORMAT = 1


def _kernel_digest() -> str:
    """Digest of the power, FFT and eigensolver results on one fixed input:
    machines whose kernels round differently factor different roots."""
    probe = np.arange(1.0, 65.0) ** 0.37
    pair = np.add.outer(probe[:6], probe[6:12])
    lam, vec = np.linalg.eigh(np.stack([pair + pair.T, pair * pair.T]))
    return hashlib.sha256(b"".join(
        a.tobytes() for a in (probe, np.fft.rfft(probe), lam, vec))).hexdigest()


def entry(hurst: tuple, point_cov: bytes, n: int) -> tuple:
    """(path, key) of the root for this model and n on this machine. The key
    holds everything the root's bits depend on, and the file stores it too."""
    key = repr((FORMAT, hurst, point_cov.hex(), n, np.__version__, _kernel_digest()))
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):  # unset, empty or relative: the XDG default
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    name = hashlib.sha256(key.encode()).hexdigest() + ".npz"
    return os.path.join(cache, "eigenwave", name), key


def load(path: str, key: str, shape: tuple):
    """The root and clipped energy stored at path under key, or None when
    the file is missing, unreadable, corrupt (zip checks every member's
    CRC-32 as it is read) or stored under another key or shape."""
    try:
        # np.load leaves a file it opened unclosed when the zip is invalid
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as stored:
            if str(stored["key"]) != key:
                return None
            half, clip_energy = stored["root"], stored["clip_energy"]
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    if (half.dtype != np.float64 or half.shape != shape or not half.flags.c_contiguous
            or clip_energy.dtype != np.float64 or clip_energy.shape != ()):
        return None
    return half, float(clip_energy)


def store(path: str, key: str, half: np.ndarray, clip_energy: float) -> None:
    """Write the root to path through a temporary file in its directory, so
    no reader sees a partial file; a torn file fails its CRC on load. A
    failed write is dropped, and the next process factors the root again."""
    folder = os.path.dirname(path)
    try:
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, key=np.str_(key), root=half, clip_energy=np.float64(clip_energy))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass
