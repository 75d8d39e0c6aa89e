"""Synthesis of the observation model Y = P X + Z.

X is a latent r-variate self-similar Gaussian process with one Hurst
exponent per coordinate, generated as stationary increments by circulant
matrix embedding and then integrated; P is a p x r mixing matrix with
unit-norm columns; Z is componentwise noise (i.i.d. Gaussian, ARMA, or
absent).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PSD_TOL = 1e-10
UNIT_COLUMN_TOL = 1e-12
CLIP_ENERGY_TOL = 1e-6
# Longest ARMA burn-in a noise model may need: AR roots closer to the unit
# circle than about 1e-5 would otherwise draw and filter without bound
MAX_ARMA_BURN_IN = 2 ** 20
# A block just under the 32 MiB up to which freeing it raises glibc's mmap
# threshold; see _embedding_root
_HEAP_BLOCK_BYTES = 31 << 20
# ARMA noise is filtered in blocks of this many samples, this many at a time
_ARMA_BLOCK = 32
_ARMA_CHUNK = 2048
# Held to look up the embedding root, which a study's threads load once
_ROOT_LOCK = threading.Lock()


@dataclass(frozen=True)
class OfBmSpec:
    """Latent process specification: Hurst exponents and point covariance.

    hurst must be nondecreasing with every entry in (0, 1); point_cov is
    the r x r covariance of the process at unit time, symmetric positive
    semidefinite.
    """

    hurst: tuple
    point_cov: np.ndarray

    def __post_init__(self):
        hurst = tuple(float(h) for h in self.hurst)
        if not hurst:
            raise ValueError("need at least one Hurst exponent")
        if any(not 0.0 < h < 1.0 for h in hurst):
            raise ValueError(f"Hurst exponents must lie in (0, 1), got {hurst}")
        if any(a > b for a, b in zip(hurst, hurst[1:])):
            raise ValueError(f"Hurst exponents must be nondecreasing, got {hurst}")
        cov = np.asarray(self.point_cov, dtype=np.float64)
        r = len(hurst)
        if cov.shape != (r, r):
            raise ValueError(f"point_cov shape {cov.shape} does not match r={r}")
        scale = max(np.abs(cov).max(), 1.0)
        if np.abs(cov - cov.T).max() > PSD_TOL * scale:
            raise ValueError("point_cov is not symmetric")
        if np.any(np.diag(cov) <= 0.0):
            raise ValueError("point_cov must have positive diagonal")
        if np.linalg.eigvalsh(cov).min() < -PSD_TOL * scale:
            raise ValueError("point_cov is not positive semidefinite")
        object.__setattr__(self, "hurst", hurst)
        object.__setattr__(self, "point_cov", cov)

    @property
    def r(self) -> int:
        return len(self.hurst)


@dataclass(frozen=True)
class MixingSpec:
    """Recipe for the p x r coordinates matrix.

    kind is one of "canonical" (first r canonical basis vectors),
    "random_unit_columns" (i.i.d. standard normal entries, columns then
    normalized to unit length), or "explicit" (matrix supplied, unit-norm
    columns required).
    """

    kind: str
    p: int
    r: int
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("canonical", "random_unit_columns", "explicit"):
            raise ValueError(f"unknown mixing kind {self.kind!r}")
        if self.r < 1 or self.p < self.r:
            raise ValueError(f"need p >= r >= 1, got p={self.p}, r={self.r}")
        if self.kind == "explicit":
            if self.matrix is None:
                raise ValueError("explicit mixing requires a matrix")
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.shape != (self.p, self.r):
                raise ValueError(f"mixing matrix shape {m.shape}, expected {(self.p, self.r)}")
            norms = np.linalg.norm(m, axis=0)
            if np.abs(norms - 1.0).max() > UNIT_COLUMN_TOL:
                raise ValueError(f"mixing columns must have unit norm, got {norms}")
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError(f"matrix only valid for kind='explicit', not {self.kind!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Componentwise noise model: "iid_gaussian", "arma" or "none". The
    derived burn_in is how many samples a draw discards: 0 unless ARMA."""

    kind: str
    variance: float = 1.0
    ar: tuple = ()
    ma: tuple = ()
    burn_in: int = field(init=False)

    def __post_init__(self):
        if self.kind not in ("iid_gaussian", "arma", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and self.variance <= 0.0:
            raise ValueError(f"innovation variance must be positive, got {self.variance}")
        object.__setattr__(self, "ar", tuple(float(a) for a in self.ar))
        object.__setattr__(self, "ma", tuple(float(m) for m in self.ma))
        if self.kind != "arma" and (self.ar or self.ma):
            raise ValueError("ar/ma coefficients only valid for kind='arma'")
        burn = 0
        if self.kind == "arma":
            decay = 0.0
            if self.ar:
                # phi(z) = 1 - a_1 z - ... - a_p z^p must have all roots
                # outside the unit circle for stationarity.
                moduli = np.abs(np.roots([-a for a in self.ar[::-1]] + [1.0]))
                if moduli.min() <= 1.0:
                    raise ValueError(f"nonstationary AR polynomial: root magnitudes {moduli}")
                decay = 1.0 / (1.0 - 1.0 / moduli.min())
            burn = max(512, int(np.ceil(10.0 * (len(self.ar) + len(self.ma) + decay))))
            if burn > MAX_ARMA_BURN_IN:
                raise ValueError(
                    f"ARMA burn-in of {burn} samples exceeds the limit of {MAX_ARMA_BURN_IN}: "
                    f"an AR root within about 1e-5 of the unit circle, or over 10^5 coefficients"
                )
        object.__setattr__(self, "burn_in", burn)


@dataclass(frozen=True)
class SynthesisDiagnostics:
    """Embedding quality report for one circulant-embedding synthesis."""

    clipped_energy: float

    @property
    def warning(self) -> str | None:
        """Why the draw is approximate, if it clipped more than CLIP_ENERGY_TOL."""
        if self.clipped_energy > CLIP_ENERGY_TOL:
            return (f"circulant embedding clipped {self.clipped_energy:.3e} relative "
                    f"spectral energy; output covariance is approximate")
        return None


def fgn_cross_covariance(h_a: float, h_b: float, sigma_ab: float, lag):
    """Cross-covariance at the given lag between two fractional Gaussian
    noise coordinates with exponents h_a, h_b and point covariance sigma_ab.

    Takes a scalar lag, giving an np.float64, or an array of lags.
    """
    if not (0.0 < h_a < 1.0 and 0.0 < h_b < 1.0):
        raise ValueError(f"Hurst exponents must lie in (0, 1), got {h_a}, {h_b}")
    k = np.abs(np.asarray(lag, dtype=np.float64))
    e = h_a + h_b
    return 0.5 * sigma_ab * (np.abs(k - 1.0) ** e - 2.0 * k ** e + (k + 1.0) ** e)


def _circulant_spectrum(hurst: tuple, point_cov: np.ndarray, n: int):
    """Spectral r x r matrices of the length-2n circulant embedding.

    Each of the r(r+1)/2 coordinate pairs gets one row: its
    fgn_cross_covariance at lags 0..n, then the even periodic extension to
    length 2n. Its DFT is real and symmetric in frequency, so only the first
    n+1 matrices are decomposed.
    """
    rows, cols = np.triu_indices(len(hurst))
    lags = np.arange(n + 1, dtype=np.float64)
    seq = np.empty((rows.size, 2 * n))
    for out, a, b in zip(seq, rows, cols):
        out[: n + 1] = fgn_cross_covariance(hurst[a], hurst[b], point_cov[a, b], lags)
        out[n + 1:] = out[n - 1:0:-1]
    spectra = np.empty((n + 1, len(hurst), len(hurst)))
    spectra[:, rows, cols] = spectra[:, cols, rows] = np.fft.rfft(seq).real.T
    return spectra


def _factor_embedding_root(hurst: tuple, point_cov: bytes, n: int):
    """Square roots of the embedding's spectral matrices at frequencies
    0..n, and the relative spectral energy clipped to make them."""
    r = len(hurst)
    cov = np.frombuffer(point_cov, dtype=np.float64).reshape(r, r)
    lam, vec = np.linalg.eigh(_circulant_spectrum(hurst, cov, n))  # (n+1, r, r)
    clipped = np.maximum(-lam, 0.0).sum()
    total = np.abs(lam).sum()
    clip_energy = float(clipped / total) if total > 0 else 0.0
    half = vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    return half, clip_energy


@lru_cache(maxsize=1)
def _embedding_root(hurst: tuple, point_cov: bytes, n: int):
    """Square roots of the embedding's spectral matrices at frequencies
    0..n, read-only, and the relative spectral energy clipped to make them.

    Factored once per model and machine and kept on disk by `rootcache`; a
    process loads the exact bytes the factorization wrote, and holds the
    last root for its later draws, which every thread of the process
    shares. Keyed on the bytes of point_cov, since ndarrays do not hash.
    """
    from . import rootcache  # at the first draw: importing eigenwave loads none of it

    # glibc's malloc maps each block above its mmap threshold from fresh
    # pages, and raises the threshold to the size of such a block when it is
    # freed, up to 32 MiB (mallopt(3)). Freeing one block of that size makes
    # a replication's multi-megabyte arrays reuse heap memory: without it a
    # process that loads the fig1 root, and so frees no large temporaries,
    # takes ~4,800 page faults per replication. Under another allocator it
    # costs one allocation. The threshold is per process, but the reuse
    # holds only because the thread that draws allocates the draw's large
    # arrays (draw_latent_normals, draw_observation): the thread that shapes
    # a one-thread study's latent path would use a second glibc arena.
    np.empty(_HEAP_BLOCK_BYTES, dtype=np.uint8)
    path, key = rootcache.entry(hurst, point_cov, n)
    root = rootcache.load(path, key, (n + 1, len(hurst), len(hurst)))
    if root is None:
        root = _factor_embedding_root(hurst, point_cov, n)
        rootcache.store(path, key, *root)
    root[0].flags.writeable = False
    return root


def _normals(shaped: np.ndarray, waves: np.ndarray):
    """The (2n, r) normals eps and eta of a latent draw, as views of the
    transform's output and of the shaped spectrum."""
    r, m = waves.shape
    return waves.reshape(m, r), shaped.reshape(-1)[: m * r].reshape(m, r)


def draw_latent_normals(spec: OfBmSpec, n: int, rng: np.random.Generator):
    """The part of a circulant-embedding draw of n increments that reads rng:
    the embedding root, the draw's normals and its diagnostics.

    Returns (root, buffers, diagnostics), where buffers are the arrays
    shape_increments writes. They are allocated here, on the thread that
    draws, and the normals eps and eta are drawn into two of them, each
    overwritten only after it is folded. n must be a power of two.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    r, m = spec.r, 2 * n
    with _ROOT_LOCK:
        half, clip_energy = _embedding_root(spec.hurst, spec.point_cov.tobytes(), n)
    folded, shaped, waves = np.empty((n + 1, r, 2)), np.empty((n + 1, r, 2)), np.empty((r, m))
    for normals in _normals(shaped, waves):
        rng.standard_normal(out=normals)
    return half, (folded, shaped, waves), SynthesisDiagnostics(clip_energy)


def shape_increments(half: np.ndarray, folded: np.ndarray, shaped: np.ndarray,
                     waves: np.ndarray) -> np.ndarray:
    """Shape the normals draw_latent_normals left in the buffers into the
    r x n increments, a view of waves' first n columns. Reads no generator
    and allocates no array of the buffers' size."""
    m = waves.shape[1]
    n = m // 2
    eps, eta = _normals(shaped, waves)
    # The increments are Re(ifft) of the draw (eps + i eta) / sqrt(2) shaped
    # at all m frequencies, which is the irfft of the shaped draw's Hermitian
    # part. Frequencies k and m - k share half[k], so their draws fold into
    # one: ((eps_k + eps_{m-k}) / 2, (eta_k - eta_{m-k}) / 2) for 0 < k < n,
    # and (eps_k, 0) at k = 0 and n, leaving the sqrt(2) in the scale.
    folded[:, :, 0] = eps[: n + 1]
    folded[1:n, :, 0] += eps[:n:-1]
    np.subtract(eta[1:n], eta[:n:-1], out=folded[1:n, :, 1])
    folded[[0, n], :, 1] = 0.0
    folded[1:n] /= 2.0
    np.matmul(half, folded, out=shaped)
    np.fft.irfft(shaped.view(np.complex128)[..., 0].T, m, out=waves)
    increments = waves[:, :n]
    increments *= np.sqrt(m)
    return increments


def synthesize_ofbm_increments(spec: OfBmSpec, n: int, rng: np.random.Generator):
    """Draw n steps of the stationary increment process by circulant
    matrix embedding.

    Returns (r x n increments, diagnostics). The draw is exact whenever every
    spectral matrix of the embedding is positive semidefinite; otherwise
    negative spectral eigenvalues are clipped to zero and the discarded
    relative energy is reported, with a warning when it is not negligible.
    n must be a power of two.
    """
    half, buffers, diagnostics = draw_latent_normals(spec, n, rng)
    # a copy, which does not keep the transform's other n columns alive
    return shape_increments(half, *buffers).copy(), diagnostics


def cumulative_path(increments: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Integrate an increment series into the self-similar path it spans,
    in out when given."""
    return np.cumsum(increments, axis=1, out=out)


def make_mixing_matrix(spec: MixingSpec, rng: np.random.Generator) -> np.ndarray:
    """Realize the p x r coordinates matrix for a mixing recipe."""
    if spec.kind == "canonical":
        return np.eye(spec.p, spec.r)
    if spec.kind == "explicit":
        return spec.matrix.copy()
    m = rng.standard_normal((spec.p, spec.r))
    return m / np.linalg.norm(m, axis=0)


def _lag_matrix(coefs, rows: int, first: int) -> np.ndarray:
    """(rows, rows - first) matrix whose [k, c] entry is coefs[k - c - first]
    where that lag lies in 0..len(coefs)-1, and 0 elsewhere."""
    lag = np.arange(rows)[:, None] - np.arange(first, rows)
    inside = (lag >= 0) & (lag < len(coefs))
    return np.where(inside, np.asarray(coefs)[np.where(inside, lag, 0)], 0.0)


def _arma_block_operators(ar: tuple, ma: tuple, block: int):
    """The two operators of one block of the ARMA recursion.

    For a block x[s:s+block], x = eps[s:s+block] @ zero_state + carry @
    carried, where carry = (eps[s-nm:s], x[s-na:s]). zero_state is the
    transposed lower-triangular Toeplitz matrix of the impulse response
    psi_0 = 1, psi_k = ma_k + sum_i ar_i psi_{k-i}; carried holds the block's
    response to each carried value with the block's own eps at zero.
    """
    na, nm = len(ar), len(ma)
    phi = _lag_matrix((1.0, *(-a for a in ar)), block, -na)  # on x[s-na:s+block]
    theta = _lag_matrix((1.0, *ma), block, -nm)  # on eps[s-nm:s+block]
    # phi x = theta eps over the block, solved for the block's own x
    sol = np.linalg.solve(phi[:, na:],
                          np.hstack([theta[:, nm:], theta[:, :nm], -phi[:, :na]]))
    return sol[:, :block].T.copy(), sol[:, block:].T.copy()


def _arma_filter(eps: np.ndarray, ar: tuple, ma: tuple) -> None:
    """Overwrite each row of eps with x_t = eps_t + sum_i ar_i x_{t-i} +
    sum_i ma_i eps_{t-i}, started at rest (x and eps zero before t = 0).

    Blocks of _ARMA_BLOCK samples (or the longer order) are filtered a chunk
    at a time: one batched product gives every block's zero-state response,
    and only the carried state steps from block to block.
    """
    p, total = eps.shape
    na, nm = len(ar), len(ma)
    block = max(_ARMA_BLOCK, na, nm)
    zero_state, carried = _arma_block_operators(ar, ma, block)
    tail = carried[:, block - na:]  # the carry's effect on the block's last na values
    carry = np.zeros((p, nm + na))
    step = block * max(1, _ARMA_CHUNK // block)
    for start in range(0, total, step):
        width = min(step, total - start)
        blocks = -(-width // block)
        chunk = eps[:, start:start + width]
        if width < blocks * block:  # the last chunk, padded to whole blocks
            chunk = np.hstack([chunk, np.zeros((p, blocks * block - width))])
        chunk = chunk.reshape(p, blocks, block)
        x = chunk @ zero_state
        carries = np.empty((p, blocks + 1, nm + na))
        carries[:, 0] = carry
        carries[:, 1:, :nm] = chunk[:, :, block - nm:]
        for b in range(blocks):
            carries[:, b + 1, nm:] = x[:, b, block - na:] + carries[:, b] @ tail
        x += (carries[:, :-1].reshape(p * blocks, nm + na) @ carried).reshape(x.shape)
        eps[:, start:start + width] = x.reshape(p, -1)[:, :width]
        carry = carries[:, -1]


def synthesize_noise(spec: NoiseSpec, p: int, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw p independent noise rows of length n."""
    if spec.kind == "none":
        return np.zeros((p, n))
    sd = np.sqrt(spec.variance)
    x = rng.standard_normal((p, n + spec.burn_in))
    x *= sd  # in place: the same bits as sd * x, without a second array
    if spec.burn_in:
        _arma_filter(x, spec.ar, spec.ma)
    return x[:, spec.burn_in:]


def assemble_observations(mixing: np.ndarray, latent: np.ndarray,
                          noise: np.ndarray) -> np.ndarray:
    """Combine latent signal and noise: Y = P X + Z."""
    # The same bits as mixing @ X + Z; Z is left as it is, since callers
    # return and write it beside Y.
    y = mixing @ latent
    y += noise
    return y


def _shape_path(half, buffers, latent) -> None:
    cumulative_path(shape_increments(half, *buffers), out=latent)


def draw_observation(config, index: int, executor=None):
    """Draw realization `index` of a study's model, Y = P X + Z, from the
    generator seeded with (master seed, index); config is a config.McConfig,
    read by field name.

    The generator is read on the calling thread only, in one order: the
    latent normals, P, then Z. Given an executor, the latent path is shaped
    on one of its threads while this one draws P and Z; the draw is the
    same either way.

    Returns (Y, X, Z, P, synthesis diagnostics).
    """
    rng = np.random.default_rng([config.master_seed, index])
    half, buffers, diagnostics = draw_latent_normals(config.model, config.n, rng)
    latent = np.empty((config.model.r, config.n))
    if executor is None:
        shaping = None
        _shape_path(half, buffers, latent)
    else:
        shaping = executor.submit(_shape_path, half, buffers, latent)
    del buffers  # so they are freed once shaped, before Y is allocated
    mixing_spec = MixingSpec(config.mixing_kind, config.p, config.model.r,
                             config.mixing_matrix)
    mixing = make_mixing_matrix(mixing_spec, rng)
    noise = synthesize_noise(config.noise, config.p, config.n, rng)
    if shaping is not None:
        shaping.result()
    observed = assemble_observations(mixing, latent, noise)
    return observed, latent, noise, mixing, diagnostics
