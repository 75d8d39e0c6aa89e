"""Discrete wavelet multiresolution analysis via the pyramid algorithm.

The transform is applied row-wise to a multivariate series with
orthonormal compactly supported filters (Haar and the Daubechies family
up to 10 vanishing moments), built once, at import.
Convolution is valid-only: a coefficient is retained at octave j only if
its filter window covers observed samples exclusively, so retained
coefficients are free of border effects. The alignment convention is
fixed once and for all: output index k at each level corresponds to the
filter window starting at sample 2k of the previous level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Extremal-phase Daubechies scaling filters, generated by spectral
# factorization at 60-digit precision and rounded to float64. Index is the
# number of vanishing moments; filter length is twice that. N=1 is Haar.
_DAUBECHIES_LOWPASS = {
    1: (0.70710678118654752, 0.70710678118654752),
    2: (0.48296291314453414, 0.83651630373780791, 0.22414386804201338,
        -0.12940952255126038),
    3: (0.33267055295008262, 0.80689150931109258, 0.45987750211849157,
        -0.13501102001025459, -0.085441273882026662, 0.035226291885709537),
    4: (0.23037781330889650, 0.71484657055291565, 0.63088076792985891,
        -0.027983769416859854, -0.18703481171909308, 0.030841381835560764,
        0.032883011666885200, -0.010597401785069032),
    5: (0.16010239797419291, 0.60382926979718967, 0.72430852843777293,
        0.13842814590132073, -0.24229488706638203, -0.032244869584638375,
        0.077571493840045714, -0.0062414902127982743, -0.012580751999081999,
        0.0033357252854737713),
    6: (0.11154074335010946, 0.49462389039845309, 0.75113390802109535,
        0.31525035170919763, -0.22626469396543982, -0.12976686756726194,
        0.097501605587323049, 0.027522865530305729, -0.031582039317486030,
        0.00055384220116149614, 0.0047772575109455106, -0.0010773010853084796),
    7: (0.077852054085009179, 0.39653931948191731, 0.72913209084623512,
        0.46978228740519312, -0.14390600392856498, -0.22403618499387498,
        0.071309219266830265, 0.080612609151083072, -0.038029936935014414,
        -0.016574541630666881, 0.012550998556099841, 0.00042957797292136652,
        -0.0018016407040474909, 0.00035371379997452025),
    8: (0.054415842243104010, 0.31287159091429997, 0.67563073629728981,
        0.58535468365420671, -0.015829105256349306, -0.28401554296154693,
        0.00047248457391328277, 0.12874742662047846, -0.017369301001807546,
        -0.044088253930794752, 0.013981027917398282, 0.0087460940474057767,
        -0.0048703529934515743, -0.00039174037337694705, 0.00067544940645056937,
        -0.00011747678412476953),
    9: (0.038077947363878347, 0.24383467461259035, 0.60482312369011111,
        0.65728807805130054, 0.13319738582500758, -0.29327378327917491,
        -0.096840783222976461, 0.14854074933810638, 0.030725681479333379,
        -0.067632829061329974, 0.00025094711483145196, 0.022361662123679097,
        -0.0047232047577513973, -0.0042815036824634298, 0.0018476468830562265,
        0.00023038576352319597, -0.00025196318894271014, 3.9347320316271599e-05),
    10: (0.026670057900555554, 0.18817680007769149, 0.52720118893172559,
         0.68845903945360357, 0.28117234366057746, -0.24984642432731538,
         -0.19594627437737704, 0.12736934033579326, 0.093057364603572351,
         -0.071394147166397087, -0.029457536821875813, 0.033212674059341002,
         0.0036065535669561697, -0.010733175483330575, 0.0013953517470529012,
         0.0019924052951850561, -0.00068585669495971163, -0.00011646685512928545,
         9.3588670320069591e-05, -1.3264202894521245e-05),
}


@dataclass(frozen=True)
class FilterPair:
    """Low/high-pass analysis filter pair; length / 2 vanishing moments."""

    low_pass: np.ndarray
    high_pass: np.ndarray

    @property
    def length(self) -> int:
        return self.low_pass.size


def _filter_pair(lowpass) -> FilterPair:
    u = np.array(lowpass, dtype=np.float64)
    # Quadrature mirror: v_k = (-1)^k u_{L-1-k}
    v = u[::-1].copy()
    v[1::2] *= -1.0
    u.flags.writeable = v.flags.writeable = False  # every caller shares them
    return FilterPair(low_pass=u, high_pass=v)


_FILTERS = {n: _filter_pair(u) for n, u in _DAUBECHIES_LOWPASS.items()}


def make_filter_bank(family: str, n_vanishing: int) -> FilterPair:
    """The analysis filter pair of a wavelet family, built at import.

    family is "haar" (n_vanishing 1 only, the same pair as Daubechies 1) or
    "daubechies" with n_vanishing in 1..10. The arrays are read-only.
    """
    family = family.lower()
    if family not in ("haar", "daubechies"):
        raise ValueError(f"unknown wavelet family {family!r}; use 'haar' or 'daubechies'")
    if family == "haar" and n_vanishing != 1:
        raise ValueError(f"haar has one vanishing moment, got {n_vanishing}")
    if n_vanishing not in _FILTERS:
        raise ValueError(
            f"n_vanishing={n_vanishing} unsupported; Daubechies filters are "
            f"available for 1..10 vanishing moments"
        )
    return _FILTERS[n_vanishing]


def valid_count(n: int, j: int, filter_length: int) -> int:
    """Number of border-free detail coefficients at octave j.

    Follows the recursion n_{j+1} = floor((n_j - L)/2) + 1 started at
    n_0 = n; returns 0 as soon as no full filter window fits.
    """
    if n < 1 or j < 1:
        raise ValueError(f"need n >= 1 and j >= 1, got n={n}, j={j}")
    count = n
    for _ in range(j):
        count = (count - filter_length) // 2 + 1
        if count <= 0:
            return 0
    return count


@dataclass(frozen=True)
class DetailPyramid:
    """Border-free detail coefficients per octave.

    octaves maps j to a p x n_j coefficient matrix for every feasible
    octave from j_min up to the requested depth; counts holds n_j for every
    octave reached, kept or not; truncated is set when the requested depth
    was not reachable.
    """

    octaves: dict[int, np.ndarray]
    counts: dict[int, int]
    truncated: bool

    @property
    def max_octave(self) -> int:
        return max(self.counts)

    def detail(self, j: int) -> np.ndarray:
        if j not in self.octaves:
            raise KeyError(f"octave {j} not kept (octaves {sorted(self.octaves)})")
        return self.octaves[j]


def _analysis_step(a: np.ndarray, low: np.ndarray, high: np.ndarray | None):
    """One valid-only step: (approximation, detail), the detail None when
    high is None; None when no filter window fits."""
    length = low.size
    count = (a.shape[1] - length) // 2 + 1
    if count <= 0:
        return None
    windows = sliding_window_view(a, length, axis=1)[:, : 2 * count - 1 : 2]
    return windows @ low, None if high is None else windows @ high


def pyramid_transform(series: np.ndarray, filter_pair: FilterPair,
                      j_max: int, j_min: int = 1) -> DetailPyramid:
    """Run the pyramid analysis of a p x n series down to octave j_max,
    row-wise, keeping the details of octaves j_min..j_max.

    The approximation sequence at octave 0 is the series itself. Each
    coarser level keeps only coefficients whose filter window lies fully
    inside the previous level, so no sample padding of any kind occurs.
    Octaves below j_min only carry the approximation down; their details
    are never formed. If some octave <= j_max admits no valid coefficient
    the pyramid stops there and is marked truncated. The range and length
    are those check_octave_range accepted: 1 <= j_min <= j_max and n at
    least two filter lengths.
    """
    octaves: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    # One memory layout, so a series read from CSV (column-major) and the
    # same series read from binary give the same bits.
    approx = np.ascontiguousarray(series)
    truncated = False
    for j in range(1, j_max + 1):
        high = filter_pair.high_pass if j >= j_min else None
        step = _analysis_step(approx, filter_pair.low_pass, high)
        if step is None:
            truncated = True
            break
        approx, detail = step
        counts[j] = approx.shape[1]
        if detail is not None:
            octaves[j] = detail
    return DetailPyramid(octaves=octaves, counts=counts, truncated=truncated)
