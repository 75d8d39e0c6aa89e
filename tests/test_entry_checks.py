"""Library entry points reject a bad argument with their own message.

The CLI's schema rejects these values before any of them is called, so only
a caller of the library reaches the checks below.
"""
from functools import partial

import numpy as np
import pytest

from eigenwave.config import PRESETS, ConfigError, preset_config
from eigenwave.estimators import regression_weights
from eigenwave.simulate import MixingSpec, NoiseSpec, OfBmSpec
from eigenwave.special import chi2_quantile
from eigenwave.wavelets import valid_count

REJECTIONS = [
    pytest.param(partial(OfBmSpec, (), np.eye(1)), ValueError,
                 "need at least one Hurst exponent", id="ofbm-no-hurst"),
    pytest.param(partial(OfBmSpec, (0.3, 0.7), np.eye(3)), ValueError,
                 "point_cov shape (3, 3) does not match r=2", id="ofbm-point-cov-shape"),
    pytest.param(partial(MixingSpec, "diagonal", 3, 2), ValueError,
                 "unknown mixing kind 'diagonal'", id="mixing-kind"),
    pytest.param(partial(NoiseSpec, "pink"), ValueError,
                 "unknown noise kind 'pink'", id="noise-kind"),
    pytest.param(partial(NoiseSpec, "iid_gaussian", variance=0.0), ValueError,
                 "innovation variance must be positive, got 0.0", id="noise-variance"),
    pytest.param(partial(chi2_quantile, 0, 0.5), ValueError,
                 "degrees of freedom must be >= 1, got 0", id="chi2-quantile-dof"),
    pytest.param(partial(regression_weights, 2, 5, [4, 3, 2, 1], "linear"), ValueError,
                 "unknown weight scheme 'linear'", id="weight-scheme"),
    pytest.param(partial(valid_count, 0, 1, 4), ValueError,
                 "need n >= 1 and j >= 1, got n=0, j=1", id="valid-count-n"),
    pytest.param(partial(valid_count, 64, 0, 4), ValueError,
                 "need n >= 1 and j >= 1, got n=64, j=0", id="valid-count-j"),
    pytest.param(partial(preset_config, "fig2"), ConfigError,
                 f"unknown preset 'fig2'; available: {sorted(PRESETS)}", id="preset"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_rejects_with_its_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
