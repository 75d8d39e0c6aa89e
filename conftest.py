"""Shared test set-up for `tests/` and `perfbench/`."""
import os

# One BLAS thread, as the CLI runs: set before anything imports numpy, whose
# OpenBLAS reads these when it loads. Subprocesses inherit them; a value
# already in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def private_root_cache(tmp_path_factory):
    """Point the embedding-root cache at a directory of this test session,
    so the tests, and the subprocesses they start, which inherit the
    variable, never read or fill the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
