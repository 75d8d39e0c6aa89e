"""Shared test set-up for `tests/` and `perfbench/`."""
import pytest


@pytest.fixture(scope="session", autouse=True)
def private_root_cache(tmp_path_factory):
    """Point the embedding-root cache at a directory of this test session,
    so the tests, and the subprocesses they start, which inherit the
    variable, never read or fill the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
