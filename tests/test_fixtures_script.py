import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts/fixtures.py"


def test_src_without_the_package_rejected(tmp_path):
    # the runs would otherwise import whatever eigenwave is installed
    missing = tmp_path / "no-such-src"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(tmp_path / "out"),
                           "--src", str(missing)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"error: no eigenwave package under {missing}\n")
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()
