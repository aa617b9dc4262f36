import subprocess
import sys
from pathlib import Path

import cloudpricing


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing the package must not pull it in
    src = str(Path(cloudpricing.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import cloudpricing; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"
