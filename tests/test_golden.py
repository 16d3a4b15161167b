"""The tiny fingerprint is pinned: any change to the model's bits fails here.

`tools/fingerprint.py` runs W1-W4 x seeds 1-2 on the two tiny configs of
`test_tools.py` (16 and 45 frames), and every field (the series, the
predictions, the loss, each gradient, each layer's op count, the tape size
and the checkpoint bytes) must equal `data/fingerprint_tiny.json`.  A mismatch
prints the differing fields as `fingerprint.py --compare` does.  The pin
rests on the numpy and BLAS it was recorded with (`_env`); on another one
the test fails and names both.

A change that moves bits on purpose re-records the pin with

    python3 tests/test_golden.py

and says in CHANGES.md which fields moved and why.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from test_tools import FIXTURES, tiny_fingerprint  # noqa: E402

PIN = FIXTURES / "fingerprint_tiny.json"


def record() -> dict:
    fp = tiny_fingerprint()
    return {fp.ENV_KEY: fp.environment(), **fp.run(ROOT)}


def test_tiny_fingerprint_matches_pin(tmp_path, capsys):
    fp = tiny_fingerprint()
    pinned = json.loads(PIN.read_text())
    env = fp.environment()
    assert pinned[fp.ENV_KEY] == env, (
        f"the pin was recorded on {pinned[fp.ENV_KEY]}, this is {env}: its bits may rest "
        f"on those versions; re-record it with 'python3 tests/test_golden.py'")
    now = tmp_path / "now.json"
    now.write_text(json.dumps(record()))
    capsys.readouterr()
    differs = fp.compare(str(PIN), str(now))
    assert differs == 0, capsys.readouterr().out


if __name__ == "__main__":
    PIN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN}")
