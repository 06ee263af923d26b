"""Regenerate ``reference.json``: expected outputs and the nominal probe.

Run from the checkout root on the reference host, with nothing else
running::

    PYTHONPATH=src python3 perfbench/make_reference.py

The digests are the sha256 of each registry experiment's canonical
pickle from a cold serial run at the paper seed (the ``digest`` a
served reply carries).  Changing them, or the probe's nominal time,
re-bases every later comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import REFERENCE_PATH  # noqa: E402
from probe import calibrate  # noqa: E402


def main() -> int:
    probe = calibrate()
    from repro.experiments import EXPERIMENTS, Lab
    from repro.experiments.engine import pickle_result

    lab = Lab(seed=2015)
    digests = [hashlib.sha256(pickle_result(fn(lab))).hexdigest()
               for fn in EXPERIMENTS.values()]
    payload = {
        "experiments": list(EXPERIMENTS),
        "digests": digests,
        "probe": probe,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(json.dumps(probe))
    return 0


if __name__ == "__main__":
    sys.exit(main())
