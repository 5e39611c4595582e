"""One set-up step of the benchmark, run in a process of its own.

Imports the whole ringlab program, as the ``ring`` command does, then
fills the invariant cache (``RINGLAB_CACHE``) for each expression given:

    python3 perfbench/setup_child.py ["t(2,z(16))" ...]

It probes the host's speed while it works (see ``hostspeed.py``) and
prints the probe times and the seconds they took as one JSON line.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(texts: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.start()
    sys.path.insert(0, str(HERE.parent / "src"))
    from ringlab import cache, cli  # noqa: F401  (cli: import all that `ring` imports)
    from ringlab.expr import compile_text

    for text in texts:
        cache.get_or_compute(compile_text(text))
    samples, spent = speed.stop()
    print(json.dumps({"samples": samples, "spent": spent}))


if __name__ == "__main__":
    main(sys.argv[1:])
