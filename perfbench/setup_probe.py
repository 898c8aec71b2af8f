"""One fresh-interpreter set-up, timed from outside by `run.py`.

Does everything a campaign process does before its first campaign:
imports the CLI (and with it numpy and every `ifir_cdma` module the
campaign path needs) and builds and validates the workload's scenario
configs.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ifir_cdma import cli  # noqa: E402,F401  (the import is what is being timed)
from ifir_cdma.harness import ALGORITHMS, ScenarioConfig  # noqa: E402
from workloads import scenarios  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    for doc in scenarios(workload, ALGORITHMS, seed, smoke="--smoke" in sys.argv[3:]).values():
        ScenarioConfig.from_dict(doc)   # __post_init__ validates
