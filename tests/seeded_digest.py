"""One SHA-256 over a matrix of seeded campaigns, to show that a change
keeps every algorithm's outputs byte for byte.

Run it as ``python tests/seeded_digest.py`` on two trees and compare the
printed lines.  It is not a pytest module: the digest has no expected
value of its own, only the other tree's.  The first line digests the
whole matrix; one line per algorithm follows, digesting that
algorithm's 44 campaigns alone, so a change that moves one algorithm by
design can show that the others kept their bytes.  Last come two lines
per algorithm, one per half of its campaigns ("plain", and
"decision-directed" or "tracked", see below), 22 campaigns each, so a
change that moves only tracked runs, say, can show that the plain ones
kept theirs.  Then one line per variant of the scenario (below), 28
campaigns each, so a change that moves only static links, say, can show
that the faded ones kept theirs.

The matrix is every algorithm in `harness.ALGORITHMS` under 11 variants
of the default scenario:

* default,
* L=4, N_I=4,
* L=1, N_I=1,
* L=3, N_I=2,
* N=63, K=4, l_p=8,
* f_dt=1e-3,
* f_dt=0.05,
* fixed delays [0, 2, 4] with the linear interpolator start,
* log-normal interferers with an 8 dB spread,
* frozen interpolator,
* unnormalised steps, mu0=0.01 and eta0=0.005,

each run plainly and once more in decision-directed mode (trained
receivers) or with a tracked channel (blind receivers), at 300 and 256
symbols, with runs=2 and seed=5: 7 x 11 x 2 x 2 = 308 campaigns.  Each
campaign adds the bytes of its `mse`, `sinr_db` and `ber` series and its
breakdown count to the digest, or the name of the error it raised.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ifir_cdma import harness  # noqa: E402

VARIANTS = (
    {},
    {"l": 4, "n_i": 4},
    {"l": 1, "n_i": 1},
    {"l": 3, "n_i": 2},
    {"n": 63, "k": 4, "l_p": 8},
    {"f_dt": 1e-3},
    {"f_dt": 0.05},
    {"path_delays": [0, 2, 4], "interpolator_init": "linear"},
    {"interferer_sigma_db": 8.0},
    {"freeze_interpolator": True},
    {"normalized_steps": False, "mu0": 0.01, "eta0": 0.005},
)
SYMBOLS = (300, 256)


def label(variant: dict) -> str:
    """A variant's fields as key=value pairs, "default" for none."""
    return " ".join(f"{key}={value}" for key, value in variant.items()) or "default"


def campaigns():
    """Every (algorithm, half, variant label, scenario document) of the
    matrix, in a fixed order."""
    for alg in harness.ALGORITHMS:
        blind = alg.startswith("cmv")
        plain = {"mode": "blind" if blind else "training"}
        other = {**plain, "known_channel": False} if blind else {"mode": "decision-directed"}
        halves = (("plain", plain), ("tracked" if blind else "decision-directed", other))
        for variant in VARIANTS:
            for half, mode in halves:
                for symbols in SYMBOLS:
                    doc = {"algorithm": alg, "runs": 2, "seed": 5, "symbols": symbols,
                           **mode, **variant}
                    yield alg, half, label(variant), doc


def main() -> None:
    digest = hashlib.sha256()
    per_alg = {alg: hashlib.sha256() for alg in harness.ALGORITHMS}
    per_half, per_variant = {}, {}
    count, half_count, variant_count = Counter(), Counter(), Counter()
    for alg, half, variant, doc in campaigns():
        parts = [repr(sorted(doc.items())).encode()]
        try:
            s = harness.run_campaign(harness.ScenarioConfig.from_dict(doc))
        except np.linalg.LinAlgError as exc:
            parts.append(type(exc).__name__.encode())
        else:
            parts += [series.tobytes() for series in (s.mse, s.sinr_db, s.ber)]
            parts.append(int(s.metadata["breakdowns"]).to_bytes(8, "little"))
        digests = (digest, per_alg[alg], per_half.setdefault((alg, half), hashlib.sha256()),
                   per_variant.setdefault(variant, hashlib.sha256()))
        for part in parts:
            for d in digests:
                d.update(part)
        count[alg] += 1
        half_count[alg, half] += 1
        variant_count[variant] += 1
    print(f"{count.total()} campaigns sha256 {digest.hexdigest()}")
    for alg, alg_digest in per_alg.items():
        print(f"{alg}: {count[alg]} campaigns sha256 {alg_digest.hexdigest()}")
    for (alg, half), half_digest in per_half.items():
        print(f"{alg} {half}: {half_count[alg, half]} campaigns sha256 {half_digest.hexdigest()}")
    for variant, variant_digest in per_variant.items():
        print(f"{variant}: {variant_count[variant]} campaigns sha256 "
              f"{variant_digest.hexdigest()}")


if __name__ == "__main__":
    main()
