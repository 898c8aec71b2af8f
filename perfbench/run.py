"""Campaign benchmark for `ifir_cdma`.

Runs the package's CLI in-process (`ifir_cdma.cli.main`), once per
algorithm in `harness.ALGORITHMS`, on one seeded workload from
`workloads.py`.  Campaigns run one after another in this single process
with `--workers 1`: a closed loop with one caller.  Run from the
repository root:

    python3 perfbench/run.py --workload static-long --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics: interleaved rounds of the
seven campaigns until `--seconds` have passed (at least MIN_ROUNDS),
reporting per-algorithm medians, plus set-up time and peak memory.
Campaign and set-up times are scaled to nominal host speed by a
reference kernel timed next to each of them (see `ReferenceKernel`).
`--trace 1` runs each campaign once untraced and once under the
outside-in tracer (`tracer.py`) and reports the per-layer metrics.

Each campaign is one operation.  It passes when the CLI exits 0, its
JSON export parses, every series holds `symbols` finite entries, and its
final SINR repeats bit for bit: across rounds, and between the traced
and the untraced run.  The last stdout line is the JSON result; lines
before it, starting with '#', are the human-readable report.
"""

import os

# Pin BLAS/OpenMP pools to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, scenarios  # noqa: E402

MIN_ROUNDS = 3
SETUP_PROBES = 7
WARMUP_SYMBOLS = 64
MODULES = ("signal_model", "interpolation", "adaptive", "cmv", "mmse", "analysis",
           "harness", "cli")
LAYERS = ("signal_model", "interpolation", "adaptive", "cmv", "harness")
STEP_ALGORITHMS = ("lms", "rls", "cmv-sg", "cmv-rls")
# Spans that only occur once a trial's symbol loop has started.
PER_SYMBOL_MARKERS = ("signal_model.fading_step", "interpolation.build_re_matrix",
                      "interpolation.detect")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


@dataclass
class Campaign:
    wall_s: float
    sinr_db: float | None
    problem: str | None

    @property
    def ok(self) -> bool:
        return self.problem is None


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def import_package():
    """Import `ifir_cdma` from this checkout's `src`, and only from there."""
    pkg_dir = SRC / "ifir_cdma"
    if not (pkg_dir / "__init__.py").is_file():
        raise BenchError(f"no ifir_cdma sources at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {name: importlib.import_module(f"ifir_cdma.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != pkg_dir.resolve():
        raise BenchError(f"imported ifir_cdma from {mods['cli'].__file__}, not {pkg_dir}")
    return mods


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, np) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ifir_cdma").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "pinned_cpu": min(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "workers": 1,
    }


def setup_probe_s(args) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return wall


class ReferenceKernel:
    """Fixed CPU work timed next to every measurement, to factor out host speed.

    On a shared virtual machine the same campaign runs up to ~2x slower
    for a fraction of a second to minutes at a time, in CPU time as much
    as in wall time, and each vCPU changes speed on its own: single
    campaign times spread by 30-55 % (quartile distance over median), and
    per-run medians by up to ~25 % between runs.  The kernel repeats
    the measured work's dominant operation, so it slows down with it, and
    `scale()` turns a wall time taken next to it into the time on a host
    where the kernel takes its nominal time:

    * "loop": the receivers' pattern, small complex matrix-vector
      products and a rank-one inverse update driven from a Python loop;
    * "fft": forward and inverse FFTs of a complex block, as FadingProcess
      does when it synthesises fading.  The block is 2^16 samples, not
      the 2^20 the program uses, so the kernel adds nothing to peak RSS.

    Nominal times are round figures near the kernels' fastest times seen
    on the host the benchmark was written on (2-vCPU Xeon, Sapphire
    Rapids); they only fix the unit.  The kernel is part of the
    benchmark, so no change to the program can move it.
    """

    NOMINAL_S = {"loop": 0.008, "fft": 0.013}
    LOOP_ITERATIONS = 1000
    LOOP_DIM = 18   # M/L of the default scenario
    FFT_SIZE = 1 << 16
    FFT_REPEATS = 5

    def __init__(self, kind: str):
        import numpy as np

        self.np = np
        self.nominal_s = self.NOMINAL_S[kind]
        self._run = self._loop if kind == "loop" else self._fft
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(self.LOOP_DIM) + 1j * rng.standard_normal(self.LOOP_DIM)
        self.block = rng.standard_normal(self.FFT_SIZE) + 1j * rng.standard_normal(self.FFT_SIZE)
        self.samples: list[float] = []
        self.seconds()   # warm-up, not kept
        self.samples.clear()

    def _loop(self) -> None:
        np, x = self.np, self.x
        p = np.eye(self.LOOP_DIM, dtype=complex)
        for _ in range(self.LOOP_ITERATIONS):
            y = p @ x
            g = y / (1.0 + np.real(np.vdot(x, y)))
            p = (p - np.outer(g, y.conj())) * 0.999

    def _fft(self) -> None:
        for _ in range(self.FFT_REPEATS):
            self.np.fft.ifft(self.np.fft.fft(self.block))

    def seconds(self) -> float:
        """Median time of three kernel runs: robust to a run being interrupted."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def scale(self, measure):
        """Run `measure()` between two kernel timings; return (result, scale factor).

        The factor, nominal over mean adjacent kernel time, converts a wall
        time taken by `measure` to nominal host speed.
        """
        before = self.seconds()
        result = measure()
        after = self.seconds()
        return result, self.nominal_s / (0.5 * (before + after))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def check_export(path: Path, doc: dict) -> tuple[float | None, str | None]:
    """Final SINR and the first problem found in one campaign's JSON export."""
    try:
        with open(path) as fh:
            exported = json.load(fh)
        series = exported["series"]
        sinr = exported["summary"]["final_sinr_db"]
        meta = exported["metadata"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"export unreadable: {exc!r}"
    n = doc["symbols"]
    for key in ("iteration", "mse", "sinr_db", "ber"):
        values = series.get(key)
        if not isinstance(values, list) or len(values) != n:
            return None, f"series {key} does not hold {n} entries"
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in values):
            return None, f"series {key} has a non-finite entry"
    if not (isinstance(sinr, float) and math.isfinite(sinr)):
        return None, f"final SINR {sinr!r} is not finite"
    if meta.get("algorithm") != doc["algorithm"] or meta.get("runs_averaged") != doc["runs"]:
        return None, "export metadata does not match the scenario"
    return sinr, None


def run_campaign(mods, alg: str, doc: dict, work: Path) -> Campaign:
    """One CLI campaign, timed from argv to the written export."""
    cfg_path = work / f"{alg}.json"
    out_path = work / f"{alg}.out.json"
    cfg_path.write_text(json.dumps(doc))
    out_path.unlink(missing_ok=True)
    argv = ["--config", str(cfg_path), "--out", str(out_path), "--format", "json",
            "--seed", str(doc["seed"]), "--workers", "1"]
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = mods["cli"].main(argv)   # looked up per call, so a traced main is used
    except Exception:
        return Campaign(time.perf_counter() - t0, None,
                        "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1])
    wall = time.perf_counter() - t0
    if code != 0:
        return Campaign(wall, None, f"exit code {code}: {err.getvalue().strip()[-300:]}")
    sinr, problem = check_export(out_path, doc)
    return Campaign(wall, sinr, problem)


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def warm_up(mods, docs: dict, work: Path) -> None:
    """One tiny static campaign per algorithm: lazy imports, caches, code paths."""
    for alg, doc in docs.items():
        tiny = {**doc, "runs": 1, "symbols": WARMUP_SYMBOLS, "f_dt": 0.0}
        run_campaign(mods, alg, tiny, work)


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(args, mods, docs: dict, work: Path) -> tuple[dict, int, int]:
    """Interleaved rounds of the campaigns, each between two reference-kernel runs.

    One set-up probe runs before every round, topped up to SETUP_PROBES
    at the end, so the set-up median samples the whole run.  Set-up
    times are scaled with the "loop" kernel, campaign times with the
    workload's kernel.
    """
    setup_kernel = ReferenceKernel("loop")
    kind = WORKLOADS[args.workload]["reference"]
    kernel = setup_kernel if kind == "loop" else ReferenceKernel(kind)
    warm_up(mods, docs, work)
    rates = {alg: [] for alg in docs}       # symbols per second at nominal host speed
    raw_rates = {alg: [] for alg in docs}
    setups, raw_setups = [], []
    final_sinr = {}
    attempted = failed = rounds = 0

    def probe():
        wall, factor = setup_kernel.scale(lambda: setup_probe_s(args))
        raw_setups.append(wall)
        setups.append(wall * factor)

    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        probe()
        for alg, doc in docs.items():
            c, factor = kernel.scale(lambda: run_campaign(mods, alg, doc, work))
            if c.ok:
                final_sinr.setdefault(alg, c.sinr_db)
                if not same_bits(c.sinr_db, final_sinr[alg]):
                    c.problem = (f"final SINR {c.sinr_db!r} differs from the first "
                                 f"round's {final_sinr[alg]!r}")
            attempted += 1
            if c.ok:
                raw_rates[alg].append(doc["runs"] * doc["symbols"] / c.wall_s)
                rates[alg].append(raw_rates[alg][-1] / factor)
            else:
                failed += 1
                log(f"FAILED {alg} round {rounds}: {c.problem}")
        rounds += 1
        # Stop when another round would end past --seconds by more than half of it.
        round_s = time.perf_counter() - t_round
        if rounds >= MIN_ROUNDS and time.perf_counter() - t_start + round_s / 2 > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        probe()

    ks = kernel.samples
    log(f"{rounds} rounds of {len(docs)} campaigns in {time.perf_counter() - t_start:.1f} s; "
        f"'{kind}' kernel median {statistics.median(ks) * 1e3:.1f} ms "
        f"(min {min(ks) * 1e3:.1f}, max {max(ks) * 1e3:.1f}, nominal {kernel.nominal_s * 1e3:.0f})")
    log(f"set-up: median {statistics.median(setups):.4f} s at nominal speed, "
        f"{statistics.median(raw_setups):.4f} s raw, of {len(setups)} fresh interpreters")
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for alg in docs:
        value = statistics.median(rates[alg]) if rates[alg] else 0.0
        metrics[f"symbols_per_s.{alg}"] = (value, "1/s")
        raw = statistics.median(raw_rates[alg]) if raw_rates[alg] else math.nan
        log(f"{alg:8s} {value:9.1f} symbols/s at nominal speed, {raw:9.1f} raw  "
            f"({len(rates[alg])} campaigns)  final SINR {final_sinr.get(alg, math.nan):.3f} dB")
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

def _count_fading(tracer: Tracer, proc) -> None:
    """After each FadingProcess.next_gain: one sample used, maybe a new block made."""
    tracer.counters["fading.used"] += 1
    if proc._pos == 1:   # the call just synthesised a fresh block
        tracer.counters["fading.synthesized"] += proc._block.size


def drain_symbols(mods, doc: dict, tracer: Tracer | None) -> tuple[float, int]:
    """Drain `harness.iter_symbols` for every run of the campaign.

    Returns the time spent after each run's first symbol (so link
    construction is excluded) and the number of symbols it covers.  With
    a tracer, that part of each run is also one 'bench.drain' span.
    """
    import numpy as np

    harness = mods["harness"]
    cfg = harness.ScenarioConfig.from_dict(doc)
    # The run seeds `harness.run_campaign` spawns from the scenario seed.
    seeds = [s.generate_state(1)[0] for s in np.random.SeedSequence(cfg.seed).spawn(cfg.runs)]
    total = 0.0
    covered = 0
    for seed in seeds:
        gen = harness.iter_symbols(cfg, int(seed))
        next(gen)
        t0 = time.perf_counter()
        if tracer is None:
            for _ in gen:
                pass
        else:
            with tracer.span("bench.drain"):
                for _ in gen:
                    pass
        total += time.perf_counter() - t0
        covered += cfg.symbols - 1
    return total, covered


def traced(args, mods, docs: dict, work: Path) -> tuple[dict, int, int, Tracer]:
    import numpy as np

    warm_up(mods, docs, work)
    package = mods["cli"].__name__.rsplit(".", 1)[0]
    modules = [mods[name] for name in MODULES]
    tracer = Tracer()
    keep = ("adaptive.make_trained_rls", "adaptive.make_blind_rls")
    plain, under_trace = {}, {}
    attempted = failed = traced_failed = 0
    for alg, doc in docs.items():
        ref = run_campaign(mods, alg, doc, work)
        with tracer.installed(modules, package, keep=keep):
            tracer.after_call(mods["signal_model"].FadingProcess, "next_gain", _count_fading)
            with tracer.span(f"campaign:{alg}"):
                c = run_campaign(mods, alg, doc, work)
        if c.ok and ref.ok and not same_bits(c.sinr_db, ref.sinr_db):
            c.problem = f"traced final SINR {c.sinr_db!r} != untraced {ref.sinr_db!r}"
        plain[alg], under_trace[alg] = ref, c
        for run in (ref, c):
            attempted += 1
            if not run.ok:
                failed += 1
                log(f"FAILED {alg}: {run.problem}")
        traced_failed += not c.ok

    doc0 = next(iter(docs.values()))
    synth_s, synth_n = drain_symbols(mods, doc0, None)
    drain_tracer = Tracer()
    with drain_tracer.installed(modules, package):
        drain_symbols(mods, doc0, drain_tracer)
    d = drain_tracer.table()
    drain_id = drain_tracer.names.index("bench.drain")
    drain_self_ns = float(d["self"][d["name"] == drain_id].sum()) / synth_n

    t = tracer.table()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(name, root_alg=None):
        mask = t["name"] == ids.get(name, -1)
        if root_alg is not None:
            mask &= t["root"] == root_of[root_alg]
        return mask

    def mean(values, scale):
        return float(values.mean()) * scale if values.size else 0.0

    root_of = {alg: int(np.flatnonzero(t["name"] == ids[f"campaign:{alg}"])[0]) for alg in docs}
    symbols = doc0["runs"] * doc0["symbols"]
    cfg = mods["harness"].ScenarioConfig.from_dict(doc0)
    m = {}

    # signal_model
    m["signal_model.synth_us_per_symbol"] = (synth_s / synth_n * 1e6, "us")
    m["signal_model.make_channel_s"] = (mean(t["dur"][sel("signal_model.make_channel")], 1e-9), "s")
    used = tracer.counters["fading.used"]
    m["signal_model.fading_samples_per_used"] = (
        tracer.counters["fading.synthesized"] / used if used else 0.0, "ratio")

    # interpolation
    for alg in docs:
        m[f"interpolation.re_builds_per_symbol.{alg}"] = (
            int(sel("interpolation.build_re_matrix", alg).sum()) / symbols, "count")
    m["interpolation.build_re_matrix_us"] = (
        mean(t["self"][sel("interpolation.build_re_matrix")], 1e-3), "us")

    # adaptive: measured step cost against the computed operation count
    step_us, mults = {}, {}
    for alg in STEP_ALGORITHMS:
        step_us[alg] = mean(t["dur"][sel(f"adaptive.{alg.replace('-', '_')}_step", alg)], 1e-3)
        mults[alg] = mods["analysis"].complexity_count(
            f"{alg}-int", m=cfg.m, l=cfg.l, n_i=cfg.n_i, l_p=cfg.l_p)[1]
    for alg in STEP_ALGORITHMS:
        m[f"adaptive.step_us.{alg}"] = (step_us[alg], "us")
    for alg in STEP_ALGORITHMS:
        m[f"adaptive.mults_per_symbol.{alg}"] = (mults[alg], "mult_computed")
    for alg in STEP_ALGORITHMS:
        m[f"adaptive.mmult_per_s.{alg}"] = (mults[alg] / step_us[alg] if step_us[alg] else 0.0,
                                           "Mmult/s")
    pairs = [(a, b) for i, a in enumerate(STEP_ALGORITHMS) for b in STEP_ALGORITHMS[i + 1:]]
    agree = sum((step_us[a] < step_us[b]) == (mults[a] < mults[b]) for a, b in pairs)
    m["adaptive.step_rank_concordance"] = (agree / len(pairs), "share")
    states = tracer.kept["adaptive.make_trained_rls"] + tracer.kept["adaptive.make_blind_rls"]
    m["adaptive.breakdowns"] = (sum(st.breakdowns for st in states), "count")

    # cmv
    m["cmv.build_constraints_s"] = (mean(t["dur"][sel("cmv.build_constraints")], 1e-9), "s")

    # harness: trial set-up, symbol-loop self time, reduction, export
    trials = np.flatnonzero(sel("harness.run_trial"))
    loop_start = np.zeros_like(t["start"])
    loop_start[trials] = t["end"][trials]          # a trial without symbols has no loop
    marker = np.isin(t["name"], [ids[n] for n in PER_SYMBOL_MARKERS if n in ids])
    marker &= np.isin(t["parent"], trials)
    first_parent, first_idx = np.unique(t["parent"][marker], return_index=True)
    loop_start[first_parent] = t["start"][marker][first_idx]
    kids = np.flatnonzero(np.isin(t["parent"], trials))
    kids = kids[t["start"][kids] >= loop_start[t["parent"][kids]]]
    loop_self_ns = float((t["end"][trials] - loop_start[trials]).sum() - t["dur"][kids].sum())
    setup_ns = loop_start[trials] - t["start"][trials]
    trial_symbols = len(trials) * doc0["symbols"]
    m["harness.trial_setup_s"] = (mean(setup_ns, 1e-9), "s")
    m["harness.loop_self_us_per_symbol"] = (
        (loop_self_ns / trial_symbols - drain_self_ns) * 1e-3 if trial_symbols else 0.0, "us")
    m["harness.reduce_s"] = (mean(t["self"][sel("harness.run_campaign")], 1e-9), "s")
    m["harness.export_s"] = (mean(t["dur"][sel("harness.export")], 1e-9), "s")
    m["harness.campaigns_failed"] = (traced_failed, "count")

    # self time per layer, per campaign symbol
    for layer in LAYERS:
        lid = [i for name, i in ids.items() if name.startswith(layer + ".")]
        ns = t["self"][np.isin(t["name"], lid)].sum()
        m[f"{layer}.self_us_per_symbol"] = (float(ns) / (symbols * len(docs)) * 1e-3, "us")

    m["trace.overhead_share"] = (
        sum(c.wall_s for c in under_trace.values()) / sum(c.wall_s for c in plain.values()) - 1,
        "share")
    for alg, c in plain.items():
        m[f"sinr_db.{alg}"] = (c.sinr_db if c.ok else 0.0, "dB")

    report_trace(tracer, t, step_us, mults)
    return m, attempted, failed, tracer


def report_trace(tracer: Tracer, t: dict, step_us: dict, mults: dict) -> None:
    import numpy as np

    totals = np.bincount(t["name"], weights=t["self"], minlength=len(tracer.names))
    calls = np.bincount(t["name"], minlength=len(tracer.names))
    log("self time by span, all campaigns:")
    for i in np.argsort(totals)[::-1][:10]:
        if calls[i]:
            log(f"  {tracer.names[i]:36s} {totals[i] * 1e-9:8.3f} s  {calls[i]:8d} calls")
    log("adaptive step cost order, measured: "
        + " < ".join(sorted(step_us, key=step_us.get))
        + " | computed mults (analysis.complexity_count): "
        + " < ".join(f"{a}={mults[a]}" for a in sorted(mults, key=mults.get)))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest form of the workload (self-test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One core for the whole run (set-up probes inherit it): each vCPU of a
    # shared host changes speed on its own, so the reference kernel has to
    # sample the core the campaigns run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        mods = import_package()
        import numpy as np

        prov = provenance(args, np)
        log("provenance " + json.dumps(prov, sort_keys=True))
        docs = scenarios(args.workload, mods["harness"].ALGORITHMS, args.seed, smoke=args.smoke)
        for doc in docs.values():
            mods["harness"].ScenarioConfig.from_dict(doc)
        work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace:
                metrics, attempted, failed, tracer = traced(args, mods, docs, work)
                smoke = "-smoke" if args.smoke else ""
                tracer.save(OUT / f"trace-{args.workload}-s{args.seed}{smoke}.npz",
                            provenance=json.dumps(prov))
            else:
                metrics, attempted, failed = end_to_end(args, mods, docs, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
