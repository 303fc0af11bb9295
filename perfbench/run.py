"""peerfx benchmark: the user-facing CLI chain, timed end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload readme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run generates its input world with ``simulate --seed SEED`` (set-up),
then times the real-data path ``build-panel -> estimate -> heterogeneity
--method 2sls -> playtime`` on it.  Every command is its own process,
started as ``python -m peerfx.cli`` with ``src`` on the path, one after
another from this one process.  Each command counts as one operation; it
fails on a nonzero exit or on a failed output check.

``--trace 0`` repeats set-up and pipeline until ``--seconds`` have passed
and reports the end-to-end metrics: the median set-up time (at least three
samples), the median pipeline time (the four commands' sum), and the highest
per-process peak RSS; the per-command times are printed too.  ``--trace 1``
runs each command twice, untraced and then in-process under
``trace_worker.py``, which puts a span around every public layer function,
and reports the per-layer metrics.  Human-readable tables go to stdout
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench_work/`` in the repository root.

``--update-reference`` rewrites the stored estimates for the workload at
its reference seed (``reference.json``); do it only when a change to the
estimates is intended, and say so in the change's notes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

CHILD_TIMEOUT_S = 150.0  # one command; a run must end within 180 s
RUN_BUDGET_S = 120.0     # no new repetition starts after this
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

RELEASE = ["--release-week", "60"]
WORKLOADS = {
    "readme": {
        "why": "the README run: 20k players, 1.5k per group, ~0.1M panel "
               "rows; interpreter start and fixed per-call costs dominate",
        "simulate": ["--n-players", "20000", "--beta", "0.05",
                     "--baseline-hazard", "0.0045", "--gamma-nofriend", "0.5"],
        "n_per_group": 1500,
    },
    "x2": {
        "why": "the README run at 2x: 40k players, 3k per group, ~0.2M rows; "
               "scaling work in panel, fileio, estimator and simulate",
        "simulate": ["--n-players", "40000", "--beta", "0.05",
                     "--baseline-hazard", "0.0045", "--gamma-nofriend", "0.5"],
        "n_per_group": 3000,
    },
    "dense": {
        "why": "mean degree 32: a README-sized panel whose second-degree "
               "instrument work and memory grow with degree squared",
        "simulate": ["--n-players", "20000", "--mean-degree", "32",
                     "--beta", "0.002", "--baseline-hazard", "0.0005"],
        "n_per_group": 1500,
    },
}
REFERENCE_SEED = 1
PIPELINE = ("build-panel", "estimate", "heterogeneity", "playtime")
CHAIN = ("simulate", *PIPELINE)
COMMAND_METRIC = {"build-panel": "build_panel_s", "estimate": "estimate_s",
                  "heterogeneity": "heterogeneity_s", "playtime": "playtime_s"}
ESTIMATE_FILES = ("estimates.csv", "heterogeneity.csv", "playtime_estimates.csv")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------- commands

def chain_argvs(workload: str, seed: int, base: str) -> dict:
    """CLI argv and output files of each chain command, rooted at ``base``."""
    w = WORKLOADS[workload]
    sim, res = os.path.join(base, "sim"), os.path.join(base, "results")
    panel = os.path.join(base, "panel.csv")
    inputs = ["--edges", os.path.join(sim, "edges.csv"),
              "--achievements", os.path.join(sim, "achievements.csv")]
    return {
        "simulate": (["simulate", "--out", sim, "--seed", str(seed), *RELEASE,
                      *w["simulate"]],
                     [os.path.join(sim, f) for f in (
                         "edges.csv", "achievements.csv", "playtime.csv",
                         "covariates.csv", "truth.json")]),
        "build-panel": (["build-panel", *inputs, "--out", panel, *RELEASE,
                         "--window-start", "60", "--window-end", "99",
                         "--n-per-group", str(w["n_per_group"]),
                         "--censor-after-purchase", "--seed", str(seed)],
                        [panel, panel + ".meta.json"]),
        "estimate": (["estimate", "--panel", panel, "--out", res],
                     [os.path.join(res, f) for f in ("report.txt", "estimates.csv")]),
        "heterogeneity": (["heterogeneity", "--panel", panel, "--out", res,
                           "--method", "2sls"],
                          [os.path.join(res, f) for f in (
                              "heterogeneity.txt", "heterogeneity.csv")]),
        "playtime": (["playtime", *inputs,
                      "--playtime", os.path.join(sim, "playtime.csv"),
                      "--covariates", os.path.join(sim, "covariates.csv"),
                      *RELEASE, "--out", res],
                     [os.path.join(res, f) for f in (
                         "playtime_report.txt", "playtime_estimates.csv",
                         "playtime_meta.json")]),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path: str) -> tuple:
    """Run one process to completion: (exit code, wall s, own peak RSS MB).

    Peak RSS comes from this child's own rusage (``os.wait4``), not from
    ``RUSAGE_CHILDREN``, which is a running maximum over all past children.
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log,
                                cwd=ROOT, env=child_env())

        def expire(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(argv) -> list:
    return [sys.executable, "-m", "peerfx.cli", *argv]


# ------------------------------------------------------------------ checks

class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, op: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{op}: {'; '.join(problems)}")
        return not problems


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def data_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def read_estimates(path: str) -> dict:
    """term -> (estimate, se, stat), with None for an empty field."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "term,estimate,se,stat":
        raise ValueError(f"{os.path.basename(path)}: bad header")
    out = {}
    for line in lines[1:]:
        term, *fields = line.split(",")
        out[term] = tuple(float(f) if f else None for f in fields)
    return out


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def check_outputs(command: str, base: str, outputs: list,
                  reference: dict | None) -> list:
    """Problems found in one command's outputs (empty when all is well)."""
    missing = [p for p in outputs if not os.path.isfile(p)]
    if missing:
        return [f"missing {', '.join(os.path.basename(p) for p in missing)}"]
    problems = []
    res = os.path.join(base, "results")
    try:
        if command == "build-panel":
            panel = os.path.join(base, "panel.csv")
            with open(panel + ".meta.json", encoding="utf-8") as fh:
                n_meta = json.load(fh)["n_rows"]
            if data_rows(panel) != n_meta:
                problems.append(f"panel.csv has {data_rows(panel)} rows, meta says {n_meta}")
        elif command == "estimate":
            est = read_estimates(os.path.join(res, "estimates.csv"))
            ratio = est["reduced_form.z_sd_lag"][0] / est["first_stage.z_sd_lag"][0]
            gap = rel_diff(est["2sls.x_friend"][0], ratio)
            if not gap <= 1e-9:
                problems.append(f"2sls != reduced form / first stage (rel {gap:.2e})")
        elif command == "playtime":
            with open(os.path.join(res, "playtime_meta.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
            kept = meta["rows"] + sum(meta["excluded"].values())
            n_in = data_rows(os.path.join(base, "sim", "playtime.csv"))
            if kept != n_in:
                problems.append(f"playtime rows {kept} != {n_in} input rows")
        for name in ESTIMATE_FILES:
            path = os.path.join(res, name)
            if path not in outputs:
                continue
            values = read_estimates(path)
            bad = [t for t, v in values.items()
                   if any(x is not None and not math.isfinite(x) for x in v)]
            if bad:
                problems.append(f"{name}: non-finite {', '.join(bad)}")
            if reference is not None:
                problems += compare_reference(name, values, reference[name])
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        problems.append(f"unreadable output: {type(err).__name__}: {err}")
    return problems


def compare_reference(name: str, values: dict, ref: dict) -> list:
    if set(values) != set(ref):
        return [f"{name}: terms differ from the reference"]
    worst = max((rel_diff(a, b) for t in ref for a, b in zip(values[t], ref[t])
                 if a is not None or b is not None), default=0.0)
    return [] if worst <= 1e-10 else [f"{name}: off the reference by rel {worst:.2e}"]


def load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


# -------------------------------------------------------------- the chain

class Runner:
    """Runs chain commands for one workload and seed, checking each one."""

    def __init__(self, workload: str, seed: int, tally: Tally, check_reference=True):
        self.workload, self.seed, self.tally = workload, seed, tally
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.log = os.path.join(self.dir, "stderr.log")
        self.reference = load_reference(workload, seed) if check_reference else None
        self.digests = {}

    def command(self, name: str, base: str = "plain", traced_spans: str | None = None):
        """Run one command; returns (ok, wall_s, peak_rss_mb)."""
        base_dir = os.path.join(self.dir, base)
        argv, outputs = chain_argvs(self.workload, self.seed, base_dir)[name]
        if traced_spans is None:
            full = cli_argv(argv)
        else:
            full = [sys.executable, os.path.join(HERE, "trace_worker.py"),
                    traced_spans, "--", *argv]
        rc, wall, rss = run_child(full, self.log)
        problems = [f"exit code {rc}"] if rc != 0 else check_outputs(
            name, base_dir, outputs, self.reference)
        if not problems:
            # every command is deterministic given its inputs and seed, and
            # tracing must not change a byte
            found = digest(outputs)
            if self.digests.setdefault(name, found) != found:
                problems.append("outputs differ from the first repetition")
        label = name if traced_spans is None else f"{name} (traced)"
        return self.tally.record(label, problems), wall, rss


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n} (no tail percentile below 11 samples)"
    k = n - 10
    return f"p{100 * k / n:.0f}={sorted(values)[k - 1]:.4f} n={n}"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def work_counts(base: str) -> dict:
    """Work counts readable from the untraced outputs."""
    with open(os.path.join(base, "sim", "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    with open(os.path.join(base, "panel.csv.meta.json"), encoding="utf-8") as fh:
        panel_meta = json.load(fh)
    with open(os.path.join(base, "results", "playtime_meta.json"), encoding="utf-8") as fh:
        playtime_meta = json.load(fh)
    return {"panel_rows": panel_meta["n_rows"],
            "panel_bytes": os.path.getsize(os.path.join(base, "panel.csv")),
            "edges": data_rows(os.path.join(base, "sim", "edges.csv")),
            "rematch_rounds": truth["network"]["rematch_rounds"],
            "adopters": sum(a["n_adopters"] for a in truth["adoption"].values()),
            "old_friend_pairs": truth["old_friend_pairs"],
            "playtime_rows": playtime_meta["rows"]}


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> tuple:
    """Set-up then pipeline, repeated until ``seconds`` have passed.

    Set-up is topped up to three samples at the end; spreading samples over
    the run keeps a slow spell of the machine from hitting one metric only.
    """
    run = Runner(workload, seed, tally)
    samples = {name: [] for name in ("setup_s", "pipeline_s", *COMMAND_METRIC.values())}
    rss = {name: [] for name in CHAIN}

    def step(name, metric):
        ok, wall, peak = run.command(name)
        if ok:
            samples[metric].append(wall)
            rss[name].append(peak)
        return ok

    start = time.perf_counter()
    while True:
        if not step("simulate", "setup_s"):
            return samples, rss, run
        for name in PIPELINE:
            if not step(name, COMMAND_METRIC[name]):
                return samples, rss, run
        samples["pipeline_s"].append(sum(samples[m][-1] for m in COMMAND_METRIC.values()))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= RUN_BUDGET_S:
            break
    while len(samples["setup_s"]) < SETUP_REPEATS and step("simulate", "setup_s"):
        pass
    return samples, rss, run


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Bounded metrics: set-up, pipeline and peak RSS.

    The per-command times are printed but not returned: one command of one to
    five seconds spreads too much between runs on a small shared machine to
    carry a regression bound; the pipeline sum and set-up are steadier.
    """
    samples, rss, run = run_untraced(workload, seed, seconds, tally)
    peak = max((median(v) for v in rss.values() if v), default=float("nan"))
    metrics = {name: {"value": median(samples[name]), "unit": "s"}
               for name in ("setup_s", "pipeline_s")}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(f"# {workload} seed={seed}: end-to-end, untraced ({WORKLOADS[workload]['why']})")
    for name, v in samples.items():
        print(f"  {name:<18} median={median(v):.4f} s  {tail(v)}")
    print(f"  {'peak_rss_mb':<18} {peak:.1f} MB  (" + ", ".join(
        f"{k} {median(v):.0f}" for k, v in rss.items() if v) + ")")
    record = {"workload": workload, "seed": seed, "env": environment(),
              "samples": samples, "peak_rss_mb": rss}
    if not tally.failed:
        record["counts"] = work_counts(os.path.join(run.dir, "plain"))
    print("# record " + json.dumps(record, sort_keys=True))
    return metrics


# ----------------------------------------------------------------- tracing

def measure_import_s(tally: Tally, log_path: str) -> float:
    """Fresh-interpreter ``import peerfx.cli`` minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import peerfx.cli"], full)):
            rc, wall, _ = run_child(argv, log_path)
            if tally.record("import probe", [f"exit code {rc}"] if rc else []):
                into.append(wall)
    return median(full) - median(bare)


def self_times(spans: list) -> list:
    """Each span's duration minus what its direct children cover."""
    inner = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    return [end - start - inner[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize_trace(trace: dict) -> tuple:
    """Per-layer values of one traced chain, and self time per function."""
    out, fn_self = {}, {}
    for cmd, data in trace.items():
        spans = data["spans"]
        cli_self = 0.0
        for (name, *_), s in zip(spans, self_times(spans)):
            fn_self[name] = fn_self.get(name, 0.0) + s
            if name.startswith("cli."):
                cli_self += s
        root = spans[0][2] - spans[0][1]
        out[f"cli.{cmd}.self_s"] = cli_self
        out[f"cli.{cmd}.covered_share"] = 1.0 - cli_self / root
        out[f"trace.{cmd}.overhead_s"] = data["wall"] - data["untraced_wall"]
        out[f"cli.{cmd}.peak_rss_mb"] = data["untraced_rss"]
        out[f"cli.{cmd}.wall_s"] = data["untraced_wall"]
    out["trace.overhead_s"] = sum(out[f"trace.{c}.overhead_s"] for c in trace)
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = fn_self.get(name, 0.0)
    sim_spans = trace["simulate"]["spans"]
    out["fileio.write_csv.self_s"] = sum(
        s for (name, *_), s in zip(sim_spans, self_times(sim_spans))
        if name in WRITE_CSV)
    out["report.self_s"] = sum(s for n, s in fn_self.items() if n.startswith("report."))

    def counts(cmd):
        """Summed counts of one command, and its distinct (column, FE) pairs."""
        total, pairs = {}, set()
        for *_, c in trace[cmd]["spans"]:
            for key, value in (c or {}).items():
                if key == "pairs":
                    pairs |= {(col, tuple(fe)) for col, fe in value}
                else:
                    total[key] = total.get(key, 0) + value
        return total, len(pairs)

    for metric, cmd in COUNT_FROM.items():
        out[metric] = counts(cmd)[0].get(metric, 0)
    # a column demeaned twice for the same FE dims in one process is waste
    distinct = 0
    for cmd in ("estimate", "heterogeneity"):
        total, n_pairs = counts(cmd)
        distinct += n_pairs
        for key in WITHIN_COUNTS:
            out[key] = out.get(key, 0) + total.get(key, 0)
    out["estimator.within_transform.distinct_ratio"] = (
        distinct / out["estimator.within_transform.columns"])
    katz = [(e - s) for name, s, e, *_ in trace["build-panel"]["spans"]
            if name == "graph.katz_centrality"]
    out["graph.katz_centrality.first_call_s"] = katz[0]
    out["graph.katz_centrality.warm_s"] = trace["build-panel"]["katz_warm_s"]
    return out, fn_self


SELF_METRICS = (
    "fileio.write_panel_csv", "fileio.read_panel_csv", "fileio.read_edges_csv",
    "fileio.read_achievements_csv", "fileio.read_playtime_csv",
    "fileio.read_covariates_csv",
    "graph.build_network", "graph.katz_centrality", "graph.tag_peers",
    "panel.build_panel", "panel.derive_schedule", "panel.assign_groups",
    "panel.build_playtime_crosssection", "panel.first_purchasing_friend",
    "simulate.gen_network", "simulate.simulate_adoption",
    "simulate.simulate_playtime",
    "estimator.within_transform", "estimator.ols_fit", "estimator.tsls_fit",
    "estimator.anderson_rubin", "estimator.heterogeneity_fit",
    "estimator.playtime_fit",
)
WRITE_CSV = ("fileio.write_edges_csv", "fileio.write_achievements_csv",
             "fileio.write_playtime_csv", "fileio.write_covariates_csv")
COUNT_FROM = {"graph.edges": "build-panel",
              "graph.katz_centrality.iterations": "build-panel",
              "graph.old_friend_pairs": "build-panel",
              "panel.rows": "build-panel", "panel.playtime_rows": "playtime",
              "simulate.rematch_rounds": "simulate", "simulate.adopters": "simulate"}
WITHIN_COUNTS = ("estimator.within_transform.calls",
                 "estimator.within_transform.columns",
                 "estimator.within_transform.sweeps")
UNITS = {"self_s": "s", "overhead_s": "s", "import_s": "s", "first_call_s": "s",
         "warm_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "covered_share": "share",
         "distinct_ratio": "ratio", "panel_bytes": "bytes"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rpartition(".")[2], "count")


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Untraced and traced chains alternating, command by command."""
    run = Runner(workload, seed, tally)
    import_s = measure_import_s(tally, run.log)
    chains = []
    start = time.perf_counter()
    while True:
        trace = {}
        for name in CHAIN:
            ok, u_wall, u_rss = run.command(name)
            spans_path = os.path.join(run.dir, f"spans-{name}.json")
            t_ok, wall, _ = run.command(name, base="traced", traced_spans=spans_path)
            if not (ok and t_ok):
                return {}
            with open(spans_path, encoding="utf-8") as fh:
                trace[name] = json.load(fh)
            trace[name].update(wall=wall, untraced_wall=u_wall, untraced_rss=u_rss)
        chains.append(summarize_trace(trace))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= RUN_BUDGET_S:
            break
    values = {"cli.import_s": import_s,
              "fileio.panel_bytes": os.path.getsize(
                  os.path.join(run.dir, "plain", "panel.csv"))}
    for key in chains[0][0]:
        values[key] = median([c[0][key] for c in chains])
    hot = {}
    for _, fn_self in chains:
        for name, s in fn_self.items():
            hot.setdefault(name, []).append(s)
    print(f"# {workload} seed={seed}: traced chain, {len(chains)} repetition(s) "
          f"({WORKLOADS[workload]['why']})")
    print(f"  self time over the chain (cli.import counted once per process, "
          f"{len(CHAIN)} processes)")
    ranked = sorted(((median(v), n) for n, v in hot.items()), reverse=True)
    ranked.append((import_s * len(CHAIN), "cli.import (x5)"))
    for s, name in sorted(ranked, reverse=True)[:12]:
        print(f"  {name:<40} {s:9.4f} s")
    print("  in-process wall time covered by library spans: " + ", ".join(
        f"{c} {values[f'cli.{c}.covered_share']:.1%}" for c in CHAIN))
    return {name: {"value": values[name], "unit": unit_of(name)}
            for name in sorted(values)}


# -------------------------------------------------------------- reference

def update_reference(workload: str) -> int:
    tally = Tally()
    run = Runner(workload, REFERENCE_SEED, tally, check_reference=False)
    for name in CHAIN:
        ok, _, _ = run.command(name)
        if not ok:
            print("\n".join(tally.reasons), file=sys.stderr)
            return 1
    res = os.path.join(run.dir, "plain", "results")
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    stored[workload] = {name: read_estimates(os.path.join(res, name))
                        for name in ESTIMATE_FILES}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"stored {workload} estimates at seed {REFERENCE_SEED} in {REFERENCE}")
    return 0


# ------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "peerfx", "cli.py")):
        print(f"no peerfx sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.update_reference:
        return max(update_reference(w) for w in names)
    tally, metrics = Tally(), {}
    measure = per_layer if args.trace else end_to_end
    for workload in names:
        found = measure(workload, args.seed, args.seconds, tally)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"error_rate={error_rate:.4f}")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
