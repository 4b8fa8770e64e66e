"""The bayesrates lab benchmark.

    python3 labbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's sequence of CLI invocations as a closed loop (one client;
each invocation starts in a fresh child process after the previous one has
returned), checks every output, and prints the metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 measures the end-to-end metrics: set-up is probed several times,
then whole passes of the workload run until S seconds are used (at least
one pass), and each metric is the median over passes.  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics of the traced
pass, timed from outside the library by ``tracer.py``.

Seed 0 runs every config at its recorded seed and requires the committed
``out/`` bytes.  Any other seed is passed to every invocation as ``--seed``;
outputs are then checked for their CSV headers and summaries, and their
sha256 digests are written to the run record under ``.labbench/runs/``.
See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".labbench"
DEADLINE_S = 170.0
BLAS_THREADS = 1
SETUP_PROBES = 15  # split around the passes, so one slow spell of the host weighs less

# the CLI's subcommand -> verification table, as its README documents it
FAMILIES = {
    "check": ("factorization", "conditional-identity", "thickness", "separation"),
    "simulate": ("cesaro", "numerator-bound", "evidence-bound", "posterior-mass"),
    "sieve": ("cover", "sieve"),
}
# each of simulate's verifications runs the full replication count once
MONTE_CARLO = FAMILIES["simulate"]

WORKLOADS = {
    "markov-lab-j2": {
        "invocations": [("check", "markov"), ("simulate", "markov"), ("sieve", "markov")],
        "jobs": 2,
        # at a seed other than the recorded one the serial bytes are not on
        # disk, so a serial run of simulate's cheap verifications supplies them
        "serial_check": ("numerator-bound", "evidence-bound", "posterior-mass"),
    },
    "location-lab": {
        "invocations": [
            (cmd, cfg)
            for cfg in ("iid", "misspecified", "sieve")
            for cmd in ("check", "simulate", "sieve")
        ],
        "jobs": 1,
    },
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class Aborted(Exception):
    """The run cannot go on: the deadline passed or a set-up probe failed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    """Environment with one BLAS thread per process, so jobs x threads <= nproc.

    One thread, not nproc // jobs: on a shared host a second BLAS thread
    waits on whichever core a neighbour holds, which made wall time swing
    far more than the work did.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, name: str, seed: int, trace: bool):
        spec = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.recorded = seed == 0
        self.trace = trace
        self.jobs = spec["jobs"]
        self.invocations = spec["invocations"]
        self.serial_check = spec.get("serial_check")
        self.env = _child_env()
        configs = sorted({cfg for _, cfg in self.invocations})
        self.configs = {c: yaml.safe_load((ROOT / "configs" / f"{c}.yaml").read_text())
                        for c in configs}
        self.reference = reference.load(ROOT, configs)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[list[dict]] = []
        self.extra: list[dict] = []
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    # -- child processes

    def _child(self, args: list[str]) -> tuple[dict | None, float, float, str]:
        """Run invoke.py; returns its result, wall seconds, CPU seconds, stderr."""
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise Aborted(f"not finished within {DEADLINE_S:.0f} s")
        result_path = self.tmp / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "invoke.py"), "--src", str(SRC),
               "--result", str(result_path), *args]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Aborted(f"not finished within {DEADLINE_S:.0f} s")
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result = None
        if proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
            # interpreter start-up up to invoke.py's first statement, and
            # from the result being complete to the parent seeing the exit
            result["startup_s"] = result["started"] - t0
            result["exit_s"] = t0 + wall - result["finished"]
        return result, wall, cpu, err.decode("utf-8", "replace")

    def setup_probe(self) -> float:
        """One set-up sample: import + parse_config + build_regime per invocation."""
        paths = {c: f"configs/{c}.yaml" for c in self.configs}
        result, _, _, err = self._child(["--setup", *paths.values()])
        if result is None:
            raise Aborted(f"set-up probe failed: {err.strip()[-400:]}")
        per = result["configs"]
        return sum(
            result["import_s"] + per[paths[cfg]]["parse_config_s"]
            + per[paths[cfg]]["build_regime_s"]
            for _, cfg in self.invocations
        )

    def invoke(self, cmd: str, cfg: str, trace: bool, verify=None, jobs=None) -> dict:
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.tmp))
        argv = [cmd, "--config", f"configs/{cfg}.yaml", "--out", str(out),
                "--jobs", str(jobs or self.jobs)]
        if not self.recorded:
            argv += ["--seed", str(self.seed)]
        if verify:
            argv += ["--verify", ",".join(verify)]
        self.attempted += 1
        result, wall, cpu, err = self._child(
            (["--trace"] if trace else []) + ["--", *argv])
        digest = reference.digest_dir(out)
        shutil.rmtree(out)
        inv = {"label": f"{cmd} {cfg}", "cmd": cmd, "cfg": cfg, "wall_s": wall,
               "cpu_s": cpu, "result": result, "digest": digest}
        problems = self._check(inv, verify)
        if result is None:
            problems.insert(0, f"child process failed: {err.strip()[-400:]}")
        inv["problems"] = problems
        return inv

    # -- correctness

    def _check(self, inv: dict, verify) -> list[str]:
        result, digest = inv["result"], inv["digest"]
        if result is None:
            return []
        cfg = self.configs[inv["cfg"]]
        ref = self.reference[inv["cfg"]]
        problems = []
        code = result["exit"]
        allowed = (0,) if self.recorded else (0, 2)
        if code not in allowed:
            problems.append(f"exit code {code}" + (f"\n{result['error']}" if result["error"] else ""))
        selected = verify or cfg["verify"]
        expected = [v for v in selected if v in FAMILIES[inv["cmd"]]]
        entries = digest["entries"]
        if not expected:
            if digest["files"] or entries is not None:
                problems.append("output written although no verification was selected")
            return problems
        if entries is None:
            return problems + ["no summary.json"]
        if sorted(entries) != sorted(expected):
            problems.append(f"summary lists {sorted(entries)}, expected {sorted(expected)}")
        seed = cfg["seed"] if self.recorded else self.seed
        if digest["seed"] != seed:
            problems.append(f"summary seed {digest['seed']} != {seed}")
        wanted = {"summary.json"}
        for name, entry in entries.items():
            ref_entry = ref["entries"].get(name)
            if ref_entry is None:
                problems.append(f"{name}: not in the reference")
                continue
            wanted.add(entry["csv"])
            got = digest["files"].get(entry["csv"])
            want = ref["files"][ref_entry["csv"]]
            if got is None:
                problems.append(f"{entry['csv']} missing")
            elif self.recorded:
                if entry != ref_entry:
                    problems.append(f"{name}: summary entry differs from the reference")
                if got["sha256"] != want["sha256"]:
                    problems.append(f"{entry['csv']}: bytes differ from the reference")
            else:
                if got["header"] != want["header"] or got["seed_line"] != f"# seed: {seed}":
                    problems.append(f"{entry['csv']}: header differs from the reference")
        extra = set(digest["files"]) | {"summary.json"}
        if extra != wanted:
            problems.append(f"unexpected files {sorted(extra - wanted)}")
        passed = all(e.get("passed") for e in entries.values())
        if (code == 0) != passed and code in (0, 2):
            problems.append(f"exit code {code} disagrees with the summary")
        return problems

    def _same_bytes(self, a: dict, b: dict, why: str) -> None:
        sha_a = {k: v["sha256"] for k, v in a["digest"]["files"].items()}
        sha_b = {k: v["sha256"] for k, v in b["digest"]["files"].items()}
        if sha_a != sha_b or a["digest"]["entries"] != b["digest"]["entries"]:
            b["problems"].append(f"bytes differ from {why}")

    # -- passes

    def run_pass(self, trace: bool) -> list[dict]:
        return [self.invoke(cmd, cfg, trace) for cmd, cfg in self.invocations]

    def measure(self, seconds: float) -> dict:
        samples = [self.setup_probe() for _ in range(SETUP_PROBES // 2 + 1)]
        passes = self.passes
        t0 = time.perf_counter()
        while True:
            passes.append(self.run_pass(trace=False))
            used = time.perf_counter() - t0
            per_pass = used / len(passes)
            if used + per_pass > seconds:
                break
            if time.perf_counter() - self.start + 1.5 * per_pass > DEADLINE_S:
                break
        samples += [self.setup_probe() for _ in range(SETUP_PROBES // 2)]
        for later in passes[1:]:
            for first, inv in zip(passes[0], later):
                self._same_bytes(first, inv, "the first pass")
        self._serial_check(passes[0])
        stats = {"setup_s": samples, "wall_s": [], "reps_per_s": [], "cpu_s": [],
                 "peak_rss_mb": []}
        for p in passes:
            stats["wall_s"].append(sum(i["wall_s"] for i in p))
            stats["cpu_s"].append(sum(i["cpu_s"] for i in p))
            sim = [i for i in p if i["cmd"] == "simulate"]
            reps = sum(self._replications(i["cfg"]) for i in sim)
            stats["reps_per_s"].append(reps / sum(i["wall_s"] for i in sim))
            stats["peak_rss_mb"].append(max(self._peak_mb(i) for i in p))
        return stats

    def _replications(self, cfg: str) -> int:
        c = self.configs[cfg]
        return c["replications"] * sum(v in MONTE_CARLO for v in c["verify"])

    def _peak_mb(self, inv: dict) -> float:
        r = inv["result"]
        if r is None:
            return 0.0
        # the main process's peak plus each pool worker's peak less the
        # pages it shares with the main process
        own = sum(max(0, w["peak_kb"] - w["shared_kb"]) for w in r["workers"])
        return (r["rss_kb"] + own) / 1024.0

    def _serial_check(self, first_pass: list[dict]) -> None:
        if not self.serial_check or self.recorded:
            return
        for inv in (i for i in first_pass if i["cmd"] == "simulate"):
            serial = self.invoke(inv["cmd"], inv["cfg"], False,
                                 verify=self.serial_check, jobs=1)
            self.extra.append(serial)
            if serial["problems"]:
                continue
            for name in self.serial_check:
                csv = serial["digest"]["entries"][name]["csv"]
                got = inv["digest"]["files"].get(csv, {}).get("sha256")
                if got != serial["digest"]["files"][csv]["sha256"]:
                    inv["problems"].append(f"{csv}: jobs {self.jobs} differs from jobs 1")

    def traced(self) -> dict:
        plain = self.run_pass(trace=False)
        self.passes.append(plain)
        traced = self.run_pass(trace=True)
        self.passes.append(traced)
        for a, b in zip(plain, traced):
            self._same_bytes(a, b, "the untraced run")
        done = [i for i in traced if i["result"] is not None]
        layers, layer_self = tracer.layer_metrics([i["result"] for i in done])
        # the interpreter's start-up and exit, each an interval measured
        # between the parent's clock readings and the child's
        layers["cli.startup_s"] = sum(i["result"]["startup_s"] for i in done)
        layers["cli.exit_s"] = sum(i["result"]["exit_s"] for i in done)
        # invoke.py's own work: arguments, tracer install, result gathering
        in_child = sum(i["result"]["finished"] - i["result"]["started"] for i in done)
        layers["trace.bookkeeping_s"] = in_child - layer_self - layers["cli.unattributed_s"]
        traced_wall = sum(i["wall_s"] for i in traced)
        # wall = layers + start-up + exit + unattributed + bookkeeping; the
        # last two are the part no layer accounts for
        covered = layer_self + layers["cli.startup_s"] + layers["cli.exit_s"]
        layers["trace.coverage"] = covered / traced_wall
        layers["trace.overhead_s"] = traced_wall - sum(i["wall_s"] for i in plain)
        return layers

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


LAYER_UNITS = {"_s": "s", "_ms": "ms", "_calls": "count", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    if name == "trace.coverage":
        return "share"
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def manifest(run: Runner, seconds: int) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": run.name,
        "seed": run.seed,
        "seed_mode": "recorded" if run.recorded else "override",
        "trace": run.trace,
        "run_seconds": seconds,
        "jobs": run.jobs,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="bayesrates lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="0 = each config's recorded seed; else passed as --seed")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bayesrates" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"labbench: no bayesrates sources under {ROOT}", file=sys.stderr)
        return 2

    try:
        run = Runner(args.workload, args.seed, bool(args.trace))
    except reference.MissingReference as e:
        print(f"labbench: {e}", file=sys.stderr)
        return 2
    metrics: dict[str, dict] = {}
    try:
        if run.trace:
            layers = run.traced()
            for name, value in layers.items():
                metrics[name] = {"value": value, "unit": layer_unit(name)}
        else:
            stats = run.measure(args.seconds)
            for name, unit in END_TO_END.items():
                values = stats[name]
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                print(f"{name}: median {statistics.median(values):.6g} {unit}, "
                      f"max {max(values):.6g} {unit}, n={len(values)}")
    except Aborted as e:
        run.failures.append(str(e))
    finally:
        run.cleanup()

    invocations = [i for p in run.passes for i in p] + run.extra
    failed = sum(1 for i in invocations if i["problems"])
    failed += run.attempted - len(invocations)  # invocations cut by the deadline
    for inv in invocations:
        per = f"{inv['label']}: {inv['wall_s']:.3f} s"
        if inv["problems"]:
            per += " FAILED: " + "; ".join(inv["problems"])
        print(per)
    for problem in run.failures:
        print(f"run: {problem}")
    print(f"failed_share: {failed / max(run.attempted, 1):.6g} "
          f"({failed} of {run.attempted} invocations)")
    if run.trace:
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")

    info = manifest(run, args.seconds)
    print("manifest: " + json.dumps(info, sort_keys=True))
    outputs = {f"{i['label']}#{k}": i["digest"]["files"][v["csv"]]["sha256"]
               for i in (run.passes[0] if run.passes else [])
               for k, v in (i["digest"]["entries"] or {}).items()
               if v.get("csv") in i["digest"]["files"]}
    combined = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    print(f"outputs sha256: {combined} over {len(outputs)} CSVs")
    record_dir = WORK / "runs"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / f"{run.name}-seed{run.seed}-trace{int(run.trace)}-{time.time_ns()}.json"
    record.write_text(json.dumps({"manifest": info, "metrics": metrics, "csv_sha256": outputs,
                                  "failed": failed, "attempted": run.attempted},
                                 indent=1, sort_keys=True) + "\n")

    correct = failed == 0 and not run.failures
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
