"""Child process of the benchmark: one bayesrates CLI invocation, or one set-up probe.

Invocation:  python3 invoke.py --src SRC --result FILE [--trace] -- CLI ARGS...
    Imports ``bayesrates.cli`` from SRC, runs ``cli.main(CLI ARGS)`` once and
    writes a JSON result: the CLI exit code, any escaped traceback, the time
    from this script's first statement to the result, the peak resident
    memory of this process and of each pool worker (see WorkerMemory), and,
    with --trace, the spans and counters of the outside-in tracer, pool
    workers' spans included.

Set-up probe:  python3 invoke.py --src SRC --result FILE --setup CONFIG...
    Times the import of ``bayesrates.cli``, then ``cli.parse_config`` and
    ``cli.build_regime`` once per named config, and writes those times.

The process exits 0 whenever it wrote its result; the CLI's own exit code is
inside the result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # first statement, so the parent can time interpreter start-up

import argparse
import glob
import json
import multiprocessing.util
import os
import resource
import shutil
import sys
import tempfile
import traceback


class WorkerMemory:
    """Peak memory of each pool worker the CLI forks, less what it shares.

    Registered as a multiprocessing after-fork hook, so it reaches every
    worker without wrapping a library function.  It needs the fork start
    method, the default on Linux before Python 3.14.  When a worker exits it
    writes its peak RSS and the part of its RSS that other processes still
    map (``Shared_*`` in ``/proc/self/smaps_rollup``): the pages it inherited
    from the parent at the fork and has not copied.  Peak minus shared is
    the worker's own memory, so a cache the parent built before the fork
    counts once, in the parent's peak.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        multiprocessing.util.register_after_fork(self, WorkerMemory._start)

    def _start(self) -> None:
        multiprocessing.util.Finalize(None, self._write, exitpriority=0)

    def _write(self) -> None:
        shared = 0
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Shared_Clean:", "Shared_Dirty:")):
                    shared += int(line.split()[1])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.path.join(self.directory, f"mem-{os.getpid()}.json"), "w") as fh:
            json.dump({"peak_kb": peak, "shared_kb": shared}, fh)

    def collect(self) -> list[dict]:
        found = []
        for path in sorted(glob.glob(os.path.join(self.directory, "mem-*.json"))):
            with open(path) as fh:
                found.append(json.load(fh))
        return found


def _setup_probe(configs: list[str]) -> dict:
    t0 = time.perf_counter()
    from bayesrates import cli

    import_s = time.perf_counter() - t0
    per_config = {}
    for path in configs:
        t0 = time.perf_counter()
        cfg = cli.parse_config(path)
        t1 = time.perf_counter()
        cli.build_regime(cfg)
        t2 = time.perf_counter()
        per_config[path] = {"parse_config_s": t1 - t0, "build_regime_s": t2 - t1}
    return {"import_s": import_s, "configs": per_config}


def _invocation(cli_args: list[str], trace: bool, scratch: str) -> dict:
    worker_dir = tempfile.mkdtemp(prefix="workers-", dir=scratch)
    memory = WorkerMemory(worker_dir)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(worker_dir)
    if tracer is not None:
        with tracer.span("cli.import"):
            from bayesrates import cli
        tracer.install()
    else:
        from bayesrates import cli
    error = None
    try:
        if tracer is not None:
            with tracer.span(f"cli.{cli_args[0]}"):
                code = cli.main(cli_args)
        else:
            code = cli.main(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # an escaped exception is a failed invocation, not a crash here
        error = traceback.format_exc()
        code = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "exit": code,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "workers": memory.collect(),
        "error": error,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
        result["worker_spans"] = []
        for path in sorted(glob.glob(os.path.join(worker_dir, "worker-*.json"))):
            with open(path) as fh:
                result["worker_spans"].append(json.load(fh))
    shutil.rmtree(worker_dir)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds bayesrates/")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--setup", nargs="+", metavar="CONFIG", help="set-up probe")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.setup:
        result = _setup_probe(args.setup)
    else:
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        scratch = os.path.dirname(os.path.abspath(args.result))
        result = _invocation(cli_args, args.trace, scratch)
    # perf_counter is the system-wide monotonic clock, so the parent can
    # subtract its own readings from these; "finished" is read once the
    # result is serialized, so what follows it is the write and interpreter exit
    result["started"] = STARTED
    body = json.dumps(result)
    finished = time.perf_counter()
    with open(args.result, "w") as fh:
        fh.write(f'{body[:-1]}, "finished": {finished!r}}}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
