"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload build|serve|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics (and the traced-minus-
untraced overhead of each end-to-end metric) with --trace 1. The line
before it holds the host facts and the full record, which is also
written to .perfbench_out/. Exits non-zero, printing no result, when
the engine package is not importable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ray keeps sockets under its temp dir; AF_UNIX paths stop at 107
# bytes and Ray appends ~64, so a deep checkout uses Ray's default.
MAX_RAY_TEMP_DIR = 40
OBJECT_STORE_BYTES = 512 << 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["build", "serve", "churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def stop_processes(pids: set[int], timeout: float = 15.0) -> None:
    """Wait for `pids` to exit; SIGKILL whatever outlives `timeout`."""
    def alive():
        out = set()
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                        out.add(pid)
            except OSError:
                pass
        return out

    deadline = time.time() + timeout
    while alive() and time.time() < deadline:
        time.sleep(0.1)
    for pid in alive():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + timeout
    while alive() and time.time() < deadline:
        time.sleep(0.1)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[0] = ROOT
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        import candidategeneration_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: engine package not importable: {e}",
              file=sys.stderr)
        return 2

    import ray
    from ray.data import DataContext

    from perfbench import hostinfo, workloads
    from perfbench.layers import Layers
    from perfbench.sampling import median

    cpus = hostinfo.affinity_cpus()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    ray_tmp = os.path.join(ROOT, ".perfbench_work", "ray")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"affinity_cpus": cpus, "ray_num_cpus": cpus,
                 "commit": hostinfo.git_commit(ROOT),
                 **hostinfo.versions()},
    }
    ops, checks = workloads.Failures(), workloads.Checks()
    layers = Layers() if args.trace else None
    steal0 = hostinfo.steal_s()
    metrics = None
    rss = hostinfo.RssSampler()
    with rss:
        t = time.perf_counter()
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=ray_tmp if len(ray_tmp) <= MAX_RAY_TEMP_DIR
                 else None)
        DataContext.get_current().enable_progress_bars = False
        ray_start_s = time.perf_counter() - t
        try:
            ctx = workloads.Context(work, args.seed, cpus, ops, checks, rss)
            setup = ctx.setup(ray_start_s)
            record["setup"] = setup
            record["queries"] = ctx.query_mix
            workload = workloads.WORKLOADS[args.workload](ctx)
            info: dict = {}
            e2e = workload.measure(args.seconds, info)
            e2e["setup_s"] = (setup["setup_s"], "s")
            e2e["peak_rss_mb"] = (rss.peak_since(0.0), "MB")
            record["end_to_end"] = e2e
            metrics = e2e
            if layers is not None:
                t_traced = time.time()
                layers.install()
                root = layers.tracer.begin("traced")
                steal1 = hostinfo.steal_s()
                opens = [ctx.open_base()[1]
                         for _ in range(workloads.SETUP_OPENS)]
                traced_info: dict = {}
                traced = workload.measure(args.seconds, traced_info)
                traced_info["steal_s"] = hostinfo.steal_s() - steal1
                layers.tracer.end(root)
                layers.uninstall()
                traced["setup_s"] = (setup["setup_s"] - median(ctx.setup_opens)
                                     + median(opens), "s")
                traced["peak_rss_mb"] = (rss.peak_since(t_traced), "MB")
                per_layer = layers.metrics(layers.tracer.spans[root],
                                           traced_info)
                for name, (value, unit) in e2e.items():
                    per_layer[f"overhead.{name}"] = (traced[name][0] - value,
                                                     unit)
                record["traced_end_to_end"] = traced
                record["per_layer"] = per_layer
                layers.tracer.dump(os.path.join(out_dir, f"{tag}-spans.json"))
                metrics = per_layer
            workload.check(info)
            record["measured"] = {k: v for k, v in info.items()
                                  if k not in ("builds", "updates")}
        except workloads.SetupFailed as e:
            record["setup_failed"] = str(e)
        finally:
            pids = hostinfo.tree_pids(os.getpid())
            ray.shutdown()
            stop_processes(pids)
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)  # Ray's session logs
    record["host"]["steal_cpu_s"] = hostinfo.steal_s() - steal0
    record["attempted"], record["failed"] = ops.attempted, ops.failed
    record["error_rate"] = ops.failed / max(1, ops.attempted)
    record["checks"] = {"count": checks.count, "failures": checks.failures}
    record["errors"] = ops.errors[:5]
    result = {
        "correct": checks.ok and ops.failed == 0 and metrics is not None,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (metrics or {}).items()},
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps(record, default=str))
    print(json.dumps(result), flush=True)
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
