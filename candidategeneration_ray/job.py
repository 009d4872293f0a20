"""Cluster job entry point — `ray job submit` / CLI driver.

On a real cluster:

    ray job submit --working-dir . -- \
        python -m candidategeneration_ray.job build \
            --input s3://bucket/transcripts/ --out s3://bucket/index \
            --partitions 256

    python -m candidategeneration_ray.job query \
            --index /tmp/index --queries queries.parquet --out /tmp/cands

`ray.init(address="auto")` inside a submitted job attaches to the
hosting cluster; standalone runs fall back to local mode. This module
OWNS a Ray session (unlike the library / __ray_entry__, which never
call ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _init_ray(num_cpus: int | None):
    import ray

    if ray.is_initialized():
        return
    kwargs = {"include_dashboard": False, "ignore_reinit_error": True,
              "logging_level": "ERROR"}
    if num_cpus is not None:
        ray.init(address="local", num_cpus=num_cpus, **kwargs)
    else:
        # inside `ray job submit` this attaches to the cluster;
        # standalone it starts a local session
        ray.init(address="auto" if _on_cluster() else "local", **kwargs)


def _on_cluster() -> bool:
    import os

    return bool(os.environ.get("RAY_JOB_ID") or os.environ.get("RAY_ADDRESS", "") not in ("", "local"))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="candidategeneration_ray.job")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the static inverted index")
    b.add_argument("--input", required=True, help="transcript parquet dir/file(s)")
    b.add_argument("--out", required=True, help="index output directory")
    b.add_argument("--partitions", type=int, default=1,
                   help="conv-range partitions (resume + salting unit)")
    b.add_argument("--distance", type=int, default=5)
    b.add_argument("--num-buckets", type=int, default=96)
    b.add_argument("--no-pairs", action="store_true")
    b.add_argument("--max-list-postings", type=int, default=None,
                   help="build-time list pruning cap (reference O3); "
                        "None keeps full lists")
    b.add_argument("--unconditional-prefix", type=int, default=100,
                   help="doc-order prefix always kept when pruning")
    b.add_argument("--num-cpus", type=int, default=None)

    u = sub.add_parser("update", help="ingest a delta (new conversations) "
                                      "into an existing index — LSM "
                                      "generation, frozen-epoch stats")
    u.add_argument("--index", required=True, help="index dir (build --out)")
    u.add_argument("--input", required=True, help="delta parquet dir/file(s)")
    u.add_argument("--compact", action="store_true",
                   help="fold generations into final/ after the update")
    u.add_argument("--max-delta-fraction", type=float, default=1.0,
                   help="refuse deltas larger than this fraction of the "
                        "scoring-epoch corpus (frozen-stats drift guard)")
    u.add_argument("--partitions", type=int, default=1,
                   help="conv-range generations per delta (sub-delta "
                        "resume unit for very large deltas)")
    u.add_argument("--distance", type=int, default=5)
    u.add_argument("--num-buckets", type=int, default=96)
    u.add_argument("--no-pairs", action="store_true")
    u.add_argument("--max-list-postings", type=int, default=None)
    u.add_argument("--unconditional-prefix", type=int, default=100)
    u.add_argument("--num-cpus", type=int, default=None)

    q = sub.add_parser("query", help="serve a query table against an index")
    q.add_argument("--index", required=True, help="index dir (build --out)")
    q.add_argument("--queries", required=True,
                   help="parquet with (query_id, text)")
    q.add_argument("--out", required=True, help="candidate output dir")
    q.add_argument("--concurrency", type=int, default=4)
    q.add_argument("--num-cpus", type=int, default=None)

    pp = sub.add_parser("prep", help="run the pretraining data-prep "
                        "composition (quality -> decontaminate -> dedup -> "
                        "budget select) and write the source-partitioned "
                        "corpus")
    pp.add_argument("--input", required=True,
                    help="directory holding documents.parquet")
    pp.add_argument("--out", required=True, help="corpus output directory")
    pp.add_argument("--budget", type=int, default=400,
                    help="kept-token budget per source")
    pp.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("search", help="phrase / proximity search with "
                       "ranked KWIC snippets over a documents corpus "
                       "(builds or reuses the positional family)")
    s.add_argument("--corpus", required=True,
                   help="directory holding documents.parquet")
    s.add_argument("--query", required=True, action="append",
                   help="query text (repeatable)")
    s.add_argument("--mode", choices=["phrase", "snippets"],
                   default="snippets")
    s.add_argument("--topk", type=int, default=3)
    s.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)
    _init_ray(args.num_cpus)
    import ray

    try:
        if args.cmd == "build":
            from candidategeneration_ray.config import EngineConfig
            from candidategeneration_ray.pipelines.build import build_index

            cfg = EngineConfig(distance=args.distance,
                               num_buckets=args.num_buckets,
                               emit_pairs=not args.no_pairs,
                               max_list_postings=args.max_list_postings,
                               unconditional_prefix=args.unconditional_prefix)
            t0 = time.time()
            res = build_index(args.input, args.out, cfg,
                              partitions=args.partitions)
            print(json.dumps({"ok": True, "final_dir": res["final_dir"],
                              "n_docs": res["metrics"]["n_docs"],
                              "sec": round(time.time() - t0, 2),
                              "phases": res["metrics"]["phases"]}))
        elif args.cmd == "update":
            from candidategeneration_ray.config import EngineConfig
            from candidategeneration_ray.pipelines.update import update_index

            cfg = EngineConfig(distance=args.distance,
                               num_buckets=args.num_buckets,
                               emit_pairs=not args.no_pairs,
                               max_list_postings=args.max_list_postings,
                               unconditional_prefix=args.unconditional_prefix)
            t0 = time.time()
            res = update_index(args.index, args.input, cfg,
                               compact=args.compact,
                               max_delta_fraction=args.max_delta_fraction,
                               partitions=args.partitions)
            print(json.dumps({"ok": True, "sources": res["sources"],
                              "sec": round(time.time() - t0, 2),
                              "phases": res["metrics"]["phases"]}))
        elif args.cmd == "prep":
            from candidategeneration_ray.pipelines.textlm import (
                write_pretrain_corpus)

            t0 = time.time()
            res = write_pretrain_corpus(args.input, args.out,
                                        budget=args.budget)
            print(json.dumps({"ok": True, "out": res["out_dir"],
                              "n_docs": res["n_docs"],
                              "skipped": res["skipped"],
                              "sec": round(time.time() - t0, 2)}))
        elif args.cmd == "search":
            from candidategeneration_ray.pipelines.positional import (
                q_phrase_postings, q_snippets)

            t0 = time.time()
            qs = list(enumerate(args.query))
            if args.mode == "phrase":
                res = q_phrase_postings(args.corpus, phrases=qs)
            else:
                res = q_snippets(args.corpus, k=args.topk, queries=qs)
            print(json.dumps({"ok": True, "n_rows": res.num_rows,
                              "sec": round(time.time() - t0, 2),
                              "results": res.to_pylist()}))
        else:
            import ray.data

            from candidategeneration_ray.pipelines.build import load_stats
            from candidategeneration_ray.pipelines.query import run_queries, write_candidates
            from candidategeneration_ray.pipelines.update import (
                load_tombstones, serving_sources)

            stats, _ = load_stats(args.index)
            queries = ray.data.read_parquet(args.queries)
            out = run_queries(serving_sources(args.index), queries, stats,
                              concurrency=args.concurrency,
                              tombstones=load_tombstones(args.index))
            write_candidates(out, args.out)
            print(json.dumps({"ok": True, "out": args.out}))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
