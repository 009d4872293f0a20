"""The three workloads: a shared set-up, then a measured loop.

Set-up (every workload): Ray start, base corpus generation, one base
build (which also warms Ray's worker pool), then SETUP_OPENS opens of
a serving engine over the base index (QueryEngine, then warm()).
`setup_s` is the one-shot parts plus the median open.

  build  repeated build_index over the base corpus. Two engines
         opened (and warmed) over each new index answer an untimed
         query pass, then BUILD_TIMED_PASSES timed ones.
  serve  one closed-loop client against two warm set-up engines (each
         query asked as topk on one and as candidates on the other),
         timed after one untimed pass over every query, taking turns
         with BATCHES run_queries batches through a pool of
         BATCH_ACTORS actors.
  churn  from a fresh copy of the base index, cycles of update_index
         (a ~5% delta), delete_docs (1% of the base), reopen of two
         engines over serving_sources + load_tombstones serving a query
         pass, and compact_index every second cycle.

Outputs are checked after the measured loop, so the oracle's large
heap is not alive (and not scanned by the garbage collector) while
operations are timed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import time
import traceback

import numpy as np
import pyarrow as pa

from perfbench import corpus
from perfbench.reference import Reference, index_digest, ordered_docs
from perfbench.sampling import median, percentile

BASE_CONVS = 1000          # ~6.7k turns, ~1.5 MB of parquet
DELTA_CONVS = 50           # ~5% of the base per churn cycle
DELETE_CONVS = 10          # 1% of the base per churn cycle
N_QUERIES = 1000           # distinct queries, 200 per df class
BUILD_TIMED_PASSES = 2     # timed passes over all queries per new index
BUILD_ROUND_S = 5.0        # nominal seconds per build and its query pass
CHURN_PASS = 500           # queries per churn reopen
CHURN_ROUND_S = 5.0        # nominal seconds per churn round (two cycles)
BATCH_QUERIES = 2000       # rows in each serve run_queries batch
BATCHES = 3                # serve batches; work_per_s is over all of them
# run_queries actors. On a 4-CPU shared host, 4 actors beside the
# driver's executor ran slower than 2 and spread twice as much.
BATCH_ACTORS = 2
CHECKS_PER_CLASS = 10      # oracle-checked queries per df class
MIN_LATENCY_SAMPLES = 1000  # p99 needs ten samples beyond it
SETUP_OPENS = 3
TOP_K = 10
# Index digests of each seed's base corpus (BASE_CONVS conversations),
# and digests of the candidate pools its first POOL_QUERIES queries get
# from the base index, recorded once: a change that alters index
# contents or candidate pools fails the check for these seeds.
EXPECTED_DIGESTS = os.path.join(os.path.dirname(__file__),
                                "expected_digests.json")
EXPECTED_POOLS = os.path.join(os.path.dirname(__file__),
                              "expected_pools.json")
POOL_QUERIES = 500


def pinned(path: str, seed: int) -> str | None:
    with open(path) as f:
        return json.load(f).get(str(seed))


def pool_hash(pool) -> str:
    return hashlib.sha256(np.asarray(pool, "<i8").tobytes()).hexdigest()


def pools_digest(pools: dict, texts) -> str:
    """sha256 over the sorted (query, pool hash) pairs of `texts`."""
    h = hashlib.sha256()
    for q in sorted(set(texts)):
        h.update(f"{q}\t{pools.get(q, '')}\n".encode())
    return h.hexdigest()


class Failures:
    """Counts operations attempted and failed; a failed operation keeps
    its traceback and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args, **kwargs):
        """(result, seconds), or (None, None) when `fn` raised."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None, None
        return result, time.perf_counter() - t


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, what: str):
        self.count += 1
        if not ok:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


class SetupFailed(RuntimeError):
    pass


class Context:
    """Set-up shared by the workloads; paths live under `work`."""

    def __init__(self, work: str, seed: int, cpus: int, ops: Failures,
                 checks: Checks, rss):
        self.work, self.seed, self.cpus, self.rss = work, seed, cpus, rss
        self.ops, self.checks = ops, checks
        self.base_dir = os.path.join(work, "corpus")
        self.index_dir = os.path.join(work, "index")
        self._reference = None

    def setup(self, ray_start_s: float) -> dict:
        from candidategeneration_ray.pipelines import build
        from candidategeneration_ray.sources.transcripts import generate_transcripts

        t = time.perf_counter()
        self.table = generate_transcripts(BASE_CONVS, seed=self.seed)
        self.input_bytes = corpus.write_corpus(self.table, self.base_dir)
        corpus_s = time.perf_counter() - t
        self.turns = self.table.num_rows
        self.base, build_s = self.ops.run(build.build_index, self.base_dir,
                                          self.index_dir)
        if self.base is None:
            raise SetupFailed("base build failed")
        opens = [self.open_base() for _ in range(SETUP_OPENS)]
        self.engines = [eng for eng, _ in opens]
        self.setup_opens = [s for _, s in opens]
        df = corpus.document_frequencies(self.table)
        self.queries, self.query_mix = corpus.make_queries(
            df, self.turns, N_QUERIES, self.seed)
        return {"ray_start_s": ray_start_s, "corpus_s": corpus_s,
                "base_build_s": build_s, "open_s": self.setup_opens,
                "setup_s": ray_start_s + corpus_s + build_s
                + median(self.setup_opens)}

    def open_base(self):
        eng, s = self.ops.run(open_engine, self.base["final_dir"],
                              self.base["stats"])
        if eng is None:
            raise SetupFailed("engine open failed")
        return eng, s

    def reference(self) -> Reference:
        """Oracle over the base corpus, built on first use."""
        if self._reference is None:
            docs = ordered_docs([self.table])
            self._reference = Reference(
                [(i, text) for i, (_, _, text) in enumerate(docs)])
        return self._reference

    def check_topk(self, engine, reference: Reference, label: str):
        """Seeded CHECKS_PER_CLASS queries of each class: engine top-k
        must equal the oracle's, doc ids and scores, rank by rank."""
        rng = random.Random(self.seed + 7)
        for cls in corpus.CLASSES:
            qs = [q for c, q in self.queries if c == cls]
            for q in rng.sample(qs, min(CHECKS_PER_CLASS, len(qs))):
                got, _ = self.ops.run(engine.topk, q, k=TOP_K)
                self.checks.expect(got == reference.topk(q, TOP_K),
                                   f"{label}: topk({q!r}) [{cls}] != oracle")

    def check_pools(self, pools: dict, label: str) -> str:
        """The candidate pools of the first POOL_QUERIES queries, as
        served over the base index, must all have been asked and must
        match the seed's pinned digest. Returns the digest."""
        texts = {q for _, q in self.queries[:POOL_QUERIES]}
        missing = texts - pools.keys()
        self.checks.expect(not missing, f"{label}: {len(missing)} pinned "
                           "queries never asked as candidates")
        digest = pools_digest(pools, texts)
        want = pinned(EXPECTED_POOLS, self.seed)
        self.checks.expect(want in (None, digest),
                           f"{label}: candidate pool digest {digest} != "
                           f"pinned {want}")
        return digest


def open_engine(source, stats, tombstones=None):
    """A serving engine as a serving actor starts one: load, then
    warm() so the first query does not pay the cold decode of a hot
    list."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    eng = QueryEngine(source, stats, tombstones_ref=tombstones)
    eng.warm()
    return eng


def serve_pass(ctx: Context, topk_engine, cand_engine, queries,
               topk_ms, cand_ms, pools):
    """Ask each query as topk on `topk_engine` and as candidates on
    `cand_engine`, timing each call. Separate engines keep separate
    list caches: the top-k working set (unigram lists) fits the cache,
    the candidates working set (pair lists) does not. `pools` maps a
    query to its first candidate pool; a later ask must match it.

    The pass starts from a collected heap, so garbage left by the
    operation before it (a build, an update) is not collected inside a
    timed query."""
    gc.collect()
    with ctx.rss.quiet():
        for _, q in queries:
            _, s = ctx.ops.run(topk_engine.topk, q, k=TOP_K)
            if s is not None:
                topk_ms.append(s * 1e3)
            got, s = ctx.ops.run(cand_engine.candidates, q)
            if s is not None:
                cand_ms.append(s * 1e3)
                digest = pool_hash(got)
                ctx.checks.expect(pools.setdefault(q, digest) == digest,
                                  f"candidates({q!r}) changed between asks")


def latency_metrics(topk_ms, cand_ms) -> dict:
    return {
        "topk_ms_p50": (percentile(topk_ms, 50), "ms"),
        "topk_ms_p99": (percentile(topk_ms, 99), "ms"),
        "cand_ms_p50": (percentile(cand_ms, 50), "ms"),
        "cand_ms_p99": (percentile(cand_ms, 99), "ms"),
    }


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


# ---------------------------------------------------------------- build

class Build:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.digests: set[str] = set()
        self.first_engine = None
        self.pools: dict = {}

    def measure(self, seconds: float, info: dict) -> dict:
        from candidategeneration_ray.pipelines import build

        ctx = self.ctx
        rates, opens, topk_ms, cand_ms, ratio = [], [], [], [], []
        builds = info.setdefault("builds", [])
        gc.collect()
        # A fixed number of builds, set by `seconds` at the nominal time
        # of one build and its query pass rather than by the clock: every
        # run then does the same work whatever its speed.
        n_builds = max(1, round(seconds / BUILD_ROUND_S))
        i = 0
        while len(rates) < n_builds or len(topk_ms) < MIN_LATENCY_SAMPLES:
            if i >= 2 * (len(rates) + 2):
                break  # builds keep failing; the failures are counted
            out = os.path.join(ctx.work, f"build-{i}")
            i += 1
            res, s = ctx.ops.run(build.build_index, ctx.base_dir, out)
            if res is not None:
                rates.append(ctx.turns / s)
                info.setdefault("build_s", []).append(s)
                builds.append(res["metrics"])
                digest, keys, nbytes = index_digest(res["final_dir"])
                self.digests.add(digest)
                info["index"] = (keys, nbytes)
                ratio.append(nbytes / ctx.input_bytes)
                eng, s = ctx.ops.run(open_engine, res["final_dir"],
                                     res["stats"])
                cand_eng, _ = ctx.ops.run(open_engine, res["final_dir"],
                                          res["stats"])
                if eng is not None and cand_eng is not None:
                    opens.append(s)
                    # untimed: the first asks decode the lists warm()
                    # left cold, which doubled the spread of p50 between
                    # runs when timed
                    serve_pass(ctx, eng, cand_eng, ctx.queries, [], [],
                               self.pools)
                    serve_pass(ctx, eng, cand_eng,
                               ctx.queries * BUILD_TIMED_PASSES, topk_ms,
                               cand_ms, self.pools)
                    self.first_engine = self.first_engine or eng
            shutil.rmtree(out, ignore_errors=True)
        info["open_s"] = opens
        return {
            "work_per_s": (median(rates), "1/s"),
            **latency_metrics(topk_ms, cand_ms),
            "index_bytes_per_input_byte": (median(ratio), "B/B"),
        }

    def check(self, info: dict):
        ctx = self.ctx
        base = index_digest(ctx.base["final_dir"])[0]
        ctx.checks.expect(self.digests == {base},
                          f"{len(self.digests | {base})} distinct index "
                          "digests over builds of one corpus")
        want = pinned(EXPECTED_DIGESTS, ctx.seed)
        ctx.checks.expect(want in (None, base),
                          f"index digest {base} != pinned {want}")
        info["digest"] = base
        info["pool_digest"] = ctx.check_pools(self.pools, "build")
        if self.first_engine is not None:
            ctx.check_topk(self.first_engine, ctx.reference(), "build")


# ---------------------------------------------------------------- serve

class Serve:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.pools: dict = {}
        self.batches: list = []

    def measure(self, seconds: float, info: dict) -> dict:
        import ray

        from candidategeneration_ray.pipelines.query import run_queries
        from candidategeneration_ray.state.queryengine import QueryEngine

        ctx = self.ctx
        topk_ms, cand_ms = [], []
        batch = ctx.queries * (BATCH_QUERIES // N_QUERIES)
        qtable = pa.table({"query_id": pa.array(range(len(batch)), pa.int64()),
                           "text": [q for _, q in batch]})

        def _batch():
            return run_queries(ctx.base["final_dir"],
                               ray.data.from_arrow(qtable), ctx.base["stats"],
                               concurrency=min(BATCH_ACTORS, ctx.cpus)
                               ).materialize()

        serve_pass(ctx, ctx.engines[0], ctx.engines[1], ctx.queries, [], [],
                   self.pools)  # warm-up, untimed
        # The closed loop and the batches take turns, so that both sample
        # the host's speed over the whole measured span, not one half each.
        rates, asked, batch_total_s = [], 0, 0.0
        n = 0
        for b in range(BATCHES):
            t0 = time.perf_counter()
            while (time.perf_counter() - t0 < seconds / BATCHES
                   or (b == BATCHES - 1
                       and len(topk_ms) < MIN_LATENCY_SAMPLES)):
                serve_pass(ctx, ctx.engines[0], ctx.engines[1],
                           ctx.queries[n % N_QUERIES:][:100], topk_ms,
                           cand_ms, self.pools)
                n += 100
            done, batch_s = ctx.ops.run(_batch)
            if done is not None:
                rates.append(len(batch) / batch_s)
                asked += len(batch)
                batch_total_s += batch_s
                self.batches.append(
                    (batch, pa.concat_tables(ray.get(done.to_arrow_refs()))))
        info["batch_qps"] = rates
        # what one batch actor pays to start: an engine over the
        # in-memory index table run_queries broadcasts
        import pyarrow.parquet as pq

        table = pa.concat_tables([
            pq.read_table(os.path.join(ctx.base["final_dir"], f))
            for f in sorted(os.listdir(ctx.base["final_dir"]))
            if f.endswith(".parquet")])
        t = time.perf_counter()
        QueryEngine(table, ctx.base["stats"])
        info["engine_init_s"] = time.perf_counter() - t
        info["broadcast_bytes"] = table.nbytes
        _, keys, nbytes = index_digest(ctx.base["final_dir"])
        info["index"] = (keys, nbytes)
        info["open_s"] = ctx.setup_opens
        return {
            "work_per_s": (asked / batch_total_s if asked else 0.0, "1/s"),
            **latency_metrics(topk_ms, cand_ms),
            "index_bytes_per_input_byte": (nbytes / ctx.input_bytes, "B/B"),
        }

    def check(self, info: dict):
        ctx = self.ctx
        ctx.check_topk(ctx.engines[0], ctx.reference(), "serve")
        info["pool_digest"] = ctx.check_pools(self.pools, "serve")
        rng = random.Random(ctx.seed + 11)
        for batch, out in self.batches:
            got: dict[int, list] = {}
            for qid, d, s in zip(out.column("query_id").to_pylist(),
                                 out.column("doc_id").to_pylist(),
                                 out.column("score").to_pylist()):
                got.setdefault(qid, []).append((s, d))
            for qid in rng.sample(range(len(batch)), 50):
                want = ctx.engines[0].topk(batch[qid][1], k=TOP_K)
                ranked = sorted(got.get(qid, []), key=lambda p: (-p[0], p[1]))
                ctx.checks.expect(ranked == want,
                                  f"run_queries answer {qid} != engine.topk")


# ---------------------------------------------------------------- churn

class Churn:
    """Each measured pass starts from a fresh copy of the base index.
    The live corpus is tracked here, independently of the engine:
    documents in id order and the conversations not yet deleted."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.index_dir = os.path.join(ctx.work, "churn-index")

    def reset(self):
        """A fresh copy of the base index and of the corpus it holds, so
        every pass (untraced, then traced) passes through the same
        seeded index states."""
        ctx = self.ctx
        shutil.rmtree(self.index_dir, ignore_errors=True)
        shutil.copytree(ctx.index_dir, self.index_dir)
        self.docs = ordered_docs([ctx.table])
        self.live_convs = sorted({c for c, _, _ in self.docs})
        self.stats = ctx.base["stats"]
        self.rng = random.Random(ctx.seed + 3)
        self.delta_bytes = 0
        # the last engine reopened before a compaction, with the live
        # corpus it serves: (engine, docs so far, live convs, reopen)
        self.lsm_view = None

    def measure(self, seconds: float, info: dict) -> dict:
        from candidategeneration_ray.pipelines import update

        ctx = self.ctx
        self.reset()
        ingested, write_s, opens, topk_ms, cand_ms = 0, 0.0, [], [], []
        info.update(updates=[], reopens=[], bytes_written=0,
                    bytes_rewritten=0, delta_bytes=0)
        gc.collect()
        # A fixed number of rounds of two cycles (one compaction each),
        # set by `seconds` at the nominal round time rather than by the
        # clock: every run then passes through the same index states
        # (generation count, tombstones, index size) whatever its speed.
        rounds = max(1, round(seconds / CHURN_ROUND_S))
        c = 0
        while c < 2 * rounds or len(topk_ms) < MIN_LATENCY_SAMPLES:
            if c >= 2 * (len(info["updates"]) + 2):
                break  # updates keep failing; the failures are counted
            delta = corpus.delta_table(DELTA_CONVS, ctx.seed, c)
            ddir = os.path.join(ctx.work, f"delta-{c:04d}")
            nbytes = corpus.write_corpus(delta, ddir)
            self.delta_bytes += nbytes
            info["delta_bytes"] += nbytes
            before = dir_bytes(self.index_dir)
            upd, s = ctx.ops.run(update.update_index, self.index_dir, ddir)
            if upd is None:
                c += 1
                continue
            info["bytes_written"] += max(0, dir_bytes(self.index_dir) - before)
            ingested += delta.num_rows
            write_s += s
            info.setdefault("update_s", []).append(s)
            info["updates"].append(upd["metrics"])
            self.stats = upd["stats"]
            self.docs += ordered_docs([delta])
            self.live_convs += sorted(set(delta.column("conv_id").to_pylist()))

            victims = self.rng.sample(self.live_convs, DELETE_CONVS)
            deleted, s = ctx.ops.run(update.delete_docs, self.index_dir,
                                     victims)
            if deleted is not None:
                write_s += s
                gone = set(victims)
                self.live_convs = [x for x in self.live_convs
                                   if x not in gone]

            srcs = update.serving_sources(self.index_dir)
            tombs = update.load_tombstones(self.index_dir)
            reopen = {
                "generations": len(srcs) - 1,
                "tombstone_ranges": 0 if tombs is None else len(tombs["starts"])}
            info["reopens"].append(reopen)
            eng, s = ctx.ops.run(self.open)
            cand_eng, _ = ctx.ops.run(self.open)
            if eng is not None and cand_eng is not None:
                opens.append(s)
                lo = (c * CHURN_PASS) % N_QUERIES
                # Timed from the first ask: the reader concatenates
                # generations and filters tombstones when it decodes a
                # list, then caches the result, so a warm pass would
                # hide the LSM read path. Pools are compared only
                # within one index state.
                serve_pass(ctx, eng, cand_eng,
                           ctx.queries[lo:lo + CHURN_PASS], topk_ms, cand_ms,
                           {})
                self.lsm_view = (eng, len(self.docs), list(self.live_convs),
                                 reopen)
            compacted = None
            if c % 2 == 1:
                compacted, s = ctx.ops.run(update.compact_index, self.index_dir)
            if compacted is not None:
                write_s += s
                info.setdefault("compact_s", []).append(s)
                final = dir_bytes(os.path.join(self.index_dir, "final"))
                info["bytes_rewritten"] += final
                info["bytes_written"] += final
            shutil.rmtree(ddir, ignore_errors=True)
            c += 1
        info["open_s"] = opens
        info["index"] = (
            index_digest(os.path.join(self.index_dir, "final"))[1],
            dir_bytes(self.index_dir))
        return {
            "work_per_s": (ingested / write_s, "1/s"),
            **latency_metrics(topk_ms, cand_ms),
            "index_bytes_per_input_byte": (
                dir_bytes(self.index_dir)
                / (ctx.input_bytes + self.delta_bytes), "B/B"),
        }

    def open(self):
        """Serving engine over the LSM view: base + generations, minus
        tombstoned documents."""
        from candidategeneration_ray.pipelines import update

        d = self.index_dir
        return open_engine(update.serving_sources(d), self.stats,
                           update.load_tombstones(d))

    def live_reference(self, n_docs: int, live_convs) -> Reference:
        """Oracle over the first `n_docs` documents (base + the deltas
        applied so far) minus deleted conversations, scored under the
        base epoch's statistics."""
        live = set(live_convs)
        docs = [(i, text) for i, (conv, _, text)
                in enumerate(self.docs[:n_docs]) if conv in live]
        return Reference(docs, epoch=self.ctx.reference())

    def check(self, info: dict):
        """Top-k against the oracle over the live documents twice: on
        the last engine reopened before a compaction (base plus delta
        generations, minus tombstones) and on an engine opened at the
        end of the run."""
        ctx = self.ctx
        ctx.checks.expect(self.lsm_view is not None,
                          "churn: no engine was reopened")
        if self.lsm_view is not None:
            eng, n_docs, live, reopen = self.lsm_view
            info["checked_lsm_view"] = reopen
            ctx.checks.expect(
                reopen["generations"] > 0 and reopen["tombstone_ranges"] > 0,
                f"churn: the checked LSM view has no generation or no "
                f"tombstone: {reopen}")
            ctx.check_topk(eng, self.live_reference(n_docs, live),
                           "churn LSM view")
        ctx.check_topk(self.open(),
                       self.live_reference(len(self.docs), self.live_convs),
                       "churn end of run")


WORKLOADS = {"build": Build, "serve": Serve, "churn": Churn}
