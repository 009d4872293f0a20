"""Per-layer metrics from spans recorded around the engine's public
entry points (see spans.Tracer). Installed only for a traced run; the
end-to-end metrics always come from an untraced pass.

Traced entry points, by layer:
  pipelines.build / pipelines.update  conv_offsets, compute_stats,
                                      build_posting_lists (both modules
                                      import them; both names are wrapped)
  pipelines.update                    update_index, delete_docs,
                                      compact_index
  state.queryengine kernels           taat_topk, ta_impact_topk,
                                      maxscore_topk, blockmax_topk,
                                      wand_topk (the "wand_scalar" kernel)
  state.queryengine.IndexReader       __init__, query_term_ids, get,
                                      top_layer; generation decode
  state.queryengine.QueryEngine       warm, topk, candidates
"""

from __future__ import annotations

import statistics

from perfbench.sampling import median
from perfbench.spans import Span, Tracer, self_times

KERNELS = {  # queryengine function -> kernel name in the metrics
    "taat_topk": "taat",
    "maxscore_topk": "maxscore",
    "ta_impact_topk": "ta_impact",
    "blockmax_topk": "blockmax",
    "wand_topk": "wand_scalar",
}


def _med(values) -> float:
    return median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class Layers:
    def __init__(self):
        self.tracer = Tracer()
        self.sizes: dict[int, int] = {}      # span id -> postings
        self.absent: set[int] = set()        # reader.get spans that got None
        self.emission: list[dict] = []       # posting Dataset stats

    def install(self):
        from candidategeneration_ray.pipelines import build, update
        from candidategeneration_ray.state import queryengine as qe

        t = self.tracer
        t.wrap(build, "build_index", "build.build_index")
        for mod in (build, update):
            t.wrap(mod, "conv_offsets", "docids.conv_offsets")
            t.wrap(mod, "compute_stats", "stats.compute_stats")
            t.wrap(mod, "build_posting_lists", "listbuild.build_posting_lists",
                   after=self._after_posting_lists)
        for fn in ("update_index", "delete_docs", "compact_index"):
            t.wrap(update, fn, f"update.{fn}")
        for fn, kernel in KERNELS.items():
            t.wrap(qe, fn, f"kernel.{kernel}")
        t.wrap(qe.IndexReader, "__init__", "reader.load")
        t.wrap(qe.IndexReader, "query_term_ids", "reader.query_term_ids")
        t.wrap(qe.IndexReader, "get", "reader.get", after=self._after_get)
        t.wrap(qe.IndexReader, "top_layer", "reader.top_layer")
        t.wrap(qe._Generation, "decode", "reader.decode",
               after=self._after_decode)
        t.wrap(qe.QueryEngine, "warm", "engine.warm")
        t.wrap(qe.QueryEngine, "topk", "engine.topk")
        t.wrap(qe.QueryEngine, "candidates", "engine.candidates")

    def uninstall(self):
        self.tracer.unwrap_all()

    # ---- counts taken where the work happens
    def _after_get(self, span, args, kwargs, result):
        if result is None:
            self.absent.add(span.id)
            self.sizes[span.id] = 0
        else:
            self.sizes[span.id] = int(result[0].size)

    def _after_decode(self, span, args, kwargs, result):
        self.sizes[span.id] = int(result[0].size)

    def _after_posting_lists(self, span, args, kwargs, result):
        postings = args[0]
        summary = postings._get_stats_summary()
        ops = summary.operators_stats
        self.emission.append({
            "span": span.id,
            "wall_s": float(summary.time_total_s),
            "cpu_s": sum(float(o.cpu_time.get("sum", 0.0)) for o in ops
                         if o.cpu_time),
            "rows": int(ops[-1].output_num_rows.get("sum", 0)) if ops else 0,
            "bytes": int(ops[-1].output_size_bytes.get("sum", 0)) if ops else 0,
        })

    # ---- per-layer metrics over the spans inside `root`
    def metrics(self, root: Span, phases: dict) -> dict:
        """`phases`: {"builds": [build_index metrics], "updates":
        [update_index metrics], "reopens": [{"generations",
        "tombstone_ranges"}], "bytes_rewritten", "delta_bytes",
        "bytes_written", "index": (keys, bytes), "engine_init_s",
        "broadcast_bytes", "steal_s"}."""
        spans = [s for s in self.tracer.spans
                 if s.start >= root.start and s.end <= root.end
                 and s.id != root.id]
        names: dict[str, list[Span]] = {}
        for s in spans:
            names.setdefault(s.name, []).append(s)

        def dur(name):
            return [s.end - s.start for s in names.get(name, ())]

        # the query ("topk"/"candidates") or build a span ran under; a
        # parent is always created before its children
        under: dict[int, str | None] = {}
        for s in spans:
            if s.name in ("engine.topk", "engine.candidates",
                          "build.build_index"):
                under[s.id] = s.name.split(".")[1]
            else:
                under[s.id] = under.get(s.parent)

        n_topk = len(names.get("engine.topk", ()))
        n_cand = len(names.get("engine.candidates", ()))
        n_queries = n_topk + n_cand
        missed = {s.parent for s in names.get("reader.decode", ())}
        # per query kind: calls, calls that returned a list, hits (a
        # list returned with no decode under the call). A key that is
        # in no generation returns None without decoding; it is counted
        # as absent, not as a hit.
        gets = {"topk": [0, 0, 0], "candidates": [0, 0, 0]}
        in_lists = 0  # postings in the lists topk itself fetched
        for s in names.get("reader.get", ()):
            if under[s.id] not in gets:
                continue
            g = gets[under[s.id]]
            g[0] += 1
            if s.id not in self.absent:
                g[1] += 1
                g[2] += s.id not in missed
            # kernels fetch the same lists again (cache hits): count a
            # list once, where topk fetches it
            if self.tracer.spans[s.parent].name == "engine.topk":
                in_lists += self.sizes.get(s.id, 0)
        decodes = names.get("reader.decode", ())
        selfs = self_times(spans)
        out = {}

        builds = phases.get("builds", [])

        def phase_sec(name):
            return [p["sec"] for b in builds for p in b["phases"]
                    if p["phase"] == name and not p.get("skipped")]

        bpl = {s.id: s.end - s.start
               for s in names.get("listbuild.build_posting_lists", ())}
        part = phase_sec("part-0")
        emitted = [e for e in self.emission if e["span"] in bpl]
        build_bpl = [bpl[s.id]
                     for s in names.get("listbuild.build_posting_lists", ())
                     if under[s.id] == "build_index"]
        out["build.stats_s"] = (_med(phase_sec("stats")), "s")
        out["build.part_s"] = (_med(part), "s")
        out["build.merge_s"] = (_med(phase_sec("merge")), "s")
        out["build.write_s"] = (
            _med([p - b for p, b in zip(part, build_bpl)]), "s")
        out["docids.conv_offsets_s"] = (_med(dur("docids.conv_offsets")), "s")
        out["stats.compute_stats_s"] = (_med(dur("stats.compute_stats")), "s")
        out["postings.emit_wall_s"] = (_med([e["wall_s"] for e in emitted]), "s")
        out["postings.emit_cpu_s"] = (_med([e["cpu_s"] for e in emitted]), "s")
        out["postings.partial_rows"] = (_med([e["rows"] for e in emitted]), "count")
        out["postings.partial_bytes"] = (_med([e["bytes"] for e in emitted]), "B")
        out["listbuild.exchange_s"] = (
            _med([bpl[e["span"]] - e["wall_s"] for e in emitted]), "s")
        keys, nbytes = phases.get("index", (0, 0))
        out["index.keys"] = (keys, "count")
        out["index.bytes"] = (nbytes, "B")

        lookups = dur("reader.query_term_ids")
        out["reader.term_lookup_us"] = (_mean(lookups) * 1e6, "us")
        calls = gets["topk"][0] + gets["candidates"][0]
        per_q = (lambda x: x / n_queries) if n_queries else (lambda x: 0.0)
        out["reader.get_calls_per_query"] = (per_q(calls), "count")
        out["reader.absent_gets_per_query"] = (
            per_q(calls - gets["topk"][1] - gets["candidates"][1]), "count")
        out["reader.decodes_per_query"] = (per_q(len(decodes)), "count")
        out["reader.decode_ms_per_query"] = (
            per_q(sum(s.end - s.start for s in decodes) * 1e3), "ms")
        out["reader.postings_decoded_per_query"] = (
            per_q(sum(self.sizes.get(s.id, 0) for s in decodes)), "count")
        for kind in ("topk", "candidates"):
            _, found, hits = gets[kind]
            out[f"reader.list_cache_hit_ratio.{kind}"] = (
                hits / found if found else 0.0, "ratio")
        kernel_calls = {k: dur(f"kernel.{k}") for k in KERNELS.values()}
        total_k = sum(len(v) for v in kernel_calls.values())
        for k, v in kernel_calls.items():
            out[f"kernel_share.{k}"] = (len(v) / total_k if total_k else 0.0,
                                        "ratio")
            out[f"kernel_ms_p50.{k}"] = (_med(v) * 1e3, "ms")
        out["engine.postings_in_lists_per_topk"] = (
            in_lists / n_topk if n_topk else 0.0, "count")
        tl = names.get("reader.top_layer", ())
        out["engine.top_layer_self_ms_per_candidates"] = (
            sum(selfs[s.id] for s in tl) * 1e3 / n_cand if n_cand else 0.0,
            "ms")
        out["engine.reader_load_s"] = (_med(dur("reader.load")), "s")
        out["engine.warm_s"] = (_med(dur("engine.warm")), "s")
        out["query.engine_init_s"] = (phases.get("engine_init_s", 0.0), "s")
        out["query.broadcast_bytes"] = (phases.get("broadcast_bytes", 0), "B")

        updates = phases.get("updates", [])

        def upd_sec(name):
            return [p["sec"] for u in updates for p in u["phases"]
                    if p["phase"] == name and not p.get("skipped")]

        out["update.delta_stats_s"] = (_med(upd_sec("delta-stats")), "s")
        out["update.generation_s"] = (_med(upd_sec("generation")), "s")
        out["update.update_s"] = (_med(dur("update.update_index")), "s")
        out["update.delete_ms"] = (_med(dur("update.delete_docs")) * 1e3, "ms")
        out["update.compact_s"] = (_med(dur("update.compact_index")), "s")
        reopens = phases.get("reopens", [])
        out["update.live_generations"] = (
            _mean([r["generations"] for r in reopens]), "count")
        out["update.tombstone_ranges"] = (
            _mean([r["tombstone_ranges"] for r in reopens]), "count")
        out["update.bytes_rewritten"] = (phases.get("bytes_rewritten", 0), "B")
        delta_bytes = phases.get("delta_bytes", 0)
        out["update.write_amp"] = (
            phases.get("bytes_written", 0) / delta_bytes if delta_bytes
            else 0.0, "ratio")
        out["host.steal_cpu_s"] = (phases.get("steal_s", 0.0), "s")
        return out
