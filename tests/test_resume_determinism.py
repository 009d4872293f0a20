"""Resume, determinism and parallelism-independence (SURVEY §5.2 4-5)."""

import os

import numpy as np
import pytest

from candidategeneration_ray.pipelines.build import build_index, load_stats
from candidategeneration_ray.state import checkpoint as ckpt
from candidategeneration_ray.state.queryengine import IndexReader


def _index_fingerprint(final_dir, stats):
    """Logical content of an index: {key: (docs, scores)} hashes."""
    r = IndexReader(final_dir, stats)
    out = {}
    for k in r.keys:
        docs, scores, bmax, blast = r.get(int(k))
        out[int(k)] = (docs.tobytes(), scores.tobytes(),
                       bmax.tobytes(), blast.tobytes())
    return out


class TestDeterminism:
    def test_partitioned_equals_single(self, ray_session, transcripts_dir, tmp_path):
        """3-partition build (salted sub-lists + concat merge) is
        logically identical to the single-partition build."""
        r1 = build_index(transcripts_dir, str(tmp_path / "p1"), partitions=1)
        r3 = build_index(transcripts_dir, str(tmp_path / "p3"), partitions=3)
        f1 = _index_fingerprint(r1["final_dir"], r1["stats"])
        f3 = _index_fingerprint(r3["final_dir"], r3["stats"])
        assert f1 == f3

    def test_pruned_partitioned_equals_single(self, ray_session, transcripts_dir, tmp_path):
        """Build-time pruning (O3) applied per partition AND at the
        merge must equal the single-pass pruned build exactly (the
        prune_mask superset property), and every list must respect the
        cap with its doc-order prefix intact."""
        from candidategeneration_ray.config import EngineConfig

        cfg = EngineConfig(max_list_postings=8, unconditional_prefix=3)
        r1 = build_index(transcripts_dir, str(tmp_path / "pp1"), cfg, partitions=1)
        r3 = build_index(transcripts_dir, str(tmp_path / "pp3"), cfg, partitions=3)
        f1 = _index_fingerprint(r1["final_dir"], r1["stats"])
        f3 = _index_fingerprint(r3["final_dir"], r3["stats"])
        assert f1 == f3
        # compare against the unpruned build: cap respected, prefix kept
        r_full = build_index(transcripts_dir, str(tmp_path / "pfull"), partitions=1)
        rf = IndexReader(r_full["final_dir"], r_full["stats"])
        rp = IndexReader(r1["final_dir"], r1["stats"])
        assert set(rp.keys.tolist()) == set(rf.keys.tolist())
        checked_pruned = 0
        for k in rf.keys:
            full_docs, full_scores, _, _ = rf.get(int(k))
            pr_docs, pr_scores, _, _ = rp.get(int(k))
            assert pr_docs.size == min(full_docs.size, 8)
            # doc-order prefix unconditional
            npfx = min(3, full_docs.size)
            assert np.array_equal(pr_docs[:npfx], full_docs[:npfx])
            if full_docs.size > 8:
                checked_pruned += 1
                # tail = exact top-5 of the remainder by (score desc, doc asc)
                ts, td = full_scores[npfx:].astype(np.int64), full_docs[npfx:]
                top = np.lexsort((td, -ts))[:5]
                expect = np.sort(td[top])
                assert np.array_equal(np.sort(pr_docs[npfx:]), expect), int(k)
        assert checked_pruned > 0  # the fixture actually exercises pruning

    def test_rebuild_is_identical(self, ray_session, transcripts_dir, tmp_path):
        """Two independent builds produce byte-identical logical indexes
        (no execution-order dependence anywhere)."""
        ra = build_index(transcripts_dir, str(tmp_path / "a"))
        rb = build_index(transcripts_dir, str(tmp_path / "b"))
        assert _index_fingerprint(ra["final_dir"], ra["stats"]) == \
            _index_fingerprint(rb["final_dir"], rb["stats"])

    def test_doc_ids_pure_function_of_data(self, ray_session, transcripts_dir, tmp_path):
        ra = build_index(transcripts_dir, str(tmp_path / "da"))
        offs = ra["offsets"]
        # doc_id of conv c turn t == base[c] + t, derived from sorted conv order
        order = np.argsort(offs["conv_ids"])
        assert np.array_equal(order, np.arange(len(order)))  # already sorted


class TestResume:
    def test_resume_skips_completed(self, ray_session, transcripts_dir, tmp_path):
        out = str(tmp_path / "resume")
        r1 = build_index(transcripts_dir, out, partitions=2)
        assert all(not p.get("skipped") for p in r1["metrics"]["phases"])
        r2 = build_index(transcripts_dir, out, partitions=2)
        assert all(p.get("skipped") for p in r2["metrics"]["phases"])
        assert _index_fingerprint(r1["final_dir"], r1["stats"]) == \
            _index_fingerprint(r2["final_dir"], r2["stats"])

    def test_interrupted_build_resumes_identically(self, ray_session, transcripts_dir, tmp_path):
        """Simulate a kill after partition 0: destroy partition 1's
        output + the merge; the re-run must skip stats and part-0, redo
        part-1 and merge, and produce the identical index."""
        import shutil

        out = str(tmp_path / "kill")
        ref = build_index(transcripts_dir, str(tmp_path / "ref"), partitions=2)
        full = build_index(transcripts_dir, out, partitions=2)
        # "kill": remove partition 1 manifest + final dir entirely
        part1 = os.path.join(out, "segments", "part-00001")
        os.remove(os.path.join(part1, "MANIFEST.json"))
        shutil.rmtree(os.path.join(out, "final"))
        r2 = build_index(transcripts_dir, out, partitions=2)
        flags = {p["phase"]: p.get("skipped") for p in r2["metrics"]["phases"]}
        assert flags["stats"] and flags["part-0"]
        assert not flags["part-1"] and not flags["merge"]
        assert _index_fingerprint(r2["final_dir"], r2["stats"]) == \
            _index_fingerprint(ref["final_dir"], ref["stats"])

    def test_manifest_lineage_mismatch_triggers_rebuild(self, ray_session, transcripts_dir, tmp_path):
        out = str(tmp_path / "lin")
        build_index(transcripts_dir, out, partitions=1)
        # tamper with the stats manifest lineage
        sd = os.path.join(out, "stats")
        m = ckpt.read_manifest(sd)
        m["inputs"] = ["bogus"]
        ckpt.write_manifest(sd, m)
        r = build_index(transcripts_dir, out, partitions=1)
        flags = {p["phase"]: p.get("skipped") for p in r["metrics"]["phases"]}
        assert not flags["stats"]  # recomputed

    def test_stats_checkpoint_roundtrip(self, ray_session, transcripts_dir, tmp_path):
        out = str(tmp_path / "ckpt")
        r = build_index(transcripts_dir, out)
        stats2, offsets2 = load_stats(out)
        assert list(stats2["terms"]) == list(r["stats"]["terms"])
        assert np.array_equal(stats2["df_by_id"], r["stats"]["df_by_id"])
        assert stats2["n_docs"] == r["stats"]["n_docs"]
        assert stats2["avgdl"] == r["stats"]["avgdl"]
        assert list(offsets2["conv_ids"]) == list(r["offsets"]["conv_ids"])


class TestParallelismIndependence:
    def test_block_count_does_not_change_index(self, ray_session, transcripts_dir, tmp_path):
        """SURVEY §5.2-4: builds from 2-block and 8-block input layouts
        produce identical logical indexes (no execution-order or
        batch-boundary dependence)."""
        import ray.data

        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.stages.docids import attach_doc_ids, conv_offsets
        from candidategeneration_ray.stages.listbuild import build_posting_lists
        from candidategeneration_ray.stages.postings import emit_postings
        from candidategeneration_ray.stages.stats import compute_stats
        from candidategeneration_ray.stages.tokenize import attach_tokens
        from candidategeneration_ray.state.queryengine import IndexReader
        import ray

        fingerprints = []
        for nblocks in (2, 8):
            ds = ray.data.read_parquet(
                transcripts_dir, columns=["conv_id", "turn_idx", "text"],
                override_num_blocks=nblocks)
            toks = attach_tokens(ds)
            stats = compute_stats(toks, 64)
            off_ref = ray.put(conv_offsets(ds, 64))
            cfg = EngineConfig(emit_batch_size=512 * nblocks)  # different batching too
            postings = emit_postings(attach_doc_ids(toks, off_ref), ray.put(stats), cfg)
            lists = build_posting_lists(postings, cfg)
            out = str(tmp_path / f"blocks{nblocks}")
            lists.write_parquet(out)
            r = IndexReader(out, stats)
            fp = {int(k): r.get(int(k))[0].tobytes() + r.get(int(k))[1].tobytes()
                  for k in r.keys}
            fingerprints.append(fp)
        assert fingerprints[0] == fingerprints[1]


class TestFilePartitioning:
    def test_file_partitioned_equals_conv_partitioned(self, ray_session, transcripts_dir, tmp_path):
        """A multi-file corpus partitions by file groups (one read of
        each byte), a one-file corpus by conv ranges; both yield the
        single-partition build's index."""
        from candidategeneration_ray.sources.transcripts import write_transcripts

        def lineages(out):
            seg = os.path.join(out, "segments")
            return [ckpt.read_manifest(os.path.join(seg, d))["lineage"]
                    for d in sorted(os.listdir(seg))]

        r1 = build_index(transcripts_dir, str(tmp_path / "single"), partitions=1)
        rf = build_index(transcripts_dir, str(tmp_path / "byfile"), partitions=3)
        one = write_transcripts(str(tmp_path / "onefile"), num_convs=120,
                                seed=42, num_files=1)
        rc = build_index(one, str(tmp_path / "byconv"), partitions=3)
        by_file = lineages(str(tmp_path / "byfile"))
        by_conv = lineages(str(tmp_path / "byconv"))
        assert len(by_file) == 3 and len(by_conv) == 3
        assert not any(p.startswith("range:") for lin in by_file for p in lin)
        assert all(lin[-1].startswith("range:") for lin in by_conv)
        f1 = _index_fingerprint(r1["final_dir"], r1["stats"])
        assert f1 == _index_fingerprint(rf["final_dir"], rf["stats"])
        assert f1 == _index_fingerprint(rc["final_dir"], rc["stats"])
