"""Tombstone deletes: decode-time filtering, compaction-as-physical-
removal identity, LSM interplay (deletes + additive generations),
idempotency, crash windows, pruning interaction."""

import os
import shutil

import numpy as np
import pytest

QUERIES = ["query join data", "vector worker", "batch", "alpha beta gamma",
           "data", "rareterma shard"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from candidategeneration_ray.sources.transcripts import generate_transcripts
    import pyarrow as pa
    import pyarrow.parquet as pq

    table = generate_transcripts(90, seed=11)
    # one conv carrying a UNIQUE term, to test full-key deletion
    extra = pa.table({
        "conv_id": pa.array(["convuniqzz"], pa.string()),
        "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"], pa.string()),
        "text": pa.array(["zzuniqueterm vector data"], pa.string()),
        "tool": pa.array([""], pa.string()),
        "ts": table.column("ts").slice(0, 1),
    })
    table = pa.concat_tables([table, extra.cast(table.schema)])
    d = tmp_path_factory.mktemp("del_corpus")
    src = str(d / "turns.parquet")
    pq.write_table(table, src)
    convs = sorted(set(table.column("conv_id").to_pylist()))
    return {"src": src, "convs": convs}


def _deleted_set(convs):
    """Deterministic ~1/3 of conversations, including the unique-term one."""
    return sorted({c for i, c in enumerate(convs) if i % 3 == 1} | {"convuniqzz"})


@pytest.fixture(scope="module")
def deleted_index(ray_session, corpus, tmp_path_factory):
    """Full build + tombstone delete (NOT compacted)."""
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import delete_docs

    out = str(tmp_path_factory.mktemp("idx_del"))
    built = build_index([corpus["src"]], out)
    dels = _deleted_set(corpus["convs"])
    metrics = delete_docs(out, dels)
    return {"out": out, "built": built, "deleted_convs": dels,
            "metrics": metrics}


def _deleted_doc_ids(out_dir, deleted_convs):
    from candidategeneration_ray.pipelines.update import _load_offsets_light

    off = _load_offsets_light(out_dir)
    ids = []
    for c, b, n in zip(off["conv_ids"], off["bases"], off["counts"]):
        if c in set(deleted_convs):
            ids.extend(range(int(b), int(b) + int(n)))
    return np.asarray(sorted(ids), dtype=np.int64)


def _snap(reader):
    """key -> full decoded tuple (docs, scores, block_max, block_last)."""
    out = {}
    for k in reader.keys:
        got = reader.get(int(k))
        if got is None:
            continue
        out[int(k)] = tuple(np.asarray(x).tolist() for x in got)
    return out


def test_served_lists_equal_bruteforce_filter(deleted_index):
    """Tombstone view == unfiltered lists minus np.isin(deleted ids):
    the searchsorted range filter against the obvious dense filter."""
    from candidategeneration_ray.pipelines.update import load_tombstones
    from candidategeneration_ray.state.queryengine import IndexReader

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    final = os.path.join(out, "final")
    dead = _deleted_doc_ids(out, deleted_index["deleted_convs"])
    assert dead.size == deleted_index["metrics"]["deleted_docs"]
    plain = IndexReader(final, stats)
    tomb = IndexReader(final, stats, tombstones=load_tombstones(out))
    n_changed = 0
    for k in plain.keys:
        docs, scores, _, _ = plain.get(int(k))
        live = ~np.isin(docs, dead)
        got = tomb.get(int(k))
        if not live.any():
            assert got is None
            n_changed += 1
            continue
        assert got[0].tolist() == docs[live].tolist()
        assert got[1].tolist() == scores[live].tolist()
        if not live.all():
            n_changed += 1
    assert n_changed > 0  # the delete actually touched lists


def test_compaction_identical_and_physical(deleted_index, tmp_path_factory):
    """compact == tombstone serving, list for list including block
    metadata; tombstone files are gone and the compacted segments hold
    no deleted doc id."""
    from candidategeneration_ray.pipelines.update import (
        compact_index, load_tombstones, tombstone_files)
    from candidategeneration_ray.state.queryengine import IndexReader

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    cp = str(tmp_path_factory.mktemp("cp")) + "/idx"
    shutil.copytree(out, cp)
    tomb_view = _snap(IndexReader(os.path.join(out, "final"), stats,
                                  tombstones=load_tombstones(out)))
    compact_index(cp)
    assert load_tombstones(cp) is None
    assert tombstone_files(cp) == []
    compacted = _snap(IndexReader(os.path.join(cp, "final"), stats))
    assert compacted == tomb_view
    dead = set(_deleted_doc_ids(out, deleted_index["deleted_convs"]).tolist())
    for docs, _, _, _ in compacted.values():
        assert not (set(docs) & dead)


def test_topk_identical_across_algorithms_and_views(deleted_index,
                                                    tmp_path_factory):
    """WAND / scalar WAND / TAAT over the tombstone view all agree, and
    equal the compacted index's results (frozen scores both sides)."""
    from candidategeneration_ray.pipelines.update import compact_index, load_tombstones
    from candidategeneration_ray.state.queryengine import QueryEngine

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    eng = QueryEngine(os.path.join(out, "final"), stats,
                      tombstones_ref=load_tombstones(out))
    cp = str(tmp_path_factory.mktemp("cp2")) + "/idx"
    shutil.copytree(out, cp)
    compact_index(cp)
    eng_c = QueryEngine(os.path.join(cp, "final"), stats)
    dead = set(_deleted_doc_ids(out, deleted_index["deleted_convs"]).tolist())
    for q in QUERIES:
        w = eng.topk(q, algorithm="wand")
        assert eng.topk(q, algorithm="wand_scalar") == w
        assert eng.topk(q, algorithm="maxscore") == w
        assert eng.topk(q, algorithm="taat") == w
        assert eng_c.topk(q) == w
        assert not ({d for _, d in w} & dead)


def test_fully_deleted_key_vanishes(deleted_index, tmp_path_factory):
    from candidategeneration_ray.pipelines.update import compact_index, load_tombstones
    from candidategeneration_ray.state.queryengine import IndexReader

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    tid = {t: i + 1 for i, t in enumerate(stats["terms"])}["zzuniqueterm"]
    tomb = IndexReader(os.path.join(out, "final"), stats,
                       tombstones=load_tombstones(out))
    assert tomb.get(tid) is None
    cp = str(tmp_path_factory.mktemp("cp3")) + "/idx"
    shutil.copytree(out, cp)
    compact_index(cp)
    compacted = IndexReader(os.path.join(cp, "final"), stats)
    assert compacted.get(tid) is None
    assert tid not in set(compacted.keys.tolist())


def test_idempotent_unknown_and_partial_overlap(deleted_index):
    from candidategeneration_ray.pipelines.update import delete_docs, load_tombstones

    out = deleted_index["out"]
    dels = deleted_index["deleted_convs"]
    before = load_tombstones(out)
    m = delete_docs(out, dels)  # full replay: everything skipped
    assert m["deleted_docs"] == 0
    assert m["skipped_already_deleted"] == len(dels)
    after = load_tombstones(out)
    assert after["starts"].tolist() == before["starts"].tolist()
    with pytest.raises(ValueError, match="not in the index"):
        delete_docs(out, ["no-such-conv"])
    with pytest.raises(ValueError, match="at least one"):
        delete_docs(out, [])


def test_delete_then_delta_then_compact(ray_session, corpus, tmp_path_factory):
    """Deletes and additive generations compose: base build → delete →
    delta ingest → generational+tombstone serving == compacted."""
    import pyarrow.parquet as pq
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, delete_docs, load_tombstones, serving_sources,
        update_index)
    from candidategeneration_ray.sources.transcripts import generate_transcripts
    from candidategeneration_ray.state.queryengine import QueryEngine

    out = str(tmp_path_factory.mktemp("idx_mix"))
    build_index([corpus["src"]], out)
    dels = _deleted_set(corpus["convs"])[:5]
    delete_docs(out, dels)
    delta_tab = generate_transcripts(12, seed=99)
    import pyarrow as pa
    import pyarrow.compute as pc

    delta_tab = delta_tab.set_column(
        delta_tab.schema.get_field_index("conv_id"), "conv_id",
        pc.binary_join_element_wise(
            pa.array(["zzz"] * delta_tab.num_rows),
            delta_tab.column("conv_id").cast(pa.string()), ""))
    dpath = str(tmp_path_factory.mktemp("delta") / "d.parquet")
    pq.write_table(delta_tab, dpath)
    upd = update_index(out, [dpath])
    stats = upd["stats"]
    eng = QueryEngine(serving_sources(out), stats,
                      tombstones_ref=load_tombstones(out))
    lsm = {q: eng.topk(q) for q in QUERIES}
    compact_index(out)
    assert load_tombstones(out) is None
    eng_c = QueryEngine(serving_sources(out), stats)
    assert {q: eng_c.topk(q) for q in QUERIES} == lsm
    dead = set(_deleted_doc_ids(out, dels).tolist())
    for res in lsm.values():
        assert not ({d for _, d in res} & dead)


def test_crash_window_folded_tombstone_skipped(deleted_index,
                                               tmp_path_factory):
    """A compaction that crashed between the final swap and the
    tombstone cleanup leaves an already-applied tombstone file on disk.
    Doc ids are never reclaimed, so its ranges cover only dead ids:
    serving it again changes no list, the deleted-conversation set is
    unchanged, and the next compact_index folds it again and removes
    it."""
    from candidategeneration_ray.pipelines.update import (
        compact_index, deleted_convs, load_tombstones, tombstone_files)
    from candidategeneration_ray.state.queryengine import IndexReader

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    cp = str(tmp_path_factory.mktemp("cp4")) + "/idx"
    shutil.copytree(out, cp)
    troot = os.path.join(cp, "tombstones")
    files = sorted(f for f in os.listdir(troot) if f.startswith("del-"))
    saved = {f: open(os.path.join(troot, f), "rb").read() for f in files}
    compact_index(cp)
    dead = deleted_convs(cp)
    # simulate the crash: resurrect the folded tombstone files
    for f, blob in saved.items():
        with open(os.path.join(troot, f), "wb") as fh:
            fh.write(blob)
    assert [os.path.basename(t) for t in tombstone_files(cp)] == files
    final = os.path.join(cp, "final")
    assert _snap(IndexReader(final, stats,
                             tombstones=load_tombstones(cp))) \
        == _snap(IndexReader(final, stats))
    assert deleted_convs(cp) == dead
    compact_index(cp)                      # folds them again, removes them
    assert tombstone_files(cp) == []
    # only the folded-convs registry (deleted-conv identity) survives
    assert not [f for f in os.listdir(troot)
                if f.startswith("del-") and f.endswith(".parquet")]
    assert deleted_convs(cp) == dead


def _conv_turns(conv_id, texts, ts_col):
    import pyarrow as pa

    n = len(texts)
    return pa.table({
        "conv_id": pa.array([conv_id] * n, pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array([""] * n, pa.string()),
        "ts": ts_col.slice(0, n),
    })


def test_readd_lifecycle(ray_session, corpus, tmp_path_factory):
    """Updating a conversation = delete + re-ingest: the re-supplied
    conversation gets fresh doc ids at the end of the id space, its old
    docs stay tombstoned, and the cycle (delete → re-add → compact →
    re-delete → compact → re-add) repeats cleanly — including the
    folded-registry authorization and the digest-name non-reuse."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, delete_docs, deleted_convs, load_tombstones,
        serving_sources, update_index)
    from candidategeneration_ray.state.queryengine import IndexReader, QueryEngine

    tab = pq.read_table(corpus["src"])
    out = str(tmp_path_factory.mktemp("idx_readd"))
    build_index([corpus["src"]], out)
    X = corpus["convs"][4]
    delta = _conv_turns(X, ["zzreaddterm fresh content here",
                            "zzreaddterm again vector"], tab.column("ts"))
    dpath = str(tmp_path_factory.mktemp("rd") / "d.parquet")
    pq.write_table(delta.cast(tab.schema), dpath)
    # re-ingest without delete is rejected
    with pytest.raises(ValueError, match="existing conversations"):
        update_index(out, [dpath])
    delete_docs(out, [X])
    assert X in deleted_convs(out)
    upd = update_index(out, [dpath])
    assert X not in deleted_convs(out)  # re-added ⇒ live again
    stats = upd["stats"]
    eng = QueryEngine(serving_sources(out), stats,
                      tombstones_ref=load_tombstones(out))
    hits = eng.topk("zzreaddterm", k=10)
    assert len(hits) == 2
    # new doc ids sit past the original corpus
    n_base = int(tab.num_rows)
    assert all(d >= n_base for _, d in hits)
    # compact, then DELETE the re-added version (digest must not reuse
    # the folded file's name) and compact again: key vanishes
    compact_index(out)
    m = delete_docs(out, [X])
    assert m["deleted_docs"] == 2
    eng2 = QueryEngine(serving_sources(out), stats,
                       tombstones_ref=load_tombstones(out))
    assert eng2.topk("zzreaddterm", k=10) == []
    compact_index(out)
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    r = IndexReader(serving_sources(out), stats)
    assert r.get(t2i["zzreaddterm"]) is None
    # third ingest of the same conversation works again
    d2 = _conv_turns(X, ["zzthird cycle"], tab.column("ts"))
    d2p = str(tmp_path_factory.mktemp("rd2") / "d.parquet")
    pq.write_table(d2.cast(tab.schema), d2p)
    upd2 = update_index(out, [d2p])
    eng3 = QueryEngine(serving_sources(out), upd2["stats"],
                       tombstones_ref=load_tombstones(out))
    assert len(eng3.topk("zzthird", k=10)) == 1


def test_readd_doc_id_space_never_reclaimed(ray_session, corpus,
                                            tmp_path_factory):
    """extend_offsets' shift is max(base+count), not sum(counts): after
    a re-add drops a conversation's old row, a LATER delta's doc ids
    must still start past every live range (no collision)."""
    import pyarrow.parquet as pq
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        delete_docs, load_tombstones, serving_sources, update_index)
    from candidategeneration_ray.pipelines.update import _load_offsets_light

    tab = pq.read_table(corpus["src"])
    out = str(tmp_path_factory.mktemp("idx_space"))
    build_index([corpus["src"]], out)
    X = corpus["convs"][7]
    # X originally has k turns; re-add it with ONE turn (shrinks sum)
    delta = _conv_turns(X, ["zzshrunk"], tab.column("ts"))
    dp = str(tmp_path_factory.mktemp("sp") / "d.parquet")
    pq.write_table(delta.cast(tab.schema), dp)
    delete_docs(out, [X])
    update_index(out, [dp])
    d2 = _conv_turns("zzznewconv", ["later delta content"], tab.column("ts"))
    d2p = str(tmp_path_factory.mktemp("sp2") / "d.parquet")
    pq.write_table(d2.cast(tab.schema), d2p)
    update_index(out, [d2p])
    off = _load_offsets_light(out)
    ends = off["bases"] + off["counts"]
    # all live ranges disjoint
    order = np.argsort(off["bases"])
    assert (off["bases"][order][1:] >= ends[order][:-1]).all()


def test_delete_under_pruning_serve_equals_compact(ray_session, corpus,
                                                   tmp_path_factory):
    """With build-time list pruning, the tombstone view and the
    compacted (re-pruned) index still serve identically: the filtered
    set is a subset of the pruned lists, and prune-of-pruned keeps
    every survivor (partition-safety of prune_mask)."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, delete_docs, load_tombstones)
    from candidategeneration_ray.state.queryengine import IndexReader

    cfg = EngineConfig(max_list_postings=12, unconditional_prefix=4)
    out = str(tmp_path_factory.mktemp("idx_prune"))
    built = build_index([corpus["src"]], out, cfg)
    delete_docs(out, _deleted_set(corpus["convs"]))
    stats = built["stats"]
    tomb_view = _snap(IndexReader(os.path.join(out, "final"), stats, cfg,
                                  tombstones=load_tombstones(out)))
    compact_index(out, cfg)
    compacted = _snap(IndexReader(os.path.join(out, "final"), stats, cfg))
    assert compacted == tomb_view


def test_run_queries_and_sharded_fleet_with_tombstones(deleted_index,
                                                       ray_session):
    """Both batch-serving paths (task-served run_queries, doc-sharded
    fleet) honor tombstones and match the single engine."""
    import pyarrow as pa
    import ray.data
    from candidategeneration_ray.pipelines.query import run_queries
    from candidategeneration_ray.pipelines.update import load_tombstones
    from candidategeneration_ray.state.queryengine import QueryEngine
    from candidategeneration_ray.state.sharded import ShardedQueryEngine

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    final = os.path.join(out, "final")
    tombs = load_tombstones(out)
    eng = QueryEngine(final, stats, tombstones_ref=tombs)
    want = {q: eng.topk(q, k=10) for q in QUERIES}

    qds = ray.data.from_arrow(pa.table({
        "query_id": pa.array(range(len(QUERIES)), pa.int64()),
        "text": pa.array(QUERIES, pa.string()),
    }))
    got = run_queries(final, qds, stats, tombstones=tombs).to_pandas()
    for i, q in enumerate(QUERIES):
        rows = got[got["query_id"] == i].sort_values("rank")
        assert list(zip(rows["score"], rows["doc_id"])) == want[q][:10]

    fleet = ShardedQueryEngine([final], stats, tombstones=tombs)
    try:
        for q in QUERIES:
            assert fleet.topk(q, k=10) == want[q]
    finally:
        fleet.shutdown()


def test_randomized_delete_subsets_match_bruteforce(deleted_index, corpus,
                                                    ray_session,
                                                    tmp_path_factory):
    """Property test: for random conversation subsets, tombstone
    serving equals the dense np.isin filter of the unfiltered lists —
    across fresh tombstone sets applied to copies of the same build."""
    import pyarrow.parquet as pq
    from candidategeneration_ray.pipelines.update import (
        delete_docs, load_tombstones)
    from candidategeneration_ray.state.queryengine import IndexReader

    out = deleted_index["out"]
    stats = deleted_index["built"]["stats"]
    final = os.path.join(out, "final")
    plain = IndexReader(final, stats)
    base_lists = {int(k): plain.get(int(k))[:2] for k in plain.keys}
    rng = np.random.default_rng(7)
    convs = np.asarray(corpus["convs"], dtype=object)
    for trial in range(3):
        cp = str(tmp_path_factory.mktemp(f"rnd{trial}")) + "/idx"
        shutil.copytree(out, cp)
        shutil.rmtree(os.path.join(cp, "tombstones"))
        pick = convs[rng.random(convs.size) < rng.uniform(0.1, 0.6)]
        if pick.size == 0:
            pick = convs[:1]
        delete_docs(cp, pick.tolist())
        dead = _deleted_doc_ids(cp, pick.tolist())
        tomb = IndexReader(final, stats, tombstones=load_tombstones(cp))
        for k, (docs, scores) in base_lists.items():
            live = ~np.isin(docs, dead)
            got = tomb.get(k)
            if not live.any():
                assert got is None
            else:
                assert got[0].tolist() == docs[live].tolist()
                assert got[1].tolist() == scores[live].tolist()


def test_delete_in_blocks_mode_and_bucket_shards(ray_session, corpus,
                                                 tmp_path_factory):
    """Tombstones are orthogonal to key-sharded serving (buckets=...):
    topk never returns a deleted doc, and every bucket shard serves
    the full reader's tombstoned lists."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import delete_docs, load_tombstones
    from candidategeneration_ray.stages.listbuild import bucket_of
    from candidategeneration_ray.state.queryengine import IndexReader, QueryEngine

    cfg = EngineConfig()
    out = str(tmp_path_factory.mktemp("idx_shards"))
    stats = build_index([corpus["src"]], out, cfg)["stats"]
    dels = _deleted_set(corpus["convs"])[:7]
    delete_docs(out, dels)
    tombs = load_tombstones(out)
    final = os.path.join(out, "final")
    eng = QueryEngine(final, stats, cfg, tombstones_ref=tombs)
    dead = set(_deleted_doc_ids(out, dels).tolist())
    full = IndexReader(final, stats, cfg, tombstones=tombs)
    import numpy as np

    for q in QUERIES:
        res = eng.topk(q, k=10)
        assert not ({d for _, d in res} & dead)
    # key-sharded: every key served from its own bucket shard equals
    # the full reader under the same tombstones
    some = full.keys[:: max(1, full.keys.size // 20)]
    for k in some:
        b = int(bucket_of(np.array([k], np.int64), cfg.num_buckets)[0])
        shard = IndexReader(final, stats, cfg, buckets=[b],
                            tombstones=tombs)
        a, bb = full.get(int(k)), shard.get(int(k))
        if a is None:
            assert bb is None
        else:
            assert all(np.array_equal(x, y) for x, y in zip(a, bb))
