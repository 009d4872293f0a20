"""Incremental (delta) index updates: LSM generations, frozen-stats
epoch semantics, compaction identity, multi-generation serving."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

QUERIES = ["query join data", "vector worker", "batch", "alpha beta gamma",
           "data", "rareterma shard"]


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    """One deterministic corpus split at the conv-id midpoint into
    base/ and delta/ dirs (delta convs sort strictly after base convs,
    so merged doc-id assignment equals the global assignment)."""
    from candidategeneration_ray.sources.transcripts import generate_transcripts

    table = generate_transcripts(80, seed=7)
    convs = sorted(set(table.column("conv_id").to_pylist()))
    mid = convs[len(convs) // 2]
    root = tmp_path_factory.mktemp("update_corpus")
    import pyarrow.compute as pc

    paths = {}
    for name, mask in [
        ("base", pc.less(table.column("conv_id"), mid)),
        ("delta", pc.greater_equal(table.column("conv_id"), mid)),
    ]:
        part = table.filter(mask)
        if name == "delta":
            # guarantee at least one delta-only term for the new-term test
            extra = pa.table({
                "conv_id": pa.array(["convzzzdelta"], pa.string()),
                "turn_idx": pa.array([0], pa.int32()),
                "role": pa.array(["user"], pa.string()),
                "text": pa.array(["zzzonlydelta vector data"], pa.string()),
                "tool": pa.array([""], pa.string()),
                "ts": part.column("ts").slice(0, 1),
            })
            part = pa.concat_tables([part, extra.cast(part.schema)])
        d = root / name
        d.mkdir()
        n = part.num_rows
        pq.write_table(part.slice(0, n // 2), str(d / "a.parquet"))
        pq.write_table(part.slice(n // 2), str(d / "b.parquet"))
        paths[name] = str(d)
    return paths


@pytest.fixture(scope="module")
def updated_index(ray_session, split_corpus, tmp_path_factory):
    """Base build + one delta update (NOT compacted)."""
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import update_index

    out = str(tmp_path_factory.mktemp("idx_lsm"))
    base = build_index(split_corpus["base"], out)
    upd = update_index(out, split_corpus["delta"])
    return {"out": out, "base": base, "upd": upd}


def _topk_all(sources, stats):
    from candidategeneration_ray.state.queryengine import QueryEngine

    eng = QueryEngine(sources, stats)
    return {q: eng.topk(q, k=10) for q in QUERIES}


def test_generational_serving_then_compaction_identical(updated_index, split_corpus,
                                                        tmp_path_factory):
    """Serving [final, gen-0001] == serving the compacted final — for
    query results AND per-key decoded list content. Compacts a COPY so
    the shared fixture keeps its generation."""
    import shutil

    from candidategeneration_ray.pipelines.update import compact_index, serving_sources
    from candidategeneration_ray.state.queryengine import IndexReader

    out = str(tmp_path_factory.mktemp("idx_compact")) + "/idx"
    shutil.copytree(updated_index["out"], out)
    stats = updated_index["upd"]["stats"]
    sources = serving_sources(out)
    assert len(sources) == 2, "one delta generation expected"

    lsm = IndexReader(list(sources), stats)
    before_topk = _topk_all(list(sources), stats)
    lsm_lists = {int(k): lsm.get(int(k)) for k in lsm.keys}

    compact_index(out)
    after = serving_sources(out)
    assert len(after) == 1, "compaction folds generations into final"
    flat = IndexReader(after[0], stats)
    assert _topk_all(after, stats) == before_topk

    assert set(map(int, flat.keys)) == set(lsm_lists)
    for k in lsm_lists:
        ld, ls, lb, ll = lsm_lists[k]
        fd_, fs, fb, fl = flat.get(k)
        np.testing.assert_array_equal(ld, fd_)
        np.testing.assert_array_equal(ls, fs)
        np.testing.assert_array_equal(lb, fb)
        np.testing.assert_array_equal(ll, fl)


def test_doc_sets_match_full_rebuild(updated_index, split_corpus,
                                     tmp_path_factory, ray_session):
    """Per-TERM doc-id lists of the updated index equal a full rebuild
    over base+delta (scores differ by epoch, doc sets must not); term
    ids may differ between the two dictionaries so compare by string."""
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import serving_sources
    from candidategeneration_ray.state.queryengine import IndexReader

    full_out = str(tmp_path_factory.mktemp("idx_full"))
    all_files = sorted(
        os.path.join(d, f)
        for d in (split_corpus["base"], split_corpus["delta"])
        for f in os.listdir(d) if f.endswith(".parquet"))
    full = build_index(all_files, full_out)

    upd_stats = updated_index["upd"]["stats"]
    lsm = IndexReader(list(serving_sources(updated_index["out"])), upd_stats)
    flat = IndexReader(full["final_dir"], full["stats"])

    assert sorted(upd_stats["terms"].tolist()) == sorted(full["stats"]["terms"].tolist())
    for term, tid_u in lsm.term_to_id.items():
        tid_f = flat.term_to_id[term]
        got_u, got_f = lsm.get(tid_u), flat.get(tid_f)
        assert (got_u is None) == (got_f is None), term
        if got_u is not None:
            np.testing.assert_array_equal(got_u[0], got_f[0], err_msg=term)


def test_generation_record_says_what_ran(updated_index, split_corpus):
    """The generation phase records the delta's turn count and the
    emission batch derived from it on the 4-CPU session cluster:
    ceil(rows / 4) under the 8192 cap."""
    rows = sum(pq.read_metadata(os.path.join(split_corpus["delta"], f)).num_rows
               for f in os.listdir(split_corpus["delta"]))
    (gen,) = [p for p in updated_index["upd"]["metrics"]["phases"]
              if p["phase"] == "generation"]
    assert gen["rows"] == rows
    assert gen["emit_batch"] == min(8192, -(-rows // 4))


def test_delta_scores_use_frozen_epoch(updated_index):
    """A delta posting's score is BM25 under the BASE epoch stats
    (frozen N/avgdl/df), not the grown corpus's."""
    from candidategeneration_ray.functions.bm25 import bm25_quantized
    from candidategeneration_ray.pipelines.update import serving_sources
    from candidategeneration_ray.state.queryengine import IndexReader
    from candidategeneration_ray.functions.tokenize import tokenize_text

    base_stats = updated_index["base"]["stats"]
    upd = updated_index["upd"]
    base_n_docs = updated_index["base"]["offsets"]["n_docs"]

    assert upd["stats"]["n_docs"] == base_stats["n_docs"]
    assert upd["stats"]["avgdl"] == base_stats["avgdl"]

    reader = IndexReader(list(serving_sources(updated_index["out"])), upd["stats"])
    # the synthetic delta-only doc: "zzzonlydelta vector data"
    tid = reader.term_to_id["zzzonlydelta"]
    docs, scores, _, _ = reader.get(tid)
    assert docs.size == 1 and docs[0] >= base_n_docs
    toks = tokenize_text("zzzonlydelta vector data")
    tf = np.array([1]); maxtf = np.array([1]); dlen = np.array([len(toks)])
    df = np.array([upd["stats"]["df_by_id"][tid]])
    expect = bm25_quantized(tf, maxtf, dlen, df, base_stats["n_docs"],
                            base_stats["avgdl"], 1.6, 0.75, 10_000_000)
    assert int(scores[0]) == int(expect[0])


def test_new_terms_appended_base_ids_stable(updated_index):
    base_terms = updated_index["base"]["stats"]["terms"]
    ext = updated_index["upd"]["stats"]
    nb = len(base_terms)
    assert ext["terms"][:nb].tolist() == list(base_terms)
    appended = ext["terms"][nb:].tolist()
    assert "zzzonlydelta" in appended
    assert appended == sorted(appended)


def test_update_idempotent(updated_index, split_corpus):
    from candidategeneration_ray.pipelines.update import generation_dirs, update_index

    out = updated_index["out"]
    n_gens = len(generation_dirs(out))
    again = update_index(out, split_corpus["delta"])
    assert again["metrics"]["phases"][0] == {"phase": "delta", "skipped": True}
    assert len(generation_dirs(out)) == n_gens


def test_partial_overlap_raises(updated_index, split_corpus):
    from candidategeneration_ray.pipelines.update import update_index

    delta_files = sorted(
        os.path.join(split_corpus["delta"], f)
        for f in os.listdir(split_corpus["delta"]))
    with pytest.raises(ValueError, match="partially overlaps"):
        update_index(updated_index["out"], delta_files[:1] + ["/nonexistent/x.parquet"])


def test_conv_overlap_raises():
    from candidategeneration_ray.pipelines.update import extend_offsets

    base = {"conv_ids": np.array(["a", "b"], dtype=object),
            "bases": np.array([0, 3]), "counts": np.array([3, 2]), "n_docs": 5}
    delta = {"conv_ids": np.array(["b", "c"], dtype=object),
             "bases": np.array([0, 1]), "counts": np.array([1, 1]), "n_docs": 2}
    with pytest.raises(ValueError, match="existing conversations"):
        extend_offsets(base, delta)


def test_max_delta_fraction_guard(updated_index, split_corpus, tmp_path_factory):
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import update_index

    out = str(tmp_path_factory.mktemp("idx_guard"))
    build_index(split_corpus["base"], out)
    with pytest.raises(ValueError, match="frozen statistics would drift"):
        update_index(out, split_corpus["delta"], max_delta_fraction=0.01)


def test_two_successive_deltas(split_corpus, tmp_path_factory, ray_session):
    """base + delta₁ + delta₂ (three generations of conversations):
    per-term doc sets equal a full build over everything; compaction of
    BOTH generations at once is identical to generational serving."""
    import pyarrow.compute as pc

    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, generation_dirs, serving_sources, update_index)
    from candidategeneration_ray.state.queryengine import IndexReader

    # split the delta dir's convs once more at its midpoint
    import pyarrow.parquet as pq

    dd = split_corpus["delta"]
    files = sorted(os.path.join(dd, f) for f in os.listdir(dd)
                   if f.endswith(".parquet"))
    tab = pa.concat_tables([pq.read_table(f) for f in files])
    convs = sorted(set(tab.column("conv_id").to_pylist()))
    mid = convs[len(convs) // 2]
    root = tmp_path_factory.mktemp("two_deltas")
    d1, d2 = str(root / "d1"), str(root / "d2")
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(tab.filter(pc.less(tab.column("conv_id"), mid)),
                   os.path.join(d1, "a.parquet"))
    pq.write_table(tab.filter(pc.greater_equal(tab.column("conv_id"), mid)),
                   os.path.join(d2, "a.parquet"))

    out = str(tmp_path_factory.mktemp("idx_two"))
    build_index(split_corpus["base"], out)
    update_index(out, d1)
    upd2 = update_index(out, d2)
    assert len(generation_dirs(out)) == 2

    lsm = IndexReader(list(serving_sources(out)), upd2["stats"])
    lsm_lists = {int(k): lsm.get(int(k)) for k in lsm.keys}
    compact_index(out)
    flat = IndexReader(serving_sources(out)[0], upd2["stats"])
    assert set(map(int, flat.keys)) == set(lsm_lists)
    for k, (ld, ls, _, _) in lsm_lists.items():
        fd_, fs, _, _ = flat.get(k)
        np.testing.assert_array_equal(ld, fd_)
        np.testing.assert_array_equal(ls, fs)

    # doc sets equal the full rebuild (by term string)
    full_out = str(tmp_path_factory.mktemp("idx_two_full"))
    all_files = sorted(
        os.path.join(d, f)
        for d in (split_corpus["base"], d1, d2)
        for f in os.listdir(d) if f.endswith(".parquet"))
    full = build_index(all_files, full_out)
    full_r = IndexReader(full["final_dir"], full["stats"])
    for term, tid_u in flat.term_to_id.items():
        got_u = flat.get(tid_u)
        got_f = full_r.get(full_r.term_to_id[term])
        assert (got_u is None) == (got_f is None), term
        if got_u is not None:
            np.testing.assert_array_equal(got_u[0], got_f[0], err_msg=term)


def test_pruned_delta_compaction_reprunes(split_corpus, tmp_path_factory,
                                          ray_session):
    """With build-time list pruning, each generation is pruned on its
    own (generational serving may exceed the cap per key); compaction
    must re-apply the EXACT prune to the concatenation: first `prefix`
    postings in doc order + best tail by (score desc, doc asc)."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, serving_sources, update_index)
    from candidategeneration_ray.state.queryengine import IndexReader

    cap, prefix = 15, 5
    cfg = EngineConfig(emit_pairs=False, max_list_postings=cap,
                       unconditional_prefix=prefix)
    out = str(tmp_path_factory.mktemp("idx_pruned_delta"))
    build_index(split_corpus["base"], out, cfg)
    upd = update_index(out, split_corpus["delta"], cfg)
    lsm = IndexReader(list(serving_sources(out)), upd["stats"], cfg)
    concat = {int(k): lsm.get(int(k)) for k in lsm.keys}
    assert any(d.size > cap for d, *_ in concat.values()), \
        "fixture too small to exercise the cap"

    compact_index(out, cfg)
    flat = IndexReader(serving_sources(out)[0], upd["stats"], cfg)
    for k, (docs, scores, _, _) in concat.items():
        keep = set(range(min(prefix, docs.size)))
        budget = cap - prefix
        tail = sorted(range(prefix, docs.size),
                      key=lambda i: (-int(scores[i]), int(docs[i])))[:budget]
        idx = sorted(keep | set(tail))
        fd_, fs, _, _ = flat.get(k)
        np.testing.assert_array_equal(fd_, docs[idx], err_msg=str(k))
        np.testing.assert_array_equal(fs, scores[idx], err_msg=str(k))
        assert fd_.size <= cap


def test_partitioned_delta_matches_single(split_corpus, tmp_path_factory,
                                          ray_session):
    """A delta ingested with partitions=3 (one generation per conv
    range) serves identically to the same delta as one generation, and
    partial-resume (kill after range 1) completes on retry without
    duplicating ranges."""
    import shutil

    from candidategeneration_ray.pipelines.build import build_index, _persist_stats
    from candidategeneration_ray.pipelines.update import (
        generation_dirs, serving_sources, update_index)
    from candidategeneration_ray.state.queryengine import IndexReader

    out1 = str(tmp_path_factory.mktemp("idx_p1"))
    out3 = str(tmp_path_factory.mktemp("idx_p3"))
    b1 = build_index(split_corpus["base"], out1)
    build_index(split_corpus["base"], out3)
    u1 = update_index(out1, split_corpus["delta"])
    u3 = update_index(out3, split_corpus["delta"], partitions=3)
    assert len(generation_dirs(out3)) == 3

    r1 = IndexReader(list(serving_sources(out1)), u1["stats"])
    r3 = IndexReader(list(serving_sources(out3)), u3["stats"])
    assert set(map(int, r1.keys)) == set(map(int, r3.keys))
    for k in map(int, r1.keys):
        a, b = r1.get(k), r3.get(k)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    # partial resume: roll stats back and delete the LAST generation —
    # retry must rebuild only it (first two heal) and converge
    base_inputs = sorted(
        os.path.join(split_corpus["base"], f)
        for f in os.listdir(split_corpus["base"]) if f.endswith(".parquet"))
    _persist_stats(out3, b1["stats"], b1["offsets"], base_inputs)
    shutil.rmtree(generation_dirs(out3)[-1])
    u3b = update_index(out3, split_corpus["delta"], partitions=3)
    healed = [p for p in u3b["metrics"]["phases"] if p.get("healed")]
    built = [p for p in u3b["metrics"]["phases"]
             if p.get("phase") == "generation" and not p.get("skipped")]
    assert len(healed) == 2 and len(built) == 1
    r3b = IndexReader(list(serving_sources(out3)), u3b["stats"])
    for k in map(int, r1.keys):
        np.testing.assert_array_equal(r1.get(k)[0], r3b.get(k)[0])


def test_interleaved_delta_convs(split_corpus, tmp_path_factory, ray_session):
    """Delta conversations may sort lexically BETWEEN base conversations
    — doc ids still append after the base corpus (never renumber), the
    LSM doc-range invariant holds, and per-term list lengths equal a
    full rebuild's."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import serving_sources, update_index
    from candidategeneration_ray.sources.transcripts import generate_transcripts
    from candidategeneration_ray.state.queryengine import IndexReader

    root = tmp_path_factory.mktemp("interleaved")
    tab = generate_transcripts(12, seed=31)
    import pyarrow.compute as pc

    # rename delta convs to sort between base convs: conv00000X -> conv00000Xz
    conv = pc.binary_join_element_wise(tab.column("conv_id").cast(pa.string()),
                                      "z", "")
    delta = tab.set_column(tab.schema.get_field_index("conv_id"), "conv_id",
                           conv.cast(tab.schema.field("conv_id").type))
    dd = root / "delta"
    dd.mkdir()
    pq.write_table(delta, str(dd / "d.parquet"))

    out = str(root / "idx")
    base = build_index(split_corpus["base"], out)
    base_n = base["offsets"]["n_docs"]
    upd = update_index(out, str(dd))
    # delta doc ids all append after the base corpus
    reader = IndexReader(list(serving_sources(out)), upd["stats"])
    base_reader = IndexReader(serving_sources(out)[0], base["stats"])
    for k in map(int, reader.keys):
        docs, _, _, _ = reader.get(k)  # raises if generations overlap
        got_base = base_reader.get(k)
        n_base = got_base[0].size if got_base is not None else 0
        assert (docs >= base_n).sum() == docs.size - n_base

    # per-term lengths equal a full rebuild over base + delta
    full_out = str(root / "full")
    files = sorted(
        os.path.join(d, f)
        for d in (split_corpus["base"], str(dd))
        for f in os.listdir(d) if f.endswith(".parquet"))
    full = build_index(files, full_out)
    full_r = IndexReader(full["final_dir"], full["stats"])
    for term, tid in reader.term_to_id.items():
        assert reader.list_len(tid) == full_r.list_len(full_r.term_to_id[term]), term


def test_compaction_crash_windows_heal(split_corpus, tmp_path_factory,
                                       ray_session):
    """Every compaction crash window recovers: (a) crash between the
    two renames (final missing, .compacting complete) → swap completes;
    (b) crash before generation cleanup (final already contains the
    generations) → leftover gens are skipped by serving and removed by
    the next compact; (c) a new generation is numbered past the
    highest one folded."""
    import shutil

    from candidategeneration_ray.pipelines.build import _final_dir, build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, generation_dirs, serving_sources, update_index)
    from candidategeneration_ray.state import checkpoint as ckpt
    from candidategeneration_ray.state.queryengine import IndexReader

    out = str(tmp_path_factory.mktemp("idx_crash")) + "/i"
    build_index(split_corpus["base"], out)
    upd = update_index(out, split_corpus["delta"])
    fd = _final_dir(out)
    gen = generation_dirs(out)[0]
    gen_backup = str(tmp_path_factory.mktemp("genbak")) + "/g"
    shutil.copytree(gen, gen_backup)

    compact_index(out)
    want = IndexReader(fd, upd["stats"])
    want_lists = {int(k): want.get(int(k))[0] for k in want.keys}

    # (b) crash before cleanup: restore the folded generation
    shutil.copytree(gen_backup, gen)
    assert generation_dirs(out) == [], "folded generation must be skipped"
    assert serving_sources(out) == [fd]
    compact_index(out)  # next compact removes it
    assert not os.path.isdir(gen)

    # (a) crash between renames: final missing, .compacting complete
    os.rename(fd, fd + ".compacting.tmp")
    shutil.move(fd + ".compacting.tmp", fd + ".compacting")
    compact_index(out)
    healed = IndexReader(fd, upd["stats"])
    for k, docs in want_lists.items():
        np.testing.assert_array_equal(healed.get(k)[0], docs)

    # (c) a new delta after compaction gets a FRESH generation name
    from candidategeneration_ray.sources.transcripts import generate_transcripts
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = generate_transcripts(5, seed=77)
    conv = pc.replace_substring(t.column("conv_id"), "conv", "zz")
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv)
    d2 = tmp_path_factory.mktemp("delta2")
    pq.write_table(t, str(d2 / "d.parquet"))
    update_index(out, str(d2))
    through = ckpt.read_manifest(fd)["through"]
    assert [ckpt.generation_number(g) for g in generation_dirs(out)] \
        == [through + 1]


def test_crash_between_generation_and_stats_heals(split_corpus,
                                                  tmp_path_factory, ray_session):
    """A run that died after writing the generation but before
    extending the stats lineage must REUSE the generation on retry —
    not build a duplicate doc range."""
    from candidategeneration_ray.pipelines.build import build_index, load_stats
    from candidategeneration_ray.pipelines.update import (
        generation_dirs, serving_sources, update_index)
    from candidategeneration_ray.state.queryengine import IndexReader

    out = str(tmp_path_factory.mktemp("idx_heal"))
    base = build_index(split_corpus["base"], out)
    update_index(out, split_corpus["delta"])

    # simulate the crash: roll the stats checkpoint back to pre-delta
    # (generation stays on disk with its manifest)
    from candidategeneration_ray.pipelines.build import _persist_stats

    base_inputs = sorted(
        os.path.join(split_corpus["base"], f)
        for f in os.listdir(split_corpus["base"]) if f.endswith(".parquet"))
    _persist_stats(out, base["stats"], base["offsets"], base_inputs)

    upd = update_index(out, split_corpus["delta"])
    assert any(p.get("healed") for p in upd["metrics"]["phases"])
    assert len(generation_dirs(out)) == 1
    # serving works (decode would raise on duplicated doc ranges)
    reader = IndexReader(list(serving_sources(out)), upd["stats"])
    for k in map(int, reader.keys[:50]):
        reader.get(k)


def test_crash_mid_stats_write_heals(split_corpus, tmp_path_factory,
                                    ray_session, monkeypatch):
    """update_index rewrites a live stats/: a crash while writing
    convs.parquet (a truncated file, then an error) must leave stats
    that load_stats reads, and a re-run of the same delta must give the
    index and the rankings of a clean run."""
    from candidategeneration_ray.pipelines.build import build_index, load_stats
    from candidategeneration_ray.pipelines.update import (
        serving_sources, update_index)
    from perfbench.reference import index_digest

    def _state(out):
        stats, _ = load_stats(out)
        srcs = serving_sources(out)
        return ([index_digest(s)[0] for s in srcs],
                _topk_all(srcs, stats))

    clean = str(tmp_path_factory.mktemp("idx_stats_clean"))
    build_index(split_corpus["base"], clean)
    update_index(clean, split_corpus["delta"])

    out = str(tmp_path_factory.mktemp("idx_stats_crash"))
    build_index(split_corpus["base"], out)
    real = pq.write_table

    def _torn(table, where, *a, **kw):
        if os.path.basename(str(where)).startswith("convs.parquet"):
            with open(where, "wb") as f:
                f.write(b"PAR1\0\0")
            raise OSError("disk gone mid-write")
        return real(table, where, *a, **kw)

    monkeypatch.setattr(pq, "write_table", _torn)
    with pytest.raises(OSError):
        update_index(out, split_corpus["delta"])
    monkeypatch.setattr(pq, "write_table", real)
    load_stats(out)                       # the old stats still read
    update_index(out, split_corpus["delta"])
    assert _state(out) == _state(clean)


def test_config_mismatch_rejected(split_corpus, tmp_path_factory, ray_session):
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import update_index

    out = str(tmp_path_factory.mktemp("idx_cfg"))
    build_index(split_corpus["base"], out)
    with pytest.raises(ValueError, match="EngineConfig mismatch"):
        update_index(out, split_corpus["delta"], EngineConfig(num_buckets=7))


def test_run_queries_over_generations(updated_index, ray_session):
    """Batch serving over the LSM source list — broadcast mode and
    worker-side path mode give identical results, equal to direct
    QueryEngine serving."""
    import pandas as pd
    import ray.data

    from candidategeneration_ray.pipelines.query import run_queries
    from candidategeneration_ray.pipelines.update import serving_sources
    from candidategeneration_ray.state.queryengine import QueryEngine

    sources = list(serving_sources(updated_index["out"]))
    stats = updated_index["upd"]["stats"]
    qds = ray.data.from_items(
        [{"query_id": i, "text": q} for i, q in enumerate(QUERIES)])

    def norm(ds):
        pdf = ds.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        return pdf

    broadcast = norm(run_queries(sources, qds, stats))
    by_path = norm(run_queries(sources, qds, stats, broadcast_max_bytes=0))
    pd.testing.assert_frame_equal(broadcast, by_path)

    eng = QueryEngine(sources, stats)
    rows = [
        {"query_id": i, "rank": r, "doc_id": d, "score": s}
        for i, q in enumerate(QUERIES)
        for r, (s, d) in enumerate(eng.topk(q))
    ]
    direct = pd.DataFrame(rows)[["query_id", "rank", "doc_id", "score"]]
    got = broadcast.astype({c: "int64" for c in broadcast.columns})
    pd.testing.assert_frame_equal(got, direct.astype(got.dtypes.to_dict()))


def test_sharded_fleet_with_generation_shard(updated_index, ray_session):
    """Doc-sharded serving treats a delta generation as one more shard
    (disjoint doc range by construction) — exact vs the multi-
    generation single engine."""
    from candidategeneration_ray.pipelines.update import serving_sources
    from candidategeneration_ray.state.queryengine import QueryEngine
    from candidategeneration_ray.state.sharded import ShardedQueryEngine

    sources = list(serving_sources(updated_index["out"]))
    stats = updated_index["upd"]["stats"]
    fleet = ShardedQueryEngine(sources, stats)
    single = QueryEngine(sources, stats)
    try:
        for q in QUERIES:
            assert fleet.topk(q, k=10) == single.topk(q, k=10), q
    finally:
        fleet.shutdown()


def test_duplicate_keys_in_one_source_rejected(updated_index):
    """A recursive glob that mixes generations into ONE source must be
    rejected, not silently serve only the first copy of each key."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import glob as _glob
    import os

    from candidategeneration_ray.pipelines.build import _final_dir
    from candidategeneration_ray.state.queryengine import IndexReader

    fd = _final_dir(updated_index["out"])
    files = sorted(_glob.glob(os.path.join(fd, "*.parquet")))
    tab = pa.concat_tables([pq.read_table(f) for f in files])
    doubled = pa.concat_tables([tab, tab])
    with pytest.raises(ValueError, match="duplicate keys"):
        IndexReader(doubled, updated_index["upd"]["stats"])


def test_overlapping_generations_rejected(updated_index):
    """The LSM reader validates the disjoint-ascending invariant."""
    from candidategeneration_ray.pipelines.build import _final_dir
    from candidategeneration_ray.state.queryengine import IndexReader

    fd = _final_dir(updated_index["out"])
    reader = IndexReader([fd, fd], updated_index["upd"]["stats"])
    with pytest.raises(ValueError, match="generations overlap"):
        for k in map(int, reader.keys):
            reader.get(k)


def test_update_rejects_blocked_dictionary_stats(split_corpus, tmp_path):
    """Stats persisted in the removed blocked-dictionary layout (no
    terms.parquet) are refused up front with a rebuild hint instead of
    failing later on the missing dictionary file."""
    from candidategeneration_ray.config import FORMAT_VERSION
    from candidategeneration_ray.pipelines.build import _stats_dir
    from candidategeneration_ray.pipelines.update import update_index
    from candidategeneration_ray.state import checkpoint as ckpt

    out = str(tmp_path / "idx")
    ckpt.write_manifest(_stats_dir(out), {
        "phase": "stats", "inputs": [], "format": FORMAT_VERSION,
        "dict_mode": "blocks", "n_docs": 0, "n_terms": 0})
    with pytest.raises(ValueError, match="rebuild"):
        update_index(out, split_corpus["delta"])


def test_families_invalidate_and_rebuild_on_delta(split_corpus,
                                                  tmp_path_factory,
                                                  ray_session):
    """Secondary families (HIT, bigram) built before a delta are marked
    stale by update_index and rebuild over the grown corpus on next
    ensure_*; the rebuilt HIT family equals a fresh full build's
    (prior rank is epoch-independent), and the rebuilt bigram family
    equals an independent recomputation from the served index."""
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.families import (
        ensure_bigram_family, ensure_hit_family, family_dir)
    from candidategeneration_ray.pipelines.update import (
        serving_sources, update_index)
    from candidategeneration_ray.state import checkpoint as ckpt
    from candidategeneration_ray.state.queryengine import IndexReader
    from candidategeneration_ray.config import EngineConfig

    cfg = EngineConfig(emit_pairs=False)
    out = str(tmp_path_factory.mktemp("idx_fam"))
    base = build_index(split_corpus["base"], out, cfg)

    # pair keys over three common terms of the base corpus
    terms = [t for t in ("data", "query", "vector") if t in base["stats"]["terms"]]
    assert len(terms) >= 2
    t2i = {t: i + 1 for i, t in enumerate(base["stats"]["terms"])}
    tids = sorted(t2i[t] for t in terms)
    pair_keys = np.array([(tids[i] << 32) | tids[j]
                          for i in range(len(tids))
                          for j in range(i + 1, len(tids))], dtype=np.int64)

    hit_before = ensure_hit_family(out, cfg)
    ensure_bigram_family(out, pair_keys, budget=10, cfg=cfg)
    assert not (ckpt.read_manifest(hit_before) or {}).get("stale")
    # fresh call reuses without rebuilding (manifest unchanged)
    m1 = ckpt.read_manifest(hit_before)
    assert ensure_hit_family(out, cfg) == hit_before
    assert ckpt.read_manifest(hit_before) == m1

    upd = update_index(out, split_corpus["delta"], cfg, compact=True)
    inv = [p for p in upd["metrics"]["phases"]
           if p["phase"] == "invalidate-families"]
    assert inv and sorted(inv[0]["families"]) == ["bigram", "hit"]
    assert (ckpt.read_manifest(family_dir(out, "hit")) or {}).get("stale")

    # rebuild over the grown corpus; term ids are the EXTENDED dict's
    stats = upd["stats"]
    hit_fd = ensure_hit_family(out, cfg)
    assert not (ckpt.read_manifest(hit_fd) or {}).get("stale")
    t2i2 = {t: i + 1 for i, t in enumerate(stats["terms"])}
    tids2 = sorted(t2i2[t] for t in terms)
    pair_keys2 = np.array([(tids2[i] << 32) | tids2[j]
                           for i in range(len(tids2))
                           for j in range(i + 1, len(tids2))], dtype=np.int64)
    big_fd = ensure_bigram_family(out, pair_keys2, budget=10, cfg=cfg)

    # HIT family == fresh full build's HIT family (term-by-term)
    full_out = str(tmp_path_factory.mktemp("idx_fam_full"))
    all_files = sorted(
        os.path.join(d, f) for d in (split_corpus["base"], split_corpus["delta"])
        for f in os.listdir(d) if f.endswith(".parquet"))
    full = build_index(all_files, full_out, cfg)
    full_hit = ensure_hit_family(full_out, cfg)
    ra = IndexReader(hit_fd, stats, cfg)
    rb = IndexReader(full_hit, full["stats"], cfg)
    for term in stats["terms"]:
        ka, kb = t2i2[term], rb.term_to_id[term]
        ga, gb = ra.get(ka), rb.get(kb)
        assert (ga is None) == (gb is None), term
        if ga is not None:
            np.testing.assert_array_equal(ga[0], gb[0], err_msg=term)
            np.testing.assert_array_equal(ga[1], gb[1], err_msg=term)

    # bigram family == independent recomputation from the served index
    main = IndexReader(serving_sources(out), stats, cfg)
    fam = IndexReader(big_fd, stats, cfg)
    for key in pair_keys2:
        lo, hi = int(key) >> 32, int(key) & 0xFFFFFFFF
        want = np.union1d(main.top_layer(lo, 10)[0], main.top_layer(hi, 10)[0])
        got = fam.get(int(key))
        if want.size == 0:
            assert got is None
        else:
            np.testing.assert_array_equal(got[0], want)


def test_asof_serving_equals_fresh_base_build(ray_session, tmp_path):
    """After an uncompacted delta ingest, serving the final dir alone
    (AS OF the base epoch) is rank-identical to a fresh build over
    just the base files — and the full serving view differs (the
    delta really changed the corpus)."""
    import os

    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        serving_sources, update_index)
    from candidategeneration_ray.sources.transcripts import write_transcripts
    from candidategeneration_ray.state.queryengine import QueryEngine

    cfg = EngineConfig(emit_pairs=False)
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from candidategeneration_ray.sources.transcripts import generate_transcripts

    base_src = write_transcripts(str(tmp_path / "base"), num_convs=60, seed=3)
    dtab = generate_transcripts(25, seed=9)
    conv = pc.binary_join_element_wise(
        "z", dtab.column("conv_id").cast(pa.string()), "")
    dtab = dtab.set_column(dtab.schema.get_field_index("conv_id"), "conv_id",
                           conv.cast(dtab.schema.field("conv_id").type))
    os.makedirs(str(tmp_path / "delta"), exist_ok=True)
    delta_src = str(tmp_path / "delta")
    pq.write_table(dtab, os.path.join(delta_src, "d.parquet"))
    out = str(tmp_path / "idx")
    res = build_index(base_src, out, cfg)
    fresh = QueryEngine(res["final_dir"], res["stats"], cfg)
    want = {q: fresh.topk(q, k=10)
            for q in ["query engine latency", "data index", "worker"]}
    upd = update_index(out, delta_src, cfg, compact=False)
    asof = QueryEngine(os.path.join(out, "final"), upd["stats"], cfg)
    full = QueryEngine(serving_sources(out), upd["stats"], cfg)
    diffs = 0
    for q, w in want.items():
        assert asof.topk(q, k=10) == w, q
        diffs += full.topk(q, k=10) != w
    assert diffs > 0


class TestReshard:
    def test_serving_identity_ownership_and_idempotence(
            self, ray_session, split_corpus, tmp_path_factory):
        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.pipelines.update import reshard_index
        from candidategeneration_ray.stages.listbuild import bucket_of
        from candidategeneration_ray.state.queryengine import (
            IndexReader, QueryEngine)
        from candidategeneration_ray.state.sharded import (
            TermShardedQueryEngine)

        out = str(tmp_path_factory.mktemp("idx_rs"))
        built = build_index(split_corpus["base"], out)
        orig = QueryEngine(built["final_dir"], built["stats"])
        want = {q: orig.topk(q, k=10) for q in QUERIES}

        new_nb = 5
        new_dir = reshard_index(built["final_dir"], new_nb)
        cfg = EngineConfig(num_buckets=new_nb)

        # 1. serving identity across algorithms
        eng = QueryEngine(new_dir, built["stats"], cfg)
        for q in QUERIES:
            assert eng.topk(q, k=10) == want[q], q
            assert eng.topk(q, k=10, algorithm="taat") == want[q], q

        # 2. one file per new bucket; bucket-filtered readers own
        #    disjoint key sets that partition the full vocabulary
        files = sorted(f for f in os.listdir(new_dir)
                       if f.endswith(".parquet"))
        per_bucket_keys = {}
        for b in range(new_nb):
            try:
                r = IndexReader(new_dir, built["stats"], cfg, buckets=[b])
                per_bucket_keys[b] = set(r.keys.tolist())
            except ValueError:
                per_bucket_keys[b] = set()   # empty bucket
        all_keys = set(IndexReader(new_dir, built["stats"], cfg)
                       .keys.tolist())
        assert set().union(*per_bucket_keys.values()) == all_keys
        for b, ks in per_bucket_keys.items():
            for b2, ks2 in per_bucket_keys.items():
                if b < b2:
                    assert not (ks & ks2)
            got_b = bucket_of(np.asarray(sorted(ks), np.int64), new_nb)
            assert (got_b == b).all()
        assert len(files) == sum(1 for ks in per_bucket_keys.values() if ks)

        # 3. term-sharded fleet at the new bucket count == single engine
        fleet = TermShardedQueryEngine(new_dir, built["stats"],
                                       n_shards=3, cfg=cfg)
        try:
            for q in QUERIES:
                assert fleet.topk(q, k=10) == want[q], q
        finally:
            fleet.shutdown()

        # 4. idempotence: DONE short-circuits, files untouched
        mtimes = {f: os.path.getmtime(os.path.join(new_dir, f))
                  for f in files}
        assert reshard_index(built["final_dir"], new_nb) == new_dir
        assert mtimes == {f: os.path.getmtime(os.path.join(new_dir, f))
                          for f in files}

    def test_reshard_refuses_uncompacted_generations(
            self, ray_session, split_corpus, tmp_path_factory):
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.pipelines.update import (
            compact_index, reshard_index, update_index)

        out = str(tmp_path_factory.mktemp("idx_rs_guard"))
        built = build_index(split_corpus["base"], out)
        update_index(out, split_corpus["delta"])
        with pytest.raises(ValueError, match="uncompacted"):
            reshard_index(built["final_dir"], 5)
        compact_index(out)
        assert reshard_index(built["final_dir"], 5)   # compacted -> allowed


def test_run_queries_engine_follows_index_rewrites(split_corpus, ray_session,
                                                   tmp_path_factory):
    """run_queries keeps one broadcast on the driver and one engine per
    worker process, keyed on the serving version; none may outlive its
    index. After an update + delete, the LSM view is served from a
    source list with tombstones, then final/ alone; the same path is
    served again, on the same worker pool, after the compaction that
    rewrites final/ in place. Each state is served twice (the second
    call from the kept broadcast and warm engines), by broadcast and by
    path, and each answer equals a fresh QueryEngine."""
    import ray.data

    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.query import run_queries
    from candidategeneration_ray.pipelines.update import (
        compact_index, delete_docs, load_tombstones, serving_sources,
        update_index)
    from candidategeneration_ray.state.queryengine import QueryEngine

    out = str(tmp_path_factory.mktemp("idx_rewrite"))
    build_index(split_corpus["base"], out)
    stats = update_index(out, split_corpus["delta"])["stats"]
    convs = sorted(set(pq.read_table(split_corpus["base"]).column("conv_id")
                       .to_pylist()))
    delete_docs(out, convs[::4])
    final = os.path.join(out, "final")

    def served(sources, tombstones=None):
        """The answers of two calls by broadcast, then two by path,
        which must all agree."""
        runs = []
        for limit in (None, None, 0, 0):
            qds = ray.data.from_items(
                [{"query_id": i, "text": q} for i, q in enumerate(QUERIES)])
            pdf = run_queries(sources, qds, stats, concurrency=2,
                              broadcast_max_bytes=limit,
                              tombstones=tombstones).to_pandas()
            got = {i: [] for i in range(len(QUERIES))}
            for qid, _, hit in sorted(zip(pdf["query_id"], pdf["rank"],
                                          zip(pdf["score"], pdf["doc_id"]))):
                got[int(qid)].append(tuple(map(int, hit)))
            runs.append(got)
        assert all(r == runs[0] for r in runs[1:])
        return runs[0]

    def fresh(engine):
        return {i: engine.topk(q) for i, q in enumerate(QUERIES)}

    sources, tombs = serving_sources(out), load_tombstones(out)
    assert len(sources) == 2 and tombs is not None
    assert served(sources, tombs) == fresh(
        QueryEngine(sources, stats, tombstones_ref=tombs))
    before = served(final)
    assert before == fresh(QueryEngine(final, stats))

    compact_index(out)
    after = served(final)
    assert after == fresh(QueryEngine(final, stats))
    assert after != before


def test_serving_version_follows_every_commit(split_corpus, ray_session,
                                              tmp_path_factory):
    """The serving version is stable while nothing changes and moves
    with every commit: an update (new generation and stats), a delete
    (new tombstones only), a compaction and a rebuild into the same
    out_dir (same names and sizes, new files)."""
    import shutil

    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.query import serving_version
    from candidategeneration_ray.pipelines.update import (
        compact_index, delete_docs, load_tombstones, serving_sources,
        update_index)

    out = str(tmp_path_factory.mktemp("idx_version"))
    base_stats = build_index(split_corpus["base"], out)["stats"]
    final = os.path.join(out, "final")
    stats = base_stats

    def version():
        return serving_version(serving_sources(out), stats,
                               tombstones=load_tombstones(out))

    seen = [version()]
    assert version() == seen[0]
    stats = update_index(out, split_corpus["delta"])["stats"]
    seen.append(version())
    # the update leaves final/ as it was
    assert serving_version(final, base_stats) == seen[0]
    convs = sorted(set(pq.read_table(split_corpus["base"]).column("conv_id")
                       .to_pylist()))
    delete_docs(out, convs[::4])
    seen.append(version())
    compact_index(out)
    seen.append(version())
    assert version() == seen[-1]
    shutil.rmtree(out)
    stats = build_index(split_corpus["base"], out)["stats"]
    seen.append(version())
    assert len(set(seen)) == len(seen), seen
    # broadcast limit and config are part of the version
    assert serving_version(final, stats, broadcast_max_bytes=0) != seen[-1]
    assert serving_version(final, stats,
                           EngineConfig(top_k=3)) != seen[-1]


# ------------------------------------------------- compaction by range

_COMPACT_CFGS = {
    "plain": {},
    "pruned": {"emit_pairs": False, "max_list_postings": 15,
               "unconditional_prefix": 5},
    "bp": {"codec": "bp"},
}


def _lsm_index(out, split_corpus, cfg):
    """Base build + one delta generation + tombstones over every fifth
    conversation of both (nothing compacted)."""
    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        _load_offsets_light, delete_docs, update_index)

    build_index(split_corpus["base"], out, cfg)
    update_index(out, split_corpus["delta"], cfg)
    delete_docs(out, sorted(_load_offsets_light(out)["conv_ids"])[::5],
                cfg=cfg)
    return out


def _sorted_lists(final_dir):
    """Every list row of a segment dir, sorted by key."""
    import pyarrow.compute as pc

    t = pa.concat_tables([
        pq.read_table(os.path.join(final_dir, f))
        for f in sorted(os.listdir(final_dir)) if f.endswith(".parquet")])
    return t.take(pc.sort_indices(t, [("key", "ascending")]))


def _per_bucket_merge(seg_dirs, cfg, tombstones):
    """The merge that range compaction replaced: every segment file
    read once per bucket, one merge_partial_lists call per bucket."""
    from candidategeneration_ray.functions.arrowutil import binary_column_concat
    from candidategeneration_ray.stages.listbuild import merge_partial_lists

    files = [os.path.join(d, f) for d in seg_dirs
             for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    out = []
    for b in range(cfg.num_buckets):
        tabs = [t for t in (pq.read_table(f, filters=[("bucket", "=", b)])
                            for f in files) if t.num_rows]
        if not tabs:
            continue
        tab = pa.concat_tables(tabs).combine_chunks()
        docs, docs_off = binary_column_concat(tab.column("docs"))
        scores, _ = binary_column_concat(tab.column("scores"))
        out.append(merge_partial_lists(
            tab.column("key").to_numpy().astype(np.int64),
            tab.column("n").to_numpy().astype(np.int64), docs, scores, cfg,
            b, tombstones=tombstones, src_codec=cfg.codec, docs_off=docs_off))
    return pa.concat_tables(out)


class TestRangeCompaction:
    @pytest.mark.parametrize("name", sorted(_COMPACT_CFGS))
    def test_range_merge_equals_per_bucket_merge(self, name, split_corpus,
                                                 tmp_path_factory,
                                                 ray_session):
        """`_merge_parts` equals the per-bucket merge key by key, with
        tombstones, under list pruning and under the bp codec."""
        import pyarrow.compute as pc

        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.pipelines.build import _merge_parts
        from candidategeneration_ray.pipelines.update import (
            generation_dirs, load_tombstones)

        cfg = EngineConfig(**_COMPACT_CFGS[name])
        out = _lsm_index(str(tmp_path_factory.mktemp(f"idx_range_{name}")),
                         split_corpus, cfg)
        segs = [os.path.join(out, "final")] + generation_dirs(out)
        t = load_tombstones(out)
        tombs = (t["starts"], t["ends"])
        merged_dir = str(tmp_path_factory.mktemp(f"merged_{name}"))
        rec = _merge_parts(segs, merged_dir, cfg, tombstones=tombs)

        want = _per_bucket_merge(segs, cfg, tombs)
        want = want.take(pc.sort_indices(want, [("key", "ascending")]))
        got = _sorted_lists(merged_dir)
        assert rec["n_keys"] == got.num_rows == want.num_rows
        assert rec["files_read"] == sum(
            f.endswith(".parquet") for d in segs for f in os.listdir(d))
        for col in want.column_names:
            a, b = got.column(col).to_pylist(), want.column(col).to_pylist()
            bad = [k for k, x, y in zip(want.column("key").to_pylist(), a, b)
                   if x != y]
            assert not bad, f"{name}: column {col} differs at keys {bad[:5]}"

    def test_two_compactions_one_file_per_range(self, split_corpus,
                                                tmp_path_factory,
                                                ray_session):
        """On the 4-CPU session two compactions leave
        min(num_buckets, 4) files in final/, each holding one row group
        per non-empty bucket, and each compaction records what it did
        in the manifest of the final it wrote."""
        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.pipelines.update import (
            _load_offsets_light, compact_index, delete_docs, update_index)
        from candidategeneration_ray.state import checkpoint as ckpt

        cfg = EngineConfig()
        out = str(tmp_path_factory.mktemp("idx_two_compactions"))
        final = build_index(split_corpus["base"], out)["final_dir"]

        def parquet_files():
            return sorted(os.path.join(final, f) for f in os.listdir(final)
                          if f.endswith(".parquet"))

        base_files = len(parquet_files())
        update_index(out, split_corpus["delta"])
        gen_files = sum(f.endswith(".parquet") for _, _, fs in
                        os.walk(os.path.join(out, "generations"))
                        for f in fs)
        compact_index(out)
        m1 = ckpt.read_manifest(final)["metrics"]
        delete_docs(out, sorted(_load_offsets_light(out)["conv_ids"])[::3])
        compact_index(out)
        m2 = ckpt.read_manifest(final)["metrics"]

        files = parquet_files()
        ranges = min(cfg.num_buckets, 4)
        assert len(files) == ranges
        n_keys = 0
        for f in files:
            md = pq.ParquetFile(f).metadata
            col = md.schema.to_arrow_schema().get_field_index("bucket")
            per_group = [(md.row_group(g).column(col).statistics.min,
                          md.row_group(g).column(col).statistics.max)
                         for g in range(md.num_row_groups)]
            buckets = set(pq.read_table(f, columns=["bucket"])
                          .column("bucket").to_pylist())
            assert all(lo == hi for lo, hi in per_group), f
            assert sorted(lo for lo, _ in per_group) == sorted(buckets), f
            n_keys += md.num_rows

        assert (m1["generations"], m1["tombstone_files"]) == (1, 0)
        assert m1["files_read"] == base_files + gen_files
        assert (m2["generations"], m2["tombstone_files"]) == (0, 1)
        assert m2["files_read"] == ranges
        assert m1["files_written"] == m2["files_written"] == ranges
        assert m2["n_keys"] == n_keys
        assert m1["sec"] > 0 and m2["sec"] > 0
        assert m2["steal_cpu_sec"] >= 0

    def test_one_cpu_compaction_equals_session(self, split_corpus,
                                               tmp_path_factory,
                                               ray_session):
        """On a 1-CPU cluster every bucket falls in one range, so one
        task merges the whole index into one file: the compacted lists
        must equal the 4-CPU compaction of the same LSM state. Ray runs
        in a subprocess: the session cluster is pinned to 4 CPUs."""
        import json
        import shutil
        import subprocess
        import sys
        import textwrap

        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.pipelines.update import compact_index

        out = _lsm_index(str(tmp_path_factory.mktemp("idx_cpu4")),
                         split_corpus, EngineConfig())
        one = str(tmp_path_factory.mktemp("idx_cpu1") / "idx")
        shutil.copytree(out, one)
        compact_index(out)

        script = textwrap.dedent(f"""
            import json
            import ray
            ray.init(address="local", num_cpus=1, include_dashboard=False,
                     logging_level="ERROR",
                     object_store_memory=200 * 1024 * 1024)
            from candidategeneration_ray.pipelines.update import compact_index
            fd = compact_index({one!r})
            ray.shutdown()
            print(json.dumps({{"final_dir": fd}}))
        """)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        res = subprocess.run([sys.executable, "-c", script], cwd=repo,
                             capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr[-3000:]
        fd = json.loads(res.stdout.strip().splitlines()[-1])["final_dir"]

        assert sum(f.endswith(".parquet") for f in os.listdir(fd)) == 1
        four, single = _sorted_lists(os.path.join(out, "final")), _sorted_lists(fd)
        assert four.num_rows > 0
        assert four.equals(single)


def _fresh_delta(tmp_path_factory, seed: int, prefix: str) -> str:
    """A small delta whose conversation ids (`prefix...`) sort after
    and never collide with the corpus'."""
    import pyarrow.compute as pc

    from candidategeneration_ray.sources.transcripts import generate_transcripts

    t = generate_transcripts(4, seed=seed)
    conv = pc.replace_substring(t.column("conv_id"), "conv", prefix)
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv)
    d = tmp_path_factory.mktemp(f"delta_{prefix}")
    pq.write_table(t, str(d / "d.parquet"))
    return str(d)


class TestGenerationRule:
    """The text LSM's generation bookkeeping: the compacted final
    records one high-water mark (`through`) instead of the names it
    folded, and compaction removes torn generations."""

    def test_torn_generation_removed_by_compaction(
            self, split_corpus, tmp_path_factory, ray_session):
        """A generation whose manifest is gone (a torn write) never
        serves, takes no number from a later delta, and the next
        compaction removes it (at the parent it stayed on disk)."""
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.pipelines.update import (
            compact_index, generation_dirs, serving_sources, update_index)
        from candidategeneration_ray.state import checkpoint as ckpt

        out = str(tmp_path_factory.mktemp("idx_torn")) + "/i"
        build_index(split_corpus["base"], out)
        update_index(out, split_corpus["delta"])
        torn = generation_dirs(out)[0]
        os.remove(os.path.join(torn, ckpt.MANIFEST))
        assert serving_sources(out) == [os.path.join(out, "final")]
        update_index(out, _fresh_delta(tmp_path_factory, 31, "zt"))
        assert [os.path.basename(g) for g in generation_dirs(out)] \
            == ["gen-0002"]
        compact_index(out)
        assert not os.path.exists(torn)
        assert os.listdir(os.path.join(out, "generations")) == []
        assert ckpt.read_manifest(os.path.join(out, "final"))["through"] == 2

    def test_manifest_records_through_not_names(
            self, split_corpus, tmp_path_factory, ray_session):
        """Three update + compact cycles leave a final manifest with a
        `through` mark and no list of folded names; the next delta is
        numbered `through + 1`."""
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.pipelines.update import (
            compact_index, generation_dirs, update_index)
        from candidategeneration_ray.state import checkpoint as ckpt

        out = str(tmp_path_factory.mktemp("idx_through")) + "/i"
        fd = os.path.join(out, "final")
        build_index(split_corpus["base"], out)
        for i in range(3):
            update_index(out, _fresh_delta(tmp_path_factory, 40 + i,
                                           f"zh{i}"))
            compact_index(out)
        m = ckpt.read_manifest(fd)
        assert "folded" not in m
        assert m["through"] == 3
        update_index(out, _fresh_delta(tmp_path_factory, 50, "zh9"))
        assert [ckpt.generation_number(g) for g in generation_dirs(out)] \
            == [m["through"] + 1]

    def test_folded_name_list_raises(self, split_corpus, tmp_path_factory,
                                     ray_session):
        """A final compacted by the older layout (a `folded` name list
        in its manifest) is refused by update and compaction."""
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.pipelines.update import (
            compact_index, update_index)
        from candidategeneration_ray.state import checkpoint as ckpt

        out = str(tmp_path_factory.mktemp("idx_oldlayout")) + "/i"
        fd = os.path.join(out, "final")
        build_index(split_corpus["base"], out)
        ckpt.write_manifest(fd, {**ckpt.read_manifest(fd),
                                 "folded": ["generations/gen-0001"]})
        with pytest.raises(ValueError, match="rebuild"):
            update_index(out, split_corpus["delta"])
        with pytest.raises(ValueError, match="rebuild"):
            compact_index(out)


def test_checkpoint_generation_rule(tmp_path):
    """state.checkpoint's generation listing, numbering and cleanup on
    a hand-made root: complete iff a manifest exists, numbers never
    reused, folded and torn dirs removed."""
    from candidategeneration_ray.state import checkpoint as ckpt

    root = str(tmp_path)
    assert ckpt.generation_dirs(root) == []
    assert ckpt.next_generation_dir(root, 4).endswith("gen-0005")
    for n, done in [(1, True), (2, False), (3, True), (11, True)]:
        d = os.path.join(root, f"gen-{n:04d}")
        os.makedirs(d)
        if done:
            ckpt.write_manifest(d, {})
    os.makedirs(os.path.join(root, "gen-x"))
    os.makedirs(os.path.join(root, "cluster=0"))
    names = [os.path.basename(g) for g in ckpt.generation_dirs(root)]
    assert names == ["gen-0001", "gen-0003", "gen-0011"]
    assert [os.path.basename(g) for g in ckpt.generation_dirs(root, 3)] \
        == ["gen-0011"]
    assert ckpt.next_generation_dir(root) == os.path.join(root, "gen-0012")
    assert ckpt.next_generation_dir(root, 20).endswith("gen-0021")
    ckpt.clear_torn_generations(root, 1)
    assert sorted(os.listdir(root)) == ["cluster=0", "gen-0003", "gen-0011",
                                        "gen-x"]
    assert ckpt.folded_through(None, root) == 0
    assert ckpt.folded_through({"through": 7}, root) == 7
    with pytest.raises(ValueError, match="rebuild"):
        ckpt.folded_through({"folded": []}, root)
