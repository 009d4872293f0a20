"""Non-default codecs (binary packing + Elias-Fano) through the FULL
index lifecycle: partitioned build (bucket merge with codec-coded
inputs), serving, LSM delta ingest and compaction — decoded content
identical to the varint build."""

import os

import numpy as np
import pytest

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.pipelines.build import build_index
from candidategeneration_ray.state.queryengine import IndexReader, QueryEngine

QUERIES = ["query engine latency", "data index", "worker shard",
           "the and of", "absentzzz"]


@pytest.fixture(scope="module")
def both_indexes(ray_session, transcripts_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("bp_codec")
    out = {}
    for codec in ("varint", "bp", "ef", "rice", "bic"):
        cfg = EngineConfig(codec=codec)
        res = build_index(transcripts_dir, str(root / codec), cfg,
                          partitions=3)  # partitions exercise the merge
        out[codec] = (res, cfg)
    return out


@pytest.mark.parametrize("codec", ["bp", "ef", "rice", "bic"])
def test_decoded_lists_identical(both_indexes, codec):
    rv, cv = both_indexes["varint"]
    rb, cb = both_indexes[codec]
    a = IndexReader(rv["final_dir"], rv["stats"], cv)
    b = IndexReader(rb["final_dir"], rb["stats"], cb)
    assert np.array_equal(a.keys, b.keys)
    for k in map(int, a.keys):
        da, sa, _, _ = a.get(k)
        db, sb, _, _ = b.get(k)
        assert np.array_equal(da, db), k
        assert np.array_equal(sa, sb), k


@pytest.mark.parametrize("codec", ["bp", "ef", "rice", "bic"])
def test_topk_identical(both_indexes, codec):
    rv, cv = both_indexes["varint"]
    rb, cb = both_indexes[codec]
    ev = QueryEngine(rv["final_dir"], rv["stats"], cv)
    eb = QueryEngine(rb["final_dir"], rb["stats"], cb)
    for q in QUERIES:
        assert ev.topk(q, k=10) == eb.topk(q, k=10), q


@pytest.mark.parametrize("codec", ["bp", "ef", "rice", "bic"])
def test_candidates_identical(both_indexes, codec):
    """The batched short-list decode goes through each codec's grouped
    decode; pools equal the varint build's at budgets that send lists
    down both the batched and the per-key path."""
    rv, cv = both_indexes["varint"]
    rb, cb = both_indexes[codec]
    ev = QueryEngine(rv["final_dir"], rv["stats"], cv)
    eb = QueryEngine(rb["final_dir"], rb["stats"], cb)
    for q in QUERIES + ["alpha beta gamma data worker shard vector"]:
        for budget in (2, 200):
            assert np.array_equal(ev.candidates(q, budget),
                                  eb.candidates(q, budget)), (q, budget)


@pytest.mark.parametrize("codec", ["bp", "ef", "rice", "bic"])
def test_delta_and_compaction(ray_session, tmp_path, codec):
    """Ingest a delta and compact under a non-default codec:
    multi-generation serving equals the compacted single-generation
    serving."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.update import (
        compact_index, serving_sources, update_index)
    from candidategeneration_ray.sources.transcripts import (
        generate_transcripts, write_transcripts)

    cfg = EngineConfig(emit_pairs=False, codec=codec)
    base = write_transcripts(str(tmp_path / "base"), num_convs=50, seed=5)
    dtab = generate_transcripts(20, seed=8)
    conv = pc.binary_join_element_wise(
        "z", dtab.column("conv_id").cast(pa.string()), "")
    dtab = dtab.set_column(dtab.schema.get_field_index("conv_id"), "conv_id",
                           conv.cast(dtab.schema.field("conv_id").type))
    os.makedirs(str(tmp_path / "delta"))
    pq.write_table(dtab, str(tmp_path / "delta" / "d.parquet"))
    out = str(tmp_path / "idx")
    build_index(base, out, cfg)
    upd = update_index(out, str(tmp_path / "delta"), cfg)
    lsm = QueryEngine(upd["sources"], upd["stats"], cfg)
    want = {q: lsm.topk(q, k=10) for q in QUERIES}
    compact_index(out, cfg)
    eng = QueryEngine(serving_sources(out), upd["stats"], cfg)
    for q in QUERIES:
        assert eng.topk(q, k=10) == want[q], q


@pytest.mark.parametrize("codec", ["ef", "rice", "bic"])
def test_reshard_preserves_codec_serving(both_indexes, tmp_path, codec):
    """Elastic reshard moves compressed rows wholesale, so it must be
    codec-agnostic: serving the resharded layout under the same
    EngineConfig is rank-identical."""
    from candidategeneration_ray.pipelines.update import reshard_index

    rb, cb = both_indexes[codec]
    eng = QueryEngine(rb["final_dir"], rb["stats"], cb)
    new_nb = 7
    out = reshard_index(rb["final_dir"], new_nb,
                        str(tmp_path / f"rs_{codec}"))
    cfg2 = EngineConfig(codec=codec, num_buckets=new_nb)
    eng2 = QueryEngine(out, rb["stats"], cfg2)
    for q in QUERIES:
        assert eng.topk(q, k=10) == eng2.topk(q, k=10), q
