"""The shared index writer: content lineage on resume, the refusal to
rebuild over LSM state, the one-partition layout and the bigram
family's codec-aware top-prefix decode."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.pipelines.build import build_index
from candidategeneration_ray.pipelines.update import (
    compact_index, delete_docs, update_index)
from candidategeneration_ray.sources.transcripts import generate_transcripts
from candidategeneration_ray.state.queryengine import IndexReader


def _lists(res, cfg=None):
    """{term: (docs bytes, scores bytes)} of a built index, plus N."""
    r = IndexReader(res["final_dir"], res["stats"], cfg)
    out = {}
    for term, tid in r.term_to_id.items():
        got = r.get(tid)
        if got is not None:
            out[term] = (got[0].tobytes(), got[1].tobytes())
    return res["stats"]["n_docs"], out


def _table(num_convs, seed, prefix):
    """Transcripts whose conv ids carry `prefix`."""
    import pyarrow.compute as pc

    t = generate_transcripts(num_convs, seed=seed)
    conv = pc.binary_join_element_wise(prefix, t.column("conv_id"), "")
    return t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv)


def _corpus(root, num_convs, seed):
    """Two input files, each holding whole conversations."""
    os.makedirs(root)
    for i, prefix in enumerate("ab"):
        pq.write_table(_table(num_convs // 2, seed + i, prefix),
                       os.path.join(root, f"{prefix}.parquet"))
    return str(root)


@pytest.mark.parametrize("partitions", [1, 2])
def test_rewritten_input_rebuilds(ray_session, tmp_path, partitions):
    """An input rewritten at the same path is rebuilt from, not served
    from the old index: the rebuild equals a fresh build over the new
    files."""
    src = _corpus(tmp_path / "src", 30, seed=1)
    out = str(tmp_path / "idx")
    build_index(src, out, partitions=partitions)
    # rewrite one input in place with other conversations
    pq.write_table(_table(6, seed=9, prefix="b"), os.path.join(src, "b.parquet"))

    again = build_index(src, out, partitions=partitions)
    assert not any(p.get("skipped") for p in again["metrics"]["phases"])
    fresh = build_index(src, str(tmp_path / "fresh"), partitions=partitions)
    assert _lists(again) == _lists(fresh)
    # and an untouched corpus still resumes
    third = build_index(src, out, partitions=partitions)
    assert all(p.get("skipped") for p in third["metrics"]["phases"])


def _delta(root, seed=5, prefix="zdelta"):
    os.makedirs(root, exist_ok=True)
    pq.write_table(_table(6, seed, prefix), os.path.join(root, "d.parquet"))
    return str(root)


class TestRebuildOverLsmState:
    def test_after_update(self, ray_session, tmp_path):
        src = _corpus(tmp_path / "src", 30, seed=2)
        out = str(tmp_path / "idx")
        build_index(src, out)
        update_index(out, _delta(tmp_path / "delta"))
        with pytest.raises(ValueError, match="fresh out_dir"):
            build_index(src, out)
        compact_index(out)
        with pytest.raises(ValueError, match="fresh out_dir"):
            build_index(src, out)

    def test_after_delete(self, ray_session, tmp_path):
        src = _corpus(tmp_path / "src", 30, seed=3)
        out = str(tmp_path / "idx")
        res = build_index(src, out)
        delete_docs(out, [str(res["offsets"]["conv_ids"][0])])
        with pytest.raises(ValueError, match="fresh out_dir"):
            build_index(src, out)


def test_update_refuses_changed_ingested_delta(ray_session, tmp_path):
    """A delta path already ingested whose file has changed since is
    refused, not skipped as a replay."""
    src = _corpus(tmp_path / "src", 30, seed=4)
    out = str(tmp_path / "idx")
    build_index(src, out)
    ddir = _delta(tmp_path / "delta")
    update_index(out, ddir)
    replay = update_index(out, ddir)   # unchanged: a no-op replay
    assert replay["metrics"]["phases"][0] == {"phase": "delta",
                                              "skipped": True}
    _delta(tmp_path / "delta", seed=6, prefix="zother")
    with pytest.raises(ValueError, match="changed since"):
        update_index(out, ddir)


def test_one_partition_layout(ray_session, tmp_path):
    """A one-partition build holds only stats/ and final/; an update and
    a compaction leave nothing under segments/."""
    src = _corpus(tmp_path / "src", 30, seed=5)
    out = str(tmp_path / "idx")
    build_index(src, out)
    assert sorted(os.listdir(out)) == ["final", "stats"]
    update_index(out, _delta(tmp_path / "delta"))
    compact_index(out)
    seg = os.path.join(out, "segments")
    assert not os.path.isdir(seg) or not os.listdir(seg)


def test_bigram_family_codec_independent(ray_session, tmp_path):
    """The bigram family decodes its unigram prefixes with the index's
    codec: over a bp index it equals the family over a varint index."""
    from candidategeneration_ray.pipelines.families import ensure_bigram_family

    src = _corpus(tmp_path / "src", 30, seed=6)
    fams = {}
    for codec in ("varint", "bp"):
        cfg = EngineConfig(codec=codec, emit_pairs=False)
        out = str(tmp_path / codec)
        res = build_index(src, out, cfg)
        t2i = {t: i + 1 for i, t in enumerate(res["stats"]["terms"])}
        tids = sorted(t2i[t] for t in ("data", "query", "vector", "index")
                      if t in t2i)
        assert len(tids) >= 2
        keys = np.array([(a << 32) | b for i, a in enumerate(tids)
                         for b in tids[i + 1:]], dtype=np.int64)
        fd = ensure_bigram_family(out, keys, budget=5, cfg=cfg)
        r = IndexReader(fd, res["stats"], cfg)
        fams[codec] = {int(k): r.get(int(k))[0].tolist() for k in keys
                       if r.get(int(k)) is not None}
    assert fams["varint"] and fams["bp"] == fams["varint"]
