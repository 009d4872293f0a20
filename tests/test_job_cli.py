"""The ray-job CLI end to end in real subprocesses (each owns its own
Ray session, as `ray job submit` would)."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args):
    out = subprocess.run(
        [sys.executable, "-m", "candidategeneration_ray.job", *args],
        cwd=REPO, capture_output=True, text=True, timeout=420,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    from candidategeneration_ray.sources.transcripts import write_transcripts

    d = tmp_path_factory.mktemp("cli_corpus")
    return write_transcripts(str(d), num_convs=40, seed=42, num_files=3)


class TestJobCli:
    def test_build_query_resume(self, cli_corpus, tmp_path_factory):
        out_dir = str(tmp_path_factory.mktemp("cli_idx"))
        r = _run(["build", "--input", cli_corpus, "--out", out_dir,
                  "--partitions", "2", "--num-cpus", "4"])
        assert r["ok"] and r["n_docs"] > 0
        assert not any(p.get("skipped") for p in r["phases"])

        # resume: second build must skip everything
        r2 = _run(["build", "--input", cli_corpus, "--out", out_dir,
                   "--partitions", "2", "--num-cpus", "4"])
        assert all(p.get("skipped") for p in r2["phases"])

        # query through the CLI
        qdir = tmp_path_factory.mktemp("cli_q")
        qfile = str(qdir / "queries.parquet")
        pq.write_table(pa.table({
            "query_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["query engine", "data worker"]),
        }), qfile)
        cand_dir = str(qdir / "cands")
        rq = _run(["query", "--index", out_dir, "--queries", qfile,
                   "--out", cand_dir, "--num-cpus", "4"])
        assert rq["ok"]
        import pyarrow.dataset as pads

        t = pads.dataset(cand_dir).to_table()
        assert t.num_rows > 0
        assert set(t.schema.names) == {"query_id", "rank", "doc_id", "score"}

    def test_update_through_cli(self, cli_corpus, tmp_path_factory):
        """build → update (new convs) → query over [final, generation]
        → update --compact, all through the job CLI in subprocesses."""
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        out_dir = str(tmp_path_factory.mktemp("cli_idx_upd"))
        _run(["build", "--input", cli_corpus, "--out", out_dir,
              "--num-cpus", "4"])

        # delta: fresh conversations sorted after the base corpus
        from candidategeneration_ray.sources.transcripts import generate_transcripts

        delta_dir = tmp_path_factory.mktemp("cli_delta")
        t = generate_transcripts(8, seed=5)
        conv = pc.replace_substring(t.column("conv_id"), "conv", "zdelta")
        t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv)
        pq.write_table(t, str(delta_dir / "d.parquet"))

        ru = _run(["update", "--index", out_dir, "--input", str(delta_dir),
                   "--num-cpus", "4"])
        assert ru["ok"] and len(ru["sources"]) == 2

        qdir = tmp_path_factory.mktemp("cli_q_upd")
        qfile = str(qdir / "queries.parquet")
        pq.write_table(pa.table({
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array(["data worker"]),
        }), qfile)
        cand_a = str(qdir / "cands_lsm")
        _run(["query", "--index", out_dir, "--queries", qfile,
              "--out", cand_a, "--num-cpus", "4"])

        # re-running the same delta with --compact: the ingest is an
        # idempotent skip but the compaction request is honored
        rc = _run(["update", "--index", out_dir, "--input", str(delta_dir),
                   "--compact", "--num-cpus", "4"])
        assert rc["ok"] and len(rc["sources"]) == 1

        cand_b = str(qdir / "cands_flat")
        _run(["query", "--index", out_dir, "--queries", qfile,
              "--out", cand_b, "--num-cpus", "4"])
        t_a = pads.dataset(cand_a).to_table().sort_by("rank").to_pydict()
        t_b = pads.dataset(cand_b).to_table().sort_by("rank").to_pydict()
        assert t_a == t_b and len(t_a["rank"]) > 0

    def test_query_skips_deleted_docs(self, cli_corpus, tmp_path_factory):
        """A conversation removed by delete_docs and not yet compacted
        is not served by `job query`."""
        import numpy as np
        import pyarrow.dataset as pads

        from candidategeneration_ray.pipelines.build import load_stats
        from candidategeneration_ray.pipelines.update import (
            delete_docs, load_tombstones)

        out_dir = str(tmp_path_factory.mktemp("cli_idx_del"))
        _run(["build", "--input", cli_corpus, "--out", out_dir,
              "--num-cpus", "4"])
        qdir = tmp_path_factory.mktemp("cli_q_del")
        qfile = str(qdir / "queries.parquet")
        pq.write_table(pa.table({
            "query_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["query engine", "data worker"]),
        }), qfile)

        def _docs(name):
            cand = str(qdir / name)
            _run(["query", "--index", out_dir, "--queries", qfile,
                  "--out", cand, "--num-cpus", "4"])
            return pads.dataset(cand).to_table().column("doc_id") \
                .to_numpy()

        before = _docs("before")
        _, off = load_stats(out_dir)
        hit = int(before[0])
        conv = off["conv_ids"][
            np.searchsorted(off["bases"], hit, side="right") - 1]
        delete_docs(out_dir, [conv])
        tomb = load_tombstones(out_dir)
        (start,), (end,) = tomb["starts"], tomb["ends"]
        assert start <= hit < end
        after = _docs("after")
        assert after.size > 0
        assert not ((after >= start) & (after < end)).any()

    def test_prep_through_cli(self, tmp_path_factory):
        out_dir = os.path.join(str(tmp_path_factory.mktemp("cli_prep")), "c")
        r = _run(["prep", "--input", "/root/testdata/sf0.001",
                  "--out", out_dir, "--num-cpus", "4"])
        assert r["ok"] and r["n_docs"] > 0 and not r["skipped"]
        r2 = _run(["prep", "--input", "/root/testdata/sf0.001",
                   "--out", out_dir, "--num-cpus", "4"])
        assert r2["skipped"] and r2["n_docs"] == r["n_docs"]


def test_search_subcommand(tmp_path):
    """`job search` returns ranked snippets as one JSON line."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = str(tmp_path / "corpus")
    os.makedirs(d)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha beta gamma", "junk alpha zz beta",
                          "gamma delta"], pa.string()),
    }), os.path.join(d, "documents.parquet"))
    out = subprocess.run(
        [sys.executable, "-m", "candidategeneration_ray.job", "search",
         "--corpus", d, "--query", "alpha beta", "--num-cpus", "4"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    payload = json.loads(out.stdout.strip().splitlines()[-1])
    assert payload["ok"] and payload["n_rows"] == 2
    snippets = {r["doc_id"]: r["snippet"] for r in payload["results"]}
    assert snippets == {1: "alpha beta", 2: "alpha zz beta"}
