import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def transcripts_dir(tmp_path_factory):
    """sf-small synthetic transcripts (~3.5k turns), written shuffled."""
    from candidategeneration_ray.sources.transcripts import write_transcripts

    d = tmp_path_factory.mktemp("transcripts_small")
    return write_transcripts(str(d), num_convs=120, seed=42, num_files=4)


@pytest.fixture(scope="session")
def tiny_transcripts_dir(tmp_path_factory):
    from candidategeneration_ray.sources.transcripts import write_transcripts

    d = tmp_path_factory.mktemp("transcripts_tiny")
    return write_transcripts(str(d), num_convs=20, seed=42, num_files=2)


@pytest.fixture(scope="session")
def oracle_small(transcripts_dir):
    """OracleIndex over the sf-small corpus in stable doc order."""
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    from candidategeneration_ray.oracle import build_oracle_index

    table = pads.dataset(transcripts_dir).to_table(columns=["conv_id", "turn_idx", "text"])
    rows = sorted(
        zip(table.column("conv_id").to_pylist(),
            table.column("turn_idx").to_pylist(),
            table.column("text").to_pylist())
    )
    docs = [(i, text) for i, (_, _, text) in enumerate(rows)]
    return build_oracle_index(docs)


@pytest.fixture(scope="session")
def built_index(ray_session, transcripts_dir, tmp_path_factory):
    """Engine index over the sf-small corpus (single partition)."""
    from candidategeneration_ray.pipelines.build import build_index

    out = str(tmp_path_factory.mktemp("index_small"))
    return build_index(transcripts_dir, out)


# ---- driver-gather bound audit (round-5 verdict item 6) -------------
# Every package take_all() site is a BOUNDED partial/summary gather
# (per-batch top-k, O(components), O(buckets), O(labels*dims)); this
# autouse guard keeps that discipline alive: any take_all that returns
# a corpus-proportional row count at test scale fails the suite.
TAKE_ALL_MAX_ROWS = 100_000


@pytest.fixture(scope="session", autouse=True)
def bounded_take_all():
    import ray.data

    orig = ray.data.Dataset.take_all

    def guarded(self, *args, **kwargs):
        rows = orig(self, *args, **kwargs)
        assert len(rows) <= TAKE_ALL_MAX_ROWS, (
            f"take_all() gathered {len(rows)} rows to the driver "
            f"(> {TAKE_ALL_MAX_ROWS}); driver gathers must be bounded "
            f"partials — fold in a map_batches/groupby stage instead")
        return rows

    ray.data.Dataset.take_all = guarded
    yield
    ray.data.Dataset.take_all = orig


@pytest.fixture
def torn_generation_manifest(monkeypatch):
    """Make the next write of a generation manifest (a json.dump of a
    payload with a "generation" field) stop half way, as a crash or a
    full disk would: five characters reach the file, then OSError."""
    import json

    dump = json.dump

    def torn(obj, fp, *args, **kwargs):
        if isinstance(obj, dict) and "generation" in obj:
            fp.write(json.dumps(obj)[:5])
            fp.flush()
            raise OSError("manifest write interrupted")
        return dump(obj, fp, *args, **kwargs)

    monkeypatch.setattr(json, "dump", torn)
