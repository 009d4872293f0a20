"""Property tests for functions/exchange.fold_by_bucket — it now backs
the build shuffle and several entry folds, so its equivalence to
groupby(bucket).map_groups is load-bearing."""

import numpy as np
import pyarrow as pa
import pytest


def _mk_table(rng, n, nb):
    return pa.table({
        "bkt": pa.array(rng.integers(0, nb, n).astype(np.int32),
                        pa.int32()),
        "k": pa.array(rng.integers(0, 50, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
    })


def _make_fold():
    """Return the fold as a CLOSURE: cloudpickle serializes it by
    value, so Ray workers need not import the test module."""
    def _fold(group: pa.Table) -> pa.Table:
        k = group.column("k").to_numpy().astype(np.int64)
        v = group.column("v").to_numpy().astype(np.int64)
        u, inv = np.unique(k, return_inverse=True)
        return pa.table({
            "k": pa.array(u, pa.int64()),
            "s": pa.array(np.bincount(inv, weights=v, minlength=u.size)
                          .astype(np.int64), pa.int64()),
        })
    return _fold


_EMPTY = pa.table({"k": pa.array([], pa.int64()),
                   "s": pa.array([], pa.int64())})


@pytest.mark.parametrize("nb,blocks,rows", [
    (1, 3, 500), (7, 1, 200), (16, 5, 2000), (64, 4, 0), (5, 2, 1),
    (2, 3, 300), (3, 2, 300), (16, 9, 1800),   # last: blocks > groups
])
def test_fold_by_bucket_equals_groupby(ray_session, nb, blocks, rows):
    import ray

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    rng = np.random.default_rng(nb * 1000 + blocks * 10 + rows)
    tables = [_mk_table(rng, rows // max(1, blocks), nb)
              for _ in range(blocks)]
    ds = ray.data.from_arrow(tables)

    _fold = _make_fold()
    out = fold_by_bucket(ds, "bkt", _fold, nb, _EMPTY).materialize()
    # one fold task (one output block) per contiguous bucket range
    assert out.num_blocks() == min(nb, int(ray.cluster_resources()["CPU"]))
    got = out.to_pandas()
    # reference: per-bucket fold via Ray groupby, then combine the
    # per-bucket results the same way (a key appears in many buckets
    # here — unlike the callers — so fold again driver-side)
    ref = ds.groupby("bkt").map_groups(
        lambda g: _fold(g), batch_format="pyarrow").to_pandas()

    def total(df):
        if "k" not in df.columns or len(df) == 0:
            import pandas as pd

            return pd.Series(dtype="int64")
        return df.groupby("k")["s"].sum().sort_index().astype("int64")

    a, b = total(got), total(ref)
    assert a.equals(b)


def test_fold_by_bucket_handles_schemaless_empty_blocks(ray_session):
    """Ray passes empty blocks through map stages without the appended
    bucket column; the splitter must tolerate them."""
    import ray

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    rng = np.random.default_rng(7)
    full = _mk_table(rng, 100, 4)
    naked = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64())})   # no bkt column
    ds = ray.data.from_arrow([full, naked])
    _fold = _make_fold()
    got = fold_by_bucket(ds, "bkt", _fold, 4, _EMPTY).to_pandas()
    assert got["s"].sum() == full.column("v").to_numpy().sum()


@pytest.mark.parametrize("bad", [-1, 4])
def test_fold_by_bucket_rejects_out_of_range_bucket(ray_session, bad):
    """A bucket outside [0, num_buckets) raises instead of its rows
    silently missing from every fold."""
    import ray

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    rng = np.random.default_rng(3)
    tbl = _mk_table(rng, 50, 4)
    b = tbl.column("bkt").to_numpy().copy()
    b[17] = bad
    tbl = tbl.set_column(0, "bkt", pa.array(b, pa.int32()))
    ds = ray.data.from_arrow([tbl])
    with pytest.raises(ValueError, match="outside"):
        fold_by_bucket(ds, "bkt", _make_fold(), 4, _EMPTY).materialize()


def test_fold_by_bucket_rejects_rows_without_bucket_column(ray_session):
    """Only EMPTY blocks may lack the bucket column; a block with rows
    and no bucket column raises instead of being dropped."""
    import ray

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    rng = np.random.default_rng(5)
    full = _mk_table(rng, 50, 4)
    ds = ray.data.from_arrow([full, full.drop_columns(["bkt"])])
    with pytest.raises(KeyError):
        fold_by_bucket(ds, "bkt", _make_fold(), 4, _EMPTY).materialize()
