"""Distributed exact-integer k-means (pipelines/clustering.py):
identity with a single-process numpy replica, partition independence,
empty-cluster handling, and the learned-codebook IVF's recall +
bucket-pruned reads.  The sf0.01 SQL-oracle identity runs in
test_driver_contract."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from candidategeneration_ray.pipelines import clustering as cl

SF = "/root/testdata/sf0.01"


def _numpy_replica(ids: np.ndarray, emb: np.ndarray):
    """Single-process reference of the exact algorithm."""
    xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
    order = np.argsort(ids)
    ids, xq = ids[order], xq[order]
    cent = xq[:cl.KMEANS_K].copy()
    for _ in range(cl.KMEANS_ITERS):
        a = cl._assign(xq, cent)
        new = cent.copy()
        for c in range(cl.KMEANS_K):
            m = a == c
            if m.any():
                new[c] = np.floor(xq[m].sum(0) / m.sum()).astype(np.int64)
        cent = new
    return cent, ids, cl._assign(xq, cent)


def _load(sf_dir: str):
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    return (np.array(t.column("vec_id"), dtype=np.int64),
            np.array(t.column("embedding").to_pylist(), dtype=np.float64))


def _write_emb(path: str, ids: np.ndarray, emb: np.ndarray,
               num_files: int = 1) -> str:
    def tab(sl):
        return pa.table({
            "vec_id": pa.array(ids[sl], pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in emb[sl]],
                                  pa.list_(pa.float32())),
            "label": pa.array(np.zeros(len(ids[sl]), np.int32), pa.int32()),
        })

    if num_files == 1:
        pq.write_table(tab(slice(None)),
                       os.path.join(path, "embeddings.parquet"))
    else:
        d = os.path.join(path, "embeddings.parquet")
        os.makedirs(d, exist_ok=True)
        bounds = np.linspace(0, len(ids), num_files + 1).astype(int)
        for i in range(num_files):
            pq.write_table(tab(slice(bounds[i], bounds[i + 1])),
                           os.path.join(d, f"part_{i}.parquet"))
    return path


class TestKmeans:
    def test_matches_numpy_replica(self, ray_session):
        ids, emb = _load(SF)
        cent, rids, ra = _numpy_replica(ids, emb)
        got_c = cl.q_kmeans_centroids(SF).to_pandas() \
            .sort_values(["cluster", "dim"])
        assert (got_c["centroid_q"].values == cent.ravel()).all()
        got_a = cl.q_kmeans_assignments(SF).to_pandas().sort_values("vec_id")
        assert (got_a["vec_id"].values == rids).all()
        assert (got_a["cluster"].values == ra).all()

    def test_partition_independence(self, tmp_path_factory, ray_session):
        rng = np.random.default_rng(11)
        n, dim = 300, 16
        emb = rng.standard_normal((n, dim)).astype(np.float32)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        ids = np.arange(n, dtype=np.int64)
        d1 = _write_emb(str(tmp_path_factory.mktemp("emb1")), ids, emb, 1)
        d4 = _write_emb(str(tmp_path_factory.mktemp("emb4")), ids, emb, 4)
        c1 = cl.q_kmeans_centroids(d1).to_pandas().sort_values(["cluster", "dim"])
        c4 = cl.q_kmeans_centroids(d4).to_pandas().sort_values(["cluster", "dim"])
        assert (c1["centroid_q"].values == c4["centroid_q"].values).all()

    def test_empty_clusters_keep_centroid(self, tmp_path_factory, ray_session):
        # 20 identical vectors: after one pass every point sits in
        # cluster 0 and clusters 1..k-1 are empty — they must keep
        # their (identical) init centroids, and nothing may crash
        n, dim = 20, 8
        emb = np.tile(np.float32(1.0 / np.sqrt(dim)), (n, dim))
        ids = np.arange(n, dtype=np.int64)
        d = _write_emb(str(tmp_path_factory.mktemp("embdup")), ids, emb, 1)
        cent = cl.q_kmeans_centroids(d).to_pandas()
        assert len(cent) == cl.KMEANS_K * dim
        a = cl.q_kmeans_assignments(d).to_pandas()
        assert (a["cluster"] == 0).all()


class TestIvfKmeans:
    def test_recall_vs_brute_force(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_ann_cosine_top10

        bf = q_ann_cosine_top10(SF).column("vec_id").to_pylist()
        ivf = cl.q_ann_ivf_kmeans_top10(SF).column("vec_id").to_pylist()
        assert len(ivf) == 10
        recall = len(set(bf) & set(ivf)) / len(bf)
        assert recall >= 0.8

    def test_bucket_pruned_reads_and_partitioning(self, ray_session):
        ivf_dir, cent = cl.build_ivf_kmeans_index(SF)
        clusters = sorted(int(d.split("=")[1]) for d in os.listdir(ivf_dir)
                          if d.startswith("cluster="))
        assert len(clusters) >= 2
        probed = clusters[:2]
        files = cl.ivf_kmeans_probe_paths(ivf_dir, probed)
        all_files = cl.ivf_kmeans_probe_paths(ivf_dir, clusters)
        assert files and set(files) < set(all_files)  # strictly pruned
        # the buckets partition the table: per-bucket rows sum to N and
        # vec_ids are disjoint
        seen = []
        for f in all_files:
            seen.extend(pq.read_table(f, columns=["vec_id"])
                        .column("vec_id").to_pylist())
        n = pq.read_metadata(os.path.join(SF, "embeddings.parquet")).num_rows
        assert len(seen) == n and len(set(seen)) == n


class TestKnnGraph:
    def test_matches_single_process(self, ray_session):
        ids, emb = _load(SF)
        xq = np.trunc(emb * cl.KMEANS_SCALE).astype(np.int64)
        got = cl.q_knn_graph(SF).to_pandas() \
            .sort_values(["vec_id", "rank"]).reset_index(drop=True)
        # brute-force single-process reference
        d2 = ((xq * xq).sum(1, keepdims=True) - 2 * (xq @ xq.T)
              + (xq * xq).sum(1)[None, :])
        np.fill_diagonal(d2, np.iinfo(np.int64).max)
        rows = []
        for r in range(ids.size):
            order = np.lexsort((ids, d2[r]))[:cl.KNN_K]
            for rank, c in enumerate(order, 1):
                rows.append((ids[r], rank, ids[c], d2[r, c]))
        rows.sort()
        assert len(got) == len(rows)
        assert (got["vec_id"].values == [r[0] for r in rows]).all()
        assert (got["nbr_id"].values == [r[2] for r in rows]).all()
        assert (got["d2"].values == [r[3] for r in rows]).all()

    def test_block_count_invariance(self, ray_session):
        a = cl.q_knn_graph(SF, n_blocks=2).to_pandas() \
            .sort_values(["vec_id", "rank"]).reset_index(drop=True)
        b = cl.q_knn_graph(SF, n_blocks=7).to_pandas() \
            .sort_values(["vec_id", "rank"]).reset_index(drop=True)
        assert (a.values == b.values).all()


class TestGraphOps:
    def test_semantic_neardups_subset_of_exact(self, ray_session):
        """Cluster restriction only REMOVES pairs from the exact
        all-pairs near-dup set; every kept pair is in the same cluster."""
        from candidategeneration_ray.pipelines import extras as ex

        sem = cl.q_semantic_neardups(SF).to_pandas()
        allp = ex.q_embedding_neardups(SF).to_pandas()
        assert len(sem) > 0
        all_set = set(zip(allp["vec_a"], allp["vec_b"]))
        assert set(zip(sem["vec_a"], sem["vec_b"])) <= all_set
        assign = cl.q_kmeans_assignments(SF).to_pandas()
        c_of = dict(zip(assign["vec_id"], assign["cluster"]))
        for _, r in sem.iterrows():
            assert c_of[r["vec_a"]] == c_of[r["vec_b"]] == r["cluster"]

    def test_pagerank_mass_and_coverage(self, ray_session):
        pr = cl.q_pagerank(SF).to_pandas()
        n = pq.read_table(os.path.join(SF, "embeddings.parquet"),
                          columns=["vec_id"]).num_rows
        assert len(pr) == n                      # every node ranked
        assert pr["vec_id"].is_unique
        # floor-div loses < 1 unit per edge per node; total mass stays
        # within [n * (base + damp*S) - n*deg, n * S]
        total = int(pr["pagerank"].sum())
        assert total <= n * cl.PR_SCALE
        assert total >= n * cl.PR_SCALE - cl.PR_ITERS * n * (cl.KNN_K + 1)
        assert (pr["pagerank"] >= (100 - cl.PR_DAMP_NUM) * cl.PR_SCALE
                // cl.PR_DAMP_DEN).all()

    def test_cluster_top_terms_shape(self, ray_session):
        t = cl.q_cluster_top_terms(SF).to_pandas()
        assert len(t) > 0
        per = t.groupby("cluster")
        assert per.size().max() <= 5
        assert t["cluster"].nunique() <= cl.KMEANS_K
        for _, g in per:
            assert g["rank"].tolist() == list(range(1, len(g) + 1))
            rows = list(zip(-g["score"].to_numpy(), g["term"].tolist()))
            assert rows == sorted(rows)


def test_kmeans_purity_consistent_with_contingency(ray_session):
    """Purity finalizer == sum of per-cluster majorities over n, and
    sits in (0, 1] scaled to millionths."""
    cont = cl.q_kmeans_label_eval(SF).to_pandas()
    n = int(cont["n"].sum())
    maj = int(cont.groupby("cluster")["n"].max().sum())
    got = cl.q_kmeans_purity(SF).to_pandas()
    assert got["n_vectors"].tolist() == [n]
    assert got["purity_millionths"].tolist() == [maj * 1_000_000 // n]
    assert 0 < got["purity_millionths"][0] <= 1_000_000


def test_kmeans_ari_identities(ray_session):
    """ARI pieces recomputed from the contingency; perfect-match sanity
    on the identity clustering."""
    cont = cl.q_kmeans_label_eval(SF).to_pandas()
    got = cl.q_kmeans_ari(SF).to_pandas().iloc[0]
    n = int(cont["n"].sum())
    idx = int((cont["n"] * (cont["n"] - 1) // 2).sum())
    sa = int(cont.groupby("cluster")["n"].sum().map(
        lambda s: s * (s - 1) // 2).sum())
    sb = int(cont.groupby("label")["n"].sum().map(
        lambda s: s * (s - 1) // 2).sum())
    cn = n * (n - 1) // 2
    assert got["n_vectors"] == n and got["index_comb"] == idx
    assert got["sum_a_comb"] == sa and got["sum_b_comb"] == sb
    assert got["ari_num2"] == 2 * (idx * cn - sa * sb)
    assert got["ari_den2"] == cn * (sa + sb) - 2 * sa * sb
    # ARI <= 1 always: num2 <= den2
    assert got["ari_num2"] <= got["ari_den2"]


def test_term_embeddings_matches_bruteforce(ray_session):
    """Distributed cross-modal centroid == pandas recomputation over
    the raw tables (top-20 df terms, floor-div integer centroids)."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.tokenize import tokenize_text

    SF_ = "/root/testdata/sf0.001"
    docs = pq.read_table(SF_ + "/documents.parquet",
                         columns=["doc_id", "text"])
    emb = pq.read_table(SF_ + "/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    xq = {int(v): np.trunc(np.array(e, np.float64) * cl.KMEANS_SCALE
                           ).astype(np.int64)
          for v, e in zip(emb.column("vec_id").to_pylist(),
                          emb.column("embedding").to_pylist())}
    members: dict[str, list[int]] = {}
    df_cnt: dict[str, int] = {}
    for did, text in zip(docs.column("doc_id").to_pylist(),
                         docs.column("text").to_pylist()):
        for t in set(tokenize_text(text)):
            df_cnt[t] = df_cnt.get(t, 0) + 1
            members.setdefault(t, []).append(did)
    top = sorted(df_cnt, key=lambda t: (-df_cnt[t], t))[:20]
    want = {}
    for t in top:
        vs = np.stack([xq[d] for d in members[t] if d in xq])
        want[t] = np.floor(vs.sum(axis=0) / vs.shape[0]).astype(np.int64)

    got = cl.q_term_embeddings(SF_).to_pandas()
    assert set(got["term"]) == set(top)
    for t, g in got.groupby("term"):
        g = g.sort_values("dim")
        assert g["centroid_q"].to_numpy().tolist() == want[t].tolist(), t


def test_triangle_counts_invariants(ray_session):
    """Sum of per-node counts = 3 x number of triangles (each triangle
    has three nodes); every count positive."""
    from candidategeneration_ray.pipelines.clustering import q_triangle_counts

    df = q_triangle_counts("/root/testdata/sf0.001").to_pandas()
    assert (df["n_triangles"] > 0).all()
    assert df["n_triangles"].sum() % 3 == 0
    assert df["vec_id"].is_unique


def test_hits_scores_invariants(ray_session):
    """Every node ranked exactly once; scores in [0, S]; each
    half-round's max-normalization puts at least one node AT S for
    both hubs and authorities; hub/auth agree with a single-process
    numpy recomputation of the same integer recurrence."""
    df = cl.q_hits_scores(SF).to_pandas()
    n = pq.read_table(os.path.join(SF, "embeddings.parquet"),
                      columns=["vec_id"]).num_rows
    S = int(cl.HITS_SCALE)
    assert len(df) == n and df["vec_id"].is_unique
    assert df["hub"].between(0, S).all()
    assert df["auth"].between(0, S).all()
    assert df["hub"].max() == S and df["auth"].max() == S

    # numpy reference: same floor-normalized recurrence on the kNN edges
    knn = cl.q_knn_graph(SF).to_pandas()
    u = knn["vec_id"].to_numpy(np.int64)
    v = knn["nbr_id"].to_numpy(np.int64)
    ids = np.sort(df["vec_id"].to_numpy(np.int64))
    pos = {int(x): i for i, x in enumerate(ids)}
    ui = np.array([pos[int(x)] for x in u])
    vi = np.array([pos[int(x)] for x in v])
    h = np.full(n, S, np.int64)
    a = np.zeros(n, np.int64)
    for _ in range(cl.HITS_ITERS):
        a = np.bincount(vi, weights=h[ui].astype(np.float64),
                        minlength=n).astype(np.int64)
        a = a * S // max(int(a.max()), 1)
        h = np.bincount(ui, weights=a[vi].astype(np.float64),
                        minlength=n).astype(np.int64)
        h = h * S // max(int(h.max()), 1)
    got = df.sort_values("vec_id")
    assert got["hub"].to_numpy(np.int64).tolist() == h.tolist()
    assert got["auth"].to_numpy(np.int64).tolist() == a.tolist()


def test_knn_label_vote_majority(ray_session):
    """Prediction == pandas majority vote recomputed from the kNN
    graph; only held-out vectors predicted; votes bounded by k."""
    got = cl.q_knn_label_vote(SF).to_pandas()
    assert (got["vec_id"] % cl.LABEL_HOLDOUT == 0).all()
    assert got["vec_id"].is_unique
    assert got["n_votes"].between(1, cl.KNN_K).all()

    knn = cl.q_knn_graph(SF).to_pandas()
    emb = pq.read_table(os.path.join(SF, "embeddings.parquet"),
                        columns=["vec_id", "label"]).to_pandas()
    lab = dict(zip(emb["vec_id"], emb["label"]))
    votes = {}
    for u, v in zip(knn["vec_id"], knn["nbr_id"]):
        if u % cl.LABEL_HOLDOUT == 0 and v % cl.LABEL_HOLDOUT != 0:
            votes.setdefault(int(u), []).append(int(lab[int(v)]))
    want = {}
    for u, ls in votes.items():
        vals, cnts = np.unique(np.array(ls), return_counts=True)
        order = np.lexsort((vals, -cnts))
        want[u] = (int(vals[order[0]]), int(cnts[order[0]]))
    assert {int(r.vec_id): (int(r.pred_label), int(r.n_votes))
            for r in got.itertuples()} == want


def test_personalized_pagerank_seed_semantics(ray_session):
    """Seeds carry the restart mass; non-seeds score only walked-in
    mass (strictly below the restart base unless heavily linked);
    total mass bounded by the uniform variant's."""
    ppr = cl.q_personalized_pagerank(SF).to_pandas()
    pr = cl.q_pagerank(SF).to_pandas()
    assert len(ppr) == len(pr)
    base = (100 - cl.PR_DAMP_NUM) * cl.PR_SCALE // cl.PR_DAMP_DEN
    seeds = ppr["vec_id"] % cl.PPR_SEED_MOD == 0
    assert seeds.any() and (~seeds).any()
    assert (ppr.loc[seeds, "ppr"] >= base).all()
    assert (ppr["ppr"] >= 0).all()
    # personalization concentrates mass: total <= uniform total
    assert ppr["ppr"].sum() <= pr["pagerank"].sum()
    # at least one non-seed received walked-in mass
    assert (ppr.loc[~seeds, "ppr"] > 0).any()


def test_pq_codes_match_numpy_replica(ray_session):
    """Fused multi-subspace training == independent per-subspace
    single-process Lloyd replicas; code table covers every (vec,
    subspace) exactly once."""
    ids, emb = _load(SF)
    xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
    order = np.argsort(ids)
    ids_s, xq_s = ids[order], xq[order]
    ds = xq.shape[1] // cl.PQ_M

    want_cents = []
    for m in range(cl.PQ_M):
        sub = xq_s[:, m * ds:(m + 1) * ds]
        cent = sub[:cl.KMEANS_K].copy()
        for _ in range(cl.KMEANS_ITERS):
            a = cl._assign(sub, cent)
            new = cent.copy()
            for c in range(cl.KMEANS_K):
                msk = a == c
                if msk.any():
                    new[c] = np.floor(sub[msk].sum(0) / msk.sum()) \
                        .astype(np.int64)
            cent = new
        want_cents.append(cent)

    got_cents = cl.pq_codebooks(SF)
    for m in range(cl.PQ_M):
        assert (got_cents[m] == want_cents[m]).all(), f"subspace {m}"

    codes = cl.q_pq_codes(SF).to_pandas()
    assert len(codes) == len(ids) * cl.PQ_M
    for m in range(cl.PQ_M):
        sub = xq_s[:, m * ds:(m + 1) * ds]
        want_a = cl._assign(sub, want_cents[m])
        g = codes[codes["subspace"] == m].sort_values("vec_id")
        assert (g["vec_id"].to_numpy() == ids_s).all()
        assert (g["code"].to_numpy() == want_a).all()


def test_ann_pq_neighborhood_quality(ray_session):
    """ADC ranking: ordered, self-match first, and its top-10 lands
    inside the TRUE integer-L2 top-50. (Strict recall@10 is the wrong
    bar here: the synthetic embeddings concentrate distances — p10/median
    squared-distance ≈ 0.85 — so an 8-code-per-subspace quantizer
    cannot separate rank 10 from rank 30; 'finds genuinely near
    vectors' is the meaningful property, and production PQ reranks a
    shortlist exactly because of this.)"""
    got = cl.q_ann_pq_top10(SF).to_pandas()
    assert len(got) == 10 and got["rank"].tolist() == list(range(1, 11))
    a = got["adc_d2"].to_numpy()
    assert (a[:-1] <= a[1:]).all()
    # query included with a small self-distance (quantization error only)
    assert got.iloc[0]["vec_id"] == 0

    ids, emb = _load(SF)
    xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
    q = xq[ids == 0][0]
    d2 = ((xq - q) ** 2).sum(axis=1)
    true50 = set(ids[np.lexsort((ids, d2))[:50]].tolist())
    overlap = len(set(got["vec_id"]) & true50) / 10
    assert overlap >= 0.6, overlap


def test_ann_ivfpq_probe_restriction_and_recompute(ray_session):
    """IVF-PQ results come only from the probed coarse clusters and
    equal a numpy recompute of ADC restricted to those clusters."""
    got = cl.q_ann_ivfpq_top10(SF).to_pandas()
    assert len(got) == 10 and got["rank"].tolist() == list(range(1, 11))

    ids, emb = _load(SF)
    xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
    order = np.argsort(ids)
    ids, xq = ids[order], xq[order]
    q = xq[ids == 0][0]

    coarse = cl.kmeans_codebook(SF)
    assign = cl._assign(xq, coarse)
    cd2 = ((coarse - q[None, :]) ** 2).sum(axis=1)
    probe = set(np.lexsort((np.arange(coarse.shape[0]), cd2))
                [:cl.IVF_NPROBE].tolist())
    in_probe = np.isin(assign, list(probe))
    assert set(got["vec_id"]) <= set(ids[in_probe].tolist())

    cents = cl.pq_codebooks(SF)
    ds = xq.shape[1] // cl.PQ_M
    adc = np.zeros(ids.size, np.int64)
    for m in range(cl.PQ_M):
        lut = ((q[m * ds:(m + 1) * ds][None, :] - cents[m]) ** 2).sum(axis=1)
        adc += lut[cl._assign(xq[:, m * ds:(m + 1) * ds], cents[m])]
    cids, cadc = ids[in_probe], adc[in_probe]
    top = np.lexsort((cids, cadc))[:10]
    assert got["vec_id"].tolist() == cids[top].tolist()
    assert got["adc_d2"].tolist() == cadc[top].tolist()


def test_embedding_gram_matches_numpy(ray_session):
    """Distributed X^T X == one numpy matmul; n row correct; PCA
    finalizer sanity (covariance from Gram is PSD)."""
    got = cl.q_embedding_gram(SF).to_pandas()
    ids, emb = _load(SF)
    xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
    g = xq.T @ xq
    nrow = got[(got["dim_a"] == -1)]
    assert int(nrow["sum_xy"].iloc[0]) == ids.size
    body = got[got["dim_a"] >= 0]
    assert len(body) == 64 * 65 // 2
    for r in body.itertuples():
        assert int(r.sum_xy) == int(g[int(r.dim_a), int(r.dim_b)])
    # finalizer: reconstruct full matrix, covariance must be PSD
    full = np.zeros((64, 64))
    for r in body.itertuples():
        full[int(r.dim_a), int(r.dim_b)] = r.sum_xy
        full[int(r.dim_b), int(r.dim_a)] = r.sum_xy
    n = ids.size
    mu = xq.mean(axis=0)
    cov = full / n - np.outer(mu, mu)
    assert np.linalg.eigvalsh(cov).min() > -1e-6 * np.abs(cov).max()


def test_jl_sketch_distance_preservation(ray_session):
    """Sketch values == one numpy matmul; JL property sanity: sketched
    squared distances correlate strongly with true ones (Pearson over
    200 random pairs — deterministic pair choice)."""
    got = cl.q_embedding_jl_sketch(SF).to_pandas()
    ids, emb = _load(SF)
    xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
    order = np.argsort(ids)
    ids, xq = ids[order], xq[order]
    s = cl._jl_signs(xq.shape[1], cl.JL_DIMS)
    proj = xq @ s.T
    g = got.sort_values(["vec_id", "jdim"])
    assert (g["value"].to_numpy().reshape(len(ids), cl.JL_DIMS)
            == proj).all()

    # JL preservation needs distance SPREAD — the synthetic corpus
    # concentrates distances (±15%) below the 16-dim JL distortion
    # (~1/sqrt(16)), so test the property where it applies: vectors
    # with varying norms.
    rng = np.random.default_rng(7)
    v = rng.standard_normal((100, 64))
    v *= rng.uniform(1, 10, 100)[:, None]
    vq = np.trunc(v * 100).astype(np.int64)
    pj = vq @ s.T
    i = rng.integers(0, 100, 200)
    j = rng.integers(0, 100, 200)
    d_true = ((vq[i] - vq[j]) ** 2).sum(axis=1).astype(float)
    d_sk = ((pj[i] - pj[j]) ** 2).sum(axis=1).astype(float)
    r = np.corrcoef(d_true, d_sk)[0, 1]
    assert r > 0.7, r   # 16-dim JL ⇒ ~25% distortion


def test_common_neighbors_brute_force(ray_session):
    """Top pairs equal a numpy recomputation over the exact kNN edge
    set at sf0.001: counts, non-adjacency, and the tie-break order."""
    sf = "/root/testdata/sf0.001"
    got = cl.q_common_neighbors(sf).to_pandas()
    edges = cl.q_knn_graph(sf).to_pandas()
    und = {tuple(sorted((int(a), int(b))))
           for a, b in zip(edges["vec_id"], edges["nbr_id"])}
    adj = {}
    for u, v in und:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    from collections import Counter

    cn = Counter()
    for x, nbrs in adj.items():
        ns = sorted(nbrs)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                cn[(ns[i], ns[j])] += 1
    cand = [(n, u, v) for (u, v), n in cn.items() if (u, v) not in und]
    cand.sort(key=lambda t: (-t[0], t[1], t[2]))
    want = cand[:cl.CN_TOPK]
    assert [(int(r.n_common), int(r.u), int(r.v))
            for r in got.itertuples()] == want
    assert all((int(r.u), int(r.v)) not in und for r in got.itertuples())


def test_neighborhood_jaccard_consistency(ray_session):
    """Jaccard entries are exactly the common_neighbors candidates that
    clear the 1/4 cross-multiplied threshold; union = du+dv-inter."""
    from candidategeneration_ray.pipelines import clustering as cl

    SF = "/root/testdata/sf0.001"
    t = cl.q_neighborhood_jaccard(SF).to_pandas()
    assert len(t) > 0
    assert (t["n_common"] >= 1).all()
    assert (t["n_union"] >= t["n_common"]).all()
    assert (cl.JACCARD_LINK_DEN * t["n_common"]
            >= cl.JACCARD_LINK_NUM * t["n_union"]).all()
    # brute force over the same kNN edge set
    edges = cl._knn_undirected_edges(SF).to_pandas()
    adj = {}
    for u, v in zip(edges["u"], edges["v"]):
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    eset = {(int(u), int(v)) for u, v in zip(edges["u"], edges["v"])}
    want = []
    nodes = sorted(adj)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (u, v) in eset:
                continue
            inter = len(adj[u] & adj[v])
            if inter == 0:
                continue
            uni = len(adj[u] | adj[v])
            if cl.JACCARD_LINK_DEN * inter >= cl.JACCARD_LINK_NUM * uni:
                want.append((u, v, inter, uni))
    got = sorted(zip(t["u"], t["v"], t["n_common"], t["n_union"]))
    assert got == sorted(want)


def test_kcore_brute_force(ray_session):
    """Engine peel == pure-python peel over the same co-purchase edges,
    at sf0.001."""
    from candidategeneration_ray.pipelines import clustering as cl
    from candidategeneration_ray.pipelines.relational import copurchase_edges

    SF = "/root/testdata/sf0.001"
    t = cl.q_kcore_nodes(SF).to_pandas()
    edges = copurchase_edges(SF, cl.KCORE_SUPPORT).to_pandas()
    adj = {}
    for u, v in zip(edges["u"], edges["v"]):
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    live = set(adj)
    while True:
        drop = {n for n in live if len(adj[n] & live) < cl.KCORE_K}
        if not drop:
            break
        live -= drop
    want = sorted((n, len(adj[n] & live)) for n in live)
    got = sorted(zip(t["node"], t["core_deg"]))
    assert got == want
    assert (t["core_deg"] >= cl.KCORE_K).all()


def test_bfs_hops_brute_force(ray_session):
    """Hop distances equal a python BFS over the symmetrized kNN edge
    set at sf0.001 (exact up to the cap, -1 beyond), and seeds are 0."""
    from collections import deque

    sf = "/root/testdata/sf0.001"
    got = cl.q_bfs_hops(sf).to_pandas()
    edges = cl.q_knn_graph(sf).to_pandas()
    adj = {}
    for a, b in zip(edges["vec_id"], edges["nbr_id"]):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    nodes = sorted(set(got["vec_id"]))
    dist = {n: 0 for n in nodes if n % cl.BFS_SEED_MOD == 0}
    q = deque(dist)
    while q:
        u = q.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    want = {n: (dist[n] if dist.get(n, 1 << 30) <= cl.BFS_MAX_HOPS
                else -1) for n in nodes}
    assert {int(r.vec_id): int(r.hops) for r in got.itertuples()} == want
    assert len(got) == len(nodes)
    seeds = got[got["vec_id"] % cl.BFS_SEED_MOD == 0]
    assert (seeds["hops"] == 0).all()


def test_shortest_paths_brute_force(ray_session):
    """Hop-bounded Bellman-Ford equals a python DP over the weighted
    symmetrized kNN edge set at sf0.001: dist[r][n] = min weight over
    paths of <= r edges from any seed; seeds are 0; hop-bound binds
    (some node's bounded distance must exceed its unbounded one or be
    unreached) is not required — exactness over <= WSP_ROUNDS edges is."""
    sf = "/root/testdata/sf0.001"
    got = cl.q_shortest_paths(sf).to_pandas()
    edges = cl.q_knn_graph(sf).to_pandas()
    INF = 1 << 60
    adj = {}
    for a, b, w in zip(edges["vec_id"], edges["nbr_id"], edges["d2"]):
        a, b, w = int(a), int(b), int(w)
        u, v = min(a, b), max(a, b)
        cur = adj.setdefault((u, v), w)
        adj[(u, v)] = min(cur, w)
    nodes = sorted(set(got["vec_id"]))
    dist = {n: (0 if n % cl.BFS_SEED_MOD == 0 else INF) for n in nodes}
    for _ in range(cl.WSP_ROUNDS):
        nxt = dict(dist)
        for (u, v), w in adj.items():
            if dist[u] < INF:
                nxt[v] = min(nxt[v], dist[u] + w)
            if dist[v] < INF:
                nxt[u] = min(nxt[u], dist[v] + w)
        dist = nxt
    want = {n: (dist[n] if dist[n] < INF else -1) for n in nodes}
    assert {int(r.vec_id): int(r.dist) for r in got.itertuples()} == want
    seeds = got[got["vec_id"] % cl.BFS_SEED_MOD == 0]
    assert (seeds["dist"] == 0).all()
    # weighted distances refine hop distances: reachability agrees
    hops = cl.q_bfs_hops(sf).to_pandas().set_index("vec_id")["hops"]
    for r in got.itertuples():
        if hops[r.vec_id] >= 0:
            assert r.dist >= 0


def test_mutual_knn_brute_force(ray_session):
    """Mutual-kNN at sf0.001 vs a numpy brute force: exact intersection
    of the directed top-k graph with its transpose, and a strict subset
    of the symmetrized (union) edge set."""
    import numpy as np
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.clustering import (
        KMEANS_SCALE, KNN_K, q_mutual_knn)

    SF = "/root/testdata/sf0.001"
    got = q_mutual_knn(SF).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    ids = emb.vec_id.to_numpy(np.int64)
    x = np.trunc(np.stack(emb.embedding.to_numpy()).astype(np.float64)
                 * KMEANS_SCALE).astype(np.int64)
    order = np.argsort(ids)
    ids, x = ids[order], x[order]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.iinfo(np.int64).max)
    directed = set()
    for i in range(len(ids)):
        nb = np.lexsort((ids, d2[i]))[:KNN_K]
        for j in nb:
            directed.add((int(ids[i]), int(ids[j])))
    mutual = {(a, b) for (a, b) in directed if (b, a) in directed and a < b}
    assert set(zip(got.a.astype(int), got.b.astype(int))) == mutual
    # d2 column matches the brute distances
    pos = {int(v): k for k, v in enumerate(ids)}
    for r in got.itertuples():
        assert r.d2 == int(d2[pos[r.a], pos[r.b]])


def test_hll_union_equals_global(ray_session):
    """HLL mergeability: union of per-source register states finalizes
    to EXACTLY the global sketch's estimate (same registers, same
    integer finalizer)."""
    from candidategeneration_ray.pipelines.sketches import (
        q_hll_distinct_terms, q_hll_union_distinct)

    SF = "/root/testdata/sf0.001"
    assert q_hll_union_distinct(SF).equals(q_hll_distinct_terms(SF))


class TestKcenterCoreset:
    def _brute(self, ids: np.ndarray, emb: np.ndarray, k: int):
        xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
        order = np.argsort(ids)
        ids, xq = ids[order], xq[order]
        chosen = [0]
        d2s = [0]
        for _ in range(1, k):
            mind = np.full(ids.size, np.iinfo(np.int64).max, np.int64)
            for c in chosen:
                d = ((xq - xq[c]) ** 2).sum(axis=1)
                mind = np.minimum(mind, d)
            mind[chosen] = -1           # exclude already chosen
            j = int(np.lexsort((ids, -mind))[0])
            chosen.append(j)
            d2s.append(int(mind[j]))
        return ids[chosen], np.array(d2s, np.int64)

    def test_matches_bruteforce_and_radii_nonincreasing(self, ray_session):
        ids, emb = _load(SF)
        want_ids, want_d2 = self._brute(ids, emb, cl.KCENTER_K)
        got = cl.q_kcenter_coreset(SF).to_pandas().sort_values("round")
        assert got["vec_id"].tolist() == want_ids.tolist()
        assert got["d2"].tolist() == want_d2.tolist()
        radii = got["d2"].to_numpy()[1:]
        assert (np.diff(radii) <= 0).all()   # covering radii shrink

    def test_duplicate_vectors_never_repick(self, ray_session, tmp_path):
        """With fewer distinct vectors than k the farthest-point scan
        must skip already-chosen ids (all remaining dist 0), picking
        duplicates by lowest vec_id rather than looping."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=(3, 4))
        emb = np.vstack([base, base, base])          # 9 rows, 3 distinct
        ids = np.arange(9, dtype=np.int64)
        d = _write_emb(str(tmp_path), ids, emb, num_files=2)
        got = cl.q_kcenter_coreset(d, k=6).to_pandas().sort_values("round")
        assert got["vec_id"].is_unique
        assert len(got) == 6
        want_ids, want_d2 = self._brute(ids, emb, 6)
        assert got["vec_id"].tolist() == want_ids.tolist()
        assert got["d2"].tolist() == want_d2.tolist()


class TestDbscan:
    def _brute(self, ids: np.ndarray, emb: np.ndarray, eps2: int, min_pts: int):
        xq = np.trunc(emb.astype(np.float64) * cl.KMEANS_SCALE).astype(np.int64)
        n = ids.size
        d2 = ((xq[:, None, :] - xq[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.iinfo(np.int64).max)
        nbr = d2 <= eps2
        core = nbr.sum(1) + 1 >= min_pts
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in zip(*np.nonzero(np.triu(nbr, 1))):
            if core[a] and core[b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        comp_min = {}
        for a in range(n):
            if core[a]:
                r = find(a)
                comp_min[r] = min(comp_min.get(r, ids[a]), ids[a])
        cluster = np.full(n, -1, np.int64)
        for a in range(n):
            if core[a]:
                cluster[a] = comp_min[find(a)]
            else:
                nb = np.nonzero(nbr[a] & core)[0]
                if nb.size:
                    cluster[a] = min(comp_min[find(b)] for b in nb)
        return cluster, core.astype(np.int64)

    def test_matches_bruteforce_sf(self, ray_session):
        ids, emb = _load(SF)
        want_cl, want_core = self._brute(ids, emb, cl.DBSCAN_EPS2,
                                         cl.DBSCAN_MIN_PTS)
        order = np.argsort(ids)
        got = (cl.q_dbscan_clusters(SF).to_pandas()
               .sort_values("vec_id").reset_index(drop=True))
        assert got["vec_id"].tolist() == ids[order].tolist()
        assert got["is_core"].tolist() == want_core[order].tolist()
        assert got["cluster"].tolist() == want_cl[order].tolist()
        assert (got["cluster"] == -1).any()          # real noise exists
        assert got["cluster"].max() >= 0             # real clusters exist

    def test_crafted_structure_and_block_invariance(self, ray_session, tmp_path):
        """Two tight blobs + one border point + one far noise point;
        result identical at 1 and 3 input files."""
        rng = np.random.default_rng(3)
        blob1 = rng.normal(0.0, 0.001, size=(5, 4))
        blob2 = rng.normal(1.0, 0.001, size=(5, 4))
        border = np.array([[0.0, 0.0, 0.0, 0.0035]])   # near blob1 only
        noise = np.array([[5.0, 5.0, 5.0, 5.0]])
        emb = np.vstack([blob1, blob2, border, noise])
        ids = np.arange(12, dtype=np.int64)
        eps2 = int(((0.004 * cl.KMEANS_SCALE) ** 2))
        results = []
        for nf in (1, 3):
            d = str(tmp_path / f"v{nf}")
            os.makedirs(d, exist_ok=True)
            _write_emb(d, ids, emb, num_files=nf)
            got = (cl.q_dbscan_clusters(d, eps2=eps2, min_pts=4)
                   .to_pandas().sort_values("vec_id").reset_index(drop=True))
            results.append(got)
        assert results[0].equals(results[1])
        got = results[0]
        want_cl, want_core = self._brute(ids, emb, eps2, 4)
        assert got["cluster"].tolist() == want_cl.tolist()
        assert got["is_core"].tolist() == want_core.tolist()
        # structure: blob1 -> cluster 0, blob2 -> cluster 5,
        # border point labeled into blob1's cluster but not core, noise -1
        assert got.loc[10, "cluster"] == got.loc[0, "cluster"]
        assert got.loc[10, "is_core"] == 0
        assert got.loc[11, "cluster"] == -1


    def test_staged_path_equals_fast_path(self, ray_session, tmp_path):
        """Forcing the multi-stage shuffle path (small_graph_max_pairs=0)
        must give the identical clustering as the single-task path."""
        rng = np.random.default_rng(11)
        emb = np.vstack([rng.normal(0, 0.002, (6, 4)),
                         rng.normal(1, 0.002, (6, 4)),
                         [[4.0, 4.0, 4.0, 4.0]]])
        ids = np.arange(13, dtype=np.int64)
        d = _write_emb(str(tmp_path), ids, emb, num_files=2)
        eps2 = int((0.01 * cl.KMEANS_SCALE) ** 2)
        fast = (cl.q_dbscan_clusters(d, eps2=eps2, min_pts=3)
                .to_pandas().sort_values("vec_id").reset_index(drop=True))
        staged = (cl.q_dbscan_clusters(d, eps2=eps2, min_pts=3,
                                       small_graph_max_pairs=0)
                  .to_pandas().sort_values("vec_id").reset_index(drop=True))
        assert fast.equals(staged)
        assert fast[fast.cluster >= 0].cluster.nunique() == 2


    def test_randomized_geometries_match_bruteforce(self, ray_session,
                                                    tmp_path):
        """Five random point clouds x varying (eps, min_pts): engine ==
        union-find brute force, exercising dense, sparse and
        duplicate-heavy regimes."""
        for trial, (n, sigma, min_pts) in enumerate([
                (30, 0.05, 2), (40, 0.3, 3), (25, 1.0, 4),
                (36, 0.02, 5), (32, 0.15, 3)]):
            rng = np.random.default_rng(100 + trial)
            emb = rng.normal(0, sigma, size=(n, 5))
            if trial == 3:                     # duplicate-heavy regime
                emb[::3] = emb[0]
            ids = np.arange(n, dtype=np.int64)
            d = str(tmp_path / f"t{trial}")
            os.makedirs(d, exist_ok=True)
            _write_emb(d, ids, emb, num_files=2)
            xq = np.trunc(emb * cl.KMEANS_SCALE).astype(np.int64)
            d2 = ((xq[:, None, :] - xq[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.iinfo(np.int64).max)
            eps2 = int(np.percentile(d2[d2 < d2.max()], 10))
            want_cl, want_core = TestDbscan._brute(
                self, ids, emb, eps2, min_pts)
            got = (cl.q_dbscan_clusters(d, eps2=eps2, min_pts=min_pts)
                   .to_pandas().sort_values("vec_id").reset_index(drop=True))
            assert got["cluster"].tolist() == want_cl.tolist(), trial
            assert got["is_core"].tolist() == want_core.tolist(), trial


def test_pagerank_fast_path_equals_staged(ray_session):
    """The bounded single-task PageRank replica must equal the staged
    one-shuffle-per-round route exactly (forced via the edge cap),
    for both uniform and personalized teleport."""
    sf = "/root/testdata/sf0.001"
    fast = (cl.q_pagerank(sf).to_pandas()
            .sort_values("vec_id").reset_index(drop=True))
    staged = (cl.q_pagerank(sf, small_graph_max_edges=0).to_pandas()
              .sort_values("vec_id").reset_index(drop=True))
    assert fast.equals(staged)
    pfast = (cl.q_personalized_pagerank(sf).to_pandas()
             .sort_values("vec_id").reset_index(drop=True))
    pstaged = (cl.q_personalized_pagerank(sf, small_graph_max_edges=0)
               .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert pfast.equals(pstaged)


@pytest.mark.parametrize("u,v", [(-1, 2), (3, -4)])
def test_wedge_union_rejects_negative_vec_id(ray_session, u, v):
    """A negative node id has no packed pair key: `(u << 32) | v` would
    land on another pair's key. The edge rows pack through
    keys.pack_pair, which raises."""
    import ray.data

    edges = ray.data.from_arrow(pa.table({"u": pa.array([u], pa.int64()),
                                          "v": pa.array([v], pa.int64())}))
    with pytest.raises(Exception, match=r"ids in \[0, 2\^31\)"):
        cl._wedge_edge_union(edges, 4).materialize()
