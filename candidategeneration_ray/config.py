"""Engine configuration.

The reference hardcodes its knobs as static fields (WWWMain.java:29-31:
distance d=5, threadNum=4; utilsClass.java:117-119: k=1.6, b=0.75) and a
path-constant tree (WWW.java:32-177). We expose the same knobs as an
explicit dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Bump when the on-disk segment/stats layout changes — cache dirs and
# manifests keyed by this version so stale artifacts from older code
# are rebuilt, not misread. v2: bp codec blocks are byte-bounded at
# their own count (short last block no longer zero-pads to BP_BLOCK).
FORMAT_VERSION = 2


@dataclass(frozen=True)
class EngineConfig:
    # d-window for term-pair ("d-bigram") postings (WWWMain.java:29, d=5).
    distance: int = 5
    # BM25 parameters (utilsClass.java:117-119).
    k1: float = 1.6
    b: float = 0.75
    # Score quantization factor (utilsClass.java:127-129: int(BM25 * 1e7)).
    quantization: int = 10_000_000
    # Postings per block for block-max metadata (block-max WAND).
    block_size: int = 128
    # Number of key-hash buckets the posting shuffle groups by. Each bucket
    # holds many keys; list building is one vectorized task per bucket.
    # Should be >= 2-4 x total cores so reduce-side stragglers even out.
    num_buckets: int = 96
    # Top-k returned per query (reference num_of_candidate / top-10 GT).
    top_k: int = 10
    # Cap on rows per emitted posting batch; the batch itself is derived
    # from the stream's rows and the cluster's CPUs, ceil(rows / CPUs)
    # under this cap (stages.postings.emit_batch), so a small build
    # still runs one emission task per CPU. The cap bounds the per-task
    # heap: posting expansion is up to (1 + distance) x token count per
    # turn, so peak heap is ~emit_batch_size * avg_tokens *
    # (1 + distance) * 24B intermediates — 8192 x 60 x 6 x 24B ≈ 70 MB,
    # fine for multi-GB worker heaps. Lower it for very long documents.
    emit_batch_size: int = 8192
    # Emit unigram postings / d-bigram pair postings.
    emit_unigrams: bool = True
    emit_pairs: bool = True
    # Salting: number of doc-range sub-lists a hot key's postings may be
    # split into during partitioned builds (merge = ordered concat).
    # Used implicitly by the partitioned build path: each input partition
    # is one salt.
    pairs_per_doc_cap: int | None = None  # no cap by default
    # Build-time posting-list pruning (reference O3 sampled selection,
    # InvertedIndex.java:428-462,500-512: keep <=1000 postings per list,
    # first 100 unconditional, remainder above a sampled threshold).
    # This is the EXACT deterministic variant: per list keep the first
    # `unconditional_prefix` postings in doc order unconditionally, then
    # the best (max_list_postings - unconditional_prefix) of the rest by
    # (score desc, doc_id asc); the final list stays doc-ordered.
    # None = keep full lists (default). This is the mechanism that caps
    # hot-term list size (~TB/list at 10^12 turns) at scale.
    max_list_postings: int | None = None
    unconditional_prefix: int = 100
    # Doc-array codec for FINAL posting lists: "varint" (delta+LEB128,
    # the production default), "bp" (binary packing, functions/bitpack
    # — ~2.4x smaller on dense lists, grouped encode loops per key) or
    # "ef" (Elias-Fano, functions/eliasfano — within half a bit/elem of
    # the monotone-sequence entropy bound, smaller than both on the
    # transcript lists) or "rice" (Golomb-Rice, functions/rice — the
    # classic geometric-gap code, best on large-mean-gap lists) or
    # "bic" (binary interpolative, functions/interpolative — the
    # recursive range-split code, near-zero bits/doc on clustered runs).
    # Emission partial rows stay varint (transient exchange format).
    codec: str = "varint"
    # Optional query-driven key pruning (the reference "filter sets",
    # Metadata.java:92-151, applied at emission InvertedIndex.java:291,374):
    # when set on the emitter (via emit_postings(filter_ref=...)), only
    # postings whose key is in the broadcast set are emitted. Default is
    # index-everything.

    def __post_init__(self):
        if self.distance < 1:
            raise ValueError("distance must be >= 1")
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.emit_batch_size < 1:
            raise ValueError("emit_batch_size must be >= 1")
        if not (self.emit_unigrams or self.emit_pairs):
            raise ValueError("at least one of emit_unigrams/emit_pairs")
        if self.unconditional_prefix < 0:
            raise ValueError("unconditional_prefix must be >= 0")
        if self.max_list_postings is not None and \
                self.max_list_postings < self.unconditional_prefix:
            raise ValueError("max_list_postings must be >= unconditional_prefix")
        if self.codec not in ("varint", "bp", "ef", "rice", "bic"):
            raise ValueError(f"unknown codec {self.codec!r}")

    def index_tag(self) -> str:
        """Digest of FORMAT_VERSION + every field that changes the
        on-disk index. Stamped into build manifests so a resume under a
        changed config (distance, num_buckets, block_size, emit flags…)
        rebuilds instead of silently reusing stale partitions — a
        num_buckets change is especially dangerous since the merge loop
        iterates range(num_buckets) over segments bucketed with the old
        count. emit_batch_size and top_k are excluded: the final index
        is parallelism-independent and top_k is query-time only.
        """
        import hashlib

        fields = (
            FORMAT_VERSION, self.distance, self.k1, self.b,
            self.quantization, self.block_size, self.num_buckets,
            self.emit_unigrams, self.emit_pairs,
            True,  # retired `partial_lists` flag: keeps existing tags valid
            self.pairs_per_doc_cap, self.max_list_postings,
            self.unconditional_prefix, self.codec,
        )
        return hashlib.sha256(repr(fields).encode()).hexdigest()[:12]
