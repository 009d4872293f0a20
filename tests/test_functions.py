"""Unit tests for the pure-function layer (no Ray)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from candidategeneration_ray.functions.bm25 import bm25_quantized, truncated_avgdl
from candidategeneration_ray.functions.keys import pack_pair, unpack_pair
from candidategeneration_ray.functions.stopwords import STOPWORDS
from candidategeneration_ray.functions.tokenize import tokenize_text
from candidategeneration_ray.functions.varint import (
    decode_delta, encode_delta, varint_decode, varint_encode,
)


class TestTokenizer:
    def test_reference_rules(self):
        # [^a-zA-Z0-9.] -> space; lowercase; keep len>1 pure-alpha or
        # pure-digit non-stopwords (HtmlpageCleaner.java:64-105)
        # NB: "hello" is in the Weka stopword list the reference uses
        assert tokenize_text("Hello, World!") == ["world"]
        assert tokenize_text("Mountain, River!") == ["mountain", "river"]
        assert tokenize_text("a I x") == []                      # len<=1
        assert tokenize_text("the and of") == []                 # stopwords
        assert tokenize_text("abc123 3.14 v2") == []             # mixed/dots
        assert tokenize_text("42 tokens") == ["42", "tokens"]
        assert tokenize_text("it's") == []                       # "it" stopword + "s" short
        # split on apostrophe/hyphen: "don","t","stop","believing"; "t" len<=1
        assert tokenize_text("don't-stop believing") == ["don", "stop", "believing"]
        assert tokenize_text("CAPS lower") == ["caps", "lower"]

    def test_stopwords_is_reference_list(self):
        # 526 add() calls in the reference, one duplicate ("would") → 525
        assert len(STOPWORDS) == 525
        assert {"the", "and", "zero", "able"} <= STOPWORDS
        assert "believing" not in STOPWORDS

    def test_dot_tokens_dropped(self):
        # '.' survives the char filter but makes a token neither pure
        # alpha nor pure digit -> dropped
        assert tokenize_text("www.example.com 1.2.3") == []


class TestVarint:
    def test_roundtrip_simple(self):
        v = np.array([0, 1, 127, 128, 300, 2**32, 2**63 - 1], dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(v)), v)

    def test_delta_roundtrip(self):
        v = np.array([3, 3, 10, 1000, 10**12], dtype=np.uint64)
        assert np.array_equal(decode_delta(encode_delta(v)), v)

    def test_empty(self):
        assert varint_encode(np.empty(0, np.uint64)) == b""
        assert decode_delta(b"").size == 0

    @given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, values):
        v = np.array(sorted(values), dtype=np.uint64)
        assert np.array_equal(decode_delta(encode_delta(v)), v)
        u = np.array(values, dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(u)), u)

    def test_compression_wins_on_dense_ids(self):
        v = np.arange(10_000, dtype=np.uint64) * 3
        assert len(encode_delta(v)) < 2 * v.size  # ~1 byte/gap


class TestBM25:
    def test_matches_scalar_reference_formula(self):
        # hand-computed per utilsClass.java:115-130
        import math
        N, total = 100, 5000
        avg = truncated_avgdl(total, N)  # 50.0 (integer division)
        tf, maxtf, dl, df = 3, 5, 40, 10
        nf = 0.5 + 0.5 * tf / maxtf
        idf = math.log((N - df + 0.5) / (df + 0.5))
        expect = int((idf * nf * 2.6) / (nf + 1.6 * (1 - 0.75 + 0.75 * dl / avg)) * 1e7)
        got = bm25_quantized(np.array([tf]), maxtf, dl, np.array([df]), N, avg)
        assert got[0] == expect

    def test_integer_avgdl_division(self):
        # 5001/100 must truncate to 50, not 50.01
        assert truncated_avgdl(5001, 100) == 50.0

    def test_negative_idf_truncates_toward_zero(self):
        # df > N/2 → negative IDF → negative score; Java (int) cast
        # truncates toward zero (not floor)
        got = bm25_quantized(np.array([1]), 1, 10, np.array([90]), 100, 10.0)
        import math
        nf = 1.0
        idf = math.log((100 - 90 + 0.5) / 90.5)
        raw = idf * nf * 2.6 / (nf + 1.6 * (1 - 0.75 + 0.75 * 10 / 10.0)) * 1e7
        assert raw < 0
        assert got[0] == int(raw)  # int() == truncation toward zero
        assert got[0] != math.floor(raw)


def doc_pair_keys(term_ids: np.ndarray, distance: int) -> np.ndarray:
    """Scalar reference for d-window pair generation (reference
    InvertedIndex.java:264-314): pair each token with the next
    `distance` tokens (the window shrinks at the doc tail), order each
    pair ascending, pack as (lo << 32) | hi, one key per distinct pair
    per doc; self-pairs are legal keys."""
    ids = np.asarray(term_ids, dtype=np.int64)
    n = ids.size
    if n < 2:
        return np.empty(0, dtype=np.int64)
    chunks = []
    for s in range(1, min(distance, n - 1) + 1):
        a = ids[:-s]
        b = ids[s:]
        chunks.append(pack_pair(np.minimum(a, b), np.maximum(a, b)))
    return np.unique(np.concatenate(chunks))


class TestPairs:
    def test_pack_unpack(self):
        lo = np.array([1, 5], dtype=np.int64)
        hi = np.array([2, 5], dtype=np.int64)
        keys = pack_pair(lo, hi)
        assert keys[0] == (1 << 32) | 2
        l2, h2 = unpack_pair(keys)
        assert np.array_equal(l2, lo) and np.array_equal(h2, hi)

    def test_window_semantics(self):
        # ids [1,2,3], d=1 → pairs (1,2),(2,3); d=2 adds (1,3)
        k1 = doc_pair_keys(np.array([1, 2, 3]), 1)
        assert set(k1.tolist()) == {(1 << 32) | 2, (2 << 32) | 3}
        k2 = doc_pair_keys(np.array([1, 2, 3]), 2)
        assert set(k2.tolist()) == {(1 << 32) | 2, (2 << 32) | 3, (1 << 32) | 3}

    def test_sorted_and_deduped(self):
        # "alpha beta alpha beta" type sequence: same sorted pair from
        # both directions emitted once (InvertedIndex.java:289-291)
        keys = doc_pair_keys(np.array([7, 9, 7, 9]), 5)
        assert set(keys.tolist()) == {(7 << 32) | 9, (7 << 32) | 7, (9 << 32) | 9}

    def test_self_pairs_and_short_docs(self):
        assert doc_pair_keys(np.array([4]), 5).size == 0
        assert doc_pair_keys(np.array([], dtype=np.int64), 5).size == 0
        k = doc_pair_keys(np.array([4, 4]), 5)
        assert set(k.tolist()) == {(4 << 32) | 4}

    def test_window_shrinks_at_tail(self):
        # n=3, d=5: max shift is n-1=2 → same as d=2
        a = doc_pair_keys(np.array([1, 2, 3]), 5)
        b = doc_pair_keys(np.array([1, 2, 3]), 2)
        assert np.array_equal(a, b)


class TestBitpackCodec:
    def test_roundtrip_random(self):
        import numpy as np

        from candidategeneration_ray.functions.bitpack import (
            bp_size, decode_bp, encode_bp)

        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(0, 600))
            v = np.sort(rng.integers(
                0, 1 << int(rng.integers(1, 50)), size=n).astype(np.uint64))
            b = encode_bp(v)
            assert len(b) == bp_size(v)
            assert np.array_equal(decode_bp(b, n), v)

    def test_edge_shapes(self):
        import numpy as np

        from candidategeneration_ray.functions.bitpack import (
            decode_bp, encode_bp)

        # zero gaps (all-equal), single value, exact block boundary,
        # width-1 blocks next to wide blocks
        for v in [np.full(300, 2 ** 52, np.uint64),
                  np.array([7], np.uint64),
                  np.arange(256, dtype=np.uint64),
                  np.concatenate((np.arange(128, dtype=np.uint64),
                                  np.array([1 << 40], np.uint64)))]:
            assert np.array_equal(decode_bp(encode_bp(v), v.size), v)

    def test_corrupt_length_raises(self):
        import numpy as np
        import pytest as _pytest

        from candidategeneration_ray.functions.bitpack import (
            decode_bp, encode_bp)

        b = encode_bp(np.arange(10, dtype=np.uint64))
        with _pytest.raises(ValueError):
            decode_bp(b[:-1], 10)

    def test_hypothesis_matches_varint_values(self):
        import numpy as np
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from candidategeneration_ray.functions.bitpack import (
            decode_bp, encode_bp)
        from candidategeneration_ray.functions.varint import (
            decode_delta, encode_delta)

        @given(st.lists(st.integers(min_value=0, max_value=1 << 48),
                        max_size=400))
        @settings(max_examples=60, deadline=None)
        def check(xs):
            v = np.sort(np.asarray(xs, np.uint64))
            assert np.array_equal(decode_bp(encode_bp(v), v.size),
                                  decode_delta(encode_delta(v)))

        check()


def test_elias_fano_roundtrip_property():
    import numpy as np

    from candidategeneration_ray.functions.eliasfano import (
        decode_ef, encode_ef, ef_size)

    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 500))
        scale = int(rng.choice([2, 7, 1000, 10**7]))
        v = np.cumsum(rng.integers(0, scale, n)).astype(np.uint64)
        b = encode_ef(v)
        assert len(b) == ef_size(v)
        assert np.array_equal(decode_ef(b, n), v)


def test_elias_fano_edges():
    import numpy as np
    import pytest as _pt

    from candidategeneration_ray.functions.eliasfano import (
        decode_ef, encode_ef)

    for v in (np.array([0], np.uint64), np.array([0, 0, 0], np.uint64),
              np.array([2**62], np.uint64),
              np.arange(1000, dtype=np.uint64)):
        assert np.array_equal(decode_ef(encode_ef(v), v.size), v)
    assert encode_ef(np.array([], np.uint64)) == b""
    b = encode_ef(np.arange(100, dtype=np.uint64))
    with _pt.raises(ValueError):
        decode_ef(b[:3], 100)
    with _pt.raises(OverflowError):
        encode_ef(np.array([2**63], np.uint64))


def test_elias_fano_near_entropy_bound():
    """EF must stay within the 2 + ceil(log2(u/n)) bits/element bound
    regardless of gap distribution (the property bp/varint lack)."""
    import numpy as np

    from candidategeneration_ray.functions.eliasfano import encode_ef

    rng = np.random.default_rng(3)
    v = np.sort(rng.choice(10**6, size=5000, replace=False)).astype(np.uint64)
    n, u = v.size, int(v[-1])
    bound_bits = n * (2 + max(1, (u // n).bit_length())) + 16
    assert len(encode_ef(v)) * 8 <= bound_bits


def test_rice_roundtrip_property():
    import numpy as np

    from candidategeneration_ray.functions.rice import (
        decode_rice, encode_rice, rice_size)

    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 500))
        scale = int(rng.choice([2, 7, 1000, 10**7]))
        v = np.cumsum(rng.integers(0, scale, n)).astype(np.uint64)
        b = encode_rice(v)
        assert len(b) == rice_size(v)
        assert np.array_equal(decode_rice(b, n), v)


def test_rice_edges():
    import numpy as np
    import pytest as _pt

    from candidategeneration_ray.functions.rice import (
        decode_rice, encode_rice)

    for v in (np.array([0], np.uint64), np.array([0, 0, 0], np.uint64),
              np.array([2**62], np.uint64),
              np.arange(1000, dtype=np.uint64)):
        assert np.array_equal(decode_rice(encode_rice(v), v.size), v)
    assert encode_rice(np.array([], np.uint64)) == b""
    b = encode_rice(np.arange(100, dtype=np.uint64))
    with _pt.raises(ValueError):
        decode_rice(b[:3], 100)
    with _pt.raises(ValueError):
        decode_rice(b[:8], 100)
    with _pt.raises(OverflowError):
        encode_rice(np.array([2**63], np.uint64))


def test_bic_roundtrip_property():
    import numpy as np

    from candidategeneration_ray.functions.interpolative import (
        bic_size, decode_bic, encode_bic)

    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 500))
        u = int(rng.integers(n, n * 60 + 2))
        v = np.sort(rng.choice(u, size=min(n, u),
                               replace=False)).astype(np.uint64)
        b = encode_bic(v)
        assert len(b) == bic_size(v)
        assert np.array_equal(decode_bic(b, v.size), v)


def test_bic_edges():
    import numpy as np
    import pytest as _pt

    from candidategeneration_ray.functions.interpolative import (
        decode_bic, encode_bic)

    for v in (np.array([0], np.uint64), np.array([2**61], np.uint64),
              np.arange(1000, dtype=np.uint64),
              np.array([0, 1, 2, 10**12], np.uint64)):
        assert np.array_equal(decode_bic(encode_bic(v), v.size), v)
    assert encode_bic(np.array([], np.uint64)) == b""
    b = encode_bic(np.arange(100, dtype=np.uint64))
    with _pt.raises(ValueError):
        decode_bic(b[:3], 100)
    with _pt.raises(OverflowError):
        encode_bic(np.array([2**62], np.uint64))
    with _pt.raises(ValueError):  # duplicates break the bounds invariant
        encode_bic(np.array([4, 4, 5], np.uint64))


def test_bic_dense_run_near_zero_bits():
    """The interpolative signature: a contiguous run costs (almost)
    nothing — every node's range collapses to r == 1 after the root."""
    import numpy as np

    from candidategeneration_ray.functions.interpolative import encode_bic

    v = np.arange(1, 100001, dtype=np.uint64)
    assert len(encode_bic(v)) <= 8 + 4  # u header + root bits only


def test_ranked_table_ranks_in_given_order():
    import pyarrow as pa

    from candidategeneration_ray.functions.tableutil import ranked_table

    t = ranked_table([(3, [(9, 40), (9, 41), (-2, 7)]), (5, []),
                      (1, [(np.int64(2**40), 2**31 - 1)])], score="fused")
    assert t.schema == pa.schema([("query_id", pa.int64()),
                                  ("rank", pa.int64()),
                                  ("doc_id", pa.int64()),
                                  ("fused", pa.int64())])
    assert t.to_pydict() == {"query_id": [3, 3, 3, 1], "rank": [1, 2, 3, 1],
                             "doc_id": [40, 41, 7, 2**31 - 1],
                             "fused": [9, 9, -2, 2**40]}
    assert ranked_table([]).column_names == ["query_id", "rank", "doc_id",
                                             "score"]
