"""CSR lookup tables vs the reference dict implementation, and the cache.

The stage-1 overhaul replaced the dict-of-arrays word table with a flat CSR
layout (sorted words + offsets + concatenated positions).  These tests pin
the invariant the rewrite rests on: ``scan()`` output is *element-wise*
identical to the reference — same hits, same order — for both programs,
masked and unmasked.  The LRU :class:`LookupCache` and its engine-level
wiring (cached runs produce byte-identical hits and real cache hits) are
covered alongside.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import SeqRecord
from repro.blast import lookup
from repro.blast.engine import BlastnEngine
from repro.blast.lookup import (
    LookupCache,
    NucleotideLookup,
    ProteinLookup,
    QueryBlock,
    ReferenceNucleotideLookup,
    ReferenceProteinLookup,
    block_fingerprint,
)
from repro.blast.options import BlastOptions

dna_seq = st.text(alphabet="ACGT", min_size=11, max_size=80)
# Keep proteins short: the reference builder enumerates neighbourhoods per
# position in Python and exists only as an oracle.
protein_seq = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=3, max_size=40)


def assert_scan_identical(ref, csr, subject):
    rq, rs = ref.scan(subject)
    cq, cs = csr.scan(subject)
    assert np.array_equal(rq, cq)
    assert np.array_equal(rs, cs)


@given(st.lists(dna_seq, min_size=1, max_size=4), dna_seq, st.booleans())
@settings(max_examples=40, deadline=None)
def test_nucleotide_scan_matches_reference(seqs, subject_text, use_mask):
    records = [SeqRecord(f"q{i}", s) for i, s in enumerate(seqs)]
    block = QueryBlock(records, "blastn", use_mask=use_mask)
    ref = ReferenceNucleotideLookup(block)
    csr = NucleotideLookup(block)
    assert csr.n_words == ref.n_words
    assert_scan_identical(ref, csr, DNA.encode(subject_text))


@given(st.lists(protein_seq, min_size=1, max_size=3), protein_seq, st.booleans())
@settings(max_examples=25, deadline=None)
def test_protein_scan_matches_reference(seqs, subject_text, use_mask):
    records = [SeqRecord(f"q{i}", s) for i, s in enumerate(seqs)]
    block = QueryBlock(records, "blastp", use_mask=use_mask)
    ref = ReferenceProteinLookup(block)
    csr = ProteinLookup(block)
    assert csr.n_words == ref.n_words
    assert csr.n_postings == sum(v.size for v in ref._table.values())
    assert_scan_identical(ref, csr, PROTEIN.encode(subject_text))


@given(st.lists(dna_seq, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_csr_structure_invariants(seqs):
    records = [SeqRecord(f"q{i}", s) for i, s in enumerate(seqs)]
    lut = NucleotideLookup(QueryBlock(records, "blastn", use_mask=False))
    words, offsets = lut._words, lut._offsets
    assert np.all(np.diff(words) > 0)  # strictly ascending, deduplicated
    assert offsets[0] == 0 and offsets[-1] == lut.n_postings
    assert np.all(np.diff(offsets) > 0)  # every listed word has postings
    for i, w in enumerate(words.tolist()):
        np.testing.assert_array_equal(
            lut.postings(w), lut._positions[offsets[i] : offsets[i + 1]]
        )
        # positions ascend within a word (the admission loop relies on it)
        assert np.all(np.diff(lut.postings(w)) > 0)


def test_postings_of_absent_word_is_empty():
    lut = NucleotideLookup(QueryBlock([SeqRecord("q", "ACGT" * 10)], "blastn", use_mask=False))
    missing = int(lut._words.max()) + 1
    assert lut.postings(missing).size == 0


# ------------------------------------------------------------------ cache

def _block(tag: str):
    return [SeqRecord(f"{tag}{i}", "ACGTACGTACGTACG" + "ACGT" * i) for i in range(1, 3)]


def test_lookup_cache_lru_eviction_and_counters():
    cache = LookupCache(capacity=2)
    blocks = {k: _block(k) for k in "abc"}
    built = {k: NucleotideLookup(QueryBlock(v, "blastn", use_mask=False)) for k, v in blocks.items()}
    keys = {k: ("blastn", block_fingerprint(v)) for k, v in blocks.items()}

    assert cache.get(keys["a"]) is None  # miss
    cache.put(keys["a"], QueryBlock(blocks["a"], "blastn", use_mask=False), built["a"])
    cache.put(keys["b"], QueryBlock(blocks["b"], "blastn", use_mask=False), built["b"])
    assert cache.get(keys["a"])[1] is built["a"]  # hit refreshes recency
    cache.put(keys["c"], QueryBlock(blocks["c"], "blastn", use_mask=False), built["c"])  # evicts b
    assert len(cache) == 2
    assert cache.get(keys["b"]) is None
    assert cache.get(keys["a"]) is not None
    assert cache.get(keys["c"]) is not None
    assert cache.hits == 3 and cache.misses == 2


def test_lookup_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LookupCache(capacity=0)


def test_block_fingerprint_is_content_based():
    a = [SeqRecord("q0", "ACGTACGTACGT")]
    b = [SeqRecord("q0", "ACGTACGTACGT")]  # distinct objects, same content
    c = [SeqRecord("q0", "ACGTACGTACGA")]
    assert block_fingerprint(a) == block_fingerprint(b)
    assert block_fingerprint(a) != block_fingerprint(c)


def test_engine_cached_matches_uncached_across_partitions():
    """Cached sweeps return identical hits and actually hit the cache."""
    from repro.bio.simulate import mutate_dna, random_genome

    genomes = [random_genome(3000, seed_or_rng=20 + i) for i in range(4)]
    queries = [
        SeqRecord(f"q{i}", mutate_dna(genomes[i][400:1000], 0.04, seed_or_rng=50 + i))
        for i in range(3)
    ]

    class Part:
        def __init__(self, name, recs):
            self.name, self._recs = name, recs
            self.num_seqs = len(recs)
            self.total_length = sum(len(r.seq) for r in recs)

        def __iter__(self):
            for r in self._recs:
                yield r.id, DNA.encode(r.seq)

    parts = [
        Part(f"p{j}", [SeqRecord(f"s{j}_{k}", genomes[2 * j + k]) for k in range(2)])
        for j in range(2)
    ]
    opts = BlastOptions.blastn()

    plain = BlastnEngine(opts)
    cached = BlastnEngine(opts)
    cache = LookupCache(capacity=4)
    cached.set_lookup_cache(cache)

    for sweep in range(2):
        for p in parts:
            assert plain.search_block(queries, p) == cached.search_block(queries, p)
    # first encounter is the only miss; the other three searches hit
    assert cache.misses == 1 and cache.hits == 3
    assert cached.last_stats.lookup_cache_hits == 1


def test_neighbor_table_built_once_under_concurrent_first_use(monkeypatch):
    """Thread-backend ranks share the process-wide BLOSUM table: racing
    cold callers must get the one cached table, built exactly once."""
    monkeypatch.delitem(lookup._NEIGHBOR_CSR_CACHE, 11, raising=False)
    builds = []
    real_build = lookup._build_neighbor_csr

    def counting_build(threshold):
        builds.append(threshold)
        time.sleep(0.05)  # hold the cold window open for the other threads
        return real_build(threshold)

    monkeypatch.setattr(lookup, "_build_neighbor_csr", counting_build)
    start = threading.Barrier(4)
    got = [None] * 4

    def worker(i):
        start.wait()
        got[i] = lookup._neighbor_csr(11)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert builds == [11]
    assert all(g is got[0] for g in got)
    assert lookup._NEIGHBOR_CSR_CACHE[11] is got[0]
