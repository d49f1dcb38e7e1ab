"""Header-concatenated scheme: spec derivation, block partition, the decode
pipeline with its vote accounting, and headered-word validation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.channel import DeletionPattern, apply_deletions
from delcodes.common import Profile
from delcodes.errors import (
    DecodeFailure,
    InfeasibleAtDeskScale,
    InvalidOverride,
    LengthMismatch,
    OutOfRange,
)
from delcodes.highnoise import (
    HeaderedWord,
    HighNoiseSpec,
    hn_decode,
    hn_encode,
    hn_make_spec,
    hn_partition_blocks,
    hn_rate_report,
)
from delcodes.innercode import inner_decode_unique, inner_encode
from delcodes.presets import make_scheme_spec
from delcodes.rsouter import rs_encode
from delcodes.seqkit import Word

F = Fraction


def hw(headers_payloads, header_mod=4, alphabet=4):
    return HeaderedWord(tuple(headers_payloads), header_mod, alphabet)


def zero_message(spec):
    return [0] * spec.n_prime


class TestMakeSpec:
    def test_paper_derivation_at_eps_half(self):
        spec = hn_make_spec(F(1, 2), 8, Profile.PAPER_ASYMPTOTIC)
        assert spec.D == 16
        assert spec.k == 512
        assert spec.m == 72
        assert spec.n == 8
        assert spec.n_prime == 2
        assert spec.full_book  # 64 pair codewords exist
        assert spec.delta_in == F(3, 4)

    def test_desk_literal_small_override_is_valid_but_starved(self):
        spec = hn_make_spec(F(1, 2), 5,
                            overrides={"D": 4, "k": 4, "m": 8, "n": 5, "n_prime": 1})
        assert (spec.D, spec.k, spec.m, spec.n, spec.n_prime) == (4, 4, 8, 5, 1)
        # only 4 words of length 8 over [4] can be pairwise separated at
        # lcs < 2 (distinct leading symbols); the 25-pair target is out of
        # reach, the spec stays usable and says so
        assert len(spec.inner.codewords) == 4
        assert not spec.full_book

    def test_epsilon_above_half_rejected(self):
        with pytest.raises(OutOfRange, match="out of theorem range"):
            hn_make_spec(F(9, 10), 8)

    def test_epsilon_zero_and_negative_rejected(self):
        for bad in (0, F(-1, 5)):
            with pytest.raises(OutOfRange):
                hn_make_spec(bad, 8)

    def test_paper_profile_rejects_shape_overrides(self):
        with pytest.raises(InvalidOverride):
            hn_make_spec(F(1, 2), 8, Profile.PAPER_ASYMPTOTIC, {"D": 4})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(InvalidOverride):
            hn_make_spec(F(1, 2), 8, overrides={"headers": 3})

    def test_dimension_chain_enforced(self):
        with pytest.raises(OutOfRange):
            hn_make_spec(F(1, 2), 5, overrides={"m": 8, "n": 5, "n_prime": 6})

    def test_cache_roundtrip_and_shape_guard(self, tmp_path, hn_desk):
        path = tmp_path / "book.txt"
        spec = make_scheme_spec("highnoise", cache_path=path)
        assert spec.inner.codewords == hn_desk.inner.codewords
        again = make_scheme_spec("highnoise", cache_path=path)
        assert again.inner.codewords == spec.inner.codewords
        with pytest.raises(InvalidOverride, match="different codebook shape"):
            make_scheme_spec("highnoise", overrides={"m": 10}, cache_path=path)

    def test_pair_index_bijection(self, hn_desk):
        spec = hn_desk
        seen = set()
        for i in range(spec.n):
            for c in range(spec.q):
                idx = spec.pair_index(i, c)
                assert spec.pair_of_index(idx) == (i, c)
                seen.add(idx)
        assert seen == set(range(spec.pair_count))
        with pytest.raises(OutOfRange):
            spec.pair_index(spec.n, 0)

    def test_rate_report_names_the_eps_squared_gap(self, hn_desk):
        rep = hn_rate_report(hn_desk)
        assert rep["dimension_ratio"] == F(1, 4)
        assert rep["epsilon_sq"] == 0.25
        assert rep["rate"] > 0
        assert rep["full_book"]


class TestEncode:
    def test_headers_cycle_blockwise(self, hn_desk):
        spec = hn_desk
        word = hn_encode(spec, zero_message(spec))
        assert len(word) == spec.n * spec.m
        for i in range(spec.n):
            blk = word.headers()[i * spec.m:(i + 1) * spec.m]
            assert blk == (i % spec.D,) * spec.m

    def test_zero_message_concatenates_pair_codewords(self, hn_desk):
        spec = hn_desk
        word = hn_encode(spec, zero_message(spec))
        for i in range(spec.n):
            payload = tuple(p for _, p in word.symbols[i * spec.m:(i + 1) * spec.m])
            cw = inner_encode(spec.inner, spec.pair_index(i, 0))
            assert payload == cw.symbols

    def test_wrong_message_length(self, hn_desk):
        with pytest.raises(LengthMismatch):
            hn_encode(hn_desk, [0] * (hn_desk.n_prime + 1))

    def test_starved_book_fails_per_pair(self):
        spec = hn_make_spec(F(1, 2), 5,
                            overrides={"D": 4, "k": 4, "m": 8, "n": 5, "n_prime": 1})
        # pair (1, c) needs index 5 + c, beyond the 4 achieved codewords
        with pytest.raises(InfeasibleAtDeskScale):
            hn_encode(spec, [0])


class TestPartition:
    def test_three_runs(self):
        w = hw([(0, 1), (0, 2), (1, 0), (3, 3), (3, 1)])
        blocks = hn_partition_blocks(w)
        assert [(b.start, b.header, b.payload) for b in blocks] == [
            (0, 0, (1, 2)), (2, 1, (0,)), (3, 3, (3, 1))]

    def test_empty_word(self):
        assert hn_partition_blocks(hw([])) == []

    def test_single_run(self):
        blocks = hn_partition_blocks(hw([(2, 0), (2, 1), (2, 2)]))
        assert len(blocks) == 1
        assert blocks[0].payload == (0, 1, 2)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40))
    def test_partition_covers_word_in_order(self, syms):
        w = hw(syms)
        blocks = hn_partition_blocks(w)
        rebuilt = []
        pos = 0
        for b in blocks:
            assert b.start == pos
            assert len(set(w.headers()[b.start:b.start + len(b)])) <= 1
            rebuilt.extend((b.header, p) for p in b.payload)
            pos += len(b)
        assert tuple(rebuilt) == w.symbols
        # maximality: neighbors differ
        for a, b in zip(blocks, blocks[1:]):
            assert a.header != b.header


class TestDecode:
    def test_clean_roundtrip_all_messages_sampled(self, hn_desk):
        spec = hn_desk
        for msg in [(0, 0), (1, 7), (5, 3), (7, 7)]:
            res = hn_decode(spec, hn_encode(spec, list(msg)))
            assert tuple(e.value for e in res.message) == msg
            t = res.telemetry
            assert t.block_count == spec.n
            assert t.inner_successes == spec.n
            assert t.conflicts_removed == 0
            assert t.erasures == 0

    def test_whole_block_deletion_costs_one_erasure(self, hn_desk):
        spec = hn_desk
        msg = [2, 6]
        sent = hn_encode(spec, msg)
        pattern = DeletionPattern(tuple(range(spec.m)))  # erase block 0
        res = hn_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == msg
        assert res.telemetry.erasures == 1
        assert res.telemetry.block_count == spec.n - 1

    def test_block_shortened_below_threshold_is_skipped(self, hn_desk):
        spec = hn_desk
        msg = [1, 1]
        sent = hn_encode(spec, msg)
        # leave a single symbol of block 0: below ceil(eps*m/2) = 2
        pattern = DeletionPattern(tuple(range(1, spec.m)))
        res = hn_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == msg
        assert res.telemetry.skipped_blocks == 1
        assert res.telemetry.erasures == 1

    def test_long_block_survives_scattered_deletions(self, hn_desk):
        spec = hn_desk
        msg = [4, 2]
        sent = hn_encode(spec, msg)
        # two deletions inside each of the first three blocks
        positions = []
        for b in range(3):
            positions += [b * spec.m + 1, b * spec.m + 5]
        res = hn_decode(spec, apply_deletions(sent, DeletionPattern(tuple(positions))))
        assert [e.value for e in res.message] == msg
        assert res.telemetry.erasures == 0

    def test_accounting_inequality_on_clean_decode(self, hn_desk):
        spec = hn_desk
        msg = [3, 3]
        res = hn_decode(spec, hn_encode(spec, msg))
        t = res.telemetry
        truth = rs_encode(spec.rs.field, msg, spec.n)
        wrong = sum(1 for i, v in t.pairs if truth[i].value != v)
        assert wrong == 0
        assert 2 * wrong + t.erasures < spec.n * (1 - spec.epsilon / 2)

    def test_min_length_block_decodes_uniquely(self, hn_desk):
        spec = hn_desk
        idx = spec.pair_index(3, 5)
        cw = inner_encode(spec.inner, idx)
        # any min_block-length subsequence of one codeword matches only it
        kept = cw.symbols[: spec.min_block]
        got = inner_decode_unique(spec.inner, Word(kept, spec.k))
        assert got == idx

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoder_is_total(self, hn_desk, data):
        # Any received word, empty included: a result or DecodeFailure.
        spec = hn_desk
        syms = data.draw(st.lists(
            st.tuples(st.integers(0, spec.D - 1), st.integers(0, spec.k - 1)),
            max_size=spec.n * spec.m))
        try:
            hn_decode(spec, HeaderedWord(tuple(syms), spec.D, spec.k))
        except DecodeFailure:
            pass


class TestHeaderedWordIO:
    def test_out_of_range_symbols_rejected(self):
        with pytest.raises(OutOfRange):
            hw([(4, 0)])
        with pytest.raises(OutOfRange):
            hw([(0, 4)])
