"""Header-concatenated scheme: spec derivation, block partition, the decode
pipeline with its vote accounting, and headered-word validation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from delcodes.channel import DeletionPattern, apply_deletions
from delcodes.common import Profile
from delcodes.errors import (
    InfeasibleAtDeskScale,
    InvalidOverride,
    OutOfRange,
)
from delcodes.highnoise import (
    hn_decode,
    hn_encode,
    hn_make_spec,
    hn_partition_blocks,
    hn_rate_report,
)
from delcodes.innercode import inner_decode_unique
from delcodes.rsouter import rs_encode
from delcodes.seqkit import Word

F = Fraction


def hw(headers_payloads, D=4, k=4):
    """The channel word of (header, payload) pairs: symbols h*k + p."""
    return Word(tuple(h * k + p for h, p in headers_payloads), D * k)


def zero_message(spec):
    return [0] * spec.n_prime


class TestMakeSpec:
    def test_paper_derivation_at_eps_half(self):
        spec = hn_make_spec(F(1, 2), 8, Profile.PAPER_ASYMPTOTIC)
        assert spec.D == 16
        assert spec.inner.k == 512
        assert spec.m == 72
        assert spec.n == 8
        assert spec.n_prime == 2
        assert len(spec.inner) == spec.n * spec.q == 64
        assert spec.delta_in == F(3, 4)

    def test_desk_literal_overrides_are_applied(self):
        spec = hn_make_spec(F(1, 2), 5, overrides={
            "D": 4, "k": 256, "m": 8, "n": 5, "n_prime": 1, "seed": 5})
        assert ((spec.D, spec.inner.k, spec.m, spec.n, spec.n_prime)
                == (4, 256, 8, 5, 1))

    def test_desk_literal_small_override_is_infeasible(self):
        # only 4 words of length 8 over [4] can be pairwise separated at
        # lcs < 2 (distinct leading symbols); the 25-pair target is out of
        # reach, so no spec is built
        with pytest.raises(InfeasibleAtDeskScale,
                           match=r"reached 4 of 25 codewords after all 4\^8"):
            hn_make_spec(F(1, 2), 5,
                         overrides={"D": 4, "k": 4, "m": 8, "n": 5, "n_prime": 1})

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

    @pytest.mark.parametrize("inner", [{"k": 1}, {"m": 0}, {"k": 0, "m": -1}])
    def test_inner_shape_enforced(self, inner):
        with pytest.raises(OutOfRange):
            hn_make_spec(F(1, 2), 5, overrides={"m": 8, "n": 5, "n_prime": 1,
                                                **inner})

    def test_pair_index_bijection(self, hn_desk):
        # pair_of_index maps the n * q book indices onto the n * q pairs,
        # and i*q + c inverts it
        spec = hn_desk
        pairs = [spec.pair_of_index(idx) for idx in range(spec.n * spec.q)]
        assert sorted(pairs) == [(i, c) for i in range(spec.n)
                                 for c in range(spec.q)]
        assert all(i * spec.q + c == idx for idx, (i, c) in enumerate(pairs))

    def test_rate_report_names_the_eps_squared_gap(self, hn_desk):
        rep = hn_rate_report(hn_desk)
        assert rep["dimension_ratio"] == F(1, 4)
        assert rep["epsilon_sq"] == 0.25
        assert rep["rate"] > 0


class TestEncode:
    def test_headers_cycle_blockwise(self, hn_desk):
        spec = hn_desk
        word = hn_encode(spec, zero_message(spec))
        assert len(word) == spec.n * spec.m == spec.encoded_length == 64
        for i in range(spec.n):
            blk = word.symbols[i * spec.m:(i + 1) * spec.m]
            headers = tuple(s // spec.inner.k for s in blk)
            assert headers == (i % spec.D,) * spec.m

    def test_zero_message_concatenates_pair_codewords(self, hn_desk):
        spec = hn_desk
        word = hn_encode(spec, zero_message(spec))
        for i in range(spec.n):
            payload = tuple(s % spec.inner.k
                            for s in word.symbols[i * spec.m:(i + 1) * spec.m])
            cw = spec.inner.codewords[i * spec.q]
            assert payload == cw.symbols

    def test_symbol_outside_field_rejected(self, hn_desk):
        with pytest.raises(OutOfRange):
            hn_encode(hn_desk, [0] * (hn_desk.n_prime - 1) + [hn_desk.q])


class TestPartition:
    def test_three_runs(self):
        w = hw([(0, 1), (0, 2), (1, 0), (3, 3), (3, 1)])
        assert hn_partition_blocks(w, 4) == [(1, 2), (0,), (3, 1)]

    def test_empty_word(self):
        assert hn_partition_blocks(hw([]), 4) == []

    def test_single_run(self):
        blocks = hn_partition_blocks(hw([(2, 0), (2, 1), (2, 2)]), 4)
        assert blocks == [(0, 1, 2)]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40))
    def test_partition_covers_word_in_order(self, syms):
        w = hw(syms)
        blocks = hn_partition_blocks(w, 4)
        # Each block is the payload of the next run of the word, in order,
        # and all of that run carries one header.
        headers = []
        pos = 0
        for b in blocks:
            run = w.symbols[pos:pos + len(b)]
            assert len(b) > 0
            assert b == tuple(s % 4 for s in run)
            assert len({s // 4 for s in run}) == 1
            headers.append(run[0] // 4)
            pos += len(b)
        assert pos == len(w)
        # maximality: neighbouring runs differ in header
        for a, b in zip(headers, headers[1:]):
            assert a != b


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
        truth = rs_encode(spec.rs, msg)
        wrong = sum(1 for i, v in t.pairs if truth[i] != v)
        assert wrong == 0
        assert 2 * wrong + t.erasures < spec.n * (1 - spec.epsilon / 2)

    def test_min_length_block_decodes_uniquely(self, hn_desk):
        spec = hn_desk
        idx = 3 * spec.q + 5
        cw = spec.inner.codewords[idx]
        # any threshold-length subsequence of one codeword matches only it
        kept = cw.symbols[: spec.inner.separation_threshold]
        got = inner_decode_unique(spec.inner, kept)
        assert got == idx

    def test_two_votes_for_one_position_are_a_conflict(self, hn_desk):
        spec = hn_desk
        msg = [6, 1]
        sent = hn_encode(spec, msg)
        truth = rs_encode(spec.rs, msg)
        other = (truth[0] + 1) % spec.q
        # an extra block, header 2 to stand apart from its neighbours,
        # voting a second value for position 0
        extra = tuple(2 * spec.inner.k + s for s in
                      spec.inner.codewords[0 * spec.q + other].symbols)
        syms = sent.symbols[:spec.m] + extra + sent.symbols[spec.m:]
        res = hn_decode(spec, Word(syms, spec.D * spec.inner.k))
        assert [e.value for e in res.message] == msg
        t = res.telemetry
        assert t.block_count == t.inner_successes == spec.n + 1
        assert {(0, truth[0]), (0, other)} <= set(t.pairs)
        assert t.conflicts_removed == 1
        assert t.erasures == 1

    def test_merged_block_longer_than_m_is_skipped(self, hn_desk):
        spec = hn_desk
        msg = [0, 5]
        sent = hn_encode(spec, msg)
        # delete blocks 1..D-1: blocks 0 and D share header 0 and merge
        pattern = DeletionPattern(tuple(range(spec.m, spec.D * spec.m)))
        res = hn_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == msg
        t = res.telemetry
        assert t.block_count == spec.n - spec.D
        assert t.skipped_blocks == 1
        assert t.inner_successes == spec.n - spec.D - 1
        assert t.erasures == spec.D + 1


class TestHeaderedWordIO:
    def test_out_of_range_symbols_rejected(self):
        # header 4 makes symbol 16, outside the D*k = 16 letters
        with pytest.raises(OutOfRange):
            hw([(4, 0)])
