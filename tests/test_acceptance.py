"""Acceptance gate: twelve numbered release checks, one test per check.

Each test appends a verdict line to the shared acceptance log (echoed after
the pytest summary) so a CI run shows all twelve outcomes at a glance.  Check
02b is a documented falsification: the binary counting refinement is simply
not true at l in {m-1, m}, and the test records that honestly instead of
narrowing the claim.
"""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from delcodes.channel import (DeletionPattern, Strategy, apply_deletions,
                              run_trials, write_reports)
from delcodes.cli import main
from delcodes.gf import make_field
from delcodes.highnoise import hn_decode, hn_encode, hn_make_spec
from delcodes.innercode import (CandidatePolicy, CodebookKind, _build,
                                check_codebook, greedy_listdec,
                                inner_decode_unique, rate_report)
from delcodes.rsouter import RsParams, rs_decode_ee, rs_encode
from delcodes.seqkit import Word, count_supersequences
from oracles import rolling_lcs, subseq_oracle


def _note(log, line):
    log.append(line)
    print(line)


def _brute_superseq_counts(k, m):
    """count of length-m supersequences for every word, by raw enumeration:
    walk all k^m strings and collect each one's distinct subsequences."""
    counts = {}
    for t in itertools.product(range(k), repeat=m):
        seen = set()
        for r in range(m + 1):
            for idx in itertools.combinations(range(m), r):
                seen.add(tuple(t[i] for i in idx))
        for s in seen:
            counts[s] = counts.get(s, 0) + 1
    return counts


def test_c01_counting_oracle_matches_brute_force(acceptance_log):
    t0 = time.monotonic()
    checked = 0
    for k in (2, 3):
        for m in range(1, 9):
            exact = _brute_superseq_counts(k, m)
            for l in range(m + 1):
                for s in itertools.product(range(k), repeat=l):
                    assert count_supersequences(Word(s, k), m, k) == exact.get(s, 0), \
                        f"oracle disagrees with enumeration at k={k} m={m} s={s}"
                    checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _note(acceptance_log,
          f"01 counting oracle vs brute force: PASS "
          f"(k<=3, m<=8, {checked} words, {elapsed:.1f}s)")


def test_c02a_general_counting_bound(acceptance_log):
    t0 = time.monotonic()
    for k in (2, 3):
        for m in range(1, 9):
            for l in range(m + 1):
                bound = k ** (m - l) * math.comb(m, l)
                for s in itertools.product(range(k), repeat=l):
                    c = count_supersequences(Word(s, k), m, k)
                    assert c <= bound, (k, m, s, c, bound)
    _note(acceptance_log,
          f"02a general counting bound: PASS "
          f"(exact <= k^(m-l)*C(m,l) everywhere, {time.monotonic()-t0:.1f}s)")


def _binary_refinement_violations():
    """(m, l) cells with l > m/2 where some word beats (m-l)*C(m,l)."""
    cells = []
    for m in range(1, 9):
        for l in range(m // 2 + 1, m + 1):
            bound = (m - l) * math.comb(m, l)
            for s in itertools.product(range(2), repeat=l):
                if count_supersequences(Word(s, 2), m, 2) > bound:
                    cells.append((m, l))
                    break
    return cells


@pytest.mark.xfail(strict=True,
                   reason="the binary refinement fails at l in {m-1, m}: a "
                          "length-(m-1) word has m+1 supersequences but the "
                          "bound is m, and every word is its own length-m "
                          "supersequence against a bound of 0")
def test_c02b_binary_refinement_bound_as_stated(acceptance_log):
    violations = _binary_refinement_violations()
    _note(acceptance_log,
          f"02b binary refinement for all l > m/2: EXPECTED FAIL "
          f"({len(violations)} violating (m, l) cells, all at l >= m-1)")
    assert not violations


def test_c02c_binary_refinement_away_from_boundary(acceptance_log):
    violations = _binary_refinement_violations()
    assert violations, "expected boundary violations to exist"
    assert all(l >= m - 1 for m, l in violations), violations
    for m in range(1, 9):
        for l in range(m // 2 + 1, m - 1):
            bound = (m - l) * math.comb(m, l)
            for s in itertools.product(range(2), repeat=l):
                c = count_supersequences(Word(s, 2), m, 2)
                assert c <= bound, (m, l, s, c, bound)
    _note(acceptance_log,
          "02c binary refinement for m/2 < l <= m-2: PASS "
          "(violations confined to l in {m-1, m})")


# ---------------------------------------------------------------------------
# Codebook grid shared by the separation and decode-completeness checks.
# The seeded-random alphabet-4 cells are capped so the books stay small
# enough for the exhaustive decode loops; separation is checked in full
# regardless of size.

_GRID = None
_GRID_SECONDS = 0.0

_RANDOM_CAPS = {(8, F(1, 4)): 4000, (10, F(1, 4)): 600, (12, F(1, 4)): 50,
                (8, F(1, 2)): 4000, (10, F(1, 2)): 4000, (12, F(1, 2)): 4000}


def _grid_books():
    global _GRID, _GRID_SECONDS
    if _GRID is None:
        t0 = time.monotonic()
        books = {}
        for m in (8, 10, 12):
            for d in (F(1, 4), F(1, 2)):
                books[("unique", 2, m, d)] = _build(
                    CodebookKind.UNIQUE, 2, m, d)
                books[("unique", 4, m, d)] = _build(
                    CodebookKind.UNIQUE, 4, m, d,
                    policy=CandidatePolicy.SEEDED_RANDOM, seed=1,
                    attempt_cap=_RANDOM_CAPS[(m, d)])
                books[("dense", 2, m, d)] = _build(
                    CodebookKind.DENSE, 2, m, d, beta=F(1, 4))
        _GRID = books
        _GRID_SECONDS = time.monotonic() - t0
    return _GRID


def test_c03_inner_separation_grid(acceptance_log):
    t0 = time.monotonic()
    books = _grid_books()
    assert len(books) == 18
    sizes = []
    for key, cb in books.items():
        report = check_codebook(cb)
        assert report["ok"], (key, report["violations"])
        worst = max((rolling_lcs(a.symbols, b.symbols) for a, b in
                     itertools.combinations(cb.codewords, 2)), default=0)
        assert worst < cb.separation_threshold, (key, worst)
        sizes.append(len(cb.codewords))
    elapsed = _GRID_SECONDS + (time.monotonic() - t0)
    assert elapsed < 120
    _note(acceptance_log,
          f"03 pairwise separation on the 18-cell grid: PASS "
          f"(book sizes {min(sizes)}..{max(sizes)}, {elapsed:.1f}s)")


def test_c04_inner_decode_completeness(acceptance_log):
    t0 = time.monotonic()
    exhaustive = sampled = 0
    rng = random.Random(404)
    for (kind, k, m, d), cb in _grid_books().items():
        dmax = int(d * m)
        if m <= 10:
            for idx, cw in enumerate(cb.codewords):
                for j in range(dmax + 1):
                    for pat in itertools.combinations(range(m), j):
                        cut = set(pat)
                        rem = tuple(s for i, s in enumerate(cw.symbols)
                                    if i not in cut)
                        assert inner_decode_unique(cb, rem) == idx, \
                            (kind, k, m, d, idx, pat)
                        exhaustive += 1
        else:
            for idx, cw in enumerate(cb.codewords):
                for _ in range(10_000):
                    j = rng.randint(0, dmax)
                    cut = set(rng.sample(range(m), j))
                    rem = tuple(s for i, s in enumerate(cw.symbols)
                                if i not in cut)
                    assert inner_decode_unique(cb, rem) == idx, \
                        (kind, k, m, d, idx, sorted(cut))
                    sampled += 1
    _note(acceptance_log,
          f"04 inner decode completeness: PASS ({exhaustive} exhaustive + "
          f"{sampled} sampled patterns, {time.monotonic()-t0:.1f}s)")


def test_c05_list_decodability(acceptance_log, ld_desk):
    t0 = time.monotonic()
    books = [ld_desk.inner,
             greedy_listdec(10, F(1, 4), 3),
             greedy_listdec(12, F(1, 4), 3)]
    worsts = []
    for cb in books:
        ell = cb.separation_threshold
        worst = 0
        for enc in range(2 ** ell):
            probe = tuple((enc >> (ell - 1 - i)) & 1 for i in range(ell))
            hits = sum(1 for w in cb.codewords
                       if subseq_oracle(probe, w.symbols))
            worst = max(worst, hits)
            assert hits <= cb.list_size - 1, (cb.m, cb.list_size, probe, hits)
        worsts.append((cb.m, cb.list_size, worst))
    _note(acceptance_log,
          f"05 list-decodability, exhaustive received words: PASS "
          f"((m, L, worst hits) = {worsts}, {time.monotonic()-t0:.1f}s)")


def test_c06_rs_errors_and_erasures_contract(acceptance_log):
    t0 = time.monotonic()
    modes = []
    for q, n, nprime in ((5, 4, 2), (11, 8, 3), (16, 10, 4)):
        rs = RsParams(make_field(q), n, nprime)
        margin = n - nprime
        shapes = [(r, t) for r in range(n + 1) for t in range(n + 1)
                  if r + 2 * t < margin]
        total = q ** nprime * sum(
            math.comb(n, r) * math.comb(n - r, t) * (q - 1) ** t
            for r, t in shapes)
        if total <= 10 ** 5:
            for msg in itertools.product(range(q), repeat=nprime):
                truth = rs_encode(rs, msg)
                for r, t in shapes:
                    for er in itertools.combinations(range(n), r):
                        rest = [i for i in range(n) if i not in er]
                        for ep in itertools.combinations(rest, t):
                            wrongs = [[v for v in range(q)
                                       if v != truth[i]] for i in ep]
                            for vals in itertools.product(*wrongs):
                                rec = [None if i in er else truth[i]
                                       for i in range(n)]
                                for i, v in zip(ep, vals):
                                    rec[i] = v
                                got = rs_decode_ee(rs, rec)
                                assert got == list(msg)
            modes.append((q, n, nprime, f"exhaustive({total})"))
        else:
            rng = random.Random(q * 1000 + n)
            for _ in range(10 ** 4):
                msg = [rng.randrange(q) for _ in range(nprime)]
                truth = rs_encode(rs, msg)
                r, t = rng.choice(shapes)
                er = rng.sample(range(n), r)
                ep = rng.sample([i for i in range(n) if i not in er], t)
                rec = [None if i in er else truth[i] for i in range(n)]
                for i in ep:
                    v = rng.randrange(q)
                    while v == truth[i]:
                        v = rng.randrange(q)
                    rec[i] = v
                got = rs_decode_ee(rs, rec)
                assert got == msg, (q, n, nprime, msg, r, t)
            modes.append((q, n, nprime, "sampled(10000)"))
    _note(acceptance_log,
          f"06 outer code under r+2t < n-n': PASS "
          f"({modes}, {time.monotonic()-t0:.1f}s)")


# ---------------------------------------------------------------------------
# The end-to-end block-scheme checks run on a five-block build: with n = 5
# the full deletion budget floor((1-eps)*n*m) = 20 cannot pay for the 24
# deletions needed to splice two same-header blocks together, so the
# errors-and-erasures slack 2s + r < n(1 - eps/2) holds on every trial.

_HN5 = None


def _hn5():
    global _HN5
    if _HN5 is None:
        _HN5 = hn_make_spec(F(1, 2), q=5,
                            overrides={"D": 4, "k": 256, "m": 8, "seed": 5})
    return _HN5


def _accounting(spec, telemetry, truth):
    wrong = sum(1 for pos, val in telemetry.pairs if truth[pos] != val)
    return 2 * wrong + telemetry.erasures


def _worst_block_patterns(spec):
    """Per inner codeword, the deletion pattern within floor(delta_in * m)
    that leaves the remnant contained in the most codewords."""
    book = spec.inner.codewords
    budget = int(spec.delta_in * spec.m)
    out = {}
    for idx, cw in enumerate(book):
        best, best_hits = (), 0
        for j in range(budget, -1, -1):
            for pat in itertools.combinations(range(spec.m), j):
                cut = set(pat)
                rem = tuple(s for i, s in enumerate(cw.symbols)
                            if i not in cut)
                hits = sum(1 for w in book if subseq_oracle(rem, w.symbols))
                if hits > best_hits:
                    best_hits, best = hits, pat
        out[idx] = best
    return out


def test_c07_highnoise_end_to_end(acceptance_log):
    t0 = time.monotonic()
    spec = _hn5()
    assert spec.n == spec.q == 5 and spec.m == 8 and spec.D == 4
    field = spec.rs.field
    budget = (1 - spec.epsilon) * spec.n * spec.m
    assert budget == 20
    slack = spec.n * (1 - spec.epsilon / 2)

    reports = run_trials(spec, [Strategy("RANDOM"), Strategy("BLOCK_ERASE"),
                                Strategy("MERGE_ATTACK")],
                         [F(1, 2)], 100, master_seed=20260822)
    assert len(reports) == 300
    assert all(r.outcome == "ok" for r in reports)
    for r in reports:
        tel = dict(r.telemetry)
        assert 2 * tel["wrong_votes"] + tel["erasures"] < slack, r

    # greedy inner-confusion patterns, applied block-aligned
    worst = _worst_block_patterns(spec)
    for seed in range(100):
        rng = random.Random(1000 + seed)
        msg = [rng.randrange(spec.q) for _ in range(spec.n_prime)]
        truth = rs_encode(spec.rs, msg)
        word = hn_encode(spec, msg)
        positions = []
        for b in sorted(rng.sample(range(spec.n), 3)):
            pat = worst[b * spec.q + truth[b]]
            positions.extend(b * spec.m + p for p in pat)
        assert len(positions) <= budget
        received = apply_deletions(word, DeletionPattern(tuple(sorted(positions))))
        res = hn_decode(spec, received)
        assert res.message == tuple(map(field.elem, msg)), seed
        assert _accounting(spec, res.telemetry, truth) < slack, seed
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _note(acceptance_log,
          f"07 five-block pipeline, 4 strategies x 100 seeds: PASS "
          f"(100% recovery, 2s+r < {slack} on every trial, {elapsed:.1f}s)")


def test_c08_hirate_end_to_end(acceptance_log, br_desk):
    t0 = time.monotonic()
    spec = br_desk
    eps = float(spec.epsilon)
    reports = run_trials(spec, [Strategy("RANDOM"), Strategy("BUFFER_KILL"),
                                Strategy("DENSITY_ATTACK"),
                                Strategy("MERGE_ATTACK")],
                         [spec.epsilon], 100, master_seed=20260822)
    assert len(reports) == 400
    assert all(r.outcome == "ok" for r in reports)
    lo = (1 - 2 * math.sqrt(eps)) * spec.n
    hi = (1 + 2 * math.sqrt(eps)) * spec.n
    seen = set()
    for r in reports:
        w = dict(r.telemetry)["window_count"]
        seen.add(w)
        assert lo <= w <= hi, (w, lo, hi)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _note(acceptance_log,
          f"08 buffered pipeline, 4 strategies x 100 seeds: PASS "
          f"(100% recovery, window counts {sorted(seen)} within "
          f"[{lo:.2f}, {hi:.2f}], {elapsed:.1f}s)")


def test_c09_listdec_end_to_end(acceptance_log, ld_desk):
    t0 = time.monotonic()
    spec = ld_desk
    assert spec.n <= 4 and spec.q <= 7 and spec.n_prime == 1
    reports = run_trials(spec, [Strategy("RANDOM"), Strategy("BLOCK_ERASE"),
                                Strategy("WINDOW_SHIFT")],
                         [F(1, 2) - spec.epsilon], 100, master_seed=20260822)
    assert len(reports) == 300
    assert all(r.outcome == "ok" for r in reports)
    sizes = [dict(r.telemetry)["output_size"] for r in reports]
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _note(acceptance_log,
          f"09 list-decoding pipeline, 3 strategies x 100 seeds: PASS "
          f"(100% containment, list size mean {sum(sizes)/len(sizes):.2f} "
          f"max {max(sizes)}, {elapsed:.1f}s)")


def test_c10_minimax_certification(acceptance_log):
    t0 = time.monotonic()
    spec = _hn5()
    book = spec.inner.codewords
    budget = int(spec.delta_in * spec.m)
    assert budget == 6

    # every codeword, every within-budget pattern, single block
    singles = 0
    for idx, cw in enumerate(book):
        for j in range(budget + 1):
            for pat in itertools.combinations(range(spec.m), j):
                cut = set(pat)
                rem = tuple(s for i, s in enumerate(cw.symbols)
                            if i not in cut)
                assert inner_decode_unique(spec.inner, rem) == idx, (idx, pat)
                singles += 1

    # two attacked blocks, full pattern product over every block pair,
    # including the same-header pair a splice attack would target
    field = spec.rs.field
    msg = [1, 3]
    word = hn_encode(spec, msg)
    expected = tuple(map(field.elem, msg))
    pats = [pat for j in range(budget + 1)
            for pat in itertools.combinations(range(spec.m), j)]
    products = 0
    for pair in itertools.combinations(range(spec.n), 2):
        a, b = pair
        for pa in pats:
            base = [a * spec.m + p for p in pa]
            for pb in pats:
                pattern = DeletionPattern(
                    tuple(base + [b * spec.m + p for p in pb]))
                res = hn_decode(spec, apply_deletions(word, pattern))
                assert res.message == expected, (pair, pa, pb)
                products += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _note(acceptance_log,
          f"10 exhaustive block-attack certification: PASS "
          f"({singles} single-block + {products} two-block patterns, "
          f"no within-budget defeat, {elapsed:.1f}s)")


def test_c11_rate_reports(acceptance_log, capsys):
    def build_output(scheme):
        assert main(["build", "--scheme", scheme]) == 0
        return capsys.readouterr().out

    out = build_output("highnoise")
    for key in ("rate_over_epsilon_sq", "dimension_ratio", "epsilon_sq",
                "[inner counting]", "counting_size_bound"):
        assert key in out, key
    out = build_output("hirate")
    for key in ("outer_factor_claimed", "inner_factor_claimed",
                "buffer_factor_claimed", "[inner counting]"):
        assert key in out, key
    out = build_output("listdec")
    for key in ("achieved_rate", "claimed_rate_scale", "recipe_threshold_met",
                "[inner counting]"):
        assert key in out, key

    cells = []
    for k, m, d in ((2, 8, F(1, 8)), (3, 6, F(1, 6)), (2, 10, F(1, 10)),
                    (2, 8, F(1, 4))):
        rr = rate_report(_build(CodebookKind.UNIQUE, k, m, d))
        assert (rr["bound_satisfied"]
                and rr["achieved_size"] >= rr["counting_size_bound"]), (k, m, d, rr)
        cells.append((k, m, str(d), rr["achieved_size"],
                      rr["counting_size_bound"]))
    _note(acceptance_log,
          f"11 rate reports and counting guarantee: PASS "
          f"(uncapped builds meet the size bound: {cells})")


# SHA-256 of c12's record files (telemetry included) and of the desk inner
# books' codeword lists.  They pin the bytes across commits: a change that
# moves RNG use, a telemetry value or a codeword fails here even though two
# runs in one process still agree.
_C12_RECORDS = {
    "hn": "d8016e94f6c93fef2d3433577a97383eda891f07421310eda67404a9ccef8e87",
    "br": "ed68f722d8fc70070c640571287cffb204d00f2487d84b97432081aab237d275",
    "ld": "c7511db1850c06228cdbfc3dfb23bea27f28cf717311cdee0e6b8a2049fbfa20",
}
_C12_BOOKS = {
    "hn": "0edfbb948f221aaa08b7d4e1fad5fa9ea26c96514969e6c87b06168be2915da2",
    "br": "74c9057d7bd1f5af0cb3c8864b22cf1144c6f0bde6d25540281c09a34ecc56c5",
    "ld": "e0b1f67623aaa128e3b367246010b7d93ab28c7153decd7e0e65022abe588079",
}


def _book_digest(book):
    h = hashlib.sha256()
    for w in book.codewords:
        h.update((",".join(map(str, w.symbols)) + "\n").encode())
    return h.hexdigest()


def test_c12_sweep_determinism(acceptance_log, tmp_path, hn_desk, br_desk,
                               ld_desk):
    t0 = time.monotonic()
    names = ("RANDOM", "BLOCK_ERASE", "BUFFER_KILL", "DENSITY_ATTACK",
             "MERGE_ATTACK", "WINDOW_SHIFT")
    for tag, spec, guarantee in (("hn", hn_desk, F(1, 2)),
                                 ("br", br_desk, br_desk.epsilon),
                                 ("ld", ld_desk, F(1, 2) - ld_desk.epsilon)):
        strategies = [Strategy(n) for n in names]
        files = []
        for run in (1, 2):
            reports = run_trials(spec, strategies, [F(0), guarantee], 3,
                                 master_seed=99)
            path = tmp_path / f"{tag}-{run}.log"
            write_reports(reports, path)
            files.append(path.read_bytes())
        assert files[0] == files[1], tag
        assert hashlib.sha256(files[0]).hexdigest() == _C12_RECORDS[tag], tag
        assert _book_digest(spec.inner) == _C12_BOOKS[tag], tag
    _note(acceptance_log,
          f"12 same-seed sweeps byte-identical and match the pinned digests: "
          f"PASS (three schemes, {time.monotonic()-t0:.1f}s)")
