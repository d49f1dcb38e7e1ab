"""Slow reference versions of the seqkit kernels, of the greedy inner
book search and its checks, of the three encoders, of hirate's erase
price, of GF(2^w) powers, of the BUFFER_KILL strategy and of the unique
decoders' per-word steps.

The package's containment and LCS kernels are bit-parallel or prune their
search.  Tests compare the kernels against these plain versions, and the
acceptance checks use them to re-verify books built with the kernels.  The
encoders read each pair's channel symbols from a per-spec table;
encode_oracle builds the word from the outer codeword and the inner book.
hirate prices erasing a window in closed form; erase_cost_oracle tries
every subsequence.  The GF(2^w) tables are checked against square and
multiply on gf's polynomial arithmetic.  pairwise_check runs the dynamic
program on every pair of a UNIQUE or DENSE book where the check makes one
bit-parallel pass per word.  probe_scan reads every binary probe word of a
LISTDEC book where the check walks a pruned trie, and shares_subsequence
tries every subsequence of a word where the build's multi-word test walks
them pruned.  The unique decoders' steps each have a plain version:
groupby_blocks splits a headered word with itertools.groupby, sliced_kept
joins the slices between deleted positions, unique_oracle votes index by
index through innercode._containing and horner_from_zero evaluates from an
accumulator of 0.
"""

import itertools
import math

from delcodes.errors import Ambiguous, NoMatch
from delcodes.gf import _poly_mod, _poly_mulmod
from delcodes.innercode import CodebookKind, _containing, separation_threshold
from delcodes.rsouter import rs_encode
from delcodes.seqkit import Word


def subseq_oracle(s, t) -> bool:
    """Whether the symbol tuple s is a subsequence of t, by the two-pointer
    scan: the reference for the bit-parallel kernel seqkit._is_subseq_seq."""
    if len(s) > len(t):
        return False
    it = iter(t)
    return all(sym in it for sym in s)


def brute_lcs(a, b):
    """Pairwise LCS by trying every subsequence of a against b: the
    reference the dynamic program and the bit-parallel kernel must meet."""
    best = 0
    for mask in range(1 << len(a)):
        sub = tuple(a[i] for i in range(len(a)) if mask >> i & 1)
        if len(sub) > best and subseq_oracle(sub, b):
            best = len(sub)
    return best


def rolling_lcs(xs, ys):
    """Pairwise LCS by the O(|xs| * |ys|) dynamic program with one rolling
    row: the reference for each word's LCS from a pass of the bit-parallel
    seqkit._lcs_seq over a whole book (read out by _LcsBook.lcs, or
    against a threshold by _LcsBook.reach)."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    if not ys:
        return 0
    row = [0] * (len(ys) + 1)
    for x in xs:
        prev_diag = 0
        for j, y in enumerate(ys, start=1):
            tmp = row[j]
            if x == y:
                row[j] = prev_diag + 1
            elif row[j - 1] > row[j]:
                row[j] = row[j - 1]
            prev_diag = tmp
    return row[len(ys)]


def pairwise_check(cb):
    """The check_codebook report of the UNIQUE or DENSE book cb, one
    rolling_lcs per pair of codewords in itertools.combinations order: the
    reference for the check's one pass per word.  A DENSE book's words of
    its shape are tested against its density rule, every window of
    ceil(beta * m) symbols summed on its own."""
    words = [w.symbols for w in cb.codewords]
    ell = separation_threshold(cb.m, cb.delta)
    bad = []
    if len(set(words)) != len(words):
        bad.append("duplicate codewords")
    if any(len(w) != cb.m or w.alphabet_size != cb.k for w in cb.codewords):
        bad.append("codeword shape mismatch")
    worst = 0
    for (i, a), (j, b) in itertools.combinations(enumerate(words), 2):
        v = rolling_lcs(a, b)
        worst = max(worst, v)
        if v >= ell:
            bad.append(f"pair ({i}, {j}) has lcs {v}")
    if cb.kind is CodebookKind.DENSE:
        win = math.ceil(cb.beta * cb.m)
        need = math.ceil(cb.beta * cb.m / 10)
        bad += [f"codeword {i} not dense" for i, w in enumerate(cb.codewords)
                if len(w) == cb.m and w.alphabet_size == cb.k and not (
                    w.symbols[0] == 1 == w.symbols[-1] and all(
                        sum(w.symbols[j:j + win]) >= need
                        for j in range(max(cb.m - win, 0) + 1)))]
    return {"kind": cb.kind.value, "size": len(words),
            "separation_threshold": ell, "ok": not bad, "violations": bad,
            "max_pairwise_lcs": worst}


def greedy_oracle(stream, ell, target=None, admit=None):
    """The greedy book over a candidate stream by pairwise rolling_lcs:
    each candidate that admit passes (every one, when admit is None) and
    whose LCS with every word taken so far is below ell is taken, until
    target words.  The reference for the UNIQUE and DENSE search of
    innercode._build."""
    book = []
    for cand in stream:
        if ((admit is None or admit(cand))
                and all(rolling_lcs(cand, w) < ell for w in book)):
            book.append(cand)
            if len(book) == target:
                break
    return book


def table_multi_lcs(seqs):
    """Multi-word LCS by the full dynamic program over the flat
    prod(len + 1) table: the reference for seqkit._multi_lcs when every
    word must hold the subsequence."""
    dims = [len(s) + 1 for s in seqs]
    total = math.prod(dims)
    strides = [0] * len(dims)
    acc = 1
    for i in range(len(dims) - 1, -1, -1):
        strides[i] = acc
        acc *= dims[i]
    table = [0] * total
    all_stride = sum(strides)
    for coords in itertools.product(*(range(d) for d in dims)):
        if 0 in coords:
            continue
        idx = sum(c * st for c, st in zip(coords, strides))
        sym = seqs[0][coords[0] - 1]
        if all(s[c - 1] == sym for s, c in zip(seqs, coords)):
            best = table[idx - all_stride] + 1
        else:
            best = 0
        for st in strides:
            best = max(best, table[idx - st])
        table[idx] = best
    return table[total - 1]


def shares_subsequence(seqs, ell, need):
    """Whether some ell-subsequence of seqs[0] lies in at least need of the
    words, seqs[0] counted: every distinct one, one subseq_oracle test per
    word.  The reference for seqkit._multi_lcs with any need, which
    returns such words, none exactly when there are none."""
    return any(sum(subseq_oracle(sub, w) for w in seqs) >= need
               for sub in set(itertools.combinations(seqs[0], ell)))


def probe_scan(cb):
    """The most codewords of the LISTDEC book cb that any binary word of
    length ell holds as a subsequence, and a violation line for each word,
    in lexicographic order, held by list_size or more: every one of the
    2^ell probe words, one containment test each.  The reference for the
    LISTDEC walk of innercode.check_codebook."""
    ell = cb.separation_threshold
    worst, lines = 0, []
    for probe in itertools.product((0, 1), repeat=ell):
        hits = sum(1 for _ in _containing(cb, probe))
        worst = max(worst, hits)
        if hits >= cb.list_size:
            lines.append(
                f"word {''.join(map(str, probe))} matches {hits} codewords")
    return worst, lines


def encode_oracle(spec, message):
    """The channel word of message, symbol by symbol: the inner codeword of
    each outer pair (i, c), index i*q + c, tagged with the position header
    as (i % D)*k + s for highnoise and preceded by buffer_len zeros for
    hirate (but the first).  The reference for the encoders' table of pair
    words."""
    highnoise, hirate = spec.name == "highnoise", spec.name == "hirate"
    syms = []
    for i, c in enumerate(rs_encode(spec.rs, message)):
        if hirate and i:
            syms.extend([0] * spec.buffer_len)
        base = (i % spec.D) * spec.inner.k if highnoise else 0
        word = spec.inner.codewords[i * spec.q + c]
        syms.extend(base + s for s in word.symbols)
    return Word(tuple(syms), spec.D * spec.inner.k if highnoise else 2)


def erase_cost_oracle(word, loss_needed):
    """Fewest deletions after which the binary word, with the zeros left
    at either end stripped (they merge into the neighbouring buffers), is
    at least loss_needed symbols shorter, by trying its subsequences from
    the longest down: the reference for hirate._erase_cost."""
    m = len(word)
    for kept in range(m, -1, -1):
        if any(len(bytes(sub).strip(b"\0")) <= m - loss_needed
               for sub in itertools.combinations(word, kept)):
            return m - kept


def poly_powmod(a, e, f):
    """a^e modulo the polynomial f over GF(2), by square and multiply: the
    reference for the GF(2^w) tables' pow, inv and div."""
    r = 1
    a = _poly_mod(a, f)
    while e:
        if e & 1:
            r = _poly_mulmod(r, a, f)
        a = _poly_mulmod(a, a, f)
        e >>= 1
    return r


def buffer_kill_oracle(rng, spec, buffers, budget):
    """BUFFER_KILL by its round-robin loop: each round, every buffer in a
    shuffled order gives up its next run_threshold symbols if it still
    holds that many and the budget still covers them.  The reference for
    channel._buffer_kill."""
    thr = spec.run_threshold
    order = list(range(len(buffers)))
    rng.shuffle(order)
    taken = {b: 0 for b in order}
    out = []
    remaining = budget
    progress = True
    while remaining >= thr and progress:
        progress = False
        for b in order:
            size = buffers[b][1] - buffers[b][0]
            take = min(thr, size - taken[b], remaining)
            if take < thr:
                continue
            start = buffers[b][0] + taken[b]
            out.extend(range(start, start + take))
            taken[b] += take
            remaining -= take
            progress = True
            if remaining < thr:
                break
    return sorted(out)


def groupby_blocks(symbols, k):
    """The symbols cut into maximal runs of one header h = s // k, each run
    as its payloads s - h*k, by itertools.groupby: the reference for
    highnoise.hn_partition_blocks."""
    return [tuple(s - h * k for s in run)
            for h, run in itertools.groupby(symbols, lambda s: s // k)]


def sliced_kept(syms, positions):
    """syms without the ascending positions, as the slices between them
    joined: the reference for channel._kept."""
    kept = []
    for a, b in zip((-1, *positions), (*positions, len(syms))):
        kept += syms[a + 1:b]
    return tuple(kept)


def unique_oracle(cb, received):
    """The index of the one codeword containing received, read index by
    index through innercode._containing; NoMatch when none does, Ambiguous
    naming the first two when several do.  The reference for
    innercode.inner_decode_unique."""
    found = -1
    for i in _containing(cb, received):
        if found >= 0:
            raise Ambiguous(f"codewords {found} and {i} both contain received")
        found = i
    if found < 0:
        raise NoMatch("no codeword contains the received word")
    return found


def horner_from_zero(field, coeffs, x):
    """sum coeffs[i] * x^i by Horner's rule from an accumulator of 0: the
    reference for rsouter.poly_eval and rs_encode, which start at the top
    coefficient."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc
