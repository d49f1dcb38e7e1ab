"""The benchmark's workloads: sweep, certify and construct.

Each workload derives its inputs from the workload seed alone and hands the
program only those inputs.  A workload provides:

- ``setup()``: the cold build that precedes the timed loop (``setup_s``);
- ``known_answer(tally)``: the untimed warm-up op, whose outputs are
  compared with pinned default-seed digests;
- ``run_round(r, tally, tracer)``: round ``r`` of the closed loop.  It
  records work done, busy seconds and per-op latency, and checks every
  output.  A check that misses counts as a failed op.  The loop calls it
  twice for each ``r``, so the inputs depend on ``r`` alone.  A run ends on
  a multiple of ``cycle`` rounds, so every run does the same mix of work;
- ``layers``: the tracer layers its set-up and traced loop must call.  A
  traced run in which one of them is never called fails, so a bypassed
  function cannot read as a per-layer gain.

Every call into delcodes goes through a module attribute (``channel.attack``,
not a name imported from it), so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from delcodes import channel, highnoise, innercode, presets
from delcodes.errors import DeletionCodeError
from delcodes.innercode import CandidatePolicy

# SHA-256 digests of the default-seed outputs: sweep trial fields per scheme
# (master seed 0, PINNED_TRIALS trials per cell) and the codeword lists of
# the desk inner books plus c05's book.  A behaviour change that moves any of
# them fails the known-answer check.
PINNED_TRIALS = 5
PINS = {
    "sweep.highnoise":
        "630c8c7a484b5377c1ad503cf5749bde3398e53cf07eb885da961711c14c1c79",
    "sweep.hirate":
        "3cd317302ae11b58c28df1820e3aed9a9991c484fbc50d4efd143f2a431702ce",
    "sweep.listdec":
        "e141586f7478a9ca1982e623558db2d509cc8b1284ae5fe45ec3a87af75f10ab",
    "book.highnoise":
        "0edfbb948f221aaa08b7d4e1fad5fa9ea26c96514969e6c87b06168be2915da2",
    "book.hirate":
        "74c9057d7bd1f5af0cb3c8864b22cf1144c6f0bde6d25540281c09a34ecc56c5",
    "book.listdec":
        "e0b1f67623aaa128e3b367246010b7d93ab28c7153decd7e0e65022abe588079",
    "book.c05":
        "107aaba394519ed93be96ce0f7e3ae3a6457bff799bd5ba85aa2a78f1b5335f2",
}


def sub_seed(seed: int, *labels) -> int:
    """Seed of one labelled part of a run, derived from the workload seed."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Tally:
    """Ops attempted and failed, work done, busy time and op latencies.

    Ops are timed with ``clock``, which the run may replace by one that
    leaves out the time spent reading the host's speed.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.busy_s = 0.0
        self.latencies = array("d")
        self.digests: dict[str, str] = {}

    def gate(self, ok: bool, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops

    def timed(self, seconds: float, work: int) -> None:
        self.latencies.append(seconds)
        self.busy_s += seconds
        self.work += work


def _call(tracer, op_id, fn, *args):
    return fn(*args) if tracer is None else tracer.run_op(op_id, fn, *args)


# ---------------------------------------------------------------------------
# sweep


def trial_digest(reports) -> str:
    """SHA-256 of the trial fields, with telemetry and wall time left out."""
    h = hashlib.sha256()
    for r in reports:
        h.update(f"{r.scheme} {r.strategy} {r.fraction} {r.seed_index} "
                 f"{r.budget} {r.pattern_size} {r.outcome}\n".encode())
    return h.hexdigest()


class Sweep:
    """``delcodes sweep --trials 1 --seed S`` on each of the three desk specs.

    A round runs the CLI's default strategies x {0, the CLI's guarantee
    fraction}, one trial per cell, per scheme.  Round 0 uses the workload
    seed as master seed; later rounds derive theirs from it.  One op is one
    trial.
    """

    name = "sweep"
    work_unit = "trials"
    cycle = 1
    layers = ("seqkit.subseq", "innercode.decode", "rsouter.decode",
              "rsouter.encode", "rsouter.list_recover", "gf",
              *(f"{scheme}.{part}" for scheme in presets.SCHEMES
                for part in ("encode", "decode", "split")),
              "channel.attack", "channel.apply", "channel.runner",
              *(f"presets.make_spec.{scheme}" for scheme in presets.SCHEMES))

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = []
        self.strategies = []

    def setup(self) -> None:
        # Imported here, as only this workload's set-up needs the CLI.
        from delcodes import cli

        self.strategies = [channel.Strategy(n)
                           for n in cli._default_strategies()]
        self.specs = []
        for scheme in presets.SCHEMES:
            spec = presets.make_scheme_spec(scheme)
            self.specs.append((scheme, spec, cli._guarantee_fraction(spec)))

    def _round(self, master_seed: int, trials: int, clock, tracer,
               op_base: int):
        for i, (scheme, spec, guarantee) in enumerate(self.specs):
            t0 = clock()
            reports = _call(tracer, op_base + i, channel.run_trials, spec,
                            self.strategies, [Fraction(0), guarantee],
                            trials, master_seed)
            yield scheme, guarantee, reports, clock() - t0

    def known_answer(self, tally: Tally) -> None:
        for scheme, _, reports, _ in self._round(0, PINNED_TRIALS,
                                                 tally.clock, None, 0):
            ok = (trial_digest(reports) == PINS[f"sweep.{scheme}"]
                  and all(r.outcome == "ok" for r in reports))
            tally.gate(ok, len(reports))

    def run_round(self, r: int, tally: Tally, tracer=None) -> None:
        master = self.seed if r == 0 else sub_seed(self.seed, "sweep", r)
        for scheme, guarantee, reports, busy in self._round(
                master, 1, tally.clock, tracer,
                len(self.specs) * r):
            tally.busy_s += busy
            tally.work += len(reports)
            for rep in reports:
                tally.gate(rep.fraction > guarantee or rep.outcome == "ok")
                tally.latencies.append(rep.wall_time)
            if r == 0:
                tally.digests[f"sweep.{scheme}"] = trial_digest(reports)


# ---------------------------------------------------------------------------
# certify


# Patterns per certify round.
BATCH = 64


class Certify:
    """Acceptance check c10's two-block pattern space on c10's spec.

    One op encodes a seeded random message, deletes a block-aligned pattern
    from two distinct blocks (at most floor(delta_in * m) per block) and
    decodes; the decode must return the message.
    """

    name = "certify"
    work_unit = "patterns"
    cycle = 1
    layers = ("seqkit.subseq", "innercode.decode", "rsouter.decode",
              "rsouter.encode", "gf", "highnoise.encode", "highnoise.decode",
              "highnoise.split", "channel.apply",
              "presets.make_spec.highnoise")

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = None
        self.block_patterns = []

    def setup(self) -> None:
        self.spec = highnoise.hn_make_spec(
            Fraction(1, 2), 5, overrides={"D": 4, "k": 256, "m": 8, "seed": 5})

    def inputs(self, rng: random.Random, count: int):
        spec = self.spec
        m = spec.m
        if not self.block_patterns:
            budget = int(spec.delta_in * m)
            self.block_patterns = [
                p for j in range(budget + 1)
                for p in itertools.combinations(range(m), j)]
        out = []
        for _ in range(count):
            msg = tuple(rng.randrange(spec.q) for _ in range(spec.n_prime))
            a, b = sorted(rng.sample(range(spec.n), 2))
            pa = rng.choice(self.block_patterns)
            pb = rng.choice(self.block_patterns)
            positions = (tuple(a * m + p for p in pa)
                         + tuple(b * m + p for p in pb))
            out.append((msg, channel.DeletionPattern(positions)))
        return out

    def _op(self, msg, pattern):
        spec = self.spec
        received = channel.apply_deletions(highnoise.hn_encode(spec, msg),
                                           pattern)
        try:
            decoded = highnoise.hn_decode(spec, received)
        except DeletionCodeError:
            return None
        return tuple(e.value for e in decoded.message)

    def _batch(self, inputs, tally: Tally, tracer, timed: bool,
               op_base: int) -> None:
        for i, (msg, pattern) in enumerate(inputs):
            t0 = tally.clock()
            got = _call(tracer, op_base + i, self._op, msg, pattern)
            dt = tally.clock() - t0
            tally.gate(got == msg)
            if timed:
                tally.timed(dt, 1)

    def known_answer(self, tally: Tally) -> None:
        rng = random.Random(sub_seed(0, "certify", 0))
        self._batch(self.inputs(rng, BATCH), tally, None, False, 0)

    def run_round(self, r: int, tally: Tally, tracer=None) -> None:
        rng = random.Random(sub_seed(self.seed, "certify", r))
        self._batch(self.inputs(rng, BATCH), tally, tracer, True, r * BATCH)


# ---------------------------------------------------------------------------
# construct


@dataclass(frozen=True)
class Recipe:
    """How to build one inner codebook from a seed, or from its default seed
    when the seed is None.

    seeded says whether the words depend on the seed (a SEEDED_RANDOM
    book); a LEX book's words do not.
    """

    name: str
    seeded: bool
    build: Callable[[int | None], innercode.Codebook]


def desk_book(scheme: str, seeded: bool) -> Recipe:
    """The inner book of the scheme's desk spec, as make_scheme_spec builds
    it, with the spec's seed replaced by the given one."""
    def build(seed):
        overrides = None if seed is None else {"seed": seed}
        return presets.make_scheme_spec(scheme, overrides=overrides).inner

    return Recipe(scheme, seeded, build)


# The three desk inner books and acceptance check c05's
# greedy_listdec(10, 1/4, 3).  A book whose candidate policy does not match
# its recipe's seeded flag fails the output check.
BOOKS = (
    desk_book("highnoise", True),
    desk_book("hirate", True),
    desk_book("listdec", False),
    Recipe("c05", False, lambda seed: innercode.greedy_listdec(
        10, Fraction(1, 4), 3)),
)


def book_digest(book) -> str:
    """SHA-256 of a codebook's codeword list, in order."""
    h = hashlib.sha256()
    for w in book.codewords:
        h.update((",".join(map(str, w.symbols)) + "\n").encode())
    return h.hexdigest()


class Construct:
    """Greedy inner-code construction: build a book, then re-verify it with
    check_codebook.  Round r builds book r mod len(recipes), so one op is one
    book and a cycle builds each book once; the work unit is an accepted
    codeword.  Nothing is built before the loop, so set-up is the import.

    Seeded books are checked against their pins at the default seed in the
    warm-up; the loop builds them from seeds derived from the workload seed.
    LEX books do not depend on the seed, so every build is checked.
    """

    name = "construct"
    work_unit = "accepted codewords"
    layers = ("seqkit.subseq", "seqkit.lcs", "seqkit.multi_lcs",
              "innercode.build", "innercode.check")

    def __init__(self, seed: int, recipes=BOOKS):
        self.seed = seed
        self.recipes = recipes
        self.cycle = len(recipes)

    def setup(self) -> None:
        pass

    @staticmethod
    def _op(recipe: Recipe, seed):
        try:
            book = recipe.build(seed)
        except DeletionCodeError:
            return None, False
        return book, innercode.check_codebook(book)["ok"]

    def _book(self, recipe: Recipe, seed, tally: Tally, tracer, op_id,
              timed: bool) -> str | None:
        t0 = tally.clock()
        book, ok = _call(tracer, op_id, self._op, recipe, seed)
        dt = tally.clock() - t0
        digest = None if book is None else book_digest(book)
        if ok:
            seeded = (book.candidate_policy
                      is CandidatePolicy.SEEDED_RANDOM)
            pinned = seed is None or not seeded
            ok = (seeded == recipe.seeded
                  and (not pinned or digest == PINS[f"book.{recipe.name}"]))
        tally.gate(ok)
        if timed:
            tally.timed(dt, 0 if book is None else len(book.codewords))
        return digest

    def known_answer(self, tally: Tally) -> None:
        for recipe in self.recipes:
            if recipe.seeded:
                self._book(recipe, None, tally, None, 0, False)

    def run_round(self, r: int, tally: Tally, tracer=None) -> None:
        cycle, i = divmod(r, self.cycle)
        recipe = self.recipes[i]
        seed = (sub_seed(self.seed, "construct", recipe.name, cycle)
                if recipe.seeded else None)
        digest = self._book(recipe, seed, tally, tracer, r, True)
        if cycle == 0:
            tally.digests[f"book.{recipe.name}"] = digest


WORKLOADS = {w.name: w for w in (Sweep, Certify, Construct)}
