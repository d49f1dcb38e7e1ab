"""Ready-made spec parameter sets for each scheme and profile.

The desk shapes are probe-verified: every inner codebook below builds to
its full target in seconds with the pinned seed, and the hirate desk chain
was sized so the adversary's cheapest structural attacks (buffer kill,
codeword split) all cost more than the whole deletion budget.  The paper
shapes keep the published derivations; for hirate that is honest about
being unbuildable at desk scale, and for listdec about a list size beyond
the whole book, which the CLI surfaces as a feasibility error rather than
papering over.
"""

from __future__ import annotations

from fractions import Fraction

from .common import Profile
from .errors import InvalidOverride
from .highnoise import hn_make_spec
from .hirate import br_make_spec
from .listdec import ld_make_spec

PRESETS: dict[tuple[str, Profile], dict] = {
    ("highnoise", Profile.DESK): {
        "epsilon": Fraction(1, 2),
        "q": 8,
        "overrides": {"D": 4, "k": 256, "m": 8, "seed": 5},
    },
    ("highnoise", Profile.PAPER_ASYMPTOTIC): {
        "epsilon": Fraction(1, 2),
        "q": 8,
        "overrides": {"seed": 5},
    },
    ("hirate", Profile.DESK): {
        "epsilon": Fraction(7, 372),
        "q": 4,
        "overrides": {"m": 84, "delta": Fraction(5, 84), "buffer_len": 12,
                      "n": 4, "n_prime": 1, "zeros": 14, "min_gap": 4,
                      "seed": 3},
    },
    ("hirate", Profile.PAPER_ASYMPTOTIC): {
        # delta = 40*sqrt(eps) = 4/5: a desk-size dense book cannot separate
        # at that threshold, so building this is expected to fail cleanly.
        "epsilon": Fraction(1, 2500),
        "q": 4,
        "overrides": {"m": 40, "attempt_cap": 500, "seed": 3},
    },
    ("listdec", Profile.DESK): {
        "epsilon": Fraction(5, 12),
        "q": 5,
        "overrides": {"n": 3, "n_prime": 1, "delta": Fraction(1, 4), "m": 8,
                      "list_size": 4, "seed": 11},
    },
    ("listdec", Profile.PAPER_ASYMPTOTIC): {
        "epsilon": Fraction(1, 5),
        "q": 4,
        "overrides": {"n": 3, "n_prime": 1, "m": 8, "seed": 1},
    },
}

SCHEMES = ("highnoise", "hirate", "listdec")


def make_scheme_spec(scheme: str, profile: Profile = Profile.DESK,
                     epsilon=None, overrides: dict | None = None, *,
                     q: int | None = None):
    """Build a scheme spec, filling gaps from the preset for that profile.

    Explicit arguments win over the preset; override dicts are merged
    key-by-key so a caller can retune one knob without restating the rest.
    Every builder takes (epsilon, q, profile, overrides); the rest of the
    outer shape (n, n_prime, and hirate's field power h) is set by override
    keys, which the builder checks.
    """
    if scheme not in SCHEMES:
        raise InvalidOverride(f"unknown scheme {scheme!r}; valid: {SCHEMES}")
    preset = PRESETS[(scheme, profile)]
    eps = preset["epsilon"] if epsilon is None else Fraction(epsilon)
    q = preset["q"] if q is None else q
    merged = {**preset["overrides"], **(overrides or {})}
    # Named at call time, so a wrapper swapped onto this module is used.
    if scheme == "highnoise":
        return hn_make_spec(eps, q, profile, merged)
    if scheme == "hirate":
        return br_make_spec(eps, q, profile, merged)
    return ld_make_spec(eps, q, profile, merged)
