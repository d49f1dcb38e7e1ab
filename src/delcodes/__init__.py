"""Worst-case deletion codes: constructions, decoders, adversarial harness.

Three concatenated schemes built on one toolkit: unique decoding from a
1 - epsilon deletion fraction over a large alphabet (highnoise), rate
approaching 1 - delta for a delta fraction of deletions via dense binary
inner words and zero buffers (hirate), and binary list decoding from a
1/2 - epsilon fraction (listdec).  The channel module supplies budgeted
adversary strategies and the deterministic trial runner; the cli module
fronts all of it.
"""

from .common import Profile, derive_seed
from .errors import (
    Ambiguous,
    BudgetExceeded,
    DecodeFailure,
    DeletionCodeError,
    GuardExceeded,
    InfeasibleAtDeskScale,
    InvalidOverride,
    NoMatch,
    OutOfRange,
    PatternOutOfRange,
    TargetUnreachable,
)
from .seqkit import (
    Word,
    count_bound_binary,
    count_bound_general,
    count_supersequences,
    is_subsequence,
    lcs,
)
from .gf import make_field
from .rsouter import (
    ERASED,
    RsParams,
    rs_decode_ee,
    rs_encode,
    rs_list_recover_bruteforce,
)
from .innercode import (
    CandidatePolicy,
    Codebook,
    CodebookKind,
    check_codebook,
    greedy_dense,
    greedy_listdec,
    greedy_unique,
    inner_decode_list,
    inner_decode_unique,
    rate_report,
    separation_threshold,
)
from .highnoise import (
    HighNoiseSpec,
    hn_decode,
    hn_encode,
    hn_make_spec,
    hn_rate_report,
)
from .hirate import (
    HiRateSpec,
    br_decode,
    br_encode,
    br_guarantee_report,
    br_make_spec,
    br_rate_report,
    br_windows,
)
from .listdec import (
    ListDecSpec,
    ld_decode,
    ld_encode,
    ld_make_spec,
    ld_report,
    ld_windows,
)
from .channel import (
    DeletionPattern,
    Strategy,
    STRATEGY_NAMES,
    TrialReport,
    apply_deletions,
    attack,
    read_reports,
    run_trials,
    write_reports,
)
from .presets import PRESETS, SCHEMES, make_scheme_spec

__all__ = [name for name in dir() if not name.startswith("_")]
