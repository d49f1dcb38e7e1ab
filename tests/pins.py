"""SHA-256 pins of inner books' codeword lists, and the digest they take.

A book's digest hashes its codewords in order, one line of comma-joined
symbols each.  The pins hold the bytes across commits: a change that moves
a codeword fails the test that reads its pin, even though two builds in one
process still agree.  The three desk books are keyed by scheme name, as
their specs name themselves.
"""

import hashlib

BOOKS = {
    "highnoise":
        "0edfbb948f221aaa08b7d4e1fad5fa9ea26c96514969e6c87b06168be2915da2",
    "hirate":
        "74c9057d7bd1f5af0cb3c8864b22cf1144c6f0bde6d25540281c09a34ecc56c5",
    "listdec":
        "e0b1f67623aaa128e3b367246010b7d93ab28c7153decd7e0e65022abe588079",
    # greedy_listdec(10, 1/4, 3), acceptance check c05's book
    "c05":
        "107aaba394519ed93be96ce0f7e3ae3a6457bff799bd5ba85aa2a78f1b5335f2",
    # the desk listdec spec's book with m = 20
    "listdec.m20":
        "71b435d54e833e62e6d3ce4b07ee6b662ff4490e2fcbbb74250ef98302c0e433",
}


def book_digest(book) -> str:
    """The SHA-256, as hex, of a codebook's codeword list."""
    h = hashlib.sha256()
    for w in book.codewords:
        h.update((",".join(map(str, w.symbols)) + "\n").encode())
    return h.hexdigest()
