"""Worst-case deletion codes: constructions, decoders, adversarial harness.

Three concatenated schemes built on one toolkit: unique decoding from a
1 - epsilon deletion fraction over a large alphabet (highnoise), rate
approaching 1 - delta for a delta fraction of deletions via dense binary
inner words and zero buffers (hirate), and binary list decoding from a
1/2 - epsilon fraction (listdec).  The channel module supplies budgeted
adversary strategies and the deterministic trial runner; the cli module
fronts all of it.
"""
