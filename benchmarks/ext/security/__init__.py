"""§7's open problem, implemented: homomorphic-hash-verified coding.

* :mod:`ext.security.modmath` — Z_q arithmetic (q = 2³¹−1) and
  byte/symbol packing.
* :mod:`ext.security.codec` — RLNC encoder/decoder/recoder over Z_q.
* :mod:`ext.security.homomorphic` — the Krohn–Freedman–Mazières hash:
  per-source hashes published once; any mixture verifiable by anyone.
* :mod:`ext.security.defence` — :class:`VerifiedRelay`, which drops
  jammed packets on contact instead of letting them contaminate decodes.
"""

from .codec import PrimeDecoder, PrimeEncoder, PrimePacket, PrimeRecoder
from .defence import RelayStats, VerifiedRelay, make_jam_packet
from .homomorphic import (
    HashParams,
    HomomorphicHasher,
    find_group_modulus,
    generate_params,
)
from .modmath import Q, bytes_to_symbols, symbols_to_bytes

__all__ = [
    "HashParams",
    "HomomorphicHasher",
    "PrimeDecoder",
    "PrimeEncoder",
    "PrimePacket",
    "PrimeRecoder",
    "Q",
    "RelayStats",
    "VerifiedRelay",
    "bytes_to_symbols",
    "find_group_modulus",
    "generate_params",
    "make_jam_packet",
    "symbols_to_bytes",
]
