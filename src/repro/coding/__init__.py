"""Random linear network coding (RLNC) data plane.

Implements practical network coding per Chou–Wu–Jain [5]: content is split
into generations; the source emits random combinations with coefficient
headers (:class:`SourceEncoder`); peers buffer-and-mix without decoding
(:class:`Recoder`); receivers decode by progressive Gaussian elimination
(:class:`Decoder`).
"""

from .decoder import Decoder, GenerationDecoder
from .encoder import SourceEncoder
from .generation import GenerationParams, join_content, split_content
from .packet import CodedPacket, SourceBlock, combine
from .wire import decode_packet, encode_packet, frame_size
from .recoder import Recoder

__all__ = [
    "CodedPacket",
    "Decoder",
    "GenerationDecoder",
    "GenerationParams",
    "decode_packet",
    "encode_packet",
    "frame_size",
    "Recoder",
    "SourceBlock",
    "SourceEncoder",
    "combine",
    "join_content",
    "split_content",
]
