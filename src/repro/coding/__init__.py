"""Coding substrate: GF(2^8) arithmetic, matrices, Reed-Solomon, and RLNC.

The paper uses two coding black boxes:

* **Reed-Solomon erasure codes** (Lemma 16, Lemma 26, Lemma 30): from ``k``
  message packets, generate ``m >= k`` coded packets such that *any* ``k`` of
  them reconstruct the originals (the MDS property).
* **Random linear network coding** (Lemmas 12-13, following Haeupler [24]):
  nodes broadcast random GF-linear combinations of the coded packets they
  hold; a node decodes once it has collected ``k`` linearly independent
  combinations.

Both are implemented here from scratch over GF(2^8).
"""

from repro.coding.gf256 import GF256
from repro.coding.matrix import GFMatrix
from repro.coding.reed_solomon import ReedSolomonCode
from repro.coding.rlnc import (
    CodedPacket,
    RLNCBank,
    RLNCDecoder,
    RLNCEncoder,
    random_coefficients,
)

__all__ = [
    "GF256",
    "GFMatrix",
    "ReedSolomonCode",
    "CodedPacket",
    "RLNCBank",
    "RLNCDecoder",
    "RLNCEncoder",
    "random_coefficients",
]
