"""Commitment hashing and registration signatures.

A vote commitment is SHA-256 over a single vote byte (vote + 1, so 0x00,
0x01 or 0x02) followed by exactly 32 bytes of blinding. Registration
identity is an Ed25519 signature over the player's raw account-id bytes.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

BLINDING_LEN = 32


def commitment_digest(vote: int, blinding: bytes) -> bytes:
    if type(vote) is not int or vote not in (-1, 0, 1):
        raise ValueError(f"vote must be -1, 0 or +1, got {vote}")
    if len(blinding) != BLINDING_LEN:
        raise ValueError(f"blinding must be exactly {BLINDING_LEN} bytes, got {len(blinding)}")
    return hashlib.sha256(bytes([vote + 1]) + blinding).digest()


def signing_key_from_seed(seed: bytes) -> Ed25519PrivateKey:
    if len(seed) != 32:
        raise ValueError("key seed must be 32 bytes")
    return Ed25519PrivateKey.from_private_bytes(seed)


def public_bytes(key: Ed25519PrivateKey) -> bytes:
    from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

    return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def sign_account_id(key: Ed25519PrivateKey, account_id: str) -> bytes:
    return key.sign(account_id.encode("utf-8"))


@lru_cache(maxsize=4096)
def _verify_cached(public_key: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify_account_signature(public_key: bytes, account_id: str, signature: bytes) -> bool:
    """True iff `signature` is a valid Ed25519 signature over the raw id bytes.

    Memoized: the same (key, id, signature) triple is re-checked on every
    registration across a long sweep.
    """
    return _verify_cached(public_key, signature, account_id.encode("utf-8"))
