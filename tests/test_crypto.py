import hashlib

import pytest

from attestsim.crypto import (
    BLINDING_LEN,
    commitment_digest,
    public_bytes,
    sign_account_id,
    signing_key_from_seed,
    verify_account_signature,
)


def test_digest_is_sha256_of_shifted_vote_and_blinding():
    blinding = bytes(range(32))
    for vote, byte in ((-1, 0), (0, 1), (1, 2)):
        expected = hashlib.sha256(bytes([byte]) + blinding).digest()
        assert commitment_digest(vote, blinding) == expected


def test_digest_rejects_bad_votes_and_blindings():
    for vote in (2, True, 1.0):
        with pytest.raises(ValueError, match="vote must be -1, 0 or \\+1"):
            commitment_digest(vote, bytes(32))
    with pytest.raises(ValueError):
        commitment_digest(1, bytes(31))
    with pytest.raises(ValueError):
        commitment_digest(1, bytes(33))


def test_blinding_length_is_part_of_the_digest_preimage():
    assert BLINDING_LEN == 32
    a = commitment_digest(1, bytes(32))
    b = commitment_digest(1, bytes([1]) + bytes(31))
    assert a != b


def test_signature_round_trip():
    key = signing_key_from_seed(bytes(32))
    pub = public_bytes(key)
    sig = sign_account_id(key, "alice")
    assert verify_account_signature(pub, "alice", sig)
    assert not verify_account_signature(pub, "bob", sig)


def test_signature_from_other_key_rejected():
    key_a = signing_key_from_seed(bytes(32))
    key_b = signing_key_from_seed(bytes([7]) * 32)
    sig = sign_account_id(key_b, "alice")
    assert not verify_account_signature(public_bytes(key_a), "alice", sig)


def test_deterministic_keys_from_seed():
    assert public_bytes(signing_key_from_seed(bytes(32))) == public_bytes(
        signing_key_from_seed(bytes(32))
    )
