"""Golden trace gate: the sha256 of every shipped scenario's trace and of
every corpus trace is pinned, so refactors and speed work cannot change a
byte of what a run logs. The pins are never regenerated to make a change
pass; a change that moves one changes the program's observable behaviour.
"""

import hashlib
from pathlib import Path

import pytest

from attestsim.scenario import load_config, run, validate_config
from corpus import RAW_CORPUS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PINS = {
    "scenarios/smoke.json": "f6187a5b04e07c6e89862f66044d439066713d558847950d8e9329b8cc4dff55",
    "scenarios/incentives.json": "365e8b87831caefe7fc18911ca32c31be34800e3dbd8ce5855e85c42323f4daa",
    "unanimity_valid": "436352e9ed5063ae49ecfcb154731794e2e21455d64fc0a5c035417961d676df",
    "unanimity_invalid": "f6d6df3a5453b0aeb12de05e8321ac1ae652d55bc857df78928c0b2847c63ecc",
    "split_three_two": "a0107b0677c5976ad19613ffff99ee4ed71697228a6ec36efa29bde3be412a7e",
    "all_zero_votes": "620a4aa9e97cc0e7036e92b68742a3fff41d2cc48272236fbfb9bbc501f547fd",
    "free_riders_penalized": "cf38c0ffe9cc677e96cb6bc336db3fab25b5f3fdd6ccf6e87bc3efaae122f856",
    "free_rider_in_annulled_round": "5c866ee0e495501ca1aaf195c405e3e15f2536040360e1a50f8c8f18d43e6cb3",
    "feedback_pass": "53cce751579f2f1fc6afd3521e943e2e3cb20b159bfede5e6e0e3b7083d7c163",
    "feedback_fail": "a8ba4d8f8f4e101788a7661e17c97daf74289b9e61321382ffae0c83f3aa8247",
    "feedback_annulled": "352f2dacc18a4f614df89889fe77713a0cd70b7f2c1489a089adebd632783bce",
    "feedback_free_rider": "ccd9d9bc687c40ef840ae5125e4593d850bab501a16f92482b004f923f55b0c4",
    "colluders_outvoted": "644804ed74544d156cd65c637fa1dd85416406112c28872e732cd356da1e8337",
    "colluders_block_attestation": "16864791f175bd3abb8d9b892921d0f1ad94d2528ab9438a90355e87c4d3aca2",
    "colluders_capture_majority": "bd6139f41a1aa2d7f3d5e829c12c40696d6fc4f45b4d19a5220c4a679e3da009",
    "roster_cap_binding": "4bdbd3222aac984d7feed7705e3d71b759d393edf2766aea25be8a770355d3e0",
    "deposit_too_small_rejected": "801cb32b4838f442b047d7d149a3cf66d1419154c350116822db2d51b658daba",
    "abstainers": "8895f0e2cc3c41a2a9fa6073374a2d6ca9b38f3691de137630668a0aedf7a1b5",
    "zero_vote_minority": "6a928f2e1a1845608a3a32bd0e164adf3251b7df6066f1047befc7a24d38a240",
    "two_player_minimum": "e293aaa3c570cc18afe74fdbc8c747210ce5e93cfae8cb5c324474241df2e29c",
    "derivation_variant": "91b98fb6ecdcbe9d7b20497478a8464fd4435ea89c5896e8522a9a6a551df0f8",
    "large_epsilon": "b35ae3db286d25e09bd3d636e0d480bd4792e8dca44797ce54dd5d4f94ce433d",
    "multi_design_reputation_chain": "dc1746b2c10ef1cc7b86e29594af155ea84546205dd0e3c3607199221921a6c6",
    "guessers_mixed": "c40bda849b190ccde196bf77f192495692923c333a3210c6ce6ad44832c62a66",
    "threshold_one_annuls_everything": "4b149e2b28a08fc71f96b68023ad1d20db09dc1c4c0e79dd4374d31547d65288",
    "threshold_barely_above_half": "c9e5a158907113d2d48f653eaa71daf6ef96080765eb3b58b5a44914064cb767",
}


def _config(name):
    if name.startswith("scenarios/"):
        return load_config(SCENARIOS / Path(name).name)
    return validate_config(RAW_CORPUS[name])


def test_every_corpus_entry_is_pinned():
    assert set(PINS) == {"scenarios/smoke.json", "scenarios/incentives.json", *RAW_CORPUS}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_bytes_match_the_pin(name):
    text = "\n".join(run(_config(name)).trace_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[name]
